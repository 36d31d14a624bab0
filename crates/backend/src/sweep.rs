//! The declarative experiment-sweep harness.
//!
//! A [`Sweep`] is the reproduction's experiment grid: workloads × worker
//! counts × backends × DM designs × Picos instance counts, exactly the axes
//! the paper's evaluation walks (Figures 1, 8, 9, 11; Tables II and IV).
//! Cells are enumerated in a deterministic order, executed in parallel on
//! OS threads ([`crate::par`]), and collected into a [`SweepResult`] whose
//! row order equals cell order — so the same grid produces byte-identical
//! results regardless of thread count.

use crate::backends::BackendSpec;
use crate::par;
use crate::session::SessionConfig;
use picos_cluster::FaultPlan;
use picos_core::{DmDesign, PicosConfig, TsPolicy};
use picos_hil::LinkModel;
use picos_metrics::span;
use picos_metrics::Timeline;
use picos_trace::gen::App;
use picos_trace::{json_escape, TaskGraph, TaskId, Trace};
use std::fmt;
use std::sync::Arc;

/// One workload of a sweep: a labelled, shared trace.
///
/// Traces are generated once when the sweep is built and shared (`Arc`)
/// across all cells that execute them, so a 5-backend × 7-worker-count grid
/// generates each application exactly once.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display label (application name for generated workloads).
    pub label: String,
    /// Block size / granularity knob, when meaningful.
    pub block_size: Option<u64>,
    /// The trace every cell of this workload executes.
    pub trace: Arc<Trace>,
}

impl Workload {
    /// A paper application at a block size.
    pub fn from_app(app: App, block_size: u64) -> Self {
        Workload {
            label: app.name().to_string(),
            block_size: Some(block_size),
            trace: Arc::new(app.generate(block_size)),
        }
    }

    /// An arbitrary trace under an explicit label.
    pub fn from_trace(label: impl Into<String>, trace: Arc<Trace>) -> Self {
        let block_size = trace.block_size;
        Workload {
            label: label.into(),
            block_size,
            trace,
        }
    }
}

/// One point of the experiment grid, before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Index of the workload in the sweep's workload list (labels need not
    /// be unique; the trace is resolved through this index).
    workload_index: usize,
    /// Workload label.
    pub workload: String,
    /// Workload block size, when meaningful.
    pub block_size: Option<u64>,
    /// Backend family to run.
    pub backend: BackendSpec,
    /// Worker count.
    pub workers: usize,
    /// Picos DM design (ignored by non-Picos backends).
    pub dm: DmDesign,
    /// Picos TRS/DCT instance count (ignored by non-Picos backends).
    pub instances: usize,
    /// Shard count of the cell's backend (1 for every single-accelerator
    /// family).
    pub shards: usize,
    /// Deterministic fault schedule of the cell ([`Sweep::faults`] axis;
    /// cluster cells only — the other families have no interconnect to
    /// fault, so the axis collapses to its first entry for them).
    pub fault: Option<FaultPlan>,
}

impl SweepCell {
    /// The Picos core configuration this cell runs under.
    pub fn picos_config(&self, ts_policy: TsPolicy) -> PicosConfig {
        PicosConfig::future(self.instances, self.dm).with_ts_policy(ts_policy)
    }

    /// Whether this cell's backend has an interconnect to fault: the fault
    /// axis is degenerate-collapsed for every other family, whose fault
    /// columns therefore read an exact 0 rather than "not measured".
    pub fn has_interconnect(&self) -> bool {
        matches!(self.backend, BackendSpec::Cluster(_))
    }
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.workload)?;
        if let Some(bs) = self.block_size {
            write!(f, "/bs{bs}")?;
        }
        write!(f, " {} w{}", self.backend, self.workers)?;
        if self.backend.uses_picos_config() {
            write!(f, " {} x{}", self.dm, self.instances)?;
        }
        if self.shards > 1 {
            write!(f, " s{}", self.shards)?;
        }
        if let Some(plan) = &self.fault {
            write!(f, " fault#{}", plan.seed)?;
        }
        Ok(())
    }
}

/// One executed cell: the grid coordinates plus the measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Workload label.
    pub workload: String,
    /// Workload block size, when meaningful.
    pub block_size: Option<u64>,
    /// Backend family that ran.
    pub backend: BackendSpec,
    /// Worker count.
    pub workers: usize,
    /// Picos DM design of the cell.
    pub dm: DmDesign,
    /// Picos instance count of the cell.
    pub instances: usize,
    /// Shard count of the cell (1 for single-accelerator backends, so old
    /// and new result files stay comparable).
    pub shards: usize,
    /// Total simulated time (0 when the cell errored).
    pub makespan: u64,
    /// Sequential execution time of the workload.
    pub sequential: u64,
    /// Speedup against sequential (0 when the cell errored).
    pub speedup: f64,
    /// DM conflicts (Picos backends only; paper Table II).
    pub dm_conflicts: Option<u64>,
    /// VM-capacity stalls (Picos backends only).
    pub vm_stalls: Option<u64>,
    /// TM-capacity stalls (Picos backends only).
    pub tm_stalls: Option<u64>,
    /// Link drop probability of the cell's fault plan. `Some(0.0)` for
    /// interconnect-free backends (their fault axis is degenerate, so the
    /// column is an exact zero); `None` only for a cluster cell that ran
    /// without a plan.
    pub drop_rate: Option<f64>,
    /// Interconnect messages dropped by fault injection. `Some(0)` for
    /// interconnect-free backends; `None` for a cluster cell without an
    /// active plan (unmeasured, not zero).
    pub link_drops: Option<u64>,
    /// Interconnect retransmissions by the retry protocol; same presence
    /// rules as [`SweepRow::link_drops`].
    pub link_retries: Option<u64>,
    /// Cycle-windowed telemetry of the cell's run, when the sweep was
    /// built with [`Sweep::timeline`] (in-flight occupancy, per-unit busy
    /// cycles over time; see [`SweepResult::timelines_csv`] for the
    /// long-format emit).
    pub timeline: Option<Timeline>,
    /// Critical-path composition of the cell's makespan, when the sweep
    /// was built with [`Sweep::critical_path`]: the compact
    /// `category:cycles;...` rendering of
    /// [`span::CriticalPath::compact`], whose cycles sum to the makespan.
    pub critical_path: Option<String>,
    /// Error description when the cell failed or was skipped.
    pub error: Option<String>,
}

/// The tabular outcome of a sweep, rows in deterministic cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    rows: Vec<SweepRow>,
}

impl SweepResult {
    /// The rows, in cell-enumeration order.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// First error among the cells, if any.
    pub fn first_error(&self) -> Option<&str> {
        self.rows.iter().find_map(|r| r.error.as_deref())
    }

    /// Speedup of the first row matching workload, block size, backend and
    /// worker count (the common lookup of pivoted figure tables).
    pub fn speedup_of(
        &self,
        workload: &str,
        block_size: u64,
        backend: BackendSpec,
        workers: usize,
    ) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| {
                r.workload == workload
                    && r.block_size == Some(block_size)
                    && r.backend == backend
                    && r.workers == workers
                    && r.error.is_none()
            })
            .map(|r| r.speedup)
    }

    /// Renders the result as CSV (stable column set, one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "workload,block_size,backend,workers,dm,instances,shards,makespan,\
             sequential,speedup,dm_conflicts,vm_stalls,tm_stalls,drop_rate,link_drops,\
             link_retries,critical_path,error\n",
        );
        let opt = |v: &Option<u64>| v.map_or(String::new(), |v| v.to_string());
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{}\n",
                csv_field(&r.workload),
                r.block_size.map_or(String::new(), |v| v.to_string()),
                r.backend,
                r.workers,
                r.dm.name().replace(' ', "-"),
                r.instances,
                r.shards,
                r.makespan,
                r.sequential,
                r.speedup,
                opt(&r.dm_conflicts),
                opt(&r.vm_stalls),
                opt(&r.tm_stalls),
                r.drop_rate.map_or(String::new(), |v| format!("{v}")),
                opt(&r.link_drops),
                opt(&r.link_retries),
                csv_field(r.critical_path.as_deref().unwrap_or("")),
                csv_field(r.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }

    /// Renders the result as a JSON array of row objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: &Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"block_size\":{},\"backend\":\"{}\",\
                 \"workers\":{},\"dm\":\"{}\",\"instances\":{},\"shards\":{},\
                 \"makespan\":{},\
                 \"sequential\":{},\"speedup\":{:.6},\"dm_conflicts\":{},\
                 \"vm_stalls\":{},\"tm_stalls\":{},\"drop_rate\":{},\
                 \"link_drops\":{},\"link_retries\":{},\"critical_path\":{},\
                 \"error\":{}}}",
                json_escape(&r.workload),
                r.block_size.map_or("null".to_string(), |v| v.to_string()),
                r.backend,
                r.workers,
                r.dm.name(),
                r.instances,
                r.shards,
                r.makespan,
                r.sequential,
                r.speedup,
                opt(&r.dm_conflicts),
                opt(&r.vm_stalls),
                opt(&r.tm_stalls),
                r.drop_rate.map_or("null".to_string(), |v| format!("{v}")),
                opt(&r.link_drops),
                opt(&r.link_retries),
                r.critical_path
                    .as_deref()
                    .map_or("null".to_string(), |c| format!("\"{}\"", json_escape(c))),
                r.error
                    .as_deref()
                    .map_or("null".to_string(), |e| format!("\"{}\"", json_escape(e))),
            ));
        }
        out.push(']');
        out
    }

    /// Renders every cell's telemetry timeline (when the sweep was built
    /// with [`Sweep::timeline`]) as one long-format CSV: the cell's grid
    /// coordinates, the window bounds, the series name and its value —
    /// the shape utilization-vs-time plots consume directly.
    pub fn timelines_csv(&self) -> String {
        let mut out = String::from(
            "workload,block_size,backend,workers,dm,instances,shards,\
             window_start,window_end,series,value\n",
        );
        for r in &self.rows {
            let Some(tl) = &r.timeline else { continue };
            let prefix = format!(
                "{},{},{},{},{},{},{}",
                csv_field(&r.workload),
                r.block_size.map_or(String::new(), |v| v.to_string()),
                r.backend,
                r.workers,
                r.dm.name().replace(' ', "-"),
                r.instances,
                r.shards,
            );
            for i in 0..tl.len() {
                let (start, end, values) = tl.sample(i);
                for (spec, v) in tl.series().iter().zip(values) {
                    out.push_str(&format!("{prefix},{start},{end},{},{v}\n", spec.name));
                }
            }
        }
        out
    }

    /// Writes `<name>.csv` and `<name>.json` into `dir`, plus
    /// `<name>_timeline.csv` when any cell recorded telemetry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, writes).
    pub fn write_files(&self, dir: &std::path::Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())?;
        std::fs::write(dir.join(format!("{name}.json")), self.to_json())?;
        if self.rows.iter().any(|r| r.timeline.is_some()) {
            std::fs::write(
                dir.join(format!("{name}_timeline.csv")),
                self.timelines_csv(),
            )?;
        }
        Ok(())
    }
}

/// RFC-4180 CSV quoting: fields with commas, quotes or newlines are
/// wrapped in double quotes with inner quotes doubled. Workload labels
/// come from arbitrary trace names, so they need this.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

type CellFilter = Box<dyn Fn(&SweepCell) -> bool + Send + Sync>;

/// A declarative experiment grid over workloads, workers, backends and
/// Picos design points, executed cell-parallel.
///
/// Build with [`Sweep::new`] / [`Sweep::over_apps`], refine with the
/// builder methods, then [`Sweep::run`]. Every axis defaults to the
/// paper's baseline: 12 workers, all six backends of
/// [`BackendSpec::ALL`] (including the one-shard cluster), the balanced
/// Pearson-hashed DM, a single TRS/DCT instance, FIFO scheduling, the
/// default interconnect.
#[allow(missing_debug_implementations)] // the cell filter closure is opaque
pub struct Sweep {
    workloads: Vec<Workload>,
    workers: Vec<usize>,
    backends: Vec<BackendSpec>,
    dm_designs: Vec<DmDesign>,
    instances: Vec<usize>,
    ts_policy: TsPolicy,
    link: LinkModel,
    timeline: Option<u64>,
    critical_path: bool,
    threads: Option<usize>,
    faults: Vec<Option<FaultPlan>>,
    filter: Option<CellFilter>,
    fail_fast: bool,
}

impl Sweep {
    /// A sweep over explicit workloads with paper-default axes.
    pub fn new(workloads: impl IntoIterator<Item = Workload>) -> Self {
        Sweep {
            workloads: workloads.into_iter().collect(),
            workers: vec![12],
            backends: BackendSpec::ALL.to_vec(),
            dm_designs: vec![DmDesign::PearsonEightWay],
            instances: vec![1],
            ts_policy: TsPolicy::Fifo,
            link: LinkModel::interconnect(),
            timeline: None,
            critical_path: false,
            threads: None,
            faults: vec![None],
            filter: None,
            fail_fast: false,
        }
    }

    /// A sweep over the cross product of applications and block sizes
    /// (each trace generated once, up front).
    pub fn over_apps(
        apps: impl IntoIterator<Item = App>,
        block_sizes: impl IntoIterator<Item = u64> + Clone,
    ) -> Self {
        let mut workloads = Vec::new();
        for app in apps {
            for bs in block_sizes.clone() {
                workloads.push(Workload::from_app(app, bs));
            }
        }
        Sweep::new(workloads)
    }

    /// Sets the worker-count axis.
    pub fn workers(mut self, workers: impl IntoIterator<Item = usize>) -> Self {
        self.workers = workers.into_iter().collect();
        self
    }

    /// Sets the backend axis.
    pub fn backends(mut self, backends: impl IntoIterator<Item = BackendSpec>) -> Self {
        self.backends = backends.into_iter().collect();
        self
    }

    /// Sets the DM-design axis (Picos backends only).
    pub fn dm_designs(mut self, designs: impl IntoIterator<Item = DmDesign>) -> Self {
        self.dm_designs = designs.into_iter().collect();
        self
    }

    /// Sets the TRS/DCT instance-count axis (Picos backends only; the
    /// paper's "future architecture").
    pub fn instances(mut self, instances: impl IntoIterator<Item = usize>) -> Self {
        self.instances = instances.into_iter().collect();
        self
    }

    /// Sets the Task Scheduler policy for all Picos cells (Figure 9).
    pub fn ts_policy(mut self, policy: TsPolicy) -> Self {
        self.ts_policy = policy;
        self
    }

    /// Sets the inter-shard interconnect cost model for all cluster cells
    /// (single-accelerator backends ignore it).
    pub fn interconnect(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Records a cycle-windowed telemetry [`Timeline`] for every cell
    /// (in-flight occupancy, per-unit busy cycles over time), stored on
    /// [`SweepRow::timeline`] and emitted by
    /// [`SweepResult::timelines_csv`]. Observation-only: makespans and
    /// counters are unchanged.
    pub fn timeline(mut self, window: u64) -> Self {
        self.timeline = Some(window);
        self
    }

    /// Records task-lifecycle spans for every cell and attributes each
    /// cell's makespan along its critical path, stored compactly on
    /// [`SweepRow::critical_path`] (`category:cycles;...`, summing to the
    /// makespan) and emitted in the `critical_path` column. Span tracing
    /// is observation-only: makespans and counters are unchanged.
    pub fn critical_path(mut self) -> Self {
        self.critical_path = true;
        self
    }

    /// Caps the number of OS threads executing cells.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Runs every cell on the calling thread (equivalent to `threads(1)`).
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Sets the fault-schedule axis: each entry runs every cluster cell
    /// once under that plan (`None` = the fault-free engine). Only cluster
    /// cells expand this axis — the other families have no interconnect to
    /// fault, so they take the first entry only (put `None` first to keep
    /// them fault-free). Fault rows report the plan's drop rate plus the
    /// run's drop/retry counters in the `drop_rate`, `link_drops` and
    /// `link_retries` columns. An empty iterator resets the axis to the
    /// fault-free default.
    pub fn faults(mut self, faults: impl IntoIterator<Item = Option<FaultPlan>>) -> Self {
        self.faults = faults.into_iter().collect();
        if self.faults.is_empty() {
            self.faults.push(None);
        }
        self
    }

    /// Keeps only cells for which `keep` returns true. Filtering happens at
    /// grid-enumeration time, so a filtered sweep is still deterministic.
    pub fn filter(mut self, keep: impl Fn(&SweepCell) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Box::new(keep));
        self
    }

    /// Stops launching new cells after the first cell error; cells that
    /// never ran are reported with a "skipped" error. Which in-flight
    /// cells still complete depends on scheduling, so a fail-fast sweep
    /// trades the determinism guarantee for early exit.
    pub fn fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// Enumerates the grid cells in deterministic order: workloads (outer)
    /// × backends × DM designs × instance counts × workers (inner). For
    /// non-Picos backends the DM/instances axes are degenerate, so only
    /// their first combination is emitted — the grid stays declarative
    /// without running byte-identical cells several times.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for (workload_index, w) in self.workloads.iter().enumerate() {
            for &backend in &self.backends {
                let (dms, insts): (&[DmDesign], &[usize]) = if backend.uses_picos_config() {
                    (&self.dm_designs, &self.instances)
                } else {
                    (
                        &self.dm_designs[..1.min(self.dm_designs.len())],
                        &self.instances[..1.min(self.instances.len())],
                    )
                };
                // Only the cluster family has an interconnect to fault;
                // the other families collapse the fault axis like the
                // degenerate DM/instances axes above.
                let faults: &[Option<FaultPlan>] = if matches!(backend, BackendSpec::Cluster(_)) {
                    &self.faults
                } else {
                    &self.faults[..1.min(self.faults.len())]
                };
                for &dm in dms {
                    for &instances in insts {
                        for fault in faults {
                            for &workers in &self.workers {
                                let cell = SweepCell {
                                    workload_index,
                                    workload: w.label.clone(),
                                    block_size: w.block_size,
                                    backend,
                                    workers,
                                    dm,
                                    instances,
                                    shards: backend.shards(),
                                    fault: fault.clone(),
                                };
                                if self.filter.as_ref().is_none_or(|keep| keep(&cell)) {
                                    cells.push(cell);
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Executes the grid and collects the results.
    ///
    /// Cells run in parallel (up to the configured thread count, default:
    /// available parallelism); results land in cell-enumeration order, so
    /// `run()` is deterministic for any thread count. Cell failures are
    /// recorded in [`SweepRow::error`], never panicked.
    pub fn run(&self) -> SweepResult {
        let cells = self.cells();
        let threads = self.threads.unwrap_or_else(par::default_threads);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let rows = par::par_map(&cells, threads, |_, cell| {
            if self.fail_fast && stop.load(std::sync::atomic::Ordering::Relaxed) {
                return skipped_row(cell);
            }
            // Cells carry the index of their workload, so duplicate labels
            // can never resolve to the wrong trace.
            let trace = &self.workloads[cell.workload_index].trace;
            let row = run_cell(
                cell,
                trace,
                self.ts_policy,
                self.link,
                self.timeline,
                self.critical_path,
            );
            if self.fail_fast && row.error.is_some() {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            row
        });
        SweepResult { rows }
    }
}

fn skipped_row(cell: &SweepCell) -> SweepRow {
    SweepRow {
        workload: cell.workload.clone(),
        block_size: cell.block_size,
        backend: cell.backend,
        workers: cell.workers,
        dm: cell.dm,
        instances: cell.instances,
        shards: cell.shards,
        makespan: 0,
        sequential: 0,
        speedup: 0.0,
        dm_conflicts: None,
        vm_stalls: None,
        tm_stalls: None,
        // The plan is a grid coordinate, so its drop rate labels even
        // errored/skipped rows; the counters are outcomes and stay empty
        // for cluster cells until the run reports them. Backends without
        // an interconnect collapse the whole fault axis, so their columns
        // are the degenerate 0 the numeric CSV header implies — never an
        // empty string.
        drop_rate: if cell.has_interconnect() {
            cell.fault.as_ref().map(|p| p.drop_rate)
        } else {
            Some(0.0)
        },
        link_drops: (!cell.has_interconnect()).then_some(0),
        link_retries: (!cell.has_interconnect()).then_some(0),
        timeline: None,
        critical_path: None,
        error: Some("skipped: an earlier cell failed (fail-fast)".into()),
    }
}

fn run_cell(
    cell: &SweepCell,
    trace: &Trace,
    ts_policy: TsPolicy,
    link: LinkModel,
    timeline: Option<u64>,
    critical_path: bool,
) -> SweepRow {
    let backend = cell
        .backend
        .builder(cell.workers)
        .picos(&cell.picos_config(ts_policy))
        .link(Some(link))
        .faults(cell.fault.clone())
        .build();
    let cfg = SessionConfig {
        timeline_window: timeline,
        trace_spans: critical_path,
        ..SessionConfig::batch()
    };
    let mut row = skipped_row(cell);
    row.error = None;
    match backend.run_with_telemetry(trace, cfg) {
        Ok(out) => {
            row.makespan = out.report.makespan;
            row.sequential = out.report.sequential;
            row.speedup = out.report.speedup();
            if let Some(s) = out.stats {
                row.dm_conflicts = Some(s.dm_conflicts);
                row.vm_stalls = Some(s.vm_stalls);
                row.tm_stalls = Some(s.tm_stalls);
            }
            // Present exactly when the cell ran under an active plan;
            // keep the degenerate 0 of interconnect-free backends.
            if let Some(d) = out.metrics.value("faults.drops") {
                row.link_drops = Some(d);
            }
            if let Some(r) = out.metrics.value("faults.retries") {
                row.link_retries = Some(r);
            }
            row.timeline = out.timeline;
            if let Some(log) = &out.spans {
                let g = TaskGraph::build(trace);
                row.critical_path =
                    span::critical_path(log, |t| g.preds(TaskId::new(t)).to_vec(), row.makespan)
                        .map(|cp| cp.compact());
            }
        }
        Err(e) => {
            row.sequential = trace.sequential_time();
            row.error = Some(e.to_string());
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_core::DmDesign;
    use picos_hil::HilMode;
    use picos_trace::gen;

    #[test]
    fn grid_enumeration_is_deterministic_and_deduped() {
        let sweep = Sweep::over_apps([App::Cholesky], [256])
            .workers([2, 4])
            .backends([BackendSpec::Perfect, BackendSpec::Picos(HilMode::HwOnly)])
            .dm_designs(DmDesign::ALL)
            .instances([1, 2]);
        let cells = sweep.cells();
        // Perfect collapses the dm × instances axes (1 combo), Picos keeps
        // all 3 × 2; each combo crosses 2 worker counts.
        assert_eq!(cells.len(), 2 + 2 * (3 * 2));
        assert_eq!(cells, sweep.cells(), "enumeration must be stable");
        assert!(cells[0].backend == BackendSpec::Perfect && cells[0].workers == 2);
    }

    #[test]
    fn filter_prunes_cells() {
        let sweep = Sweep::over_apps([App::Cholesky], [256])
            .workers([2, 4, 8])
            .backends([BackendSpec::Perfect])
            .filter(|c| c.workers >= 4);
        assert_eq!(sweep.cells().len(), 2);
    }

    #[test]
    fn parallel_equals_serial_on_small_grid() {
        let build = || {
            Sweep::over_apps([App::Cholesky], [256, 128])
                .workers([2, 8])
                .backends([
                    BackendSpec::Perfect,
                    BackendSpec::Nanos,
                    BackendSpec::Picos(HilMode::HwOnly),
                ])
        };
        let serial = build().serial().run();
        let parallel = build().threads(8).run();
        assert_eq!(serial, parallel);
        assert_eq!(serial.first_error(), None);
        assert_eq!(serial.rows().len(), 2 * 3 * 2);
    }

    #[test]
    fn picos_rows_carry_hw_counters() {
        let result = Sweep::over_apps([App::Heat], [128])
            .workers([12])
            .backends([BackendSpec::Nanos, BackendSpec::Picos(HilMode::HwOnly)])
            .dm_designs([DmDesign::EightWay])
            .run();
        let nanos = &result.rows()[0];
        let picos = &result.rows()[1];
        assert!(nanos.dm_conflicts.is_none());
        assert!(picos.dm_conflicts.is_some(), "hw counters expected");
        // Heat at block 128 on the direct-hash DM conflicts (Table II).
        assert!(picos.dm_conflicts.unwrap() > 0);
    }

    #[test]
    fn failed_cells_are_rows_not_panics() {
        // Zero workers make the software runtime reject its configuration.
        let result = Sweep::new([Workload::from_trace(
            "case1",
            Arc::new(gen::synthetic(gen::Case::Case1)),
        )])
        .workers([0])
        .backends([BackendSpec::Nanos])
        .run();
        assert_eq!(result.rows().len(), 1);
        assert!(result
            .first_error()
            .unwrap()
            .contains("at least one thread"));
    }

    #[test]
    fn csv_and_json_render_every_row() {
        let result = Sweep::over_apps([App::Cholesky], [256])
            .workers([4])
            .backends([BackendSpec::Perfect, BackendSpec::Picos(HilMode::HwOnly)])
            .run();
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + result.rows().len());
        assert!(csv.starts_with("workload,block_size,backend,"));
        let json = result.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"workload\"").count(), result.rows().len());
    }

    #[test]
    fn duplicate_labels_resolve_to_their_own_traces() {
        // Two workloads under the same label: each cell must run its own
        // trace, not the first label match.
        let small = Arc::new(gen::synthetic(gen::Case::Case1));
        let big = Arc::new(gen::cholesky(gen::CholeskyConfig::paper(256)));
        let result = Sweep::new([
            Workload::from_trace("same", Arc::clone(&small)),
            Workload::from_trace("same", Arc::clone(&big)),
        ])
        .workers([4])
        .backends([BackendSpec::Perfect])
        .run();
        assert_eq!(result.rows()[0].sequential, small.sequential_time());
        assert_eq!(result.rows()[1].sequential, big.sequential_time());
        assert_ne!(result.rows()[0].sequential, result.rows()[1].sequential);
    }

    #[test]
    fn hostile_workload_labels_stay_well_formed() {
        let mut tr = gen::synthetic(gen::Case::Case1);
        tr.name = "evil,\"name\"\nhere".to_string();
        let result = Sweep::new([Workload::from_trace(tr.name.clone(), Arc::new(tr))])
            .workers([2])
            .backends([BackendSpec::Perfect])
            .run();
        let csv = result.to_csv();
        // RFC-4180: quoted field, doubled quotes, constant column count on
        // the header line vs the (quoted) data row.
        assert!(csv.contains("\"evil,\"\"name\"\"\nhere\""));
        let json = result.to_json();
        assert!(json.contains("evil,\\\"name\\\"\\nhere"));
        assert!(!json.contains("\"name\"\n"), "raw quote must not leak");
    }

    #[test]
    fn shards_column_defaults_to_one_and_tracks_cluster_cells() {
        let result = Sweep::over_apps([App::Cholesky], [256])
            .workers([4])
            .backends([
                BackendSpec::Perfect,
                BackendSpec::Cluster(1),
                BackendSpec::Cluster(2),
            ])
            .run();
        assert_eq!(result.first_error(), None);
        let shards: Vec<usize> = result.rows().iter().map(|r| r.shards).collect();
        assert_eq!(shards, vec![1, 1, 2]);
        let csv = result.to_csv();
        assert!(csv.starts_with("workload,block_size,backend,workers,dm,instances,shards,makespan"));
        assert!(result.to_json().contains("\"shards\":2"));
        // The one-shard cluster cell must agree with the raw HW model.
        let hw = Sweep::over_apps([App::Cholesky], [256])
            .workers([4])
            .backends([BackendSpec::Picos(HilMode::HwOnly)])
            .run();
        assert_eq!(result.rows()[1].makespan, hw.rows()[0].makespan);
    }

    #[test]
    fn critical_path_column_sums_to_makespan_and_changes_nothing() {
        let grid = || {
            Sweep::over_apps([App::Cholesky], [256])
                .workers([4])
                .backends([
                    BackendSpec::Perfect,
                    BackendSpec::Picos(HilMode::HwOnly),
                    BackendSpec::Cluster(2),
                ])
        };
        let plain = grid().run();
        let attributed = grid().critical_path().run();
        assert_eq!(attributed.first_error(), None);
        for (p, a) in plain.rows().iter().zip(attributed.rows()) {
            // Span tracing is observation-only: the measured outcome of
            // every cell is unchanged.
            assert_eq!(p.makespan, a.makespan, "cell {}", a.backend);
            assert_eq!(p.dm_conflicts, a.dm_conflicts);
            assert!(p.critical_path.is_none());
            // The composition is present and its cycles account for the
            // whole makespan.
            let compact = a.critical_path.as_deref().expect("composition recorded");
            let total: u64 = compact
                .split(';')
                .map(|part| part.split_once(':').unwrap().1.parse::<u64>().unwrap())
                .sum();
            assert_eq!(total, a.makespan, "cell {}", a.backend);
        }
        let csv = attributed.to_csv();
        assert!(csv.lines().next().unwrap().contains(",critical_path,"));
        assert!(attributed.to_json().contains("\"critical_path\":\""));
        // Determinism: rerunning the attributed grid reproduces it.
        assert_eq!(attributed, grid().critical_path().run());
    }

    #[test]
    fn interconnect_latency_slows_cluster_cells_only() {
        let slow_link = picos_hil::LinkModel {
            occupancy: 2_000,
            latency: 10_000,
            setup: 0,
            width: 1,
        };
        let grid = |link| {
            Sweep::over_apps([App::SparseLu], [128])
                .workers([8])
                .backends([BackendSpec::Picos(HilMode::HwOnly), BackendSpec::Cluster(4)])
                .interconnect(link)
                .run()
        };
        let fast = grid(picos_hil::LinkModel::interconnect());
        let slow = grid(slow_link);
        assert_eq!(
            fast.rows()[0].makespan,
            slow.rows()[0].makespan,
            "non-cluster cells must ignore the interconnect"
        );
        assert!(
            slow.rows()[1].makespan > fast.rows()[1].makespan,
            "a slower interconnect must cost the cluster cycles"
        );
    }

    #[test]
    fn fault_axis_expands_cluster_cells_only_and_reports_counters() {
        let grid = || {
            Sweep::over_apps([App::SparseLu], [128])
                .workers([8])
                .backends([BackendSpec::Perfect, BackendSpec::Cluster(4)])
                .faults([
                    None,
                    Some(FaultPlan::new(3)),
                    Some(FaultPlan::new(3).with_drop_rate(0.05)),
                ])
        };
        let cells = grid().cells();
        // Perfect collapses the axis (first entry = None); the cluster
        // runs all three plans.
        assert_eq!(cells.len(), 1 + 3);
        assert!(cells
            .iter()
            .all(|c| c.fault.is_none() || matches!(c.backend, BackendSpec::Cluster(_))));

        let result = grid().run();
        let rows = result.rows();
        // Fault-free and zero-fault cluster rows are identical outcomes
        // with no fault columns (the zero-fault plan is bit-identical and
        // registers no counters).
        assert_eq!(rows[1].makespan, rows[2].makespan);
        assert_eq!(rows[1].link_drops, None);
        assert_eq!(rows[2].link_drops, None);
        assert_eq!(rows[2].drop_rate, Some(0.0));
        // The lossy row carries its plan's rate and the run's counters.
        let lossy = &rows[3];
        assert_eq!(lossy.drop_rate, Some(0.05));
        if lossy.error.is_none() {
            assert!(lossy.link_drops.is_some() && lossy.link_retries.is_some());
            assert!(lossy.makespan >= rows[1].makespan);
        }
        let csv = result.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("drop_rate,link_drops,link_retries,critical_path,error"));
        assert!(result.to_json().contains("\"drop_rate\":0.05"));
        // Determinism: the same faulted grid reruns identically.
        assert_eq!(result, grid().run());
    }

    #[test]
    fn fault_columns_of_interconnect_free_backends_are_zero_not_empty() {
        let result = Sweep::over_apps([App::SparseLu], [128])
            .workers([4])
            .backends([
                BackendSpec::Perfect,
                BackendSpec::Nanos,
                BackendSpec::Cluster(2),
            ])
            .run();
        for row in result.rows() {
            assert!(row.error.is_none(), "{:?}", row.error);
            if matches!(row.backend, BackendSpec::Cluster(_)) {
                // No plan on a faultable backend: genuinely unmeasured.
                assert_eq!(row.drop_rate, None);
                assert_eq!(row.link_drops, None);
                assert_eq!(row.link_retries, None);
            } else {
                // Degenerate-collapsed axis: an exact zero, never empty.
                assert_eq!(row.drop_rate, Some(0.0));
                assert_eq!(row.link_drops, Some(0));
                assert_eq!(row.link_retries, Some(0));
            }
        }
        // CSV shape: every row is exactly as wide as the header, and the
        // fault cells of interconnect-free rows are the literal 0 the
        // numeric header implies.
        let csv = result.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let di = header.iter().position(|&h| h == "drop_rate").unwrap();
        for (line, row) in lines.zip(result.rows()) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), header.len(), "ragged row: {line}");
            if !matches!(row.backend, BackendSpec::Cluster(_)) {
                assert_eq!(&fields[di..di + 3], ["0", "0", "0"], "row: {line}");
            }
        }
    }

    #[test]
    fn speedup_lookup_finds_rows() {
        let result = Sweep::over_apps([App::Cholesky], [256])
            .workers([4])
            .backends([BackendSpec::Perfect, BackendSpec::Nanos])
            .run();
        let p = result
            .speedup_of("cholesky", 256, BackendSpec::Perfect, 4)
            .unwrap();
        let n = result
            .speedup_of("cholesky", 256, BackendSpec::Nanos, 4)
            .unwrap();
        assert!(p >= n, "perfect {p} must dominate nanos {n}");
        assert!(result
            .speedup_of("cholesky", 256, BackendSpec::Nanos, 99)
            .is_none());
    }
}
