//! The rungs of the traced run shared by several workloads. Each rung
//! feeds one layer's public entry point the same input as the rung above
//! it, so a layer's self time is the difference of two rungs.

use crate::golden::{self, Observed, GOLDEN};
use crate::measure::{Histogram, Layer, Metrics, Ops, Outcome, Tracer};
use picos_backend::{
    Admission, BackendSpec, ExecBackend, SessionConfig, SimSession, SweepCell, Workload,
};
use picos_core::{
    Dm, DmAccess, DmDesign, DmSlot, FinishedReq, PicosConfig, PicosSystem, Stats, TsPolicy, VmRef,
};
use picos_hil::HilMode;
use picos_runtime::ExecReport;
use picos_serve::schedule_digest;
use picos_trace::{Direction, Trace, MAX_DEPS_PER_TASK};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span op naming the HIL mode a cell ran in.
fn mode_op(spec: BackendSpec) -> &'static str {
    match spec {
        BackendSpec::Picos(HilMode::HwOnly) => "run.hw-only",
        BackendSpec::Picos(HilMode::HwComm) => "run.hw-comm",
        BackendSpec::Picos(HilMode::FullSystem) => "run.full",
        _ => "run.other",
    }
}

/// One cell run straight through `ExecBackend::run`.
pub struct CellRun {
    pub workload: String,
    pub backend: BackendSpec,
    pub dm: DmDesign,
    pub workers: usize,
    pub tasks: u64,
    pub host_ns: f64,
    pub makespan: u64,
    pub stats: Option<Stats>,
    pub failed: bool,
}

/// Runs one sweep cell directly through `ExecBackend::run`, built the way
/// `Sweep::run` builds it, under a span.
pub fn run_sweep_cell(cell: &SweepCell, workloads: &[Workload], tracer: &mut Tracer) -> CellRun {
    let trace = &workloads
        .iter()
        .find(|w| w.label == cell.workload)
        .expect("cell workload exists")
        .trace;
    let backend = cell
        .backend
        .builder(cell.workers)
        .picos(&cell.picos_config(TsPolicy::Fifo))
        .build();
    run_cell(
        &*backend,
        cell.backend,
        cell.dm,
        &cell.workload,
        trace,
        tracer,
    )
}

fn run_cell(
    backend: &dyn ExecBackend,
    spec: BackendSpec,
    dm: DmDesign,
    workload: &str,
    trace: &Trace,
    tracer: &mut Tracer,
) -> CellRun {
    let t0 = Instant::now();
    let result = tracer.span(Layer::Hil, mode_op(spec), || backend.run_with_stats(trace));
    let host_ns = t0.elapsed().as_nanos() as f64;
    let (makespan, stats, failed) = match result {
        Ok((report, stats)) => (report.makespan, stats, false),
        Err(_) => (0, None, true),
    };
    CellRun {
        workload: workload.to_string(),
        backend: spec,
        dm,
        workers: backend.workers(),
        tasks: trace.len() as u64,
        host_ns,
        makespan,
        stats,
        failed,
    }
}

/// The HIL cells of arbitrary traces: every trace × the three HIL modes
/// at one worker count, balanced configuration.
pub fn hil_cells(traces: &[Arc<Trace>], workers: usize, tracer: &mut Tracer) -> Vec<CellRun> {
    let mut rows = Vec::new();
    for trace in traces {
        for spec in BackendSpec::PICOS_ALL {
            let backend = spec.builder(workers).build();
            let dm = PicosConfig::balanced().dm_design;
            rows.push(run_cell(&*backend, spec, dm, &trace.name, trace, tracer));
        }
    }
    rows
}

/// The golden gate for cells run directly (same order as the sweep).
pub fn gate_cells(rows: &[CellRun]) -> Ops {
    let failed = golden::mismatches_of(
        rows.iter().map(|r| {
            Observed::from_stats(
                &r.workload,
                r.backend.label(),
                r.dm,
                r.workers,
                r.makespan,
                r.stats.as_ref().filter(|_| !r.failed),
            )
        }),
        GOLDEN,
    );
    Ops {
        attempted: rows.len() as u64,
        failed,
    }
}

/// Failed cells of an ungated cell list.
pub fn failed_cells(rows: &[CellRun]) -> Ops {
    Ops {
        attempted: rows.len() as u64,
        failed: rows.iter().filter(|r| r.failed).count() as u64,
    }
}

/// HIL-mode ladder and simulated totals of `rounds` identical rounds of
/// cells: `hil.hw-only.ns_per_task`, the HW+comm and Full-system self
/// times (each minus HW-only), and the `core.sim.*` sums of one round.
pub fn cell_metrics(rows: &[CellRun], rounds: u64, m: &mut Metrics) {
    let per_task = |mode: HilMode| {
        let (ns, tasks) = rows
            .iter()
            .filter(|r| r.backend == BackendSpec::Picos(mode))
            .fold((0.0, 0u64), |(ns, t), r| (ns + r.host_ns, t + r.tasks));
        ns / tasks.max(1) as f64
    };
    let hw = per_task(HilMode::HwOnly);
    m.put("hil.hw-only.ns_per_task", hw, "ns");
    m.put(
        "hil.hw-comm.self_ns_per_task",
        per_task(HilMode::HwComm) - hw,
        "ns",
    );
    m.put(
        "hil.full.self_ns_per_task",
        per_task(HilMode::FullSystem) - hw,
        "ns",
    );
    let rounds = rounds.max(1);
    let sum = |f: fn(&CellRun) -> u64| (rows.iter().map(f).sum::<u64>() / rounds) as f64;
    m.put("core.sim.makespan_cycles", sum(|r| r.makespan), "cycles");
    let stat = |f: fn(&Stats) -> u64| {
        (rows
            .iter()
            .filter_map(|r| r.stats.as_ref())
            .map(f)
            .sum::<u64>()
            / rounds) as f64
    };
    m.put(
        "core.sim.deps_processed",
        stat(|s| s.deps_processed),
        "count",
    );
    m.put("core.sim.dm_conflicts", stat(|s| s.dm_conflicts), "count");
    m.put("core.sim.vm_stalls", stat(|s| s.vm_stalls), "count");
    m.put("core.sim.tm_stalls", stat(|s| s.tm_stalls), "count");
}

/// HIL rungs over arbitrary traces, repeated until `budget` is spent.
pub fn hil(
    traces: &[Arc<Trace>],
    workers: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + budget;
    let mut rows = Vec::new();
    let mut rounds = 0u64;
    while Instant::now() < deadline || rounds == 0 {
        let round = hil_cells(traces, workers, tracer);
        out.ops.add(failed_cells(&round));
        rows.extend(round);
        rounds += 1;
    }
    cell_metrics(&rows, rounds, &mut out.metrics);
    out
}

/// Tasks a replayed DM keeps in flight before retiring the oldest one.
const DM_WINDOW: usize = 128;

/// The DM slots each in-flight task of a replay holds, oldest first.
type Held = VecDeque<(usize, [Option<DmSlot>; MAX_DEPS_PER_TASK])>;

/// Retires one task's versions.
fn retire(dm: &mut Dm, slots: &[Option<DmSlot>]) {
    for &slot in slots.iter().flatten() {
        let next = (dm.chain_len(slot) > 1).then_some(VmRef::new(0, 0));
        dm.pop_version(slot, next);
    }
}

/// Replays a trace's dependence addresses through one Dependence Memory:
/// every dependence is an `access` (plus `bind` or a pushed version), and
/// each task's versions retire `DM_WINDOW` tasks later through
/// `pop_version`. Returns the accesses made and whether the memory ended
/// empty, as it must.
fn dm_replay(dm: &mut Dm, trace: &Trace, held: &mut Held) -> (u64, bool) {
    let mut accesses = 0u64;
    let vm = VmRef::new(0, 0);
    for task in trace.iter() {
        let n = task.deps.len().min(MAX_DEPS_PER_TASK);
        let mut slots = [None; MAX_DEPS_PER_TASK];
        for (slot, dep) in slots.iter_mut().zip(task.deps.iter()) {
            accesses += 1;
            *slot = match dm.access(dep.addr, dep.dir == Direction::In) {
                DmAccess::Inserted(s) => {
                    dm.bind(s, vm);
                    Some(s)
                }
                DmAccess::Hit(s) => {
                    dm.push_version(s, vm);
                    Some(s)
                }
                DmAccess::Conflict => {
                    dm.count_conflict();
                    None
                }
            };
        }
        held.push_back((n, slots));
        if held.len() > DM_WINDOW {
            let (n, s) = held.pop_front().expect("window is non-empty");
            retire(dm, &s[..n]);
        }
    }
    while let Some((n, s)) = held.pop_front() {
        retire(dm, &s[..n]);
    }
    (accesses, dm.live() == 0)
}

/// Core rungs over a set of traces: the DM replay per design and the bare
/// engine (`PicosSystem` with instant workers). Runs the rungs in turn
/// until `budget` is spent.
pub fn batch(
    traces: &[Arc<Trace>],
    designs: &[DmDesign],
    budget: Duration,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + budget;
    let mut dm_ns = vec![0f64; designs.len()];
    let mut dm_accesses = vec![0u64; designs.len()];
    let (mut core_ns, mut core_tasks, mut core_deps) = (0f64, 0u64, 0u64);
    let mut held = VecDeque::with_capacity(DM_WINDOW + 1);
    let mut rounds = 0;
    while Instant::now() < deadline || rounds == 0 {
        rounds += 1;
        for (d, &design) in designs.iter().enumerate() {
            for trace in traces {
                let mut dm = Dm::new(design, 64);
                let t0 = Instant::now();
                let (n, empty) = tracer.span(Layer::Core, "dm.replay", || {
                    dm_replay(&mut dm, trace, &mut held)
                });
                dm_ns[d] += t0.elapsed().as_nanos() as f64;
                dm_accesses[d] += n;
                out.ops.attempted += 1;
                out.ops.failed += u64::from(!empty);
            }
        }
        for &design in designs {
            for trace in traces {
                let mut sys = PicosSystem::new(PicosConfig::future(1, design));
                let t0 = Instant::now();
                let ok = tracer.span(Layer::Core, "engine.run", || {
                    sys.submit_all(trace);
                    sys.run_to_quiescence(u64::MAX / 4, |r| {
                        Some(FinishedReq {
                            task: r.task,
                            slot: r.slot,
                        })
                    })
                });
                core_ns += t0.elapsed().as_nanos() as f64;
                let stats = sys.stats();
                core_tasks += trace.len() as u64;
                core_deps += stats.deps_processed;
                out.ops.attempted += 1;
                out.ops.failed +=
                    u64::from(ok.is_err() || stats.tasks_completed != trace.len() as u64);
            }
        }
    }
    let m = &mut out.metrics;
    for (d, &design) in designs.iter().enumerate() {
        m.put(
            format!("core.dm.{}.ns_per_access", golden::dm_key(design)),
            dm_ns[d] / dm_accesses[d].max(1) as f64,
            "ns",
        );
    }
    m.put(
        "core.dm.ns_per_access",
        dm_ns.iter().sum::<f64>() / dm_accesses.iter().sum::<u64>().max(1) as f64,
        "ns",
    );
    m.put("core.ns_per_task", core_ns / core_tasks.max(1) as f64, "ns");
    m.put("core.ns_per_dep", core_ns / core_deps.max(1) as f64, "ns");
    out
}

/// Span op names of one paced rung.
pub struct RungOps {
    pub layer: Layer,
    pub open: &'static str,
    pub advance: &'static str,
    pub submit: &'static str,
    pub rejected: &'static str,
    pub step: &'static str,
    pub finish: &'static str,
}

pub const HW_ONLY: RungOps = RungOps {
    layer: Layer::Hil,
    open: "paced.open",
    advance: "paced.advance_to",
    submit: "paced.submit",
    rejected: "paced.submit_rejected",
    step: "paced.step",
    finish: "paced.finish",
};

pub const CLUSTER1: RungOps = RungOps {
    layer: Layer::Cluster,
    open: "s1.open",
    advance: "s1.advance_to",
    submit: "s1.submit",
    rejected: "s1.submit_rejected",
    step: "s1.step",
    finish: "s1.finish",
};

/// The workload's own session (4 shards); its spans give the
/// `backend.session.*` metrics.
pub const CLUSTER4: RungOps = RungOps {
    layer: Layer::Backend,
    open: "session.open",
    advance: "session.advance_to",
    submit: "session.submit",
    rejected: "session.submit_rejected",
    step: "session.step",
    finish: "session.finish",
};

impl RungOps {
    /// Total ns of every span of this rung.
    pub fn total_ns(&self, tracer: &Tracer) -> f64 {
        [
            self.open,
            self.advance,
            self.submit,
            self.rejected,
            self.step,
            self.finish,
        ]
        .iter()
        .map(|op| tracer.total(self.layer, op).0 as f64)
        .sum()
    }
}

/// One open-loop pass in a fresh session: each task arrives at its cycle
/// (`advance_to`), is offered (`submit`), and forces `step`s while
/// backpressured; then the session finishes. Each admission is timed into
/// `latency`, and spans wrap every call when the tracer is on.
pub fn paced_pass(
    backend: &dyn ExecBackend,
    window: usize,
    (trace, arrivals): (&Trace, &[u64]),
    ops: &RungOps,
    latency: &mut Histogram,
    tracer: &mut Tracer,
) -> Result<ExecReport, String> {
    let l = ops.layer;
    let mut session = tracer
        .span(l, ops.open, || {
            backend.open_with(SessionConfig::windowed(window))
        })
        .map_err(|e| e.to_string())?;
    let mut t0 = Instant::now();
    for (task, &arrival) in trace.iter().zip(arrivals) {
        if arrival > session.now() {
            tracer.span(l, ops.advance, || session.advance_to(arrival));
        }
        loop {
            let s = tracer.begin(l, ops.submit);
            let adm = session.submit(task);
            if adm == Admission::Accepted {
                tracer.end(s);
                break;
            }
            tracer.end_as(s, ops.rejected);
            if !tracer.span(l, ops.step, || session.step()) {
                return Err("backpressured session cannot progress".into());
            }
        }
        let t1 = Instant::now();
        latency.record_dur(t1 - t0);
        t0 = t1;
    }
    let (report, _) = tracer
        .span(l, ops.finish, || SimSession::finish(session))
        .map_err(|e| e.to_string())?;
    Ok(report)
}

/// A backend of the paced ladder: `spec` at `workers`, one simulation
/// thread.
pub fn paced_backend(spec: BackendSpec, workers: usize) -> Box<dyn ExecBackend> {
    spec.builder(workers).threads(Some(1)).build()
}

/// Paced rungs over `(trace, arrivals)` streams: HW-only session →
/// `Cluster(1)` (bit-identical schedule, so the difference is the cluster
/// driver) → the 4-shard session, plus the 4-shard batch run of the same
/// traces.
pub fn paced(
    streams: &[(Arc<Trace>, Arc<Vec<u64>>)],
    workers: usize,
    window: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let hw = paced_backend(BackendSpec::Picos(HilMode::HwOnly), workers);
    let s1 = paced_backend(BackendSpec::Cluster(1), workers);
    let s4 = paced_backend(BackendSpec::Cluster(4), workers);
    let deadline = Instant::now() + budget;
    let (mut tasks, mut batch_ns, mut rounds) = (0u64, 0f64, 0);
    let mut reference: Vec<Option<u64>> = vec![None; streams.len()];
    let mut latency = Histogram::default();
    while Instant::now() < deadline || rounds == 0 {
        rounds += 1;
        for (i, (trace, arrivals)) in streams.iter().enumerate() {
            let input = (&**trace, &arrivals[..]);
            // The schedule digest of a valid pass.
            let mut run = |backend: &dyn ExecBackend, ops: &RungOps| {
                paced_pass(backend, window, input, ops, &mut latency, tracer)
                    .ok()
                    .filter(|r| r.validate(trace).is_ok())
                    .map(|r| schedule_digest(&r))
            };
            let a = run(&*hw, &HW_ONLY);
            let b = run(&*s1, &CLUSTER1);
            let c = run(&*s4, &CLUSTER4);
            let t0 = Instant::now();
            let batch = tracer.span(Layer::Cluster, "s4.batch_run", || s4.run(trace));
            batch_ns += t0.elapsed().as_nanos() as f64;
            tasks += trace.len() as u64;
            // Cluster(1) must reproduce HW-only exactly, and every pass of
            // the 4-shard session must reproduce its first pass.
            let same = a.is_some() && a == b;
            let stable = c.is_some_and(|c| *reference[i].get_or_insert(c) == c);
            out.ops.attempted += 4;
            out.ops.failed += u64::from(!same) + u64::from(!stable) + u64::from(batch.is_err());
        }
    }
    let per_task = |ns: f64| ns / tasks.max(1) as f64;
    let hw_ns = per_task(HW_ONLY.total_ns(tracer));
    let s1_ns = per_task(CLUSTER1.total_ns(tracer));
    let m = &mut out.metrics;
    m.put("hil.hw-only.paced_ns_per_task", hw_ns, "ns");
    m.put("cluster.s1.self_ns_per_task", s1_ns - hw_ns, "ns");
    m.put(
        "cluster.s4.ns_per_task",
        per_task(CLUSTER4.total_ns(tracer)),
        "ns",
    );
    m.put("cluster.s4.batch_ns_per_task", per_task(batch_ns), "ns");
    let (step_ns, steps) = tracer.total(CLUSTER4.layer, CLUSTER4.step);
    let (submit_ns, accepted) = tracer.total(CLUSTER4.layer, CLUSTER4.submit);
    let (_, rejected) = tracer.total(CLUSTER4.layer, CLUSTER4.rejected);
    let (finish_ns, _) = tracer.total(CLUSTER4.layer, CLUSTER4.finish);
    m.put(
        "backend.session.step_ns",
        step_ns as f64 / steps.max(1) as f64,
        "ns",
    );
    m.put(
        "backend.session.submit_ns",
        submit_ns as f64 / accepted.max(1) as f64,
        "ns",
    );
    m.put(
        "backend.session.finish_ns_per_task",
        per_task(finish_ns as f64),
        "ns",
    );
    m.put(
        "backend.session.steps_per_task",
        steps as f64 / tasks.max(1) as f64,
        "ratio",
    );
    m.put(
        "backend.session.accept_ratio",
        accepted as f64 / (accepted + rejected).max(1) as f64,
        "ratio",
    );
    out
}
