//! `paper-sweep`: repeated serial `Sweep` passes over the paper's grid —
//! sparselu and cholesky at block 64 × the three HIL modes × the three DM
//! designs × {4, 12} workers (36 cells). This is how the paper's figures
//! are made: nearly all host time is in `core` + `hil`, and no streaming
//! admission, journal, serve or socket code runs. A pass runs each cell as
//! its own one-cell `Sweep`; an operation is simulating one task, and its
//! latency is the host time per task of the cell that ran it. (A cell's own
//! time is no use as a latency: the grid's sparselu cells take about half
//! as long as its cholesky cells, so a median over cells falls in the gap
//! between them.) The traces are the paper's fixed ones, so the workload
//! ignores the seed and its simulated results are pinned by the golden
//! table in [`crate::golden`].

use crate::golden::{self, GOLDEN};
use crate::ladder;
use crate::measure::{median, median_time, peak_rss_mb, Histogram, Layer, Ops, Outcome, Tracer};
use picos_backend::{BackendSpec, Sweep, SweepCell, SweepResult, SweepRow, Workload};
use picos_core::DmDesign;
use picos_trace::gen::App;
use std::time::{Duration, Instant};

/// In-process repetitions of the set-up phase; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The paper grid over already generated workloads, run on the calling
/// thread.
pub fn grid(workloads: Vec<Workload>) -> Sweep {
    Sweep::new(workloads)
        .backends(BackendSpec::PICOS_ALL)
        .dm_designs(DmDesign::ALL)
        .workers([4, 12])
        .serial()
}

/// The two paper traces at block 64.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::from_app(App::SparseLu, 64),
        Workload::from_app(App::Cholesky, 64),
    ]
}

/// Simulated tasks of one cell (it runs its workload's whole trace).
fn tasks_of(cell: &SweepCell, workloads: &[Workload]) -> u64 {
    workloads
        .iter()
        .find(|w| w.label == cell.workload)
        .map_or(0, |w| w.trace.len() as u64)
}

/// One single-cell sweep per grid cell, in grid order, with the cell's
/// task count.
fn cell_sweeps(workloads: &[Workload]) -> Vec<(SweepCell, u64, Sweep)> {
    grid(workloads.to_vec())
        .cells()
        .into_iter()
        .map(|cell| {
            let keep = cell.clone();
            let tasks = tasks_of(&cell, workloads);
            (
                cell,
                tasks,
                grid(workloads.to_vec()).filter(move |c| *c == keep),
            )
        })
        .collect()
}

/// One pass: every cell through `Sweep::run`, its host time per task
/// recorded in `per_task`. Returns the rows in grid order and the pass's
/// host time.
fn pass(
    sweeps: &[(SweepCell, u64, Sweep)],
    per_task: &mut Histogram,
    tracer: &mut Tracer,
) -> (Vec<SweepRow>, f64) {
    let mut rows = Vec::with_capacity(sweeps.len());
    let start = Instant::now();
    for (_, tasks, sweep) in sweeps {
        let t0 = Instant::now();
        let result: SweepResult = tracer.span(Layer::Backend, "sweep.run", || sweep.run());
        per_task.record(t0.elapsed().as_nanos() as u64 / (*tasks).max(1));
        rows.extend_from_slice(result.rows());
    }
    (rows, start.elapsed().as_secs_f64())
}

/// Checks one pass against the golden table: every mismatching or failed
/// cell is a failed operation.
fn gate(rows: &[SweepRow]) -> Ops {
    Ops {
        attempted: rows.len() as u64,
        failed: golden::mismatches(rows, GOLDEN),
    }
}

struct Setup {
    workloads: Vec<Workload>,
    sweeps: Vec<(SweepCell, u64, Sweep)>,
    ops: Ops,
    gen_s: f64,
    build_s: f64,
    warmup_s: f64,
}

fn setup(tracer: &mut Tracer) -> Setup {
    let t0 = Instant::now();
    let workloads = tracer.span(Layer::Trace, "gen", workloads);
    let gen_s = t0.elapsed().as_secs_f64();
    let sweeps = tracer.span(Layer::Backend, "sweep.build", || cell_sweeps(&workloads));
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (rows, _) = pass(&sweeps, &mut Histogram::default(), tracer);
    let warmup_s = t1.elapsed().as_secs_f64();
    Setup {
        workloads,
        sweeps,
        ops: gate(&rows),
        gen_s,
        build_s,
        warmup_s,
    }
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then time passes for
/// `budget`.
pub fn run(budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut gens = Vec::new();
    let mut builds = Vec::new();
    let mut warmups = Vec::new();
    let (setup_s, s) = median_time(SETUP_REPS, || {
        let s = setup(tracer);
        gens.push(s.gen_s);
        builds.push(s.build_s);
        warmups.push(s.warmup_s);
        out.ops.add(s.ops);
        s
    });
    let tasks: u64 = s.sweeps.iter().map(|(_, n, _)| n).sum();
    let mut per_task = Histogram::default();
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || rates.is_empty() {
        let (rows, secs) = pass(&s.sweeps, &mut per_task, tracer);
        rates.push(tasks as f64 / secs);
        out.ops.add(gate(&rows));
    }
    let m = &mut out.metrics;
    m.put("tasks_per_s", median(&rates), "1/s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("op_p50_us", per_task.quantile_ns(0.5) / 1e3, "us");
    m.put("op_p90_us", per_task.quantile_ns(0.9) / 1e3, "us");
    let tasks_generated: usize = s.workloads.iter().map(|w| w.trace.len()).sum();
    m.put(
        "trace.gen.ns_per_task",
        median(&gens) * 1e9 / tasks_generated as f64,
        "ns",
    );
    m.put("setup.build_s", median(&builds), "s");
    m.put("setup.warmup_s", median(&warmups), "s");
    m.put("sweep.passes", rates.len() as f64, "count");
    out
}

/// The per-layer ladder of the traced run, fed the same traces: each
/// cell's `Sweep::run` next to the same cell run directly through
/// `ExecBackend::run` (the rung below), then the batch ladder below that.
pub fn ladder(budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let workloads = workloads();
    let sweeps = cell_sweeps(&workloads);
    let traces: Vec<_> = workloads.iter().map(|w| w.trace.clone()).collect();
    let deadline = Instant::now() + budget * 3 / 4;
    // The median difference of adjacent pairs is the sweep's own cost.
    let mut self_ns = Vec::new();
    let mut rows = Vec::new();
    let mut passes = 0u64;
    while Instant::now() < deadline || passes == 0 {
        let mut sweep_rows = Vec::with_capacity(sweeps.len());
        let mut cells = Vec::with_capacity(sweeps.len());
        for (cell, _, sweep) in &sweeps {
            let t0 = Instant::now();
            let result = tracer.span(Layer::Backend, "sweep.run", || sweep.run());
            let sweep_ns = t0.elapsed().as_nanos() as f64;
            sweep_rows.extend_from_slice(result.rows());
            let direct = ladder::run_sweep_cell(cell, &workloads, tracer);
            self_ns.push(sweep_ns - direct.host_ns);
            cells.push(direct);
        }
        out.ops.add(gate(&sweep_rows));
        out.ops.add(ladder::gate_cells(&cells));
        rows.extend(cells);
        passes += 1;
    }
    let m = &mut out.metrics;
    m.put("backend.sweep.self_ns_per_cell", median(&self_ns), "ns");
    ladder::cell_metrics(&rows, passes, m);
    let batch = ladder::batch(&traces, &DmDesign::ALL, budget / 4, tracer);
    out.ops.add(batch.ops);
    out.metrics.extend(batch.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_sweeps_cover_the_papers_36_cells_in_order() {
        let workloads = workloads();
        let sweeps = cell_sweeps(&workloads);
        let cells: Vec<SweepCell> = sweeps.iter().map(|(c, _, _)| c.clone()).collect();
        assert_eq!(cells.len(), 36);
        assert_eq!(cells, grid(workloads.clone()).cells());
        assert!(sweeps
            .iter()
            .all(|(c, n, s)| s.cells() == vec![c.clone()] && *n > 0));
    }
}
