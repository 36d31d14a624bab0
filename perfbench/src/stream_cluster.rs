//! `stream-cluster`: open-loop arrivals in simulated time, admitted task
//! by task into a 4-shard, 16-worker `Cluster` session with window 64 and
//! one simulation thread (the CLI default). On the host the loop is
//! closed: each task is offered as soon as the previous one is admitted
//! (`advance_to`, `submit`, then `step` while backpressured). The cluster
//! driver and the session's backpressure/step path do most of the work;
//! `core` runs in small windows instead of whole-trace batches, and no
//! sweep, serve or socket code runs.

use crate::ladder::{self, paced_backend, RungOps};
use crate::measure::{median, median_time, peak_rss_mb, Histogram, Layer, Ops, Outcome, Tracer};
use picos_backend::{BackendSpec, ExecBackend};
use picos_core::DmDesign;
use picos_runtime::ExecReport;
use picos_serve::schedule_digest;
use picos_trace::gen::{self, StreamConfig};
use picos_trace::Trace;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TASKS: usize = 20_000;
const SHARDS: usize = 4;
const WORKERS: usize = 16;
const WINDOW: usize = 64;
/// In-process repetitions of the set-up phase; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Mean cycles between arrivals: about twice what the 4-shard cluster
/// drains, so the window stays full and every admission runs the
/// backpressure/step path. At the heavy configuration's 40 the window never
/// fills; near the knee (20) the step count swings with the seed.
const INTERARRIVAL: u64 = 10;

/// The seeded request stream and its arrival cycles.
pub fn inputs(seed: u64) -> (Arc<Trace>, Arc<Vec<u64>>) {
    let (trace, arrivals) = gen::stream_requests(StreamConfig {
        seed,
        interarrival: INTERARRIVAL,
        ..StreamConfig::heavy(TASKS)
    });
    (Arc::new(trace), Arc::new(arrivals))
}

/// The workload's spans (the ladder's own 4-shard rung is
/// [`ladder::CLUSTER4`]).
const STREAM: RungOps = RungOps {
    layer: Layer::Cluster,
    open: "stream.open",
    advance: "stream.advance_to",
    submit: "stream.submit",
    rejected: "stream.submit_rejected",
    step: "stream.step",
    finish: "stream.finish",
};

/// One pass in a fresh session; every admission (arrival, offer and the
/// steps it forces) is one timed operation. Returns the report and the
/// pass's host time.
fn pass(
    backend: &dyn ExecBackend,
    trace: &Trace,
    arrivals: &[u64],
    latency: &mut Histogram,
    tracer: &mut Tracer,
) -> Result<(ExecReport, f64), String> {
    let start = Instant::now();
    let report = ladder::paced_pass(backend, WINDOW, (trace, arrivals), &STREAM, latency, tracer)?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// The gate of one pass: a valid schedule whose makespan and digest equal
/// the reference pass's. A failing pass fails all of its admissions.
fn gate(
    result: &Result<(ExecReport, f64), String>,
    trace: &Trace,
    reference: Option<(u64, u64)>,
    tracer: &mut Tracer,
) -> (Ops, Option<(u64, u64)>) {
    let ok = match result {
        Ok((report, _)) => {
            let valid = tracer.span(Layer::Runtime, "report.validate", || report.validate(trace));
            let key = (report.makespan, schedule_digest(report));
            valid.is_ok() && reference.is_none_or(|r| r == key)
        }
        Err(_) => false,
    };
    let key = result
        .as_ref()
        .ok()
        .map(|(r, _)| (r.makespan, schedule_digest(r)));
    let ops = Ops {
        attempted: trace.len() as u64,
        failed: if ok { 0 } else { trace.len() as u64 },
    };
    (ops, key)
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut gens = Vec::new();
    let mut builds = Vec::new();
    let mut warmups = Vec::new();
    let mut reference = None;
    let mut warm_latency = Histogram::default();
    let (setup_s, (trace, arrivals, backend)) = median_time(SETUP_REPS, || {
        let t0 = Instant::now();
        let (trace, arrivals) = tracer.span(Layer::Trace, "gen.stream_requests", || inputs(seed));
        gens.push(t0.elapsed().as_secs_f64());
        let backend = tracer.span(Layer::Backend, "build", || {
            paced_backend(BackendSpec::Cluster(SHARDS), WORKERS)
        });
        builds.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let warm = pass(&*backend, &trace, &arrivals, &mut warm_latency, tracer);
        warmups.push(t1.elapsed().as_secs_f64());
        let (ops, key) = gate(&warm, &trace, reference, tracer);
        reference = reference.or(key);
        out.ops.add(ops);
        (trace, arrivals, backend)
    });
    let mut latency = Histogram::default();
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || rates.is_empty() {
        let result = pass(&*backend, &trace, &arrivals, &mut latency, tracer);
        if let Ok((_, secs)) = &result {
            rates.push(trace.len() as f64 / secs);
        }
        let (ops, _) = gate(&result, &trace, reference, tracer);
        out.ops.add(ops);
    }
    if rates.is_empty() {
        out.problems.push("no stream-cluster pass completed".into());
        rates.push(f64::NAN);
    }
    let m = &mut out.metrics;
    m.put("tasks_per_s", median(&rates), "1/s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("op_p50_us", latency.quantile_ns(0.5) / 1e3, "us");
    m.put("op_p90_us", latency.quantile_ns(0.9) / 1e3, "us");
    m.put(
        "trace.gen.ns_per_task",
        median(&gens) * 1e9 / TASKS as f64,
        "ns",
    );
    m.put("setup.build_s", median(&builds), "s");
    m.put("setup.warmup_s", median(&warmups), "s");
    m.put("stream.passes", rates.len() as f64, "count");
    m.put("stream.latency_samples", latency.count() as f64, "count");
    out
}

/// Per-layer rungs fed the same stream: the bare engine and DM replay,
/// the HIL batch cells, and the paced session ladder.
pub fn ladder(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let (trace, arrivals) = inputs(seed);
    let traces = [trace.clone()];
    let mut out = ladder::batch(&traces, &DmDesign::ALL, budget / 4, tracer);
    let cells = ladder::hil(&traces, WORKERS, budget / 4, tracer);
    out.ops.add(cells.ops);
    out.metrics.extend(cells.metrics);
    let paced = ladder::paced(&[(trace, arrivals)], WORKERS, WINDOW, budget / 2, tracer);
    out.ops.add(paced.ops);
    out.metrics.extend(paced.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_reference_fails_every_admission_of_the_pass() {
        let (trace, arrivals) = inputs(5);
        let backend = paced_backend(BackendSpec::Cluster(SHARDS), WORKERS);
        let mut tracer = Tracer::new(false);
        let mut latency = Histogram::default();
        let result = pass(&*backend, &trace, &arrivals, &mut latency, &mut tracer);
        assert_eq!(latency.count(), TASKS as u64);
        let (ops, key) = gate(&result, &trace, None, &mut tracer);
        assert_eq!(
            ops,
            Ops {
                attempted: TASKS as u64,
                failed: 0
            }
        );
        let (makespan, digest) = key.expect("the pass finished");
        let again = pass(&*backend, &trace, &arrivals, &mut latency, &mut tracer);
        assert_eq!(gate(&again, &trace, key, &mut tracer).0.failed, 0);
        for wrong in [(makespan + 1, digest), (makespan, digest ^ 1)] {
            let (ops, _) = gate(&result, &trace, Some(wrong), &mut tracer);
            assert_eq!(ops.failed, TASKS as u64);
        }
    }
}
