//! Session conformance: streaming execution is bit-exact with batch.
//!
//! For every backend family × every synthetic testcase plus the Cholesky
//! and SparseLU applications, a session driven one task at a time — and
//! one driven with a random interleaving of submits, steps and span
//! drains — must reproduce the batch `run_with_stats` result exactly:
//! makespan, schedule order, per-task start/end times and hardware
//! counters. This pins the core promise of the session API: submission
//! call patterns never perturb the simulation, because the engine's own
//! timing model (not the client's call clock) decides when tasks are
//! created, and `step` refuses to run ahead of an open input stream.

use picos_repro::prelude::*;
use picos_trace::rng::SplitMix64;
use span::{SpanEvent, SpanKind};

/// The conformance workloads: all seven synthetic cases plus the two
/// paper applications named by the roadmap issue.
fn workloads() -> Vec<Trace> {
    let mut out: Vec<Trace> = gen::Case::ALL.into_iter().map(gen::synthetic).collect();
    out.push(gen::cholesky(gen::CholeskyConfig::paper(128)));
    out.push(gen::sparselu(gen::SparseLuConfig::paper(128)));
    out
}

/// Feeds the trace one task at a time, declaring barriers, stepping on
/// backpressure — the canonical streaming client.
fn drive_one_at_a_time(
    backend: &dyn ExecBackend,
    trace: &Trace,
) -> (ExecReport, Option<picos_repro::core::Stats>) {
    let mut s = backend.open().unwrap();
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        loop {
            match s.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => assert!(s.step(), "must drain"),
            }
        }
    }
    s.finish().unwrap()
}

/// Feeds the trace into an open session with a seeded random interleaving
/// of submits, steps and span drains; returns the drained events,
/// concatenated in drain order.
fn feed_randomly(s: &mut dyn SimSession, trace: &Trace, seed: u64) -> Vec<SpanEvent> {
    let mut rng = SplitMix64::new(seed);
    let mut events = Vec::new();
    let mut barriers = trace.barriers().iter().peekable();
    for (i, task) in trace.iter().enumerate() {
        while barriers.peek() == Some(&&(i as u32)) {
            s.barrier();
            barriers.next();
        }
        // Interleave a random burst of steps and span drains between
        // submissions (steps are no-ops while the session is open and
        // unblocked — that contract is what keeps this bit-exact).
        for _ in 0..rng.below(4) {
            if rng.below(2) == 0 {
                s.step();
            } else {
                s.drain_events(&mut events);
            }
        }
        loop {
            match s.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => assert!(s.step(), "must drain"),
            }
        }
    }
    s.drain_events(&mut events);
    events
}

/// A span-traced session fed by [`feed_randomly`], then finished. Steps
/// while the session is open and unblocked are no-ops by contract and
/// span recording is observation-only, which is exactly what keeps this
/// bit-exact with the untraced batch run.
fn drive_randomly(
    backend: &dyn ExecBackend,
    trace: &Trace,
    seed: u64,
) -> (ExecReport, Option<picos_repro::core::Stats>) {
    let mut s = backend
        .open_with(SessionConfig::batch().with_spans())
        .unwrap();
    feed_randomly(&mut *s, trace, seed);
    s.finish().unwrap()
}

#[test]
fn one_at_a_time_sessions_are_bit_exact_with_batch() {
    for trace in workloads() {
        for spec in BackendSpec::ALL {
            let backend = spec.build(8, &PicosConfig::balanced());
            let batch = backend.run_with_stats(&trace).unwrap();
            let streamed = drive_one_at_a_time(&*backend, &trace);
            assert_eq!(
                batch, streamed,
                "{spec} on {}: streaming diverged from batch",
                trace.name
            );
        }
    }
}

#[test]
fn random_interleavings_are_bit_exact_with_batch() {
    for trace in workloads() {
        for spec in BackendSpec::ALL {
            let backend = spec.build(8, &PicosConfig::balanced());
            let batch = backend.run_with_stats(&trace).unwrap();
            for seed in [0x5EED, 0xD1CE] {
                let streamed = drive_randomly(&*backend, &trace, seed);
                assert_eq!(
                    batch, streamed,
                    "{spec} on {} seed {seed:#x}: random interleaving diverged",
                    trace.name
                );
            }
        }
    }
}

#[test]
fn parallel_cluster_sessions_are_bit_exact_with_serial_batch() {
    // The conservative-parallel cluster engine under every session call
    // pattern, compared against the *serial* engine's batch result: this
    // pins session bit-exactness and parallel==serial in one assertion.
    // (Feeds still admit through the serial path; the epoch engine takes
    // over once the input stream closes or the session jumps time.)
    for trace in workloads() {
        let serial = BackendSpec::Cluster(4)
            .build(8, &PicosConfig::balanced())
            .run_with_stats(&trace)
            .unwrap();
        for threads in [2usize, 4] {
            let backend = BackendSpec::Cluster(4)
                .builder(8)
                .picos(&PicosConfig::balanced())
                .threads(Some(threads))
                .build();
            let streamed = drive_one_at_a_time(&*backend, &trace);
            assert_eq!(
                serial, streamed,
                "cluster t{threads} on {}: one-at-a-time diverged from serial batch",
                trace.name
            );
            for seed in [0x5EED, 0xD1CE] {
                let streamed = drive_randomly(&*backend, &trace, seed);
                assert_eq!(
                    serial, streamed,
                    "cluster t{threads} on {} seed {seed:#x}: random interleaving \
                     diverged from serial batch",
                    trace.name
                );
            }
        }
    }
}

#[test]
fn batch_default_methods_agree_with_each_other() {
    // run() must be run_with_stats() minus the counters, for every family.
    let trace = gen::synthetic(gen::Case::Case4);
    for spec in BackendSpec::ALL {
        let backend = spec.build(6, &PicosConfig::balanced());
        let (with_stats, _) = backend.run_with_stats(&trace).unwrap();
        let plain = backend.run(&trace).unwrap();
        assert_eq!(with_stats, plain, "{spec}");
    }
}

#[test]
fn open_sessions_hold_time_while_unblocked() {
    // The mechanism behind bit-exactness: an open, unblocked session never
    // advances its clock on step(), for every backend family.
    let trace = gen::synthetic(gen::Case::Case1);
    for spec in BackendSpec::ALL {
        let backend = spec.build(4, &PicosConfig::balanced());
        let mut s = backend.open().unwrap();
        for task in trace.iter().take(10) {
            assert_eq!(s.submit(task), Admission::Accepted, "{spec}");
            assert!(!s.step(), "{spec}: open unblocked session must hold");
            assert_eq!(s.now(), 0, "{spec}: clock moved while open");
        }
        let (r, _) = s.finish().unwrap();
        assert_eq!(r.order.len(), 10, "{spec}");
    }
}

#[test]
fn taskwait_traces_stream_bit_exact() {
    // Barrier declarations through the session API must reproduce the
    // trace's creation-gating exactly.
    let mut tr = Trace::new("barriered");
    let k = picos_repro::trace::KernelClass::GENERIC;
    for i in 0..30u64 {
        tr.push(k, [Dependence::inout(0x4000 + (i % 7) * 0x40)], 200);
    }
    tr.push_taskwait();
    for i in 0..30u64 {
        tr.push(k, [Dependence::inout(0x8000 + (i % 5) * 0x40)], 150);
    }
    tr.push_taskwait();
    for _ in 0..10u64 {
        tr.push(k, [], 75);
    }
    for spec in BackendSpec::ALL {
        let backend = spec.build(4, &PicosConfig::balanced());
        let batch = backend.run_with_stats(&tr).unwrap();
        let streamed = drive_one_at_a_time(&*backend, &tr);
        assert_eq!(batch, streamed, "{spec}");
        batch.0.validate(&tr).unwrap();
    }
}

#[test]
fn events_describe_the_reported_schedule() {
    // Drained span streams are a faithful narration of the report: one
    // start and one finish per task, at the report's recorded cycles.
    let trace = gen::synthetic(gen::Case::Case3);
    for spec in BackendSpec::ALL {
        let backend = spec.build(8, &PicosConfig::balanced());
        let mut s = backend
            .open_with(SessionConfig::batch().with_spans())
            .unwrap();
        feed_trace(&mut *s, &trace).unwrap();
        // Events materialize as the session runs; drain after advancing
        // far past the makespan, then finish.
        s.advance_to(1 << 40);
        let mut events = Vec::new();
        s.drain_events(&mut events);
        let (r, _) = s.finish().unwrap();
        let mut starts = vec![None; trace.len()];
        let mut finishes = vec![None; trace.len()];
        for e in &events {
            match e.kind {
                SpanKind::Started => starts[e.task as usize] = Some(e.at),
                SpanKind::Finished => finishes[e.task as usize] = Some(e.at),
                _ => {}
            }
        }
        for i in 0..trace.len() {
            assert_eq!(starts[i], Some(r.start[i]), "{spec} task {i} start");
            assert_eq!(finishes[i], Some(r.end[i]), "{spec} task {i} end");
        }
    }
}

#[test]
fn drained_spans_are_a_prefix_of_the_finished_log() {
    // Drains interleaved with submits and steps copy the session-level
    // span log out incrementally and never shorten it: concatenated, they
    // are a prefix of the finished session's log (finish appends the
    // engine cores' own probe events after it). Every family, plus the
    // 4-shard cluster on the serial and the parallel engine; windowed
    // sessions so steps make progress mid-stream.
    let trace = gen::stream(gen::StreamConfig::heavy(200));
    let mut backends: Vec<(String, Box<dyn ExecBackend>)> = BackendSpec::ALL
        .into_iter()
        .map(|spec| (spec.to_string(), spec.build(8, &PicosConfig::balanced())))
        .collect();
    for threads in [1usize, 4] {
        let backend = BackendSpec::Cluster(4)
            .builder(8)
            .picos(&PicosConfig::balanced())
            .threads(Some(threads))
            .build();
        backends.push((format!("cluster4 t{threads}"), backend));
    }
    for (label, backend) in &backends {
        for window in [None, Some(8)] {
            let cfg = SessionConfig {
                window,
                ..SessionConfig::batch().with_spans()
            };
            let mut s = backend.open_with(cfg).unwrap();
            let mut drained = feed_randomly(&mut *s, &trace, 0xD2A1);
            s.advance_to(s.now() + 20_000);
            s.drain_events(&mut drained);
            let out = s.finish_full().unwrap();
            let log = out.spans.expect("opened with spans");
            assert!(
                drained.iter().any(|e| e.kind == SpanKind::Finished),
                "{label} window {window:?}: drains must see the run progress"
            );
            assert!(
                log.events().starts_with(&drained),
                "{label} window {window:?}: drained events are not a prefix of the finished log"
            );
        }
    }
}
