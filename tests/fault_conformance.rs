//! Fault-layer and session-journal conformance pins.
//!
//! Two bit-identity contracts guard the fault subsystem:
//!
//! * **Zero-fault identity** — attaching a [`FaultPlan`] that can inject
//!   nothing must leave every observable of a cluster run untouched:
//!   makespan, execution order, per-task start/end times, hardware
//!   counters, telemetry timelines and the metrics registry, on every
//!   golden workload and DM design.
//! * **Journal-replay identity** — replaying a [`SessionJournal`] recorded
//!   from a session's *accepted* ingest stream into a fresh session must
//!   reproduce the original run bit-for-bit: for batch feeds, for random
//!   step/drain/advance interleavings, and for the crash-recovery shape
//!   (replay the journal, then keep feeding live).
//!
//! Faulted runs themselves are pinned on determinism: the same plan over
//! the same trace twice gives identical schedules, counters and errors.

use picos_backend::{feed_trace, Admission, BackendSpec, SessionConfig, SessionCore};
use picos_cluster::{run_cluster_with_stats, ClusterConfig, ClusterSession, FaultPlan};
use picos_core::{DmDesign, PicosConfig};
use picos_runtime::{replay_journal, JournaledSession};
use picos_trace::rng::SplitMix64;
use picos_trace::{gen, SessionJournal, Trace};

const WORKERS: usize = 12;

/// Every workload the golden-timing suite pins, plus the stream generator
/// (same set as `tests/cluster_conformance.rs`).
fn golden_workloads() -> Vec<(String, Trace)> {
    let mut out: Vec<(String, Trace)> = gen::Case::ALL
        .into_iter()
        .map(|c| (format!("{c:?}"), gen::synthetic(c)))
        .collect();
    out.push((
        "cholesky256".into(),
        gen::cholesky(gen::CholeskyConfig::paper(256)),
    ));
    out.push((
        "sparselu128".into(),
        gen::sparselu(gen::SparseLuConfig::paper(128)),
    ));
    out.push(("stream".into(), gen::stream(gen::StreamConfig::heavy(400))));
    out
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    // A zero-fault plan attaches no fault state, so its run drains through
    // the same epoch loop as the plan-free run and must match it exactly
    // (epoch == serial is pinned by cluster_conformance).
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(8, WORKERS)
            };
            let (base, base_stats) =
                run_cluster_with_stats(&trace, &cfg).expect("plain run completes");
            let faulted_cfg = cfg.with_faults(FaultPlan::new(0xD15EA5E));
            let (r, stats) = run_cluster_with_stats(&trace, &faulted_cfg)
                .unwrap_or_else(|e| panic!("{label} {dm}: {e}"));
            assert_eq!(r.makespan, base.makespan, "{label} {dm}: makespan drifted");
            assert_eq!(r.order, base.order, "{label} {dm}: order drifted");
            assert_eq!(r.start, base.start, "{label} {dm}: start times drifted");
            assert_eq!(r.end, base.end, "{label} {dm}: end times drifted");
            assert_eq!(stats, base_stats, "{label} {dm}: hardware counters drifted");
        }
    }
}

#[test]
fn fault_telemetry_is_gated_on_active_plans() {
    // A zero-fault plan must be invisible in telemetry too: identical
    // timeline and metrics, no faults.* series. An active plan registers
    // the full faults.* scope.
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let run = |faults: Option<FaultPlan>| {
        let cfg = SessionConfig {
            timeline_window: Some(2_000),
            ..SessionConfig::batch()
        };
        BackendSpec::Cluster(4)
            .builder(8)
            .faults(faults)
            .build()
            .run_with_telemetry(&trace, cfg)
            .expect("cluster completes")
    };
    let plain = run(None);
    let zero = run(Some(FaultPlan::new(9)));
    assert_eq!(
        zero, plain,
        "zero-fault output must be identical to no plan"
    );
    let plain_tl = plain.timeline.as_ref().expect("timeline requested");
    assert!(
        plain_tl.series_index("faults.drops").is_none(),
        "fault-free runs register no faults.* series"
    );

    let lossy = run(Some(FaultPlan::new(9).with_drop_rate(0.05)));
    let tl = lossy.timeline.as_ref().expect("timeline requested");
    for name in [
        "faults.drops",
        "faults.retries",
        "faults.redeliveries",
        "faults.recoveries",
    ] {
        assert!(
            tl.series_index(name).is_some(),
            "{name} series missing from a lossy run's timeline"
        );
    }
    assert!(
        lossy.metrics.value("faults.drops").is_some(),
        "lossy runs report fault counters"
    );
}

#[test]
fn faulted_runs_are_deterministic_and_counted() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let plan = FaultPlan::new(41)
        .with_drop_rate(0.08)
        .with_dup_rate(0.05)
        .with_jitter(0.2, 24);
    let cfg = ClusterConfig::balanced(4, 8).with_faults(plan);
    let run = || {
        let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch()).expect("valid config");
        feed_trace(&mut s, &trace).expect("batch window cannot stall");
        s.into_output()
    };
    match (run(), run()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "same plan, same trace: outputs must be identical");
            let counters = a.3.expect("active plans report counters");
            assert!(counters.drops > 0, "an 8% drop rate must drop something");
            a.0.validate(&trace).expect("faulted schedule stays legal");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "errors must repeat");
        }
        (a, b) => panic!("nondeterministic outcome: {a:?} vs {b:?}"),
    }
}

/// A fresh 4-shard cluster session for the journal pins.
fn cluster_session(cfg: SessionConfig) -> ClusterSession {
    ClusterSession::new(ClusterConfig::balanced(4, 8), cfg).expect("valid config")
}

#[test]
fn journal_replay_reproduces_batch_feeds_bit_exactly() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let mut s = JournaledSession::new(cluster_session(SessionConfig::batch()));
    feed_trace(&mut s, &trace).expect("batch window cannot stall");
    let (inner, journal) = s.into_parts();
    let original = inner.into_output().expect("original completes");
    let mut fresh = cluster_session(SessionConfig::batch());
    replay_journal(&mut fresh, &journal).expect("replay cannot stall");
    let replayed = fresh.into_output().expect("replay completes");
    assert_eq!(replayed, original, "batch replay drifted");
}

#[test]
fn journal_replay_reproduces_random_interleavings_bit_exactly() {
    // The journal records only accepted submits, barriers and advances —
    // no step calls. Replay must still reproduce the run exactly, for any
    // interleaving of voluntary steps and idle advances in the original.
    let trace = gen::stream(gen::StreamConfig::heavy(300));
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(0x10AD ^ seed);
        let mut s = JournaledSession::new(cluster_session(SessionConfig::windowed(8)));
        for task in trace.iter() {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "seed {seed}: session stalled");
            }
            if rng.bool(0.3) {
                s.step();
            }
            if rng.bool(0.1) {
                let target = s.now() + rng.range_u64(1, 5_000);
                s.advance_to(target);
            }
            if rng.bool(0.05) {
                s.barrier();
            }
        }
        let (inner, journal) = s.into_parts();
        let original = inner.into_output().expect("original completes");
        // Roundtrip through the JSON codec: recovery reads a journal file.
        let journal = SessionJournal::from_json(&journal.to_json()).expect("codec roundtrips");
        let mut fresh = cluster_session(SessionConfig::windowed(8));
        replay_journal(&mut fresh, &journal).expect("replay cannot stall");
        let replayed = fresh.into_output().expect("replay completes");
        assert_eq!(replayed.0, original.0, "seed {seed}: report drifted");
        assert_eq!(replayed.1, original.1, "seed {seed}: stats drifted");
    }
}

#[test]
fn crash_recovery_replays_then_continues_live() {
    // The recovery shape: a client crashes mid-stream, a fresh session
    // replays the journal, and the producer keeps feeding where it left
    // off. The stitched run must equal one uninterrupted session.
    let trace = gen::stream(gen::StreamConfig::heavy(300));
    let tasks: Vec<_> = trace.iter().collect();
    let half = tasks.len() / 2;

    let drive_first_half = |s: &mut dyn SessionCore, rng: &mut SplitMix64| {
        for task in &tasks[..half] {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "session stalled");
            }
            if rng.bool(0.25) {
                s.step();
            }
        }
    };
    let drive_second_half = |s: &mut dyn SessionCore| {
        for task in &tasks[half..] {
            while s.submit(task) == Admission::Backpressured {
                assert!(s.step(), "session stalled");
            }
        }
    };

    // Reference: one uninterrupted session.
    let mut reference = cluster_session(SessionConfig::windowed(8));
    let mut rng = SplitMix64::new(7);
    drive_first_half(&mut reference, &mut rng);
    drive_second_half(&mut reference);
    let expect = reference.into_output().expect("reference completes");

    // Crash after the first half: only the serialized journal survives.
    let mut rng = SplitMix64::new(7);
    let mut s = JournaledSession::new(cluster_session(SessionConfig::windowed(8)));
    drive_first_half(&mut s, &mut rng);
    let (_lost_session, journal) = s.into_parts();
    let journal = SessionJournal::from_json(&journal.to_json()).expect("codec roundtrips");

    let mut recovered = cluster_session(SessionConfig::windowed(8));
    replay_journal(&mut recovered, &journal).expect("replay cannot stall");
    drive_second_half(&mut recovered);
    let got = recovered.into_output().expect("recovered run completes");
    assert_eq!(got.0, expect.0, "recovered schedule drifted");
    assert_eq!(got.1, expect.1, "recovered counters drifted");
}
