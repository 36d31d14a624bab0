//! Cluster conformance suite (extends the `golden_timing` pattern).
//!
//! The load-bearing pin: a **one-shard cluster is cycle-identical to
//! `HilMode::HwOnly`** — same makespan, same per-task start/end times, same
//! execution order, and the same hardware counters — on every synthetic
//! testcase and the golden cholesky/sparselu workloads, across all three
//! DM designs. Any drift in either driver breaks this suite loudly.
//!
//! Multi-shard runs cannot be cycle-compared against a single Picos, so
//! they are pinned on the invariants that must hold for *any* shard count:
//! TaskGraph-order legality, completeness, and determinism. The epoch loop
//! a plain multi-shard finish drains through is pinned bit-identical to
//! the serial pump.

use picos_backend::{feed_trace, BackendSpec, SessionConfig};
use picos_cluster::{
    run_cluster_with_stats, ClusterConfig, ClusterOutput, ClusterSession, ShardPolicy,
};
use picos_core::{DmDesign, PicosConfig};
use picos_hil::{run_hil_with_stats, HilConfig, HilMode};
use picos_runtime::session::EventLoopCore;
use picos_trace::{gen, Trace};

const WORKERS: usize = 12;

/// Every workload the golden-timing suite pins, plus the stream generator.
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
fn one_shard_cluster_is_cycle_identical_to_hw_only() {
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let hil_cfg = HilConfig {
                picos: PicosConfig::baseline(dm),
                ..HilConfig::balanced(WORKERS)
            };
            let (hw, hw_stats) =
                run_hil_with_stats(&trace, HilMode::HwOnly, &hil_cfg).expect("HW-only completes");
            let cluster_cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(1, WORKERS)
            };
            let (cl, cl_stats) =
                run_cluster_with_stats(&trace, &cluster_cfg).expect("cluster completes");
            assert_eq!(cl_stats.len(), 1);
            assert_eq!(
                cl.makespan, hw.makespan,
                "{label} {dm}: makespan drifted (cluster {} vs hw-only {})",
                cl.makespan, hw.makespan
            );
            assert_eq!(cl.order, hw.order, "{label} {dm}: execution order drifted");
            assert_eq!(cl.start, hw.start, "{label} {dm}: start times drifted");
            assert_eq!(cl.end, hw.end, "{label} {dm}: end times drifted");
            assert_eq!(
                cl_stats[0], hw_stats,
                "{label} {dm}: hardware counters drifted"
            );
        }
    }
}

#[test]
fn one_shard_backend_matches_hw_only_backend() {
    // Through the ExecBackend layer too: the boxed cluster backend at one
    // shard must agree with the boxed HW-only backend.
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    let picos = PicosConfig::balanced();
    let hw = BackendSpec::Picos(HilMode::HwOnly)
        .build(8, &picos)
        .run(&trace)
        .unwrap();
    let cl = BackendSpec::Cluster(1)
        .build(8, &picos)
        .run(&trace)
        .unwrap();
    assert_eq!(cl.makespan, hw.makespan);
    assert_eq!(cl.order, hw.order);
}

#[test]
fn every_shard_count_preserves_task_graph_order() {
    for (label, trace) in golden_workloads() {
        let graph = picos_trace::TaskGraph::build(&trace);
        for shards in [2usize, 4] {
            let cfg = ClusterConfig::balanced(shards, WORKERS.max(shards));
            let (r, stats) = run_cluster_with_stats(&trace, &cfg)
                .unwrap_or_else(|e| panic!("{label} x{shards}: {e}"));
            assert_eq!(r.order.len(), trace.len(), "{label} x{shards}: incomplete");
            assert!(
                graph.is_topological(&r.order),
                "{label} x{shards}: order violates the dataflow graph"
            );
            r.validate(&trace)
                .unwrap_or_else(|e| panic!("{label} x{shards}: {e}"));
            let total = picos_cluster::merged_stats(&stats);
            assert_eq!(total.tasks_completed, total.tasks_submitted);
        }
    }
}

#[test]
fn placement_policies_agree_on_legality() {
    let trace = gen::stream(gen::StreamConfig::heavy(800));
    let graph = picos_trace::TaskGraph::build(&trace);
    for policy in ShardPolicy::ALL {
        let cfg = ClusterConfig {
            policy,
            ..ClusterConfig::balanced(4, 16)
        };
        let (r, _) =
            run_cluster_with_stats(&trace, &cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert!(graph.is_topological(&r.order), "{policy}: illegal order");
    }
}

#[test]
fn cluster_is_deterministic_through_the_backend() {
    let trace = gen::stream(gen::StreamConfig::heavy(500));
    let picos = PicosConfig::balanced();
    let backend = BackendSpec::Cluster(4).build(16, &picos);
    let a = backend.run(&trace).unwrap();
    let b = backend.run(&trace).unwrap();
    assert_eq!(a, b);
}

/// The serial reference of a cluster run: the session's pump driven to
/// quiescence (`drive_finish`) before the finish, so the epoch loop that
/// a plain finish drains through finds nothing left to do.
fn serial_cluster_output(
    trace: &Trace,
    cfg: &ClusterConfig,
    session: SessionConfig,
) -> ClusterOutput {
    let mut s = ClusterSession::new(cfg.clone(), session).expect("cluster opens");
    feed_trace(&mut s, trace).expect("unbounded window cannot stall");
    s.drive_finish();
    s.into_output().expect("serial reference completes")
}

#[test]
fn parallel_engine_is_bit_identical_on_every_golden_workload() {
    // The epoch loop (the conservative-parallel algorithm, run on one
    // thread) that a plain finish drains through must be
    // indistinguishable from the serial pump — same makespan, same
    // schedule, same per-task times, same hardware counters — on every
    // golden workload and every DM design, at 8 shards.
    for (label, trace) in golden_workloads() {
        for dm in DmDesign::ALL {
            let cfg = ClusterConfig {
                picos: PicosConfig::baseline(dm),
                ..ClusterConfig::balanced(8, WORKERS)
            };
            let (serial, serial_stats, ..) =
                serial_cluster_output(&trace, &cfg, SessionConfig::batch());
            let (epoch, epoch_stats) = run_cluster_with_stats(&trace, &cfg)
                .unwrap_or_else(|e| panic!("{label} {dm}: {e}"));
            assert_eq!(
                epoch.makespan, serial.makespan,
                "{label} {dm}: makespan drifted"
            );
            assert_eq!(
                epoch.order, serial.order,
                "{label} {dm}: execution order drifted"
            );
            assert_eq!(
                epoch.start, serial.start,
                "{label} {dm}: start times drifted"
            );
            assert_eq!(epoch.end, serial.end, "{label} {dm}: end times drifted");
            assert_eq!(
                epoch_stats, serial_stats,
                "{label} {dm}: hardware counters drifted"
            );
        }
    }
}

#[test]
fn parallel_engine_matches_serial_with_attached_timelines() {
    // Timed sessions probe global state at window boundaries, and the
    // epoch loop plans an epoch at every boundary; the telemetry (and
    // everything else) of the epoch drain must equal the serial pump's
    // exactly. If an epoch ever ran across a boundary and skewed a
    // window, this breaks.
    let trace = gen::stream(gen::StreamConfig::heavy(600));
    let session = SessionConfig::timed(1_000);
    let cfg = ClusterConfig::balanced(4, WORKERS);
    let serial = serial_cluster_output(&trace, &cfg, session);
    let mut s = ClusterSession::new(cfg, session).expect("cluster opens");
    feed_trace(&mut s, &trace).expect("unbounded window cannot stall");
    let epoch = s.into_output().expect("cluster completes");
    assert!(serial.2.is_some(), "a timed session returns its timeline");
    assert_eq!(epoch.0, serial.0, "report drifted");
    assert_eq!(epoch.1, serial.1, "counters drifted");
    assert_eq!(epoch.2, serial.2, "telemetry drifted");
}

#[test]
fn sharded_dm_beats_one_big_dm_under_sustained_load() {
    // The tentpole's raison d'être: open-loop arrival faster than one
    // Picos pipeline's task throughput. Four shards keep up where one
    // saturates — with the default (fast) interconnect, four shards must
    // finish the stream decisively earlier.
    let trace = gen::stream(gen::StreamConfig {
        interarrival: 15,
        mean_duration: 200,
        ..gen::StreamConfig::heavy(1_500)
    });
    let one = run_cluster_with_stats(&trace, &ClusterConfig::balanced(1, 16))
        .unwrap()
        .0;
    let four = run_cluster_with_stats(&trace, &ClusterConfig::balanced(4, 16))
        .unwrap()
        .0;
    assert!(
        (four.makespan as f64) < 0.9 * one.makespan as f64,
        "4 shards ({}) must beat 1 shard ({}) under sustained load",
        four.makespan,
        one.makespan
    );
}
