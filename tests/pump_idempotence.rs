//! The contract the settled-step skip relies on: `EventLoopCore::pump` is
//! idempotent at a fixed time.
//!
//! The shared drive skips its settle pump while nothing has changed since
//! the last pump at the current cycle. That is only sound if a second
//! pump at that cycle would change nothing, so this test checks it
//! directly: every event-loop session is driven with a windowed request
//! stream through `advance_to`, `submit` and `step`, and after every
//! `advance_to` and every `step` a clone is pumped once more and its
//! snapshot compared with the original's.
//!
//! Covered: the HIL platform in all three modes with a fail-stop worker
//! fault, the cluster at one and three shards, and three shards under the
//! active fault plan of `tests/snapshot_format.rs` — each without
//! observation, and with spans and a telemetry timeline attached.

use picos_repro::cluster::ClusterSession;
use picos_repro::hil::HilSession;
use picos_repro::prelude::*;
use picos_repro::runtime::EventLoopCore;
use picos_repro::trace::Value;

const TASKS: usize = 100;
const WORKERS: usize = 8;
const WINDOW: usize = 8;

fn configs() -> [SessionConfig; 2] {
    [
        SessionConfig::windowed(WINDOW),
        SessionConfig::windowed(WINDOW)
            .with_timeline(1024)
            .with_spans(),
    ]
}

/// Drives `s` through the paced loop; after each `advance_to` and `step`,
/// a clone pumped once more must snapshot equal to `s`. Returns how many
/// points were checked.
fn check<S>(name: &str, mut s: S, save: impl Fn(&S) -> Value) -> usize
where
    S: SessionCore + EventLoopCore + Clone,
{
    let (trace, arrivals) = gen::stream_requests(gen::StreamConfig {
        seed: 0x1DE7,
        interarrival: 10,
        ..gen::StreamConfig::heavy(TASKS)
    });
    let mut points = 0;
    let mut settled = |s: &S, after: &str, task: usize| {
        let mut again = s.clone();
        again.pump();
        assert!(
            save(&again) == save(s),
            "{name}: a second pump after {after} (task {task}, cycle {}) changed the state",
            s.now()
        );
        points += 1;
    };
    for (i, task) in trace.iter().enumerate() {
        if arrivals[i] > s.now() {
            s.advance_to(arrivals[i]);
            settled(&s, "advance_to", i);
        }
        while s.submit(task) == Admission::Backpressured {
            assert!(s.step(), "{name}: a backpressured session must drain");
            settled(&s, "step", i);
        }
    }
    points
}

#[test]
fn a_second_pump_at_the_same_cycle_changes_nothing_on_the_hil_platform() {
    let cfg = HilConfig::balanced(WORKERS).with_worker_faults([600]);
    for mode in [HilMode::HwOnly, HilMode::HwComm, HilMode::FullSystem] {
        for session in configs() {
            let name = format!("{} {session:?}", mode.engine_label());
            let s = HilSession::new(mode, cfg.clone(), session).unwrap();
            assert!(check(&name, s, HilSession::save_state) > TASKS, "{name}");
        }
    }
}

#[test]
fn a_second_pump_at_the_same_cycle_changes_nothing_in_the_cluster() {
    let plan = FaultPlan::new(0x5EED)
        .with_drop_rate(0.02)
        .with_dup_rate(0.02)
        .with_jitter(0.1, 8)
        .with_pause(1, 200, 900)
        .with_worker_fault(0, 400);
    let clusters = [
        ("cluster1", ClusterConfig::balanced(1, WORKERS)),
        ("cluster3", ClusterConfig::balanced(3, WORKERS)),
        (
            "cluster3-faulted",
            ClusterConfig::balanced(3, WORKERS).with_faults(plan),
        ),
    ];
    for (label, cfg) in clusters {
        for session in configs() {
            let name = format!("{label} {session:?}");
            let s = ClusterSession::new(cfg.clone(), session).unwrap();
            assert!(
                check(&name, s, ClusterSession::save_state) > TASKS,
                "{name}"
            );
        }
    }
}
