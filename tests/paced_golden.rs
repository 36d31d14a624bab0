//! Paced, windowed sessions pinned against recorded results.
//!
//! Every event-loop engine family — the three HIL modes and the cluster
//! at one and four shards — is driven the way `picos run --paced` and the
//! stream-cluster benchmark drive it: `advance_to` each arrival, `submit`,
//! and `step` while the submit is backpressured. The makespan, the
//! schedule digest and the number of `step` calls (one per backpressured
//! submit, so also the number of those) are compared with constants
//! recorded before the shared event-loop drive learned to skip the pump
//! of a settled session. The constants are never edited: a mismatch means
//! the paced drive changed a schedule or how many steps it takes to
//! produce one.
//!
//! A second test cuts each run right after a blocked `step` — a settled
//! point — and checks that a snapshot restored into a fresh session and a
//! `Clone` fork both finish equal to the uninterrupted run. It also
//! restores a state taken right after an accepted submit over a settled
//! session, which must not inherit the target's settled flag.

use picos_repro::prelude::*;
use picos_repro::serve::schedule_digest;
use std::ops::Range;

const TASKS: usize = 1_500;
const WORKERS: usize = 16;
const WINDOW: usize = 16;

/// `(family, makespan, schedule digest, step calls)`.
const GOLDEN: [(&str, u64, u64, u64); 5] = [
    ("picos-hw-only", 44993, 0xf5e6_a9ee_ea89_b2e1, 25094),
    ("picos-hw-comm", 1111763, 0x06b6_5302_ed55_4053, 38404),
    ("picos-full", 4593964, 0x166a_ed6a_4c42_9ddd, 42308),
    ("cluster1", 44993, 0xf5e6_a9ee_ea89_b2e1, 25094),
    ("cluster4", 42179, 0x0ec8_f458_4ddd_3d6c, 27131),
];

/// The event-loop families in [`GOLDEN`] order.
fn families() -> Vec<(&'static str, Box<dyn ExecBackend>)> {
    BackendSpec::PICOS_ALL
        .into_iter()
        .chain([BackendSpec::Cluster(1), BackendSpec::Cluster(4)])
        .zip(GOLDEN)
        .map(|(spec, (name, ..))| (name, spec.builder(WORKERS).build()))
        .collect()
}

fn stream() -> (Trace, Vec<u64>) {
    gen::stream_requests(gen::StreamConfig {
        seed: 0x9ACE_D000,
        interarrival: 10,
        ..gen::StreamConfig::heavy(TASKS)
    })
}

/// Runs the paced loop over `tasks`, counting `step` calls on top of
/// `steps`. With `cut = Some(k)`, returns right after the `k`-th step of
/// the whole run together with the task whose submission that step was
/// draining; the loop resumes there.
fn pace(
    s: &mut dyn SimSession,
    (trace, arrivals): (&Trace, &[u64]),
    tasks: Range<usize>,
    mut steps: u64,
    cut: Option<u64>,
) -> (u64, Option<usize>) {
    for i in tasks {
        if arrivals[i] > s.now() {
            s.advance_to(arrivals[i]);
        }
        while s.submit(&trace.tasks()[i]) == Admission::Backpressured {
            steps += 1;
            assert!(s.step(), "a backpressured session must drain");
            if cut == Some(steps) {
                return (steps, Some(i));
            }
        }
    }
    (steps, None)
}

fn key(s: Box<dyn SimSession>) -> (u64, u64) {
    let (report, _) = s.finish().unwrap();
    (report.makespan, schedule_digest(&report))
}

#[test]
fn paced_windowed_sessions_match_the_recorded_results() {
    let (trace, arrivals) = stream();
    let mut got = Vec::new();
    for (name, backend) in families() {
        let mut s = backend.open_with(SessionConfig::windowed(WINDOW)).unwrap();
        let (steps, _) = pace(&mut *s, (&trace, &arrivals), 0..TASKS, 0, None);
        let (makespan, digest) = key(s);
        got.push((name, makespan, digest, steps));
    }
    let table: Vec<String> = got
        .iter()
        .map(|(n, m, d, st)| format!("    (\"{n}\", {m}, {d:#018x}, {st}),"))
        .collect();
    for row in &got {
        let want = GOLDEN.iter().find(|g| g.0 == row.0).expect("pinned family");
        assert_eq!(
            row,
            want,
            "paced result drifted; got:\n{}",
            table.join("\n")
        );
    }
}

#[test]
fn restore_and_fork_at_a_settled_cut_finish_like_the_whole_run() {
    let (trace, arrivals) = stream();
    let input = (&trace, &arrivals[..]);
    for (name, backend) in families() {
        let open = || backend.open_with(SessionConfig::windowed(WINDOW)).unwrap();
        let mut whole = open();
        let (total, _) = pace(&mut *whole, input, 0..TASKS, 0, None);
        let want = (key(whole), total);

        // The settled cut: right after a blocked `step`.
        let cut = total / 2;
        let mut live = open();
        let (before, resume) = pace(&mut *live, input, 0..TASKS, 0, Some(cut));
        let resume = resume.expect("the cut falls inside the run");
        let mut restored = open();
        Snapshot::capture(&*live).restore(&mut *restored).unwrap();
        // An unsettled state (right after an accepted submit) restored over
        // a settled session must start unsettled, or its next step would
        // skip the pump that creates the new task.
        let mut accepted = open();
        let (at_accept, _) = pace(&mut *accepted, input, 0..resume + 1, 0, None);
        let mut over_settled = live.fork_boxed();
        Snapshot::capture(&*accepted)
            .restore(&mut *over_settled)
            .unwrap();
        let fork = live.fork_boxed();
        let runs = [
            ("live", live, resume, before),
            ("restored", restored, resume, before),
            ("fork", fork, resume, before),
            ("over-settled", over_settled, resume + 1, at_accept),
        ];
        for (how, mut s, from, steps) in runs {
            let (after, _) = pace(&mut *s, input, from..TASKS, steps, None);
            assert_eq!(
                (key(s), after),
                want,
                "{name}: {how} session resumed at task {from}"
            );
        }
    }
}
