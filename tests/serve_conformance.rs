//! Serve-layer conformance: multiplexing many tenants behind the fair
//! scheduler is *invisible* — every tenant's final schedule is
//! bit-identical to the same feed run solo, for any interleaving of
//! submissions and scheduler rounds; crash recovery replays journals to
//! the same bits; and the registry scales to a thousand live tenants.

use picos_repro::prelude::*;
use picos_repro::serve::schedule_digest;
use picos_repro::trace::KernelClass;
use picos_trace::rng::SplitMix64;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picos-conf-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mixed fleet: every backend family, varying workers/windows, and
/// workloads spanning streams, random dependence patterns and barriers.
fn fleet(n: usize, seed: u64) -> Vec<(String, TenantSpec, Trace)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let backend = BackendSpec::ALL[i % BackendSpec::ALL.len()];
            let mut spec = TenantSpec::new(backend, 2 + i % 3);
            // Half the fleet records lifecycle spans, so drains stream
            // real events (observation-only: solo equivalence holds).
            spec.trace_spans = i % 2 == 0;
            if i % 3 == 1 {
                // A tight engine window so the interleaving exercises
                // window rejections, not just clean accepts.
                spec.window = Some(2 + i % 4);
            }
            let mut trace = match i % 3 {
                0 => gen::stream(gen::StreamConfig::heavy(20 + i * 3)),
                1 => gen::random_trace(
                    gen::RandomConfig {
                        tasks: 15 + i,
                        addr_pool: 6,
                        max_deps: 3,
                        write_fraction: 0.4,
                        max_duration: 400,
                    },
                    rng.range_u64(0, 999),
                ),
                _ => {
                    let mut t = Trace::new("barriered");
                    for j in 0..18u64 {
                        t.push(
                            KernelClass::GENERIC,
                            [Dependence::inout(0x9000 + (j % 5) * 0x40)],
                            150 + j * 10,
                        );
                        if j % 6 == 5 {
                            t.push_taskwait();
                        }
                    }
                    t
                }
            };
            trace.calibrate_to(40_000 + rng.range_u64(0, 20_000));
            (format!("tenant{i:02}"), spec, trace)
        })
        .collect()
}

/// The solo reference: the same spec's backend fed by a lone driver under
/// the tenant's *effective* session configuration (the window a tenant
/// runs with is part of its timing semantics, so the solo run opens with
/// the same one).
fn solo_report(spec: &TenantSpec, trace: &Trace) -> ExecReport {
    let backend = spec.build_backend();
    let cfg = spec.effective_session_config(ServeConfig::default().default_quota);
    let mut s = backend.open_with(cfg).unwrap();
    feed_trace(&mut *s, trace).unwrap();
    let (r, _) = s.finish().unwrap();
    r
}

/// One tenant's feed cursor: tasks plus pending barrier declarations.
struct Feed {
    name: String,
    trace: Trace,
    next: usize,
    barriers: Vec<u32>,
}

impl Feed {
    fn new(name: &str, trace: &Trace) -> Feed {
        Feed {
            name: name.to_string(),
            trace: trace.clone(),
            next: 0,
            barriers: trace.barriers().to_vec(),
        }
    }

    fn done(&self) -> bool {
        self.next >= self.trace.len()
    }

    /// Feeds the next task (with any barrier due before it), riding out
    /// rejections with scheduler rounds.
    fn feed_one(&mut self, svc: &mut Service) {
        while self.barriers.first() == Some(&(self.next as u32)) {
            svc.barrier(&self.name).unwrap();
            self.barriers.remove(0);
        }
        let task = self.trace.tasks()[self.next].clone();
        loop {
            match svc.submit(&self.name, &task).unwrap() {
                SubmitOutcome::Accepted => break,
                _ => {
                    svc.run_round();
                }
            }
        }
        self.next += 1;
    }
}

/// Eight tenants — every backend family, mixed workloads, tight windows —
/// fed in a seeded random interleaving with scheduler rounds and event
/// drains mixed in: every close is bit-identical to the solo run.
#[test]
fn multiplexed_tenants_match_solo_bit_exactly() {
    for seed in [11u64, 42, 1337] {
        let fleet = fleet(8, seed);
        let solos: Vec<ExecReport> = fleet
            .iter()
            .map(|(_, spec, trace)| solo_report(spec, trace))
            .collect();

        let mut svc = Service::new(ServeConfig::default()).unwrap();
        for (name, spec, _) in &fleet {
            svc.open(name, spec).unwrap();
        }
        let mut feeds: Vec<Feed> = fleet
            .iter()
            .map(|(name, _, trace)| Feed::new(name, trace))
            .collect();

        // Random interleaving: pick a live feed, push one task; sprinkle
        // scheduler rounds and span drains between submissions.
        let mut rng = SplitMix64::new(seed ^ 0x5e12);
        let mut drained: Vec<Vec<span::SpanEvent>> = vec![Vec::new(); fleet.len()];
        while feeds.iter().any(|f| !f.done()) {
            let live: Vec<usize> = (0..feeds.len()).filter(|&i| !feeds[i].done()).collect();
            let pick = live[rng.range_usize(0, live.len() - 1)];
            feeds[pick].feed_one(&mut svc);
            if rng.bool(0.3) {
                svc.run_round();
            }
            if rng.bool(0.1) {
                let name = feeds[pick].name.clone();
                svc.drain_events(&name, &mut drained[pick]).unwrap();
            }
        }

        // Close in a shuffled order; each must match its solo run.
        let mut order: Vec<usize> = (0..fleet.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0, i));
        }
        for &i in &order {
            let (name, _, trace) = &fleet[i];
            let out = svc.close(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.report.order.len(), trace.len(), "seed {seed} {name}");
            assert_eq!(
                out.report.makespan, solos[i].makespan,
                "seed {seed} {name}: multiplexed makespan diverged"
            );
            assert_eq!(
                schedule_digest(&out.report),
                schedule_digest(&solos[i]),
                "seed {seed} {name}: multiplexed schedule diverged from solo"
            );
            // Drains are a live view over the tenant's span log: what
            // they returned is a prefix of the log the close hands back.
            match &out.spans {
                Some(log) => assert!(
                    log.events().starts_with(&drained[i]),
                    "seed {seed} {name}: drained events are not a prefix of the span log"
                ),
                None => assert!(drained[i].is_empty(), "seed {seed} {name}"),
            }
        }
        assert!(
            drained.iter().any(|d| !d.is_empty()),
            "seed {seed}: some drain must have streamed events"
        );
        assert!(svc.is_empty());
    }
}

/// Crash recovery end to end: 16 journaled tenants, killed mid-stream at
/// random split points, recovered by a fresh service, continued live —
/// and every final schedule is bit-identical to the uninterrupted run.
#[test]
fn crash_recovery_is_bit_exact_for_sixteen_tenants() {
    let dir = scratch("recovery");
    let cfg = || ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let fleet = fleet(16, 77);
    let solos: Vec<ExecReport> = fleet
        .iter()
        .map(|(_, spec, trace)| solo_report(spec, trace))
        .collect();
    let mut rng = SplitMix64::new(0xC4A5);

    // Phase 1: feed a random prefix of every tenant, flush, then "crash"
    // (drop without closing).
    let mut splits = Vec::new();
    {
        let mut svc = Service::new(cfg()).unwrap();
        for (name, spec, _) in &fleet {
            svc.open(name, spec).unwrap();
        }
        let mut feeds: Vec<Feed> = fleet
            .iter()
            .map(|(name, _, trace)| Feed::new(name, trace))
            .collect();
        for f in &mut feeds {
            let split = rng.range_usize(1, f.trace.len() - 1);
            while f.next < split {
                f.feed_one(&mut svc);
            }
            splits.push(split);
        }
        svc.run_round();
        svc.flush_journals().unwrap();
        // svc dropped here: the crash. No close, no finish.
    }

    // Phase 2: a fresh process recovers every tenant from its journal and
    // the feed continues where it left off.
    let mut svc = Service::new(cfg()).unwrap();
    assert!(
        svc.recovery_errors().is_empty(),
        "recovery failures: {:?}",
        svc.recovery_errors()
    );
    assert_eq!(svc.len(), fleet.len(), "all sixteen tenants must come back");
    let mut feeds: Vec<Feed> = fleet
        .iter()
        .zip(&splits)
        .map(|((name, _, trace), &split)| {
            assert_eq!(
                svc.journal(name).unwrap().submitted(),
                split,
                "{name}: journal must hold exactly the pre-crash prefix"
            );
            let mut f = Feed::new(name, trace);
            // Skip what the journal already replayed (tasks and the
            // barriers declared before the split).
            f.next = split;
            f.barriers.retain(|&b| b as usize >= split);
            f
        })
        .collect();
    while feeds.iter().any(|f| !f.done()) {
        let live: Vec<usize> = (0..feeds.len()).filter(|&i| !feeds[i].done()).collect();
        let pick = live[rng.range_usize(0, live.len() - 1)];
        feeds[pick].feed_one(&mut svc);
        if rng.bool(0.25) {
            svc.run_round();
        }
    }
    for (i, (name, _, trace)) in fleet.iter().enumerate() {
        let out = svc.close(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.report.order.len(), trace.len(), "{name}");
        assert_eq!(
            schedule_digest(&out.report),
            schedule_digest(&solos[i]),
            "{name}: recovered run diverged from the uninterrupted one"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scale smoke: a thousand concurrent stream tenants under the default
/// admission quota, all fed, drained and closed with correct schedules.
#[test]
fn a_thousand_live_tenants() {
    let mut svc = Service::new(ServeConfig::default()).unwrap();
    let trace = gen::stream(gen::StreamConfig::heavy(8));
    for i in 0..1000 {
        svc.open(
            &format!("s{i:04}"),
            &TenantSpec::new(BackendSpec::Perfect, 2),
        )
        .unwrap();
    }
    assert_eq!(svc.len(), 1000);
    for task in trace.iter() {
        for i in 0..1000 {
            let name = format!("s{i:04}");
            while svc.submit(&name, task).unwrap() != SubmitOutcome::Accepted {
                svc.run_round();
            }
        }
    }
    svc.run_until_idle();
    let scrape = svc.scrape();
    assert_eq!(scrape.service.value("serve.tenants_live"), Some(1000));
    let reference = solo_report(&TenantSpec::new(BackendSpec::Perfect, 2), &trace);
    for i in 0..1000 {
        let out = svc.close(&format!("s{i:04}")).unwrap();
        assert_eq!(out.report.order.len(), trace.len());
        assert_eq!(schedule_digest(&out.report), schedule_digest(&reference));
    }
    assert!(svc.is_empty());
}
