//! Timeline conformance: telemetry is deterministic and observation-only.
//!
//! Three promises of the cycle-windowed telemetry layer are pinned here,
//! across every backend family:
//!
//! 1. **Determinism** — the same workload, configuration and window
//!    produce byte-identical [`Timeline`]s on repeated runs.
//! 2. **Path independence** — the batch driver, a hand-driven streaming
//!    session and the paced driver at interarrival 0 (all tasks arrive at
//!    cycle 0, i.e. the batch arrival pattern) produce the same timeline.
//! 3. **Observation only** — attaching a sampler changes no cycle: the
//!    report and hardware counters equal the probes-only run, and the
//!    delta series sum back to the end-of-run counters exactly.

use picos_repro::prelude::*;

const WINDOW: u64 = 500;

fn families() -> Vec<BackendSpec> {
    vec![
        BackendSpec::Perfect,
        BackendSpec::Nanos,
        BackendSpec::Picos(HilMode::HwOnly),
        BackendSpec::Picos(HilMode::FullSystem),
        BackendSpec::Cluster(2),
    ]
}

fn telemetry(spec: BackendSpec, trace: &Trace) -> SessionOutput {
    let backend = spec.build(8, &PicosConfig::balanced());
    backend
        .run_with_telemetry(trace, SessionConfig::timed(WINDOW))
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
}

#[test]
fn identical_timelines_on_repeated_runs() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    for spec in families() {
        let a = telemetry(spec, &trace);
        let b = telemetry(spec, &trace);
        assert_eq!(a, b, "{spec}: telemetry must be deterministic");
        assert!(a.timeline.is_some(), "{spec}: a timeline was requested");
    }
}

#[test]
fn batch_session_and_paced_paths_agree() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    for spec in families() {
        let backend = spec.build(8, &PicosConfig::balanced());
        let batch = backend
            .run_with_telemetry(&trace, SessionConfig::timed(WINDOW))
            .unwrap();
        // Hand-driven streaming session, one task at a time.
        let mut s = backend.open_with(SessionConfig::timed(WINDOW)).unwrap();
        feed_trace(&mut *s, &trace).unwrap();
        let streamed = s.finish_full().unwrap();
        assert_eq!(batch, streamed, "{spec}: streamed != batch");
        // Paced driver at interarrival 0: every task arrives at cycle 0,
        // exactly the batch arrival pattern — the engine-side timeline
        // (the non-`pace.` columns) must match the batch run's.
        let paced =
            run_paced_with_telemetry(&*backend, PacedTrace::new(&trace, 0), None, Some(WINDOW))
                .unwrap();
        assert_eq!(paced.report, batch.report, "{spec}: paced-0 != batch");
        let batch_tl = batch.timeline.expect("batch timeline requested");
        let paced_tl = paced.timeline.expect("paced timeline requested");
        assert_eq!(paced_tl.len(), batch_tl.len(), "{spec}: sample counts");
        for series in batch_tl.series() {
            assert_eq!(
                paced_tl.column(&series.name),
                batch_tl.column(&series.name),
                "{spec}: series {} differs between paced-0 and batch",
                series.name
            );
        }
    }
}

#[test]
fn telemetry_is_observation_only() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    for spec in families() {
        let backend = spec.build(8, &PicosConfig::balanced());
        let (plain_report, plain_stats) = backend.run_with_stats(&trace).unwrap();
        let timed = backend
            .run_with_telemetry(&trace, SessionConfig::timed(WINDOW))
            .unwrap();
        assert_eq!(timed.report, plain_report, "{spec}: probes changed a cycle");
        assert_eq!(timed.stats, plain_stats, "{spec}: probes changed a counter");
    }
}

/// At the test window and at the coarse 65,536-cycle window of the
/// timeline overhead gate, samples tile the run from cycle 0 and the
/// delta series sum back to the end-of-run counters.
#[test]
fn delta_series_sum_to_end_of_run_counters() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let backend = BackendSpec::Picos(HilMode::HwOnly).build(8, &PicosConfig::balanced());
    for window in [WINDOW, 65_536] {
        let out = backend
            .run_with_telemetry(&trace, SessionConfig::timed(window))
            .unwrap_or_else(|e| panic!("window {window}: {e}"));
        let stats = out.stats.expect("picos counters");
        let tl = out.timeline.expect("timeline requested");
        let sum = |name: &str| {
            tl.column(name)
                .unwrap_or_else(|| panic!("missing series {name}"))
                .iter()
                .sum::<u64>()
        };
        assert_eq!(tl.sample(0).0, 0, "window {window}: starts at cycle 0");
        assert_eq!(sum("core.busy.gw"), stats.busy_gw);
        assert_eq!(sum("core.busy.trs"), stats.busy_trs);
        assert_eq!(sum("core.busy.dct"), stats.busy_dct);
        assert_eq!(sum("core.busy.arb"), stats.busy_arb);
        assert_eq!(sum("core.busy.ts"), stats.busy_ts);
        assert_eq!(sum("core.done.tasks"), stats.tasks_completed);
        assert_eq!(stats.tasks_completed, trace.len() as u64);
        assert_eq!(sum("core.done.deps"), stats.deps_processed);
        assert_eq!(sum("core.stall.dm"), stats.dm_conflicts);
        // The timeline spans the whole run: it ends at engine quiescence,
        // which is at or shortly after the last task's completion (the
        // core still drains the finish pipeline past the makespan).
        let (_, last_end, _) = tl.sample(tl.len() - 1);
        assert!(last_end >= out.report.makespan, "timeline spans the run");
        assert!(
            last_end - out.report.makespan < 10_000,
            "only the retire pipeline drains past the makespan"
        );
        assert!(tl.len() as u64 >= out.report.makespan / window);
    }
}

#[test]
fn cluster_timeline_scopes_every_shard_and_link() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let out = telemetry(BackendSpec::Cluster(2), &trace);
    let tl = out.timeline.expect("timeline requested");
    for name in [
        "workers.busy",
        "link0.inflight",
        "link0.sent",
        "link1.inflight",
        "link1.sent",
        "s0.core.busy.gw",
        "s1.core.busy.gw",
        "s0.core.occ.dm",
        "s1.core.occ.dm",
    ] {
        assert!(
            tl.series_index(name).is_some(),
            "missing cluster series {name}"
        );
    }
    // Cross-shard traffic happens and is windowed: link.sent deltas sum
    // to the total interconnect message count, which must be positive on
    // a two-shard stream run.
    let sent: u64 = (0..2)
        .map(|k| {
            tl.column(&format!("link{k}.sent"))
                .unwrap()
                .iter()
                .sum::<u64>()
        })
        .sum();
    assert!(sent > 0, "two shards must exchange messages");
    // Per-shard metric scopes exist in the registry, and busy totals in
    // the registry match the merged stats field.
    let stats = out.stats.expect("cluster counters");
    let shard_busy: u64 = (0..2)
        .map(|k| out.metrics.value(&format!("shard{k}.busy_gw")).unwrap())
        .sum();
    assert_eq!(shard_busy, stats.busy_gw, "scoped registry matches merge");
}

#[test]
fn paced_driver_records_windowed_backpressure() {
    let trace = gen::stream(gen::StreamConfig::heavy(400));
    let backend = BackendSpec::Picos(HilMode::HwOnly).build(2, &PicosConfig::balanced());
    let r = run_paced_with_telemetry(&*backend, PacedTrace::new(&trace, 1), Some(8), Some(WINDOW))
        .unwrap();
    assert!(r.backpressured_tasks > 0, "rate 1/cycle must saturate");
    let tl = r.timeline.expect("timeline requested");
    let bp = tl.column("pace.backpressured").expect("driver series");
    assert_eq!(
        bp.iter().sum::<u64>(),
        r.backpressured_tasks as u64,
        "windowed backpressure sums to the total"
    );
    let retries = tl.column("pace.retries").expect("driver series");
    assert_eq!(retries.iter().sum::<u64>(), r.retries);
    let inflight = tl.column("pace.inflight").expect("driver series");
    assert!(
        inflight.iter().any(|&v| v > 0),
        "in-flight occupancy was sampled"
    );
    assert!(inflight.iter().all(|&v| v <= 8), "window cap respected");
    // The admission histogram is in the registry.
    assert!(r.metrics.get("pace.inflight_hist").is_some());
    // Telemetry does not perturb the paced run either.
    let plain = run_paced(&*backend, PacedTrace::new(&trace, 1), Some(8)).unwrap();
    assert_eq!(plain.report, r.report);
    assert_eq!(plain.retries, r.retries);
}

#[test]
fn sweep_cells_record_timelines() {
    let result = Sweep::over_apps([gen::App::Cholesky], [256])
        .workers([4])
        .backends([BackendSpec::Perfect, BackendSpec::Picos(HilMode::HwOnly)])
        .timeline(2_000)
        .run();
    assert_eq!(result.first_error(), None);
    for row in result.rows() {
        let tl = row.timeline.as_ref().expect("timeline requested");
        assert!(!tl.is_empty(), "{}: empty timeline", row.backend);
        assert_eq!(tl.window(), 2_000);
    }
    let csv = result.timelines_csv();
    assert!(csv.starts_with(
        "workload,block_size,backend,workers,dm,instances,shards,\
         window_start,window_end,series,value\n"
    ));
    assert!(csv.contains("cholesky,256,picos-hw-only,4"));
    assert!(csv.contains(",core.busy.gw,"));
    // Without the knob, rows carry no timelines and the CSV is header-only.
    let plain = Sweep::over_apps([gen::App::Cholesky], [256])
        .workers([4])
        .backends([BackendSpec::Perfect])
        .run();
    assert!(plain.rows().iter().all(|r| r.timeline.is_none()));
    assert_eq!(plain.timelines_csv().lines().count(), 1);
}

#[test]
fn table_iv_extraction_works_on_any_backend() {
    // The deduped Table IV extraction: the report method and the HIL
    // wrapper agree, and the extraction runs on non-HIL reports too.
    let trace = gen::synthetic(gen::Case::Case2);
    let avg = trace.stats().avg_deps();
    let hil = run_hil(&trace, HilMode::HwOnly, &HilConfig::balanced(12)).unwrap();
    assert_eq!(hil.synthetic_metrics(avg), synthetic_metrics(&hil, &trace));
    for spec in families() {
        let r = spec.build(8, &PicosConfig::balanced()).run(&trace).unwrap();
        let m = r.synthetic_metrics(avg);
        assert!(m.thr_task >= 0.0, "{spec}");
        assert!(m.thr_dep.is_some(), "{spec}: case2 has dependences");
    }
}

#[test]
fn zero_timeline_window_is_a_config_error_everywhere() {
    let trace = gen::synthetic(gen::Case::Case1);
    for spec in families() {
        let backend = spec.build(4, &PicosConfig::balanced());
        let r = backend.run_with_telemetry(&trace, SessionConfig::timed(0));
        assert!(r.is_err(), "{spec}: zero window must be rejected");
    }
}
