//! Bench smoke: the six layer-overhead gates CI checks on every change.
//!
//! Each gate runs two configurations of one workload in the same process
//! and fails when the costlier side falls below a fixed fraction of its
//! reference (the `gates` table at the end of `main`), so the ratio holds
//! across machines where absolute throughput does not:
//!
//! - (a) the batch `ExecBackend::run` path vs the raw engine;
//! - (b) a coarse-window telemetry timeline attached vs not;
//! - (c) the span recorder attached vs not;
//! - (d) the parallel 4-shard cluster engine vs the serial one;
//! - (e) a zero-fault `FaultPlan` attached vs no plan;
//! - (f) 256 tenants multiplexed behind one `Service` vs the same sessions
//!   run solo.
//!
//! It also times the snapshot save/restore round trip, which no other
//! harness measures. Per-layer costs with their spread come from the
//! `perfbench` ladder, not from here.
//!
//! Prints `BENCH_engine.json` (and writes it to the working directory),
//! then exits non-zero if any gate tripped.
//!
//! Knob: `BENCH_SMOKE_MS` — per-measurement sampling window (default 300).

use picos_backend::{feed_trace, BackendSpec, ExecBackend, FaultPlan, SessionConfig, Snapshot};
use picos_core::{FinishedReq, PicosConfig, PicosSystem};
use picos_serve::{ServeConfig, Service, SubmitOutcome, TenantSpec};
use picos_trace::gen;
use std::time::{Duration, Instant};

fn window_ms() -> u64 {
    std::env::var("BENCH_SMOKE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Median-free quick sampler: run `f` repeatedly for the window, return
/// iterations per second.
fn sample(window: Duration, mut f: impl FnMut()) -> f64 {
    // One warm-up call so allocations and caches settle outside the window.
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < window || iters == 0 {
        f();
        iters += 1;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Interleaved A/B: runs every side once per round, in the given order,
/// until the window has passed (at least one round), and returns each
/// side's iteration times in seconds. Alternating the sides within one
/// window makes host noise hit all of them equally.
fn interleave<const N: usize>(window: Duration, sides: [&dyn Fn(); N]) -> [Vec<f64>; N] {
    let mut times = [(); N].map(|_| Vec::new());
    let start = Instant::now();
    while start.elapsed() < window || times[0].is_empty() {
        for (spent, run) in times.iter_mut().zip(sides) {
            let t0 = Instant::now();
            run();
            spent.push(t0.elapsed().as_secs_f64());
        }
    }
    times
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let window = Duration::from_millis(window_ms());
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let tasks = trace.len() as f64;

    // Metrics overhead guard: the same raw-engine run with and without a
    // coarse-window telemetry timeline attached. Probes themselves are
    // always-on plain field increments; the guard measures what
    // *attaching a sampler* adds (one branch per clock move plus one
    // probe per window).
    let engine_run = |timeline: Option<u64>| {
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        if let Some(w) = timeline {
            sys.attach_timeline(w);
        }
        sys.submit_all(&trace);
        sys.run_to_quiescence(200_000_000, |r| {
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .expect("engine run completes");
        std::hint::black_box(sys.now());
        std::hint::black_box(sys.take_timeline().map(|t| t.len()));
    };
    engine_run(None);
    engine_run(Some(65_536));
    // Mean over the interleaved runs of each side.
    let [metrics_off_tasks_per_sec, metrics_timeline_tasks_per_sec] = interleave(
        window * 2,
        [&|| engine_run(None), &|| engine_run(Some(65_536))],
    )
    .map(|v| v.len() as f64 / v.iter().sum::<f64>() * tasks);

    let tasks_per_sec = sample(window, || engine_run(None)) * tasks;

    // The batch backend path: ExecBackend::run is a default method over a
    // streaming session (feed the trace, finish). Same core as above plus
    // worker/dispatch simulation.
    let hw = BackendSpec::Picos(picos_hil::HilMode::HwOnly).build(8, &PicosConfig::balanced());
    let batch_tasks_per_sec = sample(window, || {
        std::hint::black_box(hw.run(&trace).expect("batch run completes"));
    }) * tasks;

    // Span-recorder overhead guard: the same session-driven batch run with
    // and without task-lifecycle span tracing attached. Tracing adds one
    // preallocated-vec push per lifecycle event.
    let batch_run = |spans: bool| {
        let cfg = SessionConfig {
            trace_spans: spans,
            ..SessionConfig::batch()
        };
        let out = hw
            .run_with_telemetry(&trace, cfg)
            .expect("batch run completes");
        std::hint::black_box(out.report.makespan);
        std::hint::black_box(out.spans.map(|l| l.len()));
    };
    batch_run(false);
    batch_run(true);
    // Median-of-iterations per side: the 10% gate is tighter than host
    // noise on a mean, medians are stable.
    let [spans_off_tasks_per_sec, spans_on_tasks_per_sec] =
        interleave(window * 2, [&|| batch_run(false), &|| batch_run(true)])
            .map(|v| tasks / median(v));

    // Snapshot roundtrip: capture a mid-feed Picos session, serialize it
    // through the in-tree JSON codec, parse it back and restore into a
    // fresh session — the full save/restore cycle a serve checkpoint or a
    // what-if replica pays per snapshot.
    let snap_trace = gen::stream(gen::StreamConfig::heavy(400));
    let mut mid = hw
        .open_with(SessionConfig::batch())
        .expect("open snapshot session");
    feed_trace(&mut *mid, &snap_trace).expect("snapshot feed");
    let snapshot_roundtrip_per_sec = sample(window, || {
        let snap = Snapshot::capture(&*mid);
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("snapshot parses");
        let mut fresh = hw
            .open_with(SessionConfig::batch())
            .expect("open restore target");
        back.restore(&mut *fresh).expect("snapshot restores");
        std::hint::black_box(fresh.now());
    });
    drop(mid);

    // Serial vs parallel cluster engine at 4 shards on the open-loop
    // stream workload. The parallel engine is bit-identical to serial, so
    // this measures pure wall-clock: the epoch engine's O(events)
    // processing against the serial driver's O(shards)-per-event pump
    // scans, plus real threads when the host has cores to give (the
    // thread count clamps to available parallelism, so single-core CI
    // runners measure the inline epoch engine).
    // A third side measures the fault layer's zero-fault overhead: a
    // cluster with an attached all-zero-rates FaultPlan runs the exact
    // same schedule bit-identically (pinned below), so the delta vs the
    // plain serial engine is the pure cost of the packet wrapper and the
    // per-pump fault-phase checks.
    let stream4 = gen::stream(gen::StreamConfig::heavy(800));
    let cluster_at = |threads: usize, faults: Option<FaultPlan>| {
        BackendSpec::Cluster(4)
            .builder(8)
            .picos(&PicosConfig::balanced())
            .threads(Some(threads))
            .faults(faults)
            .build()
    };
    let serial4 = cluster_at(1, None);
    let par4 = cluster_at(4, None);
    let fault0 = cluster_at(1, Some(FaultPlan::new(1)));
    let serial_makespan = serial4.run(&stream4).expect("serial cluster completes");
    let par_makespan = par4.run(&stream4).expect("parallel cluster completes");
    let fault0_makespan = fault0.run(&stream4).expect("zero-fault cluster completes");
    assert_eq!(
        serial_makespan, par_makespan,
        "parallel cluster engine must be bit-identical to serial"
    );
    assert_eq!(
        serial_makespan, fault0_makespan,
        "zero-fault plan must be bit-identical to no plan"
    );
    // Median-of-iterations per side: the 3% fault-overhead guard is
    // tighter than host noise on a mean, but the interleaved medians are
    // stable. fault0 runs adjacent to serial4 (its comparison side), so
    // the multi-threaded par4 run's thermal wake biases neither.
    let cluster_run = |backend: &dyn ExecBackend| {
        std::hint::black_box(backend.run(&stream4).expect("cluster run completes"));
    };
    let [cluster_serial4_cells_per_sec, cluster_fault0_cells_per_sec, cluster_par_cells_per_sec] =
        interleave(
            window * 3,
            [
                &|| cluster_run(&*serial4),
                &|| cluster_run(&*fault0),
                &|| cluster_run(&*par4),
            ],
        )
        .map(|v| 1.0 / median(v));

    // Serve-layer multiplexing tax: 256 stream tenants multiplexed behind
    // one Service on one scheduler thread, against the same 256 sessions
    // run solo back to back under the identical effective session config.
    // The scheduler is invisible to the schedules (pinned by the serve
    // conformance suite), so the A/B isolates the service's bookkeeping —
    // registry lookups, admission checks, journaling, fair rounds — per
    // session.
    let serve_tenants = 256usize;
    let serve_trace = gen::stream(gen::StreamConfig::heavy(24));
    let serve_spec = TenantSpec::new(BackendSpec::Nanos, 2);
    let serve_names: Vec<String> = (0..serve_tenants).map(|i| format!("b{i:03}")).collect();
    let serve_tasks: Vec<_> = serve_trace.iter().collect();
    let mux_run = || {
        let mut svc = Service::new(ServeConfig::default()).expect("service starts");
        for name in &serve_names {
            svc.open(name, &serve_spec).expect("open tenant");
            // The same buffer pre-sizing feed_trace gives a solo session.
            svc.reserve(name, serve_trace.len()).expect("reserve");
        }
        // Clients submit in short bursts, interleaved across all tenants.
        for chunk in serve_tasks.chunks(8) {
            for name in &serve_names {
                for task in chunk {
                    while svc.submit(name, task).expect("submit") != SubmitOutcome::Accepted {
                        svc.run_round();
                    }
                }
            }
        }
        // LIFO close order: removing the newest tenant is a registry pop.
        for name in serve_names.iter().rev() {
            let out = svc.close(name).expect("close tenant");
            std::hint::black_box(out.report.makespan);
        }
    };
    let solo_cfg = serve_spec.effective_session_config(ServeConfig::default().default_quota);
    let solo_run = || {
        for _ in 0..serve_tenants {
            let backend = serve_spec.build_backend();
            let mut s = backend.open_with(solo_cfg).expect("open solo session");
            feed_trace(&mut *s, &serve_trace).expect("solo feed");
            let (r, _) = s.finish().expect("solo finish");
            std::hint::black_box(r.makespan);
        }
    };
    mux_run();
    solo_run();
    let [serve_sessions_per_sec, serve_solo_sessions_per_sec] =
        interleave(window * 2, [&mux_run, &solo_run]).map(|v| serve_tenants as f64 / median(v));

    let json = format!(
        "{{\n  \"workload\": \"sparselu128\",\n  \"tasks\": {},\n  \
         \"tasks_per_sec\": {:.0},\n  \
         \"metrics_off_tasks_per_sec\": {:.0},\n  \
         \"metrics_timeline_tasks_per_sec\": {:.0},\n  \
         \"spans_off_tasks_per_sec\": {:.0},\n  \
         \"spans_on_tasks_per_sec\": {:.0},\n  \
         \"batch_tasks_per_sec\": {:.0},\n  \
         \"snapshot_roundtrip_per_sec\": {:.1},\n  \
         \"cluster_serial4_cells_per_sec\": {:.1},\n  \
         \"cluster_par_cells_per_sec\": {:.1},\n  \
         \"cluster_fault0_cells_per_sec\": {:.1},\n  \
         \"serve_tenants\": {},\n  \
         \"serve_sessions_per_sec\": {:.1},\n  \
         \"serve_solo_sessions_per_sec\": {:.1}\n}}\n",
        tasks as u64,
        tasks_per_sec,
        metrics_off_tasks_per_sec,
        metrics_timeline_tasks_per_sec,
        spans_off_tasks_per_sec,
        spans_on_tasks_per_sec,
        batch_tasks_per_sec,
        snapshot_roundtrip_per_sec,
        cluster_serial4_cells_per_sec,
        cluster_par_cells_per_sec,
        cluster_fault0_cells_per_sec,
        serve_tenants,
        serve_sessions_per_sec,
        serve_solo_sessions_per_sec
    );
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_engine.json", &json) {
        eprintln!("warning: could not write BENCH_engine.json: {e}");
    }

    // The gates: (what, measured side, reference side, least allowed
    // fraction of the reference).
    let gates = [
        // (a) The session-backed batch path must stay within a sanity
        // factor of the raw engine; a violation means something expensive
        // landed on the batch hot path (measured ~0.75 on the reference
        // machine).
        (
            "(a) batch path vs raw engine",
            batch_tasks_per_sec,
            tasks_per_sec,
            0.25,
        ),
        // (b) The telemetry layer's contract: one branch per clock move,
        // one probe per window.
        (
            "(b) coarse-window timeline vs probes only",
            metrics_timeline_tasks_per_sec,
            metrics_off_tasks_per_sec,
            0.9,
        ),
        // (c) The span layer's contract: one branch per lifecycle site
        // when detached, one preallocated push when attached.
        (
            "(c) spans on vs spans off",
            spans_on_tasks_per_sec,
            spans_off_tasks_per_sec,
            0.9,
        ),
        // (d) Never slower than the serial reference, with a 5% noise
        // allowance (measured >= 1.7x faster even single-core).
        (
            "(d) parallel vs serial 4-shard cluster",
            cluster_par_cells_per_sec,
            cluster_serial4_cells_per_sec,
            0.95,
        ),
        // (e) The fault layer's contract: one u32 + bool per message and
        // constant-time empty-queue checks; no RNG draws at zero rates.
        (
            "(e) zero-fault plan vs no plan",
            cluster_fault0_cells_per_sec,
            cluster_serial4_cells_per_sec,
            0.97,
        ),
        // (f) The serve layer's contract: registry lookup + admission
        // check per submit, fair rounds amortised across tenants.
        (
            "(f) multiplexed service vs solo sessions",
            serve_sessions_per_sec,
            serve_solo_sessions_per_sec,
            0.75,
        ),
    ];
    let mut tripped = false;
    for (what, side, reference, floor) in gates {
        if side < reference * floor {
            eprintln!(
                "FAIL: {what}: {side:.1}/s fell below {floor} x the reference's {reference:.1}/s"
            );
            tripped = true;
        }
    }
    if tripped {
        std::process::exit(1);
    }
}
