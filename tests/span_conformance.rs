//! Span-log conformance: lifecycle tracing is deterministic,
//! observation-only and consistent with the schedule.
//!
//! The promises of the span-tracing layer pinned here, across every
//! backend family:
//!
//! 1. **Observation only** — opening a session with
//!    [`SessionConfig::trace_spans`] changes no cycle: report, hardware
//!    counters and timeline are bit-equal to the untraced run.
//! 2. **Drive independence** — the cluster's serial pump and the epoch
//!    loop its finish drains through record the same event multiset;
//!    after [`span::SpanLog::canonical_sort`] the logs are bit-equal.
//! 3. **Schedule consistency** — per-task `Started`/`Finished` stamps
//!    equal the [`ExecReport`] start/end arrays, and lifecycle events
//!    are monotone within each task.
//! 4. **Critical-path coverage** — the walker's category totals sum to
//!    the makespan exactly, on every backend that records spans.
//! 5. **Perfetto export** — the emitted Chrome Trace Event JSON parses
//!    through the in-tree codec and carries one exec slice per task.

use picos_repro::prelude::*;
use picos_repro::trace::{parse_json, Value};
use span::{SpanKind, SpanLog};

fn families() -> Vec<BackendSpec> {
    vec![
        BackendSpec::Perfect,
        BackendSpec::Nanos,
        BackendSpec::Picos(HilMode::HwOnly),
        BackendSpec::Picos(HilMode::FullSystem),
        BackendSpec::Cluster(2),
    ]
}

fn traced(spec: BackendSpec, trace: &Trace) -> SessionOutput {
    let backend = spec.build(8, &PicosConfig::balanced());
    backend
        .run_with_telemetry(trace, SessionConfig::batch().with_spans())
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
}

/// The canonical log of one cluster run, drained by the serial pump
/// (`drive_finish` before the finish) or by the epoch loop a plain finish
/// takes.
fn cluster_log(trace: &Trace, shards: usize, serial: bool) -> SpanLog {
    use picos_repro::cluster::ClusterSession;
    use picos_repro::runtime::session::EventLoopCore;
    let cfg = ClusterConfig::balanced(shards, 8);
    let mut s = ClusterSession::new(cfg, SessionConfig::batch().with_spans()).unwrap();
    feed_trace(&mut s, trace).unwrap();
    if serial {
        s.drive_finish();
    }
    let mut log = s
        .into_output()
        .unwrap()
        .4
        .expect("span tracing was requested");
    log.canonical_sort();
    log
}

#[test]
fn spans_are_observation_only_everywhere() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    for spec in families() {
        let backend = spec.build(8, &PicosConfig::balanced());
        let plain = backend
            .run_with_telemetry(&trace, SessionConfig::timed(500))
            .unwrap();
        let spanned = backend
            .run_with_telemetry(&trace, SessionConfig::timed(500).with_spans())
            .unwrap();
        assert_eq!(
            spanned.report, plain.report,
            "{spec}: spans changed a cycle"
        );
        assert_eq!(
            spanned.stats, plain.stats,
            "{spec}: spans changed a counter"
        );
        assert_eq!(
            spanned.timeline, plain.timeline,
            "{spec}: spans changed the timeline"
        );
        assert_eq!(
            spanned.metrics, plain.metrics,
            "{spec}: spans changed a metric"
        );
        assert!(plain.spans.is_none(), "{spec}: no spans were requested");
        let log = spanned
            .spans
            .unwrap_or_else(|| panic!("{spec}: spans were requested"));
        assert!(!log.is_empty(), "{spec}: a run records events");
        // Determinism: the same traced run records the same log.
        let again = backend
            .run_with_telemetry(&trace, SessionConfig::timed(500).with_spans())
            .unwrap();
        assert_eq!(again.spans.unwrap(), log, "{spec}: log not deterministic");
    }
}

#[test]
fn cluster_span_logs_are_drive_independent() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let serial = cluster_log(&trace, 4, true);
    assert!(!serial.is_empty());
    assert_eq!(
        cluster_log(&trace, 4, false),
        serial,
        "canonical span logs differ between the serial pump and the epoch loop"
    );
}

#[test]
fn span_timestamps_match_the_exec_report() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let out = traced(BackendSpec::Picos(HilMode::HwOnly), &trace);
    let log = out.spans.as_ref().expect("spans were requested");
    let n = trace.len();
    // Per-task extraction: the single-system HIL engine records every
    // lifecycle kind exactly once per task.
    let mut stamp = vec![[None::<u64>; 7]; n];
    for e in log.events() {
        let k = e.kind as usize;
        if k < 7 {
            let slot = &mut stamp[e.task as usize][k];
            assert!(
                slot.is_none(),
                "task {} records {} twice",
                e.task,
                e.kind.name()
            );
            *slot = Some(e.at);
        }
    }
    for (t, evs) in stamp.iter().enumerate() {
        let at =
            |k: SpanKind| evs[k as usize].unwrap_or_else(|| panic!("task {t}: no {}", k.name()));
        assert_eq!(at(SpanKind::Started), out.report.start[t], "task {t} start");
        assert_eq!(at(SpanKind::Finished), out.report.end[t], "task {t} end");
        // Lifecycle monotonicity along the pipeline.
        assert!(
            at(SpanKind::Submitted) <= at(SpanKind::DepsRegistered),
            "task {t}"
        );
        assert!(
            at(SpanKind::DepsRegistered) <= at(SpanKind::LastDepReleased),
            "task {t}"
        );
        assert!(
            at(SpanKind::LastDepReleased) <= at(SpanKind::Ready),
            "task {t}"
        );
        assert!(at(SpanKind::Ready) <= at(SpanKind::Dispatched), "task {t}");
        assert!(
            at(SpanKind::Dispatched) <= at(SpanKind::Started),
            "task {t}"
        );
        assert!(at(SpanKind::Started) <= at(SpanKind::Finished), "task {t}");
    }
}

#[test]
fn critical_path_totals_sum_to_the_makespan_on_every_backend() {
    let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
    let graph = TaskGraph::build(&trace);
    for spec in families() {
        let out = traced(spec, &trace);
        let log = out.spans.as_ref().expect("spans were requested");
        let cp = span::critical_path(
            log,
            |t| graph.preds(TaskId::new(t)).to_vec(),
            out.report.makespan,
        )
        .unwrap_or_else(|| panic!("{spec}: walker found no finished task"));
        let attributed: u64 = cp.totals().iter().map(|&(_, v)| v).sum();
        assert_eq!(
            attributed, out.report.makespan,
            "{spec}: cycles must cover the makespan"
        );
        // Segments tile [0, makespan) contiguously in time order.
        let segs = &cp.segments;
        assert!(!segs.is_empty(), "{spec}");
        assert_eq!(segs[0].start, 0, "{spec}: chain starts at cycle 0");
        assert_eq!(segs.last().unwrap().end, out.report.makespan, "{spec}");
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "{spec}: segments must be contiguous");
        }
        // The rendered table reports the same coverage.
        let table = cp.table();
        assert!(
            table.starts_with(&format!(
                "critical path over {} cycles",
                out.report.makespan
            )),
            "{spec}: {table}"
        );
        // A real schedule executes work on the critical chain.
        assert!(cp.total(span::CpCategory::Exec) > 0, "{spec}");
    }
}

#[test]
fn fault_retries_appear_as_message_spans_and_stay_observation_only() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let plan = FaultPlan::new(7).with_drop_rate(0.05).with_link_timeout(64);
    let build = || {
        BackendSpec::Cluster(2)
            .builder(8)
            .picos(&PicosConfig::balanced())
            .faults(Some(plan.clone()))
            .build()
    };
    let plain = build().run(&trace).unwrap();
    let out = build()
        .run_with_telemetry(&trace, SessionConfig::batch().with_spans())
        .unwrap();
    assert_eq!(out.report, plain, "spans changed a faulty run");
    let log = out.spans.expect("spans were requested");
    let count = |k: SpanKind| log.events().iter().filter(|e| e.kind == k).count();
    assert!(count(SpanKind::MsgSend) > 0, "shards exchanged messages");
    assert!(count(SpanKind::MsgDeliver) > 0);
    assert!(
        count(SpanKind::MsgRetry) > 0,
        "a 5% drop rate must force retransmissions"
    );
    // Delivered packet ids echo sent ones: every delivery's packet id was
    // previously sent (id 0 marks plain unnumbered packets).
    let sent: std::collections::HashSet<u32> = log
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::MsgSend)
        .map(|e| e.arg)
        .collect();
    for e in log.events() {
        if e.kind == SpanKind::MsgDeliver && e.arg != 0 {
            assert!(sent.contains(&e.arg), "delivered unknown packet {}", e.arg);
        }
    }
}

#[test]
fn perfetto_export_roundtrips_through_the_in_tree_codec() {
    let trace = gen::sparselu(gen::SparseLuConfig::paper(128));
    let graph = TaskGraph::build(&trace);
    let mut edges = Vec::new();
    for t in 0..trace.len() as u32 {
        for &s in graph.succs(TaskId::new(t)) {
            edges.push((t, s));
        }
    }
    let render = |serial: bool| {
        let log = cluster_log(&trace, 2, serial);
        span::to_perfetto_json(&log, &edges)
    };
    let json = render(true);
    let root = parse_json(&json).expect("export must be valid JSON");
    let events = root
        .as_obj()
        .and_then(|o| o.get("traceEvents"))
        .and_then(Value::as_array)
        .expect("object format with a traceEvents array");
    assert!(!events.is_empty());
    let mut exec_slices = 0;
    let mut process_names = Vec::new();
    for e in events {
        let obj = e.as_obj().expect("every trace event is an object");
        let ph = obj.get("ph").and_then(Value::as_string).expect("ph");
        match ph {
            "X" => {
                // Complete slices carry a timestamp and a duration.
                assert!(obj.get("ts").and_then(Value::as_int).is_some());
                assert!(obj.get("dur").and_then(Value::as_int).is_some());
                if obj.get("cat").and_then(Value::as_string) == Some("task") {
                    exec_slices += 1;
                }
            }
            "M" if obj.get("name").and_then(Value::as_string) == Some("process_name") => {
                let name = obj
                    .get("args")
                    .and_then(Value::as_obj)
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_string)
                    .expect("metadata name");
                process_names.push(name.to_string());
            }
            _ => {}
        }
    }
    assert_eq!(exec_slices, trace.len(), "one exec slice per task");
    for expected in ["shard0", "shard1", "interconnect"] {
        assert!(
            process_names.iter().any(|n| n == expected),
            "missing process track {expected}: {process_names:?}"
        );
    }
    // Canonically sorted logs render byte-identically whichever drive ran.
    assert_eq!(render(false), json, "export must be drive independent");
}

#[test]
fn auto_window_targets_the_sample_budget() {
    for estimate in [0, 1, 63, 64, 1_000, 100_000, u64::MAX / 2] {
        let w = span::auto_window(estimate, 256);
        assert!(w >= 64, "floor window");
        assert!(w.is_power_of_two());
        assert!(
            estimate / w <= 256,
            "estimate {estimate}: window {w} overshoots"
        );
        if w > 64 {
            assert!(
                estimate / (w / 2) > 256,
                "window {w} not minimal for {estimate}"
            );
        }
    }
}
