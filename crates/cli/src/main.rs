//! `picos` — command-line interface for the Picos reproduction.
//!
//! Generate the paper's workloads, run them through any execution engine
//! (all engines sit behind the uniform `picos_backend::ExecBackend` trait),
//! sweep worker counts and engines in parallel, and estimate FPGA resource
//! budgets. Run `picos` without arguments for usage.

mod args;

use args::{usage, Args};
use picos_backend::{
    feed_range, pace, BackendSpec, ExecBackend, SessionConfig, SimSession, Sweep, Workload,
};
use picos_cluster::{FaultPlan, ShardPolicy};
use picos_core::{DmDesign, PicosConfig, Stats, TsPolicy};
use picos_hil::LinkModel;
use picos_metrics::{span, MetricSet, Timeline};
use picos_resources::{full_picos_resources, XC7Z020};
use picos_runtime::{replay_journal, JournaledSession};
use picos_trace::{gen, TaskGraph, TaskId, Trace};
use std::sync::Arc;

fn main() {
    let argv = std::env::args().skip(1);
    match Args::parse(argv).and_then(|a| dispatch(&a)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(a: &Args) -> Result<(), String> {
    // `picos <command> --help` prints usage without running the command
    // (notably: `picos serve --help` must not bind a socket).
    if a.options.contains_key("help") {
        println!("{}", usage());
        return Ok(());
    }
    a.check_options()?;
    match a.command.as_str() {
        "gen" => cmd_gen(a),
        "stats" => cmd_stats(a),
        "run" => cmd_run(a),
        "sweep" => cmd_sweep(a),
        "whatif" => cmd_whatif(a),
        "serve" => cmd_serve(a),
        "resources" => cmd_resources(a),
        "apps" => {
            for app in gen::App::ALL {
                println!("{app}  (block sizes: {:?})", app.paper_block_sizes());
            }
            println!("case1..case7  (synthetic testcases)");
            println!("stream  (open-loop arrival; --block sets the inter-arrival gap)");
            Ok(())
        }
        "engines" => {
            for spec in BackendSpec::ALL {
                println!("{spec}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn generate(name: &str, block: u64) -> Result<Trace, String> {
    if let Some(app) = gen::App::ALL.into_iter().find(|x| x.name() == name) {
        app.check_block(block)?;
        return Ok(app.generate(block));
    }
    if let Some(case) = gen::Case::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(name))
    {
        return Ok(gen::synthetic(case));
    }
    if name == "stream" {
        // --block doubles as the mean inter-arrival gap for the open-loop
        // stream workload (its granularity knob).
        return Ok(gen::stream(gen::StreamConfig {
            interarrival: block,
            ..gen::StreamConfig::default()
        }));
    }
    Err(format!("unknown app {name}; try `picos apps`"))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Trace::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// A workload argument is either a trace file (`*.json`) or a generator
/// name with an optional `--block`.
fn load_workload(a: &Args, arg: &str) -> Result<Trace, String> {
    if arg.ends_with(".json") || std::path::Path::new(arg).exists() {
        load_trace(arg)
    } else {
        generate(arg, a.opt("block", 64u64)?)
    }
}

fn cmd_gen(a: &Args) -> Result<(), String> {
    let app = a.pos(0, "app")?;
    let block = a.opt("block", 64u64)?;
    let trace = generate(app, block)?;
    let out = a
        .options
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{app}-{block}.json"));
    std::fs::write(&out, trace.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}: {} tasks", trace.len());
    Ok(())
}

fn cmd_stats(a: &Args) -> Result<(), String> {
    let trace = load_workload(a, a.pos(0, "trace")?)?;
    let s = trace.stats();
    let graph = picos_trace::TaskGraph::build(&trace);
    let p = graph.parallelism();
    println!("name:            {}", s.name);
    println!("tasks:           {}", s.num_tasks);
    println!("deps/task:       {}", s.dep_range());
    println!("avg task size:   {:.3e} cycles", s.avg_task_size);
    println!("sequential:      {:.3e} cycles", s.sequential_time as f64);
    println!("edges:           {}", graph.num_edges());
    println!("critical path:   {:.3e} cycles", p.critical_path as f64);
    println!("avg parallelism: {:.1}", p.avg_parallelism);
    println!("max width:       {}", p.max_width);
    println!("taskwaits:       {}", trace.barriers().len());
    Ok(())
}

fn picos_config(a: &Args) -> Result<PicosConfig, String> {
    let dm = parse_dm(a.opt("dm", "p8way".to_string())?.as_str())?;
    let instances = a.opt("instances", 1usize)?;
    let ts = parse_ts(a.opt("ts", "fifo".to_string())?.as_str())?;
    Ok(PicosConfig::future(instances, dm).with_ts_policy(ts))
}

fn parse_dm(s: &str) -> Result<DmDesign, String> {
    match s {
        "8way" => Ok(DmDesign::EightWay),
        "16way" => Ok(DmDesign::SixteenWay),
        "p8way" => Ok(DmDesign::PearsonEightWay),
        other => Err(format!("unknown DM design {other}")),
    }
}

/// The CLI-facing name of a DM design (inverse of [`parse_dm`]).
fn dm_name(d: DmDesign) -> &'static str {
    match d {
        DmDesign::EightWay => "8way",
        DmDesign::SixteenWay => "16way",
        DmDesign::PearsonEightWay => "p8way",
    }
}

fn parse_ts(s: &str) -> Result<TsPolicy, String> {
    match s {
        "fifo" => Ok(TsPolicy::Fifo),
        "lifo" => Ok(TsPolicy::Lifo),
        other => Err(format!("unknown TS policy {other}")),
    }
}

/// Parses a comma-separated engine list (`all` expands to every backend);
/// `--shards` applies to each cluster entry.
fn parse_engines(s: &str, shards: usize) -> Result<Vec<BackendSpec>, String> {
    let specs: Vec<BackendSpec> = if s == "all" {
        BackendSpec::ALL.to_vec()
    } else {
        s.split(',')
            .map(|e| {
                BackendSpec::parse(e.trim())
                    .ok_or_else(|| format!("unknown engine {e}\n{}", usage()))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(specs
        .into_iter()
        .map(|spec| match spec {
            BackendSpec::Cluster(_) => BackendSpec::Cluster(shards),
            other => other,
        })
        .collect())
}

/// The engine name of a run/sweep invocation (`--backend` is an alias for
/// `--engine`, matching the cluster documentation).
fn engine_name(a: &Args) -> Result<String, String> {
    match a.options.get("backend") {
        Some(b) => Ok(b.clone()),
        None => a.opt("engine", "full".to_string()),
    }
}

/// Interconnect model for cluster runs, with per-knob overrides.
fn link_model(a: &Args) -> Result<LinkModel, String> {
    let d = LinkModel::interconnect();
    Ok(LinkModel {
        occupancy: a.opt("link-occupancy", d.occupancy)?,
        latency: a.opt("link-latency", d.latency)?,
        setup: d.setup,
        width: a.opt("link-width", d.width)?,
    })
}

/// The deterministic fault plan of a `run` invocation, when any fault
/// option is present (`--fault-seed`, `--drop-rate`, `--link-timeout`).
fn fault_plan(a: &Args) -> Result<Option<FaultPlan>, String> {
    let keys = ["fault-seed", "drop-rate", "link-timeout"];
    if !keys.iter().any(|k| a.options.contains_key(*k)) {
        return Ok(None);
    }
    let mut plan =
        FaultPlan::new(a.opt("fault-seed", 0u64)?).with_drop_rate(a.opt("drop-rate", 0.0f64)?);
    if let Some(t) = opt_u64(a, "link-timeout")? {
        plan = plan.with_link_timeout(t);
    }
    Ok(Some(plan))
}

/// Builds the backend of a `run` invocation through the one
/// [`BackendSpec::builder`] path (cluster knobs apply only to cluster
/// specs; the builder ignores them elsewhere).
fn build_backend(a: &Args) -> Result<Box<dyn ExecBackend>, String> {
    let engine = engine_name(a)?;
    let workers = a.opt("workers", 12usize)?;
    let shards = a.opt("shards", 1usize)?;
    let spec = BackendSpec::parse(&engine)
        .ok_or_else(|| format!("unknown engine {engine}\n{}", usage()))?;
    if shards > 1 && !matches!(spec, BackendSpec::Cluster(_)) {
        return Err("--shards only applies to the cluster backend".into());
    }
    let faults = fault_plan(a)?;
    if faults.is_some() && !matches!(spec, BackendSpec::Cluster(_)) {
        return Err("--fault-seed/--drop-rate/--link-timeout only apply to the \
                    cluster backend (other engines have no interconnect)"
            .into());
    }
    let spec = match spec {
        BackendSpec::Cluster(_) => BackendSpec::Cluster(shards),
        other => other,
    };
    let policy = match a.options.get("policy") {
        Some(p) => {
            Some(ShardPolicy::parse(p).ok_or_else(|| format!("unknown placement policy {p}"))?)
        }
        None => None,
    };
    Ok(spec
        .builder(workers)
        .picos(&picos_config(a)?)
        .link(Some(link_model(a)?))
        .policy(policy)
        .faults(faults)
        .build())
}

/// The `--timeline` sampling window: an explicit cycle count wins;
/// `auto` derives a power-of-two window from the workload's size
/// (sequential time spread over the workers, targeting ~256 samples).
fn timeline_window(a: &Args, trace: &Trace, workers: usize) -> Result<Option<u64>, String> {
    match a.options.get("timeline").map(String::as_str) {
        None => Ok(None),
        Some("auto") => {
            let estimate = trace.sequential_time() / workers.max(1) as u64;
            Ok(Some(span::auto_window(estimate, 256)))
        }
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("invalid value for --timeline: {v} (cycles or `auto`)")),
    }
}

/// An optional `--key <u64>` option.
fn opt_u64(a: &Args, key: &str) -> Result<Option<u64>, String> {
    match a.options.get(key) {
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("invalid value for --{key}: {v}")),
        None => Ok(None),
    }
}

/// Writes the telemetry of a run to the `--metrics-json` / `--metrics-csv`
/// paths, prints a one-line timeline summary, and rejects emit options
/// without an attached timeline.
fn emit_metrics(
    a: &Args,
    engine: &str,
    workers: usize,
    makespan: u64,
    metrics: &MetricSet,
    timeline: Option<&Timeline>,
) -> Result<(), String> {
    let json_path = a.options.get("metrics-json");
    let csv_path = a.options.get("metrics-csv");
    if timeline.is_none() && (json_path.is_some() || csv_path.is_some()) {
        return Err("--metrics-json/--metrics-csv need --timeline <window-cycles>".into());
    }
    let Some(tl) = timeline else { return Ok(()) };
    println!(
        "timeline: {} windows of {} cycles, {} series",
        tl.len(),
        tl.window(),
        tl.series().len()
    );
    if let Some(path) = json_path {
        let json = format!(
            "{{\"engine\":\"{engine}\",\"workers\":{workers},\"makespan\":{makespan},\
             \"metrics\":{},\"timeline\":{}}}\n",
            metrics.to_json(),
            tl.to_json()
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = csv_path {
        std::fs::write(path, tl.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Prints the fault-protocol counters of a run with an active fault plan
/// (a fault-free run registers no `faults.*` metrics and prints nothing).
fn note_faults(metrics: &MetricSet) {
    if let Some(drops) = metrics.value("faults.drops") {
        eprintln!(
            "faults: {} drops, {} retries, {} redeliveries, {} recoveries",
            drops,
            metrics.value("faults.retries").unwrap_or(0),
            metrics.value("faults.redeliveries").unwrap_or(0),
            metrics.value("faults.recoveries").unwrap_or(0)
        );
    }
}

/// Prints the hardware-counter note shared by the batch and paced run
/// modes.
fn note_stats(stats: &Option<Stats>) {
    if let Some(stats) = stats {
        if stats.dm_conflicts > 0 || stats.vm_stalls > 0 {
            eprintln!(
                "note: {} DM conflicts, {} VM stalls",
                stats.dm_conflicts, stats.vm_stalls
            );
        }
    }
}

/// Handles `--critical-path` / `--trace-out` for a finished run's span
/// log — shared by the batch and paced run modes.
fn emit_spans(
    a: &Args,
    trace: &Trace,
    spans: Option<&mut span::SpanLog>,
    makespan: u64,
) -> Result<(), String> {
    let Some(log) = spans else { return Ok(()) };
    // Sessions return spans in recording order; sort here so the
    // exported trace does not depend on which drive recorded it.
    log.canonical_sort();
    let g = TaskGraph::build(trace);
    if a.options.contains_key("critical-path") {
        let cp = span::critical_path(log, |t| g.preds(TaskId::new(t)).to_vec(), makespan)
            .ok_or("critical path: the span log records no finished task")?;
        print!("{}", cp.table());
    }
    if let Some(path) = a.options.get("trace-out") {
        let mut edges = Vec::with_capacity(g.num_edges());
        for t in 0..trace.len() as u32 {
            for &s in g.succs(TaskId::new(t)) {
                edges.push((t, s));
            }
        }
        std::fs::write(path, span::to_perfetto_json(log, &edges))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}: {} span events", log.len());
    }
    Ok(())
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let trace = load_workload(a, a.pos(0, "trace")?)?;
    let backend = build_backend(a)?;
    if a.options.contains_key("paced") {
        return cmd_run_paced(a, &trace, &*backend);
    }
    if a.options.contains_key("window") {
        return Err("--window only applies to paced runs (add --paced <interarrival>)".into());
    }
    let trace_out = a.options.get("trace-out");
    let want_cp = a.options.contains_key("critical-path");
    let cfg = SessionConfig {
        timeline_window: timeline_window(a, &trace, backend.workers())?,
        trace_spans: trace_out.is_some() || want_cp,
        ..SessionConfig::batch()
    };
    let mut out = backend
        .run_with_telemetry(&trace, cfg)
        .map_err(|e| e.to_string())?;
    note_stats(&out.stats);
    note_faults(&out.metrics);
    out.report.validate(&trace)?;
    println!(
        "{}: makespan {} cycles, speedup {:.2} with {} workers",
        out.report.engine,
        out.report.makespan,
        out.report.speedup(),
        backend.workers()
    );
    emit_spans(a, &trace, out.spans.as_mut(), out.report.makespan)?;
    emit_metrics(
        a,
        &out.report.engine,
        backend.workers(),
        out.report.makespan,
        &out.metrics,
        out.timeline.as_ref(),
    )
}

/// `picos run <workload> --paced <interarrival> [--window <n>]`: feed the
/// workload into a streaming session at an open-loop rate of one task per
/// `interarrival` cycles, with an optional in-flight admission window.
fn cmd_run_paced(a: &Args, trace: &Trace, backend: &dyn ExecBackend) -> Result<(), String> {
    let interarrival = a.opt("paced", 100u64)?;
    let window = match a.options.get("window") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("invalid value for --window: {v}"))?,
        ),
        None => None,
    };
    let source = pace::PacedTrace::new(trace, interarrival);
    let cfg = SessionConfig {
        window,
        timeline_window: timeline_window(a, trace, backend.workers())?,
        trace_spans: a.options.contains_key("trace-out") || a.options.contains_key("critical-path"),
    };
    let mut r = pace::run_paced_full(backend, source, cfg).map_err(|e| e.to_string())?;
    note_stats(&r.stats);
    note_faults(&r.metrics);
    r.report.validate(trace)?;
    println!(
        "{}: paced {} tasks @ 1/{} cycles{}: makespan {} cycles",
        r.report.engine,
        r.tasks,
        interarrival,
        window.map_or(String::new(), |w| format!(", window {w}")),
        r.report.makespan,
    );
    println!(
        "offered {:.3} tasks/kcycle, achieved {:.3} tasks/kcycle",
        r.offered_per_kcycle(),
        r.achieved_per_kcycle()
    );
    println!(
        "backpressure: {:.1}% of tasks ({} retries)",
        r.backpressure_ratio() * 100.0,
        r.retries
    );
    emit_spans(a, trace, r.spans.as_mut(), r.report.makespan)?;
    emit_metrics(
        a,
        &r.report.engine,
        r.report.workers,
        r.report.makespan,
        &r.metrics,
        r.timeline.as_ref(),
    )
}

fn cmd_sweep(a: &Args) -> Result<(), String> {
    let arg = a.pos(0, "trace")?;
    let trace = Arc::new(load_workload(a, arg)?);
    let label = trace.name.clone();
    let shards = a.opt("shards", 1usize)?;
    let engines = parse_engines(&engine_name(a)?, shards)?;
    let dm = parse_dm(a.opt("dm", "p8way".to_string())?.as_str())?;
    let ts = parse_ts(a.opt("ts", "fifo".to_string())?.as_str())?;
    let instances = a.opt("instances", 1usize)?;
    let mut sweep = Sweep::new([Workload::from_trace(label, trace)])
        .workers([2usize, 4, 8, 12, 16, 20, 24])
        .backends(engines)
        .dm_designs([dm])
        .instances([instances])
        .ts_policy(ts)
        .interconnect(link_model(a)?)
        // Cluster cells need one worker per shard; prune the infeasible
        // low end of the worker grid instead of reporting error rows.
        .filter(|c| c.workers >= c.shards);
    if let Some(threads) = a.options.get("threads") {
        sweep = sweep.threads(threads.parse().map_err(|_| "invalid --threads")?);
    }
    if let Some(w) = opt_u64(a, "timeline")? {
        sweep = sweep.timeline(w);
    }
    if a.options.contains_key("critical-path") {
        sweep = sweep.critical_path();
    }
    let result = sweep.run();
    println!("engine          workers  speedup  makespan");
    for row in result.rows() {
        match &row.error {
            None => println!(
                "{:<14}  {:>7}  {:>7.2}  {:>9}",
                row.backend, row.workers, row.speedup, row.makespan
            ),
            Some(e) => println!("{:<14}  {:>7}  failed: {e}", row.backend, row.workers),
        }
    }
    if let Some(out) = a.options.get("out") {
        std::fs::write(out, result.to_csv()).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
        if result.rows().iter().any(|r| r.timeline.is_some()) {
            let tl_out = format!("{}.timeline.csv", out.trim_end_matches(".csv"));
            std::fs::write(&tl_out, result.timelines_csv())
                .map_err(|e| format!("writing {tl_out}: {e}"))?;
            eprintln!("wrote {tl_out}");
        }
    }
    match result.first_error() {
        None => Ok(()),
        Some(e) => Err(format!("sweep had failing cells: {e}")),
    }
}

/// One what-if candidate: a label and the backend that realizes it.
struct WhatIfCandidate {
    label: String,
    backend: Box<dyn ExecBackend>,
}

/// `picos whatif <workload> --axis dm|shards`: config search on a *live*
/// session. The workload's first `--prefix` fraction is fed into a
/// journaled session (the recorded arrival prefix); the live session is
/// then forked in memory for the baseline while one fresh replica per
/// candidate config replays the recorded prefix; every replica receives
/// the remaining suffix and the projected makespans are ranked. The live
/// session itself is never consumed — a server could keep feeding it.
fn cmd_whatif(a: &Args) -> Result<(), String> {
    let trace = load_workload(a, a.pos(0, "trace")?)?;
    if trace.is_empty() {
        return Err("what-if needs a non-empty workload".into());
    }
    let workers = a.opt("workers", 12usize)?;
    let frac = a.opt("prefix", 0.5f64)?;
    if !(0.0..=1.0).contains(&frac) {
        return Err(format!("--prefix must be in 0..=1, got {frac}"));
    }
    let cut = ((trace.len() as f64 * frac) as usize).min(trace.len());
    let axis = a.opt("axis", "dm".to_string())?;
    let base_cfg = picos_config(a)?;
    let link = link_model(a)?;

    // The live config plus the candidate axis, every cell through the
    // same builder path as `picos run`.
    let build = |spec: BackendSpec, cfg: &PicosConfig| {
        spec.builder(workers).picos(cfg).link(Some(link)).build()
    };
    let (live_label, live_backend, candidates) = match axis.as_str() {
        "dm" => {
            let engine = engine_name(a)?;
            let spec = BackendSpec::parse(&engine)
                .ok_or_else(|| format!("unknown engine {engine}\n{}", usage()))?;
            let candidates: Vec<WhatIfCandidate> = DmDesign::ALL
                .into_iter()
                .filter(|d| *d != base_cfg.dm_design)
                .map(|d| {
                    let cfg = PicosConfig {
                        dm_design: d,
                        ..base_cfg.clone()
                    };
                    WhatIfCandidate {
                        label: format!("dm={}", dm_name(d)),
                        backend: build(spec, &cfg),
                    }
                })
                .collect();
            (
                format!("dm={}", dm_name(base_cfg.dm_design)),
                build(spec, &base_cfg),
                candidates,
            )
        }
        "shards" => {
            let base = a.opt("shards", 2usize)?;
            let candidates: Vec<WhatIfCandidate> = [1usize, 2, 4, 8]
                .into_iter()
                .filter(|s| *s != base && *s <= workers)
                .map(|s| WhatIfCandidate {
                    label: format!("shards={s}"),
                    backend: build(BackendSpec::Cluster(s), &base_cfg),
                })
                .collect();
            (
                format!("shards={base}"),
                build(BackendSpec::Cluster(base), &base_cfg),
                candidates,
            )
        }
        other => return Err(format!("unknown what-if axis {other} (want dm or shards)")),
    };

    // The live session: journaled, so replicas can replay its arrivals.
    let session = live_backend
        .open_with(SessionConfig::batch())
        .map_err(|e| e.to_string())?;
    let mut live = JournaledSession::new(session);
    feed_range(&mut live, &trace, 0..cut).map_err(|e| e.to_string())?;
    println!(
        "what-if on {}: {} of {} tasks recorded into the live session ({live_label})",
        trace.name,
        cut,
        trace.len()
    );

    // Baseline: fork the live session in memory and run it to the end.
    let mut rows: Vec<(String, u64, f64)> = Vec::new();
    let mut finish = |label: String, mut s: Box<dyn SimSession>| -> Result<(), String> {
        feed_range(&mut *s, &trace, cut..trace.len()).map_err(|e| format!("{label}: {e}"))?;
        let out = s.finish_full().map_err(|e| format!("{label}: {e}"))?;
        rows.push((label, out.report.makespan, out.report.speedup()));
        Ok(())
    };
    finish(format!("{live_label} (live)"), live.inner().fork_boxed())?;

    // Each candidate replays the recorded prefix into a fresh replica.
    for c in candidates {
        let mut s = c
            .backend
            .open_with(SessionConfig::batch())
            .map_err(|e| e.to_string())?;
        replay_journal(&mut *s, live.journal()).map_err(|e| format!("{}: {e}", c.label))?;
        finish(c.label, s)?;
    }

    let live_makespan = rows[0].1;
    println!("config                 makespan   speedup   vs live");
    for (label, makespan, speedup) in &rows {
        let delta = if *makespan == live_makespan {
            "      —".to_string()
        } else {
            format!(
                "{:>+6.1}%",
                (*makespan as f64 / live_makespan as f64 - 1.0) * 100.0
            )
        };
        println!("{label:<20}  {makespan:>9}  {speedup:>8.2}  {delta}");
    }
    let (best_label, best_makespan, _) = rows
        .iter()
        .min_by_key(|(_, m, _)| *m)
        .expect("at least the baseline row");
    if *best_makespan < live_makespan {
        println!(
            "best: {best_label} — {:.1}% faster than the live config",
            (1.0 - *best_makespan as f64 / live_makespan as f64) * 100.0
        );
    } else {
        println!("best: the live config already wins");
    }
    Ok(())
}

/// `picos serve --addr <host:port>`: run the multi-tenant session service
/// in the foreground until a `shutdown` protocol request arrives, then
/// shut down gracefully (close listener, finish in-flight steps, flush
/// journals).
fn cmd_serve(a: &Args) -> Result<(), String> {
    let d = picos_serve::ServeConfig::default();
    let cfg = picos_serve::ServeConfig {
        default_quota: a.opt("quota", d.default_quota)?,
        step_budget: a.opt("step-budget", d.step_budget)?,
        max_tenants: a.opt("max-tenants", d.max_tenants)?,
        scrape_window: a.opt("scrape-window", d.scrape_window)?,
        journal_dir: a.options.get("journal-dir").map(std::path::PathBuf::from),
        checkpoint_every: match a.options.get("checkpoint-every") {
            Some(v) => Some(v.parse().map_err(|e| format!("--checkpoint-every: {e}"))?),
            None => None,
        },
    };
    let addr = a.opt("addr", "127.0.0.1:9119".to_string())?;
    let listener =
        std::net::TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Announce the resolved address (port 0 binds an ephemeral port) so
    // drivers can connect; flush in case stdout is a pipe.
    println!("picos-serve listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stop = std::sync::atomic::AtomicBool::new(false);
    picos_serve::serve_on(cfg, listener, &stop).map_err(|e| e.to_string())
}

fn cmd_resources(a: &Args) -> Result<(), String> {
    let cfg = picos_config(a)?;
    let est = full_picos_resources(&cfg);
    let (lut, ff, bram) = est.percent_of(XC7Z020);
    println!(
        "full Picos ({}, {} TRS + {} DCT) on XC7Z020:",
        cfg.dm_design, cfg.num_trs, cfg.num_dct
    );
    println!("  LUTs:   {:>6}  ({lut:.1}%)", est.luts);
    println!("  FFs:    {:>6}  ({ff:.1}%)", est.ffs);
    println!("  BRAM36: {:>6}  ({bram:.1}%)", est.bram36);
    Ok(())
}
