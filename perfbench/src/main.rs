//! The repository benchmark. One command runs a workload by name with a
//! seed, checks its outputs and prints every metric `BENCHMARK.json`
//! lists, each with its unit, as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off. With `--trace 1` it measures the workload untraced and
//! traced (the difference is the tracing overhead), then replays the same
//! inputs down the per-layer ladder, prints the per-layer metrics, and
//! writes `.perfbench/<workload>-seed<N>.json` with every span total.
//! Run it from the repository root.

mod golden;
mod ladder;
mod measure;
mod paper_sweep;
mod serve_wire;
mod stream_cluster;

use measure::{nproc, Metrics, Outcome, Tracer};
use picos_trace::{json_escape, parse_json, Value};
use std::fmt::Write as _;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["paper-sweep", "stream-cluster", "serve-wire"];
const SPEC_FILE: &str = "BENCHMARK.json";
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where the run executes: the machine's CPU count and the CPU the run is
/// pinned to.
#[derive(Debug, Clone, Copy)]
struct Host {
    nproc: usize,
    cpu: Option<usize>,
}

/// The metric names and units `BENCHMARK.json` promises.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string(SPEC_FILE).map_err(|e| format!("{SPEC_FILE}: {e}"))?;
    let v = parse_json(&text).map_err(|e| format!("{SPEC_FILE}: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let items = v
            .as_obj()
            .and_then(|o| o.get(key))
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{SPEC_FILE}: no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.as_obj()
                        .and_then(|o| o.get(f))
                        .and_then(Value::as_string)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{SPEC_FILE}: a {key} entry lacks {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

fn run_workload(args: &Args, budget: Duration, tracer: &mut Tracer) -> Outcome {
    match args.workload {
        "paper-sweep" => paper_sweep::run(budget, tracer),
        "stream-cluster" => stream_cluster::run(args.seed, budget, tracer),
        _ => serve_wire::run(args.seed, budget, tracer),
    }
}

/// The traced run: untraced, then traced end to end (their difference is
/// the tracing overhead), then the per-layer ladder on the same inputs.
fn traced(args: &Args, spec: &Spec, host: Host) -> Result<Outcome, String> {
    let total = Duration::from_secs(args.seconds);
    let mut off = Tracer::new(false);
    let untraced = run_workload(args, total / 4, &mut off);
    let mut tracer = Tracer::new(true);
    let traced = run_workload(args, total / 4, &mut tracer);
    let ladder = match args.workload {
        "paper-sweep" => paper_sweep::ladder(total / 2, &mut tracer),
        "stream-cluster" => stream_cluster::ladder(args.seed, total / 2, &mut tracer),
        _ => {
            let wire_p50 = untraced.metrics.get("op_p50_us").map_or(0.0, |(v, _)| v);
            serve_wire::ladder(args.seed, total / 2, wire_p50, &mut tracer)
        }
    };
    let mut out = Outcome::default();
    // Per-layer values the end-to-end pass measured along the way (set-up
    // parts, wire percentiles) come from the untraced pass.
    out.metrics.extend(untraced.metrics.clone());
    out.metrics.extend(ladder.metrics.clone());
    for (name, _) in &spec.end_to_end {
        let (off, unit) = untraced.metrics.get(name).unwrap_or((f64::NAN, ""));
        let on = traced.metrics.get(name).map_or(f64::NAN, |(v, _)| v);
        out.metrics
            .put(format!("tracing.overhead.{name}"), on - off, unit);
    }
    for o in [&untraced, &traced, &ladder] {
        out.ops.add(o.ops);
        out.problems.extend(o.problems.iter().cloned());
    }
    write_trace_file(args, spec, host, &out.metrics, &tracer)?;
    Ok(out)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the traced run's file: the per-layer metrics, span counts and
/// totals per layer, `nproc` and the seed, and the raw spans kept.
fn write_trace_file(
    args: &Args,
    spec: &Spec,
    host: Host,
    metrics: &Metrics,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"pinned_cpu\":{},\"metrics\":{{",
        args.workload,
        args.seed,
        args.seconds,
        host.nproc,
        host.cpu.map_or(-1, |c| c as i64)
    );
    for (i, (name, unit)) in spec.per_layer.iter().enumerate() {
        let v = metrics.get(name).map_or(0.0, |(v, _)| v);
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            json_escape(name),
            number(v),
            json_escape(unit)
        );
    }
    s.push_str("},\"span_count\":{");
    for (i, (layer, n)) in tracer.count_by_layer().iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{n}",
            if i > 0 { "," } else { "" },
            layer.name()
        );
    }
    s.push_str("},\"span_totals\":[");
    for (i, t) in tracer.totals().iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"layer\":\"{}\",\"op\":\"{}\",\"count\":{},\"total_ns\":{}}}",
            if i > 0 { "," } else { "" },
            t.layer.name(),
            t.op,
            t.count,
            t.total_ns
        );
    }
    let _ = write!(s, "],\"spans_dropped\":{},\"spans\":[", tracer.dropped());
    for (i, sp) in tracer.spans().iter().enumerate() {
        let _ = write!(
            s,
            "{}[\"{}\",\"{}\",{},{},{}]",
            if i > 0 { "," } else { "" },
            sp.layer.name(),
            sp.op,
            sp.start_ns,
            sp.dur_ns,
            sp.parent.map_or(-1, i64::from)
        );
    }
    s.push_str("]}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, s).map_err(|e| format!("{path}: {e}"))
}

/// The result line: every metric of `wanted`, in its order and unit.
fn result_line(
    out: &Outcome,
    wanted: &[(String, String)],
    exercised_only: bool,
) -> Result<String, String> {
    let mut s = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some((v, u)) if u == unit => v,
            Some((_, u)) => return Err(format!("{name} measured in {u}, listed in {unit}")),
            // A layer this workload bypasses reads 0.
            None if exercised_only => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            json_escape(name),
            json_escape(unit)
        );
    }
    let correct = out.ops.failed == 0 && out.problems.is_empty();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{s}}}}}",
        out.ops.attempted, out.ops.failed
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host {
        nproc: nproc(),
        cpu: measure::pin_to_one_cpu(),
    };
    let result = if args.trace {
        traced(&args, &spec, host)
            .and_then(|out| Ok((result_line(&out, &spec.per_layer, true)?, out)))
    } else {
        let out = run_workload(
            &args,
            Duration::from_secs(args.seconds),
            &mut Tracer::new(false),
        );
        result_line(&out, &spec.end_to_end, false).map(|line| (line, out))
    };
    match result {
        Ok((line, out)) => {
            eprintln!(
                "perfbench: {} seed {} on cpu {:?} of {}",
                args.workload, args.seed, host.cpu, host.nproc
            );
            for p in &out.problems {
                eprintln!("perfbench: {}: {p}", args.workload);
            }
            for (name, value, unit) in out.metrics.iter() {
                eprintln!("  {name:<40} {value:>16.3} {unit}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-wire --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-wire", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload paper-sweep --seconds 1").is_err());
        assert!(args("--workload paper-sweep --seed 1 --seconds 0").is_err());
        assert!(args("--workload paper-sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper-sweep --seed").is_err());
    }

    #[test]
    fn result_line_reports_failures_and_units() {
        let mut out = Outcome::default();
        out.metrics.put("tasks_per_s", 12.5, "1/s");
        out.ops.attempted = 3;
        out.ops.failed = 1;
        let wanted = vec![("tasks_per_s".to_string(), "1/s".to_string())];
        let line = result_line(&out, &wanted, false).unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{\"tasks_per_s\":{\"value\":12.5,\"unit\":\"1/s\"}}}"
        );
        let missing = vec![("setup_s".to_string(), "s".to_string())];
        assert!(result_line(&out, &missing, false).is_err());
        assert!(result_line(&out, &missing, true).is_ok());
    }
}
