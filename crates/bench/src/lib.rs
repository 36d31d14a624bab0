//! Experiment harness for the Picos reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library provides the shared
//! pieces: an aligned table printer with CSV export, the results
//! directory, and one-call runners that drive every execution engine
//! through the uniform [`picos_backend::ExecBackend`] trait. Grid-shaped
//! experiments (Figures 1, 8, 11; Table II) use the parallel
//! [`picos_backend::Sweep`] harness instead of hand-rolled loops.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use picos_backend::{BackendSpec, SweepResult};
use picos_core::{PicosConfig, TsPolicy};
use picos_hil::HilMode;
use picos_runtime::ExecReport;
use picos_trace::Trace;
use std::path::PathBuf;

/// A printable experiment table that can also be saved as text + CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and writes `<name>.txt` / `<name>.csv`
    /// into the results directory.
    pub fn emit(&self, name: &str) {
        let rendered = self.render();
        println!("{rendered}");
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{name}.txt")), &rendered);
            let _ = std::fs::write(dir.join(format!("{name}.csv")), self.to_csv());
        }
    }
}

/// The workspace `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a speedup/throughput value with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a speedup value with one decimal (the paper's granularity).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Runs a trace through any backend family and returns the report.
///
/// # Panics
///
/// Panics if the engine stalls — experiments treat that as a fatal bug.
pub fn backend_report(
    trace: &Trace,
    spec: BackendSpec,
    workers: usize,
    picos: &PicosConfig,
) -> ExecReport {
    spec.build(workers, picos)
        .run(trace)
        .unwrap_or_else(|e| panic!("{spec} run must complete: {e}"))
}

/// Runs the trace through the Picos HIL platform and returns the report.
///
/// # Panics
///
/// Panics if the platform stalls — experiments treat that as a fatal bug.
pub fn picos_report(
    trace: &Trace,
    workers: usize,
    picos: PicosConfig,
    mode: HilMode,
) -> ExecReport {
    backend_report(trace, BackendSpec::Picos(mode), workers, &picos)
}

/// Picos speedup for a trace, worker count, config and mode.
pub fn picos_speedup(trace: &Trace, workers: usize, picos: PicosConfig, mode: HilMode) -> f64 {
    picos_report(trace, workers, picos, mode).speedup()
}

/// Picos speedup with an explicit TS policy (Figure 9).
pub fn picos_speedup_policy(
    trace: &Trace,
    workers: usize,
    picos: PicosConfig,
    mode: HilMode,
    policy: TsPolicy,
) -> f64 {
    picos_speedup(trace, workers, picos.with_ts_policy(policy), mode)
}

/// Nanos++ software-runtime speedup.
///
/// # Panics
///
/// Panics if the software runtime stalls.
pub fn nanos_speedup(trace: &Trace, workers: usize) -> f64 {
    backend_report(trace, BackendSpec::Nanos, workers, &PicosConfig::balanced()).speedup()
}

/// Perfect-scheduler (roofline) speedup.
pub fn perfect_speedup(trace: &Trace, workers: usize) -> f64 {
    backend_report(
        trace,
        BackendSpec::Perfect,
        workers,
        &PicosConfig::balanced(),
    )
    .speedup()
}

/// Writes a sweep's raw results as `<name>_raw.csv` / `<name>_raw.json`
/// into the results directory (the pivoted paper table is emitted
/// separately via [`Table::emit`]).
pub fn emit_sweep(result: &SweepResult, name: &str) {
    if let Err(e) = result.write_files(&results_dir(), &format!("{name}_raw")) {
        eprintln!("warning: could not write raw sweep results for {name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["10".into(), "200".into()]);
        let r = t.render();
        assert!(r.contains("# demo"));
        assert!(r.contains(" a   bb"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bb\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn runners_produce_consistent_speedups() {
        let tr = picos_trace::gen::cholesky(picos_trace::gen::CholeskyConfig::paper(256));
        let p = perfect_speedup(&tr, 4);
        let n = nanos_speedup(&tr, 4);
        let h = picos_speedup(&tr, 4, PicosConfig::balanced(), HilMode::FullSystem);
        assert!(
            p >= n && p >= h,
            "perfect {p} must dominate nanos {n} / picos {h}"
        );
    }
}
