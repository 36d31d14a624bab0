//! Golden simulated results of the `paper-sweep` grid. The simulator is
//! deterministic and the paper traces are fixed, so a host-only change
//! must reproduce every value exactly; a row that differs counts as a
//! failed operation.

use picos_backend::SweepRow;
use picos_core::{DmDesign, Stats};

/// The simulated outcome of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    pub workload: &'static str,
    pub backend: &'static str,
    pub dm: &'static str,
    pub workers: usize,
    pub makespan: u64,
    pub dm_conflicts: u64,
    pub vm_stalls: u64,
    pub tm_stalls: u64,
}

/// Short metric-safe name of a DM design.
pub fn dm_key(dm: DmDesign) -> &'static str {
    match dm {
        DmDesign::EightWay => "8way",
        DmDesign::SixteenWay => "16way",
        DmDesign::PearsonEightWay => "p8way",
    }
}

/// The observed counterpart of a [`Golden`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed<'a> {
    pub workload: &'a str,
    pub backend: &'a str,
    pub dm: &'static str,
    pub workers: usize,
    pub makespan: u64,
    /// `None` when the cell failed or reported no hardware counters.
    pub counters: Option<(u64, u64, u64)>,
}

impl<'a> Observed<'a> {
    pub fn from_row(row: &'a SweepRow) -> Self {
        let counters = match (
            row.error.is_none(),
            row.dm_conflicts,
            row.vm_stalls,
            row.tm_stalls,
        ) {
            (true, Some(d), Some(v), Some(t)) => Some((d, v, t)),
            _ => None,
        };
        Observed {
            workload: &row.workload,
            backend: row.backend.label(),
            dm: dm_key(row.dm),
            workers: row.workers,
            makespan: row.makespan,
            counters,
        }
    }

    pub fn from_stats(
        workload: &'a str,
        backend: &'a str,
        dm: DmDesign,
        workers: usize,
        makespan: u64,
        stats: Option<&Stats>,
    ) -> Self {
        Observed {
            workload,
            backend,
            dm: dm_key(dm),
            workers,
            makespan,
            counters: stats.map(|s| (s.dm_conflicts, s.vm_stalls, s.tm_stalls)),
        }
    }

    fn matches(&self, g: &Golden) -> bool {
        self.workload == g.workload
            && self.backend == g.backend
            && self.dm == g.dm
            && self.workers == g.workers
            && self.makespan == g.makespan
            && self.counters == Some((g.dm_conflicts, g.vm_stalls, g.tm_stalls))
    }
}

/// Rows that differ from the golden table, in order; a missing or extra
/// row counts once.
pub fn mismatches_of<'a>(
    observed: impl IntoIterator<Item = Observed<'a>>,
    golden: &[Golden],
) -> u64 {
    let mut seen = 0usize;
    let mut bad = 0u64;
    for (i, o) in observed.into_iter().enumerate() {
        seen += 1;
        if golden.get(i).is_none_or(|g| !o.matches(g)) {
            bad += 1;
        }
    }
    bad + golden.len().saturating_sub(seen) as u64
}

/// [`mismatches_of`] for the rows of one sweep pass.
pub fn mismatches(rows: &[SweepRow], golden: &[Golden]) -> u64 {
    mismatches_of(rows.iter().map(Observed::from_row), golden)
}

#[allow(clippy::too_many_arguments)] // one table row, in column order
const fn g(
    workload: &'static str,
    backend: &'static str,
    dm: &'static str,
    workers: usize,
    makespan: u64,
    dm_conflicts: u64,
    vm_stalls: u64,
    tm_stalls: u64,
) -> Golden {
    Golden {
        workload,
        backend,
        dm,
        workers,
        makespan,
        dm_conflicts,
        vm_stalls,
        tm_stalls,
    }
}

/// `paper-sweep` cells in grid order: workload × mode × DM × workers.
#[rustfmt::skip]
pub const GOLDEN: &[Golden] = &[
    g("sparselu", "picos-hw-only", "8way", 4, 247217658, 1009, 0, 1442),
    g("sparselu", "picos-hw-only", "8way", 12, 87299277, 890, 0, 2551),
    g("sparselu", "picos-hw-only", "16way", 4, 247706365, 791, 0, 1442),
    g("sparselu", "picos-hw-only", "16way", 12, 86913460, 527, 0, 984),
    g("sparselu", "picos-hw-only", "p8way", 4, 249770154, 16, 0, 1167),
    g("sparselu", "picos-hw-only", "p8way", 12, 90335703, 13, 0, 706),
    g("sparselu", "picos-hw-comm", "8way", 4, 247682533, 1413, 0, 2969),
    g("sparselu", "picos-hw-comm", "8way", 12, 87553844, 1407, 0, 2270),
    g("sparselu", "picos-hw-comm", "16way", 4, 248174645, 1003, 0, 2969),
    g("sparselu", "picos-hw-comm", "16way", 12, 87131754, 1001, 0, 2674),
    g("sparselu", "picos-hw-comm", "p8way", 4, 250268088, 16, 0, 2947),
    g("sparselu", "picos-hw-comm", "p8way", 12, 90626839, 16, 0, 2521),
    g("sparselu", "picos-full", "8way", 4, 248324427, 1413, 0, 2420),
    g("sparselu", "picos-full", "8way", 12, 88104474, 1409, 0, 1700),
    g("sparselu", "picos-full", "16way", 4, 248825997, 1004, 0, 2420),
    g("sparselu", "picos-full", "16way", 12, 87498910, 1006, 0, 2068),
    g("sparselu", "picos-full", "p8way", 4, 251046587, 16, 0, 2270),
    g("sparselu", "picos-full", "p8way", 12, 91194298, 16, 0, 1944),
    g("cholesky", "picos-hw-only", "8way", 4, 219789771, 2446, 0, 5019),
    g("cholesky", "picos-hw-only", "8way", 12, 74221494, 2336, 0, 5127),
    g("cholesky", "picos-hw-only", "16way", 4, 219843590, 1907, 0, 4547),
    g("cholesky", "picos-hw-only", "16way", 12, 74031696, 1512, 0, 3940),
    g("cholesky", "picos-hw-only", "p8way", 4, 220325925, 84, 0, 4374),
    g("cholesky", "picos-hw-only", "p8way", 12, 74834985, 81, 0, 2711),
    g("cholesky", "picos-hw-comm", "8way", 4, 220550788, 2925, 0, 5691),
    g("cholesky", "picos-hw-comm", "8way", 12, 74489311, 3001, 0, 5213),
    g("cholesky", "picos-hw-comm", "16way", 4, 220647650, 2286, 0, 5700),
    g("cholesky", "picos-hw-comm", "16way", 12, 74325005, 2287, 0, 5432),
    g("cholesky", "picos-hw-comm", "p8way", 4, 221130286, 85, 0, 5580),
    g("cholesky", "picos-hw-comm", "p8way", 12, 74936324, 85, 0, 5365),
    g("cholesky", "picos-full", "8way", 4, 221545420, 2924, 0, 5579),
    g("cholesky", "picos-full", "8way", 12, 75009017, 3002, 0, 4173),
    g("cholesky", "picos-full", "16way", 4, 221660541, 2279, 0, 5574),
    g("cholesky", "picos-full", "16way", 12, 74800782, 2283, 0, 4375),
    g("cholesky", "picos-full", "p8way", 4, 222229861, 85, 0, 5408),
    g("cholesky", "picos-full", "p8way", 12, 75465751, 83, 0, 4635),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_sweep;

    fn pass() -> Vec<SweepRow> {
        paper_sweep::grid(paper_sweep::workloads())
            .run()
            .rows()
            .to_vec()
    }

    #[test]
    fn the_grid_matches_its_golden_values() {
        assert_eq!(mismatches(&pass(), GOLDEN), 0);
    }

    #[test]
    fn perturbing_one_golden_value_counts_one_failure() {
        let rows = pass();
        for field in 0..4 {
            let mut golden = GOLDEN.to_vec();
            let row = &mut golden[7];
            match field {
                0 => row.makespan += 1,
                1 => row.dm_conflicts += 1,
                2 => row.vm_stalls += 1,
                _ => row.tm_stalls += 1,
            }
            assert_eq!(mismatches(&rows, &golden), 1, "field {field}");
        }
    }

    #[test]
    fn a_failed_or_missing_cell_counts() {
        let mut rows = pass();
        rows[3].error = Some("stalled".into());
        assert_eq!(mismatches(&rows, GOLDEN), 1);
        rows.pop();
        assert_eq!(mismatches(&rows, GOLDEN), 2);
    }

    /// Prints the table in source form after an intended model change:
    /// `cargo test --release -- --ignored --nocapture print_golden`.
    #[test]
    #[ignore]
    fn print_golden() {
        for r in pass() {
            let o = Observed::from_row(&r);
            let (d, v, t) = o.counters.expect("cell ran");
            println!(
                "    g({:?}, {:?}, {:?}, {}, {}, {d}, {v}, {t}),",
                o.workload, o.backend, o.dm, o.workers, o.makespan
            );
        }
    }
}
