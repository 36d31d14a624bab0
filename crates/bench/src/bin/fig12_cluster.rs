//! **Cluster scaling** (beyond the paper's Figure 11): where sharded
//! dependence management beats one big DM, and where cross-shard traffic
//! eats the gain.
//!
//! Sweeps shards × workers × interconnect latency over the golden
//! cholesky/sparselu workloads plus the open-loop `gen::stream` workload
//! (sustained heavy traffic — arrivals faster than one Picos pipeline's
//! task throughput). One-shard cells are cycle-identical to the HW-only
//! platform, so every row is directly comparable to the paper's numbers.

use picos_backend::{BackendSpec, Sweep, SweepResult, Workload};
use picos_bench::{f2, results_dir, Table};
use picos_hil::LinkModel;
use picos_trace::gen::{self, App};
use picos_trace::json_escape;
use std::sync::Arc;

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const WORKERS: [usize; 3] = [8, 16, 32];
const LINK_LATENCY: [u64; 3] = [8, 64, 512];

fn workloads() -> Vec<Workload> {
    let stream = Arc::new(gen::stream(gen::StreamConfig {
        interarrival: 15,
        mean_duration: 200,
        ..gen::StreamConfig::heavy(2_000)
    }));
    vec![
        Workload::from_trace("stream", stream),
        Workload::from_app(App::Cholesky, 128),
        Workload::from_app(App::SparseLu, 128),
    ]
}

fn main() {
    let workloads = workloads();
    // One sweep per interconnect latency (the link is a sweep-wide knob);
    // rows carry their latency in the emitted files.
    let mut sweeps: Vec<(u64, SweepResult)> = Vec::new();
    for lat in LINK_LATENCY {
        let link = LinkModel {
            latency: lat,
            ..LinkModel::interconnect()
        };
        let result = Sweep::new(workloads.clone())
            .workers(WORKERS)
            .backends(SHARDS.map(BackendSpec::Cluster))
            .interconnect(link)
            .run();
        if let Some(e) = result.first_error() {
            panic!("cluster sweep cell failed at latency {lat}: {e}");
        }
        sweeps.push((lat, result));
    }

    // Raw rows with the latency column prepended.
    let mut csv = String::from(
        "link_latency,workload,workers,shards,makespan,sequential,speedup,dm_conflicts\n",
    );
    let mut json = String::from("[");
    let mut first = true;
    for (lat, result) in &sweeps {
        for r in result.rows() {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{}\n",
                lat,
                r.workload,
                r.workers,
                r.shards,
                r.makespan,
                r.sequential,
                r.speedup,
                r.dm_conflicts.unwrap_or(0),
            ));
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                "{{\"link_latency\":{},\"workload\":\"{}\",\"workers\":{},\
                 \"shards\":{},\"makespan\":{},\"speedup\":{:.6}}}",
                lat,
                json_escape(&r.workload),
                r.workers,
                r.shards,
                r.makespan,
                r.speedup,
            ));
        }
    }
    json.push(']');
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("fig12_cluster_raw.csv"), &csv);
        let _ = std::fs::write(dir.join("fig12_cluster_raw.json"), &json);
    }

    // Pivot: one line per workload × workers × latency, one speedup column
    // per shard count, plus the shard count that won the cell.
    let mut t = Table::new(
        "Cluster scaling: speedup by shard count (address-sharded DM, \
         per-destination interconnect ports)",
        &["App", "Workers", "LinkLat", "s1", "s2", "s4", "s8", "Best"],
    );
    for (lat, result) in &sweeps {
        for w in &workloads {
            for &workers in &WORKERS {
                let line: Vec<&picos_backend::SweepRow> = result
                    .rows()
                    .iter()
                    .filter(|r| r.workload == w.label && r.workers == workers)
                    .collect();
                assert_eq!(line.len(), SHARDS.len());
                let best = line
                    .iter()
                    .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                    .expect("non-empty line");
                let mut cells = vec![w.label.clone(), workers.to_string(), lat.to_string()];
                cells.extend(line.iter().map(|r| f2(r.speedup)));
                cells.push(format!("s{}", best.shards));
                t.row(cells);
            }
        }
    }
    t.emit("fig12_cluster");

    // Headline: the sustained-load regime on the fast interconnect.
    let (_, fast) = &sweeps[0];
    let one = fast
        .rows()
        .iter()
        .find(|r| r.workload == "stream" && r.workers == 16 && r.shards == 1)
        .expect("one-shard stream row");
    let four = fast
        .rows()
        .iter()
        .find(|r| r.workload == "stream" && r.workers == 16 && r.shards == 4)
        .expect("four-shard stream row");
    println!(
        "stream @ 16 workers, link latency {}: 1 shard makespan {} vs 4 shards {} ({:.2}x)",
        LINK_LATENCY[0],
        one.makespan,
        four.makespan,
        one.makespan as f64 / four.makespan as f64
    );
}
