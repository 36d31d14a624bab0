//! Checkpoint-format pin: the JSON text of `Snapshot::to_json()` is part of
//! the on-disk contract (serve tenants persist it), so its bytes must not
//! drift when the codecs behind it are refactored.
//!
//! Every engine family is driven through two traces, two session
//! configurations and four cut points; each cut is followed by an
//! `advance_to` so in-flight work (wheel events, queues, link deliveries,
//! fault-layer retries) is inside the snapshot. The concatenated snapshot
//! texts of one family are folded into one FNV-1a digest and compared
//! against a constant recorded from the format as first shipped. The
//! constants are never edited: a mismatch means the checkpoint format
//! changed.

use picos_backend::{
    feed_range, BackendSpec, ClusterBackend, ExecBackend, FaultPlan, SessionConfig, Snapshot,
};
use picos_cluster::ClusterConfig;
use picos_core::PicosConfig;
use picos_trace::{gen, Trace, Value};

/// Digest of every family's snapshot texts, in [`families`] order.
const DIGESTS: [(&str, u64); 8] = [
    ("perfect", 0xf7ae_d679_d3dc_ae33),
    ("nanos", 0xdce4_5541_9466_a42a),
    ("picos-hw-only", 0xe858_b34c_e330_28a6),
    ("picos-hw-comm", 0x4a2a_9893_0492_64a8),
    ("picos-full", 0xef77_0bec_e591_f29f),
    ("cluster1", 0x9521_49ae_12c8_cc5e),
    ("cluster3", 0x0593_4cf5_27d5_e817),
    ("cluster3-faulted", 0x9230_374e_e900_7553),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Every `BackendSpec::ALL` family, a sharded cluster, and a sharded
/// cluster under an active fault plan (drop, duplicate, jitter, one shard
/// pause and one worker fault; 8 workers keep the worker fault legal).
fn families() -> Vec<Box<dyn ExecBackend>> {
    let cfg = PicosConfig::balanced();
    let mut out: Vec<Box<dyn ExecBackend>> = BackendSpec::ALL
        .into_iter()
        .chain([BackendSpec::Cluster(3)])
        .map(|spec| spec.build(4, &cfg))
        .collect();
    let plan = FaultPlan::new(0x5EED)
        .with_drop_rate(0.02)
        .with_dup_rate(0.02)
        .with_jitter(0.1, 8)
        .with_pause(1, 200, 900)
        .with_worker_fault(0, 400);
    out.push(Box::new(ClusterBackend {
        cfg: ClusterConfig::balanced(3, 8).with_faults(plan),
    }));
    out
}

fn traces() -> [Trace; 2] {
    [
        gen::sparselu(gen::SparseLuConfig {
            problem_size: 64,
            block_size: 8,
            calibrate: false,
        }),
        gen::stream(gen::StreamConfig::heavy(120)),
    ]
}

fn family_digest(backend: &dyn ExecBackend, traces: &[Trace]) -> u64 {
    let configs = [
        SessionConfig::batch(),
        SessionConfig::windowed(16).with_timeline(64).with_spans(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for tr in traces {
        let n = tr.len();
        for cfg in configs {
            for cut in [0, n / 3, n / 2, n - 1] {
                let mut s = backend.open_with(cfg).unwrap();
                feed_range(&mut *s, tr, 0..cut).unwrap();
                let now = s.now();
                s.advance_to(now + 250);
                fnv1a(&mut h, Snapshot::capture(&*s).to_json().as_bytes());
                fnv1a(&mut h, b"\n");
            }
        }
    }
    h
}

#[test]
fn snapshot_json_is_byte_identical_to_the_recorded_format() {
    let traces = traces();
    let got: Vec<u64> = families()
        .iter()
        .map(|b| family_digest(&**b, &traces))
        .collect();
    let report: Vec<String> = DIGESTS
        .iter()
        .zip(&got)
        .map(|((name, want), got)| format!("{name}: want {want:#018x}, got {got:#018x}"))
        .collect();
    for ((name, want), got) in DIGESTS.iter().zip(&got) {
        assert_eq!(
            got,
            want,
            "{name}: checkpoint format drifted\n{}",
            report.join("\n")
        );
    }
}

#[test]
fn out_of_range_values_fail_restore_instead_of_wrapping() {
    // The cluster session record opens with the config fingerprint, three
    // attachment flags, the shard cores, worker pools and links, then
    // `expected`, `arrived`, `slot_at` and `exec_q`; `placement` (a `u16`
    // shard index per task) is slot 11. 65537 would wrap to shard 1.
    let b = BackendSpec::Cluster(3).build(4, &PicosConfig::balanced());
    let tr = &traces()[1];
    let mut live = b.open().unwrap();
    feed_range(&mut *live, tr, 0..tr.len() / 2).unwrap();
    let mut state = Snapshot::capture(&*live).value().clone();
    let Value::Arr(fields) = &mut state else {
        panic!("cluster state is a record array");
    };
    let Value::Arr(placement) = &mut fields[11] else {
        panic!("placement is an array");
    };
    placement[0] = Value::Int(65537);
    let err = Snapshot::from_value(state)
        .restore(&mut *b.open().unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}
