//! Checkpointed restarts: a tenant checkpoint persists a full engine
//! snapshot and truncates the on-disk journal to the post-snapshot tail,
//! so a restarted service recovers from snapshot + tail replay and is
//! bit-exact with a service that never went down — including after a
//! crash in the window between the checkpoint and journal writes.

use picos_backend::BackendSpec;
use picos_serve::{Request, ServeConfig, ServeHandle, Service, SubmitOutcome, TenantSpec};
use picos_trace::snap::value_to_json;
use picos_trace::{gen, parse_json, SessionJournal, Trace, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picos-ckpt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Feeds `trace[range]` to every named tenant, riding out quota and
/// window rejections with scheduler rounds (the streaming client loop).
fn feed(svc: &mut Service, names: &[String], trace: &Trace, range: std::ops::Range<usize>) {
    for idx in range {
        let task = &trace.tasks()[idx];
        for name in names {
            while svc.submit(name, task).unwrap() != SubmitOutcome::Accepted {
                svc.run_round();
            }
        }
    }
}

/// Mid-journal checkpoint and restart across every backend family: the
/// recovered service's final output (report, stats, timelines, metrics)
/// is bit-identical to a service that was never interrupted, and the
/// checkpoint physically truncates the persisted journal.
#[test]
fn checkpointed_restart_matches_continuous_for_every_family() {
    let dir = scratch("families");
    let cfg = ServeConfig {
        default_quota: 6,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let continuous_cfg = ServeConfig {
        journal_dir: None,
        ..cfg.clone()
    };
    let mut durable = Service::new(cfg.clone()).unwrap();
    let mut continuous = Service::new(continuous_cfg).unwrap();
    let names: Vec<String> = BackendSpec::ALL
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let name = format!("t{i}");
            let spec = TenantSpec::new(*spec, 4);
            durable.open(&name, &spec).unwrap();
            continuous.open(&name, &spec).unwrap();
            name
        })
        .collect();

    let trace = gen::stream(gen::StreamConfig::heavy(40));
    let cut = trace.len() / 2;
    feed(&mut durable, &names, &trace, 0..cut);
    feed(&mut continuous, &names, &trace, 0..cut);

    // Mid-journal checkpoint: snapshot persisted, journal truncated.
    assert_eq!(durable.checkpoint_all().unwrap(), names.len());
    for name in &names {
        assert!(dir.join(format!("{name}.checkpoint.json")).exists());
        let text = std::fs::read_to_string(dir.join(format!("{name}.journal.json"))).unwrap();
        assert!(
            text.contains("\"base\":"),
            "{name}: compacted journal must carry its absolute base"
        );
        let tail = SessionJournal::from_json(&text).unwrap();
        assert!(
            tail.is_empty(),
            "{name}: checkpoint must truncate the journal to the tail"
        );
    }

    // Post-checkpoint traffic lands in the journal tail only.
    feed(&mut durable, &names, &trace, cut..trace.len());
    feed(&mut continuous, &names, &trace, cut..trace.len());
    durable.flush_journals().unwrap();
    drop(durable);

    let mut recovered = Service::new(cfg).unwrap();
    assert!(
        recovered.recovery_errors().is_empty(),
        "{:?}",
        recovered.recovery_errors()
    );
    for name in &names {
        let stats = recovered.stats(name).unwrap();
        assert_eq!(stats.submitted as usize, trace.len(), "{name}");
        let restarted = recovered.close(name).unwrap();
        let uninterrupted = continuous.close(name).unwrap();
        assert_eq!(
            restarted, uninterrupted,
            "{name}: restart must be bit-exact with the continuous run"
        );
    }
}

/// A crash after the checkpoint lands but before the journal file is
/// rewritten leaves a stale full-history journal next to a newer
/// snapshot. The absolute cursor makes recovery skip exactly the
/// already-snapshotted prefix — ops are never applied twice.
#[test]
fn crash_between_checkpoint_and_journal_truncation_replays_once() {
    let dir = scratch("torn");
    let cfg = ServeConfig {
        default_quota: 5,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut durable = Service::new(cfg.clone()).unwrap();
    let mut continuous = Service::new(ServeConfig {
        journal_dir: None,
        ..cfg.clone()
    })
    .unwrap();
    let spec = TenantSpec::new(BackendSpec::Nanos, 3);
    durable.open("t", &spec).unwrap();
    continuous.open("t", &spec).unwrap();

    let names = ["t".to_string()];
    let trace = gen::stream(gen::StreamConfig::heavy(30));
    feed(&mut durable, &names, &trace, 0..trace.len());
    feed(&mut continuous, &names, &trace, 0..trace.len());

    // Persist the full-history journal, then checkpoint — and put the
    // stale pre-checkpoint journal file back, as if the process died
    // between the two checkpoint writes.
    durable.flush_journals().unwrap();
    let journal_path = dir.join("t.journal.json");
    let stale = std::fs::read_to_string(&journal_path).unwrap();
    assert!(!SessionJournal::from_json(&stale).unwrap().is_empty());
    assert!(durable.checkpoint("t").unwrap());
    std::fs::write(&journal_path, stale).unwrap();
    drop(durable); // crash: no graceful flush

    let mut recovered = Service::new(cfg).unwrap();
    assert!(
        recovered.recovery_errors().is_empty(),
        "{:?}",
        recovered.recovery_errors()
    );
    assert_eq!(
        recovered.stats("t").unwrap().submitted as usize,
        trace.len()
    );
    assert_eq!(
        recovered.close("t").unwrap(),
        continuous.close("t").unwrap(),
        "cursor-skip recovery must not double-apply the snapshotted prefix"
    );
}

/// A compacted journal whose covering checkpoint file is missing is a
/// typed recovery error (the history prefix is gone), isolated to the
/// tenant it concerns.
#[test]
fn missing_checkpoint_for_compacted_journal_is_reported() {
    let dir = scratch("orphan");
    let cfg = ServeConfig {
        default_quota: 4,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut svc = Service::new(cfg.clone()).unwrap();
    svc.open("t", &TenantSpec::new(BackendSpec::Perfect, 2))
        .unwrap();
    let names = ["t".to_string()];
    let trace = gen::stream(gen::StreamConfig::heavy(12));
    feed(&mut svc, &names, &trace, 0..trace.len());
    assert!(svc.checkpoint("t").unwrap());
    svc.flush_journals().unwrap();
    drop(svc);
    std::fs::remove_file(dir.join("t.checkpoint.json")).unwrap();

    let svc = Service::new(cfg).unwrap();
    assert!(
        !svc.contains("t"),
        "unrecoverable tenant must not half-open"
    );
    assert_eq!(svc.recovery_errors().len(), 1);
    let (name, reason) = &svc.recovery_errors()[0];
    assert_eq!(name, "t");
    assert!(
        reason.contains("no checkpoint covers the prefix"),
        "unexpected reason: {reason}"
    );
}

/// With a `checkpoint_every` cadence the scheduler checkpoints on its
/// own: checkpoint files appear without any explicit call, the scrape
/// counts them, and a restart recovers the full stream.
#[test]
fn periodic_checkpoints_fire_from_the_scheduler() {
    let dir = scratch("auto");
    let cfg = ServeConfig {
        default_quota: 2,
        journal_dir: Some(dir.clone()),
        checkpoint_every: Some(1),
        ..ServeConfig::default()
    };
    let mut svc = Service::new(cfg.clone()).unwrap();
    svc.open("t", &TenantSpec::new(BackendSpec::Nanos, 2))
        .unwrap();
    let names = ["t".to_string()];
    let trace = gen::stream(gen::StreamConfig::heavy(30));
    // The 2-task quota forces scheduler rounds during the feed; every
    // stepping round crosses the 1-step cadence and checkpoints.
    feed(&mut svc, &names, &trace, 0..trace.len());
    assert!(
        svc.checkpoint_errors().is_empty(),
        "{:?}",
        svc.checkpoint_errors()
    );
    assert!(
        dir.join("t.checkpoint.json").exists(),
        "cadence must have checkpointed without an explicit call"
    );
    let scrape = svc.scrape();
    let auto = scrape.service.value("serve.checkpoints").unwrap();
    assert!(auto >= 1, "scrape must count automatic checkpoints");
    svc.flush_journals().unwrap();
    drop(svc);

    let mut recovered = Service::new(ServeConfig {
        checkpoint_every: None,
        ..cfg
    })
    .unwrap();
    assert!(
        recovered.recovery_errors().is_empty(),
        "{:?}",
        recovered.recovery_errors()
    );
    let out = recovered.close("t").unwrap();
    assert_eq!(out.report.order.len(), trace.len());
}

/// The wire protocol drives checkpoints: `{"cmd":"checkpoint"}` (all
/// tenants) and the single-tenant form both round-trip and report how
/// many checkpoints were written; without a journal directory the
/// request is a typed error, never a panic.
#[test]
fn wire_checkpoint_command_round_trips() {
    for req in [
        Request::Checkpoint { tenant: None },
        Request::Checkpoint {
            tenant: Some("w".into()),
        },
    ] {
        let line = req.to_line();
        assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
    }

    let dir = scratch("wire");
    let mut h = ServeHandle::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let open = Request::Open {
        tenant: "w".into(),
        spec: TenantSpec::new(BackendSpec::Nanos, 2),
    };
    assert_eq!(h.handle_line(&open.to_line()), "{\"ok\":true}");
    let trace = gen::stream(gen::StreamConfig::heavy(8));
    for task in trace.iter() {
        let line = Request::Submit {
            tenant: "w".into(),
            task: task.clone(),
        }
        .to_line();
        assert_eq!(
            h.handle_line(&line),
            "{\"ok\":true,\"outcome\":\"accepted\"}"
        );
    }
    assert_eq!(
        h.handle_line("{\"cmd\":\"checkpoint\",\"tenant\":\"w\"}"),
        "{\"ok\":true,\"checkpointed\":1}"
    );
    assert_eq!(
        h.handle_line("{\"cmd\":\"checkpoint\"}"),
        "{\"ok\":true,\"checkpointed\":1}"
    );
    assert!(dir.join("w.checkpoint.json").exists());

    // No journal directory: a clean protocol error.
    let mut bare = ServeHandle::new(ServeConfig::default()).unwrap();
    assert_eq!(bare.handle_line(&open.to_line()), "{\"ok\":true}");
    let resp = bare.handle_line("{\"cmd\":\"checkpoint\"}");
    assert!(
        resp.starts_with("{\"ok\":false,") && resp.contains("journal directory"),
        "{resp}"
    );
}

/// A `checkpoint` whose `tenant` is present but not a string is refused
/// and checkpoints nothing. Only an absent `tenant` means every tenant.
#[test]
fn wire_checkpoint_with_a_non_string_tenant_checkpoints_nothing() {
    let dir = scratch("wire-bad-tenant");
    let mut h = ServeHandle::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    for name in ["a", "b"] {
        let open = Request::Open {
            tenant: name.into(),
            spec: TenantSpec::new(BackendSpec::Perfect, 2),
        };
        assert_eq!(h.handle_line(&open.to_line()), "{\"ok\":true}");
    }
    let refused = "{\"ok\":false,\"error\":\"\\\"checkpoint\\\" needs a \\\"tenant\\\" string\"}";
    for tenant in ["7", "null", "[\"a\"]", "{\"name\":\"a\"}", "true"] {
        let line = format!("{{\"cmd\":\"checkpoint\",\"tenant\":{tenant}}}");
        assert_eq!(h.handle_line(&line), refused, "{line}");
        // The last value of a duplicate key decides.
        let line = format!("{{\"cmd\":\"checkpoint\",\"tenant\":\"a\",\"tenant\":{tenant}}}");
        assert_eq!(h.handle_line(&line), refused, "{line}");
    }
    for name in ["a", "b"] {
        assert!(
            !dir.join(format!("{name}.checkpoint.json")).exists(),
            "{name} was checkpointed"
        );
    }
    assert_eq!(
        h.handle_line("{\"cmd\":\"checkpoint\"}"),
        "{\"ok\":true,\"checkpointed\":2}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites `placement[0]` of a cluster snapshot state to a value no
/// `u16` shard index can hold. The cluster session record opens with the
/// config fingerprint, three attachment flags, the shard cores, worker
/// pools and links, then `expected`, `arrived`, `slot_at` and `exec_q`;
/// `placement` is slot 11.
fn corrupt_placement(state: &mut Value) {
    let Value::Arr(fields) = state else {
        panic!("cluster state is a record array");
    };
    let Value::Arr(placement) = &mut fields[11] else {
        panic!("placement is an array");
    };
    placement[0] = Value::Int(65537);
}

/// A checkpoint whose snapshot holds an out-of-range value is a typed
/// recovery error isolated to its tenant: the corrupted tenant does not
/// half-open, and every other tenant recovers bit-exactly.
#[test]
fn corrupted_checkpoint_is_an_isolated_recovery_error() {
    let dir = scratch("corrupt");
    let cfg = ServeConfig {
        default_quota: 6,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut durable = Service::new(cfg.clone()).unwrap();
    let mut continuous = Service::new(ServeConfig {
        journal_dir: None,
        ..cfg.clone()
    })
    .unwrap();
    let names = ["c".to_string(), "p".to_string()];
    for (name, spec) in names
        .iter()
        .zip([BackendSpec::Cluster(2), BackendSpec::Perfect])
    {
        let spec = TenantSpec::new(spec, 4);
        durable.open(name, &spec).unwrap();
        continuous.open(name, &spec).unwrap();
    }
    let trace = gen::stream(gen::StreamConfig::heavy(40));
    let cut = trace.len() / 2;
    feed(&mut durable, &names, &trace, 0..cut);
    feed(&mut continuous, &names, &trace, 0..cut);
    assert_eq!(durable.checkpoint_all().unwrap(), names.len());
    feed(&mut durable, &names, &trace, cut..trace.len());
    feed(&mut continuous, &names, &trace, cut..trace.len());
    durable.flush_journals().unwrap();
    drop(durable);

    let path = dir.join("c.checkpoint.json");
    let mut doc = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Value::Obj(fields) = &mut doc else {
        panic!("checkpoint is an object");
    };
    corrupt_placement(fields.get_mut("state").unwrap());
    std::fs::write(&path, value_to_json(&doc)).unwrap();

    let mut recovered = Service::new(cfg).unwrap();
    assert_eq!(recovered.recovery_errors().len(), 1);
    let (name, reason) = &recovered.recovery_errors()[0];
    assert_eq!(name, "c");
    assert!(
        reason.contains("out of range"),
        "unexpected reason: {reason}"
    );
    assert!(
        !recovered.contains("c"),
        "a tenant whose checkpoint fails to restore must not half-open"
    );
    assert_eq!(
        recovered.close("p").unwrap(),
        continuous.close("p").unwrap(),
        "the healthy tenant recovers bit-exactly"
    );
}

/// Feeds the whole trace to Perfect tenants "a" and "b" in a journaled
/// service and in an uninterrupted one, checkpointing the journaled one
/// after each op count in `cuts`, then flushes and stops it. Returns its
/// config, the uninterrupted service and tenant "a"'s checkpoint file as
/// written at each cut.
fn checkpointed_pair(tag: &str, cuts: &[usize]) -> (ServeConfig, Service, Vec<String>) {
    let dir = scratch(tag);
    let cfg = ServeConfig {
        default_quota: 6,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut durable = Service::new(cfg.clone()).unwrap();
    let mut continuous = Service::new(ServeConfig {
        journal_dir: None,
        ..cfg.clone()
    })
    .unwrap();
    let names = ["a".to_string(), "b".to_string()];
    let spec = TenantSpec::new(BackendSpec::Perfect, 4);
    for name in &names {
        durable.open(name, &spec).unwrap();
        continuous.open(name, &spec).unwrap();
    }
    let trace = gen::stream(gen::StreamConfig::heavy(120));
    let mut checkpoints = Vec::new();
    let mut from = 0;
    for &cut in cuts {
        feed(&mut durable, &names, &trace, from..cut);
        feed(&mut continuous, &names, &trace, from..cut);
        assert_eq!(durable.checkpoint_all().unwrap(), names.len());
        checkpoints.push(std::fs::read_to_string(dir.join("a.checkpoint.json")).unwrap());
        from = cut;
    }
    feed(&mut durable, &names, &trace, from..trace.len());
    feed(&mut continuous, &names, &trace, from..trace.len());
    durable.flush_journals().unwrap();
    (cfg, continuous, checkpoints)
}

/// Recovery from `cfg` must report tenant "a" alone with a reason
/// containing `reason`, leave it closed, and recover "b" exactly.
fn assert_only_a_fails(cfg: ServeConfig, mut continuous: Service, reason: &str) {
    let mut recovered = Service::new(cfg).unwrap();
    assert_eq!(
        recovered.recovery_errors().len(),
        1,
        "{:?}",
        recovered.recovery_errors()
    );
    let (name, why) = &recovered.recovery_errors()[0];
    assert_eq!(name, "a");
    assert!(why.contains(reason), "unexpected reason: {why}");
    assert!(!recovered.contains("a"), "tenant \"a\" must not half-open");
    assert_eq!(
        recovered.close("b").unwrap(),
        continuous.close("b").unwrap(),
        "the healthy tenant recovers bit-exactly"
    );
}

/// A journal file whose `base` is not an integer is a recovery error for
/// its tenant, not a journal that silently starts at op 0.
#[test]
fn non_integer_journal_base_is_an_isolated_recovery_error() {
    let (cfg, continuous, _) = checkpointed_pair("base-type", &[20]);
    let path = cfg.journal_dir.as_ref().unwrap().join("a.journal.json");
    let mut doc = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Value::Obj(fields) = &mut doc else {
        panic!("journal file is an object");
    };
    assert_eq!(fields.get("base"), Some(&Value::Int(20)));
    fields.insert("base".into(), Value::Str("20".into()));
    std::fs::write(&path, value_to_json(&doc)).unwrap();
    assert_only_a_fails(cfg, continuous, "\"base\" must be a non-negative integer");
}

/// A checkpoint older than its journal's `base` leaves the ops between
/// them in neither file: a recovery error for that tenant, never a
/// replay that skips them.
#[test]
fn checkpoint_older_than_its_journal_is_an_isolated_recovery_error() {
    let (cfg, continuous, checkpoints) = checkpointed_pair("stale-ckpt", &[20, 40]);
    let dir = cfg.journal_dir.clone().unwrap();
    std::fs::write(dir.join("a.checkpoint.json"), &checkpoints[0]).unwrap();
    assert_only_a_fails(
        cfg,
        continuous,
        "journal starts at op 40 but no checkpoint covers the prefix (checkpoint cursor 20)",
    );
}
