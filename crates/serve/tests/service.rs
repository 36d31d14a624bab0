//! Service-level integration tests: tenant isolation, admission control,
//! registry errors, the metrics scrape and the wire protocol round-trip.

use picos_backend::{Admission, BackendSpec};
use picos_cluster::FaultPlan;
use picos_serve::{
    schedule_digest, Request, ServeConfig, ServeError, ServeHandle, Service, SubmitOutcome,
    TenantSpec,
};
use picos_trace::{gen, parse_json};

fn open_n(svc: &mut Service, n: usize, spec: &TenantSpec) {
    for i in 0..n {
        svc.open(&format!("t{i}"), spec).unwrap();
    }
}

/// One tenant's engine failure is typed, attributed and contained: the
/// failing tenant is removed, every other tenant finishes bit-exactly.
#[test]
fn tenant_errors_are_isolated() {
    let mut svc = Service::new(ServeConfig::default()).unwrap();
    // Healthy tenants on both sides of the faulty one (registry order).
    svc.open("before", &TenantSpec::new(BackendSpec::Nanos, 4))
        .unwrap();
    // A cluster whose interconnect drops every message with a one-retry
    // budget: the link gives up deterministically (LinkTimeout).
    let doomed = BackendSpec::Cluster(2)
        .builder(4)
        .faults(Some(
            FaultPlan::new(7).with_drop_rate(1.0).with_max_retries(1),
        ))
        .build();
    svc.open_with(
        "doomed",
        &*doomed,
        &TenantSpec::new(BackendSpec::Cluster(2), 4),
    )
    .unwrap();
    svc.open("after", &TenantSpec::new(BackendSpec::Perfect, 4))
        .unwrap();

    let trace = gen::stream(gen::StreamConfig::heavy(40));
    for task in trace.iter() {
        for name in ["before", "doomed", "after"] {
            assert_eq!(svc.submit(name, task).unwrap(), SubmitOutcome::Accepted);
        }
    }
    svc.run_until_idle();

    let err = svc.close("doomed").expect_err("a dead link must surface");
    match &err {
        ServeError::Tenant { tenant, .. } => assert_eq!(tenant, "doomed"),
        other => panic!("expected a tenant-attributed error, got {other}"),
    }
    assert!(!svc.contains("doomed"), "failed tenant leaves the registry");

    // The blast radius is exactly one tenant.
    for name in ["before", "after"] {
        let out = svc.close(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.report.order.len(), trace.len(), "{name}");
    }
}

/// The admission quota rejects above the configured in-flight population
/// and the rejection is visible in the tenant stats.
#[test]
fn quota_rejects_above_the_cap() {
    let mut svc = Service::new(ServeConfig {
        default_quota: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    svc.open("t", &TenantSpec::new(BackendSpec::Nanos, 2))
        .unwrap();
    let trace = gen::stream(gen::StreamConfig::heavy(16));
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for task in trace.iter() {
        match svc.submit("t", task).unwrap() {
            SubmitOutcome::Accepted => accepted += 1,
            _ => rejected += 1,
        }
    }
    assert_eq!(
        accepted, 3,
        "exactly the quota is admitted without stepping"
    );
    assert_eq!(rejected, trace.len() - 3);
    let stats = svc.stats("t").unwrap();
    assert_eq!(stats.in_flight, 3);
    assert_eq!(stats.rejected_quota as usize, rejected);
    // Per-tenant quota override beats the service default.
    let mut spec = TenantSpec::new(BackendSpec::Nanos, 2);
    spec.quota = Some(1);
    svc.open("narrow", &spec).unwrap();
    assert_eq!(svc.stats("narrow").unwrap().quota, 1);
}

/// Registry errors are typed: duplicates, unknown names, invalid names
/// and the tenant cap.
#[test]
fn registry_errors_are_typed() {
    let mut svc = Service::new(ServeConfig {
        max_tenants: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let spec = TenantSpec::new(BackendSpec::Perfect, 2);
    svc.open("a", &spec).unwrap();
    assert!(matches!(
        svc.open("a", &spec),
        Err(ServeError::DuplicateTenant(_))
    ));
    assert!(matches!(
        svc.open("bad name!", &spec),
        Err(ServeError::InvalidName(_))
    ));
    assert!(matches!(
        svc.stats("ghost"),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        svc.close("ghost"),
        Err(ServeError::UnknownTenant(_))
    ));
    svc.open("b", &spec).unwrap();
    assert!(matches!(
        svc.open("c", &spec),
        Err(ServeError::TenantsFull(2))
    ));
    // Closing frees a slot.
    svc.close("a").unwrap();
    svc.open("c", &spec).unwrap();
}

/// The scrape drains service gauges plus one timeline per tenant, and
/// draining twice never double-reports deltas.
#[test]
fn scrape_drains_service_and_tenant_metrics() {
    let mut svc = Service::new(ServeConfig {
        default_quota: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    open_n(&mut svc, 3, &TenantSpec::new(BackendSpec::Nanos, 2));
    let trace = gen::stream(gen::StreamConfig::heavy(30));
    for task in trace.iter() {
        for i in 0..3 {
            let name = format!("t{i}");
            // Ride out the 4-task quota: scheduler rounds drain the
            // saturated (hence steppable) tenants.
            while svc.submit(&name, task).unwrap() != SubmitOutcome::Accepted {
                svc.run_round();
            }
        }
    }
    svc.run_until_idle();
    let scrape = svc.scrape();
    assert_eq!(scrape.tenants.len(), 3);
    assert_eq!(scrape.service.value("serve.tenants_live"), Some(3));
    assert_eq!(scrape.service.value("serve.tenants_opened"), Some(3));
    let steps = scrape.service.value("serve.steps_scheduled").unwrap();
    assert!(steps > 0, "the scheduler must have stepped");
    let json = scrape.to_json();
    assert!(json.contains("\"service\"") && json.contains("\"tenants\""));
    // Second scrape with no new work: samplers were drained, so the
    // submitted deltas must not reappear.
    let again = svc.scrape();
    for (name, tl) in &again.tenants {
        let csv = tl.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let si = header.iter().position(|h| *h == "submitted").unwrap();
        for line in lines {
            let submitted: u64 = line
                .split(',')
                .nth(si)
                .map_or(0, |v| v.parse().unwrap_or(0));
            assert_eq!(submitted, 0, "{name}: re-reported a drained delta: {line}");
        }
    }
}

/// Every request round-trips through its wire form, and the in-process
/// handle speaks the exact protocol: open → submit*N → close returns the
/// same digest as the identical solo session.
#[test]
fn protocol_round_trips_and_matches_solo() {
    let spec = TenantSpec::new(BackendSpec::Nanos, 4);
    let trace = gen::stream(gen::StreamConfig::heavy(25));
    let requests = vec![
        Request::Open {
            tenant: "w".into(),
            spec: spec.clone(),
        },
        Request::Submit {
            tenant: "w".into(),
            task: trace.iter().next().unwrap().clone(),
        },
        Request::Barrier { tenant: "w".into() },
        Request::Advance {
            tenant: "w".into(),
            cycle: 400,
        },
        Request::DrainEvents { tenant: "w".into() },
        Request::Stats { tenant: "w".into() },
        Request::Scrape,
        Request::Close { tenant: "w".into() },
        Request::Shutdown,
    ];
    for req in &requests {
        let line = req.to_line();
        assert_eq!(
            &Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}")),
            req,
            "wire round-trip must be lossless"
        );
    }

    // Solo reference run under the tenant's effective configuration.
    let backend = spec.build_backend();
    let mut solo = backend
        .open_with(spec.effective_session_config(ServeConfig::default().default_quota))
        .unwrap();
    for task in trace.iter() {
        assert_eq!(solo.submit(task), Admission::Accepted);
    }
    let (solo_report, _) = solo.finish().unwrap();

    // The same feed over protocol lines.
    let mut h = ServeHandle::new(ServeConfig::default()).unwrap();
    let open = Request::Open {
        tenant: "w".into(),
        spec,
    };
    assert_eq!(h.handle_line(&open.to_line()), "{\"ok\":true}");
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
    h.service_mut().run_until_idle();
    let closed = h.handle_line(&Request::Close { tenant: "w".into() }.to_line());
    let expect = format!(
        "\"tasks\":{},\"makespan\":{},\"digest\":{}",
        trace.len(),
        solo_report.makespan,
        schedule_digest(&solo_report)
    );
    assert!(
        closed.contains(&expect),
        "wire close must match solo bit-exactly: {closed} vs {expect}"
    );

    // Malformed input is an error response, never a panic or a drop.
    for bad in [
        "not json",
        "{}",
        "{\"cmd\":\"warp\"}",
        "{\"cmd\":\"stats\"}",
    ] {
        let resp = h.handle_line(bad);
        assert!(resp.starts_with("{\"ok\":false,"), "{bad} -> {resp}");
    }
}

/// One request line nested far past the JSON depth cap — the shape that
/// overflowed the parser's stack and aborted the whole server — is an
/// ordinary error response, and the handle keeps serving.
#[test]
fn deeply_nested_request_lines_are_rejected_not_fatal() {
    let mut h = ServeHandle::new(ServeConfig::default()).unwrap();
    for deep in ["[".repeat(100_000), "{\"cmd\":".repeat(100_000)] {
        let resp = h.handle_line(&deep);
        assert!(resp.starts_with("{\"ok\":false,"), "{}", &resp[..80]);
        assert!(resp.contains("nesting"), "{resp}");
    }
    let open = Request::Open {
        tenant: "after".into(),
        spec: TenantSpec::new(BackendSpec::Nanos, 2),
    };
    assert_eq!(h.handle_line(&open.to_line()), "{\"ok\":true}");
}

/// `drain-events` on a span-traced tenant streams lifecycle events in
/// the `SpanLog::to_json` element shape, and the started/finished stamps
/// it returns are exactly the schedule the tenant reports at close.
#[test]
fn drain_events_over_the_wire_match_the_tenant_report() {
    let mut spec = TenantSpec::new(BackendSpec::Cluster(2), 4);
    spec.trace_spans = true;
    let trace = gen::stream(gen::StreamConfig::heavy(40));
    let mut h = ServeHandle::new(ServeConfig::default()).unwrap();
    let open = Request::Open {
        tenant: "w".into(),
        spec,
    };
    assert_eq!(h.handle_line(&open.to_line()), "{\"ok\":true}");
    let drain = Request::DrainEvents { tenant: "w".into() }.to_line();
    let mut starts = vec![None; trace.len()];
    let mut finishes = vec![None; trace.len()];
    let mut kinds = std::collections::BTreeSet::new();
    let mut collect = |line: String| {
        let v = parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let obj = v.as_obj().unwrap();
        assert_eq!(
            obj.get("ok"),
            Some(&picos_trace::Value::Bool(true)),
            "{line}"
        );
        for e in obj.get("events").and_then(|e| e.as_array()).unwrap() {
            let e = e.as_obj().unwrap();
            for key in ["at", "shard", "task", "arg"] {
                assert!(
                    e.get(key).and_then(|v| v.as_int()).is_some(),
                    "{key}: {line}"
                );
            }
            let kind = e
                .get("kind")
                .and_then(|k| k.as_string())
                .unwrap()
                .to_string();
            let task = e["task"].as_int().unwrap() as usize;
            let at = e["at"].as_int().unwrap();
            match kind.as_str() {
                "started" => starts[task] = Some(at),
                "finished" => finishes[task] = Some(at),
                _ => {}
            }
            kinds.insert(kind);
        }
    };
    let half = trace.len() / 2;
    for (i, task) in trace.iter().enumerate() {
        let line = Request::Submit {
            tenant: "w".into(),
            task: task.clone(),
        }
        .to_line();
        assert_eq!(
            h.handle_line(&line),
            "{\"ok\":true,\"outcome\":\"accepted\"}"
        );
        if i == half {
            collect(h.handle_line(&drain));
        }
    }
    let advance = Request::Advance {
        tenant: "w".into(),
        cycle: 1 << 40,
    };
    assert_eq!(h.handle_line(&advance.to_line()), "{\"ok\":true}");
    collect(h.handle_line(&drain));
    assert!(
        kinds.contains("submitted") && kinds.contains("msg_send"),
        "{kinds:?}"
    );
    let out = h.service_mut().close("w").unwrap();
    for i in 0..trace.len() {
        assert_eq!(starts[i], Some(out.report.start[i]), "task {i} start");
        assert_eq!(finishes[i], Some(out.report.end[i]), "task {i} end");
    }
}
