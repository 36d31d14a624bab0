//! Localhost-socket integration: the TCP front end speaks the protocol
//! end to end and shuts down gracefully — listener closed, in-flight
//! steps finished, journals flushed — both on a wire `shutdown` request
//! and on the SIGTERM-equivalent [`ServerHandle::shutdown`]. A client
//! cannot make it hold unbounded input or output, or hang its shutdown.

use picos_backend::{Admission, BackendSpec};
use picos_serve::{schedule_digest, serve, Request, ServeConfig, Service, TenantSpec};
use picos_trace::rng::SplitMix64;
use picos_trace::{gen, task_to_json, Trace, Value, MAX_JSON_DEPTH};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picos-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A line-oriented protocol client over a blocking socket.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Reads one response line and parses it.
    fn response(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        picos_serve::parse_response(line.trim()).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// Sends one request and returns the parsed response object.
    fn call(&mut self, req: &Request) -> Value {
        self.writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("write");
        self.response()
    }

    fn call_ok(&mut self, req: &Request) -> Value {
        let v = self.call(req);
        let ok = matches!(
            v.as_obj().and_then(|o| o.get("ok")),
            Some(Value::Bool(true))
        );
        assert!(ok, "{}: {v:?}", req.to_line());
        v
    }
}

fn field(v: &Value, name: &str) -> u64 {
    v.as_obj()
        .and_then(|o| o.get(name))
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("response misses {name}: {v:?}"))
}

/// Runs one tenant's whole conversation over `c`: open, submit every task
/// of `trace`, drain, check the stats, close. Returns the close response.
fn run_tenant(c: &mut Client, tenant: &str, spec: &TenantSpec, trace: &Trace) -> Value {
    c.call_ok(&Request::Open {
        tenant: tenant.into(),
        spec: spec.clone(),
    });
    for task in trace.iter() {
        // The server runs scheduler rounds between requests, so
        // backpressure (if any) resolves by retrying.
        loop {
            let v = c.call_ok(&Request::Submit {
                tenant: tenant.into(),
                task: task.clone(),
            });
            let outcome = v
                .as_obj()
                .and_then(|o| o.get("outcome"))
                .and_then(Value::as_string)
                .unwrap()
                .to_string();
            if outcome == "accepted" {
                break;
            }
        }
    }
    // Drain via the open-loop primitive: `advance` moves the tenant's
    // clock (the scheduler alone never advances a non-blocked session —
    // that is the determinism invariant).
    c.call_ok(&Request::Advance {
        tenant: tenant.into(),
        cycle: 1 << 40,
    });
    let v = c.call_ok(&Request::Stats {
        tenant: tenant.into(),
    });
    let stats = v.as_obj().unwrap().get("stats").unwrap();
    assert_eq!(field(stats, "submitted"), trace.len() as u64);
    assert_eq!(
        field(stats, "in_flight"),
        0,
        "advance must drain the tenant"
    );
    c.call_ok(&Request::Close {
        tenant: tenant.into(),
    })
}

/// Checks a close response against the identical solo session,
/// bit-exactly.
fn assert_matches_solo(closed: &Value, spec: &TenantSpec, trace: &Trace) {
    let backend = spec.build_backend();
    let cfg = spec.effective_session_config(ServeConfig::default().default_quota);
    let mut solo = backend.open_with(cfg).unwrap();
    for task in trace.iter() {
        assert_eq!(solo.submit(task), Admission::Accepted);
    }
    let (report, _) = solo.finish().unwrap();
    assert_eq!(field(closed, "tasks"), trace.len() as u64);
    assert_eq!(field(closed, "makespan"), report.makespan);
    assert_eq!(field(closed, "digest"), schedule_digest(&report));
}

/// Full protocol conversation over a real socket: open, submit a whole
/// trace, poll stats until drained, close — and the wire digest matches
/// the identical solo session bit-exactly.
#[test]
fn socket_session_matches_solo() {
    let server = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr());
    let spec = TenantSpec::new(BackendSpec::Nanos, 4);
    let trace = gen::stream(gen::StreamConfig::heavy(40));
    let closed = run_tenant(&mut c, "wire", &spec, &trace);
    assert_matches_solo(&closed, &spec, &trace);
    server.shutdown().unwrap();
}

/// A wire `shutdown` request is the SIGTERM-equivalent: the client gets
/// its acknowledgement, the listener closes, in-flight steps finish and
/// every journal reaches disk — a fresh service recovers the tenant.
#[test]
fn wire_shutdown_is_graceful_and_flushes_journals() {
    let dir = scratch("wire-shutdown");
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve(cfg, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr);
    c.call_ok(&Request::Open {
        tenant: "durable".into(),
        spec: TenantSpec::new(BackendSpec::Perfect, 2),
    });
    let trace = gen::stream(gen::StreamConfig::heavy(12));
    for task in trace.iter() {
        c.call_ok(&Request::Submit {
            tenant: "durable".into(),
            task: task.clone(),
        });
    }
    // The acknowledgement must arrive before the server exits.
    c.call_ok(&Request::Shutdown);
    server.shutdown().unwrap();

    // Listener is closed: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed");

    // Journals were flushed: a fresh service recovers the tenant with the
    // full accepted stream.
    let recovered = Service::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    assert!(
        recovered.recovery_errors().is_empty(),
        "{:?}",
        recovered.recovery_errors()
    );
    assert!(recovered.contains("durable"));
    assert_eq!(
        recovered.journal("durable").unwrap().submitted(),
        trace.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`ServerHandle::shutdown`] (the in-process SIGTERM) also flushes
/// journals without any wire traffic, and buffered responses still reach
/// a slow client.
#[test]
fn handle_shutdown_flushes_without_wire_traffic() {
    let dir = scratch("handle-shutdown");
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve(cfg, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr());
    c.call_ok(&Request::Open {
        tenant: "t".into(),
        spec: TenantSpec::new(BackendSpec::Nanos, 2),
    });
    let trace = gen::stream(gen::StreamConfig::heavy(8));
    for task in trace.iter() {
        c.call_ok(&Request::Submit {
            tenant: "t".into(),
            task: task.clone(),
        });
    }
    server.shutdown().unwrap();
    let recovered = Service::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(recovered.journal("t").unwrap().submitted(), trace.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unterminated line past the server's 1 MiB cap is answered with one
/// error before its newline arrives. The rest of it, through the newline,
/// is discarded without a second answer, and the connection keeps serving.
#[test]
fn overlong_line_is_answered_once_and_the_connection_kept() {
    // The server's `MAX_LINE_BYTES`.
    const CAP: usize = 1 << 20;
    let server = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr());
    // A missing answer fails the test instead of hanging it.
    c.writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    c.writer.write_all(&vec![b'x'; CAP + 1]).unwrap();
    let v = c.response();
    let error = v
        .as_obj()
        .and_then(|o| o.get("error"))
        .and_then(Value::as_string);
    assert_eq!(error, Some("request line exceeds 1048576 bytes"), "{v:?}");
    // More of the same line, then its end: discarded, not answered.
    c.writer.write_all(&vec![b'x'; 64 * 1024]).unwrap();
    c.writer.write_all(b"xyz\n").unwrap();
    c.call_ok(&Request::Open {
        tenant: "after".into(),
        spec: TenantSpec::new(BackendSpec::Perfect, 2),
    });
    server.shutdown().unwrap();
}

/// A client that pipelines requests and never reads cannot make the
/// server hold unbounded output or hang its shutdown. Once the client's
/// unsent responses pass the cap the server stops reading it, so its
/// writes block, while another client is still served. Shutdown then
/// drops what the client never took, and the journals still reach disk.
#[test]
fn a_client_that_never_reads_is_pushed_back_and_cannot_hang_shutdown() {
    let dir = scratch("never-reads");
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve(cfg, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    // The watchdog owns the server: a shutdown that hangs fails the test
    // at `recv_timeout` instead of hanging it, and so does any panic
    // before the shutdown is asked for.
    let (go, go_rx) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = go_rx.recv();
        let _ = done_tx.send(server.shutdown());
    });

    let mut c = Client::connect(addr);
    // A missing answer fails the test instead of hanging it.
    c.writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    c.call_ok(&Request::Open {
        tenant: "t".into(),
        spec: TenantSpec::new(BackendSpec::Perfect, 2),
    });
    let trace = gen::stream(gen::StreamConfig::heavy(8));
    for task in trace.iter() {
        c.call_ok(&Request::Submit {
            tenant: "t".into(),
            task: task.clone(),
        });
    }

    // The hog pipelines `stats` requests until its writes have been
    // refused for half a second: the server has stopped reading it.
    let hog = TcpStream::connect(addr).unwrap();
    hog.set_nonblocking(true).unwrap();
    let line = format!("{}\n", Request::Stats { tenant: "t".into() }.to_line());
    let payload = line.repeat(4096).into_bytes();
    let (mut pos, mut sent) = (0, 0usize);
    let mut refused_since: Option<Instant> = None;
    let pushed_back = loop {
        // A server that reads without bound never pushes back.
        if sent > 64 << 20 {
            break false;
        }
        match (&hog).write(&payload[pos..]) {
            Ok(n) => {
                sent += n;
                pos = (pos + n) % payload.len();
                refused_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *refused_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_millis(500) {
                    break true;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("hog write: {e}"),
        }
    };
    assert!(
        pushed_back,
        "the server read {sent} bytes without pushing back"
    );
    let v = c.call_ok(&Request::Stats { tenant: "t".into() });
    assert_eq!(
        field(v.as_obj().unwrap().get("stats").unwrap(), "submitted"),
        trace.len() as u64
    );

    go.send(()).unwrap();
    let result = done
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on a client that never reads");
    result.unwrap();
    drop(hog);
    let recovered = Service::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(recovered.journal("t").unwrap().submitted(), trace.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request lines the server must refuse, drawn from SplitMix64: random
/// bytes, truncated lines, nesting past [`MAX_JSON_DEPTH`], numbers no
/// integer slot holds, and members of the wrong type. A line that names
/// a tenant names `tenant`, which none of them may touch. No line is
/// blank or holds a newline.
fn garbage(seed: u64, n: usize, tenant: &str, spec: &TenantSpec, trace: &Trace) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let name = format!("\"{tenant}\"");
    let mut task = String::new();
    task_to_json(&mut task, &trace.tasks()[0]);
    let object = |members: &[(&str, &str)]| {
        let body: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    };
    // Valid lines, each member tagged with its JSON type.
    let spec = spec.to_json();
    let templates: Vec<Vec<(&str, &str, char)>> = vec![
        vec![
            ("cmd", "\"open\"", 's'),
            ("tenant", &name, 's'),
            ("spec", &spec, 'o'),
        ],
        vec![
            ("cmd", "\"submit\"", 's'),
            ("tenant", &name, 's'),
            ("task", &task, 'o'),
        ],
        vec![
            ("cmd", "\"advance\"", 's'),
            ("tenant", &name, 's'),
            ("cycle", "7", 'i'),
        ],
        vec![("cmd", "\"barrier\"", 's'), ("tenant", &name, 's')],
        vec![("cmd", "\"stats\"", 's'), ("tenant", &name, 's')],
        vec![("cmd", "\"checkpoint\"", 's'), ("tenant", &name, 's')],
        vec![("cmd", "\"close\"", 's'), ("tenant", &name, 's')],
        vec![("cmd", "\"shutdown\"", 's')],
    ];
    let render = |t: &[(&str, &str, char)]| {
        let members: Vec<(&str, &str)> = t.iter().map(|&(k, v, _)| (k, v)).collect();
        object(&members)
    };
    const WRONG: [(&str, char); 7] = [
        ("7", 'i'),
        ("null", 'n'),
        ("true", 'b'),
        ("[]", 'a'),
        ("{}", 'o'),
        ("\"x\"", 's'),
        ("1.5", 'f'),
    ];
    const NOT_U64: [&str; 7] = [
        "18446744073709551616",
        "123456789012345678901234567890",
        "-1",
        "-0",
        "1.5",
        "1e3",
        "1e999",
    ];
    let mut out = Vec::new();
    while out.len() < n {
        let pick = |rng: &mut SplitMix64, len: usize| rng.below(len as u64) as usize;
        let line: Vec<u8> = match rng.below(5) {
            0 => (0..rng.range_usize(1, 200))
                .map(|_| rng.below(256) as u8)
                .filter(|&b| b != b'\n')
                .collect(),
            1 => {
                let t = render(&templates[pick(&mut rng, templates.len())]);
                t.as_bytes()[..rng.range_usize(1, t.len() - 1)].to_vec()
            }
            2 => {
                let depth = rng.range_usize(MAX_JSON_DEPTH, 4 * MAX_JSON_DEPTH);
                let nested = "[".repeat(depth) + "0" + &"]".repeat(depth);
                object(&[("cmd", "\"submit\""), ("tenant", &name), ("task", &nested)]).into_bytes()
            }
            3 => {
                let num = NOT_U64[pick(&mut rng, NOT_U64.len())];
                let task = match rng.below(5) {
                    0 => format!("{{\"id\":{num},\"duration\":1,\"deps\":[]}}"),
                    1 => "{\"id\":4294967296,\"duration\":1,\"deps\":[]}".to_string(),
                    2 => "{\"id\":0,\"kernel\":65536,\"duration\":1,\"deps\":[]}".to_string(),
                    3 => format!("{{\"id\":0,\"duration\":{num},\"deps\":[]}}"),
                    _ => format!(
                        "{{\"id\":0,\"duration\":1,\"deps\":[{{\"addr\":{num},\"dir\":\"in\"}}]}}"
                    ),
                };
                if rng.bool(0.3) {
                    object(&[("cmd", "\"advance\""), ("tenant", &name), ("cycle", num)])
                } else {
                    object(&[("cmd", "\"submit\""), ("tenant", &name), ("task", &task)])
                }
                .into_bytes()
            }
            _ => {
                let mut t = templates[pick(&mut rng, templates.len())].clone();
                let m = pick(&mut rng, t.len());
                let wrong = loop {
                    let (v, kind) = WRONG[pick(&mut rng, WRONG.len())];
                    if kind != t[m].2 {
                        break v;
                    }
                };
                t[m].1 = wrong;
                render(&t).into_bytes()
            }
        };
        if !String::from_utf8_lossy(&line).trim().is_empty() {
            out.push(line);
        }
    }
    out
}

/// One connection sends SplitMix64 garbage while a second runs a valid
/// tenant's whole conversation. Every garbage line is answered with
/// exactly one `ok:false` line, the server keeps serving, and the valid
/// tenant closes with its solo digest.
#[test]
fn garbage_on_one_connection_leaves_a_valid_tenant_bit_exact() {
    let server = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let spec = TenantSpec::new(BackendSpec::Nanos, 4);
    let trace = gen::stream(gen::StreamConfig::heavy(40));
    let lines = garbage(19, 2000, "valid", &spec, &trace);

    let closed = std::thread::scope(|s| {
        let valid = s.spawn(|| {
            let mut c = Client::connect(addr);
            // A missing answer fails the test instead of hanging it.
            c.writer
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            run_tenant(&mut c, "valid", &spec, &trace)
        });

        let mut g = Client::connect(addr);
        g.writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = g.writer.try_clone().unwrap();
        let n = lines.len();
        let sender = s.spawn(move || {
            for line in &lines {
                writer.write_all(line).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        });
        for i in 0..n {
            let v = g.response();
            let ok = v.as_obj().and_then(|o| o.get("ok"));
            assert_eq!(ok, Some(&Value::Bool(false)), "garbage line {i}: {v:?}");
        }
        sender.join().unwrap();
        // The garbage connection itself is still served, and its next
        // answer is this one's: no garbage line was answered twice.
        g.call_ok(&Request::Scrape);
        valid.join().unwrap()
    });
    assert_matches_solo(&closed, &spec, &trace);
    server.shutdown().unwrap();
}
