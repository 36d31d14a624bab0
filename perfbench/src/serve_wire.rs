//! `serve-wire`: `picos_serve::serve` on 127.0.0.1 in this process, one
//! client thread with two connections, 16 tenants on the `nanos` engine,
//! each fed a seeded stream. Most requests are `submit`; `advance`
//! carries the arrival cycles; `stats` and `scrape` come periodically;
//! tenants churn (`close`, then `open` under a new name) so journals stay
//! bounded. Host time per request is almost all in `serve` and
//! `trace::json`.
//!
//! * Phase A — an open loop at [`RATE_A`] requests/s, well below
//!   saturation; each request is timed from its due time (`op_p50_us`,
//!   `op_p90_us`) and the generator's lateness is reported.
//! * Phase B — a closed loop [`DEPTH_B`] requests deep, so the server never
//!   idles; accepted submits per second give `tasks_per_s`.
//!
//! Every `close` digest is checked, after both phases, against a solo
//! session fed the same accepted op stream.

use crate::ladder;
use crate::measure::{median, peak_rss_mb, Histogram, Layer, Metrics, Ops, Outcome, Tracer};
use picos_backend::{Admission, BackendSpec, SessionCore, SimSession};
use picos_core::DmDesign;
use picos_runtime::{ExecReport, JournaledSession};
use picos_serve::{
    parse_response, schedule_digest, serve, Request, ServeConfig, ServeHandle, ServerHandle,
    Service, SubmitOutcome, TenantSpec,
};
use picos_trace::gen::{self, StreamConfig};
use picos_trace::{parse_json, task_to_json, Trace};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
const CONNS: usize = 2;
const WORKERS: usize = 4;
/// Tasks per tenant lifetime; the tenant is then closed and reopened.
const LIFETIME: usize = 256;
/// One `advance` to the next task's arrival per this many submits.
const ADV_EVERY: usize = 4;
/// Canonical ops (advance + submit) of one lifetime.
const LIFETIME_OPS: usize = LIFETIME / ADV_EVERY * (ADV_EVERY + 1);
const STATS_EVERY: u64 = 64;
const SCRAPE_EVERY: u64 = 1024;
/// Distinct seeded tenant streams; lifetimes draw from this pool.
const POOL: usize = 32;
/// Phase A's offered rate, requests/s.
pub const RATE_A: f64 = 5_000.0;
/// Phase B's requests in flight (split over the connections).
pub const DEPTH_B: usize = 512;
const WINDOW_B: Duration = Duration::from_millis(250);
const SETUP_REPS: usize = 5;
const WARMUP_REQS: u64 = 8_000;
const WARMUP_DEPTH: usize = 64;
/// Scheduler rounds in the in-process rungs: one per this many requests,
/// like a server poll turn over a burst of lines.
const ROUND_EVERY: usize = 16;
/// Requests of the in-process ladder's op list.
const LADDER_OPS: usize = 20_000;
/// Longest wait for outstanding responses before a run is declared broken.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

const ACCEPTED: &str = "{\"ok\":true,\"outcome\":\"accepted\"}";

fn spec() -> TenantSpec {
    TenantSpec::new(BackendSpec::Nanos, WORKERS)
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pooled tenant stream, its arrivals and its tasks' wire JSON.
pub struct Stream {
    pub trace: Arc<Trace>,
    pub arrivals: Arc<Vec<u64>>,
    task_json: Vec<String>,
}

/// The seeded stream pool.
pub fn pool(seed: u64) -> Vec<Stream> {
    (0..POOL as u64)
        .map(|i| {
            let (trace, arrivals) = gen::stream_requests(StreamConfig {
                tasks: LIFETIME,
                interarrival: 100,
                streams: 4,
                max_deps: 3,
                write_fraction: 0.5,
                mean_duration: 300,
                seed: mix(seed, i),
            });
            let task_json = trace
                .iter()
                .map(|t| {
                    let mut s = String::new();
                    task_to_json(&mut s, t);
                    s
                })
                .collect();
            Stream {
                trace: Arc::new(trace),
                arrivals: Arc::new(arrivals),
                task_json,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Open,
    Submit,
    Advance,
    Stats,
    Scrape,
    Close,
}

impl Verb {
    pub const ALL: [Verb; 6] = [
        Verb::Open,
        Verb::Submit,
        Verb::Advance,
        Verb::Stats,
        Verb::Scrape,
        Verb::Close,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Open => "open",
            Verb::Submit => "submit",
            Verb::Advance => "advance",
            Verb::Stats => "stats",
            Verb::Scrape => "scrape",
            Verb::Close => "close",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Verb::Open => "wire.open",
            Verb::Submit => "wire.submit",
            Verb::Advance => "wire.advance",
            Verb::Stats => "wire.stats",
            Verb::Scrape => "wire.scrape",
            Verb::Close => "wire.close",
        }
    }
}

/// One request of the feed: `slot` and `life` name the tenant, `stream`
/// is the pool stream its lifetime runs and `task` indexes that stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open {
        slot: usize,
        life: u32,
        stream: usize,
    },
    Advance {
        slot: usize,
        life: u32,
        stream: usize,
        task: usize,
    },
    Submit {
        slot: usize,
        life: u32,
        stream: usize,
        task: usize,
    },
    Stats {
        slot: usize,
        life: u32,
    },
    Scrape,
    Close {
        slot: usize,
        life: u32,
        stream: usize,
    },
}

impl Op {
    pub fn verb(&self) -> Verb {
        match self {
            Op::Open { .. } => Verb::Open,
            Op::Advance { .. } => Verb::Advance,
            Op::Submit { .. } => Verb::Submit,
            Op::Stats { .. } => Verb::Stats,
            Op::Scrape => Verb::Scrape,
            Op::Close { .. } => Verb::Close,
        }
    }
}

/// Canonical op `j` of a lifetime: `(is_advance, task)`.
fn canonical(j: usize) -> (bool, usize) {
    let block = j / (ADV_EVERY + 1);
    let r = j % (ADV_EVERY + 1);
    if r == 0 {
        (true, block * ADV_EVERY)
    } else {
        (false, block * ADV_EVERY + r - 1)
    }
}

fn tenant_name(slot: usize, life: u32) -> String {
    format!("t{slot:02}g{life}")
}

#[derive(Debug, Clone)]
struct Slot {
    id: usize,
    life: u32,
    stream: usize,
    /// Next canonical op; `None` while the tenant is closed.
    next: Option<usize>,
}

/// The deterministic request generator of one connection: round-robin
/// over its tenants, each running lifetimes of [`LIFETIME`] tasks.
#[derive(Debug, Clone)]
pub struct Feed {
    seed: u64,
    slots: Vec<Slot>,
    rr: usize,
    emitted: u64,
    stats_for: Option<(usize, u32)>,
}

impl Feed {
    pub fn new(conn: usize, seed: u64) -> Feed {
        let slots = (conn..TENANTS)
            .step_by(CONNS)
            .map(|id| Slot {
                id,
                life: 0,
                stream: (mix(seed, 1000 + id as u64) % POOL as u64) as usize,
                next: None,
            })
            .collect();
        Feed {
            seed,
            slots,
            rr: 0,
            emitted: 0,
            stats_for: None,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.emitted += 1;
        if self.emitted.is_multiple_of(SCRAPE_EVERY) {
            return Op::Scrape;
        }
        if let Some((slot, life)) = self.stats_for.take() {
            return Op::Stats { slot, life };
        }
        let k = self.rr % self.slots.len();
        self.rr += 1;
        let s = &mut self.slots[k];
        let Some(j) = s.next else {
            s.next = Some(0);
            return Op::Open {
                slot: s.id,
                life: s.life,
                stream: s.stream,
            };
        };
        if j == LIFETIME_OPS {
            return self.close_slot(k);
        }
        s.next = Some(j + 1);
        match canonical(j) {
            (true, task) => Op::Advance {
                slot: s.id,
                life: s.life,
                stream: s.stream,
                task,
            },
            (false, task) => {
                if self.emitted.is_multiple_of(STATS_EVERY) {
                    self.stats_for = Some((s.id, s.life));
                }
                Op::Submit {
                    slot: s.id,
                    life: s.life,
                    stream: s.stream,
                    task,
                }
            }
        }
    }

    fn close_slot(&mut self, k: usize) -> Op {
        let s = &mut self.slots[k];
        let op = Op::Close {
            slot: s.id,
            life: s.life,
            stream: s.stream,
        };
        s.next = None;
        s.life += 1;
        s.stream =
            (mix(self.seed, ((s.id as u64) << 32) | u64::from(s.life)) % POOL as u64) as usize;
        op
    }

    /// Closes every open tenant (end of run).
    pub fn close_all(&mut self) -> Vec<Op> {
        self.stats_for = None;
        let open: Vec<usize> = (0..self.slots.len())
            .filter(|&k| self.slots[k].next.is_some())
            .collect();
        open.into_iter().map(|k| self.close_slot(k)).collect()
    }
}

/// Renders an op as its protocol line (the `Request::to_line` form, with
/// the task JSON rendered once at set-up).
fn render(op: &Op, pool: &[Stream], spec_json: &str) -> String {
    match *op {
        Op::Open { slot, life, .. } => format!(
            "{{\"cmd\":\"open\",\"tenant\":\"{}\",\"spec\":{spec_json}}}",
            tenant_name(slot, life)
        ),
        Op::Advance {
            slot,
            life,
            stream,
            task,
        } => format!(
            "{{\"cmd\":\"advance\",\"tenant\":\"{}\",\"cycle\":{}}}",
            tenant_name(slot, life),
            pool[stream].arrivals[task]
        ),
        Op::Submit {
            slot,
            life,
            stream,
            task,
        } => format!(
            "{{\"cmd\":\"submit\",\"tenant\":\"{}\",\"task\":{}}}",
            tenant_name(slot, life),
            pool[stream].task_json[task]
        ),
        Op::Stats { slot, life } => format!(
            "{{\"cmd\":\"stats\",\"tenant\":\"{}\"}}",
            tenant_name(slot, life)
        ),
        Op::Scrape => "{\"cmd\":\"scrape\"}".to_string(),
        Op::Close { slot, life, .. } => format!(
            "{{\"cmd\":\"close\",\"tenant\":\"{}\"}}",
            tenant_name(slot, life)
        ),
    }
}

/// A generated request sequence with its rendered lines.
struct Script {
    ops: Vec<Op>,
    lines: Vec<String>,
}

/// What the client does while it waits for the server: it yields the CPU
/// (to the server thread, which shares it) but never sleeps. A sleeping
/// client lets the vCPU halt, and on a shared host every wake-up of a
/// halted vCPU can wait milliseconds for a physical CPU, which then shows
/// up in the latency tail (see FINDINGS.md).
fn idle() {
    std::thread::yield_now();
}

/// A request awaiting its response.
#[derive(Debug, Clone, Copy)]
struct Pending {
    due: Instant,
    op: Op,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    scanned: usize,
    pending: VecDeque<Pending>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            inbuf: Vec::with_capacity(64 * 1024),
            scanned: 0,
            pending: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut sent = 0;
        while sent < self.out.len() {
            match self.stream.write(&self.out[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..sent);
        Ok(())
    }

    /// Reads what the socket has and hands each complete response line to
    /// `on` with the request it answers. Returns the lines handled.
    fn read_lines(&mut self, mut on: impl FnMut(Pending, &str, Instant)) -> std::io::Result<usize> {
        let mut chunk = [0u8; 64 * 1024];
        let mut handled = 0;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    let now = Instant::now();
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(off) =
                        self.inbuf[self.scanned..].iter().position(|&b| b == b'\n')
                    {
                        let end = self.scanned + off;
                        let line = std::str::from_utf8(&self.inbuf[start..end]).unwrap_or("");
                        let p = self
                            .pending
                            .pop_front()
                            .ok_or_else(|| std::io::Error::other("response without a request"))?;
                        on(p, line, now);
                        handled += 1;
                        start = end + 1;
                        self.scanned = start;
                    }
                    self.scanned = self.inbuf.len();
                    self.inbuf.drain(..start);
                    self.scanned -= start;
                    if n < chunk.len() {
                        return Ok(handled);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(handled),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What a closed lifetime must reproduce: its stream, the canonical ops
/// answered, and the submits the service did not accept.
type LifeKey = (usize, usize, Vec<u32>);

#[derive(Debug, Default, Clone)]
struct Life {
    ops_done: usize,
    rejected: Vec<u32>,
}

/// Response-side bookkeeping shared by every phase.
#[derive(Default)]
struct Tally {
    ops: Ops,
    accepted: u64,
    rejected: u64,
    lives: Vec<Life>,
    /// Close digests observed per lifetime key, with their counts.
    closes: BTreeMap<LifeKey, BTreeMap<u64, u64>>,
    errors: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            lives: vec![Life::default(); TENANTS],
            ..Tally::default()
        }
    }

    fn fail(&mut self, why: String) {
        self.ops.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Folds one response in; returns whether it was an accepted submit.
    fn on_response(&mut self, op: &Op, line: &str) -> bool {
        self.ops.attempted += 1;
        if !line.starts_with("{\"ok\":true") {
            self.fail(format!("{op:?}: {line}"));
            return false;
        }
        match *op {
            Op::Open { slot, .. } => self.lives[slot] = Life::default(),
            Op::Advance { slot, .. } => self.lives[slot].ops_done += 1,
            Op::Submit { slot, task, .. } => {
                self.lives[slot].ops_done += 1;
                if line == ACCEPTED {
                    self.accepted += 1;
                    return true;
                }
                self.rejected += 1;
                self.lives[slot].rejected.push(task as u32);
            }
            Op::Stats { .. } | Op::Scrape => {}
            Op::Close { slot, stream, .. } => {
                let digest = parse_response(line).ok().and_then(|v| {
                    v.as_obj()
                        .and_then(|o| o.get("digest"))
                        .and_then(|d| d.as_int())
                });
                match digest {
                    Some(d) => {
                        let life = std::mem::take(&mut self.lives[slot]);
                        *self
                            .closes
                            .entry((stream, life.ops_done, life.rejected))
                            .or_default()
                            .entry(d)
                            .or_default() += 1;
                    }
                    None => self.fail(format!("close without a digest: {line}")),
                }
            }
        }
        false
    }
}

/// The single client thread: two connections, their feeds and the tally.
struct Client {
    conns: Vec<Conn>,
    feeds: Vec<Feed>,
    spec_json: String,
    pool: Arc<Vec<Stream>>,
    tally: Tally,
}

impl Client {
    fn send(&mut self, c: usize, op: Op, due: Instant) {
        let line = render(&op, &self.pool, &self.spec_json);
        let conn = &mut self.conns[c];
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        conn.pending.push_back(Pending { due, op });
    }

    fn send_next(&mut self, c: usize, due: Instant) {
        let op = self.feeds[c].next_op();
        self.send(c, op, due);
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Flushes and reads every connection once; `on` sees each response.
    fn poll(&mut self, mut on: impl FnMut(&Pending, &str, Instant, bool)) -> std::io::Result<bool> {
        let mut any = false;
        let tally = &mut self.tally;
        for conn in &mut self.conns {
            conn.flush()?;
            let n = conn.read_lines(|p, line, now| {
                let accepted = tally.on_response(&p.op, line);
                on(&p, line, now, accepted);
            })?;
            any |= n > 0;
        }
        Ok(any)
    }

    /// Waits for every outstanding response.
    fn drain(&mut self) -> Result<(), String> {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.outstanding() > 0 {
            if !self.poll(|_, _, _, _| {}).map_err(|e| e.to_string())? {
                if Instant::now() > limit {
                    return Err(format!("{} responses never arrived", self.outstanding()));
                }
                idle();
            }
        }
        Ok(())
    }

    /// A closed loop `depth` requests deep until `requests` were sent.
    fn closed_loop(&mut self, requests: u64, depth: usize) -> Result<(), String> {
        let mut sent = 0;
        while sent < requests {
            for c in 0..CONNS {
                while self.conns[c].pending.len() < depth / CONNS && sent < requests {
                    self.send_next(c, Instant::now());
                    sent += 1;
                }
            }
            if !self.poll(|_, _, _, _| {}).map_err(|e| e.to_string())? {
                idle();
            }
        }
        self.drain()
    }

    /// Closes every open tenant and waits for the answers.
    fn close_all(&mut self) -> Result<(), String> {
        for c in 0..CONNS {
            for op in self.feeds[c].close_all() {
                self.send(c, op, Instant::now());
            }
        }
        self.drain()
    }
}

struct Setup {
    client: Client,
    server: ServerHandle,
    gen_s: f64,
    build_s: f64,
    warmup_s: f64,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let t0 = Instant::now();
    let pool = Arc::new(tracer.span(Layer::Trace, "gen.stream_requests", || pool(seed)));
    let gen_s = t0.elapsed().as_secs_f64();
    let server = tracer
        .span(Layer::Serve, "server.bind", || {
            serve(ServeConfig::default(), "127.0.0.1:0")
        })
        .map_err(|e| format!("bind: {e}"))?;
    let conns = tracer
        .span(Layer::Serve, "server.connect", || {
            (0..CONNS)
                .map(|_| Conn::connect(server.addr()))
                .collect::<std::io::Result<Vec<_>>>()
        })
        .map_err(|e| format!("connect: {e}"))?;
    let build_s = t0.elapsed().as_secs_f64();
    let mut client = Client {
        conns,
        feeds: (0..CONNS).map(|c| Feed::new(c, seed)).collect(),
        spec_json: spec().to_json(),
        pool,
        tally: Tally::new(),
    };
    let t1 = Instant::now();
    let s = tracer.begin(Layer::Serve, "wire.warmup");
    client.closed_loop(WARMUP_REQS, WARMUP_DEPTH)?;
    tracer.end(s);
    Ok(Setup {
        client,
        server,
        gen_s,
        build_s,
        warmup_s: t1.elapsed().as_secs_f64(),
    })
}

/// Phase A's measurements.
pub struct PhaseA {
    pub all: Histogram,
    pub verbs: Vec<Histogram>,
    pub late: Histogram,
    /// p50 and p90 of each [`WINDOW_A`] of response arrivals, in ns.
    pub windows: Vec<(f64, f64)>,
}

/// Phase A's latency is summarised per window of response arrivals, and
/// the end-to-end p50 and p90 are the medians over windows: a burst of
/// host steal then moves one window's figures, not the run's.
const WINDOW_A: Duration = Duration::from_secs(1);

fn phase_a(client: &mut Client, dur: Duration, tracer: &mut Tracer) -> Result<PhaseA, String> {
    let mut a = PhaseA {
        all: Histogram::default(),
        verbs: vec![Histogram::default(); Verb::ALL.len()],
        late: Histogram::default(),
        windows: Vec::new(),
    };
    let gap = Duration::from_secs_f64(1.0 / RATE_A);
    let start = Instant::now();
    // Responses after the last full window count in the last one.
    let last_window = (dur.as_secs_f64() / WINDOW_A.as_secs_f64())
        .floor()
        .max(1.0) as usize
        - 1;
    let mut window = Histogram::default();
    let mut window_index = 0;
    let mut k: u32 = 0;
    loop {
        let now = Instant::now();
        let offset = gap * k;
        let due = start + offset;
        if offset < dur && now >= due {
            a.late.record_dur(now - due);
            client.send_next(k as usize % CONNS, due);
            client.conns[k as usize % CONNS]
                .flush()
                .map_err(|e| e.to_string())?;
            k += 1;
            continue;
        }
        if offset >= dur && client.outstanding() == 0 {
            a.windows
                .push((window.quantile_ns(0.5), window.quantile_ns(0.9)));
            return Ok(a);
        }
        let progressed = client
            .poll(|p, _, at, _| {
                let verb = p.op.verb();
                let lat = at - p.due;
                let w = (((at - start).as_secs_f64() / WINDOW_A.as_secs_f64()) as usize)
                    .min(last_window);
                if w > window_index {
                    a.windows
                        .push((window.quantile_ns(0.5), window.quantile_ns(0.9)));
                    window = Histogram::default();
                    window_index = w;
                }
                window.record_dur(lat);
                a.all.record_dur(lat);
                a.verbs[verb as usize].record_dur(lat);
                tracer.record(Layer::Serve, verb.span(), p.due, at);
            })
            .map_err(|e| e.to_string())?;
        if !progressed {
            if now > start + dur + DRAIN_LIMIT {
                return Err(format!(
                    "{} phase-A responses never arrived",
                    client.outstanding()
                ));
            }
            idle();
        }
    }
}

/// Phase B: accepted submits per second over fixed windows, median.
fn phase_b(client: &mut Client, dur: Duration, tracer: &mut Tracer) -> Result<f64, String> {
    let windows = (dur.as_secs_f64() / WINDOW_B.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut accepted = vec![0u64; windows];
    let start = Instant::now();
    let s = tracer.begin(Layer::Serve, "wire.phase_b");
    while start.elapsed() < WINDOW_B * windows as u32 {
        for c in 0..CONNS {
            while client.conns[c].pending.len() < DEPTH_B / CONNS {
                client.send_next(c, Instant::now());
            }
        }
        let progressed = client
            .poll(|_, _, at, ok| {
                let w = ((at - start).as_secs_f64() / WINDOW_B.as_secs_f64()) as usize;
                if ok && w < windows {
                    accepted[w] += 1;
                }
            })
            .map_err(|e| e.to_string())?;
        if !progressed {
            idle();
        }
    }
    client.drain()?;
    tracer.end(s);
    let rates: Vec<f64> = accepted
        .iter()
        .map(|&n| n as f64 / WINDOW_B.as_secs_f64())
        .collect();
    Ok(median(&rates))
}

/// Runs a solo session (the service's own configuration) through the
/// canonical ops a lifetime answered, skipping the submits the service
/// rejected, and returns the schedule digest.
fn reference(stream: &Stream, ops_done: usize, rejected: &[u32]) -> Result<u64, String> {
    let spec = spec();
    let backend = spec.build_backend();
    let mut s = backend
        .open_with(spec.effective_session_config(ServeConfig::default().default_quota))
        .map_err(|e| e.to_string())?;
    for j in 0..ops_done {
        match canonical(j) {
            (true, task) => s.advance_to(stream.arrivals[task]),
            (false, task) if !rejected.contains(&(task as u32)) => {
                while s.submit(&stream.trace.tasks()[task]) == Admission::Backpressured {
                    if !s.step() {
                        return Err("reference session cannot progress".into());
                    }
                }
            }
            _ => {}
        }
    }
    let (report, _) = SimSession::finish(s).map_err(|e| e.to_string())?;
    Ok(schedule_digest(&report))
}

/// The close-digest gate: each observed digest must equal its reference.
fn verify(tally: &Tally, pool: &[Stream]) -> Ops {
    let mut ops = Ops::default();
    for ((stream, ops_done, rejected), digests) in &tally.closes {
        let want = reference(&pool[*stream], *ops_done, rejected);
        for (digest, n) in digests {
            ops.attempted += n;
            if want.as_ref() != Ok(digest) {
                ops.failed += n;
            }
        }
    }
    ops
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(seed, budget, tracer, &mut out) {
        Ok(()) => out,
        Err(e) => {
            out.problems.push(e);
            out.ops.failed += 1;
            out.ops.attempted += 1;
            out
        }
    }
}

fn run_inner(
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut totals = Vec::new();
    let (mut gens, mut builds, mut warmups) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup(seed, tracer)?;
        totals.push(t0.elapsed().as_secs_f64());
        gens.push(s.gen_s);
        builds.push(s.build_s);
        warmups.push(s.warmup_s);
        if rep + 1 < SETUP_REPS {
            out.ops.add(s.client.tally.ops);
            drop(s.client);
            s.server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        } else {
            kept = Some(s);
        }
    }
    let Setup {
        mut client, server, ..
    } = kept.expect("at least one set-up");
    let a = phase_a(&mut client, budget / 2, tracer)?;
    let tasks_per_s = phase_b(&mut client, budget / 2, tracer)?;
    client.close_all()?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let checked = tracer.span(Layer::Runtime, "reference.digests", || {
        verify(&client.tally, &client.pool)
    });
    out.ops.add(client.tally.ops);
    out.ops.add(checked);
    out.problems.extend(client.tally.errors.iter().cloned());

    let beyond = a.all.beyond(0.9);
    if beyond < 10 {
        out.problems
            .push(format!("only {beyond} phase-A samples beyond p90"));
    }
    let m = &mut out.metrics;
    m.put("tasks_per_s", tasks_per_s, "1/s");
    m.put("setup_s", median(&totals), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let p50s: Vec<f64> = a.windows.iter().map(|w| w.0).collect();
    let p90s: Vec<f64> = a.windows.iter().map(|w| w.1).collect();
    m.put("op_p50_us", median(&p50s) / 1e3, "us");
    m.put("op_p90_us", median(&p90s) / 1e3, "us");
    wire_metrics(&a, m);
    m.put(
        "trace.gen.ns_per_task",
        median(&gens) * 1e9 / (POOL * LIFETIME) as f64,
        "ns",
    );
    m.put("setup.build_s", median(&builds), "s");
    m.put("setup.warmup_s", median(&warmups), "s");
    m.put("serve.wire.beyond_p90", beyond as f64, "count");
    m.put(
        "serve.wire.rejected_submits",
        client.tally.rejected as f64,
        "count",
    );
    Ok(())
}

/// Phase A's open-loop accounting: per-verb counts and percentiles, the
/// overall tail, and how late the generator ran.
fn wire_metrics(a: &PhaseA, m: &mut Metrics) {
    for verb in Verb::ALL {
        let h = &a.verbs[verb as usize];
        let name = verb.name();
        m.put(
            format!("serve.wire.{name}.count"),
            h.count() as f64,
            "count",
        );
        m.put(
            format!("serve.wire.{name}.p50_us"),
            h.quantile_ns(0.5) / 1e3,
            "us",
        );
        m.put(
            format!("serve.wire.{name}.p90_us"),
            h.quantile_ns(0.9) / 1e3,
            "us",
        );
    }
    m.put("serve.wire.p99_us", a.all.quantile_ns(0.99) / 1e3, "us");
    m.put("serve.wire.max_us", a.all.max_ns() as f64 / 1e3, "us");
    m.put(
        "serve.wire.gen_late_max_us",
        a.late.max_ns() as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.wire.gen_late_p99_us",
        a.late.quantile_ns(0.99) / 1e3,
        "us",
    );
}

/// The in-process op list of the ladder: the same feeds, interleaved like
/// phase A, then every tenant closed.
fn script(seed: u64, pool: &[Stream]) -> Script {
    let mut feeds: Vec<Feed> = (0..CONNS).map(|c| Feed::new(c, seed)).collect();
    let mut ops: Vec<Op> = (0..LADDER_OPS)
        .map(|k| feeds[k % CONNS].next_op())
        .collect();
    for f in &mut feeds {
        ops.extend(f.close_all());
    }
    let spec_json = spec().to_json();
    let lines = ops.iter().map(|op| render(op, pool, &spec_json)).collect();
    Script { ops, lines }
}

/// One solo rung: every tenant lifetime on its own session, ops applied in
/// script order. Returns the close digests in order.
fn solo_rung<S: SessionCore>(
    script: &Script,
    pool: &[Stream],
    tracer: &mut Tracer,
    layer: Layer,
    names: [&'static str; 4],
    open: impl Fn() -> Result<S, String>,
    finish: impl Fn(S) -> Result<ExecReport, String>,
) -> Result<Vec<u64>, String> {
    let [n_open, n_adv, n_sub, n_close] = names;
    let mut sessions: Vec<Option<S>> = (0..TENANTS).map(|_| None).collect();
    let mut digests = Vec::new();
    for op in &script.ops {
        match *op {
            Op::Open { slot, .. } => {
                sessions[slot] = Some(tracer.span(layer, n_open, &open)?);
            }
            Op::Advance {
                slot, stream, task, ..
            } => {
                let s = sessions[slot]
                    .as_mut()
                    .ok_or("advance on a closed tenant")?;
                let cycle = pool[stream].arrivals[task];
                tracer.span(layer, n_adv, || s.advance_to(cycle));
            }
            Op::Submit {
                slot, stream, task, ..
            } => {
                let s = sessions[slot].as_mut().ok_or("submit on a closed tenant")?;
                let t = &pool[stream].trace.tasks()[task];
                tracer.span(layer, n_sub, || {
                    while s.submit(t) == Admission::Backpressured {
                        if !s.step() {
                            return Err("solo session cannot progress");
                        }
                    }
                    Ok(())
                })?;
            }
            Op::Close { slot, .. } => {
                let s = sessions[slot].take().ok_or("close of a closed tenant")?;
                let report = tracer.span(layer, n_close, || finish(s))?;
                digests.push(schedule_digest(&report));
            }
            Op::Stats { .. } | Op::Scrape => {}
        }
    }
    Ok(digests)
}

struct ServiceRun {
    digests: Vec<u64>,
    rounds: u64,
    accepted: u64,
    retries: u64,
}

/// The `Service` rung: the typed in-process API, a scheduler round every
/// [`ROUND_EVERY`] requests and after every rejected submit.
fn service_rung(
    script: &Script,
    pool: &[Stream],
    tracer: &mut Tracer,
) -> Result<ServiceRun, String> {
    let mut svc = Service::new(ServeConfig::default()).map_err(|e| e.to_string())?;
    let spec = spec();
    let mut run = ServiceRun {
        digests: Vec::new(),
        rounds: 0,
        accepted: 0,
        retries: 0,
    };
    let err = |e: picos_serve::ServeError| e.to_string();
    for (n, op) in script.ops.iter().enumerate() {
        match *op {
            Op::Open { slot, life, .. } => {
                let name = tenant_name(slot, life);
                tracer
                    .span(Layer::Serve, "svc.open", || svc.open(&name, &spec))
                    .map_err(err)?;
            }
            Op::Advance {
                slot,
                life,
                stream,
                task,
            } => {
                let name = tenant_name(slot, life);
                let cycle = pool[stream].arrivals[task];
                tracer
                    .span(Layer::Serve, "svc.advance", || svc.advance_to(&name, cycle))
                    .map_err(err)?;
            }
            Op::Submit {
                slot,
                life,
                stream,
                task,
            } => {
                let name = tenant_name(slot, life);
                let t = &pool[stream].trace.tasks()[task];
                loop {
                    let outcome = tracer
                        .span(Layer::Serve, "svc.submit", || svc.submit(&name, t))
                        .map_err(err)?;
                    if outcome == SubmitOutcome::Accepted {
                        run.accepted += 1;
                        break;
                    }
                    run.retries += 1;
                    tracer.span(Layer::Serve, "svc.run_round", || svc.run_round());
                    run.rounds += 1;
                }
            }
            Op::Stats { slot, life } => {
                let name = tenant_name(slot, life);
                tracer
                    .span(Layer::Serve, "svc.stats", || svc.stats(&name))
                    .map_err(err)?;
            }
            Op::Scrape => {
                tracer.span(Layer::Serve, "svc.scrape", || svc.scrape());
            }
            Op::Close { slot, life, .. } => {
                let name = tenant_name(slot, life);
                let out = tracer
                    .span(Layer::Serve, "svc.close", || svc.close(&name))
                    .map_err(err)?;
                run.digests.push(schedule_digest(&out.report));
            }
        }
        if n % ROUND_EVERY == ROUND_EVERY - 1 {
            tracer.span(Layer::Serve, "svc.run_round", || svc.run_round());
            run.rounds += 1;
        }
    }
    Ok(run)
}

/// The `ServeHandle::handle_line` rung; records each line's in-process
/// latency. Returns the close digests.
fn proto_rung(
    script: &Script,
    tracer: &mut Tracer,
    latency: &mut Histogram,
) -> Result<Vec<u64>, String> {
    let mut h = ServeHandle::new(ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut digests = Vec::new();
    for (n, (op, line)) in script.ops.iter().zip(&script.lines).enumerate() {
        loop {
            let t0 = Instant::now();
            let resp = tracer.span(Layer::Serve, "proto.handle_line", || h.handle_line(line));
            latency.record_dur(t0.elapsed());
            if !resp.starts_with("{\"ok\":true") {
                return Err(format!("{op:?}: {resp}"));
            }
            if matches!(op, Op::Submit { .. }) && resp != ACCEPTED {
                h.service_mut().run_round();
                continue;
            }
            if matches!(op, Op::Close { .. }) {
                let d = parse_response(&resp)
                    .ok()
                    .and_then(|v| {
                        v.as_obj()
                            .and_then(|o| o.get("digest"))
                            .and_then(|d| d.as_int())
                    })
                    .ok_or("close without a digest")?;
                digests.push(d);
            }
            break;
        }
        if n % ROUND_EVERY == ROUND_EVERY - 1 {
            h.service_mut().run_round();
        }
    }
    Ok(digests)
}

/// The protocol's parts on the same lines: `parse_json` alone, then
/// `Request::parse` → `handle` → `Response::to_line`.
fn proto_parts(script: &Script, tracer: &mut Tracer) -> Result<(), String> {
    for line in &script.lines {
        tracer
            .span(Layer::Trace, "json.parse", || parse_json(line))
            .map_err(|e| e.to_string())?;
    }
    let mut h = ServeHandle::new(ServeConfig::default()).map_err(|e| e.to_string())?;
    for (n, line) in script.lines.iter().enumerate() {
        let req = tracer.span(Layer::Serve, "proto.parse", || Request::parse(line))?;
        let resp = tracer.span(Layer::Serve, "proto.handle", || h.handle(&req));
        let text = tracer.span(Layer::Serve, "proto.format", || resp.to_line());
        std::hint::black_box(text);
        if n % ROUND_EVERY == ROUND_EVERY - 1 {
            h.service_mut().run_round();
        }
    }
    Ok(())
}

/// The serve ladder: solo `nanos` sessions → `JournaledSession` →
/// `Service` → `ServeHandle::handle_line` (and its parts), all fed the same
/// script; `wire_p50_us` is phase A's p50 from the untraced pass of this
/// run. Every rung must produce the same close digests.
pub fn ladder(seed: u64, budget: Duration, wire_p50_us: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool(seed);
    let traces: Vec<_> = pool.iter().map(|s| s.trace.clone()).collect();
    let batch = ladder::batch(&traces, &DmDesign::ALL, budget / 6, tracer);
    out.ops.add(batch.ops);
    out.metrics.extend(batch.metrics);
    let cells = ladder::hil(&traces, WORKERS, budget / 6, tracer);
    out.ops.add(cells.ops);
    out.metrics.extend(cells.metrics);
    let streams: Vec<_> = pool
        .iter()
        .take(4)
        .map(|s| (s.trace.clone(), s.arrivals.clone()))
        .collect();
    let paced = ladder::paced(&streams, WORKERS, 64, budget / 6, tracer);
    out.ops.add(paced.ops);
    out.metrics.extend(paced.metrics);
    if let Err(e) = serve_ladder(seed, &pool, budget / 2, wire_p50_us, tracer, &mut out) {
        out.problems.push(e);
        out.ops.attempted += 1;
        out.ops.failed += 1;
    }
    out
}

fn serve_ladder(
    seed: u64,
    pool: &[Stream],
    budget: Duration,
    wire_p50_us: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let script = script(seed, pool);
    let spec = spec();
    let cfg = spec.effective_session_config(ServeConfig::default().default_quota);
    let backend = spec.build_backend();
    let open = || backend.open_with(cfg).map_err(|e| e.to_string());
    let finish = |s: Box<dyn SimSession>| {
        SimSession::finish(s)
            .map(|(r, _)| r)
            .map_err(|e| e.to_string())
    };
    let mut latency = Histogram::default();
    let deadline = Instant::now() + budget;
    let mut rounds = 0u64;
    let mut service = None;
    while Instant::now() < deadline || rounds == 0 {
        rounds += 1;
        let solo = solo_rung(
            &script,
            pool,
            tracer,
            Layer::Runtime,
            ["nanos.open", "nanos.advance", "nanos.submit", "nanos.close"],
            open,
            finish,
        )?;
        let journaled = solo_rung(
            &script,
            pool,
            tracer,
            Layer::Runtime,
            [
                "journal.open",
                "journal.advance",
                "journal.submit",
                "journal.close",
            ],
            || open().map(JournaledSession::new),
            |s| finish(s.into_parts().0),
        )?;
        let svc = service_rung(&script, pool, tracer)?;
        let proto = proto_rung(&script, tracer, &mut latency)?;
        proto_parts(&script, tracer)?;
        for digests in [&journaled, &svc.digests, &proto] {
            out.ops.attempted += solo.len() as u64;
            out.ops.failed += solo.iter().zip(digests).filter(|(a, b)| a != b).count() as u64
                + solo.len().abs_diff(digests.len()) as u64;
        }
        service = Some(svc);
    }
    let svc = service.expect("at least one round");
    let count = |pred: fn(&Op) -> bool| {
        script.ops.iter().filter(|op| pred(op)).count() as f64 * rounds as f64
    };
    let tasks = count(|op| matches!(op, Op::Submit { .. }));
    let engine_ops = count(|op| !matches!(op, Op::Stats { .. } | Op::Scrape));
    let lines = count(|_| true);
    let sum = |layer: Layer, ops: &[&str]| {
        ops.iter()
            .map(|op| tracer.total(layer, op).0 as f64)
            .sum::<f64>()
    };
    let nanos = sum(
        Layer::Runtime,
        &["nanos.open", "nanos.advance", "nanos.submit", "nanos.close"],
    );
    let journal = sum(
        Layer::Runtime,
        &[
            "journal.open",
            "journal.advance",
            "journal.submit",
            "journal.close",
        ],
    );
    let service_engine = sum(
        Layer::Serve,
        &["svc.open", "svc.advance", "svc.submit", "svc.close"],
    );
    let service_all = service_engine + sum(Layer::Serve, &["svc.stats", "svc.scrape"]);
    let (round_ns, round_count) = tracer.total(Layer::Serve, "svc.run_round");
    let handle_line = sum(Layer::Serve, &["proto.handle_line"]);
    let m = &mut out.metrics;
    m.put("runtime.nanos.ns_per_task", nanos / tasks, "ns");
    m.put(
        "runtime.journal.self_ns_per_op",
        (journal - nanos) / engine_ops,
        "ns",
    );
    m.put(
        "serve.service.self_ns_per_op",
        (service_engine - journal) / engine_ops,
        "ns",
    );
    m.put(
        "serve.service.run_round_ns",
        round_ns as f64 / round_count.max(1) as f64,
        "ns",
    );
    m.put("serve.service.rounds", svc.rounds as f64, "count");
    m.put(
        "serve.service.accept_ratio",
        svc.accepted as f64 / (svc.accepted + svc.retries).max(1) as f64,
        "ratio",
    );
    m.put(
        "serve.proto.self_ns_per_line",
        (handle_line - service_all) / lines,
        "ns",
    );
    m.put(
        "trace.json.parse_ns_per_line",
        sum(Layer::Trace, &["json.parse"]) / lines,
        "ns",
    );
    m.put(
        "serve.proto.format_ns_per_line",
        sum(Layer::Serve, &["proto.format"]) / lines,
        "ns",
    );
    m.put(
        "serve.proto.parse_ns_per_line",
        sum(Layer::Serve, &["proto.parse"]) / lines,
        "ns",
    );
    m.put(
        "serve.server.wait_us_p50",
        wire_p50_us - latency.quantile_ns(0.5) / 1e3,
        "us",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_lines_are_the_protocol_lines() {
        let pool = pool(7);
        let script = script(7, &pool);
        let mut seen = [false; 6];
        for line in &script.lines {
            let req = Request::parse(line).expect("rendered line parses");
            assert_eq!(&req.to_line(), line);
            let verb = line.split('"').nth(3).expect("cmd field");
            if let Some(v) = Verb::ALL.iter().position(|v| v.name() == verb) {
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every verb appears: {seen:?}");
    }

    #[test]
    fn feeds_cycle_lifetimes_and_submit_most() {
        let mut f = Feed::new(0, 1);
        let ops: Vec<Op> = (0..20_000).map(|_| f.next_op()).collect();
        let count = |v: Verb| ops.iter().filter(|o| o.verb() == v).count();
        assert!(count(Verb::Submit) > ops.len() * 3 / 4);
        let (opens, closes) = (count(Verb::Open), count(Verb::Close));
        assert!(closes > 0 && opens >= closes && opens <= closes + TENANTS / CONNS);
        assert!(count(Verb::Stats) > 0 && count(Verb::Scrape) > 0);
    }

    #[test]
    fn canonical_ops_interleave_advances() {
        assert_eq!(canonical(0), (true, 0));
        assert_eq!(canonical(1), (false, 0));
        assert_eq!(canonical(4), (false, 3));
        assert_eq!(canonical(5), (true, 4));
        assert_eq!(canonical(LIFETIME_OPS - 1), (false, LIFETIME - 1));
    }

    #[test]
    fn a_perturbed_close_digest_counts_one_failure() {
        let pool = pool(3);
        let (slot, life, stream) = (0, 0, 5);
        let mut tally = Tally::new();
        assert!(!tally.on_response(&Op::Open { slot, life, stream }, "{\"ok\":true}"));
        for j in 0..12 {
            let (op, line) = match canonical(j) {
                (true, task) => (
                    Op::Advance {
                        slot,
                        life,
                        stream,
                        task,
                    },
                    "{\"ok\":true}",
                ),
                (false, task) => (
                    Op::Submit {
                        slot,
                        life,
                        stream,
                        task,
                    },
                    ACCEPTED,
                ),
            };
            tally.on_response(&op, line);
        }
        let digest = reference(&pool[stream], 12, &[]).expect("reference runs");
        let close = Op::Close { slot, life, stream };
        let line = |d: u64| format!("{{\"ok\":true,\"tasks\":9,\"digest\":{d}}}");
        let mut good = Tally::new();
        good.lives = tally.lives.clone();
        good.on_response(&close, &line(digest));
        let passed = Ops {
            attempted: 1,
            failed: 0,
        };
        assert_eq!(verify(&good, &pool), passed);
        tally.on_response(&close, &line(digest ^ 1));
        let failed = Ops {
            attempted: 1,
            failed: 1,
        };
        assert_eq!(verify(&tally, &pool), failed);
    }

    #[test]
    fn error_responses_are_failures() {
        let mut tally = Tally::new();
        tally.on_response(&Op::Scrape, "{\"ok\":false,\"error\":\"x\"}");
        assert_eq!(
            tally.ops,
            Ops {
                attempted: 1,
                failed: 1
            }
        );
    }
}
