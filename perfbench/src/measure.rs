//! Measurement plumbing: latency histograms, medians, peak RSS, the
//! in-memory span recorder of traced runs, and the metric list a run
//! prints.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two: bucket width is 1/256 of its octave
/// (0.4%), so percentiles interpolated inside a bucket keep their digits.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range: covers latencies up to ~2^44 ns.
const OCTAVES: u64 = 44 - SUB_BITS as u64;

/// A fixed-size log-linear histogram of nanosecond samples. Memory does
/// not grow with run length, unlike a sample vector.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((OCTAVES + 1) * SUB) as usize],
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = u64::from(63 - v.leading_zeros()) - u64::from(SUB_BITS) + 1;
        let octave = octave.min(OCTAVES);
        let sub = (v >> (octave - 1)) - SUB;
        (octave * SUB + sub.min(SUB - 1)) as usize
    }

    /// Lower edge and width of bucket `b`, in ns.
    fn edges(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let octave = b / SUB;
        let sub = b % SUB;
        let width = (1u64 << (octave - 1)) as f64;
        (((SUB + sub) << (octave - 1)) as f64, width)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Records an elapsed duration.
    pub fn record_dur(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample, in ns.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile in ns, interpolated linearly inside its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, width) = Self::edges(b);
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + within * width).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Samples in buckets wholly above the `q`-quantile: a lower bound on
    /// the samples beyond it.
    pub fn beyond(&self, q: f64) -> u64 {
        let cut = self.quantile_ns(q);
        let mut n = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            let (lo, _) = Self::edges(b);
            if lo > cut {
                n += c;
            }
        }
        n
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on, and returns that CPU. On a 2-vCPU guest of a
/// shared host, two vCPUs busy at once lose ~15% of their time to steal in
/// millisecond gaps, against 1-3% for one (see FINDINGS.md); on one CPU the
/// serve workload's client and server thread share a vCPU that never
/// halts.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's CPU number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised CPU set of exactly
    // `size_of_val(&mask)` bytes for the whole call; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The layers (crates) a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Trace,
    Core,
    Hil,
    Cluster,
    Runtime,
    Backend,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Trace,
        Layer::Core,
        Layer::Hil,
        Layer::Cluster,
        Layer::Runtime,
        Layer::Backend,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Core => "core",
            Layer::Hil => "hil",
            Layer::Cluster => "cluster",
            Layer::Runtime => "runtime",
            Layer::Backend => "backend",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub op: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Running total of the spans of one `(layer, op)` pair.
#[derive(Debug, Clone, Copy)]
pub struct OpTotal {
    pub layer: Layer,
    pub op: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// Raw spans kept per run; later spans still feed the totals.
const SPAN_CAP: usize = 1 << 16;

/// The span recorder. When off, `begin`/`end` are a branch each; when on,
/// every span is kept in memory (up to [`SPAN_CAP`]) and folded into
/// per-`(layer, op)` totals, and nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    open: Vec<(Layer, &'static str, Instant, Option<u32>)>,
    totals: Vec<OpTotal>,
}

/// Handle of an open span.
#[must_use]
#[derive(Debug)]
pub struct Open(());

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Opens a span around a call into `layer`.
    pub fn begin(&mut self, layer: Layer, op: &'static str) -> Open {
        if self.on {
            let parent = self.open.last().and_then(|o| o.3);
            let id = if self.spans.len() < SPAN_CAP {
                Some(self.spans.len() as u32)
            } else {
                None
            };
            if id.is_some() {
                self.spans.push(Span {
                    layer,
                    op,
                    start_ns: 0,
                    dur_ns: 0,
                    parent,
                });
            }
            self.open.push((layer, op, Instant::now(), id));
        }
        Open(())
    }

    /// Closes the innermost open span under another op name (e.g. a
    /// submit that turned out to be rejected).
    pub fn end_as(&mut self, span: Open, op: &'static str) {
        if let Some(top) = self.open.last_mut() {
            top.1 = op;
            if let Some(i) = top.3 {
                self.spans[i as usize].op = op;
            }
        }
        self.end(span);
    }

    /// Records a span whose start and end were taken elsewhere (a wire
    /// request from its due time to its response).
    pub fn record(&mut self, layer: Layer, op: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().and_then(|o| o.3);
        self.open.push((layer, op, start, None));
        if self.spans.len() < SPAN_CAP {
            self.open.last_mut().expect("just pushed").3 = Some(self.spans.len() as u32);
            self.spans.push(Span {
                layer,
                op,
                start_ns: 0,
                dur_ns: 0,
                parent,
            });
        }
        self.close_at(end);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, _span: Open) {
        if !self.on {
            return;
        }
        self.close_at(Instant::now());
    }

    fn close_at(&mut self, now: Instant) {
        let (layer, op, start, id) = self.open.pop().expect("end matches a begin");
        let dur = (now - start).as_nanos() as u64;
        match id {
            Some(i) => {
                let s = &mut self.spans[i as usize];
                s.start_ns = (start - self.epoch).as_nanos() as u64;
                s.dur_ns = dur;
            }
            None => self.dropped += 1,
        }
        match self
            .totals
            .iter_mut()
            .find(|t| t.layer == layer && t.op == op)
        {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur;
            }
            None => self.totals.push(OpTotal {
                layer,
                op,
                count: 1,
                total_ns: dur,
            }),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, op: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(layer, op);
        let r = f();
        self.end(s);
        r
    }

    /// Total ns and count of the spans of one `(layer, op)` pair.
    pub fn total(&self, layer: Layer, op: &str) -> (u64, u64) {
        self.totals
            .iter()
            .find(|t| t.layer == layer && t.op == op)
            .map_or((0, 0), |t| (t.total_ns, t.count))
    }

    pub fn totals(&self) -> &[OpTotal] {
        &self.totals
    }

    /// Spans recorded per layer (kept or not).
    pub fn count_by_layer(&self) -> Vec<(Layer, u64)> {
        Layer::ALL
            .iter()
            .map(|&l| {
                let n = self
                    .totals
                    .iter()
                    .filter(|t| t.layer == l)
                    .map(|t| t.count)
                    .sum();
                (l, n)
            })
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The named metrics one run produced, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric; a later value of the same name replaces it.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.items.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.items.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, *u))
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.items {
            self.put(n, v, u);
        }
    }
}

/// Operations a workload attempted and how many failed its correctness
/// gate (engine errors, `ok:false` responses, golden or digest mismatches).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: Ops,
    /// Checks on the measurement itself (e.g. enough samples beyond p90).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        let p90 = h.quantile_ns(0.9);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p90 / 9_000_000.0 - 1.0).abs() < 0.01, "{p90}");
        let beyond = h.beyond(0.9);
        assert!((950..=1000).contains(&beyond), "{beyond}");
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max_ns(), 10_000_000);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::default();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert!(h.quantile_ns(0.5) >= 3.0 && h.quantile_ns(0.5) < 4.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span(Layer::Core, "x", || ());
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(true);
        let outer = t.begin(Layer::Backend, "outer");
        t.span(Layer::Hil, "inner", || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.total(Layer::Hil, "inner").1, 1);
        let by_layer = t.count_by_layer();
        assert!(by_layer.contains(&(Layer::Backend, 1)));
    }
}
