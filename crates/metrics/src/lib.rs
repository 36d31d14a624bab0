//! Unified metrics vocabulary and time-resolved telemetry.
//!
//! The source paper is a performance *analysis*: its tables attribute
//! cycles to individual hardware units (GW/TRS/DCT/ARB/TS busy time,
//! Table II DM conflicts, Table IV latency/throughput). Before this crate
//! existed, every layer of the reproduction kept its own pile of
//! end-of-run scalars with no time axis and no common vocabulary. This
//! crate provides both:
//!
//! * [`MetricSet`] — a registry of named end-of-run metrics: typed
//!   counters, gauges with peak tracking, and fixed-bucket histograms,
//!   each carrying an explicit [`MergeRule`] so aggregation across scopes
//!   (per-shard counters, per-unit peaks) is never lossy by accident.
//! * [`Timeline`] — a cycle-windowed sample table: named series sampled
//!   at fixed window boundaries, the signal that reveals the saturation
//!   regimes end-of-run aggregates hide (queue occupancy and per-unit
//!   utilization *over time*).
//! * [`WindowSampler`] — the incremental builder the engines embed: it is
//!   advanced with the simulation clock and probes the attached layer's
//!   gauges/counters only when a window boundary is crossed, so telemetry
//!   is strictly observation-only and costs one branch per clock move
//!   when no timeline is attached.
//!
//! # Window semantics
//!
//! A timeline with window `w` has one sample per window `[k·w, (k+1)·w)`.
//! [`SeriesKind::Gauge`] series record the instantaneous value at the
//! window's *end* boundary, observed before any event scheduled exactly at
//! that boundary is served; [`SeriesKind::Delta`] series record the growth
//! of a cumulative counter across the window, so summing a delta series
//! over all samples reproduces the end-of-run counter exactly. The final
//! sample may cover a partial window (`end < start + w`): it is emitted at
//! finalization time so short runs under coarse windows still produce one
//! row.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

pub mod snap;
pub mod span;

/// How two values of the same metric combine when sets are merged.
///
/// Monotone totals (busy cycles, stall counts, processed dependences) sum;
/// high-water marks (peak occupancy) take the maximum — summing peaks
/// observed at different times would fabricate an occupancy that never
/// existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Add the values (totals).
    Sum,
    /// Keep the larger value (high-water marks).
    Max,
}

impl MergeRule {
    /// Applies the rule to a pair of values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MergeRule::Sum => a + b,
            MergeRule::Max => a.max(b),
        }
    }
}

/// The typed payload of a metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A gauge: last observed value plus its high-water mark.
    Gauge {
        /// Last observed value.
        value: u64,
        /// High-water mark over the run.
        peak: u64,
    },
    /// A fixed-bucket histogram: `counts[i]` tallies observations `<=
    /// bounds[i]`, with one implicit overflow bucket at the end
    /// (`counts.len() == bounds.len() + 1`).
    Histogram {
        /// Inclusive upper bounds of the finite buckets.
        bounds: Vec<u64>,
        /// Per-bucket observation counts (one longer than `bounds`).
        counts: Vec<u64>,
    },
}

/// One named metric of a [`MetricSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name; scope prefixes (`shard0.`, `core.`) label the layer
    /// that emitted it.
    pub name: String,
    /// Typed value.
    pub value: MetricValue,
    /// Merge semantics (applies to counters and to a gauge's value; gauge
    /// peaks always merge by max, histogram buckets always sum).
    pub rule: MergeRule,
}

/// A registry of named metrics with explicit merge semantics.
///
/// Every execution layer of the reproduction emits its end-of-run counters
/// through one of these (scoped by a dotted name prefix), so cross-layer
/// and cross-shard aggregation all run through [`MetricSet::merge`] and
/// the sum-vs-max decision is stated per metric instead of hard-coded in
/// ad-hoc merge loops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// An empty registry.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64, rule: MergeRule) -> &mut Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Counter(value),
            rule,
        });
        self
    }

    /// Registers a gauge with its peak.
    pub fn gauge(&mut self, name: impl Into<String>, value: u64, peak: u64) -> &mut Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Gauge { value, peak },
            rule: MergeRule::Max,
        });
        self
    }

    /// Registers a fixed-bucket histogram from raw observations.
    pub fn histogram(
        &mut self,
        name: impl Into<String>,
        bounds: Vec<u64>,
        observations: impl IntoIterator<Item = u64>,
    ) -> &mut Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        let mut counts = vec![0u64; bounds.len() + 1];
        for obs in observations {
            let i = bounds.partition_point(|&b| b < obs);
            counts[i] += 1;
        }
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Histogram { bounds, counts },
            rule: MergeRule::Sum,
        });
        self
    }

    /// Registers a fixed-bucket histogram from already-bucketed counts
    /// (the hot path tallies buckets directly; see
    /// [`MetricSet::histogram`] for the raw-observation form).
    ///
    /// # Panics
    ///
    /// Panics when `counts` is not exactly one longer than `bounds`.
    pub fn histogram_counts(
        &mut self,
        name: impl Into<String>,
        bounds: Vec<u64>,
        counts: Vec<u64>,
    ) -> &mut Self {
        assert_eq!(counts.len(), bounds.len() + 1, "one overflow bucket");
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Histogram { bounds, counts },
            rule: MergeRule::Sum,
        });
        self
    }

    /// The registered metrics, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Convenience: the value of a counter (or a gauge's value) by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge { value: v, .. } => Some(v),
            MetricValue::Histogram { .. } => None,
        }
    }

    /// Appends every metric of `other` under a dotted scope prefix.
    pub fn extend_scoped(&mut self, prefix: &str, other: &MetricSet) {
        for m in &other.metrics {
            let mut m = m.clone();
            m.name = format!("{prefix}{}", m.name);
            self.metrics.push(m);
        }
    }

    /// Merges `other` into `self` by name, applying each metric's
    /// [`MergeRule`]: counters and gauge values combine by their rule,
    /// gauge peaks by max, histogram buckets by sum. Metrics present only
    /// in `other` are appended.
    ///
    /// # Panics
    ///
    /// Panics when two same-named metrics have different types or — for
    /// histograms — different bucket bounds.
    pub fn merge(&mut self, other: &MetricSet) {
        for om in &other.metrics {
            let Some(m) = self.metrics.iter_mut().find(|m| m.name == om.name) else {
                self.metrics.push(om.clone());
                continue;
            };
            match (&mut m.value, &om.value) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a = m.rule.apply(*a, *b),
                (
                    MetricValue::Gauge { value, peak },
                    MetricValue::Gauge {
                        value: ov,
                        peak: op,
                    },
                ) => {
                    *value = m.rule.apply(*value, *ov);
                    *peak = (*peak).max(*op);
                }
                (
                    MetricValue::Histogram { bounds, counts },
                    MetricValue::Histogram {
                        bounds: ob,
                        counts: oc,
                    },
                ) => {
                    assert_eq!(bounds, ob, "histogram {} bucket bounds differ", m.name);
                    for (c, o) in counts.iter_mut().zip(oc) {
                        *c += o;
                    }
                }
                _ => panic!("metric {} merged across different types", m.name),
            }
        }
    }

    /// Renders the registry as a JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", escape(&m.name)));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge { value, peak } => {
                    out.push_str(&format!("{{\"value\":{value},\"peak\":{peak}}}"));
                }
                MetricValue::Histogram { bounds, counts } => {
                    out.push_str(&format!(
                        "{{\"bounds\":{},\"counts\":{}}}",
                        num_array(bounds),
                        num_array(counts)
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

fn num_array(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Minimal JSON string escaping (metric/series names are controlled
/// identifiers, but workload labels can be arbitrary).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// How a timeline series is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Instantaneous value at each window's end boundary.
    Gauge,
    /// Growth of a cumulative counter across the window (the probe reports
    /// the cumulative total; the sampler differences it). Summing the
    /// series reproduces the end-of-run counter.
    Delta,
}

/// One named series of a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSpec {
    /// Dotted series name (`busy.gw`, `occ.ready`, `s2.busy.dct`, ...).
    pub name: String,
    /// Sampling semantics.
    pub kind: SeriesKind,
}

impl SeriesSpec {
    /// A gauge series.
    pub fn gauge(name: impl Into<String>) -> Self {
        SeriesSpec {
            name: name.into(),
            kind: SeriesKind::Gauge,
        }
    }

    /// A windowed-delta series over a cumulative counter.
    pub fn delta(name: impl Into<String>) -> Self {
        SeriesSpec {
            name: name.into(),
            kind: SeriesKind::Delta,
        }
    }
}

/// A cycle-windowed sample table: the time-resolved counterpart of a
/// [`MetricSet`].
///
/// Samples are stored row-major (`values[sample * series_count + s]`);
/// every full sample covers exactly one window, the final sample may be
/// partial (see the module docs for the window semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    window: u64,
    series: Vec<SeriesSpec>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    values: Vec<u64>,
}

impl Timeline {
    /// An empty timeline with the given window and series.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn new(window: u64, series: Vec<SeriesSpec>) -> Self {
        assert!(window > 0, "timeline window must be positive");
        Timeline {
            window,
            series,
            starts: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The sampling window, in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The series, in column order.
    pub fn series(&self) -> &[SeriesSpec] {
        &self.series
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the timeline holds no samples.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Sample `i` as `(window_start, window_end, values)`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn sample(&self, i: usize) -> (u64, u64, &[u64]) {
        let n = self.series.len();
        (
            self.starts[i],
            self.ends[i],
            &self.values[i * n..(i + 1) * n],
        )
    }

    /// Column index of a series by name.
    pub fn series_index(&self, name: &str) -> Option<usize> {
        self.series.iter().position(|s| s.name == name)
    }

    /// The full column of one series, by name.
    pub fn column(&self, name: &str) -> Option<Vec<u64>> {
        let idx = self.series_index(name)?;
        let n = self.series.len();
        Some((0..self.len()).map(|i| self.values[i * n + idx]).collect())
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the series count.
    pub fn push_sample(&mut self, start: u64, end: u64, values: &[u64]) {
        assert_eq!(values.len(), self.series.len(), "one value per series");
        self.starts.push(start);
        self.ends.push(end);
        self.values.extend_from_slice(values);
    }

    /// Stitches timelines from different layers of one run into a single
    /// timeline: all series side by side, each part's series names under
    /// its prefix, samples aligned by window index.
    ///
    /// Parts sampled over a shorter horizon are padded at the tail —
    /// gauges repeat their last value (the layer went quiet, its state is
    /// unchanged), deltas pad with zero (nothing accrued).
    ///
    /// # Panics
    ///
    /// Panics when parts disagree on the window size or on the start
    /// cycles of shared window indices.
    pub fn stitch(parts: &[(&str, &Timeline)]) -> Timeline {
        let window = parts.first().map_or(1, |(_, t)| t.window);
        assert!(
            parts.iter().all(|(_, t)| t.window == window),
            "stitched timelines must share one window size"
        );
        let rows = parts.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        let longest: Option<&Timeline> = parts.iter().map(|(_, t)| *t).max_by_key(|t| t.len());
        let mut series = Vec::new();
        for (prefix, t) in parts {
            for s in &t.series {
                series.push(SeriesSpec {
                    name: format!("{prefix}{}", s.name),
                    kind: s.kind,
                });
            }
        }
        let mut out = Timeline::new(window, series);
        let Some(longest) = longest else {
            return out;
        };
        let mut row = Vec::new();
        for i in 0..rows {
            row.clear();
            for (_, t) in parts {
                if i < t.len() {
                    debug_assert_eq!(
                        t.starts[i], longest.starts[i],
                        "stitched timelines disagree on window starts"
                    );
                    row.extend_from_slice(t.sample(i).2);
                } else {
                    for (s, spec) in t.series.iter().enumerate() {
                        row.push(match spec.kind {
                            // Quiet layer: state unchanged since its last
                            // sample; nothing accrued in later windows.
                            SeriesKind::Gauge if !t.is_empty() => {
                                t.values[(t.len() - 1) * t.series.len() + s]
                            }
                            _ => 0,
                        });
                    }
                }
            }
            out.push_sample(longest.starts[i], longest.ends[i], &row);
        }
        out
    }

    /// Derives a worker-occupancy timeline from a finished schedule: the
    /// telemetry of engines without modelled hardware units (the perfect
    /// scheduler, the software runtime), computed post hoc from per-task
    /// start/end cycles.
    ///
    /// Series: `workers.running` (gauge: tasks running at each boundary,
    /// with the boundary conventions of the live samplers — a task ending
    /// exactly at the boundary still counts, one starting there does not)
    /// and `workers.busy_cycles` (delta: busy cycles accrued in the
    /// window). The delta series is deliberately *not* named
    /// `workers.busy`: that name is the live busy-worker-count gauge of
    /// the HIL/cluster sessions, and a mixed-backend sweep emit must not
    /// carry two units under one series name.
    pub fn from_schedule(window: u64, starts: &[u64], ends: &[u64], horizon: u64) -> Timeline {
        let mut tl = Timeline::new(
            window,
            vec![
                SeriesSpec::gauge("workers.running"),
                SeriesSpec::delta("workers.busy_cycles"),
            ],
        );
        let mut s = 0u64;
        while s < horizon {
            let e = (s + window).min(horizon);
            let mut running = 0u64;
            let mut busy = 0u64;
            for (&ts, &te) in starts.iter().zip(ends) {
                if ts < e && te >= e {
                    running += 1;
                }
                busy += te.min(e).saturating_sub(ts.max(s));
            }
            tl.push_sample(s, e, &[running, busy]);
            s = e;
        }
        tl
    }

    /// Renders the timeline as CSV: `window_start,window_end,<series...>`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window_start,window_end");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for i in 0..self.len() {
            let (start, end, values) = self.sample(i);
            out.push_str(&format!("{start},{end}"));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the timeline as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"window\":{},\"series\":[", self.window);
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match s.kind {
                SeriesKind::Gauge => "gauge",
                SeriesKind::Delta => "delta",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"kind\":\"{kind}\"}}",
                escape(&s.name)
            ));
        }
        out.push_str("],\"samples\":[");
        for i in 0..self.len() {
            if i > 0 {
                out.push(',');
            }
            let (start, end, values) = self.sample(i);
            out.push_str(&format!(
                "{{\"start\":{start},\"end\":{end},\"values\":{}}}",
                num_array(values)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The incremental [`Timeline`] builder the engines embed.
///
/// Advance it together with the simulation clock; it calls the probe
/// closure (which reads the layer's gauges and cumulative counters) only
/// when at least one window boundary is crossed, so an attached but idle
/// sampler costs one comparison per clock move and an unattached layer
/// (holding `Option<WindowSampler>::None`) costs one branch.
#[derive(Debug, Clone)]
pub struct WindowSampler {
    window: u64,
    /// Next window-end boundary to sample (absolute cycle).
    next: u64,
    timeline: Timeline,
    /// Cumulative snapshot at the previous sample (for delta series).
    last: Vec<u64>,
    scratch: Vec<u64>,
    row: Vec<u64>,
}

impl WindowSampler {
    /// A sampler starting at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn new(window: u64, series: Vec<SeriesSpec>) -> Self {
        let n = series.len();
        WindowSampler {
            window,
            next: window,
            timeline: Timeline::new(window, series),
            last: vec![0; n],
            scratch: vec![0; n],
            row: vec![0; n],
        }
    }

    /// Whether moving the clock to `now` crosses a window boundary — the
    /// one comparison on the no-sample fast path.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next
    }

    /// The sampling window, in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The next window boundary to sample (absolute cycle): after
    /// [`WindowSampler::advance`]`(t, ..)` it is strictly greater than `t`.
    /// The cluster's epoch loop clamps its epochs to it so no shard runs
    /// past an unsampled boundary.
    pub fn next_boundary(&self) -> u64 {
        self.next
    }

    /// Advances the sampling clock to `now`. When one or more boundaries
    /// are crossed, `probe` is called **once** to read the current values
    /// (state is constant between simulation events, so every boundary in
    /// the span observes the same state) and a sample is emitted per
    /// boundary; deltas land in the first crossed window.
    pub fn advance(&mut self, now: u64, probe: impl FnOnce(&mut [u64])) {
        if now < self.next {
            return;
        }
        probe(&mut self.scratch);
        while self.next <= now {
            self.emit(self.next - self.window, self.next);
            self.next += self.window;
        }
    }

    /// Emits the sample for `[start, end)` from the current scratch state
    /// and rolls the delta baseline forward.
    fn emit(&mut self, start: u64, end: u64) {
        for (i, spec) in self.timeline.series.iter().enumerate() {
            self.row[i] = match spec.kind {
                SeriesKind::Gauge => self.scratch[i],
                SeriesKind::Delta => self.scratch[i] - self.last[i],
            };
        }
        self.last.copy_from_slice(&self.scratch);
        self.timeline.push_sample(start, end, &self.row);
    }

    /// Like [`WindowSampler::advance`], but tolerant of sparse clocks:
    /// when the span crosses more than `max_windows` boundaries, the run
    /// of interior windows is elided (their gauges are constant and their
    /// deltas zero — state only changes at simulation events) and the
    /// sampler lands on the first boundary beyond `now`. Use where the
    /// clock can leap arbitrarily far in one event (open-loop
    /// `advance_to`); dense consumers that align windows across layers
    /// ([`Timeline::stitch`]) should keep [`WindowSampler::advance`].
    pub fn advance_sparse(&mut self, now: u64, max_windows: u64, probe: impl FnOnce(&mut [u64])) {
        if now < self.next {
            return;
        }
        probe(&mut self.scratch);
        let mut emitted = 0u64;
        while self.next <= now && emitted < max_windows {
            self.emit(self.next - self.window, self.next);
            self.next += self.window;
            emitted += 1;
        }
        if self.next <= now {
            let skipped = (now - self.next) / self.window + 1;
            self.next += skipped * self.window;
        }
    }

    /// Drains the samples accumulated so far into a [`Timeline`] without
    /// finishing the sampler: boundaries due at `now` are emitted first,
    /// then the collected samples are handed out and the sampler keeps
    /// running from its current position (delta baselines are preserved,
    /// so a later sample reports only activity since this drain). This is
    /// the live-scrape path — a metrics endpoint can ship windows
    /// mid-run while the session keeps its bit-exact schedule.
    pub fn drain(&mut self, now: u64, probe: impl FnOnce(&mut [u64])) -> Timeline {
        self.advance(now, probe);
        let series = self.timeline.series.clone();
        std::mem::replace(&mut self.timeline, Timeline::new(self.window, series))
    }

    /// Finalizes the sampler at `end`: samples any boundaries still due,
    /// emits a final partial-window sample when `end` lies inside an open
    /// window, and returns the finished [`Timeline`].
    pub fn finish(mut self, end: u64, probe: impl FnOnce(&mut [u64])) -> Timeline {
        probe(&mut self.scratch);
        while self.next <= end {
            self.emit(self.next - self.window, self.next);
            self.next += self.window;
        }
        let open_start = self.next - self.window;
        if end > open_start {
            self.emit(open_start, end);
        }
        self.timeline
    }
}

/// The Table IV metrics of one run: processing-capacity figures the paper
/// reports per testcase and mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticMetrics {
    /// **L1st** — latency of the first task: cycles from the start of the
    /// run until the first task begins executing.
    pub l1st: u64,
    /// **thrTask** — throughput for additional tasks: the steady-state
    /// execution-start interval between consecutive tasks.
    pub thr_task: f64,
    /// **thrDep** — throughput for additional dependences: `thrTask`
    /// divided by the average dependences per task (`None` for
    /// dependence-free streams, printed as `-` in the paper).
    pub thr_dep: Option<f64>,
}

/// Extracts the Table IV metrics from per-task start cycles (any engine's
/// schedule) and the workload's average dependence count.
///
/// # Panics
///
/// Panics when `starts` is empty.
pub fn synthetic_metrics(starts: &[u64], avg_deps: f64) -> SyntheticMetrics {
    assert!(!starts.is_empty(), "cannot measure an empty run");
    let mut starts = starts.to_vec();
    starts.sort_unstable();
    let l1st = starts[0];
    let n = starts.len();
    let thr_task = if n > 1 {
        (starts[n - 1] - starts[0]) as f64 / (n - 1) as f64
    } else {
        0.0
    };
    let thr_dep = if avg_deps > 0.0 {
        Some(thr_task / avg_deps)
    } else {
        None
    };
    SyntheticMetrics {
        l1st,
        thr_task,
        thr_dep,
    }
}

impl fmt::Display for SyntheticMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L1st {} thrTask {:.1} thrDep ", self.l1st, self.thr_task)?;
        match self.thr_dep {
            Some(d) => write!(f, "{d:.1}"),
            None => write!(f, "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rules_apply() {
        assert_eq!(MergeRule::Sum.apply(2, 3), 5);
        assert_eq!(MergeRule::Max.apply(2, 3), 3);
    }

    #[test]
    fn metric_set_merge_by_rule() {
        let mut a = MetricSet::new();
        a.counter("busy", 10, MergeRule::Sum)
            .gauge("occ", 3, 7)
            .counter("makespan", 100, MergeRule::Max);
        let mut b = MetricSet::new();
        b.counter("busy", 5, MergeRule::Sum)
            .gauge("occ", 9, 4)
            .counter("makespan", 80, MergeRule::Max)
            .counter("extra", 1, MergeRule::Sum);
        a.merge(&b);
        assert_eq!(a.value("busy"), Some(15), "totals sum");
        assert_eq!(a.value("makespan"), Some(100), "maxes keep the larger");
        assert_eq!(a.value("extra"), Some(1), "missing metrics append");
        match &a.get("occ").unwrap().value {
            MetricValue::Gauge { value, peak } => {
                assert_eq!(*value, 9, "gauge value follows its rule (max)");
                assert_eq!(*peak, 7, "peaks never sum");
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut a = MetricSet::new();
        a.histogram("lat", vec![10, 100], [5u64, 10, 11, 1000]);
        match &a.get("lat").unwrap().value {
            MetricValue::Histogram { counts, .. } => assert_eq!(counts, &vec![2, 1, 1]),
            other => panic!("wrong type {other:?}"),
        }
        let mut b = MetricSet::new();
        b.histogram("lat", vec![10, 100], [1u64]);
        a.merge(&b);
        match &a.get("lat").unwrap().value {
            MetricValue::Histogram { counts, .. } => assert_eq!(counts, &vec![3, 1, 1]),
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn scoped_extension_prefixes_names() {
        let mut inner = MetricSet::new();
        inner.counter("busy", 4, MergeRule::Sum);
        let mut outer = MetricSet::new();
        outer.extend_scoped("shard1.", &inner);
        assert_eq!(outer.value("shard1.busy"), Some(4));
        assert!(outer.to_json().contains("\"shard1.busy\":4"));
    }

    #[test]
    fn sampler_windows_gauges_and_deltas() {
        let mut s = WindowSampler::new(
            10,
            vec![SeriesSpec::gauge("occ"), SeriesSpec::delta("busy")],
        );
        assert!(!s.due(9));
        // Cross two boundaries at once: one probe, two samples; the delta
        // lands in the first crossed window.
        s.advance(25, |v| {
            v[0] = 3;
            v[1] = 17;
        });
        let tl = s.finish(32, |v| {
            v[0] = 1;
            v[1] = 20;
        });
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.sample(0), (0, 10, &[3u64, 17][..]));
        assert_eq!(tl.sample(1), (10, 20, &[3u64, 0][..]));
        assert_eq!(tl.sample(2), (20, 30, &[1u64, 3][..]));
        assert_eq!(tl.sample(3), (30, 32, &[1u64, 0][..]), "partial tail");
        // Delta series sum back to the cumulative counter.
        assert_eq!(tl.column("busy").unwrap().iter().sum::<u64>(), 20);
    }

    #[test]
    fn sampler_exact_boundary_end_has_no_empty_tail() {
        let mut s = WindowSampler::new(10, vec![SeriesSpec::delta("c")]);
        s.advance(10, |v| v[0] = 1);
        let tl = s.finish(20, |v| v[0] = 2);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.sample(1), (10, 20, &[1u64][..]));
    }

    #[test]
    fn stitch_aligns_and_pads() {
        let mut long = Timeline::new(10, vec![SeriesSpec::delta("busy")]);
        long.push_sample(0, 10, &[4]);
        long.push_sample(10, 20, &[6]);
        let mut short = Timeline::new(10, vec![SeriesSpec::gauge("occ")]);
        short.push_sample(0, 10, &[2]);
        let tl = Timeline::stitch(&[("core.", &long), ("", &short)]);
        assert_eq!(tl.series()[0].name, "core.busy");
        assert_eq!(tl.series()[1].name, "occ");
        assert_eq!(tl.sample(0), (0, 10, &[4u64, 2][..]));
        assert_eq!(tl.sample(1), (10, 20, &[6u64, 2][..]), "gauge pads carry");
    }

    #[test]
    fn schedule_timeline_accounts_every_busy_cycle() {
        // Two workers: task A [0,30), task B [5,15).
        let tl = Timeline::from_schedule(10, &[0, 5], &[30, 15], 30);
        assert_eq!(tl.len(), 3);
        let busy = tl.column("workers.busy_cycles").unwrap();
        assert_eq!(busy.iter().sum::<u64>(), 30 + 10, "total busy = total work");
        assert_eq!(busy, vec![15, 15, 10]);
        let running = tl.column("workers.running").unwrap();
        assert_eq!(running, vec![2, 1, 1], "B ends exactly at 15; A runs on");
    }

    #[test]
    fn csv_and_json_render() {
        let mut tl = Timeline::new(5, vec![SeriesSpec::gauge("a"), SeriesSpec::delta("b")]);
        tl.push_sample(0, 5, &[1, 2]);
        let csv = tl.to_csv();
        assert!(csv.starts_with("window_start,window_end,a,b\n"));
        assert!(csv.contains("0,5,1,2\n"));
        let json = tl.to_json();
        assert!(json.contains("\"window\":5"));
        assert!(json.contains("\"kind\":\"delta\""));
        assert!(json.contains("\"values\":[1,2]"));
    }

    #[test]
    fn table_iv_extraction() {
        let m = synthetic_metrics(&[50, 30, 70], 2.0);
        assert_eq!(m.l1st, 30);
        assert!((m.thr_task - 20.0).abs() < 1e-9);
        assert!((m.thr_dep.unwrap() - 10.0).abs() < 1e-9);
        let m = synthetic_metrics(&[5], 0.0);
        assert_eq!(m.l1st, 5);
        assert_eq!(m.thr_task, 0.0);
        assert!(m.thr_dep.is_none());
        assert_eq!(m.to_string(), "L1st 5 thrTask 0.0 thrDep -");
    }
}
