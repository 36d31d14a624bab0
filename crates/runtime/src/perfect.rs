//! The Perfect Simulator: zero-overhead list scheduling.
//!
//! The paper feeds the same traces to a "Perfect Simulator which measures
//! critical-path task execution to show the roofline speedup of each OmpSs
//! application" (Section IV-A). This module implements it as an
//! incremental [`PerfectSession`]: tasks start the moment a worker is free
//! and every predecessor has finished; scheduling, dependence management
//! and communication cost nothing. [`perfect_schedule`] is the batch
//! driver over a session.

use crate::depmap::SoftwareDeps;
use crate::report::ExecReport;
use crate::session::{feed_trace, Admission, Ingest, ScheduleLog, SessionConfig, SessionCore};
use picos_metrics::span::{SpanEvent, SpanKind, SpanLog};
use picos_trace::snap::{Dec, Enc};
use picos_trace::{SnapError, TaskDescriptor, TaskId, Trace, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An incremental zero-overhead list scheduler.
///
/// Ready tasks start in creation order (the tie-break the runtime's FIFO
/// queue would produce) the instant a worker is free; dependence analysis
/// is the real incremental algorithm ([`SoftwareDeps`]) at zero cycle
/// cost. Feeding a whole trace and finishing reproduces
/// [`perfect_schedule`] bit-exactly.
///
/// Cloning is a deep copy of the full dynamic state — the fork primitive
/// of the snapshot subsystem.
#[derive(Debug, Clone)]
pub struct PerfectSession {
    workers: usize,
    idle: usize,
    now: u64,
    deps: SoftwareDeps,
    /// Admitted tasks not yet handed to the dependence tracker (taskwait
    /// gates hold them back), as `(dense id, descriptor)`.
    pending: VecDeque<(u32, TaskDescriptor)>,
    /// Ready tasks by ascending id.
    ready: BinaryHeap<Reverse<u32>>,
    /// Running tasks by `(completion time, id)`.
    running: BinaryHeap<Reverse<(u64, u32)>>,
    durs: Vec<u64>,
    ingest: Ingest,
    log: ScheduleLog,
    /// Requested telemetry window; the zero-cost scheduler has no live
    /// units to probe, so its timeline is derived from the finished
    /// schedule at `finish` time.
    timeline_window: Option<u64>,
    /// Lifecycle span recorder, attached by [`SessionConfig::trace_spans`].
    /// Observation-only: every record site is one branch when absent.
    spans: Option<SpanLog>,
    /// Scratch for [`SoftwareDeps::finish_into`].
    newly: Vec<TaskId>,
}

impl PerfectSession {
    /// Opens a session with `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns a message when `workers` is zero.
    pub fn new(workers: usize, cfg: SessionConfig) -> Result<Self, String> {
        if workers == 0 {
            return Err("perfect scheduler needs at least one worker".into());
        }
        cfg.validate()?;
        Ok(PerfectSession {
            workers,
            idle: workers,
            now: 0,
            deps: SoftwareDeps::new(0),
            pending: VecDeque::new(),
            ready: BinaryHeap::new(),
            running: BinaryHeap::new(),
            durs: Vec::new(),
            ingest: Ingest::new(cfg.window),
            log: ScheduleLog::default(),
            timeline_window: cfg.timeline_window,
            spans: cfg.trace_spans.then(SpanLog::new),
            newly: Vec::new(),
        })
    }

    /// The telemetry window this session was opened with, if any.
    pub fn timeline_window(&self) -> Option<u64> {
        self.timeline_window
    }

    /// Hands gate-cleared pending tasks to the dependence tracker and
    /// starts every ready task a free worker can take, all at the current
    /// time (zero-cost operations). One pass suffices: starting a task
    /// cannot clear a gate (only completions can) or add ready tasks.
    fn pump(&mut self) {
        while let Some(&(id, _)) = self.pending.front() {
            if !self.ingest.feedable(id as usize, self.ingest.finished) {
                break;
            }
            let (id, task) = self.pending.pop_front().expect("peeked");
            if self.deps.submit(&task) {
                self.ready.push(Reverse(id));
            }
        }
        while self.idle > 0 {
            let Some(Reverse(id)) = self.ready.pop() else {
                break;
            };
            let end = self.log.begin(id, self.now, self.durs[id as usize]);
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Started, self.now, 0, id, 0);
            }
            self.running.push(Reverse((end, id)));
            self.idle -= 1;
        }
    }

    /// Pops the earliest completion, releases its successors and pumps.
    /// Returns `false` when nothing is running.
    fn fire_next(&mut self) -> bool {
        let Some(Reverse((fin, id))) = self.running.pop() else {
            return false;
        };
        self.now = fin;
        self.idle += 1;
        self.ingest.finished += 1;
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Finished, fin, 0, id, 0);
        }
        self.newly.clear();
        let mut newly = std::mem::take(&mut self.newly);
        self.deps.finish_into(TaskId::new(id), &mut newly);
        for t in newly.drain(..) {
            self.ready.push(Reverse(t.raw()));
        }
        self.newly = newly;
        self.pump();
        true
    }

    /// Whether the next submission cannot be ingested right now (window
    /// saturated or the pending head gated behind a taskwait).
    fn ingest_blocked(&self) -> bool {
        if self.ingest.saturated() {
            return true;
        }
        match self.pending.front() {
            Some(&(id, _)) => !self.ingest.feedable(id as usize, self.ingest.finished),
            None => false,
        }
    }

    /// Serializes the full dynamic state. Restore by opening a session
    /// with the same configuration and calling
    /// [`PerfectSession::load_state`].
    pub fn save_state(&self) -> Value {
        let Self {
            workers,
            idle,
            now,
            deps,
            pending,
            ready,
            running,
            durs,
            ingest,
            log,
            timeline_window,
            spans,
            newly: _,
        } = self;
        let mut ready: Vec<u32> = ready.iter().map(|r| r.0).collect();
        ready.sort_unstable();
        let mut running: Vec<(u64, u32)> = running.iter().map(|r| r.0).collect();
        running.sort_unstable();
        let mut e = Enc::new();
        e.put(workers)
            .put(timeline_window)
            .put(&spans.is_some())
            .put(idle)
            .put(now)
            .val(deps.save_state())
            .put(pending)
            .put(&ready)
            .put(&running)
            .put(durs)
            .val(ingest.save_state())
            .nest(log)
            .put(spans);
        e.done()
    }

    /// Overwrites the dynamic state from [`PerfectSession::save_state`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or a configuration
    /// mismatch (worker count, telemetry attachments, in-flight window);
    /// the session must then be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "perfect session")?;
        d.guard("perfect workers", self.workers)?;
        d.guard("perfect timeline window", self.timeline_window)?;
        d.guard("perfect spans attached", self.spans.is_some())?;
        self.idle = d.take()?;
        self.now = d.take()?;
        self.deps.load_state(d.val()?)?;
        self.pending = d.take()?;
        self.ready = d.take::<Vec<u32>>()?.into_iter().map(Reverse).collect();
        self.running = d
            .take::<Vec<(u64, u32)>>()?
            .into_iter()
            .map(Reverse)
            .collect();
        self.durs = d.take()?;
        self.ingest.load_state(d.val()?)?;
        self.log = d.nest()?;
        self.spans = d.take()?;
        Ok(())
    }

    /// Runs the session to quiescence and returns the schedule report.
    pub fn into_report(self) -> ExecReport {
        self.into_output().0
    }

    /// Like [`PerfectSession::into_report`], and also returns the span
    /// log (recording order) when the session was opened with
    /// [`SessionConfig::trace_spans`].
    pub fn into_output(mut self) -> (ExecReport, Option<SpanLog>) {
        self.pump();
        while self.fire_next() {}
        debug_assert!(self.pending.is_empty(), "gated tasks never released");
        let spans = self.spans.take();
        (self.log.into_report("perfect", self.workers), spans)
    }
}

impl SessionCore for PerfectSession {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        if self.ingest.saturated() {
            return Admission::Backpressured;
        }
        let id = self.ingest.admit();
        self.durs.push(task.duration);
        self.log.admit(task.duration);
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Submitted, self.now, 0, id, 0);
        }
        let mut t = task.clone();
        t.id = TaskId::new(id);
        self.pending.push_back((id, t));
        Admission::Accepted
    }

    fn barrier(&mut self) {
        self.ingest.barrier();
    }

    fn advance_to(&mut self, cycle: u64) {
        self.pump();
        while matches!(self.running.peek(), Some(&Reverse((fin, _))) if fin <= cycle) {
            self.fire_next();
        }
        self.now = self.now.max(cycle);
    }

    fn step(&mut self) -> bool {
        self.pump();
        if self.ingest_blocked() {
            self.fire_next()
        } else {
            false
        }
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn in_flight(&self) -> usize {
        self.ingest.in_flight()
    }

    fn drain_events(&mut self, out: &mut Vec<SpanEvent>) {
        if let Some(log) = &mut self.spans {
            log.drain_new(out);
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.ingest.reserve(additional);
        self.log.reserve(additional);
        self.durs.reserve(additional);
    }
}

/// Runs the zero-overhead list scheduler with `workers` workers: opens a
/// [`PerfectSession`], feeds the whole trace and finishes it.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn perfect_schedule(trace: &Trace, workers: usize) -> ExecReport {
    let mut s =
        PerfectSession::new(workers, SessionConfig::batch()).expect("need at least one worker");
    feed_trace(&mut s, trace).expect("unbounded window cannot stall");
    s.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::feed_range;
    use picos_trace::{gen, Dependence, KernelClass, Trace};

    #[test]
    fn independent_tasks_scale_linearly() {
        let mut tr = Trace::new("ind");
        for _ in 0..8 {
            tr.push(KernelClass::GENERIC, [], 100);
        }
        for w in [1, 2, 4, 8] {
            let r = perfect_schedule(&tr, w);
            assert_eq!(r.makespan, 800 / w as u64);
            assert!((r.speedup() - w as f64).abs() < 1e-9);
            r.validate(&tr).unwrap();
        }
    }

    #[test]
    fn chain_never_speeds_up() {
        let mut tr = Trace::new("chain");
        for _ in 0..10 {
            tr.push(KernelClass::GENERIC, [Dependence::inout(0xA)], 50);
        }
        let r = perfect_schedule(&tr, 8);
        assert_eq!(r.makespan, 500);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_work() {
        for seed in 0..5 {
            let tr = gen::random_trace(gen::RandomConfig::default(), seed);
            let g = picos_trace::TaskGraph::build(&tr);
            let cp = g.critical_path();
            let work = tr.sequential_time();
            for w in [1usize, 3, 7] {
                let r = perfect_schedule(&tr, w);
                assert!(r.makespan >= cp, "seed {seed} w {w}");
                assert!(r.makespan >= work.div_ceil(w as u64), "seed {seed} w {w}");
                assert!(r.makespan <= work, "seed {seed} w {w}");
                r.validate(&tr).unwrap();
            }
        }
    }

    #[test]
    fn infinite_workers_hit_critical_path() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(256));
        let g = picos_trace::TaskGraph::build(&tr);
        let r = perfect_schedule(&tr, tr.len());
        assert_eq!(r.makespan, g.critical_path());
    }

    #[test]
    fn speedup_monotone_in_workers() {
        let tr = gen::heat(gen::HeatConfig::paper(128));
        let mut prev = 0.0;
        for w in [1, 2, 4, 8, 16] {
            let s = perfect_schedule(&tr, w).speedup();
            assert!(s + 1e-9 >= prev, "w {w}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn single_worker_is_sequential() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(256));
        let r = perfect_schedule(&tr, 1);
        assert_eq!(r.makespan, tr.sequential_time());
    }

    #[test]
    fn zero_workers_is_a_session_error() {
        assert!(PerfectSession::new(0, SessionConfig::batch()).is_err());
    }

    #[test]
    fn session_respects_taskwait_gates() {
        let mut tr = Trace::new("barriered");
        for _ in 0..4 {
            tr.push(KernelClass::GENERIC, [], 100);
        }
        tr.push_taskwait();
        tr.push(KernelClass::GENERIC, [], 100);
        let r = perfect_schedule(&tr, 4);
        r.validate(&tr).unwrap();
        assert_eq!(r.start[4], 100, "post-barrier task waits for the prefix");
    }

    #[test]
    fn open_session_does_not_run_ahead_of_input() {
        // The bit-exactness mechanism: while the session can ingest, step()
        // refuses to move the clock.
        let mut tr = Trace::new("t");
        tr.push(KernelClass::GENERIC, [], 50);
        let mut s = PerfectSession::new(2, SessionConfig::batch()).unwrap();
        assert_eq!(s.submit(&tr.tasks()[0]), Admission::Accepted);
        assert!(!s.step(), "open unblocked session must not advance");
        assert_eq!(s.now(), 0);
        let r = s.into_report();
        assert_eq!(r.makespan, 50);
    }

    #[test]
    fn windowed_session_backpressures_and_completes() {
        let mut tr = Trace::new("t");
        for _ in 0..10 {
            tr.push(KernelClass::GENERIC, [], 10);
        }
        let mut s = PerfectSession::new(1, SessionConfig::windowed(2)).unwrap();
        let mut backpressured = 0;
        for t in tr.iter() {
            loop {
                match s.submit(t) {
                    Admission::Accepted => break,
                    Admission::Backpressured => {
                        backpressured += 1;
                        assert!(s.step(), "blocked session must drain");
                    }
                }
            }
        }
        assert!(backpressured > 0);
        let r = s.into_report();
        r.validate(&tr).unwrap();
        assert_eq!(r.makespan, 100);
    }

    #[test]
    fn paced_arrivals_delay_starts() {
        let mut tr = Trace::new("t");
        tr.push(KernelClass::GENERIC, [], 10);
        tr.push(KernelClass::GENERIC, [], 10);
        let mut s = PerfectSession::new(2, SessionConfig::batch()).unwrap();
        s.submit(&tr.tasks()[0]);
        s.advance_to(500);
        s.submit(&tr.tasks()[1]);
        let r = s.into_report();
        assert_eq!(r.start[0], 0);
        assert_eq!(r.start[1], 500, "second task arrived at cycle 500");
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let cfg = SessionConfig {
            trace_spans: true,
            ..SessionConfig::windowed(16)
        };
        for pause in [0usize, 7, 40] {
            let mut cont = PerfectSession::new(4, cfg).unwrap();
            let mut live = PerfectSession::new(4, cfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();
            // Snapshot through the JSON text form, restore into a fresh
            // identically-configured session.
            let text = picos_trace::snap::value_to_json(&live.save_state());
            let v = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = PerfectSession::new(4, cfg).unwrap();
            restored.load_state(&v).unwrap();
            assert_eq!(restored.now(), live.now(), "pause {pause}");
            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let (rc, sc) = cont.into_output();
            let (rr, sr) = restored.into_output();
            assert_eq!(rc, rr, "pause {pause}: report diverged");
            assert_eq!(sc, sr, "pause {pause}: span log diverged");
        }
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let mut live = PerfectSession::new(2, SessionConfig::windowed(8)).unwrap();
        feed_range(&mut live, &tr, 0..24).unwrap();
        let fork = live.clone();
        // Drive the fork to completion; the original must be untouched.
        let before_now = live.now();
        let before_inflight = live.in_flight();
        let mut fork = fork;
        feed_range(&mut fork, &tr, 24..tr.len()).unwrap();
        let rf = fork.into_report();
        rf.validate(&tr).unwrap();
        assert_eq!(live.now(), before_now);
        assert_eq!(live.in_flight(), before_inflight);
        feed_range(&mut live, &tr, 24..tr.len()).unwrap();
        assert_eq!(live.into_report(), rf, "fork and original agree");
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let mut s = PerfectSession::new(4, SessionConfig::batch()).unwrap();
        let snap = s.save_state();
        let mut other = PerfectSession::new(2, SessionConfig::batch()).unwrap();
        let err = other.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("perfect workers"), "{err}");
        s.load_state(&snap).unwrap();
    }

    #[test]
    fn drained_spans_record_schedule_activity() {
        let mut tr = Trace::new("t");
        tr.push(KernelClass::GENERIC, [], 10);
        let mut s = PerfectSession::new(1, SessionConfig::batch().with_spans()).unwrap();
        s.submit(&tr.tasks()[0]);
        let mut out = Vec::new();
        s.drain_events(&mut out);
        let kinds = |out: &[SpanEvent]| out.iter().map(|e| (e.kind, e.at)).collect::<Vec<_>>();
        assert_eq!(
            kinds(&out),
            [(SpanKind::Submitted, 0)],
            "only the admission so far"
        );
        out.clear();
        s.advance_to(10);
        s.drain_events(&mut out);
        assert_eq!(
            kinds(&out),
            [(SpanKind::Started, 0), (SpanKind::Finished, 10)],
            "each event is drained once"
        );
    }
}
