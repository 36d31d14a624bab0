//! The streaming-session vocabulary shared by every execution engine.
//!
//! The paper's Picos is an *online* device: the runtime pushes tasks as it
//! discovers them and the accelerator accepts or stalls them under finite
//! capacity. Every engine of the reproduction therefore exposes an
//! incremental **session** — a resumable simulation that ingests tasks one
//! at a time ([`SessionCore::submit`]), honours `taskwait` barriers
//! ([`SessionCore::barrier`]), advances simulated time on demand
//! ([`SessionCore::advance_to`] / [`SessionCore::step`]) and, when opened
//! with [`SessionConfig::trace_spans`], streams its lifecycle
//! [`SpanEvent`]s out through [`SessionCore::drain_events`]. The batch
//! `run(&Trace)` entry points are thin drivers over sessions
//! ([`feed_trace`]).
//!
//! # Timing semantics
//!
//! A submitted task *arrives* at the session's current time. While the
//! session is **open** (more submissions may come) and able to ingest,
//! [`SessionCore::step`] refuses to move the clock — the model never runs
//! ahead of an open input stream, which is what makes a session driven
//! task-by-task (in any submit/step interleaving) bit-exact with the batch
//! run. Moving time forward is always an explicit client assertion:
//! [`SessionCore::advance_to`] means "no input arrives before this cycle"
//! (the open-loop arrival primitive used by the paced driver), and
//! `step` advances only when the session is ingest-blocked — its in-flight
//! window is full or its next task waits behind a taskwait — or closed.

use crate::report::ExecReport;
use picos_metrics::span::SpanEvent;
use picos_trace::snap::{Dec, Enc, Snap};
use picos_trace::{SnapError, TaskDescriptor, Trace, Value};
use std::fmt;
use std::ops::Range;

/// Outcome of submitting a task to a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The task was admitted and will be created as early as the engine's
    /// timing model allows.
    Accepted,
    /// The session's in-flight window is saturated (the analogue of the
    /// paper's full-TRS stall reaching the submitting runtime). The task
    /// was **not** admitted; retry after draining with
    /// [`SessionCore::step`] or [`SessionCore::advance_to`].
    Backpressured,
}

/// Per-session knobs, chosen when the session is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// Maximum tasks in flight (admitted but not finished) before
    /// [`SessionCore::submit`] returns [`Admission::Backpressured`].
    /// `None` (the default) admits unboundedly, which is the batch-run
    /// semantics: the trace is fully known, so nothing limits pre-loading.
    pub window: Option<usize>,
    /// Cycle width of the telemetry sampling windows. `None` (the
    /// default) attaches no sampler: probe points stay plain field
    /// increments and the run produces no
    /// [`Timeline`](picos_metrics::Timeline). Attaching one is
    /// observation-only — it changes no cycle of the schedule.
    pub timeline_window: Option<u64>,
    /// Whether to record task-lifecycle span events
    /// ([`picos_metrics::span::SpanLog`]), readable live through
    /// [`SessionCore::drain_events`] and in full from the finished
    /// session. Off by default; attaching the recorder is
    /// observation-only — engines pay one branch per event site and no
    /// cycle of the schedule changes.
    pub trace_spans: bool,
}

impl SessionConfig {
    /// Batch-equivalent defaults: unbounded window, no span tracing, no
    /// telemetry sampler.
    pub fn batch() -> Self {
        SessionConfig::default()
    }

    /// A paced/open-loop configuration: bounded in-flight window, no
    /// observation attached.
    pub fn windowed(window: usize) -> Self {
        SessionConfig {
            window: Some(window),
            ..SessionConfig::default()
        }
    }

    /// Batch defaults plus a cycle-windowed telemetry sampler.
    pub fn timed(timeline_window: u64) -> Self {
        SessionConfig {
            timeline_window: Some(timeline_window),
            ..SessionConfig::default()
        }
    }

    /// Sets the telemetry sampling window.
    pub fn with_timeline(mut self, timeline_window: u64) -> Self {
        self.timeline_window = Some(timeline_window);
        self
    }

    /// Enables task-lifecycle span tracing.
    pub fn with_spans(mut self) -> Self {
        self.trace_spans = true;
        self
    }

    /// Rejects a zero in-flight window, which would backpressure every
    /// submit forever, and a zero-cycle telemetry window.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a backend configuration error.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == Some(0) {
            return Err("session window must admit at least one task".into());
        }
        if self.timeline_window == Some(0) {
            return Err("telemetry timeline window must be at least one cycle".into());
        }
        Ok(())
    }
}

/// The incremental-ingest interface every engine's concrete session
/// implements. The `picos_backend` crate's `SimSession` trait extends this
/// with a uniform `finish` and wraps the result types.
///
/// Task ids are dense submission indices: the `i`-th accepted task has id
/// `i` (matching [`TaskDescriptor::id`] when a whole trace is fed in
/// creation order). Sessions read the descriptor's dependences and
/// duration; its `id` field is ignored.
pub trait SessionCore {
    /// Offers a task to the session. On [`Admission::Accepted`] the task
    /// arrives at the current cycle and is created as early as the
    /// engine's own timing model allows; on [`Admission::Backpressured`]
    /// nothing was recorded and the caller must retry.
    fn submit(&mut self, task: &TaskDescriptor) -> Admission;

    /// Declares an OmpSs `taskwait`: every task submitted after this call
    /// is created only once all previously submitted tasks have finished.
    fn barrier(&mut self);

    /// Advances simulated time to `cycle`, asserting that no submission
    /// arrives earlier. Processes every internal event on the way; a
    /// `cycle` at or before the current time only settles current-time
    /// work.
    fn advance_to(&mut self, cycle: u64);

    /// Makes minimal safe progress: settles current-time work, and — only
    /// when the session is ingest-blocked (window full, or the next task
    /// gated behind a taskwait) or closed to input — advances to the next
    /// internal event. Returns `false` when nothing was done because the
    /// session is idle and waiting for input (or fully drained).
    fn step(&mut self) -> bool;

    /// Current simulated time.
    fn now(&self) -> u64;

    /// Tasks admitted but not yet finished.
    fn in_flight(&self) -> usize;

    /// Copies the session-level span events recorded since the previous
    /// drain into `out`, in recording order; yields nothing unless the
    /// session was opened with [`SessionConfig::trace_spans`]. The log is
    /// never shortened: the drained batches, concatenated, are a prefix
    /// of the finished session's span log (which appends the engine
    /// cores' own probe events at finish). Recording order is
    /// simulation-processing order, not timestamp order — a start is
    /// stamped with its dispatch-delayed cycle — and the cluster's epoch
    /// loop records shard by shard; sort with
    /// [`SpanLog::canonical_sort`](picos_metrics::span::SpanLog::canonical_sort)'s
    /// key when a deterministic order is needed.
    fn drain_events(&mut self, out: &mut Vec<SpanEvent>);

    /// Hints that roughly `additional` more tasks will be submitted, so
    /// the session can pre-size its per-task state. Purely an
    /// optimization; the default does nothing.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }
}

/// Boxed sessions forward the whole ingest interface, so drivers that are
/// generic over `S: SessionCore` (the journaling wrapper, the feed loops)
/// work directly on `Box<dyn SimSession>`-shaped trait objects.
impl<S: SessionCore + ?Sized> SessionCore for Box<S> {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        (**self).submit(task)
    }

    fn barrier(&mut self) {
        (**self).barrier()
    }

    fn advance_to(&mut self, cycle: u64) {
        (**self).advance_to(cycle)
    }

    fn step(&mut self) -> bool {
        (**self).step()
    }

    fn now(&self) -> u64 {
        (**self).now()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn drain_events(&mut self, out: &mut Vec<SpanEvent>) {
        (**self).drain_events(out)
    }

    fn reserve(&mut self, additional: usize) {
        (**self).reserve(additional)
    }
}

/// The driver shape shared by the event-loop sessions (HIL platform,
/// cluster): a batch-loop body run at the current time ([`pump`]) plus
/// the earliest pending internal event ([`next_time`]).
///
/// The provided methods implement the [`SessionCore`] clock contract in
/// one place — `advance_to`'s "no input before this cycle" drive,
/// `step`'s blocked-only minimal advance, and the run-to-quiescence
/// finish — so the bit-exactness invariant cannot drift between engines.
///
/// # The settled flag
///
/// The drives skip a pump that could not change anything. They set the
/// implementor's [`settled`] flag after each pump and clear it whenever
/// they move the clock; while it is set, the first pump of a drive (the
/// settle pump of `step`, `advance_to` and `finish`) is skipped. A
/// backpressured client loop — `submit` refused, `step`, `submit`
/// refused, ... — therefore pumps once per step instead of twice.
///
/// [`pump`]: EventLoopCore::pump
/// [`next_time`]: EventLoopCore::next_time
/// [`settled`]: EventLoopCore::settled
pub trait EventLoopCore {
    /// Runs the loop body of the batch driver at the current time
    /// (completions, deliveries, feeding, dispatch).
    ///
    /// Must be idempotent at a fixed time: a second pump with no input in
    /// between changes nothing. The drives rely on this to skip the pump
    /// of a settled session, so implementors must also clear
    /// [`settled`](EventLoopCore::settled) on every input that can change
    /// what a pump at the current time does (an accepted submission, a
    /// taskwait, a restored snapshot, a clock move outside these drives).
    fn pump(&mut self);

    /// Time of the next internal event, if any.
    fn next_time(&self) -> Option<u64>;

    /// Current simulated time.
    fn clock(&self) -> u64;

    /// Moves the clock to `t` (monotone).
    fn set_clock(&mut self, t: u64);

    /// Called after the clock jumps past the last pending event (an
    /// `advance_to` beyond quiescence): bring the engine cores current at
    /// the new time.
    fn on_clock_jump(&mut self) {}

    /// Whether the next submission cannot be ingested right now (window
    /// saturated or the next task gated behind a taskwait).
    fn ingest_blocked(&self) -> bool;

    /// The drives' settled flag: `true` while a pump at the current time
    /// has run and no input has arrived since. Stored by the implementor
    /// and never serialized, so a restored session starts unsettled; a
    /// `Clone` fork may copy it.
    fn settled(&mut self) -> &mut bool;

    /// The `advance_to` drive: process every event up to `cycle`, then
    /// place the clock exactly there.
    fn drive_to(&mut self, cycle: u64) {
        settle(self);
        while let Some(tn) = self.next_time().filter(|&tn| tn <= cycle) {
            pump_at(self, tn);
        }
        if cycle > self.clock() {
            self.set_clock(cycle);
            *self.settled() = false;
            self.on_clock_jump();
        }
    }

    /// The `step` drive: settle current-time work, and advance to the
    /// next event only when ingest-blocked. Returns whether progress was
    /// made.
    fn drive_step(&mut self) -> bool {
        let was_blocked = self.ingest_blocked();
        settle(self);
        if !self.ingest_blocked() {
            // Settling current-time work is progress in itself when it
            // unblocked ingestion (a completion at the current cycle can
            // free the window): the caller must retry its submission
            // rather than read `false` as a terminal stall.
            return was_blocked;
        }
        match self.next_time() {
            Some(tn) => {
                pump_at(self, tn);
                true
            }
            None => false,
        }
    }

    /// The `finish` drive: run every remaining event to quiescence.
    fn drive_finish(&mut self) {
        settle(self);
        while let Some(tn) = self.next_time() {
            pump_at(self, tn);
        }
    }
}

/// Pumps at the current time unless the session is settled.
fn settle<E: EventLoopCore + ?Sized>(e: &mut E) {
    if !*e.settled() {
        e.pump();
        *e.settled() = true;
    }
}

/// Moves the clock to `t` and pumps there.
fn pump_at<E: EventLoopCore + ?Sized>(e: &mut E, t: u64) {
    e.set_clock(t);
    e.pump();
    *e.settled() = true;
}

/// The feed loop could not make progress: a submission stayed
/// backpressured while [`SessionCore::step`] reported no possible
/// progress. With the default unbounded window this cannot happen; it
/// indicates a window too small for the workload's barrier structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStall {
    /// Index of the task whose submission stalled.
    pub task: u32,
}

impl fmt::Display for FeedStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session backpressured with no draining progress at task {}",
            self.task
        )
    }
}

impl std::error::Error for FeedStall {}

/// Feeds a whole trace into a session in creation order, declaring its
/// taskwait barriers and draining backpressure with [`SessionCore::step`].
/// This is the batch half of every `run(&Trace)` entry point; the caller
/// finishes the session afterwards to obtain the report.
///
/// # Errors
///
/// Returns [`FeedStall`] if a submission stays backpressured while the
/// session cannot progress (impossible with the default unbounded window).
pub fn feed_trace<S: SessionCore + ?Sized>(
    session: &mut S,
    trace: &Trace,
) -> Result<(), FeedStall> {
    session.reserve(trace.len());
    feed_range(session, trace, 0..trace.len())
}

/// Feeds tasks `range` of a trace into a session in creation order: every
/// taskwait recorded at position `i` is declared right before task `i`,
/// and backpressure drains with [`SessionCore::step`]. Feeding `0..b`
/// then `b..len` declares exactly the sequence of one whole
/// [`feed_trace`] — the prefix/suffix driver of snapshots and forks.
///
/// # Errors
///
/// See [`feed_trace`].
///
/// # Panics
///
/// Panics if `range` reaches past the end of the trace.
pub fn feed_range<S: SessionCore + ?Sized>(
    session: &mut S,
    trace: &Trace,
    range: Range<usize>,
) -> Result<(), FeedStall> {
    let barriers = trace.barriers();
    let mut next = barriers.partition_point(|&b| (b as usize) < range.start);
    for i in range {
        while barriers.get(next) == Some(&(i as u32)) {
            session.barrier();
            next += 1;
        }
        let task = &trace.tasks()[i];
        loop {
            match session.submit(task) {
                Admission::Accepted => break,
                Admission::Backpressured => {
                    if !session.step() {
                        return Err(FeedStall { task: i as u32 });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Shared ingest bookkeeping for the concrete sessions: dense id
/// assignment, arrival stamping, per-task taskwait gates and the
/// in-flight window.
///
/// A task's *gate* is the number of previously submitted tasks that must
/// have finished before the engine may create it — exactly
/// `Trace::creation_limit` expressed per task: `feedable(i, done)` iff
/// `gates[i] <= done`.
#[derive(Debug, Clone, Default)]
pub struct Ingest {
    /// Taskwait gate of each admitted task.
    pub gates: Vec<u32>,
    /// Gate applied to the next submission.
    cur_gate: u32,
    /// Tasks admitted so far (the next task's dense id).
    pub admitted: usize,
    /// Tasks finished so far.
    pub finished: usize,
    /// In-flight window, from [`SessionConfig::window`].
    window: Option<usize>,
}

impl Ingest {
    /// Empty ingest state with the given in-flight window.
    pub fn new(window: Option<usize>) -> Self {
        Ingest {
            window,
            ..Ingest::default()
        }
    }

    /// Pre-sizes the per-task arrays for `additional` more admissions.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Whether a submission right now would be backpressured.
    pub fn saturated(&self) -> bool {
        self.window
            .is_some_and(|w| self.admitted - self.finished >= w)
    }

    /// Admits one task; returns its dense id. (Arrival stamping is left
    /// to the engines that consult it — only the software model does.)
    pub fn admit(&mut self) -> u32 {
        let id = self.admitted as u32;
        self.gates.push(self.cur_gate);
        self.admitted += 1;
        id
    }

    /// Declares a taskwait: subsequent tasks wait for everything admitted
    /// so far.
    pub fn barrier(&mut self) {
        self.cur_gate = self.admitted as u32;
    }

    /// Whether admitted task `i` may be created once `done` tasks have
    /// finished.
    pub fn feedable(&self, i: usize, done: usize) -> bool {
        i < self.admitted && self.gates[i] as usize <= done
    }

    /// Tasks admitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.admitted - self.finished
    }

    /// Serializes the ingest state (window included, as a restore guard).
    pub fn save_state(&self) -> Value {
        let Self {
            gates,
            cur_gate,
            admitted,
            finished,
            window,
        } = self;
        let mut e = Enc::new();
        e.put(window)
            .put(gates)
            .put(cur_gate)
            .put(admitted)
            .put(finished);
        e.done()
    }

    /// Overwrites the ingest state from [`Ingest::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot
    /// was taken under a different in-flight window.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "ingest")?;
        d.guard("ingest window", self.window)?;
        self.gates = d.take()?;
        self.cur_gate = d.take()?;
        self.admitted = d.take()?;
        self.finished = d.take()?;
        Ok(())
    }
}

/// Growable per-task schedule log shared by the sessions; finalizes into
/// an [`ExecReport`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleLog {
    /// Per-task start cycles, indexed by dense id.
    pub start: Vec<u64>,
    /// Per-task end cycles, indexed by dense id.
    pub end: Vec<u64>,
    /// Task ids in execution (start) order.
    pub order: Vec<u32>,
    /// Sum of admitted task durations (the report's sequential baseline).
    pub sequential: u64,
}

impl ScheduleLog {
    /// Pre-sizes the per-task arrays for `additional` more admissions.
    pub fn reserve(&mut self, additional: usize) {
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.order.reserve(additional);
    }

    /// Extends the per-task arrays for one admitted task of `duration`.
    pub fn admit(&mut self, duration: u64) {
        self.start.push(0);
        self.end.push(0);
        self.sequential += duration;
    }

    /// Records a task starting at `at` for `dur` cycles; returns its end.
    pub fn begin(&mut self, task: u32, at: u64, dur: u64) -> u64 {
        self.start[task as usize] = at;
        self.end[task as usize] = at + dur;
        self.order.push(task);
        at + dur
    }

    /// Re-records a task whose earlier execution was abandoned (fail-stop
    /// fault recovery): replaces its start/end and moves its entry to the
    /// back of the execution order — the re-execution is the one that
    /// really ran, and a restart is always the task's latest start, so the
    /// order stays topological. Returns the new end.
    pub fn rebegin(&mut self, task: u32, at: u64, dur: u64) -> u64 {
        self.start[task as usize] = at;
        self.end[task as usize] = at + dur;
        self.order.retain(|&x| x != task);
        self.order.push(task);
        at + dur
    }

    /// Finalizes the log into an [`ExecReport`] under an engine label.
    pub fn into_report(self, engine: &str, workers: usize) -> ExecReport {
        ExecReport {
            engine: engine.into(),
            workers,
            makespan: self.end.iter().copied().max().unwrap_or(0),
            sequential: self.sequential,
            order: self.order,
            start: self.start,
            end: self.end,
        }
    }
}

/// The per-task start and end columns, the execution order and the
/// sequential baseline.
impl Snap for ScheduleLog {
    fn put(&self, e: &mut Enc) {
        let Self {
            start,
            end,
            order,
            sequential,
        } = self;
        e.put(start).put(end).put(order).put(sequential);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let log = ScheduleLog {
            start: d.take()?,
            end: d.take()?,
            order: d.take()?,
            sequential: d.take()?,
        };
        if log.start.len() != log.end.len() {
            return Err(SnapError::new("schedule log: start/end length mismatch"));
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::{Dependence, KernelClass};

    #[test]
    fn ingest_gates_follow_barriers() {
        let mut ing = Ingest::new(None);
        ing.admit();
        ing.admit();
        ing.barrier();
        ing.admit();
        assert_eq!(ing.gates, vec![0, 0, 2]);
        assert!(ing.feedable(0, 0));
        assert!(!ing.feedable(2, 1));
        assert!(ing.feedable(2, 2));
        assert!(!ing.feedable(3, 2), "not yet admitted");
    }

    #[test]
    fn ingest_window_saturates() {
        let mut ing = Ingest::new(Some(2));
        assert!(!ing.saturated());
        ing.admit();
        ing.admit();
        assert!(ing.saturated());
        ing.finished += 1;
        assert!(!ing.saturated());
        assert_eq!(ing.in_flight(), 1);
    }

    #[test]
    fn feed_trace_declares_barriers_in_order() {
        /// Recording stub: logs submits and barriers.
        #[derive(Default)]
        struct Rec {
            log: Vec<String>,
        }
        impl SessionCore for Rec {
            fn submit(&mut self, task: &TaskDescriptor) -> Admission {
                self.log.push(format!("t{}", task.id.raw()));
                Admission::Accepted
            }
            fn barrier(&mut self) {
                self.log.push("|".into());
            }
            fn advance_to(&mut self, _: u64) {}
            fn step(&mut self) -> bool {
                false
            }
            fn now(&self) -> u64 {
                0
            }
            fn in_flight(&self) -> usize {
                0
            }
            fn drain_events(&mut self, _: &mut Vec<SpanEvent>) {}
        }
        let mut tr = Trace::new("t");
        tr.push(KernelClass::GENERIC, [Dependence::inout(1)], 1);
        tr.push_taskwait();
        tr.push(KernelClass::GENERIC, [], 1);
        tr.push(KernelClass::GENERIC, [], 1);
        tr.push_taskwait();
        tr.push(KernelClass::GENERIC, [], 1);
        let mut whole = Rec::default();
        feed_trace(&mut whole, &tr).unwrap();
        assert_eq!(whole.log, vec!["t0", "|", "t1", "t2", "|", "t3"]);
        // A split feed declares the same sequence for every cut, including
        // cuts exactly at a barrier (b = 1 and b = 3).
        for b in 0..=tr.len() {
            let mut split = Rec::default();
            feed_range(&mut split, &tr, 0..b).unwrap();
            feed_range(&mut split, &tr, b..tr.len()).unwrap();
            assert_eq!(split.log, whole.log, "cut at {b}");
        }
    }
}
