//! Discrete-event model of the Nanos++ software-only runtime.
//!
//! One master thread creates and submits tasks serially, paying the
//! [`NanosCostModel`] overheads that the paper's Figure 10 measures; worker
//! threads dequeue ready tasks through a serializing scheduler lock, execute
//! them for their trace duration, and release successors on completion. The
//! dependence analysis itself is the real algorithm
//! ([`crate::SoftwareDeps`]), so the schedule is always a legal topological
//! order of the dataflow graph — only its *timing* reflects the software
//! overheads.
//!
//! The model is an incremental [`SoftwareSession`]: the master pulls from
//! the session's ingest queue (starving when the client has not submitted
//! the next task yet, parking at declared taskwaits) instead of walking a
//! pre-loaded trace. [`run_software`] is the batch driver over a session.
//!
//! This is the reproduction's stand-in for the paper's Nanos++ baseline: its
//! throughput is bounded by the master (creation + submission per task) and
//! by scheduler-lock contention that grows with the thread count, which is
//! what makes it collapse for fine-grained tasks (Figures 1 and 11).

use crate::cost::NanosCostModel;
use crate::depmap::SoftwareDeps;
use crate::report::ExecReport;
use crate::session::{feed_trace, Admission, Ingest, ScheduleLog, SessionConfig, SessionCore};
use picos_metrics::span::{SpanEvent, SpanKind, SpanLog};
use picos_trace::snap::{guard, Dec, Enc, Snap};
use picos_trace::{snap_code, SnapError, TaskDescriptor, TaskId, Trace, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Configuration of the software runtime.
#[derive(Debug, Clone, Copy)]
pub struct SwRuntimeConfig {
    /// Total threads, master included (the paper's "workers").
    pub workers: usize,
    /// Whether the master joins execution once all tasks are created
    /// (OmpSs behaviour at the final taskwait).
    pub master_executes: bool,
    /// Per-operation overheads.
    pub cost: NanosCostModel,
}

impl SwRuntimeConfig {
    /// `workers` threads with default costs.
    pub fn with_workers(workers: usize) -> Self {
        SwRuntimeConfig {
            workers,
            master_executes: true,
            cost: NanosCostModel::default(),
        }
    }
}

/// Most threads a [`SoftwareSession`] accepts. The model keeps state per
/// thread, so the worker count, which can arrive from a wire request or a
/// CLI flag, is bounded before anything is allocated for it. The bound
/// sits far above any modelled machine (the figure grids stop at 48
/// threads) and matches the cluster's shard cap.
pub const MAX_SW_WORKERS: usize = 4096;

/// Errors from the software-runtime simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwError {
    /// Invalid configuration.
    Config(String),
    /// The event loop stopped with unfinished tasks (would indicate a bug
    /// in the dependence tracker).
    Stuck {
        /// Tasks completed before the stall.
        finished: usize,
        /// Total tasks.
        total: usize,
    },
}

impl std::fmt::Display for SwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwError::Config(m) => write!(f, "invalid configuration: {m}"),
            SwError::Stuck { finished, total } => {
                write!(f, "runtime stuck after {finished}/{total} tasks")
            }
        }
    }
}

impl std::error::Error for SwError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Creation + submission of task `i` completes.
    MasterDone(u32),
    /// Worker `w` looks for work.
    TryDequeue(usize),
    /// Worker `w` finished task `t`.
    TaskDone(usize, u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    Parked,
    Scheduled,
    Running,
}

/// What the master thread is doing between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Master {
    /// A `MasterDone` event is in the heap.
    Busy,
    /// Out of ingested tasks; resumes on the next submission (or joins the
    /// workers when the session closes). Idle since `master_free`.
    Starved,
    /// Waiting at a taskwait for the gate's tasks to finish.
    Parked(u32),
}

/// The scheduler lock: serializes enqueues, dequeues and releases.
fn acquire(lock_free: &mut u64, at: u64, hold: u64) -> u64 {
    let s = (*lock_free).max(at);
    *lock_free = s + hold;
    s + hold
}

/// Mixes every timing-relevant configuration field into a fingerprint, so
/// a snapshot refuses to load into a differently-configured session.
fn cfg_fingerprint(cfg: &SwRuntimeConfig) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    }
    let c = &cfg.cost;
    [
        cfg.workers as u64,
        cfg.master_executes as u64,
        c.create_base,
        c.create_per_thread,
        c.dep_base,
        c.dep_per_thread,
        c.enqueue,
        c.dequeue_base,
        c.dequeue_per_thread,
        c.release_per_succ,
    ]
    .into_iter()
    .fold(0xcbf2_9ce4_8422_2325, mix)
}

/// An event is three slots: a variant code and two operands (the second
/// is 0 unless the variant has one).
impl Snap for Ev {
    fn put(&self, e: &mut Enc) {
        match *self {
            Ev::MasterDone(i) => e.put(&0u8).put(&i).put(&0u8),
            Ev::TryDequeue(w) => e.put(&1u8).put(&w).put(&0u8),
            Ev::TaskDone(w, t) => e.put(&2u8).put(&w).put(&t),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let ev = match d.u64()? {
            0 => Ev::MasterDone(d.take()?),
            1 => Ev::TryDequeue(d.take()?),
            2 => return Ok(Ev::TaskDone(d.take()?, d.take()?)),
            other => {
                return Err(SnapError::new(format!(
                    "unknown software event code {other}"
                )))
            }
        };
        d.u64()?;
        Ok(ev)
    }
}

snap_code!(WorkerState {
    Parked = 0,
    Scheduled = 1,
    Running = 2,
});

/// The master is two slots: a state code and the parked gate (0 unless
/// parked).
impl Snap for Master {
    fn put(&self, e: &mut Enc) {
        match *self {
            Master::Busy => e.put(&0u8).put(&0u32),
            Master::Starved => e.put(&1u8).put(&0u32),
            Master::Parked(g) => e.put(&2u8).put(&g),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let (code, gate) = (d.u64()?, d.take()?);
        match code {
            0 => Ok(Master::Busy),
            1 => Ok(Master::Starved),
            2 => Ok(Master::Parked(gate)),
            other => Err(SnapError::new(format!("unknown master state code {other}"))),
        }
    }
}

/// An incremental session of the Nanos++ runtime model.
///
/// Feeding a whole trace and finishing reproduces [`run_software`]
/// bit-exactly; submitting after advancing the clock models tasks the
/// program discovered late (open-loop arrival).
///
/// Cloning is a deep copy of the full dynamic state — the fork primitive
/// of the snapshot subsystem.
#[derive(Debug, Clone)]
pub struct SoftwareSession {
    cfg: SwRuntimeConfig,
    deps: SoftwareDeps,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    ready_q: VecDeque<u32>,
    state: Vec<WorkerState>,
    lock_free: u64,
    /// Admitted tasks, dense ids (the master's creation queue).
    tasks: Vec<TaskDescriptor>,
    /// Arrival cycle of each admitted task (the session clock at submit):
    /// the master cannot create a task before the program discovered it.
    arrivals: Vec<u64>,
    /// Next task the master will create.
    created: usize,
    master: Master,
    /// Time the master went idle (meaningful when starved or parked).
    master_free: u64,
    master_done: bool,
    closed: bool,
    now: u64,
    ingest: Ingest,
    log: ScheduleLog,
    /// Requested telemetry window; the software model's only occupancy is
    /// its worker pool, so its timeline is derived from the finished
    /// schedule at `finish` time.
    timeline_window: Option<u64>,
    /// Lifecycle span recorder, attached by [`SessionConfig::trace_spans`].
    /// Observation-only: every record site is one branch when absent.
    spans: Option<SpanLog>,
    /// Scratch for [`SoftwareDeps::finish_into`].
    newly: Vec<TaskId>,
}

impl SoftwareSession {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns [`SwError::Config`] for a zero worker count, more than
    /// [`MAX_SW_WORKERS`], or one worker with `master_executes` disabled.
    pub fn new(cfg: SwRuntimeConfig, session: SessionConfig) -> Result<Self, SwError> {
        if cfg.workers == 0 {
            return Err(SwError::Config("need at least one thread".into()));
        }
        if cfg.workers > MAX_SW_WORKERS {
            return Err(SwError::Config(format!(
                "{} threads exceed the software runtime's limit of {MAX_SW_WORKERS}",
                cfg.workers
            )));
        }
        if cfg.workers == 1 && !cfg.master_executes {
            return Err(SwError::Config(
                "a single thread must execute tasks (enable master_executes)".into(),
            ));
        }
        session.validate().map_err(SwError::Config)?;
        Ok(SoftwareSession {
            cfg,
            deps: SoftwareDeps::new(0),
            heap: BinaryHeap::new(),
            seq: 0,
            ready_q: VecDeque::new(),
            state: vec![WorkerState::Parked; cfg.workers],
            lock_free: 0,
            tasks: Vec::new(),
            arrivals: Vec::new(),
            created: 0,
            master: Master::Starved,
            master_free: 0,
            master_done: false,
            closed: false,
            now: 0,
            ingest: Ingest::new(session.window),
            log: ScheduleLog::default(),
            timeline_window: session.timeline_window,
            spans: session.trace_spans.then(SpanLog::new),
            newly: Vec::new(),
        })
    }

    /// The telemetry window this session was opened with, if any.
    pub fn timeline_window(&self) -> Option<u64> {
        self.timeline_window
    }

    fn push_ev(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, ev)));
    }

    /// Wakes one parked worker for a task enqueued at time `at` (worker 0
    /// is the master and only executes once creation is done).
    fn wake_one(&mut self, at: u64) {
        let master_done = self.master_done;
        if let Some(w) = self
            .state
            .iter()
            .enumerate()
            .filter(|&(w, s)| *s == WorkerState::Parked && (w != 0 || master_done))
            .map(|(w, _)| w)
            .next()
        {
            self.state[w] = WorkerState::Scheduled;
            self.push_ev(at, Ev::TryDequeue(w));
        }
    }

    /// Moves the master to its next action, idle since `at`: create the
    /// next ingested task, park at a gate, starve, or — once the session
    /// is closed and drained — finish creation and join the workers.
    fn master_try_next(&mut self, at: u64) {
        if self.created < self.ingest.admitted {
            let gate = self.ingest.gates[self.created];
            if gate as usize > self.ingest.finished {
                // taskwait: the master blocks until every earlier task
                // finished (paper, Section II-A).
                self.master = Master::Parked(gate);
                self.master_free = at;
            } else {
                let task = &self.tasks[self.created];
                let cost = self.cfg.cost.per_task(task.num_deps(), self.cfg.workers);
                let t0 = at.max(self.arrivals[self.created]);
                self.push_ev(t0 + cost, Ev::MasterDone(self.created as u32));
                self.master = Master::Busy;
            }
        } else {
            if self.closed && !self.master_done {
                self.master_done = true;
                if self.cfg.master_executes && self.ingest.admitted > 0 {
                    self.state[0] = WorkerState::Scheduled;
                    self.push_ev(at, Ev::TryDequeue(0));
                }
            }
            self.master = Master::Starved;
            self.master_free = at;
        }
    }

    /// Pops and handles the earliest event. Returns `false` on an empty
    /// heap.
    fn fire(&mut self) -> bool {
        let Some(Reverse((now, _, ev))) = self.heap.pop() else {
            return false;
        };
        self.now = now;
        match ev {
            Ev::MasterDone(i) => {
                let is_ready = self.deps.submit(&self.tasks[i as usize]);
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::DepsRegistered, now, 0, i, 0);
                }
                let mut master_free = now;
                if is_ready {
                    let t_enq = acquire(&mut self.lock_free, now, self.cfg.cost.enqueue);
                    self.ready_q.push_back(i);
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Ready, t_enq, 0, i, 0);
                    }
                    self.wake_one(t_enq);
                    master_free = t_enq;
                }
                self.created = i as usize + 1;
                self.master_try_next(master_free);
            }
            Ev::TryDequeue(w) => {
                if self.ready_q.is_empty() {
                    self.state[w] = WorkerState::Parked;
                } else {
                    let t_got = acquire(
                        &mut self.lock_free,
                        now,
                        self.cfg.cost.dequeue(self.cfg.workers),
                    );
                    let task = self.ready_q.pop_front().expect("checked non-empty");
                    self.state[w] = WorkerState::Running;
                    let dur = self.tasks[task as usize].duration;
                    let t_end = self.log.begin(task, t_got, dur);
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Started, t_got, 0, task, w as u32);
                    }
                    self.push_ev(t_end, Ev::TaskDone(w, task));
                }
            }
            Ev::TaskDone(w, task) => {
                self.ingest.finished += 1;
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::Finished, now, 0, task, w as u32);
                }
                let mut newly = std::mem::take(&mut self.newly);
                newly.clear();
                self.deps.finish_into(TaskId::new(task), &mut newly);
                let mut cur = now;
                for s in newly.drain(..) {
                    cur = acquire(&mut self.lock_free, cur, self.cfg.cost.release_per_succ);
                    self.ready_q.push_back(s.raw());
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Ready, cur, 0, s.raw(), 0);
                    }
                    self.wake_one(cur);
                }
                self.newly = newly;
                // A completed taskwait releases the parked master.
                if self.master == Master::Parked(self.ingest.finished as u32) {
                    self.master_try_next(cur);
                }
                self.state[w] = WorkerState::Scheduled;
                self.push_ev(cur, Ev::TryDequeue(w));
            }
        }
        true
    }

    /// Handles every event at or before the current time; returns whether
    /// anything fired.
    fn settle(&mut self) -> bool {
        let mut fired = false;
        while matches!(self.heap.peek(), Some(&Reverse((t, _, _))) if t <= self.now) {
            self.fire();
            fired = true;
        }
        fired
    }

    /// Whether the next submission cannot be ingested right now.
    fn ingest_blocked(&self) -> bool {
        self.ingest.saturated() || matches!(self.master, Master::Parked(_))
    }

    /// Serializes the full dynamic state. Restore by opening a session
    /// with the same configuration and calling
    /// [`SoftwareSession::load_state`].
    pub fn save_state(&self) -> Value {
        let Self {
            cfg,
            deps,
            heap,
            seq,
            ready_q,
            state,
            lock_free,
            tasks,
            arrivals,
            created,
            master,
            master_free,
            master_done,
            closed,
            now,
            ingest,
            log,
            timeline_window,
            spans,
            newly: _,
        } = self;
        let mut heap: Vec<(u64, u64, Ev)> = heap.iter().map(|r| r.0).collect();
        heap.sort_unstable();
        let mut e = Enc::new();
        e.put(&cfg_fingerprint(cfg))
            .put(timeline_window)
            .put(&spans.is_some())
            .val(deps.save_state())
            .put(&heap)
            .put(seq)
            .put(ready_q)
            .put(state)
            .put(lock_free)
            .put(tasks)
            .put(arrivals)
            .put(created)
            .put(master)
            .put(master_free)
            .put(master_done)
            .put(closed)
            .put(now)
            .val(ingest.save_state())
            .nest(log)
            .put(spans);
        e.done()
    }

    /// Overwrites the dynamic state from [`SoftwareSession::save_state`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or a configuration
    /// mismatch (worker count, cost model, telemetry attachments,
    /// in-flight window); the session must then be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "software session")?;
        d.guard("nanos config", cfg_fingerprint(&self.cfg))?;
        d.guard("nanos timeline window", self.timeline_window)?;
        d.guard("nanos spans attached", self.spans.is_some())?;
        self.deps.load_state(d.val()?)?;
        self.heap = d.take::<Vec<_>>()?.into_iter().map(Reverse).collect();
        self.seq = d.take()?;
        self.ready_q = d.take()?;
        self.state = d.take()?;
        guard("nanos worker table", self.state.len(), self.cfg.workers)?;
        self.lock_free = d.take()?;
        self.tasks = d.take()?;
        self.arrivals = d.take()?;
        self.created = d.take()?;
        self.master = d.take()?;
        self.master_free = d.take()?;
        self.master_done = d.take()?;
        self.closed = d.take()?;
        self.now = d.take()?;
        self.ingest.load_state(d.val()?)?;
        self.log = d.nest()?;
        self.spans = d.take()?;
        Ok(())
    }

    /// Closes the session, runs it to quiescence and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`SwError::Stuck`] if tasks remain unfinished (an engine
    /// bug).
    pub fn into_report(self) -> Result<ExecReport, SwError> {
        self.into_output().map(|(r, _)| r)
    }

    /// Like [`SoftwareSession::into_report`], and also returns the span
    /// log (recording order) when the session was opened with
    /// [`SessionConfig::trace_spans`].
    ///
    /// # Errors
    ///
    /// See [`SoftwareSession::into_report`].
    pub fn into_output(mut self) -> Result<(ExecReport, Option<SpanLog>), SwError> {
        self.closed = true;
        if self.master == Master::Starved {
            let at = self.master_free.max(self.now);
            self.master_try_next(at);
        }
        while self.fire() {}
        if self.ingest.finished != self.ingest.admitted {
            return Err(SwError::Stuck {
                finished: self.ingest.finished,
                total: self.ingest.admitted,
            });
        }
        let spans = self.spans.take();
        Ok((self.log.into_report("nanos", self.cfg.workers), spans))
    }
}

impl SessionCore for SoftwareSession {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        if self.ingest.saturated() {
            return Admission::Backpressured;
        }
        let id = self.ingest.admit();
        self.arrivals.push(self.now);
        self.log.admit(task.duration);
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Submitted, self.now, 0, id, 0);
        }
        let mut t = task.clone();
        t.id = TaskId::new(id);
        self.tasks.push(t);
        if self.master == Master::Starved {
            self.master_try_next(self.master_free);
        }
        Admission::Accepted
    }

    fn barrier(&mut self) {
        self.ingest.barrier();
    }

    fn advance_to(&mut self, cycle: u64) {
        while matches!(self.heap.peek(), Some(&Reverse((t, _, _))) if t <= cycle) {
            self.fire();
        }
        self.now = self.now.max(cycle);
    }

    fn step(&mut self) -> bool {
        // Settling same-time events is progress in itself: it can retire a
        // task and free the in-flight window, in which case the session is
        // no longer blocked and the caller must retry its submission
        // rather than read `false` as a terminal stall.
        let settled = self.settle();
        if self.ingest_blocked() {
            self.fire() || settled
        } else {
            settled
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
        self.tasks.reserve(additional);
        self.arrivals.reserve(additional);
    }
}

/// Runs a trace on the software runtime model: opens a
/// [`SoftwareSession`], feeds the whole trace and finishes it.
///
/// # Errors
///
/// Returns [`SwError::Config`] for a configuration
/// [`SoftwareSession::new`] rejects and [`SwError::Stuck`] if the
/// simulation cannot finish (which would indicate an internal bug).
pub fn run_software(trace: &Trace, cfg: SwRuntimeConfig) -> Result<ExecReport, SwError> {
    let mut s = SoftwareSession::new(cfg, SessionConfig::batch())?;
    feed_trace(&mut s, trace).expect("unbounded window cannot stall");
    s.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::feed_range;
    use picos_trace::gen;

    #[test]
    fn completes_and_validates_on_all_apps_coarse() {
        for app in gen::App::ALL {
            let bs = app.paper_block_sizes()[0];
            let tr = app.generate(bs);
            let r = run_software(&tr, SwRuntimeConfig::with_workers(4)).unwrap();
            r.validate(&tr).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(r.speedup() > 0.5, "{app}: {}", r.speedup());
        }
    }

    #[test]
    fn speedup_bounded_by_workers() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(128));
        for w in [2, 4, 8] {
            let r = run_software(&tr, SwRuntimeConfig::with_workers(w)).unwrap();
            assert!(r.speedup() <= w as f64 + 1e-9, "w {w}: {}", r.speedup());
        }
    }

    #[test]
    fn coarse_tasks_scale_fine_tasks_collapse() {
        // The Figure 1 phenomenon: with constant problem size, decreasing
        // block size first helps then hurts.
        let s256 = run_software(
            &gen::cholesky(gen::CholeskyConfig::paper(256)),
            SwRuntimeConfig::with_workers(12),
        )
        .unwrap()
        .speedup();
        let s64 = run_software(
            &gen::cholesky(gen::CholeskyConfig::paper(64)),
            SwRuntimeConfig::with_workers(12),
        )
        .unwrap()
        .speedup();
        let s32 = run_software(
            &gen::cholesky(gen::CholeskyConfig::paper(32)),
            SwRuntimeConfig::with_workers(12),
        )
        .unwrap()
        .speedup();
        assert!(
            s64 > s256 * 0.8,
            "bs 64 ({s64}) should be near/above bs 256 ({s256})"
        );
        assert!(
            s32 < s64 * 0.6,
            "bs 32 ({s32}) must collapse vs bs 64 ({s64})"
        );
        assert!(s32 < 3.0, "bs 32 must be master-bound: {s32}");
    }

    #[test]
    fn master_overhead_bounds_throughput() {
        // With tiny tasks the makespan approaches N * per-task overhead.
        let tr = gen::synthetic(gen::Case::Case2);
        let cfg = SwRuntimeConfig::with_workers(4);
        let r = run_software(&tr, cfg).unwrap();
        let per_task = cfg.cost.per_task(1, 4);
        let lower = tr.len() as u64 * per_task;
        assert!(r.makespan >= lower, "{} < {lower}", r.makespan);
        assert!(r.makespan < lower * 2, "{} too slow", r.makespan);
    }

    #[test]
    fn deterministic() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let a = run_software(&tr, SwRuntimeConfig::with_workers(8)).unwrap();
        let b = run_software(&tr, SwRuntimeConfig::with_workers(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        let tr = gen::synthetic(gen::Case::Case1);
        assert!(matches!(
            run_software(
                &tr,
                SwRuntimeConfig {
                    workers: 0,
                    ..SwRuntimeConfig::with_workers(1)
                }
            ),
            Err(SwError::Config(_))
        ));
        let mut cfg = SwRuntimeConfig::with_workers(1);
        cfg.master_executes = false;
        assert!(matches!(run_software(&tr, cfg), Err(SwError::Config(_))));
        let cfg = SwRuntimeConfig::with_workers(MAX_SW_WORKERS + 1);
        assert!(matches!(run_software(&tr, cfg), Err(SwError::Config(_))));
        assert!(run_software(&tr, SwRuntimeConfig::with_workers(MAX_SW_WORKERS)).is_ok());
    }

    #[test]
    fn empty_trace() {
        let tr = picos_trace::Trace::new("empty");
        let r = run_software(&tr, SwRuntimeConfig::with_workers(2)).unwrap();
        assert_eq!(r.makespan, 0);
        assert!(r.order.is_empty());
    }

    #[test]
    fn single_worker_executes_everything() {
        let tr = gen::synthetic(gen::Case::Case4);
        let r = run_software(&tr, SwRuntimeConfig::with_workers(1)).unwrap();
        r.validate(&tr).unwrap();
        assert_eq!(r.order.len(), 100);
    }

    #[test]
    fn session_matches_batch_run_one_task_at_a_time() {
        let tr = gen::synthetic(gen::Case::Case3);
        let cfg = SwRuntimeConfig::with_workers(6);
        let batch = run_software(&tr, cfg).unwrap();
        let mut s = SoftwareSession::new(cfg, SessionConfig::batch()).unwrap();
        feed_trace(&mut s, &tr).unwrap();
        assert_eq!(s.in_flight(), tr.len());
        let streamed = s.into_report().unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn step_reports_settle_progress_that_frees_the_window() {
        // Regression: a TaskDone can share its timestamp with a MasterDone
        // that sorts first in the heap. The step() that settles the
        // TaskDone frees the window and must return true — callers treat
        // false as a terminal stall.
        let mut tr = picos_trace::Trace::new("same-time");
        for _ in 0..3 {
            tr.push(picos_trace::KernelClass::GENERIC, [], 6_400);
        }
        let mut s =
            SoftwareSession::new(SwRuntimeConfig::with_workers(4), SessionConfig::windowed(2))
                .unwrap();
        feed_trace(&mut s, &tr).expect("no spurious FeedStall");
        let r = s.into_report().unwrap();
        assert_eq!(r.order.len(), 3);
        r.validate(&tr).unwrap();
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let scfg = SessionConfig::windowed(16).with_spans();
        let cfg = SwRuntimeConfig::with_workers(4);
        for pause in [0usize, 9, 33] {
            let mut cont = SoftwareSession::new(cfg, scfg).unwrap();
            let mut live = SoftwareSession::new(cfg, scfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();
            let text = picos_trace::snap::value_to_json(&live.save_state());
            let v = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = SoftwareSession::new(cfg, scfg).unwrap();
            restored.load_state(&v).unwrap();
            assert_eq!(restored.now(), live.now(), "pause {pause}");
            assert_eq!(restored.in_flight(), live.in_flight(), "pause {pause}");
            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let mut ec = Vec::new();
            let mut er = Vec::new();
            cont.drain_events(&mut ec);
            restored.drain_events(&mut er);
            assert_eq!(ec, er, "pause {pause}: undrained events diverged");
            let (rc, sc) = cont.into_output().unwrap();
            let (rr, sr) = restored.into_output().unwrap();
            assert_eq!(rc, rr, "pause {pause}: report diverged");
            assert_eq!(sc, sr, "pause {pause}: span log diverged");
        }
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let cfg = SwRuntimeConfig::with_workers(4);
        let mut live = SoftwareSession::new(cfg, SessionConfig::windowed(8)).unwrap();
        feed_range(&mut live, &tr, 0..20).unwrap();
        let mut fork = live.clone();
        let before_now = live.now();
        feed_range(&mut fork, &tr, 20..tr.len()).unwrap();
        let rf = fork.into_report().unwrap();
        rf.validate(&tr).unwrap();
        assert_eq!(live.now(), before_now, "fork must not disturb the original");
        feed_range(&mut live, &tr, 20..tr.len()).unwrap();
        assert_eq!(live.into_report().unwrap(), rf);
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let mut s =
            SoftwareSession::new(SwRuntimeConfig::with_workers(4), SessionConfig::batch()).unwrap();
        let snap = s.save_state();
        let mut other =
            SoftwareSession::new(SwRuntimeConfig::with_workers(2), SessionConfig::batch()).unwrap();
        let err = other.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("nanos config"), "{err}");
        s.load_state(&snap).unwrap();
    }

    #[test]
    fn windowed_session_backpressures_and_completes() {
        let tr = gen::synthetic(gen::Case::Case1);
        let mut s =
            SoftwareSession::new(SwRuntimeConfig::with_workers(4), SessionConfig::windowed(3))
                .unwrap();
        let mut retries = 0;
        for t in tr.iter() {
            loop {
                match s.submit(t) {
                    Admission::Accepted => break,
                    Admission::Backpressured => {
                        retries += 1;
                        assert!(s.step(), "blocked session must drain");
                    }
                }
            }
        }
        assert!(retries > 0, "a 3-task window must backpressure");
        let r = s.into_report().unwrap();
        r.validate(&tr).unwrap();
    }
}
