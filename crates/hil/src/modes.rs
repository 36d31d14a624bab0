//! The three operational modes of the HIL platform (paper, Section IV-B).
//!
//! * [`HilMode::HwOnly`] — all tasks are pre-loaded into Picos and workers
//!   live in the programmable logic: measures the raw hardware.
//! * [`HilMode::HwComm`] — adds the AXI Stream bus: every new task, ready
//!   task and finish notification crosses the serializing bus.
//! * [`HilMode::FullSystem`] — the closed loop: the ARM core creates each
//!   task, submits it over the bus, retrieves ready tasks, dispatches them
//!   to workers and forwards finishes.
//!
//! All three modes are driven by one resumable stepper, [`HilSession`]:
//! tasks stream in through [`SessionCore::submit`] and the platform model
//! decides when they are created/submitted according to its own timing
//! (immediately for HW-only, behind the SR0 FIFO for HW+comm, behind the
//! serial ARM core for Full-system). [`run_hil`] is the batch driver over
//! a session.

use crate::cost::HilCostModel;
use crate::pool::{Bus, BusMsg, Link, Workers};
use picos_core::{FinishedReq, PicosConfig, PicosSystem, SlotRef};
use picos_metrics::span::{SpanEvent, SpanKind, SpanLog};
use picos_metrics::{SeriesSpec, Timeline, WindowSampler};
use picos_runtime::session::{
    feed_trace, Admission, EventLoopCore, Ingest, ScheduleLog, SessionConfig, SessionCore,
};
use picos_runtime::ExecReport;
use picos_trace::snap::{Dec, Enc, SnapError};
use picos_trace::{snap_record, Dependence, TaskDescriptor, TaskId, Trace, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Operational mode of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HilMode {
    /// Raw hardware: no communication or software costs.
    HwOnly,
    /// Hardware plus AXI communication.
    HwComm,
    /// Closed loop through the ARM core (communication + task creation).
    FullSystem,
}

impl HilMode {
    /// The three modes in paper order (Table IV's row groups).
    pub const ALL: [HilMode; 3] = [HilMode::HwOnly, HilMode::HwComm, HilMode::FullSystem];

    /// Paper-style label.
    pub fn name(self) -> &'static str {
        match self {
            HilMode::HwOnly => "HW-only",
            HilMode::HwComm => "HW+comm.",
            HilMode::FullSystem => "Full-system",
        }
    }

    /// Engine label of the reports this mode produces.
    pub fn engine_label(self) -> &'static str {
        match self {
            HilMode::HwOnly => "picos-hw-only",
            HilMode::HwComm => "picos-hw-comm",
            HilMode::FullSystem => "picos-full",
        }
    }
}

impl std::fmt::Display for HilMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a HIL run.
#[derive(Debug, Clone)]
pub struct HilConfig {
    /// The Picos core configuration.
    pub picos: PicosConfig,
    /// Number of workers executing tasks.
    pub workers: usize,
    /// Platform cost model.
    pub cost: HilCostModel,
    /// Deterministic fail-stop schedule: at each cycle in this list one
    /// worker fail-stops permanently ([`Workers::fail_one`]; the cluster
    /// backend's fault taxonomy extended to the single-Picos platform). A
    /// busy victim's in-flight task is re-executed on a surviving worker.
    /// Must leave at least one survivor.
    pub worker_faults: Vec<u64>,
}

impl HilConfig {
    /// The paper's balanced configuration with `workers` workers.
    pub fn balanced(workers: usize) -> Self {
        HilConfig {
            picos: PicosConfig::balanced(),
            workers,
            cost: HilCostModel::default(),
            worker_faults: Vec::new(),
        }
    }

    /// Adds a deterministic fail-stop worker-fault schedule (builder
    /// style). Times are absolute cycles; order does not matter.
    pub fn with_worker_faults(mut self, at: impl IntoIterator<Item = u64>) -> Self {
        self.worker_faults = at.into_iter().collect();
        self
    }
}

/// Mixes the platform-level configuration into a fingerprint so a snapshot
/// refuses to load into a differently-configured session (the Picos core's
/// own config is guarded inside [`PicosSystem::load_state`]).
fn hil_fingerprint(cfg: &HilConfig) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    }
    let c = &cfg.cost;
    let mut h = [
        cfg.workers as u64,
        c.dispatch,
        c.axi_occupancy,
        c.axi_latency,
        c.axi_setup,
        c.sr_queue as u64,
        c.arm_startup,
        c.arm_create,
        c.arm_submit_base,
        c.arm_submit_per_dep,
        c.arm_retrieve,
        c.arm_dispatch,
        c.arm_finish,
    ]
    .into_iter()
    .fold(0xcbf2_9ce4_8422_2325, mix);
    h = mix(h, cfg.worker_faults.len() as u64);
    cfg.worker_faults.iter().fold(h, |h, &t| mix(h, t))
}

/// Errors from a HIL run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HilError {
    /// The platform stopped with unfinished work.
    Stalled {
        /// Tasks executed before the stall.
        executed: usize,
        /// Total tasks in the trace.
        total: usize,
        /// Time of the stall.
        at: u64,
    },
}

impl std::fmt::Display for HilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HilError::Stalled {
                executed,
                total,
                at,
            } => {
                write!(
                    f,
                    "platform stalled at cycle {at} after {executed}/{total} tasks"
                )
            }
        }
    }
}

impl std::error::Error for HilError {}

fn min_next(cands: &[Option<u64>]) -> Option<u64> {
    cands.iter().flatten().copied().min()
}

/// What the platform needs to remember about an admitted task.
#[derive(Debug, Clone)]
struct TaskMeta {
    dur: u64,
    deps: Arc<[Dependence]>,
}

snap_record!(TaskMeta { dur, deps });

/// A resumable HIL platform stepper: the Picos core, the worker pool and —
/// depending on the [`HilMode`] — the AXI bus and the serial ARM core,
/// advanced on demand.
///
/// Submitted tasks enter the platform's ingest queue; the model itself
/// decides when each is created (the SR0 FIFO and the ARM core throttle
/// the two communication modes exactly as in the batch drivers), so a
/// session fed a whole trace and finished is cycle-identical to
/// [`run_hil`].
///
/// Cloning is a deep copy of the full dynamic state — the fork primitive
/// of the snapshot subsystem.
#[derive(Debug, Clone)]
pub struct HilSession {
    mode: HilMode,
    cfg: HilConfig,
    sys: PicosSystem,
    workers: Workers,
    /// The AXI bus (`HwComm` / `FullSystem` only).
    bus: Option<Bus>,
    tasks: Vec<TaskMeta>,
    /// Next admitted task the platform will create/submit.
    next_feed: usize,
    /// Completions awaiting ARM forwarding (`FullSystem` only).
    finish_q: VecDeque<(u32, SlotRef)>,
    newtasks_in_bus: usize,
    inflight_ready: usize,
    arm_free: u64,
    t: u64,
    /// Fail-stop schedule (sorted copy of the config's), with the cursor
    /// of the next pending fault.
    faults: Vec<u64>,
    fault_cursor: usize,
    /// Tasks waiting for a surviving worker after a fail-stop: killed
    /// in-flight tasks (`rerun == true`, re-executed with full duration,
    /// keeping their TM slot) and ready deliveries whose reserved worker
    /// died before they arrived (`rerun == false`).
    restart_q: VecDeque<(u32, SlotRef, bool)>,
    /// Deterministic task re-executions after fail-stop faults.
    recoveries: u64,
    ingest: Ingest,
    log: ScheduleLog,
    /// Platform-level telemetry (worker occupancy, bus occupancy); the
    /// core's own sampler rides inside `sys`. `None` keeps every clock
    /// move sampling-free.
    sampler: Option<WindowSampler>,
    /// Driver-side lifecycle span recorder; the core's own span probe
    /// rides inside `sys` and is merged at finish. Observation-only.
    spans: Option<SpanLog>,
    /// The shared drive's settled flag ([`EventLoopCore::settled`]); not
    /// serialized.
    settled: bool,
}

impl HilSession {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration has zero workers, a
    /// worker-fault schedule that kills them all, or a Picos core
    /// configuration that fails [`PicosConfig::validate`].
    pub fn new(mode: HilMode, cfg: HilConfig, session: SessionConfig) -> Result<Self, String> {
        cfg.picos.validate()?;
        if cfg.workers == 0 {
            return Err("picos platform needs at least one worker".into());
        }
        if cfg.worker_faults.len() >= cfg.workers {
            return Err(format!(
                "worker-fault schedule kills all {} workers; at least one must survive",
                cfg.workers
            ));
        }
        session.validate()?;
        let mut faults = cfg.worker_faults.clone();
        faults.sort_unstable();
        let mut sys = PicosSystem::new(cfg.picos.clone());
        let sampler = session.timeline_window.map(|w| {
            sys.attach_timeline(w);
            let mut series = vec![SeriesSpec::gauge("workers.busy")];
            if mode != HilMode::HwOnly {
                series.push(SeriesSpec::gauge("bus.inflight"));
            }
            WindowSampler::new(w, series)
        });
        let spans = session.trace_spans.then(|| {
            sys.attach_spans(0);
            SpanLog::new()
        });
        Ok(HilSession {
            sys,
            workers: Workers::new(cfg.workers),
            bus: match mode {
                HilMode::HwOnly => None,
                HilMode::HwComm | HilMode::FullSystem => Some(Bus::new(cfg.cost.axi_link())),
            },
            tasks: Vec::new(),
            next_feed: 0,
            finish_q: VecDeque::new(),
            newtasks_in_bus: 0,
            inflight_ready: 0,
            arm_free: cfg.cost.arm_startup,
            t: 0,
            faults,
            fault_cursor: 0,
            restart_q: VecDeque::new(),
            recoveries: 0,
            ingest: Ingest::new(session.window),
            log: ScheduleLog::default(),
            sampler,
            spans,
            settled: false,
            mode,
            cfg,
        })
    }

    /// Reads the platform-level probe points (worker occupancy, bus
    /// occupancy) in the sampler's series order.
    fn probe_platform(&self, out: &mut [u64]) {
        out[0] = (self.cfg.workers - self.workers.idle()) as u64;
        if let Some(bus) = &self.bus {
            out[1] = bus.in_flight() as u64;
        }
    }

    /// Whether the platform could create admitted task `next_feed` once it
    /// has cycles for it.
    fn feed_ready(&self) -> bool {
        self.ingest.feedable(self.next_feed, self.ingest.finished)
    }

    /// Whether a communication mode may retrieve another ready task: one
    /// idle worker must stay reserved for every in-flight `Ready` delivery
    /// *and* every queued fault casualty, or a delivery could arrive with
    /// nobody to run it.
    fn can_retrieve(&self) -> bool {
        self.sys.ready_len() > 0 && self.workers.idle() > self.inflight_ready + self.restart_q.len()
    }

    /// Deterministic task re-executions after fail-stop worker faults.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Pops due fail-stop worker faults: the earliest-completing in-flight
    /// task is the deterministic victim and joins the restart queue; with
    /// nothing running an idle worker dies silently. Processed before
    /// completions at the same cycle, matching the cluster backend.
    fn pump_fault_kills(&mut self) {
        while self.fault_cursor < self.faults.len() && self.faults[self.fault_cursor] <= self.t {
            self.fault_cursor += 1;
            if let Some((task, slot)) = self.workers.fail_one() {
                self.restart_q.push_back((task, slot, true));
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::Fault, self.t, 0, task, 0);
                }
            }
        }
    }

    /// Dispatches queued fault casualties onto surviving workers, ahead of
    /// new ready tasks. A killed task keeps its TM slot — Picos never
    /// observed the failure — and its re-execution replaces the original
    /// schedule entry via [`ScheduleLog::rebegin`].
    fn dispatch_restarts(&mut self) {
        while self.workers.idle() > 0 {
            let Some((task, slot, rerun)) = self.restart_q.pop_front() else {
                break;
            };
            let st = self.t + self.cfg.cost.dispatch;
            let dur = self.tasks[task as usize].dur;
            let end = if rerun {
                self.recoveries += 1;
                self.log.rebegin(task, st, dur)
            } else {
                self.log.begin(task, st, dur)
            };
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Started, st, 0, task, 0);
            }
            self.workers.start(end, task, slot);
        }
    }

    fn pump_hw_only(&mut self) {
        self.pump_fault_kills();
        let t = self.t;
        self.sys.advance_to(t);
        let mut touched = false;
        while let Some((task, slot)) = self.workers.pop_done_at(t) {
            self.sys.notify_finished(FinishedReq {
                task: TaskId::new(task),
                slot,
            });
            self.ingest.finished += 1;
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Finished, t, 0, task, 0);
            }
            touched = true;
        }
        // Pre-load every task the taskwait structure allows.
        while self.feed_ready() {
            let meta = &self.tasks[self.next_feed];
            self.sys
                .submit(TaskId::new(self.next_feed as u32), meta.deps.clone());
            self.next_feed += 1;
            touched = true;
        }
        if touched {
            self.sys.advance_to(t);
        }
        self.dispatch_restarts();
        while self.workers.idle() > 0 {
            let Some(r) = self.sys.pop_ready() else { break };
            let st = t + self.cfg.cost.dispatch;
            let task = r.task.raw();
            let end = self.log.begin(task, st, self.tasks[r.task.index()].dur);
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Dispatched, t, 0, task, 0);
                log.record(SpanKind::Started, st, 0, task, 0);
            }
            self.workers.start(end, task, r.slot);
        }
    }

    fn pump_hw_comm(&mut self) {
        self.pump_fault_kills();
        let t = self.t;
        let bus = self.bus.as_mut().expect("HwComm has a bus");
        self.sys.advance_to(t);
        let mut touched = false;
        while let Some((task, slot)) = self.workers.pop_done_at(t) {
            bus.send(t, BusMsg::Finish(task, slot));
            self.ingest.finished += 1;
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Finished, t, 0, task, 0);
            }
            touched = true;
        }
        while let Some(msg) = bus.pop_delivery_at(t) {
            touched = true;
            match msg {
                BusMsg::NewTask(i) => {
                    self.sys
                        .submit(TaskId::new(i), self.tasks[i as usize].deps.clone());
                    self.newtasks_in_bus -= 1;
                }
                BusMsg::Ready(task, slot) => {
                    self.inflight_ready -= 1;
                    if self.workers.idle() == 0 {
                        // The worker reserved for this delivery fail-stopped
                        // while the message was in flight; queue behind the
                        // other casualties.
                        self.restart_q.push_back((task, slot, false));
                        continue;
                    }
                    let end = self.log.begin(task, t, self.tasks[task as usize].dur);
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Started, t, 0, task, 0);
                    }
                    self.workers.start(end, task, slot);
                }
                BusMsg::Finish(task, slot) => {
                    self.sys.notify_finished(FinishedReq {
                        task: TaskId::new(task),
                        slot,
                    });
                }
            }
        }
        if touched {
            self.sys.advance_to(t);
        }
        self.dispatch_restarts();
        // Feed new tasks while the SR0 FIFO has room and the taskwait
        // structure allows.
        while self.ingest.feedable(self.next_feed, self.ingest.finished)
            && self.newtasks_in_bus + self.sys.pending_new() < self.cfg.cost.sr_queue
        {
            let bus = self.bus.as_mut().expect("HwComm has a bus");
            bus.send(t, BusMsg::NewTask(self.next_feed as u32));
            self.newtasks_in_bus += 1;
            self.next_feed += 1;
        }
        // Retrieve ready tasks for free workers.
        while self.can_retrieve() {
            let r = self.sys.pop_ready().expect("ready_len checked");
            let bus = self.bus.as_mut().expect("HwComm has a bus");
            bus.send(t, BusMsg::Ready(r.task.raw(), r.slot));
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Dispatched, t, 0, r.task.raw(), 0);
            }
            self.inflight_ready += 1;
        }
    }

    fn pump_full_system(&mut self) {
        self.pump_fault_kills();
        let t = self.t;
        let bus = self.bus.as_mut().expect("FullSystem has a bus");
        self.sys.advance_to(t);
        let mut touched = false;
        while let Some((task, slot)) = self.workers.pop_done_at(t) {
            self.finish_q.push_back((task, slot));
            self.ingest.finished += 1;
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Finished, t, 0, task, 0);
            }
            touched = true;
        }
        while let Some(msg) = bus.pop_delivery_at(t) {
            touched = true;
            match msg {
                BusMsg::NewTask(i) => {
                    self.sys
                        .submit(TaskId::new(i), self.tasks[i as usize].deps.clone());
                    self.newtasks_in_bus -= 1;
                }
                BusMsg::Ready(task, slot) => {
                    self.inflight_ready -= 1;
                    if self.workers.idle() == 0 {
                        // The worker reserved for this delivery fail-stopped
                        // while the message was in flight; queue behind the
                        // other casualties.
                        self.restart_q.push_back((task, slot, false));
                        continue;
                    }
                    let end = self.log.begin(task, t, self.tasks[task as usize].dur);
                    if let Some(log) = &mut self.spans {
                        log.record(SpanKind::Started, t, 0, task, 0);
                    }
                    self.workers.start(end, task, slot);
                }
                BusMsg::Finish(task, slot) => {
                    self.sys.notify_finished(FinishedReq {
                        task: TaskId::new(task),
                        slot,
                    });
                }
            }
        }
        if touched {
            self.sys.advance_to(t);
        }
        self.dispatch_restarts();
        let bus = self.bus.as_mut().expect("FullSystem has a bus");
        // The ARM core is a serial resource; one action per free slot, with
        // finish forwarding first (it releases downstream resources), then
        // ready retrieval, then creation of the next task.
        while self.arm_free <= t {
            if let Some((task, slot)) = self.finish_q.pop_front() {
                let done = t + self.cfg.cost.arm_finish;
                self.arm_free = bus.send(done, BusMsg::Finish(task, slot));
            } else if self.sys.ready_len() > 0
                && self.workers.idle() > self.inflight_ready + self.restart_q.len()
            {
                let r = self.sys.pop_ready().expect("ready_len checked");
                let done = t + self.cfg.cost.arm_retrieve;
                let slot_end = bus.send(done, BusMsg::Ready(r.task.raw(), r.slot));
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::Dispatched, done, 0, r.task.raw(), 0);
                }
                self.arm_free = slot_end + self.cfg.cost.arm_dispatch;
                self.inflight_ready += 1;
            } else if self.ingest.feedable(self.next_feed, self.ingest.finished)
                && self.newtasks_in_bus + self.sys.pending_new() < self.cfg.cost.sr_queue
            {
                let ndeps = self.tasks[self.next_feed].deps.len();
                let done = t + self.cfg.cost.arm_create + self.cfg.cost.arm_submit(ndeps);
                self.arm_free = bus.send(done, BusMsg::NewTask(self.next_feed as u32));
                self.newtasks_in_bus += 1;
                self.next_feed += 1;
            } else {
                break;
            }
        }
    }

    /// Runs the session to quiescence and returns the schedule report plus
    /// the core's hardware counters.
    ///
    /// # Errors
    ///
    /// Returns [`HilError::Stalled`] if work remains that no event will
    /// release (an engine bug).
    pub fn into_report(self) -> Result<(ExecReport, picos_core::Stats), HilError> {
        self.into_report_full().map(|(r, s, _)| (r, s))
    }

    /// Like [`HilSession::into_report`], and also returns the run's
    /// [`Timeline`] when the session was opened with a telemetry window:
    /// the platform series (`workers.busy`, `bus.inflight`) stitched with
    /// the core's probe series under the `core.` scope.
    ///
    /// # Errors
    ///
    /// See [`HilSession::into_report`].
    pub fn into_report_full(
        self,
    ) -> Result<(ExecReport, picos_core::Stats, Option<Timeline>), HilError> {
        self.into_output().map(|(r, s, t, _)| (r, s, t))
    }

    /// Like [`HilSession::into_report_full`], and also returns the run's
    /// lifecycle [`SpanLog`] when the session was opened with span
    /// tracing: driver events (submit, dispatch, start, finish) merged
    /// with the core's probe events, in recording order — consumers that
    /// need the deterministic order call [`SpanLog::canonical_sort`]
    /// (analysis entry points like the critical-path walker are
    /// order-insensitive, so the hot finish path skips the sort).
    ///
    /// # Errors
    ///
    /// See [`HilSession::into_report`].
    #[allow(clippy::type_complexity)]
    pub fn into_output(
        mut self,
    ) -> Result<
        (
            ExecReport,
            picos_core::Stats,
            Option<Timeline>,
            Option<SpanLog>,
        ),
        HilError,
    > {
        self.drive_finish();
        let n = self.ingest.admitted;
        let clean = self.log.order.len() == n
            && self.sys.in_flight() == 0
            && self.bus.as_ref().is_none_or(|b| b.in_flight() == 0)
            && self.finish_q.is_empty()
            && self.restart_q.is_empty()
            && !self.workers.busy()
            && self.next_feed == n;
        if !clean {
            return Err(HilError::Stalled {
                executed: self.log.order.len(),
                total: n,
                at: self.t,
            });
        }
        let stats = self.sys.stats();
        let timeline = match self.sampler.take() {
            Some(sampler) => {
                let end = self.t;
                let platform = sampler.finish(end, |out| self.probe_platform(out));
                let core = self
                    .sys
                    .take_timeline()
                    .expect("core sampler attached alongside the platform sampler");
                Some(Timeline::stitch(&[("", &platform), ("core.", &core)]))
            }
            None => None,
        };
        let mut spans = self.spans.take();
        if let Some(log) = spans.as_mut() {
            if let Some(core) = self.sys.take_spans() {
                log.extend_from(&core);
            }
        }
        Ok((
            self.log
                .into_report(self.mode.engine_label(), self.cfg.workers),
            stats,
            timeline,
            spans,
        ))
    }

    /// Serializes the full dynamic platform state.
    /// [`HilSession::load_state`] overwrites an identically configured
    /// session with it; [`Clone`] is the in-memory fork.
    pub fn save_state(&self) -> Value {
        let Self {
            mode,
            cfg,
            sys,
            workers,
            bus,
            tasks,
            next_feed,
            finish_q,
            newtasks_in_bus,
            inflight_ready,
            arm_free,
            t,
            faults: _,
            fault_cursor,
            restart_q,
            recoveries,
            ingest,
            log,
            sampler,
            spans,
            settled: _,
        } = self;
        let mut e = Enc::new();
        e.put(&mode_code(*mode))
            .put(&hil_fingerprint(cfg))
            .put(&sampler.is_some())
            .put(&spans.is_some())
            .val(sys.save_state())
            .val(workers.save_state())
            .val(bus.as_ref().map_or(Value::Null, Link::save_state))
            .put(tasks)
            .put(next_feed)
            .put(finish_q)
            .put(newtasks_in_bus)
            .put(inflight_ready)
            .put(arm_free)
            .put(t)
            .put(fault_cursor)
            .put(restart_q)
            .put(recoveries)
            .val(ingest.save_state())
            .nest(log)
            .put(sampler)
            .put(spans);
        e.done()
    }

    /// Overwrites this session's dynamic state with the state recorded by
    /// [`HilSession::save_state`]. Continuing the restored session is
    /// bit-exact with the session the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot
    /// was taken under a different mode, platform configuration or
    /// observation setup; the session must then be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "hil session")?;
        d.guard("hil mode", mode_code(self.mode))?;
        d.guard("hil config", hil_fingerprint(&self.cfg))?;
        d.guard("hil sampler attached", self.sampler.is_some())?;
        d.guard("hil spans attached", self.spans.is_some())?;
        self.sys.load_state(d.val()?)?;
        self.workers.load_state(d.val()?)?;
        match (&mut self.bus, d.val()?) {
            (None, Value::Null) => {}
            (Some(link), v) => link.load_state(v)?,
            (None, _) => return Err(SnapError::new("hil session: unexpected bus state")),
        }
        self.tasks = d.take()?;
        self.next_feed = d.take()?;
        self.finish_q = d.take()?;
        self.newtasks_in_bus = d.take()?;
        self.inflight_ready = d.take()?;
        self.arm_free = d.take()?;
        self.t = d.take()?;
        self.fault_cursor = d.take()?;
        if self.fault_cursor > self.faults.len() {
            return Err(SnapError::new("hil session: fault cursor out of range"));
        }
        self.restart_q = d.take()?;
        self.recoveries = d.take()?;
        self.ingest.load_state(d.val()?)?;
        self.log = d.nest()?;
        self.sampler = d.take()?;
        self.spans = d.take()?;
        self.settled = false;
        Ok(())
    }
}

/// Stable wire code of a [`HilMode`].
fn mode_code(m: HilMode) -> u64 {
    match m {
        HilMode::HwOnly => 0,
        HilMode::HwComm => 1,
        HilMode::FullSystem => 2,
    }
}

impl EventLoopCore for HilSession {
    /// Runs the loop body of the batch driver at the current time:
    /// completions, bus deliveries, task feeding and ready dispatch.
    /// Idempotent at a fixed time, so clients may interleave submissions
    /// with settling freely.
    fn pump(&mut self) {
        match self.mode {
            HilMode::HwOnly => self.pump_hw_only(),
            HilMode::HwComm => self.pump_hw_comm(),
            HilMode::FullSystem => self.pump_full_system(),
        }
    }

    /// Time of the next internal event: core, workers, bus, the next
    /// scheduled worker fault and — in Full-system mode — the pending ARM
    /// action.
    fn next_time(&self) -> Option<u64> {
        let bus_next = self.bus.as_ref().and_then(Bus::next_delivery);
        let arm_cand = if self.mode == HilMode::FullSystem {
            let arm_pending = !self.finish_q.is_empty()
                || self.can_retrieve()
                || (self.feed_ready()
                    && self.newtasks_in_bus + self.sys.pending_new() < self.cfg.cost.sr_queue);
            (arm_pending && self.arm_free > self.t).then_some(self.arm_free)
        } else {
            None
        };
        let fault_cand = self
            .faults
            .get(self.fault_cursor)
            .copied()
            .filter(|&ft| ft > self.t);
        min_next(&[
            self.sys.next_event_time(),
            self.workers.next_done(),
            bus_next,
            arm_cand,
            fault_cand,
        ])
    }

    fn clock(&self) -> u64 {
        self.t
    }

    fn set_clock(&mut self, t: u64) {
        // Telemetry boundary crossing: platform state is constant between
        // pumps, so sampling before the clock moves observes the state
        // each crossed boundary lived under.
        if self.sampler.as_ref().is_some_and(|s| s.due(t)) {
            let mut sampler = self.sampler.take().expect("checked above");
            sampler.advance(t, |out| self.probe_platform(out));
            self.sampler = Some(sampler);
        }
        self.t = t;
    }

    fn on_clock_jump(&mut self) {
        self.sys.advance_to(self.t);
    }

    /// Whether the next submission cannot be ingested right now.
    fn ingest_blocked(&self) -> bool {
        self.ingest.saturated() || (self.next_feed < self.ingest.admitted && !self.feed_ready())
    }

    fn settled(&mut self) -> &mut bool {
        &mut self.settled
    }
}

impl SessionCore for HilSession {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        if self.ingest.saturated() {
            return Admission::Backpressured;
        }
        self.ingest.admit();
        self.settled = false;
        self.log.admit(task.duration);
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Submitted, self.t, 0, self.tasks.len() as u32, 0);
        }
        self.tasks.push(TaskMeta {
            dur: task.duration,
            deps: task.deps.clone(),
        });
        Admission::Accepted
    }

    fn barrier(&mut self) {
        self.ingest.barrier();
        self.settled = false;
    }

    fn advance_to(&mut self, cycle: u64) {
        self.drive_to(cycle);
    }

    fn step(&mut self) -> bool {
        self.drive_step()
    }

    fn now(&self) -> u64 {
        self.t
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
        self.sys.reserve_new(additional);
    }
}

/// Runs a trace through the platform in the given mode; returns the
/// schedule and, in the report's `engine` field, a label like
/// `"picos-hw-only"`. Opens a [`HilSession`], feeds the whole trace and
/// finishes it.
///
/// # Errors
///
/// Returns [`HilError::Stalled`] if the run cannot complete (this would
/// indicate an engine bug).
///
/// # Panics
///
/// Panics on a configuration [`HilSession::new`] rejects.
pub fn run_hil(trace: &Trace, mode: HilMode, cfg: &HilConfig) -> Result<ExecReport, HilError> {
    run_hil_with_stats(trace, mode, cfg).map(|(r, _)| r)
}

/// Collects the per-run Picos statistics alongside the report.
///
/// Same as [`run_hil`] but also returns the core's counters (DM conflicts
/// for Table II, stalls, peaks).
///
/// # Errors
///
/// See [`run_hil`].
///
/// # Panics
///
/// Panics on a configuration [`HilSession::new`] rejects.
pub fn run_hil_with_stats(
    trace: &Trace,
    mode: HilMode,
    cfg: &HilConfig,
) -> Result<(ExecReport, picos_core::Stats), HilError> {
    let mut s = HilSession::new(mode, cfg.clone(), SessionConfig::batch())
        .unwrap_or_else(|e| panic!("invalid HIL configuration: {e}"));
    feed_trace(&mut s, trace).expect("unbounded window cannot stall");
    s.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_core::{DmDesign, TsPolicy};
    use picos_runtime::session::feed_range;
    use picos_trace::gen;

    #[test]
    fn all_modes_complete_and_validate_on_synthetics() {
        for case in gen::Case::ALL {
            let tr = gen::synthetic(case);
            for mode in HilMode::ALL {
                let cfg = HilConfig::balanced(12);
                let r = run_hil(&tr, mode, &cfg).unwrap_or_else(|e| panic!("{case:?} {mode}: {e}"));
                r.validate(&tr)
                    .unwrap_or_else(|e| panic!("{case:?} {mode}: {e}"));
            }
        }
    }

    #[test]
    fn mode_overheads_are_ordered() {
        // HW-only < HW+comm < Full-system makespan on the same trace.
        let tr = gen::synthetic(gen::Case::Case2);
        let cfg = HilConfig::balanced(12);
        let hw = run_hil(&tr, HilMode::HwOnly, &cfg).unwrap().makespan;
        let comm = run_hil(&tr, HilMode::HwComm, &cfg).unwrap().makespan;
        let full = run_hil(&tr, HilMode::FullSystem, &cfg).unwrap().makespan;
        assert!(hw < comm, "{hw} !< {comm}");
        assert!(comm < full, "{comm} !< {full}");
    }

    #[test]
    fn real_app_completes_in_full_system() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(256));
        let cfg = HilConfig::balanced(8);
        let r = run_hil(&tr, HilMode::FullSystem, &cfg).unwrap();
        r.validate(&tr).unwrap();
        assert!(r.speedup() > 1.0, "speedup {}", r.speedup());
    }

    #[test]
    fn speedup_grows_with_workers_on_parallel_app() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(128));
        let s2 = run_hil(&tr, HilMode::FullSystem, &HilConfig::balanced(2))
            .unwrap()
            .speedup();
        let s8 = run_hil(&tr, HilMode::FullSystem, &HilConfig::balanced(8))
            .unwrap()
            .speedup();
        assert!(s8 > s2 * 1.5, "s2={s2} s8={s8}");
    }

    #[test]
    fn dm_designs_rank_on_clustered_heat() {
        // Heat's contiguous blocks: Pearson must beat the direct designs
        // (paper, Figure 8 first row).
        let tr = gen::heat(gen::HeatConfig::paper(64));
        let mut speeds = std::collections::HashMap::new();
        for dm in DmDesign::ALL {
            let cfg = HilConfig {
                picos: PicosConfig::baseline(dm),
                ..HilConfig::balanced(12)
            };
            let (r, stats) = run_hil_with_stats(&tr, HilMode::HwOnly, &cfg).unwrap();
            r.validate(&tr).unwrap();
            speeds.insert(dm, (r.speedup(), stats.dm_conflicts));
        }
        let (sp, cp) = speeds[&DmDesign::PearsonEightWay];
        let (s8, c8) = speeds[&DmDesign::EightWay];
        assert!(cp < c8, "pearson conflicts {cp} !< 8way {c8}");
        assert!(sp >= s8 * 0.95, "pearson {sp} worse than 8way {s8}");
    }

    #[test]
    fn lifo_policy_runs_and_validates() {
        let tr = gen::lu(gen::LuConfig::paper(128));
        let cfg = HilConfig {
            picos: PicosConfig::balanced().with_ts_policy(TsPolicy::Lifo),
            ..HilConfig::balanced(8)
        };
        let r = run_hil(&tr, HilMode::FullSystem, &cfg).unwrap();
        r.validate(&tr).unwrap();
    }

    #[test]
    fn deterministic_runs() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let cfg = HilConfig::balanced(16);
        let a = run_hil(&tr, HilMode::FullSystem, &cfg).unwrap();
        let b = run_hil(&tr, HilMode::FullSystem, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mode_names() {
        assert_eq!(HilMode::HwOnly.to_string(), "HW-only");
        assert_eq!(HilMode::FullSystem.name(), "Full-system");
        assert_eq!(HilMode::HwComm.engine_label(), "picos-hw-comm");
    }

    #[test]
    fn session_open_stream_holds_the_clock() {
        // While the platform can ingest, step() must not advance time —
        // the property that makes any submit/step interleaving bit-exact.
        let tr = gen::synthetic(gen::Case::Case1);
        for mode in HilMode::ALL {
            let mut s =
                HilSession::new(mode, HilConfig::balanced(4), SessionConfig::batch()).unwrap();
            assert_eq!(s.submit(&tr.tasks()[0]), Admission::Accepted);
            assert!(!s.step(), "{mode}: open unblocked session must hold");
            assert_eq!(s.now(), 0, "{mode}");
        }
    }

    #[test]
    fn session_matches_batch_per_mode() {
        let tr = gen::synthetic(gen::Case::Case5);
        for mode in HilMode::ALL {
            let cfg = HilConfig::balanced(6);
            let batch = run_hil_with_stats(&tr, mode, &cfg).unwrap();
            let mut s = HilSession::new(mode, cfg.clone(), SessionConfig::batch()).unwrap();
            feed_trace(&mut s, &tr).unwrap();
            let streamed = s.into_report().unwrap();
            assert_eq!(batch, streamed, "{mode}");
        }
    }

    #[test]
    fn windowed_session_backpressures_and_completes() {
        let tr = gen::synthetic(gen::Case::Case2);
        let mut s = HilSession::new(
            HilMode::HwOnly,
            HilConfig::balanced(2),
            SessionConfig::windowed(4),
        )
        .unwrap();
        let mut retries = 0u64;
        for task in tr.iter() {
            loop {
                match s.submit(task) {
                    Admission::Accepted => break,
                    Admission::Backpressured => {
                        retries += 1;
                        assert!(s.step(), "blocked session must drain");
                    }
                }
            }
            assert!(s.in_flight() <= 4);
        }
        assert!(retries > 0, "a 4-task window must backpressure");
        let (r, stats) = s.into_report().unwrap();
        r.validate(&tr).unwrap();
        assert_eq!(stats.tasks_completed as usize, tr.len());
    }

    #[test]
    fn zero_workers_is_a_session_error() {
        assert!(HilSession::new(
            HilMode::HwOnly,
            HilConfig::balanced(0),
            SessionConfig::batch()
        )
        .is_err());
    }

    #[test]
    fn invalid_picos_config_is_a_session_error() {
        // Zero TRS/DCT instances used to panic inside `PicosSystem::new`.
        let cfg = HilConfig {
            picos: PicosConfig::future(0, picos_core::DmDesign::PearsonEightWay),
            ..HilConfig::balanced(4)
        };
        for mode in HilMode::ALL {
            let err = HilSession::new(mode, cfg.clone(), SessionConfig::batch()).unwrap_err();
            assert!(
                err.contains("at least one TRS and one DCT"),
                "{mode}: {err}"
            );
        }
    }

    #[test]
    fn fault_schedule_killing_every_worker_is_rejected() {
        let cfg = HilConfig::balanced(2).with_worker_faults([10, 20]);
        let err = HilSession::new(HilMode::HwOnly, cfg, SessionConfig::batch()).unwrap_err();
        assert!(err.contains("at least one must survive"), "{err}");
    }

    #[test]
    fn worker_faults_complete_with_recoveries_in_every_mode() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        for mode in HilMode::ALL {
            let base = HilConfig::balanced(6);
            let healthy = run_hil(&tr, mode, &base).unwrap();
            let cfg = base.clone().with_worker_faults([500, 2_000, 9_000]);
            let mut s = HilSession::new(mode, cfg, SessionConfig::batch()).unwrap();
            feed_trace(&mut s, &tr).unwrap();
            let recoveries = s.recoveries();
            let faulty = {
                s.drive_finish();
                let recov = s.recoveries();
                assert!(recov >= recoveries);
                let (r, _) = s.into_report().unwrap();
                assert!(recov > 0, "{mode}: a busy victim must re-execute");
                r
            };
            faulty
                .validate(&tr)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(
                faulty.makespan >= healthy.makespan,
                "{mode}: losing workers cannot speed the run up \
                 ({} < {})",
                faulty.makespan,
                healthy.makespan
            );
        }
    }

    #[test]
    fn worker_faults_are_deterministic() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(128));
        let cfg = HilConfig::balanced(8).with_worker_faults([100, 3_000, 3_000, 12_000]);
        for mode in HilMode::ALL {
            let a = run_hil(&tr, mode, &cfg).unwrap();
            let b = run_hil(&tr, mode, &cfg).unwrap();
            assert_eq!(a, b, "{mode}");
        }
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let scfg = SessionConfig::windowed(16).with_timeline(64).with_spans();
        for mode in HilMode::ALL {
            let cfg = HilConfig::balanced(4).with_worker_faults([700]);
            for pause in [0, 9, tr.len() / 2] {
                let mut cont = HilSession::new(mode, cfg.clone(), scfg).unwrap();
                let mut live = HilSession::new(mode, cfg.clone(), scfg).unwrap();
                feed_range(&mut cont, &tr, 0..pause).unwrap();
                feed_range(&mut live, &tr, 0..pause).unwrap();

                // Snapshot through the JSON text codec, restore into a
                // fresh identically-configured session.
                let text = picos_trace::snap::value_to_json(&live.save_state());
                let snap = picos_trace::snap::value_from_json(&text).unwrap();
                let mut restored = HilSession::new(mode, cfg.clone(), scfg).unwrap();
                restored.load_state(&snap).unwrap();

                feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
                feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
                let a = cont.into_output().unwrap();
                let b = restored.into_output().unwrap();
                assert_eq!(a, b, "{mode} pause {pause}");
            }
        }
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let tr = gen::synthetic(gen::Case::Case5);
        let cfg = HilConfig::balanced(4);
        let mut orig =
            HilSession::new(HilMode::FullSystem, cfg.clone(), SessionConfig::batch()).unwrap();
        feed_range(&mut orig, &tr, 0..24).unwrap();
        let baseline = orig.save_state();

        let mut fork = orig.clone();
        feed_range(&mut fork, &tr, 24..tr.len()).unwrap();
        let forked = fork.into_report().unwrap();

        // Driving the fork to completion left the original untouched.
        assert_eq!(
            picos_trace::snap::value_to_json(&orig.save_state()),
            picos_trace::snap::value_to_json(&baseline)
        );
        feed_range(&mut orig, &tr, 24..tr.len()).unwrap();
        assert_eq!(orig.into_report().unwrap(), forked);
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let tr = gen::synthetic(gen::Case::Case1);
        let mut a = HilSession::new(
            HilMode::HwComm,
            HilConfig::balanced(4),
            SessionConfig::batch(),
        )
        .unwrap();
        feed_range(&mut a, &tr, 0..tr.len().min(8)).unwrap();
        let snap = a.save_state();

        let mut wrong_mode = HilSession::new(
            HilMode::HwOnly,
            HilConfig::balanced(4),
            SessionConfig::batch(),
        )
        .unwrap();
        let err = wrong_mode.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("hil mode"), "{err}");

        let mut wrong_cfg = HilSession::new(
            HilMode::HwComm,
            HilConfig::balanced(2),
            SessionConfig::batch(),
        )
        .unwrap();
        let err = wrong_cfg.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("hil config"), "{err}");
    }
}
