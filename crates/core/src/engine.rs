//! The discrete-event engine tying the Picos units together.
//!
//! [`PicosSystem`] wires the Gateway, the TRS and DCT instances, the Arbiter
//! and the Task Scheduler with FIFO message queues and advances them in
//! cycle-stamped events. Each unit serves one message at a time with the
//! service times of [`crate::Timing`]; message hand-offs pay a wire latency.
//! This reproduces the paper's asynchronous FIFO-coupled control units
//! (Section III-A) at the fidelity its measurements need: per-unit
//! throughput, pipeline latency, and the stall behaviour of the DM/VM/TM
//! resources.
//!
//! # Event core
//!
//! The engine is built for throughput — it is the inner loop of every
//! figure, sweep cell and HIL run — without giving up cycle-exactness:
//!
//! * **Timing wheel.** Events live on a circular calendar queue sized to
//!   the largest service time, with a far-future overflow heap for exotic
//!   [`crate::Timing`] values. Service times are small constants, so pushes
//!   and pops are O(1) with no comparisons. FIFO order within a wheel slot
//!   preserves emission order, which is exactly the `(time, seq)` order the
//!   previous binary heap produced — determinism is structural.
//! * **Demand-driven wake-up.** Every service completion schedules a
//!   wake-up for its own unit at its busy horizon — stored as a per-slot
//!   unit bitmask, so applying a batch's wakes is one OR into the pending
//!   mask — and every message delivery marks the receiving unit pending.
//!   A scheduling pass polls only the pending units, in the same fixed
//!   unit order the old full scan used; resource releases re-mark the
//!   units they can unblock (TM slots → Gateway, DM/VM entries → the
//!   owning DCT's new-dependence port). Deliveries whose service cannot
//!   be observed early by any other unit (ARB, TS, DCT-fin, non-Finished
//!   TRS messages) are served directly at delivery time, skipping the
//!   queue round-trip.
//! * **Allocation-free hot path.** Unit out-vectors are reusable scratch
//!   buffers, queues are flat head-cursor FIFOs, and the wheel slots
//!   recycle their capacity, so steady-state event processing performs no
//!   heap allocation.
//!
//! The external interface is the co-processor interface of the paper:
//! [`PicosSystem::submit`] delivers a new task (N1), [`PicosSystem::pop_ready`]
//! retrieves a ready task from the TS (the worker side of N6), and
//! [`PicosSystem::notify_finished`] reports a finished task (F1). Time only
//! advances through [`PicosSystem::advance_to`], so a driver (the HIL crate)
//! can interleave its own event loop.

use crate::config::{PicosConfig, TsPolicy};
use crate::dct::{dct_for_addr, Dct, DctBlocked, DctEmit};
use crate::dm::Dm;
use crate::msg::{
    ArbMsg, DepFinMsg, FinishedReq, NewDepMsg, NewTaskReq, ReadyTask, SlotRef, TrsMsg,
};
use crate::stats::{hist_bucket, Stats, TRS_WAKE_BOUNDS};
use crate::trs::{Trs, TrsEmit};
use crate::vm::Vm;
use crate::Cycle;
use picos_metrics::span::{SpanKind, SpanLog};
use picos_metrics::{SeriesSpec, Timeline, WindowSampler};
use picos_trace::snap::{guard, Dec, Enc, Snap, SnapError};
use picos_trace::snap_record;
use picos_trace::{Dependence, TaskId, Trace, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Message deliveries and unit wake-ups carried by the timing wheel.
///
/// All variants are `Copy`: batch processing reads events straight out of
/// a wheel slot without moving the slot's storage.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    Trs(u8, TrsMsg),
    DctNew(u8, NewDepMsg),
    DctFin(u8, DepFinMsg),
    Arb(ArbMsg),
    Ts(TaskId, SlotRef),
    ReadyOut(ReadyTask),
    /// A unit's busy horizon passes: re-poll exactly that unit (by rank).
    /// Replaces the old payload-free `Free` broadcast that forced a full
    /// unit scan per batch.
    Wake(u32),
}

/// An event parked on the overflow heap (beyond the wheel horizon).
#[derive(Debug, Clone)]
struct Ev {
    t: Cycle,
    seq: u64,
    d: Delivery,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// A flat FIFO for `Copy` messages: a `Vec` plus a head cursor that resets
/// when the queue drains. Faster than `VecDeque` on the hot path (no wrap
/// masking) and allocation-free once warmed up.
#[derive(Debug, Clone)]
struct Fifo<T: Copy> {
    buf: Vec<T>,
    head: usize,
}

impl<T: Copy> Default for Fifo<T> {
    fn default() -> Self {
        Fifo {
            buf: Vec::new(),
            head: 0,
        }
    }
}

impl<T: Copy> Fifo<T> {
    #[inline]
    fn push(&mut self, x: T) {
        self.buf.push(x);
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        let x = *self.buf.get(self.head)?;
        self.head += 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 64 && self.head * 2 >= self.buf.len() {
            // Compact a long-lived non-empty queue so memory stays
            // proportional to peak depth, not total traffic.
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        Some(x)
    }

    #[inline]
    fn front(&self) -> Option<&T> {
        self.buf.get(self.head)
    }

    #[inline]
    fn front_mut(&mut self) -> Option<&mut T> {
        self.buf.get_mut(self.head)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }
}

/// Span recorder state: the log plus the slot bookkeeping that turns
/// slot-addressed unit events back into task-addressed lifecycle events
/// (`NewDepMsg` carries the TM slot, not the task). Exists only while
/// tracing is attached — every probe site pays one `Option` branch when it
/// is not, the same contract as the [`WindowSampler`].
#[derive(Debug, Clone)]
struct SpanProbe {
    log: SpanLog,
    shard: u16,
    /// Task occupying each TM slot (dense `trs * tm_entries + entry`).
    slot_task: Vec<u32>,
    /// Dependences of the slot's task still awaiting DM registration.
    slot_left: Vec<u8>,
}

/// Gateway new-task port: either idle or forwarding the dependences of the
/// task it just dispatched (N4 happens one dependence per `gw_dep` cycles).
#[derive(Debug, Clone)]
enum GwState {
    Idle,
    Dispatching {
        deps: Arc<[Dependence]>,
        slot: SlotRef,
        next: usize,
    },
}

/// The complete Picos accelerator model.
///
/// Cloning is a deep copy of the full dynamic state — the fork primitive
/// of the snapshot subsystem (an ephemeral what-if replica shares nothing
/// with its parent).
#[derive(Debug, Clone)]
pub struct PicosSystem {
    cfg: PicosConfig,
    now: Cycle,

    // Event core: a timing wheel over [now, now + wheel_mask] plus an
    // overflow heap for events beyond that horizon. Slot FIFO order equals
    // emission order, so no per-event sequence numbers are needed on the
    // wheel; the overflow heap keeps its own.
    wheel: Vec<Vec<Delivery>>,
    wheel_bits: Vec<u64>,
    wheel_mask: Cycle,
    wheel_len: usize,
    // Wake events, stored as per-slot unit bitmasks instead of wheel
    // entries: wake order within a batch is irrelevant (marks are
    // idempotent), so applying a slot's wakes is one OR into `pending`
    // per word. `wake_wheel` is `wake_words` words per slot; `wake_bits`
    // tracks slots with at least one wake; `wake_slots` counts them.
    wake_wheel: Vec<u64>,
    wake_bits: Vec<u64>,
    wake_words: usize,
    wake_slots: usize,
    overflow: BinaryHeap<Reverse<Ev>>,
    overflow_seq: u64,
    /// Exact earliest event time over wheel + overflow (`Cycle::MAX` when
    /// empty), kept current by `emit` and recomputed after each batch:
    /// `next_event_time` is O(1).
    next_at: Cycle,

    // Demand-driven scheduling: one bit per unit, set when the unit may be
    // able to start a service. Bit positions are unit ranks in the
    // canonical poll order (see `poll`); the rank-space boundaries are
    // precomputed at construction.
    pending: Vec<u64>,
    rank_dct0: u32,
    rank_arb0: u32,

    // External interfaces.
    ext_new: VecDeque<NewTaskReq>,
    ext_fin: VecDeque<FinishedReq>,
    ready_buf: VecDeque<ReadyTask>,

    // Internal queues.
    trs_q: Vec<Fifo<TrsMsg>>,
    dct_new_q: Vec<Fifo<NewDepMsg>>,
    dct_fin_q: Vec<Fifo<DepFinMsg>>,
    arb_q: Fifo<ArbMsg>,
    ts_q: Fifo<(TaskId, SlotRef)>,

    // Units.
    trs: Vec<Trs>,
    dct: Vec<Dct>,
    gw_state: GwState,
    gw_blocked_counted: bool,
    rr_trs: usize,

    // Per-unit busy horizons.
    gw_new_busy: Cycle,
    gw_fin_busy: Cycle,
    trs_busy: Vec<Cycle>,
    dct_new_busy: Vec<Cycle>,
    dct_fin_busy: Vec<Cycle>,
    arb_busy: Cycle,
    ts_busy: Cycle,

    // Reusable out-vectors for the unit handlers (allocation-free path).
    scratch_trs: Vec<TrsEmit>,
    scratch_dct: Vec<DctEmit>,

    in_flight: usize,
    stats: Stats,

    /// Optional cycle-windowed telemetry. `None` (the default) keeps the
    /// hot path sampling-free: every probe point is a plain field the
    /// engine maintains anyway, and time advancement pays exactly one
    /// branch to see that no sampler is attached.
    sampler: Option<WindowSampler>,

    /// Optional task-lifecycle span recorder, same contract as `sampler`.
    spans: Option<SpanProbe>,

    // Blocked-on-whom wait attribution (always on, plain counters): when
    // a port first observes a block the cycle is latched; the wait is
    // charged when the head finally goes through.
    gw_blocked_at: Cycle,
    dct_dm_blocked_at: Vec<Cycle>,
    dct_vm_blocked_at: Vec<Cycle>,
    /// Delivery cycle of the last slot-addressed TRS input per TM slot:
    /// the start of the wake-to-ready latency histogram observation.
    slot_in_at: Vec<Cycle>,
}

/// Wheel size for a configuration: a power of two strictly larger than the
/// longest service-plus-wire delay, so in-horizon events never wrap onto a
/// live slot. Exotic timings beyond the cap go to the overflow heap.
fn wheel_size(cfg: &PicosConfig) -> usize {
    let t = &cfg.timing;
    let max_service = [
        t.gw_task,
        t.gw_dep,
        t.gw_fin,
        t.trs_new,
        t.trs_resolve,
        t.trs_wake,
        t.trs_fin
            .saturating_add(t.trs_fin_dep.saturating_mul(cfg.max_deps_per_task as Cycle)),
        t.dct_dep.saturating_add(t.dct_task_sync),
        t.dct_fin,
        t.arb,
        t.ts,
    ]
    .into_iter()
    .max()
    .unwrap_or(1);
    let horizon = max_service.saturating_add(t.wire).saturating_add(1);
    (horizon.min(4096) as usize).next_power_of_two().max(64)
}

impl PicosSystem {
    /// Poll rank of the Gateway finished-task port (first in scan order).
    const RANK_GW_FIN: u32 = 0;
    /// Poll rank of the Gateway new-task port.
    const RANK_GW_NEW: u32 = 1;

    fn rank_trs(&self, i: usize) -> u32 {
        2 + i as u32
    }

    fn rank_dct_fin(&self, j: usize) -> u32 {
        self.rank_dct0 + 2 * j as u32
    }

    fn rank_dct_new(&self, j: usize) -> u32 {
        self.rank_dct_fin(j) + 1
    }

    fn rank_arb(&self) -> u32 {
        self.rank_arb0
    }

    fn rank_ts(&self) -> u32 {
        self.rank_arb0 + 1
    }

    /// Builds a system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PicosConfig::validate`].
    pub fn new(cfg: PicosConfig) -> Self {
        cfg.validate().expect("invalid Picos configuration");
        let trs = (0..cfg.num_trs)
            .map(|i| Trs::new(i as u8, cfg.tm_entries))
            .collect::<Vec<_>>();
        let dct = (0..cfg.num_dct)
            .map(|i| {
                Dct::new(
                    i as u8,
                    Dm::new(cfg.dm_design, cfg.dm_sets),
                    Vm::new(cfg.vm_entries),
                )
            })
            .collect::<Vec<_>>();
        let size = wheel_size(&cfg);
        let num_units = 4 + cfg.num_trs + 2 * cfg.num_dct;
        let wake_words = num_units.div_ceil(64);
        PicosSystem {
            now: 0,
            wheel: vec![Vec::new(); size],
            wheel_bits: vec![0; size / 64],
            wheel_mask: (size - 1) as Cycle,
            wheel_len: 0,
            wake_wheel: vec![0; size * wake_words],
            wake_bits: vec![0; size / 64],
            wake_words,
            wake_slots: 0,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            next_at: Cycle::MAX,
            pending: vec![0; num_units.div_ceil(64)],
            rank_dct0: 2 + cfg.num_trs as u32,
            rank_arb0: 2 + cfg.num_trs as u32 + 2 * cfg.num_dct as u32,
            ext_new: VecDeque::new(),
            ext_fin: VecDeque::new(),
            ready_buf: VecDeque::new(),
            trs_q: vec![Fifo::default(); cfg.num_trs],
            dct_new_q: vec![Fifo::default(); cfg.num_dct],
            dct_fin_q: vec![Fifo::default(); cfg.num_dct],
            arb_q: Fifo::default(),
            ts_q: Fifo::default(),
            trs,
            dct,
            gw_state: GwState::Idle,
            gw_blocked_counted: false,
            rr_trs: 0,
            gw_new_busy: 0,
            gw_fin_busy: 0,
            trs_busy: vec![0; cfg.num_trs],
            dct_new_busy: vec![0; cfg.num_dct],
            dct_fin_busy: vec![0; cfg.num_dct],
            arb_busy: 0,
            ts_busy: 0,
            scratch_trs: Vec::new(),
            scratch_dct: Vec::new(),
            in_flight: 0,
            stats: Stats::default(),
            sampler: None,
            spans: None,
            gw_blocked_at: 0,
            dct_dm_blocked_at: vec![0; cfg.num_dct],
            dct_vm_blocked_at: vec![0; cfg.num_dct],
            slot_in_at: vec![0; cfg.num_trs * cfg.tm_entries],
            cfg,
        }
    }

    /// The timeline vocabulary of the core: queue/memory occupancy gauges
    /// and per-unit busy/stall/progress deltas, in probe order.
    pub fn timeline_series() -> Vec<SeriesSpec> {
        vec![
            SeriesSpec::gauge("occ.input"),
            SeriesSpec::gauge("occ.ready"),
            SeriesSpec::gauge("occ.inflight"),
            SeriesSpec::gauge("occ.tm"),
            SeriesSpec::gauge("occ.dm"),
            SeriesSpec::gauge("occ.vm"),
            SeriesSpec::delta("busy.gw"),
            SeriesSpec::delta("busy.trs"),
            SeriesSpec::delta("busy.dct"),
            SeriesSpec::delta("busy.arb"),
            SeriesSpec::delta("busy.ts"),
            SeriesSpec::delta("stall.tm"),
            SeriesSpec::delta("stall.dm"),
            SeriesSpec::delta("stall.vm"),
            SeriesSpec::delta("done.tasks"),
            SeriesSpec::delta("done.deps"),
            SeriesSpec::delta("wait.gw_tm"),
            SeriesSpec::delta("wait.dct_dm"),
            SeriesSpec::delta("wait.dct_vm"),
        ]
    }

    /// Reads every probe point into `out`, in [`PicosSystem::timeline_series`]
    /// order. Pure observation: nothing in the engine changes.
    fn probe(&self, out: &mut [u64]) {
        out[0] = self.ext_new.len() as u64;
        out[1] = self.ready_buf.len() as u64;
        out[2] = self.in_flight as u64;
        out[3] = self.trs.iter().map(|t| t.tm.live()).sum::<usize>() as u64;
        out[4] = self.dct.iter().map(|d| d.dm.live()).sum::<usize>() as u64;
        out[5] = self.dct.iter().map(|d| d.vm.live()).sum::<usize>() as u64;
        out[6] = self.stats.busy_gw;
        out[7] = self.stats.busy_trs;
        out[8] = self.stats.busy_dct;
        out[9] = self.stats.busy_arb;
        out[10] = self.stats.busy_ts;
        out[11] = self.stats.tm_stalls;
        out[12] = self.dct.iter().map(|d| d.dm.conflicts()).sum();
        out[13] = self.dct.iter().map(|d| d.vm.stalls()).sum();
        out[14] = self.stats.tasks_completed;
        out[15] = self.dct.iter().map(Dct::deps_processed).sum();
        out[16] = self.stats.gw_wait_tm;
        out[17] = self.stats.dct_wait_dm;
        out[18] = self.stats.dct_wait_vm;
    }

    /// Attaches a cycle-windowed telemetry sampler: from now on, every
    /// window boundary the simulation clock crosses snapshots the probe
    /// points of [`PicosSystem::timeline_series`]. Observation-only — the
    /// schedule, the event order and every counter are bit-identical with
    /// and without a sampler attached.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn attach_timeline(&mut self, window: Cycle) {
        self.sampler = Some(WindowSampler::new(window, Self::timeline_series()));
    }

    /// Detaches the sampler and returns the finished [`Timeline`],
    /// finalized at the current time (the last sample may cover a partial
    /// window). `None` when no sampler was attached.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        let sampler = self.sampler.take()?;
        Some(sampler.finish(self.now, |out| self.probe(out)))
    }

    /// Attaches a task-lifecycle span recorder tagged with `shard` (0 for
    /// single-system engines). From now on the engine records
    /// [`SpanKind::DepsRegistered`] (per task, when its last dependence
    /// registers with the DM), [`SpanKind::LastDepReleased`] and
    /// [`SpanKind::Ready`]. Observation-only: the schedule, event order
    /// and every counter are bit-identical with and without the recorder.
    pub fn attach_spans(&mut self, shard: u16) {
        let slots = self.cfg.num_trs * self.cfg.tm_entries;
        self.spans = Some(SpanProbe {
            log: SpanLog::with_capacity(4 * slots),
            shard,
            slot_task: vec![0; slots],
            slot_left: vec![0; slots],
        });
    }

    /// Detaches the span recorder and returns its log (recording order;
    /// callers canonicalize). `None` when none was attached.
    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take().map(|p| p.log)
    }

    /// Dense index of a TM slot (spans and wake-latency bookkeeping).
    #[inline]
    fn slot_key(&self, slot: SlotRef) -> usize {
        slot.trs as usize * self.cfg.tm_entries + slot.entry as usize
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &PicosConfig {
        &self.cfg
    }

    /// Submits a new task (N1). The GW will pick it up when it has cycles
    /// and a free TM slot.
    ///
    /// Takes the dependence list by value as a shared slice: submitting a
    /// task straight from a [`picos_trace::TaskDescriptor`] is a refcount
    /// bump (`t.deps.clone()`), never a per-task copy. Plain `Vec`s and
    /// arrays still convert implicitly.
    ///
    /// # Panics
    ///
    /// Panics if the task has more dependences than the configured maximum.
    pub fn submit(&mut self, task: TaskId, deps: impl Into<Arc<[Dependence]>>) {
        let deps = deps.into();
        assert!(
            deps.len() <= self.cfg.max_deps_per_task,
            "task {task} exceeds max_deps_per_task"
        );
        self.ext_new.push_back(NewTaskReq { task, deps });
        self.mark(Self::RANK_GW_NEW);
    }

    /// Submits every task of a trace in creation order: the bulk
    /// equivalent of calling [`PicosSystem::submit`] per task, with the
    /// input queue pre-sized once instead of grown incrementally.
    ///
    /// # Panics
    ///
    /// Panics if any task has more dependences than the configured maximum.
    pub fn submit_all(&mut self, trace: &Trace) {
        self.ext_new.reserve(trace.len());
        for t in trace.iter() {
            self.submit(t.id, t.deps.clone());
        }
    }

    /// Pre-sizes the new-task input queue for `additional` more
    /// submissions (the incremental counterpart of
    /// [`PicosSystem::submit_all`]'s one-shot reservation).
    pub fn reserve_new(&mut self, additional: usize) {
        self.ext_new.reserve(additional);
    }

    /// Number of submitted tasks the GW has not accepted yet.
    pub fn pending_new(&self) -> usize {
        self.ext_new.len()
    }

    /// Reports a finished task (F1).
    pub fn notify_finished(&mut self, fin: FinishedReq) {
        self.ext_fin.push_back(fin);
        self.mark(Self::RANK_GW_FIN);
    }

    /// Retrieves a ready task from the TS buffer, honouring the configured
    /// FIFO/LIFO policy. Only tasks that became ready at or before the
    /// current time are visible (they are, by construction of the event
    /// loop).
    pub fn pop_ready(&mut self) -> Option<ReadyTask> {
        match self.cfg.ts_policy {
            TsPolicy::Fifo => self.ready_buf.pop_front(),
            TsPolicy::Lifo => self.ready_buf.pop_back(),
        }
    }

    /// Peeks at the ready task [`PicosSystem::pop_ready`] would return,
    /// without removing it. Lets a driver decide whether to consume the
    /// head of the ready stream (the cluster driver routes remote-task
    /// fragments unconditionally but takes local tasks only when an
    /// execution slot is free).
    pub fn peek_ready(&self) -> Option<&ReadyTask> {
        match self.cfg.ts_policy {
            TsPolicy::Fifo => self.ready_buf.front(),
            TsPolicy::Lifo => self.ready_buf.back(),
        }
    }

    /// Number of ready tasks waiting to be retrieved.
    pub fn ready_len(&self) -> usize {
        self.ready_buf.len()
    }

    /// Tasks in flight: accepted by the GW and not yet fully retired.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Time of the next internal event, if any. Meaningful after
    /// [`PicosSystem::advance_to`] has run to the current time (the engine
    /// is then quiescent at `now` and this is the true next activity).
    pub fn next_event_time(&self) -> Option<Cycle> {
        if self.next_at == Cycle::MAX {
            None
        } else {
            Some(self.next_at)
        }
    }

    /// Recomputes the earliest event time by scanning wheel and overflow.
    fn scan_next(&self) -> Cycle {
        let wheel = self.wheel_next_time().unwrap_or(Cycle::MAX);
        let over = self.overflow.peek().map_or(Cycle::MAX, |Reverse(e)| e.t);
        wheel.min(over)
    }

    /// Whether the engine has no internal activity left (events, queued
    /// messages or a mid-dispatch GW). Ready tasks may still be waiting in
    /// the output buffer, and the driver may still owe finish notifications.
    pub fn is_quiescent(&self) -> bool {
        self.wheel_len == 0
            && self.wake_slots == 0
            && self.overflow.is_empty()
            && self.ext_new.is_empty()
            && self.ext_fin.is_empty()
            && self.arb_q.is_empty()
            && self.ts_q.is_empty()
            && self.trs_q.iter().all(Fifo::is_empty)
            && self.dct_new_q.iter().all(Fifo::is_empty)
            && self.dct_fin_q.iter().all(Fifo::is_empty)
            && matches!(self.gw_state, GwState::Idle)
    }

    /// Snapshot of the run statistics.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.deps_processed = self.dct.iter().map(Dct::deps_processed).sum();
        s.dm_conflicts = self.dct.iter().map(|d| d.dm.conflicts()).sum();
        s.vm_stalls = self.dct.iter().map(|d| d.vm.stalls()).sum();
        s.wakes_sent = self.dct.iter().map(Dct::wakes_sent).sum();
        s.chain_wakes = self.trs.iter().map(Trs::wakes_forwarded).sum();
        s.peak_in_flight = self.trs.iter().map(|t| t.tm.peak_live()).sum();
        s.peak_dm_live = self.dct.iter().map(|d| d.dm.peak_live()).sum();
        s.peak_vm_live = self.dct.iter().map(|d| d.vm.peak_live()).sum();
        for d in &self.dct {
            for (k, v) in d.chain_hist().iter().enumerate() {
                s.dm_chain_hist[k] += v;
            }
        }
        s
    }

    /// Advances simulated time to `t`, processing every internal event and
    /// every unit that can make progress on the way.
    pub fn advance_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now, "time cannot go backwards");
        loop {
            self.schedule_pass();
            let batch_t = self.next_at;
            if batch_t > t {
                // Covers the empty case too (`next_at` is `Cycle::MAX`).
                break;
            }
            self.set_now(batch_t);
            self.process_batch(batch_t);
        }
        self.set_now(t);
        // Pick up any externally pushed messages at the final time.
        self.schedule_pass();
    }

    /// Runs the engine until it is quiescent, with a watchdog.
    ///
    /// Intended for tests and simple drivers that execute tasks with no
    /// simulated duration: the `on_ready` callback receives every ready task
    /// and returns finish notifications to feed back.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Watchdog`] if the engine fails to become
    /// quiescent within `max_cycles`.
    pub fn run_to_quiescence(
        &mut self,
        max_cycles: Cycle,
        mut on_ready: impl FnMut(ReadyTask) -> Option<FinishedReq>,
    ) -> Result<(), EngineError> {
        let deadline = self.now + max_cycles;
        // Absorb externally pushed work at the current time; inside the
        // loop, advancing to each event time keeps the engine current.
        self.advance_to(self.now);
        loop {
            let mut fed = false;
            while let Some(r) = self.pop_ready() {
                if let Some(fin) = on_ready(r) {
                    self.notify_finished(fin);
                    fed = true;
                }
            }
            if fed {
                self.advance_to(self.now);
            }
            match self.next_event_time() {
                Some(t) => {
                    if t > deadline {
                        return Err(EngineError::Watchdog { at: self.now });
                    }
                    self.advance_to(t);
                }
                None => {
                    // Nothing can move any more: either the run is complete
                    // or work remains that no event will ever release.
                    return if self.is_quiescent() && self.in_flight == 0 {
                        Ok(())
                    } else {
                        Err(EngineError::Deadlock { at: self.now })
                    };
                }
            }
        }
    }

    /// Schedules an event. In-horizon events go to their wheel slot (FIFO,
    /// preserving emission order); far-future events to the overflow heap.
    #[inline]
    fn emit(&mut self, at: Cycle, d: Delivery) {
        debug_assert!(at >= self.now, "cannot emit into the past");
        if at < self.next_at {
            self.next_at = at;
        }
        if at - self.now <= self.wheel_mask {
            let slot = (at & self.wheel_mask) as usize;
            self.wheel[slot].push(d);
            self.wheel_bits[slot / 64] |= 1u64 << (slot % 64);
            self.wheel_len += 1;
        } else {
            self.overflow_seq += 1;
            self.overflow.push(Reverse(Ev {
                t: at,
                seq: self.overflow_seq,
                d,
            }));
        }
    }

    /// Schedules a unit wake-up: an OR into the slot's unit bitmask (order
    /// among same-slot wakes is irrelevant — marks are idempotent).
    #[inline]
    fn emit_wake(&mut self, at: Cycle, rank: u32) {
        debug_assert!(at >= self.now, "cannot emit into the past");
        if at < self.next_at {
            self.next_at = at;
        }
        if at - self.now <= self.wheel_mask {
            let slot = (at & self.wheel_mask) as usize;
            let bit = 1u64 << (slot % 64);
            if self.wake_bits[slot / 64] & bit == 0 {
                self.wake_bits[slot / 64] |= bit;
                self.wake_slots += 1;
            }
            self.wake_wheel[slot * self.wake_words + (rank / 64) as usize] |= 1u64 << (rank % 64);
        } else {
            self.overflow_seq += 1;
            self.overflow.push(Reverse(Ev {
                t: at,
                seq: self.overflow_seq,
                d: Delivery::Wake(rank),
            }));
        }
    }

    /// Moves time forward and migrates overflow events that now fit the
    /// wheel horizon. Migration happens before anything is emitted at the
    /// new time, so slot FIFO order stays equal to global emission order.
    fn set_now(&mut self, t: Cycle) {
        // Telemetry boundary crossing. State is constant between event
        // batches, so sampling *before* `now` moves observes exactly the
        // state each crossed boundary lived under (events scheduled at the
        // boundary itself have not been served yet).
        if self.sampler.as_ref().is_some_and(|s| s.due(t)) {
            let mut sampler = self.sampler.take().expect("checked above");
            sampler.advance(t, |out| self.probe(out));
            self.sampler = Some(sampler);
        }
        self.now = t;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.t - self.now > self.wheel_mask {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            if let Delivery::Wake(rank) = ev.d {
                self.emit_wake(ev.t, rank);
                continue;
            }
            let slot = (ev.t & self.wheel_mask) as usize;
            self.wheel[slot].push(ev.d);
            self.wheel_bits[slot / 64] |= 1u64 << (slot % 64);
            self.wheel_len += 1;
        }
    }

    /// Earliest occupied wheel slot (delivery or wake) at or after `now`,
    /// as an absolute time.
    fn wheel_next_time(&self) -> Option<Cycle> {
        if self.wheel_len == 0 && self.wake_slots == 0 {
            return None;
        }
        let size = self.wheel.len();
        let words = self.wheel_bits.len();
        let start = (self.now & self.wheel_mask) as usize;
        if words == 1 {
            // 64-slot wheel (the default-timing case): rotating the single
            // occupancy word by `start` turns "next occupied slot at or
            // after start, circular" into a plain trailing-zeros count.
            let w = (self.wheel_bits[0] | self.wake_bits[0]).rotate_right(start as u32);
            return Some(self.now + Cycle::from(w.trailing_zeros()));
        }
        let (sw, sb) = (start / 64, start % 64);
        for k in 0..=words {
            let idx = (sw + k) % words;
            let mut word = self.wheel_bits[idx] | self.wake_bits[idx];
            if k == 0 {
                word &= !0u64 << sb; // only slots at or after `start`
            } else if k == words {
                word &= !(!0u64 << sb); // wrapped: only slots before `start`
            }
            if word != 0 {
                let slot = idx * 64 + word.trailing_zeros() as usize;
                let delta = (slot + size - start) & self.wheel_mask as usize;
                return Some(self.now + delta as Cycle);
            }
        }
        unreachable!("events pending but no occupied slot")
    }

    /// Applies every event in the slot for `batch_t`, in emission order.
    /// Events emitted *at* `batch_t` while the batch runs (possible only
    /// with zero-cost timings) land in the same slot and are applied too.
    fn process_batch(&mut self, batch_t: Cycle) {
        let slot = (batch_t & self.wheel_mask) as usize;
        // Wakes first: one OR per word moves the slot's unit mask into
        // `pending` (relative order against deliveries does not matter —
        // both only feed the scheduling pass that follows).
        let wbit = 1u64 << (slot % 64);
        if self.wake_bits[slot / 64] & wbit != 0 {
            self.wake_bits[slot / 64] &= !wbit;
            self.wake_slots -= 1;
            let base = slot * self.wake_words;
            for w in 0..self.wake_words {
                self.pending[w] |= self.wake_wheel[base + w];
                self.wake_wheel[base + w] = 0;
            }
        }
        if !self.wheel[slot].is_empty() {
            let mut batch = std::mem::take(&mut self.wheel[slot]);
            let mut consumed = batch.len();
            for d in batch.drain(..) {
                self.apply(d);
            }
            // Zero-cost timings can emit at `batch_t` while the batch runs;
            // those land in the (now empty) live slot — absorb them too.
            while !self.wheel[slot].is_empty() {
                std::mem::swap(&mut batch, &mut self.wheel[slot]);
                consumed += batch.len();
                for d in batch.drain(..) {
                    self.apply(d);
                }
            }
            self.wheel[slot] = batch;
            self.wheel_len -= consumed;
        }
        self.wheel_bits[slot / 64] &= !(1u64 << (slot % 64));
        self.next_at = self.scan_next();
    }

    /// Marks a unit for polling in the next scheduling pass.
    #[inline]
    fn mark(&mut self, rank: u32) {
        self.pending[(rank / 64) as usize] |= 1u64 << (rank % 64);
    }

    /// First pending unit with rank `from` or higher.
    fn next_pending(&self, from: u32) -> Option<u32> {
        let words = self.pending.len();
        let mut w = (from / 64) as usize;
        if w >= words {
            return None;
        }
        let mut word = self.pending[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w as u32 * 64 + word.trailing_zeros());
            }
            w += 1;
            if w >= words {
                return None;
            }
            word = self.pending[w];
        }
    }

    /// One scheduling pass: polls every pending unit once, in canonical
    /// rank order (GW-fin, GW-new, TRS 0.., DCT-fin/DCT-new pairs, ARB,
    /// TS — the same order the old full scan used). Units marked during
    /// the pass at a *later* rank are polled in this pass, exactly like a
    /// single scan; marks for earlier ranks stay pending for the next
    /// batch, again matching the scan.
    fn schedule_pass(&mut self) {
        let mut cursor = 0u32;
        while let Some(rank) = self.next_pending(cursor) {
            self.pending[(rank / 64) as usize] &= !(1u64 << (rank % 64));
            cursor = rank + 1;
            self.poll(rank);
        }
    }

    /// Polls the unit with the given rank.
    fn poll(&mut self, rank: u32) {
        match rank {
            Self::RANK_GW_FIN => self.try_gw_fin(),
            Self::RANK_GW_NEW => self.try_gw_new(),
            r if r < self.rank_dct_fin(0) => self.try_trs((r - 2) as usize),
            r if r < self.rank_arb() => {
                let off = r - self.rank_dct_fin(0);
                let j = (off / 2) as usize;
                if off.is_multiple_of(2) {
                    self.try_dct_fin(j);
                } else {
                    self.try_dct_new(j);
                }
            }
            r if r == self.rank_arb() => self.try_arb(),
            _ => self.try_ts(),
        }
    }

    #[inline]
    fn apply(&mut self, d: Delivery) {
        match d {
            // A non-`Finished` TRS message touches only the TRS's own TM
            // entries, so an idle TRS with an empty queue serves it straight
            // from the batch. `Finished` frees a TM slot the Gateway polls
            // for, and the Gateway's poll precedes the TRS's in the pass
            // order — serving it early would let the GW see the space one
            // batch sooner, so it takes the queue path.
            Delivery::Trs(i, m) => {
                let i = i as usize;
                // Latch the delivery cycle of slot-addressed inputs: the
                // observation start of the wake-to-ready histogram.
                match m {
                    TrsMsg::NewTask { slot, .. }
                    | TrsMsg::Resolve { slot, .. }
                    | TrsMsg::Wake { slot, .. } => {
                        let key = self.slot_key(slot);
                        self.slot_in_at[key] = self.now;
                    }
                    TrsMsg::Finished { .. } => {}
                }
                if !matches!(m, TrsMsg::Finished { .. })
                    && self.now >= self.trs_busy[i]
                    && self.trs_q[i].is_empty()
                {
                    self.serve_trs(i, m);
                } else {
                    self.trs_q[i].push(m);
                    let r = self.rank_trs(i);
                    self.mark(r);
                }
            }
            // New dependences must observe the fin-before-new pass order on
            // the shared DM/VM, so they always take the queue path.
            Delivery::DctNew(j, m) => {
                self.dct_new_q[j as usize].push(m);
                let r = self.rank_dct_new(j as usize);
                self.mark(r);
            }
            // The finish port's resource releases are visible to the same
            // DCT's new-dependence poll in this batch's pass either way
            // (fin precedes new in the pass order), so direct service is
            // cycle-identical.
            Delivery::DctFin(j, m) => {
                let j = j as usize;
                if self.now >= self.dct_fin_busy[j] && self.dct_fin_q[j].is_empty() {
                    self.serve_dct_fin(j, m);
                } else {
                    self.dct_fin_q[j].push(m);
                    let r = self.rank_dct_fin(j);
                    self.mark(r);
                }
            }
            // ARB and TS serve only their own state (no shared resources,
            // no cross-unit marks), so an idle unit with an empty queue
            // serves the message straight from the batch — the scheduling
            // pass would do exactly this at the same cycle, minus the
            // queue round-trip.
            Delivery::Arb(m) => {
                if self.now >= self.arb_busy && self.arb_q.is_empty() {
                    self.serve_arb(m);
                } else {
                    self.arb_q.push(m);
                    let r = self.rank_arb();
                    self.mark(r);
                }
            }
            Delivery::Ts(task, slot) => {
                if self.now >= self.ts_busy && self.ts_q.is_empty() {
                    self.serve_ts(task, slot);
                } else {
                    self.ts_q.push((task, slot));
                    let r = self.rank_ts();
                    self.mark(r);
                }
            }
            Delivery::ReadyOut(rt) => {
                if let Some(p) = &mut self.spans {
                    p.log
                        .record(SpanKind::Ready, rt.ready_at, p.shard, rt.task.raw(), 0);
                }
                self.ready_buf.push_back(rt);
                self.stats.peak_ready = self.stats.peak_ready.max(self.ready_buf.len());
            }
            Delivery::Wake(rank) => self.mark(rank),
        }
    }

    fn try_gw_new(&mut self) {
        if self.now < self.gw_new_busy {
            return;
        }
        let wire = self.cfg.timing.wire;
        match &mut self.gw_state {
            GwState::Idle => {
                let Some(front) = self.ext_new.front() else {
                    return;
                };
                // N2: find a free TRS slot, round-robin over instances.
                let n = self.trs.len();
                let mut chosen = None;
                for k in 0..n {
                    let i = (self.rr_trs + k) % n;
                    if self.trs[i].tm.has_space() {
                        chosen = Some(i);
                        break;
                    }
                }
                let Some(i) = chosen else {
                    // "If there is no free slot, GW does not process the
                    // new task" (paper, Section III-B). A TM release will
                    // re-mark this port (see `try_trs`).
                    if !self.gw_blocked_counted {
                        self.stats.tm_stalls += 1;
                        self.gw_blocked_counted = true;
                        self.gw_blocked_at = self.now;
                    }
                    return;
                };
                if self.gw_blocked_counted {
                    self.stats.gw_wait_tm += self.now - self.gw_blocked_at;
                }
                self.gw_blocked_counted = false;
                self.rr_trs = (i + 1) % n;
                let num_deps = front.deps.len() as u8;
                let entry = self.trs[i]
                    .tm
                    .alloc(front.task, num_deps)
                    .expect("has_space checked");
                let req = self.ext_new.pop_front().expect("front checked");
                let slot = SlotRef::new(i as u8, entry);
                self.stats.tasks_submitted += 1;
                self.in_flight += 1;
                let done = self.now + self.cfg.timing.gw_task;
                self.stats.busy_gw += self.cfg.timing.gw_task;
                self.gw_new_busy = done;
                if let Some(p) = &mut self.spans {
                    let key = slot.trs as usize * self.cfg.tm_entries + slot.entry as usize;
                    p.slot_task[key] = req.task.raw();
                    p.slot_left[key] = num_deps;
                    if num_deps == 0 {
                        // No dependences to route: registration completes
                        // with the Gateway's accept service itself.
                        p.log
                            .record(SpanKind::DepsRegistered, done, p.shard, req.task.raw(), 0);
                    }
                }
                self.emit(
                    done + wire,
                    Delivery::Trs(
                        slot.trs,
                        TrsMsg::NewTask {
                            slot,
                            task: req.task,
                            num_deps,
                        },
                    ),
                );
                self.emit_wake(done, Self::RANK_GW_NEW);
                if !req.deps.is_empty() {
                    self.gw_state = GwState::Dispatching {
                        deps: req.deps,
                        slot,
                        next: 0,
                    };
                }
            }
            GwState::Dispatching { deps, slot, next } => {
                let dep = deps[*next];
                let dep_idx = *next as u8;
                let slot = *slot;
                *next += 1;
                let last = *next == deps.len();
                if last {
                    self.gw_state = GwState::Idle;
                }
                let j = dct_for_addr(dep.addr, self.dct.len());
                let done = self.now + self.cfg.timing.gw_dep;
                self.stats.busy_gw += self.cfg.timing.gw_dep;
                self.gw_new_busy = done;
                self.emit(
                    done + wire,
                    Delivery::DctNew(
                        j,
                        NewDepMsg {
                            slot,
                            dep_idx,
                            dep,
                            conflict_counted: false,
                            vm_stall_counted: false,
                        },
                    ),
                );
                self.emit_wake(done, Self::RANK_GW_NEW);
            }
        }
    }

    fn try_gw_fin(&mut self) {
        if self.now < self.gw_fin_busy {
            return;
        }
        let Some(fin) = self.ext_fin.pop_front() else {
            return;
        };
        let done = self.now + self.cfg.timing.gw_fin;
        self.stats.busy_gw += self.cfg.timing.gw_fin;
        self.gw_fin_busy = done;
        self.emit(
            done + self.cfg.timing.wire,
            Delivery::Trs(fin.slot.trs, TrsMsg::Finished { slot: fin.slot }),
        );
        self.emit_wake(done, Self::RANK_GW_FIN);
    }

    fn try_trs(&mut self, i: usize) {
        if self.now < self.trs_busy[i] {
            return;
        }
        let Some(msg) = self.trs_q[i].pop() else {
            return;
        };
        self.serve_trs(i, msg);
    }

    fn serve_trs(&mut self, i: usize, msg: TrsMsg) {
        if matches!(msg, TrsMsg::Finished { .. }) {
            self.in_flight -= 1;
            self.stats.tasks_completed += 1;
            // The freed TM slot can unblock a Gateway stalled on capacity;
            // the GW's rank precedes ours, so it is re-polled at the next
            // batch — exactly when the old full scan would retry it.
            self.mark(Self::RANK_GW_NEW);
        }
        let mut out = std::mem::take(&mut self.scratch_trs);
        let cost = self.trs[i].handle(msg, &self.cfg.timing, &mut out);
        let done = self.now + cost;
        self.stats.busy_trs += cost;
        self.trs_busy[i] = done;
        let wire = self.cfg.timing.wire;
        for e in out.drain(..) {
            match e {
                TrsEmit::ReadyToTs { task, slot } => {
                    // Wake-to-ready latency: from the delivery of the input
                    // that readied the slot to this service completing
                    // (queueing at the TRS included).
                    let lat = done - self.slot_in_at[self.slot_key(slot)];
                    self.stats.trs_wake_hist[hist_bucket(&TRS_WAKE_BOUNDS, lat)] += 1;
                    if let Some(p) = &mut self.spans {
                        p.log
                            .record(SpanKind::LastDepReleased, done, p.shard, task.raw(), 0);
                    }
                    self.emit(done + wire, Delivery::Ts(task, slot));
                }
                TrsEmit::DepFinished { dct, msg } => {
                    self.emit(done + wire, Delivery::Arb(ArbMsg::ToDctFin(dct, msg)));
                }
                TrsEmit::ChainWake { trs, slot, vm } => {
                    self.emit(
                        done + wire,
                        Delivery::Arb(ArbMsg::ToTrs(trs, TrsMsg::Wake { slot, vm })),
                    );
                }
            }
        }
        self.scratch_trs = out;
        let rank = self.rank_trs(i);
        self.emit_wake(done, rank);
    }

    fn try_dct_new(&mut self, j: usize) {
        if self.now < self.dct_new_busy[j] {
            return;
        }
        let Some(front) = self.dct_new_q[j].front() else {
            return;
        };
        let front = *front;
        let mut out = std::mem::take(&mut self.scratch_dct);
        match self.dct[j].handle_new(&front, &self.cfg.timing, &mut out) {
            Ok(cost) => {
                self.dct_new_q[j].pop();
                // Charge the blocked-on-whom wait now that the head went
                // through (the `*_counted` flags mark the first block; the
                // latch below records when it was observed).
                if front.conflict_counted {
                    self.stats.dct_wait_dm += self.now - self.dct_dm_blocked_at[j];
                }
                if front.vm_stall_counted {
                    self.stats.dct_wait_vm += self.now - self.dct_vm_blocked_at[j];
                }
                let done = self.now + cost;
                self.stats.busy_dct += cost;
                self.dct_new_busy[j] = done;
                if let Some(p) = &mut self.spans {
                    let key =
                        front.slot.trs as usize * self.cfg.tm_entries + front.slot.entry as usize;
                    p.slot_left[key] -= 1;
                    if p.slot_left[key] == 0 {
                        let task = p.slot_task[key];
                        p.log
                            .record(SpanKind::DepsRegistered, done, p.shard, task, 0);
                    }
                }
                let wire = self.cfg.timing.wire;
                for e in out.drain(..) {
                    self.emit(done + wire, Delivery::Arb(ArbMsg::ToTrs(e.trs, e.msg)));
                }
                let rank = self.rank_dct_new(j);
                self.emit_wake(done, rank);
            }
            Err(blocked) => {
                // Head-of-line stall: the dependence stays queued; count the
                // event once. It is retried when this DCT's finish port
                // frees resources (see `try_dct_fin`).
                let head = self.dct_new_q[j].front_mut().expect("front checked");
                match blocked {
                    DctBlocked::DmConflict if !head.conflict_counted => {
                        head.conflict_counted = true;
                        self.dct[j].dm.count_conflict();
                        self.dct_dm_blocked_at[j] = self.now;
                    }
                    DctBlocked::VmFull if !head.vm_stall_counted => {
                        head.vm_stall_counted = true;
                        self.dct[j].vm.count_stall();
                        self.dct_vm_blocked_at[j] = self.now;
                    }
                    _ => {}
                }
            }
        }
        self.scratch_dct = out;
    }

    fn try_dct_fin(&mut self, j: usize) {
        if self.now < self.dct_fin_busy[j] {
            return;
        }
        let Some(msg) = self.dct_fin_q[j].pop() else {
            return;
        };
        self.serve_dct_fin(j, msg);
    }

    fn serve_dct_fin(&mut self, j: usize, msg: DepFinMsg) {
        let mut out = std::mem::take(&mut self.scratch_dct);
        let cost = self.dct[j].handle_fin(msg, &self.cfg.timing, &mut out);
        let done = self.now + cost;
        self.stats.busy_dct += cost;
        self.dct_fin_busy[j] = done;
        let wire = self.cfg.timing.wire;
        for e in out.drain(..) {
            self.emit(done + wire, Delivery::Arb(ArbMsg::ToTrs(e.trs, e.msg)));
        }
        self.scratch_dct = out;
        // Released DM/VM entries can unblock the head of our new-dependence
        // queue; its rank follows ours, so it is retried in this same pass
        // — the old scan's fin-before-new order.
        let r_new = self.rank_dct_new(j);
        self.mark(r_new);
        let rank = self.rank_dct_fin(j);
        self.emit_wake(done, rank);
    }

    fn try_arb(&mut self) {
        if self.now < self.arb_busy {
            return;
        }
        let Some(msg) = self.arb_q.pop() else {
            return;
        };
        self.serve_arb(msg);
    }

    fn serve_arb(&mut self, msg: ArbMsg) {
        let done = self.now + self.cfg.timing.arb;
        self.stats.busy_arb += self.cfg.timing.arb;
        self.arb_busy = done;
        let wire = self.cfg.timing.wire;
        match msg {
            ArbMsg::ToTrs(i, m) => self.emit(done + wire, Delivery::Trs(i, m)),
            ArbMsg::ToDctFin(j, m) => self.emit(done + wire, Delivery::DctFin(j, m)),
        }
        let rank = self.rank_arb();
        self.emit_wake(done, rank);
    }

    fn try_ts(&mut self) {
        if self.now < self.ts_busy {
            return;
        }
        let Some((task, slot)) = self.ts_q.pop() else {
            return;
        };
        self.serve_ts(task, slot);
    }

    fn serve_ts(&mut self, task: TaskId, slot: SlotRef) {
        let done = self.now + self.cfg.timing.ts;
        self.stats.busy_ts += self.cfg.timing.ts;
        self.ts_busy = done;
        let at = done + self.cfg.timing.wire;
        self.emit(
            at,
            Delivery::ReadyOut(ReadyTask {
                task,
                slot,
                ready_at: at,
            }),
        );
        let rank = self.rank_ts();
        self.emit_wake(done, rank);
    }
}

// ---------------------------------------------------------------- snapshots

/// A delivery: one variant code, then that variant's fields.
impl Snap for Delivery {
    fn put(&self, e: &mut Enc) {
        match self {
            Delivery::Trs(i, m) => e.put(&0u8).put(i).put(m),
            Delivery::DctNew(i, m) => e.put(&1u8).put(i).put(m),
            Delivery::DctFin(i, m) => e.put(&2u8).put(i).put(m),
            Delivery::Arb(m) => e.put(&3u8).put(m),
            Delivery::Ts(task, slot) => e.put(&4u8).put(task).put(slot),
            Delivery::ReadyOut(r) => e.put(&5u8).put(r),
            Delivery::Wake(rank) => e.put(&6u8).put(rank),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u64()? {
            0 => Delivery::Trs(d.take()?, d.take()?),
            1 => Delivery::DctNew(d.take()?, d.take()?),
            2 => Delivery::DctFin(d.take()?, d.take()?),
            3 => Delivery::Arb(d.take()?),
            4 => Delivery::Ts(d.take()?, d.take()?),
            5 => Delivery::ReadyOut(d.take()?),
            6 => Delivery::Wake(d.take()?),
            other => return Err(SnapError::new(format!("unknown delivery kind {other}"))),
        })
    }
}

snap_record!(Ev { t, seq, d });

/// A FIFO is its live tail; the consumed prefix is dropped.
impl<T: Copy + Snap> Snap for Fifo<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(&self.buf[self.head..]);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Fifo {
            buf: d.take()?,
            head: 0,
        })
    }
}

/// `Idle` is `[0]`; `Dispatching` is `[1, deps, slot, next]`.
impl Snap for GwState {
    fn put(&self, e: &mut Enc) {
        match self {
            GwState::Idle => e.put(&0u8),
            GwState::Dispatching { deps, slot, next } => e.put(&1u8).put(deps).put(slot).put(next),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u64()? {
            0 => GwState::Idle,
            1 => GwState::Dispatching {
                deps: d.take()?,
                slot: d.take()?,
                next: d.take()?,
            },
            other => return Err(SnapError::new(format!("unknown GW state {other}"))),
        })
    }
}

/// The span log (nested), the shard tag and the per-slot countdowns.
impl Snap for SpanProbe {
    fn put(&self, e: &mut Enc) {
        let Self {
            log,
            shard,
            slot_task,
            slot_left,
        } = self;
        e.nest(log).put(shard).put(slot_task).put(slot_left);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(SpanProbe {
            log: d.nest()?,
            shard: d.take()?,
            slot_task: d.take()?,
            slot_left: d.take()?,
        })
    }
}

impl PicosSystem {
    /// Lengths of the per-unit tables, all derived from the config.
    fn table_shape(&self) -> [usize; 10] {
        [
            self.pending.len(),
            self.trs_busy.len(),
            self.dct_new_busy.len(),
            self.dct_fin_busy.len(),
            self.dct_dm_blocked_at.len(),
            self.dct_vm_blocked_at.len(),
            self.slot_in_at.len(),
            self.trs_q.len(),
            self.dct_new_q.len(),
            self.dct_fin_q.len(),
        ]
    }

    /// Serializes the complete dynamic state: the clock, the timing wheel
    /// (events keyed by absolute time), the wake wheel, the overflow heap,
    /// every queue, every unit table, the Gateway, telemetry and the
    /// blocked-at latches. Config-derived structure is *not* recorded —
    /// [`PicosSystem::load_state`] overwrites an identically configured
    /// system, guarded by a config fingerprint.
    pub fn save_state(&self) -> Value {
        let Self {
            cfg,
            now,
            wheel,
            wheel_bits: _,
            wheel_mask,
            wheel_len: _,
            wake_wheel,
            wake_bits: _,
            wake_words,
            wake_slots: _,
            overflow,
            overflow_seq,
            next_at,
            pending,
            rank_dct0: _,
            rank_arb0: _,
            ext_new,
            ext_fin,
            ready_buf,
            trs_q,
            dct_new_q,
            dct_fin_q,
            arb_q,
            ts_q,
            trs,
            dct,
            gw_state,
            gw_blocked_counted,
            rr_trs,
            gw_new_busy,
            gw_fin_busy,
            trs_busy,
            dct_new_busy,
            dct_fin_busy,
            arb_busy,
            ts_busy,
            scratch_trs: _,
            scratch_dct: _,
            in_flight,
            stats,
            sampler,
            spans,
            gw_blocked_at,
            dct_dm_blocked_at,
            dct_vm_blocked_at,
            slot_in_at,
        } = self;
        // Wheel slots are keyed by absolute time.
        let abs = |slot: usize| -> Cycle {
            now + ((slot as Cycle + wheel.len() as Cycle - (now & wheel_mask)) & wheel_mask)
        };
        let wakes: Vec<(Cycle, Vec<u64>)> = wake_wheel
            .chunks(*wake_words)
            .enumerate()
            .filter(|(_, words)| words.iter().any(|&w| w != 0))
            .map(|(slot, words)| (abs(slot), words.to_vec()))
            .collect();
        let mut overflow: Vec<&Ev> = overflow.iter().map(|Reverse(ev)| ev).collect();
        overflow.sort_by_key(|ev| (ev.t, ev.seq));
        let mut e = Enc::new();
        e.put(&crate::snap::config_fingerprint(cfg))
            .put(now)
            .pairs(
                wheel
                    .iter()
                    .enumerate()
                    .filter(|(_, evs)| !evs.is_empty())
                    .map(|(slot, evs)| (abs(slot), evs)),
            )
            .put(&wakes)
            .seq(overflow)
            .put(overflow_seq)
            .put(next_at)
            .put(pending)
            .put(ext_new)
            .put(ext_fin)
            .put(ready_buf)
            .put(trs_q)
            .put(dct_new_q)
            .put(dct_fin_q)
            .put(arb_q)
            .put(ts_q)
            .val(Value::Arr(trs.iter().map(Trs::save_state).collect()))
            .val(Value::Arr(dct.iter().map(Dct::save_state).collect()))
            .nest(gw_state)
            .put(gw_blocked_counted)
            .put(rr_trs)
            .put(gw_new_busy)
            .put(gw_fin_busy)
            .put(trs_busy)
            .put(dct_new_busy)
            .put(dct_fin_busy)
            .put(arb_busy)
            .put(ts_busy)
            .put(in_flight)
            .nest(stats)
            .put(sampler)
            .put(spans)
            .put(gw_blocked_at)
            .put(dct_dm_blocked_at)
            .put(dct_vm_blocked_at)
            .put(slot_in_at);
        e.done()
    }

    /// Overwrites the dynamic state of an identically configured system
    /// with the state recorded by [`PicosSystem::save_state`]. Continuing
    /// from the restored state is bit-exact with continuing the original.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot
    /// was taken under a different configuration; the system must then
    /// be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "picos")?;
        d.guard("picos config", crate::snap::config_fingerprint(&self.cfg))?;
        let shape = self.table_shape();
        self.now = d.take()?;
        let (now, mask) = (self.now, self.wheel_mask);
        let outside = |t: Cycle| t < now || t - now > mask;
        self.wheel.iter_mut().for_each(Vec::clear);
        self.wheel_bits.fill(0);
        self.wheel_len = 0;
        for (t, evs) in d.take::<Vec<(Cycle, Vec<Delivery>)>>()? {
            if outside(t) {
                return Err(SnapError::new("picos: wheel event outside horizon"));
            }
            let slot = (t & mask) as usize;
            self.wheel_bits[slot / 64] |= 1u64 << (slot % 64);
            self.wheel_len += evs.len();
            self.wheel[slot] = evs;
        }
        self.wake_wheel.fill(0);
        self.wake_bits.fill(0);
        self.wake_slots = 0;
        let n = self.wake_words;
        for (t, words) in d.take::<Vec<(Cycle, Vec<u64>)>>()? {
            if outside(t) || words.len() != n {
                return Err(SnapError::new("picos: wake slot outside horizon"));
            }
            let slot = (t & mask) as usize;
            self.wake_bits[slot / 64] |= 1u64 << (slot % 64);
            self.wake_slots += 1;
            self.wake_wheel[slot * n..(slot + 1) * n].copy_from_slice(&words);
        }
        self.overflow = d.take::<Vec<Ev>>()?.into_iter().map(Reverse).collect();
        self.overflow_seq = d.take()?;
        self.next_at = d.take()?;
        self.pending = d.take()?;
        self.ext_new = d.take()?;
        self.ext_fin = d.take()?;
        self.ready_buf = d.take()?;
        self.trs_q = d.take()?;
        self.dct_new_q = d.take()?;
        self.dct_fin_q = d.take()?;
        self.arb_q = d.take()?;
        self.ts_q = d.take()?;
        d.each(&mut self.trs, "picos num_trs", Trs::load_state)?;
        d.each(&mut self.dct, "picos num_dct", Dct::load_state)?;
        self.gw_state = d.nest()?;
        self.gw_blocked_counted = d.take()?;
        self.rr_trs = d.take()?;
        self.gw_new_busy = d.take()?;
        self.gw_fin_busy = d.take()?;
        self.trs_busy = d.take()?;
        self.dct_new_busy = d.take()?;
        self.dct_fin_busy = d.take()?;
        self.arb_busy = d.take()?;
        self.ts_busy = d.take()?;
        self.in_flight = d.take()?;
        self.stats = d.nest()?;
        self.sampler = d.take()?;
        self.spans = d.take()?;
        if let Some(p) = &self.spans {
            let slots = self.cfg.num_trs * self.cfg.tm_entries;
            guard("span slots", p.slot_task.len(), slots)?;
        }
        self.gw_blocked_at = d.take()?;
        self.dct_dm_blocked_at = d.take()?;
        self.dct_vm_blocked_at = d.take()?;
        self.slot_in_at = d.take()?;
        if self.table_shape() != shape {
            return Err(SnapError::new("picos: per-unit table shape mismatch"));
        }
        Ok(())
    }
}

/// Errors surfaced by the engine's convenience runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The run exceeded its cycle budget.
    Watchdog {
        /// Time at which the watchdog fired.
        at: Cycle,
    },
    /// No event can make progress but work remains.
    Deadlock {
        /// Time at which the deadlock was detected.
        at: Cycle,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Watchdog { at } => write!(f, "watchdog expired at cycle {at}"),
            EngineError::Deadlock { at } => write!(f, "engine deadlocked at cycle {at}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DmDesign, PicosConfig};
    use picos_trace::{gen, TaskGraph, Trace};

    /// Runs a trace through the engine with instant workers (tasks finish
    /// the moment they pop out ready) and returns the execution order.
    fn run_instant(cfg: PicosConfig, trace: &Trace) -> (Vec<u32>, PicosSystem) {
        let mut sys = PicosSystem::new(cfg);
        sys.submit_all(trace);
        let mut order = Vec::new();
        sys.run_to_quiescence(200_000_000, |r| {
            order.push(r.task.raw());
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .expect("run must complete");
        (order, sys)
    }

    /// Advances the engine event by event until no internal event remains,
    /// without acknowledging any ready task. Shared shape of the old
    /// "advance until quiescent with a guard counter" test loops.
    fn drain_events(sys: &mut PicosSystem) {
        sys.advance_to(sys.now()); // absorb externally pushed work
        let mut guard = 0u32;
        while let Some(t) = sys.next_event_time() {
            sys.advance_to(t);
            guard += 1;
            assert!(guard < 1_000_000, "engine failed to drain");
        }
    }

    #[test]
    fn single_independent_task_flows_through() {
        let mut tr = Trace::new("one");
        tr.push(picos_trace::KernelClass::GENERIC, [], 1);
        let (order, sys) = run_instant(PicosConfig::balanced(), &tr);
        assert_eq!(order, vec![0]);
        let s = sys.stats();
        assert_eq!(s.tasks_submitted, 1);
        assert_eq!(s.tasks_completed, 1);
        assert_eq!(sys.in_flight(), 0);
        assert!(sys.is_quiescent());
    }

    #[test]
    fn chain_executes_in_order() {
        let tr = gen::synthetic(gen::Case::Case4);
        let (order, _) = run_instant(PicosConfig::balanced(), &tr);
        assert_eq!(order.len(), 100);
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(order, expected, "inout chain must serialize");
    }

    #[test]
    fn all_synthetic_cases_complete_topologically() {
        for c in gen::Case::ALL {
            let tr = gen::synthetic(c);
            let g = TaskGraph::build(&tr);
            for dm in DmDesign::ALL {
                let (order, sys) = run_instant(PicosConfig::baseline(dm), &tr);
                assert_eq!(order.len(), tr.len(), "{c:?} {dm}");
                assert!(g.is_topological(&order), "{c:?} {dm} order illegal");
                assert_eq!(sys.stats().tasks_completed as usize, tr.len());
            }
        }
    }

    #[test]
    fn consumer_chain_wakes_from_last() {
        // One producer, three consumers, then run: consumers must pop out
        // in reverse creation order (paper, Figure 5).
        let mut tr = Trace::new("fan");
        let k = picos_trace::KernelClass::GENERIC;
        tr.push(k, [picos_trace::Dependence::inout(0xA0)], 1);
        for _ in 0..3 {
            tr.push(k, [picos_trace::Dependence::input(0xA0)], 1);
        }
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        sys.submit_all(&tr);
        // The paper's Figure 5 assumes all tasks arrive before the first
        // one finishes: hold the producer's finish until every dependence
        // is registered, then observe the wake order.
        sys.advance_to(5_000);
        let producer = sys.pop_ready().expect("producer ready");
        assert_eq!(producer.task.raw(), 0);
        assert_eq!(sys.ready_len(), 0, "consumers must wait");
        sys.notify_finished(FinishedReq {
            task: producer.task,
            slot: producer.slot,
        });
        let mut ready_order = Vec::new();
        sys.run_to_quiescence(1_000_000, |r| {
            ready_order.push(r.task.raw());
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .unwrap();
        assert_eq!(
            ready_order,
            vec![3, 2, 1],
            "consumers wake from the last backwards"
        );
    }

    #[test]
    fn lifo_policy_reverses_pop_order() {
        // Many independent tasks become ready; LIFO pops the youngest.
        let mut tr = Trace::new("indep");
        let k = picos_trace::KernelClass::GENERIC;
        for _ in 0..10 {
            tr.push(k, [], 1);
        }
        let mut sys = PicosSystem::new(PicosConfig::balanced().with_ts_policy(TsPolicy::Lifo));
        sys.submit_all(&tr);
        // Let everything become ready without executing anything.
        drain_events(&mut sys);
        assert_eq!(sys.ready_len(), 10);
        assert_eq!(sys.peek_ready().unwrap().task.raw(), 9);
        let first = sys.pop_ready().unwrap();
        assert_eq!(first.task.raw(), 9, "LIFO pops youngest");
        assert_eq!(sys.peek_ready().unwrap().task.raw(), 8, "peek follows pop");
        let mut fifo_sys = PicosSystem::new(PicosConfig::balanced());
        fifo_sys.submit_all(&tr);
        drain_events(&mut fifo_sys);
        assert_eq!(fifo_sys.peek_ready().unwrap().task.raw(), 0);
        assert_eq!(
            fifo_sys.pop_ready().unwrap().task.raw(),
            0,
            "FIFO pops oldest"
        );
    }

    #[test]
    fn tm_capacity_backpressures_gateway() {
        // 300 independent tasks but only 256 slots: the GW must stall until
        // finishes free slots; with no finishes delivered the ready buffer
        // holds at most 256.
        let mut tr = Trace::new("many");
        let k = picos_trace::KernelClass::GENERIC;
        for _ in 0..300 {
            tr.push(k, [], 1);
        }
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        sys.submit_all(&tr);
        drain_events(&mut sys);
        assert_eq!(sys.ready_len(), 256);
        assert_eq!(sys.pending_new(), 300 - 256);
        assert!(sys.stats().tm_stalls >= 1);
        // Finishing tasks lets the rest through.
        let mut done = 0;
        sys.run_to_quiescence(10_000_000, |r| {
            done += 1;
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .unwrap();
        assert_eq!(done, 300);
    }

    #[test]
    fn multi_instance_configuration_completes() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(256));
        let g = TaskGraph::build(&tr);
        let (order, sys) = run_instant(PicosConfig::future(2, DmDesign::PearsonEightWay), &tr);
        assert_eq!(order.len(), tr.len());
        assert!(g.is_topological(&order));
        assert!(sys.is_quiescent());
    }

    #[test]
    fn direct_hash_counts_conflicts_on_clustered_addresses() {
        // Twelve producer tasks on addresses that cluster onto one DM set
        // under direct indexing (stride 64). Held in flight together they
        // need 12 live entries: the 8-way direct DM must stall 4 of them,
        // Pearson spreads them and stalls none.
        let mut tr = Trace::new("clustered");
        let k = picos_trace::KernelClass::GENERIC;
        for i in 0..12u64 {
            tr.push(k, [picos_trace::Dependence::output(0x9000 + i * 0x1000)], 1);
        }
        let run = |dm: DmDesign| {
            let mut sys = PicosSystem::new(PicosConfig::baseline(dm));
            sys.submit_all(&tr);
            // Hold every finish until nothing more can happen, pinning all
            // insertable entries live at once.
            drain_events(&mut sys);
            let mut pending = Vec::new();
            while let Some(r) = sys.pop_ready() {
                pending.push(FinishedReq {
                    task: r.task,
                    slot: r.slot,
                });
            }
            for f in pending {
                sys.notify_finished(f);
            }
            sys.run_to_quiescence(10_000_000, |r| {
                Some(FinishedReq {
                    task: r.task,
                    slot: r.slot,
                })
            })
            .unwrap();
            sys.stats().dm_conflicts
        };
        // Conflicts are counted per head-of-line blocking event: the ninth
        // dependence stalls the DCT once and the ones queued behind it only
        // retry after entries free up, so at least one event must appear.
        let c8 = run(DmDesign::EightWay);
        let cp = run(DmDesign::PearsonEightWay);
        assert!(c8 >= 1, "8-way direct must conflict: {c8}");
        assert_eq!(cp, 0, "pearson must not conflict here");
    }

    #[test]
    fn watchdog_fires_when_finishes_withheld() {
        let mut tr = Trace::new("nofin");
        tr.push(picos_trace::KernelClass::GENERIC, [], 1);
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        sys.submit_all(&tr);
        // Never acknowledge ready tasks: the engine goes quiet with the task
        // in flight; run_to_quiescence must report the deadlock.
        let r = sys.run_to_quiescence(1_000, |_r| None);
        assert!(r.is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(256));
        let (o1, s1) = run_instant(PicosConfig::balanced(), &tr);
        let (o2, s2) = run_instant(PicosConfig::balanced(), &tr);
        assert_eq!(o1, o2);
        assert_eq!(s1.now(), s2.now());
        assert_eq!(s1.stats(), s2.stats());
    }

    #[test]
    fn timeline_is_observation_only_and_sums_exactly() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let (plain_order, plain) = run_instant(PicosConfig::balanced(), &tr);
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        sys.attach_timeline(500);
        sys.submit_all(&tr);
        let mut order = Vec::new();
        sys.run_to_quiescence(200_000_000, |r| {
            order.push(r.task.raw());
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .expect("run must complete");
        // Probes change no cycle: same schedule, same clock, same stats.
        assert_eq!(order, plain_order);
        assert_eq!(sys.now(), plain.now());
        assert_eq!(sys.stats(), plain.stats());
        let tl = sys.take_timeline().expect("sampler attached");
        assert!(sys.take_timeline().is_none(), "sampler detaches once");
        assert!(tl.len() >= 2, "a multi-kilocycle run spans several windows");
        // Delta series reproduce the end-of-run counters exactly.
        let stats = plain.stats();
        let sum = |name: &str| tl.column(name).unwrap().iter().sum::<u64>();
        assert_eq!(sum("busy.gw"), stats.busy_gw);
        assert_eq!(sum("busy.dct"), stats.busy_dct);
        assert_eq!(sum("done.tasks"), stats.tasks_completed);
        assert_eq!(sum("done.deps"), stats.deps_processed);
        // The single-ported Arbiter cannot book much more than one window
        // of busy time per window (bookings land at service start, so one
        // in-progress service may spill over the boundary).
        let arb = tl.series_index("busy.arb").unwrap();
        for i in 0..tl.len() {
            let (s, e, v) = tl.sample(i);
            assert!(v[arb] <= (e - s) + 64, "window [{s},{e}) overfull ARB");
        }
    }

    #[test]
    fn huge_service_times_route_through_overflow() {
        // Timings far beyond the wheel cap exercise the overflow heap; the
        // run must still complete deterministically.
        let mut cfg = PicosConfig::balanced();
        cfg.timing.gw_task = 10_000;
        cfg.timing.dct_dep = 9_000;
        let mut tr = Trace::new("slowunits");
        let k = picos_trace::KernelClass::GENERIC;
        tr.push(k, [picos_trace::Dependence::inout(0xA0)], 1);
        tr.push(k, [picos_trace::Dependence::input(0xA0)], 1);
        let (order, sys) = run_instant(cfg, &tr);
        assert_eq!(order, vec![0, 1]);
        assert!(sys.is_quiescent());
        assert!(sys.now() > 20_000, "service times must be paid");
    }

    /// Drives a system to quiescence recording the execution order; the
    /// continuation half of the restore==continuous checks.
    fn finish_run(sys: &mut PicosSystem) -> Vec<u32> {
        let mut order = Vec::new();
        sys.run_to_quiescence(200_000_000, |r| {
            order.push(r.task.raw());
            Some(FinishedReq {
                task: r.task,
                slot: r.slot,
            })
        })
        .expect("run must complete");
        order
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        // Save mid-flight at several depths (with telemetry attached: the
        // sampler cursor and span log are state too), restore into a fresh
        // system, and require the continuations to be bit-identical —
        // execution order, clock, stats, timeline and span log.
        let tr = gen::synthetic(gen::Case::Case6);
        for pause in [0u64, 137, 1_003, 20_011] {
            let mut live = PicosSystem::new(PicosConfig::balanced());
            live.attach_timeline(500);
            live.attach_spans(3);
            live.submit_all(&tr);
            live.advance_to(pause);

            let doc = live.save_state();
            // Through the text codec, as the session snapshot does.
            let text = picos_trace::snap::value_to_json(&doc);
            let parsed = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = PicosSystem::new(PicosConfig::balanced());
            restored.attach_timeline(500);
            restored.attach_spans(3);
            restored.load_state(&parsed).unwrap();

            let a = finish_run(&mut live);
            let b = finish_run(&mut restored);
            assert_eq!(a, b, "pause={pause}: execution order diverged");
            assert_eq!(live.now(), restored.now(), "pause={pause}");
            assert_eq!(live.stats(), restored.stats(), "pause={pause}");
            assert_eq!(
                live.take_timeline(),
                restored.take_timeline(),
                "pause={pause}"
            );
            assert_eq!(live.take_spans(), restored.take_spans(), "pause={pause}");
        }
    }

    #[test]
    fn fork_is_an_independent_replica() {
        // Clone mid-flight; the fork and the original must continue
        // identically, and driving the fork must not disturb the original.
        let tr = gen::synthetic(gen::Case::Case2);
        let mut sys = PicosSystem::new(PicosConfig::balanced());
        sys.submit_all(&tr);
        sys.advance_to(2_000);
        let mut fork = sys.clone();
        let a = finish_run(&mut fork);
        let before = sys.now();
        let b = finish_run(&mut sys);
        assert_eq!(before, 2_000, "original untouched while fork ran");
        assert_eq!(a, b);
        assert_eq!(fork.stats(), sys.stats());
    }

    #[test]
    fn snapshot_restores_overflow_heap() {
        // Huge timings park events beyond the wheel horizon; a snapshot
        // taken then must carry the overflow heap exactly.
        let mut cfg = PicosConfig::balanced();
        cfg.timing.gw_task = 10_000;
        cfg.timing.dct_dep = 9_000;
        let mut tr = Trace::new("slowsnap");
        let k = picos_trace::KernelClass::GENERIC;
        tr.push(k, [picos_trace::Dependence::inout(0xA0)], 1);
        tr.push(k, [picos_trace::Dependence::input(0xA0)], 1);
        let mut live = PicosSystem::new(cfg.clone());
        live.submit_all(&tr);
        live.advance_to(500); // mid GW service: overflow is populated
        let mut restored = PicosSystem::new(cfg);
        restored.load_state(&live.save_state()).unwrap();
        assert_eq!(finish_run(&mut live), finish_run(&mut restored));
        assert_eq!(live.now(), restored.now());
        assert_eq!(live.stats(), restored.stats());
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let sys = PicosSystem::new(PicosConfig::balanced());
        let doc = sys.save_state();
        let mut other = PicosSystem::new(PicosConfig::baseline(DmDesign::SixteenWay));
        let err = other.load_state(&doc).unwrap_err();
        assert!(err.message.contains("picos config"), "{err}");
    }
}
