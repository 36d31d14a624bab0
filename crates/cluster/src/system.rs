//! The cluster driver: N Picos shards, a Distributor, and the inter-shard
//! interconnect, advanced as one deterministic discrete-event loop — a
//! resumable [`ClusterSession`] that ingests task fragments as they
//! arrive.
//!
//! # Protocol
//!
//! For every task the Distributor splits the dependence list into
//! per-home-shard fragments (see [`crate::home_shard`]):
//!
//! 1. **Registration.** The local fragment (placement shard) enters that
//!    shard's Gateway queue directly, exactly like the HW-only HIL driver's
//!    pre-load. Remote fragments cross the interconnect as registration
//!    messages of `deps + 1` payload words. Each shard **ingests fragments
//!    in global task-creation order** (an ingress reorder stage buffers
//!    early arrivals), so every per-address dependence chain sees the same
//!    registration order a single Picos would — this is what preserves
//!    TaskGraph-order correctness for any shard count.
//! 2. **Wake-up.** A fragment popping out of a remote shard's Task
//!    Scheduler sends a ready notice back to the placement shard (one
//!    word). The task may start once its local fragment has popped *and*
//!    every remote notice has arrived.
//! 3. **Execution.** The placement shard's TS output port hands tasks to
//!    workers with the HW-only dispatch cost. Remote-task fragments at the
//!    head of the ready stream are consumed unconditionally; a local task
//!    at the head waits for a free worker (the single-Picos discipline).
//! 4. **Finish.** Worker completion notifies the local shard immediately
//!    and every remote fragment shard over the interconnect, releasing
//!    TM/DM/VM entries and waking successors there.
//!
//! With one shard, steps 2 and 4's remote halves never fire and the loop
//! is statement-for-statement the HW-only driver: cycle-identical.
//!
//! # Drives
//!
//! The protocol is written once, as per-shard phase methods that take the
//! event time as an argument: worker completions, deliveries, ingress and
//! execution. Two drives call them, on one thread:
//!
//! * the serial pump ([`EventLoopCore::pump`]) runs each phase over every
//!   shard at the current time, with the fault layer and the Distributor
//!   around them, and sends straight onto the links. `advance_to`, `step`
//!   and every faulted, one-shard or zero-lookahead session use it;
//! * the epoch loop (`epoch.rs`) runs all of one shard's phases at each of
//!   its own event times, shard after shard, and replays the buffered
//!   sends in serial order at each epoch end. `finish` drains through it
//!   whenever it is sound, with results identical to the serial pump.

mod epoch;
mod snap;

use crate::config::{home_shard, ClusterConfig, ClusterError, ShardPolicy};
use crate::fault::{FaultCounters, FaultPlan, FaultState, Packet};
use epoch::{Epoch, Phase};
use picos_core::{FinishedReq, PicosSystem, SlotRef, Stats};
use picos_hil::Link;
use picos_metrics::span::{SpanEvent, SpanKind, SpanLog};
use picos_metrics::{SeriesSpec, Timeline, WindowSampler};
use picos_runtime::session::{
    feed_trace, Admission, EventLoopCore, Ingest, ScheduleLog, SessionConfig, SessionCore,
};
use picos_runtime::ExecReport;
use picos_trace::{Dependence, TaskDescriptor, TaskId, Trace};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Messages crossing the inter-shard interconnect.
#[derive(Debug, Clone)]
enum ClusterMsg {
    /// A remote dependence-registration fragment travelling to the home
    /// shard of its addresses. Sized by its dependence count on the link.
    Register { task: u32, deps: Arc<[Dependence]> },
    /// A remote fragment became ready; travels to the placement shard.
    Ready { task: u32 },
    /// The task finished; travels to a remote fragment's shard.
    Finish { task: u32 },
}

impl ClusterMsg {
    /// The task this message is about, for span annotation.
    fn task(&self) -> u32 {
        match self {
            ClusterMsg::Register { task, .. }
            | ClusterMsg::Ready { task }
            | ClusterMsg::Finish { task } => *task,
        }
    }
}

fn min_next(cands: impl IntoIterator<Item = Option<u64>>) -> Option<u64> {
    cands.into_iter().flatten().min()
}

/// Everything a finished cluster session yields: the report, per-shard
/// hardware counters, the stitched [`Timeline`] when a telemetry window
/// was attached, and the [`FaultCounters`] when an active [`FaultPlan`]
/// was.
pub type ClusterOutput = (
    ExecReport,
    Vec<Stats>,
    Option<Timeline>,
    Option<FaultCounters>,
    Option<SpanLog>,
);

/// One shard's own state: its Picos core, its workers, the ingress reorder
/// stage in front of its Gateway and its execution queue.
#[derive(Debug, Clone)]
struct Shard {
    sys: PicosSystem,
    workers: picos_hil::Workers,
    /// Ingress reorder stage: this shard's fragments in task-creation
    /// order, each `None` until it arrives. The Gateway takes them from
    /// the front, so every dependence chain registers in creation order.
    expected: VecDeque<(u32, Option<Arc<[Dependence]>>)>,
    /// Remote fragments' TM slots, recorded when they pop ready.
    slot_at: HashMap<u32, SlotRef>,
    /// Tasks fully ready (last notice arrived) awaiting a free worker.
    exec_q: VecDeque<u32>,
    /// Whether this pump pushed work into the core, which must then catch
    /// up to the pump's time before execution.
    touched: bool,
}

/// A resumable cluster stepper: shards ingest dependence-list fragments as
/// tasks stream in, with placement and fragment planning performed
/// per-task at submission (the policies only look at the task itself, so
/// streaming placement equals the batch plan).
///
/// Feeding a whole trace and finishing is cycle-identical to
/// [`run_cluster_with_stats`]; with one shard both are cycle-identical to
/// the HW-only HIL driver.
///
/// Cloning is a deep copy of the entire cluster — the in-memory fork
/// primitive: a cloned session diverges freely without touching the
/// original. [`ClusterSession::save_state`] /
/// [`ClusterSession::load_state`] are the serialized equivalents.
#[derive(Debug, Clone)]
pub struct ClusterSession {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    /// Each shard's ingress port of the interconnect (a slice of its own,
    /// because the fault layer sends and retries across all of them).
    links: Vec<Link<Packet<ClusterMsg>>>,
    // Per-task plan and readiness state, grown at submission.
    placement: Vec<u16>,
    local: Vec<Arc<[Dependence]>>,
    remote: Vec<Vec<(u16, Arc<[Dependence]>)>>,
    /// Readiness countdown target: local pop + one notice per remote
    /// fragment.
    frag_total: Vec<u8>,
    frag_ready: Vec<u8>,
    local_popped: Vec<bool>,
    local_slot: Vec<SlotRef>,
    durs: Vec<u64>,
    /// Round-robin fallback for dependence-free tasks.
    rr: usize,
    /// Scratch for the locality-affine placement count.
    counts: Vec<usize>,
    empty_deps: Arc<[Dependence]>,
    /// Distributor cursor: next admitted task to create.
    next_feed: usize,
    t: u64,
    ingest: Ingest,
    log: ScheduleLog,
    /// Messages ever sent into each shard's ingress link (cumulative; the
    /// windowed-delta probe of the interconnect series).
    link_sent: Vec<u64>,
    /// Cluster-level telemetry (worker occupancy, per-link interconnect
    /// occupancy); each shard's core sampler rides inside its
    /// [`PicosSystem`]. `None` keeps every clock move sampling-free.
    sampler: Option<WindowSampler>,
    /// Driver-side lifecycle span recorder (submit, dispatch, start,
    /// finish, interconnect traffic, faults); each shard core's own probe
    /// rides inside its [`PicosSystem`] and is merged at finish. The epoch
    /// loop records the same events with the same cycle stamps in shard
    /// order, so the canonically sorted log is drive-independent.
    /// Observation-only.
    spans: Option<SpanLog>,
    /// The attached fault layer (ack/retry protocol, fault draws, pause
    /// deferral, worker-fault schedule), or `None` for the plain engine.
    faults: Option<Box<FaultState<ClusterMsg>>>,
    /// Tasks whose first execution a fail-stop worker fault killed; their
    /// restart updates the schedule log instead of appending to it.
    restarts: HashSet<u32>,
    /// The epoch loop's replay buffer while it drains the session, `None`
    /// under the serial pump. Never serialized: no snapshot can be taken
    /// inside `finish`.
    epoch: Option<Epoch>,
    /// The shared drive's settled flag ([`EventLoopCore::settled`]); not
    /// serialized.
    settled: bool,
}

impl ClusterSession {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`] on an invalid configuration.
    pub fn new(cfg: ClusterConfig, session: SessionConfig) -> Result<Self, ClusterError> {
        cfg.validate().map_err(ClusterError::Config)?;
        session.validate().map_err(ClusterError::Config)?;
        let k = cfg.shards;
        let mut shards: Vec<Shard> = (0..k)
            .map(|s| Shard {
                sys: PicosSystem::new(cfg.picos.clone()),
                workers: picos_hil::Workers::new(cfg.shard_workers(s)),
                expected: VecDeque::new(),
                slot_at: HashMap::new(),
                exec_q: VecDeque::new(),
                touched: false,
            })
            .collect();
        let sampler = session.timeline_window.map(|w| {
            let mut series = vec![SeriesSpec::gauge("workers.busy")];
            for s in 0..k {
                series.push(SeriesSpec::gauge(format!("link{s}.inflight")));
                series.push(SeriesSpec::delta(format!("link{s}.sent")));
            }
            // Fault series only for an *active* plan: a zero-fault plan's
            // timeline must match a plan-free run column for column.
            if cfg.faults.as_ref().is_some_and(FaultPlan::is_active) {
                for name in [
                    "faults.drops",
                    "faults.retries",
                    "faults.redeliveries",
                    "faults.recoveries",
                ] {
                    series.push(SeriesSpec::delta(name));
                }
            }
            for shard in shards.iter_mut() {
                shard.sys.attach_timeline(w);
            }
            WindowSampler::new(w, series)
        });
        // An inactive plan (nothing it could ever inject) attaches no
        // runtime state at all: the session runs the literal plain engine,
        // so zero-fault bit-identity — and the fault layer's 3% overhead
        // budget — hold structurally.
        let faults = cfg
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(|p| Box::new(FaultState::new(p, k)));
        let spans = session.trace_spans.then(|| {
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.sys.attach_spans(s as u16);
            }
            SpanLog::new()
        });
        Ok(ClusterSession {
            shards,
            links: (0..k).map(|_| Link::new(cfg.link)).collect(),
            placement: Vec::new(),
            local: Vec::new(),
            remote: Vec::new(),
            frag_total: Vec::new(),
            frag_ready: Vec::new(),
            local_popped: Vec::new(),
            local_slot: Vec::new(),
            durs: Vec::new(),
            rr: 0,
            counts: vec![0; k],
            empty_deps: Arc::from(Vec::new()),
            next_feed: 0,
            t: 0,
            ingest: Ingest::new(session.window),
            log: ScheduleLog::default(),
            link_sent: vec![0; k],
            sampler,
            spans,
            faults,
            restarts: HashSet::new(),
            epoch: None,
            settled: false,
            cfg,
        })
    }

    /// Reads the cluster-level probe points (worker occupancy, per-link
    /// interconnect occupancy and traffic) in the sampler's series order.
    fn probe_cluster(&self, out: &mut [u64]) {
        out[0] = (self.shards.iter().enumerate())
            .map(|(s, sh)| (self.cfg.shard_workers(s) - sh.workers.idle()) as u64)
            .sum();
        for (s, link) in self.links.iter().enumerate() {
            out[1 + 2 * s] = link.in_flight() as u64;
            out[2 + 2 * s] = self.link_sent[s];
        }
        if let Some(c) = self.fault_counters() {
            let base = 1 + 2 * self.cfg.shards;
            out[base] = c.drops;
            out[base + 1] = c.retries;
            out[base + 2] = c.redeliveries;
            out[base + 3] = c.recoveries;
        }
    }

    /// End-of-run fault/recovery counters, present only when an *active*
    /// fault plan is attached (a zero-fault plan reports nothing, keeping
    /// it observationally identical to no plan at all).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults
            .as_ref()
            .filter(|f| f.plan_active())
            .map(|f| f.counters())
    }

    /// Places one task and splits its dependence list into per-home-shard
    /// fragments (the streaming equivalent of the batch plan).
    fn plan_task(&mut self, i: usize, task: &TaskDescriptor) {
        let k = self.cfg.shards;
        if k == 1 {
            self.placement.push(0);
            self.local.push(task.deps.clone());
            self.remote.push(Vec::new());
            return;
        }
        let p = match self.cfg.policy {
            ShardPolicy::RoundRobin => i % k,
            ShardPolicy::AddrHash => match task.deps.first() {
                Some(d) => home_shard(d.addr, k),
                None => {
                    self.rr += 1;
                    (self.rr - 1) % k
                }
            },
            ShardPolicy::LocalityAffine => {
                if task.deps.is_empty() {
                    self.rr += 1;
                    (self.rr - 1) % k
                } else {
                    self.counts.iter_mut().for_each(|c| *c = 0);
                    for d in task.deps.iter() {
                        self.counts[home_shard(d.addr, k)] += 1;
                    }
                    let best = *self.counts.iter().max().expect("k > 0");
                    self.counts
                        .iter()
                        .position(|&c| c == best)
                        .expect("max exists")
                }
            }
        };
        // Bucket the dependence list by home shard, preserving order.
        let mut buckets: Vec<(usize, Vec<Dependence>)> = Vec::new();
        for &d in task.deps.iter() {
            let h = home_shard(d.addr, k);
            match buckets.iter_mut().find(|(s, _)| *s == h) {
                Some((_, v)) => v.push(d),
                None => buckets.push((h, vec![d])),
            }
        }
        buckets.sort_by_key(|(s, _)| *s);
        let mut loc = self.empty_deps.clone();
        let mut rem = Vec::new();
        for (s, deps) in buckets {
            if s == p {
                loc = deps.into();
            } else {
                rem.push((s as u16, Arc::<[Dependence]>::from(deps)));
            }
        }
        self.placement.push(p as u16);
        self.local.push(loc);
        self.remote.push(rem);
    }

    /// Time of shard `s`'s next own event: a worker completion, a link
    /// delivery or a core pipeline step.
    #[inline(always)]
    fn shard_next_time(&self, s: usize) -> Option<u64> {
        let sh = &self.shards[s];
        min_next([
            sh.sys.next_event_time(),
            sh.workers.next_done(),
            self.links[s].next_delivery(),
        ])
    }

    /// Starts a task on shard `s`'s workers with the HW-only dispatch
    /// cost. Both readiness paths (direct local pop, `exec_q` drain after
    /// the last remote notice) share this helper so they stay identical.
    /// The epoch loop defers the schedule-log entry to its replay.
    fn start_task(&mut self, s: usize, t: u64, task: u32, slot: SlotRef) {
        let st = t + self.cfg.dispatch;
        let dur = self.durs[task as usize];
        let end = match &mut self.epoch {
            Some(ep) => ep.start(t, s, task, st, dur),
            // A fail-stop fault killed the first execution; the restart
            // replaces its schedule entry instead of appending a new one.
            None if self.restarts.remove(&task) => self.log.rebegin(task, st, dur),
            None => self.log.begin(task, st, dur),
        };
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::Dispatched, t, s as u16, task, 0);
            log.record(SpanKind::Started, st, s as u16, task, 0);
        }
        self.shards[s].workers.start(end, task, slot);
    }

    /// Sends one interconnect message at `t`: into the epoch buffer during
    /// the epoch loop, otherwise through the fault layer when one is
    /// attached (packet id, fate draws, retry deadline), plain otherwise.
    fn send_msg(
        &mut self,
        t: u64,
        phase: Phase,
        from: usize,
        to: usize,
        msg: ClusterMsg,
        words: usize,
    ) {
        self.link_sent[to] += 1;
        let task = msg.task();
        let id = if let Some(ep) = &mut self.epoch {
            ep.send(t, phase, from, to, msg, words);
            0
        } else if let Some(f) = &mut self.faults {
            f.send(t, from as u16, to as u16, msg, words, &mut self.links)
        } else {
            self.links[to].send_words(t, Packet::plain(msg), words);
            0
        };
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::MsgSend, t, from as u16, task, id);
        }
    }

    // The phase methods are forced inline: the serial pump calls each once
    // per shard per step, and out of line they made a paced 4-shard
    // session about 5% slower.

    /// Worker completions at shard `s`: notify the local shard now, remote
    /// fragment shards over the interconnect.
    #[inline(always)]
    fn complete(&mut self, s: usize, t: u64) {
        while let Some((task, slot)) = self.shards[s].workers.pop_done_at(t) {
            let sh = &mut self.shards[s];
            sh.sys.notify_finished(FinishedReq {
                task: TaskId::new(task),
                slot,
            });
            sh.touched = true;
            for ri in 0..self.remote[task as usize].len() {
                let r = self.remote[task as usize][ri].0 as usize;
                self.send_msg(t, Phase::Complete, s, r, ClusterMsg::Finish { task }, 1);
            }
            self.ingest.finished += 1;
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::Finished, t, s as u16, task, 0);
            }
        }
    }

    /// Interconnect deliveries at shard `s`: pause-released deferrals
    /// first (they arrived earlier), then fresh arrivals, each through the
    /// fault layer's receive path when one is attached.
    #[inline(always)]
    fn receive(&mut self, s: usize, t: u64) {
        if self.faults.is_some() {
            while let Some(pkt) = self.faults.as_mut().and_then(|f| f.pop_deferred(s, t)) {
                self.receive_faulted(s, t, pkt);
            }
        }
        while let Some(pkt) = self.links[s].pop_delivery_at(t) {
            if self.faults.is_some() {
                self.receive_faulted(s, t, pkt);
            } else {
                self.deliver(s, t, pkt.msg, pkt.id);
            }
        }
    }

    /// Passes one packet delivered at shard `s` through the fault layer
    /// (ack, dedup, pause deferral, drop fate) and handles what survives.
    /// Out of line, so the plain delivery loop stays small.
    #[inline(never)]
    fn receive_faulted(&mut self, s: usize, t: u64, pkt: Packet<ClusterMsg>) {
        let id = pkt.id;
        let f = self.faults.as_mut().expect("fault layer attached");
        if let Some(msg) = f.receive(s, t, pkt) {
            self.deliver(s, t, msg, id);
        }
    }

    /// Handles one delivered interconnect message at shard `s`. `pkt_id`
    /// is the wire packet's id (0 for plain packets), forwarded to the
    /// message's delivery span.
    fn deliver(&mut self, s: usize, t: u64, msg: ClusterMsg, pkt_id: u32) {
        if let Some(log) = &mut self.spans {
            log.record(SpanKind::MsgDeliver, t, s as u16, msg.task(), pkt_id);
        }
        match msg {
            ClusterMsg::Register { task, deps } => {
                let q = &mut self.shards[s].expected;
                let at = q
                    .binary_search_by_key(&task, |&(id, _)| id)
                    .expect("a fragment arrives only at a shard that expects it");
                q[at].1 = Some(deps);
            }
            ClusterMsg::Ready { task } => {
                let ti = task as usize;
                self.frag_ready[ti] += 1;
                if self.frag_ready[ti] == self.frag_total[ti] {
                    debug_assert!(self.local_popped[ti], "local pop counts toward the total");
                    self.shards[s].exec_q.push_back(task);
                }
            }
            ClusterMsg::Finish { task } => {
                let sh = &mut self.shards[s];
                let slot = sh
                    .slot_at
                    .remove(&task)
                    .expect("remote fragment popped before its task ran");
                sh.sys.notify_finished(FinishedReq {
                    task: TaskId::new(task),
                    slot,
                });
                sh.touched = true;
            }
        }
    }

    /// Ingress at shard `s`: feed the Gateway in creation order.
    #[inline(always)]
    fn ingress(&mut self, s: usize) {
        let sh = &mut self.shards[s];
        while let Some((_, Some(_))) = sh.expected.front() {
            let (task, deps) = sh.expected.pop_front().expect("peeked");
            sh.sys.submit(TaskId::new(task), deps.expect("peeked"));
            sh.touched = true;
        }
    }

    /// Execution at shard `s`: first the tasks whose last remote notice
    /// arrived earlier, then the shard's ready stream.
    #[inline(always)]
    fn execute(&mut self, s: usize, t: u64) {
        loop {
            let sh = &mut self.shards[s];
            if sh.exec_q.is_empty() || sh.workers.idle() == 0 {
                break;
            }
            let task = sh.exec_q.pop_front().expect("checked");
            self.start_task(s, t, task, self.local_slot[task as usize]);
        }
        while let Some(rt) = self.shards[s].sys.peek_ready() {
            let task = rt.task.raw();
            let ti = task as usize;
            let sh = &mut self.shards[s];
            if self.placement[ti] as usize != s {
                // A remote fragment: consume it and wake the placement
                // shard over the interconnect.
                let rt = sh.sys.pop_ready().expect("peeked");
                sh.slot_at.insert(task, rt.slot);
                let p = self.placement[ti] as usize;
                self.send_msg(t, Phase::Execute, s, p, ClusterMsg::Ready { task }, 1);
                continue;
            }
            // Popping the local fragment completes readiness when no
            // remote notice is outstanding: take it only when a worker can
            // start it (the single-Picos TS discipline — otherwise it
            // waits in the TS buffer). With notices outstanding, park it
            // so it cannot head-of-line-block tasks queued behind it.
            let completes = self.frag_ready[ti] + 1 == self.frag_total[ti];
            if completes && sh.workers.idle() == 0 {
                break;
            }
            let rt = sh.sys.pop_ready().expect("peeked");
            self.local_slot[ti] = rt.slot;
            self.local_popped[ti] = true;
            self.frag_ready[ti] += 1;
            if completes {
                self.start_task(s, t, task, rt.slot);
            }
        }
    }

    /// Runs the fault layer's own events at `t`: fail-stop worker faults
    /// (a killed in-flight task re-enters the execution queue for
    /// deterministic re-execution), then due retry deadlines.
    fn pump_faults(&mut self, t: u64) {
        let Some(f) = &mut self.faults else { return };
        while let Some(sh) = f.due_worker_fault(t) {
            let s = sh as usize;
            if let Some((task, slot)) = self.shards[s].workers.fail_one() {
                self.local_slot[task as usize] = slot;
                self.restarts.insert(task);
                self.shards[s].exec_q.push_back(task);
                f.note_recovery();
                if let Some(log) = &mut self.spans {
                    log.record(SpanKind::Fault, t, sh, task, 0);
                }
            }
        }
        for (from, to) in f.pump_retries(t, &mut self.links) {
            self.link_sent[to as usize] += 1;
            if let Some(log) = &mut self.spans {
                log.record(SpanKind::MsgRetry, t, from, u32::MAX, 0);
            }
        }
    }

    /// The Distributor at `t`: create every task the taskwait structure
    /// allows.
    fn distribute(&mut self, t: u64) {
        while self.ingest.feedable(self.next_feed, self.ingest.finished) {
            let i = self.next_feed as u32;
            let p = self.placement[self.next_feed] as usize;
            let local = self.local[self.next_feed].clone();
            self.shards[p].expected.push_back((i, Some(local)));
            for ri in 0..self.remote[self.next_feed].len() {
                let (r, deps) = self.remote[self.next_feed][ri].clone();
                self.shards[r as usize].expected.push_back((i, None));
                let words = deps.len() + 1;
                let msg = ClusterMsg::Register { task: i, deps };
                self.send_msg(t, Phase::Distribute, p, r as usize, msg, words);
            }
            self.next_feed += 1;
        }
    }

    /// Runs the session to quiescence and returns the schedule report plus
    /// each shard's hardware counters (index = shard id; aggregate with
    /// [`merged_stats`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Stalled`] if work remains that no event
    /// will release (an engine bug).
    pub fn into_report(self) -> Result<(ExecReport, Vec<Stats>), ClusterError> {
        self.into_report_full().map(|(r, s, _)| (r, s))
    }

    /// Like [`ClusterSession::into_report_full`], and also returns the
    /// final fault-protocol counters when an *active* [`FaultPlan`] is
    /// attached (`None` for fault-free sessions and zero-fault plans, whose
    /// runs are bit-identical to no plan at all) plus the run's lifecycle
    /// [`SpanLog`] when the session was opened with span tracing: driver
    /// events merged with every shard core's probe events, in recording
    /// order. The serial pump and the epoch loop record the same event
    /// *multiset* in different interleavings; [`SpanLog::canonical_sort`]
    /// makes the logs bit-equal whichever drive ran.
    ///
    /// # Errors
    ///
    /// See [`ClusterSession::into_report`].
    pub fn into_output(self) -> Result<ClusterOutput, ClusterError> {
        self.finish_parts()
    }

    /// Like [`ClusterSession::into_report`], and also returns the run's
    /// [`Timeline`] when the session was opened with a telemetry window:
    /// the cluster series (`workers.busy`, per-link `linkK.inflight` /
    /// `linkK.sent`) stitched with every shard core's probe series under
    /// the `sK.core.` scopes.
    ///
    /// # Errors
    ///
    /// See [`ClusterSession::into_report`].
    pub fn into_report_full(
        self,
    ) -> Result<(ExecReport, Vec<Stats>, Option<Timeline>), ClusterError> {
        self.finish_parts().map(|(r, s, tl, _, _)| (r, s, tl))
    }

    fn finish_parts(mut self) -> Result<ClusterOutput, ClusterError> {
        self.drain();
        let n = self.ingest.admitted;
        let clean = self.log.order.len() == n
            && self.links.iter().all(|l| l.in_flight() == 0)
            && self.shards.iter().all(|sh| {
                sh.sys.in_flight() == 0
                    && !sh.workers.busy()
                    && sh.exec_q.is_empty()
                    && sh.expected.is_empty()
            })
            && self.next_feed == n;
        if !clean {
            // A run that completed despite timed-out messages reports
            // success; only an *incomplete* run surfaces the fault error.
            if let Some(e) = self.faults.as_ref().and_then(|f| f.error().cloned()) {
                return Err(e);
            }
            return Err(ClusterError::Stalled {
                executed: self.log.order.len(),
                total: n,
                at: self.t,
            });
        }
        let stats = self.shards.iter().map(|sh| sh.sys.stats()).collect();
        let timeline = match self.sampler.take() {
            Some(sampler) => {
                let end = self.t;
                let cluster = sampler.finish(end, |out| self.probe_cluster(out));
                let shard_tls: Vec<Timeline> = self
                    .shards
                    .iter_mut()
                    .map(|sh| {
                        sh.sys
                            .take_timeline()
                            .expect("every shard sampler attached alongside the cluster sampler")
                    })
                    .collect();
                let mut parts: Vec<(String, &Timeline)> = vec![(String::new(), &cluster)];
                for (k, tl) in shard_tls.iter().enumerate() {
                    parts.push((format!("s{k}.core."), tl));
                }
                let borrowed: Vec<(&str, &Timeline)> =
                    parts.iter().map(|(p, t)| (p.as_str(), *t)).collect();
                Some(Timeline::stitch(&borrowed))
            }
            None => None,
        };
        let fault_counters = self.fault_counters();
        let mut spans = self.spans.take();
        if let Some(log) = spans.as_mut() {
            for shard in self.shards.iter_mut() {
                if let Some(core) = shard.sys.take_spans() {
                    log.extend_from(&core);
                }
            }
        }
        Ok((
            self.log.into_report("cluster", self.cfg.workers),
            stats,
            timeline,
            fault_counters,
            spans,
        ))
    }
}

impl EventLoopCore for ClusterSession {
    /// Runs the loop body of the batch driver at the current time: each
    /// phase over every shard, with the fault layer first and the
    /// Distributor between deliveries and ingress.
    fn pump(&mut self) {
        let k = self.cfg.shards;
        let t = self.t;
        for sh in self.shards.iter_mut() {
            sh.sys.advance_to(t);
            sh.touched = false;
        }
        self.pump_faults(t);
        for s in 0..k {
            self.complete(s, t);
        }
        for s in 0..k {
            self.receive(s, t);
        }
        self.distribute(t);
        for s in 0..k {
            self.ingress(s);
        }
        for sh in self.shards.iter_mut().filter(|sh| sh.touched) {
            sh.sys.advance_to(t);
        }
        for s in 0..k {
            self.execute(s, t);
        }
    }

    fn next_time(&self) -> Option<u64> {
        min_next(
            self.shards
                .iter()
                .map(|sh| sh.sys.next_event_time())
                .chain(self.shards.iter().map(|sh| sh.workers.next_done()))
                .chain(self.links.iter().map(|l| l.next_delivery()))
                .chain(std::iter::once(
                    self.faults.as_ref().and_then(|f| f.next_time()),
                )),
        )
    }

    fn clock(&self) -> u64 {
        self.t
    }

    fn set_clock(&mut self, t: u64) {
        // Telemetry boundary crossing: cluster state is constant between
        // pumps, so sampling before the clock moves observes the state
        // each crossed boundary lived under.
        if self.sampler.as_ref().is_some_and(|s| s.due(t)) {
            let mut sampler = self.sampler.take().expect("checked above");
            sampler.advance(t, |out| self.probe_cluster(out));
            self.sampler = Some(sampler);
        }
        self.t = t;
    }

    fn on_clock_jump(&mut self) {
        for sh in self.shards.iter_mut() {
            sh.sys.advance_to(self.t);
        }
    }

    /// Whether the next submission cannot be ingested right now.
    fn ingest_blocked(&self) -> bool {
        self.ingest.saturated()
            || (self.next_feed < self.ingest.admitted
                && !self.ingest.feedable(self.next_feed, self.ingest.finished))
    }

    fn settled(&mut self) -> &mut bool {
        &mut self.settled
    }
}

impl SessionCore for ClusterSession {
    fn submit(&mut self, task: &TaskDescriptor) -> Admission {
        if self.ingest.saturated() {
            return Admission::Backpressured;
        }
        let id = self.ingest.admit() as usize;
        self.settled = false;
        self.log.admit(task.duration);
        self.plan_task(id, task);
        if let Some(log) = &mut self.spans {
            log.record(
                SpanKind::Submitted,
                self.t,
                self.placement[id],
                id as u32,
                0,
            );
        }
        self.frag_total.push(1 + self.remote[id].len() as u8);
        self.frag_ready.push(0);
        self.local_popped.push(false);
        self.local_slot.push(SlotRef::new(0, 0));
        self.durs.push(task.duration);
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
        for v in [&mut self.frag_ready, &mut self.frag_total] {
            v.reserve(additional);
        }
        self.placement.reserve(additional);
        self.local.reserve(additional);
        self.remote.reserve(additional);
        self.local_popped.reserve(additional);
        self.local_slot.reserve(additional);
        self.durs.reserve(additional);
    }
}

/// Runs a trace through the cluster; returns the schedule with engine
/// label `"cluster"`. Opens a [`ClusterSession`], feeds the whole trace
/// and finishes it.
///
/// # Errors
///
/// [`ClusterError::Config`] on an invalid configuration,
/// [`ClusterError::Stalled`] if the run cannot complete (an engine bug).
pub fn run_cluster(trace: &Trace, cfg: &ClusterConfig) -> Result<ExecReport, ClusterError> {
    run_cluster_with_stats(trace, cfg).map(|(r, _)| r)
}

/// Aggregates per-shard hardware counters into cluster totals under the
/// explicit [`Stats::merge`] rules: monotone totals (busy cycles, stalls,
/// processed dependences) sum across shards; `peak_*` high-water marks
/// take the maximum — shards peak at different times, so summing their
/// peaks would fabricate an occupancy no memory ever held. (Within one
/// shard, [`PicosSystem::stats`] still sums its own per-TRS/per-DCT peaks:
/// those describe disjoint memories of one accelerator, the
/// [`Stats::merge_sum`] convention.) A one-shard cluster's merged stats
/// equal the single system's stats bit-for-bit.
pub fn merged_stats(per_shard: &[Stats]) -> Stats {
    let mut total = Stats::default();
    for s in per_shard {
        total.merge(s);
    }
    total
}

/// Like [`run_cluster`], but also returns each shard's hardware counters
/// (index = shard id; aggregate with [`merged_stats`]).
///
/// # Errors
///
/// See [`run_cluster`].
pub fn run_cluster_with_stats(
    trace: &Trace,
    cfg: &ClusterConfig,
) -> Result<(ExecReport, Vec<Stats>), ClusterError> {
    let mut s = ClusterSession::new(cfg.clone(), SessionConfig::batch())?;
    feed_trace(&mut s, trace).expect("unbounded window cannot stall");
    s.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_runtime::session::feed_range;
    use picos_trace::gen;
    use picos_trace::TaskGraph;

    fn run(trace: &Trace, shards: usize, workers: usize) -> ExecReport {
        let r = run_cluster(trace, &ClusterConfig::balanced(shards, workers))
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        r.validate(trace)
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        r
    }

    #[test]
    fn all_shard_counts_complete_and_validate() {
        let tr = gen::cholesky(gen::CholeskyConfig::paper(128));
        for shards in [1usize, 2, 3, 4, 8] {
            let r = run(&tr, shards, 16);
            assert_eq!(r.order.len(), tr.len());
        }
    }

    #[test]
    fn all_policies_are_legal() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        for policy in ShardPolicy::ALL {
            let cfg = ClusterConfig {
                policy,
                ..ClusterConfig::balanced(4, 12)
            };
            let r = run_cluster(&tr, &cfg).unwrap_or_else(|e| panic!("{policy}: {e}"));
            r.validate(&tr).unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn random_traces_are_legal_on_every_policy() {
        for seed in 0..6u64 {
            let tr = gen::random_trace(gen::RandomConfig::default(), seed);
            let g = TaskGraph::build(&tr);
            for policy in ShardPolicy::ALL {
                for shards in [2usize, 4] {
                    let cfg = ClusterConfig {
                        policy,
                        ..ClusterConfig::balanced(shards, 8)
                    };
                    let r = run_cluster(&tr, &cfg)
                        .unwrap_or_else(|e| panic!("seed {seed} {policy} {shards}: {e}"));
                    assert!(
                        g.is_topological(&r.order),
                        "seed {seed} {policy} {shards}: order illegal"
                    );
                    r.validate(&tr)
                        .unwrap_or_else(|e| panic!("seed {seed} {policy} {shards}: {e}"));
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let tr = gen::stream(gen::StreamConfig::heavy(600));
        let cfg = ClusterConfig::balanced(4, 16);
        let a = run_cluster_with_stats(&tr, &cfg).unwrap();
        let b = run_cluster_with_stats(&tr, &cfg).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn taskwait_barriers_respected() {
        let mut tr = Trace::new("barriered");
        let kc = picos_trace::KernelClass::GENERIC;
        for i in 0..20u64 {
            tr.push(kc, [Dependence::inout(0x1000 + i * 0x40)], 50);
        }
        tr.push_taskwait();
        for i in 0..20u64 {
            tr.push(kc, [Dependence::inout(0x9000 + i * 0x40)], 50);
        }
        for shards in [1usize, 3] {
            let r = run(&tr, shards, 6);
            r.validate(&tr).unwrap();
        }
    }

    #[test]
    fn invalid_configs_error_not_panic() {
        let tr = gen::synthetic(gen::Case::Case1);
        let e = run_cluster(&tr, &ClusterConfig::balanced(0, 4));
        assert!(matches!(e, Err(ClusterError::Config(_))));
        let e = run_cluster(&tr, &ClusterConfig::balanced(4, 2));
        assert!(matches!(e, Err(ClusterError::Config(_))));
        assert!(e.unwrap_err().to_string().contains("workers"));
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let tr = Trace::new("empty");
        let (r, stats) = run_cluster_with_stats(&tr, &ClusterConfig::balanced(2, 4)).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(merged_stats(&stats).tasks_completed, 0);
    }

    #[test]
    fn per_shard_stats_cover_all_tasks() {
        let tr = gen::stream(gen::StreamConfig::heavy(500));
        let (_, stats) = run_cluster_with_stats(&tr, &ClusterConfig::balanced(4, 16)).unwrap();
        assert_eq!(stats.len(), 4);
        let total = merged_stats(&stats);
        // Every task submits a local fragment; remote fragments add more.
        assert!(total.tasks_submitted >= tr.len() as u64);
        assert_eq!(total.tasks_submitted, total.tasks_completed);
        // Sharding must actually spread dependence processing.
        let active = stats.iter().filter(|s| s.deps_processed > 0).count();
        assert!(active >= 2, "only {active} shards processed dependences");
    }

    #[test]
    fn lifo_policy_is_legal_on_clusters() {
        let tr = gen::lu(gen::LuConfig::paper(64));
        let mut cfg = ClusterConfig::balanced(3, 9);
        cfg.picos = cfg.picos.with_ts_policy(picos_core::TsPolicy::Lifo);
        let r = run_cluster(&tr, &cfg).unwrap();
        r.validate(&tr).unwrap();
    }

    #[test]
    fn session_matches_batch_run() {
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let cfg = ClusterConfig::balanced(3, 12);
        let batch = run_cluster_with_stats(&tr, &cfg).unwrap();
        let mut s = ClusterSession::new(cfg, SessionConfig::batch()).unwrap();
        feed_trace(&mut s, &tr).unwrap();
        let streamed = s.into_report().unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn session_emits_shard_messages() {
        let tr = gen::stream(gen::StreamConfig::heavy(200));
        let mut s = ClusterSession::new(
            ClusterConfig::balanced(4, 8),
            SessionConfig::batch().with_spans(),
        )
        .unwrap();
        feed_trace(&mut s, &tr).unwrap();
        let mut events = Vec::new();
        // Events materialize as the session runs: drain both before and
        // after running it to quiescence.
        s.drain_events(&mut events);
        s.advance_to(u64::MAX / 2);
        s.drain_events(&mut events);
        let (r, _) = s.into_report().unwrap();
        let n = tr.len();
        assert_eq!(r.order.len(), n);
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        assert!(
            count(SpanKind::MsgSend) > 0,
            "a 4-shard run must cross the interconnect"
        );
        assert_eq!(
            count(SpanKind::Started),
            n,
            "every task start must be reported"
        );
    }

    /// Finishes `s` through the serial pump: the pump runs to quiescence
    /// first, so the epoch loop finds nothing left to drain.
    fn finish_serial(mut s: ClusterSession) -> ClusterOutput {
        s.drive_finish();
        s.into_output().unwrap()
    }

    fn fed(cfg: ClusterConfig, session: SessionConfig, tr: &Trace) -> ClusterSession {
        let mut s = ClusterSession::new(cfg, session).unwrap();
        feed_trace(&mut s, tr).unwrap();
        s
    }

    #[test]
    fn epoch_drain_is_bit_identical_to_the_serial_pump() {
        let tr = gen::stream(gen::StreamConfig::heavy(600));
        for shards in [2usize, 3, 4] {
            let cfg = ClusterConfig::balanced(shards, 16);
            let serial = finish_serial(fed(cfg.clone(), SessionConfig::batch(), &tr));
            let epoch = fed(cfg, SessionConfig::batch(), &tr).into_output().unwrap();
            assert_eq!(serial, epoch, "{shards} shards");
        }
    }

    #[test]
    fn epoch_drain_records_the_serial_event_multiset() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let cfg = ClusterConfig::balanced(4, 12);
        let spans = SessionConfig::batch().with_spans();
        let serial = finish_serial(fed(cfg.clone(), spans, &tr));
        let epoch = fed(cfg, spans, &tr).into_output().unwrap();
        assert_eq!(serial.0, epoch.0);
        let (mut a, mut b) = (serial.4.unwrap(), epoch.4.unwrap());
        assert!(!a.is_empty());
        // The epoch loop records shard after shard, so a different raw
        // order proves it really drained the run.
        assert_ne!(a, b, "the plain finish must drain through the epoch loop");
        a.canonical_sort();
        b.canonical_sort();
        assert_eq!(a, b, "the epoch loop must record the serial event multiset");
    }

    #[test]
    fn epoch_drain_respects_taskwait_gates() {
        // Gated creation keeps the Distributor live mid-run, so the drain
        // must pump serially until each gate clears.
        let mut tr = Trace::new("barriered");
        let kc = picos_trace::KernelClass::GENERIC;
        for i in 0..40u64 {
            tr.push(kc, [Dependence::inout(0x1000 + (i % 11) * 0x40)], 60);
        }
        tr.push_taskwait();
        for i in 0..40u64 {
            tr.push(kc, [Dependence::inout(0x9000 + (i % 7) * 0x40)], 45);
        }
        let cfg = ClusterConfig::balanced(4, 8);
        let serial = finish_serial(fed(cfg.clone(), SessionConfig::batch(), &tr));
        let epoch = fed(cfg, SessionConfig::batch(), &tr).into_output().unwrap();
        assert_eq!(serial, epoch);
    }

    #[test]
    fn zero_cost_cascades_replay_in_serial_round_order() {
        // With no dispatch cost a zero-duration task starts and finishes
        // at the same cycle, so a shard pumps several rounds at one time
        // and sends `Finish` notices in a later round than other shards'
        // `Ready` notices to the same link: the replay must order by
        // round before phase.
        let mut tr = Trace::new("cascades");
        let kc = picos_trace::KernelClass::GENERIC;
        for i in 0..400u64 {
            let deps = [
                Dependence::inout(0x1000 + (i % 13) * 0x40),
                Dependence::input(0x8000 + (i % 7) * 0x40),
            ];
            tr.push(kc, deps, if i % 3 == 0 { 40 } else { 0 });
        }
        let cfg = ClusterConfig {
            dispatch: 0,
            ..ClusterConfig::balanced(4, 8)
        };
        let serial = finish_serial(fed(cfg.clone(), SessionConfig::batch(), &tr));
        let epoch = fed(cfg, SessionConfig::batch(), &tr).into_output().unwrap();
        serial.0.validate(&tr).unwrap();
        assert_eq!(serial, epoch);
    }

    #[test]
    fn windowed_session_drains_like_the_serial_pump() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let drive = || {
            let cfg = ClusterConfig::balanced(2, 8);
            let mut s = ClusterSession::new(cfg, SessionConfig::windowed(16)).unwrap();
            for task in tr.iter() {
                loop {
                    match s.submit(task) {
                        Admission::Accepted => break,
                        Admission::Backpressured => assert!(s.step(), "blocked session drains"),
                    }
                }
            }
            s
        };
        assert_eq!(finish_serial(drive()), drive().into_output().unwrap());
    }

    #[test]
    fn timed_epoch_drains_match_the_serial_pump_bit_for_bit() {
        // Every window boundary lands on an epoch-planning point, where the
        // replayed state equals the serial pump's — the stitched timeline
        // must be bit-identical for any window size (windows both smaller
        // and larger than the interconnect lookahead).
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        for window in [8u64, 64, 512] {
            let cfg = ClusterConfig::balanced(4, 8);
            let timed = SessionConfig::timed(window);
            let serial = finish_serial(fed(cfg.clone(), timed, &tr));
            let epoch = fed(cfg, timed, &tr).into_output().unwrap();
            assert!(serial.2.is_some(), "window {window}: timed");
            assert_eq!(serial, epoch, "window {window}");
        }
    }

    #[test]
    fn windowed_session_backpressures_and_completes() {
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let mut s = ClusterSession::new(ClusterConfig::balanced(2, 8), SessionConfig::windowed(16))
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
            assert!(s.in_flight() <= 16);
        }
        assert!(retries > 0, "a 16-task window must backpressure");
        let (r, stats) = s.into_report().unwrap();
        r.validate(&tr).unwrap();
        assert_eq!(r.order.len(), tr.len(), "no task may be dropped");
        let total = merged_stats(&stats);
        // Per-shard counters count fragments, so they can exceed the task
        // count but must balance.
        assert_eq!(total.tasks_submitted, total.tasks_completed);
    }

    #[test]
    fn snapshot_restore_equals_continuous() {
        let tr = gen::sparselu(gen::SparseLuConfig::paper(128));
        let cfg = ClusterConfig::balanced(3, 9);
        let scfg = SessionConfig::windowed(16).with_timeline(64).with_spans();
        for pause in [0, 9, tr.len() / 2] {
            let mut cont = ClusterSession::new(cfg.clone(), scfg).unwrap();
            let mut live = ClusterSession::new(cfg.clone(), scfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();

            // Snapshot through the JSON text codec, restore into a fresh
            // identically-configured session.
            let text = picos_trace::snap::value_to_json(&live.save_state());
            let snap = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = ClusterSession::new(cfg.clone(), scfg).unwrap();
            restored.load_state(&snap).unwrap();

            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let a = cont.into_output().unwrap();
            let b = restored.into_output().unwrap();
            assert_eq!(a, b, "pause {pause}");
        }
    }

    #[test]
    fn snapshot_restore_equals_continuous_under_faults() {
        // The fault layer's whole runtime state — RNG cursor, pending
        // retries, dedup table, pause deferrals, worker-fault cursor,
        // counters — must survive the roundtrip: any drift would change
        // every later fault draw.
        let tr = gen::stream(gen::StreamConfig::heavy(300));
        let plan = FaultPlan::new(11)
            .with_drop_rate(0.05)
            .with_dup_rate(0.05)
            .with_jitter(0.2, 8)
            .with_pause(1, 400, 900)
            .with_worker_fault(0, 700);
        let mut cfg = ClusterConfig::balanced(3, 9);
        cfg.faults = Some(plan);
        let scfg = SessionConfig::windowed(16).with_timeline(64);
        for pause in [0, tr.len() / 3, tr.len() - 1] {
            let mut cont = ClusterSession::new(cfg.clone(), scfg).unwrap();
            let mut live = ClusterSession::new(cfg.clone(), scfg).unwrap();
            feed_range(&mut cont, &tr, 0..pause).unwrap();
            feed_range(&mut live, &tr, 0..pause).unwrap();

            let text = picos_trace::snap::value_to_json(&live.save_state());
            let snap = picos_trace::snap::value_from_json(&text).unwrap();
            let mut restored = ClusterSession::new(cfg.clone(), scfg).unwrap();
            restored.load_state(&snap).unwrap();

            feed_range(&mut cont, &tr, pause..tr.len()).unwrap();
            feed_range(&mut restored, &tr, pause..tr.len()).unwrap();
            let a = cont.into_output().unwrap();
            let b = restored.into_output().unwrap();
            assert_eq!(a, b, "pause {pause}");
            let c = a.3.expect("active plan");
            assert!(
                c.drops + c.retries + c.redeliveries + c.recoveries > 0,
                "the plan must actually inject faults for this to test anything"
            );
        }
    }

    #[test]
    fn cut_and_fork_drain_by_epoch_like_the_serial_pump() {
        // A snapshot cut after `drive_to`, restored into a fresh session,
        // and a `Clone` fork, each finished by the epoch loop, equal the
        // original finished by the serial pump.
        let tr = gen::stream(gen::StreamConfig::heavy(400));
        let cut = tr.len() / 2;
        let cfg = ClusterConfig::balanced(4, 12);
        let scfg = SessionConfig::windowed(32);
        let mut live = ClusterSession::new(cfg.clone(), scfg).unwrap();
        feed_range(&mut live, &tr, 0..cut).unwrap();
        live.advance_to(live.now() + 1_000);
        let mut restored = ClusterSession::new(cfg, scfg).unwrap();
        restored.load_state(&live.save_state()).unwrap();
        let fork = live.clone();

        let rest = |mut s: ClusterSession| {
            feed_range(&mut s, &tr, cut..tr.len()).unwrap();
            s
        };
        let serial = finish_serial(rest(live));
        assert_eq!(rest(restored).into_output().unwrap(), serial, "restored");
        assert_eq!(rest(fork).into_output().unwrap(), serial, "fork");
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let tr = gen::stream(gen::StreamConfig::heavy(250));
        let cfg = ClusterConfig::balanced(3, 9);
        let mut orig = ClusterSession::new(cfg, SessionConfig::batch()).unwrap();
        feed_range(&mut orig, &tr, 0..100).unwrap();
        let baseline = orig.save_state();

        let mut fork = orig.clone();
        feed_range(&mut fork, &tr, 100..tr.len()).unwrap();
        let forked = fork.into_report().unwrap();

        // Driving the fork to completion left the original untouched.
        assert_eq!(
            picos_trace::snap::value_to_json(&orig.save_state()),
            picos_trace::snap::value_to_json(&baseline)
        );
        feed_range(&mut orig, &tr, 100..tr.len()).unwrap();
        assert_eq!(orig.into_report().unwrap(), forked);
    }

    #[test]
    fn snapshot_rejects_config_mismatch() {
        let tr = gen::stream(gen::StreamConfig::heavy(60));
        let mut live =
            ClusterSession::new(ClusterConfig::balanced(3, 9), SessionConfig::batch()).unwrap();
        feed_range(&mut live, &tr, 0..tr.len()).unwrap();
        let snap = live.save_state();

        // Different shard count: fingerprint mismatch.
        let mut other =
            ClusterSession::new(ClusterConfig::balanced(2, 8), SessionConfig::batch()).unwrap();
        let err = other.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("cluster config"), "got: {err}");

        // Same cluster, different observation setup.
        let mut timed =
            ClusterSession::new(ClusterConfig::balanced(3, 9), SessionConfig::timed(64)).unwrap();
        let err = timed.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("sampler"), "got: {err}");

        // Same cluster, different fault plan.
        let mut faulted_cfg = ClusterConfig::balanced(3, 9);
        faulted_cfg.faults = Some(FaultPlan::new(7).with_drop_rate(0.1));
        let mut faulted = ClusterSession::new(faulted_cfg, SessionConfig::batch()).unwrap();
        let err = faulted.load_state(&snap).unwrap_err().to_string();
        assert!(err.contains("cluster config"), "got: {err}");
    }
}
