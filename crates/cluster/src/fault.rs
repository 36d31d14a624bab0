//! Deterministic fault injection for the cluster interconnect and shards.
//!
//! A [`FaultPlan`] is a *seeded schedule* of typed faults: per-link message
//! drops, duplications and extra-delay jitter (drawn from a [`SplitMix64`]
//! stream, so the same seed always faults the same messages), shard
//! pause/straggler windows, and fail-stop worker faults with deterministic
//! task re-execution. Attaching a plan also arms an ack/timeout/retry
//! protocol on every interconnect message: the sender keeps each message
//! pending until the receiver's (instantaneous) acknowledgement, retries
//! with bounded exponential backoff when a cycle-based timeout fires, and
//! surfaces [`ClusterError::LinkTimeout`] instead of hanging once the
//! retry budget is exhausted.
//!
//! # Zero-fault bit-identity
//!
//! A plan with all rates at zero and no pause/worker faults is
//! **bit-identical** to a run without any plan (pinned by
//! `tests/fault_conformance.rs`):
//!
//! * no RNG draw ever happens at zero rates, so no state diverges;
//! * [`Link::send_words_delayed`] with zero extra delay is exactly
//!   `send_words`, so link timing is unchanged;
//! * the sender-side tracking tables are engaged only when a plan can
//!   actually lose, duplicate or defer a message (nonzero drop/dup rate,
//!   or pause windows). Otherwise every copy provably arrives and its
//!   instantaneous ack would clear the deadline in the delivering pump,
//!   so the untracked send is observationally identical — and the
//!   zero-fault hot path costs only a branch per message (the
//!   `cluster_fault0` bench guard pins this within 3% of the plain
//!   engine). When tracking *is* engaged, a pending message's retry
//!   deadline is strictly later than its own delivery time, so deadlines
//!   never determine the event clock before their message could have
//!   arrived.
//!
//! # Retry state machine
//!
//! ```text
//!   send ──> PENDING(attempt 0, deadline = arrival + timeout)
//!              │ delivered & acked            │ deadline fires
//!              ▼                              ▼
//!            DONE                 attempt += 1; attempt > max_retries?
//!                                   │ no: resend (timeout << attempt)
//!                                   │ yes: ClusterError::LinkTimeout
//! ```
//!
//! Dropped messages still occupy their link slot (the flits burn wire time
//! before the loss is "noticed") and are discarded at delivery. Duplicates
//! share the original's packet id; the receiver deduplicates by id, so a
//! redelivered message — duplicate or retry of one whose ack was lost — is
//! counted ([`FaultCounters::redeliveries`]) and dropped.

use crate::config::{ClusterConfig, ClusterError};
use picos_hil::Link;
use picos_trace::rng::SplitMix64;
use picos_trace::snap::{guard, Dec, Enc, Snap, SnapError};
use picos_trace::{snap_record, Value};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A shard ingress pause window: deliveries into `shard` arriving at
/// `at <= t < until` are deferred to `until` (a straggler shard whose
/// inbound processing stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPause {
    /// The paused shard.
    pub shard: u16,
    /// First stalled cycle.
    pub at: u64,
    /// First cycle past the stall; deferred deliveries process here.
    pub until: u64,
}

/// A fail-stop worker fault: at cycle `at`, one of `shard`'s workers dies
/// permanently. If it was executing a task, the task is deterministically
/// re-executed from the shard's ready queue (the earliest-completing task
/// is the victim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// The shard losing a worker.
    pub shard: u16,
    /// The cycle the worker dies.
    pub at: u64,
}

/// End-of-run fault/recovery counters, surfaced as `faults.*` metrics and
/// telemetry series when the plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages lost in flight (discarded at delivery).
    pub drops: u64,
    /// Timeout-triggered resends.
    pub retries: u64,
    /// Deliveries of an already-delivered packet id (duplicates, or
    /// retries of a message whose acknowledgement was lost), discarded by
    /// receiver-side dedup.
    pub redeliveries: u64,
    /// Tasks re-executed after a fail-stop worker fault killed their
    /// first execution.
    pub recoveries: u64,
}

snap_record!(FaultCounters {
    drops,
    retries,
    redeliveries,
    recoveries
});

/// A deterministic, seeded fault schedule for one cluster run.
///
/// Link faults (drop/duplication/jitter) are drawn per message from a
/// [`SplitMix64`] stream seeded by [`FaultPlan::seed`]; pause and worker
/// faults are explicit typed entries. The default plan ([`FaultPlan::new`])
/// injects nothing — attaching it only arms the ack/retry protocol, which
/// is bit-identical to the fault-free engine (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-message fault draws.
    pub seed: u64,
    /// Probability that a message (or its acknowledgement) is lost.
    pub drop_rate: f64,
    /// Probability that a message is sent twice (same packet id; the
    /// receiver deduplicates).
    pub dup_rate: f64,
    /// Probability that a delivery ages extra cycles beyond the link
    /// latency.
    pub jitter_rate: f64,
    /// Upper bound (inclusive) of the extra jitter delay in cycles.
    pub max_jitter: u64,
    /// Base retry timeout in cycles, measured from the expected arrival;
    /// attempt `n` waits `link_timeout << min(n, 6)`.
    pub link_timeout: u64,
    /// Resends after the original before the sender gives up with
    /// [`ClusterError::LinkTimeout`].
    pub max_retries: u32,
    /// Shard ingress pause windows (must not overlap per shard).
    pub pauses: Vec<ShardPause>,
    /// Fail-stop worker faults (strictly fewer per shard than the shard's
    /// workers, so every shard keeps at least one).
    pub worker_faults: Vec<WorkerFault>,
}

impl FaultPlan {
    /// A plan injecting no faults: all rates zero, no pause or worker
    /// faults, default timeout/retry budget.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            jitter_rate: 0.0,
            max_jitter: 16,
            link_timeout: 256,
            max_retries: 8,
            pauses: Vec::new(),
            worker_faults: Vec::new(),
        }
    }

    /// Sets the message/ack loss probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the message duplication probability.
    pub fn with_dup_rate(mut self, rate: f64) -> Self {
        self.dup_rate = rate;
        self
    }

    /// Sets the delivery-jitter probability and maximum extra delay.
    pub fn with_jitter(mut self, rate: f64, max_jitter: u64) -> Self {
        self.jitter_rate = rate;
        self.max_jitter = max_jitter;
        self
    }

    /// Sets the base retry timeout in cycles.
    pub fn with_link_timeout(mut self, cycles: u64) -> Self {
        self.link_timeout = cycles;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Adds a shard ingress pause window.
    pub fn with_pause(mut self, shard: u16, at: u64, until: u64) -> Self {
        self.pauses.push(ShardPause { shard, at, until });
        self
    }

    /// Adds a fail-stop worker fault.
    pub fn with_worker_fault(mut self, shard: u16, at: u64) -> Self {
        self.worker_faults.push(WorkerFault { shard, at });
        self
    }

    /// Whether the plan can inject anything at all. An inactive plan still
    /// arms the ack/retry protocol but never perturbs the run, and the
    /// engine keeps its telemetry/metrics identical to a plan-free run.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.jitter_rate > 0.0
            || !self.pauses.is_empty()
            || !self.worker_faults.is_empty()
    }

    /// Retry timeout after `attempts` resends: bounded exponential
    /// backoff.
    pub(crate) fn timeout_after(&self, attempts: u32) -> u64 {
        self.link_timeout.saturating_mul(1u64 << attempts.min(6))
    }

    /// Validates the plan against a cluster configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint: rates
    /// must be probabilities, the timeout/retry budget positive, jitter
    /// bounded, pause windows well-formed and non-overlapping per shard,
    /// and worker faults must leave every shard at least one worker.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("jitter_rate", self.jitter_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault {name} {rate} is not a probability"));
            }
        }
        if self.link_timeout == 0 {
            return Err("fault link_timeout must be at least one cycle".into());
        }
        if self.max_retries == 0 {
            return Err("fault max_retries must be at least one".into());
        }
        if self.jitter_rate > 0.0 && self.max_jitter == 0 {
            return Err("fault max_jitter must be nonzero when jitter_rate is".into());
        }
        let mut windows: Vec<&ShardPause> = self.pauses.iter().collect();
        windows.sort_by_key(|p| (p.shard, p.at));
        for w in &windows {
            if w.shard as usize >= cfg.shards {
                return Err(format!("pause names shard {} of {}", w.shard, cfg.shards));
            }
            if w.at >= w.until {
                return Err(format!("pause window [{}, {}) is empty", w.at, w.until));
            }
        }
        for pair in windows.windows(2) {
            if pair[0].shard == pair[1].shard && pair[1].at < pair[0].until {
                return Err(format!(
                    "overlapping pause windows on shard {}",
                    pair[0].shard
                ));
            }
        }
        let mut per_shard = vec![0usize; cfg.shards];
        for f in &self.worker_faults {
            if f.shard as usize >= cfg.shards {
                return Err(format!(
                    "worker fault names shard {} of {}",
                    f.shard, cfg.shards
                ));
            }
            per_shard[f.shard as usize] += 1;
        }
        for (s, &n) in per_shard.iter().enumerate() {
            if n >= cfg.shard_workers(s) && n > 0 {
                return Err(format!(
                    "{} worker faults on shard {s} would leave it below one \
                     of its {} workers",
                    n,
                    cfg.shard_workers(s)
                ));
            }
        }
        Ok(())
    }
}

/// The interconnect envelope under a fault layer: a packet id for
/// ack/dedup matching and the send-time drop fate. Id `0` is the *plain*
/// path — the packet of a session without a fault plan — which skips every
/// fault check.
#[derive(Debug, Clone)]
pub(crate) struct Packet<P> {
    pub(crate) id: u32,
    pub(crate) drop: bool,
    pub(crate) msg: P,
}

snap_record!(Packet<P> { id, drop, msg });

impl<P> Packet<P> {
    /// Wraps a message for a fault-free session: no tracking, no fate.
    pub(crate) fn plain(msg: P) -> Self {
        Packet {
            id: 0,
            drop: false,
            msg,
        }
    }
}

/// A sent message awaiting acknowledgement.
#[derive(Debug, Clone)]
struct Pending<P> {
    from: u16,
    to: u16,
    words: u32,
    attempts: u32,
    deadline: u64,
    msg: P,
}

snap_record!(Pending<P> {
    from,
    to,
    words,
    attempts,
    deadline,
    msg
});

/// The runtime state of an attached [`FaultPlan`]: the RNG stream, the
/// sender-side pending/retry tables, receiver-side dedup and pause
/// deferral queues, the worker-fault cursor, and the counters. Cloning is
/// a deep copy — the fork primitive of the snapshot subsystem.
#[derive(Debug, Clone)]
pub(crate) struct FaultState<P> {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Whether sends engage the ack/retry tracking tables. False when no
    /// fault can ever lose, duplicate or defer a message — then every
    /// copy arrives and immediately acks, so tracking would be a pure
    /// no-op and the send path stays as cheap as the plain engine's.
    track: bool,
    next_id: u32,
    pending: HashMap<u32, Pending<P>>,
    /// Retry deadlines ordered by `(deadline, id)`; acks remove their
    /// entry eagerly so `next_time` never sees a stale deadline.
    deadlines: BTreeSet<(u64, u32)>,
    delivered: HashSet<u32>,
    /// Per-shard pause windows `(at, until)`, sorted; non-overlapping by
    /// plan validation.
    pauses: Vec<Vec<(u64, u64)>>,
    /// Per-shard deferred deliveries `(release, packet)`; releases are
    /// non-decreasing because deferral time is and windows don't overlap.
    deferred: Vec<VecDeque<(u64, Packet<P>)>>,
    /// Worker faults sorted by `(at, shard)`, consumed through a cursor.
    worker_faults: Vec<WorkerFault>,
    wf_next: usize,
    counters: FaultCounters,
    error: Option<ClusterError>,
}

impl<P: Clone> FaultState<P> {
    pub(crate) fn new(plan: FaultPlan, shards: usize) -> Self {
        let mut pauses = vec![Vec::new(); shards];
        for p in &plan.pauses {
            pauses[p.shard as usize].push((p.at, p.until));
        }
        for w in pauses.iter_mut() {
            w.sort_unstable();
        }
        let mut worker_faults = plan.worker_faults.clone();
        worker_faults.sort_unstable_by_key(|f| (f.at, f.shard));
        FaultState {
            rng: SplitMix64::new(plan.seed),
            track: plan.drop_rate > 0.0 || plan.dup_rate > 0.0 || !plan.pauses.is_empty(),
            next_id: 0,
            pending: HashMap::new(),
            deadlines: BTreeSet::new(),
            delivered: HashSet::new(),
            pauses,
            deferred: vec![VecDeque::new(); shards],
            worker_faults,
            wf_next: 0,
            counters: FaultCounters::default(),
            error: None,
            plan,
        }
    }

    /// Whether the attached plan can inject anything (gates the `faults.*`
    /// telemetry so an inactive plan stays observationally identical to no
    /// plan).
    pub(crate) fn plan_active(&self) -> bool {
        self.plan.is_active()
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The first fault-layer error (retry exhaustion), if any. Only
    /// surfaced when the run fails to complete — a run that finishes
    /// despite a timed-out message reports success.
    pub(crate) fn error(&self) -> Option<&ClusterError> {
        self.error.as_ref()
    }

    /// Records a task re-execution after a fail-stop worker fault.
    pub(crate) fn note_recovery(&mut self) {
        self.counters.recoveries += 1;
    }

    /// Earliest fault-layer event: a retry deadline, a deferred delivery's
    /// release, or a scheduled worker fault.
    pub(crate) fn next_time(&self) -> Option<u64> {
        let mut next = self.deadlines.first().map(|&(d, _)| d);
        for q in &self.deferred {
            if let Some(&(release, _)) = q.front() {
                next = Some(next.map_or(release, |n| n.min(release)));
            }
        }
        if let Some(f) = self.worker_faults.get(self.wf_next) {
            next = Some(next.map_or(f.at, |n| n.min(f.at)));
        }
        next
    }

    /// Pops the next worker fault due at or before `t` (call in a loop).
    pub(crate) fn due_worker_fault(&mut self, t: u64) -> Option<u16> {
        let f = self.worker_faults.get(self.wf_next)?;
        if f.at > t {
            return None;
        }
        self.wf_next += 1;
        Some(f.shard)
    }

    /// Sends `msg` from shard `from` to shard `to` under the fault layer:
    /// assigns a packet id, draws the drop/jitter fate (only when the
    /// matching rate is nonzero — zero-rate plans never touch the RNG),
    /// possibly duplicates, and registers the retry deadline. Returns the
    /// assigned packet id (0 on the untracked path, like a plain send).
    pub(crate) fn send(
        &mut self,
        t: u64,
        from: u16,
        to: u16,
        msg: P,
        words: usize,
        links: &mut [Link<Packet<P>>],
    ) -> u32 {
        if !self.track {
            // No fault can lose, duplicate or defer this message, so its
            // ack would clear the retry deadline in the very pump that
            // delivers it — skip the tracking tables and send untracked
            // (id 0 = the plain path; jitter, when enabled, still draws
            // and applies).
            let extra = if self.plan.jitter_rate > 0.0 && self.rng.bool(self.plan.jitter_rate) {
                self.rng.range_u64(1, self.plan.max_jitter.max(1))
            } else {
                0
            };
            links[to as usize].send_words_delayed(t, Packet::plain(msg), words, extra);
            return 0;
        }
        self.next_id += 1;
        let id = self.next_id;
        let mut p = Pending {
            from,
            to,
            words: words as u32,
            attempts: 0,
            deadline: 0,
            msg,
        };
        p.deadline = self.transmit(t, id, &p, links);
        if self.plan.dup_rate > 0.0 && self.rng.bool(self.plan.dup_rate) {
            // The duplicate shares the id; whichever copy arrives second
            // is discarded by receiver dedup. Only the original's deadline
            // is tracked.
            let _ = self.transmit(t, id, &p, links);
        }
        self.deadlines.insert((p.deadline, id));
        self.pending.insert(id, p);
        id
    }

    /// One physical transmission of a pending message: draws this copy's
    /// fate and queues it on the destination link. Returns the retry
    /// deadline: expected arrival plus the backoff timeout for the current
    /// attempt — always strictly after the arrival, which is what keeps an
    /// inactive plan's deadlines invisible to the event clock.
    fn transmit(&mut self, t: u64, id: u32, p: &Pending<P>, links: &mut [Link<Packet<P>>]) -> u64 {
        let drop = self.plan.drop_rate > 0.0 && self.rng.bool(self.plan.drop_rate);
        let extra = if self.plan.jitter_rate > 0.0 && self.rng.bool(self.plan.jitter_rate) {
            self.rng.range_u64(1, self.plan.max_jitter.max(1))
        } else {
            0
        };
        let link = &mut links[p.to as usize];
        let pkt = Packet {
            id,
            drop,
            msg: p.msg.clone(),
        };
        let slot_end = link.send_words_delayed(t, pkt, p.words as usize, extra);
        slot_end + link.model().latency + extra + self.plan.timeout_after(p.attempts)
    }

    /// Fires every retry deadline due at `t`: resends with backoff, or
    /// records [`ClusterError::LinkTimeout`] once the budget is exhausted.
    /// Returns the `(from, to)` of each resend for event/traffic
    /// accounting.
    pub(crate) fn pump_retries(
        &mut self,
        t: u64,
        links: &mut [Link<Packet<P>>],
    ) -> Vec<(u16, u16)> {
        let mut sent = Vec::new();
        while let Some(&(deadline, id)) = self.deadlines.first() {
            if deadline > t {
                break;
            }
            self.deadlines.remove(&(deadline, id));
            let Some(p) = self.pending.get_mut(&id) else {
                continue;
            };
            p.attempts += 1;
            if p.attempts > self.plan.max_retries {
                let p = self.pending.remove(&id).expect("present above");
                if self.error.is_none() {
                    self.error = Some(ClusterError::LinkTimeout {
                        from: p.from,
                        to: p.to,
                        at: t,
                        attempts: p.attempts - 1,
                    });
                }
                continue;
            }
            self.counters.retries += 1;
            let snapshot = p.clone();
            let deadline = self.transmit(t, id, &snapshot, links);
            let p = self.pending.get_mut(&id).expect("present above");
            p.deadline = deadline;
            self.deadlines.insert((deadline, id));
            sent.push((snapshot.from, snapshot.to));
        }
        sent
    }

    /// Processes a packet delivered to `shard` at `t`. Returns the payload
    /// when it should be handled, or `None` when the fault layer consumed
    /// it: deferred by a pause window, lost to a drop fate, or discarded
    /// as a redelivery. Successful (and redelivered) packets acknowledge
    /// the sender instantaneously — unless the ack itself is lost, which
    /// leaves the sender retrying into receiver-side dedup.
    pub(crate) fn receive(&mut self, shard: usize, t: u64, pkt: Packet<P>) -> Option<P> {
        if let Some(release) = self.pause_release(shard, t) {
            self.deferred[shard].push_back((release, pkt));
            return None;
        }
        if pkt.drop {
            self.counters.drops += 1;
            return None;
        }
        if pkt.id != 0 {
            if !self.delivered.insert(pkt.id) {
                self.counters.redeliveries += 1;
                // Re-acknowledge: the duplicate usually exists because the
                // first ack was lost.
                self.maybe_ack(pkt.id);
                return None;
            }
            self.maybe_ack(pkt.id);
        }
        Some(pkt.msg)
    }

    /// Pops a deferred delivery whose pause window has expired.
    pub(crate) fn pop_deferred(&mut self, shard: usize, t: u64) -> Option<Packet<P>> {
        match self.deferred[shard].front() {
            Some(&(release, _)) if release <= t => {
                self.deferred[shard].pop_front().map(|(_, pkt)| pkt)
            }
            _ => None,
        }
    }

    /// The release time of the pause window containing `t` on `shard`,
    /// strictly greater than `t` by construction (`at <= t < until`).
    fn pause_release(&self, shard: usize, t: u64) -> Option<u64> {
        self.pauses[shard]
            .iter()
            .find(|&&(at, until)| at <= t && t < until)
            .map(|&(_, until)| until)
    }

    /// Clears the pending entry behind an acknowledged packet, unless the
    /// acknowledgement itself is lost (drawn at the message drop rate).
    fn maybe_ack(&mut self, id: u32) {
        if !self.pending.contains_key(&id) {
            return;
        }
        if self.plan.drop_rate > 0.0 && self.rng.bool(self.plan.drop_rate) {
            return;
        }
        let p = self.pending.remove(&id).expect("checked above");
        self.deadlines.remove(&(p.deadline, id));
    }
}

impl<P: Snap> FaultState<P> {
    /// Serializes the dynamic fault-layer state. Plan-derived fields
    /// (`track`, the pause windows, the worker-fault schedule) are rebuilt
    /// from the plan by [`FaultState::new`] and not recorded; the RNG
    /// resumes from its raw state, so fault draws continue exactly where
    /// they left off.
    pub(crate) fn save_state(&self) -> Value {
        let Self {
            plan: _,
            rng,
            track: _,
            next_id,
            pending,
            deadlines,
            delivered,
            pauses: _,
            deferred,
            worker_faults: _,
            wf_next,
            counters,
            error,
        } = self;
        let mut pending: Vec<(u32, &Pending<P>)> = pending.iter().map(|(&id, p)| (id, p)).collect();
        pending.sort_unstable_by_key(|&(id, _)| id);
        let mut delivered: Vec<u32> = delivered.iter().copied().collect();
        delivered.sort_unstable();
        let error = error.as_ref().map(|err| match *err {
            ClusterError::LinkTimeout {
                from,
                to,
                at,
                attempts,
            } => (from, to, at, attempts),
            _ => unreachable!("only LinkTimeout is ever recorded here"),
        });
        let mut e = Enc::new();
        e.put(&rng.state())
            .put(next_id)
            .pairs(pending)
            .seq(deadlines)
            .put(&delivered)
            .put(deferred)
            .put(wf_next)
            .put(counters)
            .put(&error);
        e.done()
    }

    /// Overwrites the dynamic state from [`FaultState::save_state`]
    /// output. The plan itself is guarded by the session's configuration
    /// fingerprint, not here.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record, a deferred-queue shape
    /// that does not match the plan's shard count or a worker-fault cursor
    /// past the schedule.
    pub(crate) fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "fault state")?;
        let shards = self.deferred.len();
        self.rng = SplitMix64::new(d.take()?);
        self.next_id = d.take()?;
        self.pending = d.take::<Vec<(u32, Pending<P>)>>()?.into_iter().collect();
        self.deadlines = d.take::<Vec<(u64, u32)>>()?.into_iter().collect();
        self.delivered = d.take::<Vec<u32>>()?.into_iter().collect();
        self.deferred = d.take()?;
        guard("fault deferred queues", self.deferred.len(), shards)?;
        self.wf_next = d.take()?;
        if self.wf_next > self.worker_faults.len() {
            return Err(SnapError::new(
                "fault state: worker-fault cursor out of range",
            ));
        }
        self.counters = d.take()?;
        self.error = d
            .take::<Option<(u16, u16, u64, u32)>>()?
            .map(|(from, to, at, attempts)| ClusterError::LinkTimeout {
                from,
                to,
                at,
                attempts,
            });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_hil::LinkModel;

    fn links(n: usize) -> Vec<Link<Packet<u32>>> {
        (0..n)
            .map(|_| {
                Link::new(LinkModel {
                    occupancy: 2,
                    latency: 5,
                    setup: 0,
                    width: 1,
                })
            })
            .collect()
    }

    fn drain_at<P: Clone>(links: &mut [Link<Packet<P>>], s: usize, t: u64) -> Vec<Packet<P>> {
        let mut out = Vec::new();
        while let Some(p) = links[s].pop_delivery_at(t) {
            out.push(p);
        }
        out
    }

    #[test]
    fn zero_rate_plan_draws_no_randomness_and_skips_tracking() {
        let mut f: FaultState<u32> = FaultState::new(FaultPlan::new(1), 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 7, 1, &mut ls);
        // Same timing as a plain send: slot [0,2), delivery at 7.
        assert_eq!(ls[1].next_delivery(), Some(7));
        // Nothing can fault this message, so it is untracked: no retry
        // deadline feeds the event clock.
        assert!(f.next_time().is_none());
        let pkt = ls[1].pop_delivery_at(7).expect("delivered");
        assert_eq!(pkt.id, 0, "untracked sends take the plain path");
        assert_eq!(f.receive(1, 7, pkt), Some(7));
        assert_eq!(f.counters(), FaultCounters::default());
        // The RNG was never advanced.
        assert_eq!(f.rng.clone().next_u64(), SplitMix64::new(1).next_u64());
    }

    #[test]
    fn lossy_plan_arms_the_retry_deadline() {
        // drop_rate > 0 engages tracking; with seed 1 the first draw keeps
        // the message, so it is delivered, acked and the deadline clears.
        let plan = FaultPlan::new(1).with_drop_rate(0.01);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 7, 1, &mut ls);
        assert_eq!(
            f.next_time(),
            Some(7 + 256),
            "the deadline sits strictly after the delivery"
        );
        let pkt = ls[1].pop_delivery_at(7).expect("delivered");
        assert!(pkt.id != 0, "tracked sends carry a packet id");
        assert_eq!(f.receive(1, 7, pkt), Some(7));
        assert!(f.next_time().is_none(), "ack clears the deadline eagerly");
    }

    #[test]
    fn dropped_message_retries_and_eventually_exhausts() {
        let plan = FaultPlan::new(3)
            .with_drop_rate(1.0)
            .with_link_timeout(10)
            .with_max_retries(2);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 9, 1, &mut ls);
        let mut retries = 0;
        let mut guard = 0;
        while f.error().is_none() {
            guard += 1;
            assert!(guard < 100, "retry protocol must terminate");
            let t = [ls[1].next_delivery(), f.next_time()]
                .into_iter()
                .flatten()
                .min()
                .expect("work pending");
            for pkt in drain_at(&mut ls, 1, t) {
                assert!(f.receive(1, t, pkt).is_none(), "all copies drop");
            }
            retries += f.pump_retries(t, &mut ls).len();
        }
        assert_eq!(retries, 2);
        assert_eq!(f.counters().drops, 3, "original + 2 retries all dropped");
        assert!(matches!(
            f.error(),
            Some(ClusterError::LinkTimeout {
                from: 0,
                to: 1,
                attempts: 2,
                ..
            })
        ));
        // After exhaustion the layer is quiescent.
        assert!(f.next_time().is_none());
    }

    #[test]
    fn duplicates_are_delivered_once() {
        let plan = FaultPlan::new(5).with_dup_rate(1.0);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 42, 1, &mut ls);
        assert_eq!(ls[1].in_flight(), 2, "duplicate occupies a second slot");
        let mut got = Vec::new();
        for t in [7u64, 9] {
            for pkt in drain_at(&mut ls, 1, t) {
                got.extend(f.receive(1, t, pkt));
            }
        }
        assert_eq!(got, vec![42], "dedup passes exactly one copy");
        assert_eq!(f.counters().redeliveries, 1);
        assert!(f.next_time().is_none(), "first copy acked the sender");
    }

    #[test]
    fn pause_defers_delivery_to_window_end() {
        let plan = FaultPlan::new(9).with_pause(1, 0, 50);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        let mut ls = links(2);
        f.send(0, 0, 1, 11, 1, &mut ls);
        let pkt = ls[1].pop_delivery_at(7).expect("delivered");
        assert_eq!(f.receive(1, 7, pkt), None, "paused shard defers");
        assert_eq!(f.next_time(), Some(50), "release feeds the event clock");
        assert!(f.pop_deferred(1, 49).is_none());
        let pkt = f.pop_deferred(1, 50).expect("released");
        assert_eq!(f.receive(1, 50, pkt), Some(11));
        assert_eq!(f.counters(), FaultCounters::default());
    }

    #[test]
    fn worker_faults_pop_in_time_order() {
        let plan = FaultPlan::new(0)
            .with_worker_fault(1, 30)
            .with_worker_fault(0, 10);
        let mut f: FaultState<u32> = FaultState::new(plan, 2);
        assert_eq!(f.next_time(), Some(10));
        assert_eq!(f.due_worker_fault(5), None);
        assert_eq!(f.due_worker_fault(10), Some(0));
        assert_eq!(f.due_worker_fault(10), None);
        assert_eq!(f.next_time(), Some(30));
        assert_eq!(f.due_worker_fault(100), Some(1));
        assert!(f.next_time().is_none());
    }

    #[test]
    fn plan_validation_rejects_bad_schedules() {
        let cfg = ClusterConfig::balanced(2, 4);
        assert!(FaultPlan::new(0).validate(&cfg).is_ok());
        assert!(FaultPlan::new(0)
            .with_drop_rate(1.5)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_link_timeout(0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_max_retries(0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_jitter(0.5, 0)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(2, 0, 10)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 10, 10)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 0, 10)
            .with_pause(0, 5, 15)
            .validate(&cfg)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_pause(0, 0, 10)
            .with_pause(0, 10, 15)
            .validate(&cfg)
            .is_ok());
        // 2 faults on a 2-worker shard would leave zero workers.
        let two = FaultPlan::new(0)
            .with_worker_fault(0, 1)
            .with_worker_fault(0, 2);
        assert!(two.validate(&cfg).is_err());
        assert!(FaultPlan::new(0)
            .with_worker_fault(0, 1)
            .validate(&cfg)
            .is_ok());
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let p = FaultPlan::new(0).with_link_timeout(8);
        assert_eq!(p.timeout_after(0), 8);
        assert_eq!(p.timeout_after(1), 16);
        assert_eq!(p.timeout_after(6), 8 << 6);
        assert_eq!(p.timeout_after(60), 8 << 6, "backoff saturates");
    }
}
