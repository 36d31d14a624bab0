//! Snapshot/restore for [`ClusterSession`]: the full dynamic cluster
//! state — every shard core, worker pool and interconnect port, the
//! ingress reorder stages, the Distributor's per-task plan, the fault
//! layer and the observation state — through the [`Snap`] codecs.
//!
//! The restore contract mirrors the other engines': build a session with
//! the *identical* configuration, then [`ClusterSession::load_state`]
//! overwrites its dynamic state. A configuration fingerprint (plus
//! attachment guards for the sampler, span log and fault plan) rejects
//! mismatched targets instead of silently diverging.

use super::{ClusterMsg, ClusterSession, Shard};
use crate::config::{ClusterConfig, ShardPolicy};
use picos_core::SlotRef;
use picos_hil::Link;
use picos_trace::snap::{guard, Dec, Enc, Snap, SnapError};
use picos_trace::{Dependence, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Stable wire code of a placement policy.
fn policy_code(p: ShardPolicy) -> u64 {
    match p {
        ShardPolicy::AddrHash => 0,
        ShardPolicy::RoundRobin => 1,
        ShardPolicy::LocalityAffine => 2,
    }
}

/// Mixes every behaviour-relevant cluster configuration field (including
/// the attached fault plan — its seed alone changes every fault draw)
/// into a fingerprint, so a snapshot only restores into a session built
/// from an equivalent config. Each shard core's own configuration is
/// guarded separately inside its [`picos_core::PicosSystem`] record.
fn cluster_fingerprint(cfg: &ClusterConfig) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    }
    let mut h = [
        cfg.shards as u64,
        policy_code(cfg.policy),
        cfg.workers as u64,
        cfg.link.occupancy,
        cfg.link.latency,
        cfg.link.setup,
        cfg.link.width as u64,
        cfg.dispatch,
    ]
    .into_iter()
    .fold(0xcbf2_9ce4_8422_2325, mix);
    if let Some(p) = &cfg.faults {
        h = [
            1,
            p.seed,
            p.drop_rate.to_bits(),
            p.dup_rate.to_bits(),
            p.jitter_rate.to_bits(),
            p.max_jitter,
            p.link_timeout,
            p.max_retries as u64,
            p.pauses.len() as u64,
            p.worker_faults.len() as u64,
        ]
        .into_iter()
        .fold(h, mix);
        for w in &p.pauses {
            h = mix(mix(mix(h, w.shard as u64), w.at), w.until);
        }
        for f in &p.worker_faults {
            h = mix(mix(h, f.shard as u64), f.at);
        }
    }
    h
}

/// An interconnect message: one variant code, then its fields.
impl Snap for ClusterMsg {
    fn put(&self, e: &mut Enc) {
        match self {
            ClusterMsg::Register { task, deps } => e.put(&0u8).put(task).put(deps),
            ClusterMsg::Ready { task } => e.put(&1u8).put(task),
            ClusterMsg::Finish { task } => e.put(&2u8).put(task),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.u64()? {
            0 => Ok(ClusterMsg::Register {
                task: d.take()?,
                deps: d.take()?,
            }),
            1 => Ok(ClusterMsg::Ready { task: d.take()? }),
            2 => Ok(ClusterMsg::Finish { task: d.take()? }),
            other => Err(SnapError::new(format!(
                "unknown cluster message code {other}"
            ))),
        }
    }
}

/// A map as its entries in ascending key order.
fn sorted<V: Clone>(m: &HashMap<u32, V>) -> Vec<(u32, V)> {
    let mut entries: Vec<(u32, V)> = m.iter().map(|(&k, v)| (k, v.clone())).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

impl ClusterSession {
    /// Serializes the full dynamic cluster state.
    /// [`ClusterSession::load_state`] overwrites an identically configured
    /// session with it; [`Clone`] is the in-memory fork.
    pub fn save_state(&self) -> Value {
        let Self {
            cfg,
            shards,
            links,
            placement,
            local,
            remote,
            frag_total,
            frag_ready,
            local_popped,
            local_slot,
            durs,
            rr,
            counts: _,
            empty_deps: _,
            next_feed,
            t,
            ingest,
            log,
            link_sent,
            sampler,
            spans,
            faults,
            restarts,
            epoch: _,
            settled: _,
        } = self;
        // The ingress queue is two columns: the expected task ids, and the
        // fragments that already arrived.
        let (mut expected, mut arrived, mut slot_at) = (Vec::new(), Vec::new(), Vec::new());
        for shard in shards {
            // Every field is a column below except `touched`, which each
            // pump resets.
            let Shard {
                sys: _,
                workers: _,
                expected: q,
                slot_at: sa,
                exec_q: _,
                touched: _,
            } = shard;
            expected.push(q.iter().map(|&(task, _)| task).collect::<Vec<u32>>());
            arrived.push(
                q.iter()
                    .filter_map(|(task, deps)| Some((*task, deps.clone()?)))
                    .collect::<Vec<_>>(),
            );
            slot_at.push(sorted(sa));
        }
        let mut restarts: Vec<u32> = restarts.iter().copied().collect();
        restarts.sort_unstable();
        let mut e = Enc::new();
        e.put(&cluster_fingerprint(cfg))
            .put(&sampler.is_some())
            .put(&spans.is_some())
            .put(&faults.is_some())
            .val(Value::Arr(
                shards.iter().map(|sh| sh.sys.save_state()).collect(),
            ))
            .val(Value::Arr(
                shards.iter().map(|sh| sh.workers.save_state()).collect(),
            ))
            .val(Value::Arr(links.iter().map(Link::save_state).collect()))
            .put(&expected)
            .put(&arrived)
            .put(&slot_at)
            .seq(shards.iter().map(|sh| &sh.exec_q))
            .put(placement)
            .put(local)
            .put(remote)
            .put(frag_total)
            .put(frag_ready)
            .put(local_popped)
            .put(local_slot)
            .put(durs)
            .put(rr)
            .put(next_feed)
            .put(t)
            .put(link_sent)
            .put(&restarts)
            .val(ingest.save_state())
            .nest(log)
            .put(sampler)
            .put(spans)
            .val(faults.as_ref().map_or(Value::Null, |f| f.save_state()));
        e.done()
    }

    /// Overwrites this session's dynamic state with the state recorded by
    /// [`ClusterSession::save_state`]. Continuing the restored session is
    /// bit-exact with the session the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot
    /// was taken under a different cluster configuration, fault plan or
    /// observation setup; the session must then be discarded.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let k = self.cfg.shards;
        let mut d = Dec::new(v, "cluster session")?;
        d.guard("cluster config", cluster_fingerprint(&self.cfg))?;
        d.guard("cluster sampler attached", self.sampler.is_some())?;
        d.guard("cluster spans attached", self.spans.is_some())?;
        d.guard("cluster fault layer attached", self.faults.is_some())?;
        d.each(&mut self.shards, "cluster shard cores", |sh, v| {
            sh.sys.load_state(v)
        })?;
        d.each(&mut self.shards, "cluster worker pools", |sh, v| {
            sh.workers.load_state(v)
        })?;
        d.each(&mut self.links, "cluster links", Link::load_state)?;
        let expected: Vec<Vec<u32>> = d.take()?;
        let arrived: Vec<Vec<(u32, Arc<[Dependence]>)>> = d.take()?;
        let slot_at: Vec<Vec<(u32, SlotRef)>> = d.take()?;
        let exec_q: Vec<VecDeque<u32>> = d.take()?;
        guard("cluster expected columns", expected.len(), k)?;
        guard("cluster arrived columns", arrived.len(), k)?;
        guard("cluster slot_at columns", slot_at.len(), k)?;
        guard("cluster exec_q columns", exec_q.len(), k)?;
        let columns = expected.into_iter().zip(arrived).zip(slot_at).zip(exec_q);
        for (sh, (((expected, arrived), slot_at), exec_q)) in self.shards.iter_mut().zip(columns) {
            let mut arrived = arrived.into_iter().peekable();
            sh.expected = expected
                .into_iter()
                .map(|task| {
                    (
                        task,
                        arrived.next_if(|(a, _)| *a == task).map(|(_, deps)| deps),
                    )
                })
                .collect();
            if arrived.next().is_some() {
                return Err(SnapError::new(
                    "cluster session: an arrived fragment is not in its ingress queue",
                ));
            }
            sh.slot_at = HashMap::from_iter(slot_at);
            sh.exec_q = exec_q;
        }
        self.placement = d.take()?;
        self.local = d.take()?;
        self.remote = d.take()?;
        self.frag_total = d.take()?;
        self.frag_ready = d.take()?;
        self.local_popped = d.take()?;
        self.local_slot = d.take()?;
        self.durs = d.take()?;
        self.rr = d.take()?;
        self.next_feed = d.take()?;
        self.t = d.take()?;
        self.link_sent = d.take()?;
        guard("cluster link counters", self.link_sent.len(), k)?;
        self.restarts = d.take::<Vec<u32>>()?.into_iter().collect();
        self.ingest.load_state(d.val()?)?;
        self.log = d.nest()?;
        self.sampler = d.take()?;
        self.spans = d.take()?;
        match (&mut self.faults, d.val()?) {
            (None, Value::Null) => {}
            (Some(f), v) => f.load_state(v)?,
            (None, _) => {
                return Err(SnapError::new("cluster session: unexpected fault state"));
            }
        }
        self.settled = false;
        Ok(())
    }
}
