//! Snapshot/restore for [`ClusterSession`]: the full dynamic cluster
//! state — every shard core, worker pool and interconnect port, the
//! ingress reorder stages, the Distributor's per-task plan, the fault
//! layer and the observation state — through the [`Snap`] codecs.
//!
//! The restore contract mirrors the other engines': build a session with
//! the *identical* configuration, then [`ClusterSession::load_state`]
//! overwrites its dynamic state. A configuration fingerprint (plus
//! attachment guards for the sampler, span log and fault plan) rejects
//! mismatched targets instead of silently diverging. The engine thread
//! count is deliberately **not** fingerprinted: the parallel engine is
//! bit-identical to the serial one, so a snapshot taken under either
//! drives on unchanged under the other.

use super::{ClusterMsg, ClusterSession};
use crate::config::{ClusterConfig, ShardPolicy};
use picos_core::{PicosSystem, SlotRef};
use picos_hil::{Link, Workers};
use picos_trace::snap::{guard, Dec, Enc, Snap, SnapError};
use picos_trace::{Dependence, Value};
use std::collections::HashMap;
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
            sys,
            workers,
            links,
            expected,
            arrived,
            slot_at,
            exec_q,
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
            touched: _,
            ingest,
            log,
            link_sent,
            sampler,
            spans,
            faults,
            restarts,
            engine_err: _,
            settled: _,
        } = self;
        let arrived: Vec<_> = arrived.iter().map(sorted).collect();
        let slot_at: Vec<_> = slot_at.iter().map(sorted).collect();
        let mut restarts: Vec<u32> = restarts.iter().copied().collect();
        restarts.sort_unstable();
        let mut e = Enc::new();
        e.put(&cluster_fingerprint(cfg))
            .put(&sampler.is_some())
            .put(&spans.is_some())
            .put(&faults.is_some())
            .val(Value::Arr(
                sys.iter().map(PicosSystem::save_state).collect(),
            ))
            .val(Value::Arr(
                workers.iter().map(Workers::save_state).collect(),
            ))
            .val(Value::Arr(links.iter().map(Link::save_state).collect()))
            .put(expected)
            .put(&arrived)
            .put(&slot_at)
            .put(exec_q)
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
    /// [`ClusterSession::save_state`]. Continuing the restored session —
    /// under either the serial or the parallel engine — is bit-exact with
    /// the session the snapshot was taken from.
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
        d.each(
            &mut self.sys,
            "cluster shard cores",
            PicosSystem::load_state,
        )?;
        d.each(
            &mut self.workers,
            "cluster worker pools",
            Workers::load_state,
        )?;
        d.each(&mut self.links, "cluster links", Link::load_state)?;
        self.expected = d.take()?;
        self.arrived = d
            .take::<Vec<Vec<(u32, Arc<[Dependence]>)>>>()?
            .into_iter()
            .map(HashMap::from_iter)
            .collect();
        self.slot_at = d
            .take::<Vec<Vec<(u32, SlotRef)>>>()?
            .into_iter()
            .map(HashMap::from_iter)
            .collect();
        self.exec_q = d.take()?;
        guard("cluster expected columns", self.expected.len(), k)?;
        guard("cluster arrived columns", self.arrived.len(), k)?;
        guard("cluster slot_at columns", self.slot_at.len(), k)?;
        guard("cluster exec_q columns", self.exec_q.len(), k)?;
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
        self.engine_err = None;
        self.settled = false;
        Ok(())
    }
}
