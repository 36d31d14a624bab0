//! Snapshot/restore for [`ClusterSession`]: the full dynamic cluster
//! state — every shard core, worker pool and interconnect port, the
//! ingress reorder stages, the Distributor's per-task plan, the fault
//! layer and the observation state — through the positional codec.
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
use crate::fault::Packet;
use picos_core::SlotRef;
use picos_metrics::span::SpanLog;
use picos_metrics::WindowSampler;
use picos_runtime::snap::{dir_code, dir_from};
use picos_trace::snap::{guard, Dec, Enc, SnapError};
use picos_trace::{Dependence, Value};
use std::collections::VecDeque;
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

/// Packs a TM slot reference into one integer (`trs << 16 | entry`).
fn slot_pack(s: SlotRef) -> u64 {
    (s.trs as u64) << 16 | s.entry as u64
}

fn slot_unpack(v: u64) -> SlotRef {
    SlotRef::new((v >> 16) as u8, (v & 0xFFFF) as u16)
}

fn enc_deps(e: &mut Enc, deps: &Arc<[Dependence]>) {
    e.seq(deps.iter(), |e, d| {
        e.u64(d.addr).u64(dir_code(d.dir));
    });
}

fn dec_deps(d: &mut Dec) -> Result<Arc<[Dependence]>, SnapError> {
    let deps: Vec<Dependence> = d.seq(|d| Ok(Dependence::new(d.u64()?, dir_from(d.u64()?)?)))?;
    Ok(deps.into())
}

/// Encodes one interconnect message (variant code first).
fn enc_cluster_msg(e: &mut Enc, m: &ClusterMsg) {
    match m {
        ClusterMsg::Register { task, deps } => {
            e.u64(0).u32(*task);
            enc_deps(e, deps);
        }
        ClusterMsg::Ready { task } => {
            e.u64(1).u32(*task);
        }
        ClusterMsg::Finish { task } => {
            e.u64(2).u32(*task);
        }
    }
}

/// Decodes one interconnect message written by [`enc_cluster_msg`].
fn dec_cluster_msg(d: &mut Dec) -> Result<ClusterMsg, SnapError> {
    match d.u64()? {
        0 => Ok(ClusterMsg::Register {
            task: d.u32()?,
            deps: dec_deps(d)?,
        }),
        1 => Ok(ClusterMsg::Ready { task: d.u32()? }),
        2 => Ok(ClusterMsg::Finish { task: d.u32()? }),
        other => Err(SnapError::new(format!(
            "unknown cluster message code {other}"
        ))),
    }
}

/// Encodes one wire packet: the fault envelope plus its message.
fn enc_packet(e: &mut Enc, p: &Packet<ClusterMsg>) {
    e.u32(p.id).bool(p.drop);
    enc_cluster_msg(e, &p.msg);
}

fn dec_packet(d: &mut Dec) -> Result<Packet<ClusterMsg>, SnapError> {
    Ok(Packet {
        id: d.u32()?,
        drop: d.bool()?,
        msg: dec_cluster_msg(d)?,
    })
}

impl ClusterSession {
    /// Serializes the full dynamic cluster state.
    /// [`ClusterSession::load_state`] overwrites an identically configured
    /// session with it; [`Clone`] is the in-memory fork.
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.u64(cluster_fingerprint(&self.cfg))
            .bool(self.sampler.is_some())
            .bool(self.spans.is_some())
            .bool(self.faults.is_some())
            .val(Value::Arr(
                self.sys.iter().map(|s| s.save_state()).collect(),
            ))
            .val(Value::Arr(
                self.workers.iter().map(|w| w.save_state()).collect(),
            ))
            .val(Value::Arr(
                self.links
                    .iter()
                    .map(|l| l.save_state_with(enc_packet))
                    .collect(),
            ))
            .seq(self.expected.iter(), |e, q| {
                e.u32s(q.iter().copied());
            })
            .seq(self.arrived.iter(), |e, m| {
                let mut entries: Vec<(u32, &Arc<[Dependence]>)> =
                    m.iter().map(|(&t, d)| (t, d)).collect();
                entries.sort_unstable_by_key(|&(t, _)| t);
                e.seq(entries, |e, (t, deps)| {
                    e.u32(t);
                    enc_deps(e, deps);
                });
            })
            .seq(self.slot_at.iter(), |e, m| {
                let mut entries: Vec<(u32, SlotRef)> = m.iter().map(|(&t, &s)| (t, s)).collect();
                entries.sort_unstable_by_key(|&(t, _)| t);
                e.seq(entries, |e, (t, slot)| {
                    e.u32(t).u64(slot_pack(slot));
                });
            })
            .seq(self.exec_q.iter(), |e, q| {
                e.u32s(q.iter().copied());
            })
            .u64s(self.placement.iter().map(|&p| p as u64))
            .seq(self.local.iter(), enc_deps)
            .seq(self.remote.iter(), |e, frags| {
                e.seq(frags.iter(), |e, (shard, deps)| {
                    e.u64(*shard as u64);
                    enc_deps(e, deps);
                });
            })
            .u64s(self.frag_total.iter().map(|&v| v as u64))
            .u64s(self.frag_ready.iter().map(|&v| v as u64))
            .bools(self.local_popped.iter().copied())
            .u64s(self.local_slot.iter().map(|&s| slot_pack(s)))
            .u64s(self.durs.iter().copied())
            .usize(self.rr)
            .usize(self.next_feed)
            .u64(self.t)
            .u64s(self.link_sent.iter().copied())
            .u32s({
                let mut r: Vec<u32> = self.restarts.iter().copied().collect();
                r.sort_unstable();
                r
            })
            .val(self.ingest.save_state())
            .val(self.log.save_state())
            .val(match &self.sampler {
                Some(s) => s.save_state(),
                None => Value::Null,
            })
            .val(match &self.spans {
                Some(s) => s.save_state(),
                None => Value::Null,
            })
            .val(match &self.faults {
                Some(f) => f.save_state_with(enc_cluster_msg),
                None => Value::Null,
            });
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
    /// observation setup.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let k = self.cfg.shards;
        let mut d = Dec::new(v, "cluster session")?;
        guard("cluster config", d.u64()?, cluster_fingerprint(&self.cfg))?;
        guard(
            "cluster sampler attached",
            d.bool()? as u64,
            self.sampler.is_some() as u64,
        )?;
        guard(
            "cluster spans attached",
            d.bool()? as u64,
            self.spans.is_some() as u64,
        )?;
        guard(
            "cluster fault layer attached",
            d.bool()? as u64,
            self.faults.is_some() as u64,
        )?;
        let sys = d.val()?;
        let workers = d.val()?;
        let links = d.val()?;
        let expected: Vec<VecDeque<u32>> = d.seq(|d| Ok(d.u32s()?.into()))?;
        let arrived: Vec<Vec<(u32, Arc<[Dependence]>)>> =
            d.seq(|d| d.seq(|d| Ok((d.u32()?, dec_deps(d)?))))?;
        let slot_at: Vec<Vec<(u32, SlotRef)>> =
            d.seq(|d| d.seq(|d| Ok((d.u32()?, slot_unpack(d.u64()?)))))?;
        let exec_q: Vec<VecDeque<u32>> = d.seq(|d| Ok(d.u32s()?.into()))?;
        for (name, len) in [
            ("expected", expected.len()),
            ("arrived", arrived.len()),
            ("slot_at", slot_at.len()),
            ("exec_q", exec_q.len()),
        ] {
            if len != k {
                return Err(SnapError::new(format!(
                    "cluster session: {len} {name} columns for {k} shards"
                )));
            }
        }
        let placement: Vec<u16> = d.u64s()?.into_iter().map(|v| v as u16).collect();
        let local: Vec<Arc<[Dependence]>> = d.seq(dec_deps)?;
        let remote: Vec<Vec<(u16, Arc<[Dependence]>)>> =
            d.seq(|d| d.seq(|d| Ok((d.u64()? as u16, dec_deps(d)?))))?;
        let frag_total: Vec<u8> = d.u64s()?.into_iter().map(|v| v as u8).collect();
        let frag_ready: Vec<u8> = d.u64s()?.into_iter().map(|v| v as u8).collect();
        let local_popped = d.bools()?;
        let local_slot: Vec<SlotRef> = d.u64s()?.into_iter().map(slot_unpack).collect();
        let durs = d.u64s()?;
        let rr = d.usize()?;
        let next_feed = d.usize()?;
        let t = d.u64()?;
        let link_sent = d.u64s()?;
        if link_sent.len() != k {
            return Err(SnapError::new(format!(
                "cluster session: {} link counters for {k} shards",
                link_sent.len()
            )));
        }
        let restarts = d.u32s()?;
        // Everything decoded; now apply, overwriting in place so a decode
        // error above leaves the session untouched.
        {
            let mut d = Dec::new(sys, "cluster shard cores")?;
            if d.remaining() != k {
                return Err(SnapError::new(format!(
                    "cluster session: {} shard cores for {k} shards",
                    d.remaining()
                )));
            }
            for s in self.sys.iter_mut() {
                s.load_state(d.val()?)?;
            }
        }
        {
            let mut d = Dec::new(workers, "cluster worker pools")?;
            if d.remaining() != k {
                return Err(SnapError::new(format!(
                    "cluster session: {} worker pools for {k} shards",
                    d.remaining()
                )));
            }
            for w in self.workers.iter_mut() {
                w.load_state(d.val()?)?;
            }
        }
        {
            let mut d = Dec::new(links, "cluster links")?;
            if d.remaining() != k {
                return Err(SnapError::new(format!(
                    "cluster session: {} links for {k} shards",
                    d.remaining()
                )));
            }
            for l in self.links.iter_mut() {
                l.load_state_with(d.val()?, dec_packet)?;
            }
        }
        self.ingest.load_state(d.val()?)?;
        self.log.load_state(d.val()?)?;
        self.sampler = match d.val()? {
            Value::Null => None,
            v => Some(WindowSampler::load_state(v)?),
        };
        self.spans = match d.val()? {
            Value::Null => None,
            v => Some(SpanLog::load_state(v)?),
        };
        match (&mut self.faults, d.val()?) {
            (None, Value::Null) => {}
            (Some(f), v) => f.load_state_with(v, dec_cluster_msg)?,
            (None, _) => {
                return Err(SnapError::new("cluster session: unexpected fault state"));
            }
        }
        self.expected = expected;
        self.arrived = arrived
            .into_iter()
            .map(|m| m.into_iter().collect())
            .collect();
        self.slot_at = slot_at
            .into_iter()
            .map(|m| m.into_iter().collect())
            .collect();
        self.exec_q = exec_q;
        self.placement = placement;
        self.local = local;
        self.remote = remote;
        self.frag_total = frag_total;
        self.frag_ready = frag_ready;
        self.local_popped = local_popped;
        self.local_slot = local_slot;
        self.durs = durs;
        self.rr = rr;
        self.next_feed = next_feed;
        self.t = t;
        self.link_sent = link_sent;
        self.restarts = restarts.into_iter().collect();
        self.engine_err = None;
        Ok(())
    }
}
