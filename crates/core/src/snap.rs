//! Snapshot codecs for the core types shared across units.
//!
//! The engine's message vocabulary is re-used verbatim inside wheel
//! events, FIFO queues and the Arbiter, so each message type has one
//! [`Snap`] impl here. References pack into single scalar slots
//! (`SlotRef` = `trs << 16 | entry`, `VmRef` = `dct << 16 | idx`,
//! `DmSlot` = `set << 32 | way`), and [`put_live`]/[`take_live`] encode
//! the three sparse unit tables (DM ways, TM entries, VM versions).

use crate::config::PicosConfig;
use crate::msg::{
    ArbMsg, DepFinMsg, FinishedReq, NewDepMsg, NewTaskReq, ReadyTask, ResolveKind, SlotRef, TrsMsg,
    VmRef,
};
use crate::stats::Stats;
use crate::DmSlot;
use picos_trace::snap::{Dec, Enc, Snap, SnapError};
use picos_trace::snap_record;

/// Packs two fields `lo_bits` apart into one slot; unpacking checks that
/// the high part fits `u8` and the low part `u16`.
macro_rules! snap_packed_ref {
    ($ty:ident { $hi:ident, $lo:ident }, $what:literal) => {
        impl Snap for $ty {
            const SCALAR: bool = true;

            #[inline]
            fn put(&self, e: &mut Enc) {
                e.put(&((self.$hi as u64) << 16 | self.$lo as u64));
            }

            #[inline]
            fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
                let v = d.u64()?;
                match u8::try_from(v >> 16) {
                    Ok(hi) => Ok($ty::new(hi, v as u16)),
                    Err(_) => Err(SnapError::new(format!(
                        "{} {v}: {} part out of range",
                        $what,
                        stringify!($hi)
                    ))),
                }
            }
        }
    };
}

snap_packed_ref!(SlotRef { trs, entry }, "slot reference");
snap_packed_ref!(VmRef { dct, idx }, "VM reference");

impl Snap for DmSlot {
    const SCALAR: bool = true;

    #[inline]
    fn put(&self, e: &mut Enc) {
        e.put(&((self.set as u64) << 32 | self.way as u64));
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let v = d.u64()?;
        Ok(DmSlot {
            set: (v >> 32) as usize,
            way: (v & 0xFFFF_FFFF) as usize,
        })
    }
}

/// `Ready` is `(true, null)`; `Dependent` is `(false, prev_consumer)`.
impl Snap for ResolveKind {
    #[inline]
    fn put(&self, e: &mut Enc) {
        match self {
            ResolveKind::Ready => e.put(&true).put(&None::<SlotRef>),
            ResolveKind::Dependent { prev_consumer } => e.put(&false).put(prev_consumer),
        };
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let ready: bool = d.take()?;
        let prev_consumer = d.take()?;
        Ok(if ready {
            ResolveKind::Ready
        } else {
            ResolveKind::Dependent { prev_consumer }
        })
    }
}

/// A TRS message: one variant code, then that variant's fields.
impl Snap for TrsMsg {
    fn put(&self, e: &mut Enc) {
        match self {
            TrsMsg::NewTask {
                slot,
                task,
                num_deps,
            } => e.put(&0u8).put(slot).put(task).put(num_deps),
            TrsMsg::Resolve {
                slot,
                dep_idx,
                vm,
                kind,
            } => e.put(&1u8).put(slot).put(dep_idx).put(vm).put(kind),
            TrsMsg::Wake { slot, vm } => e.put(&2u8).put(slot).put(vm),
            TrsMsg::Finished { slot } => e.put(&3u8).put(slot),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u64()? {
            0 => TrsMsg::NewTask {
                slot: d.take()?,
                task: d.take()?,
                num_deps: d.take()?,
            },
            1 => TrsMsg::Resolve {
                slot: d.take()?,
                dep_idx: d.take()?,
                vm: d.take()?,
                kind: d.take()?,
            },
            2 => TrsMsg::Wake {
                slot: d.take()?,
                vm: d.take()?,
            },
            3 => TrsMsg::Finished { slot: d.take()? },
            other => return Err(SnapError::new(format!("unknown TrsMsg kind {other}"))),
        })
    }
}

snap_record!(NewDepMsg {
    slot,
    dep_idx,
    dep,
    conflict_counted,
    vm_stall_counted
});
snap_record!(DepFinMsg { vm, from });
snap_record!(NewTaskReq { task, deps });
snap_record!(FinishedReq { task, slot });
snap_record!(ReadyTask {
    task,
    slot,
    ready_at
});

/// An Arbiter message: one variant code, the destination unit, then the
/// inner message's fields.
impl Snap for ArbMsg {
    fn put(&self, e: &mut Enc) {
        match self {
            ArbMsg::ToTrs(trs, m) => e.put(&0u8).put(trs).put(m),
            ArbMsg::ToDctFin(dct, m) => e.put(&1u8).put(dct).put(m),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u64()? {
            0 => ArbMsg::ToTrs(d.take()?, d.take()?),
            1 => ArbMsg::ToDctFin(d.take()?, d.take()?),
            other => return Err(SnapError::new(format!("unknown ArbMsg kind {other}"))),
        })
    }
}

/// Encodes the live entries of a sparse unit table as `[index, entry...]`
/// records, in index order.
pub(crate) fn put_live<T: Snap>(e: &mut Enc, table: &[Option<T>]) {
    e.pairs(
        table
            .iter()
            .enumerate()
            .filter_map(|(i, x)| x.as_ref().map(|x| (i, x))),
    );
}

/// Overwrites a sparse unit table from [`put_live`] output: every slot is
/// cleared, then each recorded entry lands at its index. Returns the
/// number of live entries.
pub(crate) fn take_live<T: Snap>(
    d: &mut Dec<'_>,
    table: &mut [Option<T>],
    what: &str,
) -> Result<usize, SnapError> {
    let live: Vec<(usize, T)> = d.take()?;
    table.iter_mut().for_each(|x| *x = None);
    let n = live.len();
    for (idx, x) in live {
        *table
            .get_mut(idx)
            .ok_or_else(|| SnapError::new(format!("{what}: live index out of range")))? = Some(x);
    }
    Ok(n)
}

/// Every counter in [`Stats::FIELDS`] order, then the two histograms.
impl Snap for Stats {
    fn put(&self, e: &mut Enc) {
        let counters: Vec<u64> = Self::FIELDS
            .iter()
            .map(|(_, _, get, _)| get(self))
            .collect();
        e.put(&counters)
            .seq(&self.dm_chain_hist)
            .seq(&self.trs_wake_hist);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let fields: Vec<u64> = d.take()?;
        if fields.len() != Self::FIELDS.len() {
            return Err(SnapError::new("stats: field count mismatch"));
        }
        let mut s = Stats::default();
        for ((_, _, _, set), v) in Self::FIELDS.iter().zip(fields) {
            set(&mut s, v);
        }
        let dm: Vec<u64> = d.take()?;
        let wake: Vec<u64> = d.take()?;
        if dm.len() != s.dm_chain_hist.len() || wake.len() != s.trs_wake_hist.len() {
            return Err(SnapError::new("stats: histogram shape mismatch"));
        }
        s.dm_chain_hist.copy_from_slice(&dm);
        s.trs_wake_hist.copy_from_slice(&wake);
        Ok(s)
    }
}

/// One fingerprint over every behaviour-relevant configuration field.
/// Restore overwrites dynamic state only, so the restoring session must be
/// built from an identical config; a fingerprint mismatch is a hard error,
/// never silent corruption.
pub(crate) fn config_fingerprint(cfg: &PicosConfig) -> u64 {
    let t = &cfg.timing;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    mix(match cfg.dm_design {
        crate::DmDesign::EightWay => 1,
        crate::DmDesign::SixteenWay => 2,
        crate::DmDesign::PearsonEightWay => 3,
    });
    mix(cfg.dm_sets as u64);
    mix(cfg.num_trs as u64);
    mix(cfg.num_dct as u64);
    mix(cfg.tm_entries as u64);
    mix(cfg.vm_entries as u64);
    mix(cfg.max_deps_per_task as u64);
    mix(match cfg.ts_policy {
        crate::TsPolicy::Fifo => 1,
        crate::TsPolicy::Lifo => 2,
    });
    for v in [
        t.wire,
        t.gw_task,
        t.gw_dep,
        t.gw_fin,
        t.trs_new,
        t.trs_resolve,
        t.trs_wake,
        t.trs_fin,
        t.trs_fin_dep,
        t.dct_dep,
        t.dct_task_sync,
        t.dct_fin,
        t.arb,
        t.ts,
    ] {
        mix(v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::{TaskId, Value};

    fn save<T: Snap>(v: &T) -> Value {
        let mut e = Enc::new();
        e.put(v);
        e.done()
    }

    fn load<T: Snap>(v: &Value) -> Result<T, SnapError> {
        Dec::new(v, "test")?.take()
    }

    #[test]
    fn refs_pack_roundtrip() {
        let s = SlotRef::new(3, 65535);
        assert_eq!(save(&s), Value::Arr(vec![Value::Int(3 << 16 | 65535)]));
        assert_eq!(load::<SlotRef>(&save(&s)).unwrap(), s);
        let v = VmRef::new(255, 1);
        assert_eq!(load::<VmRef>(&save(&v)).unwrap(), v);
        let d = DmSlot { set: 63, way: 15 };
        assert_eq!(load::<DmSlot>(&save(&d)).unwrap(), d);
    }

    #[test]
    fn packed_ref_out_of_range_is_an_error() {
        let doc = Value::Arr(vec![Value::Int(256 << 16 | 7)]);
        let err = load::<SlotRef>(&doc).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert!(load::<VmRef>(&doc).is_err());
    }

    #[test]
    fn trs_msg_roundtrip() {
        let msgs = [
            TrsMsg::NewTask {
                slot: SlotRef::new(0, 9),
                task: TaskId::new(7),
                num_deps: 3,
            },
            TrsMsg::Resolve {
                slot: SlotRef::new(1, 2),
                dep_idx: 1,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Ready,
            },
            TrsMsg::Resolve {
                slot: SlotRef::new(1, 2),
                dep_idx: 1,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Dependent {
                    prev_consumer: Some(SlotRef::new(0, 3)),
                },
            },
            TrsMsg::Wake {
                slot: SlotRef::new(0, 1),
                vm: VmRef::new(1, 2),
            },
            TrsMsg::Finished {
                slot: SlotRef::new(0, 0),
            },
        ];
        for m in msgs {
            assert_eq!(load::<TrsMsg>(&save(&m)).unwrap(), m);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = Stats {
            tasks_submitted: 11,
            peak_ready: 4,
            ..Stats::default()
        };
        s.dm_chain_hist[2] = 9;
        s.trs_wake_hist[7] = 1;
        let back: Stats = load(&save(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn fingerprint_sees_timing_and_policy() {
        let a = PicosConfig::balanced();
        let mut b = a.clone();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.timing.dct_dep += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = a.clone();
        c.ts_policy = crate::TsPolicy::Lifo;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }
}
