//! Dependence Chain Tracker: the major dependence-management unit.
//!
//! For each new dependence the DCT matches the address against earlier
//! arrivals (DM), registers the dependence in the version chain (VM) and
//! answers the TRS with a ready or dependent packet (N5). For each finished
//! dependence it updates the version state and wakes waiting tasks (F4):
//! Producer-Consumer chains are woken **from the last consumer** (the TRS
//! then walks the chain backwards), Producer-Producer chains are woken in
//! sequence as versions drain (paper, Section III-D).

use crate::config::Timing;
use crate::dm::{Dm, DmAccess};
use crate::msg::{DepFinMsg, NewDepMsg, ResolveKind, TrsMsg, VmRef};
use crate::stats::{hist_bucket, DM_CHAIN_BOUNDS};
use crate::vm::{Vm, VmEntry};
use crate::Cycle;
use picos_trace::snap::{Dec, Enc};
use picos_trace::{SnapError, Value};

/// Packets a DCT emits while handling one message (all routed via the ARB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DctEmit {
    /// Destination TRS instance.
    pub trs: u8,
    /// The packet.
    pub msg: TrsMsg,
}

/// Why a new dependence could not be processed right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DctBlocked {
    /// The DM set for this address is full (Table II conflict).
    DmConflict,
    /// The VM has no free entry.
    VmFull,
}

/// One Dependence Chain Tracker instance.
#[derive(Debug, Clone)]
pub struct Dct {
    id: u8,
    /// The Dependence Memory.
    pub dm: Dm,
    /// The Version Memory.
    pub vm: Vm,
    deps_processed: u64,
    wakes_sent: u64,
    chain_hist: [u64; DM_CHAIN_BOUNDS.len() + 1],
}

impl Dct {
    /// Creates DCT instance `id`.
    pub fn new(id: u8, dm: Dm, vm: Vm) -> Self {
        Dct {
            id,
            dm,
            vm,
            deps_processed: 0,
            wakes_sent: 0,
            chain_hist: [0; DM_CHAIN_BOUNDS.len() + 1],
        }
    }

    /// Instance index.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// New dependences successfully registered.
    pub fn deps_processed(&self) -> u64 {
        self.deps_processed
    }

    /// Wake packets sent to TRS instances.
    pub fn wakes_sent(&self) -> u64 {
        self.wakes_sent
    }

    /// DM version-chain depth observed after each successful
    /// registration, bucketed by `DM_CHAIN_BOUNDS`.
    pub fn chain_hist(&self) -> &[u64; DM_CHAIN_BOUNDS.len() + 1] {
        &self.chain_hist
    }

    #[inline]
    fn observe_chain(&mut self, len: u32) {
        self.chain_hist[hist_bucket(&DM_CHAIN_BOUNDS, u64::from(len))] += 1;
    }

    /// Handles a new dependence (N5).
    ///
    /// # Errors
    ///
    /// Returns [`DctBlocked`] when the dependence cannot be stored; the
    /// caller must keep the message at the queue head and retry after a
    /// finished dependence frees resources.
    pub fn handle_new(
        &mut self,
        msg: &NewDepMsg,
        t: &Timing,
        out: &mut Vec<DctEmit>,
    ) -> Result<Cycle, DctBlocked> {
        let dep = msg.dep;
        let is_input = !dep.dir.writes();
        // Reserve VM space up front: every outcome except a pure-reader hit
        // on an unfinished producer needs at most one new version, and a
        // fresh address always needs one.
        match self.dm.lookup(dep.addr) {
            Some(slot) => {
                if is_input {
                    // Consumer: joins the latest version.
                    let tail_ref = self.dm.tail(slot);
                    // Touch the DM entry for the refs/all_inputs bookkeeping.
                    self.dm.touch(slot, is_input);
                    let tail = self.vm.get_mut(tail_ref.idx);
                    tail.consumers_total += 1;
                    let kind = if tail.producer_finished {
                        // Producer already done: satisfied immediately.
                        ResolveKind::Ready
                    } else {
                        // Chain: remember the previous consumer; the TRS
                        // stores it in this task's TMX record.
                        let prev = tail.last_consumer.replace(msg.slot);
                        ResolveKind::Dependent {
                            prev_consumer: prev,
                        }
                    };
                    out.push(DctEmit {
                        trs: msg.slot.trs,
                        msg: TrsMsg::Resolve {
                            slot: msg.slot,
                            dep_idx: msg.dep_idx,
                            vm: tail_ref,
                            kind,
                        },
                    });
                } else {
                    // Producer: open a new version behind the current tail.
                    if !self.vm.has_space() {
                        return Err(DctBlocked::VmFull);
                    }
                    let tail_ref = self.dm.tail(slot);
                    self.dm.touch(slot, is_input);
                    let new_idx = self
                        .vm
                        .alloc(VmEntry {
                            producer: Some(msg.slot),
                            producer_finished: false,
                            last_consumer: None,
                            consumers_total: 0,
                            consumers_finished: 0,
                            next: None,
                            dm_slot: slot,
                        })
                        .expect("space checked above");
                    let new_ref = VmRef::new(self.id, new_idx);
                    self.vm.get_mut(tail_ref.idx).next = Some(new_ref);
                    self.dm.push_version(slot, new_ref);
                    // A live tail is never fully drained (it would have been
                    // deleted), so the new producer always waits; it is
                    // woken when the previous version resolves.
                    out.push(DctEmit {
                        trs: msg.slot.trs,
                        msg: TrsMsg::Resolve {
                            slot: msg.slot,
                            dep_idx: msg.dep_idx,
                            vm: new_ref,
                            kind: ResolveKind::Dependent {
                                prev_consumer: None,
                            },
                        },
                    });
                }
                self.observe_chain(self.dm.chain_len(slot));
            }
            None => {
                // First arrival for this address: needs a DM way + a VM
                // entry; either can stall.
                if !self.vm.has_space() {
                    return Err(DctBlocked::VmFull);
                }
                let slot = match self.dm.access(dep.addr, is_input) {
                    DmAccess::Inserted(s) => s,
                    DmAccess::Conflict => return Err(DctBlocked::DmConflict),
                    DmAccess::Hit(_) => unreachable!("lookup said miss"),
                };
                let new_idx = self
                    .vm
                    .alloc(VmEntry {
                        producer: if is_input { None } else { Some(msg.slot) },
                        producer_finished: is_input,
                        last_consumer: if is_input { Some(msg.slot) } else { None },
                        consumers_total: u32::from(is_input),
                        consumers_finished: 0,
                        next: None,
                        dm_slot: slot,
                    })
                    .expect("space checked above");
                let new_ref = VmRef::new(self.id, new_idx);
                self.dm.bind(slot, new_ref);
                // Independent: ready packet (N5).
                out.push(DctEmit {
                    trs: msg.slot.trs,
                    msg: TrsMsg::Resolve {
                        slot: msg.slot,
                        dep_idx: msg.dep_idx,
                        vm: new_ref,
                        kind: ResolveKind::Ready,
                    },
                });
                self.observe_chain(self.dm.chain_len(slot));
            }
        }
        self.deps_processed += 1;
        let sync = if msg.dep_idx == 0 { t.dct_task_sync } else { 0 };
        Ok(t.dct_dep + sync)
    }

    /// Handles a finished dependence (F3/F4).
    pub fn handle_fin(&mut self, msg: DepFinMsg, t: &Timing, out: &mut Vec<DctEmit>) -> Cycle {
        debug_assert_eq!(msg.vm.dct, self.id);
        let idx = msg.vm.idx;
        let v = self.vm.get_mut(idx);
        let was_producer = v.producer == Some(msg.from) && !v.producer_finished;
        if was_producer {
            v.producer_finished = true;
            if v.consumers_finished < v.consumers_total {
                // Wake the LAST consumer; the TRS walks the chain backwards
                // (paper, Figure 5 link 1).
                let target = v
                    .last_consumer
                    .expect("unfinished consumers imply a last consumer");
                self.wakes_sent += 1;
                out.push(DctEmit {
                    trs: target.trs,
                    msg: TrsMsg::Wake {
                        slot: target,
                        vm: msg.vm,
                    },
                });
                return t.dct_fin;
            }
        } else {
            v.consumers_finished += 1;
            debug_assert!(
                v.consumers_finished <= v.consumers_total,
                "more consumer finishes than consumers"
            );
        }
        if self.vm.get(idx).drained() {
            self.resolve_version(msg.vm, out);
        }
        t.dct_fin
    }

    /// Deletes a fully drained version, waking the next version's producer
    /// (Producer-Producer chain, paper Figure 5 links 4/5) and freeing the
    /// DM entry when it was the last version.
    fn resolve_version(&mut self, vm_ref: VmRef, out: &mut Vec<DctEmit>) {
        let (next, dm_slot) = {
            let v = self.vm.get(vm_ref.idx);
            debug_assert!(v.drained());
            (v.next, v.dm_slot)
        };
        if let Some(next_ref) = next {
            let producer = self
                .vm
                .get(next_ref.idx)
                .producer
                .expect("non-head versions are opened by producers");
            self.wakes_sent += 1;
            out.push(DctEmit {
                trs: producer.trs,
                msg: TrsMsg::Wake {
                    slot: producer,
                    vm: next_ref,
                },
            });
        }
        self.dm.pop_version(dm_slot, next);
        self.vm.free(vm_ref.idx);
    }

    /// Serializes the dynamic state: the DM, the VM and the instance
    /// counters.
    pub fn save_state(&self) -> Value {
        let Self {
            id,
            dm,
            vm,
            deps_processed,
            wakes_sent,
            chain_hist,
        } = self;
        let mut e = Enc::new();
        e.put(id)
            .val(dm.save_state())
            .val(vm.save_state())
            .put(deps_processed)
            .put(wakes_sent)
            .seq(chain_hist);
        e.done()
    }

    /// Overwrites the dynamic state from [`Dct::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or an instance mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "dct")?;
        d.guard("dct id", self.id)?;
        self.dm.load_state(d.val()?)?;
        self.vm.load_state(d.val()?)?;
        self.deps_processed = d.take()?;
        self.wakes_sent = d.take()?;
        let hist: Vec<u64> = d.take()?;
        if hist.len() != self.chain_hist.len() {
            return Err(SnapError::new("dct: histogram shape mismatch"));
        }
        self.chain_hist.copy_from_slice(&hist);
        Ok(())
    }
}

/// Convenience: which DCT instance owns an address (GW routing rule; all
/// arrivals for one address must reach the same DCT).
pub fn dct_for_addr(addr: u64, num_dct: usize) -> u8 {
    if num_dct == 1 {
        return 0;
    }
    // Fibonacci hashing, taking the HIGH bits of the product: the low bits
    // of `x * odd` are just a permutation of x's low bits, which are zero
    // for stride-aligned block addresses and would funnel every dependence
    // to DCT 0.
    let h = (addr >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize % num_dct) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmDesign;
    use crate::msg::SlotRef;
    use picos_trace::Dependence;

    fn dct() -> Dct {
        Dct::new(0, Dm::new(DmDesign::PearsonEightWay, 64), Vm::new(16))
    }

    fn new_dep(slot_entry: u16, dep_idx: u8, dep: Dependence) -> NewDepMsg {
        NewDepMsg {
            slot: SlotRef::new(0, slot_entry),
            dep_idx,
            dep,
            conflict_counted: false,
            vm_stall_counted: false,
        }
    }

    fn ready_of(out: &[DctEmit]) -> Vec<(u16, ResolveKind)> {
        out.iter()
            .map(|e| match e.msg {
                TrsMsg::Resolve { slot, kind, .. } => (slot.entry, kind),
                ref other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn first_arrival_is_ready() {
        let mut d = dct();
        let t = Timing::default();
        let mut out = Vec::new();
        let cost = d
            .handle_new(&new_dep(1, 0, Dependence::inout(0xA0)), &t, &mut out)
            .unwrap();
        assert_eq!(cost, t.dct_dep + t.dct_task_sync);
        assert_eq!(ready_of(&out), vec![(1, ResolveKind::Ready)]);
        assert_eq!(d.dm.live(), 1);
        assert_eq!(d.vm.live(), 1);
    }

    #[test]
    fn non_first_dep_skips_sync_cost() {
        let mut d = dct();
        let t = Timing::default();
        let mut out = Vec::new();
        let cost = d
            .handle_new(&new_dep(1, 3, Dependence::input(0xB0)), &t, &mut out)
            .unwrap();
        assert_eq!(cost, t.dct_dep);
    }

    /// Walks the full paper Figure 5 example: T1 inout, T2-T4 in, T5-T6
    /// inout, then finishes in order and checks every wake.
    #[test]
    fn figure5_dependence_chain() {
        let mut d = dct();
        let t = Timing::default();
        let a = Dependence::inout(0xA0);
        let r = Dependence::input(0xA0);
        let mut out = Vec::new();

        // T1 (slot 1): ready.
        d.handle_new(&new_dep(1, 0, a), &t, &mut out).unwrap();
        assert_eq!(ready_of(&out), vec![(1, ResolveKind::Ready)]);
        let vm0 = match out[0].msg {
            TrsMsg::Resolve { vm, .. } => vm,
            _ => unreachable!(),
        };
        out.clear();

        // T2 (slot 2): first consumer -> dependent, no prev.
        d.handle_new(&new_dep(2, 0, r), &t, &mut out).unwrap();
        assert_eq!(
            ready_of(&out),
            vec![(
                2,
                ResolveKind::Dependent {
                    prev_consumer: None
                }
            )]
        );
        out.clear();

        // T3 (slot 3): second consumer -> dependent, prev = T2.
        d.handle_new(&new_dep(3, 0, r), &t, &mut out).unwrap();
        assert_eq!(
            ready_of(&out),
            vec![(
                3,
                ResolveKind::Dependent {
                    prev_consumer: Some(SlotRef::new(0, 2))
                }
            )]
        );
        out.clear();

        // T4 (slot 4): third consumer -> prev = T3.
        d.handle_new(&new_dep(4, 0, r), &t, &mut out).unwrap();
        out.clear();

        // T5, T6 (slots 5, 6): producers -> new versions, dependent.
        d.handle_new(&new_dep(5, 0, a), &t, &mut out).unwrap();
        let vm1 = match out[0].msg {
            TrsMsg::Resolve { vm, kind, .. } => {
                assert_eq!(
                    kind,
                    ResolveKind::Dependent {
                        prev_consumer: None
                    }
                );
                vm
            }
            _ => unreachable!(),
        };
        out.clear();
        d.handle_new(&new_dep(6, 0, a), &t, &mut out).unwrap();
        let vm2 = match out[0].msg {
            TrsMsg::Resolve { vm, .. } => vm,
            _ => unreachable!(),
        };
        out.clear();
        // One DM entry, three VM versions (paper: "one DM entry and three
        // VM entries have been assigned").
        assert_eq!(d.dm.live(), 1);
        assert_eq!(d.vm.live(), 3);

        // T1 finishes: wake the LAST consumer (T4), link 1.
        d.handle_fin(
            DepFinMsg {
                vm: vm0,
                from: SlotRef::new(0, 1),
            },
            &t,
            &mut out,
        );
        assert_eq!(
            out,
            vec![DctEmit {
                trs: 0,
                msg: TrsMsg::Wake {
                    slot: SlotRef::new(0, 4),
                    vm: vm0
                }
            }]
        );
        out.clear();

        // T2, T3 finish: counters only. T4's finish drains v0: wake T5
        // (link 4) and delete the first VM entry.
        for c in [2, 3] {
            d.handle_fin(
                DepFinMsg {
                    vm: vm0,
                    from: SlotRef::new(0, c),
                },
                &t,
                &mut out,
            );
            assert!(out.is_empty(), "consumer {c} finish must not wake");
        }
        d.handle_fin(
            DepFinMsg {
                vm: vm0,
                from: SlotRef::new(0, 4),
            },
            &t,
            &mut out,
        );
        assert_eq!(
            out,
            vec![DctEmit {
                trs: 0,
                msg: TrsMsg::Wake {
                    slot: SlotRef::new(0, 5),
                    vm: vm1
                }
            }]
        );
        assert_eq!(d.vm.live(), 2);
        out.clear();

        // T5 finishes: wake T6, delete second entry.
        d.handle_fin(
            DepFinMsg {
                vm: vm1,
                from: SlotRef::new(0, 5),
            },
            &t,
            &mut out,
        );
        assert_eq!(
            out,
            vec![DctEmit {
                trs: 0,
                msg: TrsMsg::Wake {
                    slot: SlotRef::new(0, 6),
                    vm: vm2
                }
            }]
        );
        out.clear();

        // T6 finishes: everything is deleted.
        d.handle_fin(
            DepFinMsg {
                vm: vm2,
                from: SlotRef::new(0, 6),
            },
            &t,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(d.vm.live(), 0);
        assert_eq!(d.dm.live(), 0);
    }

    #[test]
    fn pure_readers_are_all_ready() {
        let mut d = dct();
        let t = Timing::default();
        let mut out = Vec::new();
        for slot in 1..=3 {
            d.handle_new(&new_dep(slot, 0, Dependence::input(0xC0)), &t, &mut out)
                .unwrap();
        }
        assert!(ready_of(&out).iter().all(|(_, k)| *k == ResolveKind::Ready));
        // One shared version with three consumers.
        assert_eq!(d.vm.live(), 1);
        // All three finish: version drains, DM freed.
        let vm = VmRef::new(0, 0);
        out.clear();
        for slot in 1..=3 {
            d.handle_fin(
                DepFinMsg {
                    vm,
                    from: SlotRef::new(0, slot),
                },
                &t,
                &mut out,
            );
        }
        assert!(out.is_empty());
        assert_eq!(d.dm.live(), 0);
    }

    #[test]
    fn consumer_after_producer_finished_is_ready() {
        let mut d = dct();
        let t = Timing::default();
        let mut out = Vec::new();
        d.handle_new(&new_dep(1, 0, Dependence::output(0xD0)), &t, &mut out)
            .unwrap();
        let vm = match out[0].msg {
            TrsMsg::Resolve { vm, .. } => vm,
            _ => unreachable!(),
        };
        out.clear();
        // Producer finishes with no consumers and no next version...
        d.handle_fin(
            DepFinMsg {
                vm,
                from: SlotRef::new(0, 1),
            },
            &t,
            &mut out,
        );
        assert!(out.is_empty());
        // ... so the entry is deleted; a late consumer is independent.
        assert_eq!(d.dm.live(), 0);
        d.handle_new(&new_dep(2, 0, Dependence::input(0xD0)), &t, &mut out)
            .unwrap();
        assert_eq!(ready_of(&out), vec![(2, ResolveKind::Ready)]);
    }

    #[test]
    fn dm_conflict_blocks() {
        let mut d = Dct::new(0, Dm::new(DmDesign::EightWay, 64), Vm::new(64));
        let t = Timing::default();
        let mut out = Vec::new();
        // Fill set 0 with eight clustered producers.
        for i in 0..8u16 {
            d.handle_new(
                &new_dep(i + 1, 0, Dependence::inout(0x1000 + u64::from(i) * 0x40000)),
                &t,
                &mut out,
            )
            .unwrap();
        }
        out.clear();
        let r = d.handle_new(
            &new_dep(20, 0, Dependence::inout(0x1000 + 9 * 0x40000)),
            &t,
            &mut out,
        );
        assert_eq!(r.unwrap_err(), DctBlocked::DmConflict);
        assert!(out.is_empty(), "blocked dependence must not emit");
    }

    #[test]
    fn vm_full_blocks() {
        let mut d = Dct::new(0, Dm::new(DmDesign::PearsonEightWay, 64), Vm::new(1));
        let t = Timing::default();
        let mut out = Vec::new();
        d.handle_new(&new_dep(1, 0, Dependence::inout(0xE0)), &t, &mut out)
            .unwrap();
        let r = d.handle_new(&new_dep(2, 0, Dependence::inout(0xF0)), &t, &mut out);
        assert_eq!(r.unwrap_err(), DctBlocked::VmFull);
        // A producer on the SAME address also needs a version.
        let r = d.handle_new(&new_dep(3, 0, Dependence::inout(0xE0)), &t, &mut out);
        assert_eq!(r.unwrap_err(), DctBlocked::VmFull);
    }

    #[test]
    fn dct_for_addr_is_stable_and_in_range() {
        for n in [1usize, 2, 4] {
            for a in [0u64, 0x40, 0x1234_5678, u64::MAX] {
                let d = dct_for_addr(a, n);
                assert!(usize::from(d) < n);
                assert_eq!(d, dct_for_addr(a, n));
            }
        }
        assert_eq!(dct_for_addr(0xABCD, 1), 0);
    }

    #[test]
    fn producer_after_consumers_waits_for_war() {
        let mut d = dct();
        let t = Timing::default();
        let mut out = Vec::new();
        // Reader opens the version (no producer).
        d.handle_new(&new_dep(1, 0, Dependence::input(0xAA)), &t, &mut out)
            .unwrap();
        out.clear();
        // Writer must wait for the reader (WAR).
        d.handle_new(&new_dep(2, 0, Dependence::output(0xAA)), &t, &mut out)
            .unwrap();
        match out[0].msg {
            TrsMsg::Resolve { kind, .. } => {
                assert_eq!(
                    kind,
                    ResolveKind::Dependent {
                        prev_consumer: None
                    }
                )
            }
            ref other => panic!("unexpected {other:?}"),
        }
        out.clear();
        // Reader finishes: head version drains, writer woken.
        d.handle_fin(
            DepFinMsg {
                vm: VmRef::new(0, 0),
                from: SlotRef::new(0, 1),
            },
            &t,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].msg, TrsMsg::Wake { slot, .. } if slot == SlotRef::new(0, 2)));
    }
}
