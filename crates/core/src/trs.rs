//! Task Reservation Station: the major task-management unit.
//!
//! The TRS "stores in-flight tasks, tracks the readiness of new tasks and
//! manages the deletion of finished tasks" (paper, Section III-A). Its four
//! message handlers implement the N3/N5/N6 steps of new-task processing, the
//! F2/F3 steps of finished-task processing and the backwards consumer-chain
//! wake-up of Section III-D.

use crate::config::Timing;
use crate::msg::{DepFinMsg, ResolveKind, SlotRef, TrsMsg, VmRef};
use crate::tm::{Tm, TmDep};
use crate::Cycle;
use picos_trace::snap::{Dec, Enc};
use picos_trace::{SnapError, TaskId, Value};

/// Packets a TRS emits while handling one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrsEmit {
    /// N6: the task is ready; hand it to the TS.
    ReadyToTs {
        /// Software task id.
        task: TaskId,
        /// The task's slot (quoted back on finish).
        slot: SlotRef,
    },
    /// F3: tell a DCT one dependence of a finished task is released.
    DepFinished {
        /// Destination DCT instance.
        dct: u8,
        /// The release packet.
        msg: DepFinMsg,
    },
    /// Backwards chain link: wake the previous consumer (routed through the
    /// Arbiter, possibly to another TRS instance).
    ChainWake {
        /// Destination TRS instance.
        trs: u8,
        /// The slot to wake.
        slot: SlotRef,
        /// The version being satisfied.
        vm: VmRef,
    },
}

/// One Task Reservation Station instance.
#[derive(Debug, Clone)]
pub struct Trs {
    id: u8,
    /// The TM0 + TMX storage.
    pub tm: Tm,
    /// Wake-ups that arrived before their dependence's resolve packet.
    ///
    /// The DCT's finish engine can answer faster than its new-dependence
    /// pipeline, so a `Wake` may overtake the `Resolve{Dependent}` that
    /// creates the TMX record it targets. The hardware interlocks this
    /// case; the model holds the wake until the record appears.
    pending_wakes: Vec<(SlotRef, VmRef)>,
    tasks_dispatched: u64,
    wakes_forwarded: u64,
    early_wakes: u64,
}

impl Trs {
    /// Creates TRS instance `id` with `tm_entries` task slots.
    pub fn new(id: u8, tm_entries: usize) -> Self {
        Trs {
            id,
            tm: Tm::new(tm_entries),
            pending_wakes: Vec::new(),
            tasks_dispatched: 0,
            wakes_forwarded: 0,
            early_wakes: 0,
        }
    }

    /// Instance index.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Tasks this TRS has marked ready (sent to the TS).
    pub fn tasks_dispatched(&self) -> u64 {
        self.tasks_dispatched
    }

    /// Chain wake-ups this TRS forwarded backwards.
    pub fn wakes_forwarded(&self) -> u64 {
        self.wakes_forwarded
    }

    /// Wake-ups that overtook their resolve packet and had to be held.
    pub fn early_wakes(&self) -> u64 {
        self.early_wakes
    }

    /// Serializes the dynamic state: the Task Memory, held early wakes and
    /// the instance counters.
    pub fn save_state(&self) -> Value {
        let Self {
            id,
            tm,
            pending_wakes,
            tasks_dispatched,
            wakes_forwarded,
            early_wakes,
        } = self;
        let mut e = Enc::new();
        e.put(id)
            .val(tm.save_state())
            .put(pending_wakes)
            .put(tasks_dispatched)
            .put(wakes_forwarded)
            .put(early_wakes);
        e.done()
    }

    /// Overwrites the dynamic state from [`Trs::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or an instance mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "trs")?;
        d.guard("trs id", self.id)?;
        self.tm.load_state(d.val()?)?;
        self.pending_wakes = d.take()?;
        self.tasks_dispatched = d.take()?;
        self.wakes_forwarded = d.take()?;
        self.early_wakes = d.take()?;
        Ok(())
    }

    /// Satisfies the dependence of `slot` tracked by `vm`: marks it
    /// resolved, dispatches the task if complete, and follows the consumer
    /// chain backwards.
    fn apply_wake(&mut self, slot: SlotRef, vm: VmRef, out: &mut Vec<TrsEmit>) {
        let e = self.tm.get_mut(slot.entry);
        let dep = e
            .dep_by_vm_mut(vm)
            .expect("apply_wake requires a registered dependence");
        dep.resolved = true;
        let chain = dep.chained_prev.take();
        e.ready_deps += 1;
        if e.all_ready() && !e.dispatched {
            e.dispatched = true;
            self.tasks_dispatched += 1;
            out.push(TrsEmit::ReadyToTs { task: e.task, slot });
        }
        // Follow the consumer chain backwards (paper, Figure 5: links 2
        // and 3 are issued by the TRS via the Arbiter).
        if let Some(prev) = chain {
            self.wakes_forwarded += 1;
            out.push(TrsEmit::ChainWake {
                trs: prev.trs,
                slot: prev,
                vm,
            });
        }
    }

    /// Handles one message; returns the service cost in cycles and appends
    /// output packets to `out`.
    pub fn handle(&mut self, msg: TrsMsg, t: &Timing, out: &mut Vec<TrsEmit>) -> Cycle {
        match msg {
            TrsMsg::NewTask {
                slot,
                task,
                num_deps,
            } => {
                debug_assert_eq!(slot.trs, self.id);
                let e = self.tm.get_mut(slot.entry);
                debug_assert_eq!(e.task, task, "slot/task mismatch");
                debug_assert_eq!(e.num_deps, num_deps);
                // If the task has no dependences it is ready at once (N6).
                if e.all_ready() && !e.dispatched {
                    e.dispatched = true;
                    self.tasks_dispatched += 1;
                    out.push(TrsEmit::ReadyToTs { task, slot });
                }
                t.trs_new
            }
            TrsMsg::Resolve {
                slot,
                dep_idx,
                vm,
                kind,
            } => {
                debug_assert_eq!(slot.trs, self.id);
                let e = self.tm.get_mut(slot.entry);
                let (resolved, chained_prev) = match kind {
                    ResolveKind::Ready => (true, None),
                    ResolveKind::Dependent { prev_consumer } => (false, prev_consumer),
                };
                e.deps.push(TmDep {
                    dep_idx,
                    vm,
                    chained_prev,
                    resolved,
                });
                if resolved {
                    e.ready_deps += 1;
                    if e.all_ready() && !e.dispatched {
                        e.dispatched = true;
                        self.tasks_dispatched += 1;
                        out.push(TrsEmit::ReadyToTs { task: e.task, slot });
                    }
                } else if let Some(pos) = self
                    .pending_wakes
                    .iter()
                    .position(|&(s, v)| s == slot && v == vm)
                {
                    // A wake overtook this resolve: satisfy it now.
                    self.pending_wakes.swap_remove(pos);
                    self.apply_wake(slot, vm, out);
                }
                t.trs_resolve
            }
            TrsMsg::Wake { slot, vm } => {
                debug_assert_eq!(slot.trs, self.id);
                if self.tm.get_mut(slot.entry).dep_by_vm_mut(vm).is_none() {
                    // The resolve packet for this dependence is still in
                    // flight; hold the wake until it lands.
                    self.early_wakes += 1;
                    self.pending_wakes.push((slot, vm));
                } else {
                    self.apply_wake(slot, vm, out);
                }
                t.trs_wake
            }
            TrsMsg::Finished { slot } => {
                debug_assert_eq!(slot.trs, self.id);
                let e = self.tm.get(slot.entry);
                debug_assert!(e.dispatched, "finish for a task never dispatched");
                debug_assert!(e.all_ready(), "finish for a task not ready");
                let ndeps = e.deps.len();
                for d in &e.deps {
                    out.push(TrsEmit::DepFinished {
                        dct: d.vm.dct,
                        msg: DepFinMsg {
                            vm: d.vm,
                            from: slot,
                        },
                    });
                }
                self.tm.free(slot.entry);
                t.trs_fin + t.trs_fin_dep * ndeps as Cycle
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Trs, Timing, Vec<TrsEmit>) {
        (Trs::new(0, 16), Timing::default(), Vec::new())
    }

    fn new_task(trs: &mut Trs, task: u32, num_deps: u8) -> SlotRef {
        let entry = trs.tm.alloc(TaskId::new(task), num_deps).unwrap();
        SlotRef::new(0, entry)
    }

    #[test]
    fn independent_task_goes_straight_to_ts() {
        let (mut trs, t, mut out) = setup();
        let slot = new_task(&mut trs, 1, 0);
        let cost = trs.handle(
            TrsMsg::NewTask {
                slot,
                task: TaskId::new(1),
                num_deps: 0,
            },
            &t,
            &mut out,
        );
        assert_eq!(cost, t.trs_new);
        assert_eq!(
            out,
            vec![TrsEmit::ReadyToTs {
                task: TaskId::new(1),
                slot
            }]
        );
        assert_eq!(trs.tasks_dispatched(), 1);
    }

    #[test]
    fn ready_resolve_counts_up_to_dispatch() {
        let (mut trs, t, mut out) = setup();
        let slot = new_task(&mut trs, 2, 2);
        trs.handle(
            TrsMsg::NewTask {
                slot,
                task: TaskId::new(2),
                num_deps: 2,
            },
            &t,
            &mut out,
        );
        assert!(out.is_empty());
        trs.handle(
            TrsMsg::Resolve {
                slot,
                dep_idx: 0,
                vm: VmRef::new(0, 1),
                kind: ResolveKind::Ready,
            },
            &t,
            &mut out,
        );
        assert!(out.is_empty(), "one of two deps ready");
        trs.handle(
            TrsMsg::Resolve {
                slot,
                dep_idx: 1,
                vm: VmRef::new(0, 2),
                kind: ResolveKind::Ready,
            },
            &t,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], TrsEmit::ReadyToTs { .. }));
    }

    #[test]
    fn dependent_then_wake() {
        let (mut trs, t, mut out) = setup();
        let slot = new_task(&mut trs, 3, 1);
        trs.handle(
            TrsMsg::NewTask {
                slot,
                task: TaskId::new(3),
                num_deps: 1,
            },
            &t,
            &mut out,
        );
        trs.handle(
            TrsMsg::Resolve {
                slot,
                dep_idx: 0,
                vm: VmRef::new(0, 4),
                kind: ResolveKind::Dependent {
                    prev_consumer: None,
                },
            },
            &t,
            &mut out,
        );
        assert!(out.is_empty());
        trs.handle(
            TrsMsg::Wake {
                slot,
                vm: VmRef::new(0, 4),
            },
            &t,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], TrsEmit::ReadyToTs { .. }));
    }

    #[test]
    fn wake_follows_consumer_chain_backwards() {
        let (mut trs, t, mut out) = setup();
        // Two consumer tasks of the same version; the second chains to the
        // first (it arrived later, so it is woken first).
        let s1 = new_task(&mut trs, 10, 1);
        let s2 = new_task(&mut trs, 11, 1);
        let vm = VmRef::new(0, 9);
        for (slot, task, prev) in [(s1, 10, None), (s2, 11, Some(s1))] {
            trs.handle(
                TrsMsg::NewTask {
                    slot,
                    task: TaskId::new(task),
                    num_deps: 1,
                },
                &t,
                &mut out,
            );
            trs.handle(
                TrsMsg::Resolve {
                    slot,
                    dep_idx: 0,
                    vm,
                    kind: ResolveKind::Dependent {
                        prev_consumer: prev,
                    },
                },
                &t,
                &mut out,
            );
        }
        assert!(out.is_empty());
        // DCT wakes the LAST consumer (s2).
        trs.handle(TrsMsg::Wake { slot: s2, vm }, &t, &mut out);
        // s2 is ready AND a chain wake to s1 is emitted.
        assert_eq!(out.len(), 2);
        assert!(out.contains(&TrsEmit::ReadyToTs {
            task: TaskId::new(11),
            slot: s2
        }));
        assert!(out.contains(&TrsEmit::ChainWake {
            trs: 0,
            slot: s1,
            vm
        }));
        assert_eq!(trs.wakes_forwarded(), 1);
        out.clear();
        // The chain wake is routed back (engine does this); s1 becomes ready.
        trs.handle(TrsMsg::Wake { slot: s1, vm }, &t, &mut out);
        assert_eq!(
            out,
            vec![TrsEmit::ReadyToTs {
                task: TaskId::new(10),
                slot: s1
            }]
        );
    }

    #[test]
    fn finish_releases_every_dep_and_frees_slot() {
        let (mut trs, t, mut out) = setup();
        let slot = new_task(&mut trs, 4, 2);
        trs.handle(
            TrsMsg::NewTask {
                slot,
                task: TaskId::new(4),
                num_deps: 2,
            },
            &t,
            &mut out,
        );
        trs.handle(
            TrsMsg::Resolve {
                slot,
                dep_idx: 0,
                vm: VmRef::new(0, 1),
                kind: ResolveKind::Ready,
            },
            &t,
            &mut out,
        );
        trs.handle(
            TrsMsg::Resolve {
                slot,
                dep_idx: 1,
                vm: VmRef::new(1, 2),
                kind: ResolveKind::Ready,
            },
            &t,
            &mut out,
        );
        out.clear();
        let live_before = trs.tm.live();
        let cost = trs.handle(TrsMsg::Finished { slot }, &t, &mut out);
        assert_eq!(cost, t.trs_fin + 2 * t.trs_fin_dep);
        assert_eq!(trs.tm.live(), live_before - 1);
        let dcts: Vec<u8> = out
            .iter()
            .map(|e| match e {
                TrsEmit::DepFinished { dct, .. } => *dct,
                other => panic!("unexpected emit {other:?}"),
            })
            .collect();
        assert_eq!(
            dcts,
            vec![0, 1],
            "one release per dependence, routed per DCT"
        );
    }
}
