//! Task Memory: the per-TRS storage for in-flight tasks.
//!
//! TM0 stores task identity, the dependence count and the ready count; the
//! TMX memories store one record per dependence — the VM address the DCT
//! reported and, for consumer chains, the previous consumer to wake next
//! (paper, Section III-A/III-D). One TM entry is one "TRS slot"; the paper's
//! prototype has 256 of them, bounding the in-flight tasks.

use crate::msg::{SlotRef, VmRef};
use crate::snap::{put_live, take_live};
use picos_trace::snap::{Dec, Enc};
use picos_trace::{snap_record, SnapError, TaskId, Value};

/// One TMX dependence record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmDep {
    /// Index of the dependence within the task.
    pub dep_idx: u8,
    /// The VM entry tracking this dependence.
    pub vm: VmRef,
    /// Previous consumer of the same version: the next chain link to wake
    /// when this dependence is woken (paper, Figure 5 dashed links).
    pub chained_prev: Option<SlotRef>,
    /// Whether the dependence has been satisfied.
    pub resolved: bool,
}

/// One TM entry: an in-flight task.
#[derive(Debug, Clone)]
pub struct TmEntry {
    /// Software task id.
    pub task: TaskId,
    /// Number of dependences the task carries.
    pub num_deps: u8,
    /// Number of dependences already satisfied.
    pub ready_deps: u8,
    /// TMX records, filled in as the DCT answers (N5 packets).
    pub deps: Vec<TmDep>,
    /// Whether the task has been handed to the TS already.
    pub dispatched: bool,
}

impl TmEntry {
    /// Whether every dependence is satisfied.
    pub fn all_ready(&self) -> bool {
        self.ready_deps == self.num_deps
    }

    /// Finds the unresolved TMX record tracking `vm`.
    pub fn dep_by_vm_mut(&mut self, vm: VmRef) -> Option<&mut TmDep> {
        self.deps.iter_mut().find(|d| d.vm == vm && !d.resolved)
    }
}

snap_record!(TmDep {
    dep_idx,
    vm,
    chained_prev,
    resolved
});
snap_record!(TmEntry {
    task,
    num_deps,
    ready_deps,
    dispatched,
    deps
});

/// The Task Memory of one TRS instance.
#[derive(Debug, Clone)]
pub struct Tm {
    entries: Vec<Option<TmEntry>>,
    free: Vec<u16>,
    /// Retired TMX vectors, recycled by [`Tm::alloc`] so the steady-state
    /// task flow performs no heap allocation.
    spare_deps: Vec<Vec<TmDep>>,
    peak_live: usize,
}

impl Tm {
    /// Creates a TM with `capacity` entries (paper: 256).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= 65536);
        Tm {
            entries: vec![None; capacity],
            free: (0..capacity as u16).rev().collect(),
            spare_deps: Vec::new(),
            peak_live: 0,
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of in-flight tasks.
    pub fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Highest number of simultaneously live tasks observed.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Whether a slot is available.
    pub fn has_space(&self) -> bool {
        !self.free.is_empty()
    }

    /// Reserves a slot for a task about to be dispatched by the GW.
    ///
    /// The entry is initialised empty; the TRS fills it when the `NewTask`
    /// packet arrives. Returns `None` when the TM is full (the GW must not
    /// process the new task yet — paper, Section III-B N2).
    pub fn alloc(&mut self, task: TaskId, num_deps: u8) -> Option<u16> {
        let idx = self.free.pop()?;
        let deps = self
            .spare_deps
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(num_deps as usize));
        self.entries[idx as usize] = Some(TmEntry {
            task,
            num_deps,
            ready_deps: 0,
            deps,
            dispatched: false,
        });
        self.peak_live = self.peak_live.max(self.live());
        Some(idx)
    }

    /// Frees a slot after its task finished and its dependences were
    /// released (F-flow step 3: "deletes the task inside the assigned TM
    /// slot"). The TMX vector is recycled for the next allocation.
    pub fn free(&mut self, idx: u16) {
        let e = self.entries[idx as usize]
            .take()
            .unwrap_or_else(|| panic!("double free of TM {idx}"));
        let mut deps = e.deps;
        deps.clear();
        self.spare_deps.push(deps);
        self.free.push(idx);
    }

    /// Borrows a live entry.
    pub fn get(&self, idx: u16) -> &TmEntry {
        self.entries[idx as usize]
            .as_ref()
            .expect("TM entry must be live")
    }

    /// Mutably borrows a live entry.
    pub fn get_mut(&mut self, idx: u16) -> &mut TmEntry {
        self.entries[idx as usize]
            .as_mut()
            .expect("TM entry must be live")
    }
}

impl Tm {
    /// Serializes the dynamic state: the free stack (exact order — it is
    /// an allocation stack), the peak and every live entry. The recycled
    /// `spare_deps` capacity pool is behaviourally inert and excluded.
    pub fn save_state(&self) -> Value {
        let Self {
            entries,
            free,
            spare_deps: _,
            peak_live,
        } = self;
        let mut e = Enc::new();
        e.put(&entries.len()).put(free).put(peak_live);
        put_live(&mut e, entries);
        e.done()
    }

    /// Overwrites the dynamic state from [`Tm::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or a capacity mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "tm")?;
        d.guard("tm capacity", self.entries.len())?;
        self.free = d.take()?;
        self.peak_live = d.take()?;
        take_live(&mut d, &mut self.entries, "tm")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_full() {
        let mut tm = Tm::new(2);
        let a = tm.alloc(TaskId::new(0), 1).unwrap();
        let b = tm.alloc(TaskId::new(1), 0).unwrap();
        assert_ne!(a, b);
        assert!(!tm.has_space());
        assert!(tm.alloc(TaskId::new(2), 0).is_none());
        tm.free(a);
        assert!(tm.has_space());
        assert_eq!(tm.live(), 1);
        assert_eq!(tm.peak_live(), 2);
    }

    #[test]
    fn entry_ready_logic() {
        let mut tm = Tm::new(4);
        let idx = tm.alloc(TaskId::new(7), 2).unwrap();
        {
            let e = tm.get_mut(idx);
            assert!(!e.all_ready());
            e.deps.push(TmDep {
                dep_idx: 0,
                vm: VmRef::new(0, 3),
                chained_prev: None,
                resolved: false,
            });
            e.ready_deps = 1;
            assert!(!e.all_ready());
            e.ready_deps = 2;
            assert!(e.all_ready());
        }
        assert_eq!(tm.get(idx).task, TaskId::new(7));
    }

    #[test]
    fn dep_lookup_by_vm_skips_resolved() {
        let mut tm = Tm::new(4);
        let idx = tm.alloc(TaskId::new(0), 2).unwrap();
        let e = tm.get_mut(idx);
        e.deps.push(TmDep {
            dep_idx: 0,
            vm: VmRef::new(0, 5),
            chained_prev: None,
            resolved: true,
        });
        e.deps.push(TmDep {
            dep_idx: 1,
            vm: VmRef::new(0, 9),
            chained_prev: Some(SlotRef::new(0, 2)),
            resolved: false,
        });
        assert!(
            e.dep_by_vm_mut(VmRef::new(0, 5)).is_none(),
            "resolved skipped"
        );
        let d = e.dep_by_vm_mut(VmRef::new(0, 9)).unwrap();
        assert_eq!(d.dep_idx, 1);
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn get_freed_entry_panics() {
        let mut tm = Tm::new(2);
        let a = tm.alloc(TaskId::new(0), 0).unwrap();
        tm.free(a);
        tm.get(a);
    }
}
