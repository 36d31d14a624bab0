//! Version Memory: live versions of each tracked dependence address.
//!
//! Since each address is saved only once in the DM, the VM "saves and
//! controls all its live versions" (paper, Section III-A): each `Out`/`InOut`
//! arrival opens a new version; `In` arrivals join the latest version as
//! consumers. A version records its producer slot, its most recent consumer
//! (the head of the TRS-side wake-up chain), consumer counters and the link
//! to the next version — everything Section III-D's dependence-chain example
//! exercises.

use crate::dm::DmSlot;
use crate::msg::{SlotRef, VmRef};
use crate::snap::{put_live, take_live};
use picos_trace::snap::{Dec, Enc};
use picos_trace::{snap_record, SnapError, Value};

/// One live version of a dependence address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmEntry {
    /// The task that produces this version; `None` for a version opened by
    /// pure readers (no producer to wait for).
    pub producer: Option<SlotRef>,
    /// Whether the producer has finished (vacuously true when `producer` is
    /// `None`).
    pub producer_finished: bool,
    /// The most recent consumer: the entry point of the wake-up chain that
    /// runs backwards through the TRS TMX links (paper, Figure 5).
    pub last_consumer: Option<SlotRef>,
    /// Total consumers registered on this version.
    pub consumers_total: u32,
    /// Consumers that have finished.
    pub consumers_finished: u32,
    /// The next (younger) version of the same address, if any.
    pub next: Option<VmRef>,
    /// The DM slot owning this version chain.
    pub dm_slot: DmSlot,
}

impl VmEntry {
    /// Whether the version is fully drained: producer finished and every
    /// registered consumer finished.
    pub fn drained(&self) -> bool {
        self.producer_finished && self.consumers_finished == self.consumers_total
    }
}

snap_record!(VmEntry {
    producer,
    producer_finished,
    last_consumer,
    consumers_total,
    consumers_finished,
    next,
    dm_slot
});

/// The Version Memory of one DCT instance: a fixed-capacity slab.
#[derive(Debug, Clone)]
pub struct Vm {
    entries: Vec<Option<VmEntry>>,
    free: Vec<u16>,
    stalls: u64,
    peak_live: usize,
}

impl Vm {
    /// Creates a VM with `capacity` entries (paper: 512, or 1024 for the
    /// 16-way DM).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= 65536);
        Vm {
            entries: vec![None; capacity],
            free: (0..capacity as u16).rev().collect(),
            stalls: 0,
            peak_live: 0,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of live versions.
    pub fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Highest number of simultaneously live versions observed.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Number of allocation failures recorded (capacity stalls).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Records one capacity-stall event.
    pub fn count_stall(&mut self) {
        self.stalls += 1;
    }

    /// Whether an allocation would succeed.
    pub fn has_space(&self) -> bool {
        !self.free.is_empty()
    }

    /// Allocates a version entry; `None` when the VM is full (the DCT must
    /// stall the dependence until a version retires).
    pub fn alloc(&mut self, entry: VmEntry) -> Option<u16> {
        let idx = self.free.pop()?;
        self.entries[idx as usize] = Some(entry);
        self.peak_live = self.peak_live.max(self.live());
        Some(idx)
    }

    /// Frees a version entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the entry is not live.
    pub fn free(&mut self, idx: u16) {
        debug_assert!(
            self.entries[idx as usize].is_some(),
            "double free of VM {idx}"
        );
        self.entries[idx as usize] = None;
        self.free.push(idx);
    }

    /// Borrows a live version.
    pub fn get(&self, idx: u16) -> &VmEntry {
        self.entries[idx as usize]
            .as_ref()
            .expect("VM entry must be live")
    }

    /// Mutably borrows a live version.
    pub fn get_mut(&mut self, idx: u16) -> &mut VmEntry {
        self.entries[idx as usize]
            .as_mut()
            .expect("VM entry must be live")
    }
}

impl Vm {
    /// Serializes the dynamic state: the free stack (exact order), the
    /// counters and every live version.
    pub fn save_state(&self) -> Value {
        let Self {
            entries,
            free,
            stalls,
            peak_live,
        } = self;
        let mut e = Enc::new();
        e.put(&entries.len()).put(free).put(stalls).put(peak_live);
        put_live(&mut e, entries);
        e.done()
    }

    /// Overwrites the dynamic state from [`Vm::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or a capacity mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "vm")?;
        d.guard("vm capacity", self.entries.len())?;
        self.free = d.take()?;
        self.stalls = d.take()?;
        self.peak_live = d.take()?;
        take_live(&mut d, &mut self.entries, "vm")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> VmEntry {
        VmEntry {
            producer: Some(SlotRef::new(0, 1)),
            producer_finished: false,
            last_consumer: None,
            consumers_total: 0,
            consumers_finished: 0,
            next: None,
            dm_slot: DmSlot { set: 0, way: 0 },
        }
    }

    #[test]
    fn alloc_free_cycle() {
        let mut vm = Vm::new(4);
        let a = vm.alloc(entry()).unwrap();
        let b = vm.alloc(entry()).unwrap();
        assert_ne!(a, b);
        assert_eq!(vm.live(), 2);
        vm.free(a);
        assert_eq!(vm.live(), 1);
        let c = vm.alloc(entry()).unwrap();
        assert_eq!(c, a, "freed entry is reused");
    }

    #[test]
    fn capacity_exhaustion() {
        let mut vm = Vm::new(2);
        vm.alloc(entry()).unwrap();
        vm.alloc(entry()).unwrap();
        assert!(!vm.has_space());
        assert!(vm.alloc(entry()).is_none());
        vm.count_stall();
        assert_eq!(vm.stalls(), 1);
    }

    #[test]
    fn drained_logic() {
        let mut e = entry();
        assert!(!e.drained());
        e.producer_finished = true;
        assert!(e.drained());
        e.consumers_total = 2;
        e.consumers_finished = 1;
        assert!(!e.drained());
        e.consumers_finished = 2;
        assert!(e.drained());
    }

    #[test]
    fn pure_reader_version_drains_on_consumers() {
        let mut e = VmEntry {
            producer: None,
            producer_finished: true,
            last_consumer: Some(SlotRef::new(0, 5)),
            consumers_total: 1,
            consumers_finished: 0,
            next: None,
            dm_slot: DmSlot { set: 1, way: 2 },
        };
        assert!(!e.drained());
        e.consumers_finished = 1;
        assert!(e.drained());
    }

    #[test]
    fn peak_live_monotone() {
        let mut vm = Vm::new(8);
        let a = vm.alloc(entry()).unwrap();
        let _b = vm.alloc(entry()).unwrap();
        vm.free(a);
        assert_eq!(vm.peak_live(), 2);
        assert_eq!(vm.live(), 1);
    }

    #[test]
    fn get_and_mutate() {
        let mut vm = Vm::new(2);
        let a = vm.alloc(entry()).unwrap();
        vm.get_mut(a).consumers_total = 7;
        assert_eq!(vm.get(a).consumers_total, 7);
    }
}
