//! Dependence Memory: the address-matching cache of the DCT.
//!
//! For each new dependence the DM performs address matching against the
//! dependences that arrived earlier; each distinct live address occupies one
//! way of one set (paper, Section III-C). The three designs differ in
//! associativity and index function:
//!
//! * `DM 8way` — 64 sets x 8 ways, direct index (address LSBs),
//! * `DM 16way` — 64 sets x 16 ways, direct index,
//! * `DM P+8way` — 64 sets x 8 ways, Pearson-hashed index.
//!
//! A **conflict** occurs when a new address misses and its set has no free
//! way; the DCT must stall that dependence until an entry retires. Conflict
//! counts are the paper's Table II.

use crate::config::DmDesign;
use crate::msg::VmRef;
use crate::pearson::{direct_index, pearson_index};
use crate::snap::{put_live, take_live};
use picos_trace::snap::{Dec, Enc};
use picos_trace::{snap_record, SnapError, Value};

/// Location of a DM entry: `(set, way)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmSlot {
    /// Set index.
    pub set: usize,
    /// Way index within the set.
    pub way: usize,
}

/// One DM way: a live tracked address.
#[derive(Debug, Clone)]
struct DmEntry {
    /// The dependence address (the cache tag; full 64 bits compared).
    tag: u64,
    /// Oldest live version of this address.
    vm_head: VmRef,
    /// Latest version of this address (where new arrivals append).
    vm_tail: VmRef,
    /// Number of live versions.
    live_versions: u32,
    /// Total arrivals referencing this entry (the paper's per-entry count).
    refs: u32,
    /// Whether every arrival so far was an input (the paper's `I` bit).
    all_inputs: bool,
}

snap_record!(DmEntry {
    tag,
    vm_head,
    vm_tail,
    live_versions,
    refs,
    all_inputs
});

/// Outcome of a DM lookup-or-insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmAccess {
    /// The address is already tracked.
    Hit(DmSlot),
    /// The address was inserted into a free way.
    Inserted(DmSlot),
    /// The set is full: a DM conflict; the dependence must stall.
    Conflict,
}

/// The Dependence Memory of one DCT instance.
#[derive(Debug, Clone)]
pub struct Dm {
    design: DmDesign,
    sets: usize,
    ways: usize,
    entries: Vec<Option<DmEntry>>,
    /// Live ways per set: lets lookups skip empty sets and inserts skip the
    /// free-way search in full sets.
    occupancy: Vec<u16>,
    live: usize,
    conflicts: u64,
    peak_live: usize,
}

impl Dm {
    /// Creates an empty DM with the given design and set count.
    pub fn new(design: DmDesign, sets: usize) -> Self {
        let ways = design.ways();
        Dm {
            design,
            sets,
            ways,
            entries: vec![None; sets * ways],
            occupancy: vec![0; sets],
            live: 0,
            conflicts: 0,
            peak_live: 0,
        }
    }

    /// The design of this DM.
    pub fn design(&self) -> DmDesign {
        self.design
    }

    /// Total way capacity (distinct simultaneous addresses).
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Highest number of simultaneously live entries observed.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Number of conflicts recorded so far (Table II).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Records one conflict event (called once per stalled dependence).
    pub fn count_conflict(&mut self) {
        self.conflicts += 1;
    }

    /// The set index of an address under this design's hash.
    pub fn index(&self, addr: u64) -> usize {
        if self.design.uses_pearson() {
            pearson_index(addr, self.sets)
        } else {
            direct_index(addr, self.sets)
        }
    }

    fn at(&self, slot: DmSlot) -> &DmEntry {
        self.entries[slot.set * self.ways + slot.way]
            .as_ref()
            .expect("DM slot must be live")
    }

    fn at_mut(&mut self, slot: DmSlot) -> &mut DmEntry {
        self.entries[slot.set * self.ways + slot.way]
            .as_mut()
            .expect("DM slot must be live")
    }

    /// Looks up an address; does not insert. Empty sets are skipped via
    /// the occupancy count without touching the ways.
    pub fn lookup(&self, addr: u64) -> Option<DmSlot> {
        let set = self.index(addr);
        if self.occupancy[set] == 0 {
            return None;
        }
        let base = set * self.ways;
        for (way, e) in self.entries[base..base + self.ways].iter().enumerate() {
            if let Some(e) = e {
                if e.tag == addr {
                    return Some(DmSlot { set, way });
                }
            }
        }
        None
    }

    /// Records another arrival on an entry already located by
    /// [`Dm::lookup`]: the hit-path bookkeeping of [`Dm::access`] without
    /// re-walking the set.
    pub fn touch(&mut self, slot: DmSlot, is_input: bool) {
        let e = self.at_mut(slot);
        e.refs += 1;
        e.all_inputs &= is_input;
    }

    /// Looks up an address and, on miss, tries to claim the free way with
    /// the lowest index (paper: "way 0 has the highest priority").
    ///
    /// The set index is computed once and the set's contiguous way slice
    /// is walked a single time, tracking the tag match and the first free
    /// way together; full sets skip the free-way search entirely.
    ///
    /// On [`DmAccess::Inserted`] the caller must immediately call
    /// [`Dm::bind`] to attach the first VM version. Does **not** count
    /// conflicts; the DCT counts them once per stalled dependence via
    /// [`Dm::count_conflict`].
    pub fn access(&mut self, addr: u64, is_input: bool) -> DmAccess {
        let set = self.index(addr);
        let base = set * self.ways;
        let set_full = self.occupancy[set] as usize == self.ways;
        let mut first_free = None;
        for (way, e) in self.entries[base..base + self.ways].iter_mut().enumerate() {
            match e {
                Some(e) if e.tag == addr => {
                    e.refs += 1;
                    e.all_inputs &= is_input;
                    return DmAccess::Hit(DmSlot { set, way });
                }
                None if !set_full && first_free.is_none() => first_free = Some(way),
                _ => {}
            }
        }
        let Some(way) = first_free else {
            return DmAccess::Conflict;
        };
        self.entries[base + way] = Some(DmEntry {
            tag: addr,
            vm_head: VmRef::new(0, 0),
            vm_tail: VmRef::new(0, 0),
            live_versions: 0,
            refs: 1,
            all_inputs: is_input,
        });
        self.occupancy[set] += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        DmAccess::Inserted(DmSlot { set, way })
    }

    /// Attaches the first VM version to a freshly inserted entry.
    pub fn bind(&mut self, slot: DmSlot, vm: VmRef) {
        let e = self.at_mut(slot);
        debug_assert_eq!(e.live_versions, 0, "bind expects a fresh entry");
        e.vm_head = vm;
        e.vm_tail = vm;
        e.live_versions = 1;
    }

    /// The latest version of the entry (where new arrivals append).
    pub fn tail(&self, slot: DmSlot) -> VmRef {
        self.at(slot).vm_tail
    }

    /// Number of live versions chained on the entry (the paper's
    /// dependence-chain depth for this address).
    pub fn chain_len(&self, slot: DmSlot) -> u32 {
        self.at(slot).live_versions
    }

    /// The oldest live version of the entry.
    pub fn head(&self, slot: DmSlot) -> VmRef {
        self.at(slot).vm_head
    }

    /// Whether all arrivals on this entry so far were inputs.
    pub fn all_inputs(&self, slot: DmSlot) -> bool {
        self.at(slot).all_inputs
    }

    /// Appends a new version at the tail.
    pub fn push_version(&mut self, slot: DmSlot, vm: VmRef) {
        let e = self.at_mut(slot);
        debug_assert!(e.live_versions > 0);
        e.vm_tail = vm;
        e.live_versions += 1;
    }

    /// Retires the head version. `next` is the new head; when `None`, the
    /// whole entry is freed and the way becomes available again.
    ///
    /// Returns `true` when the entry was freed.
    pub fn pop_version(&mut self, slot: DmSlot, next: Option<VmRef>) -> bool {
        let e = self.at_mut(slot);
        debug_assert!(e.live_versions > 0);
        e.live_versions -= 1;
        match next {
            Some(vm) => {
                debug_assert!(e.live_versions > 0, "next version implies entry stays live");
                e.vm_head = vm;
                false
            }
            None => {
                debug_assert_eq!(e.live_versions, 0, "freeing entry with live versions");
                self.entries[slot.set * self.ways + slot.way] = None;
                self.occupancy[slot.set] -= 1;
                self.live -= 1;
                true
            }
        }
    }
}

impl Dm {
    /// Serializes the dynamic state: conflict/peak counters and every live
    /// way. Occupancy counts and the live total are derived on load.
    pub fn save_state(&self) -> Value {
        let Self {
            design: _,
            sets,
            ways,
            entries,
            occupancy: _,
            live: _,
            conflicts,
            peak_live,
        } = self;
        let mut e = Enc::new();
        e.put(sets).put(ways).put(conflicts).put(peak_live);
        put_live(&mut e, entries);
        e.done()
    }

    /// Overwrites the dynamic state from [`Dm::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or a geometry mismatch.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "dm")?;
        d.guard("dm sets", self.sets)?;
        d.guard("dm ways", self.ways)?;
        self.conflicts = d.take()?;
        self.peak_live = d.take()?;
        self.live = take_live(&mut d, &mut self.entries, "dm")?;
        for (set, ways) in self.entries.chunks(self.ways).enumerate() {
            self.occupancy[set] = ways.iter().filter(|e| e.is_some()).count() as u16;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(design: DmDesign) -> Dm {
        Dm::new(design, 64)
    }

    #[test]
    fn insert_then_hit() {
        let mut m = dm(DmDesign::PearsonEightWay);
        let a = 0x4000_0040u64;
        let DmAccess::Inserted(slot) = m.access(a, true) else {
            panic!("expected insert");
        };
        m.bind(slot, VmRef::new(0, 3));
        assert_eq!(m.access(a, true), DmAccess::Hit(slot));
        assert_eq!(m.tail(slot), VmRef::new(0, 3));
        assert_eq!(m.head(slot), VmRef::new(0, 3));
        assert_eq!(m.live(), 1);
    }

    #[test]
    fn conflict_when_set_full_direct() {
        let mut m = dm(DmDesign::EightWay);
        // 8 addresses with identical low 6 bits fill set 0.
        for i in 0..8u64 {
            let r = m.access(0x1000_0000 + i * 64 * 1024, false);
            let DmAccess::Inserted(s) = r else { panic!() };
            m.bind(s, VmRef::new(0, i as u16));
        }
        assert_eq!(
            m.access(0x1000_0000 + 9 * 64 * 1024, false),
            DmAccess::Conflict
        );
        assert_eq!(m.live(), 8);
        m.count_conflict();
        assert_eq!(m.conflicts(), 1);
    }

    #[test]
    fn sixteen_way_absorbs_more() {
        let mut m = dm(DmDesign::SixteenWay);
        for i in 0..16u64 {
            let r = m.access(0x1000_0000 + i * 64 * 1024, false);
            assert!(matches!(r, DmAccess::Inserted(_)), "i={i}");
            if let DmAccess::Inserted(s) = r {
                m.bind(s, VmRef::new(0, i as u16));
            }
        }
        assert_eq!(
            m.access(0x1000_0000 + 16 * 64 * 1024, false),
            DmAccess::Conflict
        );
    }

    #[test]
    fn pearson_spreads_clustered_addresses() {
        let mut m = dm(DmDesign::PearsonEightWay);
        // 64 power-of-two-strided addresses that would all collide under
        // direct indexing insert fine here.
        let mut inserted = 0;
        for i in 0..64u64 {
            match m.access(0x1000_0000 + i * 64 * 1024, false) {
                DmAccess::Inserted(s) => {
                    m.bind(s, VmRef::new(0, i as u16));
                    inserted += 1;
                }
                DmAccess::Conflict => {}
                DmAccess::Hit(_) => panic!("distinct addresses cannot hit"),
            }
        }
        assert!(inserted > 48, "only {inserted} inserted");
    }

    #[test]
    fn way_priority_lowest_first() {
        let mut m = dm(DmDesign::EightWay);
        let DmAccess::Inserted(s0) = m.access(0x40, false) else {
            panic!()
        };
        assert_eq!(s0.way, 0);
        m.bind(s0, VmRef::new(0, 0));
        let DmAccess::Inserted(s1) = m.access(0x40 + 64, false) else {
            panic!()
        };
        assert_eq!(s1.way, 1);
    }

    #[test]
    fn version_chain_lifecycle() {
        let mut m = dm(DmDesign::PearsonEightWay);
        let DmAccess::Inserted(s) = m.access(0x99, false) else {
            panic!()
        };
        m.bind(s, VmRef::new(0, 0));
        m.push_version(s, VmRef::new(0, 1));
        m.push_version(s, VmRef::new(0, 2));
        assert_eq!(m.tail(s), VmRef::new(0, 2));
        assert_eq!(m.head(s), VmRef::new(0, 0));
        assert!(!m.pop_version(s, Some(VmRef::new(0, 1))));
        assert_eq!(m.head(s), VmRef::new(0, 1));
        assert!(!m.pop_version(s, Some(VmRef::new(0, 2))));
        assert!(m.pop_version(s, None));
        assert_eq!(m.live(), 0);
        // Way is reusable.
        assert!(matches!(m.access(0xABCD, false), DmAccess::Inserted(_)));
    }

    #[test]
    fn all_inputs_flag_clears_on_writer() {
        let mut m = dm(DmDesign::PearsonEightWay);
        let DmAccess::Inserted(s) = m.access(0x77, true) else {
            panic!()
        };
        m.bind(s, VmRef::new(0, 0));
        assert!(m.all_inputs(s));
        m.access(0x77, true);
        assert!(m.all_inputs(s));
        m.access(0x77, false);
        assert!(!m.all_inputs(s));
    }

    #[test]
    fn peak_live_tracks_maximum() {
        let mut m = dm(DmDesign::PearsonEightWay);
        let DmAccess::Inserted(a) = m.access(0x11, false) else {
            panic!()
        };
        m.bind(a, VmRef::new(0, 0));
        let DmAccess::Inserted(b) = m.access(0x12, false) else {
            panic!()
        };
        m.bind(b, VmRef::new(0, 1));
        m.pop_version(a, None);
        assert_eq!(m.live(), 1);
        assert_eq!(m.peak_live(), 2);
    }
}
