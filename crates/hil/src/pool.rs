//! Worker pool and serializing-link helpers shared by the HIL drivers and
//! the cluster model.
//!
//! [`Link`] is the delivery/service discipline of the paper's AXI Stream
//! interface, generalized over the message type and parameterized by a
//! [`crate::LinkModel`]: one message at a time, per-flit occupancy, fixed
//! delivery latency, one-time setup. The HIL bus is `Link<BusMsg>`; the
//! cluster crate instantiates it with its own inter-shard message type.

use crate::cost::LinkModel;
use picos_core::SlotRef;
use picos_trace::snap::{Dec, Enc, Snap, SnapError};
use picos_trace::{snap_record, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of workers executing tasks for their trace duration.
///
/// Cloning is a deep copy — the fork primitive of the snapshot subsystem.
#[derive(Debug, Clone)]
pub struct Workers {
    heap: BinaryHeap<Reverse<(u64, u32, SlotRef)>>,
    idle: usize,
    total: usize,
}

impl Workers {
    /// Creates a pool of `total` workers, all idle.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "need at least one worker");
        Workers {
            heap: BinaryHeap::new(),
            idle: total,
            total,
        }
    }

    /// Free workers right now.
    pub fn idle(&self) -> usize {
        self.idle
    }

    /// Whether any task is currently executing.
    pub fn busy(&self) -> bool {
        self.idle < self.total
    }

    /// Starts a task that will complete at `end`.
    ///
    /// # Panics
    ///
    /// Panics if no worker is free.
    pub fn start(&mut self, end: u64, task: u32, slot: SlotRef) {
        assert!(self.idle > 0, "no free worker");
        self.idle -= 1;
        self.heap.push(Reverse((end, task, slot)));
    }

    /// Earliest completion time among running tasks.
    pub fn next_done(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pops a task completing exactly at `t`, freeing its worker.
    pub fn pop_done_at(&mut self, t: u64) -> Option<(u32, SlotRef)> {
        match self.heap.peek() {
            Some(Reverse((d, _, _))) if *d == t => {
                let Reverse((_, task, slot)) = self.heap.pop().expect("peeked");
                self.idle += 1;
                Some((task, slot))
            }
            _ => None,
        }
    }

    /// Fail-stops one worker (fault injection): capacity shrinks by one
    /// permanently. A busy worker dies first — its in-flight task is
    /// returned (with the TM slot it still holds) so the caller can
    /// re-execute it; with no task running an idle worker dies and `None`
    /// is returned. The earliest-completing task is the deterministic
    /// victim. A no-op returning `None` once capacity is exhausted.
    pub fn fail_one(&mut self) -> Option<(u32, SlotRef)> {
        if let Some(Reverse((_, task, slot))) = self.heap.pop() {
            self.total -= 1;
            return Some((task, slot));
        }
        if self.total > 0 && self.idle > 0 {
            self.total -= 1;
            self.idle -= 1;
        }
        None
    }

    /// Serializes the pool (running tasks in ascending completion order,
    /// plus the live capacity — fail-stop faults shrink it). A running
    /// task's TM slot is stored as its two fields, `trs` then `entry`.
    pub fn save_state(&self) -> Value {
        let Self { heap, idle, total } = self;
        let mut running: Vec<(u64, u32, u8, u16)> = heap
            .iter()
            .map(|Reverse((end, task, slot))| (*end, *task, slot.trs, slot.entry))
            .collect();
        running.sort_unstable();
        let mut e = Enc::new();
        e.put(total).put(idle).put(&running);
        e.done()
    }

    /// Overwrites the pool from [`Workers::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or an inconsistent
    /// occupancy (`running != total - idle`).
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "workers")?;
        self.total = d.take()?;
        self.idle = d.take()?;
        let running: Vec<(u64, u32, u8, u16)> = d.take()?;
        if self.idle > self.total || running.len() != self.total - self.idle {
            return Err(SnapError::new("workers: occupancy mismatch"));
        }
        self.heap = running
            .into_iter()
            .map(|(end, task, trs, entry)| Reverse((end, task, SlotRef::new(trs, entry))))
            .collect();
        Ok(())
    }
}

/// Messages crossing the AXI bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BusMsg {
    /// A new task travelling to the Picos GW.
    NewTask(u32),
    /// A ready task travelling to a worker.
    Ready(u32, SlotRef),
    /// A finished-task notification travelling to the Picos GW.
    Finish(u32, SlotRef),
}

/// The HIL platform's AXI Stream bus.
pub(crate) type Bus = Link<BusMsg>;

/// A pending delivery; ordered by `(time, seq)` only, so the message type
/// needs no ordering of its own.
#[derive(Debug, Clone)]
struct LinkEv<T> {
    at: u64,
    seq: u64,
    msg: T,
}

snap_record!(LinkEv<T> { at, seq, msg });

impl<T> PartialEq for LinkEv<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for LinkEv<T> {}
impl<T> PartialOrd for LinkEv<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for LinkEv<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A bus message: one variant code, then its fields.
impl Snap for BusMsg {
    fn put(&self, e: &mut Enc) {
        match self {
            BusMsg::NewTask(i) => e.put(&0u8).put(i),
            BusMsg::Ready(task, slot) => e.put(&1u8).put(task).put(slot),
            BusMsg::Finish(task, slot) => e.put(&2u8).put(task).put(slot),
        };
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.u64()? {
            0 => Ok(BusMsg::NewTask(d.take()?)),
            1 => Ok(BusMsg::Ready(d.take()?, d.take()?)),
            2 => Ok(BusMsg::Finish(d.take()?, d.take()?)),
            other => Err(SnapError::new(format!("unknown bus message code {other}"))),
        }
    }
}

/// A serializing link following a [`LinkModel`]: one message at a time,
/// each occupying the link for its flit count times the model's occupancy
/// and arriving `latency` cycles after its slot ends. Deliveries preserve
/// send order among equal-time messages.
#[derive(Debug, Clone)]
pub struct Link<T> {
    model: LinkModel,
    free_at: u64,
    deliveries: BinaryHeap<Reverse<LinkEv<T>>>,
    seq: u64,
}

impl<T> Link<T> {
    /// Creates an idle link; the first slot starts after the model's setup.
    pub fn new(model: LinkModel) -> Self {
        Link {
            free_at: model.setup,
            model,
            deliveries: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The cost model this link was built with.
    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Queues a single-word message at time `t`; returns the time its link
    /// slot ends.
    pub fn send(&mut self, t: u64, msg: T) -> u64 {
        self.send_words(t, msg, 1)
    }

    /// Queues a message of `words` payload words at time `t`; the link is
    /// occupied for one `occupancy` per flit. Returns the slot-end time.
    pub fn send_words(&mut self, t: u64, msg: T, words: usize) -> u64 {
        self.send_words_delayed(t, msg, words, 0)
    }

    /// Like [`Link::send_words`], but the delivery ages `extra` cycles on
    /// top of the model latency (fault-injection jitter). Occupancy — and
    /// therefore every later message's slot — is unchanged: with
    /// `extra == 0` this is exactly `send_words`.
    pub fn send_words_delayed(&mut self, t: u64, msg: T, words: usize, extra: u64) -> u64 {
        let s = self.free_at.max(t);
        self.free_at = s + self.model.occupancy * self.model.flits(words);
        self.seq += 1;
        self.deliveries.push(Reverse(LinkEv {
            at: self.free_at + self.model.latency + extra,
            seq: self.seq,
            msg,
        }));
        self.free_at
    }

    /// Earliest pending delivery time.
    pub fn next_delivery(&self) -> Option<u64> {
        self.deliveries.peek().map(|Reverse(e)| e.at)
    }

    /// Pops a message delivered exactly at `t`.
    pub fn pop_delivery_at(&mut self, t: u64) -> Option<T> {
        match self.deliveries.peek() {
            Some(Reverse(e)) if e.at == t => {
                let Reverse(e) = self.deliveries.pop().expect("peeked");
                Some(e.msg)
            }
            _ => None,
        }
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.deliveries.len()
    }
}

impl<T: Snap> Link<T> {
    /// Serializes the link state: the model as a restore guard, then the
    /// pending deliveries in `(time, seq)` order.
    pub fn save_state(&self) -> Value {
        let Self {
            model,
            free_at,
            deliveries,
            seq,
        } = self;
        let mut evs: Vec<&LinkEv<T>> = deliveries.iter().map(|r| &r.0).collect();
        evs.sort_unstable_by_key(|e| (e.at, e.seq));
        let mut e = Enc::new();
        e.put(&model.occupancy)
            .put(&model.latency)
            .put(&model.setup)
            .put(&model.width)
            .put(free_at)
            .put(seq)
            .seq(evs);
        e.done()
    }

    /// Overwrites the link from [`Link::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record or when the snapshot was
    /// taken under a different [`LinkModel`].
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "link")?;
        d.guard("link occupancy", self.model.occupancy)?;
        d.guard("link latency", self.model.latency)?;
        d.guard("link setup", self.model.setup)?;
        d.guard("link width", self.model.width)?;
        self.free_at = d.take()?;
        self.seq = d.take()?;
        self.deliveries = d
            .take::<Vec<LinkEv<T>>>()?
            .into_iter()
            .map(Reverse)
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(occupancy: u64, latency: u64, setup: u64) -> Bus {
        Link::new(LinkModel {
            occupancy,
            latency,
            setup,
            width: 1,
        })
    }

    #[test]
    fn workers_lifecycle() {
        let mut w = Workers::new(2);
        assert_eq!(w.idle(), 2);
        w.start(10, 0, SlotRef::new(0, 0));
        w.start(5, 1, SlotRef::new(0, 1));
        assert_eq!(w.idle(), 0);
        assert!(w.busy());
        assert_eq!(w.next_done(), Some(5));
        assert!(w.pop_done_at(4).is_none());
        assert_eq!(w.pop_done_at(5), Some((1, SlotRef::new(0, 1))));
        assert_eq!(w.idle(), 1);
        assert_eq!(w.next_done(), Some(10));
    }

    #[test]
    #[should_panic(expected = "no free worker")]
    fn workers_overcommit_panics() {
        let mut w = Workers::new(1);
        w.start(10, 0, SlotRef::new(0, 0));
        w.start(20, 1, SlotRef::new(0, 1));
    }

    #[test]
    fn bus_serializes_messages() {
        let mut b = link(100, 10, 0);
        let e1 = b.send(0, BusMsg::NewTask(0));
        let e2 = b.send(0, BusMsg::NewTask(1));
        assert_eq!(e1, 100);
        assert_eq!(e2, 200, "second message waits for the first slot");
        assert_eq!(b.next_delivery(), Some(110));
        assert_eq!(b.pop_delivery_at(110), Some(BusMsg::NewTask(0)));
        assert_eq!(b.pop_delivery_at(110), None);
        assert_eq!(b.next_delivery(), Some(210));
        assert_eq!(b.in_flight(), 1);
    }

    #[test]
    fn bus_idle_gap_does_not_accumulate() {
        let mut b = link(100, 0, 0);
        b.send(0, BusMsg::NewTask(0));
        let end = b.send(1_000, BusMsg::NewTask(1));
        assert_eq!(end, 1_100, "bus restarts from the request time");
    }

    #[test]
    fn wide_payloads_occupy_per_flit() {
        let mut l: Link<u32> = Link::new(LinkModel {
            occupancy: 10,
            latency: 5,
            setup: 0,
            width: 4,
        });
        // 9 words at width 4 = 3 flits = 30 cycles of occupancy.
        assert_eq!(l.send_words(0, 7, 9), 30);
        assert_eq!(l.next_delivery(), Some(35));
        // A following single-word message queues behind all three flits.
        assert_eq!(l.send(0, 8), 40);
    }

    #[test]
    fn equal_time_deliveries_preserve_send_order() {
        let mut l: Link<u32> = Link::new(LinkModel {
            occupancy: 0,
            latency: 0,
            setup: 0,
            width: 1,
        });
        for i in 0..4 {
            l.send(0, i);
        }
        let mut got = Vec::new();
        while let Some(m) = l.pop_delivery_at(0) {
            got.push(m);
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
