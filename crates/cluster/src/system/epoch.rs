//! The epoch loop: a conservative (Chandy–Misra–Bryant-style) drive of
//! the cluster's per-shard phases, with the interconnect's delivery cost
//! as lookahead and an epoch boundary instead of null messages. It runs
//! on one thread, on the session's own state.
//!
//! # Why it is sound — and bit-identical to the serial pump
//!
//! Every cross-shard interaction travels over a [`Link`], and
//! `Link::send_words` delivers no earlier than
//! `t + occupancy + latency` (one flit minimum occupies the link for
//! `occupancy`, then the message ages `latency`). That sum is the
//! **lookahead** `L`: inside a window `[T, T + L)` no shard can observe
//! anything another shard does within the same window, so the loop may
//! run each shard's events in the window to the end before it touches the
//! next shard. Cross-shard sends are buffered and replayed into the
//! destination links at the epoch end.
//!
//! Bit-identity with the serial pump comes from replaying those sends in
//! exactly the order the pump would have issued them. At one event time
//! the pump runs its phases over shards `0..k` in a fixed order, and
//! re-runs the whole pump ("rounds") while zero-cost cascades keep
//! producing same-time work, so the serial send order into any link is
//! precisely the lexicographic key `(time, round, phase, shard, seq)`.
//! Every buffered send and task start carries that key; the replay sorts
//! and applies them, which also reproduces each link's internal
//! `free_at`/sequence evolution — and therefore every future delivery
//! time — bit-for-bit. Schedule-log order is merged under the same keys.
//! Same-time rounds are shard-local by construction (a shard's round `r`
//! work can only be caused by its own round `r - 1` work, since
//! everything remote is at least `L` away), so per-shard round counters
//! agree with the serial pump's global ones. Span events are
//! observation-only; the loop records them in shard order, the same event
//! multiset as the pump, equal after [`SpanLog::canonical_sort`].
//!
//! Epoch start times jump to the global minimum next event (idle gaps cost
//! nothing), and the epoch ends `L` after it, so every buffered send
//! delivers strictly beyond the epoch — the replay can never deliver into
//! the past, and each epoch makes strict progress (deadlock freedom
//! without null messages).
//!
//! [`Link`]: picos_hil::Link
//! [`SpanLog::canonical_sort`]: picos_metrics::span::SpanLog::canonical_sort

use super::{ClusterMsg, ClusterSession};
use crate::fault::Packet;
use picos_runtime::session::EventLoopCore;

/// The sending phases of one pump, in serial pump order at one event
/// time: worker completions (`Finish` sends), the Distributor
/// (`Register` sends; serial pump only) and execution (`Ready` sends and
/// task starts). Deliveries and ingress send nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Phase {
    Complete,
    Distribute,
    Execute,
}

/// The serial pump's order of an emission: `(time, round, phase, shard,
/// seq)`.
type Key = (u64, u32, Phase, u16, u32);

/// One buffered emission.
#[derive(Debug, Clone)]
enum Emitted {
    /// A cross-shard send, replayed into the destination link.
    Send {
        dest: u16,
        words: u32,
        msg: ClusterMsg,
    },
    /// A task start, replayed into the schedule log.
    Start { task: u32, start: u64, dur: u64 },
}

/// The epoch loop's replay buffer.
#[derive(Debug, Clone, Default)]
pub(super) struct Epoch {
    /// The same-time pump round of the shard event being run.
    round: u32,
    out: Vec<(Key, Emitted)>,
}

impl Epoch {
    fn key(&self, t: u64, phase: Phase, shard: usize) -> Key {
        (t, self.round, phase, shard as u16, self.out.len() as u32)
    }

    /// Buffers a send from shard `from` at `t`.
    pub(super) fn send(
        &mut self,
        t: u64,
        phase: Phase,
        from: usize,
        to: usize,
        msg: ClusterMsg,
        words: usize,
    ) {
        let key = self.key(t, phase, from);
        let dest = to as u16;
        let words = words as u32;
        self.out.push((key, Emitted::Send { dest, words, msg }));
    }

    /// Buffers a task start on shard `shard` decided at `t`; returns the
    /// task's end, as [`ScheduleLog::begin`] would.
    ///
    /// [`ScheduleLog::begin`]: picos_runtime::session::ScheduleLog::begin
    pub(super) fn start(&mut self, t: u64, shard: usize, task: u32, start: u64, dur: u64) -> u64 {
        let key = self.key(t, Phase::Execute, shard);
        self.out.push((key, Emitted::Start { task, start, dur }));
        start + dur
    }
}

impl ClusterSession {
    /// The lookahead: a message sent at `t` delivers no earlier than
    /// `t + occupancy + latency` (`Link::send_words` costs at least one
    /// `occupancy` flit plus `latency`, and link backpressure only delays
    /// further).
    fn lookahead(&self) -> u64 {
        self.cfg.link.occupancy + self.cfg.link.latency
    }

    /// The `finish` drive. It drains through the epoch loop when that is
    /// sound, and through the serial pump otherwise:
    ///
    /// * one shard has nothing to overlap;
    /// * a zero-cost interconnect leaves no safe window;
    /// * an active fault plan's ack/retry and pause bookkeeping is global
    ///   state threaded through every pump.
    ///
    /// A telemetry sampler does *not* force the serial pump: the cluster's
    /// windowed series probe global state, but only at window boundaries,
    /// and every epoch ends at or before the next one (see `run_epochs`).
    pub(super) fn drain(&mut self) {
        if self.cfg.shards == 1 || self.lookahead() == 0 || self.faults.is_some() {
            self.drive_finish();
            return;
        }
        // Serial pumps while the Distributor still owes task creations:
        // their taskwait gates watch the global finished count, which the
        // epoch loop only settles at epoch ends.
        loop {
            self.pump();
            if self.next_feed == self.ingest.admitted {
                break;
            }
            match self.next_time() {
                Some(tn) => self.set_clock(tn),
                None => return,
            }
        }
        self.run_epochs();
    }

    /// Runs every remaining event through epochs, leaving the clock at the
    /// last event like the serial drive.
    ///
    /// Telemetry rides on the planning point. The serial pump samples every
    /// crossed window boundary in `set_clock`, *before* the pump at the new
    /// event time runs — each boundary observes the state after every event
    /// strictly before it. At planning time every send has been replayed,
    /// so the state is exactly that for the epoch's first event, and
    /// `set_clock` there probes bit-identical values. The epoch end is then
    /// clamped to the next boundary, which keeps every future boundary on a
    /// planning point too.
    fn run_epochs(&mut self) {
        let k = self.cfg.shards;
        let lookahead = self.lookahead();
        self.epoch = Some(Epoch::default());
        while let Some(first) = (0..k).filter_map(|s| self.shard_next_time(s)).min() {
            self.set_clock(first);
            let mut end = first.saturating_add(lookahead);
            if let Some(sampler) = &self.sampler {
                // `next_boundary() > first` always (`advance` leaves it
                // strictly ahead), so the clamp never stalls the loop.
                end = end.min(sampler.next_boundary());
            }
            let mut last = first;
            for s in 0..k {
                let mut cur = u64::MAX;
                let mut round = 0;
                while let Some(t) = self.shard_next_time(s).filter(|&t| t < end) {
                    round = if t == cur { round + 1 } else { 0 };
                    cur = t;
                    self.pump_shard(s, t, round);
                    last = last.max(t);
                }
            }
            self.replay();
            self.t = last;
        }
        self.epoch = None;
        // Serial parity: every pump advances every shard core to the
        // current event time; the loop advanced each only to its own.
        let t = self.t;
        for sh in self.shards.iter_mut() {
            sh.sys.advance_to(t);
        }
    }

    /// The serial pump's phases restricted to shard `s` at one of its own
    /// event times, minus the fault layer and the Distributor (neither runs
    /// under the epoch loop).
    fn pump_shard(&mut self, s: usize, t: u64, round: u32) {
        self.epoch.as_mut().expect("inside the epoch loop").round = round;
        let sh = &mut self.shards[s];
        sh.sys.advance_to(t);
        sh.touched = false;
        self.complete(s, t);
        self.receive(s, t);
        self.ingress(s);
        let sh = &mut self.shards[s];
        if sh.touched {
            sh.sys.advance_to(t);
        }
        self.execute(s, t);
    }

    /// Replays one epoch's emissions in serial pump order.
    fn replay(&mut self) {
        let ep = self.epoch.as_mut().expect("inside the epoch loop");
        ep.out.sort_unstable_by_key(|&(key, _)| key);
        for ((t, ..), e) in ep.out.drain(..) {
            match e {
                Emitted::Send { dest, words, msg } => {
                    self.links[dest as usize].send_words(t, Packet::plain(msg), words as usize);
                }
                Emitted::Start { task, start, dur } => {
                    self.log.begin(task, start, dur);
                }
            }
        }
    }
}
