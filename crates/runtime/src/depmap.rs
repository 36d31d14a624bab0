//! Software dependence analysis, as the Nanos++ runtime performs it.
//!
//! This is the data structure Picos replaces with hardware: a hash map from
//! dependence address to the last writer and the readers since that write.
//! Task submission walks the map to discover the task's direct predecessors
//! (RAW/WAR/WAW); task completion decrements successor counters and reports
//! the newly ready tasks. The software-runtime simulation charges cycle
//! costs per operation performed here.

use picos_trace::snap::{Dec, Enc};
use picos_trace::{snap_record, SnapError, TaskDescriptor, TaskId, Value};
use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
struct AddrState {
    last_writer: Option<u32>,
    readers: Vec<u32>,
}

snap_record!(AddrState {
    last_writer,
    readers
});

/// Incremental software dependence tracker.
#[derive(Debug, Clone, Default)]
pub struct SoftwareDeps {
    addr: HashMap<u64, AddrState>,
    succs: Vec<Vec<u32>>,
    pred_remaining: Vec<u32>,
    finished: Vec<bool>,
    submitted: Vec<bool>,
    map_ops: u64,
    /// Reusable predecessor list for [`SoftwareDeps::submit`], so the
    /// per-dependence hot path performs no heap allocation.
    preds_scratch: Vec<u32>,
}

impl SoftwareDeps {
    /// Creates an empty tracker with capacity for `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> Self {
        SoftwareDeps {
            addr: HashMap::new(),
            succs: vec![Vec::new(); num_tasks],
            pred_remaining: vec![0; num_tasks],
            finished: vec![false; num_tasks],
            submitted: vec![false; num_tasks],
            map_ops: 0,
            preds_scratch: Vec::new(),
        }
    }

    /// Number of address-map operations performed so far (cost accounting).
    pub fn map_ops(&self) -> u64 {
        self.map_ops
    }

    /// Registers a task's dependences; returns `true` when the task is
    /// ready to run immediately (no unfinished predecessor).
    ///
    /// Must be called in creation order, as the runtime does. The tracker
    /// grows on demand, so streaming sessions need not know the final task
    /// count up front.
    pub fn submit(&mut self, task: &TaskDescriptor) -> bool {
        let me = task.id.raw();
        if me as usize >= self.succs.len() {
            let n = me as usize + 1;
            self.succs.resize_with(n, Vec::new);
            self.pred_remaining.resize(n, 0);
            self.finished.resize(n, false);
            self.submitted.resize(n, false);
        }
        debug_assert!(!self.submitted[me as usize], "double submit of {me}");
        self.submitted[me as usize] = true;
        let mut preds = std::mem::take(&mut self.preds_scratch);
        for dep in task.deps.iter() {
            self.map_ops += 1;
            preds.clear();
            let st = self.addr.entry(dep.addr).or_default();
            if dep.dir.reads() {
                if let Some(w) = st.last_writer {
                    preds.push(w);
                }
            }
            if dep.dir.writes() {
                if let Some(w) = st.last_writer {
                    preds.push(w);
                }
                preds.extend(st.readers.iter().copied());
                st.last_writer = Some(me);
                st.readers.clear();
            }
            if dep.dir.reads() && !dep.dir.writes() {
                st.readers.push(me);
            }
            for &p in &preds {
                if p != me && !self.finished[p as usize] && !self.succs[p as usize].contains(&me) {
                    self.succs[p as usize].push(me);
                    self.pred_remaining[me as usize] += 1;
                }
            }
        }
        self.preds_scratch = preds;
        self.pred_remaining[me as usize] == 0
    }

    /// Marks a task finished; appends the tasks that became ready to
    /// `ready` (the allocation-free form of [`SoftwareDeps::finish`]).
    pub fn finish_into(&mut self, task: TaskId, ready: &mut Vec<TaskId>) {
        let me = task.index();
        debug_assert!(self.submitted[me], "finish before submit");
        debug_assert!(!self.finished[me], "double finish");
        self.finished[me] = true;
        for i in 0..self.succs[me].len() {
            let s = self.succs[me][i];
            self.map_ops += 1;
            self.pred_remaining[s as usize] -= 1;
            if self.pred_remaining[s as usize] == 0 {
                ready.push(TaskId::new(s));
            }
        }
    }

    /// Marks a task finished; returns the tasks that became ready.
    pub fn finish(&mut self, task: TaskId) -> Vec<TaskId> {
        let mut ready = Vec::new();
        self.finish_into(task, &mut ready);
        ready
    }

    /// Successors discovered for a task so far.
    pub fn successors(&self, task: TaskId) -> &[u32] {
        &self.succs[task.index()]
    }

    /// Unfinished-predecessor count of a submitted task.
    pub fn pending_preds(&self, task: TaskId) -> u32 {
        self.pred_remaining[task.index()]
    }

    /// Serializes the tracker. The address map is emitted in ascending
    /// address order so the encoding is deterministic; reader lists keep
    /// their arrival order (it feeds successor discovery order).
    pub fn save_state(&self) -> Value {
        let Self {
            addr,
            succs,
            pred_remaining,
            finished,
            submitted,
            map_ops,
            preds_scratch: _,
        } = self;
        let mut addrs: Vec<(u64, &AddrState)> = addr.iter().map(|(&a, st)| (a, st)).collect();
        addrs.sort_unstable_by_key(|&(a, _)| a);
        let mut e = Enc::new();
        e.pairs(addrs)
            .put(succs)
            .put(pred_remaining)
            .put(finished)
            .put(submitted)
            .put(map_ops);
        e.done()
    }

    /// Overwrites the tracker from [`SoftwareDeps::save_state`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record.
    pub fn load_state(&mut self, v: &Value) -> Result<(), SnapError> {
        let mut d = Dec::new(v, "software deps")?;
        self.addr = d.take::<Vec<(u64, AddrState)>>()?.into_iter().collect();
        self.succs = d.take()?;
        self.pred_remaining = d.take()?;
        self.finished = d.take()?;
        self.submitted = d.take()?;
        self.map_ops = d.take()?;
        let n = self.succs.len();
        if self.pred_remaining.len() != n || self.finished.len() != n || self.submitted.len() != n {
            return Err(SnapError::new(
                "software deps: per-task table length mismatch",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::{gen, Dependence, KernelClass, TaskGraph, Trace};

    fn k() -> KernelClass {
        KernelClass::GENERIC
    }

    #[test]
    fn chain_readiness() {
        let mut tr = Trace::new("t");
        for _ in 0..3 {
            tr.push(k(), [Dependence::inout(0xA)], 1);
        }
        let mut sw = SoftwareDeps::new(3);
        assert!(sw.submit(&tr.tasks()[0]));
        assert!(!sw.submit(&tr.tasks()[1]));
        assert!(!sw.submit(&tr.tasks()[2]));
        assert_eq!(sw.finish(TaskId::new(0)), vec![TaskId::new(1)]);
        assert_eq!(sw.finish(TaskId::new(1)), vec![TaskId::new(2)]);
        assert_eq!(sw.finish(TaskId::new(2)), vec![]);
    }

    #[test]
    fn finished_predecessors_do_not_block() {
        let mut tr = Trace::new("t");
        tr.push(k(), [Dependence::output(0xA)], 1);
        tr.push(k(), [Dependence::input(0xA)], 1);
        let mut sw = SoftwareDeps::new(2);
        assert!(sw.submit(&tr.tasks()[0]));
        sw.finish(TaskId::new(0));
        // Reader submitted after the writer finished: ready at once.
        assert!(sw.submit(&tr.tasks()[1]));
    }

    #[test]
    fn matches_task_graph_when_all_submitted_first() {
        // When every task is submitted before any finishes, the discovered
        // predecessor counts must equal the ground-truth graph's.
        for seed in 0..5 {
            let tr = gen::random_trace(
                gen::RandomConfig {
                    tasks: 120,
                    addr_pool: 12,
                    write_fraction: 0.5,
                    ..gen::RandomConfig::default()
                },
                seed,
            );
            let g = TaskGraph::build(&tr);
            let mut sw = SoftwareDeps::new(tr.len());
            for t in tr.iter() {
                sw.submit(t);
            }
            for t in tr.iter() {
                assert_eq!(
                    sw.pending_preds(t.id) as usize,
                    g.preds(t.id).len(),
                    "seed {seed} task {}",
                    t.id
                );
                let mut a = sw.successors(t.id).to_vec();
                let mut b = g.succs(t.id).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "seed {seed} task {} successors", t.id);
            }
        }
    }

    #[test]
    fn war_edge_blocks_writer() {
        let mut tr = Trace::new("t");
        tr.push(k(), [Dependence::input(0xB)], 1);
        tr.push(k(), [Dependence::output(0xB)], 1);
        let mut sw = SoftwareDeps::new(2);
        assert!(
            sw.submit(&tr.tasks()[0]),
            "reader of untouched data is ready"
        );
        assert!(!sw.submit(&tr.tasks()[1]), "writer waits for reader (WAR)");
        assert_eq!(sw.finish(TaskId::new(0)), vec![TaskId::new(1)]);
    }

    #[test]
    fn map_ops_counted() {
        let mut tr = Trace::new("t");
        tr.push(k(), [Dependence::input(1), Dependence::input(2)], 1);
        let mut sw = SoftwareDeps::new(1);
        sw.submit(&tr.tasks()[0]);
        assert_eq!(sw.map_ops(), 2);
    }
}
