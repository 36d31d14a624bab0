//! Task and dependence primitives.
//!
//! These types mirror the information the OmpSs runtime hands to Picos at
//! task-creation time (paper, Section III): a task identifier, the number of
//! dependences, and for each dependence its memory address and direction.

use crate::snap::{Dec, Enc, Snap, SnapError};
use std::fmt;
use std::sync::Arc;

/// Maximum number of dependences a single task may carry.
///
/// The Picos prototype stores at most 15 dependences per task (five TMX
/// memories whose entries hold three dependences each; paper Section III-A).
/// The trace layer enforces the same cap so every trace is representable in
/// hardware.
pub const MAX_DEPS_PER_TASK: usize = 15;

/// Identifier of a task inside a [`crate::Trace`].
///
/// Task ids are dense indices: the `i`-th task created by the program has id
/// `i`. Program (creation) order is semantically meaningful for dataflow
/// dependence analysis, so the id doubles as the creation timestamp.
///
/// # Examples
///
/// ```
/// use picos_trace::TaskId;
/// let id = TaskId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task id from a dense index.
    pub const fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// Returns the dense index of this task.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// Direction of a task dependence, as annotated in the source program
/// (`#pragma omp task input(...) output(...) inout(...)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The task reads the address (`input`): a consumer.
    In,
    /// The task writes the address (`output`): a producer.
    Out,
    /// The task reads and writes the address (`inout`): both.
    InOut,
}

impl Direction {
    /// Whether the task reads the address (In or InOut).
    pub const fn reads(self) -> bool {
        matches!(self, Direction::In | Direction::InOut)
    }

    /// Whether the task writes the address (Out or InOut).
    pub const fn writes(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }

    /// Merges two directions on the same address into the strongest one.
    ///
    /// OmpSs collapses duplicate addresses in one task's dependence list:
    /// a read plus a write becomes `InOut`.
    pub fn merge(self, other: Direction) -> Direction {
        if self == other {
            self
        } else {
            Direction::InOut
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::In => "in",
            Direction::Out => "out",
            Direction::InOut => "inout",
        };
        f.write_str(s)
    }
}

/// One task dependence: a memory address plus an access direction.
///
/// Addresses are byte addresses. Generators emit realistic layouts (array
/// strides, per-block heap allocations) because the Picos Dependence Memory
/// indexes on low address bits, so address clustering is a first-order effect
/// (paper, Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dependence {
    /// Byte address of the data the dependence refers to.
    pub addr: u64,
    /// Access direction.
    pub dir: Direction,
}

impl Dependence {
    /// Creates a new dependence.
    pub const fn new(addr: u64, dir: Direction) -> Self {
        Dependence { addr, dir }
    }

    /// Convenience constructor for an `input` dependence.
    pub const fn input(addr: u64) -> Self {
        Dependence::new(addr, Direction::In)
    }

    /// Convenience constructor for an `output` dependence.
    pub const fn output(addr: u64) -> Self {
        Dependence::new(addr, Direction::Out)
    }

    /// Convenience constructor for an `inout` dependence.
    pub const fn inout(addr: u64) -> Self {
        Dependence::new(addr, Direction::InOut)
    }
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{:x})", self.dir, self.addr)
    }
}

/// Index of a kernel class inside a trace's kernel-name table.
///
/// Each task belongs to a kernel class (e.g. `potrf`, `gemm`, `fwd`). The
/// class drives the duration model and labels experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelClass(pub u16);

impl KernelClass {
    /// The default kernel class used when a trace has a single task type.
    pub const GENERIC: KernelClass = KernelClass(0);
}

/// Everything Picos needs to know about one task.
///
/// This is the software-visible "Task Work Descriptor" of the paper
/// (Section II-A): identity, dependences and, for simulation, the task's
/// execution duration in cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDescriptor {
    /// Dense task id; equals the creation order position.
    pub id: TaskId,
    /// Kernel class of this task (index into the trace's kernel table).
    pub kernel: KernelClass,
    /// The task's dependences, at most [`MAX_DEPS_PER_TASK`].
    ///
    /// Shared (`Arc`) so submitting the task to an engine is a refcount
    /// bump, not a per-task copy of the dependence list — submission is the
    /// hot path of every sweep.
    pub deps: Arc<[Dependence]>,
    /// Execution duration in cycles.
    pub duration: u64,
}

impl TaskDescriptor {
    /// Creates a descriptor, merging duplicate addresses.
    ///
    /// OmpSs semantics collapse repeated addresses in a single task's
    /// dependence list into one dependence with the merged direction, which
    /// is also what the hardware requires (one DM lookup per distinct
    /// address per task).
    ///
    /// # Panics
    ///
    /// Panics if after merging the task has more than [`MAX_DEPS_PER_TASK`]
    /// dependences; generators are expected to respect the hardware limit.
    pub fn new(
        id: TaskId,
        kernel: KernelClass,
        deps: impl IntoIterator<Item = Dependence>,
        duration: u64,
    ) -> Self {
        let mut merged: Vec<Dependence> = Vec::new();
        for d in deps {
            match merged.iter_mut().find(|m| m.addr == d.addr) {
                Some(m) => m.dir = m.dir.merge(d.dir),
                None => merged.push(d),
            }
        }
        assert!(
            merged.len() <= MAX_DEPS_PER_TASK,
            "task {id} has {} dependences, hardware limit is {MAX_DEPS_PER_TASK}",
            merged.len()
        );
        TaskDescriptor {
            id,
            kernel,
            deps: merged.into(),
            duration,
        }
    }

    /// Number of dependences of the task.
    pub fn num_deps(&self) -> usize {
        self.deps.len()
    }

    /// Whether the task has no dependences and is ready on arrival.
    pub fn is_independent(&self) -> bool {
        self.deps.is_empty()
    }
}

// ---------------------------------------------------------------- snapshots

impl Snap for TaskId {
    const SCALAR: bool = true;

    #[inline]
    fn put(&self, e: &mut Enc) {
        e.put(&self.0);
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.take().map(TaskId)
    }
}

impl Snap for KernelClass {
    const SCALAR: bool = true;

    #[inline]
    fn put(&self, e: &mut Enc) {
        e.put(&self.0);
    }

    #[inline]
    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.take().map(KernelClass)
    }
}

crate::snap_code!(Direction { In = 0, Out = 1, InOut = 2 });
crate::snap_record!(Dependence { addr, dir });
crate::snap_record!(TaskDescriptor {
    id,
    kernel,
    duration,
    deps
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_roundtrip() {
        let id = TaskId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "T42");
        assert_eq!(TaskId::from(42u32), id);
    }

    #[test]
    fn direction_reads_writes() {
        assert!(Direction::In.reads());
        assert!(!Direction::In.writes());
        assert!(!Direction::Out.reads());
        assert!(Direction::Out.writes());
        assert!(Direction::InOut.reads());
        assert!(Direction::InOut.writes());
    }

    #[test]
    fn direction_merge_is_strongest() {
        assert_eq!(Direction::In.merge(Direction::In), Direction::In);
        assert_eq!(Direction::In.merge(Direction::Out), Direction::InOut);
        assert_eq!(Direction::Out.merge(Direction::In), Direction::InOut);
        assert_eq!(Direction::InOut.merge(Direction::In), Direction::InOut);
        assert_eq!(Direction::Out.merge(Direction::Out), Direction::Out);
    }

    #[test]
    fn descriptor_merges_duplicate_addresses() {
        let t = TaskDescriptor::new(
            TaskId::new(0),
            KernelClass::GENERIC,
            [Dependence::input(0x100), Dependence::output(0x100)],
            10,
        );
        assert_eq!(t.num_deps(), 1);
        assert_eq!(t.deps[0].dir, Direction::InOut);
    }

    #[test]
    fn descriptor_keeps_distinct_addresses() {
        let t = TaskDescriptor::new(
            TaskId::new(1),
            KernelClass::GENERIC,
            [Dependence::input(0x100), Dependence::inout(0x200)],
            10,
        );
        assert_eq!(t.num_deps(), 2);
        assert!(!t.is_independent());
    }

    #[test]
    #[should_panic(expected = "hardware limit")]
    fn descriptor_rejects_too_many_deps() {
        let deps: Vec<_> = (0..16)
            .map(|i| Dependence::input(0x1000 + i * 64))
            .collect();
        TaskDescriptor::new(TaskId::new(0), KernelClass::GENERIC, deps, 1);
    }

    #[test]
    fn independent_task() {
        let t = TaskDescriptor::new(TaskId::new(0), KernelClass::GENERIC, [], 5);
        assert!(t.is_independent());
        assert_eq!(t.num_deps(), 0);
    }

    #[test]
    fn dependence_display() {
        assert_eq!(Dependence::inout(0xff).to_string(), "inout(0xff)");
    }

    #[test]
    fn task_roundtrip() {
        let t = TaskDescriptor::new(
            TaskId::new(7),
            KernelClass(3),
            [Dependence::input(0x1000), Dependence::inout(u64::MAX - 63)],
            12_345,
        );
        let mut e = Enc::new();
        e.put(&t);
        let v = e.done();
        assert_eq!(
            Dec::new(&v, "task")
                .unwrap()
                .take::<TaskDescriptor>()
                .unwrap(),
            t
        );
    }

    #[test]
    fn bad_direction_rejected() {
        let v = crate::Value::Arr(vec![crate::Value::Int(3)]);
        assert!(Dec::new(&v, "dir").unwrap().take::<Direction>().is_err());
    }
}
