//! Shared snapshot codec helpers for the runtime sessions.
//!
//! Task descriptors appear in several session snapshots (pending queues,
//! the master's creation queue, task tables), so their positional encoding
//! lives here; each session type serializes its own fields next to its
//! definition.

use picos_trace::snap::{Dec, Enc, SnapError};
use picos_trace::{Dependence, Direction, KernelClass, TaskDescriptor, TaskId};

/// Stable wire code of a dependence direction.
pub fn dir_code(d: Direction) -> u64 {
    match d {
        Direction::In => 0,
        Direction::Out => 1,
        Direction::InOut => 2,
    }
}

/// Inverse of [`dir_code`].
pub fn dir_from(c: u64) -> Result<Direction, SnapError> {
    match c {
        0 => Ok(Direction::In),
        1 => Ok(Direction::Out),
        2 => Ok(Direction::InOut),
        other => Err(SnapError::new(format!("unknown direction code {other}"))),
    }
}

/// Encodes a task descriptor: id, kernel, duration, dependence list.
pub fn enc_task(e: &mut Enc, t: &TaskDescriptor) {
    e.u32(t.id.raw())
        .u64(t.kernel.0 as u64)
        .u64(t.duration)
        .seq(t.deps.iter(), |e, d| {
            e.u64(d.addr).u64(dir_code(d.dir));
        });
}

/// Decodes a task descriptor written by [`enc_task`]. The dependence list
/// was merged at creation time, so it is rebuilt verbatim.
pub fn dec_task(d: &mut Dec) -> Result<TaskDescriptor, SnapError> {
    let id = d.u32()?;
    let kernel = d.u16()?;
    let duration = d.u64()?;
    let deps: Vec<Dependence> = d.seq(|d| Ok(Dependence::new(d.u64()?, dir_from(d.u64()?)?)))?;
    Ok(TaskDescriptor {
        id: TaskId::new(id),
        kernel: KernelClass(kernel),
        deps: deps.into(),
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_roundtrip() {
        let t = TaskDescriptor::new(
            TaskId::new(7),
            KernelClass(3),
            [Dependence::input(0x1000), Dependence::inout(u64::MAX - 63)],
            12_345,
        );
        let mut e = Enc::new();
        enc_task(&mut e, &t);
        let v = e.done();
        let mut d = Dec::new(&v, "task").unwrap();
        assert_eq!(dec_task(&mut d).unwrap(), t);
    }

    #[test]
    fn bad_direction_rejected() {
        assert!(dir_from(3).is_err());
    }
}
