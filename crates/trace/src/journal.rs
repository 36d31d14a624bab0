//! Session arrival journal: the accepted input stream of a streaming
//! session, with a stable JSON encoding for crash recovery.
//!
//! A streaming session's schedule is a deterministic function of what it
//! *accepted*: the ordered stream of admitted submissions, taskwait
//! barriers and `advance_to` time assertions. (Rejected submissions and
//! `step` calls don't belong in that stream — a backpressured submit
//! records nothing, and `step` only advances the clock when the session is
//! ingest-blocked, where a replaying driver is forced to make the same
//! advances.) Journaling that stream therefore suffices to rebuild the
//! session bit-exactly after a crash: feed the ops of a [`SessionJournal`]
//! into a fresh session and it reaches the same state, cycle for cycle.
//!
//! The `picos_runtime` crate provides the recording wrapper
//! (`JournaledSession`) and the replay driver (`replay_journal`); this
//! module owns the data model and its JSON codec so the journal can be
//! persisted next to the traces it replays.
//!
//! # Format (version 1)
//!
//! ```json
//! {"version":1,"ops":[
//!   {"op":"submit","task":{"id":0,"kernel":0,"duration":100,
//!                          "deps":[{"addr":4096,"dir":"inout"}]}},
//!   {"op":"barrier"},
//!   {"op":"advance","cycle":4096}
//! ]}
//! ```
//!
//! The `task` object is exactly the trace format's task encoding.

use crate::json::{
    as_arr, as_str, as_u64, bad, parse_value, task_from_value, task_to_json, JsonError, Value,
};
use crate::task::TaskDescriptor;

/// One accepted input operation of a streaming session, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A task submission that the session **accepted** (backpressured
    /// offers are not part of the input stream).
    Submit(TaskDescriptor),
    /// An OmpSs `taskwait` declaration.
    Barrier,
    /// An `advance_to(cycle)` assertion that no input arrives earlier.
    AdvanceTo(u64),
}

/// The ordered record of everything a streaming session accepted,
/// sufficient to rebuild the session bit-exactly by replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionJournal {
    ops: Vec<JournalOp>,
}

impl SessionJournal {
    /// An empty journal.
    pub fn new() -> Self {
        SessionJournal::default()
    }

    /// Records an accepted task submission.
    pub fn record_submit(&mut self, task: &TaskDescriptor) {
        self.ops.push(JournalOp::Submit(task.clone()));
    }

    /// Pre-sizes the journal for at least `additional` further ops.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve(additional);
    }

    /// Records a taskwait barrier.
    pub fn record_barrier(&mut self) {
        self.ops.push(JournalOp::Barrier);
    }

    /// Records an `advance_to` time assertion.
    pub fn record_advance_to(&mut self, cycle: u64) {
        self.ops.push(JournalOp::AdvanceTo(cycle));
    }

    /// The recorded operations, in arrival order.
    pub fn ops(&self) -> &[JournalOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The journal suffix starting at op index `from` (a checkpoint
    /// cursor), as its own journal. Indexes past the end yield an empty
    /// journal.
    pub fn tail(&self, from: usize) -> SessionJournal {
        SessionJournal {
            ops: self.ops[from.min(self.ops.len())..].to_vec(),
        }
    }

    /// Number of accepted submissions in the journal.
    pub fn submitted(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, JournalOp::Submit(_)))
            .count()
    }

    /// Encodes the journal as versioned JSON (see the module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.ops.len() * 48);
        out.push_str("{\"version\":1,\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match op {
                JournalOp::Submit(t) => {
                    out.push_str("{\"op\":\"submit\",\"task\":");
                    task_to_json(&mut out, t);
                    out.push('}');
                }
                JournalOp::Barrier => out.push_str("{\"op\":\"barrier\"}"),
                JournalOp::AdvanceTo(c) => {
                    out.push_str(&format!("{{\"op\":\"advance\",\"cycle\":{c}}}"));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Decodes a journal from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first structural problem:
    /// malformed JSON, an unsupported version, an unknown op kind, or an
    /// invalid task object.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_value(&parse_value(s)?)
    }

    /// Decodes a journal from an already parsed JSON document, for callers
    /// that read other fields of the same document.
    ///
    /// # Errors
    ///
    /// As [`SessionJournal::from_json`], minus malformed JSON.
    pub fn from_value(v: &Value) -> Result<Self, JsonError> {
        let Value::Obj(top) = v else {
            return Err(bad("journal must be a JSON object"));
        };
        let version = as_u64(
            top.get("version")
                .ok_or_else(|| bad("journal missing version"))?,
            "journal version",
        )?;
        if version != 1 {
            return Err(bad(format!("unsupported journal version {version}")));
        }
        let mut ops = Vec::new();
        for (i, ov) in as_arr(top.get("ops"), "ops")?.iter().enumerate() {
            let Value::Obj(o) = ov else {
                return Err(bad(format!("journal op {i} must be an object")));
            };
            let kind = as_str(
                o.get("op").ok_or_else(|| bad("journal op missing kind"))?,
                "op kind",
            )?;
            match kind {
                "submit" => {
                    let tv = o
                        .get("task")
                        .ok_or_else(|| bad(format!("submit op {i} missing task")))?;
                    ops.push(JournalOp::Submit(task_from_value(tv, i)?));
                }
                "barrier" => ops.push(JournalOp::Barrier),
                "advance" => {
                    let cycle = as_u64(
                        o.get("cycle")
                            .ok_or_else(|| bad(format!("advance op {i} missing cycle")))?,
                        "advance cycle",
                    )?;
                    ops.push(JournalOp::AdvanceTo(cycle));
                }
                other => return Err(bad(format!("unknown journal op '{other}'"))),
            }
        }
        Ok(SessionJournal { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Dependence, KernelClass, TaskId};

    fn sample() -> SessionJournal {
        let mut j = SessionJournal::new();
        j.record_submit(&TaskDescriptor::new(
            TaskId::new(0),
            KernelClass(2),
            [Dependence::inout(0x4000), Dependence::input(u64::MAX - 63)],
            17,
        ));
        j.record_barrier();
        j.record_submit(&TaskDescriptor::new(
            TaskId::new(1),
            KernelClass::GENERIC,
            [],
            1,
        ));
        j.record_advance_to(123_456_789_012);
        j
    }

    #[test]
    fn roundtrips_through_json() {
        let j = sample();
        assert_eq!(j.len(), 4);
        assert_eq!(j.submitted(), 2);
        let back = SessionJournal::from_json(&j.to_json()).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn empty_journal_roundtrips() {
        let j = SessionJournal::new();
        assert!(j.is_empty());
        let back = SessionJournal::from_json(&j.to_json()).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn rejects_malformed_journals() {
        assert!(SessionJournal::from_json("not json").is_err());
        assert!(SessionJournal::from_json("{}").is_err());
        assert!(SessionJournal::from_json("{\"version\":2,\"ops\":[]}").is_err());
        assert!(SessionJournal::from_json("{\"version\":1,\"ops\":[{\"op\":\"warp\"}]}").is_err());
        assert!(
            SessionJournal::from_json("{\"version\":1,\"ops\":[{\"op\":\"submit\"}]}").is_err()
        );
        assert!(
            SessionJournal::from_json("{\"version\":1,\"ops\":[{\"op\":\"advance\"}]}").is_err()
        );
    }
}
