//! Task, dependence and trace model for the Picos reproduction.
//!
//! This crate is the substrate every execution engine of the reproduction
//! consumes: it defines the software-visible task descriptor of the OmpSs
//! programming model (paper, Section II), an ordered [`Trace`] of tasks, the
//! ground-truth dataflow [`TaskGraph`], and generators ([`gen`]) for the
//! paper's seven synthetic testcases and five real applications.
//!
//! # Quick example
//!
//! ```
//! use picos_trace::{gen, TaskGraph};
//!
//! // The paper's Cholesky workload at block size 256 (Table I row 13).
//! let trace = gen::cholesky(gen::CholeskyConfig::paper(256));
//! assert_eq!(trace.len(), 120);
//!
//! let graph = TaskGraph::build(&trace);
//! let profile = graph.parallelism();
//! assert!(profile.avg_parallelism > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
mod graph;
mod journal;
mod json;
pub mod rng;
pub mod snap;
mod task;
mod trace;

pub use graph::{ParallelismProfile, TaskGraph};
pub use journal::{JournalOp, SessionJournal};
pub use json::{
    json_escape, parse_json, task_from_value, task_to_json, JsonError, JsonReader, TaskFields,
    Value, MAX_JSON_DEPTH,
};
pub use snap::SnapError;
pub use task::{Dependence, Direction, KernelClass, TaskDescriptor, TaskId, MAX_DEPS_PER_TASK};
pub use trace::{Trace, TraceStats};
