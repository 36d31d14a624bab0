//! Software execution engines for the Picos reproduction.
//!
//! Two baselines from the paper's evaluation live here:
//!
//! * [`run_software`] — a discrete-event model of the **Nanos++**
//!   software-only runtime: serial task creation/submission with the
//!   measured overhead magnitudes of the paper's Figure 10, a contended
//!   scheduler lock, and the real dependence-analysis algorithm
//!   ([`SoftwareDeps`]).
//! * [`perfect_schedule`] — the **Perfect Simulator**: zero-overhead list
//!   scheduling, giving the roofline speedup of each application.
//!
//! Both engines are built as incremental streaming sessions
//! ([`SoftwareSession`], [`PerfectSession`]); this crate also hosts the
//! session vocabulary every engine shares ([`SessionCore`], [`Admission`],
//! [`SessionConfig`], [`feed_trace`], [`feed_range`]) — see the
//! [`session`] module for the timing semantics.
//!
//! # Quick example
//!
//! ```
//! use picos_runtime::{perfect_schedule, run_software, SwRuntimeConfig};
//! use picos_trace::gen;
//!
//! let trace = gen::cholesky(gen::CholeskyConfig::paper(128));
//! let roofline = perfect_schedule(&trace, 12);
//! let nanos = run_software(&trace, SwRuntimeConfig::with_workers(12))?;
//! assert!(roofline.speedup() >= nanos.speedup());
//! # Ok::<(), picos_runtime::SwError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod depmap;
mod journal;
pub mod par;
mod perfect;
mod report;
pub mod session;
mod simrt;
pub mod snap;

pub use cost::NanosCostModel;
pub use depmap::SoftwareDeps;
pub use journal::{replay_journal, replay_journal_tail, JournaledSession};
pub use perfect::{perfect_schedule, PerfectSession};
pub use report::ExecReport;
pub use session::{
    feed_range, feed_trace, Admission, EventLoopCore, FeedStall, SessionConfig, SessionCore,
};
pub use simrt::{run_software, SoftwareSession, SwError, SwRuntimeConfig};
