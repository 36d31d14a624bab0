//! Trace generators for the paper's workloads.
//!
//! Seven synthetic testcases ([`synthetic()`]) and five real applications
//! ([`heat()`], [`lu()`], [`sparselu()`], [`cholesky()`], [`h264dec()`])
//! plus a [`random_trace()`] generator for property-based tests.

pub mod calibration;
pub mod cholesky;
pub mod h264;
pub mod heat;
pub mod layout;
pub mod lu;
pub mod random;
pub mod sparselu;
pub mod stream;
pub mod synthetic;

pub use calibration::{seq_exec_target, table1_row, Table1Row, TABLE1};
pub use cholesky::{cholesky, CholeskyConfig};
pub use h264::{h264dec, H264Config};
pub use heat::{heat, HeatConfig};
pub use layout::{ArrayLayout, HeapLayout};
pub use lu::{lu, LuConfig, LuOrder};
pub use random::{random_trace, RandomConfig};
pub use sparselu::{sparselu, SparseLuConfig};
pub use stream::{stream, stream_requests, StreamConfig};
pub use synthetic::{synthetic, Case, SYNTHETIC_DURATION, SYNTHETIC_TASKS};

use crate::trace::Trace;

/// The five real applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    /// Gauss-Seidel Heat diffusion.
    Heat,
    /// Dense LU factorization (column-panel formulation).
    Lu,
    /// Sparse blocked LU factorization.
    SparseLu,
    /// Blocked Cholesky factorization.
    Cholesky,
    /// H.264 video decoder (macroblock-wavefront model).
    H264dec,
}

impl App {
    /// All five applications in paper order.
    pub const ALL: [App; 5] = [
        App::Heat,
        App::Lu,
        App::SparseLu,
        App::Cholesky,
        App::H264dec,
    ];

    /// Lower-case name matching the calibration table.
    pub fn name(self) -> &'static str {
        match self {
            App::Heat => "heat",
            App::Lu => "lu",
            App::SparseLu => "sparselu",
            App::Cholesky => "cholesky",
            App::H264dec => "h264dec",
        }
    }

    /// The paper's four block sizes for this application (Table I).
    pub fn paper_block_sizes(self) -> [u64; 4] {
        match self {
            App::H264dec => [8, 4, 2, 1],
            _ => [256, 128, 64, 32],
        }
    }

    /// The paper's problem size, which a block size must divide: the
    /// matrix dimension of the four matrix codes. `None` for H264dec,
    /// whose macroblock groups cover a frame with partial edge groups.
    fn problem_size(self) -> Option<u64> {
        match self {
            App::Heat => Some(HeatConfig::paper(1).problem_size),
            App::Lu => Some(LuConfig::paper(1).problem_size),
            App::SparseLu => Some(SparseLuConfig::paper(1).problem_size),
            App::Cholesky => Some(CholeskyConfig::paper(1).problem_size),
            App::H264dec => None,
        }
    }

    /// Checks that [`App::generate`] accepts `block_size`: it must be
    /// positive and divide the application's problem size.
    ///
    /// # Errors
    ///
    /// Returns a message naming the application and its problem size.
    pub fn check_block(self, block_size: u64) -> Result<(), String> {
        match self.problem_size() {
            _ if block_size == 0 => Err(format!("{self} needs a positive block size")),
            Some(n) if !n.is_multiple_of(block_size) => Err(format!(
                "block size {block_size} does not divide {self}'s problem size {n}"
            )),
            _ => Ok(()),
        }
    }

    /// Generates the paper-configured trace for a block size.
    ///
    /// # Panics
    ///
    /// Panics if [`App::check_block`] rejects `block_size`.
    pub fn generate(self, block_size: u64) -> Trace {
        match self {
            App::Heat => heat(HeatConfig::paper(block_size)),
            App::Lu => lu(LuConfig::paper(block_size)),
            App::SparseLu => sparselu(SparseLuConfig::paper(block_size)),
            App::Cholesky => cholesky(CholeskyConfig::paper(block_size)),
            App::H264dec => h264dec(H264Config::paper(block_size)),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_block_accepts_exactly_what_generate_accepts() {
        for app in App::ALL {
            for bs in app.paper_block_sizes() {
                assert_eq!(app.check_block(bs), Ok(()), "{app} {bs}");
            }
            assert!(app.check_block(0).is_err(), "{app} 0");
        }
        let err = App::SparseLu.check_block(48).unwrap_err();
        assert!(err.contains("problem size 2048"), "{err}");
        assert!(App::Heat.check_block(3).is_err());
        // One block covering the whole matrix, and one frame-sized group.
        assert!(!App::Cholesky.generate(2048).is_empty());
        assert_eq!(App::H264dec.check_block(1 << 20), Ok(()));
        assert!(!App::H264dec.generate(1 << 20).is_empty());
    }

    #[test]
    fn all_apps_generate_nonempty() {
        for app in App::ALL {
            let bs = app.paper_block_sizes()[0];
            let tr = app.generate(bs);
            assert!(!tr.is_empty(), "{app}");
            assert_eq!(tr.name, app.name());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(App::SparseLu.to_string(), "sparselu");
        assert_eq!(App::H264dec.to_string(), "h264dec");
    }
}
