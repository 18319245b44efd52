//! Mixed-integer linear programming via branch-and-bound.
//!
//! `certnn-milp` layers integrality on top of the [`certnn_lp`] simplex
//! solver. It holds the model type of the neural-network verification
//! encodings of `certnn-verify` (big-M ReLU encodings with one binary per
//! unstable neuron, per Cheng et al., ATVA 2017) and a general-purpose
//! solver that the verifier's tests use as an independent reference:
//!
//! * [`MilpModel`] — continuous, binary and general-integer variables,
//!   sparse rows, single linear objective.
//! * [`BranchAndBound`] — best-bound-first search with most-fractional
//!   branching, warm-started LP re-solves via [`certnn_lp::Simplex`] and
//!   absolute/relative gap, node and time termination criteria. The verifier itself runs
//!   the same branching as one node rule of its own search
//!   (`certnn_verify::bab`).
//!
//! # Example
//!
//! ```
//! use certnn_milp::{BranchAndBound, MilpModel, MilpStatus};
//! use certnn_lp::{RowKind, Sense};
//!
//! # fn main() -> Result<(), certnn_milp::MilpError> {
//! // Knapsack: max 8a + 11b + 6c, 5a + 7b + 4c <= 14, binaries.
//! let mut m = MilpModel::new(Sense::Maximize);
//! let a = m.add_binary("a");
//! let b = m.add_binary("b");
//! let c = m.add_binary("c");
//! m.set_objective(&[(a, 8.0), (b, 11.0), (c, 6.0)]);
//! m.add_row("cap", &[(a, 5.0), (b, 7.0), (c, 4.0)], RowKind::Le, 14.0)?;
//! let sol = BranchAndBound::new().solve(&m)?;
//! assert_eq!(sol.status, MilpStatus::Optimal);
//! assert!((sol.objective.unwrap() - 19.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod model;
mod solver;

pub use model::{MilpModel, VarKind};
pub use solver::{
    BranchAndBound, MilpOptions, MilpSolution, MilpStats, MilpStatus, WarmTracker, INT_TOL,
};

pub use certnn_lp::{
    Deadline, Degradation, LpError, RowId, RowKind, Sense, SolveError, VarId, WarmStart,
};

use std::error::Error;
use std::fmt;

/// Error raised while building or solving a MILP.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// Underlying LP layer rejected the model.
    Lp(LpError),
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Lp(e) => write!(f, "lp error: {e}"),
        }
    }
}

impl Error for MilpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MilpError::Lp(e) => Some(e),
        }
    }
}

impl From<LpError> for MilpError {
    fn from(e: LpError) -> Self {
        MilpError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = MilpError::from(LpError::NotANumber);
        assert!(e.to_string().contains("lp error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
