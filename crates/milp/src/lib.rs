//! Mixed-integer linear programming via branch-and-bound.
//!
//! `certnn-milp` layers integrality on top of the [`certnn_lp`] simplex
//! solver. It exists to solve the neural-network verification encodings of
//! `certnn-verify` (big-M ReLU encodings with one binary per unstable
//! neuron, per Cheng et al., ATVA 2017), but is a general-purpose MILP
//! solver:
//!
//! * [`MilpModel`] — continuous, binary and general-integer variables,
//!   sparse rows, single linear objective.
//! * [`BranchAndBound`] — best-bound-first search with most-fractional
//!   branching, LP re-solves via [`certnn_lp::Simplex::solve_with_bounds`],
//!   a rounding dive heuristic for early incumbents, and absolute/relative
//!   gap, node, time and threshold termination criteria. Threshold
//!   termination is what makes the *decision* query of the paper's Table II
//!   ("prove lateral velocity ≤ 3 m/s") cheaper than full optimisation.
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
pub use solver::{BranchAndBound, MilpOptions, MilpSolution, MilpStats, MilpStatus, WarmTracker};

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
    /// An integer variable has bounds the solver cannot branch on
    /// (NaN or inverted).
    BadIntegerBounds {
        /// The offending variable.
        var: VarId,
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Lp(e) => write!(f, "lp error: {e}"),
            MilpError::BadIntegerBounds { var, lo, hi } => {
                write!(f, "integer variable {var:?} has unusable bounds [{lo}, {hi}]")
            }
        }
    }
}

impl Error for MilpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MilpError::Lp(e) => Some(e),
            MilpError::BadIntegerBounds { .. } => None,
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
