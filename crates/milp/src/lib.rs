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
//!   branching that solves every node's LP relaxation cold with
//!   [`certnn_lp::Simplex`], and stops on an absolute/relative gap or a
//!   node limit. It has no warm starts, no fault recovery and no deadline:
//!   a node LP that fails ends the solve with its [`LpError`]. The
//!   verifier runs the same branching, warm and in parallel, as one node
//!   rule of its own search (`certnn_verify::bab`), and its differential
//!   tests check that search against this plain one.
//!
//! # Example
//!
//! ```
//! use certnn_milp::{BranchAndBound, MilpModel, MilpStatus};
//! use certnn_lp::{RowKind, Sense};
//!
//! # fn main() -> Result<(), certnn_milp::LpError> {
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
pub use solver::{BranchAndBound, MilpOptions, MilpSolution, MilpStatus, INT_TOL};

pub use certnn_lp::{LpError, RowId, RowKind, Sense, VarId};
