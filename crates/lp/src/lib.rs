//! Linear programming for the `certnn` workspace.
//!
//! This crate implements a bounded-variable, two-phase, revised primal
//! simplex solver from scratch. It is the substrate underneath
//! `certnn-milp`'s branch-and-bound, which in turn powers the MILP-based
//! neural-network verification of the paper's Table II.
//!
//! # Design
//!
//! * [`LpModel`] is a builder for problems of the form
//!   `opt cᵀx  s.t.  aᵢᵀx {≤,=,≥} bᵢ,  l ≤ x ≤ u` with per-variable bounds
//!   that may be infinite.
//! * [`Simplex`] converts the model to computational form (one slack per
//!   row, artificials where the slack basis is bound-infeasible), runs a
//!   phase-1/phase-2 bounded-variable simplex over a factorized basis (LU
//!   with partial pivoting plus a capped product-form eta file), Dantzig
//!   pricing and Bland's rule as anti-cycling fallback, and reports an
//!   exact [`LpSolution`].
//! * Branch-and-bound re-solves the same model under tightened variable
//!   bounds via [`Simplex::solve_warm`], from the parent's basis snapshot
//!   when it has one, so bound changes never require rebuilding the model.
//!
//! # Example
//!
//! ```
//! use certnn_lp::{LpModel, RowKind, Sense, Simplex, LpStatus};
//!
//! # fn main() -> Result<(), certnn_lp::LpError> {
//! // max x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut m = LpModel::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY);
//! let y = m.add_var("y", 0.0, f64::INFINITY);
//! m.set_objective(&[(x, 1.0), (y, 1.0)]);
//! m.add_row("c1", &[(x, 1.0), (y, 2.0)], RowKind::Le, 4.0)?;
//! m.add_row("c2", &[(x, 3.0), (y, 1.0)], RowKind::Le, 6.0)?;
//! let sol = Simplex::new().solve(&m)?;
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 2.8).abs() < 1e-7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod csc;
mod deadline;
mod factor;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod model;
mod obs;
mod simplex;

pub use deadline::Deadline;
pub use model::{LpModel, RowId, RowKind, Sense, VarId};
pub use simplex::{Simplex, WarmSolve, WarmStart};

use std::error::Error;
use std::fmt;

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
    /// A [`Deadline`] expired (or was cancelled) before convergence.
    Deadline,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
            LpStatus::Deadline => "deadline expired",
        };
        f.write_str(s)
    }
}

/// How far a reported result degraded from an exact solve.
///
/// Every layer of the stack (LP → MILP → neuron branch-and-bound →
/// verifier → fleet) reports the *worst* degradation it encountered, so a
/// consumer can tell an exact verdict from one that survived a numeric
/// fault or a deadline. Ordering follows severity: merging two levels
/// with [`Degradation::merge`] (or `max`) keeps the worse one.
///
/// Crucially, every level is still *sound*: a degraded bound is looser,
/// never wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Degradation {
    /// Fully converged solve; no fault or deadline interfered.
    #[default]
    Exact,
    /// A checkpoint resume was rejected (corruption, torn write, or a
    /// query-hash mismatch) and the solve restarted from scratch. The
    /// answer is as tight as an exact one — only the salvaged work was
    /// lost — but the rejected snapshot is worth surfacing.
    CheckpointFallback,
    /// A warm solve failed on a numeric fault (singular basis, NaN
    /// poisoning, corrupt snapshot) and a cold re-solve recovered. The
    /// result is as tight as an exact one but the fault is worth
    /// surfacing.
    ColdFallback,
    /// A subproblem fell back to interval arithmetic (or a subtree's LP
    /// relaxation bound was folded unexplored), loosening the bound.
    IntervalOnly,
    /// A deadline expired; the bound folds every unexplored subproblem
    /// conservatively.
    TimedOut,
}

impl Degradation {
    /// The worse (more degraded) of two levels.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        self.max(other)
    }

    /// Stable machine-readable name, used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Degradation::Exact => "exact",
            Degradation::CheckpointFallback => "checkpoint_fallback",
            Degradation::ColdFallback => "cold_fallback",
            Degradation::IntervalOnly => "interval_only",
            Degradation::TimedOut => "timed_out",
        }
    }

    /// Parses the output of [`Degradation::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(Degradation::Exact),
            "checkpoint_fallback" => Some(Degradation::CheckpointFallback),
            "cold_fallback" => Some(Degradation::ColdFallback),
            "interval_only" => Some(Degradation::IntervalOnly),
            "timed_out" => Some(Degradation::TimedOut),
            _ => None,
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Result of an LP solve.
///
/// `x` and `duals` are meaningful only when `status` is
/// [`LpStatus::Optimal`]; for other statuses they hold the last iterate and
/// are useful for diagnostics only.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value in the model's own sense (maximisation objectives are
    /// reported as maxima).
    pub objective: f64,
    /// Primal values for the structural variables, indexed by [`VarId`].
    pub x: Vec<f64>,
    /// Dual values (simplex multipliers) per row, indexed by [`RowId`],
    /// reported for the model's own sense.
    pub duals: Vec<f64>,
    /// Number of simplex iterations performed across both phases: basis
    /// changes plus primal bound flips. The bound flips of one dual
    /// ratio-test pass belong to that pass's single iteration.
    pub iterations: usize,
}

impl LpSolution {
    /// Value of variable `v` in the solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.index()]
    }
}

/// A recoverable numeric failure inside a simplex solve.
///
/// These replace panics (and silent continuation) on conditions a caller
/// can recover from by climbing the retry ladder: warm solve → cold
/// re-solve → sound interval fallback. They are surfaced through
/// [`LpError::Solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveError {
    /// The basis matrix could not be (re)factorised: numerically singular.
    SingularBasis,
    /// A non-finite value (NaN/±Inf) appeared in the tableau.
    NumericalPoison,
    /// A warm-start snapshot is internally inconsistent (corrupt basis).
    StaleWarmStart,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolveError::SingularBasis => "singular basis matrix",
            SolveError::NumericalPoison => "non-finite value in tableau",
            SolveError::StaleWarmStart => "corrupt warm-start snapshot",
        };
        f.write_str(s)
    }
}

impl Error for SolveError {}

/// Error raised while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A referenced variable does not belong to the model.
    UnknownVar {
        /// The offending variable id.
        var: VarId,
        /// Number of variables in the model.
        model_vars: usize,
    },
    /// A variable's lower bound exceeds its upper bound.
    InvalidBounds {
        /// The offending variable id.
        var: VarId,
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// A coefficient, bound or right-hand side is NaN.
    NotANumber,
    /// A bounds override has the wrong length.
    BoundsLength {
        /// Provided length.
        got: usize,
        /// Expected length (number of model variables).
        expected: usize,
    },
    /// A recoverable numeric failure occurred during the solve itself.
    Solve(SolveError),
}

impl From<SolveError> for LpError {
    fn from(e: SolveError) -> Self {
        LpError::Solve(e)
    }
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::UnknownVar { var, model_vars } => {
                write!(f, "variable {:?} out of range ({} vars)", var, model_vars)
            }
            LpError::InvalidBounds { var, lo, hi } => {
                write!(f, "invalid bounds [{lo}, {hi}] for {:?}", var)
            }
            LpError::NotANumber => f.write_str("NaN coefficient, bound or rhs"),
            LpError::BoundsLength { got, expected } => {
                write!(f, "bounds override has length {got}, expected {expected}")
            }
            LpError::Solve(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl Error for LpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LpError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
        assert_eq!(LpStatus::Infeasible.to_string(), "infeasible");
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            LpError::NotANumber,
            LpError::BoundsLength { got: 1, expected: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn types_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<LpModel>();
        check::<LpSolution>();
        check::<LpError>();
        check::<Deadline>();
        check::<Degradation>();
    }

    #[test]
    fn degradation_merge_keeps_the_worse_level() {
        use Degradation::*;
        assert_eq!(Exact.merge(ColdFallback), ColdFallback);
        assert_eq!(TimedOut.merge(IntervalOnly), TimedOut);
        assert_eq!(IntervalOnly.merge(ColdFallback), IntervalOnly);
        assert_eq!(Exact.merge(Exact), Exact);
        assert_eq!(Exact.merge(CheckpointFallback), CheckpointFallback);
        assert_eq!(CheckpointFallback.merge(ColdFallback), ColdFallback);
        assert_eq!(Degradation::default(), Exact);
    }

    #[test]
    fn degradation_round_trips_through_strings() {
        for d in [
            Degradation::Exact,
            Degradation::CheckpointFallback,
            Degradation::ColdFallback,
            Degradation::IntervalOnly,
            Degradation::TimedOut,
        ] {
            assert_eq!(Degradation::from_str_opt(d.as_str()), Some(d));
            assert_eq!(d.to_string(), d.as_str());
        }
        assert_eq!(Degradation::from_str_opt("bogus"), None);
    }

    #[test]
    fn solve_error_wraps_into_lp_error() {
        let e: LpError = SolveError::SingularBasis.into();
        assert_eq!(e, LpError::Solve(SolveError::SingularBasis));
        assert!(e.to_string().contains("singular"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
