//! Formal verification of ReLU networks via MILP (the paper's Sec. II (B)
//! "from testing to formal analysis").
//!
//! The methodology follows Cheng, Nührenberg & Ruess, *Maximum Resilience
//! of Artificial Neural Networks* (ATVA 2017), which the paper applies in
//! its case study: the piecewise-linear network is encoded exactly as a
//! set of mixed-integer linear constraints, and safety questions become
//! MILP queries.
//!
//! # Architecture
//!
//! 1. [`bounds`] — sound per-neuron pre-activation bounds: fast interval
//!    propagation ([`bounds::interval_bounds`]), the tighter DeepPoly/
//!    CROWN-style symbolic relaxation ([`bounds::symbolic_bounds`]), and
//!    the phase-aware variant ([`bounds::analyze_with_phases`]) that
//!    re-propagates under partial ReLU phase assignments. Tight bounds
//!    shrink big-M constants and let *stable* neurons be encoded without
//!    a binary variable.
//! 2. [`encoder`] — the big-M MILP encoding over a [`property::InputSpec`]
//!    (box + linear scenario constraints such as *a vehicle is abreast on
//!    the left*).
//! 3. [`bab`] — the one search engine, a hybrid neuron branch-and-bound:
//!    gradient-guided phase branching, symbolic + LP bounding per node,
//!    genuine incumbents from every node's bounding corner, and, once few
//!    neurons remain unstable, the big-M MILP's own LP rule on the same
//!    frontier, which closes the gap exactly. The search is work-sharing
//!    parallel ([`bab::BabOptions::threads`]); any thread count returns
//!    the same verdict within the `abs_gap` contract.
//! 4. [`verifier`] — the two query forms of Table II behind one facade:
//!    [`verifier::Verifier::maximize`] / [`verifier::Verifier::minimize`]
//!    compute exact extrema of linear output functionals (rows 1–6), and
//!    [`verifier::Verifier::prove_below`] decides a bound with early
//!    termination in both directions (last row). The
//!    [`verifier::Engine`] picks, per query, where [`bab`] switches nodes
//!    to the LP rule: at the root ([`verifier::Engine::Milp`], the paper's
//!    method) or once few neurons remain unstable
//!    ([`verifier::Engine::HybridBab`]); the default
//!    [`verifier::Engine::Auto`] picks between the two by the number of
//!    neurons the root's symbolic analysis leaves unstable.
//! 5. [`attack`] — cheap gradient falsification to run *before* complete
//!    verification; [`robustness`] — local robustness and the
//!    maximum-resilience search of the cited ATVA 2017 methodology;
//!    [`range`] — verified output ranges; [`quant`] — post-training
//!    quantization (the paper's Sec. IV (ii)), verified through the same
//!    encodings.
//!
//! # Example
//!
//! ```
//! use certnn_nn::network::Network;
//! use certnn_verify::property::{InputSpec, LinearObjective};
//! use certnn_verify::verifier::Verifier;
//! use certnn_linalg::Interval;
//!
//! # fn main() -> Result<(), certnn_verify::VerifyError> {
//! let net = Network::relu_mlp(2, &[4], 1, 0)?;
//! let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 2])?;
//! let objective = LinearObjective::output(0);
//! let result = Verifier::new().maximize(&net, &spec, &objective)?;
//! assert!(result.is_exact());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod attack;
pub mod bab;
pub mod bounds;
pub mod checkpoint;
pub mod encoder;
pub mod property;
pub mod quant;
pub mod range;
pub mod robustness;
pub mod sealed;
pub mod verifier;

pub use certnn_lp::{Deadline, Degradation};
// The solver status appears on this crate's own public API
// (`MaxResult::status`); re-export it so downstream crates (the serve
// daemon) can name it without depending on certnn-milp directly.
pub use certnn_milp::MilpStatus;

use certnn_lp::LpError;
use certnn_nn::NnError;
use std::error::Error;
use std::fmt;

/// Error raised during verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The network is malformed or does not match the specification.
    Network(NnError),
    /// An LP solve failed structurally (malformed model or bounds), or
    /// the encoder built a malformed row.
    Lp(LpError),
    /// The input specification does not match the network's input width.
    SpecMismatch {
        /// Network input width.
        network_inputs: usize,
        /// Specification width.
        spec_inputs: usize,
    },
    /// The network contains an activation the MILP encoding cannot express
    /// exactly (e.g. `tanh`).
    NotPiecewiseLinear {
        /// Index of the offending layer.
        layer: usize,
    },
    /// An internal soundness check failed (encoded optimum does not match a
    /// real forward pass). This indicates a bug, never a property result.
    CounterexampleMismatch {
        /// Objective value claimed by the MILP.
        claimed: f64,
        /// Objective value recomputed by a forward pass.
        recomputed: f64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Network(e) => write!(f, "network error: {e}"),
            VerifyError::Lp(e) => write!(f, "lp error: {e}"),
            VerifyError::SpecMismatch {
                network_inputs,
                spec_inputs,
            } => write!(
                f,
                "specification has {spec_inputs} inputs but network expects {network_inputs}"
            ),
            VerifyError::NotPiecewiseLinear { layer } => {
                write!(f, "layer {layer} is not piecewise linear; MILP encoding is exact only for relu/identity")
            }
            VerifyError::CounterexampleMismatch { claimed, recomputed } => write!(
                f,
                "internal soundness check failed: milp claims {claimed}, forward pass gives {recomputed}"
            ),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Network(e) => Some(e),
            VerifyError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for VerifyError {
    fn from(e: NnError) -> Self {
        VerifyError::Network(e)
    }
}

impl From<LpError> for VerifyError {
    fn from(e: LpError) -> Self {
        VerifyError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = VerifyError::from(NnError::EmptyArchitecture);
        assert!(e.to_string().contains("network error"));
        assert!(std::error::Error::source(&e).is_some());
        let e2 = VerifyError::SpecMismatch {
            network_inputs: 84,
            spec_inputs: 2,
        };
        assert!(e2.to_string().contains("84"));
    }
}
