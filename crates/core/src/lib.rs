//! The paper's certification methodology as an executable API.
//!
//! `certnn-core` is the top of the workspace: it wires the substrates —
//! simulator, data validation, training, traceability, formal
//! verification — into the three-pillar methodology the paper proposes
//! for dependable neural networks:
//!
//! 1. **Specification validity** — validate the training data as a new
//!    kind of specification ([`certnn_datacheck`]).
//! 2. **Implementation understandability** — neuron-to-feature
//!    traceability ([`certnn_trace`]).
//! 3. **Implementation correctness** — formal analysis against safety
//!    properties instead of coverage testing ([`certnn_verify`]).
//!
//! * [`pillars`] — Table I of the paper as typed, printable data.
//! * [`scenario`] — the case-study property: *if a vehicle is abreast on
//!   the left, the predictor's lateral-velocity mean stays bounded*.
//! * [`pipeline`] — [`pipeline::CertificationPipeline`] runs the whole
//!   methodology end to end and emits a
//!   [`pipeline::CertificationReport`].
//! * [`fleet`] — the paper's fleet experiment; [`run`] holds the run
//!   settings it shares with the Table II sweep in `certnn-bench`.
//!
//! # Example
//!
//! ```no_run
//! use certnn_core::pipeline::{CertificationPipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), certnn_core::CoreError> {
//! let config = PipelineConfig::smoke_test();
//! let report = CertificationPipeline::new(config).run()?;
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod pillars;
pub mod report;
pub mod pipeline;
pub mod run;
pub mod scenario;

use certnn_nn::NnError;
use certnn_sim::SimError;
use certnn_verify::VerifyError;
use std::error::Error;
use std::fmt;

/// Error raised by the certification pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Simulation / data generation failed.
    Sim(SimError),
    /// Training or network construction failed.
    Nn(NnError),
    /// Verification failed structurally.
    Verify(VerifyError),
    /// The sanitized dataset is empty — nothing to train on.
    EmptyDataset,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Verify(e) => write!(f, "verification error: {e}"),
            CoreError::EmptyDataset => f.write_str("sanitized dataset is empty"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Verify(e) => Some(e),
            CoreError::EmptyDataset => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<VerifyError> for CoreError {
    fn from(e: VerifyError) -> Self {
        CoreError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = CoreError::from(SimError::UnknownVehicle(1));
        assert!(e.to_string().contains("simulation"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CoreError::EmptyDataset).is_none());
    }
}
