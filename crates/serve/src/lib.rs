//! Verification-as-a-service for the certnn stack.
//!
//! A safety case is not certified once: every retrained fleet member,
//! every quantization sweep and every re-run of the evidence pipeline
//! re-asks the same MILP queries. This crate turns the workspace's
//! [`certnn_verify::verifier::Verifier`] into a long-running daemon so
//! those queries are *submitted* rather than *recomputed*:
//!
//! - [`wire`] — length-prefixed, versioned, checksummed binary framing
//!   over TCP; every malformed byte sequence maps to a typed
//!   [`wire::ProtocolError`], never a panic.
//! - [`protocol`] — the message layer: `SUBMIT`/`STATUS`/`RESULT`/
//!   `CANCEL`/`WATCH`/`EVENT`/`METRICS`/`FLIGHT`/`SHUTDOWN`, plus the
//!   [`protocol::JobRequest`]/[`protocol::JobOutcome`] payload codecs
//!   shared with the on-disk cache.
//! - [`cache`] — content-addressed certificate cache and crash-safe job
//!   spool: sealed files ([`certnn_verify::sealed`]) keyed by the
//!   checkpoint layer's query fingerprint.
//! - [`server`] — the daemon: bounded worker pool, job table with
//!   request coalescing, cancellation via [`certnn_verify::Deadline`],
//!   graceful drain, and resume of spooled jobs on restart.
//! - [`client`] — a small synchronous client used by the CLI bins, the
//!   fleet bridge and the test suites.
//! - [`fleet`] — [`fleet::run_fleet_over`]: the certification fleet of
//!   the paper's case study, executed over the wire with bit-identical
//!   verdicts to the in-process [`certnn_core::fleet::run_fleet`].
//! - [`flight`] — bounded per-job flight recorders: span tree,
//!   degradation transitions, checkpoint activity and phase profile,
//!   retrievable over the wire (`FLIGHT`) and persisted next to the
//!   certificate so audits survive restarts.
//! - [`prom`] — Prometheus text exposition of the daemon's live
//!   telemetry (`METRICS` over the CNSF wire, or plain HTTP via
//!   `--prom`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod client;
pub mod fleet;
pub mod flight;
pub mod prom;
pub mod protocol;
pub mod server;
pub mod wire;

use std::error::Error;
use std::fmt;

/// Error raised by the serve layer (client side or daemon side).
#[derive(Debug)]
pub enum ServeError {
    /// A wire/protocol violation.
    Protocol(wire::ProtocolError),
    /// The daemon reported a typed error for a request.
    Remote {
        /// Machine-readable code.
        code: protocol::ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Local I/O failure (socket setup, cache/spool files).
    Io(std::io::Error),
    /// The pipeline around the wire failed (dataset, training).
    Core(certnn_core::CoreError),
    /// An unexpected reply kind for the request that was sent.
    UnexpectedReply(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Core(e) => write!(f, "pipeline error: {e}"),
            ServeError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Protocol(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::ProtocolError> for ServeError {
    fn from(e: wire::ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<certnn_core::CoreError> for ServeError {
    fn from(e: certnn_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}
