//! Synchronous client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection and speaks the strict
//! request/reply discipline of [`crate::protocol`]. It is deliberately
//! small and blocking: the daemon is the concurrent party; callers that
//! want parallel submissions open several clients.

use crate::flight::FlightLog;
use crate::protocol::{Disposition, JobOutcome, JobRequest, JobState, LiveMetrics, Msg};
use crate::wire::{read_frame, write_frame};
use crate::ServeError;
use certnn_obs::SpanContext;
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Acknowledgement of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Daemon-assigned job id (scoped to the daemon instance).
    pub job: u64,
    /// Content-address of the job.
    pub key: u64,
    /// How the submission was satisfied.
    pub disposition: Disposition,
}

/// A job's state as reported by `STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Jobs queued or running at reply time.
    pub queue_depth: u64,
    /// Whether the job's outcome came from the cache.
    pub cache_hit: bool,
}

/// One progress event of a watched job.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Job state at the event.
    pub state: JobState,
    /// Cumulative branch-and-bound nodes (0 when observability is off).
    pub nodes: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// A connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    fn send(&mut self, msg: &Msg) -> Result<(), ServeError> {
        let (kind, body) = msg.to_frame();
        write_frame(&mut self.stream, kind, &body)?;
        self.stream.flush().map_err(ServeError::Io)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, ServeError> {
        let frame = read_frame(&mut self.stream)?;
        Ok(Msg::from_frame(&frame)?)
    }

    /// Receives a reply, surfacing server-side `ERROR` frames as
    /// [`ServeError::Remote`].
    fn recv_ok(&mut self) -> Result<Msg, ServeError> {
        match self.recv()? {
            Msg::Error { code, message } => Err(ServeError::Remote { code, message }),
            msg => Ok(msg),
        }
    }

    /// Submits a job. When observability is live the submission carries
    /// this process's span context, so the daemon's solve spans parent
    /// under the caller's trace.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or a typed server rejection.
    pub fn submit(&mut self, req: &JobRequest) -> Result<Submitted, ServeError> {
        let ctx = certnn_obs::current_span_id().map(SpanContext::new_root);
        self.submit_traced(req, ctx)
    }

    /// Submits a job under an explicit span context (`None` = untraced).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or a typed server rejection.
    pub fn submit_traced(
        &mut self,
        req: &JobRequest,
        ctx: Option<SpanContext>,
    ) -> Result<Submitted, ServeError> {
        self.send(&Msg::Submit { req: Box::new(req.clone()), ctx })?;
        match self.recv_ok()? {
            Msg::Submitted { job, key, disposition } => Ok(Submitted { job, key, disposition }),
            _ => Err(ServeError::UnexpectedReply("expected SUBMITTED")),
        }
    }

    /// Queries a job's state.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or an unknown job.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ServeError> {
        self.send(&Msg::Status { job })?;
        match self.recv_ok()? {
            Msg::StatusReply { state, queue_depth, cache_hit } => Ok(JobStatus {
                state,
                queue_depth,
                cache_hit,
            }),
            _ => Err(ServeError::UnexpectedReply("expected STATUS_REPLY")),
        }
    }

    /// Fetches a job's outcome, blocking server-side until it finishes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with the job's failure/cancellation/drain
    /// code, or a wire failure.
    pub fn result(&mut self, job: u64) -> Result<JobOutcome, ServeError> {
        // Waiting results can outlast any fixed read timeout.
        self.stream.set_read_timeout(None)?;
        self.send(&Msg::Result { job, wait: true })?;
        match self.recv_ok()? {
            Msg::ResultReply(outcome) => Ok(*outcome),
            _ => Err(ServeError::UnexpectedReply("expected RESULT_REPLY")),
        }
    }

    /// Fetches a job's outcome without waiting; `Ok(None)` while the job
    /// is still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or a terminal job failure.
    pub fn try_result(&mut self, job: u64) -> Result<Option<JobOutcome>, ServeError> {
        self.send(&Msg::Result { job, wait: false })?;
        match self.recv()? {
            Msg::ResultReply(outcome) => Ok(Some(*outcome)),
            Msg::Error { code, message } => {
                if code == crate::protocol::ErrorCode::NotReady {
                    Ok(None)
                } else {
                    Err(ServeError::Remote { code, message })
                }
            }
            _ => Err(ServeError::UnexpectedReply("expected RESULT_REPLY")),
        }
    }

    /// Cancels a job. Returns the daemon's disposition code
    /// (see [`Msg::CancelReply`]).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure.
    pub fn cancel(&mut self, job: u64) -> Result<u8, ServeError> {
        self.send(&Msg::Cancel { job })?;
        match self.recv_ok()? {
            Msg::CancelReply { outcome } => Ok(outcome),
            _ => Err(ServeError::UnexpectedReply("expected CANCEL_REPLY")),
        }
    }

    /// Watches a job to completion, invoking `on_event` per progress
    /// event, and returns the final outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or a terminal job failure.
    pub fn watch(
        &mut self,
        job: u64,
        mut on_event: impl FnMut(&WatchEvent),
    ) -> Result<JobOutcome, ServeError> {
        self.stream.set_read_timeout(None)?;
        self.send(&Msg::Watch { job })?;
        loop {
            match self.recv_ok()? {
                Msg::Event { seq, state, nodes, detail, .. } => on_event(&WatchEvent {
                    seq,
                    state,
                    nodes,
                    detail,
                }),
                Msg::ResultReply(outcome) => return Ok(*outcome),
                _ => return Err(ServeError::UnexpectedReply("expected EVENT or RESULT_REPLY")),
            }
        }
    }

    /// Fetches the daemon's live telemetry snapshot: cumulative
    /// counters, queue/worker/cache gauges, windowed rates and
    /// percentiles, and recent `serve.*` events.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure.
    pub fn metrics(&mut self) -> Result<LiveMetrics, ServeError> {
        self.send(&Msg::Metrics)?;
        match self.recv_ok()? {
            Msg::MetricsReply(m) => Ok(*m),
            _ => Err(ServeError::UnexpectedReply("expected METRICS_REPLY")),
        }
    }

    /// Fetches a job's flight recorder log.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure or an unknown job.
    pub fn flight(&mut self, job: u64) -> Result<FlightLog, ServeError> {
        self.send(&Msg::Flight { job })?;
        match self.recv_ok()? {
            Msg::FlightReply(log) => Ok(*log),
            _ => Err(ServeError::UnexpectedReply("expected FLIGHT_REPLY")),
        }
    }

    /// Asks the daemon to drain and shut down.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on wire failure.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        self.send(&Msg::Shutdown)?;
        match self.recv_ok()? {
            Msg::ShutdownReply => Ok(()),
            _ => Err(ServeError::UnexpectedReply("expected SHUTDOWN_REPLY")),
        }
    }

    /// Sets a read timeout for subsequent replies (`None` blocks
    /// indefinitely).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket option cannot be set.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}
