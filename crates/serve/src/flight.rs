//! Per-job flight recorders: a bounded, structured log of everything the
//! daemon did on behalf of one job, retrievable over the wire (`FLIGHT`)
//! and persisted next to the certificate so a post-hoc audit survives
//! daemon restarts.
//!
//! A [`FlightLog`] captures the serve-side span tree (open/close events
//! with span and parent ids, parented under the client's
//! [`certnn_obs::SpanContext`] when the submission carried one),
//! degradation transitions, checkpoint activity, and the per-phase time
//! profile of the solve. Checkpoint and phase figures are deltas of the
//! process-wide obs collectors taken around the solve on the worker
//! thread — exact with one worker, approximate (attribution may blur
//! across jobs) when several workers solve concurrently; the log says
//! what the daemon observed, the certificate stays the ground truth.
//!
//! **Retention bounds**: a recorder keeps at most [`MAX_EVENTS`] events;
//! further events are counted in [`FlightLog::truncated`] but dropped,
//! so a watcher-heavy or checkpoint-heavy job cannot grow daemon memory
//! without bound. On disk a log is sealed with the store's checksum
//! discipline under `cache/f<key>.flight` — like certificates, flight
//! logs are keyed by content-address, so a resubmission of the same
//! query (same key) finds the recording of the solve that produced its
//! cached certificate.

use crate::wire::ProtocolError;
use certnn_verify::sealed::{Dec, Enc};
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on events retained per job.
pub const MAX_EVENTS: usize = 256;

/// What a [`FlightEvent`] records. The `a`/`b` payload words are
/// kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Job accepted over the wire. `a` = client trace id (0 = none).
    Accepted,
    /// Job re-queued from the spool at daemon startup.
    Resumed,
    /// A serve-side span opened. `a` = span id, `b` = parent span id
    /// (0 = root); `detail` = span name.
    SpanOpen,
    /// A serve-side span closed. `a` = span id.
    SpanClose,
    /// Checkpoint activity during the solve. `a` = snapshots written,
    /// `b` = bytes written (obs-counter deltas; 0/0 when observability
    /// is off).
    Checkpoint,
    /// The outcome's degradation is worse than `Exact`. `a` = the wire
    /// degradation code; `detail` names it.
    Degradation,
    /// Per-phase profile of the solve. `a` = self nanoseconds,
    /// `b` = enter/exit count; `detail` = phase name.
    Phase,
    /// Finished with a usable outcome. `a` = solver nodes,
    /// `b` = elapsed nanoseconds.
    Finished,
    /// Failed structurally; `detail` carries the error.
    Failed,
    /// Cancelled by a client.
    Cancelled,
    /// Parked by a drain; spool and checkpoint survive. `a` = 1 if a
    /// resumable snapshot was left on disk.
    Drained,
}

impl FlightKind {
    fn as_u8(self) -> u8 {
        match self {
            FlightKind::Accepted => 0,
            FlightKind::Resumed => 1,
            FlightKind::SpanOpen => 2,
            FlightKind::SpanClose => 3,
            FlightKind::Checkpoint => 4,
            FlightKind::Degradation => 5,
            FlightKind::Phase => 6,
            FlightKind::Finished => 7,
            FlightKind::Failed => 8,
            FlightKind::Cancelled => 9,
            FlightKind::Drained => 10,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => FlightKind::Accepted,
            1 => FlightKind::Resumed,
            2 => FlightKind::SpanOpen,
            3 => FlightKind::SpanClose,
            4 => FlightKind::Checkpoint,
            5 => FlightKind::Degradation,
            6 => FlightKind::Phase,
            7 => FlightKind::Finished,
            8 => FlightKind::Failed,
            9 => FlightKind::Cancelled,
            10 => FlightKind::Drained,
            _ => return Err(ProtocolError::Malformed("unknown flight event kind")),
        })
    }

    /// Human-readable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Accepted => "accepted",
            FlightKind::Resumed => "resumed",
            FlightKind::SpanOpen => "span_open",
            FlightKind::SpanClose => "span_close",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Degradation => "degradation",
            FlightKind::Phase => "phase",
            FlightKind::Finished => "finished",
            FlightKind::Failed => "failed",
            FlightKind::Cancelled => "cancelled",
            FlightKind::Drained => "drained",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Nanoseconds since the job was accepted.
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Kind-specific payload word (see [`FlightKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Small human-readable detail (span name, phase name, error).
    pub detail: String,
}

/// The retrievable flight log of one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightLog {
    /// Content-address of the job this log audits.
    pub key: u64,
    /// Client trace id the job's spans parent under (0 = none).
    pub trace_id: u64,
    /// Events dropped beyond [`MAX_EVENTS`].
    pub truncated: u64,
    /// Retained events in record order.
    pub events: Vec<FlightEvent>,
}

/// A live, bounded per-job recorder. Shared between the submit path, the
/// worker and `FLIGHT` handlers via `Arc`; recording takes a short mutex
/// (never on the solver's hot path — events are serve-layer milestones).
#[derive(Debug)]
pub struct FlightRecorder {
    start: Instant,
    log: Mutex<FlightLog>,
}

impl FlightRecorder {
    /// Fresh recorder for a job under `key`, carrying the client's trace
    /// id (0 = untraced).
    pub fn new(key: u64, trace_id: u64) -> Self {
        Self {
            start: Instant::now(),
            log: Mutex::new(FlightLog {
                key,
                trace_id,
                truncated: 0,
                events: Vec::new(),
            }),
        }
    }

    /// Appends one event, timestamped relative to job accept. Beyond
    /// [`MAX_EVENTS`] the event is counted but dropped.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64, detail: impl Into<String>) {
        let t_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        if log.events.len() >= MAX_EVENTS {
            log.truncated += 1;
            return;
        }
        log.events.push(FlightEvent {
            t_ns,
            kind,
            a,
            b,
            detail: detail.into(),
        });
    }

    /// Point-in-time copy of the log.
    pub fn snapshot(&self) -> FlightLog {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Encodes a flight log body (shared by the wire and the on-disk store).
pub fn encode_flight(e: &mut Enc, log: &FlightLog) {
    e.u64(log.key);
    e.u64(log.trace_id);
    e.u64(log.truncated);
    e.u64(log.events.len() as u64);
    for ev in &log.events {
        e.u64(ev.t_ns);
        e.u8(ev.kind.as_u8());
        e.u64(ev.a);
        e.u64(ev.b);
        e.str(&ev.detail);
    }
}

/// Decodes a flight log body.
///
/// # Errors
///
/// [`ProtocolError`] on any truncation or structural violation.
pub fn decode_flight(d: &mut Dec<'_>) -> Result<FlightLog, ProtocolError> {
    let key = d.u64()?;
    let trace_id = d.u64()?;
    let truncated = d.u64()?;
    // Each event is at least t_ns + kind + a + b + empty detail.
    let n = d.len(33)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(FlightEvent {
            t_ns: d.u64()?,
            kind: FlightKind::from_u8(d.u8()?)?,
            a: d.u64()?,
            b: d.u64()?,
            detail: d.str()?,
        });
    }
    Ok(FlightLog {
        key,
        trace_id,
        truncated,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_log_round_trips() {
        let rec = FlightRecorder::new(0xbeef, 77);
        rec.record(FlightKind::Accepted, 77, 0, "");
        rec.record(FlightKind::SpanOpen, 5, 2, "serve.solve");
        rec.record(FlightKind::Phase, 1_000, 3, "bound");
        rec.record(FlightKind::Finished, 42, 9_999, "");
        let log = rec.snapshot();
        let mut e = Enc::new();
        encode_flight(&mut e, &log);
        let mut d = Dec::new(&e.0);
        let back = decode_flight(&mut d).expect("decodes");
        d.finish().expect("consumed");
        assert_eq!(back, log);
        assert_eq!(back.events[1].detail, "serve.solve");
    }

    #[test]
    fn recorder_is_bounded() {
        let rec = FlightRecorder::new(1, 0);
        for i in 0..(MAX_EVENTS as u64 + 50) {
            rec.record(FlightKind::Checkpoint, i, 0, "");
        }
        let log = rec.snapshot();
        assert_eq!(log.events.len(), MAX_EVENTS);
        assert_eq!(log.truncated, 50);
        // Earliest events are the ones retained (the accept/span head of
        // the story is the audit-critical part).
        assert_eq!(log.events[0].a, 0);
    }

    #[test]
    fn truncated_flight_bytes_are_detected() {
        let rec = FlightRecorder::new(2, 0);
        rec.record(FlightKind::Accepted, 0, 0, "");
        rec.record(FlightKind::Failed, 0, 0, "solver panicked");
        let mut e = Enc::new();
        encode_flight(&mut e, &rec.snapshot());
        for cut in 0..e.0.len() {
            let mut d = Dec::new(&e.0[..cut]);
            assert!(
                decode_flight(&mut d).is_err() || !d.done(),
                "prefix {cut}/{} must not decode cleanly",
                e.0.len()
            );
        }
    }
}
