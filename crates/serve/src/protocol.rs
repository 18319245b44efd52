//! Typed messages of the serve protocol, layered on [`crate::wire`].
//!
//! A client speaks a strict request/reply discipline: `SUBMIT`,
//! `STATUS`, `RESULT`, `CANCEL`, `METRICS`, `FLIGHT` and `SHUTDOWN` each
//! elicit one reply frame; `WATCH` elicits a stream of `EVENT` frames
//! terminated by a `RESULT` reply (or an `ERROR`). Every message encodes
//! through the allocation-guarded [`Enc`]/[`Dec`] codec and is
//! interpretable on its own — no implicit connection state — which is
//! what makes the robustness suite's byte-level attacks tractable.
//!
//! The unit of work is a [`JobRequest`]: a network (in the workspace's
//! bit-exact text serialisation), an input specification, a linear
//! objective and a resource budget. The unit of value is a
//! [`JobOutcome`]: the solver's verdict plus its full statistics and
//! degradation tag, byte-identical whether it came from a fresh solve,
//! the certificate cache, or a resumed checkpoint.

use crate::flight::{decode_flight, encode_flight, FlightLog};
use crate::wire::{Frame, ProtocolError};
use certnn_nn::network::Network;
use certnn_obs::SpanContext;
use certnn_nn::serialize::{from_text, to_text};
use certnn_verify::bab::resolve_threads;
use certnn_verify::checkpoint::query_fingerprint;
use certnn_verify::property::{InputSpec, LinearConstraint, LinearObjective, Relation};
use certnn_verify::sealed::{degradation_code, degradation_from_code, Dec, Enc, Fnv1a};
use certnn_verify::verifier::{MaxResult, VerifierOptions, VerifyStats};
use certnn_verify::{Degradation, MilpStatus};
use std::time::Duration;

/// Upper bound on the per-job `threads` knob a request may carry. The
/// wire value is attacker-controlled and ultimately sizes an OS thread
/// spawn; anything above this is rejected as an invalid job, and even
/// accepted values are clamped to the machine's parallelism before the
/// solver sees them ([`JobRequest::verifier_options`]).
pub const MAX_THREADS: u64 = 4096;

/// Frame kind discriminants (the `kind` byte of every frame).
pub mod kind {
    /// Client → server: submit a job.
    pub const SUBMIT: u8 = 1;
    /// Server → client: job accepted (id + disposition).
    pub const SUBMITTED: u8 = 2;
    /// Client → server: query a job's state.
    pub const STATUS: u8 = 3;
    /// Server → client: job state reply.
    pub const STATUS_REPLY: u8 = 4;
    /// Client → server: fetch a job's outcome (optionally blocking).
    pub const RESULT: u8 = 5;
    /// Server → client: finished job outcome.
    pub const RESULT_REPLY: u8 = 6;
    /// Client → server: cancel a job.
    pub const CANCEL: u8 = 7;
    /// Server → client: cancellation disposition.
    pub const CANCEL_REPLY: u8 = 8;
    /// Client → server: stream progress events until the job finishes.
    pub const WATCH: u8 = 9;
    /// Server → client: one progress event of a watched job.
    pub const EVENT: u8 = 10;
    /// Server → client: typed error.
    pub const ERROR: u8 = 11;
    /// Client → server: drain in-flight work and shut the daemon down.
    pub const SHUTDOWN: u8 = 12;
    /// Server → client: drain acknowledged.
    pub const SHUTDOWN_REPLY: u8 = 13;
    // 14 and 15 are retired: never reassign them, so a frame from an old
    // peer is rejected as an unknown kind rather than misread.
    /// Client → server: fetch the live telemetry snapshot.
    pub const METRICS: u8 = 16;
    /// Server → client: live telemetry snapshot.
    pub const METRICS_REPLY: u8 = 17;
    /// Client → server: fetch a job's flight recorder.
    pub const FLIGHT: u8 = 18;
    /// Server → client: flight recorder contents.
    pub const FLIGHT_REPLY: u8 = 19;
}

/// Machine-readable codes carried by `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame was structurally invalid.
    Malformed,
    /// The requested job id is not known to this daemon.
    UnknownJob,
    /// The job has not finished and the request did not ask to wait.
    NotReady,
    /// The daemon is draining and accepts no new jobs.
    Draining,
    /// The job ran but the verifier failed structurally.
    JobFailed,
    /// The submitted job payload does not describe a valid query.
    InvalidJob,
    /// The frame itself was rejected by the wire layer.
    Wire,
}

impl ErrorCode {
    /// Wire byte of the code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownJob => 2,
            ErrorCode::NotReady => 3,
            ErrorCode::Draining => 4,
            ErrorCode::JobFailed => 5,
            ErrorCode::InvalidJob => 6,
            ErrorCode::Wire => 7,
        }
    }

    /// Parses a code byte; unknown bytes collapse to [`ErrorCode::Wire`].
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownJob,
            3 => ErrorCode::NotReady,
            4 => ErrorCode::Draining,
            5 => ErrorCode::JobFailed,
            6 => ErrorCode::InvalidJob,
            _ => ErrorCode::Wire,
        }
    }
}

// ---------------------------------------------------------------------------
// Job request
// ---------------------------------------------------------------------------

/// A maximisation query shipped to the daemon: compute (or bound)
/// `max f(out(x))` for `x` in the spec, under an explicit resource
/// budget and solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The network, in the workspace's bit-exact text serialisation
    /// ([`certnn_nn::serialize`]); the server re-parses and re-hashes it,
    /// so the cache key is computed over what actually arrived.
    pub network_text: String,
    /// Input box: `(lo, hi)` per feature.
    pub bounds: Vec<(f64, f64)>,
    /// Linear scenario constraints over the features.
    pub constraints: Vec<WireConstraint>,
    /// Sparse objective terms over the output neurons.
    pub objective_terms: Vec<(u64, f64)>,
    /// Affine constant of the objective.
    pub objective_constant: f64,
    /// Wall-clock budget in milliseconds (`0` = unlimited).
    pub time_limit_ms: u64,
    /// Branch-and-bound node budget (`0` = unlimited).
    pub node_limit: u64,
    /// Search workers for this job's own branch-and-bound (`1` =
    /// deterministic serial order).
    pub threads: u64,
    /// Reuse parent LP bases across nodes.
    pub warm_start: bool,
    /// α-optimization rounds per node (`0` = fixed-slope heuristic).
    pub alpha_iters: u64,
    /// Elide redundant per-node LP relaxations.
    pub lp_skip: bool,
}

/// One linear constraint as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireConstraint {
    /// Relation code: `0` ≤, `1` =, `2` ≥.
    pub relation: u8,
    /// Right-hand side.
    pub rhs: f64,
    /// Sparse `(feature index, coefficient)` terms.
    pub terms: Vec<(u64, f64)>,
}

impl JobRequest {
    /// Builds a request from typed in-process query parts. The node
    /// budget is `node_limit` if given, else `opts.node_limit`.
    pub fn from_query(
        net: &Network,
        spec: &InputSpec,
        objective: &LinearObjective,
        opts: &VerifierOptions,
        node_limit: Option<usize>,
    ) -> Self {
        Self {
            network_text: to_text(net),
            bounds: spec.bounds().iter().map(|iv| (iv.lo(), iv.hi())).collect(),
            constraints: spec
                .constraints()
                .iter()
                .map(|c| WireConstraint {
                    relation: match c.relation {
                        Relation::Le => 0,
                        Relation::Eq => 1,
                        Relation::Ge => 2,
                    },
                    rhs: c.rhs,
                    terms: c.terms.iter().map(|&(i, v)| (i as u64, v)).collect(),
                })
                .collect(),
            objective_terms: objective
                .terms
                .iter()
                .map(|&(i, v)| (i as u64, v))
                .collect(),
            objective_constant: objective.constant,
            time_limit_ms: opts
                .time_limit
                .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64),
            node_limit: node_limit.or(opts.node_limit).map_or(0, |n| n as u64),
            threads: opts.threads as u64,
            warm_start: opts.warm_start,
            alpha_iters: opts.alpha_iters as u64,
            lp_skip: opts.lp_skip,
        }
    }

    /// Parses the embedded network.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] when the text does not parse.
    pub fn parse_network(&self) -> Result<Network, ProtocolError> {
        from_text(&self.network_text).map_err(|_| ProtocolError::Malformed("unparseable network"))
    }

    /// Reconstructs the typed [`InputSpec`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on an empty/inverted box or a bad
    /// relation code.
    pub fn input_spec(&self) -> Result<InputSpec, ProtocolError> {
        let bounds = self
            .bounds
            .iter()
            .map(|&(lo, hi)| certnn_linalg::Interval::new(lo, hi))
            .collect();
        let mut spec = InputSpec::from_box(bounds)
            .map_err(|_| ProtocolError::Malformed("invalid input box"))?;
        for c in &self.constraints {
            let relation = match c.relation {
                0 => Relation::Le,
                1 => Relation::Eq,
                2 => Relation::Ge,
                _ => return Err(ProtocolError::Malformed("unknown relation code")),
            };
            spec = spec.constrain(LinearConstraint {
                terms: c.terms.iter().map(|&(i, v)| (i as usize, v)).collect(),
                relation,
                rhs: c.rhs,
            });
        }
        Ok(spec)
    }

    /// Reconstructs the typed [`LinearObjective`].
    pub fn objective(&self) -> LinearObjective {
        LinearObjective {
            terms: self
                .objective_terms
                .iter()
                .map(|&(i, v)| (i as usize, v))
                .collect(),
            constant: self.objective_constant,
        }
    }

    /// Verifier options this request asks the daemon to solve under.
    /// The wire `threads` knob is clamped to the machine's available
    /// parallelism (`0` = auto survives the clamp): a client cannot make
    /// a worker attempt an unbounded number of OS thread spawns.
    pub fn verifier_options(&self) -> VerifierOptions {
        VerifierOptions {
            time_limit: (self.time_limit_ms > 0)
                .then(|| Duration::from_millis(self.time_limit_ms)),
            node_limit: (self.node_limit > 0).then_some(self.node_limit as usize),
            threads: usize::try_from(self.threads)
                .unwrap_or(usize::MAX)
                .min(resolve_threads(0)),
            warm_start: self.warm_start,
            alpha_iters: self.alpha_iters as usize,
            lp_skip: self.lp_skip,
            ..VerifierOptions::default()
        }
    }

    /// Content-address of this job: the (weights, property) query
    /// fingerprint folded with every solver knob that can change the
    /// *reported* result (budget, threads, warm/α/skip configuration).
    /// Two requests with equal keys are answerable by one solve; a
    /// certificate cached under this key is exchangeable for running the
    /// solver again.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] when the payload does not describe a
    /// valid query.
    pub fn job_key(&self) -> Result<u64, ProtocolError> {
        let net = self.parse_network()?;
        let spec = self.input_spec()?;
        let objective = self.objective();
        Ok(job_key_of(&net, &spec, &objective, self))
    }
}

/// [`JobRequest::job_key`] over already-parsed query parts (the server
/// parses once and reuses the parts for solving).
pub fn job_key_of(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    req: &JobRequest,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(query_fingerprint(net, spec, objective));
    h.write_u64(req.time_limit_ms);
    h.write_u64(req.node_limit);
    h.write_u64(req.threads);
    h.write_u64(u64::from(req.warm_start));
    h.write_u64(req.alpha_iters);
    h.write_u64(u64::from(req.lp_skip));
    h.finish()
}

// ---------------------------------------------------------------------------
// Job outcome
// ---------------------------------------------------------------------------

/// Outcome of a finished job: verdict, witness and statistics — the
/// payload a certificate cache entry stores and a `RESULT` reply ships.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Content-address the job was solved (and cached) under.
    pub key: u64,
    /// Termination status of the solver.
    pub status: MilpStatus,
    /// Proven upper bound on the objective.
    pub upper_bound: f64,
    /// Best objective value achieved by a real input, if one was found.
    pub best_value: Option<f64>,
    /// An input achieving `best_value`.
    pub witness: Option<Vec<f64>>,
    /// Solver statistics; `stats.degradation` always equals
    /// [`JobOutcome::degradation`].
    pub stats: VerifyStats,
    /// Worst degradation encountered answering the query.
    pub degradation: Degradation,
    /// `true` when this outcome was served from the certificate cache
    /// (or coalesced onto another client's identical in-flight solve)
    /// instead of a fresh solve.
    pub cache_hit: bool,
}

impl JobOutcome {
    /// Builds an outcome from an in-process [`MaxResult`].
    pub fn from_max_result(key: u64, r: &MaxResult) -> Self {
        Self {
            key,
            status: r.status,
            upper_bound: r.upper_bound,
            best_value: r.best_value,
            witness: r.witness.as_ref().map(|w| w.iter().copied().collect()),
            stats: r.stats,
            degradation: r.stats.degradation,
            cache_hit: false,
        }
    }

    /// `true` if the query closed (bound meets witness).
    pub fn is_exact(&self) -> bool {
        self.status == MilpStatus::Optimal
    }

    /// The exact maximum if the query closed, else `None`.
    pub fn exact_max(&self) -> Option<f64> {
        self.is_exact().then_some(self.best_value).flatten()
    }
}

// ---------------------------------------------------------------------------
// Remaining message payloads
// ---------------------------------------------------------------------------

/// Job lifecycle states as reported by `STATUS`/`EVENT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished with an outcome.
    Done,
    /// The verifier failed structurally.
    Failed,
    /// Cancelled by a client.
    Cancelled,
    /// Interrupted by a drain; its checkpoint and spool entry survive
    /// for the next daemon instance to resume.
    Drained,
}

impl JobState {
    /// Wire byte of the state.
    pub fn as_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
            JobState::Drained => 5,
        }
    }

    /// Parses a state byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on an unknown byte.
    pub fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            5 => JobState::Drained,
            _ => return Err(ProtocolError::Malformed("unknown job state")),
        })
    }

    /// Human-readable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Drained => "drained",
        }
    }
}

/// How a `SUBMIT` was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A fresh solve was scheduled.
    Fresh,
    /// The request coalesced onto an identical in-flight job.
    Coalesced,
    /// The certificate cache already held the answer.
    CacheHit,
}

impl Disposition {
    fn as_u8(self) -> u8 {
        match self {
            Disposition::Fresh => 0,
            Disposition::Coalesced => 1,
            Disposition::CacheHit => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => Disposition::Fresh,
            1 => Disposition::Coalesced,
            2 => Disposition::CacheHit,
            _ => return Err(ProtocolError::Malformed("unknown disposition")),
        })
    }
}

/// Windowed percentile snapshot of one histogram as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowHist {
    /// Samples inside the window.
    pub count: u64,
    /// ~50th percentile.
    pub p50: u64,
    /// ~95th percentile.
    pub p95: u64,
    /// ~99th percentile.
    pub p99: u64,
}

/// The live telemetry snapshot a `METRICS` frame returns: operational
/// gauges, cumulative counters, sliding-window rates and percentiles,
/// and the daemon's recent `serve.*` event ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveMetrics {
    /// Nanoseconds since the daemon started.
    pub uptime_ns: u64,
    /// Jobs queued or running right now.
    pub queue_depth: u64,
    /// Worker threads in the pool.
    pub workers_total: u64,
    /// Workers currently solving.
    pub workers_busy: u64,
    /// `cache_hits / (cache_hits + cache_misses)` since start (`0` when
    /// nothing was submitted yet).
    pub cache_hit_ratio: f64,
    /// Cumulative scalar counters (`serve.*`), name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Windowed counters as events-per-second over the sliding window,
    /// name-sorted.
    pub rates: Vec<(String, f64)>,
    /// Windowed histogram percentiles, name-sorted.
    pub windows: Vec<(String, WindowHist)>,
    /// Recent daemon events: `(nanos since start, text)`, oldest first.
    pub events: Vec<(u64, String)>,
}

/// One decoded protocol message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Submit a job, optionally carrying the client's span context so
    /// daemon-side spans parent under the client's trace.
    Submit {
        /// The job payload.
        req: Box<JobRequest>,
        /// Client span context (absent from untraced clients and from
        /// older peers — the field is a trailing optional extension of
        /// the v1 SUBMIT body).
        ctx: Option<SpanContext>,
    },
    /// Submission accepted.
    Submitted {
        /// Daemon-assigned job id.
        job: u64,
        /// Job content-address.
        key: u64,
        /// How the submission was satisfied.
        disposition: Disposition,
    },
    /// Query job state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Job state reply.
    StatusReply {
        /// Current state.
        state: JobState,
        /// Jobs queued ahead plus running, at reply time.
        queue_depth: u64,
        /// Whether the job's outcome came from the cache.
        cache_hit: bool,
    },
    /// Fetch a job outcome.
    Result {
        /// Job id.
        job: u64,
        /// Block until the job finishes instead of failing `NotReady`.
        wait: bool,
    },
    /// Finished outcome.
    ResultReply(Box<JobOutcome>),
    /// Cancel a job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Cancellation disposition: `0` cancelled while queued, `1` cancel
    /// requested on a running solve, `2` already finished, `3` unknown.
    CancelReply {
        /// Disposition code.
        outcome: u8,
    },
    /// Stream events for a job until it finishes.
    Watch {
        /// Job id.
        job: u64,
    },
    /// One progress event of a watched job.
    Event {
        /// Job id.
        job: u64,
        /// Monotonic per-job event sequence number.
        seq: u64,
        /// Job state at the event.
        state: JobState,
        /// Cumulative branch-and-bound nodes from the obs layer
        /// (`bab.nodes`; 0 when observability is off).
        nodes: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// Typed error.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Drain and shut down.
    Shutdown,
    /// Drain acknowledged.
    ShutdownReply,
    /// Fetch the live telemetry snapshot.
    Metrics,
    /// Live telemetry snapshot.
    MetricsReply(Box<LiveMetrics>),
    /// Fetch a job's flight recorder.
    Flight {
        /// Job id.
        job: u64,
    },
    /// Flight recorder contents.
    FlightReply(Box<FlightLog>),
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn encode_status(s: MilpStatus) -> u8 {
    match s {
        MilpStatus::Optimal => 0,
        MilpStatus::Infeasible => 1,
        MilpStatus::Unbounded => 2,
        MilpStatus::TimeLimit => 3,
        MilpStatus::NodeLimit => 4,
        MilpStatus::TargetReached => 5,
        MilpStatus::BoundCutoff => 6,
        MilpStatus::Aborted => 7,
    }
}

fn decode_status(v: u8) -> Result<MilpStatus, ProtocolError> {
    Ok(match v {
        0 => MilpStatus::Optimal,
        1 => MilpStatus::Infeasible,
        2 => MilpStatus::Unbounded,
        3 => MilpStatus::TimeLimit,
        4 => MilpStatus::NodeLimit,
        5 => MilpStatus::TargetReached,
        6 => MilpStatus::BoundCutoff,
        7 => MilpStatus::Aborted,
        _ => return Err(ProtocolError::Malformed("unknown solver status")),
    })
}

/// Encodes a request body (shared by the wire and the on-disk spool).
pub fn encode_request(e: &mut Enc, req: &JobRequest) {
    e.str(&req.network_text);
    e.u64(req.bounds.len() as u64);
    for &(lo, hi) in &req.bounds {
        e.f64(lo);
        e.f64(hi);
    }
    e.u64(req.constraints.len() as u64);
    for c in &req.constraints {
        e.u8(c.relation);
        e.f64(c.rhs);
        e.u64(c.terms.len() as u64);
        for &(i, v) in &c.terms {
            e.u64(i);
            e.f64(v);
        }
    }
    e.u64(req.objective_terms.len() as u64);
    for &(i, v) in &req.objective_terms {
        e.u64(i);
        e.f64(v);
    }
    e.f64(req.objective_constant);
    e.u64(req.time_limit_ms);
    e.u64(req.node_limit);
    e.u64(req.threads);
    e.u8(u8::from(req.warm_start));
    e.u64(req.alpha_iters);
    e.u8(u8::from(req.lp_skip));
}

/// Decodes a request body.
///
/// # Errors
///
/// [`ProtocolError`] on any truncation or structural violation.
pub fn decode_request(d: &mut Dec<'_>) -> Result<JobRequest, ProtocolError> {
    let network_text = d.str()?;
    let nb = d.len(16)?;
    let mut bounds = Vec::with_capacity(nb);
    for _ in 0..nb {
        bounds.push((d.f64()?, d.f64()?));
    }
    let nc = d.len(17)?;
    let mut constraints = Vec::with_capacity(nc);
    for _ in 0..nc {
        let relation = d.u8()?;
        let rhs = d.f64()?;
        let nt = d.len(16)?;
        let mut terms = Vec::with_capacity(nt);
        for _ in 0..nt {
            terms.push((d.u64()?, d.f64()?));
        }
        constraints.push(WireConstraint { relation, rhs, terms });
    }
    let no = d.len(16)?;
    let mut objective_terms = Vec::with_capacity(no);
    for _ in 0..no {
        objective_terms.push((d.u64()?, d.f64()?));
    }
    Ok(JobRequest {
        network_text,
        bounds,
        constraints,
        objective_terms,
        objective_constant: d.f64()?,
        time_limit_ms: d.u64()?,
        node_limit: d.u64()?,
        threads: d.u64()?,
        warm_start: d.u8()? != 0,
        alpha_iters: d.u64()?,
        lp_skip: d.u8()? != 0,
    })
}

/// Encodes an outcome body (shared by the wire and the certificate
/// cache's on-disk entries, so a cached certificate replays the exact
/// bytes a fresh solve would have produced).
pub fn encode_outcome(e: &mut Enc, o: &JobOutcome) {
    e.u64(o.key);
    e.u8(encode_status(o.status));
    e.f64(o.upper_bound);
    match o.best_value {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.f64(v);
        }
    }
    match &o.witness {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            e.u64(w.len() as u64);
            for &x in w {
                e.f64(x);
            }
        }
    }
    for (_, v) in o.stats.counters() {
        e.u64(v as u64);
    }
    e.u64(o.stats.elapsed_nanos());
    e.u8(degradation_code(o.degradation));
    e.u8(u8::from(o.cache_hit));
}

/// Decodes an outcome body.
///
/// # Errors
///
/// [`ProtocolError`] on any truncation or structural violation.
pub fn decode_outcome(d: &mut Dec<'_>) -> Result<JobOutcome, ProtocolError> {
    let key = d.u64()?;
    let status = decode_status(d.u8()?)?;
    let upper_bound = d.f64()?;
    let best_value = match d.u8()? {
        0 => None,
        1 => Some(d.f64()?),
        _ => return Err(ProtocolError::Malformed("bad best-value flag")),
    };
    let witness = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len(8)?;
            let mut w = Vec::with_capacity(n);
            for _ in 0..n {
                w.push(d.f64()?);
            }
            Some(w)
        }
        _ => return Err(ProtocolError::Malformed("bad witness flag")),
    };
    let mut stats = VerifyStats::default();
    for (_, v) in stats.counters_mut() {
        *v = usize::try_from(d.u64()?).map_err(|_| ProtocolError::Malformed("counter overflow"))?;
    }
    stats.elapsed = Duration::from_nanos(d.u64()?);
    let degradation = degradation_from_code(d.u8()?)?;
    stats.degradation = degradation;
    let cache_hit = d.u8()? != 0;
    Ok(JobOutcome {
        key,
        status,
        upper_bound,
        best_value,
        witness,
        stats,
        degradation,
        cache_hit,
    })
}

/// Encodes a live-metrics body.
pub fn encode_metrics(e: &mut Enc, m: &LiveMetrics) {
    e.u64(m.uptime_ns);
    e.u64(m.queue_depth);
    e.u64(m.workers_total);
    e.u64(m.workers_busy);
    e.f64(m.cache_hit_ratio);
    e.u64(m.counters.len() as u64);
    for (name, v) in &m.counters {
        e.str(name);
        e.u64(*v);
    }
    e.u64(m.rates.len() as u64);
    for (name, v) in &m.rates {
        e.str(name);
        e.f64(*v);
    }
    e.u64(m.windows.len() as u64);
    for (name, w) in &m.windows {
        e.str(name);
        e.u64(w.count);
        e.u64(w.p50);
        e.u64(w.p95);
        e.u64(w.p99);
    }
    e.u64(m.events.len() as u64);
    for (t, text) in &m.events {
        e.u64(*t);
        e.str(text);
    }
}

/// Decodes a live-metrics body.
///
/// # Errors
///
/// [`ProtocolError`] on any truncation or structural violation.
pub fn decode_metrics(d: &mut Dec<'_>) -> Result<LiveMetrics, ProtocolError> {
    let uptime_ns = d.u64()?;
    let queue_depth = d.u64()?;
    let workers_total = d.u64()?;
    let workers_busy = d.u64()?;
    let cache_hit_ratio = d.f64()?;
    let nc = d.len(16)?;
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        let name = d.str()?;
        counters.push((name, d.u64()?));
    }
    let nr = d.len(16)?;
    let mut rates = Vec::with_capacity(nr);
    for _ in 0..nr {
        let name = d.str()?;
        rates.push((name, d.f64()?));
    }
    let nw = d.len(40)?;
    let mut windows = Vec::with_capacity(nw);
    for _ in 0..nw {
        let name = d.str()?;
        windows.push((
            name,
            WindowHist {
                count: d.u64()?,
                p50: d.u64()?,
                p95: d.u64()?,
                p99: d.u64()?,
            },
        ));
    }
    let ne = d.len(16)?;
    let mut events = Vec::with_capacity(ne);
    for _ in 0..ne {
        let t = d.u64()?;
        events.push((t, d.str()?));
    }
    Ok(LiveMetrics {
        uptime_ns,
        queue_depth,
        workers_total,
        workers_busy,
        cache_hit_ratio,
        counters,
        rates,
        windows,
        events,
    })
}

impl Msg {
    /// Encodes the message into a frame (kind byte + body).
    pub fn to_frame(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::new();
        let kind = match self {
            Msg::Submit { req, ctx } => {
                encode_request(&mut e, req);
                if let Some(ctx) = ctx {
                    e.u8(1);
                    ctx.inject(&mut e.0);
                }
                kind::SUBMIT
            }
            Msg::Submitted { job, key, disposition } => {
                e.u64(*job);
                e.u64(*key);
                e.u8(disposition.as_u8());
                kind::SUBMITTED
            }
            Msg::Status { job } => {
                e.u64(*job);
                kind::STATUS
            }
            Msg::StatusReply { state, queue_depth, cache_hit } => {
                e.u8(state.as_u8());
                e.u64(*queue_depth);
                e.u8(u8::from(*cache_hit));
                kind::STATUS_REPLY
            }
            Msg::Result { job, wait } => {
                e.u64(*job);
                e.u8(u8::from(*wait));
                kind::RESULT
            }
            Msg::ResultReply(outcome) => {
                encode_outcome(&mut e, outcome);
                kind::RESULT_REPLY
            }
            Msg::Cancel { job } => {
                e.u64(*job);
                kind::CANCEL
            }
            Msg::CancelReply { outcome } => {
                e.u8(*outcome);
                kind::CANCEL_REPLY
            }
            Msg::Watch { job } => {
                e.u64(*job);
                kind::WATCH
            }
            Msg::Event { job, seq, state, nodes, detail } => {
                e.u64(*job);
                e.u64(*seq);
                e.u8(state.as_u8());
                e.u64(*nodes);
                e.str(detail);
                kind::EVENT
            }
            Msg::Error { code, message } => {
                e.u8(code.as_u8());
                e.str(message);
                kind::ERROR
            }
            Msg::Shutdown => kind::SHUTDOWN,
            Msg::ShutdownReply => kind::SHUTDOWN_REPLY,
            Msg::Metrics => kind::METRICS,
            Msg::MetricsReply(m) => {
                encode_metrics(&mut e, m);
                kind::METRICS_REPLY
            }
            Msg::Flight { job } => {
                e.u64(*job);
                kind::FLIGHT
            }
            Msg::FlightReply(log) => {
                encode_flight(&mut e, log);
                kind::FLIGHT_REPLY
            }
        };
        (kind, e.0)
    }

    /// Decodes a frame into a typed message.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownKind`] for an unrecognised kind byte, any
    /// other variant for a malformed body.
    pub fn from_frame(frame: &Frame) -> Result<Msg, ProtocolError> {
        let mut d = Dec::new(&frame.body);
        let msg = match frame.kind {
            kind::SUBMIT => {
                let req = Box::new(decode_request(&mut d)?);
                let ctx = if d.done() {
                    None
                } else {
                    if d.u8()? != 1 {
                        return Err(ProtocolError::Malformed("bad span context flag"));
                    }
                    Some(SpanContext {
                        trace_id: d.u64()?,
                        span_id: d.u64()?,
                    })
                };
                Msg::Submit { req, ctx }
            }
            kind::SUBMITTED => Msg::Submitted {
                job: d.u64()?,
                key: d.u64()?,
                disposition: Disposition::from_u8(d.u8()?)?,
            },
            kind::STATUS => Msg::Status { job: d.u64()? },
            kind::STATUS_REPLY => Msg::StatusReply {
                state: JobState::from_u8(d.u8()?)?,
                queue_depth: d.u64()?,
                cache_hit: d.u8()? != 0,
            },
            kind::RESULT => Msg::Result {
                job: d.u64()?,
                wait: d.u8()? != 0,
            },
            kind::RESULT_REPLY => Msg::ResultReply(Box::new(decode_outcome(&mut d)?)),
            kind::CANCEL => Msg::Cancel { job: d.u64()? },
            kind::CANCEL_REPLY => Msg::CancelReply { outcome: d.u8()? },
            kind::WATCH => Msg::Watch { job: d.u64()? },
            kind::EVENT => Msg::Event {
                job: d.u64()?,
                seq: d.u64()?,
                state: JobState::from_u8(d.u8()?)?,
                nodes: d.u64()?,
                detail: d.str()?,
            },
            kind::ERROR => Msg::Error {
                code: ErrorCode::from_u8(d.u8()?),
                message: d.str()?,
            },
            kind::SHUTDOWN => Msg::Shutdown,
            kind::SHUTDOWN_REPLY => Msg::ShutdownReply,
            kind::METRICS => Msg::Metrics,
            kind::METRICS_REPLY => Msg::MetricsReply(Box::new(decode_metrics(&mut d)?)),
            kind::FLIGHT => Msg::Flight { job: d.u64()? },
            kind::FLIGHT_REPLY => Msg::FlightReply(Box::new(decode_flight(&mut d)?)),
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Interval;

    fn sample_request() -> JobRequest {
        let net = Network::relu_mlp(3, &[4], 2, 11).expect("tiny net");
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3])
            .expect("box")
            .constrain(LinearConstraint {
                terms: vec![(0, 1.0), (2, -0.5)],
                relation: Relation::Le,
                rhs: 0.25,
            });
        let obj = LinearObjective {
            terms: vec![(0, 1.0), (1, -1.0)],
            constant: 0.5,
        };
        let opts = VerifierOptions {
            time_limit: Some(Duration::from_millis(1234)),
            threads: 1,
            alpha_iters: 2,
            ..VerifierOptions::default()
        };
        JobRequest::from_query(&net, &spec, &obj, &opts, Some(4096))
    }

    fn sample_outcome() -> JobOutcome {
        JobOutcome {
            key: 0xfeed_f00d_dead_beef,
            status: MilpStatus::Optimal,
            upper_bound: 1.5,
            best_value: Some(1.5),
            witness: Some(vec![0.25, -1.0, 0.75]),
            stats: VerifyStats {
                nodes: 42,
                lp_iterations: 999,
                binaries: 4,
                rows: 31,
                warm_solves: 30,
                cold_solves: 2,
                pivots_saved: 100,
                lp_skipped: 7,
                lp_forced: 1,
                elapsed: Duration::from_nanos(123_456_789),
                degradation: Degradation::ColdFallback,
            },
            degradation: Degradation::ColdFallback,
            cache_hit: true,
        }
    }

    #[test]
    fn request_round_trips_through_frame_and_query_parts() {
        let req = sample_request();
        let msg = Msg::Submit {
            req: Box::new(req.clone()),
            ctx: None,
        };
        let (kind, body) = msg.to_frame();
        let back = Msg::from_frame(&Frame { kind, body }).expect("decodes");
        assert_eq!(back, msg);
        // The typed query parts survive the trip bit-for-bit.
        let net = req.parse_network().expect("network parses");
        let spec = req.input_spec().expect("spec rebuilds");
        assert_eq!(spec.bounds().len(), 3);
        assert_eq!(spec.constraints().len(), 1);
        assert_eq!(req.objective().constant, 0.5);
        assert_eq!(req.verifier_options().time_limit, Some(Duration::from_millis(1234)));
        assert_eq!(req.verifier_options().node_limit, Some(4096));
        // Key is stable and sensitive to the budget.
        let k1 = req.job_key().expect("key");
        assert_eq!(k1, job_key_of(&net, &spec, &req.objective(), &req));
        let mut other = req;
        other.time_limit_ms += 1;
        assert_ne!(k1, other.job_key().expect("key"));
    }

    #[test]
    fn from_query_takes_the_node_budget_of_the_options() {
        let net = Network::relu_mlp(3, &[4], 2, 11).expect("tiny net");
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).expect("box");
        let obj = LinearObjective {
            terms: vec![(0, 1.0)],
            constant: 0.0,
        };
        let budget = |opts_limit: Option<usize>, arg: Option<usize>| {
            let opts = VerifierOptions {
                node_limit: opts_limit,
                ..VerifierOptions::default()
            };
            JobRequest::from_query(&net, &spec, &obj, &opts, arg).node_limit
        };
        assert_eq!(budget(None, None), 0);
        assert_eq!(budget(Some(77), None), 77);
        assert_eq!(budget(None, Some(5)), 5);
        assert_eq!(budget(Some(77), Some(5)), 5, "the explicit argument wins");
    }

    /// Length and FNV-1a of an encoding: pins its bytes without a
    /// dependency on the codec under test.
    fn pin(bytes: &[u8]) -> (usize, u64) {
        let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (bytes.len(), h)
    }

    #[test]
    fn outcome_bytes_are_pinned() {
        // RESULT bodies and every cached certificate embed this encoding;
        // a change here breaks every peer and every certificate on disk.
        let mut e = Enc::new();
        encode_outcome(&mut e, &sample_outcome());
        assert_eq!(pin(&e.0), (141, 8588414167324780161));
    }

    #[test]
    fn outcome_round_trips_bit_identically() {
        let o = sample_outcome();
        let (kind, body) = Msg::ResultReply(Box::new(o.clone())).to_frame();
        let back = Msg::from_frame(&Frame { kind, body }).expect("decodes");
        match back {
            Msg::ResultReply(b) => {
                assert_eq!(*b, o);
                assert_eq!(b.upper_bound.to_bits(), o.upper_bound.to_bits());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn every_message_shape_round_trips() {
        let msgs = vec![
            Msg::Submitted {
                job: 7,
                key: 9,
                disposition: Disposition::Coalesced,
            },
            Msg::Status { job: 3 },
            Msg::StatusReply {
                state: JobState::Running,
                queue_depth: 4,
                cache_hit: false,
            },
            Msg::Result { job: 3, wait: true },
            Msg::Cancel { job: 3 },
            Msg::CancelReply { outcome: 1 },
            Msg::Watch { job: 3 },
            Msg::Event {
                job: 3,
                seq: 2,
                state: JobState::Done,
                nodes: 500,
                detail: "done".into(),
            },
            Msg::Error {
                code: ErrorCode::UnknownJob,
                message: "no such job".into(),
            },
            Msg::Shutdown,
            Msg::ShutdownReply,
        ];
        for msg in msgs {
            let (kind, body) = msg.to_frame();
            let back = Msg::from_frame(&Frame { kind, body }).expect("decodes");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_typed_errors() {
        assert!(matches!(
            Msg::from_frame(&Frame { kind: 250, body: vec![] }),
            Err(ProtocolError::UnknownKind(250))
        ));
        let (kind, mut body) = Msg::Status { job: 1 }.to_frame();
        body.push(0xaa);
        assert!(matches!(
            Msg::from_frame(&Frame { kind, body }),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn submit_span_context_rides_as_trailing_extension() {
        let req = sample_request();
        let ctx = SpanContext {
            trace_id: 0x1234_5678_9abc_def0,
            span_id: 99,
        };
        let msg = Msg::Submit {
            req: Box::new(req.clone()),
            ctx: Some(ctx),
        };
        let (kind, body) = msg.to_frame();
        // The context is a *trailing* extension: stripping it yields a
        // valid v1 SUBMIT body, so an old client's frames still decode.
        let back = Msg::from_frame(&Frame { kind, body: body.clone() }).expect("decodes");
        assert_eq!(back, msg);
        let bare = &body[..body.len() - 17];
        let back = Msg::from_frame(&Frame { kind, body: bare.to_vec() }).expect("decodes");
        assert_eq!(
            back,
            Msg::Submit {
                req: Box::new(req.clone()),
                ctx: None,
            }
        );
        // And the context never perturbs the content-address: coalescing
        // and cache hits must be trace-independent.
        assert_eq!(req.job_key().expect("key"), sample_request().job_key().expect("key"));
    }

    #[test]
    fn metrics_and_flight_round_trip() {
        let m = LiveMetrics {
            uptime_ns: 123,
            queue_depth: 4,
            workers_total: 8,
            workers_busy: 3,
            cache_hit_ratio: 0.75,
            counters: vec![("serve.jobs_submitted".into(), 10)],
            rates: vec![("serve.frames_rx".into(), 2.5)],
            windows: vec![(
                "serve.job_wall_nanos".into(),
                WindowHist { count: 7, p50: 100, p95: 900, p99: 1000 },
            )],
            events: vec![(55, "serve.started".into())],
        };
        for msg in [
            Msg::Metrics,
            Msg::MetricsReply(Box::new(m)),
            Msg::Flight { job: 12 },
            Msg::FlightReply(Box::new(crate::flight::FlightLog {
                key: 9,
                trace_id: 3,
                truncated: 0,
                events: vec![crate::flight::FlightEvent {
                    t_ns: 1,
                    kind: crate::flight::FlightKind::Accepted,
                    a: 3,
                    b: 0,
                    detail: String::new(),
                }],
            })),
        ] {
            let (kind, body) = msg.to_frame();
            let back = Msg::from_frame(&Frame { kind, body }).expect("decodes");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn request_truncation_every_prefix_is_detected() {
        let msg = Msg::Submit {
            req: Box::new(sample_request()),
            ctx: None,
        };
        let (_, body) = msg.to_frame();
        for cut in 0..body.len() {
            let mut d = Dec::new(&body[..cut]);
            assert!(
                decode_request(&mut d).is_err() || !d.done(),
                "prefix of {cut}/{} must not decode cleanly",
                body.len()
            );
        }
    }
}
