//! The verification daemon: TCP accept loop, bounded worker pool, job
//! table with request coalescing, certificate cache, and graceful drain.
//!
//! # Lifecycle of a job
//!
//! 1. `SUBMIT` arrives; the payload is parsed and validated, its
//!    content-address ([`crate::protocol::job_key_of`]) computed.
//! 2. The job table is consulted: an identical in-flight job coalesces
//!    (no second solve), a cached certificate answers immediately, and
//!    only a genuinely new query is spooled to disk and queued.
//! 3. A worker pops the job and runs the workspace
//!    [`certnn_verify::verifier::Verifier`] under the request's own
//!    budget, with a cancellable [`Deadline`] and the checkpoint policy,
//!    so a killed daemon resumes mid-search on restart.
//! 4. The finished certificate is cached atomically, the spool entry
//!    removed, and every waiter/watcher woken.
//!
//! # Drain semantics
//!
//! [`Server::shutdown`] stops accepting work (`Draining` errors), cancels
//! running solves via their deadlines, and *keeps* the spool entries and
//! checkpoints of interrupted jobs. A daemon restarted over the same
//! directory re-queues them and resumes from the last snapshot — the
//! crash-safety contract of the checkpoint layer, extended to the
//! service boundary.

use crate::cache::{Miss, Store};
use crate::flight::{FlightKind, FlightRecorder};
use crate::protocol::{
    job_key_of, Disposition, ErrorCode, JobOutcome, JobRequest, JobState, LiveMetrics, Msg,
    WindowHist,
};
use crate::wire::{read_frame, write_frame, ProtocolError};
use certnn_obs::{FieldValue, SpanContext, WindowValue};
use certnn_nn::network::Network;
use certnn_verify::bab::resolve_threads;
use certnn_verify::checkpoint::CheckpointPolicy;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::sealed::degradation_code;
use certnn_verify::verifier::{Verifier, VerifierOptions};
use certnn_verify::{Deadline, Degradation, MilpStatus};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll cadence of connection handlers while idle (bounds how long a
/// handler can outlive a drain).
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Read timeout while a frame is known to be in flight.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port `0` picks a free port.
    pub addr: String,
    /// Root directory of the cache, spool and checkpoints.
    pub dir: PathBuf,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Checkpoint cadence in branch-and-bound nodes (`0` = the
    /// checkpoint layer's default).
    pub checkpoint_every: usize,
    /// Optional Prometheus text-exposition listener (plain HTTP/1.0
    /// `GET` on any path); `None` disables the endpoint.
    pub prom_addr: Option<String>,
}

impl ServeOptions {
    /// Options listening on an OS-assigned loopback port with state
    /// under `dir`.
    pub fn loopback(dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.into(),
            workers: 0,
            checkpoint_every: 0,
            prom_addr: None,
        }
    }
}

/// Declares the serve-layer counter block. The struct fields and the
/// [`ServeStats::snapshot`] mirror list are generated from one field
/// list, so they cannot drift apart when a counter is added.
macro_rules! serve_stats {
    ($( $(#[$doc:meta])* $field:ident ),+ $(,)?) => {
        /// Always-on serve-layer counters. These are plain atomics — unlike the
        /// obs registry they never no-op, because the daemon's own behaviour
        /// (drain decisions, test assertions) depends on them. Every increment
        /// is mirrored into the `serve.*` obs counters (subject to the
        /// observability switch) and into the windowed `serve.*` rates behind
        /// the `METRICS` frame.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $( $(#[$doc])* pub $field: AtomicU64, )+
        }

        impl ServeStats {
            /// Name-sorted snapshot of every counter. Generated from the
            /// same list as the struct fields by the `serve_stats!` macro.
            pub fn snapshot(&self) -> Vec<(String, u64)> {
                let mut v = vec![
                    $( (
                        concat!("serve.", stringify!($field)).to_string(),
                        self.$field.load(Ordering::Relaxed),
                    ), )+
                ];
                v.sort();
                v
            }
        }
    };
}

serve_stats! {
    /// Jobs accepted over the wire (including coalesced and cache hits).
    jobs_submitted,
    /// Jobs finished by a worker with a usable outcome.
    jobs_completed,
    /// Jobs that failed structurally in the verifier.
    jobs_failed,
    /// Jobs cancelled by a client.
    jobs_cancelled,
    /// Jobs re-queued from the spool at startup.
    jobs_resumed,
    /// Submissions coalesced onto an identical in-memory entry (a
    /// strict subset of `cache_hits`).
    jobs_coalesced,
    /// Submissions answered without a fresh solve (memory coalesce or
    /// disk certificate).
    cache_hits,
    /// Submissions that required a fresh solve.
    cache_misses,
    /// Cache entries rejected by checksum and deleted.
    cache_corrupt,
    /// Frames rejected by the wire layer.
    protocol_errors,
    /// Frames successfully read.
    frames_rx,
    /// Frames successfully written.
    frames_tx,
}

macro_rules! stat {
    ($stats:expr, $field:ident) => {{
        $stats.$field.fetch_add(1, Ordering::Relaxed);
        certnn_obs::counter(concat!("serve.", stringify!($field))).inc();
        certnn_obs::windowed_counter(concat!("serve.", stringify!($field))).inc();
    }};
}

impl ServeStats {
    /// Reads one counter by its full name (test helper).
    pub fn get(&self, name: &str) -> u64 {
        self.snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    }
}

/// A parsed, validated query — shared between the submit path (keying)
/// and the worker (solving).
struct Query {
    net: Network,
    spec: InputSpec,
    objective: LinearObjective,
    options: VerifierOptions,
}

/// Internal job state (the wire [`JobState`] plus payloads).
enum State {
    Queued,
    Running,
    Done(Arc<JobOutcome>),
    Failed(String),
    Cancelled,
    Drained,
}

impl State {
    fn wire(&self) -> JobState {
        match self {
            State::Queued => JobState::Queued,
            State::Running => JobState::Running,
            State::Done(_) => JobState::Done,
            State::Failed(_) => JobState::Failed,
            State::Cancelled => JobState::Cancelled,
            State::Drained => JobState::Drained,
        }
    }

    fn terminal(&self) -> bool {
        !matches!(self, State::Queued | State::Running)
    }
}

struct JobEntry {
    key: u64,
    query: Arc<Query>,
    /// The wire request as it arrived — sealed into the certificate so
    /// the cache can prove an entry answers exactly this query.
    request: Arc<JobRequest>,
    state: State,
    deadline: Deadline,
    /// The cache entry under this key was corrupt at submit; the fresh
    /// outcome is tagged with the degradation ladder.
    cache_was_corrupt: bool,
    cancel_requested: bool,
    enqueued_at: Instant,
    /// Bounded audit log of everything the daemon did for this job.
    flight: Arc<FlightRecorder>,
    /// Client span context the solve's spans parent under.
    ctx: Option<SpanContext>,
}

/// One client-visible job id. Several ids may share one entry (request
/// coalescing); whether *this* submission cost a solve is a property of
/// the id, not the entry.
struct IdEntry {
    idx: usize,
    cache_hit: bool,
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    ids: HashMap<u64, IdEntry>,
    by_key: HashMap<u64, usize>,
    entries: Vec<JobEntry>,
    queue: VecDeque<usize>,
    running: usize,
}

impl JobTable {
    fn assign_id(&mut self, idx: usize, cache_hit: bool) -> u64 {
        self.next_id += 1;
        self.ids.insert(self.next_id, IdEntry { idx, cache_hit });
        self.next_id
    }

    fn lookup(&self, job: u64) -> Option<(usize, bool)> {
        self.ids.get(&job).map(|id| (id.idx, id.cache_hit))
    }

    fn depth(&self) -> u64 {
        (self.queue.len() + self.running) as u64
    }
}

/// Capacity of the recent-events ring reported by `METRICS`.
const EVENT_RING: usize = 64;

struct Shared {
    table: Mutex<JobTable>,
    cond: Condvar,
    store: Store,
    stats: ServeStats,
    ckpt_dir: PathBuf,
    checkpoint_every: usize,
    draining: AtomicBool,
    addr: SocketAddr,
    /// When the daemon started (uptime, event timestamps).
    started: Instant,
    /// Size of the worker pool (for the `METRICS` utilization gauge).
    workers_total: usize,
    /// Recent `serve.*` event names with nanosecond offsets from start.
    events: Mutex<VecDeque<(u64, String)>>,
    /// Bound Prometheus listener address, when `--prom` is active.
    prom_addr: Option<SocketAddr>,
}

/// Emits a `serve.*` obs event and mirrors its name into the bounded
/// ring the `METRICS` frame reports.
fn note_event(shared: &Shared, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    certnn_obs::event(name, fields);
    let t_ns = shared.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let mut ring = shared.events.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() >= EVENT_RING {
        ring.pop_front();
    }
    ring.push_back((t_ns, name.to_string()));
}

/// A running verification daemon.
///
/// Dropping the server drains it (equivalent to [`Server::shutdown`]
/// followed by [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    prom: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, reloads the spool, and starts the accept loop and worker
    /// pool.
    ///
    /// # Errors
    ///
    /// I/O error when the address cannot be bound or the state
    /// directories cannot be created.
    pub fn start(options: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let prom_listener = match &options.prom_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let store = Store::open(&options.dir)?;
        let ckpt_dir = options.dir.join("ckpt");
        std::fs::create_dir_all(&ckpt_dir)?;

        let worker_count = if options.workers == 0 {
            resolve_threads(0)
        } else {
            options.workers
        };

        let shared = Arc::new(Shared {
            table: Mutex::new(JobTable::default()),
            cond: Condvar::new(),
            store,
            stats: ServeStats::default(),
            ckpt_dir,
            checkpoint_every: options.checkpoint_every,
            draining: AtomicBool::new(false),
            addr,
            started: Instant::now(),
            workers_total: worker_count,
            events: Mutex::new(VecDeque::new()),
            prom_addr: prom_listener.as_ref().and_then(|l| l.local_addr().ok()),
        });

        resume_spool(&shared);

        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        let prom = match prom_listener {
            Some(listener) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("serve-prom".to_string())
                        .spawn(move || prom_loop(&listener, &shared))?,
                )
            }
            None => None,
        };

        note_event(
            &shared,
            "serve.started",
            vec![("addr", addr.to_string().into()), ("workers", (worker_count as u64).into())],
        );
        Ok(Self {
            shared,
            workers,
            accept: Some(accept),
            prom,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound Prometheus exposition address, when `--prom` is active.
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.shared.prom_addr
    }

    /// The serve-layer counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Begins a drain: new submissions are rejected, queued jobs are
    /// parked (spool kept), running solves are cancelled at their next
    /// deadline poll. Returns immediately; [`Server::wait`] joins.
    pub fn shutdown(&self) {
        drain(&self.shared);
    }

    /// Blocks until the accept loop and every worker have exited.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prom.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Marks the daemon as draining and unblocks every parked thread.
fn drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    note_event(shared, "serve.draining", vec![]);
    {
        let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
        // Park queued jobs: spool survives, the next daemon re-queues.
        while let Some(idx) = table.queue.pop_front() {
            if matches!(table.entries[idx].state, State::Queued) {
                let key = table.entries[idx].key;
                table.entries[idx].state = State::Drained;
                table.by_key.remove(&key);
            }
        }
        // Interrupt running solves; their checkpoints make the work
        // resumable.
        for entry in &mut table.entries {
            if matches!(entry.state, State::Running) {
                entry.deadline.cancel();
            }
        }
        shared.cond.notify_all();
    }
    // Unblock the accept loops with throwaway connections.
    let _ = TcpStream::connect(shared.addr);
    if let Some(prom) = shared.prom_addr {
        let _ = TcpStream::connect(prom);
    }
}

/// Re-queues every spooled job left behind by a previous daemon.
fn resume_spool(shared: &Arc<Shared>) {
    let (jobs, dropped) = shared.store.load_jobs();
    for _ in 0..dropped {
        stat!(shared.stats, cache_corrupt);
    }
    let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
    for (key, req) in jobs {
        // A certificate may already exist if the previous daemon died
        // between caching and spool removal; finish the bookkeeping.
        if shared.store.get_cert(key, &req).is_ok() {
            shared.store.remove_job(key);
            continue;
        }
        let Some(query) = parse_query(&req) else {
            shared.store.remove_job(key);
            continue;
        };
        let flight = Arc::new(FlightRecorder::new(key, 0));
        flight.record(FlightKind::Resumed, 0, 0, "");
        let idx = table.entries.len();
        table.entries.push(JobEntry {
            key,
            query: Arc::new(query),
            request: Arc::new(req),
            state: State::Queued,
            deadline: Deadline::cancellable(),
            cache_was_corrupt: false,
            cancel_requested: false,
            enqueued_at: Instant::now(),
            flight,
            ctx: None,
        });
        table.by_key.insert(key, idx);
        table.queue.push_back(idx);
        table.assign_id(idx, false);
        stat!(shared.stats, jobs_resumed);
    }
    shared.cond.notify_all();
}

fn parse_query(req: &JobRequest) -> Option<Query> {
    if req.threads > crate::protocol::MAX_THREADS {
        return None;
    }
    let net = req.parse_network().ok()?;
    let spec = req.input_spec().ok()?;
    if spec.bounds().len() != net.inputs() {
        return None;
    }
    // Every wire index is attacker-controlled; an out-of-range feature
    // or output index would otherwise panic deep inside the encoder.
    if spec
        .constraints()
        .iter()
        .flat_map(|c| c.terms.iter())
        .any(|&(i, _)| i >= net.inputs())
    {
        return None;
    }
    let objective = req.objective();
    objective.check_against(&net).ok()?;
    Some(Query {
        options: req.verifier_options(),
        objective,
        net,
        spec,
    })
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A job a worker has claimed: what its body needs from the table entry.
struct Claimed {
    idx: usize,
    key: u64,
    query: Arc<Query>,
    request: Arc<JobRequest>,
    deadline: Deadline,
    cache_was_corrupt: bool,
    queued_for: Duration,
    flight: Arc<FlightRecorder>,
    ctx: Option<SpanContext>,
}

/// Job key whose body panics right after its solve; `0` for none. Lets
/// the unit tests reach the worker's backstop.
#[cfg(test)]
static PANIC_AFTER_SOLVE: AtomicU64 = AtomicU64::new(0);

fn worker_loop(shared: &Shared) {
    while let Some(job) = claim_job(shared) {
        // Last-resort backstop around the whole job body: the solver
        // already catches per-node panics, but a panic anywhere else —
        // the flight bookkeeping, the certificate and spool writes, the
        // state transition — would kill this worker for good and strand
        // the job Running with every waiter blocked.
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &job);
        })) {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            fail_job(shared, &job, format!("job panicked: {msg}"));
        }
        shared.cond.notify_all();
    }
}

/// Waits for the next queued job and marks it `Running`; `None` once the
/// daemon drains.
fn claim_job(shared: &Shared) -> Option<Claimed> {
    let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
    let idx = loop {
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        // Skip entries cancelled while still queued.
        match table.queue.pop_front() {
            Some(idx) if matches!(table.entries[idx].state, State::Queued) => break idx,
            Some(_) => continue,
            None => {
                table = shared
                    .cond
                    .wait_timeout(table, IDLE_POLL)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    };
    let entry = &mut table.entries[idx];
    entry.state = State::Running;
    table.running += 1;
    shared.cond.notify_all();
    let entry = &table.entries[idx];
    Some(Claimed {
        idx,
        key: entry.key,
        query: Arc::clone(&entry.query),
        request: Arc::clone(&entry.request),
        deadline: entry.deadline.clone(),
        cache_was_corrupt: entry.cache_was_corrupt,
        queued_for: entry.enqueued_at.elapsed(),
        flight: Arc::clone(&entry.flight),
        ctx: entry.ctx,
    })
}

/// Solves a claimed job and moves it to its terminal state. The one
/// transition out of `Running` releases the worker's `running` slot in
/// the same step, so [`fail_job`] can tell whether a panic struck before
/// or after it.
fn run_job(shared: &Shared, job: &Claimed) {
    let Claimed {
        idx,
        key,
        ref query,
        ref request,
        ref flight,
        ctx,
        ..
    } = *job;
    let queue_wait_ns = job.queued_for.as_nanos().min(u128::from(u64::MAX)) as u64;
    certnn_obs::histogram("serve.queue_wait_nanos").record(queue_wait_ns);
    certnn_obs::windowed_histogram("serve.queue_wait_nanos").record(queue_wait_ns);

    // Each job key gets its own checkpoint directory: the query
    // fingerprint excludes budget knobs, so two concurrent jobs
    // differing only in budget would otherwise race on the same
    // snapshot file (and resume across budgets, skewing stats).
    let ckpt_dir = shared.ckpt_dir.join(format!("{key:016x}"));
    let _ = std::fs::create_dir_all(&ckpt_dir);
    let mut policy = CheckpointPolicy::new(&ckpt_dir);
    if shared.checkpoint_every > 0 {
        policy.every_nodes = shared.checkpoint_every;
    }
    policy.resume = true;
    let verifier = Verifier::with_options(query.options)
        .with_deadline(job.deadline.clone())
        .with_checkpoints(policy);
    // The solve runs under a serve-side span parented under the
    // client's propagated span context (when the submission carried
    // one); checkpoint and phase figures are obs-collector deltas
    // around the solve — exact with one worker, approximate under
    // concurrency (see `crate::flight`).
    let span = certnn_obs::span_child_of("serve.solve", ctx.map(|c| c.span_id));
    flight.record(
        FlightKind::SpanOpen,
        span.id().unwrap_or(0),
        ctx.map_or(0, |c| c.span_id),
        "serve.solve",
    );
    let ckpt_written0 = certnn_obs::counter("ckpt.written").get();
    let ckpt_bytes0 = certnn_obs::counter("ckpt.bytes").get();
    let phases0 = certnn_obs::phase_totals();
    let result = verifier.maximize(&query.net, &query.spec, &query.objective);
    #[cfg(test)]
    if PANIC_AFTER_SOLVE.load(Ordering::SeqCst) == key {
        panic!("injected panic after the solve");
    }
    // Saturating: the obs registry is process-global and can be reset
    // mid-solve.
    let ckpt_written = certnn_obs::counter("ckpt.written")
        .get()
        .saturating_sub(ckpt_written0);
    let ckpt_bytes = certnn_obs::counter("ckpt.bytes")
        .get()
        .saturating_sub(ckpt_bytes0);
    if ckpt_written > 0 || ckpt_bytes > 0 {
        flight.record(FlightKind::Checkpoint, ckpt_written, ckpt_bytes, "");
    }
    for after in certnn_obs::phase_totals() {
        let before = phases0.iter().find(|p| p.phase == after.phase);
        let d_self = after
            .self_ns
            .saturating_sub(before.map_or(0, |p| p.self_ns));
        let d_count = after.count.saturating_sub(before.map_or(0, |p| p.count));
        if d_self > 0 || d_count > 0 {
            flight.record(FlightKind::Phase, d_self, d_count, after.phase.as_str());
        }
    }
    flight.record(FlightKind::SpanClose, span.id().unwrap_or(0), 0, "");
    drop(span);
    let mut r = match result {
        Ok(r) => r,
        Err(e) => return fail_job(shared, job, e.to_string()),
    };

    let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
    let cancelled = table.entries[idx].cancel_requested;
    let draining = shared.draining.load(Ordering::SeqCst);
    let state = if cancelled && r.status == MilpStatus::Aborted {
        table.by_key.remove(&key);
        shared.store.remove_job(key);
        stat!(shared.stats, jobs_cancelled);
        flight.record(FlightKind::Cancelled, 0, 0, "");
        State::Cancelled
    } else if draining && r.status == MilpStatus::Aborted {
        // Interrupted by the drain: park it, keep the spool and
        // checkpoint for the next daemon.
        table.by_key.remove(&key);
        let resumable = std::fs::read_dir(&ckpt_dir)
            .map(|mut d| d.next().is_some())
            .unwrap_or(false);
        flight.record(FlightKind::Drained, u64::from(resumable), 0, "");
        State::Drained
    } else {
        if job.cache_was_corrupt {
            // Answered despite a damaged cache entry: same ladder as a
            // damaged checkpoint.
            r.stats.degradation = r.stats.degradation.merge(Degradation::CheckpointFallback);
        }
        let outcome = JobOutcome::from_max_result(key, &r);
        let wall_nanos = outcome.stats.elapsed_nanos();
        certnn_obs::histogram("serve.job_wall_nanos").record(wall_nanos);
        certnn_obs::windowed_histogram("serve.job_wall_nanos").record(wall_nanos);
        if outcome.status != MilpStatus::Aborted
            && shared.store.put_cert(&outcome, request).is_err()
        {
            note_event(
                shared,
                "serve.cache_write_failed",
                vec![("key", format!("{key:016x}").into())],
            );
        }
        shared.store.remove_job(key);
        // The finished solve deleted its snapshot; reap the per-key
        // directory if nothing is left in it.
        let _ = std::fs::remove_dir(&ckpt_dir);
        if outcome.degradation != Degradation::Exact {
            flight.record(
                FlightKind::Degradation,
                u64::from(degradation_code(outcome.degradation)),
                0,
                format!("{:?}", outcome.degradation),
            );
        }
        flight.record(
            FlightKind::Finished,
            outcome.stats.nodes as u64,
            wall_nanos,
            "",
        );
        // Persist the audit trail next to the certificate so it survives
        // daemon restarts.
        let _ = shared.store.put_flight(&flight.snapshot());
        stat!(shared.stats, jobs_completed);
        State::Done(Arc::new(outcome))
    };
    table.running -= 1;
    table.entries[idx].state = state;
}

/// Ends a claimed job `Failed` with `error`: a verifier error, or a panic
/// anywhere in its body. A job that already left `Running` keeps its
/// state, so the worker's `running` slot is released exactly once.
fn fail_job(shared: &Shared, job: &Claimed, error: String) {
    let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
    if !matches!(table.entries[job.idx].state, State::Running) {
        return;
    }
    table.running -= 1;
    table.entries[job.idx].state = State::Failed(error.clone());
    table.by_key.remove(&job.key);
    shared.store.remove_job(job.key);
    stat!(shared.stats, jobs_failed);
    job.flight.record(FlightKind::Failed, 0, 0, error.clone());
    let _ = shared.store.put_flight(&job.flight.snapshot());
    note_event(
        shared,
        "serve.job_failed",
        vec![
            ("key", format!("{:016x}", job.key).into()),
            ("error", error.into()),
        ],
    );
}

// ---------------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// Sends one message, counting the frame.
fn send(stream: &mut TcpStream, shared: &Shared, msg: &Msg) -> Result<(), ProtocolError> {
    let (kind, body) = msg.to_frame();
    write_frame(stream, kind, &body)?;
    stream.flush().map_err(|e| ProtocolError::Io(e.kind(), e.to_string()))?;
    stat!(shared.stats, frames_tx);
    Ok(())
}

fn send_error(stream: &mut TcpStream, shared: &Shared, code: ErrorCode, message: &str) {
    let _ = send(
        stream,
        shared,
        &Msg::Error {
            code,
            message: message.to_string(),
        },
    );
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // Idle-poll: wait for the first byte with a short timeout so a
        // drain is noticed promptly, then commit to the frame.
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
        let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(ProtocolError::Closed) => return,
            Err(e) => {
                // Framing is lost; report and hang up.
                stat!(shared.stats, protocol_errors);
                send_error(&mut stream, shared, ErrorCode::Wire, &e.to_string());
                return;
            }
        };
        stat!(shared.stats, frames_rx);
        let msg = match Msg::from_frame(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                // The frame boundary is intact; the connection survives.
                stat!(shared.stats, protocol_errors);
                send_error(&mut stream, shared, ErrorCode::Malformed, &e.to_string());
                continue;
            }
        };
        if handle_message(&mut stream, shared, msg).is_err() {
            return;
        }
    }
}

/// Dispatches one request; `Err` means the connection is unusable.
fn handle_message(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    msg: Msg,
) -> Result<(), ProtocolError> {
    match msg {
        Msg::Submit { req, ctx } => handle_submit(stream, shared, &req, ctx),
        Msg::Status { job } => {
            let table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
            match table.lookup(job) {
                Some((idx, cache_hit)) => {
                    let reply = Msg::StatusReply {
                        state: table.entries[idx].state.wire(),
                        queue_depth: table.depth(),
                        cache_hit,
                    };
                    drop(table);
                    send(stream, shared, &reply)
                }
                None => {
                    drop(table);
                    send_error(stream, shared, ErrorCode::UnknownJob, "no such job");
                    Ok(())
                }
            }
        }
        Msg::Result { job, wait } => handle_result(stream, shared, job, wait),
        Msg::Cancel { job } => {
            let outcome = cancel_job(shared, job);
            send(stream, shared, &Msg::CancelReply { outcome })
        }
        Msg::Watch { job } => handle_watch(stream, shared, job),
        Msg::Shutdown => {
            send(stream, shared, &Msg::ShutdownReply)?;
            drain(shared);
            Ok(())
        }
        Msg::Metrics => {
            let reply = Msg::MetricsReply(Box::new(live_metrics(shared)));
            send(stream, shared, &reply)
        }
        Msg::Flight { job } => handle_flight(stream, shared, job),
        // Reply kinds arriving at the server are client bugs; answer
        // with a typed error and keep the connection.
        Msg::Submitted { .. }
        | Msg::StatusReply { .. }
        | Msg::ResultReply(_)
        | Msg::CancelReply { .. }
        | Msg::Event { .. }
        | Msg::Error { .. }
        | Msg::ShutdownReply
        | Msg::MetricsReply(_)
        | Msg::FlightReply(_) => {
            send_error(stream, shared, ErrorCode::Malformed, "reply kind sent as request");
            Ok(())
        }
    }
}

fn handle_submit(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    req: &JobRequest,
    ctx: Option<SpanContext>,
) -> Result<(), ProtocolError> {
    if shared.draining.load(Ordering::SeqCst) {
        send_error(stream, shared, ErrorCode::Draining, "daemon is draining");
        return Ok(());
    }
    let Some(query) = parse_query(req) else {
        stat!(shared.stats, jobs_submitted);
        send_error(stream, shared, ErrorCode::InvalidJob, "payload is not a valid query");
        return Ok(());
    };
    let key = job_key_of(&query.net, &query.spec, &query.objective, req);
    let reply = {
        let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the table lock: a drain that set the flag after
        // the entry check above has already swept the queue, so a job
        // enqueued now would never be popped (workers exit on draining)
        // and its waiters would block until restart.
        if shared.draining.load(Ordering::SeqCst) {
            drop(table);
            send_error(stream, shared, ErrorCode::Draining, "daemon is draining");
            return Ok(());
        }
        stat!(shared.stats, jobs_submitted);
        if let Some(&idx) = table.by_key.get(&key) {
            // Identical query already known in-process: coalesce. A
            // finished entry answers like a cache hit; an in-flight one
            // shares the eventual solve.
            let disposition = if table.entries[idx].state.terminal() {
                Disposition::CacheHit
            } else {
                stat!(shared.stats, jobs_coalesced);
                Disposition::Coalesced
            };
            stat!(shared.stats, cache_hits);
            table.entries[idx].flight.record(
                FlightKind::Accepted,
                ctx.map_or(0, |c| c.trace_id),
                0,
                "coalesced",
            );
            let job = table.assign_id(idx, true);
            Msg::Submitted { job, key, disposition }
        } else {
            match shared.store.get_cert(key, req) {
                Ok(mut outcome) => {
                    stat!(shared.stats, cache_hits);
                    outcome.cache_hit = true;
                    let flight = Arc::new(FlightRecorder::new(key, ctx.map_or(0, |c| c.trace_id)));
                    flight.record(
                        FlightKind::Accepted,
                        ctx.map_or(0, |c| c.trace_id),
                        0,
                        "cache_hit",
                    );
                    let idx = table.entries.len();
                    table.entries.push(JobEntry {
                        key,
                        query: Arc::new(query),
                        request: Arc::new(req.clone()),
                        state: State::Done(Arc::new(outcome)),
                        deadline: Deadline::cancellable(),
                        cache_was_corrupt: false,
                        cancel_requested: false,
                        enqueued_at: Instant::now(),
                        flight,
                        ctx,
                    });
                    table.by_key.insert(key, idx);
                    let job = table.assign_id(idx, true);
                    Msg::Submitted { job, key, disposition: Disposition::CacheHit }
                }
                Err(miss) => {
                    let cache_was_corrupt = miss == Miss::Corrupt;
                    if cache_was_corrupt {
                        stat!(shared.stats, cache_corrupt);
                    }
                    stat!(shared.stats, cache_misses);
                    if let Err(e) = shared.store.put_job(key, req) {
                        note_event(
                            shared,
                            "serve.spool_write_failed",
                            vec![("key", format!("{key:016x}").into()), ("kind", format!("{:?}", e.kind()).into())],
                        );
                    }
                    let flight = Arc::new(FlightRecorder::new(key, ctx.map_or(0, |c| c.trace_id)));
                    flight.record(FlightKind::Accepted, ctx.map_or(0, |c| c.trace_id), 0, "");
                    let idx = table.entries.len();
                    table.entries.push(JobEntry {
                        key,
                        query: Arc::new(query),
                        request: Arc::new(req.clone()),
                        state: State::Queued,
                        deadline: Deadline::cancellable(),
                        cache_was_corrupt,
                        cancel_requested: false,
                        enqueued_at: Instant::now(),
                        flight,
                        ctx,
                    });
                    table.by_key.insert(key, idx);
                    table.queue.push_back(idx);
                    let job = table.assign_id(idx, false);
                    shared.cond.notify_all();
                    Msg::Submitted { job, key, disposition: Disposition::Fresh }
                }
            }
        }
    };
    send(stream, shared, &reply)
}

/// Terminal reply for a finished entry, shared by `RESULT` and `WATCH`.
/// `cache_hit` is the *id's* disposition: a coalesced or cache-served
/// submission reports `cache_hit = true` even though the entry's stored
/// outcome came from a fresh solve.
fn terminal_reply(state: &State, cache_hit: bool) -> Msg {
    match state {
        State::Done(outcome) => {
            let mut outcome = (**outcome).clone();
            outcome.cache_hit = outcome.cache_hit || cache_hit;
            Msg::ResultReply(Box::new(outcome))
        }
        State::Failed(e) => Msg::Error {
            code: ErrorCode::JobFailed,
            message: e.clone(),
        },
        State::Cancelled => Msg::Error {
            code: ErrorCode::JobFailed,
            message: "job cancelled".to_string(),
        },
        State::Drained => Msg::Error {
            code: ErrorCode::Draining,
            message: "job parked by drain; resubmit to a live daemon".to_string(),
        },
        State::Queued | State::Running => Msg::Error {
            code: ErrorCode::NotReady,
            message: "job still in flight".to_string(),
        },
    }
}

fn handle_result(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    job: u64,
    wait: bool,
) -> Result<(), ProtocolError> {
    let reply = {
        let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
        let Some((idx, cache_hit)) = table.lookup(job) else {
            drop(table);
            send_error(stream, shared, ErrorCode::UnknownJob, "no such job");
            return Ok(());
        };
        if wait {
            while !table.entries[idx].state.terminal() {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                table = shared
                    .cond
                    .wait_timeout(table, IDLE_POLL)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
        terminal_reply(&table.entries[idx].state, cache_hit)
    };
    send(stream, shared, &reply)
}

fn handle_watch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    job: u64,
) -> Result<(), ProtocolError> {
    let mut seq = 0u64;
    let mut last: Option<JobState> = None;
    loop {
        let (state, reply) = {
            let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
            let Some((idx, cache_hit)) = table.lookup(job) else {
                drop(table);
                send_error(stream, shared, ErrorCode::UnknownJob, "no such job");
                return Ok(());
            };
            if !table.entries[idx].state.terminal() && !shared.draining.load(Ordering::SeqCst) {
                table = shared
                    .cond
                    .wait_timeout(table, IDLE_POLL)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            let state = table.entries[idx].state.wire();
            let reply = table.entries[idx]
                .state
                .terminal()
                .then(|| terminal_reply(&table.entries[idx].state, cache_hit));
            (state, reply)
        };
        if last != Some(state) {
            last = Some(state);
            send(
                stream,
                shared,
                &Msg::Event {
                    job,
                    seq,
                    state,
                    nodes: certnn_obs::counter("bab.nodes").get(),
                    detail: state.as_str().to_string(),
                },
            )?;
            seq += 1;
        }
        if let Some(reply) = reply {
            return send(stream, shared, &reply);
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Drain with the job still in flight: report and stop.
            return send(stream, shared, &terminal_reply(&State::Drained, false));
        }
    }
}

/// Cancels a job: `0` cancelled while queued, `1` cancellation requested
/// on a running solve, `2` already finished, `3` unknown id.
fn cancel_job(shared: &Shared, job: u64) -> u8 {
    let mut table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
    let Some((idx, _)) = table.lookup(job) else {
        return 3;
    };
    let key = table.entries[idx].key;
    match table.entries[idx].state {
        State::Queued => {
            table.entries[idx].state = State::Cancelled;
            table.entries[idx].cancel_requested = true;
            table.by_key.remove(&key);
            shared.store.remove_job(key);
            stat!(shared.stats, jobs_cancelled);
            shared.cond.notify_all();
            0
        }
        State::Running => {
            table.entries[idx].cancel_requested = true;
            table.entries[idx].deadline.cancel();
            1
        }
        _ => 2,
    }
}

// ---------------------------------------------------------------------------
// Live telemetry: METRICS, FLIGHT and the Prometheus endpoint
// ---------------------------------------------------------------------------

/// Builds the `METRICS` reply: cumulative counters, queue/worker/cache
/// gauges, windowed rates and percentiles, and the recent-event ring.
fn live_metrics(shared: &Shared) -> LiveMetrics {
    let (queue_depth, workers_busy) = {
        let table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
        (table.depth(), table.running as u64)
    };
    let mut counters = shared.stats.snapshot();
    counters.push(("serve.queue_depth".to_string(), queue_depth));
    counters.sort();
    let hits = shared.stats.cache_hits.load(Ordering::Relaxed);
    let misses = shared.stats.cache_misses.load(Ordering::Relaxed);
    let cache_hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let mut rates = Vec::new();
    let mut windows = Vec::new();
    for entry in certnn_obs::window_snapshot().entries {
        match entry.value {
            WindowValue::Rate(r) => rates.push((entry.name.to_string(), r)),
            WindowValue::Histogram(h) => windows.push((
                entry.name.to_string(),
                WindowHist { count: h.count, p50: h.p50, p95: h.p95, p99: h.p99 },
            )),
        }
    }
    let events = shared
        .events
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    LiveMetrics {
        uptime_ns: shared.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        queue_depth,
        workers_total: shared.workers_total as u64,
        workers_busy,
        cache_hit_ratio,
        counters,
        rates,
        windows,
        events,
    }
}

/// Answers `FLIGHT`: the persisted log of a finished job when one exists
/// (it survives restarts and is the authoritative record of the solve
/// that produced the cached certificate), the live recorder otherwise.
fn handle_flight(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    job: u64,
) -> Result<(), ProtocolError> {
    let (key, live, done) = {
        let table = shared.table.lock().unwrap_or_else(|e| e.into_inner());
        let Some((idx, _)) = table.lookup(job) else {
            drop(table);
            send_error(stream, shared, ErrorCode::UnknownJob, "no such job");
            return Ok(());
        };
        let entry = &table.entries[idx];
        (entry.key, entry.flight.snapshot(), matches!(entry.state, State::Done(_)))
    };
    let log = if done {
        shared.store.get_flight(key).unwrap_or(live)
    } else {
        live
    };
    send(stream, shared, &Msg::FlightReply(Box::new(log)))
}

/// Accepts plain HTTP connections and answers every `GET` with the
/// Prometheus text exposition of [`live_metrics`]. One request per
/// connection (HTTP/1.0, `Connection: close` semantics); requests are
/// handled on short-lived threads so a stalled scraper cannot block the
/// accept loop, and read/write timeouts bound each handler's lifetime.
fn prom_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("serve-prom-conn".to_string())
            .spawn(move || serve_prom_request(stream, &shared));
    }
}

fn serve_prom_request(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
    let _ = stream.set_write_timeout(Some(FRAME_TIMEOUT));
    // Read the request head (bounded; everything past 4 KiB is ignored —
    // the path and headers don't matter, any GET serves metrics).
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match std::io::Read::read(&mut stream, &mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 4096 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    if !head.starts_with(b"GET ") {
        let _ = stream.write_all(
            b"HTTP/1.0 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n",
        );
        return;
    }
    let body = crate::prom::render_prometheus(&live_metrics(shared));
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_mirrors_every_counter() {
        let stats = ServeStats::default();
        stats.jobs_coalesced.fetch_add(3, Ordering::Relaxed);
        let snap = stats.snapshot();
        // The struct and the snapshot list are generated from one field
        // list; this pins the full set so a rename or removal is loud.
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "serve.cache_corrupt",
                "serve.cache_hits",
                "serve.cache_misses",
                "serve.frames_rx",
                "serve.frames_tx",
                "serve.jobs_cancelled",
                "serve.jobs_coalesced",
                "serve.jobs_completed",
                "serve.jobs_failed",
                "serve.jobs_resumed",
                "serve.jobs_submitted",
                "serve.protocol_errors",
            ]
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert_eq!(stats.get("serve.jobs_coalesced"), 3);
        assert_eq!(stats.get("serve.no_such_counter"), 0);
    }

    #[test]
    fn a_panic_after_the_solve_fails_the_job_and_frees_its_worker() {
        use crate::client::Client;
        use crate::ServeError;
        use certnn_linalg::Interval;
        let dir =
            std::env::temp_dir().join(format!("certnn_serve_backstop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeOptions {
            workers: 1,
            ..ServeOptions::loopback(&dir)
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let request = |seed| {
            let net = Network::relu_mlp(3, &[6], 1, seed).unwrap();
            let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).unwrap();
            let obj = LinearObjective::output(0);
            JobRequest::from_query(&net, &spec, &obj, &VerifierOptions::default(), None)
        };
        let (doomed, next) = (request(1), request(2));
        PANIC_AFTER_SOLVE.store(doomed.job_key().unwrap(), Ordering::SeqCst);
        let job = client.submit(&doomed).unwrap().job;
        // Poll instead of blocking in `result`: a stranded job would hang.
        let t0 = Instant::now();
        let err = loop {
            match client.try_result(job) {
                Ok(None) => {
                    assert!(
                        t0.elapsed() < Duration::from_secs(60),
                        "job stranded Running"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(Some(_)) => panic!("the injected panic must fail the job"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err, ServeError::Remote { code: ErrorCode::JobFailed, message }
                if message.contains("injected panic after the solve")),
            "{err}"
        );
        // The pool's one worker lives on and takes the next job.
        let next_job = client.submit(&next).unwrap().job;
        assert!(client.result(next_job).unwrap().best_value.is_some());
        assert_eq!(client.metrics().unwrap().workers_busy, 0);
        assert_eq!(server.stats().get("serve.jobs_failed"), 1);
        assert_eq!(server.stats().get("serve.jobs_completed"), 1);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
