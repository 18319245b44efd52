//! Hybrid neuron branch-and-bound.
//!
//! The generic big-M MILP struggles on wide scenario boxes: its LP
//! relaxation is loose, so the global bound creeps. This module implements
//! what dedicated neural-network verifiers do instead — branch on **ReLU
//! phases** and re-run the symbolic bound propagation of
//! [`crate::bounds::analyze_with_phases`] at every node:
//!
//! * **Bounding** — each node's phase assignment yields a fresh symbolic
//!   upper bound on the objective, dramatically tighter than the node's
//!   LP relaxation because every forced neuron becomes *exact* in the
//!   propagation.
//! * **Incumbents** — each analysis also yields the box corner maximising
//!   its upper surrogate; a true forward pass through that corner is a
//!   genuine lower bound, so every node doubles as a heuristic.
//! * **Completeness** — once few enough neurons remain unstable, the node
//!   goes back into the frontier under the *LP rule*, with its decided
//!   phases (forced plus those *implied* by the node's propagated bounds)
//!   pinned as big-M binaries. An LP-rule node solves the encoding's LP,
//!   prunes on it, offers its input point as an incumbent, closes when
//!   the point is integral and otherwise branches on the most fractional
//!   binary: the exact big-M MILP, searched in the same tree with the
//!   same workers, checkpoints, panic isolation and dropped-bound fold.
//!
//! # Parallel search
//!
//! The frontier is drained by [`BabOptions::threads`] workers over a
//! work-sharing **shared best-first heap** (`std::thread::scope` only —
//! no external runtime):
//!
//! * Workers pop the globally best node, process it under its rule
//!   without holding the lock, and push surviving children back.
//! * The incumbent value lives in an `AtomicU64` (f64 bit-cast, updated
//!   only under the incumbent mutex, monotone non-decreasing), so pruning
//!   decisions propagate to every worker instantly; a stale read is
//!   always *conservative* — it can only under-prune, never cut a node
//!   that might contain the optimum.
//! * Termination is detected via an in-flight counter: the search is
//!   exhausted exactly when the heap is empty and no node is being
//!   processed. Early stops (gap closed, time/node limit, cutoff,
//!   target) are first-writer-wins; the bound of any work abandoned
//!   mid-flight is folded into the final `upper_bound`, so the result
//!   contract is the same as the serial engine's: `best_value` is a real
//!   input's objective and `upper_bound` dominates the true maximum up to
//!   `abs_gap`.
//!
//! With `threads == 1` the engine visits nodes in exactly the serial
//! best-first order. With more workers the visit order (and therefore
//! node counts and tie-breaks among equal optima) may differ run to run,
//! but the returned optimum obeys the same `abs_gap` contract.
//!
//! This is the only search engine. The paper's pure big-M MILP is its
//! `milp_threshold = usize::MAX` configuration: the root node switches
//! straight to the LP rule over the whole encoding, so that search too
//! runs on every worker and checkpoints mid-solve. Linear scenario
//! constraints live in the encoding, so every node LP respects them; the
//! symbolic bounds see only the box, which keeps them sound, and a
//! candidate incumbent must satisfy every constraint.

use crate::bounds::{interval_objective_ceiling, PhaseAnalyzer, PhasedAnalysis};
use crate::checkpoint::{CheckpointPolicy, Checkpointer, Snapshot};
use crate::encoder::{encode, BoundMethod, Encoding};
use crate::property::{InputSpec, LinearObjective};
use crate::verifier::{VerifyStats, NODE_HAND_OFF_UNSTABLE};
use crate::VerifyError;
use certnn_linalg::Vector;
use certnn_lp::{
    Deadline, Degradation, LpError, LpStatus, Simplex, VarId, WarmSolve, WarmStart,
};
use certnn_milp::{MilpModel, MilpStatus, INT_TOL};
use certnn_nn::network::Network;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Cached `bab.*` observability handles. Frequent per-node totals stay in
/// [`WorkerCounters`] and flush in one bulk add after the join; only rare
/// events (incumbents, panics, deaths) touch these directly mid-search.
struct BabMetrics {
    nodes: certnn_obs::Counter,
    incumbent_updates: certnn_obs::Counter,
    milp_calls: certnn_obs::Counter,
    node_panics: certnn_obs::Counter,
    worker_deaths: certnn_obs::Counter,
    lp_skipped: certnn_obs::Counter,
    lp_forced: certnn_obs::Counter,
    frontier_depth: certnn_obs::Gauge,
    /// Hand-offs to the LP rule and LP-rule nodes, counted as the solves
    /// and nodes of the big-M MILP that rule searches.
    milp_solves: certnn_obs::Counter,
    milp_nodes: certnn_obs::Counter,
}

fn bab_metrics() -> &'static BabMetrics {
    static M: OnceLock<BabMetrics> = OnceLock::new();
    M.get_or_init(|| BabMetrics {
        nodes: certnn_obs::counter("bab.nodes"),
        incumbent_updates: certnn_obs::counter("bab.incumbent_updates"),
        milp_calls: certnn_obs::counter("bab.milp_calls"),
        node_panics: certnn_obs::counter("bab.node_panics"),
        worker_deaths: certnn_obs::counter("bab.worker_deaths"),
        lp_skipped: certnn_obs::counter("bab.lp_skipped"),
        lp_forced: certnn_obs::counter("bab.lp_forced"),
        frontier_depth: certnn_obs::gauge("bab.frontier_depth"),
        milp_solves: certnn_obs::counter("milp.solves"),
        milp_nodes: certnn_obs::counter("milp.nodes"),
    })
}

/// Accumulates wall time into a [`WorkerCounters`] nanosecond field on
/// drop — the "search clock" behind `nodes_per_sec`. Runs regardless of
/// the observability switch: two `Instant` reads per node are noise next
/// to an LP solve, and the throughput statistic must not change meaning
/// when tracing is off.
struct NanoClock<'a> {
    acc: &'a mut u64,
    start: Instant,
}

impl<'a> NanoClock<'a> {
    fn start(acc: &'a mut u64) -> Self {
        Self {
            acc,
            start: Instant::now(),
        }
    }
}

impl Drop for NanoClock<'_> {
    fn drop(&mut self) {
        *self.acc += self.start.elapsed().as_nanos() as u64;
    }
}
use std::thread;
use std::time::{Duration, Instant};

/// How many times a node whose processing panicked is re-queued before
/// its (sound) bound is folded and the subtree given up.
const MAX_NODE_RETRIES: usize = 2;

/// Default [`BabOptions::alpha_iters`]: coordinate-descent rounds of the
/// α-optimized bounding layer. One round already captures most of the
/// gain because children warm-start from the parent's tuned slopes.
/// `0` switches the tuner off and reproduces the fixed-slope heuristic
/// bit-for-bit.
pub const DEFAULT_ALPHA_ITERS: usize = 1;

/// Resolves a thread-count knob: `0` means "one worker per available
/// core", any other value is used as-is.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Options for [`bab_maximize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BabOptions {
    /// Wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Node limit.
    pub node_limit: Option<usize>,
    /// Absolute gap at which the search stops as optimal.
    pub abs_gap: f64,
    /// Switch a node to the LP rule (the big-M MILP's own branching, see
    /// the module docs) once at most this many neurons remain unstable.
    /// `usize::MAX` switches the root: the paper's pure big-M MILP.
    pub milp_threshold: usize,
    /// Stop as soon as an incumbent reaches this value.
    pub target_objective: Option<f64>,
    /// Stop as soon as the global upper bound drops below this value.
    pub bound_cutoff: Option<f64>,
    /// Search workers draining the shared frontier. `1` (the default)
    /// reproduces the serial best-first visit order exactly; `0` means
    /// one worker per available core (see [`resolve_threads`]).
    pub threads: usize,
    /// Warm-start every node LP from the nearest solved ancestor's basis
    /// (phase-rule nodes without one fall back to a per-worker cache).
    /// Verdict-preserving; disable only to collect a cold baseline.
    pub warm_start: bool,
    /// Coordinate-descent rounds of the α-optimized bounding layer per
    /// node (see [`PhaseAnalyzer::analyze_tuned`]). `0` disables tuning
    /// and reproduces the fixed-slope heuristic bit-for-bit; the root
    /// encoding then also falls back to [`BoundMethod::Symbolic`].
    pub alpha_iters: usize,
    /// Elide the phase rule's LP relaxation where it is redundant: at
    /// nodes handed to the LP rule (whose first LP is that relaxation with
    /// the decided binaries pinned) and at nodes whose α-tightened bound
    /// already sits at or below [`BabOptions::bound_cutoff`]. Everywhere
    /// else the big-M LP relaxation (node-tightened variable bounds, phase
    /// fixings) runs and the tighter of the symbolic and LP bounds is
    /// kept.
    /// Metered as `bab.lp_skipped` vs `bab.lp_forced`.
    /// Sound: the symbolic bound alone is a valid node bound; the LP only
    /// ever tightens it. Disable to reproduce LP-at-every-node behaviour.
    pub lp_skip: bool,
}

impl Default for BabOptions {
    fn default() -> Self {
        Self {
            time_limit: None,
            node_limit: None,
            abs_gap: 1e-6,
            milp_threshold: NODE_HAND_OFF_UNSTABLE,
            target_objective: None,
            bound_cutoff: None,
            threads: 1,
            warm_start: true,
            alpha_iters: DEFAULT_ALPHA_ITERS,
            lp_skip: true,
        }
    }
}

/// Result of a neuron branch-and-bound run.
#[derive(Debug, Clone)]
pub struct BabResult {
    /// Termination status (same vocabulary as the MILP layer).
    pub status: MilpStatus,
    /// Best objective value achieved by a real input.
    pub best_value: Option<f64>,
    /// Input achieving `best_value`.
    pub witness: Option<Vector>,
    /// Proven upper bound on the maximum.
    pub upper_bound: f64,
    /// Search nodes explored under either rule (`stats.nodes`).
    pub nodes: usize,
    /// Search workers used (after resolving `threads == 0`).
    pub threads_used: usize,
    /// Node throughput on the search clock: `nodes` divided by the
    /// bound+branch wall time summed across workers. Setup (encoding,
    /// root analysis) and result folding are excluded, so the figure is
    /// comparable across thread counts; it falls back to `nodes` divided
    /// by `stats.elapsed` only when no node was ever timed.
    pub nodes_per_sec: f64,
    /// The solve record: every node LP of every worker, the skip gate's
    /// counts, the encoding's size, the wall time and the worst
    /// degradation met anywhere in the search — `Exact` unless a fault
    /// forced a fallback, a worker panicked, or a deadline folded
    /// unexplored subtrees into the bound. The bound is sound at every
    /// level.
    pub stats: VerifyStats,
}

/// One open node of the search frontier. Snapshots write these nodes
/// and their warm starts as they are (see [`crate::checkpoint`]).
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Per-ReLU phase: `None` open, `Some(false)` forced inactive,
    /// `Some(true)` forced active (pinned binaries under the LP rule).
    pub(crate) phases: Vec<Option<bool>>,
    /// Proven upper bound of the node's subtree.
    pub(crate) bound: f64,
    /// Depth in the search tree.
    pub(crate) depth: usize,
    /// Creation sequence number, assigned under the frontier lock (root
    /// is `0`). Makes the heap order *total*: among nodes with equal
    /// `(bound, depth)` the earliest-created pops first, so the pop
    /// sequence is a pure function of the frontier's contents — required
    /// for a resumed search to replay the uninterrupted run exactly
    /// (`BinaryHeap` breaks ties by internal layout, which a
    /// serialize/rebuild cycle cannot preserve).
    pub(crate) seq: u64,
    /// Panic-retry count: how many times this node's processing died and
    /// was re-queued (see [`MAX_NODE_RETRIES`]).
    pub(crate) retries: usize,
    /// Optimal basis of the nearest solved ancestor, shared across
    /// siblings. Parent-to-child bound changes are small (one binary
    /// fixed plus interval refinements), so this basis has far better
    /// locality than any last-solved cache under best-first ordering.
    pub(crate) warm: Option<Arc<WarmStart>>,
    /// Tuned α slopes of the nearest tuned ancestor, shared across
    /// siblings — the warm start of this node's own α descent. One fixed
    /// phase barely moves the optimal slopes, so children converge in a
    /// round or two. `None` when tuning is off (`alpha_iters == 0`) and
    /// under the LP rule.
    pub(crate) alpha: Option<Arc<Vec<f64>>>,
    /// `true` for an LP-rule node, whose phases are pinned binaries of
    /// the big-M encoding; `false` for a phase-rule node.
    pub(crate) lp_rule: bool,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.depth == other.depth && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
            // Reversed: the *earliest-created* of otherwise-equal nodes is
            // the greatest, i.e. FIFO among ties. seq is unique, so the
            // order is total and the heap's pop sequence deterministic.
            .then(other.seq.cmp(&self.seq))
    }
}

/// Read-only context shared by every search worker.
struct SearchCtx<'a> {
    net: &'a Network,
    spec: &'a InputSpec,
    objective: &'a LinearObjective,
    opts: &'a BabOptions,
    enc: &'a Encoding,
    obj_model: &'a MilpModel,
    base_bounds: &'a [(f64, f64)],
    simplex: &'a Simplex,
    flat_map: &'a [(usize, usize)],
    obj_seed: &'a Vector,
    /// Search deadline (ambient tightened by [`BabOptions::time_limit`]),
    /// polled between nodes here and between pivot batches inside every
    /// node LP.
    deadline: &'a Deadline,
    /// Id of the run's `bab.run` span, so worker spans on other threads
    /// can parent to it in the trace.
    obs_run_span: Option<u64>,
}

/// Mutable frontier state, all guarded by one mutex.
struct Frontier {
    heap: BinaryHeap<Node>,
    /// Nodes popped but not yet completed by a worker.
    in_flight: usize,
    /// Per-worker bound of the node currently being processed
    /// (`NEG_INFINITY` when idle) — in-flight work counts toward the
    /// global upper bound.
    active: Vec<f64>,
    /// Per-worker clone of the claimed node, kept **only while
    /// checkpointing is active** so a snapshot can serialize in-flight
    /// work instead of losing it; `None` everywhere otherwise (zero cost
    /// when the feature is off).
    claimed: Vec<Option<Node>>,
    /// Next [`Node::seq`] to assign; restored across resumes.
    next_seq: u64,
    /// Processed-node counter (the serial `nodes` statistic).
    nodes: usize,
    /// First stop reason; later stop attempts keep the first.
    halt: Option<MilpStatus>,
    /// Max bound over subtrees abandoned by an early stop; folded into
    /// the final `upper_bound` for soundness.
    abandoned: f64,
    /// Max bound over nodes *dropped* mid-search — repeated panics or
    /// unrecoverable numeric failures — folded into the final
    /// `upper_bound` regardless of how the search ends.
    dropped: f64,
    /// Worst degradation recorded through frontier events (panics, dead
    /// workers); per-node degradations accumulate in worker counters.
    degradation: Degradation,
    /// The subset of `degradation` that must survive a checkpoint/resume
    /// cycle: permanently lost subtrees (`IntervalOnly`) and rejected
    /// resumes (`CheckpointFallback`). Deadline tags (`TimedOut`) are
    /// *transient* — a resumed run that finishes cleanly with all saved
    /// work must not inherit the previous run's timeout — so they merge
    /// into `degradation` only.
    sticky_degradation: Degradation,
    /// Workers whose threads died (panic escaped the per-node isolation).
    dead_workers: usize,
    /// A worker hit a structural error; everyone drains out.
    failed: bool,
}

impl Frontier {
    /// What a snapshot records of the frontier: the queued heap in
    /// iteration order, then every claimed in-flight node, with the
    /// counters. `nodes_done` excludes in-flight work — those nodes are
    /// written for re-processing, so the resumed search counts them again
    /// at re-claim and the cumulative node count matches an uninterrupted
    /// run exactly.
    fn snapshot(&self) -> Snapshot {
        let mut frontier: Vec<Node> = self.heap.iter().cloned().collect();
        frontier.extend(self.claimed.iter().flatten().cloned());
        Snapshot {
            nodes_done: (self.nodes - self.in_flight) as u64,
            next_seq: self.next_seq,
            dropped_bound: self.dropped,
            degradation: self.sticky_degradation,
            frontier,
            ..Snapshot::default()
        }
    }
}

/// Cross-worker search state.
struct SearchState {
    frontier: Mutex<Frontier>,
    work_ready: Condvar,
    incumbent: Mutex<Option<(Vector, f64)>>,
    /// `f64::to_bits` of the incumbent value, written only under the
    /// incumbent mutex. Reads are lock-free and monotone: a stale value
    /// is always lower, so pruning against it is conservative (sound).
    best_bits: AtomicU64,
    /// Checkpointing; `None` means the feature is off and every hook
    /// below is a no-op.
    ckpt: Option<Checkpointer>,
}

/// Running estimate of the pivots one worker's warm starts saved: each
/// warm solve saves the mean pivot count of the worker's cold solves so
/// far minus its own pivots, clamped at zero, and a warm solve before any
/// cold one saves nothing. An estimate: the true counterfactual would
/// re-solve every node cold.
#[derive(Default)]
struct WarmTracker {
    cold_pivots: usize,
    cold_solves: usize,
    saved: f64,
}

impl WarmTracker {
    fn record_cold(&mut self, pivots: usize) {
        self.cold_solves += 1;
        self.cold_pivots += pivots;
    }

    fn record_warm(&mut self, pivots: usize) {
        if self.cold_solves > 0 {
            let avg = self.cold_pivots as f64 / self.cold_solves as f64;
            self.saved += (avg - pivots as f64).max(0.0);
        }
    }

    fn pivots_saved(&self) -> usize {
        self.saved.round() as usize
    }
}

/// Per-worker statistic accumulators, merged after the join.
#[derive(Default)]
struct WorkerCounters {
    /// This worker's share of the solve record: its node LPs (warm, cold
    /// and pivots), the skip gate's counts and the worst degradation its
    /// solves met.
    stats: VerifyStats,
    /// Running estimate behind `stats.pivots_saved`.
    tracker: WarmTracker,
    /// Hand-offs from the phase rule to the LP rule.
    milp_calls: usize,
    /// LP-rule nodes processed.
    lp_rule_nodes: usize,
    /// Wall time this worker spent bounding nodes (analysis and node
    /// LPs, the whole of an LP-rule node), nanoseconds.
    bound_nanos: u64,
    /// Wall time this worker spent selecting branch variables and
    /// building children, nanoseconds.
    branch_nanos: u64,
}

/// What one processed node produced.
#[derive(Default)]
struct NodeOutcome {
    children: Vec<Node>,
    /// Early-stop request: `(status, bound of this node's abandoned
    /// subtree)`.
    halt: Option<(MilpStatus, f64)>,
    /// Bound of a subtree given up on an unrecoverable numeric failure;
    /// folded into the final `upper_bound` without halting the search.
    dropped: Option<f64>,
    /// The node itself, unprocessed: its LP met the deadline. It goes
    /// back into the frontier as it was and is not counted, so a snapshot
    /// keeps it and a resumed search processes it exactly once.
    requeue: Option<Node>,
}

impl NodeOutcome {
    fn halt(status: MilpStatus, bound: f64) -> Self {
        Self {
            halt: Some((status, bound)),
            ..Self::default()
        }
    }

    fn dropped(bound: f64) -> Self {
        Self {
            dropped: Some(bound),
            ..Self::default()
        }
    }
}

impl SearchState {
    /// A search over `start`'s frontier and counters (its incumbent is
    /// the caller's to re-verify).
    fn new(workers: usize, start: Snapshot, ckpt: Option<Checkpointer>) -> Self {
        Self {
            frontier: Mutex::new(Frontier {
                heap: BinaryHeap::from(start.frontier),
                in_flight: 0,
                active: vec![f64::NEG_INFINITY; workers],
                claimed: (0..workers).map(|_| None).collect(),
                next_seq: start.next_seq,
                nodes: start.nodes_done as usize,
                halt: None,
                abandoned: f64::NEG_INFINITY,
                dropped: start.dropped_bound,
                degradation: start.degradation,
                sticky_degradation: start.degradation,
                dead_workers: 0,
                failed: false,
            }),
            work_ready: Condvar::new(),
            incumbent: Mutex::new(None),
            best_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            ckpt,
        }
    }

    /// Lock-free read of the incumbent value (`NEG_INFINITY` when none).
    fn best(&self) -> f64 {
        f64::from_bits(self.best_bits.load(AtomicOrdering::Acquire))
    }

    /// Bounds at or below this level cannot beat the incumbent within
    /// `abs_gap`. `NEG_INFINITY` when there is no incumbent yet.
    fn prune_level(&self, abs_gap: f64) -> f64 {
        let b = self.best();
        if b == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            b + abs_gap
        }
    }

    /// Evaluates `x` through the network and installs it as incumbent if
    /// it satisfies the spec's linear constraints and improves the best
    /// value. Returns the achieved objective (`NEG_INFINITY` for a point
    /// outside the constraints).
    fn try_incumbent(&self, ctx: &SearchCtx, x: &Vector) -> f64 {
        if !satisfies_constraints(ctx.spec, x) {
            return f64::NEG_INFINITY;
        }
        let v = match ctx.net.forward(x) {
            Ok(out) => ctx.objective.eval(&out),
            Err(_) => return f64::NEG_INFINITY,
        };
        // Poison-tolerant: incumbent updates are value-monotone (a
        // half-finished write is at worst a stale-but-valid pair), so a
        // panicked writer must not wedge every other worker.
        let mut inc = self.incumbent.lock().unwrap_or_else(|e| e.into_inner());
        let cur = inc.as_ref().map(|(_, b)| *b);
        match cur {
            Some(best) if v <= best => {}
            _ => {
                *inc = Some((x.clone(), v));
                self.best_bits.store(v.to_bits(), AtomicOrdering::Release);
                bab_metrics().incumbent_updates.inc();
            }
        }
        v
    }

    /// Claims the next node for worker `wid`, or `None` when the search
    /// is over (exhausted, halted, or failed). Performs the global
    /// gap/cutoff/limit checks that the serial loop ran at each pop.
    fn next_work(&self, ctx: &SearchCtx, wid: usize) -> Option<Node> {
        // Poison-tolerant: every frontier mutation keeps the invariants
        // (counters adjusted together, pushes complete before unlocking),
        // so a poisoned lock from a panicking worker carries a usable
        // state and must not take the surviving workers down with it.
        let mut f = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if f.halt.is_some() || f.failed {
                return None;
            }
            let queued = f.heap.peek().map(|n| n.bound);
            if queued.is_none() && f.in_flight == 0 {
                // Exhausted: natural (optimal) completion.
                return None;
            }
            // Global upper bound estimate over queued and in-flight work.
            let running = f.active.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let gu = queued.unwrap_or(f64::NEG_INFINITY).max(running);

            let prune = self.prune_level(ctx.opts.abs_gap);
            if gu <= prune {
                // Nothing anywhere can beat the incumbent: gap closed.
                f.halt = Some(MilpStatus::Optimal);
                self.work_ready.notify_all();
                return None;
            }
            if let Some(cut) = ctx.opts.bound_cutoff {
                if gu.is_finite() && gu < cut {
                    f.halt = Some(MilpStatus::BoundCutoff);
                    f.abandoned = f.abandoned.max(gu);
                    self.work_ready.notify_all();
                    return None;
                }
            }
            if ctx.deadline.expired() {
                f.halt = Some(MilpStatus::TimeLimit);
                f.abandoned = f.abandoned.max(gu);
                f.degradation = f.degradation.merge(Degradation::TimedOut);
                self.work_ready.notify_all();
                return None;
            }
            if let Some(limit) = ctx.opts.node_limit {
                if f.nodes >= limit && queued.is_some() {
                    f.halt = Some(MilpStatus::NodeLimit);
                    f.abandoned = f.abandoned.max(gu);
                    self.work_ready.notify_all();
                    return None;
                }
            }

            match f.heap.pop() {
                Some(node) => {
                    if node.bound <= prune {
                        // Stale node overtaken by a newer incumbent.
                        continue;
                    }
                    f.nodes += 1;
                    f.in_flight += 1;
                    f.active[wid] = node.bound;
                    if self.ckpt.is_some() {
                        // Keep a clone so a snapshot can re-queue this
                        // in-flight node instead of losing it to a kill.
                        f.claimed[wid] = Some(node.clone());
                    }
                    bab_metrics().frontier_depth.set(f.heap.len() as i64);
                    return Some(node);
                }
                None => {
                    // In-flight work elsewhere may still push children;
                    // the timeout keeps time limits responsive even if a
                    // notification is missed.
                    let (guard, _) = self
                        .work_ready
                        .wait_timeout(f, Duration::from_millis(10))
                        .unwrap_or_else(|e| e.into_inner());
                    f = guard;
                }
            }
        }
    }

    /// Publishes the outcome of worker `wid`'s current node.
    fn complete(&self, wid: usize, outcome: NodeOutcome) {
        let snap = {
            let mut f = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
            for mut child in outcome.children {
                // Sequence numbers are assigned here, under the lock, in
                // the order `process_node` created the children — the one
                // place the assignment is race-free and deterministic.
                child.seq = f.next_seq;
                f.next_seq += 1;
                f.heap.push(child);
            }
            if let Some((status, bound)) = outcome.halt {
                if f.halt.is_none() {
                    f.halt = Some(status);
                }
                f.abandoned = f.abandoned.max(bound);
            }
            if let Some(bound) = outcome.dropped {
                f.dropped = f.dropped.max(bound);
            }
            if let Some(node) = outcome.requeue {
                f.nodes -= 1;
                f.heap.push(node);
            }
            f.active[wid] = f64::NEG_INFINITY;
            f.claimed[wid] = None;
            f.in_flight -= 1;
            bab_metrics().frontier_depth.set(f.heap.len() as i64);
            self.work_ready.notify_all();
            // The frontier is cloned under the lock; the incumbent is read
            // and the snapshot encoded and written outside it. A stopping
            // search leaves its state to the final flush.
            self.ckpt
                .as_ref()
                .filter(|c| f.halt.is_none() && !f.failed && c.due(f.nodes))
                .map(|c| (c, f.snapshot()))
        };
        if let Some((c, mut snap)) = snap {
            snap.incumbent = (self.incumbent.lock().unwrap_or_else(|e| e.into_inner()))
                .as_ref()
                .map(|(x, v)| (x.as_slice().to_vec(), *v));
            c.write(snap);
        }
    }

    /// Publishes a panic while worker `wid` processed `node`: the node is
    /// re-queued a bounded number of times; past that its (sound) bound
    /// is folded into the dropped accumulator so the subtree is never
    /// silently lost from the final upper bound.
    fn panic_complete(&self, wid: usize, mut node: Node) {
        bab_metrics().node_panics.inc();
        let requeued = node.retries < MAX_NODE_RETRIES;
        certnn_obs::event(
            "bab.node_panic",
            vec![
                ("worker", wid.into()),
                ("retries", node.retries.into()),
                ("bound", node.bound.into()),
                ("requeued", requeued.into()),
            ],
        );
        let mut f = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
        f.degradation = f.degradation.merge(Degradation::IntervalOnly);
        f.sticky_degradation = f.sticky_degradation.merge(Degradation::IntervalOnly);
        if requeued {
            node.retries += 1;
            f.heap.push(node);
        } else {
            f.dropped = f.dropped.max(node.bound);
        }
        f.active[wid] = f64::NEG_INFINITY;
        f.claimed[wid] = None;
        f.in_flight -= 1;
        self.work_ready.notify_all();
    }

    /// Records the death of worker `wid`'s thread (a panic that escaped
    /// per-node isolation): its claimed bound is folded so the final
    /// upper bound stays sound, its in-flight slot is released so the
    /// survivors' exhaustion check still terminates, and a fully-dead
    /// pool halts the search with [`MilpStatus::Aborted`] instead of
    /// hanging.
    fn worker_died(&self, wid: usize) {
        bab_metrics().worker_deaths.inc();
        let mut f = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
        let claimed = f.active[wid];
        if claimed != f64::NEG_INFINITY {
            f.dropped = f.dropped.max(claimed);
            f.active[wid] = f64::NEG_INFINITY;
            f.in_flight = f.in_flight.saturating_sub(1);
        }
        // The node dies with its worker in the live run, so it must not
        // also be serialized: the dropped fold above is its record.
        f.claimed[wid] = None;
        f.dead_workers += 1;
        f.degradation = f.degradation.merge(Degradation::IntervalOnly);
        f.sticky_degradation = f.sticky_degradation.merge(Degradation::IntervalOnly);
        let pool_dead = f.dead_workers >= f.active.len();
        if pool_dead && f.halt.is_none() {
            f.halt = Some(MilpStatus::Aborted);
        }
        // Machine-readable fault record for chaos runs: which worker died,
        // whether it held a node (and that node's folded bound), and
        // whether its death aborted the whole search.
        certnn_obs::event(
            "bab.worker_died",
            vec![
                ("worker", wid.into()),
                ("held_node", (claimed != f64::NEG_INFINITY).into()),
                ("folded_bound", claimed.into()),
                ("dead_workers", f.dead_workers.into()),
                ("pool_aborted", pool_dead.into()),
            ],
        );
        self.work_ready.notify_all();
    }

    /// Records a structural failure of worker `wid` and releases its
    /// claimed node so the other workers drain out. The claimed bound is
    /// folded first — even an error path must not silently tighten the
    /// reported bound.
    fn fail(&self, wid: usize) {
        let mut f = self.frontier.lock().unwrap_or_else(|e| e.into_inner());
        f.failed = true;
        if f.active[wid] != f64::NEG_INFINITY {
            f.dropped = f.dropped.max(f.active[wid]);
        }
        f.active[wid] = f64::NEG_INFINITY;
        f.claimed[wid] = None;
        f.in_flight -= 1;
        self.work_ready.notify_all();
    }
}

/// Maximises `objective` over `spec` (a box, optionally intersected with
/// linear constraints) by hybrid neuron branch-and-bound; see the module
/// docs for the parallel search architecture. An empty spec yields
/// [`MilpStatus::Infeasible`] with `upper_bound = −∞`.
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] if the spec does not match the
/// network, [`VerifyError::CounterexampleMismatch`] if an integral
/// LP-rule point disagrees with the network's forward pass (an encoder
/// bug), and the
/// usual structural errors otherwise.
pub fn bab_maximize(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    opts: &BabOptions,
) -> Result<BabResult, VerifyError> {
    bab_maximize_ckpt(net, spec, objective, opts, Deadline::none(), None)
}

/// [`bab_maximize`] under an ambient [`Deadline`]/cancellation token from
/// the caller (fleet runner, pipeline) and with crash-safe checkpointing.
///
/// The effective deadline is the ambient one tightened by
/// [`BabOptions::time_limit`]; it is polled between nodes and inside every
/// node LP, and expiry yields a sound bound tagged
/// [`Degradation::TimedOut`].
///
/// Under a [`CheckpointPolicy`] the search snapshots its frontier at the
/// policy's cadence, flushes a final snapshot when it stops early
/// (time/node limit, aborted pool) so the run returns a *resumable*
/// handle, deletes the snapshot on a completed answer, and — when the
/// policy asks to resume — rebuilds the frontier from a vetted snapshot of
/// the same query.
///
/// Resume is never trusted blindly: checksums, the query content-address
/// and every structural invariant are verified, warm factorizations are
/// re-derived rather than read, and the stored incumbent is re-proved by a
/// fresh forward pass. Any failure degrades to a fresh solve tagged
/// [`Degradation::CheckpointFallback`] — it never errors.
///
/// # Errors
///
/// Same contract as [`bab_maximize`]; checkpoint IO failures are reported
/// through obs, never as errors.
pub fn bab_maximize_ckpt(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    opts: &BabOptions,
    deadline: Deadline,
    ckpt: Option<&CheckpointPolicy>,
) -> Result<BabResult, VerifyError> {
    objective.check_against(net)?;
    let start = Instant::now();
    let run_span = certnn_obs::span("bab.run");
    let encode_phase = certnn_obs::phase(certnn_obs::Phase::Encode);
    let input_box = spec.bounds();
    let total_relu = net.num_relu_neurons();
    // Flat ReLU index -> (layer, neuron), for gradient-guided branching.
    let flat_map: Vec<(usize, usize)> = net
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.activation() == certnn_nn::activation::Activation::Relu)
        .flat_map(|(li, l)| (0..l.outputs()).map(move |j| (li, j)))
        .collect();
    // Objective gradient seed over the outputs.
    let obj_seed: Vector = {
        let mut v = vec![0.0; net.outputs()];
        for &(o, c) in &objective.terms {
            v[o] += c;
        }
        Vector::from(v)
    };

    // Encoding for node LPs and the LP rule (built once). With α
    // tuning on, the encoder runs the same descent over whole-network
    // bounds: more stably-fixed neurons (fewer binaries) and tighter
    // big-M constants. `alpha_iters == 0` keeps the plain symbolic
    // presolve bit-for-bit.
    let bound_method = if opts.alpha_iters > 0 {
        BoundMethod::AlphaOptimized {
            iters: opts.alpha_iters,
        }
    } else {
        BoundMethod::Symbolic
    };
    let enc: Encoding = encode(net, spec, bound_method)?;
    // Objective-bearing model for every node LP.
    let obj_model = {
        let mut m = enc.milp.clone();
        let terms: Vec<_> = objective
            .terms
            .iter()
            .map(|&(o, c)| (enc.output_vars[o], c))
            .collect();
        m.set_objective(&terms);
        m
    };
    let base_bounds: Vec<(f64, f64)> = (0..obj_model.num_vars())
        .map(|i| obj_model.bounds(VarId::from_index(i)))
        .collect();
    let deadline = deadline.tighten(opts.time_limit);
    let simplex = Simplex::new().with_deadline(deadline.clone());

    let threads_used = resolve_threads(opts.threads);
    let ctx = SearchCtx {
        net,
        spec,
        objective,
        opts,
        enc: &enc,
        obj_model: &obj_model,
        base_bounds: &base_bounds,
        simplex: &simplex,
        flat_map: &flat_map,
        obj_seed: &obj_seed,
        deadline: &deadline,
        obs_run_span: run_span.id(),
    };

    let root_phases = vec![None; total_relu];
    // Tuned α slopes tighten the node bounds that prune and order neuron
    // branching. A root hand-off (the pure big-M MILP) gives the whole
    // query to the LP rule, so it skips the tuning; its encoding keeps
    // the α presolve all the same.
    let search_alpha_iters = if opts.milp_threshold == usize::MAX {
        0
    } else {
        opts.alpha_iters
    };
    let (root, root_alpha) = PhaseAnalyzer::new(net, input_box)?.analyze_tuned(
        &root_phases,
        objective,
        search_alpha_iters,
        None,
    )?;
    let root_bound = root.objective_upper;
    // The symbolic root bound is usually tighter than plain interval
    // arithmetic but is not guaranteed to be; the ceiling caps whatever
    // bound the search hands back when it cannot finish.
    let iv_ceiling = interval_objective_ceiling(net, input_box, objective)?;

    // The search starts at the root, or where a vetted snapshot of this
    // query left off. Every failure mode short of a clean resume is a
    // fresh solve — corruption costs the salvaged work, never the answer.
    let fresh = Snapshot {
        frontier: vec![Node {
            phases: root_phases,
            bound: root_bound,
            depth: 0,
            seq: 0,
            retries: 0,
            warm: None,
            alpha: root_alpha.map(Arc::new),
            lp_rule: false,
        }],
        ..Snapshot::default()
    };
    let (ckpt, mut start_state) = match ckpt {
        Some(policy) => {
            let (c, s) = Checkpointer::open(policy, net, spec, objective, opts, fresh);
            (Some(c), s)
        }
        None => (None, fresh),
    };
    let resume_witness = start_state.incumbent.take();
    let state = SearchState::new(threads_used, start_state, ckpt);
    state.try_incumbent(&ctx, &root.maximizer);
    if let Some((w, _)) = resume_witness {
        // The stored incumbent is only ever installed through a fresh
        // forward pass: its achieved value is re-derived, never read.
        state.try_incumbent(&ctx, &Vector::from(w));
    }
    drop(encode_phase);

    // Work-sharing scoped worker pool. With one worker this runs the
    // exact serial best-first loop (on a spawned thread). Each node is
    // processed under `catch_unwind`, so a panic costs one node attempt
    // (re-queued up to MAX_NODE_RETRIES, then folded), not the worker;
    // the outer `catch_unwind` turns even an escaped panic into a dead
    // worker whose state is cleaned up instead of a wedged pool.
    let worker_results: Vec<Result<WorkerCounters, VerifyError>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads_used)
            .map(|wid| {
                let ctx = &ctx;
                let state = &state;
                s.spawn(move || {
                    let body = catch_unwind(AssertUnwindSafe(|| worker_loop(ctx, state, wid)));
                    match body {
                        Ok(result) => result,
                        Err(_) => {
                            state.worker_died(wid);
                            // The worker's counters die with it; stats
                            // under-report, bounds stay sound.
                            Ok(WorkerCounters::default())
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // Unreachable (the worker body is fully caught), but a
                // join error must not panic the caller either.
                Err(_) => Ok(WorkerCounters::default()),
            })
            .collect()
    });

    let fold_phase = certnn_obs::phase(certnn_obs::Phase::Fold);
    let mut stats = VerifyStats {
        binaries: enc.stats.binaries,
        rows: enc.stats.rows,
        ..VerifyStats::default()
    };
    let mut milp_calls = 0usize;
    let mut lp_rule_nodes = 0usize;
    let mut search_nanos = 0u64;
    for (wid, result) in worker_results.into_iter().enumerate() {
        let mut counters = result?;
        counters.stats.pivots_saved = counters.tracker.pivots_saved();
        milp_calls += counters.milp_calls;
        lp_rule_nodes += counters.lp_rule_nodes;
        search_nanos += counters.bound_nanos + counters.branch_nanos;
        // Structured per-worker accounting: machine-readable in the
        // trace, silent otherwise.
        let worker = &counters.stats;
        certnn_obs::event(
            "bab.worker_stats",
            vec![
                ("worker", wid.into()),
                ("lp_warm_solves", worker.warm_solves.into()),
                ("lp_cold_solves", worker.cold_solves.into()),
                ("lp_pivots_saved", worker.pivots_saved.into()),
                ("lp_skipped", worker.lp_skipped.into()),
                ("lp_forced", worker.lp_forced.into()),
                ("lp_rule_nodes", counters.lp_rule_nodes.into()),
                ("bound_nanos", counters.bound_nanos.into()),
                ("branch_nanos", counters.branch_nanos.into()),
            ],
        );
        stats.merge(worker);
    }

    let frontier = state
        .frontier
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let incumbent = state
        .incumbent
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let mut status = frontier.halt.unwrap_or(MilpStatus::Optimal);
    stats.degradation = stats.degradation.merge(frontier.degradation);
    let best = incumbent.as_ref().map(|(_, v)| *v);

    let mut upper_bound = if status == MilpStatus::Optimal {
        // Exhausted or gap-closed: the incumbent is optimal up to
        // `abs_gap`. Without one, every node was proven empty.
        best.unwrap_or(f64::NEG_INFINITY)
    } else {
        // Early stop: the proven bound is the max over everything not
        // fully explored — abandoned subtrees, the remaining frontier
        // and the incumbent itself.
        let mut ub = frontier.abandoned;
        if let Some(top) = frontier.heap.peek() {
            ub = ub.max(top.bound);
        }
        if let Some(b) = best {
            ub = ub.max(b);
        }
        if ub == f64::NEG_INFINITY {
            ub = root_bound;
        }
        ub
    };
    // Subtrees dropped on panics or numeric failures fold into the bound
    // no matter how the search ended; an Optimal claim they re-open
    // honestly degrades to Aborted.
    if frontier.dropped > f64::NEG_INFINITY {
        if status == MilpStatus::Optimal && frontier.dropped > upper_bound + opts.abs_gap {
            status = MilpStatus::Aborted;
        }
        upper_bound = upper_bound.max(frontier.dropped);
    }
    // A closed search that never met a point of the spec proved it empty.
    if status == MilpStatus::Optimal && best.is_none() {
        status = MilpStatus::Infeasible;
    }
    // Min of two sound upper bounds is sound: a degraded answer must
    // never be looser than the interval fallback it degrades towards.
    // Closed searches are unaffected (the optimum sits below the ceiling).
    upper_bound = upper_bound.min(iv_ceiling);
    if status == MilpStatus::TimeLimit {
        stats.degradation = stats.degradation.merge(Degradation::TimedOut);
    } else if status == MilpStatus::Aborted {
        stats.degradation = stats.degradation.merge(Degradation::IntervalOnly);
    }

    stats.nodes = frontier.nodes;
    stats.elapsed = start.elapsed();
    if let Some(c) = &state.ckpt {
        c.finish(status, || Snapshot {
            incumbent: incumbent.as_ref().map(|(x, v)| (x.as_slice().to_vec(), *v)),
            ..frontier.snapshot()
        });
    }
    let (witness, best_value) = match incumbent {
        Some((x, v)) => (Some(x), Some(v)),
        None => (None, None),
    };
    // Throughput on the *search clock*: nodes per second of bound+branch
    // work summed across workers. Total elapsed would also count encoding
    // and fold time, inflating per-thread comparisons on short runs.
    let nodes_per_sec = if search_nanos > 0 {
        frontier.nodes as f64 / (search_nanos as f64 * 1e-9)
    } else {
        frontier.nodes as f64 / stats.elapsed.as_secs_f64().max(1e-9)
    };

    if certnn_obs::enabled() {
        let m = bab_metrics();
        m.nodes.add(frontier.nodes as u64);
        m.milp_calls.add(milp_calls as u64);
        m.milp_solves.add(milp_calls as u64);
        m.milp_nodes.add(lp_rule_nodes as u64);
        m.lp_skipped.add(stats.lp_skipped as u64);
        m.lp_forced.add(stats.lp_forced as u64);
        certnn_obs::event(
            "bab.done",
            vec![
                ("status", format!("{status:?}").into()),
                ("degradation", stats.degradation.as_str().into()),
                ("nodes", frontier.nodes.into()),
                ("lp_skipped", stats.lp_skipped.into()),
                ("upper_bound", upper_bound.into()),
                ("search_nanos", search_nanos.into()),
                ("threads", threads_used.into()),
            ],
        );
    }
    drop(fold_phase);
    drop(run_span);

    Ok(BabResult {
        status,
        best_value,
        witness,
        upper_bound,
        nodes: stats.nodes,
        threads_used,
        nodes_per_sec,
        stats,
    })
}

/// Body of one search worker: claim nodes, process each under panic
/// isolation, publish outcomes. A panicking node is re-queued (bounded)
/// and the analyzer rebuilt, so one poisoned node costs one attempt, not
/// the worker.
fn worker_loop(
    ctx: &SearchCtx,
    state: &SearchState,
    wid: usize,
) -> Result<WorkerCounters, VerifyError> {
    let _worker_span = certnn_obs::span_child_of("bab.worker", ctx.obs_run_span);
    let mut analyzer = PhaseAnalyzer::new(ctx.net, ctx.spec.bounds())?;
    let mut counters = WorkerCounters::default();
    // Per-worker LP-bounding basis cache: workers never share bases, so
    // the parallel engine stays lock-free.
    let mut lp_warm: Option<Arc<WarmStart>> = None;
    while let Some(node) = state.next_work(ctx, wid) {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if certnn_lp::fault::fire_panic() {
                panic!("injected worker panic");
            }
            process_node(ctx, state, &mut analyzer, &node, &mut counters, &mut lp_warm)
        }));
        match attempt {
            Ok(Ok(outcome)) => state.complete(wid, outcome),
            Ok(Err(e)) => {
                state.fail(wid);
                return Err(e);
            }
            Err(_) => {
                state.panic_complete(wid, node);
                // The analyzer may have been left mid-update; rebuild.
                analyzer = PhaseAnalyzer::new(ctx.net, ctx.spec.bounds())?;
            }
        }
    }
    Ok(counters)
}

/// Processes one claimed node under its rule. Runs without any lock;
/// all cross-worker communication goes through `state`.
fn process_node(
    ctx: &SearchCtx,
    state: &SearchState,
    analyzer: &mut PhaseAnalyzer,
    node: &Node,
    counters: &mut WorkerCounters,
    lp_warm: &mut Option<Arc<WarmStart>>,
) -> Result<NodeOutcome, VerifyError> {
    if node.lp_rule {
        let t0 = Instant::now();
        let outcome = lp_rule_node(ctx, state, node, counters);
        counters.bound_nanos += t0.elapsed().as_nanos() as u64;
        return outcome;
    }
    let opts = ctx.opts;
    // Bound portion of the search clock: symbolic analysis and LP
    // relaxation. The guard accounts on every early return.
    let bound_clock = NanoClock::start(&mut counters.bound_nanos);
    let bound_phase = certnn_obs::phase(certnn_obs::Phase::Bound);
    // Fresh heuristic analysis at the popped node (cheap relative to any
    // LP). This analysis drives everything shape-affecting — branching
    // choice, incumbents, LP bounds, decided phases — so with α tuning
    // off the tree is bit-for-bit today's.
    let analysis = analyzer.analyze(&node.phases, ctx.objective)?;
    if analysis.conflict {
        return Ok(NodeOutcome::default());
    }
    let mut node_bound = analysis.objective_upper.min(node.bound);
    // α refinement: a *second* sound bound from the inherited
    // (ancestor-tuned) slopes, refined by at most `alpha_iters` flips.
    // Only the bound (and a conflict, which proves the region empty)
    // feeds the search — branching stays on the heuristic analysis, so
    // the α pass can only prune subtrees, never reshape them.
    let mut node_alpha = node.alpha.clone();
    if opts.alpha_iters > 0 {
        if let Some(a) = node.alpha.as_deref() {
            let (alpha_an, refined) =
                analyzer.refine_alpha(&node.phases, ctx.objective, a, opts.alpha_iters)?;
            if alpha_an.conflict {
                return Ok(NodeOutcome::default());
            }
            node_bound = node_bound.min(alpha_an.objective_upper);
            node_alpha = Some(Arc::new(refined));
        }
    }
    if node_bound <= state.prune_level(opts.abs_gap) {
        return Ok(NodeOutcome::default());
    }
    let new_val = state.try_incumbent(ctx, &analysis.maximizer);
    if let Some(target) = opts.target_objective {
        if new_val >= target {
            return Ok(NodeOutcome::halt(MilpStatus::TargetReached, node_bound));
        }
    }

    // Collect phase decisions (forced + implied by the node's bounds)
    // for the LP relaxation and the LP rule.
    let decided = decided_phases(ctx, node, &analysis);
    let hand_off = analysis.unstable.len() <= opts.milp_threshold;

    // Basis handed to this node's children: the node's own LP solution
    // when bounding runs, else the inherited ancestor's.
    let mut node_snap = node.warm.clone();

    // LP-skip gate. Two elisions, both sound because the symbolic bound
    // is a valid node bound on its own:
    //
    // * A node handed to the LP rule skips its standalone relaxation —
    //   its LP-rule child solves that same relaxation with the decided
    //   binaries pinned, and prunes on it.
    // * A node whose α-tightened bound already sits at or below the
    //   bound cutoff branches directly: its children's (cheap) symbolic
    //   analyses usually finish the kill. Skipping any earlier — within
    //   some margin above that level — measured worse on the Table II
    //   widths: per-node LP bounds compound down the tree (children
    //   inherit them via `min`), so starving deep subtrees of LP
    //   tightening explodes the node count; see DESIGN.md.
    //
    // The LP always runs while no finite prune level exists: the
    // relaxation is then the main source of bound tightening and
    // incumbents.
    let run_lp = if !opts.lp_skip {
        true
    } else if hand_off {
        counters.stats.lp_skipped += 1;
        false
    } else {
        let pivot = state
            .prune_level(opts.abs_gap)
            .max(opts.bound_cutoff.unwrap_or(f64::NEG_INFINITY));
        let near = pivot.is_finite() && node_bound <= pivot;
        if near {
            counters.stats.lp_skipped += 1;
        } else {
            counters.stats.lp_forced += 1;
        }
        !near
    };

    if run_lp {
        // LP relaxation with node-tightened variable bounds: fix the
        // decided binaries, clamp every pre-activation variable to its
        // phase-propagated interval and shrink the y uppers to match.
        // An empty base ∩ phase-propagated intersection proves the node
        // region infeasible — prune it outright.
        let Some(nb) =
            tighten_node_bounds(ctx.enc, ctx.flat_map, ctx.base_bounds, &analysis, &decided)
        else {
            return Ok(NodeOutcome::default());
        };
        // Warm-start from the node's inherited ancestor basis when one
        // exists: parent and child relaxations differ by one fixed binary
        // plus interval refinements, the ideal dual-simplex re-solve.
        // A last-solved per-worker cache is the fallback for nodes with no
        // ancestor basis — under best-first ordering consecutive pops jump
        // across the tree, so that basis is stale and only used when
        // nothing better is at hand. Both paths are worker-private, so the
        // parallel engine stays lock-free.
        // LP bounding only ever *tightens* the symbolic bound, so a typed
        // numeric failure here (even after `solve_warm`'s own cold rung)
        // degrades gracefully: skip the tightening for this node and keep
        // the sound symbolic bound instead of aborting the search.
        let warm = node.warm.as_deref().or(lp_warm.as_deref());
        let solved = solve_node_lp(ctx, &mut counters.stats, &mut counters.tracker, &nb, warm)?;
        if let Some(ws) = solved {
            if let Some(snap) = ws.warm {
                let snap = Arc::new(snap);
                *lp_warm = Some(snap.clone());
                node_snap = Some(snap);
            }
            let lp = ws.solution;
            match lp.status {
                LpStatus::Infeasible => return Ok(NodeOutcome::default()),
                LpStatus::Optimal => {
                    node_bound = node_bound.min(lp.objective + ctx.objective.constant);
                    // The relaxation's input values are a real point; use it.
                    let input: Vector =
                        ctx.enc.input_vars.iter().map(|v| lp.x[v.index()]).collect();
                    let val = state.try_incumbent(ctx, &input);
                    if let Some(target) = opts.target_objective {
                        if val >= target {
                            return Ok(NodeOutcome::halt(MilpStatus::TargetReached, node_bound));
                        }
                    }
                }
                _ => {}
            }
        }
        if node_bound <= state.prune_level(opts.abs_gap) {
            return Ok(NodeOutcome::default());
        }
    }

    if hand_off {
        // Rule switch: the node goes back into the frontier under the LP
        // rule with every decided phase pinned as a binary.
        counters.milp_calls += 1;
        let mut phases = node.phases.clone();
        for &(flat, v) in &decided {
            phases[flat] = Some(v);
        }
        return Ok(NodeOutcome {
            children: vec![Node {
                phases,
                bound: node_bound,
                depth: node.depth + 1,
                seq: 0,
                retries: 0,
                warm: node_snap,
                alpha: None,
                lp_rule: true,
            }],
            ..NodeOutcome::default()
        });
    }

    // Branch portion of the search clock.
    drop(bound_phase);
    drop(bound_clock);
    let _branch_clock = NanoClock::start(&mut counters.branch_nanos);
    let _branch_phase = certnn_obs::phase(certnn_obs::Phase::Branch);

    // Branch on the unstable neuron with the largest estimated influence
    // on the objective: |∂f/∂activation| at the node's maximizer, times
    // the pre-activation interval width (a BaBSR-style score). Falls back
    // to width alone when all gradients vanish.
    let grad_scores: Option<Vec<Vector>> = ctx
        .net
        .forward_trace(&analysis.maximizer)
        .ok()
        .and_then(|trace| ctx.net.activation_gradients(&trace, ctx.obj_seed).ok());
    let (flat, _) = analysis
        .unstable
        .iter()
        .map(|&(flat, width)| {
            let g = grad_scores
                .as_ref()
                .map(|gs| {
                    let (li, j) = ctx.flat_map[flat];
                    gs[li][j].abs()
                })
                .unwrap_or(0.0);
            (flat, width * (g + 1e-6))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
        .expect("nonempty unstable list");
    let mut outcome = NodeOutcome::default();
    for val in [true, false] {
        let mut phases = node.phases.clone();
        phases[flat] = Some(val);
        // Heuristic evaluation, exactly as with tuning off: the child's
        // stored bound decides frontier order, so keeping it on the
        // heuristic path keeps pop order — and therefore the shape of
        // the surviving tree — independent of α. The child refines the
        // inherited slopes itself when popped.
        let child = analyzer.analyze(&phases, ctx.objective)?;
        if child.conflict {
            continue;
        }
        let child_bound = child.objective_upper.min(node_bound);
        state.try_incumbent(ctx, &child.maximizer);
        if child_bound <= state.prune_level(opts.abs_gap) {
            continue;
        }
        outcome.children.push(Node {
            phases,
            bound: child_bound,
            depth: node.depth + 1,
            // Placeholder: the real sequence number is assigned under the
            // frontier lock when `complete` pushes the child.
            seq: 0,
            retries: 0,
            warm: node_snap.clone(),
            alpha: node_alpha.clone(),
            lp_rule: false,
        });
    }
    Ok(outcome)
}

/// The LP rule at one node: the encoding's LP with the node's binaries
/// pinned, warm from the parent's basis. Prunes on an infeasible LP or a
/// bound at or below the prune level, closes on an integral point (whose
/// input is harvested through the encoder cross-check) and otherwise
/// branches on the most fractional binary.
fn lp_rule_node(
    ctx: &SearchCtx,
    state: &SearchState,
    node: &Node,
    counters: &mut WorkerCounters,
) -> Result<NodeOutcome, VerifyError> {
    let _bound_phase = certnn_obs::phase(certnn_obs::Phase::Bound);
    let opts = ctx.opts;
    counters.lp_rule_nodes += 1;
    let mut bounds = ctx.base_bounds.to_vec();
    for (phase, bin) in node.phases.iter().zip(&ctx.enc.relu_binaries) {
        if let (Some(v), Some(bin)) = (phase, bin) {
            let b = if *v { 1.0 } else { 0.0 };
            bounds[bin.index()] = (b, b);
        }
    }
    let solved = solve_node_lp(
        ctx,
        &mut counters.stats,
        &mut counters.tracker,
        &bounds,
        node.warm.as_deref(),
    )?;
    let Some(ws) = solved else {
        return Ok(NodeOutcome::dropped(node.bound));
    };
    let lp = ws.solution;
    match lp.status {
        LpStatus::Optimal => {}
        LpStatus::Infeasible => return Ok(NodeOutcome::default()),
        LpStatus::Deadline => {
            return Ok(NodeOutcome {
                requeue: Some(node.clone()),
                ..NodeOutcome::default()
            })
        }
        // The encoding is bounded, so this is the iteration cap: the node
        // stays unresolved and keeps its sound bound in the fold.
        _ => {
            counters.stats.degradation =
                counters.stats.degradation.merge(Degradation::IntervalOnly);
            return Ok(NodeOutcome::dropped(node.bound));
        }
    }
    let bound = node.bound.min(lp.objective + ctx.objective.constant);
    if bound <= state.prune_level(opts.abs_gap) {
        return Ok(NodeOutcome::default());
    }

    // Most fractional binary; the first one wins ties. Pinned binaries
    // sit exactly at 0 or 1.
    let mut branch: Option<(usize, f64)> = None;
    for (flat, bin) in ctx.enc.relu_binaries.iter().enumerate() {
        let Some(bin) = bin else { continue };
        let val = lp.x[bin.index()];
        if (val - val.round()).abs() <= INT_TOL {
            continue;
        }
        let score = (val - val.floor() - 0.5).abs();
        if branch.is_none_or(|(_, best)| score < best) {
            branch = Some((flat, score));
        }
    }
    let val = match branch {
        None => harvest_milp_point(ctx, state, &lp.x, lp.objective)?,
        Some(_) => {
            let input: Vector = ctx.enc.input_vars.iter().map(|v| lp.x[v.index()]).collect();
            state.try_incumbent(ctx, &input)
        }
    };
    if let Some(target) = opts.target_objective {
        if val >= target {
            return Ok(NodeOutcome::halt(MilpStatus::TargetReached, bound));
        }
    }
    let Some((flat, _)) = branch else {
        return Ok(NodeOutcome::default());
    };
    let warm = ws.warm.map(Arc::new).or_else(|| node.warm.clone());
    let children = [false, true]
        .into_iter()
        .map(|v| {
            let mut phases = node.phases.clone();
            phases[flat] = Some(v);
            Node {
                phases,
                bound,
                depth: node.depth + 1,
                seq: 0,
                retries: 0,
                warm: warm.clone(),
                alpha: None,
                lp_rule: true,
            }
        })
        .collect();
    Ok(NodeOutcome {
        children,
        ..NodeOutcome::default()
    })
}

/// Solves the relaxation of `ctx.obj_model` under `bounds`: with warm
/// starts on, warm from `warm` or cold with a snapshot when no basis is at
/// hand; with them off, cold without one. Books the solve's warm/cold
/// split and pivots into `stats` (and `tracker`, for `pivots_saved`), and
/// tags an error-driven cold fallback. A typed numeric failure that even
/// `solve_warm`'s cold rung could not absorb yields `None`, tagged
/// [`Degradation::IntervalOnly`].
fn solve_node_lp(
    ctx: &SearchCtx,
    stats: &mut VerifyStats,
    tracker: &mut WarmTracker,
    bounds: &[(f64, f64)],
    warm: Option<&WarmStart>,
) -> Result<Option<WarmSolve>, VerifyError> {
    let lp = ctx.obj_model.relaxation();
    let attempt = if ctx.opts.warm_start {
        ctx.simplex.solve_warm(lp, bounds, warm)
    } else {
        ctx.simplex
            .solve_with_bounds(lp, bounds)
            .map(WarmSolve::from)
    };
    match attempt {
        Ok(ws) => {
            let pivots = ws.solution.iterations;
            if ws.warm_used {
                stats.warm_solves += 1;
                tracker.record_warm(pivots);
            } else {
                stats.cold_solves += 1;
                tracker.record_cold(pivots);
            }
            if ws.fallback.is_some() {
                stats.degradation = stats.degradation.merge(Degradation::ColdFallback);
            }
            stats.lp_iterations += pivots;
            Ok(Some(ws))
        }
        Err(LpError::Solve(_)) => {
            stats.degradation = stats.degradation.merge(Degradation::IntervalOnly);
            Ok(None)
        }
        Err(e) => Err(e.into()),
    }
}

/// Builds the LP relaxation's node-tightened variable bounds: every
/// pre-activation clamped to base ∩ phase-propagated interval (both
/// sides already widened by 1e-6), every unstable post-activation's
/// upper shrunk to match, and every decided binary fixed.
///
/// Returns `None` when some pre-activation's intersection is empty: the
/// node's phase region admits no point consistent with the encoding's
/// base bounds, so the node is infeasible and can be pruned. (Both
/// operands carry the 1e-6 widening, so a genuine feasible region can
/// never produce an empty intersection through round-off.)
fn tighten_node_bounds(
    enc: &Encoding,
    flat_map: &[(usize, usize)],
    base: &[(f64, f64)],
    analysis: &PhasedAnalysis,
    decided: &[(usize, bool)],
) -> Option<Vec<(f64, f64)>> {
    let mut nb = base.to_vec();
    for (li, zl) in enc.z_vars.iter().enumerate() {
        for (j, zv) in zl.iter().enumerate() {
            let iv = analysis.bounds.pre[li][j].widened(1e-6);
            let (blo, bhi) = nb[zv.index()];
            let (lo, hi) = (blo.max(iv.lo()), bhi.min(iv.hi()));
            if lo > hi {
                return None;
            }
            nb[zv.index()] = (lo, hi);
        }
    }
    for (flat, yv) in enc.y_vars.iter().enumerate() {
        let Some(yv) = yv else { continue };
        // Flat -> (layer, neuron) via the prefix sums in flat_map.
        let (li, j) = flat_map[flat];
        let hi = analysis.bounds.pre[li][j].hi().max(0.0) + 1e-6;
        let (blo, bhi) = nb[yv.index()];
        nb[yv.index()] = (blo, bhi.min(hi));
    }
    for &(flat, v) in decided {
        if let Some(bin) = enc.relu_binaries[flat] {
            let b = if v { 1.0 } else { 0.0 };
            nb[bin.index()] = (b, b);
        }
    }
    Some(nb)
}

/// `true` if `x` satisfies every linear constraint of `spec`, within the
/// tolerance witnesses are checked at. Always `true` for a box.
fn satisfies_constraints(spec: &InputSpec, x: &Vector) -> bool {
    spec.constraints().iter().all(|c| c.satisfied_by(x, 1e-6))
}

/// Offers the input of an LP-rule node's integral point `x` as an
/// incumbent, with [`SearchState::try_incumbent`]'s return value. The
/// encoding is exact, so the network must reproduce the LP's `claimed`
/// (constant-free) objective there; a disagreement is an encoder bug,
/// reported as [`VerifyError::CounterexampleMismatch`] instead of a
/// result.
fn harvest_milp_point(
    ctx: &SearchCtx,
    state: &SearchState,
    x: &[f64],
    claimed: f64,
) -> Result<f64, VerifyError> {
    let input: Vector = ctx.enc.input_vars.iter().map(|v| x[v.index()]).collect();
    let recomputed = ctx.objective.eval(&ctx.net.forward(&input)?);
    let claimed = claimed + ctx.objective.constant;
    if (recomputed - claimed).abs() > 1e-4 {
        return Err(VerifyError::CounterexampleMismatch {
            claimed,
            recomputed,
        });
    }
    Ok(state.try_incumbent(ctx, &input))
}

/// Phase decisions at a node: explicitly forced by the node plus those
/// implied by its propagated bounds, restricted to neurons that still
/// carry a binary in the encoding.
fn decided_phases(ctx: &SearchCtx, node: &Node, analysis: &PhasedAnalysis) -> Vec<(usize, bool)> {
    let mut decided: Vec<(usize, bool)> = Vec::new();
    let mut relu_cursor = 0usize;
    for (li, layer) in ctx.net.layers().iter().enumerate() {
        if layer.activation() != certnn_nn::activation::Activation::Relu {
            continue;
        }
        for j in 0..layer.outputs() {
            let flat = relu_cursor;
            relu_cursor += 1;
            if ctx.enc.relu_binaries[flat].is_none() {
                continue;
            }
            let iv = analysis.bounds.pre[li][j];
            let implied = if iv.is_nonnegative() {
                Some(true)
            } else if iv.is_nonpositive() {
                Some(false)
            } else {
                None
            };
            if let Some(v) = node.phases[flat].or(implied) {
                decided.push((flat, v));
            }
        }
    }
    decided
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Interval;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_spec(n: usize) -> InputSpec {
        InputSpec::from_box(vec![Interval::new(-1.0, 1.0); n]).unwrap()
    }

    #[test]
    fn tracker_estimates_savings_against_cold_average() {
        let mut t = WarmTracker::default();
        t.record_warm(5); // no cold mean yet: saves nothing
        t.record_cold(100);
        t.record_cold(50); // mean 75
        t.record_warm(5); // saves 70
        t.record_warm(200); // clamped to 0
        assert_eq!(t.pivots_saved(), 70);
    }

    #[test]
    fn empty_z_bound_intersection_prunes_instead_of_widening() {
        // Regression: when a node's propagated z-bounds are disjoint from
        // the encoding's base bounds the region is provably empty — the
        // old code silently widened to the phase interval and kept
        // solving an LP over a region that does not exist.
        use crate::encoder::{encode, BoundMethod};
        use certnn_milp::VarId;
        let net = Network::relu_mlp(2, &[4], 1, 7).unwrap();
        let spec = unit_spec(2);
        let enc = encode(&net, &spec, BoundMethod::Symbolic).unwrap();
        let base: Vec<(f64, f64)> = (0..enc.milp.num_vars())
            .map(|i| enc.milp.bounds(VarId::from_index(i)))
            .collect();
        let flat_map: Vec<(usize, usize)> = net
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.activation() == certnn_nn::activation::Activation::Relu)
            .flat_map(|(li, l)| (0..l.outputs()).map(move |j| (li, j)))
            .collect();
        let obj = LinearObjective::output(0);
        let mut analysis =
            crate::bounds::analyze_with_phases(&net, spec.bounds(), &[], &obj).unwrap();

        // Consistent bounds tighten without pruning.
        let nb = tighten_node_bounds(&enc, &flat_map, &base, &analysis, &[]);
        assert!(nb.is_some(), "consistent bounds must not prune");

        // Force a z interval disjoint from the base bounds: the node
        // region is empty and the intersection must report it.
        analysis.bounds.pre[0][0] = Interval::new(1.0e6, 1.0e6 + 1.0);
        assert!(
            tighten_node_bounds(&enc, &flat_map, &base, &analysis, &[]).is_none(),
            "disjoint z-bounds prove infeasibility; widening is unsound speed loss"
        );
    }

    #[test]
    fn bab_matches_pure_milp_on_small_networks() {
        use crate::verifier::{Verifier, VerifierOptions};
        for seed in [5u64, 9, 21] {
            let net = Network::relu_mlp(3, &[8, 8], 2, seed).unwrap();
            let spec = unit_spec(3);
            let obj = LinearObjective::output(0);
            let milp_ref = Verifier::with_options(VerifierOptions {
                engine: crate::verifier::Engine::Milp,
                ..VerifierOptions::default()
            })
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
            let bab = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
            assert_eq!(bab.status, MilpStatus::Optimal);
            let got = bab.best_value.unwrap();
            assert!(
                (got - milp_ref).abs() < 1e-5,
                "seed {seed}: bab {got} vs milp {milp_ref}"
            );
            assert!(bab.upper_bound >= got - 1e-9);
        }
    }

    #[test]
    fn bab_witness_is_genuine_and_dominates_sampling() {
        let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
        let spec = unit_spec(4);
        let obj = LinearObjective::output(0);
        let r = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
        assert_eq!(r.status, MilpStatus::Optimal);
        let max = r.best_value.unwrap();
        let w = r.witness.unwrap();
        assert!((net.forward(&w).unwrap()[0] - max).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..2000 {
            let x: Vector = (0..4).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            assert!(net.forward(&x).unwrap()[0] <= max + 1e-6);
        }
    }

    #[test]
    fn parallel_workers_agree_with_serial() {
        // The tentpole contract: any thread count returns the same
        // optimum within abs_gap and reports its worker count.
        for seed in [3u64, 11] {
            let net = Network::relu_mlp(4, &[10, 10], 1, seed).unwrap();
            let spec = unit_spec(4);
            let obj = LinearObjective::output(0);
            let serial = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
            assert_eq!(serial.threads_used, 1);
            for threads in [2usize, 4] {
                let opts = BabOptions {
                    threads,
                    ..BabOptions::default()
                };
                let par = bab_maximize(&net, &spec, &obj, &opts).unwrap();
                assert_eq!(par.status, MilpStatus::Optimal);
                assert_eq!(par.threads_used, threads);
                assert!(par.nodes_per_sec >= 0.0);
                let (a, b) = (serial.best_value.unwrap(), par.best_value.unwrap());
                assert!(
                    (a - b).abs() <= 2.0 * opts.abs_gap,
                    "seed {seed}, {threads} threads: serial {a} vs parallel {b}"
                );
                assert!(par.upper_bound >= b - 1e-9);
                // Both proven bounds dominate both achieved values.
                assert!(par.upper_bound >= a - 2.0 * opts.abs_gap);
                assert!(serial.upper_bound >= b - 2.0 * opts.abs_gap);
            }
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let net = Network::relu_mlp(3, &[6], 1, 2).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let opts = BabOptions {
            threads: 0,
            ..BabOptions::default()
        };
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_eq!(r.threads_used, resolve_threads(0));
        assert!(r.threads_used >= 1);
    }

    #[test]
    fn bound_cutoff_and_target_short_circuit() {
        let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
        let spec = unit_spec(4);
        let obj = LinearObjective::output(0);
        let exact = bab_maximize(&net, &spec, &obj, &BabOptions::default())
            .unwrap()
            .best_value
            .unwrap();
        // Cutoff far above the max: proven immediately.
        let opts = BabOptions {
            bound_cutoff: Some(exact + 100.0),
            ..BabOptions::default()
        };
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert_eq!(r.status, MilpStatus::BoundCutoff);
        assert!(r.upper_bound < exact + 100.0);
        // Target below the max: a witness is found.
        let opts = BabOptions {
            target_objective: Some(exact - 0.05),
            ..BabOptions::default()
        };
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert_eq!(r.status, MilpStatus::TargetReached);
        assert!(r.best_value.unwrap() >= exact - 0.05);
    }

    /// The paper's big-M encoding solved directly by certnn-milp: the
    /// forward-pass value at the optimal input, `None` for an empty spec.
    fn big_m_max(net: &Network, spec: &InputSpec, obj: &LinearObjective) -> Option<f64> {
        let enc = encode(net, spec, BoundMethod::Symbolic).unwrap();
        let mut milp = enc.milp.clone();
        let terms: Vec<_> = obj
            .terms
            .iter()
            .map(|&(o, c)| (enc.output_vars[o], c))
            .collect();
        milp.set_objective(&terms);
        let x = certnn_milp::BranchAndBound::new().solve(&milp).unwrap().x?;
        let input: Vector = enc.input_vars.iter().map(|v| x[v.index()]).collect();
        Some(obj.eval(&net.forward(&input).unwrap()))
    }

    #[test]
    fn linear_constraints_are_searched_exactly() {
        use crate::property::{LinearConstraint, Relation};
        for (seed, relation, rhs) in [
            (0u64, Relation::Le, 0.5),
            (4, Relation::Ge, 0.3),
            (9, Relation::Le, -0.2),
        ] {
            let net = Network::relu_mlp(3, &[8, 8], 1, seed).unwrap();
            let spec = unit_spec(3).constrain(LinearConstraint {
                terms: vec![(0, 1.0), (1, -0.5), (2, 0.25)],
                relation,
                rhs,
            });
            let obj = LinearObjective::output(0);
            let exact = big_m_max(&net, &spec, &obj).unwrap();
            // Branching down to the leaves, the default hand-off, and the
            // root hand-off (the pure big-M MILP).
            for milp_threshold in [0, BabOptions::default().milp_threshold, usize::MAX] {
                let opts = BabOptions {
                    milp_threshold,
                    ..BabOptions::default()
                };
                let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
                assert_eq!(r.status, MilpStatus::Optimal);
                let got = r.best_value.unwrap();
                assert!(
                    (got - exact).abs() <= opts.abs_gap,
                    "seed {seed}, threshold {milp_threshold}: bab {got} vs big-M {exact}"
                );
                let w = r.witness.unwrap();
                assert!(spec.contains(&w, 1e-6), "witness {w:?} leaves the spec");
                assert!((net.forward(&w).unwrap()[0] - got).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_spec_is_infeasible_and_holds_vacuously() {
        use crate::property::{LinearConstraint, Relation};
        use crate::verifier::{Engine, Verdict, Verifier, VerifierOptions};
        let net = Network::relu_mlp(2, &[8, 8], 1, 0).unwrap();
        // x0 + x1 ≥ 3 has no point in the unit box.
        let spec = unit_spec(2).constrain(LinearConstraint {
            terms: vec![(0, 1.0), (1, 1.0)],
            relation: Relation::Ge,
            rhs: 3.0,
        });
        let obj = LinearObjective::output(0);
        assert_eq!(big_m_max(&net, &spec, &obj), None);
        let r = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
        assert_eq!(r.status, MilpStatus::Infeasible);
        assert_eq!(r.upper_bound, f64::NEG_INFINITY);
        assert!(r.witness.is_none() && r.best_value.is_none());
        for engine in [Engine::Auto, Engine::HybridBab, Engine::Milp] {
            let v = Verifier::with_options(VerifierOptions {
                engine,
                ..VerifierOptions::default()
            });
            let m = v.maximize(&net, &spec, &obj).unwrap();
            assert_eq!(m.status, MilpStatus::Infeasible, "{engine:?}");
            assert_eq!(m.upper_bound, f64::NEG_INFINITY, "{engine:?}");
            let (verdict, _) = v.prove_below(&net, &spec, &obj, 0.0).unwrap();
            assert_eq!(
                verdict,
                Verdict::Holds {
                    bound: f64::NEG_INFINITY
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn degenerate_box_features_are_handled() {
        // Pinned features (degenerate intervals) are common in scenario
        // specs; the maximizer must respect them.
        let net = Network::relu_mlp(3, &[6], 1, 8).unwrap();
        let spec = InputSpec::from_box(vec![
            Interval::new(-1.0, 1.0),
            Interval::point(0.25),
            Interval::new(0.0, 0.5),
        ])
        .unwrap();
        let obj = LinearObjective::output(0);
        let r = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
        assert_eq!(r.status, MilpStatus::Optimal);
        let w = r.witness.unwrap();
        assert!((w[1] - 0.25).abs() < 1e-12);
        assert!(spec.contains(&w, 1e-9));
    }

    #[test]
    fn time_limit_reports_sound_bound() {
        let net = Network::relu_mlp(8, &[16, 16, 16], 1, 2).unwrap();
        let spec = unit_spec(8);
        let obj = LinearObjective::output(0);
        for threads in [1usize, 3] {
            let opts = BabOptions {
                time_limit: Some(Duration::from_millis(50)),
                threads,
                ..BabOptions::default()
            };
            let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
            // Whatever happened, the bound must dominate any sample.
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..500 {
                let x: Vector = (0..8).map(|_| rng.gen_range(-1.0..=1.0)).collect();
                assert!(net.forward(&x).unwrap()[0] <= r.upper_bound + 1e-6);
            }
            if let Some(v) = r.best_value {
                assert!(v <= r.upper_bound + 1e-6);
            }
        }
    }
}
