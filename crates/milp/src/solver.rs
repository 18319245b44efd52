//! Best-bound-first branch-and-bound.

use crate::model::MilpModel;
use crate::MilpError;
use certnn_lp::{
    Deadline, Degradation, LpError, LpModel, LpStatus, Sense, Simplex, VarId, WarmSolve,
    WarmStart,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cached `milp.*` observability counters (node lifecycle). Hot-loop
/// totals are kept in plain locals and flushed in one bulk add per solve.
struct MilpMetrics {
    solves: certnn_obs::Counter,
    nodes: certnn_obs::Counter,
    incumbent_updates: certnn_obs::Counter,
    dropped_subtrees: certnn_obs::Counter,
}

fn milp_metrics() -> &'static MilpMetrics {
    static M: OnceLock<MilpMetrics> = OnceLock::new();
    M.get_or_init(|| MilpMetrics {
        solves: certnn_obs::counter("milp.solves"),
        nodes: certnn_obs::counter("milp.nodes"),
        incumbent_updates: certnn_obs::counter("milp.incumbent_updates"),
        dropped_subtrees: certnn_obs::counter("milp.dropped_subtrees"),
    })
}

/// Relative optimality gap (fraction of the incumbent) at which the
/// search stops, next to [`MilpOptions::abs_gap`].
const REL_GAP: f64 = 1e-6;

/// Integrality tolerance: an integer variable within this distance of an
/// integer counts as integral.
pub const INT_TOL: f64 = 1e-6;

/// Tuning knobs and termination criteria for [`BranchAndBound`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Wall-clock limit; `None` means unlimited. Expiry is observed at
    /// pivot granularity and yields [`MilpStatus::TimeLimit`] with a sound
    /// `best_bound` tagged [`Degradation::TimedOut`].
    pub time_limit: Option<Duration>,
    /// Explored-node limit; `None` means unlimited.
    pub node_limit: Option<usize>,
    /// Absolute optimality gap at which the search stops.
    pub abs_gap: f64,
    /// Warm-start each node's LP from its parent's optimal basis (dual
    /// simplex re-solve), falling back to a cold solve on singular or
    /// stale bases. Identical verdicts, fewer pivots.
    pub warm_start: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            time_limit: None,
            node_limit: None,
            abs_gap: 1e-6,
            warm_start: true,
        }
    }
}

/// Termination status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MilpStatus {
    /// Optimality proven within the configured gap.
    Optimal,
    /// No feasible assignment exists.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// Stopped at the wall-clock limit.
    TimeLimit,
    /// Stopped at the node limit.
    NodeLimit,
    /// Stopped because an incumbent reached the search's target
    /// objective (the neuron branch-and-bound's decision fast path).
    TargetReached,
    /// Stopped because the global bound crossed the search's bound
    /// cutoff (the neuron branch-and-bound's decision fast path).
    BoundCutoff,
    /// The search could not run to a verdict: subtrees were dropped on
    /// unrecoverable numeric failures (or every worker died, in the
    /// parallel neuron search) and their bounds were folded conservatively
    /// instead of explored. `best_bound` is still sound.
    Aborted,
}

impl std::fmt::Display for MilpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MilpStatus::Optimal => "optimal",
            MilpStatus::Infeasible => "infeasible",
            MilpStatus::Unbounded => "unbounded",
            MilpStatus::TimeLimit => "time limit",
            MilpStatus::NodeLimit => "node limit",
            MilpStatus::TargetReached => "target reached",
            MilpStatus::BoundCutoff => "bound cutoff",
            MilpStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// Warm-start accounting for one branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MilpStats {
    /// LP solves that started from a parent basis and stayed on the
    /// incremental dual-simplex path.
    pub warm_solves: usize,
    /// LP solves that ran the cold two-phase algorithm (root solves,
    /// warm-start disabled, or fallbacks after a stale/singular basis).
    pub cold_solves: usize,
    /// Estimated pivots avoided by warm-starting: for every warm solve,
    /// the running mean pivot count of the cold solves in the same run
    /// minus the warm solve's own pivots (clamped at zero). An estimate —
    /// the true counterfactual would require re-solving every node cold.
    pub pivots_saved: usize,
}

/// Running warm/cold accounting that produces a [`MilpStats`].
///
/// `pivots_saved` uses the running mean of cold-solve pivot counts as the
/// counterfactual cost of each warm solve; the root of every tree is cold,
/// so the mean is always defined by the time a warm solve happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmTracker {
    cold_pivots: usize,
    warm_pivots: usize,
    cold_solves: usize,
    warm_solves: usize,
    saved: f64,
}

impl WarmTracker {
    /// Records a cold solve that took `pivots` simplex iterations.
    pub fn record_cold(&mut self, pivots: usize) {
        self.cold_solves += 1;
        self.cold_pivots += pivots;
    }

    /// Records a warm solve that took `pivots` simplex iterations.
    pub fn record_warm(&mut self, pivots: usize) {
        self.warm_solves += 1;
        self.warm_pivots += pivots;
        if self.cold_solves > 0 {
            let avg = self.cold_pivots as f64 / self.cold_solves as f64;
            self.saved += (avg - pivots as f64).max(0.0);
        }
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> MilpStats {
        MilpStats {
            warm_solves: self.warm_solves,
            cold_solves: self.cold_solves,
            pivots_saved: self.saved.round() as usize,
        }
    }
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Termination status.
    pub status: MilpStatus,
    /// Best integral solution found, if any (variable values by [`VarId`]).
    pub x: Option<Vec<f64>>,
    /// Objective of the best integral solution, if any, in the model sense.
    pub objective: Option<f64>,
    /// Best proven bound on the optimum (upper bound when maximising,
    /// lower bound when minimising).
    pub best_bound: f64,
    /// Number of branch-and-bound nodes whose LP relaxation was solved.
    pub nodes: usize,
    /// Total simplex pivots across all LP solves.
    pub lp_iterations: usize,
    /// Warm-start accounting (all-cold when warm-starting is disabled).
    pub stats: MilpStats,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Worst degradation encountered anywhere in the search. `Exact`
    /// unless a numeric fault forced a cold or interval fallback, or a
    /// deadline folded unexplored subtrees into the bound.
    pub degradation: Degradation,
}

/// A best-bound-first branch-and-bound MILP solver with most-fractional
/// branching.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound {
    opts: MilpOptions,
}

/// Open node: bounds override plus the parent's LP bound (score space).
struct Node {
    bounds: Vec<(f64, f64)>,
    score_bound: f64,
    depth: usize,
    /// Optimal basis of the nearest solved ancestor, shared across
    /// siblings; `None` at the root or when no snapshot was available.
    warm: Option<Arc<WarmStart>>,
}

/// Max-heap ordering on the score bound (ties: deeper first, to dive).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.score_bound == other.score_bound && self.depth == other.depth
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
        self.score_bound
            .partial_cmp(&other.score_bound)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
    }
}

impl BranchAndBound {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit options.
    pub fn with_options(opts: MilpOptions) -> Self {
        Self { opts }
    }

    /// Solves the model.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError`] if the model is malformed (NaN data, inverted
    /// bounds).
    pub fn solve(&self, model: &MilpModel) -> Result<MilpSolution, MilpError> {
        let start = Instant::now();
        let _obs_span = certnn_obs::span("milp.solve");
        let mut obs_incumbents = 0u64;
        let mut obs_dropped = 0u64;
        let sense_sign = match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let int_vars: Vec<VarId> = model.integer_vars();
        // The simplex polls the time limit between pivot batches, so even
        // a single huge LP cannot overshoot it by more than one batch.
        let deadline = Deadline::none().tighten(self.opts.time_limit);
        let simplex = Simplex::new().with_deadline(deadline.clone());
        let lp = model.relaxation();

        let root_bounds: Vec<(f64, f64)> =
            (0..model.num_vars()).map(|i| model.bounds(VarId::from_index(i))).collect();

        let mut nodes_explored = 0usize;
        let mut lp_iterations = 0usize;
        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, score)
        let best_known =
            |inc: &Option<(Vec<f64>, f64)>| -> Option<f64> { inc.as_ref().map(|(_, s)| *s) };
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bounds: root_bounds,
            score_bound: f64::INFINITY,
            depth: 0,
            warm: None,
        });
        let mut tracker = WarmTracker::default();
        let mut global_bound = f64::INFINITY; // score space
        let mut status = MilpStatus::Optimal;
        let mut degradation = Degradation::Exact;
        // Best (score-space) bound over every subtree that was *dropped*
        // rather than explored — pivot-limited nodes and nodes whose LP
        // failed numerically even after a cold retry. Folded into the
        // reported bound at the end so it stays sound.
        let mut dropped_bound = f64::NEG_INFINITY;

        'search: while let Some(node) = heap.pop() {
            // Best-first: the popped node carries the best remaining bound.
            global_bound = node.score_bound;
            if let Some(inc_score) = best_known(&incumbent) {
                if global_bound <= inc_score + self.opts.abs_gap
                    || global_bound <= inc_score + REL_GAP * inc_score.abs()
                {
                    status = MilpStatus::Optimal;
                    global_bound = inc_score;
                    break 'search;
                }
            }
            if deadline.expired() {
                // Best-first order makes the popped node's bound dominate
                // everything left on the heap, so breaking here is sound.
                status = MilpStatus::TimeLimit;
                degradation = degradation.merge(Degradation::TimedOut);
                break 'search;
            }
            if let Some(limit) = self.opts.node_limit {
                if nodes_explored >= limit {
                    status = MilpStatus::NodeLimit;
                    break 'search;
                }
            }

            // Warm-start from the nearest solved ancestor's basis when
            // enabled and available; `solve_warm` itself falls back to a
            // cold run on a stale or singular snapshot.
            let attempt = if self.opts.warm_start {
                simplex.solve_warm(lp, &node.bounds, node.warm.as_deref())
            } else {
                simplex
                    .solve_with_bounds(lp, &node.bounds)
                    .map(WarmSolve::from)
            };
            // Retry ladder: warm → cold happens inside `solve_warm` (the
            // cause, if any, lands in `ws.fallback`); a typed solve error
            // escaping that gets one cold retry from scratch; a second
            // failure drops the node and folds a sound interval bound on
            // its subtree into `dropped_bound` instead of crashing the
            // whole search.
            let ws = match attempt {
                Ok(ws) => {
                    if ws.fallback.is_some() {
                        degradation = degradation.merge(Degradation::ColdFallback);
                    }
                    ws
                }
                Err(LpError::Solve(_)) => match simplex.solve_warm(lp, &node.bounds, None) {
                    Ok(ws) => {
                        degradation = degradation.merge(Degradation::ColdFallback);
                        ws
                    }
                    Err(LpError::Solve(_)) => {
                        let fb = interval_score_bound(lp, &node.bounds, sense_sign)
                            .min(node.score_bound);
                        dropped_bound = dropped_bound.max(fb);
                        degradation = degradation.merge(Degradation::IntervalOnly);
                        obs_dropped += 1;
                        nodes_explored += 1;
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                },
                Err(e) => return Err(e.into()),
            };
            if ws.warm_used {
                tracker.record_warm(ws.solution.iterations);
            } else {
                tracker.record_cold(ws.solution.iterations);
            }
            let snapshot = ws.warm.map(Arc::new);
            let sol = ws.solution;
            nodes_explored += 1;
            lp_iterations += sol.iterations;
            match sol.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => {
                    if node.depth == 0 {
                        status = MilpStatus::Unbounded;
                        global_bound = f64::INFINITY;
                        break 'search;
                    }
                    continue;
                }
                LpStatus::IterationLimit => {
                    // Unresolved node: its subtree optimum is still capped
                    // by the parent bound, so fold that in rather than
                    // silently forgetting the subtree.
                    dropped_bound = dropped_bound.max(node.score_bound);
                    degradation = degradation.merge(Degradation::IntervalOnly);
                    obs_dropped += 1;
                    continue;
                }
                LpStatus::Deadline => {
                    // Pivot-level expiry inside the LP; the popped node's
                    // bound dominates the heap, so stopping here is sound.
                    dropped_bound = dropped_bound.max(node.score_bound);
                    degradation = degradation.merge(Degradation::TimedOut);
                    obs_dropped += 1;
                    status = MilpStatus::TimeLimit;
                    break 'search;
                }
                LpStatus::Optimal => {}
            }
            let node_score = sense_sign * sol.objective;
            // LP bound can only be <= parent bound (score space).
            let node_score = node_score.min(node.score_bound);

            if let Some(inc_score) = best_known(&incumbent) {
                if node_score <= inc_score + self.opts.abs_gap {
                    continue; // dominated
                }
            }

            // Pick the most fractional variable (score 0 = half-integral).
            let mut branch: Option<(VarId, f64, f64)> = None; // (var, value, score: smaller=better)
            for &v in &int_vars {
                let val = sol.x[v.index()];
                let frac = (val - val.round()).abs();
                if frac <= INT_TOL {
                    continue;
                }
                let score = (val - val.floor() - 0.5).abs();
                match branch {
                    Some((_, _, best)) if score >= best => {}
                    _ => branch = Some((v, val, score)),
                }
            }

            match branch {
                None => {
                    // Integral: candidate incumbent.
                    if update_incumbent(&mut incumbent, sol.x.clone(), node_score) {
                        obs_incumbents += 1;
                    }
                }
                Some((v, val, _)) => {
                    let (lo, hi) = node.bounds[v.index()];
                    let down = val.floor();
                    let up = val.ceil();
                    // Children inherit this node's basis; when no snapshot
                    // exists (e.g. the LP needed artificials) the nearest
                    // solved ancestor's basis is still better than nothing.
                    let child_warm = snapshot.clone().or_else(|| node.warm.clone());
                    if down >= lo - INT_TOL {
                        let mut b = node.bounds.clone();
                        b[v.index()] = (lo, down.min(hi));
                        heap.push(Node {
                            bounds: b,
                            score_bound: node_score,
                            depth: node.depth + 1,
                            warm: child_warm.clone(),
                        });
                    }
                    if up <= hi + INT_TOL {
                        let mut b = node.bounds.clone();
                        b[v.index()] = (up.max(lo), hi);
                        heap.push(Node {
                            bounds: b,
                            score_bound: node_score,
                            depth: node.depth + 1,
                            warm: child_warm,
                        });
                    }
                }
            }
        }

        if heap.is_empty() && status == MilpStatus::Optimal {
            // Search exhausted: the incumbent is optimal.
            global_bound = match best_known(&incumbent) {
                Some(s) => s,
                None => {
                    status = MilpStatus::Infeasible;
                    f64::NEG_INFINITY
                }
            };
        }

        // Fold dropped subtrees back into the verdict. If the folded bound
        // re-opens a gap the status claimed was closed — or contradicts an
        // Infeasible claim — the verdict honestly degrades to `Aborted`
        // with the (still sound) folded bound.
        if dropped_bound > f64::NEG_INFINITY {
            match status {
                MilpStatus::Infeasible => {
                    // Dropped subtrees may contain feasible points.
                    status = MilpStatus::Aborted;
                    global_bound = global_bound.max(dropped_bound);
                }
                MilpStatus::Optimal if dropped_bound > global_bound => {
                    global_bound = dropped_bound;
                    let closed = best_known(&incumbent).is_some_and(|inc| {
                        global_bound <= inc + self.opts.abs_gap
                            || global_bound <= inc + REL_GAP * inc.abs()
                    });
                    if !closed {
                        status = MilpStatus::Aborted;
                    }
                }
                _ => global_bound = global_bound.max(dropped_bound),
            }
        }

        if certnn_obs::enabled() {
            let m = milp_metrics();
            m.solves.inc();
            m.nodes.add(nodes_explored as u64);
            m.incumbent_updates.add(obs_incumbents);
            m.dropped_subtrees.add(obs_dropped);
        }

        let (x, objective) = match incumbent {
            Some((x, score)) => (Some(x), Some(sense_sign * score)),
            None => (None, None),
        };
        Ok(MilpSolution {
            status,
            x,
            objective,
            best_bound: sense_sign * global_bound,
            nodes: nodes_explored,
            lp_iterations,
            stats: tracker.stats(),
            elapsed: start.elapsed(),
            degradation,
        })
    }
}

/// Sound interval (box) bound on the LP objective in score space: every
/// variable sits at whichever of its bounds the sense-corrected objective
/// coefficient prefers, rows ignored. Never tighter than the true LP bound,
/// so it can stand in for a subtree whose LP solve failed.
fn interval_score_bound(lp: &LpModel, bounds: &[(f64, f64)], sense_sign: f64) -> f64 {
    bounds
        .iter()
        .enumerate()
        .map(|(j, &(lo, hi))| {
            let c = sense_sign * lp.objective_coeff(VarId::from_index(j));
            (c * lo).max(c * hi)
        })
        .sum()
}

/// Replaces the incumbent if `score` improves it. Returns `true` on update.
fn update_incumbent(inc: &mut Option<(Vec<f64>, f64)>, x: Vec<f64>, score: f64) -> bool {
    match inc {
        Some((_, s)) if score <= *s => false,
        _ => {
            *inc = Some((x, score));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_lp::RowKind;

    fn knapsack() -> MilpModel {
        let mut m = MilpModel::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        let d = m.add_binary("d");
        m.set_objective(&[(a, 10.0), (b, 13.0), (c, 7.0), (d, 4.0)]);
        m.add_row(
            "cap",
            &[(a, 6.0), (b, 8.0), (c, 5.0), (d, 3.0)],
            RowKind::Le,
            14.0,
        )
        .unwrap();
        m
    }

    #[test]
    fn knapsack_optimum() {
        // Best subset of weights 6,8,5,3 within 14: {a,b} = 23.
        let sol = BranchAndBound::new().solve(&knapsack()).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 23.0).abs() < 1e-6);
        assert!((sol.best_bound - 23.0).abs() < 1e-5);
        let x = sol.x.unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6 && (x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_lp_relaxation_forces_branching() {
        // max x st 2x <= 3, x integer in [0, 5] => LP gives 1.5, MILP 1.
        let mut m = MilpModel::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 5.0);
        m.set_objective(&[(x, 1.0)]);
        m.add_row("r", &[(x, 2.0)], RowKind::Le, 3.0).unwrap();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 1.0).abs() < 1e-6);
        assert!(sol.nodes >= 1);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = MilpModel::new(Sense::Maximize);
        let x = m.add_binary("x");
        m.set_objective(&[(x, 1.0)]);
        m.add_row("lo", &[(x, 1.0)], RowKind::Ge, 2.0).unwrap();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Infeasible);
        assert!(sol.x.is_none() && sol.objective.is_none());
    }

    #[test]
    fn minimize_sense() {
        // min 3a + 2b st a + b >= 1, binaries => b alone = 2.
        let mut m = MilpModel::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective(&[(a, 3.0), (b, 2.0)]);
        m.add_row("cover", &[(a, 1.0), (b, 1.0)], RowKind::Ge, 1.0)
            .unwrap();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // max 2x + y, x continuous in [0, 2.5], y integer in [0, 3],
        // x + y <= 4 => x = 2.5, y = 1 (y must be integral) obj 6.0... check:
        // x=2.5 => y <= 1.5 => y=1, obj 6.0.
        let mut m = MilpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.5);
        let y = m.add_integer("y", 0.0, 3.0);
        m.set_objective(&[(x, 2.0), (y, 1.0)]);
        m.add_row("r", &[(x, 1.0), (y, 1.0)], RowKind::Le, 4.0)
            .unwrap();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 6.0).abs() < 1e-6, "{:?}", sol.objective);
        let xs = sol.x.unwrap();
        assert!((xs[1] - xs[1].round()).abs() < 1e-6);
    }

    #[test]
    fn node_limit_respected() {
        let opts = MilpOptions {
            node_limit: Some(1),
            ..MilpOptions::default()
        };
        let mut m = MilpModel::new(Sense::Maximize);
        // A problem needing several nodes: equal weights force branching.
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(&format!("b{i}"))).collect();
        m.set_objective(&vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>());
        m.add_row(
            "r",
            &vars.iter().map(|&v| (v, 2.0)).collect::<Vec<_>>(),
            RowKind::Le,
            5.0,
        )
        .unwrap();
        let sol = BranchAndBound::with_options(opts).solve(&m).unwrap();
        assert!(sol.nodes <= 2);
    }

    #[test]
    fn pure_lp_without_integers() {
        let mut m = MilpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0);
        m.set_objective(&[(x, 2.0)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn incumbent_is_always_feasible() {
        let m = knapsack();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert!(m.is_feasible(&sol.x.unwrap(), 1e-6));
    }

    #[test]
    fn best_bound_brackets_objective() {
        let sol = BranchAndBound::new().solve(&knapsack()).unwrap();
        // Maximisation: bound >= objective.
        assert!(sol.best_bound >= sol.objective.unwrap() - 1e-6);
    }

    #[test]
    fn warm_and_cold_search_agree_on_knapsack() {
        let m = knapsack();
        let warm = BranchAndBound::new().solve(&m).unwrap();
        let cold = BranchAndBound::with_options(MilpOptions {
            warm_start: false,
            ..MilpOptions::default()
        })
        .solve(&m)
        .unwrap();
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective.unwrap() - cold.objective.unwrap()).abs() < 1e-9);
        assert!((warm.best_bound - cold.best_bound).abs() < 1e-6);
        assert_eq!(cold.stats.warm_solves, 0, "disabled run must be all-cold");
    }

    #[test]
    fn warm_solves_dominate_on_branching_heavy_instance() {
        // Equal weights force deep branching: nearly every node after the
        // root should ride its parent's basis.
        let mut m = MilpModel::new(Sense::Maximize);
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(&format!("b{i}"))).collect();
        m.set_objective(
            &vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 5.0 + (i % 4) as f64 * 0.25))
                .collect::<Vec<_>>(),
        );
        m.add_row(
            "cap",
            &vars.iter().map(|&v| (v, 2.0)).collect::<Vec<_>>(),
            RowKind::Le,
            9.0,
        )
        .unwrap();
        let warm = BranchAndBound::new().solve(&m).unwrap();
        let cold = BranchAndBound::with_options(MilpOptions {
            warm_start: false,
            ..MilpOptions::default()
        })
        .solve(&m)
        .unwrap();
        assert_eq!(warm.status, MilpStatus::Optimal);
        assert!((warm.objective.unwrap() - cold.objective.unwrap()).abs() < 1e-9);
        assert!(
            warm.stats.warm_solves > warm.stats.cold_solves,
            "warm {} vs cold {} solves",
            warm.stats.warm_solves,
            warm.stats.cold_solves
        );
        assert!(
            warm.lp_iterations < cold.lp_iterations,
            "warm tree spent {} pivots, cold tree {}",
            warm.lp_iterations,
            cold.lp_iterations
        );
    }

    #[test]
    fn tracker_estimates_savings_against_cold_average() {
        let mut t = WarmTracker::default();
        t.record_cold(100);
        t.record_cold(50); // mean 75
        t.record_warm(5); // saves 70
        t.record_warm(200); // clamped to 0
        let s = t.stats();
        assert_eq!(s.cold_solves, 2);
        assert_eq!(s.warm_solves, 2);
        assert_eq!(s.pivots_saved, 70);
    }

    #[test]
    fn general_integer_negative_range() {
        // min x^1 st x >= -2.5 over integers in [-5, 5] => -2.
        let mut m = MilpModel::new(Sense::Minimize);
        let x = m.add_integer("x", -5.0, 5.0);
        m.set_objective(&[(x, 1.0)]);
        m.add_row("r", &[(x, 1.0)], RowKind::Ge, -2.5).unwrap();
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() + 2.0).abs() < 1e-6);
    }
}
