//! Best-bound-first branch-and-bound, cold at every node.

use crate::model::MilpModel;
use certnn_lp::{LpError, LpStatus, Sense, Simplex, VarId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative optimality gap (fraction of the incumbent) at which the
/// search stops, next to [`MilpOptions::abs_gap`].
const REL_GAP: f64 = 1e-6;

/// Integrality tolerance: an integer variable within this distance of an
/// integer counts as integral.
pub const INT_TOL: f64 = 1e-6;

/// Termination criteria for [`BranchAndBound`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Explored-node limit; `None` means unlimited.
    pub node_limit: Option<usize>,
    /// Absolute optimality gap at which the search stops.
    pub abs_gap: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            node_limit: None,
            abs_gap: 1e-6,
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
    /// The search could not run to a verdict: a node LP stopped at the
    /// simplex's iteration cap, or (in the verifier's parallel search)
    /// subtrees were dropped on unrecoverable numeric failures or every
    /// worker died, and their bounds were folded conservatively instead
    /// of explored. `best_bound` is still sound.
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
}

/// A best-bound-first branch-and-bound MILP solver with most-fractional
/// branching. Every node's LP relaxation is solved cold by
/// [`Simplex::solve_with_bounds`]: the solver shares no warm-start or
/// fault-recovery code with the verifier's search, which makes it an
/// independent reference for it.
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
    /// A node LP that stops at the simplex's iteration cap ends the search
    /// [`MilpStatus::Aborted`] at that node's bound, which best-first order
    /// makes a sound bound on the optimum.
    ///
    /// # Errors
    ///
    /// Returns the [`LpError`] of the first node LP that fails: a malformed
    /// model (NaN data, inverted bounds) or a numeric failure during a
    /// solve. A reference does not cover a fault with a weaker bound.
    pub fn solve(&self, model: &MilpModel) -> Result<MilpSolution, LpError> {
        let sense_sign = match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let int_vars: Vec<VarId> = model.integer_vars();
        let simplex = Simplex::new();
        let lp = model.relaxation();

        let root_bounds: Vec<(f64, f64)> =
            (0..model.num_vars()).map(|i| model.bounds(VarId::from_index(i))).collect();

        let mut nodes_explored = 0usize;
        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, score)
        let best_known =
            |inc: &Option<(Vec<f64>, f64)>| -> Option<f64> { inc.as_ref().map(|(_, s)| *s) };
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bounds: root_bounds,
            score_bound: f64::INFINITY,
            depth: 0,
        });
        let mut global_bound = f64::INFINITY; // score space
        let mut status = MilpStatus::Optimal;

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
            if let Some(limit) = self.opts.node_limit {
                if nodes_explored >= limit {
                    status = MilpStatus::NodeLimit;
                    break 'search;
                }
            }

            let sol = simplex.solve_with_bounds(lp, &node.bounds)?;
            nodes_explored += 1;
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
                // The solver carries no deadline, so only the iteration
                // cap stops a node LP short; the popped node's bound still
                // dominates the heap.
                LpStatus::IterationLimit | LpStatus::Deadline => {
                    status = MilpStatus::Aborted;
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
                    if best_known(&incumbent).is_none_or(|s| node_score > s) {
                        incumbent = Some((sol.x, node_score));
                    }
                }
                Some((v, val, _)) => {
                    let (lo, hi) = node.bounds[v.index()];
                    let down = val.floor();
                    let up = val.ceil();
                    if down >= lo - INT_TOL {
                        let mut b = node.bounds.clone();
                        b[v.index()] = (lo, down.min(hi));
                        heap.push(Node {
                            bounds: b,
                            score_bound: node_score,
                            depth: node.depth + 1,
                        });
                    }
                    if up <= hi + INT_TOL {
                        let mut b = node.bounds;
                        b[v.index()] = (up.max(lo), hi);
                        heap.push(Node {
                            bounds: b,
                            score_bound: node_score,
                            depth: node.depth + 1,
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
        })
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
