//! Verification queries: exact output maximisation and bound proofs.

use crate::bab::{bab_maximize_ckpt, BabOptions};
use crate::bounds::PhaseAnalyzer;
use crate::checkpoint::CheckpointPolicy;
use crate::property::{InputSpec, LinearObjective};
use crate::VerifyError;
use certnn_linalg::Vector;
use certnn_lp::{Deadline, Degradation};
use certnn_milp::MilpStatus;
use certnn_nn::network::Network;
use std::time::Duration;

/// Declares [`VerifyStats`] from one list of its counters. The struct
/// fields, [`VerifyStats::merge`] and the ordered name/value views that
/// every encoder walks (the serve wire and certificate cache, bench JSON)
/// are generated from the same list, so a counter added here reaches all
/// of them. Each counter names how [`VerifyStats::merge`] folds it:
/// `sum` adds, `max` keeps the larger value.
macro_rules! verify_stats {
    ($( $(#[$doc:meta])* $field:ident: $fold:ident, )+) => {
        /// Statistics of one verification run.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct VerifyStats {
            $( $(#[$doc])* pub $field: usize, )+
            /// Wall-clock time of the solve.
            pub elapsed: Duration,
            /// Worst degradation encountered while answering the query:
            /// [`Degradation::Exact`] on a clean run, worse if the search
            /// recovered from numeric faults, worker panics or an expired
            /// deadline. The reported bounds stay sound at every level.
            pub degradation: Degradation,
        }

        impl VerifyStats {
            /// Every counter with its name, in declaration order (the
            /// order of the wire and certificate encodings).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, usize)> {
                [$( (stringify!($field), self.$field), )+].into_iter()
            }

            /// Mutable view of every counter, in the order of
            /// [`VerifyStats::counters`] (used by decoders).
            pub fn counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut usize)> {
                [$( (stringify!($field), &mut self.$field), )+].into_iter()
            }

            /// Folds the statistics of another query into `self`: counts
            /// add, encoding sizes keep their maximum, elapsed times add
            /// and the worst degradation wins.
            pub fn merge(&mut self, other: &VerifyStats) {
                $( verify_stats!(@$fold self.$field, other.$field); )+
                self.elapsed += other.elapsed;
                self.degradation = self.degradation.merge(other.degradation);
            }
        }
    };
    (@sum $a:expr, $b:expr) => { $a += $b };
    (@max $a:expr, $b:expr) => { $a = $a.max($b) };
}

verify_stats! {
    /// Branch-and-bound nodes explored.
    nodes: sum,
    /// Simplex iterations across all LP solves (see
    /// `certnn_lp::LpSolution::iterations`).
    lp_iterations: sum,
    /// Binary variables in the encoding (unstable neurons).
    binaries: max,
    /// Constraint rows in the encoding.
    rows: max,
    /// LP solves that reused a parent basis via the dual simplex.
    warm_solves: sum,
    /// LP solves started from scratch (first node per worker, or a warm
    /// attempt that fell back after basis invalidation).
    cold_solves: sum,
    /// Estimated pivots avoided by warm starts, measured against the
    /// running mean pivot count of the cold solves.
    pivots_saved: sum,
    /// Phase-rule nodes whose LP relaxation the skip gate elided: nodes
    /// handed to the LP rule (a root hand-off counts one), whose LP-rule
    /// child solves that relaxation, and nodes already at or below the
    /// bound cutoff.
    lp_skipped: sum,
    /// Branch-and-bound nodes whose LP relaxation ran while the skip
    /// gate was active.
    lp_forced: sum,
}

impl VerifyStats {
    /// Wall-clock time in nanoseconds, saturating at `u64::MAX` (the
    /// width the binary encodings store).
    pub fn elapsed_nanos(&self) -> u64 {
        self.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Result of a [`Verifier::maximize`] query.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxResult {
    /// Termination status of the search ([`MilpStatus::Infeasible`], with
    /// an upper bound of −∞, when the spec admits no input).
    pub status: MilpStatus,
    /// Proven upper bound on the maximum.
    pub upper_bound: f64,
    /// Best objective value achieved by a real input, if one was found.
    pub best_value: Option<f64>,
    /// An input achieving `best_value` (a genuine forward-pass witness).
    pub witness: Option<Vector>,
    /// Run statistics.
    pub stats: VerifyStats,
}

impl MaxResult {
    /// `true` if the maximum was computed exactly (bound meets witness).
    pub fn is_exact(&self) -> bool {
        self.status == MilpStatus::Optimal
    }

    /// The exact maximum if the query closed, else `None`.
    pub fn exact_max(&self) -> Option<f64> {
        self.is_exact().then_some(self.best_value).flatten()
    }
}

/// Result of a [`Verifier::minimize`] query.
#[derive(Debug, Clone, PartialEq)]
pub struct MinResult {
    /// Termination status of the underlying search.
    pub status: MilpStatus,
    /// Proven lower bound on the minimum.
    pub lower_bound: f64,
    /// Best (smallest) objective value achieved by a real input.
    pub best_value: Option<f64>,
    /// An input achieving `best_value`.
    pub witness: Option<Vector>,
    /// Run statistics.
    pub stats: VerifyStats,
}

impl MinResult {
    /// `true` if the minimum was computed exactly.
    pub fn is_exact(&self) -> bool {
        self.status == MilpStatus::Optimal
    }

    /// The exact minimum if the query closed, else `None`.
    pub fn exact_min(&self) -> Option<f64> {
        self.is_exact().then_some(self.best_value).flatten()
    }
}

/// Verdict of a [`Verifier::prove_below`] query.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The property holds: the objective stays below the threshold on the
    /// whole input set.
    Holds {
        /// Proven upper bound on the objective (≤ threshold).
        bound: f64,
    },
    /// The property is violated and here is a concrete input proving it.
    Violated {
        /// The violating input.
        witness: Vector,
        /// Objective value at the witness (> threshold).
        value: f64,
    },
    /// Resource limits were hit before a decision.
    Unknown {
        /// Best objective value seen on a real input, if any.
        best_seen: Option<f64>,
        /// Best proven upper bound so far.
        upper_bound: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds { .. })
    }
}

/// Most neurons the root's fixed-slope symbolic analysis may leave
/// unstable for [`Engine::Auto`] to hand the whole query to the LP rule
/// at the root. The big-M tree of a root hand-off grows with its
/// binaries. Measured serially on the Table II, fleet and perfbench
/// queries, the hand-off won at 11–22 unstable neurons (up to 12× on
/// Table II I4×6; one 20-epoch I4×4 lost 30 ms), tied or lost 1.4× at
/// 24, and lost 1.5× up to a time-out from 31 up (Table II I4×8 to
/// I4×12).
pub const AUTO_HAND_OFF_UNSTABLE: usize = 23;

/// Most neurons a node of a neuron-branching search may leave unstable
/// before it switches to the LP rule: under [`Engine::HybridBab`], for the
/// queries [`Engine::Auto`] sends to neuron branching, and in
/// [`BabOptions::default`]. The root decision of [`Engine::Auto`] uses
/// [`AUTO_HAND_OFF_UNSTABLE`] instead: nodes below the root solve their LP
/// rule on the encoding's base bounds, so a larger in-search threshold
/// slows the wide queries down.
pub const NODE_HAND_OFF_UNSTABLE: usize = 8;

/// Where the one search engine, the neuron branch-and-bound of
/// [`crate::bab`], switches nodes from phase branching to the big-M
/// MILP's LP rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Pick per query from one fixed-slope symbolic analysis of the root
    /// box: a root that leaves at most [`AUTO_HAND_OFF_UNSTABLE`] neurons
    /// unstable is handed off at once, as under [`Engine::Milp`]; any
    /// other query branches on neurons, as under [`Engine::HybridBab`].
    /// Linear constraints do not enter the count (the analysis sees only
    /// the box). The default.
    #[default]
    Auto,
    /// Neuron branching with symbolic re-propagation and LP bounding per
    /// node; a node switches to the LP rule once at most
    /// [`NODE_HAND_OFF_UNSTABLE`] neurons remain unstable.
    HybridBab,
    /// The pure big-M MILP of Cheng et al. (ATVA 2017): the root node
    /// switches to the LP rule at once, so the whole big-M tree is
    /// searched on the shared frontier.
    Milp,
}

/// Configuration for [`Verifier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifierOptions {
    /// Where the search switches nodes to the LP rule.
    pub engine: Engine,
    /// Wall-clock limit per query; `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Search-node limit per query, counting nodes of both rules;
    /// `None` = unlimited.
    pub node_limit: Option<usize>,
    /// Absolute optimality gap for `maximize`.
    pub abs_gap: f64,
    /// Search workers for the branch-and-bound: `1` keeps the
    /// deterministic serial visit order, `0` uses one worker per
    /// available core (see [`crate::bab::resolve_threads`]).
    pub threads: usize,
    /// Reuse parent LP bases across branch-and-bound nodes via the dual
    /// simplex (verdict-preserving; disable to benchmark the cold path).
    pub warm_start: bool,
    /// Coordinate-descent rounds of the α-optimized bounding layer, per
    /// node and in the MILP encoding presolve. `0` disables tuning,
    /// presolves symbolically and reproduces the fixed-slope heuristic
    /// bit-for-bit (see [`crate::bab::BabOptions::alpha_iters`]).
    pub alpha_iters: usize,
    /// Elide per-node LP relaxations where they are redundant (nodes
    /// handed to the LP rule, nodes below the cutoff; see
    /// [`crate::bab::BabOptions::lp_skip`]).
    pub lp_skip: bool,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        Self {
            engine: Engine::Auto,
            time_limit: None,
            node_limit: None,
            abs_gap: 1e-6,
            threads: 1,
            warm_start: true,
            alpha_iters: crate::bab::DEFAULT_ALPHA_ITERS,
            lp_skip: true,
        }
    }
}

/// MILP-based neural-network verifier (the paper's Table II engine).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    opts: VerifierOptions,
    deadline: Deadline,
    checkpoints: Option<CheckpointPolicy>,
}

impl Verifier {
    /// Creates a verifier with default options (α-tuned presolve, no
    /// resource limits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a verifier with explicit options.
    pub fn with_options(opts: VerifierOptions) -> Self {
        Self {
            opts,
            deadline: Deadline::none(),
            checkpoints: None,
        }
    }

    /// Attaches an ambient [`Deadline`]/cancellation token. Every query
    /// observes it (tightened by [`VerifierOptions::time_limit`]) down to
    /// individual simplex pivot batches; expiry yields a sound partial
    /// answer tagged [`Degradation::TimedOut`] rather than an error.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches a crash-safe checkpoint policy. Every query snapshots its
    /// live branch-and-bound frontier to `policy.dir` on the configured
    /// cadence and flushes a final snapshot when a resource limit stops
    /// the search, so an interrupted query can be resumed (with
    /// `policy.resume`) and finish as if it had never been stopped.
    /// LP-rule nodes are frontier nodes like any other, so the big-M tree
    /// of a root hand-off ([`Engine::Milp`]) is snapshotted mid-solve.
    #[must_use]
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some(policy);
        self
    }

    /// Search options of a query of `net` over `spec`. The engine is read
    /// here and only here: it picks the LP-rule hand-off threshold.
    fn bab_options(&self, net: &Network, spec: &InputSpec) -> Result<BabOptions, VerifyError> {
        let branch = match self.opts.engine {
            Engine::HybridBab => true,
            Engine::Milp => false,
            Engine::Auto => {
                // The unstable set does not depend on the objective.
                let root = PhaseAnalyzer::new(net, spec.bounds())?
                    .analyze(&[], &LinearObjective::combination(Vec::new()))?;
                root.unstable.len() > AUTO_HAND_OFF_UNSTABLE
            }
        };
        Ok(BabOptions {
            time_limit: self.opts.time_limit,
            node_limit: self.opts.node_limit,
            abs_gap: self.opts.abs_gap,
            milp_threshold: if branch {
                NODE_HAND_OFF_UNSTABLE
            } else {
                usize::MAX
            },
            target_objective: None,
            bound_cutoff: None,
            threads: self.opts.threads,
            warm_start: self.opts.warm_start,
            alpha_iters: self.opts.alpha_iters,
            lp_skip: self.opts.lp_skip,
        })
    }

    /// Computes (or bounds) `max f(out(x))` over `spec` (Table II rows 1–6:
    /// "maximum lateral velocity, when exists a vehicle in the left").
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] on malformed inputs, or
    /// [`VerifyError::CounterexampleMismatch`] if the internal soundness
    /// check fails (which would indicate an encoder bug).
    pub fn maximize(
        &self,
        net: &Network,
        spec: &InputSpec,
        objective: &LinearObjective,
    ) -> Result<MaxResult, VerifyError> {
        let r = bab_maximize_ckpt(
            net,
            spec,
            objective,
            &self.bab_options(net, spec)?,
            self.deadline.clone(),
            self.checkpoints.as_ref(),
        )?;
        Ok(MaxResult {
            stats: r.stats,
            status: r.status,
            upper_bound: r.upper_bound,
            best_value: r.best_value,
            witness: r.witness,
        })
    }

    /// Computes (or bounds) `min f(out(x))` over `spec` — the mirror of
    /// [`Verifier::maximize`], implemented by maximising the negated
    /// functional.
    ///
    /// # Errors
    ///
    /// Same as [`Verifier::maximize`].
    pub fn minimize(
        &self,
        net: &Network,
        spec: &InputSpec,
        objective: &LinearObjective,
    ) -> Result<MinResult, VerifyError> {
        let negated = LinearObjective {
            terms: objective.terms.iter().map(|&(i, c)| (i, -c)).collect(),
            constant: -objective.constant,
        };
        let r = self.maximize(net, spec, &negated)?;
        Ok(MinResult {
            status: r.status,
            lower_bound: -r.upper_bound,
            best_value: r.best_value.map(|v| -v),
            witness: r.witness,
            stats: r.stats,
        })
    }

    /// Decides `∀x ∈ spec. f(out(x)) ≤ threshold` (Table II last row:
    /// "prove that the lateral velocity can never be larger than 3 m/s").
    ///
    /// Uses both early-termination paths of the branch-and-bound: the
    /// query stops as soon as *either* a violating input is found *or* the
    /// global bound drops below the threshold — usually far cheaper than
    /// computing the exact maximum. An empty spec holds vacuously, with a
    /// bound of −∞.
    ///
    /// # Errors
    ///
    /// Same as [`Verifier::maximize`].
    pub fn prove_below(
        &self,
        net: &Network,
        spec: &InputSpec,
        objective: &LinearObjective,
        threshold: f64,
    ) -> Result<(Verdict, VerifyStats), VerifyError> {
        let opts = BabOptions {
            target_objective: Some(threshold + 1e-9),
            bound_cutoff: Some(threshold),
            ..self.bab_options(net, spec)?
        };
        let r = bab_maximize_ckpt(
            net,
            spec,
            objective,
            &opts,
            self.deadline.clone(),
            self.checkpoints.as_ref(),
        )?;
        let verdict = match r.status {
            MilpStatus::BoundCutoff => Verdict::Holds {
                bound: r.upper_bound,
            },
            MilpStatus::TargetReached => Verdict::Violated {
                witness: r.witness.expect("target needs witness"),
                value: r.best_value.expect("target needs value"),
            },
            MilpStatus::Optimal | MilpStatus::Infeasible => match (r.witness, r.best_value) {
                (Some(witness), Some(value)) if value > threshold => {
                    Verdict::Violated { witness, value }
                }
                _ => Verdict::Holds {
                    bound: r.upper_bound,
                },
            },
            _ => Verdict::Unknown {
                best_seen: r.best_value,
                upper_bound: r.upper_bound,
            },
        };
        Ok((verdict, r.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{LinearConstraint, Relation};
    use certnn_linalg::Interval;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_spec(n: usize) -> InputSpec {
        InputSpec::from_box(vec![Interval::new(-1.0, 1.0); n]).unwrap()
    }

    #[test]
    fn exact_max_dominates_random_sampling() {
        let net = Network::relu_mlp(3, &[8, 8], 2, 5).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let result = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        assert!(result.is_exact());
        let max = result.exact_max().unwrap();
        // Dense random sampling can approach but never exceed the max.
        let mut rng = StdRng::seed_from_u64(0);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..3000 {
            let x: Vector = (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            best = best.max(net.forward(&x).unwrap()[0]);
        }
        assert!(max >= best - 1e-6, "milp {max} < sampled {best}");
        // The witness achieves the claimed value (checked internally too).
        let w = result.witness.unwrap();
        assert!(spec.contains(&w, 1e-6));
        assert!((net.forward(&w).unwrap()[0] - max).abs() < 1e-6);
    }

    #[test]
    fn fixed_scenario_features_are_respected_by_witness() {
        let net = Network::relu_mlp(4, &[6], 1, 11).unwrap();
        let spec = unit_spec(4).fix(1, 1.0).restrict(2, 0.0, 0.25);
        let obj = LinearObjective::output(0);
        let result = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        let w = result.witness.unwrap();
        assert!((w[1] - 1.0).abs() < 1e-6);
        assert!(w[2] >= -1e-9 && w[2] <= 0.25 + 1e-9);
    }

    #[test]
    fn prove_below_holds_for_generous_threshold() {
        let net = Network::relu_mlp(3, &[6, 6], 1, 13).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let max = Verifier::new()
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        let (verdict, _) = Verifier::new()
            .prove_below(&net, &spec, &obj, max + 1.0)
            .unwrap();
        match verdict {
            Verdict::Holds { bound } => assert!(bound <= max + 1.0 + 1e-6),
            other => panic!("expected Holds, got {other:?}"),
        }
    }

    #[test]
    fn prove_below_finds_violation_for_tight_threshold() {
        let net = Network::relu_mlp(3, &[6, 6], 1, 13).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let max = Verifier::new()
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        let (verdict, _) = Verifier::new()
            .prove_below(&net, &spec, &obj, max - 0.1)
            .unwrap();
        match verdict {
            Verdict::Violated { witness, value } => {
                assert!(value > max - 0.1);
                assert!((net.forward(&witness).unwrap()[0] - value).abs() < 1e-6);
                assert!(spec.contains(&witness, 1e-6));
            }
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn node_limit_yields_unknown_or_decision() {
        let net = Network::relu_mlp(6, &[12, 12], 1, 21).unwrap();
        let spec = unit_spec(6);
        let obj = LinearObjective::output(0);
        let v = Verifier::with_options(VerifierOptions {
            node_limit: Some(1),
            ..VerifierOptions::default()
        });
        // With one node the query usually cannot close unless presolve
        // already decides it; accept any verdict but require consistency.
        let max_ref = Verifier::new()
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        let (verdict, _) = v.prove_below(&net, &spec, &obj, max_ref - 0.05).unwrap();
        match verdict {
            Verdict::Holds { .. } => panic!("threshold below max cannot hold"),
            Verdict::Violated { value, .. } => assert!(value > max_ref - 0.05),
            Verdict::Unknown { upper_bound, .. } => {
                assert!(upper_bound >= max_ref - 1e-6);
            }
        }
    }

    #[test]
    fn objective_combination_and_constant() {
        let net = Network::relu_mlp(2, &[4], 2, 2).unwrap();
        let spec = unit_spec(2);
        let obj = LinearObjective {
            terms: vec![(0, 1.0), (1, -1.0)],
            constant: 10.0,
        };
        let result = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        let max = result.exact_max().unwrap();
        // Constant must be included in both value and bound.
        assert!(max > 5.0, "constant missing: {max}");
        assert!(result.upper_bound >= max - 1e-6);
    }

    #[test]
    fn minimize_mirrors_maximize() {
        let net = Network::relu_mlp(3, &[6, 6], 1, 13).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let min = Verifier::new().minimize(&net, &spec, &obj).unwrap();
        assert!(min.is_exact());
        let lo = min.exact_min().unwrap();
        let hi = Verifier::new()
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        assert!(lo <= hi);
        // The witness achieves the minimum through a real forward pass.
        let w = min.witness.unwrap();
        assert!((net.forward(&w).unwrap()[0] - lo).abs() < 1e-6);
        // And sampling never goes below it.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let x: Vector = (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            assert!(net.forward(&x).unwrap()[0] >= lo - 1e-6);
        }
    }

    #[test]
    fn invalid_objective_rejected() {
        let net = Network::relu_mlp(2, &[4], 1, 2).unwrap();
        let spec = unit_spec(2);
        let obj = LinearObjective::output(5);
        assert!(Verifier::new().maximize(&net, &spec, &obj).is_err());
    }

    #[test]
    fn merge_adds_counts_keeps_max_sizes_and_worst_degradation() {
        let mut m = VerifyStats {
            nodes: 3,
            binaries: 5,
            rows: 9,
            lp_forced: 1,
            elapsed: Duration::from_millis(2),
            degradation: Degradation::ColdFallback,
            ..VerifyStats::default()
        };
        m.merge(&VerifyStats {
            nodes: 4,
            binaries: 7,
            rows: 2,
            lp_forced: 2,
            elapsed: Duration::from_millis(3),
            degradation: Degradation::Exact,
            ..VerifyStats::default()
        });
        assert_eq!((m.nodes, m.binaries, m.rows, m.lp_forced), (7, 7, 9, 3));
        assert_eq!(m.elapsed, Duration::from_millis(5));
        assert_eq!(m.degradation, Degradation::ColdFallback);
        // The names are the bench JSON keys; the order is the wire order.
        let names: Vec<_> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "nodes",
                "lp_iterations",
                "binaries",
                "rows",
                "warm_solves",
                "cold_solves",
                "pivots_saved",
                "lp_skipped",
                "lp_forced",
            ]
        );
    }

    /// `Engine::Auto` routes by the root's unstable count: at most
    /// [`AUTO_HAND_OFF_UNSTABLE`] hands the query off at the root, more
    /// branches on neurons, whatever the input dimension, and linear
    /// constraints follow the same count.
    #[test]
    fn auto_routes_by_the_roots_unstable_count() {
        let root_unstable = |net: &Network, spec: &InputSpec| {
            PhaseAnalyzer::new(net, spec.bounds())
                .unwrap()
                .analyze(&[], &LinearObjective::output(0))
                .unwrap()
                .unstable
                .len()
        };
        let cut = LinearConstraint {
            terms: vec![(0, 1.0), (1, -1.0)],
            relation: Relation::Le,
            rhs: 0.5,
        };
        let auto = Verifier::new();
        let branching = NODE_HAND_OFF_UNSTABLE;
        let cases = [
            (Network::relu_mlp(84, &[10, 10], 1, 7).unwrap(), unit_spec(84)),
            (Network::relu_mlp(84, &[20, 20], 1, 7).unwrap(), unit_spec(84)),
            (Network::relu_mlp(3, &[20, 20], 1, 7).unwrap(), unit_spec(3)),
        ];
        let mut routes = Vec::new();
        for (net, spec) in &cases {
            let unstable = root_unstable(net, spec);
            let want = if unstable <= AUTO_HAND_OFF_UNSTABLE {
                usize::MAX
            } else {
                branching
            };
            let constrained = spec.clone().constrain(cut.clone());
            for spec in [spec, &constrained] {
                let got = auto.bab_options(net, spec).unwrap().milp_threshold;
                assert_eq!(got, want, "{} inputs, {unstable} unstable", spec.num_inputs());
            }
            routes.push((spec.num_inputs(), unstable, want));
        }
        // The cases cover both routes, the 84-input box on each of them.
        assert!(routes[0].1 <= AUTO_HAND_OFF_UNSTABLE, "{routes:?}");
        assert!(routes[1].1 > AUTO_HAND_OFF_UNSTABLE, "{routes:?}");
        assert!(routes[2].1 > AUTO_HAND_OFF_UNSTABLE, "{routes:?}");
        // The explicit engines ignore the count.
        for (engine, want) in [(Engine::HybridBab, branching), (Engine::Milp, usize::MAX)] {
            let v = Verifier::with_options(VerifierOptions {
                engine,
                ..VerifierOptions::default()
            });
            for (net, spec) in &cases {
                assert_eq!(v.bab_options(net, spec).unwrap().milp_threshold, want);
            }
        }
    }

    #[test]
    fn stats_reflect_problem_size() {
        let net = Network::relu_mlp(3, &[10, 10], 1, 31).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let result = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        assert!(result.stats.rows > 0);
        assert!(result.stats.nodes >= 1);
        assert!(result.stats.binaries <= 20);
    }
}
