//! Table II: verifying ANN-based motion predictors.
//!
//! The paper reports, for `I4×N` networks trained on the same data, the
//! maximum lateral velocity when a vehicle exists on the left and the
//! verification wall time, plus one "prove ≤ 3 m/s" decision query:
//!
//! ```text
//! ANN     max lateral velocity    verification time
//! I4x10   0.688497                5.4s
//! I4x20   0.467385                549.1s
//! I4x25   2.10916                 28.2s
//! I4x40   1.95859                 645.9s
//! I4x50   1.72781                 13351.2s
//! I4x60   n.a. (unable to find maximum)   time-out
//! I4x60   prove lateral velocity ≤ 3 m/s  11059.8s
//! ```
//!
//! [`run_table2`] reproduces the experiment end to end on this machine:
//! it generates the synthetic highway data, sanitizes it, trains one
//! predictor per width (same data, different initialisation — the paper's
//! "we have trained a couple of neural networks under the same data"),
//! then runs the optimisation query per width and the decision query on
//! the largest. Absolute times differ from the paper's 12-core VM with a
//! commercial solver; the *shape* (super-linear, non-monotone growth and
//! a cheaper decision query) is the reproduction target.

use certnn_core::run::RunOptions;
use certnn_core::scenario::{left_vehicle_spec, max_lateral_velocity, prove_lateral_below};
use certnn_core::CoreError;
use certnn_datacheck::highway::highway_validator;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::loss::GmmNll;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_sim::features::FEATURE_COUNT;
use certnn_sim::scenario::{generate_dataset, ScenarioConfig};
use certnn_verify::property::InputSpec;
use certnn_verify::verifier::{Verdict, Verifier, VerifyStats};
use certnn_verify::{Deadline, Degradation};
use std::fmt::Write as _;
use std::time::Duration;

/// The paper's reported rows, for side-by-side printing.
pub const PAPER_ROWS: [(&str, Option<f64>, &str); 6] = [
    ("I4x10", Some(0.688497), "5.4s"),
    ("I4x20", Some(0.467385), "549.1s"),
    ("I4x25", Some(2.10916), "28.2s"),
    ("I4x40", Some(1.95859), "645.9s"),
    ("I4x50", Some(1.72781), "13351.2s"),
    ("I4x60", None, "time-out"),
];

/// The paper's decision-query row.
pub const PAPER_PROOF_ROW: (&str, f64, &str) = ("I4x60", 3.0, "11059.8s");

/// Configuration of the Table II reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Config {
    /// Hidden widths to verify (`I4×N` per entry).
    pub widths: Vec<usize>,
    /// Mixture components of the trained predictors.
    pub mixture_components: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Data-generation settings.
    pub scenario: ScenarioConfig,
    /// Threshold of the decision query on the largest network.
    pub proof_threshold: f64,
    /// Base seed; network `i` trains from `seed + i`.
    pub seed: u64,
    /// Run knobs: threads, per-query time limit, solver settings and
    /// checkpoints. The checkpoint policy's `seed` is overridden by
    /// [`Table2Config::seed`] so snapshots are keyed to this run's exact
    /// search tree.
    pub run: RunOptions,
}

impl Default for Table2Config {
    fn default() -> Self {
        Self {
            widths: vec![4, 6, 8, 10, 12, 14],
            mixture_components: 2,
            epochs: 60,
            scenario: ScenarioConfig {
                vehicles: 16,
                episode_seconds: 40.0,
                warmup_seconds: 5.0,
                sample_every: 5,
                seeds: vec![0, 1],
                exclude_risky: false,
                ..ScenarioConfig::default()
            },
            proof_threshold: 3.0,
            seed: 7,
            run: RunOptions::new(Duration::from_secs(150)),
        }
    }
}

impl Table2Config {
    /// A seconds-scale configuration for integration tests.
    pub fn smoke_test() -> Self {
        Self {
            widths: vec![4, 6],
            mixture_components: 1,
            epochs: 5,
            scenario: ScenarioConfig {
                vehicles: 12,
                episode_seconds: 8.0,
                warmup_seconds: 1.0,
                sample_every: 10,
                seeds: vec![1],
                exclude_risky: false,
                ..ScenarioConfig::default()
            },
            proof_threshold: 3.0,
            seed: 1,
            run: RunOptions::new(Duration::from_secs(30)),
        }
    }
}

/// One measured row of the reproduced table.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Architecture label (`I4x10`, …).
    pub label: String,
    /// Verified maximum lateral velocity, `None` if the query hit the
    /// time limit without closing (the paper's "n.a.").
    pub max_lateral: Option<f64>,
    /// Best proven upper bound (meaningful when `max_lateral` is `None`).
    pub upper_bound: f64,
    /// Solve statistics merged over the row's queries: `stats.elapsed` is
    /// the verification wall time, `stats.degradation` is `Exact` on a
    /// clean run (sound fallback bounds otherwise).
    pub stats: VerifyStats,
}

/// The decision-query row of the reproduced table.
#[derive(Debug, Clone)]
pub struct ProofRow {
    /// Architecture label.
    pub label: String,
    /// Threshold proven (or refuted).
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Verification wall time.
    pub time: Duration,
    /// Worst degradation encountered deciding the query.
    pub degradation: Degradation,
}

/// Complete result of the Table II experiment.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One row per width, paper order.
    pub rows: Vec<Table2Row>,
    /// Decision queries ("prove ≤ 3 m/s"): on the largest network whose
    /// optimisation *closed* (showing the decision form is cheaper) and on
    /// the largest network overall (the paper's I4×60 configuration).
    pub proofs: Vec<ProofRow>,
    /// Samples used for training after sanitization.
    pub training_samples: usize,
}

impl Table2Result {
    /// Renders the reproduced table next to the paper's numbers.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE II — results of verifying ANN-based motion predictors"
        );
        let _ = writeln!(
            s,
            "(trained on {} sanitized samples; times are wall-clock on one core)",
            self.training_samples
        );
        let _ = writeln!(
            s,
            "{:<8} {:>26} {:>12} {:>8} {:>10}",
            "ANN", "max lateral velocity", "time", "nodes", "binaries"
        );
        for row in &self.rows {
            let mut measured = match row.max_lateral {
                Some(v) => format!("{v:.6}"),
                None => format!("n.a. (bound {:.4})", row.upper_bound),
            };
            if row.stats.degradation > Degradation::Exact {
                measured.push_str(&format!(" [{}]", row.stats.degradation.as_str()));
            }
            let _ = writeln!(
                s,
                "{:<8} {:>26} {:>11.1?} {:>8} {:>10}",
                row.label, measured, row.stats.elapsed, row.stats.nodes, row.stats.binaries
            );
        }
        for proof in &self.proofs {
            let mut verdict = match &proof.verdict {
                Verdict::Holds { bound } => format!("PROVED (bound {bound:.4})"),
                Verdict::Violated { value, .. } => format!("REFUTED (witness {value:.4})"),
                Verdict::Unknown { upper_bound, .. } => {
                    format!("UNKNOWN (bound {upper_bound:.4})")
                }
            };
            if proof.degradation > Degradation::Exact {
                verdict.push_str(&format!(" [{}]", proof.degradation.as_str()));
            }
            let _ = writeln!(
                s,
                "{:<8} prove lateral velocity ≤ {} m/s: {} in {:.1?}",
                proof.label, proof.threshold, verdict, proof.time
            );
        }
        let _ = writeln!(
            s,
            "\npaper reference (12-core VM, commercial solver; widths scaled here to a\nsingle core and a from-scratch solver — compare the growth shape, not rows):"
        );
        for (label, value, time) in PAPER_ROWS {
            let v = value
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "n.a. (unable to find maximum)".into());
            let _ = writeln!(s, "  {label:<8} {v:>30} {time:>10}");
        }
        let _ = writeln!(
            s,
            "  {:<8} prove ≤ {} m/s {:>31}",
            PAPER_PROOF_ROW.0, PAPER_PROOF_ROW.1, PAPER_PROOF_ROW.2
        );
        s
    }
}

/// Trains and verifies width `i` of the table. Deterministic given the
/// config; independent of every other width.
fn run_width(
    config: &Table2Config,
    i: usize,
    data: &Dataset,
    spec: &InputSpec,
    verifier: &Verifier,
) -> Result<(Table2Row, Network), CoreError> {
    let layout = OutputLayout::new(config.mixture_components);
    let mut net = Network::relu_mlp(
        FEATURE_COUNT,
        &[config.widths[i]; 4],
        layout.output_len(),
        config.seed + i as u64,
    )?;
    let train_cfg = TrainConfig {
        epochs: config.epochs,
        batch_size: 64,
        seed: config.seed + i as u64,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    };
    let loss = GmmNll::new(config.mixture_components);
    Trainer::new(train_cfg).train(&mut net, data, &loss)?;
    eprintln!("[table2] {} trained; verifying...", net.label());

    let result = max_lateral_velocity(verifier, &net, layout, spec)?;
    eprintln!(
        "[table2] {} verified: max {:?} in {:.1?} ({} nodes)",
        net.label(),
        result.max_lateral,
        result.stats.elapsed,
        result.stats.nodes
    );
    let upper = result
        .per_component
        .iter()
        .map(|r| r.upper_bound)
        .fold(f64::NEG_INFINITY, f64::max);
    let row = Table2Row {
        label: net.label(),
        max_lateral: result.max_lateral,
        upper_bound: upper,
        stats: result.stats,
    };
    Ok((row, net))
}

/// Runs the full Table II experiment.
///
/// Per-width queries are independent, so they run on
/// [`RunOptions::run_jobs`] workers; rows land in paper order regardless
/// of completion order. Note that concurrent widths share the machine,
/// so per-row wall times measured at `threads > 1` are only comparable
/// within the same thread count.
///
/// # Errors
///
/// Returns [`CoreError`] if data generation, training or verification
/// fails structurally (time-outs are *results*, not errors).
pub fn run_table2(config: &Table2Config) -> Result<Table2Result, CoreError> {
    run_table2_under(config, Deadline::none())
}

/// [`run_table2`] under an ambient [`Deadline`]/cancellation token,
/// threaded through every width's verifier down to simplex pivot batches
/// (tightened per query by [`RunOptions::time_limit`]). Expired rows
/// report sound partial bounds tagged with their [`Degradation`].
///
/// # Errors
///
/// Same contract as [`run_table2`].
pub fn run_table2_under(
    config: &Table2Config,
    deadline: Deadline,
) -> Result<Table2Result, CoreError> {
    // Shared training data (the paper trains all networks on one dataset).
    let mut raw = generate_dataset(&config.scenario)?;
    highway_validator(1.0).sanitize(&mut raw);
    if raw.is_empty() {
        return Err(CoreError::EmptyDataset);
    }
    let training_samples = raw.len();
    let data = Dataset::from_samples(raw);
    let layout = OutputLayout::new(config.mixture_components);
    let spec = left_vehicle_spec();
    let mut run = config.run.clone();
    if let Some(policy) = &mut run.checkpoints {
        // Key snapshots to this run's seed: a checkpoint only ever meets
        // a search that will walk the identical tree.
        policy.seed = config.seed;
    }
    let verifier = run.verifier(config.widths.len(), deadline);

    let outs = run.run_jobs(config.widths.len(), |i| {
        run_width(config, i, &data, &spec, &verifier)
    });

    let mut rows = Vec::new();
    let mut largest: Option<Network> = None;
    let mut largest_closed: Option<Network> = None;
    for out in outs {
        let (row, net) = out?;
        if row.max_lateral.is_some() {
            largest_closed = Some(net.clone());
        }
        rows.push(row);
        largest = Some(net);
    }

    let mut proofs = Vec::new();
    let largest = largest.expect("at least one width");
    let mut targets: Vec<&Network> = Vec::new();
    if let Some(closed) = &largest_closed {
        if closed.label() != largest.label() {
            targets.push(closed);
        }
    }
    targets.push(&largest);
    for net in targets {
        eprintln!("[table2] decision query on {}...", net.label());
        let (verdict, stats) =
            prove_lateral_below(&verifier, net, layout, &spec, config.proof_threshold)?;
        proofs.push(ProofRow {
            label: net.label(),
            threshold: config.proof_threshold,
            verdict,
            time: stats.elapsed,
            degradation: stats.degradation,
        });
    }

    Ok(Table2Result {
        rows,
        proofs,
        training_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_are_pinned() {
        assert_eq!(PAPER_ROWS.len(), 6);
        assert_eq!(PAPER_ROWS[0].0, "I4x10");
        assert!((PAPER_ROWS[2].1.unwrap() - 2.10916).abs() < 1e-9);
        assert!(PAPER_ROWS[5].1.is_none());
    }

    #[test]
    fn smoke_experiment_produces_full_table() {
        let result = run_table2(&Table2Config::smoke_test()).unwrap();
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            // Tiny networks must close within the limit.
            assert!(row.max_lateral.is_some(), "{} timed out", row.label);
            assert!(row.upper_bound >= row.max_lateral.unwrap() - 1e-6);
            assert!(row.stats.nodes >= 1);
        }
        assert_eq!(result.rows[0].label, "I4x4");
        assert_eq!(result.rows[1].label, "I4x6");
        let table = result.to_table();
        assert!(table.contains("TABLE II"));
        assert!(table.contains("I4x4"));
        assert!(table.contains("prove lateral velocity"));
        assert!(table.contains("paper reference"));
    }
}
