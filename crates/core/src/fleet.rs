//! The paper's fleet observation: networks trained on the same data do
//! not all satisfy the safety property.
//!
//! "Surprisingly, we have trained a couple of neural networks under the
//! same data, but not all of them can guarantee the safety property."
//! [`run_fleet`] reproduces this: it trains several predictors on one
//! sanitized dataset — differing only in weight initialisation and
//! shuffle order — verifies every one, and reports which satisfy the
//! bound. The lesson is the paper's core argument for formal analysis:
//! clean data alone does not certify the *function* the optimiser found.

use crate::run::RunOptions;
use crate::scenario::{left_vehicle_spec, max_lateral_velocity};
use crate::CoreError;
use certnn_datacheck::highway::highway_validator;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::loss::GmmNll;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_sim::features::FEATURE_COUNT;
use certnn_sim::scenario::{generate_dataset, ScenarioConfig};
use certnn_verify::verifier::{Verifier, VerifyStats};
use certnn_verify::Deadline;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the fleet experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of networks to train (distinct seeds, same data).
    pub fleet_size: usize,
    /// Hidden widths of each network.
    pub hidden: Vec<usize>,
    /// Training epochs per network.
    pub epochs: usize,
    /// The safety bound each network must satisfy (m/s).
    pub bound: f64,
    /// Data-generation settings.
    pub scenario: ScenarioConfig,
    /// Run knobs: threads, per-query time limit, solver settings and
    /// checkpoints.
    pub run: RunOptions,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            fleet_size: 6,
            hidden: vec![10, 10],
            epochs: 60,
            bound: 3.0,
            scenario: ScenarioConfig {
                vehicles: 14,
                episode_seconds: 25.0,
                warmup_seconds: 3.0,
                sample_every: 5,
                seeds: vec![0, 1],
                exclude_risky: false,
                ..ScenarioConfig::default()
            },
            run: RunOptions::new(Duration::from_secs(60)),
        }
    }
}

impl FleetConfig {
    /// Seconds-scale configuration for tests.
    pub fn smoke_test() -> Self {
        Self {
            fleet_size: 3,
            hidden: vec![6, 6],
            epochs: 8,
            bound: 1.5,
            scenario: ScenarioConfig {
                vehicles: 12,
                episode_seconds: 10.0,
                warmup_seconds: 1.0,
                sample_every: 10,
                seeds: vec![1],
                exclude_risky: false,
                ..ScenarioConfig::default()
            },
            run: RunOptions::new(Duration::from_secs(30)),
        }
    }
}

/// One verified network of the fleet.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Initialisation/shuffle seed of this member.
    pub seed: u64,
    /// Final training loss (identical data across members).
    pub final_loss: f64,
    /// Verified maximum lateral velocity, if the query closed.
    pub verified_max: Option<f64>,
    /// Whether this member satisfies the bound (`None` = undecided).
    pub safe: Option<bool>,
    /// Wall-clock seconds to train *and* verify this member.
    pub wall_secs: f64,
    /// Solve statistics merged over this member's verification queries;
    /// `stats.degradation` is `Exact` on a clean run, worse if a numeric
    /// fault, worker panic or deadline forced a (still sound) fallback.
    pub stats: VerifyStats,
}

/// Result of the fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-member outcomes, seed order.
    pub members: Vec<FleetMember>,
    /// The bound used.
    pub bound: f64,
    /// Training samples shared by all members.
    pub samples: usize,
}

impl FleetResult {
    /// Number of members proven safe.
    pub fn safe_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.safe == Some(true))
            .count()
    }

    /// Number of members proven unsafe.
    pub fn unsafe_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.safe == Some(false))
            .count()
    }

    /// Text table of the fleet.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "FLEET — {} networks, same {} samples, bound {} m/s",
            self.members.len(),
            self.samples,
            self.bound
        );
        let _ = writeln!(
            s,
            "{:>6} {:>12} {:>22} {:>8} {:>14}",
            "seed", "final loss", "verified max (m/s)", "safe?", "mode"
        );
        for m in &self.members {
            let v = m
                .verified_max
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "n.a.".into());
            let safe = match m.safe {
                Some(true) => "YES",
                Some(false) => "no",
                None => "?",
            };
            let _ = writeln!(
                s,
                "{:>6} {:>12.4} {:>22} {:>8} {:>14}",
                m.seed,
                m.final_loss,
                v,
                safe,
                m.stats.degradation.as_str()
            );
        }
        let _ = writeln!(
            s,
            "=> {}/{} safe — identical data, different optimisation outcomes",
            self.safe_count(),
            self.members.len()
        );
        s
    }
}

/// Initialisation/shuffle seed of fleet member `index` — the fleet's
/// deterministic seed schedule, shared by every execution path (local
/// threads, the serve daemon) so "member 2" means the same network
/// everywhere.
pub fn member_seed(index: usize) -> u64 {
    100 + index as u64
}

/// Generates and sanitizes the shared training dataset of a fleet run.
/// Returns the dataset plus the raw sample count (after sanitization).
/// Deterministic given the config's scenario seeds.
///
/// # Errors
///
/// [`CoreError::Sim`] on generation failure, [`CoreError::EmptyDataset`]
/// if sanitization leaves nothing to train on.
pub fn fleet_dataset(config: &FleetConfig) -> Result<(Dataset, usize), CoreError> {
    let mut raw = generate_dataset(&config.scenario)?;
    highway_validator(1.0).sanitize(&mut raw);
    if raw.is_empty() {
        return Err(CoreError::EmptyDataset);
    }
    let samples = raw.len();
    Ok((Dataset::from_samples(raw), samples))
}

/// Trains one fleet member's predictor on the shared dataset. Fully
/// deterministic given `seed`: the same (config, seed, data) triple
/// produces bit-identical weights on every machine and execution path,
/// which is what lets a remote verifier answer for a locally trained
/// network.
///
/// # Errors
///
/// [`CoreError::Nn`] on construction or training failure.
pub fn train_member(
    config: &FleetConfig,
    seed: u64,
    data: &Dataset,
) -> Result<(Network, f64), CoreError> {
    let layout = OutputLayout::new(1);
    let loss = GmmNll::new(1);
    let mut net = Network::relu_mlp(FEATURE_COUNT, &config.hidden, layout.output_len(), seed)?;
    let report = Trainer::new(TrainConfig {
        epochs: config.epochs,
        batch_size: 32,
        seed,
        weight_decay: 2e-4,
        ..TrainConfig::default()
    })
    .train(&mut net, data, &loss)?;
    Ok((net, report.final_loss()))
}

/// Trains and verifies one fleet member end to end. Deterministic given
/// `seed`; safe to run concurrently with other members.
fn run_member(
    config: &FleetConfig,
    seed: u64,
    data: &Dataset,
    layout: OutputLayout,
    spec: &certnn_verify::property::InputSpec,
    verifier: &Verifier,
) -> Result<FleetMember, CoreError> {
    let start = Instant::now();
    let (net, final_loss) = train_member(config, seed, data)?;
    let result = max_lateral_velocity(verifier, &net, layout, spec)?;
    let safe = result.max_lateral.map(|v| v <= config.bound);
    Ok(FleetMember {
        seed,
        final_loss,
        verified_max: result.max_lateral,
        safe,
        wall_secs: start.elapsed().as_secs_f64(),
        stats: result.stats,
    })
}

/// Runs the fleet experiment.
///
/// Members are independent (same data, distinct seeds), so they run on
/// [`RunOptions::run_jobs`] workers. Results land in seed order
/// regardless of completion order, and each member's
/// training/verification is fully deterministic, so the report is
/// identical at any thread count.
///
/// # Errors
///
/// Returns [`CoreError`] if data generation, training or verification
/// fails structurally (first failing member in seed order).
pub fn run_fleet(config: &FleetConfig) -> Result<FleetResult, CoreError> {
    run_fleet_under(config, Deadline::none())
}

/// [`run_fleet`] under an ambient [`Deadline`]/cancellation token.
///
/// The deadline is threaded through every member's verifier down to
/// individual simplex pivot batches (tightened per query by
/// [`RunOptions::time_limit`]); on expiry the affected members report
/// sound partial bounds tagged `TimedOut` instead of the run hanging or
/// crashing.
///
/// # Errors
///
/// Same contract as [`run_fleet`].
pub fn run_fleet_under(config: &FleetConfig, deadline: Deadline) -> Result<FleetResult, CoreError> {
    let (data, samples) = fleet_dataset(config)?;
    let layout = OutputLayout::new(1);
    let spec = left_vehicle_spec();
    let verifier = config.run.verifier(config.fleet_size, deadline);
    let done = AtomicUsize::new(0);
    let run_span = certnn_obs::span("fleet.run");
    let run_span_id = run_span.id();
    let members = config.run.run_jobs(config.fleet_size, |i| {
        let seed = member_seed(i);
        let member_span = certnn_obs::span_child_of("fleet.member", run_span_id);
        let member = run_member(config, seed, &data, layout, &spec, &verifier);
        drop(member_span);
        if certnn_obs::enabled() {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Ok(m) = &member {
                certnn_obs::event(
                    "fleet.member_done",
                    vec![
                        ("seed", seed.into()),
                        ("wall_secs", m.wall_secs.into()),
                        ("nodes", m.stats.nodes.into()),
                        ("safe", m.safe.unwrap_or(false).into()),
                        ("degradation", m.stats.degradation.as_str().into()),
                    ],
                );
            }
            // Live progress line: only when observability is on, so
            // quiet runs stay byte-identical on stderr.
            eprintln!(
                "[fleet] {finished}/{} members done (seed {seed})",
                config.fleet_size
            );
        }
        member
    });
    drop(run_span);
    let members = members.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(FleetResult {
        members,
        bound: config.bound,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_members_differ_despite_identical_data() {
        let result = run_fleet(&FleetConfig::smoke_test()).unwrap();
        assert_eq!(result.members.len(), 3);
        assert!(result.samples > 50);
        // All tiny queries close.
        let maxes: Vec<f64> = result
            .members
            .iter()
            .map(|m| m.verified_max.expect("closes"))
            .collect();
        // Different initialisations give measurably different verified
        // maxima — the paper's observation in miniature.
        let spread = maxes.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - maxes.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 1e-4, "fleet collapsed to identical maxima: {maxes:?}");
        assert_eq!(result.safe_count() + result.unsafe_count(), 3);
        for m in &result.members {
            assert!(m.wall_secs > 0.0);
            assert!(m.stats.nodes >= 1);
        }
        let table = result.to_table();
        assert!(table.contains("FLEET"));
        assert!(table.contains("safe"));
    }
}
