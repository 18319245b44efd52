//! Integration tests for deadline propagation and the degradation ladder:
//! a verification budget must be honoured promptly, the expiry must be
//! reported honestly as `TimedOut`, and the partial bound handed back must
//! stay sound — between the best reachable value and the interval-bound
//! ceiling of the sound fallback.
//!
//! These tests run fault-free (the chaos suites live in the crates and
//! need `--features fault-inject`); deadlines alone must already degrade
//! gracefully.

use certnn_bench::table2::{run_table2_under, Table2Config};
use certnn_core::fleet::{run_fleet_under, FleetConfig};
use certnn_linalg::{Interval, Vector};
use certnn_milp::MilpStatus;
use certnn_nn::network::Network;
use certnn_verify::bounds::interval_bounds;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use certnn_verify::{Deadline, Degradation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A sampled lower bound on the true maximum of `output[0]` over the unit
/// box: any sound upper bound must dominate it.
fn sampled_floor(net: &Network, n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(11);
    let mut best = f64::NEG_INFINITY;
    for _ in 0..n {
        let x: Vector = (0..net.inputs()).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        best = best.max(net.forward(&x).expect("forward pass")[0]);
    }
    best
}

#[test]
fn timed_out_bound_sits_between_reachable_floor_and_interval_ceiling() {
    let net = Network::relu_mlp(4, &[12, 12], 1, 91).expect("fixture network");
    let input_box = vec![Interval::new(-1.0, 1.0); 4];
    let spec = InputSpec::from_box(input_box.clone()).expect("unit box");
    let obj = LinearObjective::output(0);
    let floor = sampled_floor(&net, 500);
    let ceiling = interval_bounds(&net, &input_box).expect("interval pass").output_bounds()[0].hi();
    assert!(floor <= ceiling, "sampler disagrees with interval arithmetic");

    // An already-cancelled ambient deadline: the search gets no budget at
    // all, so the answer must be the sound fallback — never tighter than
    // the truth (>= floor) and never looser than plain interval
    // arithmetic allows (<= ceiling).
    let d = Deadline::cancellable();
    d.cancel();
    for engine in [Engine::HybridBab, Engine::Milp] {
        let v = Verifier::with_options(VerifierOptions {
            engine,
            ..VerifierOptions::default()
        })
        .with_deadline(d.clone());
        let t0 = Instant::now();
        let r = v.maximize(&net, &spec, &obj).expect("degrade, not crash");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "cancelled {engine:?} query did not return promptly"
        );
        assert_eq!(r.status, MilpStatus::TimeLimit, "engine {engine:?}");
        assert_eq!(r.stats.degradation, Degradation::TimedOut, "engine {engine:?}");
        assert!(
            r.upper_bound >= floor - 1e-6,
            "{engine:?}: timed-out bound {} dips below reachable value {floor}",
            r.upper_bound
        );
        assert!(
            r.upper_bound <= ceiling + 1e-6,
            "{engine:?}: timed-out bound {} looser than interval ceiling {ceiling}",
            r.upper_bound
        );
    }
}

#[test]
fn table2_respects_its_time_limit_and_reports_timed_out() {
    // One width big enough (4 hidden layers of 8) that an exact solve
    // takes far longer than the budget below, so the deadline must fire.
    let budget = Duration::from_millis(250);
    let mut config = Table2Config {
        widths: vec![8],
        ..Table2Config::smoke_test()
    };
    config.run.time_limit = budget;
    let result = run_table2_under(&config, Deadline::none()).expect("degrade, not crash");
    assert_eq!(result.rows.len(), 1);
    let row = &result.rows[0];
    assert_eq!(
        row.stats.degradation,
        Degradation::TimedOut,
        "{}: a {budget:?} budget on this width must expire",
        row.label
    );
    // The query was cut off per pivot batch: its wall time stays within
    // 2x the budget rather than running to completion.
    assert!(
        row.stats.elapsed < 2 * budget,
        "{}: verification ran {:?} against a {budget:?} budget",
        row.label,
        row.stats.elapsed
    );
    // The abandoned search still folds into a finite sound bound, and an
    // expired query must not claim an exact maximum.
    assert!(row.upper_bound.is_finite(), "{}: no usable bound", row.label);
    assert!(row.max_lateral.is_none(), "{}: timed out yet closed", row.label);
    // The degraded row is flagged in the human-readable table too.
    assert!(result.to_table().contains("timed_out"));
}

#[test]
fn fleet_under_a_cancelled_ambient_deadline_degrades_every_member() {
    let config = FleetConfig::smoke_test();
    let d = Deadline::cancellable();
    d.cancel();
    let result = run_fleet_under(&config, d).expect("degrade, not crash");
    assert_eq!(result.members.len(), config.fleet_size);
    for m in &result.members {
        assert_eq!(
            m.stats.degradation,
            Degradation::TimedOut,
            "member {}: cancelled run must be tagged",
            m.seed
        );
        assert!(
            m.verified_max.is_none() && m.safe.is_none(),
            "member {}: no exact verdict can exist without budget",
            m.seed
        );
    }
    // The mode column of the fleet table surfaces the degradation.
    assert!(result.to_table().contains("timed_out"));
}
