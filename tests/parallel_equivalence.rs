//! Parallel-vs-serial equivalence of the verification engines.
//!
//! The parallel branch-and-bound (`BabOptions::threads`) must be a pure
//! performance knob: any thread count returns the same verdict within
//! the engine's `abs_gap` contract, and the query-parallel experiment
//! runners (`run_fleet`, `run_table2`) must produce identical tables at
//! any thread count.

use certnn_bench::table2::{run_table2, Table2Config};
use certnn_core::fleet::{run_fleet, FleetConfig};
use certnn_core::scenario::left_vehicle_spec;
use certnn_datacheck::highway::highway_validator;
use certnn_linalg::Interval;
use certnn_milp::MilpStatus;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::loss::GmmNll;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_sim::features::FEATURE_COUNT;
use certnn_sim::scenario::{generate_dataset, ScenarioConfig};
use certnn_verify::bab::{bab_maximize, BabOptions};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use proptest::prelude::*;

fn unit_spec(n: usize) -> InputSpec {
    InputSpec::from_box(vec![Interval::new(-1.0, 1.0); n]).unwrap()
}

/// Trains a smoke-scale motion predictor on sanitized scenario data —
/// the same pipeline the experiments verify, scaled to seconds.
fn trained_smoke_predictor() -> (Network, OutputLayout) {
    let scenario = ScenarioConfig {
        vehicles: 12,
        episode_seconds: 8.0,
        warmup_seconds: 1.0,
        sample_every: 10,
        seeds: vec![1],
        exclude_risky: false,
        ..ScenarioConfig::default()
    };
    let mut raw = generate_dataset(&scenario).unwrap();
    highway_validator(1.0).sanitize(&mut raw);
    let data = Dataset::from_samples(raw);
    let layout = OutputLayout::new(1);
    let loss = GmmNll::new(1);
    let mut net = Network::relu_mlp(FEATURE_COUNT, &[6, 6], layout.output_len(), 42).unwrap();
    Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 64,
        seed: 42,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    })
    .train(&mut net, &data, &loss)
    .unwrap();
    (net, layout)
}

#[test]
fn trained_net_verifies_identically_at_one_and_four_threads() {
    use certnn_nn::gmm::ActionDim;
    let (net, layout) = trained_smoke_predictor();
    let spec = left_vehicle_spec();
    let obj = LinearObjective::output(layout.mean(0, ActionDim::LateralVelocity));
    let serial = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
    assert_eq!(serial.status, MilpStatus::Optimal);
    let opts = BabOptions {
        threads: 4,
        ..BabOptions::default()
    };
    let par = bab_maximize(&net, &spec, &obj, &opts).unwrap();
    assert_eq!(par.status, MilpStatus::Optimal);
    assert_eq!(par.threads_used, 4);
    let (a, b) = (serial.best_value.unwrap(), par.best_value.unwrap());
    assert!(
        (a - b).abs() <= 2.0 * opts.abs_gap,
        "serial best {a} vs 4-thread best {b}"
    );
    assert!(
        (serial.upper_bound - par.upper_bound).abs() <= 2.0 * opts.abs_gap,
        "serial upper {} vs 4-thread upper {}",
        serial.upper_bound,
        par.upper_bound
    );
    // Each run's witness is a genuine input achieving its value.
    let w = par.witness.unwrap();
    assert!(spec.contains(&w, 1e-6));
    assert!((net.forward(&w).unwrap()[obj.terms[0].0] - b).abs() < 1e-9);
}

#[test]
fn big_m_engine_agrees_at_one_and_two_threads() {
    // `Engine::Milp` runs the big-M tree in the shared frontier, so its
    // workers split the search too.
    use certnn_nn::gmm::ActionDim;
    let (net, layout) = trained_smoke_predictor();
    let spec = left_vehicle_spec();
    let obj = LinearObjective::output(layout.mean(0, ActionDim::LateralVelocity));
    let run = |threads| {
        Verifier::with_options(VerifierOptions {
            engine: Engine::Milp,
            threads,
            ..VerifierOptions::default()
        })
        .maximize(&net, &spec, &obj)
        .unwrap()
    };
    let (serial, par) = (run(1), run(2));
    assert_eq!(serial.status, MilpStatus::Optimal);
    assert_eq!(par.status, MilpStatus::Optimal);
    assert!(serial.stats.nodes > 1, "the big-M tree must be searched node by node");
    let abs_gap = VerifierOptions::default().abs_gap;
    let (a, b) = (serial.best_value.unwrap(), par.best_value.unwrap());
    assert!(
        (a - b).abs() <= abs_gap,
        "serial big-M max {a} vs 2-thread {b}"
    );
    let w = par.witness.unwrap();
    assert!(spec.contains(&w, 1e-6));
    assert!((net.forward(&w).unwrap()[obj.terms[0].0] - b).abs() < 1e-9);
}

#[test]
fn fleet_tables_are_identical_at_any_thread_count() {
    let mut config = FleetConfig::smoke_test();
    config.run.threads = 1;
    let serial = run_fleet(&config).unwrap();
    config.run.threads = 2;
    let parallel = run_fleet(&config).unwrap();
    assert_eq!(serial.members.len(), parallel.members.len());
    for (a, b) in serial.members.iter().zip(&parallel.members) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        assert_eq!(a.verified_max, b.verified_max);
        assert_eq!(a.safe, b.safe);
        assert_eq!(a.stats.nodes, b.stats.nodes);
    }
}

#[test]
fn table2_rows_are_identical_at_any_thread_count() {
    let mut config = Table2Config::smoke_test();
    config.run.threads = 1;
    let serial = run_table2(&config).unwrap();
    config.run.threads = 2;
    let parallel = run_table2(&config).unwrap();
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.max_lateral, b.max_lateral);
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.binaries, b.stats.binaries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parallel engine's proven bound can never undercut any value
    /// the serial engine actually achieved with a real input (and vice
    /// versa) — a soundness property, not just agreement.
    #[test]
    fn parallel_bound_dominates_serial_incumbent(
        seed in 0u64..64,
        threads in 2usize..5,
        wide in proptest::prelude::any::<bool>(),
    ) {
        let hidden: &[usize] = if wide { &[10, 6] } else { &[6, 6] };
        let net = Network::relu_mlp(3, hidden, 1, seed).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        let serial = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
        let par = bab_maximize(
            &net,
            &spec,
            &obj,
            &BabOptions { threads, ..BabOptions::default() },
        )
        .unwrap();
        prop_assert_eq!(serial.status, MilpStatus::Optimal);
        prop_assert_eq!(par.status, MilpStatus::Optimal);
        let s_best = serial.best_value.unwrap();
        let p_best = par.best_value.unwrap();
        // Sound bounds dominate every genuine incumbent, whichever
        // engine found it.
        prop_assert!(par.upper_bound >= s_best - BabOptions::default().abs_gap);
        prop_assert!(serial.upper_bound >= p_best - BabOptions::default().abs_gap);
        // And the two optima agree within the gap contract.
        prop_assert!((s_best - p_best).abs() <= 2.0 * BabOptions::default().abs_gap);
    }
}
