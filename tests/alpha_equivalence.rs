//! α tuning and LP-skip gating must be pure performance knobs.
//!
//! `alpha_iters = 0` plus `lp_skip = false` reproduces the legacy
//! fixed-slope, always-LP search; the tuned defaults may reshape the
//! branch-and-bound tree and elide LP relaxations, but verdicts, optima
//! (within the `abs_gap` contract) and degradation tags may not move —
//! on direct verifier queries and on the end-to-end Table II smoke
//! pipeline.
//!
//! Per-node α refinement and the skip gate act on the phase rule only.
//! The direct queries' roots leave at most 20 neurons unstable, which
//! `Engine::Auto` hands off at the root, so they pin
//! `Engine::HybridBab`; under a root hand-off only the encoding's
//! presolve would vary.

use certnn_bench::table2::{run_table2, Table2Config};
use certnn_nn::network::Network;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use certnn_linalg::Interval;

fn unit_spec(n: usize) -> InputSpec {
    InputSpec::from_box(vec![Interval::new(-1.0, 1.0); n]).unwrap()
}

/// Neuron branching at the given α and skip settings.
fn options(alpha_iters: usize, lp_skip: bool) -> VerifierOptions {
    VerifierOptions {
        engine: Engine::HybridBab,
        alpha_iters,
        lp_skip,
        ..VerifierOptions::default()
    }
}

#[test]
fn maximize_agrees_across_alpha_and_skip_settings() {
    let abs_gap = VerifierOptions::default().abs_gap;
    for seed in [3u64, 11, 29] {
        let net = Network::relu_mlp(4, &[10, 10], 1, seed).unwrap();
        let spec = unit_spec(4);
        let obj = LinearObjective::output(0);
        let legacy = Verifier::with_options(options(0, false))
            .maximize(&net, &spec, &obj)
            .unwrap();
        let reference = legacy.exact_max().unwrap();
        for (iters, skip) in [(0, true), (1, false), (1, true), (3, true)] {
            let r = Verifier::with_options(options(iters, skip))
                .maximize(&net, &spec, &obj)
                .unwrap();
            let got = r.exact_max().unwrap();
            assert!(
                (got - reference).abs() <= 2.0 * abs_gap,
                "seed {seed}, alpha_iters {iters}, lp_skip {skip}: \
                 {got} vs legacy {reference}"
            );
            assert_eq!(r.stats.degradation, legacy.stats.degradation);
        }
    }
}

#[test]
fn prove_below_verdicts_identical_across_settings() {
    for seed in [5u64, 17] {
        let net = Network::relu_mlp(3, &[8, 8], 1, seed).unwrap();
        let spec = unit_spec(3);
        let obj = LinearObjective::output(0);
        // Bracket the optimum so both verdict polarities are exercised.
        let max = Verifier::with_options(options(0, false))
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        for threshold in [max + 0.1, max - 0.1] {
            let (legacy, _) = Verifier::with_options(options(0, false))
                .prove_below(&net, &spec, &obj, threshold)
                .unwrap();
            for (iters, skip) in [(1, false), (1, true), (3, true)] {
                let (tuned, _) = Verifier::with_options(options(iters, skip))
                    .prove_below(&net, &spec, &obj, threshold)
                    .unwrap();
                assert_eq!(
                    legacy.holds(),
                    tuned.holds(),
                    "seed {seed}, threshold {threshold}, alpha_iters {iters}, \
                     lp_skip {skip}: verdict drift"
                );
            }
        }
    }
}

/// End-to-end determinism contract behind `./ci --bench-smoke`'s alpha
/// leg: the Table II smoke pipeline must return bit-identical verdicts
/// with tuning off and at the tuned defaults, and the tuned run must
/// actually exercise the skip gate. `Engine::Auto` routes the rows as
/// the pipeline ships: I4×4's root leaves 15 neurons unstable and hands
/// off at the root, I4×6's leaves 24 and branches on neurons, so the
/// leg needs I4×6 to reach the per-node α refinement and the skip gate.
#[test]
fn table2_smoke_verdicts_identical_with_and_without_alpha() {
    let mut config = Table2Config::smoke_test();
    config.run.threads = 1;
    let tuned = run_table2(&config).unwrap();
    config.run.alpha_iters = 0;
    config.run.lp_skip = false;
    let legacy = run_table2(&config).unwrap();

    // Same rounding the JSON writer applies: verdicts must agree to 12
    // significant digits (ulp-level search-path noise is tolerated, the
    // `abs_gap = 1e-6` accuracy contract is not).
    let round = |v: f64| -> f64 { format!("{v:.11e}").parse().unwrap() };
    assert_eq!(tuned.rows.len(), legacy.rows.len());
    for (t, l) in tuned.rows.iter().zip(&legacy.rows) {
        assert_eq!(t.label, l.label);
        let (tv, lv) = (t.max_lateral.unwrap(), l.max_lateral.unwrap());
        assert_eq!(
            round(tv).to_bits(),
            round(lv).to_bits(),
            "{}: tuned {tv} vs legacy {lv}",
            t.label
        );
        assert_eq!(t.stats.degradation, l.stats.degradation);
        // Legacy path never consults the gate.
        assert_eq!(l.stats.lp_skipped, 0, "{}: gate ticked while disabled", l.label);
    }
    // The tuned defaults must actually elide LPs somewhere in the smoke
    // set — otherwise the gate is dead code at its shipped settings.
    let skipped: usize = tuned.rows.iter().map(|r| r.stats.lp_skipped).sum();
    assert!(skipped > 0, "lp-skip gate never fired on the smoke config");
    // A root hand-off runs no phase-rule LP, so a forced LP marks a row
    // that branched on neurons.
    assert!(
        tuned.rows.iter().any(|r| r.stats.lp_forced > 0),
        "no smoke row branched on neurons: {:?}",
        tuned.rows.iter().map(|r| (&r.label, r.stats.lp_forced)).collect::<Vec<_>>()
    );
    let solves = |rows: &[certnn_bench::table2::Table2Row]| -> usize {
        rows.iter().map(|r| r.stats.warm_solves + r.stats.cold_solves).sum()
    };
    assert!(
        solves(&tuned.rows) < solves(&legacy.rows),
        "tuned defaults did not reduce LP solves: {} vs {}",
        solves(&tuned.rows),
        solves(&legacy.rows)
    );
}
