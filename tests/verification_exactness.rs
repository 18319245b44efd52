//! Cross-crate exactness checks: the MILP verifier against dense grid
//! enumeration on low-dimensional networks, across presolve methods and
//! quantization.

use certnn_linalg::{Interval, Vector};
use certnn_milp::{BranchAndBound, MilpOptions, MilpStatus};
use certnn_nn::loss::MseLoss;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_verify::bab::DEFAULT_ALPHA_ITERS;
use certnn_verify::encoder::{encode, BoundMethod};
use certnn_verify::property::{InputSpec, LinearConstraint, LinearObjective, Relation};
use certnn_verify::quant::quantize;
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains a 2-input network on a bumpy target so its maximum is interior.
fn trained_2d_net(seed: u64) -> Network {
    let data: Dataset = (0..400)
        .map(|i| {
            let x = (i % 20) as f64 / 10.0 - 1.0;
            let y = (i / 20) as f64 / 10.0 - 1.0;
            let target = (3.0 * x).sin() + 0.5 * (2.0 * y).cos() - x * y;
            (Vector::from(vec![x, y]), Vector::from(vec![target]))
        })
        .collect();
    let mut net = Network::relu_mlp(2, &[10, 10], 1, seed).expect("valid arch");
    Trainer::new(TrainConfig {
        epochs: 60,
        batch_size: 32,
        ..TrainConfig::default()
    })
    .train(&mut net, &data, &MseLoss::new())
    .expect("training runs");
    net
}

fn grid_max(net: &Network, n: usize) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for i in 0..=n {
        for j in 0..=n {
            let x = Vector::from(vec![
                -1.0 + 2.0 * i as f64 / n as f64,
                -1.0 + 2.0 * j as f64 / n as f64,
            ]);
            best = best.max(net.forward(&x).expect("forward")[0]);
        }
    }
    best
}

#[test]
fn milp_maximum_dominates_and_approximates_dense_grid() {
    let net = trained_2d_net(3);
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 2]).expect("box");
    let obj = LinearObjective::output(0);
    let result = Verifier::new().maximize(&net, &spec, &obj).expect("verifies");
    assert!(result.is_exact());
    let milp_max = result.exact_max().expect("closed");
    let grid = grid_max(&net, 300);
    // MILP must dominate the grid, and a 300×300 grid on a piecewise
    // linear function with modest Lipschitz constant gets very close.
    assert!(milp_max >= grid - 1e-9, "milp {milp_max} < grid {grid}");
    assert!(
        milp_max - grid < 0.05,
        "milp {milp_max} too far above grid {grid}"
    );
}

#[test]
fn presolve_methods_agree_on_trained_networks() {
    let net = trained_2d_net(5);
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 2]).expect("box");
    let mut values = Vec::new();
    for method in [BoundMethod::Interval, BoundMethod::Symbolic] {
        let enc = encode(&net, &spec, method).expect("encodes");
        let mut milp = enc.milp.clone();
        milp.set_objective(&[(enc.output_vars[0], 1.0)]);
        let sol = BranchAndBound::new().solve(&milp).expect("solves");
        assert_eq!(sol.status, MilpStatus::Optimal);
        values.push(sol.objective.expect("closes"));
    }
    assert!((values[0] - values[1]).abs() < 1e-5, "{values:?}");
}

#[test]
fn quantized_network_verifies_close_to_original() {
    let net = trained_2d_net(7);
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 2]).expect("box");
    let obj = LinearObjective::output(0);
    let full = Verifier::new()
        .maximize(&net, &spec, &obj)
        .expect("verifies")
        .exact_max()
        .expect("closes");
    let q = quantize(&net, 12).expect("quantize");
    let quant = Verifier::new()
        .maximize(&q.network, &spec, &obj)
        .expect("verifies")
        .exact_max()
        .expect("closes");
    assert!(
        (full - quant).abs() < 0.1,
        "12-bit quantization moved the verified max too far: {full} vs {quant}"
    );
}

/// The paper's method with nothing around it: the big-M encoding (α
/// presolve at its default depth) solved by certnn-milp's cold
/// branch-and-bound at the query's gap. Returns the exact maximum as
/// the forward-pass value of the optimal input.
fn direct_big_m_max(
    net: &Network,
    spec: &InputSpec,
    obj: &LinearObjective,
    abs_gap: f64,
) -> f64 {
    let method = BoundMethod::AlphaOptimized {
        iters: DEFAULT_ALPHA_ITERS,
    };
    let enc = encode(net, spec, method).expect("encodes");
    let mut milp = enc.milp.clone();
    let terms: Vec<_> = obj
        .terms
        .iter()
        .map(|&(o, c)| (enc.output_vars[o], c))
        .collect();
    milp.set_objective(&terms);
    let sol = BranchAndBound::with_options(MilpOptions {
        abs_gap,
        ..MilpOptions::default()
    })
    .solve(&milp)
    .expect("solves");
    assert_eq!(sol.status, MilpStatus::Optimal);
    let x = sol.x.expect("feasible spec");
    let input: Vector = enc.input_vars.iter().map(|v| x[v.index()]).collect();
    obj.eval(&net.forward(&input).expect("forward"))
}

/// One instance of the random cross-engine family: a 2-output ReLU net
/// over a shifted box, maximising `out0 − 0.5·out1`; with `constrained`,
/// one random `≤`/`≥` row through a random point of the box is added.
fn random_instance(
    rng: &mut StdRng,
    constrained: bool,
) -> (Network, InputSpec, LinearObjective) {
    let inputs = rng.gen_range(2usize..5);
    let width = rng.gen_range(3usize..7);
    let layers = rng.gen_range(1usize..3);
    let net = Network::relu_mlp(inputs, &vec![width; layers], 2, rng.gen()).expect("valid arch");
    let lo = f64::from(rng.gen_range(-15i32..=0)) / 10.0;
    let span = f64::from(rng.gen_range(5i32..=20)) / 10.0;
    let mut spec = InputSpec::from_box(vec![Interval::new(lo, lo + span); inputs]).expect("box");
    if constrained {
        let terms: Vec<(usize, f64)> = (0..inputs)
            .map(|i| (i, rng.gen_range(-1.0..=1.0)))
            .collect();
        let anchor: f64 = terms
            .iter()
            .map(|&(_, c)| c * (lo + span * rng.gen_range(0.0..=1.0)))
            .sum();
        let relation = if rng.gen_bool(0.5) {
            Relation::Le
        } else {
            Relation::Ge
        };
        spec = spec.constrain(LinearConstraint {
            terms,
            relation,
            rhs: anchor,
        });
    }
    let obj = LinearObjective::combination(vec![(0, 1.0), (1, -0.5)]);
    (net, spec, obj)
}

#[test]
fn every_engine_matches_the_direct_big_m_reference() {
    let mut rng = StdRng::seed_from_u64(2017);
    let mut instances: Vec<(Network, InputSpec, LinearObjective)> = Vec::new();
    for constrained in [false, true] {
        for _ in 0..20 {
            instances.push(random_instance(&mut rng, constrained));
        }
    }
    for seed in [3u64, 5, 7] {
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 2]).expect("box");
        instances.push((trained_2d_net(seed), spec, LinearObjective::output(0)));
    }
    let abs_gap = VerifierOptions::default().abs_gap;
    for (i, (net, spec, obj)) in instances.iter().enumerate() {
        let exact = direct_big_m_max(net, spec, obj, abs_gap);
        for engine in [Engine::Milp, Engine::HybridBab, Engine::Auto] {
            let v = Verifier::with_options(VerifierOptions {
                engine,
                ..VerifierOptions::default()
            });
            let r = v.maximize(net, spec, obj).expect("verifies");
            assert!(r.is_exact(), "instance {i}, {engine:?}: {:?}", r.status);
            let got = r.exact_max().expect("closed");
            assert!(
                (got - exact).abs() <= abs_gap,
                "instance {i}, {engine:?}: {got} vs direct {exact}"
            );
            assert!(spec.contains(r.witness.as_ref().expect("witness"), 1e-6));
            for (margin, holds) in [(0.2, true), (-0.2, false)] {
                let (verdict, _) = v
                    .prove_below(net, spec, obj, exact + margin)
                    .expect("decides");
                assert_eq!(
                    verdict.holds(),
                    holds,
                    "instance {i}, {engine:?} at max {margin:+}: {verdict:?}"
                );
            }
        }
    }
}

#[test]
fn witness_always_reproduces_the_claimed_value() {
    for seed in [1u64, 2, 3] {
        let net = Network::relu_mlp(4, &[8, 8], 2, seed).expect("valid arch");
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 4]).expect("box");
        let obj = LinearObjective::combination(vec![(0, 1.0), (1, -0.5)]);
        let result = Verifier::new().maximize(&net, &spec, &obj).expect("verifies");
        let w = result.witness.expect("witness");
        let v = result.best_value.expect("value");
        let out = net.forward(&w).expect("forward");
        assert!((obj.eval(&out) - v).abs() < 1e-9);
    }
}
