//! Property-based cross-engine equivalence: the hybrid neuron
//! branch-and-bound and the pure big-M MILP must compute identical exact
//! maxima on every random instance, and the gradient falsifier must never
//! beat either.

use certnn_linalg::{Interval, Vector};
use certnn_nn::network::Network;
use certnn_verify::attack::Falsifier;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, Verdict, Verifier, VerifierOptions};
use proptest::prelude::*;

fn engine_verifier(engine: Engine) -> Verifier {
    Verifier::with_options(VerifierOptions {
        engine,
        ..VerifierOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn bab_and_milp_agree_exactly(
        inputs in 2usize..5,
        width in 3usize..7,
        layers in 1usize..3,
        seed in any::<u64>(),
        lo in (-15i32..=0).prop_map(|v| v as f64 / 10.0),
        span in (5i32..=20).prop_map(|v| v as f64 / 10.0),
    ) {
        let net = Network::relu_mlp(inputs, &vec![width; layers], 2, seed).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(lo, lo + span); inputs]).unwrap();
        let obj = LinearObjective::combination(vec![(0, 1.0), (1, -0.5)]);

        let bab = engine_verifier(Engine::HybridBab)
            .maximize(&net, &spec, &obj)
            .unwrap();
        let milp = engine_verifier(Engine::Milp)
            .maximize(&net, &spec, &obj)
            .unwrap();
        prop_assert!(bab.is_exact(), "bab did not close");
        prop_assert!(milp.is_exact(), "milp did not close");
        let (b, m) = (bab.exact_max().unwrap(), milp.exact_max().unwrap());
        prop_assert!((b - m).abs() < 1e-5, "bab {b} vs milp {m}");

        // Both witnesses are genuine and inside the spec.
        for r in [&bab, &milp] {
            let w = r.witness.as_ref().unwrap();
            prop_assert!(spec.contains(w, 1e-6));
            let v = obj.eval(&net.forward(w).unwrap());
            prop_assert!((v - r.best_value.unwrap()).abs() < 1e-9);
        }

        // The incomplete falsifier can approach but never exceed the max.
        let attack = Falsifier::new().attack(&net, &spec, &obj).unwrap();
        prop_assert!(attack.best_value <= b + 1e-6);
    }

    #[test]
    fn prove_below_consistent_across_engines(
        seed in any::<u64>(),
        margin in (-5i32..=5).prop_map(|v| v as f64 / 10.0),
    ) {
        let net = Network::relu_mlp(3, &[6, 6], 1, seed).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).unwrap();
        let obj = LinearObjective::output(0);
        let exact = engine_verifier(Engine::Milp)
            .maximize(&net, &spec, &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        prop_assume!(margin.abs() > 0.05); // avoid the knife edge
        let threshold = exact + margin;
        let abs_gap = VerifierOptions::default().abs_gap;
        for engine in [Engine::HybridBab, Engine::Milp, Engine::Auto] {
            let (verdict, _) = engine_verifier(engine)
                .prove_below(&net, &spec, &obj, threshold)
                .unwrap();
            if margin > 0.0 {
                prop_assert!(verdict.holds(), "{engine:?} refuted a true bound");
            } else {
                prop_assert!(!verdict.holds(), "{engine:?} proved a false bound");
            }
            // A proven bound never sits below the maximum it bounds.
            if let Verdict::Holds { bound } = verdict {
                prop_assert!(
                    bound >= exact - abs_gap,
                    "{engine:?}: Holds bound {bound} below the maximum {exact}"
                );
            }
        }
    }
}

#[test]
fn witness_values_sampled_never_beat_any_engine() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let net = Network::relu_mlp(5, &[9, 9], 1, 321).expect("valid architecture");
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 5]).expect("box");
    let obj = LinearObjective::output(0);
    let values: Vec<f64> = [Engine::HybridBab, Engine::Milp]
        .into_iter()
        .map(|e| {
            engine_verifier(e)
                .maximize(&net, &spec, &obj)
                .expect("verifies")
                .exact_max()
                .expect("closes")
        })
        .collect();
    assert!((values[0] - values[1]).abs() < 1e-5);
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..5000 {
        let x: Vector = (0..5).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let v = net.forward(&x).expect("forward")[0];
        assert!(v <= values[0] + 1e-6);
    }
}
