//! Property-based soundness tests for the verification stack.

use certnn_linalg::{Interval, Vector};
use certnn_nn::network::Network;
use certnn_verify::bounds::{interval_bounds, symbolic_bounds};
use certnn_milp::{BranchAndBound, MilpStatus};
use certnn_verify::encoder::{encode, BoundMethod};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::Verifier;
use proptest::prelude::*;

fn arch() -> impl Strategy<Value = (usize, Vec<usize>, usize, u64)> {
    (
        1usize..4,                                // inputs
        prop::collection::vec(2usize..6, 1..3),   // hidden widths
        1usize..3,                                // outputs
        any::<u64>(),                             // seed
    )
}

fn boxes(n: usize) -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec(
        (-20i32..=19).prop_flat_map(|lo| {
            (1i32..=8).prop_map(move |w| {
                Interval::new(lo as f64 / 10.0, (lo + w) as f64 / 10.0)
            })
        }),
        n..=n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both bound analyses contain every sampled forward pass.
    #[test]
    fn bounds_contain_sampled_traces(
        (inputs, hidden, outputs, seed) in arch(),
        frac in prop::collection::vec(0.0f64..=1.0, 16),
    ) {
        let net = Network::relu_mlp(inputs, &hidden, outputs, seed).unwrap();
        let ib: Vec<Interval> = (0..inputs)
            .map(|i| Interval::new(-0.5 - (i as f64) * 0.1, 0.7))
            .collect();
        let nb_i = interval_bounds(&net, &ib).unwrap();
        let nb_s = symbolic_bounds(&net, &ib).unwrap();
        for chunk in frac.chunks(inputs.max(1)).take(4) {
            if chunk.len() < inputs { break; }
            let x: Vector = ib
                .iter()
                .zip(chunk)
                .map(|(iv, t)| iv.lo() + t * iv.width())
                .collect();
            let trace = net.forward_trace(&x).unwrap();
            for (l, z) in trace.pre_activations.iter().enumerate() {
                for j in 0..z.len() {
                    prop_assert!(nb_i.pre[l][j].widened(1e-7).contains(z[j]));
                    prop_assert!(nb_s.pre[l][j].widened(1e-7).contains(z[j]));
                }
            }
        }
    }

    /// The MILP maximum dominates every sampled objective value, the
    /// witness reproduces the claimed value, and both presolve methods
    /// agree on the optimum.
    #[test]
    fn milp_maximum_is_sound_and_method_independent(
        (inputs, hidden, outputs, seed) in arch(),
        ib in (1usize..4).prop_flat_map(boxes),
        frac in prop::collection::vec(0.0f64..=1.0, 24),
    ) {
        prop_assume!(ib.len() == inputs);
        let net = Network::relu_mlp(inputs, &hidden, outputs, seed).unwrap();
        let spec = InputSpec::from_box(ib.clone()).unwrap();
        let obj = LinearObjective::output(0);
        let sym = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        prop_assert!(sym.is_exact());
        let max = sym.exact_max().unwrap();
        // Witness reproduces (also checked internally, assert to be sure).
        let w = sym.witness.as_ref().unwrap();
        prop_assert!(spec.contains(w, 1e-6));
        prop_assert!((net.forward(w).unwrap()[0] - max).abs() < 1e-6);
        // Sampling never beats the verified maximum.
        for chunk in frac.chunks(inputs.max(1)).take(6) {
            if chunk.len() < inputs { break; }
            let x: Vector = ib
                .iter()
                .zip(chunk)
                .map(|(iv, t)| iv.lo() + t * iv.width())
                .collect();
            let v = net.forward(&x).unwrap()[0];
            prop_assert!(v <= max + 1e-6, "sample {v} beats verified max {max}");
        }
        // The big-M encoding under interval presolve reaches the same
        // optimum.
        let enc = encode(&net, &spec, BoundMethod::Interval).unwrap();
        let mut milp = enc.milp.clone();
        milp.set_objective(&[(enc.output_vars[0], 1.0)]);
        let iv = BranchAndBound::new().solve(&milp).unwrap();
        prop_assert!(iv.status == MilpStatus::Optimal);
        prop_assert!((iv.objective.unwrap() - max).abs() < 1e-5);
    }

    /// Shrinking the input box can never increase the verified maximum.
    #[test]
    fn monotonicity_in_the_input_box(
        (inputs, hidden, _outputs, seed) in arch(),
        shrink in 0.05f64..0.45,
    ) {
        let net = Network::relu_mlp(inputs, &hidden, 1, seed).unwrap();
        let wide: Vec<Interval> = vec![Interval::new(-1.0, 1.0); inputs];
        let narrow: Vec<Interval> = wide
            .iter()
            .map(|iv| Interval::new(iv.lo() + shrink, iv.hi() - shrink))
            .collect();
        let obj = LinearObjective::output(0);
        let v = Verifier::new();
        let big = v
            .maximize(&net, &InputSpec::from_box(wide).unwrap(), &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        let small = v
            .maximize(&net, &InputSpec::from_box(narrow).unwrap(), &obj)
            .unwrap()
            .exact_max()
            .unwrap();
        prop_assert!(small <= big + 1e-6, "narrow {small} > wide {big}");
    }
}
