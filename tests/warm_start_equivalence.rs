//! Warm-started LP re-solves must be a pure performance knob.
//!
//! The dual-simplex warm start (`Simplex::solve_warm`) re-solves a model
//! under tightened bounds from the parent's optimal basis. Its contract
//! is *verdict preservation*: the same status and (for optimal solves)
//! the same objective as a cold solve, to numerical tolerance — on
//! random LPs and on the end-to-end Table II pipeline, at any thread
//! count.

use certnn_bench::table2::{run_table2, Table2Config};
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_datacheck::highway::highway_validator;
use certnn_lp::{LpModel, LpStatus, RowKind, Sense, Simplex, VarId, WarmSolve, WarmStart};
use certnn_nn::gmm::OutputLayout;
use certnn_nn::loss::GmmNll;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_sim::features::FEATURE_COUNT;
use certnn_sim::scenario::generate_dataset;
use certnn_verify::bab::DEFAULT_ALPHA_ITERS;
use certnn_verify::encoder::{encode, BoundMethod};
use certnn_verify::sealed::Fnv1a;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_coeff() -> impl Strategy<Value = f64> {
    // Integer quarters keep the arithmetic tame so the 1e-9 objective
    // comparison below is about pivoting, not float noise.
    (-12i32..=12).prop_map(|v| v as f64 / 4.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solve a random LP cold, snapshot its basis, tighten the bounds
    /// (the branch-and-bound child-node pattern), and re-solve both ways:
    /// statuses must match exactly and optimal objectives to 1e-9.
    #[test]
    fn warm_resolve_matches_cold_on_randomized_lps(
        n_vars in 2usize..5,
        n_rows in 1usize..4,
        c in prop::collection::vec(small_coeff(), 4),
        a in prop::collection::vec(small_coeff(), 12),
        b in prop::collection::vec((-4i32..=10).prop_map(|v| v as f64 / 2.0), 3),
        lo in prop::collection::vec((-4i32..=0).prop_map(|v| v as f64), 4),
        span in prop::collection::vec((1i32..=6).prop_map(|v| v as f64), 4),
        shrink_lo in prop::collection::vec(0u32..=4, 4),
        shrink_hi in prop::collection::vec(0u32..=4, 4),
    ) {
        let mut m = LpModel::new(Sense::Maximize);
        let vars: Vec<_> = (0..n_vars)
            .map(|i| m.add_var(&format!("x{i}"), lo[i], lo[i] + span[i]))
            .collect();
        m.set_objective(
            &vars.iter().enumerate().map(|(i, &v)| (v, c[i])).collect::<Vec<_>>(),
        );
        for r in 0..n_rows {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, a[r * 4 + i]))
                .collect();
            m.add_row(&format!("r{r}"), &coeffs, RowKind::Le, b[r]).unwrap();
        }
        let simplex = Simplex::new();
        let parent_bounds: Vec<(f64, f64)> =
            (0..n_vars).map(|i| (lo[i], lo[i] + span[i])).collect();
        let parent = simplex.solve_warm(&m, &parent_bounds, None).unwrap();
        prop_assume!(parent.solution.status == LpStatus::Optimal);
        let Some(warm) = parent.warm else {
            // Artificial variables left in the basis: nothing to warm from.
            return Ok(());
        };

        // Tighten each variable's range by up to 40% per side, as a
        // branching step would.
        let child_bounds: Vec<(f64, f64)> = (0..n_vars)
            .map(|i| {
                let (plo, phi) = parent_bounds[i];
                let w = phi - plo;
                (
                    plo + w * 0.1 * f64::from(shrink_lo[i]),
                    phi - w * 0.1 * f64::from(shrink_hi[i]),
                )
            })
            .map(|(a, b)| (a, b.max(a)))
            .collect();

        let cold = simplex.solve_with_bounds(&m, &child_bounds).unwrap();
        let warm_solve = simplex.solve_warm(&m, &child_bounds, Some(&warm)).unwrap();
        prop_assert_eq!(
            cold.status,
            warm_solve.solution.status,
            "cold {:?} vs warm {:?}",
            cold.status,
            warm_solve.solution.status
        );
        if cold.status == LpStatus::Optimal {
            let (co, wo) = (cold.objective, warm_solve.solution.objective);
            prop_assert!(
                (co - wo).abs() <= 1e-9 * (1.0 + co.abs()),
                "cold objective {co} vs warm objective {wo}"
            );
            // The warm answer must itself be feasible for the child.
            prop_assert!(m.is_feasible(&warm_solve.solution.x, 1e-6));
            for (x, &(blo, bhi)) in warm_solve.solution.x.iter().zip(&child_bounds) {
                prop_assert!(*x >= blo - 1e-7 && *x <= bhi + 1e-7);
            }
        }
    }
}

/// End-to-end: the full Table II smoke pipeline must produce bit-identical
/// rows across thread counts with warm starts on, and verdicts within the
/// `abs_gap` contract against the cold path.
#[test]
fn table2_smoke_is_thread_invariant_and_warm_cold_agree() {
    let mut config = Table2Config::smoke_test();
    config.run.threads = 1;
    let warm1 = run_table2(&config).unwrap();
    config.run.threads = 4;
    let warm4 = run_table2(&config).unwrap();
    config.run.threads = 1;
    config.run.warm_start = false;
    let cold1 = run_table2(&config).unwrap();

    // Bit-identical tables across thread counts (warm path).
    assert_eq!(warm1.rows.len(), warm4.rows.len());
    for (a, b) in warm1.rows.iter().zip(&warm4.rows) {
        assert_eq!(a.label, b.label);
        let (va, vb) = (a.max_lateral.unwrap(), b.max_lateral.unwrap());
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{}: 1-thread {va} vs 4-thread {vb}",
            a.label
        );
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.binaries, b.stats.binaries);
    }

    // Warm vs cold: identical verdicts, values within the gap contract.
    // (Node counts may differ — degenerate LPs admit multiple optimal
    // vertices, so branching orders can diverge — but answers may not.)
    let abs_gap = 1e-6;
    assert_eq!(warm1.rows.len(), cold1.rows.len());
    for (w, c) in warm1.rows.iter().zip(&cold1.rows) {
        assert_eq!(w.label, c.label);
        assert_eq!(w.max_lateral.is_some(), c.max_lateral.is_some());
        let (wv, cv) = (w.max_lateral.unwrap(), c.max_lateral.unwrap());
        assert!(
            (wv - cv).abs() <= 2.0 * abs_gap,
            "{}: warm {wv} vs cold {cv}",
            w.label
        );
        assert!(
            (w.upper_bound - c.upper_bound).abs() <= 2.0 * abs_gap,
            "{}: warm bound {} vs cold bound {}",
            w.label,
            w.upper_bound,
            c.upper_bound
        );
    }
    // The cold run by construction warm-starts nothing.
    for c in &cold1.rows {
        assert_eq!(c.stats.warm_solves, 0, "{}: cold run reported warm solves", c.label);
        assert_eq!(c.stats.pivots_saved, 0);
    }
    // The warm run actually exercises the warm path on these networks.
    let total_warm: usize = warm1.rows.iter().map(|r| r.stats.warm_solves).sum();
    assert!(total_warm > 0, "warm path never taken in the smoke pipeline");
}

/// Long dual walks on the big-M ReLU encoding: three seeded dives that pin
/// one random unfixed binary per step, each child warm-started from its
/// parent's snapshot, must agree with a cold solve of the same bounds. An
/// infeasible pin is checked the same way, then the dive takes the other
/// phase.
#[test]
fn warm_dives_on_the_big_m_encoding_match_cold() {
    let net = Network::relu_mlp(84, &[10, 10], 5, 11).unwrap();
    let enc = encode(&net, &left_vehicle_spec(), BoundMethod::Symbolic).unwrap();
    let mut lp = enc.milp.relaxation().clone();
    lp.set_objective(&[(enc.output_vars[0], 1.0)]);
    let root_bounds: Vec<(f64, f64)> =
        (0..lp.num_vars()).map(|i| lp.bounds(VarId::from_index(i))).collect();
    let binaries: Vec<VarId> = enc.relu_binaries.iter().flatten().copied().collect();
    assert!(binaries.len() >= 8, "only {} unstable neurons", binaries.len());

    let simplex = Simplex::new();
    let root = simplex.solve_warm(&lp, &root_bounds, None).unwrap();
    assert_eq!(root.solution.status, LpStatus::Optimal);
    let (mut warm_solves, mut warm_iterations) = (0usize, 0usize);
    for dive in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(dive);
        let mut bounds = root_bounds.clone();
        let mut warm = root.warm.clone().expect("root snapshot");
        let mut free = binaries.clone();
        for depth in 0..8 {
            let b = free.swap_remove(rng.gen_range(0..free.len()));
            let first = f64::from(rng.gen_range(0..2u32));
            let mut next = None;
            for phase in [first, 1.0 - first] {
                let mut child = bounds.clone();
                child[b.index()] = (phase, phase);
                let cold = simplex.solve_with_bounds(&lp, &child).unwrap();
                let ws = simplex.solve_warm(&lp, &child, Some(&warm)).unwrap();
                let at = format!("dive {dive}, depth {depth}, phase {phase}");
                assert_eq!(ws.solution.status, cold.status, "{at}");
                assert_eq!(ws.fallback, None, "{at}");
                warm_solves += usize::from(ws.warm_used);
                warm_iterations += ws.solution.iterations;
                if cold.status == LpStatus::Optimal {
                    let (w, c) = (ws.solution.objective, cold.objective);
                    assert!((w - c).abs() <= 1e-9 * (1.0 + c.abs()), "{at}: warm {w} cold {c}");
                    assert!(lp.is_feasible(&ws.solution.x, 1e-6), "{at}: infeasible warm point");
                    next = Some((child, ws.warm.expect("optimal warm solve has a snapshot")));
                    break;
                }
            }
            let Some((child, snapshot)) = next else { break };
            bounds = child;
            warm = snapshot;
        }
    }
    assert!(warm_solves >= 12, "only {warm_solves} solves stayed warm");
    assert!(warm_iterations > 0);
}

/// Folds everything a solve reports into `h`: status, objective,
/// iterations, whether it stayed warm, the fallback cause, `x` and the
/// duals.
fn hash_solve(h: &mut Fnv1a, ws: &WarmSolve) {
    let sol = &ws.solution;
    for word in [
        sol.status as u64,
        sol.objective.to_bits(),
        sol.iterations as u64,
        u64::from(ws.warm_used),
        ws.fallback.map_or(0, |e| e as u64 + 1),
    ] {
        h.write_u64(word);
    }
    for &v in sol.x.iter().chain(&sol.duals) {
        h.write_f64(v);
    }
}

/// The exact bits of the node LPs of one Table II smoke encoding: the
/// I4×4 predictor trained as the smoke run trains it, encoded as the
/// search encodes it, under the search's first objective. Its root is
/// solved cold and with a snapshot; every binary is pinned either way,
/// solved cold, warm from the root's basis and warm from the previous
/// child's; then a dive pins the binaries in turn, each child warm from
/// its parent. A rewrite of the LP path must reproduce every bit.
#[test]
fn table2_smoke_child_lp_bits_are_pinned() {
    let config = Table2Config::smoke_test();
    let mut raw = generate_dataset(&config.scenario).unwrap();
    highway_validator(1.0).sanitize(&mut raw);
    let data = Dataset::from_samples(raw);
    let layout = OutputLayout::new(config.mixture_components);
    let mut net = Network::relu_mlp(
        FEATURE_COUNT,
        &[config.widths[0]; 4],
        layout.output_len(),
        config.seed,
    )
    .unwrap();
    let train = TrainConfig {
        epochs: config.epochs,
        batch_size: 64,
        seed: config.seed,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    };
    let loss = GmmNll::new(config.mixture_components);
    Trainer::new(train).train(&mut net, &data, &loss).unwrap();
    let method = BoundMethod::AlphaOptimized {
        iters: DEFAULT_ALPHA_ITERS,
    };
    let enc = encode(&net, &left_vehicle_spec(), method).unwrap();
    let objective = &lateral_mean_objectives(layout)[0];
    let mut lp = enc.milp.relaxation().clone();
    let terms: Vec<_> = objective
        .terms
        .iter()
        .map(|&(o, c)| (enc.output_vars[o], c))
        .collect();
    lp.set_objective(&terms);
    let root_bounds: Vec<(f64, f64)> = (0..lp.num_vars())
        .map(|i| lp.bounds(VarId::from_index(i)))
        .collect();
    let binaries: Vec<VarId> = enc.relu_binaries.iter().flatten().copied().collect();
    assert_eq!(binaries.len(), 16, "not the smoke I4x4 encoding");

    let simplex = Simplex::new();
    let cold =
        |bounds: &[(f64, f64)]| WarmSolve::from(simplex.solve_with_bounds(&lp, bounds).unwrap());
    let warm = |bounds: &[(f64, f64)], basis: Option<&WarmStart>| {
        simplex.solve_warm(&lp, bounds, basis).unwrap()
    };
    let mut h = Fnv1a::new();
    hash_solve(&mut h, &cold(&root_bounds));
    let root = warm(&root_bounds, None);
    hash_solve(&mut h, &root);
    let root_basis = root.warm.expect("optimal root has a snapshot");
    let mut last = root_basis.clone();
    for &b in &binaries {
        for phase in [0.0, 1.0] {
            let mut child = root_bounds.clone();
            child[b.index()] = (phase, phase);
            hash_solve(&mut h, &cold(&child));
            hash_solve(&mut h, &warm(&child, Some(&root_basis)));
            let ws = warm(&child, Some(&last));
            hash_solve(&mut h, &ws);
            if let Some(next) = ws.warm {
                last = next;
            }
        }
    }
    let (mut bounds, mut parent, mut depth) = (root_bounds, root_basis, 0);
    'dive: for &b in &binaries {
        for phase in [1.0, 0.0] {
            let mut child = bounds.clone();
            child[b.index()] = (phase, phase);
            let ws = warm(&child, Some(&parent));
            hash_solve(&mut h, &ws);
            if let Some(next) = ws.warm {
                (bounds, parent, depth) = (child, next, depth + 1);
                continue 'dive;
            }
        }
        break;
    }
    assert!(depth >= 8, "the dive stopped at depth {depth}");
    let h = h.finish();
    assert_eq!(h, 0x5e9f_b569_547a_53d2, "node LP answers moved: {h:#018x}");
}
