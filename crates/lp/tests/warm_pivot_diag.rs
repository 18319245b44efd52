//! Warm re-solves must be cheaper than cold solves on the branching
//! pattern (tighten one bound through the parent optimum). Guards the
//! dual-simplex warm start against pivot-count regressions.

use certnn_lp::{LpModel, LpStatus, RowKind, Sense, Simplex};

fn medium_lp(n: usize, m: usize, seed: u64) -> (LpModel, Vec<(f64, f64)>) {
    // Deterministic pseudo-random coefficients via a simple LCG.
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // in [-1, 1)
    };
    let mut model = LpModel::new(Sense::Maximize);
    let mut bounds = Vec::new();
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let lo = -2.0 + next();
            let hi = lo + 2.0 + (next() + 1.0) * 2.0;
            bounds.push((lo, hi));
            model.add_var(&format!("x{i}"), lo, hi)
        })
        .collect();
    let obj: Vec<_> = vars.iter().map(|&v| (v, next() * 3.0)).collect();
    model.set_objective(&obj);
    for r in 0..m {
        // Sparse rows: ~25% fill.
        let coeffs: Vec<_> = vars
            .iter()
            .filter_map(|&v| {
                let c = next();
                (c.abs() < 0.25).then_some((v, c * 4.0))
            })
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let rhs = 1.0 + (next() + 1.0) * 3.0;
        model
            .add_row(&format!("r{r}"), &coeffs, RowKind::Le, rhs)
            .unwrap();
    }
    (model, bounds)
}

#[test]
fn warm_resolve_beats_cold_on_branching_pattern() {
    let simplex = Simplex::new();
    let mut warm_total = 0usize;
    let mut cold_total = 0usize;
    for seed in 0..6u64 {
        let (model, bounds) = medium_lp(60, 40, seed + 1);
        let parent = simplex.solve_warm(&model, &bounds, None).unwrap();
        if parent.solution.status != LpStatus::Optimal {
            println!("seed {seed}: parent {:?}", parent.solution.status);
            continue;
        }
        let Some(warm) = parent.warm else {
            println!("seed {seed}: no snapshot");
            continue;
        };
        // Child: tighten ONE bound through the parent optimum (the
        // branching pattern).
        let mut child = bounds.clone();
        let xi = parent
            .solution
            .x
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let x = parent.solution.x[xi];
        child[xi].1 = x - 0.25 * (child[xi].1 - child[xi].0).min(1.0);
        child[xi].1 = child[xi].1.max(child[xi].0);

        let cold = simplex.solve_with_bounds(&model, &child).unwrap();
        let ws = simplex.solve_warm(&model, &child, Some(&warm)).unwrap();
        println!(
            "seed {seed}: parent {} pivots; child cold {} pivots ({:?}) vs warm {} pivots ({:?}, used={})",
            parent.solution.iterations,
            cold.iterations,
            cold.status,
            ws.solution.iterations,
            ws.solution.status,
            ws.warm_used,
        );
        assert_eq!(cold.status, ws.solution.status);
        if cold.status == LpStatus::Optimal {
            assert!((cold.objective - ws.solution.objective).abs() < 1e-7);
        }
        assert!(ws.warm_used, "seed {seed}: basis rejected on a clean re-solve");
        warm_total += ws.solution.iterations;
        cold_total += cold.iterations;

        // Many-bound perturbation (the stale-cache pattern): shift every
        // bound slightly.
        let mut shifted = bounds.clone();
        for b in shifted.iter_mut() {
            let w = b.1 - b.0;
            b.0 += 0.02 * w;
            b.1 -= 0.02 * w;
        }
        let cold2 = simplex.solve_with_bounds(&model, &shifted).unwrap();
        let ws2 = simplex.solve_warm(&model, &shifted, Some(&warm)).unwrap();
        println!(
            "         many-bounds: cold {} pivots ({:?}) vs warm {} pivots ({:?}, used={})",
            cold2.iterations,
            cold2.status,
            ws2.solution.iterations,
            ws2.solution.status,
            ws2.warm_used,
        );
        assert_eq!(cold2.status, ws2.solution.status);
    }
    // Aggregate over all seeds: the warm re-solve must cost well under half
    // the cold pivots (in practice it is 0-4 vs 50-100 per solve).
    println!("totals: warm {warm_total} pivots vs cold {cold_total}");
    assert!(
        warm_total * 2 < cold_total,
        "warm re-solves ({warm_total} pivots) lost their edge over cold ({cold_total})"
    );
}
