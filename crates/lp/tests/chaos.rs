//! Chaos suite for the LP layer: under injected faults no panic crosses
//! the public API, detection surfaces typed [`SolveError`]s, and any
//! result that does come back optimal is the *correct* optimum.
//!
//! Runs only with `--features fault-inject`.

#![cfg(feature = "fault-inject")]

use certnn_lp::fault::{self, FaultPlan};
use certnn_lp::{
    Deadline, LpError, LpModel, LpStatus, RowKind, Sense, Simplex, SolveError,
};
use std::time::{Duration, Instant};

/// A small LP with a known optimum (objective 36 at (2, 6)).
fn reference_model() -> (LpModel, f64) {
    let mut m = LpModel::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, f64::INFINITY);
    let y = m.add_var("y", 0.0, f64::INFINITY);
    m.set_objective(&[(x, 3.0), (y, 5.0)]);
    m.add_row("r1", &[(x, 1.0)], RowKind::Le, 4.0).unwrap();
    m.add_row("r2", &[(y, 2.0)], RowKind::Le, 12.0).unwrap();
    m.add_row("r3", &[(x, 3.0), (y, 2.0)], RowKind::Le, 18.0)
        .unwrap();
    (m, 36.0)
}

/// A denser LP that takes enough pivots for mid-solve faults to land.
fn bigger_model() -> LpModel {
    let mut m = LpModel::new(Sense::Maximize);
    let vars: Vec<_> = (0..12)
        .map(|i| m.add_var(&format!("v{i}"), 0.0, 3.0 + (i % 4) as f64))
        .collect();
    let mut seed = 987654321u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    m.set_objective(
        &vars
            .iter()
            .map(|&v| (v, next().abs() + 0.1))
            .collect::<Vec<_>>(),
    );
    for r in 0..8 {
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
        m.add_row(&format!("r{r}"), &coeffs, RowKind::Le, 2.0 + r as f64 * 0.5)
            .unwrap();
    }
    m
}

#[test]
fn nan_poisoning_is_detected_never_panics_and_optima_stay_correct() {
    let _g = fault::serial_guard();
    let (m, expected) = reference_model();
    let big = bigger_model();
    let clean_big = {
        fault::clear();
        Simplex::new().solve(&big).unwrap()
    };
    assert_eq!(clean_big.status, LpStatus::Optimal);

    fault::install(FaultPlan::nan_only(4));
    let mut detected = 0usize;
    for _ in 0..60 {
        for (model, reference) in [(&m, expected), (&big, clean_big.objective)] {
            match Simplex::new().solve(model) {
                Ok(sol) => {
                    if sol.status == LpStatus::Optimal {
                        assert!(
                            (sol.objective - reference).abs() < 1e-6,
                            "poisoned solve claimed optimal with wrong objective: \
                             got {}, want {}",
                            sol.objective,
                            reference
                        );
                    }
                }
                Err(LpError::Solve(SolveError::NumericalPoison)) => detected += 1,
                Err(LpError::Solve(_)) => {}
                Err(e) => panic!("unexpected structural error under NaN fault: {e}"),
            }
        }
    }
    fault::clear();
    assert!(
        detected > 0,
        "NaN detection never fired across 120 poisoned solves"
    );
}

#[test]
fn forced_singular_bases_surface_as_typed_errors() {
    let _g = fault::serial_guard();
    let (m, expected) = reference_model();
    fault::install(FaultPlan::singular_only(2));
    let mut detected = 0usize;
    for _ in 0..40 {
        match Simplex::new().solve(&m) {
            Ok(sol) => {
                if sol.status == LpStatus::Optimal {
                    assert!((sol.objective - expected).abs() < 1e-6);
                }
            }
            Err(LpError::Solve(SolveError::SingularBasis)) => detected += 1,
            Err(e) => panic!("unexpected error under singular fault: {e}"),
        }
    }
    fault::clear();
    assert!(detected > 0, "singular-basis detection never fired");
}

#[test]
fn warm_path_faults_fall_back_cold_and_record_the_cause() {
    let _g = fault::serial_guard();
    let (m, expected) = reference_model();
    fault::clear();
    let bounds: Vec<(f64, f64)> = (0..m.num_vars())
        .map(|i| m.bounds(certnn_lp::VarId::from_index(i)))
        .collect();
    let root = Simplex::new().solve_warm(&m, &bounds, None).unwrap();
    let warm = root.warm.expect("optimal root has a snapshot");

    // Singular faults fire on the *first* refactorisation — the warm
    // tableau build — so every warm attempt on the odd polls errors out
    // and must recover through the cold rung with the cause recorded.
    fault::install(FaultPlan::singular_only(2));
    let mut tagged = 0usize;
    for _ in 0..20 {
        let mut child = bounds.clone();
        child[0] = (1.0, child[0].1);
        match Simplex::new().solve_warm(&m, &child, Some(&warm)) {
            Ok(ws) => {
                if ws.fallback.is_some() {
                    assert!(!ws.warm_used, "error-driven fallback cannot be warm");
                    tagged += 1;
                }
                if ws.solution.status == LpStatus::Optimal {
                    assert!(
                        ws.solution.objective <= expected + 1e-6,
                        "child optimum above parent optimum"
                    );
                }
            }
            // The cold rung can itself hit the next scheduled fault.
            Err(LpError::Solve(_)) => {}
            Err(e) => panic!("unexpected structural error: {e}"),
        }
    }
    fault::clear();
    assert!(tagged > 0, "no error-driven cold fallback was ever recorded");
}

/// A model guaranteed to need more pivots than one deadline-check batch,
/// so mid-solve expiry is actually observable.
fn stall_model() -> LpModel {
    let mut m = LpModel::new(Sense::Maximize);
    let vars: Vec<_> = (0..30)
        .map(|i| m.add_var(&format!("v{i}"), 0.0, 3.0 + (i % 5) as f64))
        .collect();
    let mut seed = 55555u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    m.set_objective(
        &vars
            .iter()
            .map(|&v| (v, next().abs() + 0.1))
            .collect::<Vec<_>>(),
    );
    for r in 0..20 {
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
        m.add_row(&format!("r{r}"), &coeffs, RowKind::Le, 2.0 + r as f64 * 0.3)
            .unwrap();
    }
    m
}

#[test]
fn stalls_plus_deadline_produce_prompt_deadline_status() {
    let _g = fault::serial_guard();
    let big = stall_model();
    fault::clear();
    let clean = Simplex::new().solve(&big).unwrap();
    assert!(
        clean.iterations > 16,
        "precondition: model must outlast one deadline batch, took {}",
        clean.iterations
    );

    // Every pivot-batch poll sleeps 2ms against a 5ms budget: the solve
    // must notice expiry cooperatively and return within a small multiple
    // of the budget instead of grinding to completion.
    fault::install(FaultPlan::stall_only(1, 2));
    let budget = Duration::from_millis(5);
    let t0 = Instant::now();
    let sol = Simplex::new()
        .with_deadline(Deadline::after(budget))
        .solve(&big)
        .unwrap();
    let elapsed = t0.elapsed();
    fault::clear();
    assert_eq!(sol.status, LpStatus::Deadline);
    assert!(
        elapsed < Duration::from_millis(500),
        "deadline exit took {elapsed:?}"
    );
}

#[test]
fn cancellation_is_observed_without_wall_clock_expiry() {
    let _g = fault::serial_guard();
    fault::clear();
    let (m, _) = reference_model();
    let d = Deadline::cancellable();
    d.cancel();
    let sol = Simplex::new().with_deadline(d).solve(&m).unwrap();
    assert_eq!(sol.status, LpStatus::Deadline);
}
