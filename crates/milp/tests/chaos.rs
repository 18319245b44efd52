//! Chaos suite for the branch-and-bound layer: under injected LP faults
//! the search never crashes, climbs the retry ladder (warm → cold →
//! interval fallback), reports its degradation honestly, and every
//! reported `best_bound` stays sound against the known optimum.
//!
//! Runs only with `--features fault-inject`.

#![cfg(feature = "fault-inject")]

use certnn_lp::fault::{self, FaultPlan};
use certnn_milp::{
    BranchAndBound, Degradation, MilpModel, MilpOptions, MilpStatus, RowKind, Sense,
};
use std::time::{Duration, Instant};

/// Knapsack with optimum 23 ({a, b}) and a fractional root relaxation.
fn knapsack() -> (MilpModel, f64) {
    let mut m = MilpModel::new(Sense::Maximize);
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    let c = m.add_binary("c");
    let d = m.add_binary("d");
    m.set_objective(&[(a, 10.0), (b, 13.0), (c, 7.0), (d, 4.0)]);
    m.add_row(
        "cap",
        &[(a, 6.0), (b, 8.0), (c, 5.0), (d, 3.0)],
        RowKind::Le,
        14.0,
    )
    .unwrap();
    (m, 23.0)
}

/// Branching-heavy instance (equal weights) with many nodes, so injected
/// faults land mid-search rather than at the root.
fn branchy() -> (MilpModel, f64) {
    let mut m = MilpModel::new(Sense::Maximize);
    let vars: Vec<_> = (0..10).map(|i| m.add_binary(&format!("b{i}"))).collect();
    m.set_objective(
        &vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 5.0 + (i % 4) as f64 * 0.25))
            .collect::<Vec<_>>(),
    );
    m.add_row(
        "cap",
        &vars.iter().map(|&v| (v, 2.0)).collect::<Vec<_>>(),
        RowKind::Le,
        9.0,
    )
    .unwrap();
    let clean = BranchAndBound::new().solve(&m).unwrap();
    (m, clean.objective.unwrap())
}

#[test]
fn sparse_faults_recover_via_cold_rung_with_correct_answer() {
    let _g = fault::serial_guard();
    let (m, opt) = branchy();
    // A long period means isolated faults with clean stretches between
    // them: the ladder must recover every one without losing the optimum.
    fault::install(FaultPlan::singular_only(97));
    let mut degraded = 0usize;
    for _ in 0..8 {
        let sol = BranchAndBound::new().solve(&m).unwrap();
        if sol.status == MilpStatus::Optimal {
            assert!(
                (sol.objective.unwrap() - opt).abs() < 1e-6,
                "fault-hit search returned wrong optimum {:?}",
                sol.objective
            );
        }
        // Maximisation: the reported bound must never dip below the optimum.
        assert!(
            sol.best_bound >= opt - 1e-6,
            "unsound bound {} < optimum {opt}",
            sol.best_bound
        );
        if sol.degradation > Degradation::Exact {
            degraded += 1;
        }
    }
    fault::clear();
    assert!(degraded > 0, "faults with period 97 never surfaced in 8 runs");
}

#[test]
fn dense_faults_fold_interval_bounds_and_stay_sound() {
    let _g = fault::serial_guard();
    let (m, opt) = knapsack();
    // Period 2 hammers every other refactorisation: warm, cold and retry
    // rungs all fail regularly, forcing interval fallbacks. The search
    // must still terminate with a sound bound and honest degradation.
    fault::install(FaultPlan::singular_only(2));
    for _ in 0..20 {
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert!(
            sol.best_bound >= opt - 1e-6,
            "unsound bound {} < optimum {opt} (status {:?})",
            sol.best_bound,
            sol.status
        );
        if sol.status == MilpStatus::Optimal {
            assert!((sol.objective.unwrap() - opt).abs() < 1e-6);
        }
        if sol.status == MilpStatus::Aborted {
            assert!(
                sol.degradation >= Degradation::IntervalOnly,
                "aborted search must report at least interval degradation"
            );
        }
        // An incumbent, when claimed, must actually be feasible.
        if let Some(x) = &sol.x {
            assert!(m.is_feasible(x, 1e-6), "infeasible incumbent under faults");
        }
    }
    fault::clear();
}

#[test]
fn nan_poisoning_cannot_produce_a_wrong_verdict() {
    let _g = fault::serial_guard();
    let (m, opt) = branchy();
    fault::install(FaultPlan::nan_only(6));
    for _ in 0..10 {
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert!(sol.best_bound >= opt - 1e-6, "unsound bound under NaN");
        if sol.status == MilpStatus::Optimal {
            assert!(
                (sol.objective.unwrap() - opt).abs() < 1e-6,
                "poisoned search claimed wrong optimum {:?}",
                sol.objective
            );
        }
        assert_ne!(
            sol.status,
            MilpStatus::Infeasible,
            "feasible model declared infeasible under poisoning"
        );
    }
    fault::clear();
}

#[test]
fn stalled_pivots_plus_deadline_return_promptly_with_timed_out_tag() {
    let _g = fault::serial_guard();
    let (m, opt) = branchy();
    // Every pivot batch sleeps 2ms against a 10ms budget: expiry must be
    // observed inside the LP (not just between nodes) and reported as
    // TimeLimit with a TimedOut degradation and a still-sound bound.
    fault::install(FaultPlan::stall_only(1, 2));
    let t0 = Instant::now();
    let opts = MilpOptions {
        time_limit: Some(Duration::from_millis(10)),
        ..MilpOptions::default()
    };
    let sol = BranchAndBound::with_options(opts).solve(&m).unwrap();
    let elapsed = t0.elapsed();
    fault::clear();
    assert_eq!(sol.status, MilpStatus::TimeLimit);
    assert_eq!(sol.degradation, Degradation::TimedOut);
    assert!(
        elapsed < Duration::from_millis(1000),
        "deadline exit took {elapsed:?}"
    );
    assert!(sol.best_bound >= opt - 1e-6, "unsound bound at deadline");
}

#[test]
fn expired_time_limit_stops_the_search() {
    let _g = fault::serial_guard();
    fault::clear();
    let (m, opt) = branchy();
    let opts = MilpOptions {
        time_limit: Some(Duration::ZERO),
        ..MilpOptions::default()
    };
    let sol = BranchAndBound::with_options(opts).solve(&m).unwrap();
    assert_eq!(sol.status, MilpStatus::TimeLimit);
    assert_eq!(sol.degradation, Degradation::TimedOut);
    assert!(sol.best_bound >= opt - 1e-6);
    assert!(sol.nodes <= 1, "cancelled search explored {} nodes", sol.nodes);
}

#[test]
fn fault_free_runs_report_exact_degradation() {
    let _g = fault::serial_guard();
    fault::clear();
    let (m, opt) = knapsack();
    let sol = BranchAndBound::new().solve(&m).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(sol.degradation, Degradation::Exact);
    assert!((sol.objective.unwrap() - opt).abs() < 1e-6);
}
