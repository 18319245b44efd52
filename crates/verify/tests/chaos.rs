//! Chaos suite for the verification layer: injected worker panics,
//! numeric faults and stalls must never cross the public API as a crash,
//! every verdict must carry a sound bound, and the reported
//! [`Degradation`] must say honestly how the answer was obtained.
//!
//! Runs only with `--features fault-inject`.

#![cfg(feature = "fault-inject")]

use certnn_lp::fault::{self, FaultPlan};
use certnn_linalg::{Interval, Vector};
use certnn_milp::MilpStatus;
use certnn_nn::network::Network;
use certnn_verify::bab::{bab_maximize, BabOptions};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use certnn_verify::{Deadline, Degradation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn fixture(seed: u64) -> (Network, InputSpec, LinearObjective) {
    let net = Network::relu_mlp(4, &[10, 10], 1, seed).unwrap();
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 4]).unwrap();
    (net, spec, LinearObjective::output(0))
}

/// Fault-free exact maximum, the soundness reference for every chaos run.
fn clean_exact(net: &Network, spec: &InputSpec, obj: &LinearObjective) -> f64 {
    fault::clear();
    let r = bab_maximize(net, spec, obj, &BabOptions::default()).unwrap();
    assert_eq!(r.status, MilpStatus::Optimal);
    assert_eq!(r.stats.degradation, Degradation::Exact);
    r.best_value.unwrap()
}

/// A sampled lower bound on the true maximum: any sound upper bound must
/// dominate it regardless of what the faults destroyed.
fn sampled_floor(net: &Network, n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut best = f64::NEG_INFINITY;
    for _ in 0..n {
        let x: Vector = (0..net.inputs()).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        best = best.max(net.forward(&x).unwrap()[0]);
    }
    best
}

#[test]
fn injected_worker_panics_are_isolated_and_bounds_stay_sound() {
    let _g = fault::serial_guard();
    let (net, spec, obj) = fixture(17);
    let exact = clean_exact(&net, &spec, &obj);
    // Every third node attempt panics mid-processing, across two workers.
    // The per-node catch_unwind must retry or fold each one: no panic may
    // cross bab_maximize, and the bound must still dominate the optimum.
    fault::install(FaultPlan::panic_only(3));
    let opts = BabOptions {
        threads: 2,
        ..BabOptions::default()
    };
    let mut degraded = 0usize;
    for _ in 0..4 {
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert!(
            r.upper_bound >= exact - 1e-6,
            "unsound bound {} < optimum {exact} (status {:?})",
            r.upper_bound,
            r.status
        );
        // Incumbents are genuine forward passes even under panics.
        if let (Some(w), Some(v)) = (&r.witness, r.best_value) {
            assert!((net.forward(w).unwrap()[0] - v).abs() < 1e-6);
            assert!(v <= exact + 1e-6, "witness value above the true maximum");
        }
        if r.stats.degradation > Degradation::Exact {
            degraded += 1;
        }
    }
    fault::clear();
    assert!(degraded > 0, "panics every 3 nodes never surfaced in 4 runs");
}

#[test]
fn total_panic_storm_still_returns_a_sound_interval_verdict() {
    let _g = fault::serial_guard();
    let (net, spec, obj) = fixture(17);
    let exact = clean_exact(&net, &spec, &obj);
    // Every node attempt panics: retries are exhausted immediately and
    // every subtree folds into the dropped-bound accumulator. The search
    // must terminate (not hang) with the root interval/symbolic bound and
    // an honest degradation tag.
    fault::install(FaultPlan::panic_only(1));
    let r = bab_maximize(&net, &spec, &obj, &BabOptions::default()).unwrap();
    fault::clear();
    assert!(
        r.upper_bound >= exact - 1e-6,
        "unsound bound {} < optimum {exact}",
        r.upper_bound
    );
    assert!(
        r.stats.degradation >= Degradation::IntervalOnly,
        "storm run must report interval degradation, got {:?}",
        r.stats.degradation
    );
    assert_ne!(
        r.status,
        MilpStatus::Optimal,
        "nothing was explored; claiming optimality would be a lie"
    );
}

#[test]
fn dense_numeric_faults_keep_the_hybrid_search_sound() {
    let _g = fault::serial_guard();
    let (net, spec, obj) = fixture(29);
    let exact = clean_exact(&net, &spec, &obj);
    // Hammer every other refactorisation: phase-rule and LP-rule solves
    // keep failing into the interval rungs of the ladder. With LP pruning
    // mostly gone the phase tree degenerates towards full enumeration, so
    // cap the nodes — the bound must be sound however the search stops.
    fault::install(FaultPlan::singular_only(2));
    let opts = BabOptions {
        node_limit: Some(300),
        ..BabOptions::default()
    };
    for _ in 0..3 {
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert!(
            r.upper_bound >= exact - 1e-6,
            "unsound bound {} < optimum {exact} (status {:?}, degradation {:?})",
            r.upper_bound,
            r.status,
            r.stats.degradation
        );
        if r.status == MilpStatus::Optimal {
            assert!((r.best_value.unwrap() - exact).abs() < 1e-5);
        }
    }
    fault::clear();
}

#[test]
fn nan_poisoning_cannot_tighten_a_verify_bound_past_the_optimum() {
    let _g = fault::serial_guard();
    let (net, spec, obj) = fixture(29);
    let exact = clean_exact(&net, &spec, &obj);
    // Node-capped for the same reason as the singular-fault test: dense
    // poisoning disables LP pruning and the uncapped tree is huge.
    fault::install(FaultPlan::nan_only(5));
    let opts = BabOptions {
        node_limit: Some(300),
        ..BabOptions::default()
    };
    for _ in 0..3 {
        let r = bab_maximize(&net, &spec, &obj, &opts).unwrap();
        assert!(
            r.upper_bound >= exact - 1e-6,
            "NaN poisoning produced unsound bound {} < {exact}",
            r.upper_bound
        );
    }
    fault::clear();
}

#[test]
fn stalled_pivots_plus_deadline_time_out_promptly_and_honestly() {
    let _g = fault::serial_guard();
    let (net, _, _) = fixture(41);
    let floor = sampled_floor(&net, 500);
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 4]).unwrap();
    let obj = LinearObjective::output(0);
    // Every pivot batch sleeps 3ms against a 10ms budget: expiry must be
    // caught inside the LP layer, surface as TimeLimit + TimedOut in the
    // verifier stats, and still report a bound above the sampled floor.
    fault::install(FaultPlan::stall_only(1, 3));
    let v = Verifier::with_options(VerifierOptions {
        engine: Engine::HybridBab,
        time_limit: Some(Duration::from_millis(10)),
        ..VerifierOptions::default()
    });
    let t0 = Instant::now();
    let r = v.maximize(&net, &spec, &obj).unwrap();
    let elapsed = t0.elapsed();
    fault::clear();
    assert_eq!(r.status, MilpStatus::TimeLimit);
    assert_eq!(r.stats.degradation, Degradation::TimedOut);
    assert!(
        elapsed < Duration::from_millis(1000),
        "deadline exit took {elapsed:?} against a 10ms budget"
    );
    assert!(
        r.upper_bound >= floor - 1e-6,
        "timed-out bound {} below sampled reachable value {floor}",
        r.upper_bound
    );
}

#[test]
fn ambient_cancellation_preempts_a_query_through_the_verifier() {
    let _g = fault::serial_guard();
    fault::clear();
    let (net, spec, obj) = fixture(53);
    let floor = sampled_floor(&net, 200);
    let d = Deadline::cancellable();
    d.cancel();
    for engine in [Engine::HybridBab, Engine::Milp] {
        let v = Verifier::with_options(VerifierOptions {
            engine,
            ..VerifierOptions::default()
        })
        .with_deadline(d.clone());
        let t0 = Instant::now();
        let r = v.maximize(&net, &spec, &obj).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "cancelled {engine:?} query did not return promptly"
        );
        assert_eq!(r.status, MilpStatus::TimeLimit, "engine {engine:?}");
        assert_eq!(r.stats.degradation, Degradation::TimedOut, "engine {engine:?}");
        assert!(r.upper_bound >= floor - 1e-6, "engine {engine:?}");
    }
}

#[test]
fn fault_free_queries_report_exact_degradation_on_both_engines() {
    let _g = fault::serial_guard();
    fault::clear();
    let (net, spec, obj) = fixture(61);
    let mut values = Vec::new();
    for engine in [Engine::HybridBab, Engine::Milp] {
        let v = Verifier::with_options(VerifierOptions {
            engine,
            ..VerifierOptions::default()
        });
        let r = v.maximize(&net, &spec, &obj).unwrap();
        assert!(r.is_exact(), "engine {engine:?}");
        assert_eq!(r.stats.degradation, Degradation::Exact, "engine {engine:?}");
        values.push(r.exact_max().unwrap());
    }
    assert!(
        (values[0] - values[1]).abs() < 1e-5,
        "engines disagree under no faults: {values:?}"
    );
}
