//! Workspace-level observability checks: the `certnn-obs` layer drained
//! after a real verification run must produce schema-valid JSONL, serial
//! and parallel runs must report the same metric vocabulary, and — the
//! load-bearing property — switching tracing on must not change a single
//! bit of any verdict.
//!
//! The obs layer is process-global (registry, rings, runtime switch), so
//! every test serialises on one mutex and resets the layer around itself.

use certnn_linalg::Interval;
use certnn_nn::network::Network;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Engine, MaxResult, Verifier, VerifierOptions};
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serialises obs-global tests and leaves the layer off and empty.
fn guarded() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    certnn_obs::set_enabled(false);
    certnn_obs::reset();
    guard
}

/// A small seeded query with enough unstable neurons to branch.
fn run_query(threads: usize) -> MaxResult {
    let net = Network::relu_mlp(4, &[10, 8], 1, 23).expect("fixture network");
    let spec =
        InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 4]).expect("unit box");
    let obj = LinearObjective::output(0);
    // The network has 18 ReLUs, so Auto, which routes by the root's
    // unstable count, would hand the query off at the root; force neuron
    // branching so the phase rule's spans and counters are exercised.
    Verifier::with_options(VerifierOptions {
        engine: Engine::HybridBab,
        threads,
        ..VerifierOptions::default()
    })
    .maximize(&net, &spec, &obj)
    .expect("query verifies")
}

/// Metric names every observed verification run must produce.
const CORE_METRICS: [&str; 6] = [
    "lp.warm_solves",
    "lp.cold_solves",
    "bab.nodes",
    "bab.incumbent_updates",
    "milp.solves",
    "obs.phase.bound",
];

#[test]
fn traced_verification_drains_schema_valid_jsonl() {
    let _guard = guarded();
    certnn_obs::set_enabled(true);
    let result = run_query(2);
    assert!(result.is_exact(), "fixture query must close");
    let text = certnn_obs::drain_jsonl();
    certnn_obs::set_enabled(false);

    let summary = certnn_obs::jsonl::validate_trace(&text).expect("valid JSONL");
    assert!(summary.spans >= 2, "expected bab.run + worker spans");
    assert!(summary.has_metrics && summary.has_profile);
    for name in CORE_METRICS {
        let found = summary.counter_names.iter().any(|n| n == name)
            || summary.histogram_names.iter().any(|n| n == name);
        assert!(found, "trace metrics missing `{name}`");
    }
    // Every phase the profiler knows about uses the documented names.
    for phase in &summary.phase_names {
        assert!(
            certnn_obs::PHASES.iter().any(|p| p.as_str() == phase),
            "unknown phase `{phase}` in profile record"
        );
    }
}

#[test]
fn serial_and_parallel_runs_emit_identical_metric_names() {
    let _guard = guarded();
    certnn_obs::set_enabled(true);
    run_query(1);
    let serial: Vec<&str> = certnn_obs::metrics_snapshot().names();
    certnn_obs::reset();
    run_query(4);
    let parallel: Vec<&str> = certnn_obs::metrics_snapshot().names();
    certnn_obs::set_enabled(false);

    assert_eq!(serial, parallel, "metric vocabulary differs serial vs parallel");
    for name in CORE_METRICS {
        assert!(serial.contains(&name), "serial run missing `{name}`");
    }
}

#[test]
fn verdicts_are_bit_identical_with_tracing_on_and_off() {
    let _guard = guarded();
    let off = run_query(1);
    certnn_obs::set_enabled(true);
    let on = run_query(1);
    certnn_obs::set_enabled(false);
    certnn_obs::reset();

    assert_eq!(off.status, on.status);
    assert_eq!(
        off.upper_bound.to_bits(),
        on.upper_bound.to_bits(),
        "tracing changed the proven bound"
    );
    assert_eq!(
        off.best_value.map(f64::to_bits),
        on.best_value.map(f64::to_bits),
        "tracing changed the witness value"
    );
    assert_eq!(off.stats.nodes, on.stats.nodes, "tracing changed the search");
}
