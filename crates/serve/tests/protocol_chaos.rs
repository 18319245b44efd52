//! The serve protocol under injected solver faults. The fault plan is
//! process-global, so this suite lives in its own test binary: armed
//! faults must not reach the honest-traffic probes of
//! `protocol_robustness.rs` running on parallel test threads.

#![cfg(feature = "fault-inject")]

use certnn_linalg::Interval;
use certnn_nn::network::Network;
use certnn_serve::cache::Store;
use certnn_serve::client::Client;
use certnn_serve::protocol::JobRequest;
use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::VerifierOptions;

/// With seeded solver faults armed, injected failures must surface as
/// *degraded but sound* outcomes over the wire — never as protocol
/// failures, daemon crashes or hung workers.
#[test]
fn injected_solver_faults_degrade_jobs_not_the_protocol() {
    certnn_lp::fault::install(certnn_lp::fault::FaultPlan::seeded(7));
    let dir = std::env::temp_dir().join(format!("certnn-serve-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    for seed in 0..6u64 {
        let net = Network::relu_mlp(3, &[6, 6], 1, 2000 + seed).expect("tiny net");
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).expect("box");
        let req = JobRequest::from_query(
            &net,
            &spec,
            &LinearObjective::output(0),
            &VerifierOptions::default(),
            None,
        );
        let submitted = client.submit(&req).expect("submits");
        let outcome = client.result(submitted.job).expect("job finishes despite faults");
        // Sound answer: the proven upper bound dominates any witness.
        if let Some(best) = outcome.best_value {
            assert!(
                outcome.upper_bound >= best - 1e-6,
                "unsound bound under fault injection: {} < {best}",
                outcome.upper_bound
            );
        }
    }
    assert!(
        !Store::open(&dir).expect("store opens").has_temp_files(),
        "a publication leaked a temp file"
    );
    drop(server);
    certnn_lp::fault::clear();
    let _ = std::fs::remove_dir_all(&dir);
}
