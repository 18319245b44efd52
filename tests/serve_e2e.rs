//! End-to-end serve suite: the daemon must be a *transparent* substitute
//! for in-process verification.
//!
//! The smoke fleet verified over the wire
//! ([`certnn_serve::fleet::run_fleet_over`]) must produce verdicts,
//! verified maxima and solve records (every counter and the degradation
//! tag; only wall time may differ) identical to the in-process
//! [`certnn_core::fleet::run_fleet`]. Anything else means the service
//! path silently forked the verifier. A restarted daemon must answer
//! from its on-disk certificates. The memoization contract, which reads
//! the process-global obs registry, lives in `serve_memoization.rs`.

use certnn_core::fleet::{
    fleet_dataset, member_seed, train_member, FleetConfig, FleetMember,
};
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_nn::gmm::OutputLayout;
use certnn_serve::client::Client;
use certnn_serve::fleet::run_fleet_over;
use certnn_serve::protocol::{Disposition, JobRequest};
use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::verifier::VerifyStats;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certnn-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn wire_fleet_is_bit_identical_to_in_process_fleet() {
    let config = FleetConfig::smoke_test();
    let local = certnn_core::fleet::run_fleet(&config).expect("local fleet runs");

    let dir = temp_dir("fleet");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let remote = run_fleet_over(server.addr(), &config).expect("wire fleet runs");
    drop(server);

    assert_eq!(local.samples, remote.samples);
    assert_eq!(local.members.len(), remote.members.len());
    for (a, b) in local.members.iter().zip(&remote.members) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.final_loss.to_bits(),
            b.final_loss.to_bits(),
            "training drifted between paths (seed {})",
            a.seed
        );
        assert_eq!(
            a.verified_max.map(f64::to_bits),
            b.verified_max.map(f64::to_bits),
            "verified maximum drifted on seed {}: local {:?} vs wire {:?}",
            a.seed,
            a.verified_max,
            b.verified_max
        );
        assert_eq!(a.safe, b.safe, "safety verdict drifted on seed {}", a.seed);
        let untimed = |m: &FleetMember| VerifyStats {
            elapsed: Duration::ZERO,
            ..m.stats
        };
        assert_eq!(untimed(a), untimed(b), "solve record drifted on seed {}", a.seed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_daemon_answers_from_the_persistent_cache() {
    let config = FleetConfig::smoke_test();
    let (data, _) = fleet_dataset(&config).expect("dataset");
    let (net, _) = train_member(&config, member_seed(1), &data).expect("training");
    let spec = left_vehicle_spec();
    let objectives = lateral_mean_objectives(OutputLayout::new(1));
    let opts = config.run.verifier_options(1);
    let req = JobRequest::from_query(&net, &spec, &objectives[0], &opts, None);

    let dir = temp_dir("restart");
    let fresh = {
        let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let submitted = client.submit(&req).expect("submit");
        assert_eq!(submitted.disposition, Disposition::Fresh);
        client.result(submitted.job).expect("result")
    };

    // Same directory, new daemon: the certificate must survive.
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon restarts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let submitted = client.submit(&req).expect("submit");
    assert_eq!(
        submitted.disposition,
        Disposition::CacheHit,
        "restarted daemon must answer from the on-disk certificate"
    );
    let cached = client.result(submitted.job).expect("result");
    assert!(cached.cache_hit);
    assert_eq!(cached.status, fresh.status);
    assert_eq!(cached.upper_bound.to_bits(), fresh.upper_bound.to_bits());
    assert_eq!(
        cached.best_value.map(f64::to_bits),
        fresh.best_value.map(f64::to_bits)
    );
    assert_eq!(server.stats().get("serve.jobs_completed"), 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
