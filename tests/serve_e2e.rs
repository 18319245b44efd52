//! End-to-end serve suite: the daemon must be a *transparent* substitute
//! for in-process verification.
//!
//! Two contracts are held here:
//!
//! 1. **Bit-identity.** The smoke fleet verified over the wire
//!    ([`certnn_serve::fleet::run_fleet_over`]) must produce verdicts,
//!    verified maxima and solve records (every counter and the
//!    degradation tag; only wall time may differ) identical to the
//!    in-process [`certnn_core::fleet::run_fleet`]. Anything else means
//!    the service path silently forked the verifier.
//! 2. **Memoization.** N identical submissions must cost exactly one
//!    solve: the first is `Fresh`, every later one answers from the
//!    in-memory job table or the on-disk certificate cache, observable
//!    through the daemon's `serve.cache_hits` counter (plain stats, the
//!    obs mirror, and the `METRICS` wire frame all agree).

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
fn identical_submissions_cost_exactly_one_solve() {
    const N: usize = 4;
    certnn_obs::set_enabled(true);
    certnn_obs::reset();

    let config = FleetConfig::smoke_test();
    let (data, _) = fleet_dataset(&config).expect("dataset");
    let (net, _) = train_member(&config, member_seed(0), &data).expect("training");
    let spec = left_vehicle_spec();
    let layout = OutputLayout::new(1);
    let objectives = lateral_mean_objectives(layout);
    let opts = config.run.verifier_options(config.fleet_size);

    let dir = temp_dir("cache");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("client connects");

    let mut reference = Vec::new();
    for round in 0..N {
        for (k, obj) in objectives.iter().enumerate() {
            let req = JobRequest::from_query(&net, &spec, obj, &opts, None);
            let submitted = client.submit(&req).expect("submit succeeds");
            if round == 0 {
                assert_eq!(
                    submitted.disposition,
                    Disposition::Fresh,
                    "first submission of objective {k} must solve"
                );
            }
            let outcome = client.result(submitted.job).expect("result arrives");
            assert_eq!(outcome.key, submitted.key);
            if round == 0 {
                assert!(!outcome.cache_hit, "first outcome must be a fresh solve");
                reference.push(outcome);
            } else {
                assert_ne!(
                    submitted.disposition,
                    Disposition::Fresh,
                    "resubmission of objective {k} (round {round}) must not re-solve"
                );
                assert!(outcome.cache_hit, "resubmitted outcome must be cache-served");
                let fresh = &reference[k];
                // The cached certificate replays the fresh solve
                // bit-for-bit (modulo the cache_hit flag itself).
                assert_eq!(outcome.status, fresh.status);
                assert_eq!(outcome.upper_bound.to_bits(), fresh.upper_bound.to_bits());
                assert_eq!(
                    outcome.best_value.map(f64::to_bits),
                    fresh.best_value.map(f64::to_bits)
                );
                assert_eq!(outcome.witness, fresh.witness);
                assert_eq!(outcome.stats, fresh.stats);
                assert_eq!(outcome.degradation, fresh.degradation);
            }
        }
    }

    let per_query = objectives.len() as u64;
    let expected_hits = (N as u64 - 1) * per_query;
    // Plain always-on stats.
    let stats = server.stats();
    assert_eq!(stats.get("serve.cache_misses"), per_query);
    assert_eq!(stats.get("serve.cache_hits"), expected_hits);
    assert_eq!(stats.get("serve.jobs_completed"), per_query);
    assert_eq!(stats.get("serve.jobs_submitted"), (N as u64) * per_query);
    // The obs mirror recorded the hits too. The obs registry is
    // process-global (concurrently running tests may add to it), so the
    // mirror is a floor, not an exact match; the per-daemon counters
    // above carry the exact contract.
    assert!(
        certnn_obs::counter("serve.cache_hits").get() >= expected_hits,
        "obs serve.cache_hits mirror missed hits recorded by the plain counter"
    );
    // And the METRICS wire frame agrees.
    let wire_stats = client.metrics().expect("metrics frame").counters;
    let get = |name: &str| {
        wire_stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing {name} in METRICS reply"))
    };
    assert_eq!(get("serve.cache_hits"), expected_hits);
    assert_eq!(get("serve.cache_misses"), per_query);
    assert_eq!(get("serve.jobs_completed"), per_query);

    drop(server);
    certnn_obs::set_enabled(false);
    certnn_obs::reset();
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
