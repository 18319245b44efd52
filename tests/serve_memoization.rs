//! Memoization over the wire: N identical submissions must cost exactly
//! one solve. The first is `Fresh`; every later one answers from the
//! in-memory job table or the on-disk certificate cache, observable
//! through the daemon's `serve.cache_hits` counter (plain stats, the obs
//! mirror, and the `METRICS` wire frame all agree).
//!
//! The obs registry is process-global and this test enables, resets and
//! reads it, so it lives in its own test binary: no daemon of another
//! test shares its process, and the obs mirror must match exactly.

use certnn_core::fleet::{fleet_dataset, member_seed, train_member, FleetConfig};
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_nn::gmm::OutputLayout;
use certnn_serve::client::Client;
use certnn_serve::protocol::{Disposition, JobRequest};
use certnn_serve::server::{ServeOptions, Server};

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

    let dir = std::env::temp_dir().join(format!("certnn-serve-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
                assert!(
                    outcome.cache_hit,
                    "resubmitted outcome must be cache-served"
                );
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
    // The obs mirror recorded exactly the same hits.
    assert_eq!(
        certnn_obs::counter("serve.cache_hits").get(),
        expected_hits,
        "obs serve.cache_hits mirror disagrees with the plain counter"
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
