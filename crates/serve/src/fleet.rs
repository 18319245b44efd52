//! The paper's fleet experiment, executed over the wire.
//!
//! [`run_fleet_over`] trains the same fleet the in-process
//! [`certnn_core::fleet::run_fleet`] trains — identical data, identical
//! seed schedule — but ships every verification query to a running
//! `certnn-serve` daemon instead of solving in-process. Training is
//! deterministic ([`certnn_core::fleet::train_member`]) and the daemon
//! solves under exactly
//! [`certnn_core::run::RunOptions::verifier_options`], so the two
//! paths produce **bit-identical** verdicts; the e2e suite holds them to
//! that. All member queries are submitted before any result is awaited,
//! so the daemon's worker pool supplies the parallelism that the local
//! path gets from its scoped threads.

use crate::client::Client;
use crate::protocol::{JobOutcome, JobRequest};
use crate::ServeError;
use certnn_core::fleet::{
    fleet_dataset, member_seed, train_member, FleetConfig, FleetMember, FleetResult,
};
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_nn::gmm::OutputLayout;
use certnn_verify::verifier::VerifyStats;
use std::net::ToSocketAddrs;
use std::time::Instant;

/// Runs the fleet experiment against the daemon at `addr`.
///
/// # Errors
///
/// [`ServeError::Core`] on data/training failure, [`ServeError::Remote`]
/// if the daemon rejects or fails a job, any wire error otherwise.
pub fn run_fleet_over(
    addr: impl ToSocketAddrs + Copy,
    config: &FleetConfig,
) -> Result<FleetResult, ServeError> {
    let (data, samples) = fleet_dataset(config)?;
    let layout = OutputLayout::new(1);
    let spec = left_vehicle_spec();
    let objectives = lateral_mean_objectives(layout);
    let opts = config.run.verifier_options(config.fleet_size);

    let mut client = Client::connect(addr)?;
    let mut pending = Vec::with_capacity(config.fleet_size);
    for i in 0..config.fleet_size {
        let seed = member_seed(i);
        let started = Instant::now();
        let (net, final_loss) = train_member(config, seed, &data)?;
        let jobs = objectives
            .iter()
            .map(|obj| {
                let req = JobRequest::from_query(&net, &spec, obj, &opts, None);
                client.submit(&req).map(|s| s.job)
            })
            .collect::<Result<Vec<u64>, ServeError>>()?;
        pending.push((seed, final_loss, started, jobs));
    }

    let mut members = Vec::with_capacity(config.fleet_size);
    for (seed, final_loss, started, jobs) in pending {
        let outcomes = jobs
            .into_iter()
            .map(|job| client.result(job))
            .collect::<Result<Vec<JobOutcome>, ServeError>>()?;
        members.push(member_from_outcomes(
            seed,
            final_loss,
            config.bound,
            started,
            &outcomes,
        ));
    }
    Ok(FleetResult {
        members,
        bound: config.bound,
        samples,
    })
}

/// Aggregates one member's per-component outcomes exactly as the
/// in-process [`certnn_core::scenario::max_lateral_velocity`] does.
fn member_from_outcomes(
    seed: u64,
    final_loss: f64,
    bound: f64,
    started: Instant,
    outcomes: &[JobOutcome],
) -> FleetMember {
    let mut stats = VerifyStats::default();
    for o in outcomes {
        stats.merge(&o.stats);
    }
    let verified_max = outcomes
        .iter()
        .map(JobOutcome::exact_max)
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.into_iter().fold(f64::NEG_INFINITY, f64::max));
    FleetMember {
        seed,
        final_loss,
        verified_max,
        safe: verified_max.map(|v| v <= bound),
        wall_secs: started.elapsed().as_secs_f64(),
        stats,
    }
}
