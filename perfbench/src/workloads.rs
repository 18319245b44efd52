//! The in-process `maximize` workload: its query set runs as a closed
//! loop — one query at a time through the public `certnn_core::scenario`
//! entry point — in passes.

use crate::checks::{check_lower, check_max};
use crate::gen::{layout, objectives, Query};
use crate::report::Report;
use certnn_core::scenario::{max_lateral_velocity, LateralVelocityResult};
use certnn_nn::network::Network;
use certnn_verify::verifier::{Verifier, VerifierOptions};
use std::time::Instant;

/// A verifier with default options on `threads` search threads.
/// `Engine::Auto` picks HybridBab for the 84-feature box.
///
/// The measured search is serial. With two threads on a two-core
/// machine, `maximize` spread 0.21–0.33 (IQR / median over ten seeds)
/// against 0.07–0.12 serially, too wide for any bound a
/// regression check could use. The traced run still measures the
/// two-thread search (`bab.speedup_2t`).
pub fn verifier(threads: usize) -> Verifier {
    Verifier::with_options(VerifierOptions {
        threads,
        ..VerifierOptions::default()
    })
}

/// Absolute optimality gap every answer must close.
pub fn abs_gap() -> f64 {
    VerifierOptions::default().abs_gap
}

/// What must repeat exactly when a serial search answers the same query
/// again: the answer's bits and its node and pivot counts.
fn signature(r: &LateralVelocityResult) -> Vec<u64> {
    r.per_component
        .iter()
        .flat_map(|m| {
            [
                m.upper_bound.to_bits(),
                m.best_value.map_or(0, f64::to_bits),
                m.stats.nodes as u64,
                m.stats.lp_iterations as u64,
            ]
        })
        .collect()
}

/// Asks `q` for its maximum through the public scenario API.
pub fn ask(
    verifier: &Verifier,
    nets: &[Network],
    q: &Query,
) -> Result<LateralVelocityResult, String> {
    max_lateral_velocity(verifier, &nets[q.net], layout(), &q.spec)
        .map_err(|e| format!("query {}: {e}", q.id))
}

/// Checks an answer against its query.
pub fn check(nets: &[Network], q: &Query, r: &LateralVelocityResult) -> Result<(), String> {
    let net = &nets[q.net];
    let mut upper = f64::NEG_INFINITY;
    objectives()
        .iter()
        .zip(&r.per_component)
        .try_for_each(|(obj, m)| {
            upper = upper.max(m.upper_bound);
            check_max(net, &q.spec, obj, abs_gap(), m, f64::NEG_INFINITY).map(|_| ())
        })
        .and_then(|()| check_lower(upper, q.lower))
        .map_err(|e| format!("query {}: {e}", q.id))
}

/// Answers and latencies of one pass over a query set.
pub struct Run {
    /// `(query index, latency ms, answer)` in send order.
    pub log: Vec<(usize, f64, Result<LateralVelocityResult, String>)>,
    /// Wall time of the pass.
    pub wall_s: f64,
}

/// One closed-loop pass: every query once, one at a time.
pub fn pass(verifier: &Verifier, nets: &[Network], queries: &[Query]) -> Run {
    let start = Instant::now();
    let log = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let t = Instant::now();
            let a = ask(verifier, nets, q);
            (i, t.elapsed().as_secs_f64() * 1e3, a)
        })
        .collect();
    Run {
        log,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Checks every answer of `runs` into `report`. The search is serial, so
/// a repeated query must match its first answer bit for bit, with equal
/// node and pivot counts.
pub fn check_run(report: &mut Report, nets: &[Network], queries: &[Query], runs: &[Run]) {
    let mut first: Vec<Option<&LateralVelocityResult>> = vec![None; queries.len()];
    for (i, _, answer) in runs.iter().flat_map(|r| &r.log) {
        report.attempted += 1;
        let a = match answer {
            Ok(a) => a,
            Err(e) => {
                report.fail(e.clone());
                continue;
            }
        };
        if let Err(e) = check(nets, &queries[*i], a) {
            report.fail(e);
            continue;
        }
        match first[*i] {
            None => first[*i] = Some(a),
            Some(f) => {
                if signature(f) != signature(a) {
                    report.fail(format!(
                        "query {}: a repeat answered differently",
                        queries[*i].id
                    ));
                }
            }
        }
    }
}
