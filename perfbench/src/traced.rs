//! The traced run: per-layer metrics for one workload.
//!
//! The workload's query set (the request stream for `serve`) runs once
//! with tracing off and once with the `certnn-obs` switch on; the ratio
//! of the two walls is the tracing overhead. The traced pass feeds the
//! program's own counters and phase profiler. The benchmark then times
//! each layer's public entry point on the first queries of the set, every
//! call inside a `bench.query` span that carries the query id. Spans stay
//! in memory and are written out at the end.

use crate::checks::decide_outcome;
use crate::gen::{objectives, Query, Stream};
use crate::report::Report;
use crate::serve_load::{check_driven, drive, templates, Daemon, Driven};
use crate::stats::median;
use crate::workloads::{abs_gap, ask, check_run, verifier, Run};
use crate::{Prepared, Workload};
use certnn_core::scenario::LateralVelocityResult;
use certnn_lp::{LpStatus, Simplex};
use certnn_nn::network::Network;
use certnn_obs::{MetricValue, MetricsSnapshot, Phase, PhaseTotal, Record};
use certnn_serve::protocol::Disposition;
use certnn_verify::attack::Falsifier;
use certnn_verify::bab::{bab_maximize, BabOptions, DEFAULT_ALPHA_ITERS};
use certnn_verify::bounds::PhaseAnalyzer;
use certnn_verify::encoder::{encode, BoundMethod};
use certnn_verify::verifier::{Engine, Verifier, VerifierOptions};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Queries the layer entry points are timed on.
const PROBES: usize = 12;

/// Queries re-run to check that serial counts repeat exactly.
const REPEATS: usize = 8;

/// Queries the thread and engine comparisons of `maximize` run on.
const RATIO_QUERIES: usize = 40;

/// Counters that must repeat exactly when a serial search runs again.
const EXACT_COUNTS: [&str; 4] = [
    "bab.nodes",
    "milp.nodes",
    "lp.pivots",
    "lp.warm_budget_stalls",
];

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn exact_counts() -> [u64; 4] {
    EXACT_COUNTS.map(|name| certnn_obs::counter(name).get())
}

/// One pass over `queries`, each inside a `bench.query` span; returns the
/// run and, per query, how far the exact counters moved.
fn pass(verifier: &Verifier, nets: &[Network], queries: &[Query]) -> (Run, Vec<[u64; 4]>) {
    let start = Instant::now();
    let mut log = Vec::with_capacity(queries.len());
    let mut deltas = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let _span = certnn_obs::span("bench.query");
        certnn_obs::event("bench.query_id", vec![("id", q.id.into())]);
        let before = exact_counts();
        let t = Instant::now();
        let answer = {
            let _s = certnn_obs::span("bench.verify");
            ask(verifier, nets, q)
        };
        log.push((i, ms(t), answer));
        let after = exact_counts();
        deltas.push(std::array::from_fn(|k| after[k] - before[k]));
    }
    let wall_s = start.elapsed().as_secs_f64();
    (Run { log, wall_s }, deltas)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn hist_p50(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.p50 as f64)
}

fn phase(totals: &[PhaseTotal], p: Phase) -> PhaseTotal {
    *totals
        .iter()
        .find(|t| t.phase == p)
        .expect("every phase is reported")
}

/// Per-layer metrics read from the program's own counters and phase
/// profiler after the traced pass.
fn program_metrics(r: &mut Report, snap: &MetricsSnapshot, totals: &[PhaseTotal]) {
    for (metric, name) in [
        ("lp.pivots", "lp.pivots"),
        ("lp.warm_solves", "lp.warm_solves"),
        ("lp.cold_solves", "lp.cold_solves"),
        ("lp.warm_budget_stalls", "lp.warm_budget_stalls"),
        ("lp.stale_basis_bails", "lp.stale_basis_bails"),
        ("lp.cold_fallbacks", "lp.cold_fallbacks"),
        ("lp.refactorizations", "lp.refactorizations"),
        ("bab.lp_skipped", "bab.lp_skipped"),
        ("bab.lp_forced", "bab.lp_forced"),
        ("bab.nodes", "bab.nodes"),
        ("bab.milp_calls", "bab.milp_calls"),
        ("bab.incumbent_updates", "bab.incumbent_updates"),
        ("milp.nodes", "milp.nodes"),
        ("milp.solves", "milp.solves"),
        ("milp.incumbent_updates", "milp.incumbent_updates"),
        ("milp.dropped_subtrees", "milp.dropped_subtrees"),
        ("ckpt.written", "ckpt.written"),
        ("ckpt.bytes", "ckpt.bytes"),
    ] {
        r.set(metric, counter(snap, name));
    }
    let warm = counter(snap, "lp.warm_solves");
    let attempts = warm + counter(snap, "lp.cold_fallbacks");
    if attempts > 0.0 {
        r.set("lp.warm_useful_frac", warm / attempts);
    }
    r.notes.push(format!(
        "lp.warm_useful_frac base: {attempts} warm attempts"
    ));
    r.set(
        "lp.warm_solve_p50_us",
        hist_p50(snap, "lp.warm_solve_nanos") / 1e3,
    );
    r.set(
        "lp.cold_solve_p50_us",
        hist_p50(snap, "lp.cold_solve_nanos") / 1e3,
    );
    let (warm_t, cold_t) = (phase(totals, Phase::LpWarm), phase(totals, Phase::LpCold));
    r.set("lp.warm_self_s", warm_t.self_ns as f64 * 1e-9);
    r.set("lp.cold_self_s", cold_t.self_ns as f64 * 1e-9);
    let lp_s = (warm_t.total_ns + cold_t.total_ns) as f64 * 1e-9;
    if lp_s > 0.0 {
        r.set("lp.pivots_per_s", counter(snap, "lp.pivots") / lp_s);
    }
    r.set(
        "bounds.self_s",
        phase(totals, Phase::Bound).self_ns as f64 * 1e-9,
    );
    r.set(
        "bab.branch_self_s",
        phase(totals, Phase::Branch).self_ns as f64 * 1e-9,
    );
    let frontier = snap.entries.iter().find_map(|e| match (&e.value, e.name) {
        (MetricValue::Gauge { high_water, .. }, "bab.frontier_depth") => Some(*high_water as f64),
        _ => None,
    });
    r.set("bab.frontier_peak", frontier.unwrap_or(0.0));
}

/// Times the layers' own entry points on `queries`: the encoder, the root
/// LP relaxation, root bound propagation with and without α tuning, the
/// falsifier and the neuron branch-and-bound.
fn probe_layers(r: &mut Report, nets: &[Network], queries: &[Query]) -> Result<(), String> {
    let objective = objectives().swap_remove(0);
    let (mut encode_ms, mut binaries, mut rows, mut lp_ms) = (vec![], vec![], vec![], vec![]);
    let (mut tuned_ms, mut fixed_ms, mut attack_ms) = (vec![], vec![], vec![]);
    let (mut bab_nodes, mut bab_search_s) = (0.0, 0.0);
    for q in queries {
        let net = &nets[q.net];
        let _span = certnn_obs::span("bench.query");
        certnn_obs::event("bench.query_id", vec![("id", q.id.into())]);

        let t = Instant::now();
        let enc = {
            let _s = certnn_obs::span("bench.encode");
            encode(
                net,
                &q.spec,
                BoundMethod::AlphaOptimized {
                    iters: DEFAULT_ALPHA_ITERS,
                },
            )
        }
        .map_err(|e| e.to_string())?;
        encode_ms.push(ms(t));
        binaries.push(enc.stats.binaries as f64);
        rows.push(enc.stats.rows as f64);

        let mut milp = enc.milp.clone();
        let terms: Vec<_> = objective
            .terms
            .iter()
            .map(|&(o, c)| (enc.output_vars[o], c))
            .collect();
        milp.set_objective(&terms);
        let t = Instant::now();
        let root = {
            let _s = certnn_obs::span("bench.lp_root");
            Simplex::new().solve(milp.relaxation())
        }
        .map_err(|e| e.to_string())?;
        lp_ms.push(ms(t));
        if root.status != LpStatus::Optimal {
            r.fail(format!("query {}: root relaxation {:?}", q.id, root.status));
        }

        let t = Instant::now();
        {
            let _s = certnn_obs::span("bench.bounds_tuned");
            let mut a = PhaseAnalyzer::new(net, q.spec.bounds()).map_err(|e| e.to_string())?;
            a.analyze_tuned(&[], &objective, DEFAULT_ALPHA_ITERS, None)
                .map_err(|e| e.to_string())?;
        }
        tuned_ms.push(ms(t));
        let t = Instant::now();
        {
            let _s = certnn_obs::span("bench.bounds_fixed");
            let mut a = PhaseAnalyzer::new(net, q.spec.bounds()).map_err(|e| e.to_string())?;
            a.analyze(&[], &objective).map_err(|e| e.to_string())?;
        }
        fixed_ms.push(ms(t));

        let t = Instant::now();
        {
            let _s = certnn_obs::span("bench.attack");
            Falsifier::new()
                .attack(net, &q.spec, &objective)
                .map_err(|e| e.to_string())?;
        }
        attack_ms.push(ms(t));

        let b = {
            let _s = certnn_obs::span("bench.bab");
            bab_maximize(net, &q.spec, &objective, &BabOptions::default())
        }
        .map_err(|e| e.to_string())?;
        if b.nodes_per_sec > 0.0 {
            bab_nodes += b.nodes as f64;
            bab_search_s += b.nodes as f64 / b.nodes_per_sec;
        }
    }
    r.set("encoder.encode_ms", median(&encode_ms));
    r.set("encoder.binaries", median(&binaries));
    r.set("encoder.rows", median(&rows));
    r.set("lp.root_solve_ms", median(&lp_ms));
    r.set("bounds.root_tuned_ms", median(&tuned_ms));
    r.set("bounds.root_fixed_ms", median(&fixed_ms));
    r.set("attack.ms", median(&attack_ms));
    if bab_search_s > 0.0 {
        r.set("bab.nodes_per_s", bab_nodes / bab_search_s);
    }
    r.notes.push(format!(
        "layer entry points timed on {} queries (p50 per call)",
        queries.len()
    ));
    Ok(())
}

/// Re-runs the first queries with the counters on and requires the exact
/// counts of the traced pass again.
fn repeat_counts(
    r: &mut Report,
    verifier: &Verifier,
    nets: &[Network],
    queries: &[Query],
    first: &[[u64; 4]],
) {
    let n = REPEATS.min(queries.len());
    let (_, again) = pass(verifier, nets, &queries[..n]);
    for (i, (a, b)) in first.iter().zip(&again).enumerate() {
        if a != b {
            r.fail(format!(
                "query {}: counts {EXACT_COUNTS:?} were {a:?}, then {b:?}",
                queries[i].id
            ));
        }
    }
    r.notes.push(format!(
        "exact counts {EXACT_COUNTS:?} repeated on {n} re-run queries"
    ));
}

/// `maximize` only: the first [`RATIO_QUERIES`] queries on two search
/// threads and under the pure MILP engine, against their untraced serial
/// HybridBab time; every maximum must agree within the optimality gap.
fn engine_ratios(r: &mut Report, nets: &[Network], queries: &[Query], untraced: &Run) {
    let queries = &queries[..RATIO_QUERIES.min(queries.len())];
    let seconds = |run: &Run| run.log.iter().take(queries.len()).map(|e| e.1).sum::<f64>() / 1e3;
    let two = pass(&verifier(2), nets, queries).0;
    let milp = pass(
        &Verifier::with_options(VerifierOptions {
            engine: Engine::Milp,
            ..VerifierOptions::default()
        }),
        nets,
        queries,
    )
    .0;
    let (serial_s, two_s, milp_s) = (seconds(untraced), seconds(&two), seconds(&milp));
    r.set("bab.speedup_2t", serial_s / two_s);
    r.set("milp.engine_over_bab", milp_s / serial_s);
    r.notes.push(format!(
        "bab.speedup_2t: {} queries, {serial_s:.3} s at 1 thread / {two_s:.3} s at 2 threads; \
         milp.engine_over_bab: {milp_s:.3} s Engine::Milp / {serial_s:.3} s HybridBab, both 1 thread",
        queries.len()
    ));
    let value = |x: &Result<LateralVelocityResult, String>| x.as_ref().ok()?.max_lateral;
    for (((serial, two), milp), q) in untraced
        .log
        .iter()
        .zip(&two.log)
        .zip(&milp.log)
        .zip(queries)
    {
        for (engine, other) in [("2-thread HybridBab", two), ("Engine::Milp", milp)] {
            match (value(&serial.2), value(&other.2)) {
                (Some(x), Some(y)) if (x - y).abs() <= 2.0 * abs_gap() => {}
                (x, y) => r.fail(format!(
                    "query {}: serial HybridBab found {x:?}, {engine} {y:?}",
                    q.id
                )),
            }
        }
    }
    let objective = objectives().swap_remove(0);
    let mut gaps = Vec::new();
    for (entry, q) in untraced.log.iter().zip(queries) {
        if let Ok(m) = &entry.2 {
            if let (Some(max), Ok(hit)) = (
                m.max_lateral,
                Falsifier::new().attack(&nets[q.net], &q.spec, &objective),
            ) {
                gaps.push(max - hit.best_value);
            }
        }
    }
    r.set(
        "attack.gap",
        gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
    );
    r.notes.push(format!(
        "attack.gap: mean exact max − falsifier best over {} queries",
        gaps.len()
    ));
}

/// `serve` only: of the decision queries the daemon refuted, the share
/// the falsifier alone refutes.
fn refute_share(r: &mut Report, nets: &[Network], stream: &Stream, driven: &Driven) {
    let objective = objectives().swap_remove(0);
    let (mut refuted, mut found) = (0usize, 0usize);
    for s in &driven.sent {
        let q = &stream.queries[s.query];
        let (Some(Disposition::Fresh), Ok(o), Some(tau)) = (s.disposition, &s.outcome, q.tau)
        else {
            continue;
        };
        if decide_outcome(o, tau) == Ok(false) {
            refuted += 1;
            if Falsifier::new()
                .attack(&nets[q.net], &q.spec, &objective)
                .is_ok_and(|a| a.refutes(tau))
            {
                found += 1;
            }
        }
    }
    if refuted > 0 {
        r.set("attack.refute_frac", found as f64 / refuted as f64);
    }
    r.notes.push(format!(
        "attack.refute_frac base: {refuted} refuted of {} distinct decision queries",
        stream.queries.len()
    ));
}

/// Span self time: duration minus the part of it the span's children
/// cover (children may overlap when they run on other threads).
fn self_times(records: &[Record]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for rec in records {
        if let Record::Span {
            parent: Some(p),
            start_ns,
            end_ns,
            ..
        } = rec
        {
            children.entry(*p).or_default().push((*start_ns, *end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for rec in records {
        if let Record::Span {
            id,
            name,
            start_ns,
            end_ns,
            ..
        } = rec
        {
            let dur = end_ns.saturating_sub(*start_ns);
            let covered = children
                .get(id)
                .map_or(0, |c| covered_ns(c, *start_ns, *end_ns));
            let e = out.entry(*name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered.min(dur);
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Drains the spans, writes them as JSONL under `dir` and notes the
/// per-span self times.
fn write_trace(r: &mut Report, dir: &Path, file: &str) -> Result<(), String> {
    r.set("obs.dropped_records", certnn_obs::dropped_records() as f64);
    let records = certnn_obs::drain();
    let mut text = String::new();
    for rec in &records {
        text.push_str(&certnn_obs::jsonl::render_record(rec));
        text.push('\n');
    }
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    r.notes.push(format!(
        "{} trace records written to {}",
        records.len(),
        path.display()
    ));
    r.notes.push(format!(
        "  {:<22} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, (count, total, own)) in self_times(&records) {
        r.notes.push(format!(
            "  {name:<22} {count:>7} {:>12.3} {:>12.3}",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        ));
    }
    Ok(())
}

fn traced_on() {
    certnn_obs::reset();
    certnn_obs::set_enabled(true);
}

/// Runs the traced run of `w` on prepared inputs.
pub fn run(w: Workload, p: &Prepared, seed: u64, dir: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    r.set("nn.train_s", p.train_s);
    r.set("sim.dataset_s", p.dataset_s);
    match w {
        Workload::Serve => serve(&mut r, p, dir)?,
        Workload::Maximize => maximize(&mut r, p)?,
    }
    write_trace(&mut r, dir, &format!("trace-{}-seed{seed}.jsonl", w.name()))?;
    Ok(r)
}

fn maximize(r: &mut Report, p: &Prepared) -> Result<(), String> {
    let nets = &p.fleet.nets;
    let queries = &p.queries;
    let v = verifier(1);

    certnn_obs::set_enabled(false);
    let (untraced, _) = pass(&v, nets, queries);
    traced_on();
    let (traced, deltas) = pass(&v, nets, queries);
    program_metrics(
        r,
        &certnn_obs::metrics_snapshot(),
        &certnn_obs::phase_totals(),
    );
    r.set(
        "obs.trace_overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    r.notes.push(format!(
        "obs.trace_overhead_frac: {:.3} s traced / {:.3} s untraced over {} queries",
        traced.wall_s,
        untraced.wall_s,
        queries.len()
    ));
    check_run(r, nets, queries, std::slice::from_ref(&untraced));
    check_run(r, nets, queries, std::slice::from_ref(&traced));
    repeat_counts(r, &v, nets, queries, &deltas);
    probe_layers(r, nets, &queries[..PROBES.min(queries.len())])?;
    certnn_obs::set_enabled(false);
    engine_ratios(r, nets, queries, &untraced);
    Ok(())
}

fn serve(r: &mut Report, p: &Prepared, dir: &Path) -> Result<(), String> {
    let nets = &p.fleet.nets;
    let stream: &Stream = p.stream.as_ref().expect("serve set-up builds a stream");
    let templates = templates(nets);

    certnn_obs::set_enabled(false);
    let untraced = {
        let mut daemon = Daemon::start(dir, "untraced")?;
        drive(&mut daemon, stream, &templates)?
    };
    traced_on();
    let mut daemon = Daemon::start(dir, "traced")?;
    let traced = drive(&mut daemon, stream, &templates)?;
    let (submitted, hits) = (
        daemon.stat("serve.jobs_submitted"),
        daemon.stat("serve.cache_hits"),
    );
    r.set(
        "serve.cache_hit_frac",
        hits as f64 / submitted.max(1) as f64,
    );
    r.notes.push(format!(
        "serve.cache_hit_frac base: {submitted} submissions"
    ));
    r.set(
        "serve.jobs_coalesced",
        daemon.stat("serve.jobs_coalesced") as f64,
    );
    r.set("serve.jobs_failed", daemon.stat("serve.jobs_failed") as f64);
    drop(daemon);
    let snap = certnn_obs::metrics_snapshot();
    program_metrics(r, &snap, &certnn_obs::phase_totals());
    r.set(
        "serve.queue_wait_p50_ms",
        hist_p50(&snap, "serve.queue_wait_nanos") / 1e6,
    );
    r.set(
        "serve.job_wall_p50_ms",
        hist_p50(&snap, "serve.job_wall_nanos") / 1e6,
    );
    r.set(
        "obs.trace_overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    r.notes.push(format!(
        "obs.trace_overhead_frac: {:.3} s traced / {:.3} s untraced over {} requests",
        traced.wall_s,
        untraced.wall_s,
        traced.sent.len()
    ));
    check_driven(r, nets, stream, &untraced);
    check_driven(r, nets, stream, &traced);

    let submit: Vec<f64> = traced.sent.iter().map(|s| s.submit_ms).collect();
    r.set("serve.submit_rtt_ms", median(&submit));
    let hits = |from_file: bool| -> Vec<f64> {
        traced
            .sent
            .iter()
            .filter(|s| {
                s.disposition == Some(Disposition::CacheHit) && s.first_since_start == from_file
            })
            .map(|s| s.latency_ms)
            .collect()
    };
    let (table_hits, file_hits) = (hits(false), hits(true));
    r.set("serve.hit_ms", median(&table_hits));
    r.set("serve.cert_hit_ms", median(&file_hits));
    r.notes.push(format!(
        "serve.hit_ms over {} hits from the daemon's job table, serve.cert_hit_ms over {} \
         from certificate files after {} daemon restarts",
        table_hits.len(),
        file_hits.len(),
        traced.restarts
    ));

    // Wire overhead of a fresh solve: its SUBMIT-to-verdict latency minus
    // the same query answered in-process under the same options.
    let in_process = Verifier::new();
    let objective = objectives().swap_remove(0);
    let mut overhead = Vec::new();
    for s in traced
        .sent
        .iter()
        .filter(|s| s.disposition == Some(Disposition::Fresh))
        .take(PROBES)
    {
        let q = &stream.queries[s.query];
        let t = Instant::now();
        in_process
            .maximize(&nets[q.net], &q.spec, &objective)
            .map_err(|e| e.to_string())?;
        overhead.push(s.latency_ms - ms(t));
    }
    r.set("serve.fresh_overhead_ms", median(&overhead));
    r.notes.push(format!(
        "serve.fresh_overhead_ms over {} fresh solves",
        overhead.len()
    ));

    let probe: Vec<Query> = stream.queries.iter().take(PROBES).cloned().collect();
    probe_layers(r, nets, &probe)?;
    certnn_obs::set_enabled(false);
    refute_share(r, nets, stream, &traced);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_union_of_clipped_children() {
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(covered_ns(&[(2, 4), (3, 6), (8, 20)], 0, 10), 6);
        assert_eq!(covered_ns(&[(0, 5), (0, 5)], 1, 10), 4);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name, start_ns, end_ns| Record::Span {
            id,
            parent,
            name,
            thread: 1,
            start_ns,
            end_ns,
        };
        let records = [
            span(1, None, "outer", 0, 100),
            span(2, Some(1), "inner", 10, 40),
            span(3, Some(1), "inner", 30, 60),
        ];
        let t = self_times(&records);
        assert_eq!(t["outer"], (1, 100, 50));
        assert_eq!(t["inner"], (2, 60, 60));
    }
}
