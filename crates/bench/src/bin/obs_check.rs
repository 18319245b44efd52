//! Observability gate behind `./ci --obs`.
//!
//! Usage:
//!
//! ```text
//! obs_check <trace.jsonl>      validate a trace written by --trace
//! obs_check --overhead         measure obs-on vs obs-off smoke cost
//! obs_check --ckpt-overhead    measure checkpointing-on vs -off cost
//! obs_check --serve-overhead   measure obs cost of the serve layer
//! ```
//!
//! Validation parses every line against the JSONL schema of
//! [`certnn_obs::jsonl`] and then checks the trace is *useful*: at least
//! one span, a metrics record carrying the core counter names
//! (`lp.warm_solves`, `bab.nodes`, `bab.incumbent_updates`) and a
//! profile record. `--overhead` runs the Table II smoke config twice
//! with observability off and twice with it on (best-of-two each, all
//! serial), fails if the observed run is more than 5% + 0.25 s slower,
//! and asserts the verdicts are bit-identical either way — tracing must
//! never change what the verifier concludes. `--ckpt-overhead` applies
//! the same protocol to crash-safe checkpointing at its default cadence,
//! with a tighter 3% relative budget: snapshotting must cost nearly
//! nothing on a clean run, never shift a verdict, and leave no files
//! behind. `--serve-overhead` runs a small fleet over a loopback
//! `certnn-serve` daemon — each run against a fresh state directory so
//! the certificate cache cannot flatter the numbers — twice with
//! observability off and twice with it on, under the standard 5% + 0.25 s
//! gate, and asserts the wire-path verdicts are bit-identical either
//! way.

#![warn(clippy::unwrap_used)]

use certnn_bench::table2::{run_table2, Table2Config, Table2Result};
use certnn_core::fleet::{FleetConfig, FleetResult};
use certnn_serve::fleet::run_fleet_over;
use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::checkpoint::CheckpointPolicy;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Counters every observed verification run must report; their absence
/// means an instrumentation layer silently stopped recording.
const REQUIRED_COUNTERS: [&str; 3] =
    ["lp.warm_solves", "bab.nodes", "bab.incumbent_updates"];

/// Allowed obs-on slowdown: 5% relative plus an absolute slack so
/// seconds-scale smoke runs don't fail on scheduler noise.
const MAX_RELATIVE_OVERHEAD: f64 = 1.05;
const ABSOLUTE_SLACK_SECS: f64 = 0.25;

/// Allowed checkpointing-on slowdown: 3% relative (the ISSUE's gate)
/// plus the same absolute slack against scheduler noise.
const MAX_CKPT_OVERHEAD: f64 = 1.03;

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = certnn_obs::jsonl::validate_trace(&text)
        .map_err(|e| format!("{path}: {e}"))?;
    if summary.spans == 0 {
        return Err(format!("{path}: no span records"));
    }
    if !summary.has_metrics {
        return Err(format!("{path}: no metrics record"));
    }
    for name in REQUIRED_COUNTERS {
        if !summary.counter_names.iter().any(|n| n == name) {
            return Err(format!("{path}: metrics record missing counter `{name}`"));
        }
    }
    println!(
        "{path}: ok ({} spans, {} events, {} counters, {} histograms{})",
        summary.spans,
        summary.events,
        summary.counter_names.len(),
        summary.histogram_names.len(),
        if summary.has_profile {
            format!(", profile of {} phases", summary.phase_names.len())
        } else {
            String::new()
        }
    );
    Ok(())
}

/// One timed serial smoke run; returns the result and its wall seconds.
/// With `ckpt_dir` the run snapshots to that directory at the default
/// cadence (no resume — this is the clean-run cost of being killable).
fn timed_smoke(ckpt_dir: Option<&Path>) -> Result<(Table2Result, f64), String> {
    let mut config = Table2Config::smoke_test();
    config.run.threads = 1;
    if let Some(dir) = ckpt_dir {
        config.run.checkpoints = Some(CheckpointPolicy::new(dir));
    }
    let start = Instant::now();
    let result = run_table2(&config).map_err(|e| format!("smoke run failed: {e}"))?;
    Ok((result, start.elapsed().as_secs_f64()))
}

/// Bit-exact verdict comparison between two smoke results.
fn assert_identical(off: &Table2Result, on: &Table2Result) -> Result<(), String> {
    if off.rows.len() != on.rows.len() {
        return Err("row count differs between obs-off and obs-on".to_string());
    }
    for (a, b) in off.rows.iter().zip(&on.rows) {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        if bits(a.max_lateral) != bits(b.max_lateral)
            || a.upper_bound.to_bits() != b.upper_bound.to_bits()
        {
            return Err(format!(
                "verdict drift on {}: off ({:?}, {}) vs on ({:?}, {})",
                a.label, a.max_lateral, a.upper_bound, b.max_lateral, b.upper_bound
            ));
        }
    }
    Ok(())
}

/// The protocol every overhead gate shares: two runs with `feature` off,
/// then two with it on (off first, so the on-runs cannot leak into the
/// baseline), the best of each pair timed against each other. The first
/// off- and on-run results must pass `identical`, and the best on-run may
/// take at most `relative` × the best off-run + [`ABSOLUTE_SLACK_SECS`].
/// `run(on, i)` performs run `i` (0 or 1) of its side and returns its
/// result and wall seconds.
fn ab_gate<R>(
    feature: &str,
    relative: f64,
    mut run: impl FnMut(bool, usize) -> Result<(R, f64), String>,
    identical: impl Fn(&R, &R) -> Result<(), String>,
) -> Result<(), String> {
    let (off_result, off_a) = run(false, 0)?;
    let (_, off_b) = run(false, 1)?;
    let (on_result, on_a) = run(true, 0)?;
    let (_, on_b) = run(true, 1)?;
    let (off_best, on_best) = (off_a.min(off_b), on_a.min(on_b));

    identical(&off_result, &on_result)?;
    println!(
        "{feature} best-of-2: off {off_best:.3}s, on {on_best:.3}s ({:+.1}%)",
        100.0 * (on_best - off_best) / off_best
    );
    let limit = off_best * relative + ABSOLUTE_SLACK_SECS;
    if on_best > limit {
        return Err(format!(
            "{feature} overhead too high: {on_best:.3}s > \
             {relative} x {off_best:.3}s + {ABSOLUTE_SLACK_SECS}s"
        ));
    }
    println!("{feature} overhead gate ok: {on_best:.3}s <= {limit:.3}s");
    println!("verdicts bit-identical with {feature} on and off");
    Ok(())
}

/// [`ab_gate`] with observability switched: off for the off-runs, on for
/// the on-runs with the registry cleared before the second, and off and
/// cleared again afterwards.
fn obs_gate<R>(
    feature: &str,
    mut run: impl FnMut(bool, usize) -> Result<(R, f64), String>,
    identical: impl Fn(&R, &R) -> Result<(), String>,
) -> Result<(), String> {
    let verdict = ab_gate(
        feature,
        MAX_RELATIVE_OVERHEAD,
        |on, i| {
            certnn_obs::set_enabled(on);
            if on && i == 1 {
                certnn_obs::reset();
            }
            run(on, i)
        },
        identical,
    );
    certnn_obs::set_enabled(false);
    certnn_obs::reset();
    verdict
}

fn overhead() -> Result<(), String> {
    obs_gate("observability", |_, _| timed_smoke(None), assert_identical)
}

fn ckpt_overhead() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("certnn_ckpt_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let verdict = ab_gate(
        "checkpointing",
        MAX_CKPT_OVERHEAD,
        |on, _| timed_smoke(on.then_some(dir.as_path())),
        assert_identical,
    );
    let leftover = std::fs::read_dir(&dir)
        .map(|rd| rd.count())
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    verdict?;
    if leftover != 0 {
        return Err(format!(
            "clean checkpointed run left {leftover} snapshot file(s) behind"
        ));
    }
    Ok(())
}

/// One timed fleet run over a fresh loopback daemon. A new state
/// directory per run keeps the certificate cache out of the timing, so
/// the measurement covers the full serve path: framing, spooling,
/// solving, caching. The daemon runs with the whole live-telemetry
/// stack active — windowed aggregates, flight recorders, and the
/// Prometheus listener — so the overhead gate measures the daemon as it
/// ships; the telemetry endpoints are sanity-checked after the clock
/// stops so the checks themselves never skew the timing.
fn timed_serve_fleet(tag: &str, run: usize) -> Result<(FleetResult, f64), String> {
    let dir = std::env::temp_dir().join(format!(
        "certnn_serve_gate_{}_{tag}_{run}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeOptions {
        workers: 1,
        prom_addr: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::loopback(&dir)
    })
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    let mut config = FleetConfig::smoke_test();
    config.fleet_size = 2;
    config.run.threads = 1;
    let start = Instant::now();
    let result =
        run_fleet_over(server.addr(), &config).map_err(|e| format!("serve fleet failed: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    assert_live_telemetry(&server)?;
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((result, wall))
}

/// Proves the live-telemetry stack was actually on during a timed run:
/// the `METRICS` frame reports the fleet's submissions with non-zero
/// windowed rates, and the Prometheus endpoint serves parseable text.
fn assert_live_telemetry(server: &Server) -> Result<(), String> {
    let mut client = certnn_serve::client::Client::connect(server.addr())
        .map_err(|e| format!("telemetry client: {e}"))?;
    let m = client.metrics().map_err(|e| format!("METRICS failed: {e}"))?;
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    if counter("serve.jobs_submitted") == 0 {
        return Err("METRICS reports no submissions after a fleet run".to_string());
    }
    let submit_rate = m
        .rates
        .iter()
        .find(|(n, _)| n == "serve.jobs_submitted")
        .map_or(0.0, |(_, r)| *r);
    if submit_rate <= 0.0 {
        return Err("windowed serve.jobs_submitted rate is zero right after a run".to_string());
    }
    if m.workers_total == 0 || m.uptime_ns == 0 {
        return Err("METRICS gauges are empty".to_string());
    }
    let prom = server
        .prom_addr()
        .ok_or("prom listener did not bind".to_string())?;
    let mut stream = std::net::TcpStream::connect(prom)
        .map_err(|e| format!("prom connect: {e}"))?;
    std::io::Write::write_all(&mut stream, b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("prom request: {e}"))?;
    let mut response = String::new();
    std::io::Read::read_to_string(&mut stream, &mut response)
        .map_err(|e| format!("prom response: {e}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .ok_or("prom response has no header/body split".to_string())?
        .1;
    let samples = certnn_serve::prom::parse_check(body)
        .map_err(|e| format!("prom exposition does not parse: {e}"))?;
    if samples == 0 || !body.contains("certnn_serve_up 1") {
        return Err("prom exposition is empty".to_string());
    }
    Ok(())
}

/// Bit-exact verdict comparison between two fleet results.
fn assert_fleet_identical(off: &FleetResult, on: &FleetResult) -> Result<(), String> {
    if off.members.len() != on.members.len() {
        return Err("member count differs between obs-off and obs-on".to_string());
    }
    for (a, b) in off.members.iter().zip(&on.members) {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        if bits(a.verified_max) != bits(b.verified_max)
            || a.safe != b.safe
            || a.stats.degradation != b.stats.degradation
        {
            return Err(format!(
                "verdict drift on seed {}: off ({:?}, {:?}, {}) vs on ({:?}, {:?}, {})",
                a.seed,
                a.verified_max,
                a.safe,
                a.stats.degradation.as_str(),
                b.verified_max,
                b.safe,
                b.stats.degradation.as_str()
            ));
        }
    }
    Ok(())
}

fn serve_overhead() -> Result<(), String> {
    obs_gate(
        "serve observability",
        |on, i| timed_serve_fleet(if on { "on" } else { "off" }, i),
        assert_fleet_identical,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [path] if !path.starts_with("--") => validate(path),
        [flag] if flag == "--overhead" => overhead(),
        [flag] if flag == "--ckpt-overhead" => ckpt_overhead(),
        [flag] if flag == "--serve-overhead" => serve_overhead(),
        _ => Err(
            "usage: obs_check <trace.jsonl> | obs_check --overhead | \
             obs_check --ckpt-overhead | obs_check --serve-overhead"
                .to_string(),
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_check: {e}");
            ExitCode::FAILURE
        }
    }
}
