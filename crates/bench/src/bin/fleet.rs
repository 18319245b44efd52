//! Reproduces the paper's fleet observation: networks trained on the same
//! data do not all satisfy the safety property.
//!
//! Usage: `fleet [--smoke] [--threads N] [--json rows.json] [--cold]
//! [--alpha-iters N] [--no-lp-skip] [--serve HOST:PORT]
//! [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]
//! [--fault-inject SEED] [--trace t.jsonl] [--metrics] [--profile]`
//!
//! `--threads 0` (the default) trains/verifies members on all available
//! cores; `--threads 1` restores the serial run. `--cold` disables LP
//! warm-starting (verdict-preserving baseline). `--alpha-iters N` sets
//! the α-bound coordinate-descent rounds (`0` = fixed-slope heuristic,
//! bit-for-bit) and `--no-lp-skip` disables the per-node LP elision
//! gate; both are verdict-preserving. `--json` additionally
//! writes one machine-readable record per member (see
//! [`certnn_bench::json`]). `--fault-inject SEED` (builds with
//! `--features fault-inject` only) arms the seeded chaos plan of
//! `certnn_lp::fault`; degraded members are tagged in the table's `mode`
//! column and the JSON `degradation` field, with all bounds still sound.
//!
//! Observability (any of these switches `certnn-obs` on for the run;
//! verdicts are unaffected): `--trace t.jsonl` writes span/event/
//! metrics/profile records as JSON lines, `--metrics` prints the
//! counter/gauge/histogram snapshot after the table (and folds it, with
//! each phase's self time, into the final `--json` row), `--profile`
//! prints per-phase self time.
//!
//! Crash safety: `--checkpoint DIR` snapshots each member's verification
//! query to `DIR` (atomic, checksummed; one file per query),
//! `--checkpoint-every N` sets the node cadence, and `--resume DIR`
//! additionally resumes any query whose snapshot is found in `DIR`, so a
//! killed fleet run repeats no finished search work. Corrupt snapshots
//! are rejected and the query restarts fresh, tagged
//! `checkpoint_fallback`.
//!
//! `--serve HOST:PORT` ships every verification query to a running
//! `certnn-serve` daemon instead of solving in-process. Training stays
//! local and deterministic, so the table is bit-identical either way;
//! repeated runs against the same daemon answer from its certificate
//! cache. Incompatible with `--checkpoint`/`--resume` (the daemon owns
//! its own checkpoint directory).

#![warn(clippy::unwrap_used)]

use certnn_bench::json::{nproc, run_metrics, write_json, BenchRow};
use certnn_bench::write_report;
use certnn_core::fleet::{run_fleet, FleetConfig, FleetResult};
use certnn_serve::fleet::run_fleet_over;
use certnn_verify::checkpoint::{CheckpointPolicy, DEFAULT_EVERY_NODES};
use std::path::PathBuf;

fn main() {
    let mut config = FleetConfig::default();
    let mut serve_addr: Option<String> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut want_metrics = false;
    let mut want_profile = false;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut ckpt_every = DEFAULT_EVERY_NODES;
    let mut ckpt_resume = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => config = FleetConfig::smoke_test(),
            "--trace" => {
                i += 1;
                trace_path = Some(PathBuf::from(&args[i]));
            }
            "--metrics" => want_metrics = true,
            "--profile" => want_profile = true,
            "--threads" => {
                i += 1;
                config.threads = args[i].parse().expect("threads must be an integer");
            }
            "--cold" => config.warm_start = false,
            "--alpha-iters" => {
                i += 1;
                config.alpha_iters =
                    args[i].parse().expect("alpha iters must be an integer");
            }
            "--no-lp-skip" => config.lp_skip = false,
            "--serve" => {
                i += 1;
                serve_addr = Some(args[i].clone());
            }
            "--checkpoint" => {
                i += 1;
                ckpt_dir = Some(PathBuf::from(&args[i]));
            }
            "--checkpoint-every" => {
                i += 1;
                ckpt_every = args[i]
                    .parse()
                    .expect("checkpoint cadence must be an integer");
            }
            "--resume" => {
                i += 1;
                ckpt_dir = Some(PathBuf::from(&args[i]));
                ckpt_resume = true;
            }
            "--json" => {
                i += 1;
                json_path = Some(PathBuf::from(&args[i]));
            }
            "--fault-inject" => {
                i += 1;
                let seed: u64 = args[i].parse().expect("fault seed must be an integer");
                #[cfg(feature = "fault-inject")]
                {
                    certnn_lp::fault::install(certnn_lp::fault::FaultPlan::seeded(seed));
                    println!("fault injection armed with seed {seed}");
                }
                #[cfg(not(feature = "fault-inject"))]
                {
                    let _ = seed;
                    eprintln!(
                        "--fault-inject requires a build with --features fault-inject"
                    );
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(dir) = ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
            std::process::exit(2);
        }
        config.checkpoints = Some(CheckpointPolicy {
            every_nodes: ckpt_every,
            resume: ckpt_resume,
            ..CheckpointPolicy::new(dir)
        });
    }
    let observe = trace_path.is_some() || want_metrics || want_profile;
    if observe {
        certnn_obs::set_enabled(true);
        if !certnn_obs::enabled() {
            eprintln!(
                "--trace/--metrics/--profile require a build with the \
                 default `obs` feature; this binary records nothing"
            );
            std::process::exit(2);
        }
    }
    if serve_addr.is_some() && config.checkpoints.is_some() {
        eprintln!("--serve is incompatible with --checkpoint/--resume: the daemon owns its own checkpoint directory");
        std::process::exit(2);
    }
    println!(
        "training and verifying a fleet of {} I{}x{} predictors (threads {})...\n",
        config.fleet_size,
        config.hidden.len(),
        config.hidden[0],
        config.threads
    );
    let outcome: Result<FleetResult, String> = match &serve_addr {
        Some(addr) => {
            println!("verifying over the wire via certnn-serve at {addr}\n");
            run_fleet_over(addr.as_str(), &config).map_err(|e| e.to_string())
        }
        None => run_fleet(&config).map_err(|e| e.to_string()),
    };
    match outcome {
        Ok(result) => {
            let table = result.to_table();
            print!("{table}");
            match write_report("fleet.txt", &table) {
                Ok(path) => println!("\nwritten to {}", path.display()),
                Err(e) => eprintln!("could not write report: {e}"),
            }
            if want_metrics {
                print!("\n{}", certnn_obs::metrics_snapshot().to_table());
            }
            if want_profile {
                print!("\n{}", certnn_obs::profile_report());
            }
            if let Some(path) = json_path {
                let width = config.hidden.first().copied().unwrap_or(0);
                let nproc = nproc();
                let mut rows: Vec<BenchRow> = result
                    .members
                    .iter()
                    .map(|m| BenchRow {
                        width,
                        value: m.verified_max,
                        wall_secs: m.wall_secs,
                        stats: m.stats,
                        threads: config.threads,
                        nproc,
                        warm_start: config.warm_start,
                        metrics: Vec::new(),
                    })
                    .collect();
                if want_metrics {
                    // Run-cumulative snapshot; recorded once, on the
                    // final row (see certnn_bench::json).
                    if let Some(last) = rows.last_mut() {
                        last.metrics = run_metrics();
                    }
                }
                match write_json(&path, &rows) {
                    Ok(()) => println!("json rows written to {}", path.display()),
                    Err(e) => eprintln!("could not write json: {e}"),
                }
            }
            if let Some(path) = trace_path {
                match std::fs::write(&path, certnn_obs::drain_jsonl()) {
                    Ok(()) => println!("trace written to {}", path.display()),
                    Err(e) => eprintln!("could not write trace: {e}"),
                }
            }
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
