//! Regenerates Table II (verification of `I4×N` motion predictors).
//!
//! Usage:
//!
//! ```text
//! table2 [--widths 4,6,8,10,12,14] [--time-limit 150] [--epochs 60]
//!        [--threads N] [--json rows.json] [--smoke] [--cold]
//!        [--alpha-iters N] [--no-lp-skip]
//!        [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]
//!        [--fault-inject SEED] [--trace t.jsonl] [--metrics] [--profile]
//! ```
//!
//! `--smoke` runs the seconds-scale variant used by the integration tests.
//! Each network is seeded by its *position* in `--widths`, not by its
//! width: `--widths 12` trains a different `I4×12` from the fifth row of
//! the default sweep, while `--widths 4,6,8,10,12` reproduces the default
//! sweep's first five rows. Compare probes on the same list.
//! `--threads 0` (the default) verifies widths on all available cores;
//! `--threads 1` restores the serial run. `--cold` disables LP
//! warm-starting (the baseline the warm path is benchmarked against;
//! verdicts are identical either way). `--alpha-iters N` sets the
//! coordinate-descent rounds of the α-optimized bounding layer (`0`
//! reproduces the fixed-slope heuristic bit-for-bit) and `--no-lp-skip`
//! disables the gate that elides per-node LP relaxations where they are
//! redundant (nodes handed to the LP rule, whose first LP subsumes them);
//! verdicts are identical at any setting. `--json` additionally writes one
//! machine-readable record per width (see [`certnn_bench::json`]) —
//! diff two such files with `bench_diff`. `--fault-inject SEED` (builds
//! with `--features fault-inject` only) arms the seeded chaos plan of
//! `certnn_lp::fault` for the whole run; degraded rows are tagged in the
//! table and in the JSON `degradation` field, and every printed bound
//! stays sound.
//!
//! Observability (any of these switches the `certnn-obs` layer on for
//! the run; verdicts and bounds are unaffected): `--trace t.jsonl`
//! writes the span/event/metrics/profile records as JSON lines,
//! `--metrics` prints the counter/gauge/histogram snapshot after the
//! table (and folds it, with each phase's self time, into the final
//! `--json` row as a `metrics` block), `--profile` prints the per-phase
//! self-time breakdown.
//!
//! Crash safety: `--checkpoint DIR` snapshots every verification query's
//! live search state to `DIR` (atomic, checksummed; one file per query),
//! `--checkpoint-every N` sets the node cadence, and `--resume DIR`
//! additionally resumes any query whose snapshot is found in `DIR` —
//! a run killed mid-solve (even with SIGKILL) repeats no finished work
//! and reaches the identical table. Corrupt or mismatched snapshots are
//! never trusted: the affected query restarts fresh, tagged
//! `checkpoint_fallback`.

#![warn(clippy::unwrap_used)]

use certnn_bench::json::{nproc, run_metrics, write_json, BenchRow};
use certnn_bench::table2::{run_table2, Table2Config};
use certnn_bench::write_report;
use certnn_verify::checkpoint::{CheckpointPolicy, DEFAULT_EVERY_NODES};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut config = Table2Config::default();
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
            "--smoke" => config = Table2Config::smoke_test(),
            "--trace" => {
                i += 1;
                trace_path = Some(PathBuf::from(&args[i]));
            }
            "--metrics" => want_metrics = true,
            "--profile" => want_profile = true,
            "--widths" => {
                i += 1;
                config.widths = args[i]
                    .split(',')
                    .map(|w| w.parse().expect("width must be an integer"))
                    .collect();
            }
            "--time-limit" => {
                i += 1;
                let secs: u64 = args[i].parse().expect("time limit in seconds");
                config.time_limit = Duration::from_secs(secs);
            }
            "--epochs" => {
                i += 1;
                config.epochs = args[i].parse().expect("epochs must be an integer");
            }
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

    println!(
        "running Table II: widths {:?}, time limit {:?}, {} epochs, threads {}, {}",
        config.widths,
        config.time_limit,
        config.epochs,
        config.threads,
        if config.warm_start { "warm LP starts" } else { "cold LP starts" }
    );
    match run_table2(&config) {
        Ok(result) => {
            let table = result.to_table();
            print!("{table}");
            match write_report("table2.txt", &table) {
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
                let nproc = nproc();
                let mut rows: Vec<BenchRow> = config
                    .widths
                    .iter()
                    .zip(&result.rows)
                    .map(|(&width, row)| BenchRow {
                        width,
                        value: row.max_lateral,
                        wall_secs: row.stats.elapsed.as_secs_f64(),
                        stats: row.stats,
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
