//! Regenerates Table II (verification of `I4×N` motion predictors).
//!
//! Usage:
//!
//! ```text
//! table2 [--smoke] [--widths 4,6,8,10,12,14] [--time-limit 150] [--epochs 60]
//!        [--threads N] [--cold] [--alpha-iters N] [--no-lp-skip]
//!        [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]
//!        [--json rows.json] [--trace t.jsonl] [--metrics] [--profile]
//!        [--fault-inject SEED]
//! ```
//!
//! `--smoke` runs the seconds-scale variant used by the integration tests.
//! `--time-limit` is in seconds per verification query. Each network is
//! seeded by its *position* in `--widths`, not by its width: `--widths 12`
//! trains a different `I4×12` from the fifth row of the default sweep,
//! while `--widths 4,6,8,10,12` reproduces the default sweep's first five
//! rows. Compare probes on the same list.
//!
//! The other flags are shared with `fleet` and documented in
//! [`certnn_bench::cli`]: threads, solver settings, crash-safe
//! checkpoints, the `--json` rows that `bench_diff` compares,
//! observability and fault injection. Verdicts are identical at any
//! thread count and solver setting. A resumed run repeats no finished
//! work and reaches the identical table; corrupt or mismatched snapshots
//! are never trusted: the affected query restarts fresh, tagged
//! `checkpoint_fallback`.

#![warn(clippy::unwrap_used)]

use certnn_bench::cli::{self, exit_usage};
use certnn_bench::json::BenchRow;
use certnn_bench::table2::run_table2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, flags) = cli::table2(&args).unwrap_or_else(|e| exit_usage(&e));
    flags.start().unwrap_or_else(|e| exit_usage(&e));
    println!(
        "running Table II: widths {:?}, time limit {:?}, {} epochs, threads {}, {}",
        config.widths,
        config.run.time_limit,
        config.epochs,
        config.run.threads,
        if config.run.warm_start {
            "warm LP starts"
        } else {
            "cold LP starts"
        }
    );
    match run_table2(&config) {
        Ok(result) => {
            let rows = config
                .widths
                .iter()
                .zip(&result.rows)
                .map(|(&width, row)| BenchRow {
                    width,
                    value: row.max_lateral,
                    wall_secs: row.stats.elapsed.as_secs_f64(),
                    stats: row.stats,
                    ..BenchRow::default()
                })
                .collect();
            flags.finish("table2.txt", &result.to_table(), &config.run, rows);
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
