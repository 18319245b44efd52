//! Reproduces the paper's fleet observation: networks trained on the same
//! data do not all satisfy the safety property.
//!
//! Usage: `fleet [--smoke] [--serve HOST:PORT] [--threads N] [--cold]
//! [--alpha-iters N] [--no-lp-skip] [--checkpoint DIR] [--checkpoint-every N]
//! [--resume DIR] [--json rows.json] [--trace t.jsonl] [--metrics]
//! [--profile] [--fault-inject SEED]`
//!
//! `--smoke` runs the seconds-scale fleet used by the tests. The other
//! flags are shared with `table2` and documented in
//! [`certnn_bench::cli`]; `--json` writes one record per member, and
//! degraded members are tagged in the table's `mode` column.
//!
//! `--serve HOST:PORT` ships every verification query to a running
//! `certnn-serve` daemon instead of solving in-process. Training stays
//! local and deterministic, so the table is bit-identical either way;
//! repeated runs against the same daemon answer from its certificate
//! cache. Incompatible with `--checkpoint`/`--resume` (the daemon owns
//! its own checkpoint directory).

#![warn(clippy::unwrap_used)]

use certnn_bench::cli::{self, exit_usage};
use certnn_bench::json::BenchRow;
use certnn_core::fleet::{run_fleet, FleetResult};
use certnn_serve::fleet::run_fleet_over;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, serve_addr, flags) = cli::fleet(&args).unwrap_or_else(|e| exit_usage(&e));
    flags.start().unwrap_or_else(|e| exit_usage(&e));
    println!(
        "training and verifying a fleet of {} I{}x{} predictors (threads {})...\n",
        config.fleet_size,
        config.hidden.len(),
        config.hidden[0],
        config.run.threads
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
            let width = config.hidden.first().copied().unwrap_or(0);
            let rows = result
                .members
                .iter()
                .map(|m| BenchRow {
                    width,
                    value: m.verified_max,
                    wall_secs: m.wall_secs,
                    stats: m.stats,
                    ..BenchRow::default()
                })
                .collect();
            flags.finish("fleet.txt", &result.to_table(), &config.run, rows);
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
