//! Compares two bench JSON files row by row (`table2 --json` /
//! `fleet --json` output) and prints percentage deltas.
//!
//! Usage:
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> \
//!     [--max-wall-ratio R] [--require-identical]
//! ```
//!
//! Rows are matched by position and must agree on `width`; for each pair
//! the tool prints the wall-time, node, LP-solve (warm + cold) and pivot
//! deltas as percentages of the baseline, plus the candidate's warm/cold
//! solve split and the nodes whose LP the α-bound gate skipped
//! (`lp_skipped`; baselines written before the gate carry `0`). Pivots
//! are simplex iterations as `certnn_lp::LpSolution::iterations` counts
//! them (basis changes plus primal bound flips); files written while the
//! dual simplex still counted each bound flip read ~4× higher on the same
//! work, so a pivot delta against them measures nothing. Likewise `nodes`
//! counts the nodes of both node rules since the big-M MILP's LP rule
//! runs inside the search tree; files written while a hand-off was one
//! node with a nested MILP solve count far fewer, so a node delta against
//! them measures nothing either. When
//! either file carries an obs `metrics` block (`--metrics` on the report
//! binaries) a second section reports throughput and latency deltas:
//! `lp.pivots` per second, the LP-skip gate and warm-start fallback
//! counters (`bab.lp_skipped`, `bab.lp_forced`, `lp.cold_fallbacks`,
//! `lp.stale_basis_bails`) and the warm/cold solve-time p50/p95 shifts.
//! Keys missing on either side (e.g. baselines written before histogram
//! percentiles were folded into the block) print as `n.a.` rather than
//! failing. When both blocks carry per-phase self times
//! (`phase.<name>.self_s`) their deltas follow, naming the layer a
//! wall-time change lives in; the core counts (`nproc`) the two files
//! ran on head the report.
//!
//! Two gates flip the exit code to 1:
//!
//! * `--max-wall-ratio R` — *total* candidate wall time exceeds `R ×`
//!   the baseline's (the perf-regression gate behind `./ci
//!   --bench-smoke`).
//! * `--require-identical` — any row pair differs in its verified
//!   `value` (compared bit-for-bit via `f64::to_bits`; the writer rounds
//!   values to 12 significant digits, so ulp-level search-path noise
//!   never reaches this gate) or its `degradation` tag. Kernel rewrites
//!   and tree-reshaping knobs may shift wall time but must not shift
//!   verdicts; this is the determinism gate.

#![warn(clippy::unwrap_used)]

use certnn_bench::json::{read_json, BenchRow};
use std::path::Path;
use std::process::ExitCode;

/// Percentage change from `base` to `cand`; `None` when the baseline is
/// zero (no meaningful percentage).
fn pct(base: f64, cand: f64) -> Option<f64> {
    (base != 0.0 && base.is_finite() && cand.is_finite())
        .then(|| 100.0 * (cand - base) / base)
}

fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{p:+.1}%"),
        None => "n.a.".to_string(),
    }
}

fn print_diff(base: &[BenchRow], cand: &[BenchRow]) {
    let solves = |r: &BenchRow| (r.stats.warm_solves + r.stats.cold_solves) as f64;
    println!(
        "{:<6} {:>12} {:>12} {:>9} | {:>8} | {:>8} | {:>10} | {:>13} {:>8} {:>12}",
        "width",
        "base wall",
        "cand wall",
        "Δwall",
        "Δnodes",
        "Δsolves",
        "Δpivots",
        "warm/cold",
        "skipped",
        "saved"
    );
    for (b, c) in base.iter().zip(cand) {
        println!(
            "{:<6} {:>11.3}s {:>11.3}s {:>9} | {:>8} | {:>8} | {:>10} | {:>6}/{:<6} {:>8} {:>12}",
            b.width,
            b.wall_secs,
            c.wall_secs,
            fmt_pct(pct(b.wall_secs, c.wall_secs)),
            fmt_pct(pct(b.stats.nodes as f64, c.stats.nodes as f64)),
            fmt_pct(pct(solves(b), solves(c))),
            fmt_pct(pct(b.stats.lp_iterations as f64, c.stats.lp_iterations as f64)),
            c.stats.warm_solves,
            c.stats.cold_solves,
            c.stats.lp_skipped,
            c.stats.pivots_saved
        );
    }
    let total = |rows: &[BenchRow], f: fn(&BenchRow) -> f64| -> f64 {
        rows.iter().map(f).filter(|v| v.is_finite()).sum()
    };
    let (bw, cw) = (total(base, |r| r.wall_secs), total(cand, |r| r.wall_secs));
    let (bn, cn) = (
        total(base, |r| r.stats.nodes as f64),
        total(cand, |r| r.stats.nodes as f64),
    );
    let (bs, cs) = (total(base, solves), total(cand, solves));
    let (bp, cp) = (
        total(base, |r| r.stats.lp_iterations as f64),
        total(cand, |r| r.stats.lp_iterations as f64),
    );
    let skipped: usize = cand.iter().map(|r| r.stats.lp_skipped).sum();
    println!(
        "total  {bw:>11.3}s {cw:>11.3}s {:>9} | {:>8} | {:>8} | {:>10} | {:>13} {skipped:>8}",
        fmt_pct(pct(bw, cw)),
        fmt_pct(pct(bn, cn)),
        fmt_pct(pct(bs, cs)),
        fmt_pct(pct(bp, cp)),
        "",
    );
}

/// Finite value of the run-cumulative obs metric `name`. Report binaries
/// attach the snapshot to the final row only, so every row is searched.
fn metric(rows: &[BenchRow], name: &str) -> Option<f64> {
    rows.iter()
        .flat_map(|r| r.metrics.iter())
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .filter(|v| v.is_finite())
}

/// Prints the metrics-derived section: LP pivot throughput, per-phase
/// self times (only when both sides carry them) and warm/cold
/// solve-latency percentile deltas. Absent keys (metrics-free files, or
/// baselines older than histogram folding) print as `n.a.`.
fn print_metrics_diff(base: &[BenchRow], cand: &[BenchRow]) {
    println!(
        "{:<26} {:>12} {:>12} {:>9}",
        "metric", "base", "cand", "Δ"
    );
    // Pivot throughput: prefer the obs counter (covers every solve in
    // the run), fall back to the summed per-row pivot counts so
    // metrics-free baselines still get a rate.
    let rate = |rows: &[BenchRow]| -> Option<f64> {
        let wall: f64 = rows
            .iter()
            .map(|r| r.wall_secs)
            .filter(|v| v.is_finite())
            .sum();
        let pivots = metric(rows, "lp.pivots")
            .unwrap_or_else(|| rows.iter().map(|r| r.stats.lp_iterations as f64).sum());
        (wall > 0.0).then(|| pivots / wall)
    };
    match (rate(base), rate(cand)) {
        (Some(b), Some(c)) => println!(
            "{:<26} {b:>12.0} {c:>12.0} {:>9}",
            "lp.pivots/s",
            fmt_pct(pct(b, c))
        ),
        _ => println!("{:<26} {:>12} {:>12} {:>9}", "lp.pivots/s", "n.a.", "n.a.", "n.a."),
    }
    for key in [
        "bab.lp_skipped",
        "bab.lp_forced",
        "lp.cold_fallbacks",
        "lp.stale_basis_bails",
    ] {
        let row = |v: Option<f64>| v.map_or("n.a.".to_string(), |c| format!("{c:.0}"));
        let (b, c) = (metric(base, key), metric(cand, key));
        // Skip-gate and warm-fallback counters: absent from metrics-free
        // files; print only when either side has them.
        if b.is_none() && c.is_none() {
            continue;
        }
        let delta = match (b, c) {
            (Some(b), Some(c)) => fmt_pct(pct(b, c)),
            _ => "n.a.".to_string(),
        };
        println!("{key:<26} {:>12} {:>12} {delta:>9}", row(b), row(c));
    }
    for phase in certnn_obs::PHASES {
        let key = format!("phase.{}.self_s", phase.as_str());
        if let (Some(b), Some(c)) = (metric(base, &key), metric(cand, &key)) {
            println!("{key:<26} {b:>11.3}s {c:>11.3}s {:>9}", fmt_pct(pct(b, c)));
        }
    }
    for hist in ["lp.warm_solve_nanos", "lp.cold_solve_nanos"] {
        for q in ["p50", "p95"] {
            let key = format!("{hist}.{q}");
            let row = |v: Option<f64>| {
                v.map_or("n.a.".to_string(), |ns| format!("{:.1}us", ns / 1e3))
            };
            let (b, c) = (metric(base, &key), metric(cand, &key));
            let delta = match (b, c) {
                (Some(b), Some(c)) => fmt_pct(pct(b, c)),
                _ => "n.a.".to_string(),
            };
            println!("{key:<26} {:>12} {:>12} {delta:>9}", row(b), row(c));
        }
    }
}

/// The `--require-identical` determinism gate: every row pair must agree
/// bit-for-bit on the verified `value` and exactly on the `degradation`
/// tag. Wall time, node and pivot counts are free to move.
fn check_identical(base: &[BenchRow], cand: &[BenchRow]) -> Result<(), String> {
    for (i, (b, c)) in base.iter().zip(cand).enumerate() {
        let same_value = match (b.value, c.value) {
            (None, None) => true,
            (Some(bv), Some(cv)) => bv.to_bits() == cv.to_bits(),
            _ => false,
        };
        if !same_value {
            return Err(format!(
                "row {i} (width {}): verdict drift — baseline value {:?} vs candidate {:?}",
                b.width, b.value, c.value
            ));
        }
        if b.stats.degradation != c.stats.degradation {
            return Err(format!(
                "row {i} (width {}): degradation drift — baseline `{}` vs candidate `{}`",
                b.width, b.stats.degradation, c.stats.degradation
            ));
        }
    }
    println!(
        "determinism gate ok: {} rows bit-identical in value and degradation",
        base.len()
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut max_wall_ratio: Option<f64> = None;
    let mut require_identical = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--require-identical" => require_identical = true,
            "--max-wall-ratio" => {
                i += 1;
                let r = args
                    .get(i)
                    .ok_or("--max-wall-ratio needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --max-wall-ratio: {e}"))?;
                if !(r.is_finite() && r > 0.0) {
                    return Err(format!("--max-wall-ratio must be positive, got {r}"));
                }
                max_wall_ratio = Some(r);
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    let [base_path, cand_path] = paths.as_slice() else {
        return Err(
            "usage: bench_diff <baseline.json> <candidate.json> \
             [--max-wall-ratio R] [--require-identical]"
                .to_string(),
        );
    };
    let base = read_json(Path::new(base_path))?;
    let cand = read_json(Path::new(cand_path))?;
    if base.len() != cand.len() {
        return Err(format!(
            "row count mismatch: baseline {} vs candidate {}",
            base.len(),
            cand.len()
        ));
    }
    for (i, (b, c)) in base.iter().zip(&cand).enumerate() {
        if b.width != c.width {
            return Err(format!(
                "row {i}: width mismatch (baseline {} vs candidate {})",
                b.width, c.width
            ));
        }
    }
    let cores = |rows: &[BenchRow]| rows.iter().map(|r| r.nproc).max().unwrap_or(0);
    println!(
        "nproc: baseline {}, candidate {}",
        cores(&base),
        cores(&cand)
    );
    print_diff(&base, &cand);
    print_metrics_diff(&base, &cand);
    if require_identical {
        check_identical(&base, &cand)?;
    }
    if let Some(ratio) = max_wall_ratio {
        let sum = |rows: &[BenchRow]| -> f64 {
            rows.iter()
                .map(|r| r.wall_secs)
                .filter(|v| v.is_finite())
                .sum()
        };
        let (bw, cw) = (sum(&base), sum(&cand));
        if cw > ratio * bw {
            return Err(format!(
                "wall-time regression: candidate {cw:.3}s > {ratio} x baseline {bw:.3}s"
            ));
        }
        println!("wall-time gate ok: {cw:.3}s <= {ratio} x {bw:.3}s");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}
