//! Machine-readable bench output (`--json <path>`).
//!
//! The report binaries print human tables; scripted comparisons (e.g.
//! warm-vs-cold sweeps diffed by `bench_diff`) want stable records
//! instead. This module emits one JSON array of flat row objects,
//!
//! ```json
//! [
//!   {"width": 10, "value": 0.688497, "wall_secs": 5.4, "nodes": 812,
//!    "lp_iterations": 90321, "binaries": 40, "rows": 900,
//!    "warm_solves": 700, "cold_solves": 112, "pivots_saved": 41250,
//!    "lp_skipped": 0, "lp_forced": 0, "threads": 4, "nproc": 2,
//!    "warm_start": true, "degradation": "exact"}
//! ]
//! ```
//!
//! hand-rolled (no serde in this dependency-free workspace): the counter
//! keys are [`VerifyStats::counters`] in order, so a counter added to the
//! solve record reaches the rows with no change here. Files are read back
//! through the workspace's one JSON parser, [`certnn_obs::jsonl::parse`].
//! [`parse_json`] accepts what [`to_json`] produces plus older files
//! missing the newer fields (they default to zero/true), so committed
//! baselines stay readable across schema growth.
//!
//! When a run is observed (`--metrics` on the report binaries) the final
//! row additionally carries a nested `"metrics": {"lp.warm_solves": 700,
//! ...}` object — the run-cumulative scalar snapshot from `certnn-obs`
//! plus every profiler phase's self time as `phase.<name>.self_s`
//! ([`run_metrics`]). It is always emitted as the *last* key of the row
//! and parsed back into [`BenchRow::metrics`]. `bench_diff` mines it for
//! throughput, per-phase and latency-percentile deltas but treats every
//! key as optional, so wall-time gates keep working against baselines
//! written before (or without) observability.

use certnn_lp::Degradation;
use certnn_obs::jsonl::{self, Value};
use certnn_verify::sealed::write_atomic;
use certnn_verify::verifier::VerifyStats;
use std::fs;
use std::io;
use std::path::Path;

/// One benchmark record: a verification query at a given width/seed.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Hidden width of the verified network (fleet rows: the member seed's
    /// shared width).
    pub width: usize,
    /// Verified objective value; `None` when the query did not close.
    pub value: Option<f64>,
    /// Wall-clock seconds for the row.
    pub wall_secs: f64,
    /// Solve statistics of the row's queries. Every counter and the
    /// degradation tag round-trip through the JSON (counters missing from
    /// older files read as `0`); `elapsed` is not written.
    pub stats: VerifyStats,
    /// Thread knob the row ran with (`0` = auto).
    pub threads: usize,
    /// Cores the machine offered ([`nproc`]) when the row ran; `0` in
    /// files written before the field existed.
    pub nproc: usize,
    /// Whether LP warm-starting was enabled for the row.
    pub warm_start: bool,
    /// Run-cumulative observability scalars (`certnn-obs` counters and
    /// gauge high-water marks), sorted by name. Empty unless the run was
    /// observed; report binaries attach the snapshot to the final row
    /// only. `bench_diff` reads it opportunistically — every key is
    /// optional.
    pub metrics: Vec<(String, f64)>,
}

impl Default for BenchRow {
    fn default() -> Self {
        Self {
            width: 0,
            value: None,
            wall_secs: 0.0,
            stats: VerifyStats::default(),
            threads: 0,
            nproc: 0,
            warm_start: true,
            metrics: Vec::new(),
        }
    }
}

/// Cores available to this process (`available_parallelism`), `0` when
/// the platform cannot tell: the core count every row records, so a
/// timing is never read without the machine it ran on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// The final row's `metrics` block for an observed run: the
/// `certnn-obs` scalar snapshot plus `phase.<name>.self_s`, the self
/// time of every profiler phase in seconds, so `bench_diff` can name
/// the layer a wall-time change lives in.
pub fn run_metrics() -> Vec<(String, f64)> {
    let mut metrics = certnn_obs::metrics_snapshot().scalars();
    for t in certnn_obs::phase_totals() {
        let name = format!("phase.{}.self_s", t.phase.as_str());
        metrics.push((name, t.self_ns as f64 / 1e9));
    }
    metrics
}

/// JSON literal for an `f64`: finite values round-trip via `Display`,
/// non-finite values (which JSON cannot represent) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Rounds a verified objective value to 12 significant digits for the
/// JSON artifact. The verifier's answers are only `abs_gap`-accurate
/// (1e-6 by default), while the trailing bits depend on the search path:
/// α tuning and LP-skip reshape the branch-and-bound tree without moving
/// the answer, drifting the last ulp or two. Rounding at the artifact
/// boundary keeps `bench_diff --require-identical` a verdict gate rather
/// than an ulp-path-noise gate, with ~6 orders of magnitude of slack
/// left below the accuracy contract.
fn round_value(v: f64) -> f64 {
    if v.is_finite() {
        format!("{v:.11e}").parse().unwrap_or(v)
    } else {
        v
    }
}

/// Renders rows as a pretty-printed JSON array.
pub fn to_json(rows: &[BenchRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let value = r
            .value
            .map_or("null".to_string(), |v| json_f64(round_value(v)));
        s.push_str(&format!(
            "  {{\"width\": {}, \"value\": {}, \"wall_secs\": {}",
            r.width,
            value,
            json_f64(r.wall_secs)
        ));
        for (name, v) in r.stats.counters() {
            s.push_str(&format!(", \"{name}\": {v}"));
        }
        s.push_str(&format!(
            ", \"threads\": {}, \"nproc\": {}, \"warm_start\": {}, \"degradation\": \"{}\"",
            r.threads,
            r.nproc,
            r.warm_start,
            r.stats.degradation.as_str()
        ));
        if !r.metrics.is_empty() {
            s.push_str(", \"metrics\": {");
            for (j, (name, v)) in r.metrics.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{name}\": {}", json_f64(*v)));
            }
            s.push('}');
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s.push('\n');
    s
}

/// Writes rows to `path` as JSON, atomically ([`write_atomic`]): a crash
/// leaves the previous file or none, never a torn one.
///
/// # Errors
///
/// Returns [`io::Error`] if the file cannot be written.
pub fn write_json(path: &Path, rows: &[BenchRow]) -> io::Result<()> {
    write_atomic(path, to_json(rows).as_bytes())
}

/// A non-negative integer field of row `row`.
fn count(v: &Value, key: &str, row: usize) -> Result<usize, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 => Ok(n as usize),
        _ => Err(format!("row {row}: bad {key} `{v:?}`")),
    }
}

/// A float field of row `row`; `null` (how non-finite values are
/// written) reads as `None`.
fn float(v: &Value, key: &str, row: usize) -> Result<Option<f64>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Num(n) => Ok(Some(*n)),
        _ => Err(format!("row {row}: bad {key} `{v:?}`")),
    }
}

/// Parses the row JSON produced by [`to_json`]. Fields absent from
/// older files default ([`BenchRow::default`]), so baselines committed
/// before a schema extension keep parsing.
///
/// # Errors
///
/// Returns a description of the first malformed row.
pub fn parse_json(text: &str) -> Result<Vec<BenchRow>, String> {
    let body = text.trim();
    // Distinguish the failure modes a crashed or interrupted writer
    // leaves behind — an empty or cut-off file — from genuine non-JSON
    // input, so the operator learns *what happened*, not just that
    // parsing failed.
    if body.is_empty() {
        return Err("empty file (truncated or interrupted write?)".to_string());
    }
    if !body.starts_with('[') {
        return Err("expected a JSON array".to_string());
    }
    if !body.ends_with(']') {
        return Err(
            "unterminated JSON array — the file is truncated (interrupted write?)".to_string(),
        );
    }
    let Value::Arr(items) = jsonl::parse(body)? else {
        return Err("expected a JSON array".to_string());
    };
    let mut rows = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if item.as_obj().is_none() {
            return Err(format!("row {i}: expected an object"));
        }
        let width = item.get("width").ok_or_else(|| format!("row {i}: missing width"))?;
        let mut row = BenchRow {
            width: count(width, "width", i)?,
            value: item.get("value").map(|v| float(v, "value", i)).transpose()?.flatten(),
            wall_secs: match item.get("wall_secs") {
                None => f64::NAN,
                Some(v) => float(v, "wall_secs", i)?.unwrap_or(f64::NAN),
            },
            threads: item.get("threads").map_or(Ok(0), |v| count(v, "threads", i))?,
            nproc: item.get("nproc").map_or(Ok(0), |v| count(v, "nproc", i))?,
            warm_start: match item.get("warm_start") {
                None => true,
                Some(Value::Bool(b)) => *b,
                Some(v) => return Err(format!("row {i}: bad warm_start `{v:?}`")),
            },
            ..BenchRow::default()
        };
        for (name, slot) in row.stats.counters_mut() {
            if let Some(v) = item.get(name) {
                *slot = count(v, name, i)?;
            }
        }
        // Baselines written before the degradation ladder existed were
        // fault-free exact runs by construction.
        if let Some(v) = item.get("degradation") {
            row.stats.degradation = v
                .as_str()
                .and_then(Degradation::from_str_opt)
                .ok_or_else(|| format!("row {i}: bad degradation `{v:?}`"))?;
        }
        if let Some(v) = item.get("metrics") {
            let pairs = v
                .as_obj()
                .ok_or_else(|| format!("row {i}: malformed metrics object"))?;
            for (name, v) in pairs {
                // Non-finite scalars render as null (JSON has no Inf/NaN).
                let value = float(v, name, i)?.unwrap_or(f64::NAN);
                row.metrics.push((name.clone(), value));
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Reads and parses a bench JSON file.
///
/// # Errors
///
/// Returns a description if the file cannot be read or parsed.
pub fn read_json(path: &Path) -> Result<Vec<BenchRow>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> [BenchRow; 2] {
        [
            BenchRow {
                width: 10,
                value: Some(0.6875),
                wall_secs: 5.5,
                stats: VerifyStats {
                    nodes: 812,
                    lp_iterations: 90321,
                    warm_solves: 700,
                    cold_solves: 112,
                    pivots_saved: 41250,
                    lp_skipped: 0,
                    degradation: Degradation::Exact,
                    ..VerifyStats::default()
                },
                threads: 4,
                nproc: 2,
                warm_start: true,
                metrics: Vec::new(),
            },
            BenchRow {
                width: 60,
                value: None,
                wall_secs: 30.0,
                stats: VerifyStats {
                    nodes: 12000,
                    lp_iterations: 500000,
                    warm_solves: 0,
                    cold_solves: 12000,
                    pivots_saved: 0,
                    lp_skipped: 37,
                    degradation: Degradation::TimedOut,
                    ..VerifyStats::default()
                },
                threads: 0,
                nproc: 1,
                warm_start: false,
                metrics: vec![
                    ("bab.nodes".to_string(), 12000.0),
                    ("lp.warm_solves".to_string(), 700.0),
                ],
            },
        ]
    }

    #[test]
    fn rows_render_as_valid_flat_objects() {
        let s = to_json(&sample_rows());
        assert!(s.starts_with("[\n"));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("\"width\": 10"));
        assert!(s.contains("\"value\": 0.6875"));
        assert!(s.contains("\"value\": null"));
        assert!(s.contains("\"warm_solves\": 700"));
        assert!(s.contains("\"pivots_saved\": 41250"));
        assert!(s.contains("\"warm_start\": false"));
        assert!(s.contains("\"threads\": 4"));
        // Exactly one comma separator for two rows.
        assert_eq!(s.matches("},").count(), 1);
    }

    #[test]
    fn values_round_to_twelve_significant_digits() {
        let row = |v: f64| {
            [BenchRow {
                width: 4,
                value: Some(v),
                ..BenchRow::default()
            }]
        };
        let s = to_json(&row(1.4531405273219526));
        assert!(s.contains("\"value\": 1.45314052732"), "{s}");
        // Two path-noise twins an ulp apart render identically, so the
        // `--require-identical` gate survives tree-reshaping knobs.
        assert_eq!(to_json(&row(1.45314052732195)), s);
        // Short values are untouched.
        assert!(to_json(&row(0.6875)).contains("\"value\": 0.6875"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let rows = [BenchRow {
            width: 1,
            value: Some(f64::INFINITY),
            wall_secs: f64::NAN,
            threads: 1,
            ..BenchRow::default()
        }];
        let s = to_json(&rows);
        assert!(s.contains("\"value\": null"));
        assert!(s.contains("\"wall_secs\": null"));
        assert!(!s.contains("NaN") && !s.contains("inf"));
    }

    #[test]
    fn parse_round_trips_to_json() {
        let rows = sample_rows();
        let parsed = parse_json(&to_json(&rows)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], rows[0]);
        // NaN wall_secs cannot compare equal; the second row is finite.
        assert_eq!(parsed[1], rows[1]);
    }

    #[test]
    fn parse_accepts_pre_warm_start_schema() {
        // A baseline written before the warm-start fields existed.
        let old = "[\n  {\"width\": 6, \"value\": 1.5, \"wall_secs\": 0.25, \
                   \"nodes\": 3, \"threads\": 2}\n]\n";
        let rows = parse_json(old).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].width, 6);
        assert_eq!(rows[0].stats.lp_iterations, 0);
        assert!(rows[0].warm_start);
        // Pre-ladder baselines were fault-free exact runs.
        assert_eq!(rows[0].stats.degradation, Degradation::Exact);
    }

    #[test]
    fn degradation_tags_round_trip_and_reject_garbage() {
        let s = to_json(&sample_rows());
        assert!(s.contains("\"degradation\": \"exact\""));
        assert!(s.contains("\"degradation\": \"timed_out\""));
        let parsed = parse_json(&s).unwrap();
        assert_eq!(parsed[1].stats.degradation, Degradation::TimedOut);
        assert!(
            parse_json("[{\"width\": 1, \"degradation\": \"mangled\"}]").is_err(),
            "unknown degradation tag must be rejected, not defaulted"
        );
    }

    #[test]
    fn metrics_block_round_trips_and_stays_last() {
        let rows = sample_rows();
        let s = to_json(&rows);
        // Nested object, emitted as the row's final key.
        assert!(s.contains("\"metrics\": {\"bab.nodes\": 12000"));
        assert!(s.contains("\"lp.warm_solves\": 700}}"));
        let parsed = parse_json(&s).unwrap();
        assert!(parsed[0].metrics.is_empty());
        assert_eq!(parsed[1].metrics, rows[1].metrics);
        // The flat scalar `warm_solves` must come from the row, not from
        // the dotted metric of the same suffix.
        assert_eq!(parsed[1].stats.warm_solves, 0);
    }

    #[test]
    fn nproc_round_trips_and_reads_zero_from_older_files() {
        let s = to_json(&sample_rows());
        assert!(s.contains("\"threads\": 4, \"nproc\": 2,"), "{s}");
        assert_eq!(parse_json(&s).unwrap()[1].nproc, 1);
        let old = "[{\"width\": 6, \"value\": 1.5, \"threads\": 2}]";
        assert_eq!(parse_json(old).unwrap()[0].nproc, 0);
    }

    #[test]
    fn run_metrics_carry_every_phase_self_time() {
        let metrics = run_metrics();
        for phase in certnn_obs::PHASES {
            let key = format!("phase.{}.self_s", phase.as_str());
            let v = metrics.iter().find(|(n, _)| *n == key).map(|&(_, v)| v);
            assert!(v.is_some_and(|v| v >= 0.0), "{key} missing: {metrics:?}");
        }
    }

    #[test]
    fn metrics_free_files_parse_with_empty_metrics() {
        // Baselines written before observability existed carry no
        // metrics block; they must keep parsing unchanged.
        let old = "[\n  {\"width\": 6, \"value\": 1.5, \"wall_secs\": 0.25, \
                   \"nodes\": 3, \"threads\": 2}\n]\n";
        let rows = parse_json(old).unwrap();
        assert!(rows[0].metrics.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("[{\"width\": ten}]").is_err());
        assert!(parse_json("[{\"nodes\": 3}]").is_err(), "missing width");
    }

    #[test]
    fn every_truncation_of_a_valid_file_errors_cleanly() {
        // A crashed writer can leave any prefix of the artifact on disk;
        // the reader must report a clear error for all of them — never
        // panic, never return partial rows as if they were the run.
        let full = to_json(&sample_rows());
        // Every prefix short of the closing `]` is a torn write.
        let end = full.rfind(']').expect("valid artifact");
        for cut in 0..=end {
            let truncated = &full[..cut];
            let err = parse_json(truncated)
                .expect_err(&format!("prefix of {cut} bytes must not parse"));
            assert!(!err.is_empty());
        }
        // Specific shapes get specific diagnoses.
        assert!(parse_json("").unwrap_err().contains("empty file"));
        assert!(parse_json("   \n").unwrap_err().contains("empty file"));
        let cut_mid_row = &full[..full.len() * 2 / 3];
        assert!(
            parse_json(cut_mid_row).unwrap_err().contains("truncated"),
            "mid-row cut should be diagnosed as truncation: {:?}",
            parse_json(cut_mid_row)
        );
    }

    #[test]
    fn checkpoint_fallback_degradation_round_trips() {
        // The crash-safety layer's tag must survive the JSON artifact so
        // bench_diff and the chaos CI legs can gate on it.
        let rows = [BenchRow {
            width: 8,
            value: Some(1.25),
            wall_secs: 1.0,
            stats: VerifyStats {
                degradation: Degradation::CheckpointFallback,
                ..VerifyStats::default()
            },
            ..BenchRow::default()
        }];
        let s = to_json(&rows);
        assert!(s.contains("\"degradation\": \"checkpoint_fallback\""));
        let parsed = parse_json(&s).unwrap();
        assert_eq!(parsed[0].stats.degradation, Degradation::CheckpointFallback);
    }

    #[test]
    fn write_json_round_trips_to_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join("certnn_bench_rows_test.json");
        let rows = [BenchRow {
            width: 6,
            value: Some(1.5),
            wall_secs: 0.25,
            stats: VerifyStats {
                nodes: 3,
                ..VerifyStats::default()
            },
            threads: 2,
            ..BenchRow::default()
        }];
        write_json(&path, &rows).unwrap();
        let back = read_json(&path).unwrap();
        assert_eq!(back, rows);
        let _ = std::fs::remove_file(path);
    }
}
