//! The metric catalogue and the one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! unit test holds the two together.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("lp.pivots", "count"),
    ("lp.pivots_per_s", "1/s"),
    ("lp.warm_solves", "count"),
    ("lp.cold_solves", "count"),
    ("lp.warm_budget_stalls", "count"),
    ("lp.stale_basis_bails", "count"),
    ("lp.cold_fallbacks", "count"),
    ("lp.warm_useful_frac", "ratio"),
    ("lp.warm_solve_p50_us", "us"),
    ("lp.cold_solve_p50_us", "us"),
    ("lp.warm_self_s", "s"),
    ("lp.cold_self_s", "s"),
    ("lp.refactorizations", "count"),
    ("lp.root_solve_ms", "ms"),
    ("bounds.root_tuned_ms", "ms"),
    ("bounds.root_fixed_ms", "ms"),
    ("bounds.self_s", "s"),
    ("bab.lp_skipped", "count"),
    ("bab.lp_forced", "count"),
    ("encoder.encode_ms", "ms"),
    ("encoder.binaries", "count"),
    ("encoder.rows", "count"),
    ("bab.nodes", "count"),
    ("bab.nodes_per_s", "1/s"),
    ("bab.milp_calls", "count"),
    ("bab.frontier_peak", "count"),
    ("bab.incumbent_updates", "count"),
    ("bab.branch_self_s", "s"),
    ("bab.speedup_2t", "ratio"),
    ("milp.nodes", "count"),
    ("milp.solves", "count"),
    ("milp.incumbent_updates", "count"),
    ("milp.dropped_subtrees", "count"),
    ("milp.engine_over_bab", "ratio"),
    ("attack.ms", "ms"),
    ("attack.refute_frac", "ratio"),
    ("attack.gap", "m/s"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.cert_hit_ms", "ms"),
    ("serve.fresh_overhead_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.jobs_coalesced", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.job_wall_p50_ms", "ms"),
    ("serve.jobs_failed", "count"),
    ("ckpt.written", "count"),
    ("ckpt.bytes", "B"),
    ("nn.train_s", "s"),
    ("sim.dataset_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.dropped_records", "count"),
];

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Answers (or requests) attempted.
    pub attempted: u64,
    /// Attempts that errored, were not exact, or failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` for `name` (the last value set wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Counts one failed attempt, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {}", why.into()));
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Prints the human-readable lines, then the JSON object with every
    /// metric of `catalogue` as the last line of standard output. A metric
    /// this run did not measure reads 0 and is marked in the table.
    pub fn print(&self, catalogue: &[(&'static str, &'static str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self.value(name).filter(|v| v.is_finite());
            match value {
                Some(v) => println!("  {name:<26} {v:>14.6} {unit}"),
                None => println!(
                    "  {name:<26} {:>14} {unit}  (not measured on this workload)",
                    0
                ),
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the benchmark does not print"
        );
    }
}
