//! Command lines of the `table2` and `fleet` binaries.
//!
//! Both binaries take the same run flags, which edit the
//! [`RunOptions`] of their configuration, and the same output flags:
//!
//! | flag | effect |
//! |---|---|
//! | `--threads N` | networks trained/verified concurrently (`0` = all cores, the default; `1` = serial) |
//! | `--cold` | no LP warm starts (the baseline the warm path is benchmarked against) |
//! | `--alpha-iters N` | α-tuning rounds per node (`0` = the fixed-slope heuristic, bit-for-bit) |
//! | `--no-lp-skip` | solve every per-node LP relaxation |
//! | `--checkpoint DIR` | snapshot every query's search state to `DIR` |
//! | `--checkpoint-every N` | snapshot cadence in processed nodes |
//! | `--resume DIR` | `--checkpoint DIR`, and resume any query whose snapshot is in `DIR` |
//! | `--json FILE` | one [`BenchRow`] per verified network (see [`crate::json`]) |
//! | `--trace FILE` | span/event/metrics/profile records as JSON lines |
//! | `--metrics` | the obs snapshot after the table, and in the last `--json` row |
//! | `--profile` | per-phase self time after the table |
//! | `--fault-inject SEED` | arm the seeded chaos plan of `certnn_lp::fault` (`--features fault-inject` builds only) |
//!
//! Each binary adds its own flags: `table2` takes `--smoke`, `--widths`,
//! `--time-limit` and `--epochs` ([`table2`]), `fleet` takes `--smoke`
//! and `--serve` ([`fleet`]). `--smoke` picks the seconds-scale base
//! configuration wherever it stands on the line; every other flag edits
//! that base. A missing, malformed or unknown value is an error, which
//! the binaries report with exit code 2 ([`exit_usage`]).

use crate::json::{nproc, run_metrics, write_json, BenchRow};
use crate::table2::Table2Config;
use crate::write_report;
use certnn_core::fleet::FleetConfig;
use certnn_core::run::RunOptions;
use certnn_verify::checkpoint::{CheckpointPolicy, DEFAULT_EVERY_NODES};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// The flags `table2` and `fleet` share, as given on the command line.
#[derive(Debug, Default)]
pub struct SharedFlags {
    threads: Option<usize>,
    cold: bool,
    alpha_iters: Option<usize>,
    no_lp_skip: bool,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: bool,
    fault_inject: Option<u64>,
    output: Output,
}

/// What a run writes besides its table.
#[derive(Debug, Default, Clone, PartialEq)]
struct Output {
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: bool,
    profile: bool,
}

/// Cursor over a command line.
struct Args<'a> {
    words: &'a [String],
    at: usize,
}

impl<'a> Args<'a> {
    /// The value of `flag`: the next word on the line.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.at += 1;
        self.words
            .get(self.at)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of `flag`, parsed as an unsigned integer.
    fn integer<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer, got `{value}`"))
    }
}

/// Walks `words`: the shared flags go into the returned [`SharedFlags`],
/// every other word goes to `own`, which returns `false` for a flag it
/// does not take either.
fn parse<'a>(
    words: &'a [String],
    mut own: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<SharedFlags, String> {
    let mut flags = SharedFlags::default();
    let mut args = Args { words, at: 0 };
    while let Some(flag) = words.get(args.at) {
        let flag = flag.as_str();
        match flag {
            "--threads" => flags.threads = Some(args.integer(flag)?),
            "--cold" => flags.cold = true,
            "--alpha-iters" => flags.alpha_iters = Some(args.integer(flag)?),
            "--no-lp-skip" => flags.no_lp_skip = true,
            "--checkpoint" => flags.checkpoint = Some(args.value(flag)?.into()),
            "--checkpoint-every" => flags.checkpoint_every = Some(args.integer(flag)?),
            "--resume" => {
                flags.checkpoint = Some(args.value(flag)?.into());
                flags.resume = true;
            }
            "--fault-inject" => flags.fault_inject = Some(args.integer(flag)?),
            "--json" => flags.output.json = Some(args.value(flag)?.into()),
            "--trace" => flags.output.trace = Some(args.value(flag)?.into()),
            "--metrics" => flags.output.metrics = true,
            "--profile" => flags.output.profile = true,
            other => {
                if !own(other, &mut args)? {
                    return Err(format!("unknown argument `{other}`"));
                }
            }
        }
        args.at += 1;
    }
    Ok(flags)
}

/// Parses a `table2` command line (program name excluded).
///
/// # Errors
///
/// A message naming the missing, malformed or unknown argument.
pub fn table2(words: &[String]) -> Result<(Table2Config, SharedFlags), String> {
    let mut smoke = false;
    let mut widths = None;
    let mut time_limit = None;
    let mut epochs = None;
    let flags = parse(words, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--widths" => {
                let list = args.value(flag)?;
                let parsed: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
                widths = Some(parsed.map_err(|_| {
                    format!("{flag} needs integers separated by commas, got `{list}`")
                })?);
            }
            "--time-limit" => time_limit = Some(Duration::from_secs(args.integer(flag)?)),
            "--epochs" => epochs = Some(args.integer(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mut config = if smoke {
        Table2Config::smoke_test()
    } else {
        Table2Config::default()
    };
    if let Some(widths) = widths {
        config.widths = widths;
    }
    config.run.time_limit = time_limit.unwrap_or(config.run.time_limit);
    config.epochs = epochs.unwrap_or(config.epochs);
    flags.apply(&mut config.run);
    Ok((config, flags))
}

/// Parses a `fleet` command line (program name excluded): the
/// configuration, the `--serve` daemon address and the shared flags.
///
/// # Errors
///
/// A message naming the missing, malformed or unknown argument, or the
/// clash of `--serve` with `--checkpoint`/`--resume`.
pub fn fleet(words: &[String]) -> Result<(FleetConfig, Option<String>, SharedFlags), String> {
    let mut smoke = false;
    let mut serve = None;
    let flags = parse(words, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--serve" => serve = Some(args.value(flag)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if serve.is_some() && flags.checkpoint.is_some() {
        return Err(
            "--serve is incompatible with --checkpoint/--resume: the daemon owns \
             its own checkpoint directory"
                .to_string(),
        );
    }
    let mut config = if smoke {
        FleetConfig::smoke_test()
    } else {
        FleetConfig::default()
    };
    flags.apply(&mut config.run);
    Ok((config, serve, flags))
}

/// Reports a command-line error on stderr and exits with code 2.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl SharedFlags {
    /// Applies the run flags to `run`.
    fn apply(&self, run: &mut RunOptions) {
        run.threads = self.threads.unwrap_or(run.threads);
        run.warm_start &= !self.cold;
        run.alpha_iters = self.alpha_iters.unwrap_or(run.alpha_iters);
        run.lp_skip &= !self.no_lp_skip;
        if let Some(dir) = &self.checkpoint {
            run.checkpoints = Some(CheckpointPolicy {
                every_nodes: self.checkpoint_every.unwrap_or(DEFAULT_EVERY_NODES),
                resume: self.resume,
                ..CheckpointPolicy::new(dir)
            });
        }
    }

    /// Arms what the flags ask for before a run: fault injection, the
    /// checkpoint directory and the observability layer.
    ///
    /// # Errors
    ///
    /// A message when the directory cannot be created or the build
    /// lacks the feature a flag needs.
    pub fn start(&self) -> Result<(), String> {
        if let Some(seed) = self.fault_inject {
            #[cfg(feature = "fault-inject")]
            {
                certnn_lp::fault::install(certnn_lp::fault::FaultPlan::seeded(seed));
                println!("fault injection armed with seed {seed}");
            }
            #[cfg(not(feature = "fault-inject"))]
            {
                let _ = seed;
                return Err("--fault-inject requires a build with --features fault-inject".into());
            }
        }
        if let Some(dir) = &self.checkpoint {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        }
        let out = &self.output;
        if out.trace.is_some() || out.metrics || out.profile {
            certnn_obs::set_enabled(true);
        }
        Ok(())
    }

    /// Prints `table`, saves it as `target/reports/<report>` and writes
    /// what the output flags ask for. Each of `rows` is stamped with the
    /// run's thread knob and warm-start setting and the machine's core
    /// count; the last carries the metrics snapshot under `--metrics`.
    pub fn finish(&self, report: &str, table: &str, run: &RunOptions, mut rows: Vec<BenchRow>) {
        let out = &self.output;
        print!("{table}");
        match write_report(report, table) {
            Ok(path) => println!("\nwritten to {}", path.display()),
            Err(e) => eprintln!("could not write report: {e}"),
        }
        if out.metrics {
            print!("\n{}", certnn_obs::metrics_snapshot().to_table());
        }
        if out.profile {
            print!("\n{}", certnn_obs::profile_report());
        }
        if let Some(path) = &out.json {
            let nproc = nproc();
            for row in &mut rows {
                row.threads = run.threads;
                row.nproc = nproc;
                row.warm_start = run.warm_start;
            }
            if out.metrics {
                // Run-cumulative snapshot; recorded once, on the final
                // row (see crate::json).
                if let Some(last) = rows.last_mut() {
                    last.metrics = run_metrics();
                }
            }
            match write_json(path, &rows) {
                Ok(()) => println!("json rows written to {}", path.display()),
                Err(e) => eprintln!("could not write json: {e}"),
            }
        }
        if let Some(path) = &out.trace {
            match std::fs::write(path, certnn_obs::drain_jsonl()) {
                Ok(()) => println!("trace written to {}", path.display()),
                Err(e) => eprintln!("could not write trace: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn edit<T>(mut value: T, f: impl FnOnce(&mut T)) -> T {
        f(&mut value);
        value
    }

    fn output(json: Option<&str>, trace: Option<&str>, metrics: bool, profile: bool) -> Output {
        Output {
            json: json.map(PathBuf::from),
            trace: trace.map(PathBuf::from),
            metrics,
            profile,
        }
    }

    /// A checkpoint policy as `--resume DIR --checkpoint-every N` sets it.
    fn resume(dir: &str, every_nodes: usize) -> Option<CheckpointPolicy> {
        Some(CheckpointPolicy {
            every_nodes,
            resume: true,
            ..CheckpointPolicy::new(dir)
        })
    }

    /// Every `table2` line the repository runs or documents (`ci`, the
    /// crash suite, README, EXPERIMENTS, the tutorial and the build
    /// notes) and one line for the documented flags they leave out, with
    /// the configuration the binary built for it before the flags were
    /// shared.
    #[test]
    fn documented_table2_lines_build_their_configurations() {
        let smoke = Table2Config::smoke_test;
        let serial = |c: &mut Table2Config| c.run.threads = 1;
        let bench = |c: &mut Table2Config| {
            c.widths = vec![4, 5];
            c.epochs = 20;
            c.run.time_limit = Duration::from_secs(900);
        };
        let none = output(None, None, false, false);
        let cases = [
            ("", Table2Config::default(), none.clone()),
            (
                "--threads 1",
                edit(Table2Config::default(), serial),
                none.clone(),
            ),
            (
                "--smoke --threads 1 --json rows.json --metrics",
                edit(smoke(), serial),
                output(Some("rows.json"), None, true, false),
            ),
            (
                "--smoke --threads 1 --alpha-iters 0 --no-lp-skip --json a0.json --metrics",
                edit(smoke(), |c| {
                    c.run.threads = 1;
                    c.run.alpha_iters = 0;
                    c.run.lp_skip = false;
                }),
                output(Some("a0.json"), None, true, false),
            ),
            (
                "--smoke --threads 1 --time-limit 5 --fault-inject 7",
                edit(smoke(), |c| {
                    c.run.threads = 1;
                    c.run.time_limit = Duration::from_secs(5);
                }),
                none.clone(),
            ),
            (
                "--smoke --threads 1 --checkpoint-every 1 --resume ck --json k.json --metrics",
                edit(smoke(), |c| {
                    c.run.threads = 1;
                    c.run.checkpoints = resume("ck", 1);
                }),
                output(Some("k.json"), None, true, false),
            ),
            (
                "--smoke --threads 1 --metrics --profile --trace t.jsonl",
                edit(smoke(), serial),
                output(None, Some("t.jsonl"), true, true),
            ),
            (
                "--smoke --threads 2 --json /tmp/rows.json",
                edit(smoke(), |c| c.run.threads = 2),
                output(Some("/tmp/rows.json"), None, false, false),
            ),
            (
                "--widths 4,5 --epochs 20 --time-limit 900",
                edit(Table2Config::default(), bench),
                none.clone(),
            ),
            (
                "--widths 4,5 --epochs 20 --time-limit 900 --threads 1 --cold --json c.json",
                edit(Table2Config::default(), |c| {
                    bench(c);
                    c.run.threads = 1;
                    c.run.warm_start = false;
                }),
                output(Some("c.json"), None, false, false),
            ),
            (
                "--checkpoint ck --checkpoint-every 8",
                edit(Table2Config::default(), |c| {
                    c.run.checkpoints = Some(CheckpointPolicy {
                        every_nodes: 8,
                        ..CheckpointPolicy::new("ck")
                    });
                }),
                none,
            ),
        ];
        for (line, config, out) in cases {
            let (parsed, flags) = table2(&words(line)).expect(line);
            assert_eq!(parsed, config, "table2 {line}");
            assert_eq!(flags.output, out, "table2 {line}");
        }
        let (_, flags) = table2(&words("--smoke --fault-inject 7")).expect("parses");
        assert_eq!(flags.fault_inject, Some(7));
    }

    /// Every `fleet` line the repository runs or documents, and one line
    /// for the documented flags they leave out.
    #[test]
    fn documented_fleet_lines_build_their_configurations() {
        let smoke = FleetConfig::smoke_test;
        let none = output(None, None, false, false);
        let cases = [
            ("", FleetConfig::default(), None, none.clone()),
            (
                "--threads 1",
                edit(FleetConfig::default(), |c| c.run.threads = 1),
                None,
                none.clone(),
            ),
            (
                "--threads 1 --cold --json f.json",
                edit(FleetConfig::default(), |c| {
                    c.run.threads = 1;
                    c.run.warm_start = false;
                }),
                None,
                output(Some("f.json"), None, false, false),
            ),
            (
                "--threads 1 --metrics",
                edit(FleetConfig::default(), |c| c.run.threads = 1),
                None,
                output(None, None, true, false),
            ),
            (
                "--smoke --threads 2 --trace target/obs_fleet_trace.jsonl --metrics",
                edit(smoke(), |c| c.run.threads = 2),
                None,
                output(None, Some("target/obs_fleet_trace.jsonl"), true, false),
            ),
            (
                "--smoke --threads 2 --json /tmp/fleet.json",
                edit(smoke(), |c| c.run.threads = 2),
                None,
                output(Some("/tmp/fleet.json"), None, false, false),
            ),
            (
                "--smoke --serve 127.0.0.1:7788",
                smoke(),
                Some("127.0.0.1:7788"),
                none.clone(),
            ),
            (
                "--resume ck --alpha-iters 0 --no-lp-skip",
                edit(FleetConfig::default(), |c| {
                    c.run.alpha_iters = 0;
                    c.run.lp_skip = false;
                    c.run.checkpoints = resume("ck", DEFAULT_EVERY_NODES);
                }),
                None,
                none,
            ),
        ];
        for (line, config, serve, out) in cases {
            let (parsed, addr, flags) = fleet(&words(line)).expect(line);
            assert_eq!(parsed, config, "fleet {line}");
            assert_eq!(addr.as_deref(), serve, "fleet {line}");
            assert_eq!(flags.output, out, "fleet {line}");
        }
    }

    #[test]
    fn smoke_sets_the_base_wherever_it_stands() {
        let (late, _) = table2(&words("--time-limit 5 --threads 1 --smoke")).expect("parses");
        let (early, _) = table2(&words("--smoke --time-limit 5 --threads 1")).expect("parses");
        assert_eq!(late, early);
        assert_eq!(late.run.time_limit, Duration::from_secs(5));
        let (late, ..) = fleet(&words("--cold --smoke")).expect("parses");
        let (early, ..) = fleet(&words("--smoke --cold")).expect("parses");
        assert_eq!(late, early);
        assert!(!late.run.warm_start);
    }

    #[test]
    fn missing_malformed_and_unknown_values_are_errors() {
        let cases = [
            ("--smoke --threads", "--threads needs a value"),
            (
                "--threads one",
                "--threads needs a non-negative integer, got `one`",
            ),
            (
                "--threads -1",
                "--threads needs a non-negative integer, got `-1`",
            ),
            ("--widths", "--widths needs a value"),
            (
                "--widths 4,x",
                "--widths needs integers separated by commas, got `4,x`",
            ),
            (
                "--widths 4,,6",
                "--widths needs integers separated by commas, got `4,,6`",
            ),
            (
                "--time-limit 1.5",
                "--time-limit needs a non-negative integer, got `1.5`",
            ),
            ("--epochs", "--epochs needs a value"),
            (
                "--alpha-iters many",
                "--alpha-iters needs a non-negative integer, got `many`",
            ),
            ("--checkpoint-every", "--checkpoint-every needs a value"),
            ("--checkpoint", "--checkpoint needs a value"),
            ("--resume", "--resume needs a value"),
            ("--json", "--json needs a value"),
            ("--trace", "--trace needs a value"),
            (
                "--fault-inject x",
                "--fault-inject needs a non-negative integer, got `x`",
            ),
            ("--serve a:1", "unknown argument `--serve`"),
            ("--smoke 4", "unknown argument `4`"),
        ];
        for (line, message) in cases {
            assert_eq!(
                table2(&words(line)).expect_err(line),
                message,
                "table2 {line}"
            );
        }
        let cases = [
            (
                "--threads one",
                "--threads needs a non-negative integer, got `one`",
            ),
            ("--smoke --threads", "--threads needs a value"),
            ("--serve", "--serve needs a value"),
            ("--widths 4", "unknown argument `--widths`"),
            (
                "--serve 127.0.0.1:1 --resume ck",
                "--serve is incompatible with --checkpoint/--resume: the daemon owns its \
                 own checkpoint directory",
            ),
        ];
        for (line, message) in cases {
            assert_eq!(
                fleet(&words(line)).expect_err(line),
                message,
                "fleet {line}"
            );
        }
    }
}
