//! `certnn-perfbench`: the certnn benchmark.
//!
//! ```text
//! certnn-perfbench --workload <maximize|serve> --seed <n>
//!                  --seconds <s> --trace <0|1> [--state-dir <dir>]
//! ```
//!
//! Every run sets its inputs up [`SETUP_REPS`] times from the seed and
//! reports the median set-up time. An untraced run (`--trace 0`) then
//! repeats the workload in passes for `--seconds` and prints the
//! end-to-end metrics (see [`end_to_end`]); a traced run (`--trace 1`)
//! prints the per-layer metrics instead (see [`traced`]). Every answer is
//! checked (see [`checks`]); the last line of standard output is one JSON
//! object with the result.

mod checks;
mod gen;
mod report;
mod serve_load;
mod stats;
mod traced;
mod workloads;

use gen::{Fleet, Generator, Query, Shape, Stream};
use report::{Report, END_TO_END, PER_LAYER};
use serve_load::{check_driven, drive, templates, Daemon};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Times the inputs are set up per run; the median is `setup_s`.
const SETUP_REPS: usize = 5;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table II optimisation query on HybridBab.
    Maximize,
    /// Decision requests "max ≤ τ" from two clients to a loopback daemon.
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "maximize" => Self::Maximize,
            "serve" => Self::Serve,
            _ => return None,
        })
    }

    /// Name used on the command line and in file names.
    pub fn name(self) -> &'static str {
        match self {
            Self::Maximize => "maximize",
            Self::Serve => "serve",
        }
    }

    /// Cell shape of the workload's queries. The unstable-ReLU bands keep
    /// per-query cost in a narrow range: `maximize` cells need tens of
    /// branch-and-bound nodes, and `serve` cells are cheap enough that a
    /// fresh solve costs tens of milliseconds.
    fn shape(self) -> Shape {
        match self {
            Self::Maximize => Shape {
                frac: 0.2,
                unstable: (12, 14),
            },
            Self::Serve => Shape {
                frac: 0.1,
                unstable: (5, 10),
            },
        }
    }

    /// Distinct queries per fleet member (blocks of the stream for
    /// `serve`), which make one pass: enough that the seed's draw of
    /// cells moves a pass little, few enough that a run holds three
    /// passes or more. A pass has a fixed number of answers, so the tail
    /// is always the same percentile (p75 and p95).
    fn size(self) -> usize {
        match self {
            Self::Maximize => 10,
            Self::Serve => 40,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
}

const USAGE: &str = "usage: certnn-perfbench --workload <maximize|serve> \
--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut state_dir = PathBuf::from(".bench_build/perfbench-state");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
    })
}

/// Inputs of one run, as set up from the seed.
pub struct Prepared {
    /// The trained fleet.
    pub fleet: Fleet,
    /// The query set (empty for `serve`).
    pub queries: Vec<Query>,
    /// The request stream (`serve` only).
    pub stream: Option<Stream>,
    /// The daemon the run measures (`serve` only).
    pub daemon: Option<Daemon>,
    /// Median seconds to generate the training data.
    pub dataset_s: f64,
    /// Median seconds to train the fleet.
    pub train_s: f64,
}

/// One set-up: data generation, training, query generation and, for
/// `serve`, a daemon start.
fn prepare(args: &Args, start_daemon: bool) -> Result<Prepared, String> {
    let w = args.workload;
    let fleet = gen::train_fleet()?;
    let mut g = Generator::new(&fleet.nets, args.seed);
    let (queries, stream) = match w {
        Workload::Serve => (Vec::new(), Some(gen::stream(&mut g, w.size(), w.shape())?)),
        _ => (gen::queries(&mut g, w.size(), w.shape())?, None),
    };
    let daemon = if start_daemon {
        Some(Daemon::start(&args.state_dir, "measured")?)
    } else {
        None
    };
    let (dataset_s, train_s) = (fleet.dataset_s, fleet.train_s);
    Ok(Prepared {
        fleet,
        queries,
        stream,
        daemon,
        dataset_s,
        train_s,
    })
}

/// Sets the inputs up [`SETUP_REPS`] times, requires every repetition to
/// produce the same networks and queries, and keeps the last.
fn setup(args: &Args) -> Result<(Prepared, f64), String> {
    let daemon = args.workload == Workload::Serve && !args.trace;
    let (mut times, mut datasets, mut trainings) = (vec![], vec![], vec![]);
    let mut kept: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's daemon drains before the next starts.
        if let Some(p) = kept.as_mut() {
            p.daemon = None;
        }
        let t = Instant::now();
        let p = prepare(args, daemon)?;
        times.push(t.elapsed().as_secs_f64());
        println!(
            "set-up {}: {:.3} s (dataset {:.3} s, training {:.3} s)",
            times.len(),
            t.elapsed().as_secs_f64(),
            p.dataset_s,
            p.train_s
        );
        datasets.push(p.dataset_s);
        trainings.push(p.train_s);
        if let Some(prev) = &kept {
            let texts = |p: &Prepared| {
                p.fleet
                    .nets
                    .iter()
                    .map(certnn_nn::serialize::to_text)
                    .collect::<Vec<_>>()
            };
            let same_stream = match (&prev.stream, &p.stream) {
                (Some(a), Some(b)) => a.queries == b.queries && a.clients == b.clients,
                (a, b) => a.is_none() && b.is_none(),
            };
            if texts(prev) != texts(&p) || prev.queries != p.queries || !same_stream {
                return Err(
                    "set-up is not deterministic: repetitions produced different inputs".into(),
                );
            }
        }
        kept = Some(p);
    }
    let mut p = kept.expect("at least one set-up ran");
    p.dataset_s = stats::median(&datasets);
    p.train_s = stats::median(&trainings);
    Ok((p, stats::median(&times)))
}

/// Resets this process's peak resident memory (`VmHWM`) to its current
/// resident size, so a later [`peak_rss_mb`] covers only what ran since.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("could not reset the memory high-water mark: {e}"))
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// The untraced run: repeats the workload's query set (request stream for
/// `serve`, each time on a fresh daemon) in passes until `--seconds` have
/// passed, checks every answer, and reports each answer at its fastest.
///
/// A pass is the same work every time, so passes differ only in how much
/// of the machine the program had. On the shared two-core VM the
/// benchmark was sized on, speed flips between two levels 1.5× apart
/// every few to 60 seconds. The in-process workloads answer one query at
/// a time, so their query set's wall time is the sum of its latencies:
/// each query counts with its fastest answer over the passes, and the
/// set's wall time is the sum of those. Two `serve` clients overlap, so
/// `serve` reports its fastest pass as a whole.
fn end_to_end(args: &Args, p: &mut Prepared, setup_s: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let nets = &p.fleet.nets;
    let verifier = workloads::verifier(1);
    let templates = templates(nets);
    let mut runs = Vec::new();
    // Per pass: latencies in send order and wall seconds.
    let mut passes: Vec<(Vec<f64>, f64)> = Vec::new();
    reset_peak_rss()?;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        match &p.stream {
            Some(stream) => {
                let mut daemon = match p.daemon.take() {
                    Some(d) => d,
                    None => Daemon::start(&args.state_dir, "measured")?,
                };
                let driven = drive(&mut daemon, stream, &templates)?;
                drop(daemon);
                check_driven(&mut r, nets, stream, &driven);
                let lat = driven.sent.iter().map(|s| s.latency_ms).collect();
                passes.push((lat, driven.wall_s));
            }
            None => {
                let run = workloads::pass(&verifier, nets, &p.queries);
                passes.push((run.log.iter().map(|e| e.1).collect(), run.wall_s));
                runs.push(run);
            }
        }
    }
    workloads::check_run(&mut r, nets, &p.queries, &runs);
    let (latencies, wall_s, how) = if runs.is_empty() {
        let (best, (lat, wall)) = passes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .expect("at least one pass ran");
        (lat.clone(), *wall, format!("pass {}", best + 1))
    } else {
        let lat: Vec<f64> = (0..p.queries.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|(l, _)| l[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let wall = lat.iter().sum::<f64>() / 1e3;
        (lat, wall, "each query's fastest answer".into())
    };
    let tail = stats::tail(&latencies).ok_or("too few answers in a pass for a tail percentile")?;
    r.set("setup_s", setup_s);
    r.set("queries_per_s", latencies.len() as f64 / wall_s);
    r.set("latency_p50_ms", stats::median(&latencies));
    r.set("latency_tail_ms", tail.value);
    r.set("peak_rss_mb", peak_rss_mb()?);
    r.notes
        .push("peak_rss_mb: high-water mark reset after set-up".into());
    r.notes.push(format!(
        "{} passes of {} answers in {:.3} s, pass walls {:?} s; metrics from {how}",
        passes.len(),
        latencies.len(),
        start.elapsed().as_secs_f64(),
        passes
            .iter()
            .map(|(_, w)| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));
    r.notes.push(format!(
        "latency_tail_ms is p{} over {} samples, {} beyond it",
        tail.percentile, tail.samples, tail.beyond
    ));
    r.notes.push(format!(
        "failed_frac {} ({} of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    Ok(r)
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.state_dir)
        .map_err(|e| format!("could not create {}: {e}", args.state_dir.display()))?;
    println!(
        "certnn-perfbench: workload {}, seed {}, {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut prepared, setup_s) = setup(args)?;
    println!("set-up: median {setup_s:.3} s over {SETUP_REPS} repetitions");
    if args.trace {
        traced::run(args.workload, &prepared, args.seed, &args.state_dir)?.print(&PER_LAYER);
    } else {
        end_to_end(args, &mut prepared, setup_s)?.print(&END_TO_END);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("certnn-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("certnn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
