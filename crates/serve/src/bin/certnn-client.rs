//! Command-line client for a running `certnn-serve` daemon.
//!
//! Usage: `certnn-client --addr HOST:PORT COMMAND [ARGS]`
//!
//! Commands:
//!
//! - `submit NETFILE [--time-limit-ms N] [--node-limit N] [--cold]
//!   [--alpha-iters N] [--no-lp-skip] [--wait]` — submits the paper's
//!   safety query (*maximum lateral velocity when a vehicle is abreast on
//!   the left*) for the network serialized in `NETFILE`
//!   ([`certnn_nn::serialize`] text format). One job per mixture
//!   component; prints each job id and disposition. With `--wait`,
//!   blocks for the outcomes and prints the verified maximum.
//! - `status JOB` — prints a job's lifecycle state.
//! - `result JOB [--no-wait]` — fetches (by default awaiting) a job's
//!   outcome.
//! - `watch JOB` — streams progress events until the job finishes.
//! - `cancel JOB` — cancels a queued or running job.
//! - `metrics [--watch] [--interval-ms N]` — prints the daemon's live
//!   telemetry: gauges, cumulative counters, windowed per-second rates
//!   and p50/p95/p99, and recent events. `--watch` reprints every
//!   interval (default 1000 ms) until interrupted.
//! - `flight JOB` — prints a job's flight recorder (span tree,
//!   checkpoint/phase profile, degradations); works on live jobs and,
//!   for finished jobs, on the log persisted next to the certificate —
//!   including after a daemon restart.
//! - `shutdown` — asks the daemon to drain and exit.

#![warn(clippy::unwrap_used)]

use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_nn::gmm::OutputLayout;
use certnn_serve::client::Client;
use certnn_serve::protocol::JobRequest;
use certnn_serve::ServeError;
use certnn_verify::verifier::VerifierOptions;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
    let mut rest = Vec::new();
    let mut i = 0;
    let mut have_addr = false;
    while i < args.len() {
        if args[i] == "--addr" {
            i += 1;
            addr = args
                .get(i)
                .unwrap_or_else(|| fail("--addr needs a value"))
                .clone();
            have_addr = true;
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    if !have_addr {
        fail("--addr HOST:PORT is required");
    }
    let Some(command) = rest.first().cloned() else {
        fail("missing command (submit/status/result/watch/cancel/stats/metrics/flight/shutdown)");
    };
    let mut client = Client::connect(addr.as_str())
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let result = run(&mut client, &command, &rest[1..]);
    if let Err(e) = result {
        eprintln!("{command} failed: {e}");
        std::process::exit(1);
    }
}

fn parse_job(args: &[String]) -> u64 {
    args.first()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("expected a numeric job id"))
}

fn run(client: &mut Client, command: &str, args: &[String]) -> Result<(), ServeError> {
    match command {
        "submit" => submit(client, args),
        "status" => {
            let s = client.status(parse_job(args))?;
            println!(
                "state {} (queue depth {}, cache hit {})",
                s.state.as_str(),
                s.queue_depth,
                s.cache_hit
            );
            Ok(())
        }
        "result" => {
            let job = parse_job(args);
            let outcome = if args.contains(&"--no-wait".to_string()) {
                match client.try_result(job)? {
                    Some(o) => o,
                    None => {
                        println!("job {job} still in flight");
                        return Ok(());
                    }
                }
            } else {
                client.result(job)?
            };
            print_outcome(&outcome);
            Ok(())
        }
        "watch" => {
            let outcome = client.watch(parse_job(args), |ev| {
                println!("[{}] {} nodes={} {}", ev.seq, ev.state.as_str(), ev.nodes, ev.detail);
            })?;
            print_outcome(&outcome);
            Ok(())
        }
        "cancel" => {
            let code = client.cancel(parse_job(args))?;
            println!(
                "{}",
                match code {
                    0 => "cancelled (was queued)",
                    1 => "cancellation requested (running)",
                    2 => "already finished",
                    _ => "unknown job",
                }
            );
            Ok(())
        }
        "metrics" => {
            let watch = args.contains(&"--watch".to_string());
            let mut interval_ms = 1000u64;
            if let Some(pos) = args.iter().position(|a| a == "--interval-ms") {
                interval_ms = args
                    .get(pos + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--interval-ms needs an integer"));
            }
            loop {
                let m = client.metrics()?;
                print_metrics(&m);
                if !watch {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
                println!();
            }
        }
        "flight" => {
            let log = client.flight(parse_job(args))?;
            print_flight(&log);
            Ok(())
        }
        "shutdown" => {
            client.shutdown_server()?;
            println!("daemon draining");
            Ok(())
        }
        other => fail(&format!("unknown command `{other}`")),
    }
}

fn submit(client: &mut Client, args: &[String]) -> Result<(), ServeError> {
    let Some(netfile) = args.first() else {
        fail("submit needs a network file");
    };
    let text = std::fs::read_to_string(netfile)
        .unwrap_or_else(|e| fail(&format!("cannot read {netfile}: {e}")));
    let net = certnn_nn::serialize::from_text(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse {netfile}: {e}")));
    let mut opts = VerifierOptions {
        threads: 1,
        ..VerifierOptions::default()
    };
    let mut node_limit = None;
    let mut wait = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag {
            "--time-limit-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| fail("bad time limit"));
                opts.time_limit = Some(Duration::from_millis(ms));
            }
            "--node-limit" => {
                node_limit = Some(value().parse().unwrap_or_else(|_| fail("bad node limit")));
            }
            "--cold" => opts.warm_start = false,
            "--alpha-iters" => {
                opts.alpha_iters = value().parse().unwrap_or_else(|_| fail("bad alpha iters"));
            }
            "--no-lp-skip" => opts.lp_skip = false,
            "--wait" => wait = true,
            other => fail(&format!("unknown submit flag `{other}`")),
        }
        i += 1;
    }
    let spec = left_vehicle_spec();
    let layout = OutputLayout::new(1);
    let mut jobs = Vec::new();
    for obj in lateral_mean_objectives(layout) {
        let req = JobRequest::from_query(&net, &spec, &obj, &opts, node_limit);
        let s = client.submit(&req)?;
        println!(
            "job {} key {:016x} ({:?})",
            s.job, s.key, s.disposition
        );
        jobs.push(s.job);
    }
    if wait {
        let mut max: Option<f64> = None;
        for job in jobs {
            let outcome = client.result(job)?;
            print_outcome(&outcome);
            match (max, outcome.exact_max()) {
                (_, None) => {
                    println!("query did not close; no verified maximum");
                    return Ok(());
                }
                (cur, Some(v)) => max = Some(cur.map_or(v, |c| c.max(v))),
            }
        }
        if let Some(v) = max {
            println!("verified maximum lateral velocity: {v:.6} m/s");
        }
    }
    Ok(())
}

fn print_metrics(m: &certnn_serve::protocol::LiveMetrics) {
    println!(
        "uptime {:.1}s  queue {}  workers {}/{}  cache hit ratio {:.2}",
        m.uptime_ns as f64 * 1e-9,
        m.queue_depth,
        m.workers_busy,
        m.workers_total,
        m.cache_hit_ratio
    );
    println!("counters:");
    for (name, v) in &m.counters {
        println!("  {name:<28} {v}");
    }
    if !m.rates.is_empty() {
        println!("rates (last 10 s, events/s):");
        for (name, r) in &m.rates {
            println!("  {name:<28} {r:.2}");
        }
    }
    if !m.windows.is_empty() {
        println!("windows (last 10 s, ns):");
        for (name, w) in &m.windows {
            println!(
                "  {name:<28} n={} p50={} p95={} p99={}",
                w.count, w.p50, w.p95, w.p99
            );
        }
    }
    if !m.events.is_empty() {
        println!("recent events:");
        for (t_ns, name) in &m.events {
            println!("  [{:>9.3}s] {name}", *t_ns as f64 * 1e-9);
        }
    }
}

fn print_flight(log: &certnn_serve::flight::FlightLog) {
    println!(
        "flight log for key {:016x} (trace {:016x}, {} events{})",
        log.key,
        log.trace_id,
        log.events.len(),
        if log.truncated > 0 {
            format!(", {} truncated", log.truncated)
        } else {
            String::new()
        }
    );
    for ev in &log.events {
        println!(
            "  [{:>9.3}s] {:<11} a={} b={} {}",
            ev.t_ns as f64 * 1e-9,
            ev.kind.as_str(),
            ev.a,
            ev.b,
            ev.detail
        );
    }
}

fn print_outcome(o: &certnn_serve::protocol::JobOutcome) {
    println!(
        "key {:016x}: {:?}, upper bound {:.6}, best {}, {} nodes, {} lp iterations, \
         degradation {}, cache hit {}",
        o.key,
        o.status,
        o.upper_bound,
        o.best_value
            .map(|v| format!("{v:.6}"))
            .unwrap_or_else(|| "n.a.".into()),
        o.stats.nodes,
        o.stats.lp_iterations,
        o.degradation.as_str(),
        o.cache_hit
    );
}
