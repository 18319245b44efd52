//! The verification daemon.
//!
//! Usage: `certnn-serve [--addr HOST:PORT] [--dir DIR] [--workers N]
//! [--checkpoint-every N] [--port-file FILE] [--metrics] [--trace FILE]
//! [--prom HOST:PORT]`
//!
//! Binds `--addr` (default `127.0.0.1:0`; port `0` picks a free port —
//! the bound address is printed and, with `--port-file`, written
//! atomically to a file for scripts to poll). All state — certificate
//! cache, job spool, checkpoints — lives under `--dir` (default
//! `serve-state`); restarting the daemon over the same directory resumes
//! every interrupted job from its last checkpoint. `--workers 0` (the
//! default) runs one verification worker per available core.
//!
//! The daemon runs until a client sends the `SHUTDOWN` frame
//! (`certnn-client shutdown`): it then drains — rejecting new work,
//! parking in-flight jobs via their checkpoints — and exits. With
//! `--metrics` the final observability snapshot is printed on exit;
//! `--trace FILE` writes the span/event log as JSON lines.
//!
//! `--prom HOST:PORT` additionally serves the live telemetry as
//! Prometheus text exposition over plain HTTP — any `GET` answers, no
//! scrape configuration beyond the address is needed. Live `METRICS`
//! wire queries (`certnn-client metrics`, `certnn-top`) work regardless
//! of `--metrics`.

#![warn(clippy::unwrap_used)]

use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::sealed::write_atomic;
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut options = ServeOptions::loopback("serve-state");
    let mut port_file: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut want_metrics = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match flag {
            "--addr" => options.addr = value(),
            "--dir" => options.dir = PathBuf::from(value()),
            "--workers" => {
                options.workers = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"));
            }
            "--checkpoint-every" => {
                options.checkpoint_every = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--checkpoint-every needs an integer"));
            }
            "--port-file" => port_file = Some(PathBuf::from(value())),
            "--trace" => trace_path = Some(PathBuf::from(value())),
            "--prom" => options.prom_addr = Some(value()),
            "--metrics" => want_metrics = true,
            other => fail(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if trace_path.is_some() || want_metrics {
        certnn_obs::set_enabled(true);
    }
    let mut server = match Server::start(options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            std::process::exit(1);
        }
    };
    println!("certnn-serve listening on {}", server.addr());
    if let Some(prom) = server.prom_addr() {
        println!("prometheus exposition on http://{prom}/metrics");
    }
    if let Some(path) = port_file {
        // Publish atomically so a polling script never reads a torn
        // address.
        if let Err(e) = write_atomic(&path, server.addr().to_string().as_bytes()) {
            eprintln!("cannot write port file {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    server.wait();
    println!("certnn-serve drained");
    if want_metrics {
        print!("{}", certnn_obs::metrics_snapshot().to_table());
    }
    if let Some(path) = trace_path {
        match std::fs::write(&path, certnn_obs::drain_jsonl()) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("could not write trace: {e}"),
        }
    }
}
