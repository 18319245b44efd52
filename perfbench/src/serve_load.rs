//! The `serve` workload: two client connections in a closed loop against
//! an in-process loopback `certnn-serve` daemon with a fresh state
//! directory. The daemon restarts on the same directory every
//! [`RESTART_EVERY`] blocks; a restart empties its in-memory job table, so
//! the first repeat of a query after it is answered from the sealed
//! certificate file on disk, later repeats from the table.

use crate::checks::{check_outcome, decide_outcome, same_outcome};
use crate::gen::{objectives, Stream, BLOCK};
use crate::report::Report;
use crate::workloads::abs_gap;
use certnn_core::scenario::left_vehicle_spec;
use certnn_nn::network::Network;
use certnn_serve::client::Client;
use certnn_serve::protocol::{Disposition, JobOutcome, JobRequest};
use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::property::InputSpec;
use certnn_verify::verifier::VerifierOptions;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Daemon worker threads, one per core.
pub const WORKERS: usize = 2;

/// Blocks of the stream between two daemon restarts.
pub const RESTART_EVERY: usize = 10;

fn launch(dir: &Path) -> Result<Server, String> {
    Server::start(ServeOptions {
        workers: WORKERS,
        ..ServeOptions::loopback(dir)
    })
    .map_err(|e| format!("daemon did not start: {e}"))
}

/// A loopback daemon that drains, joins and deletes its state on drop.
pub struct Daemon {
    server: Server,
    dir: PathBuf,
    /// Counters of the daemon's earlier runs on the same directory.
    earlier: HashMap<String, u64>,
}

impl Daemon {
    /// Starts a daemon with a fresh state directory under `root`.
    pub fn start(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = root.join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Self {
            server: launch(&dir)?,
            dir,
            earlier: HashMap::new(),
        })
    }

    /// Drains the daemon and starts it again on the same state directory.
    pub fn restart(&mut self) -> Result<(), String> {
        for (name, n) in self.server.stats().snapshot() {
            *self.earlier.entry(name).or_default() += n;
        }
        self.server.shutdown();
        self.server.wait();
        self.server = launch(&self.dir)?;
        Ok(())
    }

    /// One of the daemon's always-on counters, summed over its restarts.
    pub fn stat(&self, name: &str) -> u64 {
        self.earlier.get(name).copied().unwrap_or(0) + self.server.stats().get(name)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.shutdown();
        self.server.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-member request templates: the network text and solver options
/// every request carries; only the cell changes between requests.
pub fn templates(nets: &[Network]) -> Vec<JobRequest> {
    let spec = left_vehicle_spec();
    let objective = objectives().swap_remove(0);
    let opts = VerifierOptions::default();
    nets.iter()
        .map(|net| JobRequest::from_query(net, &spec, &objective, &opts, None))
        .collect()
}

fn request(template: &JobRequest, spec: &InputSpec) -> JobRequest {
    JobRequest {
        bounds: spec.bounds().iter().map(|iv| (iv.lo(), iv.hi())).collect(),
        ..template.clone()
    }
}

/// One request as a client saw it.
pub struct Sent {
    /// Index into the stream's queries.
    pub query: usize,
    /// How the daemon satisfied the submission.
    pub disposition: Option<Disposition>,
    /// The outcome, or why there is none.
    pub outcome: Result<JobOutcome, String>,
    /// SUBMIT to verdict, milliseconds.
    pub latency_ms: f64,
    /// SUBMIT to its acknowledgement, milliseconds.
    pub submit_ms: f64,
    /// First submission of the query since the daemon last started. A
    /// cache hit marked so came from the certificate file, unless the
    /// other client sent the same query at the same moment.
    pub first_since_start: bool,
}

/// Requests and wall time of one driven stream.
pub struct Driven {
    /// Every request of both clients.
    pub sent: Vec<Sent>,
    /// Wall time from the first submission to the last verdict, less the
    /// time the daemon restarts took.
    pub wall_s: f64,
    /// Daemon restarts.
    pub restarts: usize,
}

fn send(client: &mut Client, req: &JobRequest, query: usize, first_since_start: bool) -> Sent {
    let _span = certnn_obs::span("bench.query");
    certnn_obs::event("bench.query_id", vec![("id", query.into())]);
    let t = Instant::now();
    let submitted = {
        let _s = certnn_obs::span("bench.submit");
        client.submit(req)
    };
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let (disposition, outcome) = match submitted {
        Ok(s) => {
            let _s = certnn_obs::span("bench.result");
            (
                Some(s.disposition),
                client.result(s.job).map_err(|e| e.to_string()),
            )
        }
        Err(e) => (None, Err(e.to_string())),
    };
    Sent {
        query,
        disposition,
        outcome,
        latency_ms: t.elapsed().as_secs_f64() * 1e3,
        submit_ms,
        first_since_start,
    }
}

fn connect(daemon: &Mutex<&mut Daemon>) -> Result<Client, String> {
    let addr = daemon.lock().expect("daemon lock").server.addr();
    Client::connect(addr).map_err(|e| format!("client did not connect: {e}"))
}

/// Drives the whole of `stream` against `daemon` from two client threads,
/// restarting the daemon every [`RESTART_EVERY`] blocks. Clients meet at
/// every block boundary; the restart happens there, with both idle, and
/// they reconnect after it.
pub fn drive(
    daemon: &mut Daemon,
    stream: &Stream,
    templates: &[JobRequest],
) -> Result<Driven, String> {
    let daemon = Mutex::new(daemon);
    let barrier = Barrier::new(2);
    let restarts = Mutex::new((0usize, 0.0f64));
    let restart_error: Mutex<Option<String>> = Mutex::new(None);
    let since_start: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
    let start = Instant::now();
    let logs: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = stream
            .clients
            .iter()
            .map(|order| {
                let (daemon, barrier) = (&daemon, &barrier);
                let (restarts, restart_error) = (&restarts, &restart_error);
                let since_start = &since_start;
                s.spawn(move || {
                    let mut client = connect(daemon)?;
                    let mut log = Vec::with_capacity(order.len());
                    for (pos, &qi) in order.iter().enumerate() {
                        if pos % BLOCK == 0 {
                            let block = pos / BLOCK;
                            let restart = block > 0 && block.is_multiple_of(RESTART_EVERY);
                            if barrier.wait().is_leader() && restart {
                                let t = Instant::now();
                                let restarted = daemon.lock().expect("daemon lock").restart();
                                let mut r = restarts.lock().expect("restart lock");
                                r.0 += 1;
                                r.1 += t.elapsed().as_secs_f64();
                                since_start.lock().expect("query set lock").clear();
                                if let Err(e) = restarted {
                                    *restart_error.lock().expect("error lock") = Some(e);
                                }
                            }
                            barrier.wait();
                            if restart_error.lock().expect("error lock").is_some() {
                                break;
                            }
                            if restart {
                                client = connect(daemon)?;
                            }
                        }
                        let q = &stream.queries[qi];
                        let first = since_start.lock().expect("query set lock").insert(qi);
                        log.push(send(
                            &mut client,
                            &request(&templates[q.net], &q.spec),
                            qi,
                            first,
                        ));
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    if let Some(e) = restart_error.into_inner().expect("error lock") {
        return Err(e);
    }
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (restarts, restart_s) = restarts.into_inner().expect("restart lock");
    // Interleave the clients' logs: they move block by block in step, so
    // this is send order to within a block.
    let mut logs: Vec<_> = logs.into_iter().map(Vec::into_iter).collect();
    let mut sent = Vec::new();
    loop {
        let before = sent.len();
        sent.extend(logs.iter_mut().filter_map(Iterator::next));
        if sent.len() == before {
            break;
        }
    }
    Ok(Driven {
        sent,
        wall_s: elapsed - restart_s,
        restarts,
    })
}

/// Checks every request of a driven stream into `report`: each outcome is
/// an exact, witnessed maximum whose verdict agrees with the set-up
/// falsifier, and every answer that did not cost a solve is bit-identical
/// to the solve behind it.
pub fn check_driven(report: &mut Report, nets: &[Network], stream: &Stream, driven: &Driven) {
    let objective = objectives().swap_remove(0);
    let mut solved: HashMap<usize, &JobOutcome> = HashMap::new();
    for s in &driven.sent {
        if let (Some(Disposition::Fresh), Ok(o)) = (s.disposition, &s.outcome) {
            solved.entry(s.query).or_insert(o);
        }
    }
    for s in &driven.sent {
        report.attempted += 1;
        let q = &stream.queries[s.query];
        let o = match &s.outcome {
            Ok(o) => o,
            Err(e) => {
                report.fail(format!("request for query {}: {e}", q.id));
                continue;
            }
        };
        let checked = check_outcome(&nets[q.net], &q.spec, &objective, abs_gap(), o, q.lower)
            .and_then(|_| q.tau.map_or(Ok(true), |tau| decide_outcome(o, tau)));
        if let Err(e) = checked {
            report.fail(format!("query {}: {e}", q.id));
            continue;
        }
        let fresh = s.disposition == Some(Disposition::Fresh);
        if o.cache_hit == fresh {
            report.fail(format!(
                "query {}: cache-hit flag disagrees with the disposition",
                q.id
            ));
        } else if !fresh && !solved.get(&s.query).is_some_and(|m| same_outcome(m, o)) {
            report.fail(format!(
                "query {}: cache hit differs from the solve behind it",
                q.id
            ));
        }
    }
}
