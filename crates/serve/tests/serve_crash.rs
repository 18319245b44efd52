//! Kill-safety of the daemon binary: a `certnn-serve` process killed
//! (SIGKILL — no drain, no destructors) in the middle of a solve must
//! lose no work it acknowledged. The restarted daemon re-queues the job
//! from its crash-safe spool, resumes the search from the last
//! checkpoint, and reaches a verdict bit-identical to an uninterrupted
//! in-process run. One leg kills the daemon inside a neuron-branching
//! tree, the other inside a root hand-off's big-M tree.
//!
//! Spawns real daemon processes, so the test is `#[ignore]` by default;
//! the `./ci --serve` gate runs it explicitly.

use certnn_linalg::Interval;
use certnn_nn::network::Network;
use certnn_serve::client::Client;
use certnn_serve::protocol::{Disposition, JobRequest};
use certnn_verify::bounds::PhaseAnalyzer;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Verifier, VerifierOptions, AUTO_HAND_OFF_UNSTABLE};
use certnn_verify::Degradation;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "certnn-serve-crash-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

type Query = (Network, InputSpec, LinearObjective, VerifierOptions);

/// Maximises the output of `net` over the `[-1, 1]` box of its inputs.
fn box_query(net: Network) -> Query {
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); net.inputs()]).expect("box");
    (net, spec, LinearObjective::output(0), VerifierOptions::default())
}

/// Neurons the fixed-slope analysis of the query's root leaves unstable:
/// at most `AUTO_HAND_OFF_UNSTABLE` and `Engine::Auto` hands the query
/// to the LP rule at the root, more and it branches on neurons.
fn root_unstable((net, spec, objective, _): &Query) -> usize {
    PhaseAnalyzer::new(net, spec.bounds())
        .expect("analyzer")
        .analyze(&[], objective)
        .expect("root analysis")
        .unstable
        .len()
}

/// Spawns the daemon binary over `dir` and resolves its bound address
/// through the `--port-file` handshake.
fn spawn_daemon(dir: &Path, port_file: &Path) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_certnn-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--dir",
            &dir.display().to_string(),
            "--workers",
            "1",
            "--checkpoint-every",
            "1",
            "--port-file",
            &port_file.display().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "daemon never published its port");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

fn wait_for_file_in(dir: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let populated = std::fs::read_dir(dir)
            .map(|mut entries| entries.next().is_some())
            .unwrap_or(false);
        if populated {
            return;
        }
        assert!(Instant::now() < deadline, "no {what} appeared in {}", dir.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A query heavy enough (a few seconds, 11,617 search nodes) that a
/// daemon checkpointing every node is reliably still solving when
/// killed. Its root leaves all 24 ReLUs unstable, one more than
/// `AUTO_HAND_OFF_UNSTABLE`, so the kill lands in a neuron-branching
/// tree.
#[test]
#[ignore = "spawns daemon processes; run via ./ci --serve"]
fn killed_daemon_resumes_to_the_uninterrupted_verdict() {
    let query = box_query(Network::relu_mlp(32, &[12, 12], 1, 7).expect("net"));
    assert!(root_unstable(&query) > AUTO_HAND_OFF_UNSTABLE);
    kill_and_resume("branch", query);
}

/// A query of about the same length (9,584 search nodes) whose root
/// leaves 23 ReLUs unstable, so `Engine::Auto` hands it to the LP rule at
/// the root and the kill lands in the big-M tree: LP-rule nodes are
/// frontier nodes and are snapshotted node by node as well.
#[test]
#[ignore = "spawns daemon processes; run via ./ci --serve"]
fn killed_daemon_resumes_a_root_hand_off_to_the_uninterrupted_verdict() {
    let query = box_query(Network::relu_mlp(32, &[12, 11], 1, 3).expect("net"));
    assert!(root_unstable(&query) <= AUTO_HAND_OFF_UNSTABLE);
    kill_and_resume("hand_off", query);
}

/// Submits `query` to a daemon checkpointing every node, SIGKILLs the
/// daemon at its first snapshot, restarts it over the same directory and
/// checks the resumed verdict against an uninterrupted in-process run.
fn kill_and_resume(tag: &str, (net, spec, objective, opts): Query) {
    let req = JobRequest::from_query(&net, &spec, &objective, &opts, None);

    // The uninterrupted reference, solved in-process.
    let reference = Verifier::with_options(opts)
        .maximize(&net, &spec, &objective)
        .expect("reference solve");
    let reference_best = reference.best_value.expect("reference witness value");

    let dir = temp_dir(tag);
    let port_file = dir.join("port");

    // First daemon: accept the job, checkpoint furiously, die mid-solve.
    let (mut child, addr) = spawn_daemon(&dir, &port_file);
    let mut client = Client::connect(addr.trim()).expect("connects");
    let submitted = client.submit(&req).expect("submits");
    assert_eq!(submitted.disposition, Disposition::Fresh);
    // The spool entry is durable the moment the submission is
    // acknowledged; the first checkpoint proves the solve is mid-flight.
    wait_for_file_in(&dir.join("jobs"), "spool entry");
    wait_for_file_in(&dir.join("ckpt"), "checkpoint");
    child.kill().expect("SIGKILL lands");
    child.wait().expect("daemon reaped");
    drop(client);
    assert!(
        std::fs::read_dir(dir.join("jobs")).expect("spool dir").next().is_some(),
        "the killed daemon must leave its job spool behind"
    );

    // Second daemon over the same directory: the job resumes without
    // being resubmitted.
    let (mut child, addr) = spawn_daemon(&dir, &port_file);
    let mut client = Client::connect(addr.trim()).expect("reconnects");
    let stats = client.metrics().expect("metrics").counters;
    let resumed = stats
        .iter()
        .find(|(n, _)| n == "serve.jobs_resumed")
        .map(|&(_, v)| v)
        .expect("jobs_resumed counter");
    assert!(resumed >= 1, "restarted daemon did not re-queue the spooled job");

    // Submitting the identical query coalesces onto the resumed solve
    // (or hits the cache if it already finished) — never a fresh solve.
    let submitted = client.submit(&req).expect("resubmits");
    assert_ne!(
        submitted.disposition,
        Disposition::Fresh,
        "resumed job must absorb the identical resubmission"
    );
    let outcome = client.result(submitted.job).expect("resumed verdict arrives");
    assert_eq!(outcome.status, reference.status);
    assert_eq!(
        outcome.upper_bound.to_bits(),
        reference.upper_bound.to_bits(),
        "resumed proven bound must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        outcome.best_value.map(f64::to_bits),
        Some(reference_best.to_bits()),
        "resumed witness value must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        outcome.degradation,
        Degradation::Exact,
        "a clean checkpoint resume is not a degradation"
    );
    assert_eq!(
        outcome.stats.nodes, reference.stats.nodes,
        "cumulative node count must match the uninterrupted search"
    );

    // Graceful shutdown this time: the daemon drains and exits zero.
    client.shutdown_server().expect("shutdown acknowledged");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "drained daemon must exit cleanly: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
