//! Byte-level attacks on a live daemon: every malformed input the wire
//! can carry must map to a typed `ERROR` frame or a clean close — never
//! a panic, a hung worker, or a leaked temp file — and the daemon must
//! keep answering honest clients afterwards.

use certnn_linalg::Interval;
use certnn_nn::network::Network;
use certnn_serve::client::Client;
use certnn_serve::protocol::{kind, Disposition, ErrorCode, JobRequest, Msg, WireConstraint, MAX_THREADS};
use certnn_serve::server::{ServeOptions, Server};
use certnn_serve::wire::{read_frame, write_frame, MAGIC, MAX_BODY, WIRE_VERSION};
use certnn_verify::sealed::Fnv1a;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::VerifierOptions;
use certnn_verify::MilpStatus;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "certnn-serve-robust-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but non-trivial query the daemon can solve in well under a
/// second.
fn tiny_request(seed: u64) -> JobRequest {
    let net = Network::relu_mlp(3, &[6, 6], 1, seed).expect("tiny net");
    let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).expect("box");
    let objective = LinearObjective::output(0);
    JobRequest::from_query(&net, &spec, &objective, &VerifierOptions::default(), None)
}

/// Proves the daemon still answers honest traffic: submits a fresh tiny
/// query end to end.
fn assert_daemon_alive(server: &Server, seed: u64) {
    let mut client = Client::connect(server.addr()).expect("daemon accepts connections");
    let submitted = client.submit(&tiny_request(seed)).expect("daemon accepts jobs");
    let outcome = client.result(submitted.job).expect("daemon solves jobs");
    assert_eq!(outcome.status, MilpStatus::Optimal);
}

/// Reads one frame with a timeout, expecting an `ERROR` message.
fn expect_error_frame(stream: &mut TcpStream) -> (ErrorCode, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let frame = read_frame(stream).expect("server answers with a frame");
    match Msg::from_frame(&frame).expect("server frame decodes") {
        Msg::Error { code, message } => (code, message),
        other => panic!("expected ERROR, got {other:?}"),
    }
}

fn no_temp_files(dir: &Path) {
    for sub in ["cache", "jobs"] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else { continue };
        for entry in entries.flatten() {
            assert!(
                entry.path().extension().is_none_or(|e| e != "tmp"),
                "leaked temp file {}",
                entry.path().display()
            );
        }
    }
}

#[test]
fn garbage_truncation_oversize_and_bad_version_are_typed_rejections() {
    let dir = temp_dir("attacks");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");

    // Pure garbage: rejected with a Wire error, connection closed.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("writes");
        let (code, _) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::Wire);
    }

    // Unsupported version.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.push(kind::METRICS);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&Fnv1a::new().finish().to_le_bytes());
        s.write_all(&bytes).expect("writes");
        let (code, message) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::Wire);
        assert!(message.contains("version"), "unhelpful message: {message}");
    }

    // Oversized body length.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(kind::METRICS);
        bytes.extend_from_slice(&((MAX_BODY as u32) + 1).to_le_bytes());
        s.write_all(&bytes).expect("writes");
        let (code, message) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::Wire);
        assert!(message.contains("cap"), "unhelpful message: {message}");
    }

    // Torn frame: a valid SUBMIT cut at every interesting prefix. The
    // daemon must notice the truncation (or the close) and never hang.
    let (submit_kind, submit_body) = Msg::Submit { req: Box::new(tiny_request(999)), ctx: None }.to_frame();
    let mut full = Vec::new();
    write_frame(&mut full, submit_kind, &submit_body).expect("encodes");
    let cuts: Vec<usize> = (0..full.len().min(32))
        .chain([full.len() / 2, full.len() - 8, full.len() - 1])
        .collect();
    for cut in cuts {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        s.write_all(&full[..cut]).expect("writes");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        // Whatever the daemon sends (an error frame or nothing), the
        // stream must reach EOF — the handler must not wedge.
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut sink = Vec::new();
        s.read_to_end(&mut sink)
            .unwrap_or_else(|e| panic!("daemon wedged on a {cut}-byte torn frame: {e}"));
    }

    // Corrupted checksum on an otherwise valid frame.
    {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        let mut bytes = full.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        s.write_all(&bytes).expect("writes");
        let (code, message) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::Wire);
        assert!(message.contains("checksum"), "unhelpful message: {message}");
    }

    // After every attack the daemon still solves fresh queries and has
    // leaked nothing.
    assert_daemon_alive(&server, 1000);
    assert_eq!(server.stats().get("serve.jobs_failed"), 0);
    assert!(server.stats().get("serve.protocol_errors") >= 4);
    no_temp_files(&dir);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_kind_and_reply_kinds_keep_the_connection() {
    let dir = temp_dir("kinds");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut s = TcpStream::connect(server.addr()).expect("connects");

    // Unknown kind byte in a well-formed frame (including the retired
    // kinds 14 and 15): typed error, and the *same* connection keeps
    // working (frame boundary was intact).
    for unknown in [14, 15, 250] {
        write_frame(&mut s, unknown, b"whatever").expect("writes");
        let (code, _) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::Malformed);
    }

    // A reply kind sent as a request: same story.
    let (k, body) = Msg::ShutdownReply.to_frame();
    write_frame(&mut s, k, &body).expect("writes");
    let (code, _) = expect_error_frame(&mut s);
    assert_eq!(code, ErrorCode::Malformed);

    // A structurally truncated body behind a valid checksum.
    let (k, body) = Msg::Status { job: 1 }.to_frame();
    write_frame(&mut s, k, &body[..4]).expect("writes");
    let (code, _) = expect_error_frame(&mut s);
    assert_eq!(code, ErrorCode::Malformed);

    // Still the same connection: an honest request now succeeds.
    let (k, body) = Msg::Metrics.to_frame();
    write_frame(&mut s, k, &body).expect("writes");
    let frame = read_frame(&mut s).expect("metrics reply arrives");
    assert!(matches!(
        Msg::from_frame(&frame).expect("decodes"),
        Msg::MetricsReply(_)
    ));

    assert_daemon_alive(&server, 1001);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_job_ids_and_invalid_payloads_are_typed() {
    let dir = temp_dir("unknown");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");

    // Unknown job id on every job-addressed request.
    for msg in [Msg::Status { job: 777 }, Msg::Result { job: 777, wait: false }] {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        let (k, body) = msg.to_frame();
        write_frame(&mut s, k, &body).expect("writes");
        let (code, _) = expect_error_frame(&mut s);
        assert_eq!(code, ErrorCode::UnknownJob);
    }
    assert_eq!(client.cancel(777).expect("cancel replies"), 3);

    // A structurally valid SUBMIT whose payload is not a solvable query
    // (network text does not parse).
    let mut bad = tiny_request(5);
    bad.network_text = "not a network".to_string();
    match client.submit(&bad) {
        Err(certnn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::InvalidJob);
        }
        other => panic!("expected InvalidJob, got {other:?}"),
    }

    // NotReady surfaces as Ok(None) through try_result.
    let submitted = client.submit(&tiny_request(6)).expect("submits");
    // (may already be done; both answers are legal, neither may error)
    let _ = client.try_result(submitted.job).expect("try_result is typed");
    let outcome = client.result(submitted.job).expect("result arrives");
    assert_eq!(outcome.status, MilpStatus::Optimal);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_indices_and_absurd_thread_counts_are_invalid_jobs() {
    // Well-formed frames whose *contents* are hostile: indices past the
    // network's inputs/outputs would panic inside the encoder, and an
    // unclamped thread count would make a worker attempt that many OS
    // thread spawns. All must be rejected as InvalidJob before a worker
    // ever sees them, and the daemon must keep solving honest queries.
    let dir = temp_dir("hostile");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");

    let mut bad_constraint = tiny_request(30);
    bad_constraint.constraints.push(WireConstraint {
        relation: 0,
        rhs: 0.0,
        terms: vec![(u64::MAX, 1.0)], // network has 3 inputs
    });
    let mut bad_objective = tiny_request(31);
    bad_objective.objective_terms = vec![(99, 1.0)]; // network has 1 output
    let mut bad_threads = tiny_request(32);
    bad_threads.threads = MAX_THREADS + 1;
    for (what, bad) in [
        ("constraint index", bad_constraint),
        ("objective index", bad_objective),
        ("thread count", bad_threads),
    ] {
        match client.submit(&bad) {
            Err(certnn_serve::ServeError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::InvalidJob, "hostile {what} not rejected");
            }
            other => panic!("expected InvalidJob for hostile {what}, got {other:?}"),
        }
    }

    // A large-but-legal thread request is clamped to the machine, not
    // rejected and not honoured literally.
    let mut many_threads = tiny_request(33);
    many_threads.threads = MAX_THREADS;
    let submitted = client.submit(&many_threads).expect("clamped job accepted");
    let outcome = client.result(submitted.job).expect("clamped job solves");
    assert_eq!(outcome.status, MilpStatus::Optimal);

    assert_daemon_alive(&server, 34);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_job_disconnect_never_orphans_the_solve() {
    let dir = temp_dir("disconnect");
    let server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");

    // Submit from a connection that immediately dies.
    let req = tiny_request(42);
    let job = {
        let mut client = Client::connect(server.addr()).expect("connects");
        let submitted = client.submit(&req).expect("submits");
        assert_eq!(submitted.disposition, Disposition::Fresh);
        submitted.job
        // client dropped here: the TCP connection closes mid-job
    };

    // The job completes anyway and is fetchable from a new connection.
    let mut client = Client::connect(server.addr()).expect("reconnects");
    let outcome = client.result(job).expect("orphaned job still finishes");
    assert_eq!(outcome.status, MilpStatus::Optimal);
    assert_eq!(server.stats().get("serve.jobs_completed"), 1);

    // And the finished certificate is served to later submitters.
    let resubmitted = client.submit(&req).expect("resubmits");
    assert_ne!(resubmitted.disposition, Disposition::Fresh);
    no_temp_files(&dir);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_daemon_rejects_new_work_with_a_typed_error() {
    let dir = temp_dir("drain");
    let mut server = Server::start(ServeOptions::loopback(&dir)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.shutdown_server().expect("shutdown acknowledged");
    match client.submit(&tiny_request(77)) {
        Err(certnn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::Draining);
        }
        // The handler may already have closed the connection.
        Err(certnn_serve::ServeError::Protocol(_)) | Err(certnn_serve::ServeError::Io(_)) => {}
        Ok(s) => panic!("draining daemon accepted a job: {s:?}"),
        Err(other) => panic!("unexpected error: {other}"),
    }
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
