//! The daemon's command line rejects a missing or malformed flag value
//! with exit code 2 and a message, never a panic.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `certnn-serve` with `args`; returns its exit code and stderr.
/// A daemon that starts instead of rejecting the line is killed, and
/// reads as no exit code.
fn serve(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_certnn-serve"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn certnn-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait certnn-serve") {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().expect("kill certnn-serve");
            child.wait().expect("reap certnn-serve");
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.and_then(|s| s.code()), stderr)
}

#[test]
fn missing_and_malformed_values_exit_2_without_a_panic() {
    for args in [&["--dir"][..], &["--workers", "x"]] {
        let (code, stderr) = serve(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(args[0]),
            "{args:?}: message names the flag: {stderr}"
        );
    }
}
