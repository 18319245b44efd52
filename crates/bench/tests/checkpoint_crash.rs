//! Chaos harness for crash-safe checkpointing, at the process level:
//! the `table2` binary is SIGKILLed mid-solve and resumed, and its
//! snapshots are corrupted on disk between runs. The contract under test
//! is the ISSUE's acceptance gate — a killed-and-resumed run reproduces
//! the uninterrupted verdicts, and a corrupted checkpoint is *never*
//! accepted (the query restarts fresh, tagged `checkpoint_fallback`,
//! with exit code 0).
//!
//! These tests spawn real subprocesses and take minutes, so they are
//! `#[ignore]`d from the default suite; `./ci --chaos` runs them with
//! `-- --ignored`.

use certnn_bench::json::{read_json, BenchRow};
use certnn_lp::Degradation;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn table2_bin() -> &'static str {
    env!("CARGO_BIN_EXE_table2")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certnn_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ckpt_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    files
}

/// Launches `table2 --smoke --threads 1 --checkpoint-every 1 --resume
/// <ckpt_dir>` writing JSON rows to `json`, with extra args appended.
fn spawn_smoke(work: &Path, ckpt_dir: &Path, json: &Path, extra: &[&str]) -> Child {
    Command::new(table2_bin())
        .current_dir(work)
        .args(["--smoke", "--threads", "1", "--checkpoint-every", "1"])
        .args(["--resume".as_ref(), ckpt_dir.as_os_str()])
        .args(["--json".as_ref(), json.as_os_str()])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn table2")
}

/// Waits until a snapshot file exists in `dir` (solver mid-flight), then
/// SIGKILLs the child. Returns `true` if the kill landed while a
/// snapshot existed; `false` if the child finished first (machine too
/// fast for the smoke workload — the calling test degrades to a plain
/// determinism check).
fn kill_once_checkpointed(child: &mut Child, dir: &Path) -> bool {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if !ckpt_files(dir).is_empty() {
            // A query is in flight and has persisted state. Kill without
            // warning — this is the power-loss case, not graceful
            // shutdown.
            child.kill().expect("SIGKILL table2");
            let _ = child.wait();
            return true;
        }
        if let Ok(Some(_)) = child.try_wait() {
            return false;
        }
        assert!(
            Instant::now() < deadline,
            "table2 produced no checkpoint within 300s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn run_to_completion(work: &Path, ckpt_dir: &Path, json: &Path, extra: &[&str]) {
    let status = spawn_smoke(work, ckpt_dir, json, extra)
        .wait()
        .expect("wait table2");
    assert!(status.success(), "table2 exited with {status}");
}

/// Verdict fields of a row (the JSON artifact rounds values to 12
/// significant digits, so equality here is exact-verdict equality).
fn verdicts(rows: &[BenchRow]) -> Vec<(usize, Option<u64>, usize)> {
    rows.iter()
        .map(|r| (r.width, r.value.map(f64::to_bits), r.stats.nodes))
        .collect()
}

#[test]
#[ignore = "spawns and kills real processes; run via ./ci --chaos"]
fn sigkilled_run_resumes_to_the_uninterrupted_verdicts() {
    let work = scratch("kill_work");
    let ckpt = scratch("kill_ckpt");

    // Uninterrupted reference, no checkpointing involved.
    let ref_json = work.join("ref.json");
    let empty = scratch("kill_none");
    run_to_completion(&work, &empty, &ref_json, &[]);
    let reference = read_json(&ref_json).expect("reference rows");
    assert!(!reference.is_empty());

    // Kill mid-solve, then resume to completion.
    let killed_json = work.join("killed.json");
    let mut child = spawn_smoke(&work, &ckpt, &killed_json, &[]);
    let killed = kill_once_checkpointed(&mut child, &ckpt);
    if killed {
        assert!(
            !killed_json.exists(),
            "a SIGKILLed run must not have produced final rows"
        );
    } else {
        eprintln!("[chaos] smoke run finished before any snapshot; plain rerun");
    }

    let resumed_json = work.join("resumed.json");
    run_to_completion(&work, &ckpt, &resumed_json, &[]);
    let resumed = read_json(&resumed_json).expect("resumed rows");

    assert_eq!(
        verdicts(&resumed),
        verdicts(&reference),
        "resumed run must reproduce every uninterrupted verdict and node count"
    );
    for row in &resumed {
        assert_eq!(
            row.stats.degradation,
            Degradation::Exact,
            "a cleanly finishing resumed run carries no degradation"
        );
    }
    assert!(
        ckpt_files(&ckpt).is_empty(),
        "completed queries must delete their snapshots"
    );

    for d in [work, ckpt, empty] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
#[ignore = "spawns and kills real processes; run via ./ci --chaos"]
fn corrupted_checkpoints_are_rejected_and_the_run_still_succeeds() {
    let work = scratch("corrupt_work");
    let ckpt = scratch("corrupt_ckpt");

    // Obtain genuine mid-solve snapshots by killing a run.
    let mut child = spawn_smoke(&work, &ckpt, &work.join("x.json"), &[]);
    let killed = kill_once_checkpointed(&mut child, &ckpt);
    let files = ckpt_files(&ckpt);
    if !killed || files.is_empty() {
        eprintln!("[chaos] no snapshot survived the kill; seeding a torn file instead");
        std::fs::write(ckpt.join("q0000000000000000.ckpt"), b"CNCK\x01\x00")
            .expect("seed torn file");
    }

    // Flip a byte in the middle of every snapshot — torn writes and
    // bit rot look exactly like this.
    for file in ckpt_files(&ckpt) {
        let mut bytes = std::fs::read(&file).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&file, &bytes).expect("rewrite snapshot");
    }

    // Resume against the corrupted state: the run must complete with
    // exit code 0, count every rejection, and never trust the bytes.
    let out_json = work.join("out.json");
    run_to_completion(&work, &ckpt, &out_json, &["--metrics"]);
    let rows = read_json(&out_json).expect("rows after corruption");
    assert!(!rows.is_empty());

    let metrics: &[(String, f64)] = &rows.last().expect("final row").metrics;
    let fallbacks = metrics
        .iter()
        .find(|(name, _)| name == "ckpt.corrupt_fallbacks")
        .map_or(0.0, |(_, v)| *v);
    let tagged = rows
        .iter()
        .any(|r| r.stats.degradation == Degradation::CheckpointFallback);
    assert!(
        fallbacks >= 1.0 || tagged,
        "a corrupted snapshot must be rejected and surfaced \
         (ckpt.corrupt_fallbacks={fallbacks}, tagged_rows={tagged})"
    );
    // Whatever happened, the verdict columns are present and sane.
    for row in &rows {
        assert!(row.value.is_some(), "smoke queries must still close");
    }
    assert!(ckpt_files(&ckpt).is_empty());

    for d in [work, ckpt] {
        let _ = std::fs::remove_dir_all(d);
    }
}
