//! Resume-equivalence contract of the crash-safe checkpoint layer:
//! interrupting a solve at an arbitrary point and resuming from its
//! snapshot must reproduce the uninterrupted run's verdict, node count
//! and degradation tag exactly — and a corrupted or mismatched snapshot
//! must never be accepted, degrading to a fresh solve instead.

use certnn_linalg::Interval;
use certnn_lp::Deadline;
use certnn_nn::network::Network;
use certnn_verify::bab::{bab_maximize_ckpt, BabOptions, BabResult};
use certnn_verify::checkpoint::{decode_snapshot, encode_snapshot, CheckpointPolicy};
use certnn_verify::property::{InputSpec, LinearConstraint, LinearObjective, Relation};
use certnn_verify::Degradation;
use std::path::{Path, PathBuf};

fn unit_spec(n: usize) -> InputSpec {
    InputSpec::from_box(vec![Interval::new(-1.0, 1.0); n]).unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "certnn_resume_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ckpt_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    files.sort();
    files
}

fn policy(dir: &Path) -> CheckpointPolicy {
    CheckpointPolicy {
        dir: dir.to_path_buf(),
        every_nodes: 1,
        seed: 7,
        resume: true,
    }
}

fn solve(
    net: &Network,
    opts: &BabOptions,
    ckpt: Option<&CheckpointPolicy>,
) -> BabResult {
    solve_over(net, &unit_spec(net.inputs()), opts, ckpt)
}

fn solve_over(
    net: &Network,
    spec: &InputSpec,
    opts: &BabOptions,
    ckpt: Option<&CheckpointPolicy>,
) -> BabResult {
    let obj = LinearObjective::output(0);
    bab_maximize_ckpt(net, spec, &obj, opts, Deadline::none(), ckpt).unwrap()
}

#[test]
fn interrupted_and_resumed_run_matches_uninterrupted_exactly() {
    let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
    let opts = BabOptions::default();
    let full = solve(&net, &opts, None);
    let full_value = full.best_value.unwrap();
    assert!(full.nodes >= 9, "test net too easy ({} nodes)", full.nodes);

    // Interrupt at several different depths of the search.
    for frac in [3usize, 2] {
        let dir = scratch_dir(&format!("eq{frac}"));
        let pol = policy(&dir);
        let limited = BabOptions {
            node_limit: Some((full.nodes / frac).max(2)),
            ..opts
        };
        let first = solve(&net, &limited, Some(&pol));
        assert_eq!(first.status, certnn_milp::MilpStatus::NodeLimit);
        assert_eq!(
            ckpt_files(&dir).len(),
            1,
            "an interrupted run must leave exactly one resumable snapshot"
        );

        let second = solve(&net, &opts, Some(&pol));
        assert_eq!(second.status, full.status);
        assert_eq!(
            second.best_value.unwrap().to_bits(),
            full_value.to_bits(),
            "resumed verdict must be bit-identical to the uninterrupted run"
        );
        assert_eq!(
            second.upper_bound.to_bits(),
            full.upper_bound.to_bits(),
            "resumed proven bound must match"
        );
        assert_eq!(
            second.nodes, full.nodes,
            "cumulative node count must match the uninterrupted run"
        );
        assert_eq!(second.stats.degradation, full.stats.degradation);
        assert_eq!(second.stats.degradation, Degradation::Exact);
        assert!(
            ckpt_files(&dir).is_empty(),
            "a completed query must delete its snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn interrupted_constrained_query_resumes_to_the_uninterrupted_answer() {
    let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
    let spec = unit_spec(4).constrain(LinearConstraint {
        terms: vec![(0, 1.0), (1, 1.0), (3, -0.5)],
        relation: Relation::Le,
        rhs: 0.25,
    });
    let opts = BabOptions::default();
    let full = solve_over(&net, &spec, &opts, None);
    assert_eq!(full.status, certnn_milp::MilpStatus::Optimal);
    assert!(full.nodes >= 4, "test query too easy ({} nodes)", full.nodes);
    assert!(spec.contains(full.witness.as_ref().unwrap(), 1e-6));

    let dir = scratch_dir("constrained");
    let pol = policy(&dir);
    let limited = BabOptions {
        node_limit: Some(full.nodes / 2),
        ..opts
    };
    let first = solve_over(&net, &spec, &limited, Some(&pol));
    assert_eq!(first.status, certnn_milp::MilpStatus::NodeLimit);
    assert_eq!(ckpt_files(&dir).len(), 1);

    let second = solve_over(&net, &spec, &opts, Some(&pol));
    assert_eq!(second.status, full.status);
    assert_eq!(
        second.best_value.unwrap().to_bits(),
        full.best_value.unwrap().to_bits()
    );
    assert_eq!(second.upper_bound.to_bits(), full.upper_bound.to_bits());
    assert_eq!(second.nodes, full.nodes);
    assert_eq!(second.stats.degradation, Degradation::Exact);
    assert!(ckpt_files(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_interruptions_accumulate_to_the_same_answer() {
    // Anytime verification: keep stopping and resuming until done; every
    // leg is bounded, the union reproduces the one-shot run.
    let net = Network::relu_mlp(4, &[10, 10], 1, 11).unwrap();
    let opts = BabOptions::default();
    let full = solve(&net, &opts, None);
    let full_value = full.best_value.unwrap();

    let dir = scratch_dir("chain");
    let pol = policy(&dir);
    let step = (full.nodes / 4).max(1);
    let mut legs = 0usize;
    let finished = loop {
        legs += 1;
        assert!(legs <= 64, "resume chain failed to converge");
        let limited = BabOptions {
            node_limit: Some(step * legs),
            ..opts
        };
        let r = solve(&net, &limited, Some(&pol));
        if r.status != certnn_milp::MilpStatus::NodeLimit {
            break r;
        }
        assert_eq!(ckpt_files(&dir).len(), 1);
    };
    assert!(legs >= 3, "expected several interrupted legs, got {legs}");
    assert_eq!(finished.status, full.status);
    assert_eq!(finished.best_value.unwrap().to_bits(), full_value.to_bits());
    assert_eq!(finished.nodes, full.nodes);
    assert_eq!(finished.stats.degradation, Degradation::Exact);
    assert!(ckpt_files(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_falls_back_to_fresh_solve_with_tag() {
    let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
    let opts = BabOptions::default();
    let full = solve(&net, &opts, None);

    let dir = scratch_dir("corrupt");
    let pol = policy(&dir);
    let limited = BabOptions {
        node_limit: Some((full.nodes / 3).max(2)),
        ..opts
    };
    solve(&net, &limited, Some(&pol));
    let file = ckpt_files(&dir).pop().expect("snapshot must exist");

    // Flip one byte in the middle of the file: the resume must detect it,
    // never trust it, and fall back to a fresh solve that still reaches
    // the uninterrupted verdict — tagged, not errored.
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&file, &bytes).unwrap();

    let r = solve(&net, &opts, Some(&pol));
    assert_eq!(r.status, certnn_milp::MilpStatus::Optimal);
    assert_eq!(
        r.best_value.unwrap().to_bits(),
        full.best_value.unwrap().to_bits(),
        "fallback solve must still find the true optimum"
    );
    assert_eq!(
        r.stats.degradation,
        Degradation::CheckpointFallback,
        "a rejected snapshot must be surfaced as CheckpointFallback"
    );
    // The fresh solve restarts from scratch: its node count equals the
    // uninterrupted run's, not the salvaged continuation's.
    assert_eq!(r.nodes, full.nodes);
    assert!(ckpt_files(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_mismatch_is_rejected_even_with_valid_checksums() {
    let net = Network::relu_mlp(4, &[10, 10], 1, 3).unwrap();
    let opts = BabOptions::default();
    let dir = scratch_dir("mismatch");
    let pol = policy(&dir);
    let limited = BabOptions {
        node_limit: Some(3),
        ..opts
    };
    solve(&net, &limited, Some(&pol));
    let file = ckpt_files(&dir).pop().expect("snapshot must exist");

    // Re-encode the snapshot with a different query hash: checksums are
    // valid, the content-address is not. The resume must reject it.
    let bytes = std::fs::read(&file).unwrap();
    let mut snap = decode_snapshot(&bytes, net.num_relu_neurons(), net.inputs()).unwrap();
    snap.query_hash ^= 1;
    std::fs::write(&file, encode_snapshot(&snap)).unwrap();

    let r = solve(&net, &opts, Some(&pol));
    assert_eq!(r.status, certnn_milp::MilpStatus::Optimal);
    assert_eq!(r.stats.degradation, Degradation::CheckpointFallback);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_on_a_clean_run_changes_nothing_and_leaves_no_file() {
    let net = Network::relu_mlp(4, &[10, 10], 1, 5).unwrap();
    let opts = BabOptions::default();
    let plain = solve(&net, &opts, None);
    let dir = scratch_dir("clean");
    let pol = CheckpointPolicy {
        resume: false,
        ..policy(&dir)
    };
    let with_ckpt = solve(&net, &opts, Some(&pol));
    assert_eq!(
        with_ckpt.best_value.unwrap().to_bits(),
        plain.best_value.unwrap().to_bits()
    );
    assert_eq!(with_ckpt.nodes, plain.nodes);
    assert_eq!(with_ckpt.stats.degradation, plain.stats.degradation);
    assert!(
        ckpt_files(&dir).is_empty(),
        "a completed query must not leave a snapshot behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper's pure big-M MILP: the root switches to the LP rule at once.
fn root_hand_off() -> BabOptions {
    BabOptions {
        milp_threshold: usize::MAX,
        ..BabOptions::default()
    }
}

/// A resumed run reproduces the uninterrupted one: value and bound bit
/// for bit, cumulative node count, a clean tag and no snapshot left.
fn assert_resumed_exactly(full: &BabResult, resumed: &BabResult, dir: &Path) {
    assert_eq!(resumed.status, full.status);
    assert_eq!(
        resumed.best_value.unwrap().to_bits(),
        full.best_value.unwrap().to_bits(),
        "resumed verdict must be bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.upper_bound.to_bits(), full.upper_bound.to_bits());
    assert_eq!(
        resumed.nodes, full.nodes,
        "cumulative node count must match the uninterrupted run"
    );
    assert_eq!(resumed.stats.degradation, Degradation::Exact);
    assert!(ckpt_files(dir).is_empty(), "a completed query must delete its snapshot");
}

#[test]
fn root_hand_off_stopped_by_a_node_limit_resumes_exactly() {
    // The big-M tree lives in the frontier, so a node limit stops it
    // partway and the snapshot holds its open LP-rule nodes.
    let net = Network::relu_mlp(4, &[8, 8], 1, 1).unwrap();
    let opts = root_hand_off();
    let full = solve(&net, &opts, None);
    assert_eq!(full.status, certnn_milp::MilpStatus::Optimal);
    assert!(full.nodes >= 50, "test query too easy ({} nodes)", full.nodes);
    for frac in [3usize, 2] {
        let dir = scratch_dir(&format!("root_nodes{frac}"));
        let pol = policy(&dir);
        let limited = BabOptions {
            node_limit: Some(full.nodes / frac),
            ..opts
        };
        let first = solve(&net, &limited, Some(&pol));
        assert_eq!(first.status, certnn_milp::MilpStatus::NodeLimit);
        assert_eq!(ckpt_files(&dir).len(), 1);
        let second = solve(&net, &opts, Some(&pol));
        assert_resumed_exactly(&full, &second, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn root_hand_off_stopped_by_a_deadline_resumes_exactly() {
    // A node whose LP meets the deadline goes back into the frontier
    // unprocessed, so the snapshot loses no part of the big-M tree.
    let net = Network::relu_mlp(4, &[8, 8], 1, 1).unwrap();
    let opts = root_hand_off();
    let full = solve(&net, &opts, None);
    assert!(full.nodes >= 50, "test query too easy ({} nodes)", full.nodes);
    // Time limits are fractions of a run that writes the same snapshots.
    let dir = scratch_dir("root_timing");
    let timing = CheckpointPolicy {
        resume: false,
        ..policy(&dir)
    };
    let budget = solve(&net, &opts, Some(&timing)).stats.elapsed;
    let _ = std::fs::remove_dir_all(&dir);
    let mut stopped = 0;
    for frac in [4u32, 2] {
        let dir = scratch_dir(&format!("root_deadline{frac}"));
        let pol = policy(&dir);
        let limited = BabOptions {
            time_limit: Some(budget / frac),
            ..opts
        };
        let first = solve(&net, &limited, Some(&pol));
        if first.status == certnn_milp::MilpStatus::TimeLimit {
            stopped += 1;
            assert_eq!(first.stats.degradation, Degradation::TimedOut);
            assert_eq!(ckpt_files(&dir).len(), 1);
            let second = solve(&net, &opts, Some(&pol));
            assert_resumed_exactly(&full, &second, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(stopped > 0, "no run stopped at its deadline");
}
