//! Run settings of the experiments that verify many independent networks
//! — the fleet ([`crate::fleet`]) and the Table II width sweep in
//! `certnn-bench` — and the pool their jobs run on.
//!
//! Each job trains and verifies one network and is deterministic given
//! its seed, so the jobs run concurrently and the thread count changes
//! only the wall time, never a table. [`RunOptions`] holds the one rule
//! that splits a run's thread budget between jobs and their searches.

use certnn_verify::bab::{resolve_threads, DEFAULT_ALPHA_ITERS};
use certnn_verify::checkpoint::CheckpointPolicy;
use certnn_verify::verifier::{Verifier, VerifierOptions};
use certnn_verify::Deadline;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// The knobs an experiment run sets for every verification query.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Jobs run concurrently: `0` = one worker per available core, `1` =
    /// serial. Concurrent jobs keep each search serial; a lone worker
    /// hands this count to its search instead.
    pub threads: usize,
    /// Wall-clock limit per verification query.
    pub time_limit: Duration,
    /// Reuse parent LP bases across branch-and-bound nodes (see
    /// [`VerifierOptions::warm_start`]). Verdict-preserving; disable to
    /// benchmark the cold path.
    pub warm_start: bool,
    /// α-optimization rounds per branch-and-bound node (see
    /// [`VerifierOptions::alpha_iters`]); `0` reproduces the fixed-slope
    /// heuristic bit-for-bit.
    pub alpha_iters: usize,
    /// Skip per-node LP relaxations far above the prune level (see
    /// [`VerifierOptions::lp_skip`]).
    pub lp_skip: bool,
    /// Crash-safe checkpointing of every verification query (see
    /// [`CheckpointPolicy`]). Jobs verify distinct networks, so each
    /// query checkpoints to its own file under the policy's directory.
    /// `None` disables checkpointing.
    pub checkpoints: Option<CheckpointPolicy>,
}

impl RunOptions {
    /// The default knobs with a per-query limit of `time_limit`: all
    /// cores, warm starts, tuned α, LP skipping, no checkpoints.
    pub fn new(time_limit: Duration) -> Self {
        Self {
            threads: 0,
            time_limit,
            warm_start: true,
            alpha_iters: DEFAULT_ALPHA_ITERS,
            lp_skip: true,
            checkpoints: None,
        }
    }

    /// Workers a run of `jobs` jobs starts.
    fn workers(&self, jobs: usize) -> usize {
        resolve_threads(self.threads).min(jobs.max(1))
    }

    /// Options every query of a run of `jobs` jobs is verified under.
    /// Concurrent jobs saturate the cores, so each search stays serial
    /// unless only one worker runs. The `certnn-serve` fleet sends these
    /// over the wire, so both paths solve under the same options.
    pub fn verifier_options(&self, jobs: usize) -> VerifierOptions {
        VerifierOptions {
            time_limit: Some(self.time_limit),
            threads: if self.workers(jobs) > 1 {
                1
            } else {
                self.threads
            },
            warm_start: self.warm_start,
            alpha_iters: self.alpha_iters,
            lp_skip: self.lp_skip,
            ..VerifierOptions::default()
        }
    }

    /// The verifier of a run of `jobs` jobs: [`Self::verifier_options`]
    /// under `deadline`, checkpointing by [`Self::checkpoints`].
    pub fn verifier(&self, jobs: usize, deadline: Deadline) -> Verifier {
        let verifier = Verifier::with_options(self.verifier_options(jobs)).with_deadline(deadline);
        match &self.checkpoints {
            Some(policy) => verifier.with_checkpoints(policy.clone()),
            None => verifier,
        }
    }

    /// Runs `job(i)` for every `i < jobs` on scoped workers that claim
    /// indices from a shared counter, and returns the results in index
    /// order whatever order they finished in.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a job once every worker has stopped.
    pub fn run_jobs<T: Send>(&self, jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        // Relaxed: the counter only hands out indices; results are
        // published through the slot mutexes and the scope's join.
        let next = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..self.workers(jobs) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = job(i);
                    // Poison-tolerant: a worker that panicked must not
                    // wedge collection of the surviving results.
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every job index was claimed by a worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_jobs_keep_each_search_serial() {
        let cores = resolve_threads(0);
        // (threads, jobs) -> (workers, threads of each search); a lone
        // worker hands the whole knob, `0` = auto included, to its search.
        let cases = [
            ((0, 1), (1, 0)),
            ((0, 6), (cores.min(6), if cores > 1 { 1 } else { 0 })),
            ((1, 1), (1, 1)),
            ((1, 6), (1, 1)),
            ((2, 1), (1, 2)),
            ((2, 6), (2, 1)),
        ];
        for ((threads, jobs), (workers, search)) in cases {
            let run = RunOptions {
                threads,
                ..RunOptions::new(Duration::from_secs(1))
            };
            assert_eq!(run.workers(jobs), workers, "threads {threads}, {jobs} jobs");
            assert_eq!(
                run.verifier_options(jobs).threads,
                search,
                "threads {threads}, {jobs} jobs"
            );
        }
    }

    #[test]
    fn pool_returns_results_in_index_order() {
        for threads in [1, 3] {
            let run = RunOptions {
                threads,
                ..RunOptions::new(Duration::from_secs(1))
            };
            // Early indices finish last, so completion order differs
            // from index order whenever more than one worker runs.
            let out = run.run_jobs(7, |i| {
                thread::sleep(Duration::from_millis(7 - i as u64));
                i * 10
            });
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "threads {threads}");
            assert!(run.run_jobs(0, |i| i).is_empty());
        }
    }
}
