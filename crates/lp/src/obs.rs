//! Cached observability handles for the LP layer.
//!
//! All metric names live under `lp.*` (see DESIGN.md §Observability). The
//! full name set is registered on first touch so serial and parallel runs
//! expose identical metric names regardless of which code paths fire.

use std::sync::OnceLock;
use std::time::Instant;

use certnn_obs::{counter, histogram, Counter, Histogram};

/// Handles for every `lp.*` metric.
pub(crate) struct LpMetrics {
    /// Simplex iterations over all solves: basis changes (primal and
    /// dual) plus primal bound flips. The bound flips of a dual
    /// ratio-test pass are part of its one iteration and not counted.
    pub pivots: Counter,
    /// Solves completed on the warm (dual-restore) path.
    pub warm_solves: Counter,
    /// Cold two-phase solves (including warm fallbacks).
    pub cold_solves: Counter,
    /// Warm attempts that fell back to a cold solve: stale-basis bails,
    /// stalled dual walks and numeric failures of the warm path.
    pub cold_fallbacks: Counter,
    /// Warm attempts declined up-front because the snapshot basis had too
    /// many bound violations (the stale-basis gate), or was neither primal
    /// nor dual feasible — routine, distinct from singular-basis failures.
    pub stale_basis_bails: Counter,
    /// Basis refactorizations (LU from scratch): warm thaw misses, eta-cap
    /// hits, unstable pivots and drift resets.
    pub refactorizations: Counter,
    /// Cooperative deadline polls executed inside pivot loops.
    pub deadline_checks: Counter,
    /// Solves that terminated with `LpStatus::Deadline`.
    pub deadline_expired: Counter,
    /// Wall time of successful warm-path solves, nanoseconds.
    pub warm_solve_nanos: Histogram,
    /// Wall time of cold solves, nanoseconds.
    pub cold_solve_nanos: Histogram,
    /// Eta-chain length at each refactorization or solve end: how much
    /// product-form history a basis accumulated before being reset.
    pub eta_chain_len: Histogram,
}

pub(crate) fn lp_metrics() -> &'static LpMetrics {
    static M: OnceLock<LpMetrics> = OnceLock::new();
    M.get_or_init(|| LpMetrics {
        pivots: counter("lp.pivots"),
        warm_solves: counter("lp.warm_solves"),
        cold_solves: counter("lp.cold_solves"),
        cold_fallbacks: counter("lp.cold_fallbacks"),
        stale_basis_bails: counter("lp.stale_basis_bails"),
        refactorizations: counter("lp.refactorizations"),
        deadline_checks: counter("lp.deadline_checks"),
        deadline_expired: counter("lp.deadline_expired"),
        warm_solve_nanos: histogram("lp.warm_solve_nanos"),
        cold_solve_nanos: histogram("lp.cold_solve_nanos"),
        eta_chain_len: histogram("lp.eta_chain_len"),
    })
}

/// Start a wall-clock timer only when observability is live, so disabled
/// runs never call `Instant::now`.
#[inline]
pub(crate) fn timer() -> Option<Instant> {
    certnn_obs::enabled().then(Instant::now)
}

/// Nanoseconds elapsed on a [`timer`], if one was started.
#[inline]
pub(crate) fn elapsed_ns(start: Option<Instant>) -> Option<u64> {
    start.map(|s| s.elapsed().as_nanos() as u64)
}
