//! Bounded-variable two-phase revised primal simplex with an incremental
//! dual-simplex warm-start path for branch-and-bound re-solves.

// Indexed loops mirror the textbook pivot formulas; iterator adaptors
// obscure them without changing the generated code meaningfully.
#![allow(clippy::needless_range_loop)]

use crate::csc::ColMatrix;
use crate::deadline::Deadline;
use crate::factor::{basis_signature, BasisFactor, FrozenFactor};
use crate::model::{LpModel, RowKind, Sense};
use crate::obs::{elapsed_ns, lp_metrics, timer};
use crate::{LpError, LpSolution, LpStatus, SolveError};
use std::time::Instant;

/// Pivots between cooperative deadline polls. Small enough that even a
/// dense-pivot straggler notices expiry within a pivot batch, large
/// enough that the `Instant::now()` cost disappears in the pivot cost.
const DEADLINE_CHECK_EVERY: usize = 16;

/// Pivot limit across both phases of one solve.
const MAX_ITERATIONS: usize = 50_000;

/// Primal feasibility tolerance.
const FEAS_TOL: f64 = 1e-7;

/// Reduced-cost (dual feasibility) tolerance.
const OPT_TOL: f64 = 1e-9;

/// Pivot-element magnitude below which a column is rejected.
const PIVOT_TOL: f64 = 1e-10;

/// Consecutive degenerate pivots before a phase switches to Bland's rule.
const STALL_LIMIT: usize = 60;

/// Recompute basic values from scratch every this many pivots; a refresh
/// whose drift exceeds [`FEAS_TOL`] also refactorizes.
const REFRESH_EVERY: usize = 128;

/// Product-form eta updates accumulated on a basis factorization before
/// the next pivot forces a refactorization. Bounds both solve cost per
/// `ftran`/`btran` and the drift an eta chain can build up.
const ETA_CAP: usize = 64;

/// Warm-start staleness gate: bail to a cold solve when more than this
/// fraction of basic variables violate the new bounds (with a floor of
/// one tolerated violation on tiny bases).
const WARM_STALE_FRAC: f64 = 0.25;

/// A bounded-variable primal simplex solver.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Simplex {
    deadline: Deadline,
}

/// Opaque snapshot of an optimal simplex basis, used to warm-start the
/// re-solve of the same model under changed variable bounds.
///
/// A snapshot taken at the parent of a branch-and-bound node stays *dual
/// feasible* for the children (costs and constraint matrix are unchanged;
/// only bounds move), so [`Simplex::solve_warm`] can restore primal
/// feasibility with a handful of dual-simplex pivots instead of a cold
/// two-phase run.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    basis: Vec<usize>,
    status: Vec<Status>,
    n_struct: usize,
    m: usize,
    /// Frozen basis factorization (LU + eta chain) so descendants patch
    /// the parent's representation instead of refactorizing O(m³).
    factor: Option<FrozenFactor>,
    /// Factorization history read back by [`WarmStart::from_description`];
    /// the first warm solve replays it into the very factorization the
    /// live snapshot carried.
    history: Option<Vec<usize>>,
}

impl WarmStart {
    /// Number of constraint rows the snapshot was taken for.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Number of structural variables the snapshot was taken for.
    pub fn num_structurals(&self) -> usize {
        self.n_struct
    }

    /// Serialized description of the basis: the basic column per row plus
    /// one status code per column (structurals then slacks), using the
    /// stable encoding `0 = basic, 1 = at lower, 2 = at upper,
    /// 3 = free at zero`. Used by checkpointing; the frozen factorization
    /// is deliberately absent — see [`WarmStart::describe_factor`].
    pub fn describe(&self) -> (Vec<u64>, Vec<u8>) {
        let basis = self.basis.iter().map(|&b| b as u64).collect();
        let status = self
            .status
            .iter()
            .map(|s| match s {
                Status::Basic => 0u8,
                Status::AtLower => 1,
                Status::AtUpper => 2,
                Status::FreeZero => 3,
            })
            .collect();
        (basis, status)
    }

    /// The factorization's history, the combinatorial half of the
    /// description: the basis column its LU was computed for at each
    /// position, then the position and entering column of each eta since
    /// (empty when the snapshot carries no factorization).
    pub fn describe_factor(&self) -> Vec<u64> {
        match (&self.factor, &self.history) {
            (Some(fz), _) => fz.history().map(|j| j as u64).collect(),
            (None, history) => history.iter().flatten().map(|&j| j as u64).collect(),
        }
    }

    /// Rebuilds a snapshot from [`WarmStart::describe`] and
    /// [`WarmStart::describe_factor`] output.
    ///
    /// No numeric basis data is ever trusted from an external medium:
    /// the first warm solve seeded from the result replays the `factor`
    /// history from the model's own constraint columns — one LU, then one
    /// FTRAN and eta per pivot — which reproduces the live factorization
    /// bit for bit; without a history, or with one that does not replay
    /// to this basis, it refactorizes the basis. Returns `None` when the
    /// description is internally inconsistent (wrong lengths, out-of-range
    /// or duplicate basis entries, unknown status codes, or a
    /// basic/nonbasic disagreement between the two vectors).
    pub fn from_description(
        basis: &[u64],
        status: &[u8],
        n_struct: usize,
        m: usize,
        factor: &[u64],
    ) -> Option<WarmStart> {
        let n_total = n_struct.checked_add(m)?;
        if basis.len() != m || status.len() != n_total {
            return None;
        }
        let history = factor.iter().map(|&j| usize::try_from(j).ok());
        let history = Some(history.collect::<Option<Vec<usize>>>()?).filter(|h| !h.is_empty());
        let mut decoded = Vec::with_capacity(n_total);
        for &code in status {
            decoded.push(match code {
                0 => Status::Basic,
                1 => Status::AtLower,
                2 => Status::AtUpper,
                3 => Status::FreeZero,
                _ => return None,
            });
        }
        let mut in_basis = vec![false; n_total];
        for &b in basis {
            let j = usize::try_from(b).ok()?;
            if j >= n_total || in_basis[j] || decoded[j] != Status::Basic {
                return None;
            }
            in_basis[j] = true;
        }
        if decoded
            .iter()
            .enumerate()
            .any(|(j, &s)| (s == Status::Basic) != in_basis[j])
        {
            return None;
        }
        Some(WarmStart {
            basis: basis.iter().map(|&b| b as usize).collect(),
            status: decoded,
            n_struct,
            m,
            factor: None, // rebuilt from `history` or the basis on first use
            history,
        })
    }
}

/// Result of a warm-capable solve: the solution plus an optional basis
/// snapshot for seeding descendant solves.
#[derive(Debug, Clone)]
pub struct WarmSolve {
    /// The LP solution.
    pub solution: LpSolution,
    /// Snapshot of the optimal basis, when the solve ended optimal with a
    /// snapshot-able (artificial-free) basis.
    pub warm: Option<WarmStart>,
    /// Whether the solve actually started from the supplied basis (`false`
    /// when none was supplied or the warm path fell back to a cold
    /// two-phase run).
    pub warm_used: bool,
    /// The numeric failure that forced an *error-driven* cold fallback,
    /// when one occurred. Routine fallbacks leave this `None`: they are
    /// normal warm-start operation, not degradation. They are a dimension
    /// mismatch, a snapshot too stale for the stale-basis gate, and a dual
    /// walk that stalled (iteration cap, deadline, repeated bad pivots, or
    /// every violated row passed over because its pivot was unstable).
    pub fallback: Option<SolveError>,
}

/// A cold solve's result, with no snapshot taken.
impl From<LpSolution> for WarmSolve {
    fn from(solution: LpSolution) -> Self {
        Self {
            solution,
            warm: None,
            warm_used: false,
            fallback: None,
        }
    }
}

impl Simplex {
    /// Creates a solver with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cooperative [`Deadline`], polled between pivot batches.
    /// A solve that observes expiry returns [`LpStatus::Deadline`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    fn validate_bounds(model: &LpModel, bounds: &[(f64, f64)]) -> Result<(), LpError> {
        if bounds.len() != model.num_vars() {
            return Err(LpError::BoundsLength {
                got: bounds.len(),
                expected: model.num_vars(),
            });
        }
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            if lo.is_nan() || hi.is_nan() {
                return Err(LpError::NotANumber);
            }
            if lo > hi {
                return Err(LpError::InvalidBounds {
                    var: crate::VarId(i),
                    lo,
                    hi,
                });
            }
        }
        Ok(())
    }

    /// Solves the model with its own variable bounds.
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] if the model contains NaNs or inverted bounds.
    pub fn solve(&self, model: &LpModel) -> Result<LpSolution, LpError> {
        let bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lo, v.hi)).collect();
        self.solve_with_bounds(model, &bounds)
    }

    /// Solves the model with the structural variable bounds replaced by
    /// `bounds` (one `(lo, hi)` pair per variable, in [`VarId`] order),
    /// cold and without taking a basis snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::BoundsLength`] if `bounds.len()` differs from the
    /// number of model variables, other [`LpError`] variants for NaN or
    /// inverted bounds, or [`LpError::Solve`] on a recoverable numeric
    /// failure (singular basis, non-finite tableau values) during the
    /// solve itself.
    ///
    /// [`VarId`]: crate::VarId
    pub fn solve_with_bounds(
        &self,
        model: &LpModel,
        bounds: &[(f64, f64)],
    ) -> Result<LpSolution, LpError> {
        Self::validate_bounds(model, bounds)?;
        Ok(self.solve_cold(model, bounds, false)?.solution)
    }

    /// Solves the model under `bounds` and returns a [`WarmStart`]
    /// snapshot of the optimal basis (when one exists) for warm-starting
    /// descendant solves. This is the entry point of branch-and-bound: the
    /// constraint matrix is immutable across the tree, only bounds change.
    ///
    /// With `warm == None` the solve is a cold two-phase run. With a
    /// snapshot taken on a related solve (same model, different bounds)
    /// the snapshot basis is thawed and, because only bounds changed,
    /// remains dual feasible; primal feasibility is restored by a
    /// bound-flipping dual simplex phase followed by a primal clean-up. On
    /// any mismatch — wrong dimensions, numerically singular basis, lost
    /// dual feasibility — the solver transparently falls back to a cold
    /// two-phase run (`warm_used == false` in the result).
    ///
    /// # Errors
    ///
    /// Same as [`Simplex::solve_with_bounds`].
    pub fn solve_warm(
        &self,
        model: &LpModel,
        bounds: &[(f64, f64)],
        warm: Option<&WarmStart>,
    ) -> Result<WarmSolve, LpError> {
        Self::validate_bounds(model, bounds)?;
        let Some(warm) = warm else {
            return self.solve_cold(model, bounds, true);
        };
        // First rung of the retry ladder: any numeric failure on the warm
        // path (corrupt snapshot, singular basis, NaN poisoning) falls
        // back to a cold two-phase run and is recorded in `fallback`;
        // routine stale-basis bails fall back silently.
        let mut fallback: Option<SolveError> = None;
        {
            let _obs_phase = certnn_obs::phase(certnn_obs::Phase::LpWarm);
            let start = timer();
            match Tableau::build_warm(model, bounds, self.deadline.clone(), warm) {
                Ok(Some(mut t)) => match t.run_warm() {
                    Ok(Some(solution)) => {
                        record_solve(start, true, &t, Some(solution.status));
                        let optimal = solution.status == LpStatus::Optimal;
                        return Ok(WarmSolve {
                            solution,
                            warm: if optimal { t.snapshot() } else { None },
                            warm_used: true,
                            fallback: None,
                        });
                    }
                    Ok(None) => {}
                    Err(e) => fallback = Some(e),
                },
                Ok(None) => {}
                Err(e) => fallback = Some(e),
            }
        }
        lp_metrics().cold_fallbacks.inc();
        let mut ws = self.solve_cold(model, bounds, true)?;
        ws.fallback = fallback;
        Ok(ws)
    }

    /// The cold two-phase run behind every entry point, metered as one
    /// cold solve; `snapshot` asks for the optimal basis as well.
    fn solve_cold(
        &self,
        model: &LpModel,
        bounds: &[(f64, f64)],
        snapshot: bool,
    ) -> Result<WarmSolve, LpError> {
        let _obs_phase = certnn_obs::phase(certnn_obs::Phase::LpCold);
        let start = timer();
        let mut t = Tableau::build(model, bounds, self.deadline.clone());
        let result = t.run().map_err(LpError::Solve);
        record_solve(start, false, &t, result.as_ref().ok().map(|s| s.status));
        let mut ws = WarmSolve::from(result?);
        if snapshot && ws.solution.status == LpStatus::Optimal {
            ws.warm = t.snapshot();
        }
        Ok(ws)
    }
}

/// Records the metrics of one solve that ended on the warm path or ran
/// cold, given its final status when it has one. No-op unless the
/// observability layer was live when the solve started.
fn record_solve(start: Option<Instant>, warm: bool, t: &Tableau, status: Option<LpStatus>) {
    let Some(ns) = elapsed_ns(start) else { return };
    let m = lp_metrics();
    let (solves, nanos) = if warm {
        (&m.warm_solves, &m.warm_solve_nanos)
    } else {
        (&m.cold_solves, &m.cold_solve_nanos)
    };
    solves.inc();
    m.pivots.add(t.iterations as u64);
    nanos.record(ns);
    m.eta_chain_len.record(t.factor.chain_len() as u64);
    if status == Some(LpStatus::Deadline) {
        m.deadline_expired.inc();
    }
}

/// Fault-injection consult kept at every site where the dense-inverse
/// kernel used to rebuild its inverse, so the chaos suite's forced
/// singular bases fire at the same cadence under the factorized kernel.
/// Compiles to `false` without the `fault-inject` feature.
fn singular_fault_fired() -> bool {
    #[cfg(feature = "fault-inject")]
    {
        crate::fault::fire_singular()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable pinned at zero.
    FreeZero,
}

/// Outcome of the dual-simplex feasibility-restoration phase.
enum DualOutcome {
    /// Primal feasibility restored; dual feasibility maintained throughout.
    Feasible,
    /// A dual ray was found: the primal problem is infeasible.
    Infeasible,
    /// Iteration cap or mild numerical trouble; caller should cold-solve.
    Stalled,
    /// Hard numeric failure (singular basis, non-finite values); the cold
    /// fallback is tagged with the cause.
    Error(SolveError),
}

/// The computational form of a model under one bounds vector, where both
/// tableau builds start: the structural columns in CSC form followed by
/// one slack column per row, every column's bounds (a slack's by its row
/// kind), the right-hand sides and the cost in minimisation form.
struct StandardForm {
    n_struct: usize,
    /// `+1` for a minimisation, `-1` for a maximisation: the factor that
    /// turns the model's objective into `cost` and back.
    sense_sign: f64,
    cols: ColMatrix,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rhs: Vec<f64>,
    cost: Vec<f64>,
}

impl StandardForm {
    fn new(model: &LpModel, bounds: &[(f64, f64)]) -> Self {
        let n_struct = model.num_vars();
        let mut cols =
            ColMatrix::from_row_major(n_struct, model.rows.iter().map(|r| r.coeffs.as_slice()));
        let mut lo: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let mut hi: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        // Slacks: row i gets variable n_struct + i with kind-dependent bounds.
        for (i, row) in model.rows.iter().enumerate() {
            cols.push_col([(i, 1.0)]);
            let (slo, shi) = match row.kind {
                RowKind::Le => (0.0, f64::INFINITY),
                RowKind::Ge => (f64::NEG_INFINITY, 0.0),
                RowKind::Eq => (0.0, 0.0),
            };
            lo.push(slo);
            hi.push(shi);
        }
        let sense_sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; cols.num_cols()];
        for j in 0..n_struct {
            cost[j] = sense_sign * model.objective[j];
        }
        Self {
            n_struct,
            sense_sign,
            cols,
            lo,
            hi,
            rhs: model.rows.iter().map(|r| r.rhs).collect(),
            cost,
        }
    }
}

/// Factorized-basis revised simplex working state.
struct Tableau {
    /// Consecutive degenerate pivots before a phase switches to Bland's
    /// rule: [`STALL_LIMIT`], lowered only by tests.
    stall_limit: usize,
    m: usize,
    /// Total variables: structural + slacks + artificials.
    n_total: usize,
    n_struct: usize,
    sense_sign: f64,
    /// Constraint columns in CSC form (structurals, slacks, artificials).
    cols: ColMatrix,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rhs: Vec<f64>,
    /// Phase-2 cost (minimisation form).
    cost: Vec<f64>,
    /// Phase-1 cost (1 on artificials).
    cost1: Vec<f64>,
    status: Vec<Status>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// basis[r] = variable occupying row r.
    basis: Vec<usize>,
    /// Basis factorization: LU core plus a capped product-form eta file.
    factor: BasisFactor,
    /// FTRAN scratch: the entering column's image `B⁻¹ a_q`.
    w: Vec<f64>,
    /// BTRAN scratch: the simplex multipliers `B⁻ᵀ c_B`.
    y: Vec<f64>,
    /// BTRAN scratch: the dual pivot row `B⁻ᵀ e_r`.
    rho: Vec<f64>,
    /// Residual scratch for [`Tableau::refresh_basics`].
    resid: Vec<f64>,
    /// Phase-2 reduced cost of every column, priced by
    /// [`Tableau::price_reduced_costs`] and carried along the pivot row by
    /// the dual phase (fixed columns are not kept current there).
    d: Vec<f64>,
    /// Candidate buffer for the dual ratio test: (var, ratio, alpha).
    cands: Vec<(usize, f64, f64)>,
    /// Bound-flip buffer for the dual ratio test.
    flips: Vec<usize>,
    iterations: usize,
    first_artificial: usize,
    deadline: Deadline,
}

impl Tableau {
    /// A tableau over `form` starting from `basis`, factorized as
    /// `factor`, with every column's status and value given. Columns past
    /// the form's slacks are artificials.
    fn new(
        form: StandardForm,
        basis: Vec<usize>,
        status: Vec<Status>,
        x: Vec<f64>,
        factor: BasisFactor,
        deadline: Deadline,
    ) -> Self {
        let m = form.rhs.len();
        let n_total = form.cols.num_cols();
        let first_artificial = form.n_struct + m;
        let cost1 = (0..n_total)
            .map(|j| if j < first_artificial { 0.0 } else { 1.0 })
            .collect();
        Self {
            stall_limit: STALL_LIMIT,
            m,
            n_total,
            n_struct: form.n_struct,
            sense_sign: form.sense_sign,
            cols: form.cols,
            lo: form.lo,
            hi: form.hi,
            rhs: form.rhs,
            cost: form.cost,
            cost1,
            status,
            x,
            basis,
            factor,
            w: vec![0.0; m],
            y: vec![0.0; m],
            rho: Vec::new(),
            resid: Vec::with_capacity(m),
            d: Vec::new(),
            cands: Vec::new(),
            flips: Vec::new(),
            iterations: 0,
            first_artificial,
            deadline,
        }
    }

    /// The cold tableau: every structural at its finite bound nearest
    /// zero (free ones at zero), each row's slack basic where the residual
    /// fits its bounds and clamped otherwise, with an artificial covering
    /// the rest.
    fn build(model: &LpModel, bounds: &[(f64, f64)], deadline: Deadline) -> Self {
        let mut form = StandardForm::new(model, bounds);
        let (m, n_struct) = (model.num_rows(), form.n_struct);
        let mut x = vec![0.0; n_struct + m];
        let mut status = vec![Status::AtLower; n_struct + m];
        for j in 0..n_struct {
            (x[j], status[j]) = initial_point(form.lo[j], form.hi[j]);
        }

        // Residuals decide whether each row's slack can start basic.
        let mut resid = form.rhs.clone();
        for j in 0..n_struct {
            if x[j] != 0.0 {
                for (i, c) in form.cols.col(j) {
                    resid[i] -= c * x[j];
                }
            }
        }

        let mut basis = Vec::with_capacity(m);
        for i in 0..m {
            let sj = n_struct + i;
            let (r, slo, shi) = (resid[i], form.lo[sj], form.hi[sj]);
            if r >= slo && r <= shi {
                x[sj] = r;
                status[sj] = Status::Basic;
                basis.push(sj);
            } else {
                // Clamp the slack to its nearest bound and cover the rest
                // with a fresh artificial of matching sign. A slack with
                // at least one finite bound clamps there; the (impossible)
                // doubly-infinite case would already be basic.
                let clamped = r.clamp(slo, shi);
                x[sj] = clamped;
                status[sj] = if clamped == slo {
                    Status::AtLower
                } else {
                    Status::AtUpper
                };
                let leftover = r - clamped;
                let sigma = if leftover >= 0.0 { 1.0 } else { -1.0 };
                basis.push(form.cols.num_cols());
                form.cols.push_col([(i, sigma)]);
                form.lo.push(0.0);
                form.hi.push(f64::INFINITY);
                form.cost.push(0.0);
                x.push(leftover.abs());
                status.push(Status::Basic);
            }
        }

        // The initial basis consists of slack/artificial unit columns with
        // entries ±1 (a signed diagonal), so it always factorizes.
        let factor = BasisFactor::factorize(&form.cols, &basis)
            .expect("±1 diagonal start basis is nonsingular");
        Self::new(form, basis, status, x, factor, deadline)
    }

    /// Rebuilds a tableau around a basis snapshot taken on a related solve.
    ///
    /// Returns `Ok(None)` when the snapshot does not fit the model
    /// (dimension mismatch — routine cross-model reuse), and `Err` when
    /// the snapshot is internally corrupt (duplicate/out-of-range basis
    /// entries) or its basis matrix is numerically singular — the caller
    /// then falls back to a cold solve, recording the cause. The warm
    /// tableau never carries artificials: the snapshot basis covers all
    /// rows by construction.
    fn build_warm(
        model: &LpModel,
        bounds: &[(f64, f64)],
        deadline: Deadline,
        warm: &WarmStart,
    ) -> Result<Option<Self>, SolveError> {
        let m = model.num_rows();
        let n_total = model.num_vars() + m;
        if warm.m != m
            || warm.n_struct != model.num_vars()
            || warm.basis.len() != m
            || warm.status.len() != n_total
        {
            return Ok(None);
        }
        let form = StandardForm::new(model, bounds);

        let mut in_basis = vec![false; n_total];
        for &bj in &warm.basis {
            if bj >= n_total || in_basis[bj] {
                return Err(SolveError::StaleWarmStart);
            }
            in_basis[bj] = true;
        }

        // Nonbasic statuses carry over, degraded where the new bounds made
        // them meaningless (e.g. AtLower with an infinite lower bound).
        let mut x = vec![0.0; n_total];
        let mut status = vec![Status::Basic; n_total];
        for j in 0..n_total {
            if in_basis[j] {
                continue; // value assigned by refresh_basics below
            }
            let (lo, hi) = (form.lo[j], form.hi[j]);
            (x[j], status[j]) = match warm.status[j] {
                Status::AtLower if lo.is_finite() => (lo, Status::AtLower),
                Status::AtUpper if hi.is_finite() => (hi, Status::AtUpper),
                _ => initial_point(lo, hi),
            };
        }

        // Reuse the parent's frozen factorization when its signature
        // matches this model's basis columns, or replay a described one
        // from this model's columns; otherwise (cross-model reuse, no
        // history) factorize from scratch — the one place a genuinely
        // singular warm basis surfaces.
        if singular_fault_fired() {
            return Err(SolveError::SingularBasis);
        }
        let sig = basis_signature(&form.cols, &warm.basis);
        let thawed = match (&warm.factor, &warm.history) {
            (Some(fz), _) if fz.sig() == sig && fz.num_rows() == m => Some(BasisFactor::thaw(fz)),
            (None, Some(history)) => {
                lp_metrics().refactorizations.inc();
                BasisFactor::replay(&form.cols, &warm.basis, history)
            }
            _ => None,
        };
        let factor = match thawed {
            Some(f) => f,
            None => {
                lp_metrics().refactorizations.inc();
                BasisFactor::factorize(&form.cols, &warm.basis).ok_or(SolveError::SingularBasis)?
            }
        };
        let mut t = Self::new(form, warm.basis.clone(), status, x, factor, deadline);
        t.refresh_basics();
        Ok(Some(t))
    }

    /// Captures the current basis for reuse by a related solve. Returns
    /// `None` while any artificial variable is still basic: such a basis
    /// cannot be re-expressed in a warm tableau (which carries none). A
    /// factorization whose history touches an artificial column (a cold
    /// solve's start basis) is replaced by a fresh LU of the final basis,
    /// so every snapshot's history replays in a warm tableau.
    fn snapshot(&self) -> Option<WarmStart> {
        let nb = self.n_struct + self.m;
        if self.basis.iter().any(|&b| b >= nb) {
            return None;
        }
        let sig = basis_signature(&self.cols, &self.basis);
        let frozen = self.factor.freeze(sig);
        let factor = if frozen.history().all(|j| j < nb) {
            Some(frozen)
        } else {
            lp_metrics().refactorizations.inc();
            BasisFactor::factorize(&self.cols, &self.basis).map(|f| f.freeze(sig))
        };
        Some(WarmStart {
            basis: self.basis.clone(),
            status: self.status[..nb].to_vec(),
            n_struct: self.n_struct,
            m: self.m,
            factor,
            history: None,
        })
    }

    /// Computes `B⁻¹ a_q` for sparse column `q` into the `w` scratch.
    fn compute_ftran(&mut self, q: usize) {
        let w = &mut self.w;
        w.clear();
        w.resize(self.m, 0.0);
        for (i, c) in self.cols.col(q) {
            w[i] += c;
        }
        self.factor.ftran(w);
    }

    /// Computes the simplex multipliers `y = B⁻ᵀ c_B` into the `y`
    /// scratch, for the phase-1 or phase-2 cost.
    fn price_duals(&mut self, phase1: bool) {
        let y = &mut self.y;
        y.clear();
        y.resize(self.m, 0.0);
        for (r, &bj) in self.basis.iter().enumerate() {
            y[r] = if phase1 { self.cost1[bj] } else { self.cost[bj] };
        }
        self.factor.btran(y);
    }

    /// Reduced cost of column `j` against the multipliers in the `y`
    /// scratch ([`Tableau::price_duals`] must be current).
    fn reduced_cost(&self, j: usize, phase1: bool) -> f64 {
        let mut d = if phase1 { self.cost1[j] } else { self.cost[j] };
        for (i, c) in self.cols.col(j) {
            d -= self.y[i] * c;
        }
        d
    }

    /// Prices the phase-2 reduced cost of every column from scratch into
    /// `d` (zero on basics): one BTRAN plus one column dot per nonbasic.
    fn price_reduced_costs(&mut self) {
        self.price_duals(false);
        self.d.resize(self.n_total, 0.0);
        for j in 0..self.n_total {
            self.d[j] = if self.status[j] == Status::Basic {
                0.0
            } else {
                self.reduced_cost(j, false)
            };
        }
    }

    /// Recomputes basic variable values from the nonbasic point; returns
    /// the largest correction applied to any basic (the accumulated
    /// iterate drift since the last refresh).
    fn refresh_basics(&mut self) -> f64 {
        let resid = &mut self.resid;
        resid.clear();
        resid.extend_from_slice(&self.rhs);
        for j in 0..self.n_total {
            if self.status[j] != Status::Basic && self.x[j] != 0.0 {
                for (i, c) in self.cols.col(j) {
                    resid[i] -= c * self.x[j];
                }
            }
        }
        self.factor.ftran(resid);
        let mut drift = 0.0f64;
        for r in 0..self.m {
            let b = self.basis[r];
            let new = self.resid[r];
            drift = drift.max((new - self.x[b]).abs());
            self.x[b] = new;
        }
        drift
    }

    /// Non-finite values anywhere in the iterate mean the tableau has been
    /// poisoned (overflow, NaN propagation); the solve must not report a
    /// bound computed from it.
    fn check_finite(&self) -> Result<(), SolveError> {
        if self.x.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::NumericalPoison);
        }
        Ok(())
    }

    /// Final certificate behind every `Optimal` claim: the refreshed
    /// iterate must be primal feasible and the reduced costs must satisfy
    /// the optimality sign conditions. A poisoned run can silently skip
    /// pivots (NaN comparisons are all false) and stop at an arbitrary
    /// basis; without this check such a run would report a plausible but
    /// wrong optimum. Fixed variables (including frozen artificials) are
    /// exempt from the dual conditions, as in pricing.
    fn certify_optimal(&mut self) -> Result<(), SolveError> {
        if self.primal_infeasibility() > FEAS_TOL * 100.0 {
            return Err(SolveError::NumericalPoison);
        }
        self.price_duals(false);
        if self.y.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::NumericalPoison);
        }
        let mut worst = 0.0f64;
        for j in 0..self.n_total {
            if self.status[j] == Status::Basic || self.hi[j] - self.lo[j] <= 0.0 {
                continue;
            }
            let d = self.reduced_cost(j, false);
            let v = match self.status[j] {
                Status::AtLower => -d,
                Status::AtUpper => d,
                Status::FreeZero => d.abs(),
                Status::Basic => continue,
            };
            worst = worst.max(v);
        }
        if worst > OPT_TOL * 1000.0 {
            return Err(SolveError::NumericalPoison);
        }
        Ok(())
    }

    /// Fault-injection hook, polled once per pivot batch. Compiled out
    /// entirely without the `fault-inject` feature.
    #[cfg(feature = "fault-inject")]
    fn inject_faults(&mut self) {
        crate::fault::maybe_stall();
        if crate::fault::fire_nan() {
            self.factor.poison();
        }
    }

    /// Replaces the factorization (LU core + eta chain) with a fresh LU
    /// of the current basis columns.
    ///
    /// # Errors
    ///
    /// [`SolveError::SingularBasis`] when the basis matrix is numerically
    /// singular (or a forced singular fault fires under `fault-inject`).
    fn refactorize(&mut self) -> Result<(), SolveError> {
        if singular_fault_fired() {
            return Err(SolveError::SingularBasis);
        }
        let metrics = lp_metrics();
        metrics.refactorizations.inc();
        metrics.eta_chain_len.record(self.factor.chain_len() as u64);
        self.factor = BasisFactor::factorize(&self.cols, &self.basis)
            .ok_or(SolveError::SingularBasis)?;
        Ok(())
    }

    /// Periodic iterate hygiene, run every [`REFRESH_EVERY`] pivots and at
    /// the end of each run: recompute the basics through the current
    /// factorization and, when the correction exceeds the feasibility
    /// tolerance (eta-chain drift), refactorize and recompute again.
    fn periodic_refresh(&mut self) -> Result<(), SolveError> {
        if singular_fault_fired() {
            return Err(SolveError::SingularBasis);
        }
        let drift = self.refresh_basics();
        if drift > FEAS_TOL {
            self.refactorize()?;
            self.refresh_basics();
        }
        Ok(())
    }

    /// Applies a pivot at basis position `r_leave` to the factorization:
    /// appends a product-form eta when the chain is short and the pivot
    /// element is stable, refactorizes otherwise. The caller must have
    /// already written the entering variable into `self.basis[r_leave]`
    /// and left the entering column's FTRAN image in the `w` scratch.
    fn apply_pivot(&mut self, r_leave: usize) -> Result<(), SolveError> {
        if !BasisFactor::pivot_stable(r_leave, &self.w) || self.factor.chain_len() >= ETA_CAP {
            self.refactorize()
        } else {
            self.factor.push_eta(r_leave, self.basis[r_leave], &self.w);
            Ok(())
        }
    }

    /// Worst bound violation over the basic variables.
    fn primal_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for &bj in &self.basis {
            worst = worst
                .max(self.x[bj] - self.hi[bj])
                .max(self.lo[bj] - self.x[bj]);
        }
        worst
    }

    /// Worst reduced-cost sign violation over the nonbasic variables,
    /// against the reduced costs in `d`.
    fn dual_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..self.n_total {
            if self.status[j] == Status::Basic {
                continue;
            }
            let d = self.d[j];
            let v = match self.status[j] {
                Status::AtLower => -d,
                Status::AtUpper => d,
                Status::FreeZero => d.abs(),
                Status::Basic => unreachable!("basic skipped above"),
            };
            worst = worst.max(v);
        }
        worst
    }

    /// Runs one simplex phase minimising `cost`. Returns `Ok(None)` on
    /// success (optimality reached), `Ok(Some(status))` on a terminal
    /// status, and `Err` on a numeric failure the caller can recover from
    /// by climbing the retry ladder.
    fn phase(&mut self, use_phase1: bool) -> Result<Option<LpStatus>, SolveError> {
        let mut stall = 0usize;
        loop {
            if self.iterations >= MAX_ITERATIONS {
                return Ok(Some(LpStatus::IterationLimit));
            }
            if self.iterations.is_multiple_of(DEADLINE_CHECK_EVERY) {
                lp_metrics().deadline_checks.inc();
                if self.deadline.expired() {
                    return Ok(Some(LpStatus::Deadline));
                }
                self.check_finite()?;
            }
            #[cfg(feature = "fault-inject")]
            self.inject_faults();
            if self.iterations % REFRESH_EVERY == REFRESH_EVERY - 1 {
                self.periodic_refresh()?;
            }
            self.price_duals(use_phase1);

            let bland = stall >= self.stall_limit;
            // Entering variable selection.
            let mut entering: Option<(usize, f64, f64)> = None; // (var, |d|, direction)
            for j in 0..self.n_total {
                match self.status[j] {
                    Status::Basic => continue,
                    Status::AtLower | Status::AtUpper | Status::FreeZero => {}
                }
                // Artificials must never re-enter once phase 1 is done.
                if !use_phase1 && j >= self.first_artificial {
                    continue;
                }
                let d = self.reduced_cost(j, use_phase1);
                let dir = match self.status[j] {
                    Status::AtLower if d < -OPT_TOL => 1.0,
                    Status::AtUpper if d > OPT_TOL => -1.0,
                    Status::FreeZero if d < -OPT_TOL => 1.0,
                    Status::FreeZero if d > OPT_TOL => -1.0,
                    _ => continue,
                };
                if bland {
                    entering = Some((j, d.abs(), dir));
                    break;
                }
                match entering {
                    Some((_, best, _)) if d.abs() <= best => {}
                    _ => entering = Some((j, d.abs(), dir)),
                }
            }
            let Some((q, _, sigma)) = entering else {
                // NaN reduced costs compare false and can hide improving
                // columns: a non-finite multiplier vector must never
                // masquerade as an optimality certificate.
                if self.y.iter().any(|v| !v.is_finite()) {
                    return Err(SolveError::NumericalPoison);
                }
                return Ok(None);
            };

            self.compute_ftran(q);

            // Ratio test: largest step t >= 0 keeping all basics in bounds,
            // also limited by the entering variable's own opposite bound.
            let own_span = self.hi[q] - self.lo[q];
            let mut t_limit = if own_span.is_finite() { own_span } else { f64::INFINITY };
            let mut leaving: Option<(usize, f64)> = None; // (row, |w_r|)
            let mut t_best = t_limit;
            for r in 0..self.m {
                let wr = self.w[r];
                if wr.abs() < PIVOT_TOL {
                    continue;
                }
                let bi = self.basis[r];
                let delta = -sigma * wr; // change of x[bi] per unit step
                let room = if delta > 0.0 {
                    (self.hi[bi] - self.x[bi]).max(0.0) / delta
                } else {
                    (self.lo[bi] - self.x[bi]).min(0.0) / delta
                };
                if !room.is_finite() {
                    continue;
                }
                let better = match leaving {
                    None => room < t_best - 1e-12,
                    Some((lr, lw)) => {
                        if bland {
                            room < t_best - 1e-12
                                || (room <= t_best + 1e-12 && self.basis[r] < self.basis[lr])
                        } else {
                            room < t_best - 1e-12 || (room <= t_best + 1e-12 && wr.abs() > lw)
                        }
                    }
                };
                if better {
                    t_best = room.min(t_best);
                    leaving = Some((r, wr.abs()));
                }
            }
            if leaving.is_none() && !t_limit.is_finite() {
                // No basic variable blocks and the entering variable has no
                // opposite bound: the problem is unbounded in this direction.
                // NaN ratios also land here (comparisons are all false), so
                // certify the column image before claiming unboundedness.
                if self.w.iter().any(|v| !v.is_finite()) {
                    return Err(SolveError::NumericalPoison);
                }
                return Ok(Some(LpStatus::Unbounded));
            }
            let t = match leaving {
                Some(_) => t_best.max(0.0),
                None => t_limit,
            };
            if t <= FEAS_TOL {
                stall += 1;
            } else {
                stall = 0;
            }

            if leaving.is_none() || (own_span.is_finite() && t >= own_span - 1e-12 && {
                // Bound flip wins only if strictly no basic hits earlier.
                match leaving {
                    Some(_) => t_best > own_span - 1e-12,
                    None => true,
                }
            }) {
                // Bound flip: q jumps to its opposite bound, basis unchanged.
                t_limit = own_span;
                let step = sigma * t_limit;
                self.x[q] += step;
                self.status[q] = match self.status[q] {
                    Status::AtLower => Status::AtUpper,
                    Status::AtUpper => Status::AtLower,
                    s => s,
                };
                for r in 0..self.m {
                    let bi = self.basis[r];
                    self.x[bi] -= self.w[r] * step;
                }
                self.iterations += 1;
                continue;
            }

            let (r_leave, _) = leaving.expect("pivot row exists");
            let step = sigma * t;
            // Update values.
            self.x[q] += step;
            for r in 0..self.m {
                let bi = self.basis[r];
                self.x[bi] -= self.w[r] * step;
            }
            // Leaving variable goes to the bound it hit.
            let b_leave = self.basis[r_leave];
            let delta_leave = -sigma * self.w[r_leave];
            self.status[b_leave] = if delta_leave > 0.0 {
                self.x[b_leave] = self.hi[b_leave];
                Status::AtUpper
            } else {
                self.x[b_leave] = self.lo[b_leave];
                Status::AtLower
            };
            self.basis[r_leave] = q;
            self.status[q] = Status::Basic;
            self.apply_pivot(r_leave)?;
            self.iterations += 1;
        }
    }

    /// Bound-flipping dual simplex: starting from a dual-feasible basis
    /// whose reduced costs `d` were just priced, drives out primal bound
    /// violations one leaving row at a time. Each iteration picks the most
    /// violated basic variable, computes the pivot row `α` (one BTRAN plus
    /// a sparse column scan) and walks the admissible entering columns in
    /// dual-ratio order: boxed candidates whose whole span is absorbed by
    /// the remaining violation flip to their opposite bound, the first one
    /// that can absorb the rest enters. All flips of an iteration share one
    /// FTRAN and are not iterations themselves; after the pivot the reduced
    /// costs move along `α` instead of being re-priced. A pivot that fails
    /// [`BasisFactor::pivot_stable`] is not taken: its row is passed over
    /// until the next basis change. After `stall_limit` consecutive
    /// degenerate steps the walk follows Bland's rule until a step makes
    /// progress: the violated basic with the lowest column index leaves
    /// and the lowest-index minimum-ratio column enters, with no flips.
    /// Proves primal infeasibility when no admissible column exists — the
    /// fast path that lets child nodes of a branch-and-bound tree be
    /// pruned in a handful of pivots.
    ///
    /// Returns `Stalled` (the caller re-solves cold) on the iteration cap,
    /// the deadline, repeated pivots whose FTRAN image disagrees with the
    /// row scan, or when every violated row has been passed over.
    fn dual_phase(&mut self) -> DualOutcome {
        let mut stall = 0usize;
        let mut bad_pivots = 0usize;
        // The pivot row α over the nonbasic, non-fixed columns with a
        // nonzero entry; the FTRAN image of one bound-flip pass,
        // B⁻¹ Σ a_k Δx_k; and the rows passed over since the last basis
        // change.
        let mut alpha_row: Vec<(usize, f64)> = Vec::new();
        let mut flip_w = vec![0.0; self.m];
        let mut skipped = vec![false; self.m];
        loop {
            if self.iterations >= MAX_ITERATIONS {
                return DualOutcome::Stalled;
            }
            if self.iterations.is_multiple_of(DEADLINE_CHECK_EVERY) {
                lp_metrics().deadline_checks.inc();
                if self.deadline.expired() {
                    // Let the cold fallback notice the deadline and report
                    // `LpStatus::Deadline` from a consistent state.
                    return DualOutcome::Stalled;
                }
                if self.check_finite().is_err() {
                    return DualOutcome::Error(SolveError::NumericalPoison);
                }
            }
            #[cfg(feature = "fault-inject")]
            self.inject_faults();
            if self.iterations % REFRESH_EVERY == REFRESH_EVERY - 1 {
                if let Err(e) = self.periodic_refresh() {
                    return DualOutcome::Error(e);
                }
                self.price_reduced_costs();
            }

            // Leaving row: the most violated basic variable not passed
            // over, or under Bland's rule the violated one with the lowest
            // column index.
            let bland = stall >= self.stall_limit;
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, above upper)
            let mut passed_over = false;
            for r in 0..self.m {
                let b = self.basis[r];
                let above = self.x[b] - self.hi[b];
                let below = self.lo[b] - self.x[b];
                let (v, is_above) = if above >= below { (above, true) } else { (below, false) };
                if v > FEAS_TOL {
                    if skipped[r] {
                        passed_over = true;
                    } else if leave.is_none_or(|(best_r, best, _)| {
                        if bland {
                            b < self.basis[best_r]
                        } else {
                            v > best
                        }
                    }) {
                        leave = Some((r, v, is_above));
                    }
                }
            }
            let Some((r_leave, violation, above)) = leave else {
                return if passed_over {
                    DualOutcome::Stalled
                } else {
                    DualOutcome::Feasible
                };
            };
            let b_leave = self.basis[r_leave];

            // The dual pivot row in constraint-row space: ρ = B⁻ᵀ e_r,
            // one extra sparse solve replacing the dense inverse's free
            // row view.
            {
                let rho = &mut self.rho;
                rho.clear();
                rho.resize(self.m, 0.0);
                rho[r_leave] = 1.0;
                self.factor.btran(rho);
            }

            // The pivot row α of B⁻¹A, and the admissible entering
            // candidates with their dual ratios |d_j / α_j|. A column is
            // admissible when moving it within its bounds decreases the
            // leaving variable's violation without breaking the sign
            // condition on any reduced cost.
            alpha_row.clear();
            self.cands.clear(); // (var, ratio, alpha)
            for j in 0..self.n_total {
                if self.status[j] == Status::Basic {
                    continue;
                }
                if self.hi[j] - self.lo[j] <= 0.0 {
                    continue; // fixed variables can absorb nothing
                }
                let mut alpha = 0.0;
                for (i, c) in self.cols.col(j) {
                    alpha += self.rho[i] * c;
                }
                if alpha == 0.0 {
                    continue;
                }
                alpha_row.push((j, alpha));
                if alpha.abs() < PIVOT_TOL {
                    continue;
                }
                let admissible = match self.status[j] {
                    Status::AtLower => {
                        if above {
                            alpha > 0.0
                        } else {
                            alpha < 0.0
                        }
                    }
                    Status::AtUpper => {
                        if above {
                            alpha < 0.0
                        } else {
                            alpha > 0.0
                        }
                    }
                    Status::FreeZero => true,
                    Status::Basic => unreachable!("basic skipped above"),
                };
                if !admissible {
                    continue;
                }
                let mut ratio = self.d[j] / alpha;
                if !above {
                    ratio = -ratio;
                }
                self.cands.push((j, ratio.max(0.0), alpha));
            }
            if self.cands.is_empty() {
                // Dual ray: every nonbasic variable already sits at its
                // violation-minimising bound, so no feasible point exists.
                // A poisoned pivot row (NaN alphas compare false) rejects
                // every column and would fake this certificate — verify
                // finiteness before claiming infeasibility.
                if self.rho.iter().any(|v| !v.is_finite()) || self.check_finite().is_err() {
                    return DualOutcome::Error(SolveError::NumericalPoison);
                }
                return DualOutcome::Infeasible;
            }

            // Bound-flipping ratio test: walk candidates in dual-ratio
            // order; a boxed candidate whose whole span still leaves
            // violation is flipped to its opposite bound, the first one
            // that can absorb the rest enters the basis. Bland's rule
            // flips nothing and enters the lowest-index column among the
            // minimum-ratio candidates, which keeps the reduced costs dual
            // feasible and rules out cycling.
            self.flips.clear();
            let mut entering: Option<(usize, f64, f64)> = None; // (var, ratio, alpha)
            if bland {
                let min_ratio = self.cands.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
                entering = self
                    .cands
                    .iter()
                    .filter(|c| c.1 <= min_ratio)
                    .min_by_key(|c| c.0)
                    .copied();
            } else {
                self.cands.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                let mut remaining = violation;
                for ci in 0..self.cands.len() {
                    let (j, ratio, alpha) = self.cands[ci];
                    let span = self.hi[j] - self.lo[j];
                    let capacity = if span.is_finite() {
                        span * alpha.abs()
                    } else {
                        f64::INFINITY
                    };
                    if capacity < remaining - FEAS_TOL {
                        self.flips.push(j);
                        remaining -= capacity;
                    } else {
                        entering = Some((j, ratio, alpha));
                        break;
                    }
                }
            }
            let Some((q, ratio_q, alpha_q)) = entering else {
                // Flipping every admissible variable through its whole span
                // still leaves violation: no feasible point exists. Same
                // finiteness certificate as the empty-candidate ray above.
                if self.rho.iter().any(|v| !v.is_finite()) || self.check_finite().is_err() {
                    return DualOutcome::Error(SolveError::NumericalPoison);
                }
                return DualOutcome::Infeasible;
            };

            // The entering column's image decides whether the iteration
            // happens at all, so it comes before any flip is applied.
            self.compute_ftran(q);
            let wr = self.w[r_leave];
            if wr.abs() < PIVOT_TOL {
                // The FTRAN image disagrees with the row scan; refactorize
                // and retry, giving up after a few attempts.
                bad_pivots += 1;
                if bad_pivots > 4 {
                    return DualOutcome::Stalled;
                }
                if let Err(e) = self.refactorize() {
                    return DualOutcome::Error(e);
                }
                self.refresh_basics();
                self.price_reduced_costs();
                continue;
            }
            bad_pivots = 0;
            if !BasisFactor::pivot_stable(r_leave, &self.w) {
                // An eta on this pivot would be unstable and a fresh LU of
                // the new basis close to singular: leave the row alone
                // until the basis changes.
                skipped[r_leave] = true;
                continue;
            }

            // Apply the bound flips with one FTRAN of Σ a_k Δx_k.
            if !self.flips.is_empty() {
                flip_w.fill(0.0);
                for &k in &self.flips {
                    let span = self.hi[k] - self.lo[k];
                    let step = match self.status[k] {
                        Status::AtLower => {
                            self.status[k] = Status::AtUpper;
                            self.x[k] = self.hi[k];
                            span
                        }
                        Status::AtUpper => {
                            self.status[k] = Status::AtLower;
                            self.x[k] = self.lo[k];
                            -span
                        }
                        // Free variables have infinite span and are never
                        // flipped; basics are excluded above.
                        _ => continue,
                    };
                    for (i, c) in self.cols.col(k) {
                        flip_w[i] += c * step;
                    }
                }
                self.factor.ftran(&mut flip_w);
                for r in 0..self.m {
                    let bi = self.basis[r];
                    self.x[bi] -= flip_w[r];
                }
            }

            // Pivot q into the leaving row.
            let target = if above {
                self.hi[b_leave]
            } else {
                self.lo[b_leave]
            };
            let delta = (self.x[b_leave] - target) / wr;
            self.x[q] += delta;
            for r in 0..self.m {
                let bi = self.basis[r];
                self.x[bi] -= self.w[r] * delta;
            }
            self.x[b_leave] = target;
            self.status[b_leave] = if above { Status::AtUpper } else { Status::AtLower };
            self.basis[r_leave] = q;
            self.status[q] = Status::Basic;

            // Dual step θ along the pivot row: the leaving column's row
            // entry is 1 and the entering column's reduced cost drops to 0.
            let theta = self.d[q] / alpha_q;
            for &(j, alpha) in &alpha_row {
                self.d[j] -= theta * alpha;
            }
            self.d[b_leave] = -theta;
            self.d[q] = 0.0;

            if let Err(e) = self.apply_pivot(r_leave) {
                return DualOutcome::Error(e);
            }
            self.iterations += 1;
            skipped.fill(false);
            // Degenerate dual steps (zero ratio) leave the reduced costs
            // unchanged and can cycle; count them towards Bland's rule.
            if ratio_q <= OPT_TOL * 10.0 {
                stall += 1;
            } else {
                stall = 0;
            }
        }
    }

    /// Warm-start driver: restores primal feasibility with the dual
    /// simplex when the snapshot basis is dual feasible, then polishes
    /// with a primal phase-2 run, both under the full
    /// [`MAX_ITERATIONS`]. Returns `Ok(None)` whenever the incremental path
    /// cannot certify a result for routine reasons — snapshot too stale
    /// for the gate, or a dual walk that stalled (iteration cap, deadline,
    /// repeated bad pivots, every violated row passed over as unstable) —
    /// so the caller must cold-solve, and `Err` when a numeric failure
    /// poisoned the warm path, so the cold fallback can be tagged with the
    /// cause.
    fn run_warm(&mut self) -> Result<Option<LpSolution>, SolveError> {
        // Stale-basis guard: a snapshot with many violated basics predicts a
        // long dual walk that can end up costlier than a cold solve.
        let violated = (0..self.m)
            .filter(|&r| {
                let b = self.basis[r];
                self.x[b] > self.hi[b] + FEAS_TOL || self.x[b] < self.lo[b] - FEAS_TOL
            })
            .count();
        // Too stale to bother: bail before spending any pivots. The floor
        // tolerates one violated basic on tiny bases (m small), where a
        // single violation is cheap to repair yet would otherwise
        // disqualify the warm path entirely.
        if violated as f64 > (self.m as f64 * WARM_STALE_FRAC).max(1.0) {
            lp_metrics().stale_basis_bails.inc();
            return Ok(None);
        }
        // The dual phase starts from these reduced costs and carries them
        // along its pivot rows.
        self.price_reduced_costs();
        let dual_inf = self.dual_infeasibility();
        if dual_inf <= OPT_TOL * 100.0 {
            match self.dual_phase() {
                DualOutcome::Feasible => {}
                DualOutcome::Infeasible => {
                    return Ok(Some(self.finish(LpStatus::Infeasible)));
                }
                DualOutcome::Stalled => return Ok(None),
                DualOutcome::Error(e) => return Err(e),
            }
        } else if self.primal_infeasibility() > FEAS_TOL * 10.0 {
            // Neither dual nor primal feasible: the snapshot buys nothing,
            // let the cold two-phase run handle it.
            lp_metrics().stale_basis_bails.inc();
            return Ok(None);
        }
        let stat = match self.phase(false)? {
            // An iteration cap on the warm path is not a verdict; retry cold
            // with a fresh budget rather than reporting a truncated solve.
            Some(LpStatus::IterationLimit) => return Ok(None),
            Some(s) => s,
            None => LpStatus::Optimal,
        };
        self.periodic_refresh()?;
        self.check_finite()?;
        if stat == LpStatus::Optimal {
            self.certify_optimal()?;
        }
        Ok(Some(self.finish(stat)))
    }

    fn phase1_needed(&self) -> bool {
        self.n_total > self.first_artificial
    }

    fn phase1_objective(&self) -> f64 {
        (self.first_artificial..self.n_total)
            .map(|j| self.x[j])
            .sum()
    }

    fn run(&mut self) -> Result<LpSolution, SolveError> {
        if self.deadline.expired() {
            // Expired before the first pivot: report promptly so the cold
            // rung of a warm→cold retry does not burn the caller's budget.
            return Ok(self.finish(LpStatus::Deadline));
        }

        if self.phase1_needed() {
            if let Some(stat) = self.phase(true)? {
                return Ok(self.finish(stat));
            }
            self.periodic_refresh()?;
            if self.phase1_objective() > FEAS_TOL * 10.0 {
                return Ok(self.finish(LpStatus::Infeasible));
            }
            // Freeze artificials at zero for phase 2.
            for j in self.first_artificial..self.n_total {
                self.lo[j] = 0.0;
                self.hi[j] = 0.0;
                if self.status[j] != Status::Basic {
                    self.status[j] = Status::AtLower;
                    self.x[j] = 0.0;
                }
            }
        }

        let stat = match self.phase(false)? {
            Some(s) => s,
            None => LpStatus::Optimal,
        };
        self.periodic_refresh()?;
        self.check_finite()?;
        if stat == LpStatus::Optimal {
            self.certify_optimal()?;
        }
        Ok(self.finish(stat))
    }

    fn finish(&mut self, status: LpStatus) -> LpSolution {
        let sense_sign = self.sense_sign;
        let x: Vec<f64> = self.x[..self.n_struct].to_vec();
        let objective = sense_sign
            * self.cost[..self.n_struct]
                .iter()
                .zip(&x)
                .map(|(c, v)| c * v)
                .sum::<f64>();
        self.price_duals(false);
        let duals: Vec<f64> = self.y.iter().map(|v| sense_sign * v).collect();
        LpSolution {
            status,
            objective,
            x,
            duals,
            iterations: self.iterations,
        }
    }
}

/// Nonbasic starting value and status for bounds `[l, h]`.
fn initial_point(l: f64, h: f64) -> (f64, Status) {
    match (l.is_finite(), h.is_finite()) {
        (true, true) => {
            if l.abs() <= h.abs() {
                (l, Status::AtLower)
            } else {
                (h, Status::AtUpper)
            }
        }
        (true, false) => (l, Status::AtLower),
        (false, true) => (h, Status::AtUpper),
        (false, false) => (0.0, Status::FreeZero),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, RowKind, Sense};

    fn solve(m: &LpModel) -> LpSolution {
        Simplex::new().solve(m).expect("valid model")
    }

    #[test]
    fn classic_two_var_max() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), obj 36.
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(&[(x, 3.0), (y, 5.0)]);
        m.add_row("r1", &[(x, 1.0)], RowKind::Le, 4.0).unwrap();
        m.add_row("r2", &[(y, 2.0)], RowKind::Le, 12.0).unwrap();
        m.add_row("r3", &[(x, 3.0), (y, 2.0)], RowKind::Le, 18.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y st x + y >= 4, x >= 1, y >= 0 => x=4? No: cost favors x.
        // At x+y=4 cheapest is all x: x=4,y=0 obj 8.
        let mut m = LpModel::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(&[(x, 2.0), (y, 3.0)]);
        m.add_row("cover", &[(x, 1.0), (y, 1.0)], RowKind::Ge, 4.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 8.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + 2y = 3, x - y = 0 => x=y=1, obj 2.
        let mut m = LpModel::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_var("y", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        m.add_row("e1", &[(x, 1.0), (y, 2.0)], RowKind::Eq, 3.0)
            .unwrap();
        m.add_row("e2", &[(x, 1.0), (y, -1.0)], RowKind::Eq, 0.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.value(x) - 1.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = LpModel::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.set_objective(&[(x, 1.0)]);
        m.add_row("lo", &[(x, 1.0)], RowKind::Ge, 2.0).unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(&[(x, 1.0)]);
        m.add_row("r", &[(x, -1.0)], RowKind::Le, 1.0).unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_variables_without_rows() {
        // Pure bound optimisation: max 2x - y with x in [0,3], y in [1,5].
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.0);
        let y = m.add_var("y", 1.0, 5.0);
        m.set_objective(&[(x, 2.0), (y, -1.0)]);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-7);
        assert!((s.value(x) - 3.0).abs() < 1e-9);
        assert!((s.value(y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y with x,y in [-5,5], x + y >= -3 => obj -3 on the line.
        let mut m = LpModel::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, 5.0);
        let y = m.add_var("y", -5.0, 5.0);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        m.add_row("r", &[(x, 1.0), (y, 1.0)], RowKind::Ge, -3.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 3.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn free_variable_equality_solve() {
        // Free variables solving a linear system: z = 3x + 1, x = 2 => z = 7.
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 2.0);
        let z = m.add_var("z", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(&[(z, 1.0)]);
        m.add_row("def", &[(z, 1.0), (x, -3.0)], RowKind::Eq, 1.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.value(z) - 7.0).abs() < 1e-7);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        let y = m.add_var("y", 0.0, 10.0);
        let z = m.add_var("z", 0.0, 10.0);
        m.set_objective(&[(x, 1.0), (y, 2.0), (z, 3.0)]);
        m.add_row("r1", &[(x, 1.0), (y, 1.0), (z, 1.0)], RowKind::Le, 10.0)
            .unwrap();
        m.add_row("r2", &[(y, 1.0), (z, -1.0)], RowKind::Ge, -2.0)
            .unwrap();
        m.add_row("r3", &[(x, 1.0), (z, 1.0)], RowKind::Eq, 6.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(m.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant constraints through the origin.
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        for k in 1..=6 {
            m.add_row("r", &[(x, k as f64), (y, 1.0)], RowKind::Le, 0.0)
                .unwrap();
        }
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective.abs() < 1e-9);
    }

    #[test]
    fn solve_with_bounds_override() {
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        m.set_objective(&[(x, 1.0)]);
        let s = Simplex::new().solve_with_bounds(&m, &[(0.0, 4.0)]).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-9);
        assert!(Simplex::new().solve_with_bounds(&m, &[]).is_err());
        assert!(Simplex::new()
            .solve_with_bounds(&m, &[(1.0, 0.0)])
            .is_err());
    }

    #[test]
    fn duals_satisfy_strong_duality_on_le_problem() {
        // max cᵀx st Ax <= b, x >= 0: bᵀy == cᵀx at optimum.
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(&[(x, 3.0), (y, 2.0)]);
        m.add_row("r1", &[(x, 1.0), (y, 1.0)], RowKind::Le, 4.0)
            .unwrap();
        m.add_row("r2", &[(x, 1.0), (y, 3.0)], RowKind::Le, 6.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        let dual_obj = 4.0 * -s.duals[0] + 6.0 * -s.duals[1];
        // For a maximisation solved as min(−c), y_min duals are reported
        // negated; strong duality: bᵀ|y| equals the primal objective.
        assert!(
            (dual_obj.abs() - s.objective).abs() < 1e-6,
            "dual {} primal {}",
            dual_obj,
            s.objective
        );
    }

    #[test]
    fn larger_random_like_instance_is_optimal_and_feasible() {
        // Deterministic pseudo-random LP with 12 vars / 8 rows.
        let mut m = LpModel::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_var(&format!("v{i}"), 0.0, 3.0 + (i % 4) as f64))
            .collect();
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        m.set_objective(
            &vars
                .iter()
                .map(|&v| (v, next().abs() + 0.1))
                .collect::<Vec<_>>(),
        );
        for r in 0..8 {
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
            m.add_row(&format!("r{r}"), &coeffs, RowKind::Le, 2.0 + r as f64 * 0.5)
                .unwrap();
        }
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(m.is_feasible(&s.x, 1e-5));
    }

    /// A medium LP with box bounds, used by the warm-start tests below.
    fn branching_model() -> (LpModel, Vec<crate::VarId>) {
        let mut m = LpModel::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(&format!("v{i}"), 0.0, 2.0 + i as f64 * 0.5))
            .collect();
        m.set_objective(
            &vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
        );
        m.add_row(
            "cap",
            &vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            RowKind::Le,
            7.0,
        )
        .unwrap();
        m.add_row(
            "mix",
            &[(vars[0], 2.0), (vars[2], -1.0), (vars[4], 1.0)],
            RowKind::Le,
            3.0,
        )
        .unwrap();
        m.add_row(
            "link",
            &[(vars[1], 1.0), (vars[3], 1.0), (vars[5], -1.0)],
            RowKind::Ge,
            -1.0,
        )
        .unwrap();
        (m, vars)
    }

    #[test]
    fn warm_resolve_matches_cold_after_bound_tightening() {
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let root = Simplex::new().solve_warm(&m, &base, None).unwrap();
        assert_eq!(root.solution.status, LpStatus::Optimal);
        let warm = root.warm.expect("optimal root has a snapshot");

        // Tighten one bound at a time, as branch-and-bound children do.
        for j in 0..m.num_vars() {
            for &(new_lo, new_hi) in &[(1.0, base[j].1), (base[j].0, 0.5)] {
                let mut child = base.clone();
                child[j] = (new_lo, new_hi);
                let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
                let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
                assert_eq!(ws.solution.status, cold.status, "var {j}");
                if cold.status == LpStatus::Optimal {
                    assert!(
                        (ws.solution.objective - cold.objective).abs() < 1e-9,
                        "var {j}: warm {} cold {}",
                        ws.solution.objective,
                        cold.objective
                    );
                }
            }
        }
    }

    #[test]
    fn warm_resolve_takes_fewer_pivots_than_cold() {
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let root = Simplex::new().solve_warm(&m, &base, None).unwrap();
        let warm = root.warm.expect("snapshot");
        let mut child = base.clone();
        child[0] = (1.0, child[0].1);
        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
        assert!(ws.warm_used, "warm path should not fall back");
        assert!(
            ws.solution.iterations <= cold.iterations,
            "warm {} pivots, cold {}",
            ws.solution.iterations,
            cold.iterations
        );
    }

    #[test]
    fn warm_detects_child_infeasibility() {
        // Root is feasible; forcing all variables high violates the cap row.
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let root = Simplex::new().solve_warm(&m, &base, None).unwrap();
        let warm = root.warm.expect("snapshot");
        let child: Vec<(f64, f64)> = base.iter().map(|&(_, hi)| (hi.max(2.0), hi.max(2.0))).collect();
        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        assert_eq!(cold.status, LpStatus::Infeasible, "sanity: child infeasible");
        let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
        assert_eq!(ws.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn mismatched_snapshot_falls_back_to_cold() {
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let warm = Simplex::new()
            .solve_warm(&m, &base, None)
            .unwrap()
            .warm
            .expect("snapshot");

        // A different model: the snapshot cannot apply, but the solve must
        // still succeed via the cold path.
        let mut other = LpModel::new(Sense::Maximize);
        let x = other.add_var("x", 0.0, 4.0);
        other.set_objective(&[(x, 1.0)]);
        let ws = Simplex::new().solve_warm(&other, &[(0.0, 4.0)], Some(&warm)).unwrap();
        assert!(!ws.warm_used);
        assert_eq!(ws.solution.status, LpStatus::Optimal);
        assert!((ws.solution.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_chain_across_successive_tightenings() {
        // Reuse each child's snapshot for the grandchild, as the B&B queue
        // does, and compare against cold solves at every step.
        let (m, _) = branching_model();
        let mut bounds: Vec<(f64, f64)> =
            (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let mut warm = Simplex::new()
            .solve_warm(&m, &bounds, None)
            .unwrap()
            .warm
            .expect("root snapshot");
        for j in 0..m.num_vars() {
            bounds[j] = (bounds[j].0, bounds[j].1.min(1.5));
            let cold = Simplex::new().solve_with_bounds(&m, &bounds).unwrap();
            let ws = Simplex::new().solve_warm(&m, &bounds, Some(&warm)).unwrap();
            assert_eq!(ws.solution.status, cold.status, "step {j}");
            if cold.status == LpStatus::Optimal {
                assert!(
                    (ws.solution.objective - cold.objective).abs() < 1e-9,
                    "step {j}: warm {} cold {}",
                    ws.solution.objective,
                    cold.objective
                );
            }
            if let Some(next) = ws.warm {
                warm = next;
            }
        }
    }

    #[test]
    fn warm_start_accessors_report_shape() {
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let warm = Simplex::new()
            .solve_warm(&m, &base, None)
            .unwrap()
            .warm
            .expect("snapshot");
        assert_eq!(warm.num_rows(), m.num_rows());
        assert_eq!(warm.num_structurals(), m.num_vars());
    }

    #[test]
    fn singular_warm_basis_surfaces_typed_error_and_recovers_cold() {
        // Two linearly dependent rows: basis {x, y} has matrix
        // [[1, 1], [2, 2]], which no factorization can invert. The warm
        // rung must fail with `SingularBasis` (not panic, not a silent
        // wrong answer) and the ladder must recover via the cold rung.
        let mut m = LpModel::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.0);
        let y = m.add_var("y", 0.0, 3.0);
        m.set_objective(&[(x, 1.0), (y, 1.0)]);
        m.add_row("r1", &[(x, 1.0), (y, 1.0)], RowKind::Le, 4.0)
            .unwrap();
        m.add_row("r2", &[(x, 2.0), (y, 2.0)], RowKind::Le, 8.0)
            .unwrap();
        let warm = WarmStart {
            basis: vec![0, 1],
            status: vec![
                Status::Basic,
                Status::Basic,
                Status::AtLower,
                Status::AtLower,
            ],
            n_struct: 2,
            m: 2,
            factor: None, // forces a fresh factorization of the singular basis
            history: None,
        };
        let bounds = [(0.0, 3.0), (0.0, 3.0)];
        let ws = Simplex::new().solve_warm(&m, &bounds, Some(&warm)).unwrap();
        assert!(!ws.warm_used, "singular warm basis must fall back");
        assert_eq!(ws.fallback, Some(SolveError::SingularBasis));
        assert_eq!(ws.solution.status, LpStatus::Optimal);
        assert!((ws.solution.objective - 4.0).abs() < 1e-7);
    }

    #[test]
    fn snapshot_carries_a_reusable_factorization() {
        // The frozen factor must round-trip through a warm solve: same
        // model, same basis columns → the child thaws the parent's
        // factorization instead of rebuilding, and still agrees with a
        // cold solve bit-for-bit on the objective.
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> =
            (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let root = Simplex::new().solve_warm(&m, &base, None).unwrap();
        let warm = root.warm.expect("snapshot");
        assert!(
            warm.factor.is_some(),
            "optimal snapshot must carry a frozen factorization"
        );
        let mut child = base.clone();
        child[1] = (0.5, child[1].1);
        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
        assert!(ws.warm_used);
        assert!((ws.solution.objective - cold.objective).abs() < 1e-9);
        // Grandchild snapshot chains the factorization again.
        assert!(ws.warm.expect("child snapshot").factor.is_some());
    }

    #[test]
    fn options_default_eta_cap_and_stale_gate() {
        const {
            assert!(ETA_CAP >= 8, "eta cap must allow a useful chain");
            assert!(
                WARM_STALE_FRAC > 0.0 && WARM_STALE_FRAC <= 1.0,
                "stale fraction is a fraction"
            );
        }
    }

    /// max Σ c_i x_i over x ∈ [0, 1]⁸⁰ with s = Σ x_i: the model, the x_i,
    /// s and the costs c_i.
    fn flip_model() -> (LpModel, Vec<crate::VarId>, crate::VarId, Vec<f64>) {
        let n = 80;
        let mut m = LpModel::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.add_var(&format!("x{i}"), 0.0, 1.0)).collect();
        let s = m.add_var("s", 0.0, f64::INFINITY);
        let c: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 37) % n) as f64 / n as f64).collect();
        m.set_objective(&xs.iter().zip(&c).map(|(&x, &ci)| (x, ci)).collect::<Vec<_>>());
        let mut row: Vec<_> = xs.iter().map(|&x| (x, -1.0)).collect();
        row.push((s, 1.0));
        m.add_row("sum", &row, RowKind::Eq, 0.0).unwrap();
        (m, xs, s, c)
    }

    #[test]
    fn many_flips_in_one_dual_iteration_stay_warm() {
        // The parent optimum of `flip_model` has every x_i = 1; capping s
        // at 20 makes the child's dual ratio test flip the 59 cheapest x_i
        // and pivot on the 60th, all in one iteration.
        let (m, xs, s, c) = flip_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let root = Simplex::new().solve_warm(&m, &base, None).unwrap();
        assert_eq!(root.solution.status, LpStatus::Optimal);
        assert!(xs.iter().all(|&x| root.solution.value(x) == 1.0));
        let warm = root.warm.expect("snapshot");

        let mut child = base.clone();
        child[s.0] = (0.0, 20.0);
        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
        assert!(ws.warm_used, "a dual-feasible warm start must finish warm");
        assert_eq!(ws.fallback, None);
        let mut sorted = c.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top20: f64 = sorted[..20].iter().sum();
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!((cold.objective - top20).abs() < 1e-9, "cold {}", cold.objective);
        assert!(
            (ws.solution.objective - cold.objective).abs() < 1e-9,
            "warm {} cold {}",
            ws.solution.objective,
            cold.objective
        );
        assert!(
            ws.solution.iterations <= 2,
            "flips are not iterations: {} iterations",
            ws.solution.iterations
        );
    }

    #[test]
    fn bland_dual_walk_stays_dual_feasible() {
        // `flip_model` solved under Bland's rule from the first step (a
        // stall limit of zero): every entering column must be a
        // minimum-ratio one, so the dual walk ends dual feasible and the
        // warm solve ends at the cold optimum.
        let (m, _, s, _) = flip_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let mut root = Tableau::build(&m, &base, Deadline::none());
        root.stall_limit = 0;
        assert_eq!(root.run().unwrap().status, LpStatus::Optimal);
        let warm = root.snapshot().expect("snapshot");
        let mut child = base.clone();
        child[s.0] = (0.0, 20.0);
        let bland_child = || {
            let mut t = Tableau::build_warm(&m, &child, Deadline::none(), &warm)
                .unwrap()
                .expect("snapshot fits");
            t.stall_limit = 0;
            t
        };

        let mut t = bland_child();
        t.price_reduced_costs();
        let tol = OPT_TOL * 100.0;
        assert!(t.dual_infeasibility() <= tol, "parent basis is dual feasible");
        assert!(matches!(t.dual_phase(), DualOutcome::Feasible));
        t.price_reduced_costs();
        assert!(
            t.dual_infeasibility() <= tol,
            "Bland walk broke dual feasibility: {}",
            t.dual_infeasibility()
        );

        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        let sol = bland_child()
            .run_warm()
            .unwrap()
            .expect("the walk finishes warm");
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective - cold.objective).abs() < 1e-9,
            "warm {} cold {}",
            sol.objective,
            cold.objective
        );
    }

    #[test]
    fn warm_resolve_handles_fixed_variables() {
        // Branching often fixes a binary to 0 or 1 exactly; the dual ratio
        // test must not try to flip or enter a fixed column.
        let (m, _) = branching_model();
        let base: Vec<(f64, f64)> = (0..m.num_vars()).map(|i| m.bounds(crate::VarId(i))).collect();
        let warm = Simplex::new()
            .solve_warm(&m, &base, None)
            .unwrap()
            .warm
            .expect("snapshot");
        let mut child = base.clone();
        child[2] = (0.0, 0.0);
        child[5] = (1.0, 1.0);
        let cold = Simplex::new().solve_with_bounds(&m, &child).unwrap();
        let ws = Simplex::new().solve_warm(&m, &child, Some(&warm)).unwrap();
        assert_eq!(ws.solution.status, cold.status);
        if cold.status == LpStatus::Optimal {
            assert!((ws.solution.objective - cold.objective).abs() < 1e-9);
        }
    }

    /// A seeded random LP: 3–10 variables, mostly boxed, some one-sided
    /// and a few free, and 2–9 rows of every kind, in either sense.
    fn random_lp(seed: u64) -> LpModel {
        let mut state = seed ^ 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let sense = if next() < 0.5 {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut m = LpModel::new(sense);
        let n = 3 + (next() * 8.0) as usize;
        let mut vars = Vec::with_capacity(n);
        for i in 0..n {
            let lo = (next() * 5.0).floor() - 2.0;
            let (lo, hi) = match (next() * 10.0) as u32 {
                0 => (f64::NEG_INFINITY, f64::INFINITY),
                1 | 2 => (lo, f64::INFINITY),
                3 => (f64::NEG_INFINITY, lo),
                _ => (lo, lo + 1.0 + (next() * 4.0).floor()),
            };
            vars.push(m.add_var(&format!("x{i}"), lo, hi));
        }
        let mut objective = Vec::with_capacity(n);
        for &v in &vars {
            objective.push((v, (next() * 9.0).floor() / 2.0 - 2.0));
        }
        m.set_objective(&objective);
        let rows = 2 + (next() * 8.0) as usize;
        for r in 0..rows {
            let mut coeffs = Vec::new();
            for &v in &vars {
                if next() < 0.6 {
                    coeffs.push((v, (next() * 9.0).floor() / 4.0 - 1.0));
                }
            }
            let kind = match (next() * 5.0) as u32 {
                0 => RowKind::Eq,
                1 | 2 => RowKind::Ge,
                _ => RowKind::Le,
            };
            let rhs = (next() * 13.0).floor() / 2.0 - 3.0;
            m.add_row(&format!("r{r}"), &coeffs, kind, rhs).unwrap();
        }
        m
    }

    /// Branching children of `base`: each variable's range halved from
    /// either side, then every range halved at once (a stale parent
    /// basis).
    fn children(base: &[(f64, f64)]) -> Vec<Vec<(f64, f64)>> {
        let mid = |(lo, hi): (f64, f64)| match (lo.is_finite(), hi.is_finite()) {
            (true, true) => 0.5 * (lo + hi),
            (true, false) => lo + 1.0,
            (false, true) => hi - 1.0,
            (false, false) => 0.0,
        };
        let mut out = Vec::new();
        for (j, &(lo, hi)) in base.iter().enumerate() {
            for range in [(mid((lo, hi)), hi), (lo, mid((lo, hi)))] {
                let mut child = base.to_vec();
                child[j] = range;
                out.push(child);
            }
        }
        out.push(base.iter().map(|&(lo, hi)| (mid((lo, hi)), hi)).collect());
        out
    }

    /// Folds everything a solve reports into the FNV-1a hash `h`: status,
    /// objective, iterations, whether it stayed warm, the fallback cause,
    /// `x` and the duals.
    fn hash_solve(h: &mut u64, ws: &WarmSolve) {
        let sol = &ws.solution;
        let head = [
            sol.status as u64,
            sol.objective.to_bits(),
            sol.iterations as u64,
            u64::from(ws.warm_used),
            ws.fallback.map_or(0, |e| e as u64 + 1),
        ];
        let values = sol.x.iter().chain(&sol.duals).map(|v| v.to_bits());
        for word in head.into_iter().chain(values) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    #[test]
    fn solve_bits_are_pinned() {
        // The exact bits of a cold solve, a snapshot solve and warm child
        // solves — from the root's basis, from the previous child's, from
        // a described root basis and from another model's — so a rewrite
        // of the tableau builds or of the entry points must reproduce
        // them.
        let mut models = vec![branching_model().0, flip_model().0];
        models.extend((0..16).map(random_lp));
        let simplex = Simplex::new();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut previous: Option<WarmStart> = None;
        for m in &models {
            let base: Vec<(f64, f64)> = (0..m.num_vars())
                .map(|i| m.bounds(crate::VarId(i)))
                .collect();
            let cold = |bounds: &[(f64, f64)]| {
                WarmSolve::from(simplex.solve_with_bounds(m, bounds).unwrap())
            };
            let warm = |bounds: &[(f64, f64)], basis: Option<&WarmStart>| {
                simplex.solve_warm(m, bounds, basis).unwrap()
            };
            hash_solve(&mut h, &cold(&base));
            let root = warm(&base, None);
            hash_solve(&mut h, &root);
            if let Some(other) = &previous {
                hash_solve(&mut h, &warm(&base, Some(other)));
            }
            let Some(root_basis) = root.warm else {
                continue;
            };
            let children = children(&base);
            let (basis, status) = root_basis.describe();
            for factor in [root_basis.describe_factor(), Vec::new()] {
                let described = WarmStart::from_description(
                    &basis,
                    &status,
                    m.num_vars(),
                    m.num_rows(),
                    &factor,
                )
                .expect("a snapshot's own description");
                hash_solve(&mut h, &warm(&children[0], Some(&described)));
            }
            let mut last = root_basis.clone();
            for child in &children {
                hash_solve(&mut h, &cold(child));
                hash_solve(&mut h, &warm(child, Some(&root_basis)));
                let ws = warm(child, Some(&last));
                hash_solve(&mut h, &ws);
                if let Some(next) = ws.warm {
                    last = next;
                }
            }
            previous = Some(root_basis);
        }
        assert_eq!(h, 0x5021_3979_b813_a4f7, "LP answers moved: {h:#018x}");
    }
}
