//! Sound per-neuron bound propagation.
//!
//! All analyses take the input box and return guaranteed intervals for
//! every pre-activation and activation. Their point is threefold:
//!
//! * Every ReLU neuron whose pre-activation interval does not straddle
//!   zero is *stable* and can be encoded as a plain linear constraint —
//!   no binary variable, no branching.
//! * For the remaining unstable neurons, the interval endpoints are the
//!   big-M constants of the MILP encoding; tighter bounds mean a tighter
//!   LP relaxation and a smaller branch-and-bound tree.
//! * The phase-aware variant ([`analyze_with_phases`]) re-propagates
//!   bounds under a partial assignment of ReLU phases — the bounding
//!   engine of the neuron branch-and-bound in [`crate::bab`].
//!
//! [`interval_bounds`] is plain interval arithmetic (IBP).
//! [`symbolic_bounds`] keeps, for every neuron, linear lower/upper bounding
//! functions *of the network input* (the DeepPoly/CROWN triangle
//! relaxation) and concretises them against the box — never looser than
//! IBP, usually much tighter after two or more layers.

use crate::property::LinearObjective;
use crate::VerifyError;
use certnn_linalg::kernels::axpy;
use certnn_linalg::{Interval, Matrix, Vector};
use certnn_nn::activation::Activation;
use certnn_nn::network::Network;

/// Guaranteed bounds for every neuron of a network under an input box.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkBounds {
    /// `pre[l][j]`: bounds on the pre-activation of neuron `j` in layer `l`.
    pub pre: Vec<Vec<Interval>>,
    /// `post[l][j]`: bounds on the activation of neuron `j` in layer `l`.
    pub post: Vec<Vec<Interval>>,
}

impl NetworkBounds {
    /// Bounds on the network outputs (post-activations of the last layer).
    ///
    /// # Panics
    ///
    /// Panics if the bounds are empty (cannot happen for values returned by
    /// this module).
    pub fn output_bounds(&self) -> &[Interval] {
        self.post.last().expect("nonempty network")
    }

    /// Number of ReLU neurons whose pre-activation straddles zero — each
    /// costs one binary variable in the MILP encoding.
    pub fn count_unstable(&self, net: &Network) -> usize {
        net.layers()
            .iter()
            .zip(&self.pre)
            .filter(|(l, _)| l.activation() == Activation::Relu)
            .map(|(_, pre)| pre.iter().filter(|i| i.straddles_zero()).count())
            .sum()
    }

    /// Total width of all pre-activation intervals — a scalar tightness
    /// metric used by the `bounds_ablation` bench.
    pub fn total_pre_width(&self) -> f64 {
        self.pre
            .iter()
            .flat_map(|layer| layer.iter().map(Interval::width))
            .sum()
    }
}

/// Validates the box against the network input width.
fn check_box(net: &Network, input_box: &[Interval]) -> Result<(), VerifyError> {
    if input_box.len() != net.inputs() {
        return Err(VerifyError::SpecMismatch {
            network_inputs: net.inputs(),
            spec_inputs: input_box.len(),
        });
    }
    Ok(())
}

/// Interval bound propagation.
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] if the box width differs from the
/// network's input width.
pub fn interval_bounds(net: &Network, input_box: &[Interval]) -> Result<NetworkBounds, VerifyError> {
    check_box(net, input_box)?;
    let mut pre = Vec::with_capacity(net.layers().len());
    let mut post = Vec::with_capacity(net.layers().len());
    let mut current: Vec<Interval> = input_box.to_vec();
    for layer in net.layers() {
        let w = layer.weights();
        let b = layer.bias();
        let mut z = Vec::with_capacity(layer.outputs());
        for r in 0..layer.outputs() {
            let mut acc = Interval::point(b[r]);
            for (c, iv) in current.iter().enumerate() {
                acc = acc + *iv * w[(r, c)];
            }
            z.push(acc);
        }
        let a: Vec<Interval> = z.iter().map(|iv| layer.activation().interval(*iv)).collect();
        pre.push(z);
        current = a.clone();
        post.push(a);
    }
    Ok(NetworkBounds { pre, post })
}

/// Plain interval-arithmetic upper bound on a linear output functional
/// over `input_box` — the loosest rung of the degradation ladder, and
/// therefore the ceiling no degraded (timed-out or fault-folded) answer
/// is allowed to exceed. The search engines clamp every reported bound
/// to this value; exact optima already sit below it.
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] if the box width differs from
/// the network's input width.
pub fn interval_objective_ceiling(
    net: &Network,
    input_box: &[Interval],
    objective: &LinearObjective,
) -> Result<f64, VerifyError> {
    let nb = interval_bounds(net, input_box)?;
    let out = nb.output_bounds();
    let mut ub = objective.constant;
    for &(o, c) in &objective.terms {
        ub += if c >= 0.0 { c * out[o].hi() } else { c * out[o].lo() };
    }
    Ok(ub)
}

/// Linear symbolic bounds of one layer's neurons, expressed over the
/// network input: `Al·x + bl ≤ v ≤ Au·x + bu`. Row `r` holds neuron `r`;
/// every row spans the `n_in` input columns, so the buffer is
/// `widest layer × n_in` and all updates are whole-row slice kernels.
#[derive(Debug, Clone)]
struct SymbolicBounds {
    lower_a: Matrix,
    lower_b: Vector,
    upper_a: Matrix,
    upper_b: Vector,
}

impl SymbolicBounds {
    /// Buffer with `rows` rows over `n_in` input columns, all zero.
    fn with_capacity(rows: usize, n_in: usize) -> Self {
        Self {
            lower_a: Matrix::zeros(rows, n_in),
            lower_b: Vector::zeros(rows),
            upper_a: Matrix::zeros(rows, n_in),
            upper_b: Vector::zeros(rows),
        }
    }

    /// Loads row `r` with a first-layer neuron's exact bounds
    /// `w·x + b ≤ z ≤ w·x + b`: the first layer reads the input itself,
    /// so its symbolic rows are just its weights and bias.
    ///
    /// For finite weights the values are bit-for-bit those of the
    /// general affine step applied to the identity bounds `x ≤ v ≤ x`
    /// (the symbolic state before the first layer): a zero weight of
    /// either sign lands as `+0.0`, and the bias absorbs `w·0.0` from
    /// every nonzero weight, which turns a `-0.0` bias into `+0.0` once
    /// some weight is positive.
    fn load_first_layer_row(&mut self, r: usize, w: &[f64], b: f64) {
        for (a, &wc) in self.lower_a.row_mut(r).iter_mut().zip(w) {
            *a = wc + 0.0;
        }
        self.upper_a.row_mut(r).copy_from_slice(self.lower_a.row(r));
        let b = w
            .iter()
            .filter(|&&wc| wc != 0.0)
            .fold(b, |acc, &wc| acc + wc * 0.0);
        self.lower_b[r] = b;
        self.upper_b[r] = b;
    }

    /// Concretises row `r` against the input box.
    fn concretize_row(&self, r: usize, input_box: &[Interval]) -> Interval {
        let mut lo = self.lower_b[r];
        let mut hi = self.upper_b[r];
        let coeffs = self.lower_a.row(r).iter().zip(self.upper_a.row(r));
        for (iv, (&al, &au)) in input_box.iter().zip(coeffs) {
            lo += if al >= 0.0 { al * iv.lo() } else { al * iv.hi() };
            hi += if au >= 0.0 { au * iv.hi() } else { au * iv.lo() };
        }
        // Floating-point slack can produce lo marginally above hi.
        if lo > hi {
            let mid = 0.5 * (lo + hi);
            Interval::point(mid)
        } else {
            Interval::new(lo, hi)
        }
    }

    fn zero_row(&mut self, r: usize) {
        self.lower_a.row_mut(r).fill(0.0);
        self.upper_a.row_mut(r).fill(0.0);
        self.lower_b[r] = 0.0;
        self.upper_b[r] = 0.0;
    }
}

/// A partial assignment of ReLU phases, indexed over ReLU neurons in
/// layer-major order (the same order as
/// [`certnn_trace::mcdc::branch_signature`](https://docs.rs)): `Some(true)`
/// forces *active* (`y = z, z ≥ 0`), `Some(false)` forces *inactive*
/// (`y = 0, z ≤ 0`), `None` leaves the neuron to the relaxation.
pub type Phases = [Option<bool>];

/// Result of a phase-aware symbolic analysis.
#[derive(Debug, Clone)]
pub struct PhasedAnalysis {
    /// Per-neuron bounds under the phase assignment.
    pub bounds: NetworkBounds,
    /// Sound upper bound on the objective over the box ∩ phase region
    /// (`−∞` when the phase region is empty).
    pub objective_upper: f64,
    /// The box corner maximising the objective's upper surrogate — a
    /// genuine input whose forward pass yields a lower bound.
    pub maximizer: Vector,
    /// `true` if the phase assignment contradicts the propagated bounds
    /// (the region is empty).
    pub conflict: bool,
    /// Still-unstable, unfixed ReLU neurons as `(flat index, interval
    /// width)`, layer-major — the branching candidates.
    pub unstable: Vec<(usize, f64)>,
}

/// Reusable phase-aware analyzer over one `(network, input box)` pair.
///
/// [`analyze_with_phases`] is called at every node of the neuron
/// branch-and-bound, and a fresh call pays for two full coefficient
/// matrices per layer plus a complete interval-bound propagation — all of
/// which depend only on the network and the box, not on the phases. This
/// analyzer hoists that state out of the per-node loop:
///
/// * the IBP result is computed once (lazily — phase-forced calls never
///   need it) and cached,
/// * the two symbolic coefficient buffers are allocated once at
///   `widest layer × n_in` and reused by every subsequent [`analyze`]
///   call, with the ReLU activation step rewritten **in place** (every
///   update is a row scale, so no aliasing hazard).
///
/// One analysis costs `Σ_l rows_l × inputs_l × n_in` multiply-adds per
/// side for the layers after the first; the first layer's symbolic rows
/// are its weights, loaded in closed form, and every update is a
/// whole-row [`axpy`]/scale over contiguous coefficients.
///
/// Each branch-and-bound worker owns one `PhaseAnalyzer`; results are
/// identical to the allocate-per-call path, which remains available as
/// the [`analyze_with_phases`] convenience wrapper.
///
/// [`analyze`]: PhaseAnalyzer::analyze
pub struct PhaseAnalyzer<'a> {
    net: &'a Network,
    input_box: &'a [Interval],
    ibp: Option<NetworkBounds>,
    cur: SymbolicBounds,
    nxt: SymbolicBounds,
    /// Scratch α vector reused across [`analyze_tuned`] calls so the
    /// coordinate-descent loop allocates nothing per node.
    ///
    /// [`analyze_tuned`]: PhaseAnalyzer::analyze_tuned
    alpha_scratch: Vec<f64>,
    /// Scratch coordinate list for the descent loop (flat indices of the
    /// incumbent's unstable neurons).
    coord_scratch: Vec<usize>,
}

impl<'a> PhaseAnalyzer<'a> {
    /// Prepares reusable buffers for `net` under `input_box`.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::SpecMismatch`] if the box width differs
    /// from the network's input width.
    pub fn new(net: &'a Network, input_box: &'a [Interval]) -> Result<Self, VerifyError> {
        check_box(net, input_box)?;
        let n_in = net.inputs();
        let max_rows = net.layers().iter().map(|l| l.outputs()).max().unwrap_or(0);
        Ok(Self {
            net,
            input_box,
            ibp: None,
            cur: SymbolicBounds::with_capacity(max_rows, n_in),
            nxt: SymbolicBounds::with_capacity(max_rows, n_in),
            alpha_scratch: Vec::new(),
            coord_scratch: Vec::new(),
        })
    }

    /// DeepPoly/CROWN-style symbolic propagation under a partial ReLU
    /// phase assignment, with a symbolic objective bound.
    ///
    /// Passing all-`None` phases and reading `bounds` reproduces
    /// [`symbolic_bounds`]. The `objective_upper` is computed by
    /// combining the output layer's symbolic bounds with the objective's
    /// coefficients *before* concretisation, which is tighter than
    /// combining concretised output intervals.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NotPiecewiseLinear`] for non-ReLU/identity
    /// layers, and [`VerifyError::SpecMismatch`] if `phases` is non-empty
    /// but shorter than the network's ReLU neuron count.
    pub fn analyze(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
    ) -> Result<PhasedAnalysis, VerifyError> {
        self.analyze_impl(phases, objective, None, None)
    }

    /// [`analyze`] with an explicit lower-slope vector for unstable
    /// ReLUs: neuron `f` (flat layer-major ReLU index) uses
    /// `alpha[f].clamp(0.0, 1.0)` instead of the built-in heuristic.
    /// Sound for *any* α, because `relu(z) ≥ α·z` holds pointwise for
    /// every α ∈ [0, 1]. `alpha` must cover every ReLU neuron.
    ///
    /// # Errors
    ///
    /// As [`analyze`], plus [`VerifyError::SpecMismatch`] when `alpha`
    /// is shorter than the network's ReLU neuron count.
    ///
    /// [`analyze`]: PhaseAnalyzer::analyze
    pub fn analyze_with_alpha(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
        alpha: &[f64],
    ) -> Result<PhasedAnalysis, VerifyError> {
        if alpha.len() < self.net.num_relu_neurons() {
            return Err(VerifyError::SpecMismatch {
                network_inputs: self.net.num_relu_neurons(),
                spec_inputs: alpha.len(),
            });
        }
        self.analyze_impl(phases, objective, Some(alpha), None)
    }

    fn analyze_impl(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
        alpha: Option<&[f64]>,
        mut capture: Option<&mut Vec<f64>>,
    ) -> Result<PhasedAnalysis, VerifyError> {
        let net = self.net;
        let input_box = self.input_box;
        let total_relu = net.num_relu_neurons();
        if !phases.is_empty() && phases.len() < total_relu {
            return Err(VerifyError::SpecMismatch {
                network_inputs: total_relu,
                spec_inputs: phases.len(),
            });
        }
        if let Some(cap) = capture.as_deref_mut() {
            cap.clear();
            cap.resize(total_relu, 0.0);
        }
        let n_in = net.inputs();
        let mut pre = Vec::with_capacity(net.layers().len());
        let mut post = Vec::with_capacity(net.layers().len());
        let mut conflict = false;
        let mut unstable = Vec::new();
        let mut relu_cursor = 0usize;

        // The IBP intersection below is only sound (and only applied)
        // when no phase is forced, so compute it lazily: pure
        // branch-and-bound node calls never pay for it.
        let phase_free = phases.is_empty() || phases.iter().all(Option::is_none);
        if phase_free && self.ibp.is_none() {
            self.ibp = Some(interval_bounds(net, input_box)?);
        }

        for (li, layer) in net.layers().iter().enumerate() {
            if !layer.activation().is_piecewise_linear() {
                return Err(VerifyError::NotPiecewiseLinear { layer: li });
            }
            let w = layer.weights();
            let b = layer.bias();
            let rows = layer.outputs();

            // Affine step: z = W·a + b, with W split by sign for each
            // bound. Fully overwrites the first `rows` rows of `nxt`; the
            // first layer reads the input directly, every later one reads
            // `cur` (previous activation symbolics) row by row.
            let (prev, z_sym) = (&self.cur, &mut self.nxt);
            for r in 0..rows {
                if li == 0 {
                    z_sym.load_first_layer_row(r, w.row(r), b[r]);
                    continue;
                }
                z_sym.zero_row(r);
                z_sym.lower_b[r] = b[r];
                z_sym.upper_b[r] = b[r];
                for (j, &wij) in w.row(r).iter().enumerate() {
                    if wij == 0.0 {
                        continue;
                    }
                    let (use_lo_a, use_lo_b, use_hi_a, use_hi_b) = if wij > 0.0 {
                        (&prev.lower_a, &prev.lower_b, &prev.upper_a, &prev.upper_b)
                    } else {
                        (&prev.upper_a, &prev.upper_b, &prev.lower_a, &prev.lower_b)
                    };
                    axpy(wij, use_lo_a.row(j), z_sym.lower_a.row_mut(r));
                    axpy(wij, use_hi_a.row(j), z_sym.upper_a.row_mut(r));
                    z_sym.lower_b[r] += wij * use_lo_b[j];
                    z_sym.upper_b[r] += wij * use_hi_b[j];
                }
            }
            // Concretise pre-activations; intersect with IBP (phase-free,
            // so only valid as a *relaxation* intersection when no phase
            // forces the neuron — under forced phases the symbolic bound
            // already describes the phase-linearised surrogate and IBP
            // stays sound for it only in the unforced case; keep the
            // intersection only when no phases are active at all to stay
            // conservative).
            let mut z_conc = Vec::with_capacity(rows);
            for r in 0..rows {
                let sym = z_sym.concretize_row(r, input_box);
                let both = match (phase_free, &self.ibp) {
                    (true, Some(ibp)) => sym.intersect(&ibp.pre[li][r]).unwrap_or(sym),
                    _ => sym,
                };
                z_conc.push(both);
            }

            // Activation step, rewriting `nxt` in place: every ReLU case
            // either zeroes its own row or scales it.
            let sym = &mut self.nxt;
            let a_conc = match layer.activation() {
                Activation::Identity => z_conc.clone(),
                Activation::Relu => {
                    let mut conc = Vec::with_capacity(rows);
                    for (r, &iv) in z_conc.iter().enumerate() {
                        let phase = phases.get(relu_cursor).copied().flatten();
                        let flat = relu_cursor;
                        relu_cursor += 1;
                        match phase {
                            Some(false) => {
                                // Forced inactive: region needs z ≤ 0.
                                if iv.lo() > 1e-9 {
                                    conflict = true;
                                }
                                sym.zero_row(r);
                                conc.push(Interval::zero());
                            }
                            Some(true) => {
                                // Forced active: region needs z ≥ 0; the
                                // surrogate keeps y = z exactly.
                                if iv.hi() < -1e-9 {
                                    conflict = true;
                                }
                                conc.push(iv);
                            }
                            None => {
                                if iv.is_nonpositive() {
                                    sym.zero_row(r);
                                    conc.push(Interval::zero());
                                } else if iv.is_nonnegative() {
                                    conc.push(iv);
                                } else {
                                    // Unstable: triangle relaxation.
                                    let (l, u) = (iv.lo(), iv.hi());
                                    unstable.push((flat, iv.width()));
                                    let slope = u / (u - l);
                                    for a in sym.upper_a.row_mut(r) {
                                        *a *= slope;
                                    }
                                    sym.upper_b[r] = slope * (sym.upper_b[r] - l);
                                    let lambda = match alpha {
                                        Some(a) => a[flat].clamp(0.0, 1.0),
                                        None => {
                                            if u >= -l {
                                                1.0
                                            } else {
                                                0.0
                                            }
                                        }
                                    };
                                    if let Some(cap) = capture.as_deref_mut() {
                                        cap[flat] = lambda;
                                    }
                                    for a in sym.lower_a.row_mut(r) {
                                        *a *= lambda;
                                    }
                                    sym.lower_b[r] *= lambda;
                                    conc.push(iv.relu());
                                }
                            }
                        }
                    }
                    conc
                }
                Activation::Tanh => unreachable!("checked above"),
            };

            pre.push(z_conc);
            post.push(a_conc);
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }

        // Combine the output symbolics with the objective before
        // concretising.
        let out_sym = &self.cur;
        let mut obj_a = vec![0.0; n_in];
        let mut obj_b = objective.constant;
        for &(o, c) in &objective.terms {
            if c == 0.0 {
                continue;
            }
            let (a_mat, b_vec) = if c > 0.0 {
                (&out_sym.upper_a, &out_sym.upper_b)
            } else {
                (&out_sym.lower_a, &out_sym.lower_b)
            };
            axpy(c, a_mat.row(o), &mut obj_a);
            obj_b += c * b_vec[o];
        }
        let mut objective_upper = obj_b;
        let maximizer: Vector = input_box
            .iter()
            .zip(&obj_a)
            .map(|(iv, &a)| {
                objective_upper += if a >= 0.0 { a * iv.hi() } else { a * iv.lo() };
                if a > 0.0 {
                    iv.hi()
                } else {
                    iv.lo()
                }
            })
            .collect();
        if conflict {
            objective_upper = f64::NEG_INFINITY;
        }

        Ok(PhasedAnalysis {
            bounds: NetworkBounds { pre, post },
            objective_upper,
            maximizer,
            conflict,
            unstable,
        })
    }

    /// α-optimized analysis: coordinate descent over the unstable-ReLU
    /// lower slopes, minimising the symbolic objective upper bound.
    ///
    /// * `iters == 0` reproduces [`analyze`] bit-for-bit and returns no
    ///   α vector — the zero-cost off switch.
    /// * Otherwise the heuristic slopes are evaluated first (so tuning
    ///   can never end looser than the heuristic), `warm` — typically
    ///   the parent node's tuned α — is adopted when strictly better,
    ///   and then up to `iters` rounds flip one unstable neuron's slope
    ///   at a time between the `{0, 1}` vertices, keeping strict
    ///   improvements. Rounds stop early once a full sweep improves
    ///   nothing.
    ///
    /// Returns the best analysis found together with the α vector that
    /// produced it (`None` when `iters == 0` or nothing was tuned).
    /// All candidate slopes are sound, so the minimum over candidates is
    /// a valid upper bound; a conflict (`objective_upper == −∞`) under
    /// any sound α proves the region empty.
    ///
    /// # Errors
    ///
    /// As [`analyze`].
    ///
    /// [`analyze`]: PhaseAnalyzer::analyze
    pub fn analyze_tuned(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
        iters: usize,
        warm: Option<&[f64]>,
    ) -> Result<(PhasedAnalysis, Option<Vec<f64>>), VerifyError> {
        if iters == 0 {
            return Ok((self.analyze(phases, objective)?, None));
        }
        let mut alpha = std::mem::take(&mut self.alpha_scratch);
        let mut coords = std::mem::take(&mut self.coord_scratch);
        let result = self.tune_alpha(phases, objective, iters, warm, &mut alpha, &mut coords);
        let out = match &result {
            Ok(_) => Some(alpha.clone()),
            Err(_) => None,
        };
        self.alpha_scratch = alpha;
        self.coord_scratch = coords;
        Ok((result?, out))
    }

    /// Cheap per-node α refinement for the branch-and-bound: evaluates
    /// the inherited (parent-tuned) slope vector under this node's
    /// phases, then tries at most `flips` single-coordinate `{0, 1}`
    /// flips on the widest still-unstable neurons, keeping strict
    /// improvements — one fixed phase barely moves the optimal slopes,
    /// so a couple of flips recover most of a full descent at a fraction
    /// of its cost. Returns the best α-analysis found together with the
    /// refined vector (cloned from scratch; the scratch itself is
    /// reused across calls).
    ///
    /// The result is a *second* sound bound alongside the heuristic
    /// analysis — callers take the min; the α analysis never drives
    /// branching, so enabling it can only shrink the search tree.
    ///
    /// # Errors
    ///
    /// As [`analyze_with_alpha`].
    ///
    /// [`analyze_with_alpha`]: PhaseAnalyzer::analyze_with_alpha
    pub fn refine_alpha(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
        warm: &[f64],
        flips: usize,
    ) -> Result<(PhasedAnalysis, Vec<f64>), VerifyError> {
        let total_relu = self.net.num_relu_neurons();
        if warm.len() < total_relu {
            return Err(VerifyError::SpecMismatch {
                network_inputs: total_relu,
                spec_inputs: warm.len(),
            });
        }
        let mut alpha = std::mem::take(&mut self.alpha_scratch);
        alpha.clear();
        alpha.extend_from_slice(&warm[..total_relu]);
        let mut best = match self.analyze_impl(phases, objective, Some(&alpha), None) {
            Ok(a) => a,
            Err(e) => {
                self.alpha_scratch = alpha;
                return Err(e);
            }
        };
        if !best.conflict && flips > 0 {
            // Widest unstable neurons first: they carry the loosest
            // triangle relaxations, so their slope matters most.
            // Top-`flips` selection without sorting the whole list:
            // `flips` is small (1–2 at the shipped defaults).
            let mut coords = std::mem::take(&mut self.coord_scratch);
            coords.clear();
            for _ in 0..flips.min(best.unstable.len()) {
                let next = best
                    .unstable
                    .iter()
                    .filter(|&&(f, _)| !coords.contains(&f))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|&(f, _)| f);
                match next {
                    Some(f) => coords.push(f),
                    None => break,
                }
            }
            for i in 0..coords.len() {
                let f = coords[i];
                let old = alpha[f];
                alpha[f] = if old >= 0.5 { 0.0 } else { 1.0 };
                match self.analyze_impl(phases, objective, Some(&alpha), None) {
                    Ok(cand) => {
                        if cand.objective_upper < best.objective_upper - 1e-12 {
                            best = cand;
                            if best.conflict {
                                break;
                            }
                        } else {
                            alpha[f] = old;
                        }
                    }
                    Err(e) => {
                        self.alpha_scratch = alpha;
                        self.coord_scratch = coords;
                        return Err(e);
                    }
                }
            }
            self.coord_scratch = coords;
        }
        let out = alpha.clone();
        self.alpha_scratch = alpha;
        Ok((best, out))
    }

    /// Inner descent loop of [`analyze_tuned`], operating on caller-owned
    /// scratch so the buffers survive the early `?` returns.
    ///
    /// [`analyze_tuned`]: PhaseAnalyzer::analyze_tuned
    fn tune_alpha(
        &mut self,
        phases: &Phases,
        objective: &LinearObjective,
        iters: usize,
        warm: Option<&[f64]>,
        alpha: &mut Vec<f64>,
        coords: &mut Vec<usize>,
    ) -> Result<PhasedAnalysis, VerifyError> {
        let total_relu = self.net.num_relu_neurons();
        // Baseline: heuristic slopes, captured into `alpha` so descent
        // starts from the heuristic vertex.
        let mut best = self.analyze_impl(phases, objective, None, Some(alpha))?;
        if let Some(w) = warm {
            if w.len() == total_relu && !best.conflict {
                let cand = self.analyze_impl(phases, objective, Some(w), None)?;
                if cand.objective_upper < best.objective_upper {
                    best = cand;
                    alpha.copy_from_slice(w);
                }
            }
        }
        if best.conflict {
            // −∞ cannot be improved; skip the descent entirely.
            return Ok(best);
        }
        for _ in 0..iters {
            coords.clear();
            coords.extend(best.unstable.iter().map(|&(f, _)| f));
            let mut improved = false;
            for &f in coords.iter() {
                let old = alpha[f];
                alpha[f] = if old >= 0.5 { 0.0 } else { 1.0 };
                let cand = self.analyze_impl(phases, objective, Some(alpha), None)?;
                if cand.objective_upper < best.objective_upper - 1e-12 {
                    best = cand;
                    improved = true;
                    if best.conflict {
                        return Ok(best);
                    }
                } else {
                    alpha[f] = old;
                }
            }
            if !improved {
                break;
            }
        }
        Ok(best)
    }
}

/// One-shot convenience wrapper over [`PhaseAnalyzer`]; see there for the
/// semantics. Callers analysing many phase assignments of the same
/// `(network, box)` pair should hold a [`PhaseAnalyzer`] instead to
/// amortise its buffers.
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] for a wrong box width or a
/// non-empty `phases` shorter than the network's ReLU neuron count, and
/// [`VerifyError::NotPiecewiseLinear`] for non-ReLU/identity layers.
pub fn analyze_with_phases(
    net: &Network,
    input_box: &[Interval],
    phases: &Phases,
    objective: &LinearObjective,
) -> Result<PhasedAnalysis, VerifyError> {
    PhaseAnalyzer::new(net, input_box)?.analyze(phases, objective)
}

/// DeepPoly/CROWN-style symbolic bound propagation (no phase forcing).
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] for a wrong box width and
/// [`VerifyError::NotPiecewiseLinear`] if a layer uses an activation other
/// than ReLU or identity.
pub fn symbolic_bounds(net: &Network, input_box: &[Interval]) -> Result<NetworkBounds, VerifyError> {
    let trivial = LinearObjective {
        terms: Vec::new(),
        constant: 0.0,
    };
    Ok(analyze_with_phases(net, input_box, &[], &trivial)?.bounds)
}

/// Intersects `acc` with `other` neuron-by-neuron. Both operands must be
/// individually sound for the same network and box, so the intersection
/// is sound and at least as tight as either. Floating-point-empty
/// intersections (possible only through rounding, never semantically)
/// keep the accumulator's interval.
fn intersect_bounds(acc: &mut NetworkBounds, other: &NetworkBounds) {
    let pairs = acc
        .pre
        .iter_mut()
        .zip(&other.pre)
        .chain(acc.post.iter_mut().zip(&other.post));
    for (al, ol) in pairs {
        for (a, o) in al.iter_mut().zip(ol) {
            *a = a.intersect(o).unwrap_or(*a);
        }
    }
}

/// α-optimized whole-network bounds for the MILP encoder.
///
/// Runs the same `{0, 1}` coordinate descent as
/// [`PhaseAnalyzer::analyze_tuned`], but scores candidates by what the
/// encoder cares about — `(unstable neuron count, total unstable width)`,
/// lexicographically — instead of a single objective bound, and returns
/// the *intersection* of every sound candidate evaluated along the way.
/// Each candidate's bounds are sound for any α ∈ [0, 1], so the
/// intersection is sound and never looser than the heuristic slopes:
/// more neurons come out stably fixed (fewer binaries) and the remaining
/// big-M constants shrink.
///
/// `iters == 0` is exactly [`symbolic_bounds`].
///
/// # Errors
///
/// As [`symbolic_bounds`].
pub fn alpha_optimized_bounds(
    net: &Network,
    input_box: &[Interval],
    iters: usize,
) -> Result<NetworkBounds, VerifyError> {
    let trivial = LinearObjective {
        terms: Vec::new(),
        constant: 0.0,
    };
    let mut analyzer = PhaseAnalyzer::new(net, input_box)?;
    if iters == 0 {
        return Ok(analyzer.analyze(&[], &trivial)?.bounds);
    }
    let total_relu = net.num_relu_neurons();
    let mut alpha = vec![0.0; total_relu];
    let mut best = analyzer.analyze_impl(&[], &trivial, None, Some(&mut alpha))?;
    let mut acc = best.bounds.clone();
    fn score(a: &PhasedAnalysis) -> (usize, f64) {
        (
            a.unstable.len(),
            a.unstable.iter().map(|&(_, w)| w).sum::<f64>(),
        )
    }
    let mut best_score = score(&best);
    for _ in 0..iters {
        let mut improved = false;
        let coords: Vec<usize> = best.unstable.iter().map(|&(f, _)| f).collect();
        for f in coords {
            let old = alpha[f];
            alpha[f] = if old >= 0.5 { 0.0 } else { 1.0 };
            let cand = analyzer.analyze_impl(&[], &trivial, Some(&alpha), None)?;
            intersect_bounds(&mut acc, &cand.bounds);
            let s = score(&cand);
            if s.0 < best_score.0 || (s.0 == best_score.0 && s.1 < best_score.1 - 1e-12) {
                best_score = s;
                best = cand;
                improved = true;
            } else {
                alpha[f] = old;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_box(n: usize) -> Vec<Interval> {
        vec![Interval::new(-1.0, 1.0); n]
    }

    /// Samples inputs in the box and asserts all traces are inside bounds.
    fn assert_sound(net: &Network, input_box: &[Interval], nb: &NetworkBounds, samples: usize) {
        let mut rng = StdRng::seed_from_u64(12345);
        for _ in 0..samples {
            let x: Vector = input_box
                .iter()
                .map(|iv| rng.gen_range(iv.lo()..=iv.hi()))
                .collect();
            let trace = net.forward_trace(&x).unwrap();
            for (l, (z, a)) in trace
                .pre_activations
                .iter()
                .zip(&trace.activations)
                .enumerate()
            {
                for j in 0..z.len() {
                    assert!(
                        nb.pre[l][j].widened(1e-9).contains(z[j]),
                        "pre[{l}][{j}] = {} outside {}",
                        z[j],
                        nb.pre[l][j]
                    );
                    assert!(
                        nb.post[l][j].widened(1e-9).contains(a[j]),
                        "post[{l}][{j}] = {} outside {}",
                        a[j],
                        nb.post[l][j]
                    );
                }
            }
        }
    }

    #[test]
    fn interval_bounds_sound_on_random_networks() {
        for seed in 0..5 {
            let net = Network::relu_mlp(4, &[8, 8], 3, seed).unwrap();
            let ib = unit_box(4);
            let nb = interval_bounds(&net, &ib).unwrap();
            assert_sound(&net, &ib, &nb, 100);
        }
    }

    #[test]
    fn symbolic_bounds_sound_on_random_networks() {
        for seed in 0..5 {
            let net = Network::relu_mlp(4, &[8, 8], 3, seed).unwrap();
            let ib = unit_box(4);
            let nb = symbolic_bounds(&net, &ib).unwrap();
            assert_sound(&net, &ib, &nb, 100);
        }
    }

    #[test]
    fn symbolic_never_looser_than_interval() {
        for seed in 0..5 {
            let net = Network::relu_mlp(6, &[10, 10, 10], 2, seed + 50).unwrap();
            let ib = unit_box(6);
            let ibp = interval_bounds(&net, &ib).unwrap();
            let sym = symbolic_bounds(&net, &ib).unwrap();
            assert!(
                sym.total_pre_width() <= ibp.total_pre_width() + 1e-9,
                "symbolic {} vs interval {}",
                sym.total_pre_width(),
                ibp.total_pre_width()
            );
        }
    }

    #[test]
    fn symbolic_strictly_tighter_on_deep_network() {
        // On a narrow (local-robustness style) box, IBP's dependency loss
        // compounds across layers; symbolic bounds must win by a clear
        // margin. (On very wide boxes nearly every neuron is unstable with
        // a slope near 1, and the two methods converge.)
        let net = Network::relu_mlp(4, &[16, 16, 16, 16], 1, 3).unwrap();
        let ib = vec![Interval::new(0.2, 0.4); 4];
        let ibp = interval_bounds(&net, &ib).unwrap();
        let sym = symbolic_bounds(&net, &ib).unwrap();
        assert!(
            sym.total_pre_width() < 0.5 * ibp.total_pre_width(),
            "symbolic {} not clearly tighter than interval {}",
            sym.total_pre_width(),
            ibp.total_pre_width()
        );
    }

    #[test]
    fn exact_on_pure_affine_network() {
        // Identity activations: both analyses are exact and equal.
        use certnn_nn::layer::DenseLayer;
        let l = DenseLayer::new(
            Matrix::from_rows(&[&[2.0, -1.0]]).unwrap(),
            Vector::from(vec![0.5]),
            Activation::Identity,
        )
        .unwrap();
        let net = Network::new(vec![l]).unwrap();
        let ib = vec![Interval::new(0.0, 1.0), Interval::new(-2.0, 2.0)];
        let nb_i = interval_bounds(&net, &ib).unwrap();
        let nb_s = symbolic_bounds(&net, &ib).unwrap();
        // z = 2x0 - x1 + 0.5 over the box: [0-2+0.5, 2+2+0.5] = [-1.5, 4.5].
        assert!((nb_i.pre[0][0].lo() + 1.5).abs() < 1e-12);
        assert!((nb_i.pre[0][0].hi() - 4.5).abs() < 1e-12);
        assert_eq!(nb_i.pre[0][0], nb_s.pre[0][0]);
    }

    #[test]
    fn stable_neuron_counting() {
        use certnn_nn::layer::DenseLayer;
        // One neuron always active (bias 10), one always off (bias -10),
        // one unstable (bias 0).
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap(),
            Vector::from(vec![10.0, -10.0, 0.0]),
            Activation::Relu,
        )
        .unwrap();
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap(),
            Vector::zeros(1),
            Activation::Identity,
        )
        .unwrap();
        let net = Network::new(vec![l1, l2]).unwrap();
        let nb = interval_bounds(&net, &unit_box(1)).unwrap();
        assert_eq!(nb.count_unstable(&net), 1);
    }

    #[test]
    fn wrong_box_width_rejected() {
        let net = Network::relu_mlp(4, &[4], 1, 0).unwrap();
        assert!(matches!(
            interval_bounds(&net, &unit_box(3)),
            Err(VerifyError::SpecMismatch { .. })
        ));
        assert!(symbolic_bounds(&net, &unit_box(5)).is_err());
    }

    #[test]
    fn tanh_rejected_by_symbolic_allowed_by_interval() {
        use certnn_nn::layer::DenseLayer;
        let l = DenseLayer::new(
            Matrix::identity(2),
            Vector::zeros(2),
            Activation::Tanh,
        )
        .unwrap();
        let net = Network::new(vec![l]).unwrap();
        assert!(interval_bounds(&net, &unit_box(2)).is_ok());
        assert!(matches!(
            symbolic_bounds(&net, &unit_box(2)),
            Err(VerifyError::NotPiecewiseLinear { layer: 0 })
        ));
    }

    #[test]
    fn output_bounds_accessor() {
        let net = Network::relu_mlp(3, &[5], 2, 1).unwrap();
        let nb = interval_bounds(&net, &unit_box(3)).unwrap();
        assert_eq!(nb.output_bounds().len(), 2);
    }

    // --- phase-aware analysis ---

    use certnn_nn::layer::DenseLayer;

    /// f(x) = relu(x): one unstable neuron over [-1, 1].
    fn single_relu() -> Network {
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Vector::zeros(1),
            Activation::Relu,
        )
        .unwrap();
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Vector::zeros(1),
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![l1, l2]).unwrap()
    }

    #[test]
    fn phase_free_analysis_matches_symbolic_bounds() {
        let net = Network::relu_mlp(3, &[6, 6], 2, 4).unwrap();
        let ib = unit_box(3);
        let sym = symbolic_bounds(&net, &ib).unwrap();
        let obj = LinearObjective::output(0);
        let an = analyze_with_phases(&net, &ib, &[], &obj).unwrap();
        assert_eq!(an.bounds, sym);
        assert!(!an.conflict);
        assert_eq!(an.unstable.len(), an.bounds.count_unstable(&net));
    }

    #[test]
    fn reused_analyzer_matches_fresh_calls() {
        // The buffer-reusing analyzer must be bit-identical to the
        // allocate-per-call path across an interleaved sequence of
        // phase-free and phase-forced queries.
        let net = Network::relu_mlp(3, &[7, 5], 2, 21).unwrap();
        let ib = unit_box(3);
        let obj = LinearObjective::output(1);
        let n = net.num_relu_neurons();
        let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
        let mut phase_sets: Vec<Vec<Option<bool>>> = vec![Vec::new(), vec![None; n]];
        for flat in 0..n.min(4) {
            let mut p = vec![None; n];
            p[flat] = Some(flat % 2 == 0);
            phase_sets.push(p);
        }
        // Interleave and repeat so stale buffer contents would surface.
        for phases in phase_sets.iter().chain(phase_sets.iter().rev()) {
            let reused = analyzer.analyze(phases, &obj).unwrap();
            let fresh = analyze_with_phases(&net, &ib, phases, &obj).unwrap();
            assert_eq!(reused.bounds, fresh.bounds);
            assert_eq!(reused.objective_upper, fresh.objective_upper);
            assert_eq!(reused.maximizer, fresh.maximizer);
            assert_eq!(reused.conflict, fresh.conflict);
            assert_eq!(reused.unstable, fresh.unstable);
        }
    }

    #[test]
    fn objective_upper_dominates_true_maximum() {
        let net = Network::relu_mlp(3, &[8, 8], 1, 13).unwrap();
        let ib = unit_box(3);
        let obj = LinearObjective::output(0);
        let an = analyze_with_phases(&net, &ib, &[], &obj).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let x: Vector = (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let v = net.forward(&x).unwrap()[0];
            assert!(v <= an.objective_upper + 1e-9);
        }
        // The maximizer is a genuine point in the box.
        assert!(an.maximizer.iter().all(|&x| (-1.0..=1.0).contains(&x)));
        let achieved = net.forward(&an.maximizer).unwrap()[0];
        assert!(achieved <= an.objective_upper + 1e-9);
    }

    #[test]
    fn forcing_phases_resolves_single_relu_exactly() {
        let net = single_relu();
        let ib = unit_box(1);
        let obj = LinearObjective::output(0);
        // Active branch: y = z over [0, 1] -> upper 1.
        let active = analyze_with_phases(&net, &ib, &[Some(true)], &obj).unwrap();
        assert!(!active.conflict);
        assert!((active.objective_upper - 1.0).abs() < 1e-9);
        assert!(active.unstable.is_empty());
        // Inactive branch: y = 0 -> upper 0.
        let inactive = analyze_with_phases(&net, &ib, &[Some(false)], &obj).unwrap();
        assert!(!inactive.conflict);
        assert!(inactive.objective_upper.abs() < 1e-9);
    }

    #[test]
    fn branch_bounds_cover_their_phase_regions() {
        // Soundness of phase forcing: every sampled input whose true
        // phase for the branched neuron is `p` must score below the
        // bound of the branch `p` — this is the invariant neuron
        // branch-and-bound relies on.
        for seed in [77u64, 78, 79] {
            let net = Network::relu_mlp(3, &[6, 6], 1, seed).unwrap();
            let ib = unit_box(3);
            let obj = LinearObjective::output(0);
            let relaxed = analyze_with_phases(&net, &ib, &[], &obj).unwrap();
            if relaxed.unstable.is_empty() {
                continue;
            }
            let flat = relaxed.unstable[0].0;
            let mut bounds = [0.0f64; 2];
            let mut phases = vec![None; net.num_relu_neurons()];
            for (k, val) in [false, true].into_iter().enumerate() {
                phases[flat] = Some(val);
                bounds[k] = analyze_with_phases(&net, &ib, &phases, &obj)
                    .unwrap()
                    .objective_upper;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..300 {
                let x: Vector = (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
                let trace = net.forward_trace(&x).unwrap();
                let sig = {
                    // Flat layer-major ReLU index `flat` within the trace.
                    let mut idx = flat;
                    let mut found = f64::NAN;
                    for (layer, z) in net.layers().iter().zip(&trace.pre_activations) {
                        if layer.activation() != Activation::Relu {
                            continue;
                        }
                        if idx < z.len() {
                            found = z[idx];
                            break;
                        }
                        idx -= z.len();
                    }
                    found
                };
                let region = usize::from(sig > 0.0);
                let v = trace.output()[0];
                assert!(
                    v <= bounds[region] + 1e-7,
                    "seed {seed}: value {v} exceeds branch-{region} bound {}",
                    bounds[region]
                );
            }
        }
    }

    #[test]
    fn impossible_phase_is_a_conflict() {
        use certnn_nn::layer::DenseLayer;
        // Neuron pre-activation is always >= 9 on the box; forcing it
        // inactive is contradictory.
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Vector::from(vec![10.0]),
            Activation::Relu,
        )
        .unwrap();
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Vector::zeros(1),
            Activation::Identity,
        )
        .unwrap();
        let net = Network::new(vec![l1, l2]).unwrap();
        let obj = LinearObjective::output(0);
        let an = analyze_with_phases(&net, &unit_box(1), &[Some(false)], &obj).unwrap();
        assert!(an.conflict);
        assert_eq!(an.objective_upper, f64::NEG_INFINITY);
    }

    #[test]
    fn short_phase_vector_rejected() {
        let net = Network::relu_mlp(2, &[4], 1, 0).unwrap();
        let obj = LinearObjective::output(0);
        assert!(analyze_with_phases(&net, &unit_box(2), &[None], &obj).is_err());
    }

    // --- α-optimized bounding ---

    use proptest::prelude::*;

    #[test]
    fn analyze_tuned_zero_iters_is_bit_identical_to_analyze() {
        // The `alpha_iters = 0` off switch must reproduce the heuristic
        // path exactly — same bits, no α vector.
        for seed in 0..4 {
            let net = Network::relu_mlp(3, &[7, 6], 2, seed).unwrap();
            let ib = unit_box(3);
            let obj = LinearObjective::output(0);
            let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
            let plain = analyzer.analyze(&[], &obj).unwrap();
            let (tuned, alpha) = analyzer.analyze_tuned(&[], &obj, 0, None).unwrap();
            assert!(alpha.is_none());
            assert_eq!(plain.bounds, tuned.bounds);
            assert_eq!(
                plain.objective_upper.to_bits(),
                tuned.objective_upper.to_bits()
            );
            assert_eq!(plain.unstable, tuned.unstable);
        }
    }

    #[test]
    fn short_alpha_vector_rejected() {
        let net = Network::relu_mlp(2, &[4], 1, 0).unwrap();
        let obj = LinearObjective::output(0);
        let ib = unit_box(2);
        let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
        assert!(analyzer.analyze_with_alpha(&[], &obj, &[0.5]).is_err());
    }

    #[test]
    fn tuned_alpha_never_looser_and_warm_start_adopted() {
        for seed in 0..6 {
            let net = Network::relu_mlp(4, &[10, 10], 1, seed + 200).unwrap();
            let ib = unit_box(4);
            let obj = LinearObjective::output(0);
            let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
            let heuristic = analyzer.analyze(&[], &obj).unwrap();
            let (tuned, alpha) = analyzer.analyze_tuned(&[], &obj, 3, None).unwrap();
            assert!(
                tuned.objective_upper <= heuristic.objective_upper,
                "seed {seed}: tuned {} looser than heuristic {}",
                tuned.objective_upper,
                heuristic.objective_upper
            );
            // Replaying the returned α must reproduce the tuned bound,
            // and feeding it back as a warm start can't end looser.
            let alpha = alpha.expect("iters > 0 returns an alpha vector");
            let replay = analyzer.analyze_with_alpha(&[], &obj, &alpha).unwrap();
            assert_eq!(
                replay.objective_upper.to_bits(),
                tuned.objective_upper.to_bits()
            );
            let (rewarm, _) = analyzer
                .analyze_tuned(&[], &obj, 1, Some(&alpha))
                .unwrap();
            assert!(rewarm.objective_upper <= tuned.objective_upper + 1e-12);
        }
    }

    #[test]
    fn alpha_optimized_bounds_sound_and_never_looser_than_symbolic() {
        for seed in 0..5 {
            let net = Network::relu_mlp(4, &[9, 9], 2, seed + 400).unwrap();
            let ib = unit_box(4);
            let sym = symbolic_bounds(&net, &ib).unwrap();
            let opt = alpha_optimized_bounds(&net, &ib, 3).unwrap();
            assert_sound(&net, &ib, &opt, 100);
            assert!(
                opt.total_pre_width() <= sym.total_pre_width() + 1e-9,
                "seed {seed}: optimized {} vs symbolic {}",
                opt.total_pre_width(),
                sym.total_pre_width()
            );
            // Zero iterations is exactly the symbolic path.
            let off = alpha_optimized_bounds(&net, &ib, 0).unwrap();
            assert_eq!(off, sym);
        }
    }

    #[test]
    fn analyzer_buffers_span_the_widest_layer_not_the_input() {
        let net = Network::relu_mlp(84, &[10, 7], 3, 5).unwrap();
        let ib = unit_box(84);
        let analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
        for sym in [&analyzer.cur, &analyzer.nxt] {
            assert_eq!(sym.lower_a.shape(), (10, 84));
            assert_eq!(sym.upper_a.shape(), (10, 84));
        }
    }

    #[test]
    fn first_layer_bounds_are_the_exact_affine_range() {
        // The first layer's symbolic rows are its weights, so its
        // pre-activation bounds are the exact range of `W·x + b` over
        // the box, with or without forced phases.
        let net = Network::relu_mlp(5, &[6, 4], 1, 31).unwrap();
        let ib: Vec<Interval> = (0..5)
            .map(|i| Interval::new(-0.5 + 0.1 * i as f64, 0.25 + 0.2 * i as f64))
            .collect();
        let (w, b) = (net.layers()[0].weights(), net.layers()[0].bias());
        let mut phases = vec![None; net.num_relu_neurons()];
        phases[7] = Some(true);
        let obj = LinearObjective::output(0);
        for p in [&[][..], &phases[..]] {
            let an = analyze_with_phases(&net, &ib, p, &obj).unwrap();
            for (r, iv) in an.bounds.pre[0].iter().enumerate() {
                let (mut lo, mut hi) = (b[r], b[r]);
                for (&wc, x) in w.row(r).iter().zip(&ib) {
                    lo += if wc >= 0.0 { wc * x.lo() } else { wc * x.hi() };
                    hi += if wc >= 0.0 { wc * x.hi() } else { wc * x.lo() };
                }
                assert_eq!((iv.lo(), iv.hi()), (lo, hi), "row {r}");
            }
        }
    }

    // --- pinned output bits ---

    use crate::sealed::Fnv1a;

    fn absorb_bounds(h: &mut Fnv1a, nb: &NetworkBounds) {
        for layer in nb.pre.iter().chain(&nb.post) {
            h.write_u64(layer.len() as u64);
            for iv in layer {
                h.write_f64(iv.lo());
                h.write_f64(iv.hi());
            }
        }
    }

    fn absorb_analysis(h: &mut Fnv1a, an: &PhasedAnalysis) {
        absorb_bounds(h, &an.bounds);
        h.write_f64(an.objective_upper);
        for &x in an.maximizer.iter() {
            h.write_f64(x);
        }
        h.write_u64(u64::from(an.conflict));
        h.write_u64(an.unstable.len() as u64);
        for &(f, w) in &an.unstable {
            h.write_u64(f as u64);
            h.write_f64(w);
        }
    }

    fn absorb_alpha(h: &mut Fnv1a, alpha: Option<&[f64]>) {
        match alpha {
            None => h.write_u64(u64::MAX),
            Some(a) => {
                h.write_u64(a.len() as u64);
                for &x in a {
                    h.write_f64(x);
                }
            }
        }
    }

    /// First single-neuron phase assignment, forced against a stable
    /// neuron's sign, that the analysis reports as a conflict.
    fn conflicting_phases(
        an: &mut PhaseAnalyzer,
        net: &Network,
        obj: &LinearObjective,
    ) -> Vec<Option<bool>> {
        let n = net.num_relu_neurons();
        let free = an.analyze(&[], obj).unwrap();
        let relu_pre = net
            .layers()
            .iter()
            .zip(&free.bounds.pre)
            .filter(|(l, _)| l.activation() == Activation::Relu)
            .flat_map(|(_, pre)| pre.iter());
        for (flat, iv) in relu_pre.enumerate() {
            let force = if iv.lo() > 1e-9 {
                false
            } else if iv.hi() < -1e-9 {
                true
            } else {
                continue;
            };
            let mut phases = vec![None; n];
            phases[flat] = Some(force);
            if an.analyze(&phases, obj).unwrap().conflict {
                return phases;
            }
        }
        panic!("no stable neuron yields a conflicting assignment");
    }

    /// Hashes every output of every symbolic entry point on `net`.
    fn hash_symbolic_outputs(
        h: &mut Fnv1a,
        net: &Network,
        ib: &[Interval],
        obj: &LinearObjective,
        rng: &mut StdRng,
    ) {
        absorb_bounds(h, &symbolic_bounds(net, ib).unwrap());
        absorb_bounds(h, &alpha_optimized_bounds(net, ib, 1).unwrap());
        let n = net.num_relu_neurons();
        let mut analyzer = PhaseAnalyzer::new(net, ib).unwrap();
        let mut phase_sets: Vec<Vec<Option<bool>>> = vec![Vec::new()];
        if n > 0 {
            let partial = (0..n)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                })
                .collect();
            phase_sets.push(partial);
            phase_sets.push(conflicting_phases(&mut analyzer, net, obj));
        }
        for phases in &phase_sets {
            let alpha: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.25..1.25)).collect();
            let warm: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..2u32))).collect();
            absorb_analysis(h, &analyzer.analyze(phases, obj).unwrap());
            absorb_analysis(
                h,
                &analyzer.analyze_with_alpha(phases, obj, &alpha).unwrap(),
            );
            for w in [None, Some(warm.as_slice())] {
                let (an, a) = analyzer.analyze_tuned(phases, obj, 1, w).unwrap();
                absorb_analysis(h, &an);
                absorb_alpha(h, a.as_deref());
            }
            let (an, a) = analyzer.refine_alpha(phases, obj, &warm, 2).unwrap();
            absorb_analysis(h, &an);
            absorb_alpha(h, Some(&a));
        }
    }

    /// A ReLU layer whose weights hold `0.0` and `-0.0` entries and whose
    /// biases are `-0.0`, feeding a two-output identity layer. On a box
    /// whose lower corners are all `≤ -0.0`, rows 0–2 concretise to a
    /// signed zero, so the sign each zero weight and bias ends up with
    /// shows in the output bits.
    fn signed_zero_net() -> Network {
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[
                &[0.5, 0.0, -0.0, 0.0],
                &[-0.0, -0.0, -0.0, -0.0],
                &[0.0, -0.0, 0.0, -0.0],
                &[-0.0, -0.5, 0.0, -1.0],
                &[1.0, 0.0, -0.0, 0.3],
                &[0.7, -0.2, -0.0, 0.0],
            ])
            .unwrap(),
            Vector::from(vec![-0.0, -0.0, -0.0, -0.0, 2.0, -0.0]),
            Activation::Relu,
        )
        .unwrap();
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[
                &[1.0, -0.0, 0.5, -0.75, 0.25, 0.5],
                &[-0.5, 1.0, 0.0, 0.125, -1.0, -0.0],
            ])
            .unwrap(),
            Vector::from(vec![-0.0, 0.5]),
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![l1, l2]).unwrap()
    }

    #[test]
    fn analysis_bits_are_pinned() {
        // Every symbolic entry point is one kernel; this pins the exact
        // bits it returns so a rewrite of the kernel must reproduce them.
        let mut rng = StdRng::seed_from_u64(0x5eed_b175);
        let mut h = Fnv1a::new();
        let two_outputs = LinearObjective {
            terms: vec![(0, 1.0), (1, -0.5)],
            constant: 0.25,
        };
        let random_box = |rng: &mut StdRng, n: usize| -> Vec<Interval> {
            (0..n)
                .map(|_| {
                    let lo = rng.gen_range(-1.0..0.5);
                    Interval::new(lo, lo + rng.gen_range(0.01..0.2))
                })
                .collect()
        };

        let wide = Network::relu_mlp(84, &[10, 10], 2, 11).unwrap();
        let ib = random_box(&mut rng, 84);
        hash_symbolic_outputs(&mut h, &wide, &ib, &two_outputs, &mut rng);

        let deep = Network::relu_mlp(3, &[6, 6, 6], 1, 12).unwrap();
        let ib = random_box(&mut rng, 3);
        hash_symbolic_outputs(&mut h, &deep, &ib, &LinearObjective::output(0), &mut rng);

        let affine = Network::relu_mlp(5, &[], 2, 13).unwrap();
        let ib = random_box(&mut rng, 5);
        hash_symbolic_outputs(&mut h, &affine, &ib, &two_outputs, &mut rng);

        let ib = vec![
            Interval::new(-0.0, 0.5),
            Interval::new(-0.4, 0.3),
            Interval::new(-0.2, 0.6),
            Interval::new(-0.1, 1.0),
        ];
        hash_symbolic_outputs(&mut h, &signed_zero_net(), &ib, &two_outputs, &mut rng);

        assert_eq!(
            h.finish(),
            0xeeef_bfa9_b66f_771e,
            "symbolic outputs moved: {:#018x}",
            h.finish()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_alpha_bounds_are_sound(
            seed in 0u64..500,
            raw_alpha in prop::collection::vec(-0.5f64..1.5, 32),
        ) {
            // Any α (clamped into [0, 1] internally) must yield bounds
            // that dominate sampled forward passes and an objective
            // bound above every sampled output.
            let net = Network::relu_mlp(3, &[8, 8], 1, seed).unwrap();
            let ib = unit_box(3);
            let obj = LinearObjective::output(0);
            let n = net.num_relu_neurons();
            prop_assume!(raw_alpha.len() >= n);
            let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
            let an = analyzer.analyze_with_alpha(&[], &obj, &raw_alpha[..n]).unwrap();
            assert_sound(&net, &ib, &an.bounds, 60);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..60 {
                let x: Vector = (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
                let v = net.forward(&x).unwrap()[0];
                prop_assert!(
                    v <= an.objective_upper + 1e-9,
                    "output {v} exceeds α-bound {}",
                    an.objective_upper
                );
            }
        }

        #[test]
        fn tuned_never_looser_than_heuristic_under_random_phases(
            seed in 0u64..500,
            flips in prop::collection::vec(0u8..3, 4),
        ) {
            // With a few neurons phase-forced (as B&B nodes do), tuning
            // still never loses to the heuristic and stays sound on the
            // inputs that realise those phases.
            let net = Network::relu_mlp(3, &[6, 6], 1, seed + 1000).unwrap();
            let ib = unit_box(3);
            let obj = LinearObjective::output(0);
            let n = net.num_relu_neurons();
            let mut phases = vec![None; n];
            for (k, f) in flips.iter().enumerate() {
                // 0 = free, 1 = forced inactive, 2 = forced active.
                phases[k * (n / 4).max(1) % n] = match f {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                };
            }
            let mut analyzer = PhaseAnalyzer::new(&net, &ib).unwrap();
            let heuristic = analyzer.analyze(&phases, &obj).unwrap();
            let (tuned, _) = analyzer.analyze_tuned(&phases, &obj, 2, None).unwrap();
            prop_assert!(tuned.objective_upper <= heuristic.objective_upper);
            // A heuristic conflict short-circuits descent, so it must
            // survive; tuning may additionally *discover* conflicts the
            // heuristic missed (tighter α, same sound semantics).
            if heuristic.conflict {
                prop_assert!(tuned.conflict);
            }
        }
    }
}
