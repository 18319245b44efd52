//! Big-M MILP encoding of piecewise-linear networks.
//!
//! Following Cheng et al. (ATVA 2017), each layer's affine map becomes a
//! set of equality rows and each ReLU neuron becomes either
//!
//! * a **linear** constraint when bound propagation proves it stable
//!   (always active: `y = z`; always inactive: `y = 0`), or
//! * the classic **big-M** gadget with one binary `a`:
//!
//!   ```text
//!   y ≥ 0          (variable bound)
//!   y ≥ z
//!   y ≤ z − lo·(1 − a)
//!   y ≤ hi·a
//!   ```
//!
//!   where `[lo, hi]` is the neuron's proven pre-activation interval. At
//!   `a = 1` the gadget forces `y = z` (active); at `a = 0` it forces
//!   `y = 0` and `z ≤ 0` (inactive) — an exact encoding of `y = max(0, z)`.
//!
//! The encoding is *exact*: every feasible MILP point corresponds to a
//! real forward pass, so the MILP optimum is the true network maximum.

use crate::bounds::{alpha_optimized_bounds, interval_bounds, symbolic_bounds, NetworkBounds};
use crate::property::{InputSpec, Relation};
use crate::VerifyError;
use certnn_lp::{RowKind, Sense, VarId};
use certnn_milp::MilpModel;
use certnn_nn::activation::Activation;
use certnn_nn::network::Network;

/// Bound-propagation method used to pre-solve neuron stability and big-M
/// constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundMethod {
    /// Plain interval arithmetic — cheapest, loosest.
    Interval,
    /// DeepPoly/CROWN-style symbolic bounds — tighter, still fast.
    #[default]
    Symbolic,
    /// Symbolic bounds with α-optimized unstable-ReLU lower slopes
    /// ([`alpha_optimized_bounds`]): `iters` rounds of coordinate
    /// descent, intersecting every sound candidate. Tightest; costs
    /// `O(iters · unstable)` extra propagations at encode time.
    /// `iters == 0` is identical to [`BoundMethod::Symbolic`].
    AlphaOptimized {
        /// Coordinate-descent rounds.
        iters: usize,
    },
}

/// Margin added to all propagated bounds before they become big-M
/// constants, absorbing f64 round-off in the propagation itself.
const BOUND_MARGIN: f64 = 1e-6;

/// Per-activation bookkeeping: either a model variable or a constant zero
/// (stable-off neurons need no variable at all).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    Var(VarId),
    Zero,
}

/// Statistics of an encoding — the quantities that predict MILP hardness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodingStats {
    /// Binary variables (= unstable ReLU neurons).
    pub binaries: usize,
    /// Neurons proven always-active.
    pub stable_on: usize,
    /// Neurons proven always-inactive.
    pub stable_off: usize,
    /// Constraint rows.
    pub rows: usize,
}

/// The MILP encoding of a network under an input specification.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The assembled model (maximisation sense, objective unset).
    pub milp: MilpModel,
    /// Variables holding the network inputs, feature order.
    pub input_vars: Vec<VarId>,
    /// Variables holding the network outputs, output order.
    pub output_vars: Vec<VarId>,
    /// Hardness statistics.
    pub stats: EncodingStats,
    /// The bounds used for stability analysis and big-M constants.
    pub bounds: NetworkBounds,
    /// For every ReLU neuron (flat layer-major order): its binary
    /// variable, or `None` if presolve proved the neuron stable. The
    /// neuron branch-and-bound's LP rule pins and branches on these.
    pub relu_binaries: Vec<Option<VarId>>,
    /// Pre-activation variable of every neuron, per layer. The neuron
    /// branch-and-bound tightens these variables' bounds per node.
    pub z_vars: Vec<Vec<VarId>>,
    /// Post-activation variable of every *unstable* ReLU neuron (flat
    /// layer-major order), `None` for stable neurons.
    pub y_vars: Vec<Option<VarId>>,
}

/// Encodes `net` over `spec` using `method` for the presolve bounds.
///
/// # Errors
///
/// Returns [`VerifyError::SpecMismatch`] if the spec width differs from
/// the network inputs, and [`VerifyError::NotPiecewiseLinear`] if a layer
/// activation is not ReLU/identity.
pub fn encode(
    net: &Network,
    spec: &InputSpec,
    method: BoundMethod,
) -> Result<Encoding, VerifyError> {
    if spec.num_inputs() != net.inputs() {
        return Err(VerifyError::SpecMismatch {
            network_inputs: net.inputs(),
            spec_inputs: spec.num_inputs(),
        });
    }
    for (li, layer) in net.layers().iter().enumerate() {
        if !layer.activation().is_piecewise_linear() {
            return Err(VerifyError::NotPiecewiseLinear { layer: li });
        }
    }
    let bounds = match method {
        BoundMethod::Interval => interval_bounds(net, spec.bounds())?,
        BoundMethod::Symbolic => symbolic_bounds(net, spec.bounds())?,
        BoundMethod::AlphaOptimized { iters } => alpha_optimized_bounds(net, spec.bounds(), iters)?,
    };

    let mut milp = MilpModel::new(Sense::Maximize);
    let mut stats = EncodingStats::default();

    // Input variables with the spec's box bounds.
    let input_vars: Vec<VarId> = spec
        .bounds()
        .iter()
        .enumerate()
        .map(|(i, iv)| milp.add_var(&format!("x{i}"), iv.lo(), iv.hi()))
        .collect();

    // Scenario constraints.
    for (ci, c) in spec.constraints().iter().enumerate() {
        let coeffs: Vec<(VarId, f64)> = c
            .terms
            .iter()
            .map(|&(idx, coef)| (input_vars[idx], coef))
            .collect();
        let kind = match c.relation {
            Relation::Le => RowKind::Le,
            Relation::Eq => RowKind::Eq,
            Relation::Ge => RowKind::Ge,
        };
        milp.add_row(&format!("scenario{ci}"), &coeffs, kind, c.rhs)?;
        stats.rows += 1;
    }

    // Layers.
    let mut prev: Vec<Act> = input_vars.iter().map(|&v| Act::Var(v)).collect();
    let mut output_vars: Vec<VarId> = Vec::new();
    let mut relu_binaries: Vec<Option<VarId>> = Vec::new();
    let mut z_vars: Vec<Vec<VarId>> = Vec::new();
    let mut y_vars: Vec<Option<VarId>> = Vec::new();
    for (li, layer) in net.layers().iter().enumerate() {
        let w = layer.weights();
        let b = layer.bias();
        let mut next: Vec<Act> = Vec::with_capacity(layer.outputs());
        let mut layer_z: Vec<VarId> = Vec::with_capacity(layer.outputs());
        for j in 0..layer.outputs() {
            let z_iv = bounds.pre[li][j].widened(BOUND_MARGIN);
            let (z_lo, z_hi) = (z_iv.lo(), z_iv.hi());

            // Pre-activation variable and its defining equality.
            let z = milp.add_var(&format!("z{li}_{j}"), z_lo, z_hi);
            layer_z.push(z);
            let mut row: Vec<(VarId, f64)> = vec![(z, -1.0)];
            for (k, act) in prev.iter().enumerate() {
                if let Act::Var(v) = act {
                    let coef = w[(j, k)];
                    if coef != 0.0 {
                        row.push((*v, coef));
                    }
                }
            }
            milp.add_row(&format!("def_z{li}_{j}"), &row, RowKind::Eq, -b[j])?;
            stats.rows += 1;

            match layer.activation() {
                Activation::Identity => next.push(Act::Var(z)),
                Activation::Relu => {
                    if z_hi <= 0.0 {
                        stats.stable_off += 1;
                        relu_binaries.push(None);
                        y_vars.push(None);
                        next.push(Act::Zero);
                    } else if z_lo >= 0.0 {
                        stats.stable_on += 1;
                        relu_binaries.push(None);
                        y_vars.push(None);
                        next.push(Act::Var(z));
                    } else {
                        stats.binaries += 1;
                        let y = milp.add_var(&format!("y{li}_{j}"), 0.0, z_hi);
                        let a = milp.add_binary(&format!("a{li}_{j}"));
                        relu_binaries.push(Some(a));
                        y_vars.push(Some(y));
                        // y ≥ z.
                        milp.add_row(
                            &format!("relu_ge{li}_{j}"),
                            &[(y, 1.0), (z, -1.0)],
                            RowKind::Ge,
                            0.0,
                        )?;
                        // y ≤ z − lo·(1 − a)  ⇔  y − z − lo·a ≤ −lo.
                        milp.add_row(
                            &format!("relu_le1_{li}_{j}"),
                            &[(y, 1.0), (z, -1.0), (a, -z_lo)],
                            RowKind::Le,
                            -z_lo,
                        )?;
                        // y ≤ hi·a.
                        milp.add_row(
                            &format!("relu_le2_{li}_{j}"),
                            &[(y, 1.0), (a, -z_hi)],
                            RowKind::Le,
                            0.0,
                        )?;
                        stats.rows += 3;
                        next.push(Act::Var(y));
                    }
                }
                Activation::Tanh => unreachable!("checked above"),
            }
        }
        z_vars.push(layer_z);
        if li == net.layers().len() - 1 {
            // Materialise constant-zero outputs as fixed variables so the
            // objective can always reference a VarId.
            output_vars = next
                .iter()
                .enumerate()
                .map(|(j, act)| match act {
                    Act::Var(v) => *v,
                    Act::Zero => milp.add_var(&format!("out_zero{j}"), 0.0, 0.0),
                })
                .collect();
        }
        prev = next;
    }

    Ok(Encoding {
        milp,
        input_vars,
        output_vars,
        stats,
        bounds,
        relu_binaries,
        z_vars,
        y_vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::{Interval, Matrix, Vector};
    use certnn_milp::{BranchAndBound, MilpStatus};
    use certnn_nn::layer::DenseLayer;

    fn relu_net_1d() -> Network {
        // y = relu(x): 1 -> 1 relu -> identity passthrough.
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
    fn relu_max_is_exact() {
        let net = relu_net_1d();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 2.0)]).unwrap();
        let enc = encode(&net, &spec, BoundMethod::Symbolic).unwrap();
        assert_eq!(enc.stats.binaries, 1);
        let mut m = enc.milp.clone();
        m.set_objective(&[(enc.output_vars[0], 1.0)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn relu_min_is_zero() {
        let net = relu_net_1d();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 2.0)]).unwrap();
        let enc = encode(&net, &spec, BoundMethod::Interval).unwrap();
        let mut m = enc.milp.clone();
        // Minimise by maximising the negation.
        m.set_objective(&[(enc.output_vars[0], -1.0)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.objective.unwrap().abs() < 1e-5, "{:?}", sol.objective);
    }

    #[test]
    fn stable_neurons_use_no_binaries() {
        // Bias +10 keeps the neuron active across the whole box.
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
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0)]).unwrap();
        let enc = encode(&net, &spec, BoundMethod::Interval).unwrap();
        assert_eq!(enc.stats.binaries, 0);
        assert_eq!(enc.stats.stable_on, 1);
        assert_eq!(enc.milp.num_integers(), 0);
    }

    #[test]
    fn stable_off_neurons_become_constant_zero() {
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Vector::from(vec![-10.0]),
            Activation::Relu,
        )
        .unwrap();
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[&[3.0]]).unwrap(),
            Vector::from(vec![0.25]),
            Activation::Identity,
        )
        .unwrap();
        let net = Network::new(vec![l1, l2]).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0)]).unwrap();
        let enc = encode(&net, &spec, BoundMethod::Interval).unwrap();
        assert_eq!(enc.stats.stable_off, 1);
        let mut m = enc.milp.clone();
        m.set_objective(&[(enc.output_vars[0], 1.0)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        // Output is constant 0.25 (zero activation × 3 + bias).
        assert!((sol.objective.unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn scenario_constraints_enter_the_model() {
        use crate::property::LinearConstraint;
        let net = relu_net_1d();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 2.0)])
            .unwrap()
            .constrain(LinearConstraint {
                terms: vec![(0, 1.0)],
                relation: Relation::Le,
                rhs: 0.5,
            });
        let enc = encode(&net, &spec, BoundMethod::Symbolic).unwrap();
        let mut m = enc.milp.clone();
        m.set_objective(&[(enc.output_vars[0], 1.0)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert!((sol.objective.unwrap() - 0.5).abs() < 1e-5);
    }

    #[test]
    fn spec_width_must_match() {
        let net = relu_net_1d();
        let spec = InputSpec::from_box(vec![Interval::new(0.0, 1.0); 3]).unwrap();
        assert!(matches!(
            encode(&net, &spec, BoundMethod::Interval),
            Err(VerifyError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn tanh_network_rejected() {
        let l = DenseLayer::new(
            Matrix::identity(1),
            Vector::zeros(1),
            Activation::Tanh,
        )
        .unwrap();
        let net = Network::new(vec![l]).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(0.0, 1.0)]).unwrap();
        assert!(matches!(
            encode(&net, &spec, BoundMethod::Interval),
            Err(VerifyError::NotPiecewiseLinear { layer: 0 })
        ));
    }

    #[test]
    fn interval_and_symbolic_presolve_agree_on_the_optimum() {
        let net = Network::relu_mlp(3, &[6, 6], 1, 9).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).unwrap();
        let solve = |method| {
            let enc = encode(&net, &spec, method).unwrap();
            let mut m = enc.milp.clone();
            m.set_objective(&[(enc.output_vars[0], 1.0)]);
            BranchAndBound::new().solve(&m).unwrap()
        };
        let a = solve(BoundMethod::Interval);
        let b = solve(BoundMethod::Symbolic);
        assert!(a.status == MilpStatus::Optimal && b.status == MilpStatus::Optimal);
        assert!(
            (a.objective.unwrap() - b.objective.unwrap()).abs() < 1e-5,
            "interval {:?} vs symbolic {:?}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn feasible_milp_points_decode_to_real_forward_passes() {
        // Solve for the max, then replay the witness through the network:
        // the encoded output variables must equal the real outputs.
        let net = Network::relu_mlp(3, &[6, 6], 2, 77).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 3]).unwrap();
        let enc = encode(&net, &spec, BoundMethod::Symbolic).unwrap();
        let mut m = enc.milp.clone();
        m.set_objective(&[(enc.output_vars[0], 1.0), (enc.output_vars[1], 0.5)]);
        let sol = BranchAndBound::new().solve(&m).unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        let x = sol.x.unwrap();
        let input: Vector = enc.input_vars.iter().map(|v| x[v.index()]).collect();
        let real = net.forward(&input).unwrap();
        for (o, &var) in enc.output_vars.iter().enumerate() {
            assert!(
                (real[o] - x[var.index()]).abs() < 1e-5,
                "output {o}: encoded {} vs real {}",
                x[var.index()],
                real[o]
            );
        }
    }
}
