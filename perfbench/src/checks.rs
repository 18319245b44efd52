//! Answer checks. An answer counts only once it is re-derived from the
//! network itself: a witness must lie in its spec and reproduce its value
//! under a fresh forward pass, a maximum must close its gap, and a verdict
//! must agree with the falsifier value found at set-up.

use certnn_linalg::Vector;
use certnn_nn::network::Network;
use certnn_serve::protocol::JobOutcome;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::MaxResult;
use certnn_verify::MilpStatus;

/// Slack when testing that a witness lies in its spec.
pub const SPEC_TOL: f64 = 1e-6;

/// Relative slack between a reported value and its re-evaluation.
pub const VALUE_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= VALUE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The objective at `witness` by a fresh forward pass, once the witness
/// is known to lie in `spec`.
fn reevaluate(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    witness: &Vector,
) -> Result<f64, String> {
    if witness.len() != spec.num_inputs() {
        return Err(format!(
            "witness has {} features, spec {}",
            witness.len(),
            spec.num_inputs()
        ));
    }
    if !spec.contains(witness, SPEC_TOL) {
        return Err("witness lies outside the spec".into());
    }
    let out = net
        .forward(witness)
        .map_err(|e| format!("forward pass failed: {e}"))?;
    Ok(objective.eval(&out))
}

/// Checks an exact maximum given as its parts and returns its value.
/// `lower` is a value some input was seen to reach, so the maximum may
/// not lie below it.
#[allow(clippy::too_many_arguments)]
fn check_max_parts(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    abs_gap: f64,
    status: MilpStatus,
    upper_bound: f64,
    best: Option<f64>,
    witness: Option<&Vector>,
    lower: f64,
) -> Result<f64, String> {
    if status != MilpStatus::Optimal {
        return Err(format!("not solved exactly ({status})"));
    }
    let (Some(best), Some(witness)) = (best, witness) else {
        return Err("exact maximum without a witness".into());
    };
    let value = reevaluate(net, spec, objective, witness)?;
    if !close(value, best) {
        return Err(format!(
            "witness evaluates to {value}, answer claims {best}"
        ));
    }
    let gap = upper_bound - best;
    if gap.is_nan() || gap > abs_gap + VALUE_TOL * best.abs().max(1.0) {
        return Err(format!(
            "gap {gap} between bound and witness exceeds {abs_gap}"
        ));
    }
    check_lower(upper_bound, lower)?;
    Ok(best)
}

/// How far a proven bound may read below a value an input attains. The
/// verifier's bounds are plain floating-point LP values, not outward
/// rounded; 9.4e-7 below has been seen on a cell whose maximum is 0.092.
pub const BOUND_SLACK: f64 = 1e-5;

/// A proven upper bound on the maximum may not lie below `lower`, a value
/// some input was seen to reach, by more than [`BOUND_SLACK`]. (The
/// witness value itself may: it only has to lie within the optimality
/// gap of the bound.)
pub fn check_lower(upper_bound: f64, lower: f64) -> Result<(), String> {
    if upper_bound + BOUND_SLACK < lower {
        return Err(format!(
            "bound {upper_bound} on the maximum lies below the value {lower} seen at set-up"
        ));
    }
    Ok(())
}

/// Checks an in-process maximisation answer and returns its value.
pub fn check_max(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    abs_gap: f64,
    r: &MaxResult,
    lower: f64,
) -> Result<f64, String> {
    check_max_parts(
        net,
        spec,
        objective,
        abs_gap,
        r.status,
        r.upper_bound,
        r.best_value,
        r.witness.as_ref(),
        lower,
    )
}

/// Checks a maximisation answer that crossed the wire and returns its
/// value.
pub fn check_outcome(
    net: &Network,
    spec: &InputSpec,
    objective: &LinearObjective,
    abs_gap: f64,
    o: &JobOutcome,
    lower: f64,
) -> Result<f64, String> {
    let witness = o.witness.clone().map(Vector::from);
    check_max_parts(
        net,
        spec,
        objective,
        abs_gap,
        o.status,
        o.upper_bound,
        o.best_value,
        witness.as_ref(),
        lower,
    )
}

/// The decision "max ≤ `tau`" an exact outcome implies: `true` holds,
/// `false` violated.
pub fn decide_outcome(o: &JobOutcome, tau: f64) -> Result<bool, String> {
    match o.best_value {
        _ if o.upper_bound <= tau => Ok(true),
        Some(best) if best > tau => Ok(false),
        _ => Err(format!("outcome leaves max ≤ {tau} undecided")),
    }
}

/// `true` when two outcomes agree bit for bit in everything but the
/// cache-hit flag — how a cache hit must relate to the miss behind it.
pub fn same_outcome(a: &JobOutcome, b: &JobOutcome) -> bool {
    let bits = |w: &Option<Vec<f64>>| {
        w.as_ref()
            .map(|w| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    a.key == b.key
        && a.status == b.status
        && a.upper_bound.to_bits() == b.upper_bound.to_bits()
        && a.best_value.map(f64::to_bits) == b.best_value.map(f64::to_bits)
        && bits(&a.witness) == bits(&b.witness)
        && a.stats == b.stats
        && a.degradation == b.degradation
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Interval;
    use certnn_verify::verifier::Verifier;

    const GAP: f64 = 1e-6;

    fn fixture() -> (Network, InputSpec, LinearObjective, MaxResult) {
        let net = Network::relu_mlp(4, &[6, 6], 1, 5).unwrap();
        let spec = InputSpec::from_box(vec![Interval::new(-1.0, 1.0); 4]).unwrap();
        let objective = LinearObjective::output(0);
        let r = Verifier::new().maximize(&net, &spec, &objective).unwrap();
        (net, spec, objective, r)
    }

    #[test]
    fn exact_answers_pass() {
        let (net, spec, obj, r) = fixture();
        let max = check_max(&net, &spec, &obj, GAP, &r, f64::NEG_INFINITY).unwrap();
        let o = JobOutcome::from_max_result(1, &r);
        assert_eq!(check_outcome(&net, &spec, &obj, GAP, &o, max).unwrap(), max);
        assert_eq!(decide_outcome(&o, max + 0.5), Ok(true));
        assert_eq!(decide_outcome(&o, max - 0.5), Ok(false));
    }

    #[test]
    fn perturbed_witness_is_flagged() {
        let (net, spec, obj, r) = fixture();
        let mut moved = r.clone();
        let w = moved.witness.as_mut().unwrap();
        for i in 0..w.len() {
            w[i] *= 0.5;
        }
        assert_ne!(obj.eval(&net.forward(w).unwrap()), r.best_value.unwrap());
        assert!(check_max(&net, &spec, &obj, GAP, &moved, f64::NEG_INFINITY).is_err());

        let mut outside = r.clone();
        outside.witness.as_mut().unwrap()[0] = 1.5;
        assert!(check_max(&net, &spec, &obj, GAP, &outside, f64::NEG_INFINITY).is_err());

        let mut o = JobOutcome::from_max_result(1, &r);
        o.witness.as_mut().unwrap()[1] *= 0.5;
        assert!(check_outcome(&net, &spec, &obj, GAP, &o, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn open_gap_and_inexact_status_are_flagged() {
        let (net, spec, obj, r) = fixture();
        let mut open = r.clone();
        open.upper_bound += 1e-3;
        assert!(check_max(&net, &spec, &obj, GAP, &open, f64::NEG_INFINITY).is_err());
        let mut limited = r.clone();
        limited.status = MilpStatus::NodeLimit;
        assert!(check_max(&net, &spec, &obj, GAP, &limited, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn holds_below_a_known_witness_value_is_flagged() {
        let (net, spec, obj, r) = fixture();
        let max = r.best_value.unwrap();
        // A bound that proves "max ≤ τ" for a τ some input exceeds.
        let mut o = JobOutcome::from_max_result(1, &r);
        o.upper_bound = max - 0.1;
        assert_eq!(decide_outcome(&o, max - 0.05), Ok(true));
        assert!(check_outcome(&net, &spec, &obj, GAP, &o, f64::NEG_INFINITY).is_ok());
        assert!(check_outcome(&net, &spec, &obj, GAP, &o, max).is_err());
        // A maximum below a value an input was seen to reach is wrong too.
        assert!(check_max(&net, &spec, &obj, GAP, &r, max + 0.1).is_err());
    }

    #[test]
    fn violated_needs_a_reproduced_witness_above_the_threshold() {
        let (net, spec, obj, r) = fixture();
        let max = r.best_value.unwrap();
        let o = JobOutcome::from_max_result(1, &r);
        assert_eq!(decide_outcome(&o, max - 0.1), Ok(false));
        let mut open = o.clone();
        open.upper_bound = max + 0.2;
        assert!(decide_outcome(&open, max + 0.1).is_err());
        let mut lying = o;
        lying.best_value = Some(max + 1.0);
        lying.upper_bound = max + 1.0;
        assert_eq!(decide_outcome(&lying, max + 0.5), Ok(false));
        assert!(check_outcome(&net, &spec, &obj, GAP, &lying, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn cache_hit_differing_by_one_bit_is_flagged() {
        let (_, _, _, r) = fixture();
        let miss = JobOutcome::from_max_result(7, &r);
        let mut hit = miss.clone();
        hit.cache_hit = true;
        assert!(same_outcome(&miss, &hit));

        let mut bound = hit.clone();
        bound.upper_bound = f64::from_bits(bound.upper_bound.to_bits() ^ 1);
        assert!(!same_outcome(&miss, &bound));

        let mut witness = hit.clone();
        let w = witness.witness.as_mut().unwrap();
        w[2] = f64::from_bits(w[2].to_bits() ^ 1);
        assert!(!same_outcome(&miss, &witness));

        let mut nodes = hit;
        nodes.stats.nodes += 1;
        assert!(!same_outcome(&miss, &nodes));
    }
}
