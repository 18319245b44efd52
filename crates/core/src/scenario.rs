//! The case-study safety property ("vehicle on the left").
//!
//! Formalises the paper's requirement: *"if there is a vehicle in the
//! left of the ego vehicle, the predictor never suggests a large left
//! velocity"*, instantiated on the 84-feature layout of `certnn-sim` and
//! the Gaussian-mixture output layout of `certnn-nn`.

use certnn_nn::gmm::{ActionDim, OutputLayout};
use certnn_nn::network::Network;
use certnn_sim::features::{
    slot_index, FeatureExtractor, Orientation, SlotFeature, ROAD_BASE,
};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{MaxResult, Verdict, Verifier, VerifyStats};
use certnn_verify::VerifyError;

/// Builds the admissible input set of the property: the physical feature
/// box with the scenario pinned to *a vehicle is abreast on the left*
/// (and the road block fixed to the motorway the data comes from).
pub fn left_vehicle_spec() -> InputSpec {
    let spec = InputSpec::from_box(FeatureExtractor::bounds())
        .expect("feature box is nonempty");
    let present = slot_index(Orientation::SideLeft, SlotFeature::Present);
    let dx = slot_index(Orientation::SideLeft, SlotFeature::Dx);
    spec
        // The scenario guard: someone is abreast on the left…
        .fix(present, 1.0)
        // …within the ±12 m side window (dx is normalised by 100 m).
        .restrict(dx, -0.12, 0.12)
        // A left lane must exist for the guard to be meaningful.
        .fix(ROAD_BASE + 5, 1.0)
        // The concrete motorway of the case study (3 lanes, 3.5 m lanes,
        // dry, 33 m/s limit), matching the training distribution.
        .fix(ROAD_BASE, 3.0 / 5.0)
        .fix(ROAD_BASE + 1, 3.5 / 5.0)
        .fix(ROAD_BASE + 2, 1.0)
        .fix(ROAD_BASE + 3, 33.0 / 50.0)
}

/// The objectives of the property: one per mixture component, each
/// selecting that component's lateral-velocity *mean* output neuron.
pub fn lateral_mean_objectives(layout: OutputLayout) -> Vec<LinearObjective> {
    (0..layout.components())
        .map(|k| LinearObjective::output(layout.mean(k, ActionDim::LateralVelocity)))
        .collect()
}

/// Result of the Table II optimisation query on one network: the maximum
/// lateral-velocity mean over the scenario, with per-component detail.
#[derive(Debug, Clone)]
pub struct LateralVelocityResult {
    /// Per-component maximisation results.
    pub per_component: Vec<MaxResult>,
    /// The overall maximum (max over components), if every component
    /// query closed.
    pub max_lateral: Option<f64>,
    /// Aggregated statistics (merged over component queries).
    pub stats: VerifyStats,
}

impl LateralVelocityResult {
    /// `true` if every component query was solved to optimality.
    pub fn is_exact(&self) -> bool {
        self.per_component.iter().all(MaxResult::is_exact)
    }
}

/// Computes the paper's "maximum lateral velocity, when exists a vehicle
/// in the left" for `net` (Table II rows 1–6).
///
/// # Errors
///
/// Returns [`VerifyError`] if the network does not match the spec or the
/// mixture layout.
pub fn max_lateral_velocity(
    verifier: &Verifier,
    net: &Network,
    layout: OutputLayout,
    spec: &InputSpec,
) -> Result<LateralVelocityResult, VerifyError> {
    let mut per_component = Vec::new();
    let mut stats = VerifyStats::default();
    for obj in lateral_mean_objectives(layout) {
        let r = verifier.maximize(net, spec, &obj)?;
        stats.merge(&r.stats);
        per_component.push(r);
    }
    let max_lateral = per_component
        .iter()
        .map(|r| r.exact_max())
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.into_iter().fold(f64::NEG_INFINITY, f64::max));
    Ok(LateralVelocityResult {
        per_component,
        max_lateral,
        stats,
    })
}

/// Decides the paper's decision query (Table II last row): *prove that
/// the lateral velocity can never be larger than `threshold`* — every
/// component's mean must stay below it.
///
/// # Errors
///
/// Returns [`VerifyError`] if the network does not match the spec or the
/// mixture layout.
pub fn prove_lateral_below(
    verifier: &Verifier,
    net: &Network,
    layout: OutputLayout,
    spec: &InputSpec,
    threshold: f64,
) -> Result<(Verdict, VerifyStats), VerifyError> {
    let mut stats = VerifyStats::default();
    let mut worst_hold_bound = f64::NEG_INFINITY;
    for obj in lateral_mean_objectives(layout) {
        let (verdict, s) = verifier.prove_below(net, spec, &obj, threshold)?;
        stats.merge(&s);
        match verdict {
            Verdict::Holds { bound } => worst_hold_bound = worst_hold_bound.max(bound),
            other => return Ok((other, stats)),
        }
    }
    Ok((
        Verdict::Holds {
            bound: worst_hold_bound,
        },
        stats,
    ))
}

/// Human-readable description of a verification witness: lists the
/// features that materially deviate from the scenario box's midpoint,
/// resolved to their physical names — the form a certification reviewer
/// needs a counterexample in.
pub fn describe_witness(witness: &certnn_linalg::Vector, top: usize) -> String {
    let names = FeatureExtractor::names();
    let spec = left_vehicle_spec();
    let mut deviations: Vec<(usize, f64)> = spec
        .bounds()
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.width() > 0.0)
        .map(|(i, iv)| {
            let normalized = (witness[i] - iv.midpoint()).abs() / (0.5 * iv.width());
            (i, normalized)
        })
        .collect();
    deviations.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite deviations"));
    let mut s = String::from("counterexample (most extreme scenario features first):\n");
    for &(i, dev) in deviations.iter().take(top) {
        s.push_str(&format!(
            "  {:<24} = {:+.3}  ({:.0}% towards its bound)\n",
            names[i],
            witness[i],
            100.0 * dev.min(1.0)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use certnn_linalg::Vector;
    use certnn_sim::features::FEATURE_COUNT;

    #[test]
    fn spec_pins_the_scenario_features() {
        let spec = left_vehicle_spec();
        assert_eq!(spec.num_inputs(), FEATURE_COUNT);
        let present = slot_index(Orientation::SideLeft, SlotFeature::Present);
        assert_eq!(spec.bounds()[present].lo(), 1.0);
        assert_eq!(spec.bounds()[present].hi(), 1.0);
        let dx = slot_index(Orientation::SideLeft, SlotFeature::Dx);
        assert_eq!(spec.bounds()[dx].lo(), -0.12);
        assert_eq!(spec.bounds()[dx].hi(), 0.12);
    }

    #[test]
    fn spec_rejects_points_without_left_vehicle() {
        let spec = left_vehicle_spec();
        let mut x = Vector::zeros(FEATURE_COUNT);
        assert!(!spec.contains(&x, 1e-9));
        x[slot_index(Orientation::SideLeft, SlotFeature::Present)] = 1.0;
        x[ROAD_BASE + 5] = 1.0;
        x[ROAD_BASE] = 3.0 / 5.0;
        x[ROAD_BASE + 1] = 3.5 / 5.0;
        x[ROAD_BASE + 2] = 1.0;
        x[ROAD_BASE + 3] = 33.0 / 50.0;
        assert!(spec.contains(&x, 1e-9));
    }

    #[test]
    fn objectives_select_lateral_mean_neurons() {
        let layout = OutputLayout::new(3);
        let objs = lateral_mean_objectives(layout);
        assert_eq!(objs.len(), 3);
        let expected = layout.lateral_mean_indices();
        for (obj, idx) in objs.iter().zip(expected) {
            assert_eq!(obj.terms, vec![(idx, 1.0)]);
        }
    }

    #[test]
    fn witness_description_names_extreme_features() {
        let spec = left_vehicle_spec();
        let mut w: Vector = spec.bounds().iter().map(|iv| iv.midpoint()).collect();
        // Push one free feature to its bound.
        let idx = spec
            .bounds()
            .iter()
            .position(|iv| iv.width() > 0.0)
            .expect("has free features");
        w[idx] = spec.bounds()[idx].hi();
        let text = describe_witness(&w, 3);
        let names = FeatureExtractor::names();
        assert!(text.contains(&names[idx]));
        assert!(text.contains("100%"));
    }

    #[test]
    fn max_lateral_velocity_runs_on_a_small_predictor() {
        // Tiny untrained predictor: the point is the plumbing, not the value.
        let layout = OutputLayout::new(1);
        let net = Network::relu_mlp(FEATURE_COUNT, &[6], layout.output_len(), 4).unwrap();
        let spec = left_vehicle_spec();
        let verifier = Verifier::new();
        let result = max_lateral_velocity(&verifier, &net, layout, &spec).unwrap();
        assert!(result.is_exact());
        let max = result.max_lateral.unwrap();
        // The witness is a genuine scenario input.
        let w = result.per_component[0].witness.as_ref().unwrap();
        assert!(spec.contains(w, 1e-6));
        // Consistency with the decision query.
        let (verdict, _) =
            prove_lateral_below(&verifier, &net, layout, &spec, max + 0.5).unwrap();
        assert!(verdict.holds());
        let (verdict, _) =
            prove_lateral_below(&verifier, &net, layout, &spec, max - 0.1).unwrap();
        assert!(!verdict.holds());
    }
}
