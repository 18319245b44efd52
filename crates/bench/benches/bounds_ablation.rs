//! Presolve ablation: interval vs symbolic bounds, and their effect on
//! the MILP solve (experiment A4 of DESIGN.md).

use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_milp::BranchAndBound;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::network::Network;
use certnn_sim::features::FEATURE_COUNT;
use certnn_verify::bounds::{interval_bounds, symbolic_bounds};
use certnn_verify::encoder::{encode, BoundMethod};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_bound_propagation(c: &mut Criterion) {
    let net = Network::relu_mlp(FEATURE_COUNT, &[20, 20, 20, 20], 10, 7)
        .expect("valid architecture");
    let spec = left_vehicle_spec();
    let mut group = c.benchmark_group("bound_propagation");
    group.bench_function("interval", |b| {
        b.iter(|| interval_bounds(&net, spec.bounds()).expect("bounds"))
    });
    group.bench_function("symbolic", |b| {
        b.iter(|| symbolic_bounds(&net, spec.bounds()).expect("bounds"))
    });
    group.finish();
}

fn bench_presolve_effect_on_milp(c: &mut Criterion) {
    let layout = OutputLayout::new(1);
    let net = Network::relu_mlp(FEATURE_COUNT, &[8, 8], layout.output_len(), 7)
        .expect("valid architecture");
    let spec = left_vehicle_spec();
    let objectives = lateral_mean_objectives(layout);
    let mut group = c.benchmark_group("milp_with_presolve");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(30));
    for (name, method) in [
        ("interval", BoundMethod::Interval),
        ("symbolic", BoundMethod::Symbolic),
    ] {
        // Encode and solve directly with the cold reference
        // branch-and-bound: the point is the effect of presolve tightness
        // on the paper's own big-M MILP.
        group.bench_function(name, |b| {
            b.iter(|| {
                for obj in &objectives {
                    let enc = encode(&net, &spec, method).expect("encoding");
                    let mut milp = enc.milp.clone();
                    let terms: Vec<_> = obj
                        .terms
                        .iter()
                        .map(|&(o, c)| (enc.output_vars[o], c))
                        .collect();
                    milp.set_objective(&terms);
                    BranchAndBound::new().solve(&milp).expect("verification");
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bound_propagation, bench_presolve_effect_on_milp);
criterion_main!(benches);
