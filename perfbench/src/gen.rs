//! Seeded inputs: the predictors every workload queries, and the scenario
//! cells, decision thresholds and request stream drawn from the seed.
//!
//! The predictors are the paper's fleet — `FleetConfig::default` I2×10
//! networks trained from the fleet's own member seeds — so every seed asks
//! about the same functions. Trained networks differ up to 6× in how hard
//! the same query is on them; letting the workload seed pick the networks
//! would make that difference, not the program, dominate the spread
//! between runs. The seed instead draws what varies between runs: the
//! scenario cells (sub-boxes of the left-vehicle spec), the thresholds and
//! the request stream.
//!
//! A cell is kept only when the root symbolic bound leaves a set number of
//! ReLUs unstable. That count sets how much search a query needs, so
//! fixing its band per workload fixes the workload's difficulty profile.

use certnn_core::fleet::{fleet_dataset, member_seed, train_member, FleetConfig};
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_linalg::Interval;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::network::Network;
use certnn_verify::attack::{AttackConfig, Falsifier};
use certnn_verify::bounds::PhaseAnalyzer;
use certnn_verify::property::{InputSpec, LinearObjective};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fleet members every workload queries.
pub const FLEET_MEMBERS: usize = 4;

/// Decision thresholds (m/s); includes the paper's 3 m/s.
pub const TAU_GRID: [f64; 15] = [
    0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
];

/// A refuted query's threshold lies at most this share of the set-up
/// falsifier value, so the search meets a witness above it early.
const REFUTE_MARGIN: f64 = 0.75;

/// Cells drawn before a shape counts as unsatisfiable.
const MAX_DRAWS: usize = 5_000;

/// Output layout of the fleet's predictors (one mixture component).
pub fn layout() -> OutputLayout {
    OutputLayout::new(1)
}

/// The property's objectives: each component's lateral-velocity mean.
pub fn objectives() -> Vec<LinearObjective> {
    lateral_mean_objectives(layout())
}

/// The trained fleet and what training it cost.
pub struct Fleet {
    /// Predictors, member order.
    pub nets: Vec<Network>,
    /// Seconds to simulate and sanitize the training data.
    pub dataset_s: f64,
    /// Seconds to train every member.
    pub train_s: f64,
}

/// Simulates the fleet's dataset and trains [`FLEET_MEMBERS`] members.
pub fn train_fleet() -> Result<Fleet, String> {
    let config = FleetConfig::default();
    let t = Instant::now();
    let (data, _) = fleet_dataset(&config).map_err(|e| e.to_string())?;
    let dataset_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let nets = (0..FLEET_MEMBERS)
        .map(|i| train_member(&config, member_seed(i), &data).map(|(net, _)| net))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Fleet {
        nets,
        dataset_s,
        train_s: t.elapsed().as_secs_f64(),
    })
}

/// How a workload's cells are cut.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Width of a cell as a share of each free feature's range.
    pub frac: f64,
    /// Inclusive band of root-unstable ReLUs a cell must show.
    pub unstable: (usize, usize),
}

/// What a query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// The exact maximum.
    Maximum,
    /// "max ≤ τ" with τ below a value the set-up falsifier reached.
    Refuted,
    /// "max ≤ τ" with τ above the root symbolic bound.
    Holds,
}

/// Two in five decision queries are refuted, three hold.
pub fn decision(i: usize) -> Ask {
    if i % 5 == 1 || i % 5 == 3 {
        Ask::Refuted
    } else {
        Ask::Holds
    }
}

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Index into the generator's output.
    pub id: usize,
    /// Fleet member queried.
    pub net: usize,
    /// The scenario cell.
    pub spec: InputSpec,
    /// Decision threshold; `None` asks for the maximum.
    pub tau: Option<f64>,
    /// A value the set-up falsifier reached in the cell: a sound lower
    /// bound on the maximum that answers are checked against.
    pub lower: f64,
}

/// Seeded query generator over a fleet.
pub struct Generator<'a> {
    nets: &'a [Network],
    objective: LinearObjective,
    base: InputSpec,
    rng: StdRng,
    next_id: usize,
}

impl<'a> Generator<'a> {
    /// A generator over `nets` drawing from `seed`.
    pub fn new(nets: &'a [Network], seed: u64) -> Self {
        Self {
            nets,
            objective: objectives().swap_remove(0),
            base: left_vehicle_spec(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// A uniform index below `n`.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Draws the `i`-th query of a set whose cells match `shape`. Queries
    /// go round the fleet members, and each member's queries go round the
    /// unstable-ReLU counts of the band, so every seed asks the same mix
    /// of members and counts; the count alone moves a query's cost 1.8×
    /// across the `maximize` band.
    pub fn query(&mut self, i: usize, shape: Shape, ask: Ask) -> Result<Query, String> {
        let net = i % FLEET_MEMBERS;
        let (lo, hi) = shape.unstable;
        let target = lo + (i / FLEET_MEMBERS) % (hi - lo + 1);
        let network = &self.nets[net];
        for _ in 0..MAX_DRAWS {
            let Some(spec) = self.cell(shape) else {
                continue;
            };
            let root = PhaseAnalyzer::new(network, spec.bounds())
                .and_then(|mut a| a.analyze(&[], &self.objective))
                .map_err(|e| e.to_string())?;
            if root.unstable.len() != target {
                continue;
            }
            let holds_at = TAU_GRID
                .iter()
                .copied()
                .find(|&t| t >= root.objective_upper);
            if ask == Ask::Holds && holds_at.is_none() {
                continue;
            }
            let search = Falsifier::with_config(AttackConfig {
                restarts: 4,
                steps: 20,
                step_frac: 0.12,
                seed: self.rng.gen(),
            });
            let lower = search
                .attack(network, &spec, &self.objective)
                .map_err(|e| e.to_string())?
                .best_value;
            let tau = match ask {
                Ask::Maximum => None,
                Ask::Refuted => {
                    match TAU_GRID.iter().rev().find(|&&t| t <= REFUTE_MARGIN * lower) {
                        Some(&t) => Some(t),
                        None => continue,
                    }
                }
                Ask::Holds => holds_at,
            };
            let id = self.next_id;
            self.next_id += 1;
            return Ok(Query {
                id,
                net,
                spec,
                tau,
                lower,
            });
        }
        Err(format!(
            "no cell of shape {shape:?} with {target} unstable ReLUs found on fleet member {net}"
        ))
    }

    /// A random cell of the left-vehicle spec: every free feature cut to
    /// `shape.frac` of its range at a uniform offset.
    fn cell(&mut self, shape: Shape) -> Option<InputSpec> {
        let rng = &mut self.rng;
        let b: Vec<Interval> = self
            .base
            .bounds()
            .iter()
            .map(|iv| {
                if iv.width() == 0.0 {
                    *iv
                } else {
                    let w = iv.width() * shape.frac;
                    let lo = iv.lo() + rng.gen::<f64>() * (iv.width() - w);
                    Interval::new(lo, lo + w)
                }
            })
            .collect();
        InputSpec::from_box(b).ok()
    }
}

/// Draws `per_member` maximum queries on every fleet member, interleaved
/// by member.
pub fn queries(
    gen: &mut Generator<'_>,
    per_member: usize,
    shape: Shape,
) -> Result<Vec<Query>, String> {
    (0..per_member * FLEET_MEMBERS)
        .map(|i| gen.query(i, shape, Ask::Maximum))
        .collect()
}

/// Requests per client between two synchronisation points.
pub const BLOCK: usize = 6;

/// The serve workload's request stream for two clients.
///
/// It is cut into blocks of [`BLOCK`] requests per client. A block opens
/// with a query both clients send at once after meeting at a barrier
/// (one solves it, the other coalesces onto it), then each client sends
/// one fresh query of its own and four repeats of queries it sent
/// before, in seeded order. Three in four requests are thus answered
/// without a solve.
pub struct Stream {
    /// Distinct queries, indexed by the client sequences.
    pub queries: Vec<Query>,
    /// Per client, the query index of each request in send order.
    pub clients: [Vec<usize>; 2],
}

/// Generates a serve stream of `blocks` blocks.
pub fn stream(gen: &mut Generator<'_>, blocks: usize, shape: Shape) -> Result<Stream, String> {
    let mut queries: Vec<Query> = Vec::new();
    let mut fresh = |gen: &mut Generator<'_>| -> Result<usize, String> {
        let i = queries.len();
        queries.push(gen.query(i, shape, decision(i))?);
        Ok(i)
    };
    let mut clients: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut sent: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..blocks {
        let shared = fresh(gen)?;
        for c in 0..2 {
            let own = fresh(gen)?;
            clients[c].push(shared);
            sent[c].push(shared);
            let own_at = 1 + gen.pick(BLOCK - 1);
            for pos in 1..BLOCK {
                let q = if pos == own_at {
                    sent[c].push(own);
                    own
                } else {
                    sent[c][gen.pick(sent[c].len())]
                };
                clients[c].push(q);
            }
        }
    }
    Ok(Stream { queries, clients })
}
