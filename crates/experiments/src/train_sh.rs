//! Safety-hijacker training pipeline (§IV-B).
//!
//! "To collect training data, we ran several simulations, where each
//! simulation had a predefined δ_inject and a k, i.e., an attack started as
//! soon as δt = δ_inject, and continued for k consecutive time-steps. The
//! dataset characterized the ADS's responses to attacks." — this module is
//! exactly that: a (δ_inject × k × seed) sweep with the
//! [`AttackerSpec::AtDelta`] attacker, labeled with the ground-truth safety
//! potential at the attack's end, followed by Adam training of the paper's
//! 100/100/50 network with a 60/40 train/validation split.

use crate::campaign::{default_threads, run_sweep};
use crate::horizon::Horizon;
use crate::runner::{AttackerSpec, RunOutcome};
use crate::session::SimSession;
use av_neural::mlp::Mlp;
use av_neural::train::{mse, train, Dataset, Normalizer, TrainConfig};
use av_simkit::scenario::ScenarioId;
use av_telemetry::Telemetry;
use rand::SeedableRng;
use robotack::safety_hijacker::NnOracle;
use robotack::vector::AttackVector;
use std::sync::Arc;

/// One labeled training row: replica features at launch → target δ.
pub(crate) type Example = (Vec<f64>, Vec<f64>);

/// Sweep parameters for dataset collection.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// δ_inject values (m).
    pub delta_injects: Vec<f64>,
    /// Attack lengths k (frames).
    pub ks: Vec<u32>,
    /// Seeds per (δ, k) cell.
    pub seeds_per_cell: u64,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            delta_injects: vec![
                4.0, 6.0, 8.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 36.0, 42.0, 50.0, 60.0,
            ],
            ks: vec![5, 10, 15, 20, 25, 35, 45, 55, 59, 65, 80],
            seeds_per_cell: 5,
            base_seed: 0x5EED,
        }
    }
}

/// One sweep cell: ⟨δ_inject (m), k (frames), seed⟩.
pub(crate) type Cell = (f64, u32, u64);

impl SweepConfig {
    /// Every cell of the sweep, δ_inject-major, then k, then seed.
    pub(crate) fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &delta_inject in &self.delta_injects {
            for &k in &self.ks {
                for s in 0..self.seeds_per_cell {
                    let seed = self.base_seed
                        + av_simkit::rng::mix((delta_inject * 10.0) as u64, u64::from(k)) % 10_000
                        + s;
                    cells.push((delta_inject, k, seed));
                }
            }
        }
        cells
    }

    /// A small sweep for unit tests.
    pub fn tiny() -> Self {
        SweepConfig {
            delta_injects: vec![10.0, 20.0],
            ks: vec![10, 40],
            seeds_per_cell: 1,
            base_seed: 0x5EED,
        }
    }
}

/// A trained per-〈scenario, vector〉 oracle plus its quality metrics.
#[derive(Debug, Clone)]
pub struct TrainedOracle {
    /// The oracle, ready to drive a [`robotack::RoboTack`].
    pub oracle: Arc<NnOracle>,
    /// Validation mean-squared error (m²).
    pub val_mse: f64,
    /// Training examples used.
    pub examples: usize,
}

/// Collects the ADS-response dataset for one 〈scenario, vector〉 pair.
///
/// Each run contributes one example: the malware-replica features at launch
/// (plus k) → the ground-truth target safety potential at attack end. The
/// runs go through [`run_sweep`] (one cell per claim, rows in cell order)
/// and stop once their label is final ([`crate::horizon`]).
pub fn collect_dataset(scenario: ScenarioId, vector: AttackVector, sweep: &SweepConfig) -> Dataset {
    let cells = sweep.cells();
    let rows = run_sweep(
        cells.len(),
        default_threads(),
        1,
        &|_| Telemetry::disabled(),
        |i, _| dataset_session(scenario, vector, cells[i]).with_horizon(Horizon::Label),
        |outcome| example_from(&outcome),
    )
    .expect("default_threads() is at least 1 and one cell is claimed at a time");
    Dataset::from_rows(rows.into_iter().flatten())
}

/// The run of one sweep cell for ⟨`scenario`, `vector`⟩.
pub(crate) fn dataset_session(
    scenario: ScenarioId,
    vector: AttackVector,
    (delta_inject, k, seed): Cell,
) -> SimSession {
    SimSession::builder(scenario)
        .seed(seed)
        .attacker(AttackerSpec::AtDelta {
            vector: Some(vector),
            delta_inject,
            k,
        })
        .build()
}

/// Extracts a training example from one sweep run, if the attack launched
/// and a label could be taken.
///
/// The label is the quantity the attack actually minimizes: the ground-truth
/// in-path δ for Move_Out/Disappear (the real hazard), the EV's *perceived*
/// in-path δ for Move_In (the real δ is untouched; the phantom forces the
/// braking, §VI-D "Move_In attacks did not reduce δ but caused EB only").
pub(crate) fn example_from(outcome: &RunOutcome) -> Option<Example> {
    let features = outcome.attack.features_at_launch?;
    let label = match outcome.attack.vector? {
        robotack::vector::AttackVector::MoveIn => outcome.min_perceived_delta_post_attack?,
        _ => outcome.min_delta_attack_window?,
    };
    // Clamp: anything above ~40 m means "the attack had no effect" — the
    // exact clear-road value is irrelevant and would dominate the MSE.
    Some((
        features.to_input(outcome.attack.k),
        vec![label.clamp(-10.0, 40.0)],
    ))
}

/// Trains the per-〈scenario, vector〉 oracle (§IV-B protocol: paper
/// architecture, Adam, MSE, 60/40 split).
pub fn train_oracle(
    scenario: ScenarioId,
    vector: AttackVector,
    sweep: &SweepConfig,
) -> Option<TrainedOracle> {
    let data = collect_dataset(scenario, vector, sweep);
    train_oracle_on(&data)
}

/// Trains an oracle on an already-collected dataset.
pub fn train_oracle_on(data: &Dataset) -> Option<TrainedOracle> {
    if data.len() < 8 {
        return None;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0011_ACED);
    // One clone total: split_owned moves the cloned rows into the two sets,
    // and normalization rewrites each input row in place (same bits as
    // Normalizer::apply).
    let (mut train_n, mut val_n) = data.clone().split_owned(0.6, &mut rng);
    let normalizer = Normalizer::fit(&train_n);
    for set in [&mut train_n, &mut val_n] {
        for x in &mut set.inputs {
            normalizer.apply_in_place(x);
        }
    }

    let mut net = Mlp::paper_architecture(train_n.inputs[0].len(), &mut rng);
    train(
        &mut net,
        &train_n,
        &TrainConfig {
            epochs: 300,
            batch_size: 16,
            learning_rate: 1e-3,
        },
        &mut rng,
    );
    let val_mse = mse(&net, &val_n);
    Some(TrainedOracle {
        oracle: Arc::new(NnOracle::new(net, normalizer)),
        val_mse,
        examples: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn examples_require_launch_and_label() {
        let outcome = SimSession::builder(ScenarioId::Ds1)
            .seed(1)
            .attacker(AttackerSpec::AtDelta {
                vector: Some(AttackVector::MoveOut),
                delta_inject: 25.0,
                k: 20,
            })
            .build()
            .run();
        let ex = example_from(&outcome);
        if outcome.attack.launched_at.is_some() {
            let (x, y) = ex.expect("launched run yields an example");
            assert_eq!(x.len(), 5);
            assert_eq!(x[4], 20.0);
            assert_eq!(y.len(), 1);
        }
    }

    #[test]
    fn oracle_training_on_synthetic_data() {
        // Synthetic "ADS response": δ_{t+k} = δ − 0.1 k (pure kinematics).
        let data = Dataset::from_rows((0..200).map(|i| {
            let delta = 5.0 + f64::from(i % 20) * 2.0;
            let k = f64::from(i % 9) * 10.0;
            (vec![delta, -3.0, 0.0, 0.0, k], vec![delta - 0.1 * k])
        }));
        let trained = train_oracle_on(&data).unwrap();
        assert!(trained.val_mse < 6.0, "val mse {}", trained.val_mse);
        // Prediction decreases with k.
        use robotack::safety_hijacker::{AttackFeatures, SafetyOracle};
        let f = AttackFeatures {
            delta: 25.0,
            v_rel_lon: -3.0,
            v_rel_lat: 0.0,
            a_rel_lon: 0.0,
        };
        let d10 = trained.oracle.predict_delta(&f, 10);
        let d80 = trained.oracle.predict_delta(&f, 80);
        assert!(d80 < d10, "monotone-ish in k: {d10} vs {d80}");
    }

    #[test]
    fn too_small_dataset_is_rejected() {
        let data = Dataset::from_rows((0..4).map(|i| (vec![f64::from(i); 5], vec![0.0])));
        assert!(train_oracle_on(&data).is_none());
    }
}
