//! Safety hijacker ("SH", §IV-B): deciding *when* to attack and for *how
//! long*.
//!
//! The SH owns an oracle `f_α(v_rel, a_rel, δ_t, k) → δ_{t+k}` predicting the
//! safety potential the EV would be left with after `k` consecutive attacked
//! frames under vector `α`. The paper approximates `f_α` with a shallow
//! feed-forward network (3 hidden layers 100/100/50, ReLU, dropout 0.1)
//! trained per attack vector; [`NnOracle`] is that network, and
//! [`KinematicOracle`] is a closed-form constant-acceleration baseline used
//! in tests and as a sanity reference.
//!
//! Because `f_α` is non-increasing in `k` for the scenarios of interest
//! (§IV-B), the minimal sufficient attack length `K` (Eq. 2) is found by
//! binary search in `O(log K_max)` oracle evaluations.

use av_neural::infer::InferenceMlp;
use av_neural::mlp::Mlp;
use av_neural::train::Normalizer;

/// Kinematic features the malware extracts from its perception replica at
/// decision time (relative to the EV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackFeatures {
    /// Current safety potential w.r.t. the target object (m).
    pub delta: f64,
    /// Longitudinal relative velocity of the target (m/s; negative = closing).
    pub v_rel_lon: f64,
    /// Lateral relative velocity of the target (m/s).
    pub v_rel_lat: f64,
    /// Longitudinal relative acceleration of the target (m/s²).
    pub a_rel_lon: f64,
}

impl AttackFeatures {
    /// Flattens features plus the candidate `k` into the NN input vector.
    pub fn to_input(self, k: u32) -> Vec<f64> {
        self.input_array(k).to_vec()
    }

    /// Allocation-free form of [`AttackFeatures::to_input`].
    pub fn input_array(self, k: u32) -> [f64; Self::INPUT_DIM] {
        [
            self.delta,
            self.v_rel_lon,
            self.v_rel_lat,
            self.a_rel_lon,
            f64::from(k),
        ]
    }

    /// The NN input dimension.
    pub const INPUT_DIM: usize = 5;
}

/// An oracle for the post-attack safety potential `δ_{t+k}`.
pub trait SafetyOracle {
    /// Predicts `δ_{t+k}` for launching the attack now and holding it `k`
    /// frames.
    fn predict_delta(&self, features: &AttackFeatures, k: u32) -> f64;
}

/// The paper's learned oracle: a per-vector MLP over normalized features.
///
/// The oracle keeps exactly one copy of the network's weights, in the
/// transposed inference layout ([`InferenceMlp`]), plus the dropout rate the
/// trained network recorded, so snapshots reproduce the network exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NnOracle {
    net: InferenceMlp,
    dropout: f64,
    normalizer: Normalizer,
}

impl NnOracle {
    /// Wraps a trained network and its input normalizer.
    ///
    /// # Panics
    ///
    /// Panics unless the network maps [`AttackFeatures::INPUT_DIM`] inputs
    /// to one output.
    pub fn new(net: Mlp, normalizer: Normalizer) -> Self {
        NnOracle::from_inference(InferenceMlp::new(&net), net.dropout, normalizer)
    }

    /// Wraps a network already in its inference form (e.g. decoded straight
    /// from a snapshot), the dropout rate it was trained with, and its
    /// input normalizer.
    ///
    /// # Panics
    ///
    /// Panics unless the network maps [`AttackFeatures::INPUT_DIM`] inputs
    /// to one output.
    pub fn from_inference(net: InferenceMlp, dropout: f64, normalizer: Normalizer) -> Self {
        assert_eq!(
            net.input_dim(),
            AttackFeatures::INPUT_DIM,
            "oracle input dim"
        );
        assert_eq!(net.output_dim(), 1, "oracle output dim");
        NnOracle {
            net,
            dropout,
            normalizer,
        }
    }

    /// The network in its inference form — the oracle's only copy of the
    /// weights, which snapshots serialize without rebuilding an [`Mlp`].
    pub fn inference(&self) -> &InferenceMlp {
        &self.net
    }

    /// The dropout rate the network was trained with.
    pub fn dropout(&self) -> f64 {
        self.dropout
    }

    /// The input normalizer (for diagnostics and snapshotting).
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }
}

impl SafetyOracle for NnOracle {
    fn predict_delta(&self, features: &AttackFeatures, k: u32) -> f64 {
        let mut input = features.input_array(k);
        self.normalizer.apply_in_place(&mut input);
        let mut delta = [0.0];
        self.net.forward_into(&input, &mut delta);
        delta[0]
    }
}

/// Closed-form constant-acceleration oracle: assumes the EV accelerates
/// toward its cruise speed for the attack's duration (the world-model object
/// is gone/moved, so the planner releases the brake) while the target keeps
/// its current kinematics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinematicOracle {
    /// Assumed EV acceleration while blinded (m/s²).
    pub ev_accel: f64,
    /// EV speed headroom to the cruise target (m/s) — caps the speed gain.
    pub speed_headroom: f64,
    /// Camera frame period (s).
    pub frame_dt: f64,
}

impl Default for KinematicOracle {
    fn default() -> Self {
        KinematicOracle {
            ev_accel: 1.5,
            speed_headroom: 5.5,
            frame_dt: 1.0 / 15.0,
        }
    }
}

impl SafetyOracle for KinematicOracle {
    fn predict_delta(&self, features: &AttackFeatures, k: u32) -> f64 {
        let t = f64::from(k) * self.frame_dt;
        // The EV accelerates until it exhausts its speed headroom.
        let t_cap = (self.speed_headroom / self.ev_accel).min(t);
        let speedup_closure =
            0.5 * self.ev_accel * t_cap * t_cap + self.ev_accel * t_cap * (t - t_cap);
        // Existing relative motion: v_rel < 0 means the target approaches.
        let relative_closure = -features.v_rel_lon * t - 0.5 * features.a_rel_lon * t * t;
        features.delta - (speedup_closure + relative_closure)
    }
}

/// Safety hijacker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyHijackerConfig {
    /// Crash-level safety potential `γ` (m): the attack length is the
    /// minimal `k` whose predicted `δ_{t+k} ≤ γ`. The paper uses 4 m.
    pub gamma: f64,
    /// Launch threshold (m): attack only if the achievable `δ` drops below
    /// this (the paper uses 10 m — emergency-braking territory).
    pub launch_threshold: f64,
    /// Confidence margin (m) subtracted from γ for the *launch* decision:
    /// with an imperfect oracle, firing only when the predicted δ is
    /// comfortably below γ avoids wasting the single shot on marginal
    /// states. K is still chosen against γ itself.
    pub confidence_margin: f64,
    /// Minimum attack length (frames).
    pub k_min: u32,
    /// Maximum attack length `K_max` (frames): for Disappear this is the
    /// 99th percentile of natural misdetection streaks (§IV-B).
    pub k_max: u32,
}

impl Default for SafetyHijackerConfig {
    fn default() -> Self {
        SafetyHijackerConfig {
            gamma: 4.0,
            launch_threshold: 10.0,
            confidence_margin: 1.5,
            k_min: 5,
            k_max: 90,
        }
    }
}

/// The decision the safety hijacker returns when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackDecision {
    /// Number of frames to perturb.
    pub k: u32,
    /// Predicted safety potential after those frames.
    pub predicted_delta: f64,
}

/// Resumable Eq. 2 search: the gate check plus binary search that
/// [`SafetyHijacker::decide_capped`] runs, expressed as a state machine whose
/// oracle evaluations are performed by the *caller*.
///
/// This inversion lets a caller wrap each query — RoboTack times every one
/// as a `Stage::OracleQuery` sample — while producing exactly the same
/// sequence of k queries, and therefore exactly the same decision, as the
/// inline search.
#[derive(Debug, Clone)]
pub struct KSearch {
    cfg: SafetyHijackerConfig,
    state: KState,
}

#[derive(Debug, Clone)]
enum KState {
    /// Evaluating `k_max`: reject unless even the longest attack is
    /// confidently below γ.
    Gate,
    /// Binary search over `[lo, hi]` for the minimal sufficient k.
    Bisect { lo: u32, hi: u32 },
    /// Re-evaluating the chosen k for the reported `predicted_delta`.
    Final { k: u32 },
    /// Terminal: the decision (or `None` for hold-fire).
    Done(Option<AttackDecision>),
}

impl KSearch {
    /// Starts a search under `config` with the per-vector cap `k_max`
    /// (clamped to at least `config.k_min`, as in
    /// [`SafetyHijacker::decide_capped`]).
    pub fn new(config: SafetyHijackerConfig, k_max: u32) -> Self {
        let mut cfg = config;
        cfg.k_max = k_max.max(cfg.k_min);
        KSearch {
            cfg,
            state: KState::Gate,
        }
    }

    /// The `k` the oracle should be evaluated at next, or `None` once the
    /// search has terminated.
    pub fn pending_k(&self) -> Option<u32> {
        match self.state {
            KState::Gate => Some(self.cfg.k_max),
            KState::Bisect { lo, hi } => Some(lo + (hi - lo) / 2),
            KState::Final { k } => Some(k),
            KState::Done(_) => None,
        }
    }

    /// Feeds the oracle's prediction for the pending `k` and advances the
    /// search. Ignored once terminal.
    pub fn feed(&mut self, predicted_delta: f64) {
        let cfg = &self.cfg;
        self.state = match self.state {
            KState::Gate => {
                if predicted_delta > cfg.gamma - cfg.confidence_margin {
                    // Even the longest admissible attack would not push δ to
                    // crash level — wait for a more opportune state. (The
                    // 10 m launch threshold of §IV-B is enforced through the
                    // training labels: states that only yield emergency
                    // braking produce labels near the stop margin, below γ
                    // only when the EV is forced into a hard stop.)
                    KState::Done(None)
                } else if cfg.k_min >= cfg.k_max {
                    KState::Final { k: cfg.k_min }
                } else {
                    KState::Bisect {
                        lo: cfg.k_min,
                        hi: cfg.k_max,
                    }
                }
            }
            KState::Bisect { lo, hi } => {
                let mid = lo + (hi - lo) / 2;
                let (lo, hi) = if predicted_delta <= cfg.gamma {
                    (lo, mid)
                } else {
                    (mid + 1, hi)
                };
                if lo >= hi {
                    KState::Final { k: lo }
                } else {
                    KState::Bisect { lo, hi }
                }
            }
            KState::Final { k } => KState::Done(Some(AttackDecision { k, predicted_delta })),
            KState::Done(d) => KState::Done(d),
        };
    }

    /// Whether the search has terminated.
    pub fn is_done(&self) -> bool {
        matches!(self.state, KState::Done(_))
    }

    /// The terminal decision. Panics if the search is still pending.
    pub fn into_decision(self) -> Option<AttackDecision> {
        match self.state {
            KState::Done(d) => d,
            _ => panic!("KSearch still has a pending oracle query"),
        }
    }
}

/// Safety hijacker: oracle + Eq. 2 search + launch policy.
#[derive(Debug, Clone)]
pub struct SafetyHijacker<O> {
    oracle: O,
    config: SafetyHijackerConfig,
}

impl<O: SafetyOracle> SafetyHijacker<O> {
    /// Creates a safety hijacker.
    pub fn new(oracle: O, config: SafetyHijackerConfig) -> Self {
        SafetyHijacker { oracle, config }
    }

    /// The configuration.
    pub fn config(&self) -> &SafetyHijackerConfig {
        &self.config
    }

    /// The oracle (for diagnostics / Fig. 8).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Decides whether to launch now. Returns the attack length `K` and the
    /// predicted post-attack `δ`, or `None` when the attack would not be
    /// damaging enough yet.
    pub fn decide(&self, features: &AttackFeatures) -> Option<AttackDecision> {
        self.decide_capped(features, self.config.k_max)
    }

    /// [`SafetyHijacker::decide`] with a caller-provided `K_max` (Disappear
    /// attacks are capped at the class's natural misdetection 99th
    /// percentile, §IV-B).
    pub fn decide_capped(&self, features: &AttackFeatures, k_max: u32) -> Option<AttackDecision> {
        // Gate at k_max, binary search for the minimal k with predicted
        // δ ≤ γ (valid since f_α is non-increasing in k here), then one
        // final evaluation at the chosen k. The query sequence lives in
        // [`KSearch`], so RoboTack's timed search is this exact search by
        // construction.
        let mut search = KSearch::new(self.config, k_max);
        while let Some(k) = search.pending_k() {
            search.feed(self.oracle.predict_delta(features, k));
        }
        search.into_decision()
    }

    /// Exhaustive (linear) version of [`SafetyHijacker::decide`] — the
    /// reference the ablations report and the property tests check the
    /// binary search against.
    pub fn decide_linear(&self, features: &AttackFeatures) -> Option<AttackDecision> {
        let cfg = &self.config;
        if self.oracle.predict_delta(features, cfg.k_max) > cfg.gamma - cfg.confidence_margin {
            return None;
        }
        for k in cfg.k_min..=cfg.k_max {
            let d = self.oracle.predict_delta(features, k);
            if d <= cfg.gamma {
                return Some(AttackDecision {
                    k,
                    predicted_delta: d,
                });
            }
        }
        unreachable!("k_max satisfied the predicate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic oracle: δ decreases by 0.5 m per attacked frame.
    struct LinearOracle;
    impl SafetyOracle for LinearOracle {
        fn predict_delta(&self, f: &AttackFeatures, k: u32) -> f64 {
            f.delta - 0.5 * f64::from(k)
        }
    }

    fn features(delta: f64) -> AttackFeatures {
        AttackFeatures {
            delta,
            v_rel_lon: -5.0,
            v_rel_lat: 0.0,
            a_rel_lon: 0.0,
        }
    }

    #[test]
    fn no_launch_when_far() {
        let sh = SafetyHijacker::new(LinearOracle, SafetyHijackerConfig::default());
        // δ after k_max=90 frames: 80 − 45 = 35 > γ → hold fire.
        assert!(sh.decide(&features(80.0)).is_none());
    }

    #[test]
    fn binary_search_finds_minimal_k() {
        let sh = SafetyHijacker::new(LinearOracle, SafetyHijackerConfig::default());
        // δ − 0.5k ≤ 4 → k ≥ 32 for δ = 20.
        let d = sh.decide(&features(20.0)).unwrap();
        assert_eq!(d.k, 32);
        assert!(d.predicted_delta <= 4.0);
    }

    #[test]
    fn binary_matches_linear_search() {
        let sh = SafetyHijacker::new(LinearOracle, SafetyHijackerConfig::default());
        for delta in [8.0, 12.0, 20.0, 30.0, 44.9, 45.0, 48.0, 49.0] {
            let a = sh.decide(&features(delta));
            let b = sh.decide_linear(&features(delta));
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(x.k, y.k, "delta {delta}"),
                (None, None) => {}
                other => panic!("mismatch at delta {delta}: {other:?}"),
            }
        }
    }

    #[test]
    fn k_min_respected() {
        let sh = SafetyHijacker::new(LinearOracle, SafetyHijackerConfig::default());
        // Already nearly crashed: even k_min suffices.
        let d = sh.decide(&features(4.2)).unwrap();
        assert_eq!(d.k, 5);
    }

    #[test]
    fn damaging_but_not_crash_level_waits() {
        let sh = SafetyHijacker::new(LinearOracle, SafetyHijackerConfig::default());
        // δ(k_max) = 49.5 − 45 = 4.5 > γ − margin: hold fire even though the
        // state is already emergency-braking territory.
        assert!(sh.decide(&features(49.5)).is_none());
        // Marginally crash-level (4.0) still waits: the confidence margin
        // demands a comfortably-below-γ prediction.
        assert!(sh.decide(&features(49.0)).is_none());
        // Confidently below γ fires, with K chosen against γ itself.
        let d = sh.decide(&features(47.0)).unwrap();
        assert_eq!(d.k, 86);
        assert!(d.predicted_delta <= 4.0);
    }

    /// Oracle that records the sequence of k values it is asked about.
    struct RecordingOracle(std::cell::RefCell<Vec<u32>>);
    impl SafetyOracle for RecordingOracle {
        fn predict_delta(&self, f: &AttackFeatures, k: u32) -> f64 {
            self.0.borrow_mut().push(k);
            f.delta - 0.5 * f64::from(k)
        }
    }

    #[test]
    fn ksearch_replays_decide_capped_query_sequence() {
        for delta in [4.2, 8.0, 20.0, 44.9, 47.0, 49.0, 49.5, 80.0] {
            for k_max in [1u32, 3, 5, 28, 59, 90] {
                let sh = SafetyHijacker::new(
                    RecordingOracle(std::cell::RefCell::new(Vec::new())),
                    SafetyHijackerConfig::default(),
                );
                let inline = sh.decide_capped(&features(delta), k_max);
                let inline_ks = sh.oracle().0.borrow().clone();

                let mut search = KSearch::new(SafetyHijackerConfig::default(), k_max);
                let mut deferred_ks = Vec::new();
                while let Some(k) = search.pending_k() {
                    deferred_ks.push(k);
                    search.feed(delta - 0.5 * f64::from(k));
                }
                assert_eq!(
                    deferred_ks, inline_ks,
                    "query order diverged at delta {delta}, k_max {k_max}"
                );
                assert_eq!(search.into_decision(), inline);
            }
        }
    }

    #[test]
    fn nn_oracle_keeps_one_bit_equal_copy_of_the_network() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12);
        let net = Mlp::paper_architecture(AttackFeatures::INPUT_DIM, &mut rng);
        let normalizer = Normalizer {
            mean: vec![0.0; AttackFeatures::INPUT_DIM],
            std: vec![1.0; AttackFeatures::INPUT_DIM],
        };
        let oracle = NnOracle::new(net.clone(), normalizer);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(oracle.inference().layer_sizes(), net.layer_sizes());
        assert_eq!(
            bits(oracle.inference().params().collect()),
            bits(net.flatten_params()),
            "the one copy holds bit-equal parameters"
        );
        assert_eq!(oracle.dropout().to_bits(), net.dropout.to_bits());
        let f = features(12.0);
        let reference = net.forward(&f.to_input(30))[0];
        assert_eq!(oracle.predict_delta(&f, 30).to_bits(), reference.to_bits());
    }

    #[test]
    fn kinematic_oracle_monotone_in_k() {
        let o = KinematicOracle::default();
        let f = features(30.0);
        let mut last = f64::INFINITY;
        for k in (0..=90).step_by(5) {
            let d = o.predict_delta(&f, k);
            assert!(d <= last + 1e-9, "non-monotone at k={k}");
            last = d;
        }
    }

    #[test]
    fn features_flatten_into_nn_input() {
        let f = features(12.0);
        let input = f.to_input(7);
        assert_eq!(input.len(), AttackFeatures::INPUT_DIM);
        assert_eq!(input[0], 12.0);
        assert_eq!(input[4], 7.0);
    }
}
