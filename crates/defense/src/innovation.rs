//! CUSUM monitor over normalized Kalman innovations.
//!
//! Under the calibrated detector noise model the innovation sequence of a
//! healthy track is zero-mean with a known scale (§II-B: the KF "assumes
//! that measurement noise follows a zero-mean Gaussian distribution"). A
//! trajectory hijack injects a *persistent, signed* bias — individually
//! each step hides inside ±1σ, but the cumulative sum drifts. A two-sided
//! CUSUM with drift `k` and threshold `h` detects exactly that.

use std::collections::HashMap;

/// CUSUM parameters (in units of σ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumConfig {
    /// Allowance/drift term subtracted each step (σ).
    pub drift: f64,
    /// Alarm threshold on the cumulative statistic (σ).
    pub threshold: f64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        // Tuned for ~1σ-bias detection over ~15 samples with low false
        // positives on the calibrated noise.
        CusumConfig {
            drift: 0.55,
            threshold: 7.0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct CusumState {
    high: f64,
    low: f64,
    samples: u64,
}

impl CusumState {
    /// Returns true if either side crosses the threshold.
    fn update(&mut self, z: f64, config: &CusumConfig) -> bool {
        self.samples += 1;
        self.high = (self.high + z - config.drift).max(0.0);
        self.low = (self.low - z - config.drift).max(0.0);
        self.high > config.threshold || self.low > config.threshold
    }
}

/// Per-track two-sided CUSUM over the lateral (image-x) innovation,
/// normalized by the calibrated per-class noise scale.
#[derive(Debug, Clone, Default)]
pub struct InnovationMonitor {
    config: CusumConfig,
    tracks: HashMap<u64, CusumState>,
    alarms: u64,
}

impl InnovationMonitor {
    /// Creates a monitor.
    pub fn new(config: CusumConfig) -> Self {
        InnovationMonitor {
            config,
            ..Default::default()
        }
    }

    /// Feeds one normalized innovation `z = (measured − predicted)/σ` for
    /// `track`. Returns `true` when this update raises an alarm (the
    /// track's statistic then resets — one alarm per excursion).
    pub fn observe(&mut self, track: u64, z: f64) -> bool {
        let state = self.tracks.entry(track).or_default();
        if state.update(z, &self.config) {
            self.alarms += 1;
            *state = CusumState::default();
            true
        } else {
            false
        }
    }

    /// Forgets a track (it died in the tracker).
    pub fn drop_track(&mut self, track: u64) {
        self.tracks.remove(&track);
    }

    /// Total alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Current cumulative statistic for a track (diagnostics).
    pub fn statistic(&self, track: u64) -> Option<(f64, f64)> {
        self.tracks.get(&track).map(|s| (s.high, s.low))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::rng::normal;
    use rand::SeedableRng;

    #[test]
    fn zero_mean_noise_rarely_alarms() {
        let mut m = InnovationMonitor::new(CusumConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut alarms = 0;
        for _ in 0..20_000 {
            alarms += u64::from(m.observe(1, normal(&mut rng, 0.0, 1.0)));
        }
        // False-alarm rate well under 1 per 1000 samples.
        assert!(alarms < 20, "alarms = {alarms}");
    }

    #[test]
    fn persistent_one_sigma_bias_is_detected_quickly() {
        let mut m = InnovationMonitor::new(CusumConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut detected_at = None;
        for i in 0..200 {
            if m.observe(1, normal(&mut rng, 1.0, 1.0)) {
                detected_at = Some(i);
                break;
            }
        }
        let at = detected_at.expect("bias detected");
        assert!(at < 60, "detected within {at} samples");
    }

    #[test]
    fn negative_bias_is_detected_too() {
        let mut m = InnovationMonitor::new(CusumConfig::default());
        let mut detected = false;
        for _ in 0..100 {
            detected |= m.observe(1, -1.2);
        }
        assert!(detected);
    }

    #[test]
    fn alarm_resets_the_statistic() {
        let mut m = InnovationMonitor::new(CusumConfig {
            drift: 0.5,
            threshold: 2.0,
        });
        let mut first = None;
        for i in 0..20 {
            if m.observe(1, 1.5) {
                first = Some(i);
                break;
            }
        }
        let first = first.expect("alarm");
        let (high, low) = m.statistic(1).expect("track exists");
        assert_eq!((high, low), (0.0, 0.0), "reset after alarm");
        assert!(first >= 1);
    }

    #[test]
    fn tracks_are_independent() {
        let mut m = InnovationMonitor::new(CusumConfig {
            drift: 0.5,
            threshold: 3.0,
        });
        for _ in 0..10 {
            m.observe(1, 1.5);
            m.observe(2, 0.0);
        }
        let (h2, _) = m.statistic(2).expect("track 2");
        assert!(h2 < 0.5, "clean track unaffected by the attacked one");
        m.drop_track(1);
        assert!(m.statistic(1).is_none());
    }
}
