//! Misdetection-streak envelope monitor.
//!
//! §VI-A: "if our attack fails, the object will reappear and be flagged by
//! the IDS as an attack attempt" — the IDS knows the calibrated
//! continuous-misdetection distribution (Fig. 5 a–b) and flags any object
//! whose undetected streak exceeds the class's 99th percentile. RoboTack
//! caps its Disappear windows at exactly that percentile to stay under this
//! monitor.

use av_perception::calibration::DetectorCalibration;
use av_simkit::actor::ActorKind;
use std::collections::HashMap;

/// Streak monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreakConfig {
    /// Multiplier on the calibrated p99 before alarming (1.0 = exactly p99).
    pub envelope_factor: f64,
}

impl Default for StreakConfig {
    fn default() -> Self {
        StreakConfig {
            envelope_factor: 1.0,
        }
    }
}

/// Tracks continuous undetected frames per known object and flags envelope
/// violations.
#[derive(Debug, Clone)]
pub struct StreakMonitor {
    config: StreakConfig,
    calibration: DetectorCalibration,
    streaks: HashMap<u64, (ActorKind, u32)>,
    alarms: u64,
}

impl StreakMonitor {
    /// Creates a monitor with the calibrated streak envelopes.
    pub fn new(config: StreakConfig, calibration: DetectorCalibration) -> Self {
        StreakMonitor {
            config,
            calibration,
            streaks: HashMap::new(),
            alarms: 0,
        }
    }

    /// The envelope (frames) for a class.
    pub fn envelope(&self, kind: ActorKind) -> u32 {
        let p99 = self.calibration.for_kind(kind).misdetect_streak.p99;
        (p99 * self.config.envelope_factor).floor() as u32
    }

    /// Records that object `id` of class `kind` was *detected* this frame.
    pub fn observe_detected(&mut self, id: u64, kind: ActorKind) {
        self.streaks.insert(id, (kind, 0));
    }

    /// Records that a previously-seen object went *undetected* this frame.
    /// Returns `true` when its streak just exceeded the envelope (one alarm
    /// per streak).
    pub fn observe_missed(&mut self, id: u64) -> bool {
        let Some((kind, streak)) = self.streaks.get_mut(&id) else {
            return false; // never-seen objects are not monitored
        };
        *streak += 1;
        let envelope = {
            let p99 = self.calibration.for_kind(*kind).misdetect_streak.p99;
            (p99 * self.config.envelope_factor).floor() as u32
        };
        if *streak == envelope + 1 {
            self.alarms += 1;
            true
        } else {
            false
        }
    }

    /// Forgets an object (left the scene).
    pub fn drop_object(&mut self, id: u64) {
        self.streaks.remove(&id);
    }

    /// Total alarms raised.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> StreakMonitor {
        StreakMonitor::new(StreakConfig::default(), DetectorCalibration::paper())
    }

    #[test]
    fn envelopes_match_calibration() {
        let m = monitor();
        assert_eq!(m.envelope(ActorKind::Pedestrian), 31);
        assert_eq!(m.envelope(ActorKind::Car), 59);
    }

    #[test]
    fn streak_within_envelope_is_silent() {
        let mut m = monitor();
        m.observe_detected(1, ActorKind::Pedestrian);
        for _ in 0..31 {
            assert!(!m.observe_missed(1));
        }
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn streak_beyond_envelope_alarms_once() {
        let mut m = monitor();
        m.observe_detected(1, ActorKind::Pedestrian);
        let mut alarms = 0;
        for _ in 0..40 {
            alarms += u64::from(m.observe_missed(1));
        }
        assert_eq!(alarms, 1, "exactly one alarm per streak");
        // Re-detection resets the streak.
        m.observe_detected(1, ActorKind::Pedestrian);
        for _ in 0..31 {
            assert!(!m.observe_missed(1));
        }
    }

    #[test]
    fn vehicle_envelope_is_longer() {
        let mut m = monitor();
        m.observe_detected(1, ActorKind::Car);
        let mut alarmed_at = None;
        for i in 1..=70 {
            if m.observe_missed(1) {
                alarmed_at = Some(i);
                break;
            }
        }
        assert_eq!(alarmed_at, Some(60), "one past the 59-frame envelope");
    }

    #[test]
    fn unknown_objects_are_not_monitored() {
        let mut m = monitor();
        assert!(!m.observe_missed(99));
        m.observe_detected(1, ActorKind::Car);
        m.drop_object(1);
        assert!(!m.observe_missed(1));
    }
}
