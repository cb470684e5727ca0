//! Cross-sensor consistency monitor.
//!
//! A camera track that drifts away from every LiDAR return — while some
//! LiDAR return sits unclaimed near the track's *previous* position — is
//! the signature of a Move_Out/Move_In hijack (§VI-C explains how fusion
//! disagreement delays registration; this monitor turns the same
//! disagreement into an alarm when it *persists*).

use av_simkit::math::Vec2;
use std::collections::HashMap;

/// Consistency monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyConfig {
    /// Camera–LiDAR distance beyond which the pair counts as divergent (m).
    pub divergence_gate: f64,
    /// Consecutive divergent checks before alarming.
    pub persistence: u32,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        // The divergence gate sits above the fusion association gate (2.5 m)
        // so ordinary noise never counts, and the persistence is long enough
        // to ride out LiDAR detection dropouts.
        ConsistencyConfig {
            divergence_gate: 3.0,
            persistence: 12,
        }
    }
}

/// Per-object camera-vs-LiDAR divergence accounting.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyMonitor {
    config: ConsistencyConfig,
    divergent: HashMap<u64, u32>,
    alarms: u64,
}

impl ConsistencyMonitor {
    /// Creates a monitor.
    pub fn new(config: ConsistencyConfig) -> Self {
        ConsistencyMonitor {
            config,
            ..Default::default()
        }
    }

    /// Checks one camera-supported object against the LiDAR returns of the
    /// current sweep. Returns `true` when the divergence alarm fires (then
    /// resets — one alarm per episode).
    ///
    /// `object_position` is the fused/camera position; `lidar_returns` the
    /// sweep's clustered object positions.
    pub fn check(&mut self, object: u64, object_position: Vec2, lidar_returns: &[Vec2]) -> bool {
        let near = lidar_returns
            .iter()
            .any(|r| r.distance(object_position) <= self.config.divergence_gate);
        if near || lidar_returns.is_empty() {
            // Agreeing, or nothing to compare against (e.g. out of LiDAR
            // range — pedestrians at distance are camera-only and cannot be
            // checked).
            self.divergent.remove(&object);
            return false;
        }
        let count = self.divergent.entry(object).or_insert(0);
        *count += 1;
        if *count > self.config.persistence {
            self.alarms += 1;
            self.divergent.remove(&object);
            true
        } else {
            false
        }
    }

    /// Forgets an object.
    pub fn drop_object(&mut self, object: u64) {
        self.divergent.remove(&object);
    }

    /// Total alarms raised.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> ConsistencyMonitor {
        ConsistencyMonitor::new(ConsistencyConfig::default())
    }

    #[test]
    fn agreeing_sensors_never_alarm() {
        let mut m = monitor();
        for _ in 0..100 {
            assert!(!m.check(1, Vec2::new(30.0, 0.0), &[Vec2::new(30.4, 0.2)]));
        }
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn empty_lidar_is_not_divergence() {
        let mut m = monitor();
        for _ in 0..100 {
            assert!(!m.check(1, Vec2::new(60.0, -4.0), &[]));
        }
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn persistent_divergence_alarms() {
        let mut m = monitor();
        let mut fired = 0;
        for _ in 0..20 {
            fired += u64::from(m.check(1, Vec2::new(30.0, 3.5), &[Vec2::new(30.0, 0.0)]));
        }
        assert_eq!(fired, 1, "one alarm for the episode");
        assert_eq!(m.alarms(), 1);
    }

    #[test]
    fn transient_divergence_resets() {
        let mut m = monitor();
        for i in 0..60 {
            let camera = if i % 4 == 3 {
                Vec2::new(30.0, 0.2) // re-agrees every 4th check
            } else {
                Vec2::new(30.0, 3.5)
            };
            assert!(!m.check(1, camera, &[Vec2::new(30.0, 0.0)]));
        }
        assert_eq!(m.alarms(), 0);
    }

    #[test]
    fn objects_are_independent() {
        let mut m = monitor();
        for _ in 0..20 {
            m.check(1, Vec2::new(30.0, 3.5), &[Vec2::new(30.0, 0.0)]);
            assert!(!m.check(2, Vec2::new(50.0, 0.0), &[Vec2::new(50.0, 0.0)]));
        }
        assert_eq!(m.alarms(), 1);
    }
}
