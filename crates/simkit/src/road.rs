//! Road geometry: a straight multi-lane street in plan view.

/// A straight road along +x with parallel lanes.
///
/// Lane indices are signed: lane `0` is the ego lane (centered at `y = 0`),
/// positive indices are to the left (+y), negative to the right (−y). The
/// default layout mirrors the paper's "Borregas Avenue" scenarios: the ego
/// lane, one adjacent traffic lane to the left, and a parking lane to the
/// right (§V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct Road {
    /// Width of every lane in meters.
    pub lane_width: f64,
    /// Smallest lane index (most negative, right-most lane).
    pub min_lane: i32,
    /// Largest lane index (left-most lane).
    pub max_lane: i32,
    /// Posted speed limit (m/s). Borregas Avenue is 50 kph.
    pub speed_limit: f64,
}

impl Default for Road {
    fn default() -> Self {
        Road {
            lane_width: 3.5,
            min_lane: -1, // parking lane
            max_lane: 1,  // adjacent traffic lane
            speed_limit: 50.0 / 3.6,
        }
    }
}

impl Road {
    /// Lateral center (y) of lane `index`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` is outside `[min_lane, max_lane]`.
    pub fn lane_center(&self, index: i32) -> f64 {
        debug_assert!(
            (self.min_lane..=self.max_lane).contains(&index),
            "lane {index} outside [{}, {}]",
            self.min_lane,
            self.max_lane
        );
        f64::from(index) * self.lane_width
    }

    /// The lane index whose center is closest to lateral position `y`
    /// (clamped to the existing lanes).
    pub fn lane_at(&self, y: f64) -> i32 {
        let idx = (y / self.lane_width).round() as i32;
        idx.clamp(self.min_lane, self.max_lane)
    }

    /// Whether the lateral interval `[y0, y1]` overlaps lane `index`.
    pub fn overlaps_lane(&self, index: i32, y0: f64, y1: f64) -> bool {
        let c = self.lane_center(index);
        let half = self.lane_width / 2.0;
        crate::math::interval_overlap(y0, y1, c - half, c + half) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_centers() {
        let r = Road::default();
        assert_eq!(r.lane_center(0), 0.0);
        assert_eq!(r.lane_center(1), 3.5);
        assert_eq!(r.lane_center(-1), -3.5);
    }

    #[test]
    fn lane_at_rounds_and_clamps() {
        let r = Road::default();
        assert_eq!(r.lane_at(0.4), 0);
        assert_eq!(r.lane_at(2.0), 1);
        assert_eq!(r.lane_at(-9.0), -1);
        assert_eq!(r.lane_at(9.0), 1);
    }

    #[test]
    fn overlaps_lane_edges() {
        let r = Road::default();
        assert!(r.overlaps_lane(0, -0.5, 0.5));
        assert!(!r.overlaps_lane(0, 2.0, 3.0));
        assert!(r.overlaps_lane(1, 1.76, 2.0));
    }
}
