//! Fault plans: what goes wrong, when, and how hard.

/// Activation window of one fault, in simulation seconds.
///
/// The fault may only act on measurements whose timestamp `t` satisfies
/// `start <= t < end`. Stochastic triggers are likewise only drawn inside
/// the window, so an inactive fault consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First active instant (inclusive, s).
    pub start: f64,
    /// End of the window (exclusive, s).
    pub end: f64,
}

impl FaultWindow {
    /// A window covering the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        start: 0.0,
        end: f64::INFINITY,
    };

    /// Creates a window `[start, end)`.
    pub fn new(start: f64, end: f64) -> Self {
        FaultWindow { start, end }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// One fault mode with its intensity parameters.
///
/// Camera faults act on the frame the detector will consume; LiDAR and GPS
/// faults act on their respective measurements. All probabilities are
/// per-measurement and clamped to `[0, 1]` at draw time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each frame is lost entirely with probability `probability` — neither
    /// the attacker nor the ADS sees it.
    CameraFrameDrop {
        /// Per-frame loss probability.
        probability: f64,
    },
    /// With probability `probability` per frame, the feed freezes: the last
    /// delivered frame (stale timestamp included) is replayed for a run of
    /// frames with mean length `mean_frames` (shifted-exponential, ≥ 1).
    CameraFreeze {
        /// Per-frame freeze-onset probability.
        probability: f64,
        /// Mean frozen-run length in frames.
        mean_frames: f64,
    },
    /// The camera pipeline lags: every delivered frame is the one captured
    /// `frames` captures ago. While the delay line fills, frames are lost.
    CameraLatency {
        /// Delay depth in frames.
        frames: u32,
    },
    /// Inflated detector noise: every ground-truth box edge is perturbed by
    /// zero-mean Gaussian pixel noise of the given σ before the (already
    /// noisy) detector model runs.
    CameraNoise {
        /// Additional per-edge noise σ (px).
        sigma_px: f64,
    },
    /// A horizontal occluded band across the image (dirt, glare, a failed
    /// sensor region): boxes overlapping rows `[y0, y1]` gain occlusion
    /// proportional to the covered fraction, scaled by `strength`.
    CameraOcclusionBand {
        /// Top image row of the band (px).
        y0: f64,
        /// Bottom image row of the band (px).
        y1: f64,
        /// Occlusion added at full coverage (1.0 makes covered boxes
        /// invisible; the detector limit is occlusion > 0.7).
        strength: f64,
    },
    /// Detector blackout: with probability `probability` per frame, all
    /// truth boxes are suppressed for a run of frames with mean length
    /// `mean_frames` — frames still arrive, but carry no detections.
    DetectorBlackout {
        /// Per-frame blackout-onset probability.
        probability: f64,
        /// Mean blackout-run length in frames.
        mean_frames: f64,
    },
    /// Each LiDAR sweep is lost entirely with probability `probability`.
    LidarDropout {
        /// Per-sweep loss probability.
        probability: f64,
    },
    /// GPS bias and drift: each fix's position is shifted by `bias` plus
    /// `drift_per_s · (t − window.start)` meters along the road.
    GpsBias {
        /// Constant longitudinal position bias (m).
        bias: f64,
        /// Additional longitudinal drift rate (m/s of window time).
        drift_per_s: f64,
    },
}

/// One fault: a mode plus its activation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault mode and intensity.
    pub kind: FaultKind,
    /// When the fault may act.
    pub window: FaultWindow,
}

impl FaultSpec {
    /// A fault active for the whole run.
    pub fn always(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            window: FaultWindow::ALWAYS,
        }
    }

    /// A fault active on `[start, end)`.
    pub fn windowed(kind: FaultKind, start: f64, end: f64) -> Self {
        FaultSpec {
            kind,
            window: FaultWindow::new(start, end),
        }
    }
}

/// A complete fault plan: the specs apply independently, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The faults to inject.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: guaranteed bit-transparent (no draws, no rewrites).
    pub fn none() -> Self {
        FaultPlan { specs: Vec::new() }
    }

    /// A plan with one fault.
    pub fn single(spec: FaultSpec) -> Self {
        FaultPlan { specs: vec![spec] }
    }

    /// Appends a fault (builder style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_is_half_open() {
        let w = FaultWindow::new(2.0, 5.0);
        assert!(!w.contains(1.999));
        assert!(w.contains(2.0));
        assert!(w.contains(4.999));
        assert!(!w.contains(5.0));
        assert!(FaultWindow::ALWAYS.contains(0.0));
        assert!(FaultWindow::ALWAYS.contains(1e12));
    }

    #[test]
    fn builder_accumulates_specs() {
        let plan = FaultPlan::none()
            .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                probability: 0.1,
            }))
            .with(FaultSpec::windowed(
                FaultKind::LidarDropout { probability: 0.5 },
                1.0,
                2.0,
            ));
        assert_eq!(plan.specs.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
