//! Detector noise calibration — the constants of Fig. 5.
//!
//! The paper characterizes YOLOv3 inside Apollo on LGSVL footage (§VI-A) and
//! fits:
//!
//! - continuous-misdetection streak lengths per class:
//!   `Exp(loc = 1, λ = 0.717)` for pedestrians, `Exp(loc = 1, λ = 0.327)`
//!   for vehicles (Fig. 5 a–b), with 99th percentiles 31.0 / 59.4 frames;
//! - normalized bounding-box-center errors per class and axis: Gaussians
//!   with the (µ, σ) listed in Fig. 5 (c–f).
//!
//! The simulated detector *injects* noise from these exact distributions, so
//! downstream characterization (the `fig5` experiment) recovers them, and
//! the attacker's "stay within ±1σ" stealth rule (§IV-C) has the same
//! meaning as in the paper.

use av_simkit::actor::ActorKind;

/// Gaussian parameters for one normalized error axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean of the normalized error.
    pub mean: f64,
    /// Standard deviation of the normalized error.
    pub std_dev: f64,
}

/// Shifted-exponential parameters for misdetection streak lengths (frames).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Location (minimum streak length).
    pub loc: f64,
    /// Rate λ.
    pub lambda: f64,
    /// 99th percentile reported by the paper (frames) — the attacker's
    /// `K_max` bound for Disappear attacks (§IV-B).
    pub p99: f64,
}

/// Per-class detector noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassCalibration {
    /// Normalized bbox-center error along image x (units of bbox width).
    pub center_x: Gaussian,
    /// Normalized bbox-center error along image y (units of bbox height).
    pub center_y: Gaussian,
    /// Continuous misdetection streak length (frames).
    pub misdetect_streak: Exponential,
    /// Per-frame probability of starting a misdetection streak.
    pub misdetect_start: f64,
    /// 1σ relative size jitter of the detected box.
    pub size_jitter: f64,
}

/// Full detector calibration: one model per class plus detectability limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorCalibration {
    /// Noise model for vehicles (cars, trucks).
    pub vehicle: ClassCalibration,
    /// Noise model for pedestrians.
    pub pedestrian: ClassCalibration,
    /// Minimum bbox area (px²) the detector can resolve.
    pub min_box_area: f64,
}

impl DetectorCalibration {
    /// The calibration matching the paper's Fig. 5 fits.
    pub fn paper() -> Self {
        DetectorCalibration {
            vehicle: ClassCalibration {
                center_x: Gaussian {
                    mean: 0.023,
                    std_dev: 0.464,
                },
                center_y: Gaussian {
                    mean: 0.094,
                    std_dev: 0.586,
                },
                misdetect_streak: Exponential {
                    loc: 1.0,
                    lambda: 0.327,
                    p99: 59.4,
                },
                misdetect_start: 0.02,
                size_jitter: 0.03,
            },
            pedestrian: ClassCalibration {
                center_x: Gaussian {
                    mean: 0.254,
                    std_dev: 2.010,
                },
                center_y: Gaussian {
                    mean: 0.186,
                    std_dev: 0.409,
                },
                misdetect_streak: Exponential {
                    loc: 1.0,
                    lambda: 0.717,
                    p99: 31.0,
                },
                misdetect_start: 0.03,
                size_jitter: 0.04,
            },
            min_box_area: 150.0,
        }
    }

    /// A noise-free calibration (useful for deterministic pipeline tests).
    pub fn ideal() -> Self {
        let noiseless = ClassCalibration {
            center_x: Gaussian {
                mean: 0.0,
                std_dev: 0.0,
            },
            center_y: Gaussian {
                mean: 0.0,
                std_dev: 0.0,
            },
            misdetect_streak: Exponential {
                loc: 1.0,
                lambda: 1.0,
                p99: 1.0,
            },
            misdetect_start: 0.0,
            size_jitter: 0.0,
        };
        DetectorCalibration {
            vehicle: noiseless,
            pedestrian: noiseless,
            min_box_area: 0.0,
        }
    }

    /// The class model for an actor kind.
    pub fn for_kind(&self, kind: ActorKind) -> &ClassCalibration {
        if kind.is_vehicle() {
            &self.vehicle
        } else {
            &self.pedestrian
        }
    }
}

impl Default for DetectorCalibration {
    fn default() -> Self {
        DetectorCalibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_fig5() {
        let c = DetectorCalibration::paper();
        assert_eq!(c.vehicle.center_x.std_dev, 0.464);
        assert_eq!(c.pedestrian.center_x.std_dev, 2.010);
        assert_eq!(c.vehicle.misdetect_streak.lambda, 0.327);
        assert_eq!(c.pedestrian.misdetect_streak.lambda, 0.717);
        assert_eq!(c.pedestrian.misdetect_streak.p99, 31.0);
    }

    #[test]
    fn for_kind_dispatch() {
        let c = DetectorCalibration::paper();
        assert_eq!(c.for_kind(ActorKind::Car).center_x.std_dev, 0.464);
        assert_eq!(c.for_kind(ActorKind::Truck).center_x.std_dev, 0.464);
        assert_eq!(c.for_kind(ActorKind::Pedestrian).center_x.std_dev, 2.010);
    }

    #[test]
    fn ideal_is_noise_free() {
        let c = DetectorCalibration::ideal();
        assert_eq!(c.vehicle.center_x.std_dev, 0.0);
        assert_eq!(c.vehicle.misdetect_start, 0.0);
    }
}
