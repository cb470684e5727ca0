//! Detector characterization drive (Fig. 5, §VI-A).
//!
//! The paper generates ten minutes of driving video and measures (a) how many
//! consecutive frames objects go misdetected (IoU < 60 %) and (b) the
//! distribution of bounding-box-center errors normalized by box size. This
//! module reproduces the measurement over the simulated detector: a static
//! characterization scene with vehicles and pedestrians at representative
//! distances, observed for the requested number of frames.
//!
//! Measurement conventions (documented deviations from the paper's §VI-A
//! wording, chosen so the measured fits recover the *injected* Fig. 5
//! distributions): a "misdetection" is a frame where the detector emits no
//! box for the object (detection failure), and center errors are taken for
//! every emitted detection matched to its object — the paper's
//! "overlapping boxes only" filter would truncate the pedestrian
//! distribution (σ_x ≈ 2 box widths means most detections do not overlap
//! their ground truth box at all).

use crate::stats::{fit_exponential, histogram, mean, std_dev, ExponentialFit};
use crate::tally::{self, Work};
use av_perception::calibration::DetectorCalibration;
use av_perception::detector::Detector;
use av_sensing::camera::Camera;
use av_sensing::frame::capture;
use av_simkit::actor::{Actor, ActorId, ActorKind};
use av_simkit::behavior::Behavior;
use av_simkit::math::Vec2;
use av_simkit::rng::run_rng;
use av_simkit::road::Road;
use av_simkit::world::World;

/// Raw characterization measurements, per class.
#[derive(Debug, Clone, Default)]
pub struct DetectorCharacterization {
    /// Continuous misdetection streak lengths for pedestrians (frames).
    pub ped_streaks: Vec<f64>,
    /// Continuous misdetection streak lengths for vehicles (frames).
    pub veh_streaks: Vec<f64>,
    /// Normalized bbox-center x errors, vehicles.
    pub veh_dx: Vec<f64>,
    /// Normalized bbox-center y errors, vehicles.
    pub veh_dy: Vec<f64>,
    /// Normalized bbox-center x errors, pedestrians.
    pub ped_dx: Vec<f64>,
    /// Normalized bbox-center y errors, pedestrians.
    pub ped_dy: Vec<f64>,
    /// Camera frames observed.
    pub frames: u64,
}

/// Builds the characterization scene: vehicles and pedestrians at the
/// distances where the scenario interactions happen.
fn characterization_world() -> World {
    let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 0.0, Behavior::Ego);
    let mut world = World::new(Road::default(), ego);
    let actors = [
        (1, ActorKind::Car, 25.0, 0.0),
        (2, ActorKind::Car, 45.0, 3.5),
        (3, ActorKind::Truck, 70.0, -3.5),
        (4, ActorKind::Pedestrian, 20.0, 3.0),
        (5, ActorKind::Pedestrian, 35.0, -4.5),
        (6, ActorKind::Pedestrian, 50.0, 5.0),
    ];
    for (id, kind, x, y) in actors {
        world
            .add_actor(Actor::new(
                ActorId(id),
                kind,
                Vec2::new(x, y),
                0.0,
                Behavior::Parked,
            ))
            .expect("unique ids");
    }
    world
}

/// Observes the detector for `frames` camera frames and collects the Fig. 5
/// measurements. Deterministic per `seed`.
pub fn characterize_detector(frames: u64, seed: u64) -> DetectorCharacterization {
    let world = characterization_world();
    let camera = Camera::default();
    let mut detector = Detector::new(DetectorCalibration::paper());
    let mut rng = run_rng(seed, 0xF165);
    tally::add(Work::Frame, frames);

    let mut result = DetectorCharacterization {
        frames,
        ..Default::default()
    };
    // The scene is static, so every frame has the same truth boxes; only
    // its sequence number changes.
    let mut frame = capture(&camera, &world, 0, false);
    // Running misdetection streak length per truth box.
    let mut streaks = vec![0u64; frame.truth.len()];
    let mut detections = Vec::with_capacity(frame.truth.len());

    for seq in 0..frames {
        frame.seq = seq;
        detector.detect_into(&frame, &mut rng, &mut detections);
        for (tb, streak) in frame.truth.iter().zip(&mut streaks) {
            let det = detections.iter().find(|d| d.provenance == Some(tb.actor));
            if det.is_some() {
                if *streak > 0 {
                    let out = if tb.kind.is_vehicle() {
                        &mut result.veh_streaks
                    } else {
                        &mut result.ped_streaks
                    };
                    out.push(*streak as f64);
                    *streak = 0;
                }
            } else {
                *streak += 1;
            }
            // Center errors over every matched detection (see module docs).
            if let Some(d) = det {
                let (dcx, dcy) = d.bbox.center();
                let (tcx, tcy) = tb.bbox.center();
                let dx = (dcx - tcx) / tb.bbox.width();
                let dy = (dcy - tcy) / tb.bbox.height();
                if tb.kind.is_vehicle() {
                    result.veh_dx.push(dx);
                    result.veh_dy.push(dy);
                } else {
                    result.ped_dx.push(dx);
                    result.ped_dy.push(dy);
                }
            }
        }
    }
    result
}

/// Bins of each Fig. 5 streak histogram.
pub const STREAK_BINS: usize = 32;

/// Width of a Fig. 5 streak histogram bin (frames).
pub const STREAK_BIN_FRAMES: f64 = 5.0;

/// One streak class of Fig. 5: its shifted-exponential fit and histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreakFold {
    /// The fit of the class's streak lengths.
    pub fit: ExponentialFit,
    /// Streaks per [`STREAK_BIN_FRAMES`]-wide bin from `fit.loc`; the last
    /// bin also holds every longer streak.
    pub counts: [u64; STREAK_BINS],
}

/// One center-error series of Fig. 5: its normal fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorFold {
    /// Mean µ.
    pub mean: f64,
    /// Standard deviation σ.
    pub std_dev: f64,
    /// Sample count.
    pub n: u64,
}

/// What Fig. 5 renders of a [`DetectorCharacterization`]: the fits and
/// histograms, not the samples. `None` marks a series too short to fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Fold {
    /// Camera frames observed.
    pub frames: u64,
    /// Pedestrian, then vehicle misdetection streaks.
    pub streaks: [Option<StreakFold>; 2],
    /// Vehicle Δx/width, vehicle Δy/height, pedestrian Δx/width,
    /// pedestrian Δy/height.
    pub errors: [Option<ErrorFold>; 4],
}

impl Fig5Fold {
    /// Folds `c` into what Fig. 5 renders.
    pub fn of(c: &DetectorCharacterization) -> Fig5Fold {
        let streak = |xs: &[f64]| {
            let fit = fit_exponential(xs)?;
            let bins = histogram(xs, STREAK_BIN_FRAMES, STREAK_BINS);
            let mut counts = [0; STREAK_BINS];
            for (count, (_, n)) in counts.iter_mut().zip(bins) {
                *count = n as u64;
            }
            Some(StreakFold { fit, counts })
        };
        // The moments `fit_normal` takes, without its percentile sort.
        let error = |xs: &[f64]| {
            (xs.len() >= 2).then(|| ErrorFold {
                mean: mean(xs),
                std_dev: std_dev(xs),
                n: xs.len() as u64,
            })
        };
        Fig5Fold {
            frames: c.frames,
            streaks: [streak(&c.ped_streaks), streak(&c.veh_streaks)],
            errors: [
                error(&c.veh_dx),
                error(&c.veh_dy),
                error(&c.ped_dx),
                error(&c.ped_dy),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{fit_exponential, fit_normal};

    #[test]
    fn characterization_recovers_injected_noise() {
        let c = characterize_detector(12_000, 7);
        // Vehicle x error: Normal(0.023, 0.464) within tolerance.
        let veh_x = fit_normal(&c.veh_dx).unwrap();
        assert!((veh_x.mean - 0.023).abs() < 0.05, "mean {}", veh_x.mean);
        assert!(
            (veh_x.std_dev - 0.464).abs() < 0.05,
            "std {}",
            veh_x.std_dev
        );
        // Pedestrian x error is far wider than vehicles (σ ≈ 2.0).
        let ped_x = fit_normal(&c.ped_dx).unwrap();
        assert!(
            ped_x.std_dev > 3.0 * veh_x.std_dev,
            "ped σ {}",
            ped_x.std_dev
        );
    }

    #[test]
    fn streaks_fit_shifted_exponentials() {
        let c = characterize_detector(12_000, 7);
        assert!(
            c.veh_streaks.len() > 50,
            "veh streaks {}",
            c.veh_streaks.len()
        );
        assert!(
            c.ped_streaks.len() > 50,
            "ped streaks {}",
            c.ped_streaks.len()
        );
        let veh = fit_exponential(&c.veh_streaks).unwrap();
        let ped = fit_exponential(&c.ped_streaks).unwrap();
        assert!(veh.loc >= 1.0);
        // Vehicles misdetect in longer streaks than pedestrians
        // (λ_veh = 0.327 < λ_ped = 0.717), hence a smaller fitted λ.
        assert!(
            veh.lambda < ped.lambda,
            "veh λ {} ped λ {}",
            veh.lambda,
            ped.lambda
        );
    }

    #[test]
    fn characterization_is_deterministic() {
        let a = characterize_detector(500, 3);
        let b = characterize_detector(500, 3);
        assert_eq!(a.veh_dx, b.veh_dx);
        assert_eq!(a.ped_streaks, b.ped_streaks);
    }
}
