//! Camera–LiDAR sensor fusion producing the world model `Wt`.
//!
//! Fusion follows Apollo-5.0-style *camera primacy for camera-born objects*:
//!
//! 1. **Camera tracks are authoritative.** Every confirmed camera track is
//!    published immediately; its trajectory in the world model follows the
//!    camera (classification and lateral motion come from the camera
//!    pipeline). An associated LiDAR return refines the *longitudinal*
//!    position — LiDAR ranging is far better than mono-camera ranging.
//! 2. **LiDAR sustains but cannot steer.** If the camera track dies, a
//!    matching LiDAR return keeps the object published for a short sustain
//!    window, after which the object is dropped as stale.
//! 3. **LiDAR-only evidence registers slowly.** Returns that match no
//!    published object accumulate as candidates and are only published after
//!    `lidar_register` *consecutive* scans. This is the registration delay
//!    the paper observes (§VI-C): it is why attacks against vehicles must
//!    hold the perturbation for tens of frames while pedestrian attacks —
//!    no LiDAR corroboration at range — need only a handful.
//!
//! The published objects carry an alpha–beta-filtered velocity estimate used
//! by planning (closing speed) and by the malware's scenario matcher.

use crate::tracker::TrackId;
use crate::types::{Support, WorldObject};
use av_sensing::lidar::LidarScan;
use av_simkit::actor::{ActorId, ActorKind, Size};
use av_simkit::math::Vec2;

/// One camera-pipeline observation handed to fusion: a confirmed track
/// back-projected to the ground plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraObservation {
    /// The camera track this observation comes from.
    pub track: TrackId,
    /// Track class.
    pub kind: ActorKind,
    /// Ground-plane position in world coordinates (m).
    pub position: Vec2,
    /// Evaluation-only provenance.
    pub provenance: Option<ActorId>,
}

/// Fusion configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// Camera–LiDAR association gate (m).
    pub assoc_gate: f64,
    /// LiDAR scans a camera-born object survives after losing its track.
    pub lidar_sustain: u32,
    /// Consecutive LiDAR scans required to publish a LiDAR-only object.
    pub lidar_register: u32,
    /// Camera frames an object survives with neither camera nor LiDAR.
    pub orphan_grace: u32,
    /// Consecutive camera updates a *new* camera-born object needs before
    /// it is published (fusion must re-establish a track that reappears
    /// after a gap — this is what keeps the EV blind for a moment after an
    /// attack window closes).
    pub camera_register: u32,
    /// Alpha gain of the position/velocity filter.
    pub alpha: f64,
    /// Beta gain of the position/velocity filter.
    pub beta: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            assoc_gate: 2.5,
            lidar_sustain: 2,
            lidar_register: 40,
            orphan_grace: 3,
            camera_register: 8,
            alpha: 0.4,
            beta: 0.09,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    id: u64,
    kind: ActorKind,
    /// Consecutive camera updates so far (for the registration gate).
    camera_confirms: u32,
    /// Once published, an entry stays published while it lives.
    established: bool,
    track: Option<TrackId>,
    position: Vec2,
    velocity: Vec2,
    extent: (f64, f64),
    last_update_t: f64,
    /// LiDAR scans since the camera track vanished (sustain counter).
    scans_without_camera: u32,
    /// Camera frames with neither sensor matching.
    orphan_frames: u32,
    /// Consecutive LiDAR scans without a matching return.
    lidar_misses: u32,
    lidar_supported: bool,
    provenance: Option<ActorId>,
}

/// One alpha–beta filter step along a single axis.
fn ab_update(pos: &mut f64, vel: &mut f64, z: f64, dt: f64, alpha: f64, beta: f64) {
    let predicted = *pos + *vel * dt;
    let residual = z - predicted;
    *pos = predicted + alpha * residual;
    *vel += (beta / dt) * residual;
}

impl Entry {
    /// Fuses a camera position measurement. While LiDAR supports the entry,
    /// the camera's (noisy, mono-ranging) longitudinal component is nearly
    /// ignored — LiDAR owns the range, the camera owns the lateral motion.
    fn camera_update(&mut self, z: Vec2, t: f64, alpha: f64, beta: f64) {
        // Clamp dt: co-timed sensor callbacks must not explode the beta/dt
        // velocity gain.
        let dt = (t - self.last_update_t).max(1.0 / av_simkit::units::SIM_HZ);
        if self.lidar_supported {
            // LiDAR owns the range entirely; just coast x between scans.
            self.position.x += self.velocity.x * dt;
        } else {
            ab_update(
                &mut self.position.x,
                &mut self.velocity.x,
                z.x,
                dt,
                alpha,
                beta,
            );
        }
        ab_update(
            &mut self.position.y,
            &mut self.velocity.y,
            z.y,
            dt,
            alpha,
            beta,
        );
        self.last_update_t = t;
    }

    /// Fuses a full LiDAR position measurement (sustain mode).
    fn lidar_update(&mut self, z: Vec2, t: f64, alpha: f64, beta: f64) {
        let dt = (t - self.last_update_t).max(0.05);
        ab_update(
            &mut self.position.x,
            &mut self.velocity.x,
            z.x,
            dt,
            alpha,
            beta,
        );
        ab_update(
            &mut self.position.y,
            &mut self.velocity.y,
            z.y,
            dt,
            alpha,
            beta,
        );
        self.last_update_t = t;
    }

    /// Fuses a LiDAR range refinement (camera still steering).
    fn lidar_refine_x(&mut self, zx: f64, t: f64) {
        // Velocity gain is normalized by the nominal scan period, not the
        // (possibly ~0) wall-clock gap to the co-timed camera update.
        let nominal = 1.0 / av_simkit::units::LIDAR_HZ;
        self.position += self.velocity * ((t - self.last_update_t).max(0.0));
        let residual = zx - self.position.x;
        self.position.x += 0.7 * residual;
        self.velocity.x += (0.35 / nominal) * residual;
        self.last_update_t = t;
    }

    fn coast_to(&mut self, t: f64) {
        let dt = (t - self.last_update_t).max(0.0);
        self.position += self.velocity * dt;
        self.last_update_t = t;
    }
}

#[derive(Debug, Clone)]
struct Candidate {
    position: Vec2,
    velocity: Vec2,
    extent: (f64, f64),
    count: u32,
    matched_this_scan: bool,
    last_t: f64,
}

/// Camera–LiDAR fusion state machine.
#[derive(Debug, Clone)]
pub struct Fusion {
    config: FusionConfig,
    entries: Vec<Entry>,
    candidates: Vec<Candidate>,
    next_id: u64,
    /// Reused per-call match flags (camera observations / LiDAR returns).
    matched: Vec<bool>,
}

impl Fusion {
    /// Creates an empty fusion stage.
    pub fn new(config: FusionConfig) -> Self {
        Fusion {
            config,
            entries: Vec::new(),
            candidates: Vec::new(),
            next_id: 0,
            matched: Vec::new(),
        }
    }

    /// The fusion configuration.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Ingests the camera pipeline's confirmed tracks at time `t`.
    pub fn on_camera(&mut self, observations: &[CameraObservation], t: f64) {
        let mut claimed = std::mem::take(&mut self.matched);
        claimed.clear();
        claimed.resize(observations.len(), false);

        // Update entries that already follow a camera track.
        for entry in &mut self.entries {
            let Some(track) = entry.track else { continue };
            if let Some((i, obs)) = observations
                .iter()
                .enumerate()
                .find(|(_, o)| o.track == track)
            {
                claimed[i] = true;
                entry.camera_update(obs.position, t, self.config.alpha, self.config.beta);
                entry.kind = obs.kind;
                entry.provenance = obs.provenance;
                entry.scans_without_camera = 0;
                entry.orphan_frames = 0;
                entry.camera_confirms += 1;
                if entry.camera_confirms >= self.config.camera_register {
                    entry.established = true;
                }
            } else {
                entry.track = None; // track died; LiDAR sustain takes over
            }
        }

        // Remaining observations: adopt the nearest track-less entry within
        // the gate (a re-born track for the same physical object), else
        // publish a fresh object (camera authority).
        for (i, obs) in observations.iter().enumerate() {
            if claimed[i] {
                continue;
            }
            let adopt = self
                .entries
                .iter_mut()
                .filter(|e| e.track.is_none())
                .map(|e| {
                    let d = e.position.distance(obs.position);
                    (e, d)
                })
                .filter(|(_, d)| *d <= self.config.assoc_gate)
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match adopt {
                Some((entry, _)) => {
                    entry.track = Some(obs.track);
                    entry.kind = obs.kind;
                    entry.camera_update(obs.position, t, self.config.alpha, self.config.beta);
                    entry.provenance = obs.provenance;
                    entry.scans_without_camera = 0;
                    entry.orphan_frames = 0;
                    entry.camera_confirms += 1;
                }
                None => {
                    let size = Size::for_kind(obs.kind);
                    self.entries.push(Entry {
                        id: self.next_id,
                        kind: obs.kind,
                        camera_confirms: 1,
                        established: self.config.camera_register <= 1,
                        track: Some(obs.track),
                        position: obs.position,
                        velocity: Vec2::ZERO,
                        extent: (size.length, size.width),
                        last_update_t: t,
                        scans_without_camera: 0,
                        orphan_frames: 0,
                        lidar_misses: 0,
                        lidar_supported: false,
                        provenance: obs.provenance,
                    });
                    self.next_id += 1;
                }
            }
        }

        // Entries with no sensor support at all age out quickly.
        for entry in &mut self.entries {
            if entry.track.is_none() && !entry.lidar_supported {
                entry.orphan_frames += 1;
            }
        }
        let grace = self.config.orphan_grace;
        self.entries
            .retain(|e| e.track.is_some() || e.lidar_supported || e.orphan_frames <= grace);
        self.matched = claimed;
    }

    /// Ingests a LiDAR scan.
    pub fn on_lidar(&mut self, scan: &LidarScan) {
        let t = scan.t;
        let gate = self.config.assoc_gate;
        let mut used = std::mem::take(&mut self.matched);
        used.clear();
        used.resize(scan.objects.len(), false);

        for entry in &mut self.entries {
            let nearest = scan
                .objects
                .iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .map(|(i, o)| (i, o, entry.position.distance(o.position)))
                .filter(|(_, _, d)| *d <= gate)
                .min_by(|a, b| a.2.total_cmp(&b.2));
            match nearest {
                Some((i, obj, _)) => {
                    used[i] = true;
                    entry.lidar_misses = 0;
                    entry.lidar_supported = true;
                    entry.extent = obj.extent;
                    entry.orphan_frames = 0;
                    if entry.track.is_some() {
                        // Camera steers; LiDAR refines the longitudinal range.
                        entry.lidar_refine_x(obj.position.x, t);
                    } else {
                        // Sustain mode: LiDAR holds the object in place.
                        entry.lidar_update(obj.position, t, self.config.alpha, self.config.beta);
                        entry.scans_without_camera += 1;
                    }
                }
                None => {
                    entry.lidar_supported = false;
                    entry.lidar_misses += 1;
                    if entry.track.is_none() {
                        entry.coast_to(t);
                        entry.scans_without_camera += 1;
                    }
                }
            }
        }
        // Camera-born entries that lost their track survive on LiDAR only
        // briefly; LiDAR-born entries live as long as LiDAR keeps seeing
        // them (they already waited out the slow registration gate).
        let sustain = self.config.lidar_sustain;
        self.entries.retain(|e| {
            if e.track.is_some() {
                true
            } else if e.camera_confirms == 0 {
                e.lidar_misses <= 3
            } else {
                e.scans_without_camera <= sustain
            }
        });

        // Unexplained returns feed the slow LiDAR-only registration path.
        for candidate in &mut self.candidates {
            candidate.matched_this_scan = false;
        }
        for (i, obj) in scan.objects.iter().enumerate() {
            if used[i] {
                continue;
            }
            let matched = self
                .candidates
                .iter_mut()
                .filter(|c| !c.matched_this_scan)
                .map(|c| {
                    let dt = (t - c.last_t).max(1e-3);
                    let d = (c.position + c.velocity * dt).distance(obj.position);
                    (c, d)
                })
                .filter(|(_, d)| *d <= gate)
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match matched {
                Some((c, _)) => {
                    let dt = (t - c.last_t).max(1e-3);
                    let v = (obj.position - c.position) / dt;
                    c.velocity = c.velocity.lerp(v, 0.5);
                    c.position = obj.position;
                    c.extent = obj.extent;
                    c.count += 1;
                    c.matched_this_scan = true;
                    c.last_t = t;
                }
                None => self.candidates.push(Candidate {
                    position: obj.position,
                    velocity: Vec2::ZERO,
                    extent: obj.extent,
                    count: 1,
                    matched_this_scan: true,
                    last_t: t,
                }),
            }
        }
        // Candidates must be *consecutive*: drop any that skipped this scan.
        self.candidates.retain(|c| c.matched_this_scan);

        // Promote candidates that survived the registration delay.
        let register = self.config.lidar_register;
        let mut promoted = Vec::new();
        self.candidates.retain(|c| {
            if c.count >= register {
                promoted.push(c.clone());
                false
            } else {
                true
            }
        });
        for c in promoted {
            self.entries.push(Entry {
                id: self.next_id,
                // LiDAR cannot classify; unknown obstacles are treated as
                // vehicles by planning (conservative).
                kind: ActorKind::Car,
                camera_confirms: 0,
                established: true, // already waited out the LiDAR gate
                track: None,
                position: c.position,
                velocity: c.velocity,
                extent: c.extent,
                last_update_t: t,
                scans_without_camera: 0,
                orphan_frames: 0,
                lidar_misses: 0,
                lidar_supported: true,
                provenance: None,
            });
            self.next_id += 1;
        }
        self.matched = used;
    }

    /// The current world model.
    pub fn world_model(&self) -> Vec<WorldObject> {
        self.entries
            .iter()
            .filter(|e| e.established)
            .map(|e| WorldObject {
                id: e.id,
                kind: e.kind,
                position: e.position,
                velocity: e.velocity,
                extent: e.extent,
                support: match (e.track.is_some(), e.lidar_supported) {
                    (true, true) => Support::CameraAndLidar,
                    (true, false) => Support::CameraOnly,
                    (false, _) => Support::LidarOnly,
                },
                track: e.track,
                provenance: e.provenance,
            })
            .collect()
    }

    /// Clears all state and restarts the id sequence (between runs), so a
    /// reused fusion stage behaves exactly like a freshly constructed one.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.candidates.clear();
        self.next_id = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_sensing::lidar::LidarObject;

    fn obs(track: u64, x: f64, y: f64, kind: ActorKind) -> CameraObservation {
        CameraObservation {
            track: TrackId(track),
            kind,
            position: Vec2::new(x, y),
            provenance: Some(ActorId(1)),
        }
    }

    /// Feeds `o` for enough camera frames to pass the registration gate,
    /// ending at time `t0`.
    fn establish(f: &mut Fusion, o: CameraObservation, t0: f64) {
        let n = f.config.camera_register;
        for i in 0..n {
            let t = t0 - f64::from(n - 1 - i) / 15.0;
            f.on_camera(&[o], t);
        }
    }

    fn scan(t: f64, positions: &[(f64, f64)]) -> LidarScan {
        LidarScan {
            t,
            objects: positions
                .iter()
                .map(|&(x, y)| LidarObject {
                    position: Vec2::new(x, y),
                    extent: (4.6, 1.9),
                })
                .collect(),
        }
    }

    #[test]
    fn camera_track_publishes_after_registration_gate() {
        let mut f = Fusion::new(FusionConfig::default());
        let o = obs(0, 30.0, 0.0, ActorKind::Car);
        let n = f.config.camera_register;
        for i in 0..n {
            assert!(f.world_model().is_empty(), "unpublished before the gate");
            f.on_camera(&[o], f64::from(i) / 15.0);
        }
        let wm = f.world_model();
        assert_eq!(wm.len(), 1);
        assert_eq!(wm[0].support, Support::CameraOnly);
        assert_eq!(wm[0].kind, ActorKind::Car);
    }

    #[test]
    fn lidar_refines_longitudinal_only() {
        let mut f = Fusion::new(FusionConfig::default());
        establish(&mut f, obs(0, 31.5, 0.4, ActorKind::Car), 0.0);
        f.on_lidar(&scan(0.05, &[(30.0, 0.0)]));
        let wm = f.world_model();
        assert_eq!(wm[0].support, Support::CameraAndLidar);
        assert!(
            (wm[0].position.x - 30.0).abs() < 0.5,
            "LiDAR range used: {}",
            wm[0].position.x
        );
        assert!((wm[0].position.y - 0.4).abs() < 1e-9, "camera lateral kept");
    }

    #[test]
    fn diverged_camera_keeps_steering_object() {
        // A Move_Out attack walks the camera track laterally; the published
        // object must follow the camera even once LiDAR stops matching.
        let mut f = Fusion::new(FusionConfig::default());
        let mut t = 0.0;
        for i in 0..30 {
            let y = 0.15 * f64::from(i); // drift to 4.35 m
            f.on_camera(&[obs(0, 30.0, y, ActorKind::Car)], t);
            if i % 3 == 2 {
                f.on_lidar(&scan(t + 0.01, &[(30.0, 0.0)]));
            }
            t += 1.0 / 15.0;
        }
        let wm = f.world_model();
        let steered = wm.iter().find(|o| o.support != Support::LidarOnly).unwrap();
        assert!(
            steered.position.y > 2.5,
            "object followed camera: y = {}",
            steered.position.y
        );
    }

    #[test]
    fn lidar_only_registration_is_slow() {
        let cfg = FusionConfig::default();
        let mut f = Fusion::new(cfg);
        let mut t = 0.0;
        for i in 0..cfg.lidar_register {
            f.on_lidar(&scan(t, &[(40.0, 0.0)]));
            t += 0.1;
            if i < cfg.lidar_register - 1 {
                assert!(
                    f.world_model().is_empty(),
                    "published too early at scan {i}"
                );
            }
        }
        let wm = f.world_model();
        assert_eq!(wm.len(), 1);
        assert_eq!(wm[0].support, Support::LidarOnly);
        assert_eq!(
            wm[0].kind,
            ActorKind::Car,
            "unknown obstacles reported as vehicles"
        );
    }

    #[test]
    fn candidate_requires_consecutive_scans() {
        let cfg = FusionConfig::default();
        let mut f = Fusion::new(cfg);
        for i in 0..200u32 {
            // A return that appears only every other scan never registers.
            let objs: &[(f64, f64)] = if i % 2 == 0 { &[(40.0, 0.0)] } else { &[] };
            f.on_lidar(&scan(f64::from(i) * 0.1, objs));
        }
        assert!(f.world_model().is_empty());
    }

    #[test]
    fn lidar_sustains_then_drops_after_camera_death() {
        let cfg = FusionConfig::default();
        let mut f = Fusion::new(cfg);
        establish(&mut f, obs(0, 30.0, 0.0, ActorKind::Car), 0.0);
        // Camera vanishes (Disappear attack); LiDAR keeps returning.
        let mut t = 0.1;
        f.on_camera(&[], t);
        for i in 0..cfg.lidar_sustain {
            f.on_lidar(&scan(t, &[(30.0, 0.0)]));
            t += 0.1;
            assert_eq!(f.world_model().len(), 1, "sustained at scan {i}");
        }
        f.on_lidar(&scan(t, &[(30.0, 0.0)]));
        assert!(f.world_model().is_empty(), "dropped after sustain window");
    }

    #[test]
    fn camera_only_object_drops_quickly_without_camera() {
        let cfg = FusionConfig::default();
        let mut f = Fusion::new(cfg);
        establish(&mut f, obs(0, 40.0, 0.0, ActorKind::Pedestrian), 0.0);
        let mut t = 1.0 / 15.0;
        for _ in 0..cfg.orphan_grace {
            f.on_camera(&[], t);
            assert_eq!(f.world_model().len(), 1);
            t += 1.0 / 15.0;
        }
        f.on_camera(&[], t);
        assert!(f.world_model().is_empty());
    }

    #[test]
    fn reborn_track_adopts_existing_entry() {
        let mut f = Fusion::new(FusionConfig::default());
        establish(&mut f, obs(0, 30.0, 0.0, ActorKind::Car), 0.0);
        let id0 = f.world_model()[0].id;
        // Track 0 dies, track 7 appears at the same place one frame later:
        // the established entry is adopted, no re-registration delay.
        f.on_camera(&[obs(7, 30.3, 0.0, ActorKind::Car)], 1.0 / 15.0);
        let wm = f.world_model();
        assert_eq!(wm.len(), 1, "no duplicate object");
        assert_eq!(wm[0].id, id0, "same fused identity");
    }

    #[test]
    fn velocity_estimate_converges() {
        let mut f = Fusion::new(FusionConfig::default());
        let dt = 1.0 / 15.0;
        for i in 0..60 {
            let t = dt * f64::from(i);
            f.on_camera(&[obs(0, 30.0 + 5.0 * t, 0.0, ActorKind::Car)], t);
        }
        let v = f.world_model()[0].velocity;
        assert!((v.x - 5.0).abs() < 1.0, "vx = {}", v.x);
    }
}
