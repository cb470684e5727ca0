//! The five driving scenarios of §V-C, rebuilt on the plan-view world.
//!
//! All scenarios play out on a straight 3-lane road (ego lane, one adjacent
//! traffic lane to the left, a parking lane to the right) with a 50 kph limit,
//! mirroring the paper's Borregas Avenue setup. The ego cruises at 45 kph
//! unless the scenario says otherwise.

use crate::actor::{Actor, ActorId, ActorKind};
use crate::behavior::{Behavior, OnFinish, Waypoint};
use crate::math::Vec2;
use crate::rng;
use crate::road::Road;
use crate::units::kph_to_mps;
use crate::world::World;

/// Identifier of a driving scenario from the paper (§V-C, Fig. 4), or a
/// procedurally generated scenario identified by its spec content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// DS-1: ego follows a slower target vehicle in its lane.
    Ds1,
    /// DS-2: a pedestrian illegally crosses the street ahead of the ego.
    Ds2,
    /// DS-3: a target vehicle is parked in the parking lane.
    Ds3,
    /// DS-4: a pedestrian walks toward the ego in the parking lane, then stops.
    Ds4,
    /// DS-5: DS-1 plus random traffic — the random-attack baseline scenario.
    Ds5,
    /// A procedurally generated scenario, identified by the content hash of
    /// its `ScenarioSpec` (see the `av-scenarios` crate). The spec itself is
    /// carried out of band ([`Scenario::build`] cannot rebuild it); the hash
    /// is what cache keys, labels, and manifests record.
    Gen(u64),
}

impl ScenarioId {
    /// The five fixed paper scenarios, in paper order.
    pub const ALL: [ScenarioId; 5] = [
        ScenarioId::Ds1,
        ScenarioId::Ds2,
        ScenarioId::Ds3,
        ScenarioId::Ds4,
        ScenarioId::Ds5,
    ];

    /// The paper's name for the scenario; generated scenarios share the
    /// static `"GEN"` tag (use [`ScenarioId::label`] or `Display` for the
    /// hash-qualified form).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioId::Ds1 => "DS-1",
            ScenarioId::Ds2 => "DS-2",
            ScenarioId::Ds3 => "DS-3",
            ScenarioId::Ds4 => "DS-4",
            ScenarioId::Ds5 => "DS-5",
            ScenarioId::Gen(_) => "GEN",
        }
    }

    /// A unique label: the paper name for fixed scenarios, the
    /// hash-qualified `GEN-xxxxxxxxxxxxxxxx` form for generated ones.
    pub fn label(self) -> String {
        match self {
            ScenarioId::Gen(hash) => format!("GEN-{hash:016x}"),
            fixed => fixed.name().to_string(),
        }
    }

    /// The content hash of a generated scenario, if this is one.
    pub fn gen_hash(self) -> Option<u64> {
        match self {
            ScenarioId::Gen(hash) => Some(hash),
            _ => None,
        }
    }

    /// Whether the scenario's target object is a pedestrian. Generated
    /// scenarios answer `false` here; their built worlds carry the actual
    /// target kind.
    pub fn target_is_pedestrian(self) -> bool {
        matches!(self, ScenarioId::Ds2 | ScenarioId::Ds4)
    }
}

impl std::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioId::Gen(hash) => write!(f, "GEN-{hash:016x}"),
            fixed => f.write_str(fixed.name()),
        }
    }
}

/// The knobs [`Scenario::build`] historically hardcoded: road geometry,
/// cruise speed, spawn jitter, and the DS-5 traffic population. The default
/// reproduces the paper setup bit-for-bit (the golden-trace suite pins it);
/// spec-driven callers can widen any of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Road layout (lane width, lane count, speed limit).
    pub road: Road,
    /// Ego cruise speed (kph). The paper drives Borregas Avenue at 45 kph.
    pub cruise_kph: f64,
    /// Half-width of the uniform longitudinal spawn jitter (m); every
    /// scripted actor's x0 draws from `±jitter_m`.
    pub jitter_m: f64,
    /// DS-5: oncoming NPC count range (inclusive).
    pub oncoming_count: (usize, usize),
    /// DS-5: oncoming NPC spawn range along x (m, half-open).
    pub oncoming_x: (f64, f64),
    /// DS-5: oncoming NPC speed range (kph, half-open).
    pub oncoming_speed_kph: (f64, f64),
    /// DS-5: trailing-car speed range (kph, half-open).
    pub rear_speed_kph: (f64, f64),
    /// DS-5: actor id of the first oncoming NPC (consecutive ids follow).
    pub first_npc_id: u32,
    /// DS-5: actor id of the trailing car.
    pub rear_id: u32,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            road: Road::default(),
            cruise_kph: 45.0,
            jitter_m: 2.0,
            oncoming_count: (2, 4),
            oncoming_x: (60.0, 240.0),
            oncoming_speed_kph: (20.0, 40.0),
            rear_speed_kph: (20.0, 30.0),
            first_npc_id: 10,
            rear_id: 20,
        }
    }
}

/// A fully built scenario: the initial world plus run metadata.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which scenario this is.
    pub id: ScenarioId,
    /// The initial world state.
    pub world: World,
    /// The scripted target object (the paper's "TO"/"TV").
    pub target: ActorId,
    /// The ego's cruise speed for the run (m/s).
    pub cruise_speed: f64,
    /// Nominal duration of the run in seconds.
    pub duration: f64,
}

/// The actor id reserved for the ego vehicle in every scenario.
pub const EGO_ID: ActorId = ActorId(0);
/// The actor id reserved for the scripted target object in every scenario.
pub const TARGET_ID: ActorId = ActorId(1);

impl Scenario {
    /// Builds scenario `id` with the paper's parameters. `seed` randomizes
    /// the DS-5 traffic and adds small per-run jitter to initial positions
    /// (±2 m longitudinal), so campaigns explore slightly different
    /// interaction timings, like the paper's 150–200 runs per campaign do.
    ///
    /// # Panics
    ///
    /// Panics on [`ScenarioId::Gen`]: generated scenarios carry their world
    /// recipe in a `ScenarioSpec` (the `av-scenarios` crate) and are built
    /// by sampling that spec, not from the id alone.
    pub fn build(id: ScenarioId, seed: u64) -> Scenario {
        Scenario::build_with(id, seed, &ScenarioParams::default())
    }

    /// Builds scenario `id` with explicit [`ScenarioParams`]. The default
    /// parameters reproduce [`Scenario::build`] bit-for-bit; everything the
    /// five fixed scenarios used to hardcode (road geometry, cruise speed,
    /// jitter width, the DS-5 traffic population and its actor-id layout)
    /// is a parameter here.
    ///
    /// # Panics
    ///
    /// Panics on [`ScenarioId::Gen`] (see [`Scenario::build`]).
    pub fn build_with(id: ScenarioId, seed: u64, params: &ScenarioParams) -> Scenario {
        let mut rng = rng::run_rng(seed, 0xD5);
        let road = params.road.clone();
        let cruise = kph_to_mps(params.cruise_kph);
        let jitter_m = params.jitter_m;
        let jitter = move |rng: &mut rand::rngs::StdRng| {
            if jitter_m > 0.0 {
                rng.random_range(-jitter_m..jitter_m)
            } else {
                0.0
            }
        };

        let ego = Actor::new(
            EGO_ID,
            ActorKind::Car,
            Vec2::new(0.0, 0.0),
            cruise,
            Behavior::Ego,
        );
        let mut world = World::new(road, ego);

        let (target, duration) = match id {
            ScenarioId::Ds1 => {
                let v_tv = kph_to_mps(25.0);
                let x0 = 60.0 + jitter(&mut rng);
                let tv = Actor::new(
                    TARGET_ID,
                    ActorKind::Car,
                    Vec2::new(x0, 0.0),
                    v_tv,
                    Behavior::CruiseStraight { speed: v_tv },
                );
                world.add_actor(tv).expect("fresh world");
                (TARGET_ID, 45.0)
            }
            ScenarioId::Ds2 => {
                let x0 = 70.0 + jitter(&mut rng);
                let walk = 1.4;
                let ped = Actor::new(
                    TARGET_ID,
                    ActorKind::Pedestrian,
                    Vec2::new(x0, -6.5),
                    walk,
                    Behavior::waypoints(
                        vec![Waypoint::new(Vec2::new(x0, 6.5), walk)],
                        OnFinish::Stop,
                    ),
                );
                world.add_actor(ped).expect("fresh world");
                (TARGET_ID, 30.0)
            }
            ScenarioId::Ds3 => {
                let x0 = 90.0 + jitter(&mut rng);
                // Parked in the right-most (parking) lane, wherever the
                // road layout puts it (-3.5 m on the paper's road).
                let y = world.road.lane_center(world.road.min_lane);
                let tv = Actor::new(
                    TARGET_ID,
                    ActorKind::Car,
                    Vec2::new(x0, y),
                    0.0,
                    Behavior::Parked,
                );
                world.add_actor(tv).expect("fresh world");
                (TARGET_ID, 20.0)
            }
            ScenarioId::Ds4 => {
                let x0 = 95.0 + jitter(&mut rng);
                let walk = 1.4;
                let ped = Actor::new(
                    TARGET_ID,
                    ActorKind::Pedestrian,
                    Vec2::new(x0, -3.3),
                    walk,
                    Behavior::waypoints(
                        vec![Waypoint::new(Vec2::new(x0 - 5.0, -3.3), walk)],
                        OnFinish::Stop,
                    ),
                );
                world.add_actor(ped).expect("fresh world");
                (TARGET_ID, 25.0)
            }
            ScenarioId::Ds5 => {
                let v_tv = kph_to_mps(25.0);
                let x0 = 60.0 + jitter(&mut rng);
                let tv = Actor::new(
                    TARGET_ID,
                    ActorKind::Car,
                    Vec2::new(x0, 0.0),
                    v_tv,
                    Behavior::CruiseStraight { speed: v_tv },
                );
                world.add_actor(tv).expect("fresh world");
                // Oncoming traffic in the left-most lane plus a trailing
                // car, with randomized speeds and positions (§V-C: "random
                // waypoints and trajectories"). The lead-most oncoming car
                // (smallest x) gets the highest speed so same-lane NPCs
                // never drive through each other (no NPC-NPC collision
                // model in the plan-view world). Population size, spawn and
                // speed ranges, and the actor-id layout all come from
                // `params` (the historical values are the defaults).
                let (n_min, n_max) = params.oncoming_count;
                let n_oncoming = if n_min < n_max {
                    rng.random_range(n_min..=n_max)
                } else {
                    n_min
                };
                let (x_lo, x_hi) = params.oncoming_x;
                let mut xs: Vec<f64> = (0..n_oncoming)
                    .map(|_| {
                        if x_lo < x_hi {
                            rng.random_range(x_lo..x_hi)
                        } else {
                            x_lo
                        }
                    })
                    .collect();
                let (v_lo, v_hi) = params.oncoming_speed_kph;
                let mut vs: Vec<f64> = (0..n_oncoming)
                    .map(|_| {
                        kph_to_mps(if v_lo < v_hi {
                            rng.random_range(v_lo..v_hi)
                        } else {
                            v_lo
                        })
                    })
                    .collect();
                xs.sort_by(|a, b| a.total_cmp(b));
                vs.sort_by(|a, b| b.total_cmp(a));
                let oncoming_y = world.road.lane_center(world.road.max_lane);
                for (i, (x, v)) in xs.into_iter().zip(vs).enumerate() {
                    let mut npc = Actor::new(
                        ActorId(params.first_npc_id + i as u32),
                        ActorKind::Car,
                        Vec2::new(x, oncoming_y),
                        v,
                        Behavior::CruiseStraight { speed: v },
                    );
                    npc.pose.heading = std::f64::consts::PI; // oncoming
                    world.add_actor(npc).expect("fresh world");
                }
                let (r_lo, r_hi) = params.rear_speed_kph;
                let v_rear = kph_to_mps(if r_lo < r_hi {
                    rng.random_range(r_lo..r_hi)
                } else {
                    r_lo
                });
                let rear = Actor::new(
                    ActorId(params.rear_id),
                    ActorKind::Car,
                    Vec2::new(-30.0 + jitter(&mut rng), 0.0),
                    v_rear,
                    Behavior::CruiseStraight { speed: v_rear },
                );
                world.add_actor(rear).expect("fresh world");
                (TARGET_ID, 45.0)
            }
            ScenarioId::Gen(hash) => panic!(
                "ScenarioId::Gen({hash:#x}) has no standalone build recipe; \
                 sample its ScenarioSpec (av-scenarios) instead"
            ),
        };

        Scenario {
            id,
            world,
            target,
            cruise_speed: cruise,
            duration,
        }
    }

    /// Consumes the scenario and returns just the world (handy in doctests).
    pub fn into_world(self) -> World {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build_and_contain_target() {
        for id in ScenarioId::ALL {
            let s = Scenario::build(id, 1);
            assert_eq!(s.id, id);
            assert!(s.world.actor(s.target).is_some(), "{id} missing target");
            assert_eq!(s.world.ego().id, EGO_ID);
            assert!(s.duration > 0.0);
        }
    }

    #[test]
    fn ds1_target_ahead_in_lane() {
        let s = Scenario::build(ScenarioId::Ds1, 3);
        let tv = s.world.actor(s.target).unwrap();
        assert!(tv.pose.position.x > 50.0);
        assert_eq!(tv.pose.position.y, 0.0);
        assert!(tv.kind.is_vehicle());
    }

    #[test]
    fn ds2_pedestrian_starts_off_road() {
        let s = Scenario::build(ScenarioId::Ds2, 3);
        let ped = s.world.actor(s.target).unwrap();
        assert_eq!(ped.kind, ActorKind::Pedestrian);
        assert!(ped.pose.position.y < -5.25, "starts beyond the road edge");
    }

    #[test]
    fn ds3_vehicle_parked_out_of_path() {
        let s = Scenario::build(ScenarioId::Ds3, 3);
        let tv = s.world.actor(s.target).unwrap();
        assert_eq!(tv.speed, 0.0);
        assert_eq!(tv.pose.position.y, -3.5);
        assert!(s.world.in_path_obstacle(0.3).is_none());
    }

    #[test]
    fn ds5_has_random_traffic_and_is_seed_dependent() {
        let a = Scenario::build(ScenarioId::Ds5, 1);
        let b = Scenario::build(ScenarioId::Ds5, 2);
        assert!(a.world.actors().len() >= 4);
        let pos_a: Vec<f64> = a.world.others().map(|o| o.pose.position.x).collect();
        let pos_b: Vec<f64> = b.world.others().map(|o| o.pose.position.x).collect();
        assert_ne!(pos_a, pos_b);
        // Same seed reproduces exactly.
        let a2 = Scenario::build(ScenarioId::Ds5, 1);
        let pos_a2: Vec<f64> = a2.world.others().map(|o| o.pose.position.x).collect();
        assert_eq!(pos_a, pos_a2);
    }

    #[test]
    fn scenario_names_match_paper() {
        assert_eq!(ScenarioId::Ds1.to_string(), "DS-1");
        assert_eq!(ScenarioId::Ds5.name(), "DS-5");
        assert!(ScenarioId::Ds2.target_is_pedestrian());
        assert!(!ScenarioId::Ds3.target_is_pedestrian());
    }

    #[test]
    fn generated_ids_are_hash_labeled() {
        let id = ScenarioId::Gen(0xABCD);
        assert_eq!(id.name(), "GEN");
        assert_eq!(id.label(), "GEN-000000000000abcd");
        assert_eq!(id.to_string(), id.label());
        assert_eq!(id.gen_hash(), Some(0xABCD));
        assert_eq!(ScenarioId::Ds1.gen_hash(), None);
        assert!(!id.target_is_pedestrian());
    }

    /// Default params must reproduce `Scenario::build` bit-for-bit — the
    /// contract that lets `build` delegate to `build_with`.
    #[test]
    fn default_params_are_bit_identical_to_build() {
        for id in ScenarioId::ALL {
            for seed in [0, 7, 1234] {
                let a = Scenario::build(id, seed);
                let b = Scenario::build_with(id, seed, &ScenarioParams::default());
                assert_eq!(a.duration, b.duration);
                assert_eq!(a.world.actors().len(), b.world.actors().len());
                for (x, y) in a.world.actors().iter().zip(b.world.actors()) {
                    assert_eq!(x.id, y.id, "{id} seed {seed}");
                    assert_eq!(
                        x.pose.position.x.to_bits(),
                        y.pose.position.x.to_bits(),
                        "{id} seed {seed} actor {} x",
                        x.id
                    );
                    assert_eq!(x.pose.position.y.to_bits(), y.pose.position.y.to_bits());
                    assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                }
            }
        }
    }

    #[test]
    fn params_widen_the_ds5_population() {
        let params = ScenarioParams {
            oncoming_count: (6, 9),
            first_npc_id: 100,
            rear_id: 200,
            ..ScenarioParams::default()
        };
        let s = Scenario::build_with(ScenarioId::Ds5, 3, &params);
        // ego + target + >= 6 oncoming + rear
        assert!(s.world.actors().len() >= 9);
        assert!(s.world.actor(ActorId(100)).is_some());
        assert!(s.world.actor(ActorId(200)).is_some());
    }

    #[test]
    fn degenerate_param_ranges_do_not_panic() {
        let params = ScenarioParams {
            jitter_m: 0.0,
            oncoming_count: (3, 3),
            oncoming_x: (80.0, 80.0),
            oncoming_speed_kph: (25.0, 25.0),
            rear_speed_kph: (20.0, 20.0),
            ..ScenarioParams::default()
        };
        let a = Scenario::build_with(ScenarioId::Ds5, 1, &params);
        let b = Scenario::build_with(ScenarioId::Ds5, 2, &params);
        // Fully pinned ranges: seeds no longer matter.
        let xs_a: Vec<u64> = a
            .world
            .actors()
            .iter()
            .map(|x| x.pose.position.x.to_bits())
            .collect();
        let xs_b: Vec<u64> = b
            .world
            .actors()
            .iter()
            .map(|x| x.pose.position.x.to_bits())
            .collect();
        assert_eq!(xs_a, xs_b);
    }

    #[test]
    #[should_panic(expected = "no standalone build recipe")]
    fn gen_ids_cannot_build_standalone() {
        let _ = Scenario::build(ScenarioId::Gen(1), 0);
    }
}
