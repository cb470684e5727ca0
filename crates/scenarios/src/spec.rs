//! The typed scenario DSL: specs, templates, sampling, and invariants.
//!
//! A [`ScenarioSpec`] is a *recipe* for a family of worlds: a road layout,
//! a list of [`ActorTemplate`]s with [`Param`]-valued knobs, the index of
//! the scripted target, and the run duration. [`ScenarioSpec::sample`]
//! turns a recipe plus a seed into a concrete [`Scenario`] through the
//! same simkit RNG stream (`0xD5`) that [`Scenario::build`] uses — which
//! is what lets the `ds` module re-express DS-1..5 bit-identically.
//!
//! # Draw-order contract
//!
//! Sampling draw order is part of each template's public contract (it is
//! what makes a spec's worlds reproducible across versions): templates are
//! sampled in `actors` order, and each template documents the exact
//! sequence of RNG draws it performs. Degenerate parameter ranges consume
//! no draws (see [`Param::sample`]).

use crate::param::Param;
use av_simkit::actor::{separation, Actor, ActorId, ActorKind};
use av_simkit::behavior::{Behavior, OnFinish, Waypoint};
use av_simkit::math::Vec2;
use av_simkit::rng::run_rng;
use av_simkit::road::Road;
use av_simkit::scenario::{Scenario, ScenarioId, EGO_ID};
use av_simkit::units::kph_to_mps;
use av_simkit::world::World;
use av_suite::fnv::Fnv1a;
use rand::rngs::StdRng;

/// Version tag folded into every [`ScenarioSpec::content_hash`]. Bump it
/// whenever sampling semantics change so stale cache entries can never be
/// mistaken for current ones.
pub const SPEC_VERSION: u32 = 1;

/// Hard ceiling on the number of actors a spec may spawn (ego excluded).
pub const MAX_ACTORS: usize = 24;

/// Longitudinal distance (m) a cut-in vehicle travels while merging into
/// the ego lane after reaching its trigger point.
pub const CUT_MERGE_M: f64 = 20.0;

/// Why a spec (or a world sampled from one) is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec has no actor templates.
    NoActors,
    /// `target` does not index into `actors`.
    TargetOutOfRange {
        /// The offending index.
        target: usize,
        /// Number of templates in the spec.
        len: usize,
    },
    /// Two templates can spawn the same actor id.
    DuplicateActorId(ActorId),
    /// A template claims an id reserved for the ego.
    ReservedActorId(ActorId),
    /// The spec can spawn more than [`MAX_ACTORS`] actors.
    TooManyActors {
        /// The ceiling.
        max: usize,
        /// What the spec could spawn.
        got: usize,
    },
    /// A template references a lane outside the road's range.
    LaneOutOfRange {
        /// The offending lane index.
        lane: i32,
        /// Smallest valid lane.
        min: i32,
        /// Largest valid lane.
        max: i32,
    },
    /// A plain scalar field is not finite.
    NonFiniteField(&'static str),
    /// A [`Param`] range is unordered or non-finite.
    MalformedParam(&'static str),
    /// A count range has `min > max` or exceeds the actor ceiling.
    BadCountRange {
        /// Lower bound.
        min: usize,
        /// Upper bound.
        max: usize,
    },
    /// The road layout is degenerate (non-positive lane width, ego lane
    /// missing, or non-finite speed limit).
    BadRoad,
    /// Cruise speed or duration is not strictly positive and finite.
    BadRunParams,
    /// Two spawned actors overlap at t = 0.
    OverlappingSpawn(ActorId, ActorId),
    /// The built world has no actor with the target id.
    MissingTarget(ActorId),
    /// The target spawned at or behind the ego.
    TargetBehindEgo {
        /// Target longitudinal position (m).
        x: f64,
    },
    /// The target spawned further ahead than the ego can cover in-run.
    TargetUnreachable {
        /// Ego-to-target distance (m).
        distance: f64,
        /// Reachable horizon (m) for this cruise speed and duration.
        horizon: f64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoActors => write!(f, "spec has no actor templates"),
            SpecError::TargetOutOfRange { target, len } => {
                write!(
                    f,
                    "target index {target} out of range (spec has {len} templates)"
                )
            }
            SpecError::DuplicateActorId(id) => write!(f, "duplicate actor id {id}"),
            SpecError::ReservedActorId(id) => write!(f, "actor id {id} is reserved for the ego"),
            SpecError::TooManyActors { max, got } => {
                write!(f, "spec can spawn {got} actors (ceiling {max})")
            }
            SpecError::LaneOutOfRange { lane, min, max } => {
                write!(f, "lane {lane} outside road lanes [{min}, {max}]")
            }
            SpecError::NonFiniteField(name) => write!(f, "field {name} is not finite"),
            SpecError::MalformedParam(name) => write!(f, "parameter {name} is malformed"),
            SpecError::BadCountRange { min, max } => {
                write!(f, "count range {min}..={max} is invalid")
            }
            SpecError::BadRoad => write!(f, "degenerate road layout"),
            SpecError::BadRunParams => write!(f, "cruise speed and duration must be positive"),
            SpecError::OverlappingSpawn(a, b) => {
                write!(f, "actors {a} and {b} overlap at spawn")
            }
            SpecError::MissingTarget(id) => write!(f, "world has no target actor {id}"),
            SpecError::TargetBehindEgo { x } => {
                write!(f, "target spawned at x = {x:.1} m, not ahead of the ego")
            }
            SpecError::TargetUnreachable { distance, horizon } => {
                write!(
                    f,
                    "target {distance:.1} m ahead exceeds the {horizon:.1} m run horizon"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A parameterized road user. Each variant documents its **pinned draw
/// order** — the exact RNG draws `spawn` performs, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum ActorTemplate {
    /// A vehicle cruising ahead in lane `lane` (the DS-1/DS-5 lead).
    ///
    /// Draw order: `x0`, then `speed_kph`.
    Lead {
        /// Actor id.
        id: ActorId,
        /// Lane index.
        lane: i32,
        /// Spawn position along x (m).
        x0: Param,
        /// Cruise speed (kph).
        speed_kph: Param,
    },
    /// A pedestrian crossing the street laterally (the DS-2 jaywalker).
    ///
    /// Draw order: `x0`, then `walk`.
    Crossing {
        /// Actor id.
        id: ActorId,
        /// Crossing position along x (m).
        x0: Param,
        /// Starting lateral position (m), typically off-road.
        from_y: f64,
        /// Final lateral position (m) on the far side.
        to_y: f64,
        /// Walking speed (m/s).
        walk: Param,
    },
    /// A vehicle parked in lane `lane` (the DS-3 occluder/target).
    ///
    /// Draw order: `x0`.
    Parked {
        /// Actor id.
        id: ActorId,
        /// Lane index (the parking lane on the paper's road).
        lane: i32,
        /// Spawn position along x (m).
        x0: Param,
    },
    /// A pedestrian walking toward the ego along the road, then stopping
    /// (the DS-4 approacher).
    ///
    /// Draw order: `x0`, then `walk`.
    Approaching {
        /// Actor id.
        id: ActorId,
        /// Lateral position (m), held for the whole walk.
        y: f64,
        /// Spawn position along x (m).
        x0: Param,
        /// Distance walked toward the ego before stopping (m).
        walk_dist: f64,
        /// Walking speed (m/s).
        walk: Param,
    },
    /// A stream of oncoming vehicles sharing lane `lane` (the DS-5
    /// traffic). Positions are sorted ascending and speeds descending
    /// before spawning so the lead-most car is fastest and same-lane cars
    /// never drive through each other.
    ///
    /// Draw order: `count` (one draw iff `count.0 < count.1`), then all
    /// `x` draws, then all `speed_kph` draws (converted to m/s each).
    OncomingStream {
        /// Id of the first vehicle; consecutive ids follow.
        first_id: ActorId,
        /// Lane index (the left-most lane on the paper's road).
        lane: i32,
        /// Vehicle count range (inclusive on both ends).
        count: (usize, usize),
        /// Spawn range along x (m).
        x: Param,
        /// Speed range (kph).
        speed_kph: Param,
    },
    /// A vehicle trailing the ego in lane `lane` (the DS-5 rear car).
    ///
    /// Draw order: `speed_kph` **before** `x0` (matching the historical
    /// DS-5 recipe, where the rear speed is drawn before the rear jitter).
    Trailing {
        /// Actor id.
        id: ActorId,
        /// Lane index.
        lane: i32,
        /// Cruise speed (kph).
        speed_kph: Param,
        /// Spawn position along x (m), typically negative (behind ego).
        x0: Param,
    },
    /// A vehicle starting in an adjacent lane that merges into the ego
    /// lane once it reaches `cut_x`, covering [`CUT_MERGE_M`] meters
    /// longitudinally while merging, then continuing straight.
    ///
    /// Draw order: `x0`, then `speed_kph`, then `cut_x`.
    CutIn {
        /// Actor id.
        id: ActorId,
        /// Starting lane index (must not be the ego lane).
        lane: i32,
        /// Spawn position along x (m).
        x0: Param,
        /// Cruise speed (kph).
        speed_kph: Param,
        /// Longitudinal trigger position where the merge begins (m).
        cut_x: Param,
    },
}

/// Lateral center of `lane`, with the index clamped into the road's lane
/// range (identity for validated specs; keeps sampling total on hostile
/// ones).
fn lane_y(road: &Road, lane: i32) -> f64 {
    road.lane_center(lane.clamp(road.min_lane, road.max_lane))
}

impl ActorTemplate {
    /// The id campaigns refer to this template by — `id` for single-actor
    /// templates, `first_id` for streams.
    pub fn primary_id(&self) -> ActorId {
        match *self {
            ActorTemplate::Lead { id, .. }
            | ActorTemplate::Crossing { id, .. }
            | ActorTemplate::Parked { id, .. }
            | ActorTemplate::Approaching { id, .. }
            | ActorTemplate::Trailing { id, .. }
            | ActorTemplate::CutIn { id, .. } => id,
            ActorTemplate::OncomingStream { first_id, .. } => first_id,
        }
    }

    /// Every actor id this template can spawn (the full id block for
    /// streams, so validation catches collisions at any sampled count).
    pub fn id_block(&self) -> Vec<ActorId> {
        match *self {
            ActorTemplate::OncomingStream {
                first_id, count, ..
            } => {
                let n = count.0.max(count.1) as u32;
                (0..n).map(|i| ActorId(first_id.0 + i)).collect()
            }
            _ => vec![self.primary_id()],
        }
    }

    /// Largest number of actors this template can spawn.
    pub fn max_actors(&self) -> usize {
        match *self {
            ActorTemplate::OncomingStream { count, .. } => count.0.max(count.1),
            _ => 1,
        }
    }

    /// Static validity of this template against `road` (lane ranges,
    /// finite fields, well-formed parameter ranges).
    pub fn validate(&self, road: &Road) -> Result<(), SpecError> {
        let lane_ok = |lane: i32| {
            if (road.min_lane..=road.max_lane).contains(&lane) {
                Ok(())
            } else {
                Err(SpecError::LaneOutOfRange {
                    lane,
                    min: road.min_lane,
                    max: road.max_lane,
                })
            }
        };
        let param_ok = |p: &Param, name: &'static str| {
            if p.is_well_formed() {
                Ok(())
            } else {
                Err(SpecError::MalformedParam(name))
            }
        };
        let finite = |v: f64, name: &'static str| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(SpecError::NonFiniteField(name))
            }
        };
        match self {
            ActorTemplate::Lead {
                lane,
                x0,
                speed_kph,
                ..
            } => {
                lane_ok(*lane)?;
                param_ok(x0, "Lead.x0")?;
                param_ok(speed_kph, "Lead.speed_kph")
            }
            ActorTemplate::Crossing {
                x0,
                from_y,
                to_y,
                walk,
                ..
            } => {
                param_ok(x0, "Crossing.x0")?;
                finite(*from_y, "Crossing.from_y")?;
                finite(*to_y, "Crossing.to_y")?;
                param_ok(walk, "Crossing.walk")
            }
            ActorTemplate::Parked { lane, x0, .. } => {
                lane_ok(*lane)?;
                param_ok(x0, "Parked.x0")
            }
            ActorTemplate::Approaching {
                y,
                x0,
                walk_dist,
                walk,
                ..
            } => {
                finite(*y, "Approaching.y")?;
                param_ok(x0, "Approaching.x0")?;
                finite(*walk_dist, "Approaching.walk_dist")?;
                param_ok(walk, "Approaching.walk")
            }
            ActorTemplate::OncomingStream {
                lane,
                count,
                x,
                speed_kph,
                ..
            } => {
                lane_ok(*lane)?;
                if count.0 > count.1 || count.1 > MAX_ACTORS {
                    return Err(SpecError::BadCountRange {
                        min: count.0,
                        max: count.1,
                    });
                }
                param_ok(x, "OncomingStream.x")?;
                param_ok(speed_kph, "OncomingStream.speed_kph")
            }
            ActorTemplate::Trailing {
                lane,
                speed_kph,
                x0,
                ..
            } => {
                lane_ok(*lane)?;
                param_ok(speed_kph, "Trailing.speed_kph")?;
                param_ok(x0, "Trailing.x0")
            }
            ActorTemplate::CutIn {
                lane,
                x0,
                speed_kph,
                cut_x,
                ..
            } => {
                lane_ok(*lane)?;
                param_ok(x0, "CutIn.x0")?;
                param_ok(speed_kph, "CutIn.speed_kph")?;
                param_ok(cut_x, "CutIn.cut_x")
            }
        }
    }

    /// Spawns this template's actors into `world`, drawing from `rng` in
    /// the variant's pinned order.
    ///
    /// # Panics
    ///
    /// Panics if an actor id is already taken (prevented by
    /// [`ScenarioSpec::validate`]).
    pub fn spawn(&self, world: &mut World, rng: &mut StdRng) {
        match self {
            ActorTemplate::Lead {
                id,
                lane,
                x0,
                speed_kph,
            } => {
                let x = x0.sample(rng);
                let v = kph_to_mps(speed_kph.sample(rng));
                let y = lane_y(&world.road, *lane);
                let actor = Actor::new(
                    *id,
                    ActorKind::Car,
                    Vec2::new(x, y),
                    v,
                    Behavior::CruiseStraight { speed: v },
                );
                world.add_actor(actor).expect("validated spec");
            }
            ActorTemplate::Crossing {
                id,
                x0,
                from_y,
                to_y,
                walk,
            } => {
                let x = x0.sample(rng);
                let w = walk.sample(rng);
                let ped = Actor::new(
                    *id,
                    ActorKind::Pedestrian,
                    Vec2::new(x, *from_y),
                    w,
                    Behavior::waypoints(
                        vec![Waypoint::new(Vec2::new(x, *to_y), w)],
                        OnFinish::Stop,
                    ),
                );
                world.add_actor(ped).expect("validated spec");
            }
            ActorTemplate::Parked { id, lane, x0 } => {
                let x = x0.sample(rng);
                let y = lane_y(&world.road, *lane);
                let actor = Actor::new(*id, ActorKind::Car, Vec2::new(x, y), 0.0, Behavior::Parked);
                world.add_actor(actor).expect("validated spec");
            }
            ActorTemplate::Approaching {
                id,
                y,
                x0,
                walk_dist,
                walk,
            } => {
                let x = x0.sample(rng);
                let w = walk.sample(rng);
                let ped = Actor::new(
                    *id,
                    ActorKind::Pedestrian,
                    Vec2::new(x, *y),
                    w,
                    Behavior::waypoints(
                        vec![Waypoint::new(Vec2::new(x - walk_dist, *y), w)],
                        OnFinish::Stop,
                    ),
                );
                world.add_actor(ped).expect("validated spec");
            }
            ActorTemplate::OncomingStream {
                first_id,
                lane,
                count,
                x,
                speed_kph,
            } => {
                let (n_min, n_max) = *count;
                let n = if n_min < n_max {
                    rng.random_range(n_min..=n_max)
                } else {
                    n_min
                };
                let mut xs: Vec<f64> = (0..n).map(|_| x.sample(rng)).collect();
                let mut vs: Vec<f64> = (0..n).map(|_| kph_to_mps(speed_kph.sample(rng))).collect();
                xs.sort_by(|a, b| a.total_cmp(b));
                vs.sort_by(|a, b| b.total_cmp(a));
                let y = lane_y(&world.road, *lane);
                for (i, (px, v)) in xs.into_iter().zip(vs).enumerate() {
                    let mut npc = Actor::new(
                        ActorId(first_id.0 + i as u32),
                        ActorKind::Car,
                        Vec2::new(px, y),
                        v,
                        Behavior::CruiseStraight { speed: v },
                    );
                    npc.pose.heading = std::f64::consts::PI; // oncoming
                    world.add_actor(npc).expect("validated spec");
                }
            }
            ActorTemplate::Trailing {
                id,
                lane,
                speed_kph,
                x0,
            } => {
                // Speed first, then position — the DS-5 rear-car order.
                let v = kph_to_mps(speed_kph.sample(rng));
                let x = x0.sample(rng);
                let y = lane_y(&world.road, *lane);
                let actor = Actor::new(
                    *id,
                    ActorKind::Car,
                    Vec2::new(x, y),
                    v,
                    Behavior::CruiseStraight { speed: v },
                );
                world.add_actor(actor).expect("validated spec");
            }
            ActorTemplate::CutIn {
                id,
                lane,
                x0,
                speed_kph,
                cut_x,
            } => {
                let x = x0.sample(rng);
                let v = kph_to_mps(speed_kph.sample(rng));
                let cx = cut_x.sample(rng);
                let y = lane_y(&world.road, *lane);
                let ego_y = lane_y(&world.road, 0);
                let actor = Actor::new(
                    *id,
                    ActorKind::Car,
                    Vec2::new(x, y),
                    v,
                    Behavior::waypoints(
                        vec![
                            Waypoint::new(Vec2::new(cx, y), v),
                            Waypoint::new(Vec2::new(cx + CUT_MERGE_M, ego_y), v),
                        ],
                        OnFinish::Continue,
                    ),
                );
                world.add_actor(actor).expect("validated spec");
            }
        }
    }

    /// Folds the template into a content hash (variant tag + all fields).
    pub fn fold(&self, h: &mut Fnv1a) {
        match self {
            ActorTemplate::Lead {
                id,
                lane,
                x0,
                speed_kph,
            } => {
                h.write(b"lead");
                h.write_u64(u64::from(id.0));
                h.write_u64(*lane as u64);
                x0.fold(h);
                speed_kph.fold(h);
            }
            ActorTemplate::Crossing {
                id,
                x0,
                from_y,
                to_y,
                walk,
            } => {
                h.write(b"cross");
                h.write_u64(u64::from(id.0));
                x0.fold(h);
                h.write_f64(*from_y);
                h.write_f64(*to_y);
                walk.fold(h);
            }
            ActorTemplate::Parked { id, lane, x0 } => {
                h.write(b"park");
                h.write_u64(u64::from(id.0));
                h.write_u64(*lane as u64);
                x0.fold(h);
            }
            ActorTemplate::Approaching {
                id,
                y,
                x0,
                walk_dist,
                walk,
            } => {
                h.write(b"appr");
                h.write_u64(u64::from(id.0));
                h.write_f64(*y);
                x0.fold(h);
                h.write_f64(*walk_dist);
                walk.fold(h);
            }
            ActorTemplate::OncomingStream {
                first_id,
                lane,
                count,
                x,
                speed_kph,
            } => {
                h.write(b"oncoming");
                h.write_u64(u64::from(first_id.0));
                h.write_u64(*lane as u64);
                h.write_u64(count.0 as u64);
                h.write_u64(count.1 as u64);
                x.fold(h);
                speed_kph.fold(h);
            }
            ActorTemplate::Trailing {
                id,
                lane,
                speed_kph,
                x0,
            } => {
                h.write(b"trail");
                h.write_u64(u64::from(id.0));
                h.write_u64(*lane as u64);
                speed_kph.fold(h);
                x0.fold(h);
            }
            ActorTemplate::CutIn {
                id,
                lane,
                x0,
                speed_kph,
                cut_x,
            } => {
                h.write(b"cutin");
                h.write_u64(u64::from(id.0));
                h.write_u64(*lane as u64);
                x0.fold(h);
                speed_kph.fold(h);
                cut_x.fold(h);
            }
        }
    }
}

/// A typed, hashable recipe for a family of scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human label for reports. **Not** part of the content hash.
    pub name: String,
    /// Road layout the world is built on.
    pub road: Road,
    /// Ego cruise speed (kph).
    pub cruise_kph: f64,
    /// Nominal run duration (s).
    pub duration: f64,
    /// Index into `actors` of the scripted target template.
    pub target: usize,
    /// The road users, spawned (and sampled) in order.
    pub actors: Vec<ActorTemplate>,
}

impl ScenarioSpec {
    /// Static validity: target index, id uniqueness (over full id blocks),
    /// actor ceiling, lane ranges, finite fields, well-formed parameters.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.actors.is_empty() {
            return Err(SpecError::NoActors);
        }
        if self.target >= self.actors.len() {
            return Err(SpecError::TargetOutOfRange {
                target: self.target,
                len: self.actors.len(),
            });
        }
        let road_ok = self.road.lane_width.is_finite()
            && self.road.lane_width > 0.0
            && self.road.min_lane <= 0
            && 0 <= self.road.max_lane
            && self.road.speed_limit.is_finite();
        if !road_ok {
            return Err(SpecError::BadRoad);
        }
        let run_ok = self.cruise_kph.is_finite()
            && self.cruise_kph > 0.0
            && self.duration.is_finite()
            && self.duration > 0.0;
        if !run_ok {
            return Err(SpecError::BadRunParams);
        }
        let mut total = 0usize;
        let mut ids = std::collections::BTreeSet::new();
        for t in &self.actors {
            t.validate(&self.road)?;
            total += t.max_actors();
            for id in t.id_block() {
                if id == EGO_ID {
                    return Err(SpecError::ReservedActorId(id));
                }
                if !ids.insert(id) {
                    return Err(SpecError::DuplicateActorId(id));
                }
            }
        }
        if total > MAX_ACTORS {
            return Err(SpecError::TooManyActors {
                max: MAX_ACTORS,
                got: total,
            });
        }
        Ok(())
    }

    /// The spec's stable identity: FNV-1a over the version tag, road,
    /// run parameters, target index, and every template (draw-order
    /// relevant fields included; `name` excluded). This is the value that
    /// keys oracle-cache entries and artifact-store paths for generated
    /// scenarios, and the `hash` inside [`ScenarioId::Gen`].
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"RTSPEC");
        h.write_u64(u64::from(SPEC_VERSION));
        h.write_f64(self.road.lane_width);
        h.write_u64(self.road.min_lane as u64);
        h.write_u64(self.road.max_lane as u64);
        h.write_f64(self.road.speed_limit);
        h.write_f64(self.cruise_kph);
        h.write_f64(self.duration);
        h.write_u64(self.target as u64);
        h.write_u64(self.actors.len() as u64);
        for t in &self.actors {
            t.fold(&mut h);
        }
        h.finish()
    }

    /// The [`ScenarioId`] sampled scenarios carry: `Gen(content_hash())`.
    pub fn scenario_id(&self) -> ScenarioId {
        ScenarioId::Gen(self.content_hash())
    }

    /// Builds a concrete world from this spec and a seed, through the
    /// scenario RNG stream (`run_rng(seed, 0xD5)`) — the same stream
    /// [`Scenario::build`] uses, so a spec that mirrors a fixed scenario's
    /// draw order reproduces its world bit-for-bit.
    ///
    /// Infallible for specs that pass [`ScenarioSpec::validate`]; panics
    /// only on duplicate actor ids (which validation rejects).
    pub fn sample(&self, seed: u64) -> Scenario {
        let mut rng = run_rng(seed, 0xD5);
        let cruise = kph_to_mps(self.cruise_kph);
        let ego = Actor::new(
            EGO_ID,
            ActorKind::Car,
            Vec2::new(0.0, 0.0),
            cruise,
            Behavior::Ego,
        );
        let mut world = World::new(self.road.clone(), ego);
        for t in &self.actors {
            t.spawn(&mut world, &mut rng);
        }
        let target = self.actors[self.target].primary_id();
        Scenario {
            id: self.scenario_id(),
            world,
            target,
            cruise_speed: cruise,
            duration: self.duration,
        }
    }
}

/// Checks the validity contract on a built scenario:
///
/// - **No overlapping spawns.** Every actor pair must have positive
///   [`separation`] at t = 0, *except* pairs of non-ego, non-target NPCs
///   that share a heading and a lateral position — same-lane co-moving
///   traffic the engine explicitly tolerates (the DS-5 oncoming stream
///   sorts speeds so those cars never collide mid-run either).
/// - **Reachable target geometry.** The target exists, spawns strictly
///   ahead of the ego, and within the distance the ego can cover at
///   cruise speed over the run duration (plus a 50 m margin).
pub fn world_invariants(s: &Scenario) -> Result<(), SpecError> {
    let actors = s.world.actors();
    let ego_x = s.world.ego().pose.position.x;
    let target = actors
        .iter()
        .find(|a| a.id == s.target)
        .ok_or(SpecError::MissingTarget(s.target))?;

    let tolerated = |a: &Actor, b: &Actor| {
        a.id != EGO_ID
            && b.id != EGO_ID
            && a.id != s.target
            && b.id != s.target
            && a.pose.heading == b.pose.heading
            && a.pose.position.y == b.pose.position.y
    };
    for (i, a) in actors.iter().enumerate() {
        for b in actors.iter().skip(i + 1) {
            if tolerated(a, b) {
                continue;
            }
            if separation(a, b) <= 0.0 {
                return Err(SpecError::OverlappingSpawn(a.id, b.id));
            }
        }
    }

    let distance = target.pose.position.x - ego_x;
    if distance <= 0.0 {
        return Err(SpecError::TargetBehindEgo {
            x: target.pose.position.x,
        });
    }
    let horizon = s.cruise_speed * s.duration + 50.0;
    if distance > horizon {
        return Err(SpecError::TargetUnreachable { distance, horizon });
    }
    Ok(())
}

/// A bit-exact digest of a world's full initial state: road layout plus
/// every actor's id, kind, size, pose, speed, acceleration, and behavior
/// script. Two worlds with equal fingerprints are byte-identical inputs
/// to the simulator.
pub fn world_fingerprint(world: &World) -> u64 {
    let mut h = Fnv1a::new();
    h.write_f64(world.road.lane_width);
    h.write_u64(world.road.min_lane as u64);
    h.write_u64(world.road.max_lane as u64);
    h.write_f64(world.road.speed_limit);
    let actors = world.actors();
    h.write_u64(actors.len() as u64);
    for a in actors {
        h.write_u64(u64::from(a.id.0));
        h.write(&[match a.kind {
            ActorKind::Car => 1,
            ActorKind::Truck => 2,
            ActorKind::Pedestrian => 3,
        }]);
        h.write_f64(a.size.length);
        h.write_f64(a.size.width);
        h.write_f64(a.size.height);
        h.write_f64(a.pose.position.x);
        h.write_f64(a.pose.position.y);
        h.write_f64(a.pose.heading);
        h.write_f64(a.speed);
        h.write_f64(a.accel);
        match &a.behavior {
            Behavior::Ego => h.write(b"E"),
            Behavior::Parked => h.write(b"P"),
            Behavior::CruiseStraight { speed } => {
                h.write(b"C");
                h.write_f64(*speed);
            }
            Behavior::Waypoints {
                points,
                next,
                on_finish,
            } => {
                h.write(b"W");
                h.write_u64(points.len() as u64);
                for p in points {
                    h.write_f64(p.target.x);
                    h.write_f64(p.target.y);
                    h.write_f64(p.speed);
                }
                h.write_u64(*next as u64);
                h.write(&[match on_finish {
                    OnFinish::Stop => 0,
                    OnFinish::Continue => 1,
                }]);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            road: Road::default(),
            cruise_kph: 45.0,
            duration: 40.0,
            target: 0,
            actors: vec![ActorTemplate::Lead {
                id: ActorId(1),
                lane: 0,
                x0: Param::Uniform { lo: 40.0, hi: 90.0 },
                speed_kph: Param::Uniform { lo: 15.0, hi: 35.0 },
            }],
        }
    }

    #[test]
    fn sample_is_deterministic_and_seed_sensitive() {
        let spec = tiny_spec();
        spec.validate().unwrap();
        let a = spec.sample(5);
        let b = spec.sample(5);
        let c = spec.sample(6);
        assert_eq!(world_fingerprint(&a.world), world_fingerprint(&b.world));
        assert_ne!(world_fingerprint(&a.world), world_fingerprint(&c.world));
        assert_eq!(a.id, spec.scenario_id());
        assert_eq!(a.target, ActorId(1));
        world_invariants(&a).unwrap();
    }

    #[test]
    fn content_hash_ignores_name_but_not_params() {
        let a = tiny_spec();
        let mut b = a.clone();
        b.name = "renamed".into();
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.duration = 41.0;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = a.clone();
        if let ActorTemplate::Lead { x0, .. } = &mut d.actors[0] {
            *x0 = Param::Uniform { lo: 40.0, hi: 91.0 };
        }
        assert_ne!(a.content_hash(), d.content_hash());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = tiny_spec();
        s.actors.clear();
        assert_eq!(s.validate(), Err(SpecError::NoActors));

        let mut s = tiny_spec();
        s.target = 3;
        assert!(matches!(
            s.validate(),
            Err(SpecError::TargetOutOfRange { .. })
        ));

        let mut s = tiny_spec();
        s.actors.push(ActorTemplate::Parked {
            id: ActorId(1),
            lane: -1,
            x0: Param::Fixed(120.0),
        });
        assert_eq!(s.validate(), Err(SpecError::DuplicateActorId(ActorId(1))));

        let mut s = tiny_spec();
        s.actors[0] = ActorTemplate::Lead {
            id: EGO_ID,
            lane: 0,
            x0: Param::Fixed(60.0),
            speed_kph: Param::Fixed(25.0),
        };
        assert_eq!(s.validate(), Err(SpecError::ReservedActorId(EGO_ID)));

        let mut s = tiny_spec();
        s.actors[0] = ActorTemplate::Parked {
            id: ActorId(1),
            lane: 7,
            x0: Param::Fixed(60.0),
        };
        assert!(matches!(
            s.validate(),
            Err(SpecError::LaneOutOfRange { .. })
        ));

        let mut s = tiny_spec();
        s.actors[0] = ActorTemplate::Lead {
            id: ActorId(1),
            lane: 0,
            x0: Param::Uniform {
                lo: 10.0,
                hi: f64::NAN,
            },
            speed_kph: Param::Fixed(25.0),
        };
        assert!(matches!(s.validate(), Err(SpecError::MalformedParam(_))));

        let mut s = tiny_spec();
        s.actors.push(ActorTemplate::OncomingStream {
            first_id: ActorId(10),
            lane: 1,
            count: (5, 2),
            x: Param::Uniform {
                lo: 60.0,
                hi: 240.0,
            },
            speed_kph: Param::Uniform { lo: 20.0, hi: 40.0 },
        });
        assert!(matches!(s.validate(), Err(SpecError::BadCountRange { .. })));

        let mut s = tiny_spec();
        s.actors.push(ActorTemplate::OncomingStream {
            first_id: ActorId(10),
            lane: 1,
            count: (2, MAX_ACTORS + 1),
            x: Param::Uniform {
                lo: 60.0,
                hi: 240.0,
            },
            speed_kph: Param::Uniform { lo: 20.0, hi: 40.0 },
        });
        assert!(matches!(s.validate(), Err(SpecError::BadCountRange { .. })));

        let mut s = tiny_spec();
        s.cruise_kph = -1.0;
        assert_eq!(s.validate(), Err(SpecError::BadRunParams));
    }

    #[test]
    fn stream_id_blocks_collide_with_overlapping_singles() {
        let mut s = tiny_spec();
        s.actors.push(ActorTemplate::OncomingStream {
            first_id: ActorId(10),
            lane: 1,
            count: (2, 4),
            x: Param::Uniform {
                lo: 60.0,
                hi: 240.0,
            },
            speed_kph: Param::Uniform { lo: 20.0, hi: 40.0 },
        });
        // ActorId(12) is inside the stream's maximal id block even though
        // some sampled counts would not reach it.
        s.actors.push(ActorTemplate::Parked {
            id: ActorId(12),
            lane: -1,
            x0: Param::Fixed(150.0),
        });
        assert_eq!(s.validate(), Err(SpecError::DuplicateActorId(ActorId(12))));
    }

    #[test]
    fn invariants_flag_overlap_and_unreachable_targets() {
        // Two cars parked on top of each other in the ego lane.
        let s = ScenarioSpec {
            name: "overlap".into(),
            road: Road::default(),
            cruise_kph: 45.0,
            duration: 30.0,
            target: 0,
            actors: vec![
                ActorTemplate::Parked {
                    id: ActorId(1),
                    lane: -1,
                    x0: Param::Fixed(80.0),
                },
                ActorTemplate::Parked {
                    id: ActorId(2),
                    lane: -1,
                    x0: Param::Fixed(81.0),
                },
            ],
        };
        s.validate().unwrap();
        // Both are parked (heading 0, same y) but one is the target, so
        // the pair is NOT tolerated and the overlap is reported.
        assert!(matches!(
            world_invariants(&s.sample(1)),
            Err(SpecError::OverlappingSpawn(..))
        ));

        let far = ScenarioSpec {
            name: "far".into(),
            road: Road::default(),
            cruise_kph: 10.0,
            duration: 5.0,
            target: 0,
            actors: vec![ActorTemplate::Parked {
                id: ActorId(1),
                lane: -1,
                x0: Param::Fixed(5000.0),
            }],
        };
        assert!(matches!(
            world_invariants(&far.sample(1)),
            Err(SpecError::TargetUnreachable { .. })
        ));

        let behind = ScenarioSpec {
            name: "behind".into(),
            road: Road::default(),
            cruise_kph: 45.0,
            duration: 30.0,
            target: 0,
            actors: vec![ActorTemplate::Trailing {
                id: ActorId(1),
                lane: 0,
                speed_kph: Param::Fixed(25.0),
                x0: Param::Fixed(-30.0),
            }],
        };
        assert!(matches!(
            world_invariants(&behind.sample(1)),
            Err(SpecError::TargetBehindEgo { .. })
        ));
    }

    #[test]
    fn cut_in_scripts_a_merge_into_the_ego_lane() {
        let s = ScenarioSpec {
            name: "cutin".into(),
            road: Road::default(),
            cruise_kph: 45.0,
            duration: 40.0,
            target: 0,
            actors: vec![ActorTemplate::CutIn {
                id: ActorId(1),
                lane: 1,
                x0: Param::Fixed(30.0),
                speed_kph: Param::Fixed(35.0),
                cut_x: Param::Fixed(80.0),
            }],
        };
        s.validate().unwrap();
        let scenario = s.sample(3);
        let actor = scenario.world.actor(ActorId(1)).unwrap();
        assert_eq!(actor.pose.position.y, 3.5);
        match &actor.behavior {
            Behavior::Waypoints {
                points, on_finish, ..
            } => {
                assert_eq!(points.len(), 2);
                assert_eq!(points[0].target.x, 80.0);
                assert_eq!(points[0].target.y, 3.5);
                assert_eq!(points[1].target.x, 80.0 + CUT_MERGE_M);
                assert_eq!(points[1].target.y, 0.0);
                assert_eq!(*on_finish, OnFinish::Continue);
            }
            other => panic!("expected waypoints, got {other:?}"),
        }
    }
}
