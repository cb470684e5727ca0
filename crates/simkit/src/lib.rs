//! # av-simkit — deterministic plan-view driving simulator
//!
//! This crate is the LGSVL substitute used by the RoboTack reproduction
//! (see `DESIGN.md` at the repository root). It models a straight multi-lane
//! road in a 2-D plan view: **x is longitudinal** (direction of travel) and
//! **y is lateral**. It provides:
//!
//! - [`math`]: small geometry/kinematics helpers ([`math::Vec2`]).
//! - [`units`]: kph/mps conversions and common constants.
//! - [`rng`]: seeded random sampling (normal / exponential) used by every
//!   stochastic model in the workspace, so runs are reproducible.
//! - [`actor`] and [`behavior`]: scripted road users (vehicles, pedestrians).
//! - [`road`] and [`world`]: the world model plus ground-truth queries
//!   (in-path gap, closest object) used by the safety model.
//! - [`scheduler`]: a multi-rate scheduler replicating the paper's sensor
//!   rates (camera 15 Hz, LiDAR 10 Hz, GPS 12.5 Hz, planner 10 Hz).
//! - [`scenario`]: the five driving scenarios DS-1..DS-5 from §V-C.
//! - [`recorder`]: per-run time-series capture for the evaluation.
//!
//! # Example
//!
//! ```
//! use av_simkit::scenario::{Scenario, ScenarioId};
//!
//! let mut world = Scenario::build(ScenarioId::Ds1, 42).into_world();
//! // Advance 1 s of simulated time with the ego coasting.
//! for _ in 0..30 {
//!     world.step(1.0 / 30.0, 0.0);
//! }
//! assert!(world.ego().pose.position.x > 0.0);
//! ```

#![warn(missing_docs)]

pub mod actor;
pub mod behavior;
pub mod error;
pub mod math;
pub mod recorder;
pub mod rng;
pub mod road;
pub mod scenario;
pub mod scheduler;
pub mod units;
pub mod world;

pub use actor::{Actor, ActorId, ActorKind, Size};
pub use error::SimError;
pub use math::Vec2;
pub use recorder::RunRecord;
pub use road::Road;
pub use scenario::{Scenario, ScenarioId};
pub use scheduler::{Scheduler, Task};
pub use world::World;
