//! Lockstep batched multi-session execution.
//!
//! The sequential engine ([`crate::session::SimSession::run_with`]) advances
//! one run at a time: every 30 Hz tick pays its own scheduler dispatch, its
//! own world-step behavior clones, and — under an NN safety-hijacker — its
//! own one-row oracle forward passes. A campaign runs hundreds of such
//! sessions with *identical* tick structure, so the batch engine advances N
//! of them in lockstep instead:
//!
//! - **One scheduler dispatch per tick** for the whole batch. All sessions
//!   register the same four tasks in the same order at the same rates, so a
//!   single telemetry-disabled [`Scheduler`] drives every lane and each
//!   lane's `RunState` echoes the dispatch into its own telemetry stream
//!   (`RunState::echo_scheduler`) to keep per-session event counts
//!   identical to the sequential engine.
//! - **Structure-of-arrays world stepping** through [`BatchWorld`]: actor
//!   kinematics live in flat per-field arrays and behaviors are stepped in
//!   place, eliminating the per-actor-per-tick behavior clone of
//!   `World::step` while remaining bit-identical to it.
//! - **Oracle rounds**: when several lanes' attackers defer a launch
//!   decision on the same camera tick, their safety-hijacker k-searches
//!   advance together, one bisection round at a time, each query answered
//!   by the lane's own oracle exactly as the sequential engine answers it,
//!   with per-session RNG streams untouched.
//!
//! # Determinism contract
//!
//! `RunRecord::digest()` from this engine is **bit-identical** to the
//! sequential engine for every scenario, seed, fault plan, and batch size —
//! the batch engine calls the exact same `RunState` methods in the same
//! per-lane order, the engine clock reproduces `World::time_us` exactly
//! (`tick × round(SIM_DT·1e6)`), the world step is pinned bit-identical to
//! its scalar counterpart by tests in `av-simkit`, and oracle rounds make
//! the very `RunState::oracle_eval` call the sequential engine makes. The
//! integration suite (`tests/batch_equivalence.rs`) pins the end-to-end
//! digests.
//!
//! Sessions that end early (collision) or have shorter scenarios retire from
//! the batch without perturbing survivors: a retired lane is simply never
//! visited again, and per-lane RNG/oracle state is fully isolated in its
//! `RunState`.

use crate::runner::RunOutcome;
use crate::session::{RunState, SessionTasks, SessionWorker, SimSession};
use av_simkit::scheduler::{Scheduler, Task};
use av_simkit::units::SIM_DT;
use av_simkit::BatchWorld;
use av_telemetry::{Stage, Telemetry, TraceEvent};
use robotack::safety_hijacker::DeferredDecision;

/// Reusable per-worker lane state: one [`SessionWorker`] (warm ADS + frame
/// buffers) per lane plus the shared scheduler fire buffer.
///
/// A campaign worker keeps one pool alive across all the batches it claims,
/// so lane `i` of every batch reuses the same warmed ADS (reset between
/// runs, bit-identical to fresh construction).
#[derive(Debug, Default)]
pub struct LanePool {
    workers: Vec<SessionWorker>,
    fired: Vec<Task>,
}

impl LanePool {
    /// Creates an empty pool; buffers warm up over the first batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `sessions` in lockstep and returns their outcomes in input
    /// order. `engine_tele` receives the engine-level
    /// [`TraceEvent::BatchStepped`] / [`TraceEvent::BatchOracleInference`]
    /// events (whose counts depend on the batch size and are therefore kept
    /// out of per-session streams).
    pub fn run_batch(
        &mut self,
        sessions: &[SimSession],
        engine_tele: &Telemetry,
    ) -> Vec<RunOutcome> {
        let n = sessions.len();
        if n == 0 {
            return Vec::new();
        }
        while self.workers.len() < n {
            self.workers.push(SessionWorker::new());
        }

        // One shared, telemetry-disabled scheduler for the whole batch.
        // Every session registers the same tasks in the same order, so the
        // Task handles are portable across lanes (the advance_into contract)
        // and each lane echoes the dispatch into its own stream instead.
        let mut scheduler = Scheduler::new();
        let tasks = SessionTasks::register(&mut scheduler);

        let mut states: Vec<Option<RunState>> = sessions
            .iter()
            .zip(&mut self.workers)
            .map(|(session, worker)| Some(RunState::new(session, worker)))
            .collect();
        let worlds: Vec<_> = states
            .iter()
            .map(|s| s.as_ref().expect("fresh state").spawn_world())
            .collect();
        let steps: Vec<u64> = states
            .iter()
            .map(|s| s.as_ref().expect("fresh state").total_steps())
            .collect();
        let mut batch = BatchWorld::new(worlds);

        let mut outcomes: Vec<Option<RunOutcome>> = Vec::new();
        outcomes.resize_with(n, || None);
        let mut remaining = n;

        // Degenerate zero-length scenarios finish before the first tick,
        // exactly like a sequential loop over `0..0`.
        for lane in 0..n {
            if steps[lane] == 0 {
                let state = states[lane].take().expect("unfinished lane");
                outcomes[lane] = Some(state.finish(batch.lane(lane), &mut self.workers[lane]));
                remaining -= 1;
            }
        }

        // The engine clock replays World::time_us exactly: the world adds
        // round(SIM_DT·1e6) integer microseconds per step, so the shared
        // scheduler sees the same now_us sequence every private per-session
        // scheduler would.
        let tick_us = (SIM_DT * 1e6).round() as u64;
        let mut deferred: Vec<(usize, DeferredDecision)> = Vec::new();
        let mut tick: u64 = 0;
        while remaining > 0 {
            let now_us = tick * tick_us;
            let t = now_us as f64 / 1e6;
            scheduler.advance_into(now_us, &mut self.fired);

            // Pass 1 — per lane: scheduler echo, GPS, camera up to the
            // attacker's begin_frame. Lanes whose attacker defers its launch
            // decision park a DeferredDecision for the oracle barrier.
            deferred.clear();
            for (lane, slot) in states.iter_mut().enumerate() {
                let Some(state) = slot.as_mut() else { continue };
                debug_assert_eq!(batch.lane(lane).time_us(), now_us, "lane clock skew");
                state.echo_scheduler(&scheduler, &self.fired, now_us);
                for &task in self.fired.iter() {
                    if task == tasks.gps {
                        state.gps_task(batch.lane(lane));
                    } else if task == tasks.camera {
                        if let Some(d) = state.camera_task(batch.lane(lane)) {
                            deferred.push((lane, d));
                        }
                    }
                }
            }

            // Oracle barrier — answer every deferred lane's k-search queries,
            // batching rows across lanes per NN oracle.
            if !deferred.is_empty() {
                resolve_deferred(&states, &mut deferred, engine_tele, t);
                for (lane, d) in deferred.drain(..) {
                    let state = states[lane].as_mut().expect("deferred lane is active");
                    state.camera_resume(batch.lane(lane), d.into_decision());
                }
            }

            // Pass 2 — per lane: LiDAR, planner, control, world step,
            // contact check, retirement.
            let mut stepped: u32 = 0;
            for lane in 0..n {
                let Some(state) = states[lane].as_mut() else {
                    continue;
                };
                for &task in self.fired.iter() {
                    if task == tasks.lidar {
                        state.lidar_task(batch.lane(lane));
                    } else if task == tasks.planner {
                        state.planner_task(batch.lane(lane));
                    }
                }
                let accel = state.control_tick();
                {
                    let _t = state.telemetry().time(Stage::WorldStep);
                    batch.step_lane(lane, SIM_DT, accel);
                }
                stepped += 1;
                let halted = state.after_step(batch.lane(lane));
                if halted || tick + 1 >= steps[lane] {
                    let state = states[lane].take().expect("unfinished lane");
                    outcomes[lane] = Some(state.finish(batch.lane(lane), &mut self.workers[lane]));
                    remaining -= 1;
                }
            }
            engine_tele.emit(t, || TraceEvent::BatchStepped { lanes: stepped });
            tick += 1;
        }

        outcomes
            .into_iter()
            .map(|o| o.expect("all lanes finished"))
            .collect()
    }
}

/// Answers every pending oracle query of `deferred` until all k-searches are
/// terminal. A k-search exposes one query at a time (the next bisection
/// midpoint depends on the previous answer), so resolution proceeds in
/// rounds: each round answers the current query of every still-pending lane
/// through that lane's own [`RunState::oracle_eval`] — the very call, and
/// the same per-query `oracle_query` timing, as the sequential engine.
fn resolve_deferred(
    states: &[Option<RunState>],
    deferred: &mut [(usize, DeferredDecision)],
    engine_tele: &Telemetry,
    t: f64,
) {
    loop {
        let mut queries: u32 = 0;
        for (lane, d) in deferred.iter_mut() {
            if let Some((features, k)) = d.pending() {
                let state = states[*lane].as_ref().expect("deferred lane is active");
                d.feed(state.oracle_eval(&features, k));
                queries += 1;
            }
        }
        if queries == 0 {
            return;
        }
        engine_tele.emit(t, || TraceEvent::BatchOracleInference { queries });
    }
}
