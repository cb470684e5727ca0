//! The campaign memo: each distinct campaign simulated once per suite
//! execution, every report reading the same folded outcomes.
//!
//! Table II, Fig. 6, Fig. 7, Fig. 8(a) and the resilience study's healthy
//! cells are different views of the same RoboTack campaigns (§VI-C). A
//! campaign's runs depend only on its scenario, attacker (the oracle by
//! content), fault plan and base seed — run `i` is seed `base_seed + i`
//! ([`Campaign::session`]), and every dispatch mode and thread count gives
//! bit-identical outcomes. The campaign name, run count, dispatch mode and
//! thread count are therefore not part of a [`CampaignKey`]: a memo entry
//! holds runs `0..n` of its key, a request for `m ≤ n` runs takes the
//! prefix, and a request for `m > n` simulates only runs `n..m` and
//! extends the entry.
//!
//! One memo lives for exactly one `av_suite::execute` call (it is a value
//! of the call's [`av_suite::ExecScope`]); a standalone experiment binary
//! uses a fresh one. It never lives in a DAG or an artifact store, which
//! outlive executions: a later execution of the same DAG simulates again.
//!
//! Concurrency: one slot per key. A job holds only the slot of the key it
//! asks for while it simulates, so followers of that key wait for it and
//! jobs on other keys do not. If a leader panics mid-simulation its slot
//! keeps the runs it held before, and the next caller simulates the rest.

use crate::campaign::{
    run_campaign_summary, Campaign, CampaignError, CampaignSummary, DispatchMode, RunSummary,
};
use crate::oracle_cache::network_digest;
use crate::runner::{AttackerSpec, OracleSpec};
use av_simkit::scenario::ScenarioId;
use av_suite::fnv::Fnv1a;
use robotack::vector::AttackVector;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What determines a campaign's runs, bit for bit, apart from how many of
/// them are asked for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CampaignKey {
    scenario: ScenarioId,
    attacker: u64,
    faults: String,
    base_seed: u64,
}

impl CampaignKey {
    /// The key of `campaign`. The attacker enters by content — an NN
    /// oracle by its [`network_digest`] — so separately loaded copies of
    /// one oracle share a key. The fault plan enters by its `Debug`
    /// rendering, which writes every parameter (floats round-trip).
    /// Generated scenarios are covered by their content-hash id.
    pub fn of(campaign: &Campaign) -> CampaignKey {
        CampaignKey {
            scenario: campaign.scenario,
            attacker: attacker_digest(&campaign.attacker),
            faults: format!("{:?}", campaign.faults),
            base_seed: campaign.base_seed,
        }
    }
}

/// Content digest of an attacker: its variant, parameters and (for
/// RoboTack) its oracle.
fn attacker_digest(attacker: &AttackerSpec) -> u64 {
    fn vector(h: &mut Fnv1a, v: &Option<AttackVector>) {
        match v {
            Some(v) => h.write(v.name().as_bytes()),
            None => h.write_u64(0),
        }
    }
    let mut h = Fnv1a::new();
    match attacker {
        AttackerSpec::None => h.write_u64(0),
        AttackerSpec::Random => h.write_u64(1),
        AttackerSpec::RoboTack { vector: v, oracle } => {
            h.write_u64(2);
            vector(&mut h, v);
            match oracle {
                OracleSpec::Kinematic => h.write_u64(0),
                OracleSpec::Nn(nn) => {
                    h.write_u64(1);
                    h.write_u64(network_digest(nn));
                }
            }
        }
        AttackerSpec::RoboTackNoSh { vector: v } => {
            h.write_u64(3);
            vector(&mut h, v);
        }
        AttackerSpec::AtDelta {
            vector: v,
            delta_inject,
            k,
        } => {
            h.write_u64(4);
            vector(&mut h, v);
            h.write_f64(*delta_inject);
            h.write_u64(u64::from(*k));
        }
    }
    h.finish()
}

/// Runs `0..n` of one key, in seed order.
type Slot = Arc<Mutex<Vec<RunSummary>>>;

/// Folded campaign outcomes shared by the report jobs of one execution.
#[derive(Debug, Default)]
pub struct CampaignMemo {
    slots: Mutex<HashMap<CampaignKey, Slot>>,
    simulated: AtomicU64,
}

impl CampaignMemo {
    /// An empty memo.
    pub fn new() -> CampaignMemo {
        CampaignMemo::default()
    }

    /// The folded runs of `campaign` on `threads` workers under `mode`:
    /// bit-identical to [`run_campaign_summary`], simulating only the runs
    /// no earlier request for the same [`CampaignKey`] simulated.
    /// Campaigns that collect metrics are simulated directly, since their
    /// timing is the point.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ZeroThreads`] for `threads == 0`.
    pub fn run(
        &self,
        campaign: &Campaign,
        threads: usize,
        mode: DispatchMode,
    ) -> Result<CampaignSummary, CampaignError> {
        if threads == 0 {
            return Err(CampaignError::ZeroThreads);
        }
        if campaign.collect_metrics {
            return run_campaign_summary(campaign, threads, mode);
        }
        let runs = self.runs(CampaignKey::of(campaign), campaign.runs, |start, count| {
            let tail = Campaign {
                base_seed: campaign.base_seed + start,
                runs: count,
                ..campaign.clone()
            };
            run_campaign_summary(&tail, threads, mode)
                .expect("threads is nonzero")
                .runs
        });
        Ok(CampaignSummary {
            name: campaign.name.clone(),
            scenario: campaign.scenario,
            runs,
        })
    }

    /// The first `wanted` runs of `key`, calling `simulate(start, count)`
    /// for runs `start..start + count` when the entry is shorter. Only
    /// this key's slot is held while simulating.
    fn runs(
        &self,
        key: CampaignKey,
        wanted: u64,
        simulate: impl FnOnce(u64, u64) -> Vec<RunSummary>,
    ) -> Vec<RunSummary> {
        let slot = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone();
        // A poisoned slot lost a leader mid-simulation; the runs it holds
        // were all stored before, so they stand and the rest is redone.
        let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let have = held.len() as u64;
        if have < wanted {
            let tail = simulate(have, wanted - have);
            assert_eq!(tail.len() as u64, wanted - have, "simulated run count");
            self.simulated.fetch_add(wanted - have, Ordering::Relaxed);
            held.extend(tail);
        }
        let wanted = usize::try_from(wanted).expect("run count fits usize");
        held[..wanted].to_vec()
    }

    /// Distinct campaign keys requested so far.
    pub fn campaigns(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs simulated so far — with no leader lost to a panic, the summed
    /// length of every entry: no run is simulated twice.
    pub fn simulated_runs(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_dispatch;
    use av_faults::{FaultKind, FaultPlan, FaultSpec};

    /// An "R w/o SH" campaign: its attack timing and K are drawn per run
    /// seed, so its runs differ from one seed to the next.
    fn nosh(runs: u64, base_seed: u64) -> Campaign {
        Campaign::new(
            "nosh",
            ScenarioId::Ds2,
            AttackerSpec::RoboTackNoSh {
                vector: Some(AttackVector::Disappear),
            },
            runs,
            base_seed,
        )
    }

    #[test]
    fn name_and_run_count_stay_out_of_the_key() {
        let mut renamed = nosh(9, 5);
        renamed.name = "other".into();
        assert_eq!(CampaignKey::of(&nosh(3, 5)), CampaignKey::of(&renamed));
    }

    #[test]
    fn extension_simulates_only_the_missing_runs() {
        let memo = CampaignMemo::new();
        let short = memo
            .run(&nosh(2, 40), 2, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(memo.simulated_runs(), 2);
        let long = memo
            .run(&nosh(3, 40), 1, DispatchMode::Batched { batch_size: 2 })
            .unwrap();
        assert_eq!(memo.simulated_runs(), 3, "only run 2 was new");
        assert_eq!(long.runs[..2], short.runs[..]);
        let direct = run_campaign_dispatch(&nosh(3, 40), 1, DispatchMode::WorkStealing).unwrap();
        assert_eq!(long, direct.summary());
        let runs = &direct.summary().runs;
        assert!(
            runs[0] != runs[1] && runs[1] != runs[2] && runs[0] != runs[2],
            "seeds give distinct runs, so a misplaced extension shows: {runs:?}"
        );
        let prefix = memo
            .run(&nosh(1, 40), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(prefix.runs[..], long.runs[..1]);
        assert_eq!((memo.simulated_runs(), memo.campaigns()), (3, 1));
    }

    #[test]
    fn metrics_campaigns_bypass_the_memo() {
        let memo = CampaignMemo::new();
        memo.run(&nosh(1, 0).with_metrics(), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!((memo.simulated_runs(), memo.campaigns()), (0, 0));
    }

    #[test]
    fn zero_threads_is_a_typed_error_even_on_a_hit() {
        let memo = CampaignMemo::new();
        memo.run(&nosh(1, 0), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(
            memo.run(&nosh(1, 0), 0, DispatchMode::WorkStealing)
                .unwrap_err(),
            CampaignError::ZeroThreads
        );
    }

    #[test]
    fn a_panicking_leader_leaves_its_followers_to_simulate() {
        let memo = Arc::new(CampaignMemo::new());
        let campaign = nosh(3, 7);
        memo.run(&nosh(1, 7), 1, DispatchMode::WorkStealing)
            .unwrap();
        let (started, leading) = std::sync::mpsc::channel();
        let leader = {
            let memo = memo.clone();
            let key = CampaignKey::of(&campaign);
            std::thread::spawn(move || {
                memo.runs(key, 3, |start, count| {
                    started.send((start, count)).expect("follower listening");
                    panic!("leader lost mid-simulation");
                })
            })
        };
        // The leader took the slot before the follower asks: the follower
        // waits for it (or finds it already released), finds it poisoned
        // with only run 0 stored, and simulates runs 1..3 itself.
        assert_eq!(
            leading.recv().expect("leader started"),
            (1, 2),
            "the leader extends the stored prefix"
        );
        let follower = memo.run(&campaign, 2, DispatchMode::WorkStealing).unwrap();
        assert!(leader.join().is_err(), "the leader panicked");
        let direct = run_campaign_dispatch(&campaign, 1, DispatchMode::WorkStealing).unwrap();
        assert_eq!(follower, direct.summary());
        assert_eq!(memo.simulated_runs(), 3);
        let again = memo
            .run(&campaign, 1, DispatchMode::Batched { batch_size: 7 })
            .unwrap();
        assert_eq!(again, follower, "the recovered slot serves later callers");
        assert_eq!(memo.simulated_runs(), 3);
    }

    #[test]
    fn fault_plan_seed_and_attacker_parameters_enter_the_key() {
        let base = CampaignKey::of(&nosh(1, 0));
        assert_ne!(base, CampaignKey::of(&nosh(1, 1)));
        let drop = |p: f64| {
            FaultPlan::single(FaultSpec::always(FaultKind::CameraFrameDrop {
                probability: p,
            }))
        };
        let faulted = CampaignKey::of(&nosh(1, 0).with_faults(drop(0.1)));
        assert_ne!(base, faulted);
        assert_ne!(faulted, CampaignKey::of(&nosh(1, 0).with_faults(drop(0.2))));
        let at_delta = |delta_inject: f64, k: u32| {
            let mut c = nosh(1, 0);
            c.attacker = AttackerSpec::AtDelta {
                vector: Some(AttackVector::MoveIn),
                delta_inject,
                k,
            };
            CampaignKey::of(&c)
        };
        assert_ne!(at_delta(8.0, 40), at_delta(8.0, 41));
        assert_ne!(at_delta(8.0, 40), at_delta(9.0, 40));
    }
}
