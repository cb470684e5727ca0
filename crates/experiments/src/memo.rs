//! The campaign memo: each distinct campaign simulated once per artifact
//! store, every report reading the same folded outcomes.
//!
//! Table II, Fig. 6, Fig. 7, Fig. 8(a) and the resilience study's healthy
//! cells are different views of the same RoboTack campaigns (§VI-C); the
//! countermeasure study and the ablations fold campaigns of their own. A
//! campaign's runs depend only on its configuration template (scenario,
//! fault plan, ADS and attacker settings — everything but the seed),
//! attacker (the oracle by content) and base seed — run `i` is the
//! template at seed `base_seed + i` ([`Campaign::session`]), and every
//! dispatch mode and thread count gives bit-identical outcomes. The campaign name, run count, dispatch mode and
//! thread count are therefore not part of a [`CampaignKey`]: an entry
//! holds runs `0..n` of its key, a request for `m ≤ n` runs takes the
//! prefix, and a request for `m > n` simulates only runs `n..m` and
//! extends the entry.
//!
//! Two tiers hold entries:
//!
//! - **The memo.** One lives for exactly one `av_suite::execute` call (it
//!   is a value of the call's [`av_suite::ExecScope`]); a standalone
//!   experiment binary uses a fresh one. Reports of one execution share
//!   its slots in memory.
//! - **The store.** The shared [`av_suite::ArtifactStore`] keeps each
//!   key's longest entry as `{address:016x}.campaign` (namespace
//!   [`NS_CAMPAIGN`], address [`CampaignKey::address`]). When a slot holds
//!   fewer runs than a request asks for, the memo first reads the stored
//!   entry and adopts it if it is longer, then simulates only the missing
//!   tail and writes the whole extended entry back while it still holds
//!   the slot. A later execution — or a standalone binary over the same
//!   store — reads the campaigns an earlier one simulated.
//!
//! Every request for at least one run over an enabled store counts one
//! [`Kind::Campaign`] lookup in the caller's [`OracleCache`] view: a hit
//! when the entry that the memo's first read of the key found held every
//! run asked for, a miss otherwise. No job of the memo has written the key
//! before that read, so a job's count does not depend on which job asked
//! first. That is what puts campaigns in the per-job scorecards and the
//! suite's `totals` line. Campaigns never go through the store's in-flight
//! claims. A disabled store (`--no-cache`) leaves the memo working alone,
//! and campaigns that collect metrics bypass both tiers, since their timing
//! is the point.
//!
//! An entry is a sealed frame of the crate's store codec (`codec.rs`: magic
//! `RTCP`, [`CAMPAIGN_CODE_VERSION`] and the address echo, then an FNV-1a
//! trailer of everything before it). Its body is the run count, then one
//! fixed-width record per [`RunSummary`] (floats by bit pattern:
//! `min_delta_attack_window` may be `+∞`; the IDS alarm counts last). The decoder reads through the
//! codec's bounds-checked reader and treats the bytes as hostile: the run
//! count is checked against the remaining bytes before anything is
//! allocated, and any mismatch — magic, version, echo, length, digest,
//! reserved flag bits, a value stored for an absent field — is a miss that
//! is simulated again, never a panic.
//!
//! Concurrency: one slot per key. A job holds only the slot of the key it
//! asks for while it reads, simulates and writes, so followers of that key
//! wait for it and jobs on other keys do not. If a leader panics
//! mid-simulation its slot keeps the runs it held before (nothing is
//! written), and the next caller simulates the rest. Separate memos over
//! one store (overlapping daemon requests, concurrent processes) do not
//! wait for each other: both may simulate a key, and each writes its entry
//! back only if the store does not already hold one at least as long. The
//! store's writes are whole-file renames, so a reader sees one writer's
//! entry or the other's, never a mix.

use crate::campaign::{
    run_campaign_summary, AlarmCounts, Campaign, CampaignError, CampaignSummary, DispatchMode,
    RunSummary,
};
use crate::codec::{Kind, Reader, Stored, Writer};
use crate::oracle_cache::{network_digest, OracleCache};
use crate::runner::{AttackerSpec, OracleSpec, RunConfig};
use av_defense::ids::AlarmKind;
use av_simkit::scenario::ScenarioId;
use av_suite::fnv::Fnv1a;
use robotack::safety_hijacker::NnOracle;
use robotack::vector::AttackVector;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

pub use crate::codec::{CAMPAIGN_CODE_VERSION, FIGURE_CODE_VERSION};

/// Artifact-store namespace of folded campaign entries.
pub const NS_CAMPAIGN: &str = Kind::Campaign.namespace();

/// What determines a campaign's runs, bit for bit, apart from how many of
/// them are asked for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CampaignKey {
    scenario: ScenarioId,
    attacker: u64,
    config: String,
    base_seed: u64,
}

impl CampaignKey {
    /// The key of `campaign`. The attacker enters by content — an NN
    /// oracle by its [`network_digest`] — so separately loaded copies of
    /// one oracle share a key. The configuration template enters by its
    /// `Debug` rendering, which writes every parameter (floats round-trip)
    /// including the fault plan, with the seed (run `i` overrides it) and
    /// a generated scenario's spec (covered by its content-hash id) left
    /// out.
    pub fn of(campaign: &Campaign) -> CampaignKey {
        CampaignKey::digested(campaign, |nn| network_digest(nn))
    }

    /// [`CampaignKey::of`] with the oracle's network digest taken from
    /// `digest`.
    fn digested(campaign: &Campaign, digest: impl FnOnce(&Arc<NnOracle>) -> u64) -> CampaignKey {
        let template = RunConfig {
            seed: 0,
            spec: None,
            ..campaign.config.clone()
        };
        CampaignKey {
            scenario: campaign.scenario(),
            attacker: attacker_digest(&campaign.attacker, digest),
            config: format!("{template:?}"),
            base_seed: campaign.base_seed,
        }
    }

    /// The key's artifact-store address: an FNV-1a digest of the entry
    /// magic, [`CAMPAIGN_CODE_VERSION`] and every key field — the scenario
    /// name (plus a generated scenario's content hash), the attacker
    /// digest, the template rendering and the base seed.
    pub fn address(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&Kind::Campaign.magic());
        h.write_u64(u64::from(Kind::Campaign.code_version()));
        h.write_str(self.scenario.name());
        if let Some(gen_hash) = self.scenario.gen_hash() {
            h.write_u64(gen_hash);
        }
        h.write_u64(self.attacker);
        h.write_u64(self.config.len() as u64);
        h.write_str(&self.config);
        h.write_u64(self.base_seed);
        h.finish()
    }
}

/// Content digest of an attacker: its variant, parameters and (for
/// RoboTack) its oracle, by the network digest `digest` gives it.
fn attacker_digest(attacker: &AttackerSpec, digest: impl FnOnce(&Arc<NnOracle>) -> u64) -> u64 {
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
                    h.write_u64(digest(nn));
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

/// What a memo holds of one key.
#[derive(Debug, Default)]
struct Held {
    /// Runs `0..n`, in seed order.
    runs: Vec<RunSummary>,
    /// Runs in the stored entry that this memo's first read of the key
    /// found (0 when there was none); `None` before that read.
    stored: Option<u64>,
}

type Slot = Arc<Mutex<Held>>;

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
    /// that neither an earlier request to this memo nor the store behind
    /// `store` already holds. A request for at least one run over an
    /// enabled store counts one of `store`'s [`Kind::Campaign`] lookups.
    /// Campaigns that collect metrics are simulated directly, since their
    /// timing is the point.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ZeroThreads`] for `threads == 0`.
    pub fn run(
        &self,
        campaign: &Campaign,
        store: &OracleCache,
        threads: usize,
        mode: DispatchMode,
    ) -> Result<CampaignSummary, CampaignError> {
        if threads == 0 {
            return Err(CampaignError::ZeroThreads);
        }
        if campaign.collect_metrics {
            return run_campaign_summary(campaign, threads, mode);
        }
        let key = CampaignKey::digested(campaign, |nn| store.network_digest_of(nn));
        let runs = self.runs(key, campaign.runs, store, |start, count| {
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
            scenario: campaign.scenario(),
            runs,
        })
    }

    /// The first `wanted` runs of `key`. When the slot is shorter, adopts
    /// the stored entry if it is longer, then calls `simulate(start,
    /// count)` for runs `start..start + count` still missing and stores
    /// the extended entry. Only this key's slot is held meanwhile.
    fn runs(
        &self,
        key: CampaignKey,
        wanted: u64,
        store: &OracleCache,
        simulate: impl FnOnce(u64, u64) -> Vec<RunSummary>,
    ) -> Vec<RunSummary> {
        let address = key.address();
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
        if store.is_enabled() && wanted > 0 {
            if (held.runs.len() as u64) < wanted {
                let stored = store.fetch::<Vec<RunSummary>>(address);
                held.stored
                    .get_or_insert(stored.as_ref().map_or(0, |s| s.len() as u64));
                if let Some(stored) = stored.filter(|s| s.len() > held.runs.len()) {
                    held.runs = stored;
                }
            }
            // Scored against the first read, which no job of this memo
            // has written before, so the count does not depend on which
            // job asked first.
            store.record(Kind::Campaign, held.stored.is_some_and(|s| s >= wanted));
        }
        let have = held.runs.len() as u64;
        if have < wanted {
            let tail = simulate(have, wanted - have);
            assert_eq!(tail.len() as u64, wanted - have, "simulated run count");
            self.simulated.fetch_add(wanted - have, Ordering::Relaxed);
            held.runs.extend(tail);
            // Another memo over the same store (an overlapping daemon
            // request, another process) may have stored a longer entry
            // meanwhile; a shorter one never replaces it.
            if store.is_enabled()
                && store
                    .fetch::<Vec<RunSummary>>(address)
                    .is_none_or(|stored| stored.len() < held.runs.len())
            {
                store.put(address, &held.runs);
            }
        }
        let wanted = usize::try_from(wanted).expect("run count fits usize");
        held.runs[..wanted].to_vec()
    }

    /// Distinct campaign keys requested so far.
    pub fn campaigns(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs simulated so far. With no leader lost to a panic, no run is
    /// simulated twice, and none that was adopted from the store.
    pub fn simulated_runs(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }
}

/// Alarm counters per record: whole-run, then in-attack, each per kind.
const ALARM_COUNTERS: usize = 2 * AlarmKind::ALL.len();

/// Bytes of one [`RunSummary`] record: flags, `k`, `k_prime_ads`, four
/// floats, two counters, the alarm counters.
const RECORD_BYTES: usize = 3 * 4 + 4 * 8 + 2 * 8 + ALARM_COUNTERS * 4;

/// Record flag bits; every other bit is reserved and must be clear.
const LAUNCHED: u32 = 1 << 0;
const EB: u32 = 1 << 1;
const ACCIDENT: u32 = 1 << 2;
const HAS_PREDICTED_DELTA: u32 = 1 << 3;
const HAS_MIN_DELTA_POST_ATTACK: u32 = 1 << 4;
const HAS_MIN_DELTA_ATTACK_WINDOW: u32 = 1 << 5;
const HAS_K_PRIME_ADS: u32 = 1 << 6;
const HAS_REPLICA_DIVERGENCE: u32 = 1 << 7;
const KNOWN_FLAGS: u32 = (1 << 8) - 1;

impl Stored for Vec<RunSummary> {
    const KIND: Kind = Kind::Campaign;

    /// The run count, then one record per run (an absent optional field is
    /// a clear flag bit and a zero value).
    fn write(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for run in self {
            let flag = |set: bool, bit: u32| if set { bit } else { 0 };
            let flags = flag(run.launched, LAUNCHED)
                | flag(run.eb, EB)
                | flag(run.accident, ACCIDENT)
                | flag(run.predicted_delta.is_some(), HAS_PREDICTED_DELTA)
                | flag(
                    run.min_delta_post_attack.is_some(),
                    HAS_MIN_DELTA_POST_ATTACK,
                )
                | flag(
                    run.min_delta_attack_window.is_some(),
                    HAS_MIN_DELTA_ATTACK_WINDOW,
                )
                | flag(run.k_prime_ads.is_some(), HAS_K_PRIME_ADS)
                | flag(run.replica_divergence.is_some(), HAS_REPLICA_DIVERGENCE);
            w.u32(flags);
            w.u32(run.k);
            w.u32(run.k_prime_ads.unwrap_or(0));
            for value in [
                run.predicted_delta,
                run.min_delta_post_attack,
                run.min_delta_attack_window,
                run.replica_divergence,
            ] {
                w.u64(value.map_or(0, f64::to_bits));
            }
            w.u64(run.frames_lost);
            w.u64(run.stale_frames);
            for n in run.alarms.0.into_iter().chain(run.alarms_in_attack.0) {
                w.u32(n);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Vec<RunSummary>> {
        let count = usize::try_from(r.u64()?).ok()?;
        // The declared count must account for exactly the bytes that
        // follow, checked before anything is allocated for it.
        if count.checked_mul(RECORD_BYTES) != Some(r.remaining()) {
            return None;
        }
        let mut runs = Vec::with_capacity(count);
        for _ in 0..count {
            let flags = r.u32()?;
            if flags & !KNOWN_FLAGS != 0 {
                return None;
            }
            let k = r.u32()?;
            let k_prime_ads = optional(flags, HAS_K_PRIME_ADS, r.u32()?)?;
            let mut float = |bit| optional(flags, bit, r.u64()?).map(|v| v.map(f64::from_bits));
            let predicted_delta = float(HAS_PREDICTED_DELTA)?;
            let min_delta_post_attack = float(HAS_MIN_DELTA_POST_ATTACK)?;
            let min_delta_attack_window = float(HAS_MIN_DELTA_ATTACK_WINDOW)?;
            let replica_divergence = float(HAS_REPLICA_DIVERGENCE)?;
            let frames_lost = r.u64()?;
            let stale_frames = r.u64()?;
            let mut counts = || -> Option<AlarmCounts> {
                let mut counts = AlarmCounts::default();
                for n in &mut counts.0 {
                    *n = r.u32()?;
                }
                Some(counts)
            };
            let alarms = counts()?;
            let alarms_in_attack = counts()?;
            runs.push(RunSummary {
                launched: flags & LAUNCHED != 0,
                k,
                predicted_delta,
                eb: flags & EB != 0,
                accident: flags & ACCIDENT != 0,
                min_delta_post_attack,
                min_delta_attack_window,
                k_prime_ads,
                replica_divergence,
                frames_lost,
                stale_frames,
                alarms,
                alarms_in_attack,
            });
        }
        Some(runs)
    }
}

/// The optional field behind flag `bit`: `Some(Some(value))` when `flags`
/// sets the bit, `Some(None)` when it does not and the stored value is
/// zero, and `None` (corruption) for a value stored under a clear bit.
fn optional<T: PartialEq + Default>(flags: u32, bit: u32, value: T) -> Option<Option<T>> {
    if flags & bit != 0 {
        Some(Some(value))
    } else if value == T::default() {
        Some(None)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_dispatch;
    use crate::codec::{decode, encode, DIGEST_BYTES, HEADER_BYTES as FRAME_BYTES};
    use av_faults::{FaultKind, FaultPlan, FaultSpec};
    use av_neural::mlp::Mlp;
    use av_neural::train::Normalizer;
    use av_suite::fnv::fnv1a;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    /// Bytes before the first record: the frame header, then the run count.
    const HEADER_BYTES: usize = FRAME_BYTES + 8;

    /// A campaign entry's value.
    type Runs = Vec<RunSummary>;

    impl CampaignMemo {
        /// [`CampaignMemo::run`] over a disabled store: the memo alone.
        fn run_alone(
            &self,
            campaign: &Campaign,
            threads: usize,
            mode: DispatchMode,
        ) -> Result<CampaignSummary, CampaignError> {
            self.run(campaign, &OracleCache::disabled(), threads, mode)
        }
    }

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

    /// The DS-1 Move_Out cell of the LiDAR registration ablation, at a
    /// registration delay of `register` scans.
    fn register_cell(register: u32) -> Campaign {
        let attacker = AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveOut),
            delta_inject: 30.0,
            k: 90,
        };
        let mut cell = Campaign::new("register", ScenarioId::Ds1, attacker, 3, 7);
        cell.config.fusion.lidar_register = register;
        cell
    }

    /// The pinned campaigns, one per shape the reports run, each 3 runs
    /// from seed 7: RoboTack under the kinematic oracle (DS-1 Move_Out,
    /// the entry the codec tests mutate), RoboTack under a fixed NN oracle,
    /// "R w/o SH", the DS-5 random baseline, RoboTack under a fault plan of
    /// every fault kind the resilience study injects, the countermeasure
    /// study's naive DS-2 Disappear (K = 62, past the streak envelope, so
    /// the IDS raises alarms), and an ablation cell whose template sets a
    /// LiDAR registration delay of 5 scans.
    fn pinned_campaigns() -> [Campaign; 7] {
        let robotack = |vector, oracle| AttackerSpec::RoboTack {
            vector: Some(vector),
            oracle,
        };
        // δ' = δ + 3·v_lon − 0.35·k: NN queries without a trained net.
        let linear = Mlp::from_flat(&[5, 1], 0.0, &[1.0, 3.0, 0.0, 0.0, -0.35, 0.0]);
        let nn = OracleSpec::Nn(Arc::new(NnOracle::new(
            linear.expect("well-formed"),
            Normalizer {
                mean: vec![0.0; 5],
                std: vec![1.0; 5],
            },
        )));
        let faults = FaultPlan::none()
            .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                probability: 0.3,
            }))
            .with(FaultSpec::always(FaultKind::CameraFreeze {
                probability: 0.02,
                mean_frames: 6.0,
            }))
            .with(FaultSpec::always(FaultKind::CameraNoise { sigma_px: 4.0 }))
            .with(FaultSpec::always(FaultKind::LidarDropout {
                probability: 0.4,
            }))
            .with(FaultSpec::always(FaultKind::GpsBias {
                bias: 1.5,
                drift_per_s: 0.05,
            }))
            .with(FaultSpec::always(FaultKind::DetectorBlackout {
                probability: 0.01,
                mean_frames: 4.0,
            }));
        let disappear = robotack(AttackVector::Disappear, OracleSpec::Kinematic);
        [
            Campaign::new(
                "kinematic",
                ScenarioId::Ds1,
                robotack(AttackVector::MoveOut, OracleSpec::Kinematic),
                3,
                7,
            ),
            Campaign::new(
                "nn",
                ScenarioId::Ds1,
                robotack(AttackVector::Disappear, nn),
                3,
                7,
            ),
            Campaign::new(
                "nosh",
                ScenarioId::Ds1,
                AttackerSpec::RoboTackNoSh {
                    vector: Some(AttackVector::Disappear),
                },
                3,
                7,
            ),
            Campaign::new("random", ScenarioId::Ds5, AttackerSpec::Random, 3, 7),
            Campaign::new("faults", ScenarioId::Ds1, disappear, 3, 7).with_faults(faults),
            Campaign::new(
                "naive",
                ScenarioId::Ds2,
                AttackerSpec::AtDelta {
                    vector: Some(AttackVector::Disappear),
                    delta_inject: 24.0,
                    k: 62,
                },
                3,
                7,
            ),
            register_cell(5),
        ]
    }

    /// Each pinned campaign's address and encoded entry, simulated once.
    fn pinned_entries() -> &'static [(u64, Vec<u8>)] {
        static ENTRIES: OnceLock<Vec<(u64, Vec<u8>)>> = OnceLock::new();
        ENTRIES.get_or_init(|| {
            pinned_campaigns()
                .iter()
                .map(|campaign| {
                    let runs = run_campaign_summary(campaign, 1, DispatchMode::WorkStealing)
                        .expect("one thread")
                        .runs;
                    let address = CampaignKey::of(campaign).address();
                    (address, encode(address, &runs))
                })
                .collect()
        })
    }

    /// The kinematic pinned campaign's address and encoded entry.
    fn real_entry() -> &'static (u64, Vec<u8>) {
        &pinned_entries()[0]
    }

    /// Recomputes the trailing digest, so a test edit reaches the checks
    /// behind it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - DIGEST_BYTES;
        let digest = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
    }

    /// A fresh store directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("campaign-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every field set, with the values a summary can legitimately hold
    /// at its edges: `+∞`, `-0.0`, a NaN payload, counter extremes.
    fn edge_runs() -> Vec<RunSummary> {
        let full = RunSummary {
            launched: true,
            k: u32::MAX,
            predicted_delta: Some(-0.0),
            eb: true,
            accident: true,
            min_delta_post_attack: Some(f64::from_bits(0x7ff8_0000_0000_0123)),
            min_delta_attack_window: Some(f64::INFINITY),
            k_prime_ads: Some(0),
            replica_divergence: Some(f64::MIN_POSITIVE),
            frames_lost: u64::MAX,
            stale_frames: 1,
            alarms: AlarmCounts([u32::MAX, 0, 7, 1]),
            alarms_in_attack: AlarmCounts([1, u32::MAX, 0, 2]),
        };
        let empty = RunSummary {
            launched: false,
            k: 0,
            predicted_delta: None,
            eb: false,
            accident: false,
            min_delta_post_attack: None,
            min_delta_attack_window: None,
            k_prime_ads: None,
            replica_divergence: None,
            frames_lost: 0,
            stale_frames: 0,
            alarms: AlarmCounts::default(),
            alarms_in_attack: AlarmCounts::default(),
        };
        vec![full, empty, full]
    }

    /// Encoded bytes, compared by bit pattern (`RunSummary`'s `==` is
    /// false on NaN).
    fn bits(runs: &[RunSummary]) -> Vec<u8> {
        encode(0, &runs.to_vec())
    }

    #[test]
    fn codec_round_trips_every_field_by_bit_pattern() {
        let runs = edge_runs();
        let bytes = encode(42, &runs);
        assert_eq!(bytes.len(), HEADER_BYTES + 3 * RECORD_BYTES + DIGEST_BYTES);
        let back = decode::<Runs>(42, &bytes).expect("round trip");
        assert_eq!(bits(&back), bits(&runs));
        assert_eq!(back[0].min_delta_attack_window, Some(f64::INFINITY));
        assert!(back[0].predicted_delta.unwrap().is_sign_negative());
        assert_eq!(
            decode::<Runs>(42, &encode(42, &Runs::new())),
            Some(Vec::new())
        );
    }

    #[test]
    fn entries_cut_at_any_length_miss() {
        let (address, bytes) = real_entry();
        assert!(decode::<Runs>(*address, bytes).is_some());
        for cut in 0..bytes.len() {
            assert!(
                decode::<Runs>(*address, &bytes[..cut]).is_none(),
                "cut at {cut}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode::<Runs>(*address, &padded).is_none(), "trailing byte");
    }

    #[test]
    fn wrong_magic_version_echo_or_digest_miss() {
        let (address, bytes) = real_entry();
        assert!(decode::<Runs>(address ^ 1, bytes).is_none(), "address echo");
        for (at, what) in [(0, "magic"), (4, "version"), (8, "address echo")] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            reseal(&mut bad);
            assert!(decode::<Runs>(*address, &bad).is_none(), "{what}");
        }
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert!(decode::<Runs>(*address, &bad).is_none(), "digest");
        let mut flipped = bytes.clone();
        flipped[HEADER_BYTES + 20] ^= 0x01;
        assert!(
            decode::<Runs>(*address, &flipped).is_none(),
            "a flipped float bit fails the digest instead of decoding to another run"
        );
    }

    #[test]
    fn declared_run_counts_beyond_the_bytes_miss_before_allocating() {
        let (address, bytes) = real_entry();
        let count = |n: u64| {
            let mut bad = bytes.clone();
            bad[16..24].copy_from_slice(&n.to_le_bytes());
            reseal(&mut bad);
            decode::<Runs>(*address, &bad)
        };
        assert!(count(3).is_some(), "the real count");
        for n in [4, 2, 0, u64::MAX / RECORD_BYTES as u64 + 1, u64::MAX] {
            // Allocating `u64::MAX` records would abort the process: a
            // miss here is a miss decided before any allocation.
            assert!(count(n).is_none(), "declared {n} runs");
        }
    }

    #[test]
    fn reserved_flag_bits_and_values_under_clear_flags_miss() {
        let (address, bytes) = real_entry();
        let record = |i: usize, at: usize| HEADER_BYTES + i * RECORD_BYTES + at;
        for bit in 8..32 {
            let mut bad = bytes.clone();
            bad[record(1, bit / 8)] |= 1 << (bit % 8);
            reseal(&mut bad);
            assert!(
                decode::<Runs>(*address, &bad).is_none(),
                "reserved bit {bit}"
            );
        }
        // A value stored for an absent field: clear every presence bit of
        // a record that has some, leaving their values in place.
        let runs = decode::<Runs>(*address, bytes).expect("real entry");
        let i = runs
            .iter()
            .position(|r| r.min_delta_post_attack.is_some())
            .expect("some run has a post-attack δ");
        let mut bad = bytes.clone();
        bad[record(i, 0)] &= !(HAS_MIN_DELTA_POST_ATTACK as u8);
        reseal(&mut bad);
        assert!(
            decode::<Runs>(*address, &bad).is_none(),
            "value under a clear flag"
        );
    }

    proptest::proptest! {
        #[test]
        fn fuzz_campaign_decoder(
            edits in crate::codec::fuzz::edits(),
            resealed in proptest::prelude::any::<bool>(),
        ) {
            let (address, original) = real_entry();
            let mut bytes = crate::codec::fuzz::mutate(original, &edits);
            // Resealing lets a mutation past the digest to the structural
            // checks behind it.
            if resealed && bytes.len() >= DIGEST_BYTES {
                reseal(&mut bytes);
            }
            let decoded = crate::codec::fuzz::check(
                &bytes,
                |b| decode::<Runs>(*address, b),
                |runs| encode(*address, runs),
            )?;
            // Unsealed, only the original passes the digest.
            proptest::prop_assert!(!decoded || resealed || bytes == *original);
        }
    }

    /// The version guard: a change that moves one of these small
    /// campaigns' folded runs (or the entry bytes) without bumping
    /// [`CAMPAIGN_CODE_VERSION`] would let warm stores serve stale
    /// campaigns.
    #[test]
    fn campaign_entries_are_pinned_with_their_code_version() {
        let campaigns = pinned_campaigns();
        let runs: Vec<Vec<RunSummary>> = pinned_entries()
            .iter()
            .map(|(address, bytes)| decode::<Runs>(*address, bytes).expect("real entry"))
            .collect();
        let launched = |runs: &[RunSummary]| runs.iter().any(|r| r.launched);
        assert!(
            runs[..4].iter().all(|r| launched(r)),
            "every attacker launches, so the entries cover the attack fields: {runs:?}"
        );
        assert!(runs[0].iter().any(|r| r.k_prime_ads.is_some()));
        assert!(
            runs[4].iter().any(|r| r.frames_lost > 0),
            "the fault plan drops frames: {:?}",
            runs[4]
        );
        assert!(
            runs[5].iter().any(|r| r.alarms.get(AlarmKind::Streak) > 0
                && r.alarms_in_attack.get(AlarmKind::Streak) > 0),
            "the naive attack raises streak alarms inside its window: {:?}",
            runs[5]
        );
        let default_register = run_campaign_summary(
            &register_cell(RunConfig::new(ScenarioId::Ds1, 0).fusion.lidar_register),
            1,
            DispatchMode::WorkStealing,
        )
        .expect("one thread")
        .runs;
        assert_ne!(
            runs[6], default_register,
            "the template's registration delay reaches the runs"
        );
        let digests: Vec<u64> = pinned_entries()
            .iter()
            .map(|(_, bytes)| fnv1a(bytes))
            .collect();
        let changed: Vec<&str> = campaigns
            .iter()
            .zip(&digests)
            .zip(PINNED_ENTRIES.1)
            .filter(|((_, digest), pinned)| **digest != *pinned)
            .map(|((campaign, _), _)| campaign.name.as_str())
            .collect();
        assert_eq!(
            (CAMPAIGN_CODE_VERSION, digests.as_slice()),
            (PINNED_ENTRIES.0, &PINNED_ENTRIES.1[..]),
            "pinned campaign entries changed ({changed:?}, now {digests:#018x?}): \
             bump CAMPAIGN_CODE_VERSION, then re-pin PINNED_ENTRIES"
        );
    }

    /// ⟨[`CAMPAIGN_CODE_VERSION`], FNV-1a of each pinned entry⟩, in
    /// [`pinned_campaigns`] order.
    const PINNED_ENTRIES: (u32, [u64; 7]) = (
        2,
        [
            0x81f8_492b_3f7a_8a75,
            0x3cb2_20a1_af2f_f7ee,
            0xe37e_c865_2c0f_a8a3,
            0xb57e_fd04_c1ac_8137,
            0x80c1_23e9_cea7_d98e,
            0x1704_89ff_5cfa_12cc,
            0x4067_23a3_016b_6e0e,
        ],
    );

    #[test]
    fn a_later_memo_reads_the_store_and_simulates_only_the_tail() {
        let dir = scratch("tiers");
        let store = Arc::new(av_suite::ArtifactStore::at(&dir));
        let direct = run_campaign_dispatch(&nosh(4, 40), 1, DispatchMode::WorkStealing)
            .unwrap()
            .summary();

        let cold = OracleCache::over(store.clone());
        let first = CampaignMemo::new();
        first
            .run(&nosh(2, 40), &cold, 2, DispatchMode::WorkStealing)
            .unwrap();
        first
            .run(&nosh(3, 40), &cold, 1, DispatchMode::WorkStealing)
            .unwrap();
        first
            .run(&nosh(1, 40), &cold, 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(first.simulated_runs(), 3);
        assert_eq!(
            cold.lookups(Kind::Campaign),
            (0, 3),
            "every request is scored against the empty store the memo first read"
        );

        let warm = OracleCache::over(store.clone());
        let second = CampaignMemo::new();
        let prefix = second
            .run(
                &nosh(3, 40),
                &warm,
                1,
                DispatchMode::Batched { batch_size: 2 },
            )
            .unwrap();
        assert_eq!(prefix.runs[..], direct.runs[..3]);
        assert_eq!(second.simulated_runs(), 0, "read, not simulated");
        assert_eq!(warm.artifact_totals(), (1, 0));

        let longer = OracleCache::over(store);
        let third = CampaignMemo::new();
        let extended = third
            .run(&nosh(4, 40), &longer, 2, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(extended, direct);
        assert_eq!(
            third.simulated_runs(),
            1,
            "runs 0..3 adopted, run 3 simulated"
        );
        assert_eq!(longer.artifact_totals(), (0, 1));
        let stored = std::fs::read(dir.join(format!(
            "{:016x}.{NS_CAMPAIGN}",
            CampaignKey::of(&nosh(4, 40)).address()
        )))
        .expect("entry written");
        assert_eq!(
            decode::<Runs>(CampaignKey::of(&nosh(1, 40)).address(), &stored),
            Some(direct.runs)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_counts_do_not_depend_on_which_view_asks_first() {
        let dir = scratch("order");
        // Views `a` and `b` ask one memo for `a_runs` and `b_runs` runs of
        // one key, over a store already holding `stored` runs of it.
        let counts = |stored: u64, a_runs: u64, b_runs: u64, a_first: bool| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(av_suite::ArtifactStore::at(&dir));
            if stored > 0 {
                let view = OracleCache::over(store.clone());
                CampaignMemo::new()
                    .run(&nosh(stored, 70), &view, 1, DispatchMode::WorkStealing)
                    .unwrap();
            }
            let memo = CampaignMemo::new();
            let (a, b) = (OracleCache::over(store.clone()), OracleCache::over(store));
            let mut asks = [(&a, a_runs), (&b, b_runs)];
            if !a_first {
                asks.reverse();
            }
            for (view, runs) in asks {
                memo.run(&nosh(runs, 70), view, 1, DispatchMode::WorkStealing)
                    .unwrap();
            }
            (a.lookups(Kind::Campaign), b.lookups(Kind::Campaign))
        };
        for (stored, a_runs, b_runs, expected) in [
            (0, 2, 2, ((0, 1), (0, 1))),
            (0, 2, 3, ((0, 1), (0, 1))),
            (2, 2, 3, ((1, 0), (0, 1))),
            (3, 2, 3, ((1, 0), (1, 0))),
            (0, 0, 2, ((0, 0), (0, 1))),
        ] {
            for a_first in [true, false] {
                assert_eq!(
                    counts(stored, a_runs, b_runs, a_first),
                    expected,
                    "{stored} stored, a asks {a_runs}, b asks {b_runs}, a first: {a_first}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shorter_entry_never_replaces_a_longer_one() {
        let dir = scratch("overlap");
        let store = Arc::new(av_suite::ArtifactStore::at(&dir));
        let direct = run_campaign_summary(&nosh(4, 50), 1, DispatchMode::WorkStealing)
            .unwrap()
            .runs;
        let (short, long) = (CampaignMemo::new(), CampaignMemo::new());
        let (short_view, long_view) = (
            OracleCache::over(store.clone()),
            OracleCache::over(store.clone()),
        );
        let key = CampaignKey::of(&nosh(2, 50));
        let address = key.address();
        // The short request misses and starts simulating; meanwhile another
        // memo over the store (an overlapping daemon request) stores 4 runs.
        let runs = short.runs(key, 2, &short_view, |start, count| {
            long.run(&nosh(4, 50), &long_view, 1, DispatchMode::WorkStealing)
                .unwrap();
            direct[start as usize..(start + count) as usize].to_vec()
        });
        assert_eq!(runs, direct[..2]);
        let stored = short_view.fetch::<Runs>(address);
        assert_eq!(stored, Some(direct), "the longer entry stands");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_memos_over_one_store_leave_a_whole_entry() {
        let dir = scratch("concurrent");
        let store = Arc::new(av_suite::ArtifactStore::at(&dir));
        let direct = run_campaign_summary(&nosh(3, 60), 1, DispatchMode::WorkStealing)
            .unwrap()
            .runs;
        let address = CampaignKey::of(&nosh(1, 60)).address();
        for _ in 0..3 {
            let _ = std::fs::remove_dir_all(&dir);
            std::thread::scope(|s| {
                for runs in [2, 3] {
                    let (store, direct) = (store.clone(), &direct);
                    s.spawn(move || {
                        let folded = CampaignMemo::new()
                            .run(
                                &nosh(runs, 60),
                                &OracleCache::over(store),
                                1,
                                DispatchMode::WorkStealing,
                            )
                            .unwrap();
                        assert_eq!(folded.runs, direct[..runs as usize]);
                    });
                }
            });
            let view = OracleCache::over(store.clone());
            let stored = view
                .fetch::<Runs>(address)
                .expect("a whole entry, never a mix of both writers");
            assert_eq!(stored, direct[..stored.len()]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disabled_store_leaves_the_memo_alone() {
        let view = OracleCache::disabled();
        let memo = CampaignMemo::new();
        memo.run(&nosh(1, 3), &view, 1, DispatchMode::WorkStealing)
            .unwrap();
        memo.run(&nosh(1, 3), &view, 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(memo.simulated_runs(), 1);
        assert_eq!(view.artifact_totals(), (0, 0), "no store lookups to count");
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
            .run_alone(&nosh(2, 40), 2, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(memo.simulated_runs(), 2);
        let long = memo
            .run_alone(&nosh(3, 40), 1, DispatchMode::Batched { batch_size: 2 })
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
            .run_alone(&nosh(1, 40), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(prefix.runs[..], long.runs[..1]);
        assert_eq!((memo.simulated_runs(), memo.campaigns()), (3, 1));
    }

    #[test]
    fn metrics_campaigns_bypass_the_memo() {
        let memo = CampaignMemo::new();
        memo.run_alone(&nosh(1, 0).with_metrics(), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!((memo.simulated_runs(), memo.campaigns()), (0, 0));
    }

    #[test]
    fn zero_threads_is_a_typed_error_even_on_a_hit() {
        let memo = CampaignMemo::new();
        memo.run_alone(&nosh(1, 0), 1, DispatchMode::WorkStealing)
            .unwrap();
        assert_eq!(
            memo.run_alone(&nosh(1, 0), 0, DispatchMode::WorkStealing)
                .unwrap_err(),
            CampaignError::ZeroThreads
        );
    }

    #[test]
    fn a_panicking_leader_leaves_its_followers_to_simulate() {
        let memo = Arc::new(CampaignMemo::new());
        let campaign = nosh(3, 7);
        memo.run_alone(&nosh(1, 7), 1, DispatchMode::WorkStealing)
            .unwrap();
        let (started, leading) = std::sync::mpsc::channel();
        let leader = {
            let memo = memo.clone();
            let key = CampaignKey::of(&campaign);
            std::thread::spawn(move || {
                memo.runs(key, 3, &OracleCache::disabled(), |start, count| {
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
        let follower = memo
            .run_alone(&campaign, 2, DispatchMode::WorkStealing)
            .unwrap();
        assert!(leader.join().is_err(), "the leader panicked");
        let direct = run_campaign_dispatch(&campaign, 1, DispatchMode::WorkStealing).unwrap();
        assert_eq!(follower, direct.summary());
        assert_eq!(memo.simulated_runs(), 3);
        let again = memo
            .run_alone(&campaign, 1, DispatchMode::Batched { batch_size: 7 })
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
        // The configuration template enters on every field an ablation
        // varies; the run seed inside it does not (run `i` overrides it).
        let configured = |edit: fn(&mut RunConfig)| {
            let mut c = nosh(1, 0);
            edit(&mut c.config);
            CampaignKey::of(&c)
        };
        assert_eq!(base, configured(|_| {}));
        assert_eq!(base, configured(|c| c.seed = 99));
        for (edit, what) in [
            (
                (|c| c.sigma_fraction = 0.5) as fn(&mut RunConfig),
                "σ fraction",
            ),
            (|c| c.fusion.lidar_register = 5, "LiDAR registration"),
            (|c| c.sh.gamma = 8.0, "γ"),
        ] {
            let moved = configured(edit);
            assert_ne!(base, moved, "{what} enters the key");
            assert_ne!(base.address(), moved.address(), "{what} moves the address");
        }
    }
}
