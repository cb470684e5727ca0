//! Content-addressed caching of trained safety-hijacker oracles and the
//! sweep datasets they are trained on.
//!
//! Training one oracle means running a full δ_inject × k × seed sweep
//! (~715 simulations) and 300 Adam epochs — and `table2`, `fig6`–`fig8` and
//! `ablations` each retrain the *same* 〈scenario, vector〉 oracles from
//! scratch. This module makes that work content-addressed over a shared
//! [`ArtifactStore`]: the cache key is a digest of everything that
//! determines the result bit-for-bit (scenario, vector, the full
//! [`SweepConfig`], and a code-version constant bumped whenever
//! collection/training semantics change), so a warm cache returns the exact
//! oracle a fresh training run would produce. Two namespaces live in the
//! store:
//!
//! - `oracle` — trained-oracle snapshots (file-compatible with the cache
//!   directories this module wrote before the artifact store existed);
//! - `dataset` — collected ADS-response sweeps, so a cold oracle still
//!   skips its ~715 simulations when another consumer already collected
//!   the identical sweep.
//!
//! Three more namespaces read through the same views: `search-eval`
//! (candidate evaluation summaries, [`crate::search`]), `campaign`
//! (folded report campaigns, [`crate::memo`]) and `figure` (the Fig. 5
//! and Fig. 8(b) folds, [`crate::figures`]).
//!
//! An [`OracleCache`] is a cheap *view* over the store with its own
//! hit/miss counters: the suite orchestrator gives every job a private
//! view over one shared store, which is how the per-job scorecards in the
//! run summary stay exact.
//!
//! Within one suite execution the views share an [`OracleMemo`] (a value
//! of the execution's [`av_suite::ExecScope`], like the campaign memo):
//! each oracle is decoded or trained once, and its [`network_digest`] and
//! [`oracle_digest`] are computed at most once, however many jobs use it.
//! A lookup the memo answers counts in the asking view as the lookup it
//! replaces, so every scorecard reads as it would without the memo. Nothing
//! in it outlives the execution.
//!
//! Both snapshot kinds (`RTOC`, `RTDS`) are frames of the crate's one store
//! codec (`codec.rs`), which treats every file as hostile: lengths are
//! checked against the remaining bytes *before* any allocation, and any
//! mismatch — magic, version, key echo, shape, parameter count — is a
//! miss, never a panic.

use crate::codec::Frame;
use crate::tally::{self, Work};
use crate::train_sh::{collect_dataset, train_oracle_on, SweepConfig, TrainedOracle};
use av_neural::infer::InferenceMlp;
use av_neural::train::{Dataset, Normalizer};
use av_simkit::scenario::ScenarioId;
use av_suite::dedup::Claim;
use av_suite::fnv::{fnv1a, Fnv1a};
use av_suite::ArtifactStore;
use av_telemetry::{Telemetry, TraceEvent};
use robotack::safety_hijacker::{AttackFeatures, NnOracle};
use robotack::vector::AttackVector;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Version of the dataset-collection + training code path. Bump this when
/// [`crate::train_sh`] changes semantics (sweep seeding, labeling, split,
/// architecture, optimizer), so stale snapshots miss instead of resurrecting
/// an oracle the current code would no longer produce. A simulator change
/// that moves collected runs usually moves report campaigns too: bump
/// [`crate::memo::CAMPAIGN_CODE_VERSION`] with it.
pub const DATASET_CODE_VERSION: u32 = 1;

/// Oracle snapshots: "RoboTack Oracle Cache", format version 1.
const ORACLE_FRAME: Frame = Frame {
    magic: *b"RTOC",
    version: 1,
};

/// Dataset snapshots: "RoboTack DataSet", format version 1.
const DATASET_FRAME: Frame = Frame {
    magic: *b"RTDS",
    version: 1,
};

/// Artifact-store namespace of trained-oracle snapshots.
pub const NS_ORACLE: &str = "oracle";

/// Artifact-store namespace of collected sweep datasets.
pub const NS_DATASET: &str = "dataset";

/// The content address of one trained oracle (and of the sweep dataset it
/// is trained on): a digest of every input that determines the result
/// bit-for-bit.
///
/// The GEMM mode is deliberately not an input: both modes are bit-identical
/// by construction and share addresses — that equivalence is what CI's
/// kernel smoke job diffs.
pub fn cache_key(scenario: ScenarioId, vector: AttackVector, sweep: &SweepConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(DATASET_CODE_VERSION));
    // Generated scenarios fold their content hash after the shared "GEN"
    // name, so every spec gets its own address; the fixed DS-1..5 keys
    // write exactly the bytes they always did (pinned by regression test).
    h.write(scenario.name().as_bytes());
    if let Some(gen_hash) = scenario.gen_hash() {
        h.write_u64(gen_hash);
    }
    h.write(vector.name().as_bytes());
    h.write_u64(sweep.delta_injects.len() as u64);
    for &d in &sweep.delta_injects {
        h.write_f64(d);
    }
    h.write_u64(sweep.ks.len() as u64);
    for &k in &sweep.ks {
        h.write_u64(u64::from(k));
    }
    h.write_u64(sweep.seeds_per_cell);
    h.write_u64(sweep.base_seed);
    h.finish()
}

/// Content digest of a trained oracle (network shape + parameters +
/// normalizer + metrics, by bit pattern) — what the run manifest records.
pub fn oracle_digest(oracle: &TrainedOracle) -> u64 {
    tally::add(Work::OracleDigest, 1);
    fnv1a(&encode(0, oracle))
}

/// Content digest of a collected dataset, by bit pattern.
pub fn dataset_digest(data: &Dataset) -> u64 {
    fnv1a(&encode_dataset(0, data))
}

/// A per-consumer view over a shared, content-addressed [`ArtifactStore`]
/// of [`TrainedOracle`] snapshots and sweep [`Dataset`]s.
///
/// All I/O is best-effort: an unreadable or corrupt snapshot is a cache
/// miss, and a failed store is silently skipped (the freshly computed
/// value is still returned). Hit/miss counters are per-view; the
/// underlying store can be shared across many views (one per suite job).
#[derive(Debug)]
pub struct OracleCache {
    artifacts: Arc<ArtifactStore>,
    telemetry: Telemetry,
    hits: AtomicU64,
    misses: AtomicU64,
    dataset_hits: AtomicU64,
    dataset_misses: AtomicU64,
    campaign_hits: AtomicU64,
    campaign_misses: AtomicU64,
    figure_hits: AtomicU64,
    figure_misses: AtomicU64,
    read_errors: AtomicU64,
    oracles: Option<Arc<OracleMemo>>,
}

impl Default for OracleCache {
    fn default() -> Self {
        OracleCache::disabled()
    }
}

impl OracleCache {
    /// A cache that never hits and never writes (`--no-cache`).
    pub fn disabled() -> OracleCache {
        OracleCache::over(Arc::new(ArtifactStore::disabled()))
    }

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> OracleCache {
        OracleCache::over(Arc::new(ArtifactStore::at(dir)))
    }

    /// A view over an existing (typically shared) artifact store, with
    /// fresh hit/miss counters.
    pub fn over(artifacts: Arc<ArtifactStore>) -> OracleCache {
        OracleCache {
            artifacts,
            telemetry: Telemetry::disabled(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dataset_hits: AtomicU64::new(0),
            dataset_misses: AtomicU64::new(0),
            campaign_hits: AtomicU64::new(0),
            campaign_misses: AtomicU64::new(0),
            figure_hits: AtomicU64::new(0),
            figure_misses: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            oracles: None,
        }
    }

    /// Shares `memo`'s oracles with this view: [`Self::oracle_for`] answers
    /// from it, and fills it.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<OracleMemo>) -> OracleCache {
        self.oracles = Some(memo);
        self
    }

    /// The default cache root, next to the build artifacts.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("oracle-cache")
    }

    /// Attaches a telemetry handle; hits and misses are emitted as
    /// [`TraceEvent::OracleCacheHit`] / [`TraceEvent::OracleCacheMiss`].
    /// If this view still owns its store exclusively, the store emits
    /// [`TraceEvent::ArtifactHit`] / [`TraceEvent::ArtifactMiss`] too.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> OracleCache {
        if let Some(store) = Arc::get_mut(&mut self.artifacts) {
            store.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
        self
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.artifacts.is_enabled()
    }

    /// The shared artifact store behind this view.
    pub fn artifact_store(&self) -> &Arc<ArtifactStore> {
        &self.artifacts
    }

    /// Oracle-snapshot hits so far (this view).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Oracle-snapshot misses so far (disabled caches count every lookup).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Dataset hits so far (this view).
    pub fn dataset_hits(&self) -> u64 {
        self.dataset_hits.load(Ordering::Relaxed)
    }

    /// Dataset misses so far (this view).
    pub fn dataset_misses(&self) -> u64 {
        self.dataset_misses.load(Ordering::Relaxed)
    }

    /// Campaign-entry hits so far (this view): store reads that held every
    /// run the request asked for.
    pub fn campaign_hits(&self) -> u64 {
        self.campaign_hits.load(Ordering::Relaxed)
    }

    /// Campaign-entry misses so far (this view): store reads after which
    /// runs still had to be simulated.
    pub fn campaign_misses(&self) -> u64 {
        self.campaign_misses.load(Ordering::Relaxed)
    }

    /// Counts one campaign-entry lookup of this view ([`crate::memo`]).
    pub(crate) fn count_campaign(&self, hit: bool) {
        let counter = if hit {
            &self.campaign_hits
        } else {
            &self.campaign_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Figure-entry hits so far (this view).
    pub fn figure_hits(&self) -> u64 {
        self.figure_hits.load(Ordering::Relaxed)
    }

    /// Figure-entry misses so far (this view): folds that had to be
    /// computed.
    pub fn figure_misses(&self) -> u64 {
        self.figure_misses.load(Ordering::Relaxed)
    }

    /// Counts one figure-entry lookup of this view ([`crate::figures`]).
    pub(crate) fn count_figure(&self, hit: bool) {
        let counter = if hit {
            &self.figure_hits
        } else {
            &self.figure_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// All artifact lookups this view made, as ⟨hits, misses⟩ across the
    /// oracle, dataset, campaign and figure namespaces — what the suite's
    /// per-job scorecard reports.
    pub fn artifact_totals(&self) -> (u64, u64) {
        (
            self.hits() + self.dataset_hits() + self.campaign_hits() + self.figure_hits(),
            self.misses() + self.dataset_misses() + self.campaign_misses() + self.figure_misses(),
        )
    }

    /// Store reads that failed with a real I/O error (this view) — each one
    /// degraded to a recompute.
    pub fn read_errors(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Reads and decodes ⟨`namespace`, `key`⟩ without touching this view's
    /// hit/miss counters. Real I/O failures are surfaced on stderr, counted
    /// in [`Self::read_errors`], and then degrade to a miss — the
    /// computation still runs, just uncached. Every store-backed cache in
    /// the crate reads through here.
    pub(crate) fn fetch<T>(
        &self,
        namespace: &'static str,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        match self.artifacts.get(namespace, key) {
            Ok(bytes) => bytes.as_deref().and_then(decode),
            Err(e) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[oracle-cache] degraded to recompute: {e}");
                None
            }
        }
    }

    /// Looks up an oracle snapshot by key. Any I/O or decode failure is a
    /// miss.
    pub fn lookup(&self, key: u64) -> Option<TrainedOracle> {
        let found = self.fetch(NS_ORACLE, key, |bytes| decode(key, bytes));
        match found {
            Some(oracle) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .emit(0.0, || TraceEvent::OracleCacheHit { key });
                Some(oracle)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .emit(0.0, || TraceEvent::OracleCacheMiss { key });
                None
            }
        }
    }

    /// Persists an oracle snapshot under `key` (atomic; best-effort).
    pub fn store(&self, key: u64, oracle: &TrainedOracle) {
        self.artifacts.put(NS_ORACLE, key, &encode(key, oracle));
    }

    /// Looks up a collected dataset by key. Any I/O or decode failure is a
    /// miss.
    pub fn lookup_dataset(&self, key: u64) -> Option<Dataset> {
        let found = self.fetch(NS_DATASET, key, |bytes| decode_dataset(key, bytes));
        match found {
            Some(data) => {
                self.dataset_hits.fetch_add(1, Ordering::Relaxed);
                Some(data)
            }
            None => {
                self.dataset_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists a collected dataset under `key` (atomic; best-effort).
    pub fn store_dataset(&self, key: u64, data: &Dataset) {
        self.artifacts
            .put(NS_DATASET, key, &encode_dataset(key, data));
    }

    /// The cached equivalent of [`collect_dataset`]: returns the stored
    /// sweep when present, otherwise collects, stores, and returns it —
    /// each 〈scenario, vector〉 sweep runs its ~715 simulations once per
    /// store, no matter how many *concurrent* consumers ask: a miss claims
    /// the key in the store's in-flight registry, so parallel requests for
    /// the same sweep coalesce onto one collection.
    pub fn dataset_for(
        &self,
        scenario: ScenarioId,
        vector: AttackVector,
        sweep: &SweepConfig,
    ) -> Dataset {
        let key = cache_key(scenario, vector, sweep);
        loop {
            if let Some(data) = self.lookup_dataset(key) {
                return data;
            }
            match self.artifacts.claim(NS_DATASET, key) {
                Claim::Leader(token) => {
                    // Double-check: a finishing leader may have stored the
                    // sweep between our miss and our claim. Raw fetch — the
                    // miss above already counted this consultation.
                    if let Some(data) = self.fetch(NS_DATASET, key, |b| decode_dataset(key, b)) {
                        token.disavow();
                        return data;
                    }
                    let data = collect_dataset(scenario, vector, sweep);
                    self.store_dataset(key, &data);
                    drop(token);
                    return data;
                }
                // A leader just finished this key: loop and re-read (counts
                // as this view's hit). If the leader failed to persist, the
                // next iteration claims fresh leadership and computes.
                Claim::Coalesced => continue,
                Claim::Uncoordinated => {
                    let data = collect_dataset(scenario, vector, sweep);
                    self.store_dataset(key, &data);
                    return data;
                }
            }
        }
    }

    /// The cached equivalent of [`crate::train_sh::train_oracle`]: returns
    /// the snapshot when present, otherwise trains (on the cached dataset
    /// when one exists), stores, and returns the fresh oracle. Concurrent
    /// trainings of the same key coalesce exactly like [`Self::dataset_for`]
    /// — the expensive 300-epoch job runs once per store. A view with an
    /// [`OracleMemo`] returns the memo's oracle when it holds one, counted
    /// as the lookup it replaces, and otherwise leaves the oracle there.
    pub fn oracle_for(
        &self,
        scenario: ScenarioId,
        vector: AttackVector,
        sweep: &SweepConfig,
    ) -> Option<TrainedOracle> {
        let key = cache_key(scenario, vector, sweep);
        let Some(memo) = &self.oracles else {
            return self.load_or_train(key, scenario, vector, sweep);
        };
        // Only this key's slot is held while it loads or trains; a slot
        // that lost its leader to a panic is simply still empty.
        let slot = memo.slot(key);
        let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(memoized) = held.as_ref() {
            self.count_memoized(key);
            return Some(memoized.trained.clone());
        }
        // A kinematic fallback (`None`) is not memoized: each caller
        // retries, as without a memo.
        let trained = self.load_or_train(key, scenario, vector, sweep)?;
        let memoized = Arc::new(Memoized {
            trained: trained.clone(),
            network: OnceLock::new(),
            digest: OnceLock::new(),
        });
        lock(&memo.loaded).push(memoized.clone());
        *held = Some(memoized);
        Some(trained)
    }

    /// Counts a lookup the memo answered as the lookups it replaces: an
    /// oracle hit on an enabled store; on a disabled one, the oracle and
    /// dataset misses of the retraining it saves.
    fn count_memoized(&self, key: u64) {
        if self.is_enabled() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .emit(0.0, || TraceEvent::OracleCacheHit { key });
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.dataset_misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .emit(0.0, || TraceEvent::OracleCacheMiss { key });
        }
    }

    /// [`network_digest`] of `oracle`, computed once per execution when it
    /// is one of this view's memoized oracles.
    pub fn network_digest_of(&self, oracle: &Arc<NnOracle>) -> u64 {
        match self.memoized(|m| Arc::ptr_eq(&m.trained.oracle, oracle)) {
            Some(m) => *m.network.get_or_init(|| network_digest(oracle)),
            None => network_digest(oracle),
        }
    }

    /// [`oracle_digest`] of `trained`, computed once per execution when it
    /// is one of this view's memoized oracles.
    pub fn oracle_digest_of(&self, trained: &TrainedOracle) -> u64 {
        let same = |m: &Memoized| {
            Arc::ptr_eq(&m.trained.oracle, &trained.oracle)
                && m.trained.val_mse.to_bits() == trained.val_mse.to_bits()
                && m.trained.examples == trained.examples
        };
        match self.memoized(same) {
            Some(m) => *m.digest.get_or_init(|| oracle_digest(&m.trained)),
            None => oracle_digest(trained),
        }
    }

    /// The memoized oracle `is` picks, if this view has a memo holding one.
    fn memoized(&self, is: impl Fn(&Memoized) -> bool) -> Option<Arc<Memoized>> {
        let memo = self.oracles.as_ref()?;
        lock(&memo.loaded).iter().find(|m| is(m)).cloned()
    }

    /// [`Self::oracle_for`] without the memo: the store's snapshot, or a
    /// coalesced training.
    fn load_or_train(
        &self,
        key: u64,
        scenario: ScenarioId,
        vector: AttackVector,
        sweep: &SweepConfig,
    ) -> Option<TrainedOracle> {
        loop {
            if let Some(oracle) = self.lookup(key) {
                return Some(oracle);
            }
            match self.artifacts.claim(NS_ORACLE, key) {
                Claim::Leader(token) => {
                    if let Some(oracle) = self.fetch(NS_ORACLE, key, |b| decode(key, b)) {
                        token.disavow();
                        return Some(oracle);
                    }
                    let data = self.dataset_for(scenario, vector, sweep);
                    // `?` drops the token during unwind of this frame, so a
                    // scarce-data bailout never strands coalesced waiters.
                    let trained = train_oracle_on(&data)?;
                    self.store(key, &trained);
                    drop(token);
                    return Some(trained);
                }
                Claim::Coalesced => continue,
                Claim::Uncoordinated => {
                    let data = self.dataset_for(scenario, vector, sweep);
                    let trained = train_oracle_on(&data)?;
                    self.store(key, &trained);
                    return Some(trained);
                }
            }
        }
    }
}

/// The oracles one suite execution has loaded or trained, shared by the
/// [`OracleCache`] views of its jobs ([`OracleCache::with_memo`]). One lives
/// for exactly one `av_suite::execute` call, as a value of its
/// [`av_suite::ExecScope`]; a standalone experiment binary has none.
#[derive(Debug, Default)]
pub struct OracleMemo {
    slots: Mutex<HashMap<u64, Slot>>,
    /// Every filled slot's oracle, for the digest lookups by identity.
    loaded: Mutex<Vec<Arc<Memoized>>>,
}

/// One cache key's oracle, once loaded or trained.
type Slot = Arc<Mutex<Option<Arc<Memoized>>>>;

/// A memoized oracle with its digests, each computed on first use.
#[derive(Debug)]
struct Memoized {
    trained: TrainedOracle,
    network: OnceLock<u64>,
    digest: OnceLock<u64>,
}

impl OracleMemo {
    /// An empty memo.
    pub fn new() -> OracleMemo {
        OracleMemo::default()
    }

    /// Oracles held so far.
    pub fn oracles(&self) -> usize {
        lock(&self.loaded).len()
    }

    fn slot(&self, key: u64) -> Slot {
        lock(&self.slots).entry(key).or_default().clone()
    }
}

/// Locks `mutex`; the memo's maps stay consistent under a panic, since
/// each update is a single insert or push.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes a [`TrainedOracle`]: metrics, then the network section.
fn encode(key: u64, oracle: &TrainedOracle) -> Vec<u8> {
    let net = oracle.oracle.inference();
    let mut w = ORACLE_FRAME.writer(
        key,
        8 * (6
            + 2 * oracle.oracle.normalizer().mean.len()
            + net.layer_sizes().len()
            + net.param_count()),
    );
    w.f64(oracle.val_mse);
    w.u64(oracle.examples as u64);
    write_network(&oracle.oracle, |bytes| w.bytes(bytes));
    w.finish()
}

/// Content digest of an oracle's network alone — the normalizer, dropout,
/// shape and parameters [`oracle_digest`] hashes, without the training
/// metrics. Two separately loaded copies of one oracle share it; it is
/// what identifies an oracle's behaviour.
pub fn network_digest(oracle: &NnOracle) -> u64 {
    tally::add(Work::NetworkDigest, 1);
    let mut h = Fnv1a::new();
    write_network(oracle, |bytes| h.write(bytes));
    h.finish()
}

/// Emits the snapshot's network section — normalizer, dropout, layer
/// sizes and parameters, by bit pattern — as little-endian words.
fn write_network(oracle: &NnOracle, mut emit: impl FnMut(&[u8])) {
    // Parameters stream straight out of the oracle's inference form: no
    // row-major copy of the network is built just to be serialized.
    let net = oracle.inference();
    let norm = oracle.normalizer();
    let sizes = net.layer_sizes();

    emit(&(norm.mean.len() as u64).to_le_bytes());
    for &m in &norm.mean {
        emit(&m.to_bits().to_le_bytes());
    }
    for &s in &norm.std {
        emit(&s.to_bits().to_le_bytes());
    }
    emit(&oracle.dropout().to_bits().to_le_bytes());
    emit(&(sizes.len() as u64).to_le_bytes());
    for &s in sizes {
        emit(&(s as u64).to_le_bytes());
    }
    emit(&(net.param_count() as u64).to_le_bytes());
    for p in net.params() {
        emit(&p.to_bits().to_le_bytes());
    }
}

/// Deserializes an oracle snapshot; `None` on any structural problem.
fn decode(key: u64, bytes: &[u8]) -> Option<TrainedOracle> {
    tally::add(Work::OracleDecode, 1);
    let mut r = ORACLE_FRAME.open(key, bytes)?;
    let val_mse = r.f64()?;
    let examples = usize::try_from(r.u64()?).ok()?;

    let dim = r.count(16)?;
    let mean = r.f64s(dim)?;
    let std = r.f64s(dim)?;

    let dropout = r.f64()?;
    let n_sizes = r.count(8).filter(|&n| n <= 64)?;
    let sizes: Vec<usize> = (0..n_sizes)
        .map(|_| r.u64().and_then(|s| usize::try_from(s).ok()))
        .collect::<Option<_>>()?;
    let n_params = r.count(8)?;
    let params = r.f64s(n_params)?;
    r.end()?;

    // Straight into the inference form: no intermediate row-major copy.
    let net = InferenceMlp::from_flat(&sizes, &params)?;
    // NnOracle asserts the input and output shape — pre-check both so
    // hostile bytes can never panic.
    if net.input_dim() != AttackFeatures::INPUT_DIM
        || net.output_dim() != 1
        || mean.len() != net.input_dim()
    {
        return None;
    }
    Some(TrainedOracle {
        oracle: Arc::new(NnOracle::from_inference(
            net,
            dropout,
            Normalizer { mean, std },
        )),
        val_mse,
        examples,
    })
}

/// Serializes a collected [`Dataset`] (row lengths explicit, so decode
/// never trusts a dimension it didn't read).
fn encode_dataset(key: u64, data: &Dataset) -> Vec<u8> {
    let floats: usize = data.inputs.iter().chain(&data.targets).map(Vec::len).sum();
    let mut w = DATASET_FRAME.writer(key, 8 + 16 * data.inputs.len() + 8 * floats);
    w.u64(data.inputs.len() as u64);
    for (input, target) in data.inputs.iter().zip(&data.targets) {
        for row in [input, target] {
            w.u64(row.len() as u64);
            for &x in row {
                w.f64(x);
            }
        }
    }
    w.finish()
}

/// Deserializes a dataset snapshot; `None` on any structural problem.
fn decode_dataset(key: u64, bytes: &[u8]) -> Option<Dataset> {
    let mut r = DATASET_FRAME.open(key, bytes)?;
    // Each row needs at least its two length fields.
    let n_rows = r.count(16)?;
    let mut inputs = Vec::with_capacity(n_rows);
    let mut targets = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let input_len = r.count(8)?;
        inputs.push(r.f64s(input_len)?);
        let target_len = r.count(8)?;
        targets.push(r.f64s(target_len)?);
    }
    r.end()?;
    Some(Dataset { inputs, targets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_neural::train::Dataset;

    fn sample_oracle() -> TrainedOracle {
        let data = Dataset::from_rows((0..64).map(|i| {
            let delta = 5.0 + f64::from(i % 16) * 2.0;
            let k = f64::from(i % 8) * 10.0;
            (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
        }));
        train_oracle_on(&data).expect("synthetic dataset trains")
    }

    fn sample_dataset() -> Dataset {
        Dataset::from_rows((0..24).map(|i| {
            let delta = 4.0 + f64::from(i) * 1.5;
            (vec![delta, -2.0, 0.25, 0.0, 30.0], vec![delta - 3.0])
        }))
    }

    /// A hand-built oracle: fixed shape, parameters, normalizer and
    /// metrics, so its snapshot bytes depend on the codec alone.
    fn fixed_oracle() -> TrainedOracle {
        let params: Vec<f64> = (0..22).map(|i| f64::from(i) * 0.125 - 1.0).collect();
        let net = InferenceMlp::from_flat(&[5, 3, 1], &params).expect("well-formed");
        let normalizer = Normalizer {
            mean: vec![1.0, -2.0, 0.5, 0.0, 40.0],
            std: vec![2.0, 1.5, 0.25, 1.0, 20.0],
        };
        TrainedOracle {
            oracle: Arc::new(NnOracle::from_inference(net, 0.1, normalizer)),
            val_mse: 0.375,
            examples: 715,
        }
    }

    /// The `RTOC` and `RTDS` bytes of a fixed oracle and dataset: a codec
    /// change that moves them strands every stored oracle and dataset.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let key = 0x0123_4567_89ab_cdef;
        let oracle = encode(key, &fixed_oracle());
        let dataset = encode_dataset(key, &sample_dataset());
        assert_eq!(
            (oracle.len(), fnv1a(&oracle), dataset.len(), fnv1a(&dataset)),
            PINNED_SNAPSHOTS,
            "snapshot bytes changed: every stored oracle and dataset would miss"
        );
        assert!(decode(key, &oracle).is_some_and(|o| bitwise_eq(&o, &fixed_oracle())));
    }

    proptest::proptest! {
        #[test]
        fn fuzz_snapshot_decoders(
            dataset in proptest::prelude::any::<bool>(),
            edits in crate::codec::fuzz::edits(),
        ) {
            use crate::codec::fuzz::{check, mutate};
            let key = 0x0123_4567_89ab_cdef;
            if dataset {
                let bytes = mutate(&encode_dataset(key, &sample_dataset()), &edits);
                check(&bytes, |b| decode_dataset(key, b), |d| encode_dataset(key, d))?;
            } else {
                let bytes = mutate(&encode(key, &fixed_oracle()), &edits);
                check(&bytes, |b| decode(key, b), |o| encode(key, o))?;
            }
        }
    }

    /// ⟨length, FNV-1a⟩ of the fixed oracle's snapshot, then of the
    /// sample dataset's.
    const PINNED_SNAPSHOTS: (usize, u64, usize, u64) =
        (344, 0x0183_f84c_3736_f674, 1560, 0xa6d7_28ec_8669_dd77);

    fn bitwise_eq(a: &TrainedOracle, b: &TrainedOracle) -> bool {
        let (na, nb) = (a.oracle.inference(), b.oracle.inference());
        let (ma, mb) = (a.oracle.normalizer(), b.oracle.normalizer());
        na.layer_sizes() == nb.layer_sizes()
            && a.oracle.dropout().to_bits() == b.oracle.dropout().to_bits()
            && na
                .params()
                .zip(nb.params())
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && ma.mean == mb.mean
            && ma.std == mb.std
            && a.val_mse.to_bits() == b.val_mse.to_bits()
            && a.examples == b.examples
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let oracle = sample_oracle();
        let bytes = encode(42, &oracle);
        let back = decode(42, &bytes).expect("round trip");
        assert!(bitwise_eq(&oracle, &back));
        // Same inputs → same prediction bits.
        use robotack::safety_hijacker::SafetyOracle;
        let f = AttackFeatures {
            delta: 25.0,
            v_rel_lon: -3.0,
            v_rel_lat: 0.5,
            a_rel_lon: -0.1,
        };
        assert_eq!(
            oracle.oracle.predict_delta(&f, 20).to_bits(),
            back.oracle.predict_delta(&f, 20).to_bits()
        );
    }

    #[test]
    fn dataset_codec_round_trips_bit_identically() {
        let data = sample_dataset();
        let bytes = encode_dataset(9, &data);
        let back = decode_dataset(9, &bytes).expect("round trip");
        assert_eq!(data.inputs, back.inputs);
        assert_eq!(data.targets, back.targets);
        assert_eq!(dataset_digest(&data), dataset_digest(&back));
    }

    #[test]
    fn dataset_snapshots_reject_corruption() {
        let bytes = encode_dataset(5, &sample_dataset());
        assert!(decode_dataset(6, &bytes).is_none(), "key echo mismatch");
        for cut in [0, 3, 4, 15, 16, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_dataset(5, &bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_dataset(5, &padded).is_none(), "trailing garbage");
        // Hostile row count can't force an allocation.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_dataset(5, &huge).is_none(), "hostile row count");
    }

    #[test]
    fn wrong_key_magic_or_version_miss() {
        let bytes = encode(7, &sample_oracle());
        assert!(decode(8, &bytes).is_none(), "key echo mismatch");
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode(7, &bad_magic).is_none(), "magic mismatch");
        let mut bad_version = bytes.clone();
        bad_version[4] ^= 0xFF;
        assert!(decode(7, &bad_version).is_none(), "format version mismatch");
    }

    #[test]
    fn truncated_and_padded_snapshots_miss() {
        let bytes = encode(3, &sample_oracle());
        for cut in [0, 1, 4, 16, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(3, &bytes[..cut]).is_none(), "truncated at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(3, &padded).is_none(), "trailing garbage");
    }

    #[test]
    fn zero_width_hidden_layer_snapshot_answers_without_panicking() {
        // `sizes = [5, 0, 1]` is structurally well-formed (the only
        // parameter is the output bias), so decode accepts it; the oracle
        // (which both engines query one row at a time) must answer the
        // empty sum plus the bias instead of panicking on hostile store
        // bytes.
        let net = av_neural::mlp::Mlp::from_flat(&[5, 0, 1], 0.1, &[0.75]).expect("well-formed");
        let snapshot = TrainedOracle {
            oracle: Arc::new(NnOracle::new(
                net,
                Normalizer {
                    mean: vec![0.0; 5],
                    std: vec![1.0; 5],
                },
            )),
            val_mse: 1.0,
            examples: 1,
        };
        let back = decode(4, &encode(4, &snapshot)).expect("well-formed snapshot decodes");
        assert!(bitwise_eq(&snapshot, &back));
        use robotack::safety_hijacker::SafetyOracle;
        let f = AttackFeatures {
            delta: 25.0,
            v_rel_lon: -3.0,
            v_rel_lat: 0.5,
            a_rel_lon: -0.1,
        };
        assert_eq!(back.oracle.predict_delta(&f, 20), 0.75);
        assert_eq!(back.oracle.predict_delta(&f, 40), 0.75);
    }

    #[test]
    fn key_depends_on_every_sweep_field() {
        let base = SweepConfig::tiny();
        let k0 = cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &base);

        assert_ne!(k0, cache_key(ScenarioId::Ds2, AttackVector::MoveOut, &base));
        assert_ne!(k0, cache_key(ScenarioId::Ds1, AttackVector::MoveIn, &base));

        let mut s = base.clone();
        s.delta_injects[0] += 1.0;
        assert_ne!(k0, cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &s));
        let mut s = base.clone();
        s.ks.push(99);
        assert_ne!(k0, cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &s));
        let mut s = base.clone();
        s.seeds_per_cell += 1;
        assert_ne!(k0, cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &s));
        let mut s = base.clone();
        s.base_seed ^= 1;
        assert_ne!(k0, cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &s));

        // And is stable for identical inputs.
        assert_eq!(
            k0,
            cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &base.clone())
        );
    }

    /// Satellite regression pin: generalizing the key schema to generated
    /// scenarios must not move a single fixed-scenario cache address. These
    /// literals are the exact DS-1..5 keys the pre-generalization code
    /// produced for a frozen sweep — if any of them changes, every warm
    /// store in existence silently goes cold.
    #[test]
    fn fixed_scenario_cache_keys_are_pinned() {
        let sweep = SweepConfig {
            delta_injects: vec![8.0, 16.0, 24.0, 32.0],
            ks: vec![10, 30, 50, 70],
            seeds_per_cell: 1,
            base_seed: 9000,
        };
        let pinned: [(ScenarioId, AttackVector, u64); 6] = [
            (ScenarioId::Ds1, AttackVector::Disappear, PIN_DS1_DISAPPEAR),
            (ScenarioId::Ds2, AttackVector::Disappear, PIN_DS2_DISAPPEAR),
            (ScenarioId::Ds1, AttackVector::MoveOut, PIN_DS1_MOVE_OUT),
            (ScenarioId::Ds2, AttackVector::MoveOut, PIN_DS2_MOVE_OUT),
            (ScenarioId::Ds3, AttackVector::MoveIn, PIN_DS3_MOVE_IN),
            (ScenarioId::Ds4, AttackVector::MoveIn, PIN_DS4_MOVE_IN),
        ];
        for (scenario, vector, expected) in pinned {
            assert_eq!(
                cache_key(scenario, vector, &sweep),
                expected,
                "{scenario:?}/{vector:?}: fixed-scenario cache key drifted"
            );
        }
    }

    const PIN_DS1_DISAPPEAR: u64 = 0xa10d_35e6_aa2f_52c0;
    const PIN_DS2_DISAPPEAR: u64 = 0xb8b3_cf40_52a3_8067;
    const PIN_DS1_MOVE_OUT: u64 = 0x28ca_ea16_0699_ae65;
    const PIN_DS2_MOVE_OUT: u64 = 0xfca9_ed94_af05_84ac;
    const PIN_DS3_MOVE_IN: u64 = 0x48f6_9faf_22af_b956;
    const PIN_DS4_MOVE_IN: u64 = 0x0a00_5190_4b61_6001;

    /// Generated scenarios key on their content hash: distinct specs get
    /// distinct addresses (no collision on the shared "GEN" name), and the
    /// same spec keys stably.
    #[test]
    fn generated_scenario_keys_depend_on_the_content_hash() {
        let sweep = SweepConfig::tiny();
        let a = cache_key(ScenarioId::Gen(1), AttackVector::MoveOut, &sweep);
        let b = cache_key(ScenarioId::Gen(2), AttackVector::MoveOut, &sweep);
        assert_ne!(a, b, "distinct spec hashes must not collide");
        assert_eq!(
            a,
            cache_key(ScenarioId::Gen(1), AttackVector::MoveOut, &sweep),
            "generated keys are stable"
        );
        for scenario in ScenarioId::ALL {
            assert_ne!(
                a,
                cache_key(scenario, AttackVector::MoveOut, &sweep),
                "generated keys never collide with fixed-scenario keys"
            );
        }
    }

    #[test]
    fn cold_miss_then_warm_hit_round_trip() {
        let dir = std::env::temp_dir().join(format!("oracle-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = OracleCache::at(&dir);
        let key = 0xDEAD_BEEF_u64;

        assert!(cache.lookup(key).is_none(), "cold cache misses");
        let oracle = sample_oracle();
        cache.store(key, &oracle);
        let back = cache.lookup(key).expect("warm cache hits");
        assert!(bitwise_eq(&oracle, &back));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_round_trip_and_shared_store_views() {
        let dir = std::env::temp_dir().join(format!("dataset-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::at(&dir));

        let writer = OracleCache::over(store.clone());
        assert!(writer.lookup_dataset(11).is_none(), "cold dataset misses");
        let data = sample_dataset();
        writer.store_dataset(11, &data);
        assert_eq!(
            (writer.dataset_hits(), writer.dataset_misses()),
            (0, 1),
            "writer view counted its own miss only"
        );

        // A second view over the same store hits, with its own counters.
        let reader = OracleCache::over(store);
        let back = reader.lookup_dataset(11).expect("warm dataset hits");
        assert_eq!(back.inputs, data.inputs);
        assert_eq!(back.targets, data.targets);
        assert_eq!((reader.dataset_hits(), reader.dataset_misses()), (1, 0));
        assert_eq!(
            (reader.hits(), reader.misses()),
            (0, 0),
            "oracle ns untouched"
        );
        assert_eq!(reader.artifact_totals(), (1, 0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_dataset_requests_coalesce_onto_one_collection() {
        let dir = std::env::temp_dir().join(format!("dataset-dedup-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::at(&dir));
        let sweep = SweepConfig::tiny();

        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = store.clone();
                    let sweep = sweep.clone();
                    s.spawn(move || {
                        let cache = OracleCache::over(store);
                        let data =
                            cache.dataset_for(ScenarioId::Ds1, AttackVector::MoveOut, &sweep);
                        dataset_digest(&data)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("view"))
                .collect()
        });

        assert!(digests.windows(2).all(|w| w[0] == w[1]), "identical sweeps");
        // However the four views interleave — straight hit, coalesced wait,
        // or disavowed leadership — exactly one collection ran.
        assert_eq!(store.dedup_counters().0, 1, "one collection led");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_execution_memo_loads_each_oracle_once_counted_as_the_lookup_it_replaces() {
        let dir = std::env::temp_dir().join(format!("oracle-memo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::at(&dir));
        let sweep = SweepConfig::tiny();
        let key = cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &sweep);
        OracleCache::over(store.clone()).store(key, &sample_oracle());

        let memo = Arc::new(OracleMemo::new());
        let view = || OracleCache::over(store.clone()).with_memo(memo.clone());
        let (first, second) = (view(), view());
        let a = first
            .oracle_for(ScenarioId::Ds1, AttackVector::MoveOut, &sweep)
            .expect("stored oracle");
        let b = second
            .oracle_for(ScenarioId::Ds1, AttackVector::MoveOut, &sweep)
            .expect("memoized oracle");
        assert!(Arc::ptr_eq(&a.oracle, &b.oracle), "one decode, shared");
        assert_eq!(memo.oracles(), 1);
        for v in [&first, &second] {
            assert_eq!((v.hits(), v.misses()), (1, 0), "each view counts a hit");
        }
        let loaded = OracleCache::over(store.clone())
            .lookup(key)
            .expect("a separate copy");
        assert!(!Arc::ptr_eq(&loaded.oracle, &b.oracle));
        for trained in [&b, &loaded] {
            assert_eq!(
                second.network_digest_of(&trained.oracle),
                network_digest(&trained.oracle)
            );
            assert_eq!(second.oracle_digest_of(trained), oracle_digest(trained));
        }

        // On a disabled store a memoized oracle would count as the oracle
        // and dataset misses of its retraining; a kinematic fallback (the
        // tiny sweep has too few examples) is not memoized at all.
        let memo = Arc::new(OracleMemo::new());
        for _ in 0..2 {
            let alone = OracleCache::disabled().with_memo(memo.clone());
            assert!(alone
                .oracle_for(ScenarioId::Ds1, AttackVector::MoveOut, &sweep)
                .is_none());
            assert_eq!(alone.artifact_totals(), (0, 2), "oracle and dataset miss");
        }
        assert_eq!(memo.oracles(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let cache = OracleCache::disabled();
        cache.store(1, &sample_oracle());
        assert!(cache.lookup(1).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.store_dataset(1, &sample_dataset());
        assert!(cache.lookup_dataset(1).is_none());
        assert_eq!((cache.dataset_hits(), cache.dataset_misses()), (0, 1));
    }
}
