//! Layer probes of a traced run: fixed measurements of single layers, run
//! the same way in every workload after its traced rep.

use crate::measure::{median, Ledger, Metrics, STAGES};
use crate::trace::Trace;
use crate::workloads::WORKERS;
use av_experiments::campaign::{run_campaign_dispatch, Campaign, DispatchMode};
use av_experiments::oracle_cache::{oracle_digest, NS_DATASET, NS_ORACLE};
use av_experiments::prelude::{AttackerSpec, OracleSpec, ScenarioId, Stage};
use av_experiments::search::NS_SEARCH_EVAL;
use av_experiments::suite::{Args, ARMS};
use av_experiments::train_sh::train_oracle_on;
use av_experiments::{cache_key, OracleCache};
use av_suite::ArtifactStore;
use robotack::vector::AttackVector;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Runs of the probe campaign (DS-1-Disappear-R with its NN oracle).
const PROBE_RUNS: u64 = 120;
/// Trainings of the training probe; the metric is their median.
const TRAIN_REPS: usize = 3;

fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe and sets its metrics: the simulation stages, the
/// sequential and batched campaign engines and oracle training (all over
/// the `prepared` store), oracle-cache lookups, and a get/put round trip of
/// every artifact in `final_store` into a fresh store under `work`.
pub fn run(
    prepared: &Path,
    final_store: &Path,
    work: &Path,
    seed: u64,
    trace: &Trace,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let sweep = Args::default().sweep();
    let cache = OracleCache::over(Arc::new(ArtifactStore::at(prepared)));
    let (scenario, vector) = (ScenarioId::Ds1, AttackVector::Disappear);
    let trained = cache
        .oracle_for(scenario, vector, &sweep)
        .ok_or("the prepared store has no DS-1 Disappear oracle")?;
    let campaign = Campaign::new(
        "DS-1-Disappear-R",
        scenario,
        AttackerSpec::RoboTack {
            vector: Some(vector),
            oracle: OracleSpec::Nn(trained.oracle.clone()),
        },
        PROBE_RUNS,
        seed,
    );

    // Campaign engines: per-run sessions vs lockstep batches of 32, which
    // must agree run for run.
    let mut digests = Vec::new();
    for (name, mode) in [
        ("seq", DispatchMode::WorkStealing),
        ("batch32", DispatchMode::Batched { batch_size: 32 }),
    ] {
        let span = trace.begin(&format!("probe:campaign.{name}"), None);
        let started = Instant::now();
        let result = run_campaign_dispatch(&campaign, WORKERS, mode).map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64();
        trace.end(span);
        metrics.set(
            &format!("experiments.campaign.{name}.runs_per_s"),
            PROBE_RUNS as f64 / secs,
            1,
        );
        digests.push(
            result
                .outcomes
                .iter()
                .map(|o| o.record.digest())
                .collect::<Vec<_>>(),
        );
    }
    ledger.check(digests[0] == digests[1], || {
        "probe: batched campaign outcomes differ from the sequential engine".into()
    });

    // Simulation stages of the same campaign.
    let span = trace.begin("probe:campaign.stages", None);
    let staged = run_campaign_dispatch(
        &campaign.clone().with_metrics(),
        WORKERS,
        DispatchMode::WorkStealing,
    )
    .map_err(|e| e.to_string())?;
    trace.end(span);
    let snapshot = staged
        .metrics
        .ok_or("probe campaign collected no metrics")?;
    for name in STAGES {
        let summary = Stage::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .and_then(|s| snapshot.stage(s))
            .ok_or_else(|| format!("no stage named {name}"))?;
        let count = usize::try_from(summary.count).unwrap_or(usize::MAX);
        metrics.set(
            &format!("stage.{name}.busy_ms"),
            summary.total_ns as f64 / 1e6,
            count,
        );
        metrics.set(&format!("stage.{name}.count"), summary.count as f64, 1);
    }

    // Oracle training on the stored dataset: must reproduce the stored
    // oracle bit for bit.
    let key = cache_key(scenario, vector, &sweep);
    let data = cache
        .lookup_dataset(key)
        .ok_or("the prepared store has no DS-1 Disappear dataset")?;
    let mut train_ms = Vec::new();
    for _ in 0..TRAIN_REPS {
        let span = trace.begin("probe:train", None);
        let started = Instant::now();
        let retrained = train_oracle_on(&data).ok_or("training found too little data")?;
        train_ms.push(millis(started));
        trace.end(span);
        ledger.check(oracle_digest(&retrained) == oracle_digest(&trained), || {
            "probe: retrained oracle differs from the stored one".into()
        });
    }
    metrics.set(
        "neural.train.ms_per_oracle",
        median(&train_ms),
        train_ms.len(),
    );

    // Oracle-cache lookups (read + decode) of every arm's dataset and
    // oracle through a fresh view.
    let view = OracleCache::over(Arc::new(ArtifactStore::at(prepared)));
    let span = trace.begin("probe:oracle_cache.lookup", None);
    let started = Instant::now();
    let mut found = 0;
    for (scenario, vector, _) in ARMS {
        let key = cache_key(scenario, vector, &sweep);
        found += usize::from(view.lookup_dataset(key).is_some());
        found += usize::from(view.lookup(key).is_some());
    }
    metrics.set("experiments.oracle_cache.lookup_ms", millis(started), found);
    trace.end(span);
    ledger.check(found == 2 * ARMS.len(), || {
        format!(
            "probe: {found} of {} prepared artifacts decoded",
            2 * ARMS.len()
        )
    });

    store_round_trip(
        final_store,
        &work.join("store-probe"),
        trace,
        ledger,
        metrics,
    )
}

/// Reads every artifact of the store at `from` through `ArtifactStore::get`
/// and writes it into a fresh store at `to` through `ArtifactStore::put`.
fn store_round_trip(
    from: &Path,
    to: &Path,
    trace: &Trace,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut keys = Vec::new();
    let entries = std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for entry in entries {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let name = name.to_string_lossy();
        let Some((key, namespace)) = name.split_once('.') else {
            continue;
        };
        let namespace = match namespace {
            NS_ORACLE => NS_ORACLE,
            NS_DATASET => NS_DATASET,
            NS_SEARCH_EVAL => NS_SEARCH_EVAL,
            _ => continue,
        };
        if let Ok(key) = u64::from_str_radix(key, 16) {
            keys.push((namespace, key));
        }
    }
    keys.sort_unstable();

    let source = ArtifactStore::at(from);
    let span = trace.begin("probe:store.get", None);
    let started = Instant::now();
    let mut blobs = Vec::with_capacity(keys.len());
    for &(namespace, key) in &keys {
        match source.get(namespace, key) {
            Ok(Some(bytes)) => blobs.push((namespace, key, bytes)),
            other => return Err(format!("store probe: {namespace} {key:016x}: {other:?}")),
        }
    }
    let get_ms = millis(started);
    trace.end(span);
    let bytes: usize = blobs.iter().map(|(_, _, b)| b.len()).sum();
    metrics.set("suite.store.get.files", blobs.len() as f64, 1);
    metrics.set("suite.store.get.bytes", bytes as f64, 1);
    metrics.set("suite.store.get.busy_ms", get_ms, blobs.len());

    let target = ArtifactStore::at(to);
    let span = trace.begin("probe:store.put", None);
    let started = Instant::now();
    for &(namespace, key, ref bytes) in &blobs {
        target.put(namespace, key, bytes);
    }
    let put_ms = millis(started);
    trace.end(span);
    metrics.set("suite.store.put.files", blobs.len() as f64, 1);
    metrics.set("suite.store.put.bytes", bytes as f64, 1);
    metrics.set("suite.store.put.busy_ms", put_ms, blobs.len());

    let intact = blobs
        .iter()
        .all(|&(namespace, key, ref bytes)| matches!(target.get(namespace, key), Ok(Some(b)) if b == *bytes));
    ledger.check(intact && !blobs.is_empty(), || {
        format!(
            "store probe: {} blobs, round trip intact: {intact}",
            blobs.len()
        )
    });
    Ok(())
}
