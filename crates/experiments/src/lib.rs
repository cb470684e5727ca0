//! # av-experiments — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI):
//!
//! - [`session`]: the [`SimSession`] builder — one end-to-end simulation run
//!   (scenario world, multi-rate sensor scheduling, the man-in-the-middle
//!   attacker on the camera link, the ADS, ground-truth safety recording,
//!   the collision halt) with an optional `av-telemetry` handle observing
//!   every pipeline stage.
//! - [`runner`]: the run-level types (configuration, attacker spec,
//!   outcome); [`SimSession`] is the only entry point for executing a run.
//! - [`campaign`]: seeded batches of runs with the Table II / Fig. 6 / Fig. 7
//!   metrics, parallelized on scoped threads; per-worker metrics registries
//!   are merged into the campaign result.
//! - [`horizon`]: run horizons — a consumer that reads only a run's
//!   training label or its search verdict stops the run once that answer
//!   is final.
//! - [`prelude`]: one-stop imports for experiment binaries.
//! - [`train_sh`]: the safety-hijacker training pipeline (§IV-B) — δ_inject/k
//!   sweeps to collect the ADS-response dataset, then Adam training of the
//!   per-vector NN oracle.
//! - [`oracle_cache`]: views over a content-addressed artifact store of
//!   trained oracles *and* collected sweep datasets, so the suite binaries
//!   collect and train each 〈scenario, vector〉 arm once instead of once
//!   per figure.
//! - [`memo`]: the campaign memo — each distinct campaign (scenario,
//!   attacker with its oracle by content, fault plan, base seed) simulated
//!   once per artifact store and shared, folded to [`RunSummary`]s, by
//!   every report that views it: in memory within one suite execution, and
//!   through the store's `campaign` namespace across executions.
//! - [`figures`]: the Fig. 5 characterization fits and Fig. 8(b)'s
//!   simulated k sweep, kept in the store's `figure` namespace so a warm
//!   report reads them instead of recomputing them.
//! - [`jobs`]: every table/figure as a library function returning its
//!   stdout report, plus the full evaluation as an `av-suite` job DAG over
//!   one shared artifact store (the `suite` binary runs it; the per-figure
//!   binaries are thin wrappers over the same functions).
//! - [`search`]: coverage-guided boundary search over generated scenarios
//!   (`av-scenarios` specs): a seeded MAP-elites loop that mutates spec
//!   parameters toward the attack-success / safety-violation boundary,
//!   evaluating each round's candidates as one packed sweep with store-cached
//!   evaluation summaries. Surfaced as the suite's `search:*` jobs and the
//!   `search` binary.
//! - [`stats`]: distribution fitting (exponential / normal, as in Fig. 5),
//!   percentiles and box-plot summaries.
//! - [`report`]: plain-text renderers that print each table/figure in the
//!   paper's shape next to the paper's reference numbers.
//!
//! Binaries: `table2`, `fig5`, `fig6`, `fig7`, `fig8`, `ablations`,
//! `defense`, `resilience` (one per experiment), `suite` (the whole
//! evaluation as one resumable job DAG on a shared worker pool) and `trace`
//! (replay one run with full telemetry: JSONL event stream + per-stage
//! latency table).

#![warn(missing_docs)]

pub mod campaign;
pub mod characterize;
mod codec;
pub mod figures;
pub mod horizon;
pub mod jobs;
pub mod memo;
pub mod oracle_cache;
pub mod prelude;
pub mod report;
pub mod runner;
pub mod search;
pub mod session;
pub mod stats;
pub mod suite;
#[doc(hidden)]
pub mod tally;
pub mod train_sh;

pub use campaign::{Campaign, CampaignError, CampaignResult, CampaignSummary, RunSummary};
pub use memo::CampaignMemo;
pub use oracle_cache::{cache_key, OracleCache};
pub use runner::{AttackerSpec, RunConfig, RunOutcome};
pub use search::{run_search, SearchConfig, SearchReport};
pub use session::{SessionWorker, SimSession, SimSessionBuilder};
pub use train_sh::{train_oracle, TrainedOracle};
