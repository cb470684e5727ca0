//! One-stop imports for writing experiments.
//!
//! ```
//! use av_experiments::prelude::*;
//! let out = SimSession::builder(ScenarioId::Ds2).seed(7).build().run();
//! assert!(!out.collided);
//! ```
//!
//! Re-exports the session builder, the run/campaign types, the telemetry
//! layer, and the scenario ids — everything the `src/bin` experiment
//! binaries need for their main loops. [`SimSession`] is the only entry
//! point for executing a run.

pub use crate::campaign::{
    default_threads, run_campaign, run_campaign_dispatch, run_campaign_summary,
    run_campaign_with_threads, run_sweep, Campaign, CampaignError, CampaignResult, CampaignSummary,
    DispatchMode, RunSummary,
};
pub use crate::memo::CampaignMemo;
pub use crate::runner::{AttackerSpec, OracleSpec, RunConfig, RunOutcome};
pub use crate::session::{SessionWorker, SimSession, SimSessionBuilder};
pub use crate::train_sh::{train_oracle, TrainedOracle};
pub use av_simkit::scenario::ScenarioId;
pub use av_telemetry::{
    EventKind, JsonlSink, MetricsRegistry, MetricsSnapshot, NullSink, RingBufferSink, SharedSink,
    Stage, StageSummary, Telemetry, TraceEvent, TraceRecord, TraceSink,
};
pub use robotack::vector::AttackVector;
