//! # av-suite — evaluation-service orchestrator
//!
//! The layer that turns the experiment binaries into a servable evaluation
//! system: each paper artifact (Table II, Figs. 5–8, the ablations, the
//! defense and resilience studies) is a typed [`Job`] in a dependency DAG,
//! executed on one shared work-stealing worker pool against one shared
//! content-addressed [`ArtifactStore`] holding the expensive intermediates
//! (collected sweep datasets, trained oracles).
//!
//! Structure:
//!
//! - [`fnv`]: the FNV-1a 64-bit digest all content addresses use.
//! - [`store`]: the artifact store — namespaced, keyed byte blobs with
//!   atomic writes and best-effort reads ([`TraceEvent::ArtifactHit`] /
//!   [`TraceEvent::ArtifactMiss`] telemetry).
//! - [`dag`]: jobs with declared inputs/outputs and validated dependency
//!   edges (duplicate ids, dangling deps and cycles are construction
//!   errors), plus transitive-closure subgraphs for `--only`.
//! - [`exec`]: the executor — a work-stealing pool (workers claim ready
//!   jobs off a shared queue), a resumable JSONL run manifest (completed
//!   jobs are skipped on rerun and their recorded stdout replayed), and a
//!   per-job scorecard ([`JobReport`] / [`RunReport`]) for the end-of-run
//!   summary table.
//! - [`scope`]: [`ExecScope`], the per-execution state every job of one
//!   [`execute`] call shares (and nothing outside it sees).
//! - [`json`]: the one hostile-input-safe JSON reader every JSON line
//!   goes through — wire requests, streamed events and manifest lines.
//! - [`manifest`]: the JSONL run manifest, written by hand and read
//!   through [`json`]; truncated trailing lines — a killed run — parse as "not
//!   completed", which is what makes resume safe.
//! - [`api`]: the typed evaluation-service wire API — [`EvalRequest`] in,
//!   streamed [`EvalEvent`]s out — shared verbatim by the one-shot CLI and
//!   the daemon.
//! - [`dedup`]: the cross-request in-flight claim registry — concurrent
//!   computations of one artifact key coalesce onto a single leader.
//! - [`serve`]: the evaluation daemon — newline-delimited requests over
//!   stdin/stdout or a Unix socket, a priority-FIFO admission queue over a
//!   bounded slot pool, per-request event streams, and the client helpers
//!   `suite request` uses.
//!
//! Determinism contract: a job's `run` closure must be a pure function of
//! its declared inputs (plus the artifact store's content), so executing a
//! DAG with 1, 4 or 8 workers yields byte-identical job stdout and artifact
//! digests. The executor only decides *when* jobs run, never *what* they
//! compute.
//!
//! [`TraceEvent::ArtifactHit`]: av_telemetry::TraceEvent::ArtifactHit
//! [`TraceEvent::ArtifactMiss`]: av_telemetry::TraceEvent::ArtifactMiss

#![warn(missing_docs)]

pub mod api;
pub mod dag;
pub mod dedup;
pub mod exec;
pub mod fnv;
pub mod json;
pub mod manifest;
pub mod scope;
pub mod serve;
pub mod store;

pub use api::{ApiError, ClientMessage, ErrorCode, EvalEvent, EvalRequest, EvalResponse, Priority};
pub use dag::{Dag, DagError, Job, JobOutcome};
pub use dedup::{Claim, ClaimToken, InFlight};
pub use exec::{execute, ExecError, ExecEvent, ExecObserver, ExecOptions, JobReport, RunReport};
pub use fnv::Fnv1a;
pub use manifest::ManifestEntry;
pub use scope::ExecScope;
pub use serve::{EvalService, ServeOptions, ServeReport};
pub use store::{ArtifactStore, StoreError};
