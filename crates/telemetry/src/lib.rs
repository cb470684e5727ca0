//! # av-telemetry — workspace-wide observability
//!
//! A zero-cost-when-disabled structured-event layer for the whole pipeline.
//! Every stage of a simulation run — scheduler ticks, sensor samples, fault
//! injections, detector output, track updates, attack phase changes, planner
//! mode transitions, AEB engagement, collisions — can emit a typed
//! [`TraceEvent`] into a pluggable [`TraceSink`], and every stage can be
//! timed into a lock-free [`MetricsRegistry`] of counters and fixed-bucket
//! duration histograms.
//!
//! The design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The default [`Telemetry`] handle is
//!    disabled: [`Telemetry::emit`] returns after one `Option` check without
//!    constructing the event (the event is built by a closure), and
//!    [`Telemetry::time`] returns a no-op guard without reading the clock.
//!    Campaign throughput with telemetry off is indistinguishable from a
//!    build without the layer.
//! 2. **Determinism.** Trace events carry only *simulation* quantities
//!    (sim-time, seeds, counts, names) — never wall-clock timestamps — so
//!    the event stream for a given seed is bit-identical across runs,
//!    machines, and thread counts. Wall-clock durations live exclusively in
//!    the metrics registry, which the determinism tests ignore.
//! 3. **Merge across workers.** Registries are plain atomics:
//!    [`MetricsRegistry::merge_from`] is associative and commutative, so a
//!    campaign can give each worker thread its own registry and fold them in
//!    any order with the same result (for the deterministic counters).
//!
//! [`Stage`] names the instrumented pipeline stages; sinks live in
//! [`sink`]; the event taxonomy in [`event`]; the registry in [`metrics`].

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod sink;
pub mod stage;

pub use event::{json_escape, AttackPhase, EventKind, SensorChannel, TraceEvent, TraceRecord};
pub use metrics::{MetricsRegistry, MetricsSnapshot, StageSummary, StageTimer};
pub use sink::{JsonlSink, NullSink, RingBufferSink, SharedSink, TraceSink};
pub use stage::Stage;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Interior state behind an enabled sink: the sink itself plus the next
/// event sequence number (assigned under the same lock so the stream is
/// gap-free and ordered).
struct SinkState {
    seq: u64,
    sink: Box<dyn TraceSink + Send>,
}

/// A cloneable handle to the observability layer.
///
/// Cloning is cheap (two `Arc` clones at most); clones share the same sink
/// and registry, so one handle can be threaded through the scheduler,
/// perception, planner, attacker, and run loop of a session.
///
/// ```
/// use av_telemetry::{RingBufferSink, Stage, Telemetry, TraceEvent};
/// let tele = Telemetry::with_sink(RingBufferSink::new(64));
/// tele.emit(0.5, || TraceEvent::AebEngaged);
/// let _timer = tele.time(Stage::PlannerTick); // records on drop
/// assert!(tele.is_enabled());
/// assert!(Telemetry::disabled().is_enabled() == false);
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<SinkState>>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("sink", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle: every operation is a no-op after one branch.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Full telemetry: events into `sink`, timings into a fresh registry.
    pub fn with_sink(sink: impl TraceSink + Send + 'static) -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Mutex::new(SinkState {
                seq: 0,
                sink: Box::new(sink),
            }))),
            metrics: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// Metrics only: stage timings and event counts, no event stream.
    pub fn metrics_only() -> Telemetry {
        Telemetry::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Metrics only, into a caller-owned (possibly shared) registry — the
    /// campaign runner hands each worker thread a registry this way.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Telemetry {
        Telemetry {
            sink: None,
            metrics: Some(registry),
        }
    }

    /// Whether any event consumer is attached (sink or metrics).
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// Whether an event sink (not just metrics) is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event at sim-time `t`. The closure runs only when a
    /// consumer is attached, so a disabled handle never constructs the
    /// event. Event *counts* are recorded even in metrics-only mode.
    pub fn emit(&self, t: f64, event: impl FnOnce() -> TraceEvent) {
        if self.sink.is_none() && self.metrics.is_none() {
            return;
        }
        let event = event();
        if let Some(metrics) = &self.metrics {
            metrics.count_event(&event);
        }
        if let Some(sink) = &self.sink {
            let mut state = sink.lock().expect("telemetry sink poisoned");
            let seq = state.seq;
            state.seq += 1;
            state.sink.record(&TraceRecord { seq, t, event });
        }
    }

    /// Starts timing `stage`; the returned guard records the elapsed wall
    /// time into the registry when dropped. No-op without a registry.
    pub fn time(&self, stage: Stage) -> StageTimer {
        StageTimer::start(self.metrics.clone(), stage)
    }

    /// The attached registry, if any (for snapshots and merging).
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Snapshot of the attached registry, if any.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }

    /// Flushes the sink (e.g. buffered JSONL writers), if one is attached.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink poisoned").sink.flush();
        }
    }
}

/// A monotone, process-wide id source for anything that needs distinct ids
/// across telemetry consumers (session numbering in multi-run binaries).
pub fn next_global_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        let mut built = false;
        tele.emit(0.0, || {
            built = true;
            TraceEvent::AebEngaged
        });
        assert!(!built, "disabled emit must not run the closure");
        assert!(tele.metrics().is_none());
    }

    #[test]
    fn sink_receives_ordered_sequence_numbers() {
        let sink = SharedSink::new(RingBufferSink::new(16));
        let tele = Telemetry::with_sink(sink.clone());
        for i in 0..5 {
            tele.emit(f64::from(i), || TraceEvent::AebEngaged);
        }
        let records: Vec<_> = sink.lock().records().iter().cloned().collect();
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn clones_share_the_sink_and_registry() {
        let sink = SharedSink::new(RingBufferSink::new(16));
        let tele = Telemetry::with_sink(sink.clone());
        let clone = tele.clone();
        tele.emit(0.0, || TraceEvent::AebEngaged);
        clone.emit(1.0, || TraceEvent::Collision);
        assert_eq!(sink.lock().records().len(), 2);
        assert_eq!(sink.lock().records()[1].seq, 1, "shared seq counter");
        let snap = tele.metrics().unwrap();
        assert_eq!(snap.event_count(event::EventKind::AebEngaged), 1);
        assert_eq!(snap.event_count(event::EventKind::Collision), 1);
    }

    #[test]
    fn metrics_only_counts_without_a_stream() {
        let tele = Telemetry::metrics_only();
        assert!(tele.is_enabled());
        assert!(!tele.has_sink());
        tele.emit(0.0, || TraceEvent::AebEngaged);
        let snap = tele.metrics().unwrap();
        assert_eq!(snap.event_count(event::EventKind::AebEngaged), 1);
    }

    #[test]
    fn global_ids_are_distinct() {
        let a = next_global_id();
        let b = next_global_id();
        assert_ne!(a, b);
    }
}
