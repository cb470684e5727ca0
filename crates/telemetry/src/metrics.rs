//! Lock-free metrics: event counters and fixed-bucket duration histograms.
//!
//! Everything is a relaxed atomic — recording from concurrent campaign
//! workers needs no locks, and two registries can be merged by adding their
//! counters, which makes [`MetricsRegistry::merge_from`] associative and
//! commutative (verified by the workspace's merge-associativity tests).
//! Counter values are exactly deterministic for a given workload; durations
//! are wall-clock and therefore not.

use crate::event::{EventKind, TraceEvent};
use crate::stage::Stage;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Histogram bucket upper bounds in nanoseconds (last bucket is +∞).
///
/// Chosen for the latency range of this workload: the cheapest stages
/// (scheduler dispatch) sit near 1 µs, a whole run near 100 ms.
pub const BUCKET_BOUNDS_NS: [u64; 16] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    1_000_000_000,
];

/// Bucket count including the +∞ overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket duration histogram (counts, sum, max; all atomic).
#[derive(Debug, Default)]
pub struct DurationHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl DurationHistogram {
    /// Records one duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_COUNT - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest recorded duration (ns).
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Adds every counter of `other` into `self`.
    fn merge_from(&self, other: &DurationHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Upper bound (ns) of the bucket containing quantile `q` (0..=1).
    /// Bucket-resolution approximation; exact max for `q = 1`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_ns();
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_NS
                    .get(idx)
                    .copied()
                    .unwrap_or_else(|| self.max_ns());
            }
        }
        self.max_ns()
    }
}

/// The workspace metrics registry: one histogram per [`Stage`], one counter
/// per [`EventKind`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: [DurationHistogram; Stage::COUNT],
    events: [AtomicU64; EventKind::COUNT],
}

impl MetricsRegistry {
    /// A fresh, all-zero registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one duration for `stage`.
    pub fn record_duration(&self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record_ns(ns);
    }

    /// Counts one occurrence of `event`'s kind.
    pub fn count_event(&self, event: &TraceEvent) {
        self.events[event.kind().index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &DurationHistogram {
        &self.stages[stage.index()]
    }

    /// Occurrences of one event kind.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events[kind.index()].load(Ordering::Relaxed)
    }

    /// Adds every counter of `other` into `self`. Addition of relaxed
    /// atomics: associative, commutative, and safe while other threads are
    /// still writing to `self` (they'd simply land after the merge).
    pub fn merge_from(&self, other: &MetricsRegistry) {
        for (mine, theirs) in self.stages.iter().zip(&other.stages) {
            mine.merge_from(theirs);
        }
        for (mine, theirs) in self.events.iter().zip(&other.events) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// An owned point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let h = self.stage(stage);
                    StageSummary {
                        stage,
                        count: h.count(),
                        total_ns: h.sum_ns(),
                        max_ns: h.max_ns(),
                        p50_ns: h.quantile_ns(0.50),
                        p99_ns: h.quantile_ns(0.99),
                    }
                })
                .collect(),
            events: EventKind::ALL
                .iter()
                .map(|&kind| (kind, self.event_count(kind)))
                .collect(),
        }
    }
}

/// Per-stage latency summary inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Recorded invocations.
    pub count: u64,
    /// Total wall time (ns).
    pub total_ns: u64,
    /// Worst single invocation (ns).
    pub max_ns: u64,
    /// Median (bucket upper bound, ns).
    pub p50_ns: u64,
    /// 99th percentile (bucket upper bound, ns).
    pub p99_ns: u64,
}

impl StageSummary {
    /// Mean invocation cost (ns), zero when never invoked.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// An owned snapshot of a registry: per-stage latency summaries plus event
/// counts, ready for rendering or comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// One summary per stage, in [`Stage::ALL`] order.
    pub stages: Vec<StageSummary>,
    /// One `(kind, count)` per event kind, in [`EventKind::ALL`] order.
    pub events: Vec<(EventKind, u64)>,
}

impl MetricsSnapshot {
    /// Occurrences of one event kind.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// The summary of one stage.
    pub fn stage(&self, stage: Stage) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The deterministic projection of this snapshot: every counter that
    /// must be identical across thread counts and hosts (stage invocation
    /// counts and event counts — no wall-clock durations). Two campaign
    /// executions of the same workload must agree on this value exactly.
    pub fn deterministic_counts(&self) -> Vec<(&'static str, u64)> {
        self.stages
            .iter()
            .map(|s| (s.stage.name(), s.count))
            .chain(self.events.iter().map(|(k, n)| (k.name(), *n)))
            .collect()
    }

    /// Renders the per-stage latency table (markdown, stages with at least
    /// one invocation only).
    pub fn render_latency_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| stage | calls | total (ms) | mean (µs) | p50 (µs) | p99 (µs) | max (µs) |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for s in self.stages.iter().filter(|s| s.count > 0) {
            let _ = writeln!(
                out,
                "| {} | {} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1} |",
                s.stage.name(),
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns() as f64 / 1e3,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            );
        }
        out
    }
}

/// RAII timing guard: records the elapsed wall time for a stage on drop.
/// Constructed disabled (no clock read) when no registry is attached.
#[derive(Debug)]
pub struct StageTimer {
    inner: Option<(Stage, Instant, Arc<MetricsRegistry>)>,
}

impl StageTimer {
    /// Starts timing into `registry` (or a no-op guard for `None`).
    pub fn start(registry: Option<Arc<MetricsRegistry>>, stage: Stage) -> StageTimer {
        StageTimer {
            inner: registry.map(|r| (stage, Instant::now(), r)),
        }
    }

    /// A guard that records nothing.
    pub fn noop() -> StageTimer {
        StageTimer { inner: None }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((stage, start, registry)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry.record_duration(stage, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let h = DurationHistogram::default();
        h.record_ns(500); // bucket 0 (≤ 1 µs)
        h.record_ns(1_500); // bucket 1
        h.record_ns(3_000_000_000); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 3_000_001_500 + 500);
        assert_eq!(h.max_ns(), 3_000_000_000);
        assert_eq!(h.quantile_ns(0.33), 1_000); // rank 1 → first bucket
        assert_eq!(h.quantile_ns(0.5), 2_000); // rank 2 → second bucket
        assert_eq!(h.quantile_ns(1.0), 3_000_000_000);
        assert_eq!(DurationHistogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let make = |durations: &[u64], aeb: u64| {
            let r = MetricsRegistry::new();
            for &d in durations {
                r.record_duration(Stage::PlannerTick, d);
            }
            for _ in 0..aeb {
                r.count_event(&TraceEvent::AebEngaged);
            }
            r
        };
        let (a, b, c) = (make(&[100, 200], 1), make(&[300], 2), make(&[], 4));

        // (a ⊕ b) ⊕ c
        let left = MetricsRegistry::new();
        left.merge_from(&a);
        left.merge_from(&b);
        left.merge_from(&c);
        // a ⊕ (c ⊕ b) — different grouping AND order.
        let right = MetricsRegistry::new();
        right.merge_from(&c);
        right.merge_from(&b);
        right.merge_from(&a);

        assert_eq!(left.snapshot(), right.snapshot());
        assert_eq!(left.stage(Stage::PlannerTick).count(), 3);
        assert_eq!(left.stage(Stage::PlannerTick).sum_ns(), 600);
        assert_eq!(left.event_count(EventKind::AebEngaged), 7);
    }

    #[test]
    fn snapshot_table_skips_idle_stages() {
        let r = MetricsRegistry::new();
        r.record_duration(Stage::Run, 5_000_000);
        let snap = r.snapshot();
        let table = snap.render_latency_table();
        assert!(table.contains("| run |"));
        assert!(!table.contains("| planner_tick |"));
        assert_eq!(snap.stage(Stage::Run).unwrap().count, 1);
        assert_eq!(snap.stage(Stage::Run).unwrap().mean_ns(), 5_000_000);
    }

    #[test]
    fn deterministic_counts_exclude_durations() {
        let r = MetricsRegistry::new();
        r.record_duration(Stage::PlannerTick, 123);
        let s = MetricsRegistry::new();
        s.record_duration(Stage::PlannerTick, 456_789);
        assert_eq!(
            r.snapshot().deterministic_counts(),
            s.snapshot().deterministic_counts(),
            "same counts, different wall time"
        );
    }

    #[test]
    fn timer_records_on_drop_and_noop_is_free() {
        let registry = Arc::new(MetricsRegistry::new());
        {
            let _t = StageTimer::start(Some(registry.clone()), Stage::ControlTick);
        }
        assert_eq!(registry.stage(Stage::ControlTick).count(), 1);
        {
            let _t = StageTimer::noop();
            let _u = StageTimer::start(None, Stage::ControlTick);
        }
        assert_eq!(registry.stage(Stage::ControlTick).count(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Arc::new(MetricsRegistry::new());
        record_from_four_threads(&registry);
        assert_eq!(registry.stage(Stage::WorldStep).count(), 4 * 1000);
    }

    fn record_from_four_threads(registry: &Arc<MetricsRegistry>) {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = registry.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    r.record_duration(Stage::WorldStep, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
