//! Sample statistics, the declared metric table, the pass/fail ledger and
//! the process's peak resident set size.

use av_suite::api::json_escape;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports, with their units.
/// `BENCHMARK.json` declares exactly these (a unit test checks it).
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The simulation stages the probe campaign times, by their telemetry
/// names. Listed here rather than taken from `Stage::ALL` so that a stage
/// the program adds later cannot add an undeclared metric, and a stage it
/// removes fails the run instead of silently vanishing.
pub const STAGES: [&str; 12] = [
    "scheduler_advance",
    "gps_sample",
    "camera_capture",
    "lidar_scan",
    "fault_tap",
    "attacker_frame",
    "perception_camera",
    "perception_lidar",
    "planner_tick",
    "control_tick",
    "world_step",
    "run",
];

/// The end-to-end metrics as a metric table declaration.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect()
}

/// The per-layer metrics every traced run reports, with their units.
/// `BENCHMARK.json` declares exactly these (a unit test checks it).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut declared = Vec::new();
    for stage in STAGES {
        declared.push((format!("stage.{stage}.busy_ms"), "ms"));
        declared.push((format!("stage.{stage}.count"), "count"));
    }
    let rest: [(&str, &'static str); 36] = [
        ("experiments.campaign.seq.runs_per_s", "1/s"),
        ("experiments.campaign.batch32.runs_per_s", "1/s"),
        ("neural.train.ms_per_oracle", "ms"),
        ("experiments.oracle_cache.lookup_ms", "ms"),
        ("suite.store.get.files", "count"),
        ("suite.store.get.bytes", "bytes"),
        ("suite.store.get.busy_ms", "ms"),
        ("suite.store.put.files", "count"),
        ("suite.store.put.bytes", "bytes"),
        ("suite.store.put.busy_ms", "ms"),
        ("suite.exec.dataset.busy_s", "s"),
        ("suite.exec.oracle.busy_s", "s"),
        ("suite.exec.report.busy_s", "s"),
        ("suite.exec.search.busy_s", "s"),
        ("suite.exec.utilization", "ratio"),
        ("suite.exec.critical_path_s", "s"),
        ("suite.exec.artifact_hit_ratio", "ratio"),
        ("suite.dedup.led", "count"),
        ("suite.dedup.coalesced", "count"),
        ("experiments.search.cells", "count"),
        ("experiments.search.evaluated", "count"),
        ("experiments.search.eval_misses", "count"),
        ("experiments.search.deduped", "count"),
        ("experiments.search.skipped_invalid", "count"),
        ("experiments.search.cells_per_attempt", "ratio"),
        ("suite.serve.admit_ms.p50", "ms"),
        ("suite.serve.admit_ms.tail", "ms"),
        ("suite.serve.exec_ms.p50", "ms"),
        ("suite.serve.exec_ms.tail", "ms"),
        ("suite.serve.reply_ms.p50", "ms"),
        ("suite.serve.event_bytes", "bytes"),
        ("suite.serve.interactive_p50_ms", "ms"),
        ("suite.serve.interactive_tail_ms", "ms"),
        ("suite.serve.batch_p50_ms", "ms"),
        ("suite.serve.batch_tail_ms", "ms"),
        ("trace_overhead_pct", "%"),
    ];
    declared.extend(rest.iter().map(|&(name, unit)| (name.to_string(), unit)));
    declared
}

/// Candidate upper percentiles, highest first.
const TAIL_QUANTILES: [f64; 5] = [0.99, 0.95, 0.9, 0.8, 0.75];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it — the tail a timing can honestly report (n = 100 gives
/// p90, n = 50 gives p80). `None` when even p75 has fewer than ten.
fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks;
/// 0 for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail of `xs` by [`tail_quantile`], with the percentile used; the
/// median when the samples are too few for any tail.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let q = tail_quantile(xs.len()).unwrap_or(0.5);
    (quantile(xs, q), q)
}

/// Operations attempted and failed, with a line per failure. A correctness
/// mismatch is a failure like an error is.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (jobs, reps, searches, requests, setups).
    pub attempted: u64,
    /// Operations that failed or produced a mismatching output.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    samples: usize,
}

/// The values of one run, keyed by the declared metric names. Setting an
/// undeclared name is a bug in the benchmark and panics; a declared metric
/// left unset fails the run.
#[derive(Debug)]
pub struct Metrics {
    declared: Vec<(String, &'static str)>,
    values: Vec<Option<Value>>,
}

impl Metrics {
    /// A table over `declared` ⟨name, unit⟩ pairs, all unset.
    pub fn new(declared: Vec<(String, &'static str)>) -> Metrics {
        let values = vec![None; declared.len()];
        Metrics { declared, values }
    }

    /// Sets `name` to `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[i] = Some(Value { value, samples });
    }

    /// Names of declared metrics that were never set or are not finite.
    pub fn missing(&self) -> Vec<&str> {
        self.declared
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(|v| v.value.is_finite()))
            .map(|((name, _), _)| name.as_str())
            .collect()
    }

    /// One human-readable line per metric: name, value, unit, samples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((name, unit), value) in self.declared.iter().zip(&self.values) {
            match value {
                Some(v) => writeln!(
                    out,
                    "  {name:<40} {:>14.4} {unit:<6} n={}",
                    v.value, v.samples
                ),
                None => writeln!(out, "  {name:<40} {:>14} {unit:<6}", "unset"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The `metrics` object of the result line; unset or non-finite
    /// values are left out (the run has failed then).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .declared
            .iter()
            .zip(&self.values)
            .filter_map(|((name, unit), value)| {
                let v = value.filter(|v| v.value.is_finite())?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_escape(name),
                    v.value,
                    json_escape(unit)
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Whether the run passed: something was attempted, nothing failed, and
/// every declared metric was measured.
pub fn correct(ledger: &Ledger, metrics: &Metrics) -> bool {
    ledger.attempted > 0 && ledger.failed == 0 && metrics.missing().is_empty()
}

/// The result line the benchmark prints last.
pub fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct(ledger, metrics),
        ledger.attempted,
        ledger.failed,
        metrics.to_json()
    )
}

/// This process's peak resident set size in MiB: `VmHWM` of
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, which keeps the
/// peak of the process image before `exec` (here `cargo`'s), `VmHWM`
/// covers only this program. `None` if the status cannot be read.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(50), Some(0.8));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        for n in 1..2000 {
            if let Some(q) = tail_quantile(n) {
                assert!(n as f64 * (1.0 - q) >= 10.0 - 1e-9, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        let (value, q) = tail(&[1.0; 5]);
        assert_eq!((value, q), (1.0, 0.5), "too few samples: the median");
    }

    #[test]
    fn unset_metrics_fail_the_result() {
        let mut metrics = Metrics::new(vec![("a".into(), "s"), ("b".into(), "ms")]);
        metrics.set("a", 1.5, 3);
        assert_eq!(metrics.missing(), ["b"]);
        let mut ledger = Ledger::default();
        ledger.check(true, String::new);
        assert!(result_line(&ledger, &metrics).starts_with("{\"correct\": false"));
        metrics.set("b", 0.25, 1);
        let line = result_line(&ledger, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
