//! Observability-layer integration tests: the event stream must be a pure,
//! deterministic *observation* of a run — reproducible from the seed,
//! schema-stable on the wire, and with campaign metrics independent of how
//! many worker threads collected them.

use av_experiments::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` target the test can read back after the sink is consumed by
/// the telemetry handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 JSONL")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The deterministic DS-2 attacked configuration the integration suite pins
/// (timed Move_Out on the crossing pedestrian, no oracle training needed).
fn attacked_ds2(telemetry: Telemetry) -> RunOutcome {
    SimSession::builder(ScenarioId::Ds2)
        .seed(0)
        .attacker(AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveOut),
            delta_inject: 24.0,
            k: 60,
        })
        .telemetry(telemetry)
        .build()
        .run()
}

#[test]
fn event_stream_is_reproducible_from_the_seed() {
    let capture = |_| {
        let sink = SharedSink::new(RingBufferSink::new(100_000));
        let outcome = attacked_ds2(Telemetry::with_sink(sink.clone()));
        let records: Vec<TraceRecord> = sink.lock().records().iter().cloned().collect();
        (outcome.record.digest(), records)
    };
    let (digest_a, stream_a) = capture(());
    let (digest_b, stream_b) = capture(());
    assert_eq!(digest_a, digest_b, "run itself reproducible");
    assert_eq!(stream_a.len(), stream_b.len(), "same number of events");
    // Bit-identical streams: seq, sim-time, and full payload. Events carry
    // no wall-clock quantities, so equality is exact.
    assert_eq!(stream_a, stream_b, "event streams diverged across replays");
}

#[test]
fn jsonl_stream_is_schema_stable_and_covers_the_pipeline() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_sink(JsonlSink::new(buf.clone()));
    let outcome = attacked_ds2(telemetry);
    assert!(outcome.attack.launched_at.is_some(), "attack launched");

    let contents = buf.contents();
    let lines: Vec<&str> = contents.lines().collect();
    assert!(
        lines.len() > 1_000,
        "full run traced: {} lines",
        lines.len()
    );

    // Schema: every line is one flat JSON object beginning with the stable
    // header fields in order, and seq is gap-free from zero.
    for (i, line) in lines.iter().enumerate() {
        let expect = format!("{{\"seq\":{i},\"t\":");
        assert!(
            line.starts_with(&expect),
            "line {i} lost the schema header: {line}"
        );
        assert!(
            line.ends_with('}') && line.contains("\"type\":\""),
            "{line}"
        );
    }

    // Coverage: one DS-2 attacked run reports from every pipeline layer —
    // scheduler, sensors, perception, tracker, attacker — plus the run
    // lifecycle brackets. (The Move_Out attack *hides* the hazard, so the
    // planner stays in cruise; planner-side events are pinned below on the
    // DS-3 Move_In run, which forces the emergency stop.)
    for kind in [
        "run_started",
        "scheduler_task",
        "sensor_sample",
        "detections_emitted",
        "track_update",
        "attack_triggered",
        "attack_phase_changed",
        "run_finished",
    ] {
        let tag = format!("\"type\":\"{kind}\"");
        assert!(
            lines.iter().any(|l| l.contains(&tag)),
            "no {kind} event in the stream"
        );
    }
    assert!(lines[0].contains("\"type\":\"run_started\""));
    assert!(lines.last().unwrap().contains("\"type\":\"run_finished\""));
}

#[test]
fn planner_events_trace_the_forced_emergency_stop() {
    // DS-3 Move_In: a phantom car is pushed into the lane, so the planner
    // must walk cruise → … → emergency_brake and engage the AEB — all of it
    // visible in the event stream.
    let sink = SharedSink::new(RingBufferSink::new(100_000));
    let outcome = SimSession::builder(ScenarioId::Ds3)
        .seed(0)
        .attacker(AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveIn),
            delta_inject: 8.0,
            k: 40,
        })
        .telemetry(Telemetry::with_sink(sink.clone()))
        .build()
        .run();
    assert!(outcome.eb_after_attack, "forced emergency braking");

    let records: Vec<TraceRecord> = sink.lock().records().iter().cloned().collect();
    let mode_changes: Vec<(&str, &str)> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PlannerModeChanged { from, to } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(!mode_changes.is_empty(), "planner mode transitions traced");
    assert!(
        mode_changes.iter().any(|&(_, to)| to == "emergency_brake"),
        "emergency_brake entered: {mode_changes:?}"
    );
    assert!(
        records
            .iter()
            .any(|r| r.event.kind() == EventKind::AebEngaged),
        "aeb_engaged event present"
    );
}

#[test]
fn campaign_metrics_are_thread_count_invariant() {
    let counts_with = |threads| {
        let campaign =
            Campaign::new("invariance", ScenarioId::Ds1, AttackerSpec::None, 6, 400).with_metrics();
        let result = run_campaign_with_threads(&campaign, threads).expect("threads >= 1");
        let snapshot = result.metrics.expect("with_metrics collects a registry");
        snapshot.deterministic_counts()
    };
    let one = counts_with(1);
    assert!(
        one.iter().any(|&(_, n)| n > 0),
        "metrics-only campaign counted events"
    );
    // Merging per-worker registries is associative and commutative, so the
    // deterministic projection (event counts + stage call counts, never
    // durations) must not depend on how the runs were sharded.
    assert_eq!(one, counts_with(2), "1-thread vs 2-thread counts");
    assert_eq!(one, counts_with(3), "1-thread vs 3-thread counts");
}

#[test]
fn zero_threads_is_rejected_not_clamped() {
    let campaign = Campaign::new("zero", ScenarioId::Ds1, AttackerSpec::None, 1, 0);
    let err = run_campaign_with_threads(&campaign, 0).expect_err("zero threads is an error");
    assert_eq!(err, CampaignError::ZeroThreads);
    assert!(err.to_string().contains("at least one"), "{err}");
}

/// Every answered oracle query is one `oracle_query` sample, whatever block
/// size and worker count ran it. So the stage count, like every other
/// deterministic counter, is dispatch-invariant, and the stage shows up in
/// the latency table the `trace` binary prints.
#[test]
fn nn_oracle_query_counts_are_dispatch_invariant() {
    let data = av_neural::train::Dataset::from_rows((0..64).map(|i| {
        let delta = 5.0 + f64::from(i % 16) * 2.0;
        let k = f64::from(i % 8) * 10.0;
        (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
    }));
    let oracle = av_experiments::train_sh::train_oracle_on(&data)
        .expect("synthetic dataset trains")
        .oracle;
    let campaign = Campaign::new(
        "nn-oracle-queries",
        ScenarioId::Ds1,
        AttackerSpec::RoboTack {
            vector: Some(AttackVector::Disappear),
            oracle: OracleSpec::Nn(oracle),
        },
        6,
        30,
    )
    .with_metrics();
    let snapshot = |threads, mode| {
        run_campaign_dispatch(&campaign, threads, mode)
            .expect("threads >= 1")
            .metrics
            .expect("with_metrics collects a registry")
    };
    let sequential = snapshot(1, DispatchMode::WorkStealing);
    let batched = snapshot(2, DispatchMode::Batched { batch_size: 7 });
    let queries = |s: &MetricsSnapshot| s.stage(Stage::OracleQuery).expect("stage").count;
    assert!(
        queries(&sequential) > 0,
        "the NN campaign queried its oracle"
    );
    assert_eq!(
        queries(&sequential),
        queries(&batched),
        "oracle_query count"
    );
    assert_eq!(
        sequential.deterministic_counts(),
        batched.deterministic_counts()
    );
    assert!(sequential
        .render_latency_table()
        .contains("| oracle_query |"));
}
