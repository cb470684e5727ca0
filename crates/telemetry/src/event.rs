//! The typed trace-event taxonomy.
//!
//! Events carry only simulation-deterministic payloads (sim-time, seeds,
//! counts, static names) so that a run's event stream is bit-identical for
//! a given seed regardless of host, thread count, or wall-clock load. Wall
//! time belongs in the metrics registry, never here.

use std::fmt::Write as _;

/// Which sensor channel a sample-level event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorChannel {
    /// The 15 Hz camera link (the attacked channel).
    Camera,
    /// The 10 Hz LiDAR sweep.
    Lidar,
    /// The 12.5 Hz GPS/IMU fix.
    Gps,
}

impl SensorChannel {
    /// Stable snake_case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            SensorChannel::Camera => "camera",
            SensorChannel::Lidar => "lidar",
            SensorChannel::Gps => "gps",
        }
    }
}

/// The malware's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackPhase {
    /// Watching the replica world model, holding fire.
    Monitoring,
    /// Actively perturbing camera frames.
    Perturbing,
    /// Single shot spent; permanently quiet.
    Dormant,
}

impl AttackPhase {
    /// Stable snake_case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            AttackPhase::Monitoring => "monitoring",
            AttackPhase::Perturbing => "perturbing",
            AttackPhase::Dormant => "dormant",
        }
    }
}

/// One structured event from somewhere in the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A session began executing.
    RunStarted {
        /// Scenario name (paper naming, e.g. `DS-2`).
        scenario: &'static str,
        /// Run seed.
        seed: u64,
    },
    /// The multi-rate scheduler fired a task.
    SchedulerTask {
        /// Registered task name (`camera`, `lidar`, `gps`, `planner`).
        task: &'static str,
    },
    /// A sensor measurement passed through the delivery tap.
    SensorSample {
        /// Originating channel.
        channel: SensorChannel,
        /// Channel-local sequence number (camera frame seq; 0 otherwise).
        seq: u64,
        /// Whether the measurement reached the consumer (false = dropped).
        delivered: bool,
    },
    /// The fault injector perturbed or withheld measurements.
    FaultInjected {
        /// Affected channel.
        channel: SensorChannel,
        /// Injector counter that advanced (e.g. `camera_frames_dropped`).
        what: &'static str,
        /// How many units the counter advanced by.
        count: u32,
    },
    /// The ADS detector emitted its per-frame output.
    DetectionsEmitted {
        /// Camera frame sequence number.
        frame_seq: u64,
        /// Number of detections in this frame.
        count: u32,
    },
    /// The ADS tracker finished one update step.
    TrackUpdate {
        /// Confirmed (published) tracks.
        confirmed: u32,
        /// All live tracks including tentative ones.
        total: u32,
    },
    /// Perception rejected a frozen/replayed camera frame.
    StaleFrameRejected {
        /// Sequence number of the rejected frame.
        frame_seq: u64,
    },
    /// The malware committed its single shot.
    AttackTriggered {
        /// Chosen attack vector (paper naming).
        vector: &'static str,
        /// Planned perturbation window (frames).
        k: u32,
        /// The safety hijacker's predicted post-attack δ (m).
        predicted_delta: f64,
    },
    /// The malware's lifecycle phase changed.
    AttackPhaseChanged {
        /// The phase being entered.
        phase: AttackPhase,
    },
    /// The planner's binding behavior mode changed.
    PlannerModeChanged {
        /// Mode before this cycle.
        from: &'static str,
        /// Mode after this cycle.
        to: &'static str,
    },
    /// The ADS entered emergency braking (a new forced-EB event).
    AebEngaged,
    /// Ground-truth bumper contact halted the run.
    Collision,
    /// A session finished.
    RunFinished {
        /// Simulated seconds executed.
        sim_seconds: f64,
        /// Planner samples recorded.
        samples: u64,
    },
    /// A campaign worker claimed one run off the work queue.
    CampaignRunDispatched {
        /// Run index within the campaign (seed = base_seed + index).
        index: u64,
    },
    /// A suite-orchestrator job began executing on a worker.
    JobStarted {
        /// The job's DAG identifier (e.g. `oracle:DS-1:Disappear`).
        job: String,
    },
    /// A suite-orchestrator job finished executing.
    JobFinished {
        /// The job's DAG identifier.
        job: String,
    },
    /// An artifact-store read found usable bytes under the key.
    ArtifactHit {
        /// Store namespace (`oracle`, `dataset`, …).
        namespace: &'static str,
        /// The content-address digest (hex in the JSONL schema).
        key: u64,
    },
    /// An artifact-store read found nothing (absent or unreadable).
    ArtifactMiss {
        /// Store namespace (`oracle`, `dataset`, …).
        namespace: &'static str,
        /// The content-address digest (hex in the JSONL schema).
        key: u64,
    },
    /// The evaluation daemon admitted a request and began executing its
    /// subgraph.
    RequestAccepted {
        /// The request's correlation id.
        request: String,
    },
    /// The evaluation daemon finished a request (done or typed error).
    RequestFinished {
        /// The request's correlation id.
        request: String,
    },
}

/// Dense event-kind tags for counting (one counter per kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors TraceEvent variant for variant
pub enum EventKind {
    RunStarted,
    SchedulerTask,
    SensorSample,
    FaultInjected,
    DetectionsEmitted,
    TrackUpdate,
    StaleFrameRejected,
    AttackTriggered,
    AttackPhaseChanged,
    PlannerModeChanged,
    AebEngaged,
    Collision,
    RunFinished,
    CampaignRunDispatched,
    JobStarted,
    JobFinished,
    ArtifactHit,
    ArtifactMiss,
    RequestAccepted,
    RequestFinished,
}

impl EventKind {
    /// Every event kind, in taxonomy order.
    pub const ALL: [EventKind; 20] = [
        EventKind::RunStarted,
        EventKind::SchedulerTask,
        EventKind::SensorSample,
        EventKind::FaultInjected,
        EventKind::DetectionsEmitted,
        EventKind::TrackUpdate,
        EventKind::StaleFrameRejected,
        EventKind::AttackTriggered,
        EventKind::AttackPhaseChanged,
        EventKind::PlannerModeChanged,
        EventKind::AebEngaged,
        EventKind::Collision,
        EventKind::RunFinished,
        EventKind::CampaignRunDispatched,
        EventKind::JobStarted,
        EventKind::JobFinished,
        EventKind::ArtifactHit,
        EventKind::ArtifactMiss,
        EventKind::RequestAccepted,
        EventKind::RequestFinished,
    ];

    /// Number of event kinds (registry array size).
    pub const COUNT: usize = EventKind::ALL.len();

    /// Dense index of this kind.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name — the `"type"` field of the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunStarted => "run_started",
            EventKind::SchedulerTask => "scheduler_task",
            EventKind::SensorSample => "sensor_sample",
            EventKind::FaultInjected => "fault_injected",
            EventKind::DetectionsEmitted => "detections_emitted",
            EventKind::TrackUpdate => "track_update",
            EventKind::StaleFrameRejected => "stale_frame_rejected",
            EventKind::AttackTriggered => "attack_triggered",
            EventKind::AttackPhaseChanged => "attack_phase_changed",
            EventKind::PlannerModeChanged => "planner_mode_changed",
            EventKind::AebEngaged => "aeb_engaged",
            EventKind::Collision => "collision",
            EventKind::RunFinished => "run_finished",
            EventKind::CampaignRunDispatched => "campaign_run_dispatched",
            EventKind::JobStarted => "job_started",
            EventKind::JobFinished => "job_finished",
            EventKind::ArtifactHit => "artifact_hit",
            EventKind::ArtifactMiss => "artifact_miss",
            EventKind::RequestAccepted => "request_accepted",
            EventKind::RequestFinished => "request_finished",
        }
    }
}

impl TraceEvent {
    /// The kind tag of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::RunStarted { .. } => EventKind::RunStarted,
            TraceEvent::SchedulerTask { .. } => EventKind::SchedulerTask,
            TraceEvent::SensorSample { .. } => EventKind::SensorSample,
            TraceEvent::FaultInjected { .. } => EventKind::FaultInjected,
            TraceEvent::DetectionsEmitted { .. } => EventKind::DetectionsEmitted,
            TraceEvent::TrackUpdate { .. } => EventKind::TrackUpdate,
            TraceEvent::StaleFrameRejected { .. } => EventKind::StaleFrameRejected,
            TraceEvent::AttackTriggered { .. } => EventKind::AttackTriggered,
            TraceEvent::AttackPhaseChanged { .. } => EventKind::AttackPhaseChanged,
            TraceEvent::PlannerModeChanged { .. } => EventKind::PlannerModeChanged,
            TraceEvent::AebEngaged => EventKind::AebEngaged,
            TraceEvent::Collision => EventKind::Collision,
            TraceEvent::RunFinished { .. } => EventKind::RunFinished,
            TraceEvent::CampaignRunDispatched { .. } => EventKind::CampaignRunDispatched,
            TraceEvent::JobStarted { .. } => EventKind::JobStarted,
            TraceEvent::JobFinished { .. } => EventKind::JobFinished,
            TraceEvent::ArtifactHit { .. } => EventKind::ArtifactHit,
            TraceEvent::ArtifactMiss { .. } => EventKind::ArtifactMiss,
            TraceEvent::RequestAccepted { .. } => EventKind::RequestAccepted,
            TraceEvent::RequestFinished { .. } => EventKind::RequestFinished,
        }
    }
}

/// One entry of the event stream: sequence number, sim-time, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Gap-free, strictly increasing per sink.
    pub seq: u64,
    /// Simulation time of the event (s).
    pub t: f64,
    /// The payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders this record as one JSON line (no trailing newline).
    ///
    /// The schema is flat and stable: `seq`, `t` (6 decimal places), `type`
    /// (an [`EventKind::name`]), then the payload fields of the variant.
    /// The workspace has no serialization framework, so this is the one
    /// place JSON is produced — keep it in sync with the taxonomy.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"t\":{:.6},\"type\":\"{}\"",
            self.seq,
            self.t,
            self.event.kind().name()
        );
        match &self.event {
            TraceEvent::RunStarted { scenario, seed } => {
                let _ = write!(
                    s,
                    ",\"scenario\":\"{}\",\"seed\":{}",
                    json_escape(scenario),
                    seed
                );
            }
            TraceEvent::SchedulerTask { task } => {
                let _ = write!(s, ",\"task\":\"{}\"", json_escape(task));
            }
            TraceEvent::SensorSample {
                channel,
                seq,
                delivered,
            } => {
                let _ = write!(
                    s,
                    ",\"channel\":\"{}\",\"sample_seq\":{seq},\"delivered\":{delivered}",
                    channel.name()
                );
            }
            TraceEvent::FaultInjected {
                channel,
                what,
                count,
            } => {
                let _ = write!(
                    s,
                    ",\"channel\":\"{}\",\"what\":\"{}\",\"count\":{count}",
                    channel.name(),
                    json_escape(what)
                );
            }
            TraceEvent::DetectionsEmitted { frame_seq, count } => {
                let _ = write!(s, ",\"frame_seq\":{frame_seq},\"count\":{count}");
            }
            TraceEvent::TrackUpdate { confirmed, total } => {
                let _ = write!(s, ",\"confirmed\":{confirmed},\"total\":{total}");
            }
            TraceEvent::StaleFrameRejected { frame_seq } => {
                let _ = write!(s, ",\"frame_seq\":{frame_seq}");
            }
            TraceEvent::AttackTriggered {
                vector,
                k,
                predicted_delta,
            } => {
                let _ = write!(
                    s,
                    ",\"vector\":\"{}\",\"k\":{k},\"predicted_delta\":{predicted_delta:?}",
                    json_escape(vector)
                );
            }
            TraceEvent::AttackPhaseChanged { phase } => {
                let _ = write!(s, ",\"phase\":\"{}\"", phase.name());
            }
            TraceEvent::PlannerModeChanged { from, to } => {
                let _ = write!(
                    s,
                    ",\"from\":\"{}\",\"to\":\"{}\"",
                    json_escape(from),
                    json_escape(to)
                );
            }
            TraceEvent::AebEngaged | TraceEvent::Collision => {}
            TraceEvent::RunFinished {
                sim_seconds,
                samples,
            } => {
                let _ = write!(s, ",\"sim_seconds\":{sim_seconds:.6},\"samples\":{samples}");
            }
            TraceEvent::CampaignRunDispatched { index } => {
                let _ = write!(s, ",\"index\":{index}");
            }
            TraceEvent::JobStarted { job } | TraceEvent::JobFinished { job } => {
                let _ = write!(s, ",\"job\":\"{}\"", json_escape(job));
            }
            TraceEvent::ArtifactHit { namespace, key }
            | TraceEvent::ArtifactMiss { namespace, key } => {
                let _ = write!(
                    s,
                    ",\"namespace\":\"{}\",\"key\":\"{key:016x}\"",
                    json_escape(namespace)
                );
            }
            TraceEvent::RequestAccepted { request } | TraceEvent::RequestFinished { request } => {
                let _ = write!(s, ",\"request\":\"{}\"", json_escape(request));
            }
        }
        s.push('}');
        s
    }
}

/// Escapes a string for embedding in a JSON document: quotes, backslashes
/// and control characters (`\n`, `\r`, `\t` by name, the rest as `\u00XX`);
/// everything else, non-ASCII included, passes through. The one escaper
/// behind trace JSONL, run manifests and the daemon's wire replies.
pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_flat_and_typed() {
        let rec = TraceRecord {
            seq: 3,
            t: 1.0 / 15.0,
            event: TraceEvent::SensorSample {
                channel: SensorChannel::Camera,
                seq: 7,
                delivered: true,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":3,\"t\":0.066667,\"type\":\"sensor_sample\",\
             \"channel\":\"camera\",\"sample_seq\":7,\"delivered\":true}"
        );
    }

    #[test]
    fn every_variant_serializes_with_its_kind_name() {
        let events = [
            TraceEvent::RunStarted {
                scenario: "DS-2",
                seed: 7,
            },
            TraceEvent::SchedulerTask { task: "camera" },
            TraceEvent::SensorSample {
                channel: SensorChannel::Lidar,
                seq: 0,
                delivered: false,
            },
            TraceEvent::FaultInjected {
                channel: SensorChannel::Gps,
                what: "gps_fixes_biased",
                count: 1,
            },
            TraceEvent::DetectionsEmitted {
                frame_seq: 1,
                count: 2,
            },
            TraceEvent::TrackUpdate {
                confirmed: 1,
                total: 2,
            },
            TraceEvent::StaleFrameRejected { frame_seq: 5 },
            TraceEvent::AttackTriggered {
                vector: "Move_Out",
                k: 40,
                predicted_delta: -1.5,
            },
            TraceEvent::AttackPhaseChanged {
                phase: AttackPhase::Perturbing,
            },
            TraceEvent::PlannerModeChanged {
                from: "Cruise",
                to: "EmergencyBrake",
            },
            TraceEvent::AebEngaged,
            TraceEvent::Collision,
            TraceEvent::RunFinished {
                sim_seconds: 30.0,
                samples: 300,
            },
            TraceEvent::CampaignRunDispatched { index: 17 },
            TraceEvent::JobStarted {
                job: "oracle:DS-1:Disappear".to_string(),
            },
            TraceEvent::JobFinished {
                job: "table2".to_string(),
            },
            TraceEvent::ArtifactHit {
                namespace: "dataset",
                key: 2,
            },
            TraceEvent::ArtifactMiss {
                namespace: "oracle",
                key: 3,
            },
            TraceEvent::RequestAccepted {
                request: "req-0".to_string(),
            },
            TraceEvent::RequestFinished {
                request: "req-0".to_string(),
            },
        ];
        assert_eq!(events.len(), EventKind::COUNT, "taxonomy covered");
        for (event, kind) in events.into_iter().zip(EventKind::ALL) {
            assert_eq!(event.kind(), kind);
            let json = TraceRecord {
                seq: 0,
                t: 0.0,
                event,
            }
            .to_json();
            assert!(json.starts_with("{\"seq\":0,\"t\":0.000000,\"type\":\""));
            assert!(json.contains(kind.name()), "{json}");
            assert!(json.ends_with('}'));
        }
    }

    #[test]
    fn escaping_keeps_lines_valid() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\r\t"), "\\r\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("δ → ∞"), "δ → ∞", "non-ASCII passes through");
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT, "names unique");
    }
}
