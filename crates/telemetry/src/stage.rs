//! The instrumented pipeline stages.

/// One timed stage of the simulation pipeline (and of the attacker's
/// oracle inference inside it).
///
/// Each variant corresponds to a `Telemetry::time` call site somewhere in
/// the workspace; the per-stage duration histograms in the metrics registry
/// are indexed by this enum, and the `trace` binary's latency table prints
/// one row per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// `simkit::scheduler::Scheduler::advance_to` — multi-rate dispatch.
    SchedulerAdvance,
    /// GPS/IMU fix synthesis and delivery.
    GpsSample,
    /// Camera frame capture (world → truth boxes).
    CameraCapture,
    /// LiDAR sweep synthesis.
    LidarScan,
    /// The sensor tap (fault injector) between capture and delivery.
    FaultTap,
    /// The attacker's man-in-the-middle frame hook.
    AttackerFrame,
    /// One answered safety-hijacker oracle query (one k-search step), in
    /// either engine.
    OracleQuery,
    /// ADS perception: camera branch (detect → track → fuse).
    PerceptionCamera,
    /// ADS perception: LiDAR branch (fusion refinement).
    PerceptionLidar,
    /// One planning cycle (world model → actuation target).
    PlannerTick,
    /// One 30 Hz control cycle (PID smoothing).
    ControlTick,
    /// World physics step.
    WorldStep,
    /// A whole end-to-end run.
    Run,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 13] = [
        Stage::SchedulerAdvance,
        Stage::GpsSample,
        Stage::CameraCapture,
        Stage::LidarScan,
        Stage::FaultTap,
        Stage::AttackerFrame,
        Stage::OracleQuery,
        Stage::PerceptionCamera,
        Stage::PerceptionLidar,
        Stage::PlannerTick,
        Stage::ControlTick,
        Stage::WorldStep,
        Stage::Run,
    ];

    /// Number of stages (registry array size).
    pub const COUNT: usize = Stage::ALL.len();

    /// Dense index of this stage (0..[`Stage::COUNT`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in reports and the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SchedulerAdvance => "scheduler_advance",
            Stage::GpsSample => "gps_sample",
            Stage::CameraCapture => "camera_capture",
            Stage::LidarScan => "lidar_scan",
            Stage::FaultTap => "fault_tap",
            Stage::AttackerFrame => "attacker_frame",
            Stage::OracleQuery => "oracle_query",
            Stage::PerceptionCamera => "perception_camera",
            Stage::PerceptionLidar => "perception_lidar",
            Stage::PlannerTick => "planner_tick",
            Stage::ControlTick => "control_tick",
            Stage::WorldStep => "world_step",
            Stage::Run => "run",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::COUNT, 13);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }
}
