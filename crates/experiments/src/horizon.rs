//! Run horizons: how much of a scenario a run simulates.
//!
//! Most consumers of a run read only a few facts about it, and those facts
//! are often final long before the scenario's 20–45 s end:
//!
//! | consumer | reads | horizon |
//! |---|---|---|
//! | reports, campaigns, the memo and its store entries, traces | every [`RunSummary`](crate::campaign::RunSummary) field, IDS alarms, the full record | `Full` |
//! | dataset collection ([`crate::train_sh::collect_dataset`]), fig8(b) | features at launch, K, the attack-window δ (Move_In: the perceived δ over the whole run) | `Label` |
//! | the boundary search's evaluator | ⟨launched, EB, crash, K⟩ ([`RunVerdict`]) | `Verdict` |
//!
//! The consumer picks the horizon when it builds the session; it is never
//! a flag, an environment variable, a wire field or a cache-key input, and
//! it cannot change what the consumer reads, only how much work produces
//! it. A cut run also skips the pure observers its consumer never reads:
//! the IDS monitors and the replica-divergence probe, neither of which
//! draws from the run RNG or feeds back into the ADS.
//!
//! A cut [`RunOutcome`] still carries the record up to its stop, but
//! every field its consumer does not read may differ from the full run's.
//! [`RunSummary::of`](crate::campaign::RunSummary::of) therefore refuses
//! one (it panics), so a cut run can reach neither the campaign memo nor
//! the store.

use crate::runner::RunOutcome;

/// Seconds after the attack window closes that still count toward the
/// window's minimum δ ([`RunOutcome::min_delta_attack_window`]): the
/// consequence tail of the label the safety-hijacker oracle learns.
pub(crate) const ATTACK_WINDOW_TAIL_S: f64 = 3.0;

/// Where a run may stop: on the first tick after which nothing its
/// consumer reads can change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Horizon {
    /// The whole scenario with every observer on (every session's default).
    Full,
    /// A launched attack other than Move_In stops once the simulated time
    /// passes the attack window's end plus [`ATTACK_WINDOW_TAIL_S`]. Move_In
    /// runs (labelled by the perceived δ over the whole run), runs that
    /// never launch and runs whose window never closes run to the end.
    Label,
    /// Stops once the attack has launched, emergency braking has been
    /// entered at or after the launch, and an accident happened: all three
    /// are monotone, and K is fixed at launch.
    Verdict,
}

/// What the boundary search reads of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunVerdict {
    /// An attack was launched (a valid run).
    pub launched: bool,
    /// Emergency braking entered at/after the attack started.
    pub eb: bool,
    /// The paper's accident definition (see [`RunOutcome::accident`]).
    pub accident: bool,
    /// Planned attack length K (frames).
    pub k: u32,
}

impl RunVerdict {
    /// The verdict of a full run or of one cut at the verdict horizon.
    ///
    /// # Panics
    ///
    /// On a run cut at the label horizon, whose EB and accident facts
    /// stop at the attack window's tail.
    pub fn of(outcome: &RunOutcome) -> RunVerdict {
        assert!(
            outcome.horizon != Horizon::Label,
            "a run cut at its label horizon has no verdict"
        );
        RunVerdict {
            launched: outcome.attack.launched_at.is_some(),
            eb: outcome.eb_after_attack,
            accident: outcome.accident,
            k: outcome.attack.k,
        }
    }
}

/// Hooks for the horizon tests: each runs a consumer's sessions both cut
/// and in full and returns what the consumer reads of each, so the tests
/// can compare them without the horizon becoming a knob.
#[doc(hidden)]
pub mod probe {
    use super::{Horizon, RunVerdict};
    use crate::runner::{OracleSpec, RunOutcome};
    use crate::session::SimSession;
    use crate::suite::Args;
    use crate::train_sh::{dataset_session, example_from, Example, SweepConfig};
    use av_simkit::scenario::ScenarioId;
    use robotack::vector::AttackVector;

    /// fig8(b)'s ⟨k, predicted δ, realized δ⟩ rows.
    type Rows = Vec<(u32, f64, f64)>;

    /// One session run in full and at its consumer's horizon.
    #[derive(Debug)]
    pub struct Cut<T> {
        /// The full run.
        pub full: RunOutcome,
        /// What the consumer reads of the full run.
        pub full_read: T,
        /// What the consumer reads of the cut run.
        pub cut_read: T,
        /// Simulated seconds of the cut run.
        pub cut_seconds: f64,
    }

    fn cut<T>(session: SimSession, horizon: Horizon, read: impl Fn(&RunOutcome) -> T) -> Cut<T> {
        let cut = session.clone().with_horizon(horizon).run();
        let full = session.run();
        Cut {
            full_read: read(&full),
            cut_read: read(&cut),
            cut_seconds: cut.sim_seconds,
            full,
        }
    }

    /// Every cell of `sweep`'s dataset for ⟨`scenario`, `vector`⟩, with
    /// its training example.
    pub fn dataset(
        scenario: ScenarioId,
        vector: AttackVector,
        sweep: &SweepConfig,
    ) -> Vec<Cut<Option<Example>>> {
        sweep
            .cells()
            .into_iter()
            .map(|cell| {
                let session = dataset_session(scenario, vector, cell);
                cut(session, Horizon::Label, example_from)
            })
            .collect()
    }

    /// One session with the search's verdict of it.
    pub fn verdict(session: SimSession) -> Cut<RunVerdict> {
        cut(session, Horizon::Verdict, RunVerdict::of)
    }

    /// fig8(b)'s rows, full and cut.
    pub fn fig8b(args: &Args, oracle: &OracleSpec) -> (Rows, Rows) {
        (
            crate::jobs::fig8b_rows(args, oracle, Horizon::Full),
            crate::jobs::fig8b_rows(args, oracle, Horizon::Label),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::RunSummary;
    use crate::runner::AttackerSpec;
    use crate::session::SimSession;
    use av_simkit::scenario::ScenarioId;
    use robotack::vector::AttackVector;

    fn run_at(horizon: Horizon) -> RunOutcome {
        SimSession::builder(ScenarioId::Ds1)
            .seed(1)
            .attacker(AttackerSpec::AtDelta {
                vector: Some(AttackVector::MoveOut),
                delta_inject: 30.0,
                k: 10,
            })
            .build()
            .with_horizon(horizon)
            .run()
    }

    #[test]
    #[should_panic(expected = "RunSummary::of needs a full run")]
    fn a_label_run_cannot_be_summarized() {
        RunSummary::of(&run_at(Horizon::Label));
    }

    #[test]
    #[should_panic(expected = "has no verdict")]
    fn a_label_run_has_no_verdict() {
        RunVerdict::of(&run_at(Horizon::Label));
    }

    #[test]
    fn a_cut_run_skips_the_observers_and_stops_early() {
        let full = run_at(Horizon::Full);
        let cut = run_at(Horizon::Label);
        assert!(full.attack.launched_at.is_some(), "the attack launches");
        assert!(
            cut.sim_seconds < full.sim_seconds,
            "the label run stops early"
        );
        assert!(cut.ids_alarms.is_empty() && cut.replica_divergence.is_none());
        assert!(
            full.replica_divergence.is_some(),
            "the full run probes the replica"
        );
    }
}
