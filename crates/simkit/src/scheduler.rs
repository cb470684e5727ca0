//! Multi-rate task scheduler.
//!
//! The paper's testbed runs sensors and software modules at different rates
//! (camera 15 Hz, LiDAR 10 Hz, GPS 12.5 Hz, Apollo planning ~10 Hz). The
//! scheduler reproduces that: tasks are registered with integer-microsecond
//! periods and the simulation loop asks which tasks fire at each tick.

use av_telemetry::{Stage, Telemetry, TraceEvent};

/// A periodic task identifier returned by [`Scheduler::add_task`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task(usize);

#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    period_us: u64,
    next_fire_us: u64,
}

/// Fixed-period task scheduler over an integer microsecond clock.
///
/// ```
/// use av_simkit::scheduler::Scheduler;
/// let mut s = Scheduler::new();
/// let camera = s.add_task_hz("camera", 15.0);
/// let fired = s.advance_to(0); // everything fires at t = 0
/// assert!(fired.contains(&camera));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    entries: Vec<Entry>,
    telemetry: Telemetry,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Attaches a telemetry handle: each [`Scheduler::advance_to`] call is
    /// timed as [`Stage::SchedulerAdvance`] and every dispatched task emits
    /// a [`TraceEvent::SchedulerTask`] carrying the task's static name.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers a task firing every `period_us` microseconds, first at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `period_us` is zero.
    pub fn add_task(&mut self, name: &'static str, period_us: u64) -> Task {
        assert!(period_us > 0, "task {name}: zero period");
        self.entries.push(Entry {
            name,
            period_us,
            next_fire_us: 0,
        });
        Task(self.entries.len() - 1)
    }

    /// Registers a task by frequency in Hz (rounded to whole microseconds).
    pub fn add_task_hz(&mut self, name: &'static str, hz: f64) -> Task {
        assert!(hz > 0.0, "task {name}: non-positive rate {hz}");
        self.add_task(name, (1e6 / hz).round() as u64)
    }

    /// Advances the clock to `now_us` and returns every task whose fire time
    /// has been reached, catching up multi-period gaps one fire at a time.
    ///
    /// Tasks are reported in registration order; a task that fell multiple
    /// periods behind fires once per call until it catches up (sensors drop
    /// frames rather than burst).
    ///
    /// Allocating convenience wrapper around [`Scheduler::advance_into`] —
    /// hot loops should hold a reusable buffer instead (the simulation loop
    /// calls this ~900 times per run).
    pub fn advance_to(&mut self, now_us: u64) -> Vec<Task> {
        let mut fired = Vec::new();
        self.advance_into(now_us, &mut fired);
        fired
    }

    /// Allocation-free [`Scheduler::advance_to`]: clears `fired` and appends
    /// every task whose fire time has been reached, in registration order.
    ///
    /// # Buffer reuse across sessions
    ///
    /// `fired` is cleared *unconditionally* at the top of every call — never
    /// merged into — so one buffer may be shared across ticks and across
    /// the schedulers of successive sessions (a campaign worker reuses one
    /// for every run it claims) without a stale entry from a previous
    /// session leaking into the next dispatch. [`Task`] handles are
    /// registration *indices*, private to the scheduler that issued them;
    /// see `tests::shared_buffer_across_schedulers`.
    pub fn advance_into(&mut self, now_us: u64, fired: &mut Vec<Task>) {
        let _timer = self.telemetry.time(Stage::SchedulerAdvance);
        fired.clear();
        for (i, e) in self.entries.iter_mut().enumerate() {
            if now_us >= e.next_fire_us {
                fired.push(Task(i));
                // Skip any fully-missed periods: sensors emit the latest
                // sample, not a backlog.
                let missed = (now_us - e.next_fire_us) / e.period_us;
                e.next_fire_us += (missed + 1) * e.period_us;
            }
        }
        if self.telemetry.is_enabled() {
            let t = now_us as f64 / 1e6;
            for task in fired.iter() {
                let name = self.entries[task.0].name;
                self.telemetry
                    .emit(t, || TraceEvent::SchedulerTask { task: name });
            }
        }
    }

    /// The registered name of a task.
    pub fn name(&self, task: Task) -> &'static str {
        self.entries[task.0].name
    }

    /// The period of a task in microseconds.
    pub fn period_us(&self, task: Task) -> u64 {
        self.entries[task.0].period_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_fire_at_their_rate() {
        let mut s = Scheduler::new();
        let fast = s.add_task("fast", 10);
        let slow = s.add_task("slow", 30);
        let mut fast_count = 0;
        let mut slow_count = 0;
        for t in (0..=120).step_by(10) {
            let fired = s.advance_to(t);
            fast_count += fired.iter().filter(|&&x| x == fast).count();
            slow_count += fired.iter().filter(|&&x| x == slow).count();
        }
        assert_eq!(fast_count, 13); // t = 0,10,...,120
        assert_eq!(slow_count, 5); // t = 0,30,60,90,120
    }

    #[test]
    fn missed_periods_do_not_burst() {
        let mut s = Scheduler::new();
        let t = s.add_task("t", 10);
        assert_eq!(s.advance_to(0), vec![t]);
        // Jump far ahead: only one fire, and the next fire lands after `now`.
        assert_eq!(s.advance_to(95), vec![t]);
        assert_eq!(s.advance_to(95), Vec::<Task>::new());
        assert_eq!(s.advance_to(100), vec![t]);
    }

    #[test]
    fn advance_into_reuses_buffer_and_matches_advance_to() {
        let mut a = Scheduler::new();
        let mut b = Scheduler::new();
        for s in [&mut a, &mut b] {
            s.add_task("fast", 10);
            s.add_task("slow", 30);
        }
        let mut fired = Vec::new();
        for t in (0..=120).step_by(10) {
            b.advance_into(t, &mut fired);
            assert_eq!(a.advance_to(t), fired);
        }
        // The buffer is cleared each call, not accumulated.
        b.advance_into(121, &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn shared_buffer_across_schedulers() {
        // A campaign worker reuses ONE fired buffer across the schedulers
        // of every session it runs. A stale entry surviving from session
        // A's dispatch into session B's would silently corrupt session B,
        // so pin the clearing contract in the sharing pattern itself.
        let mut a = Scheduler::new();
        let mut b = Scheduler::new();
        // Identical registration order → identical Task handles, as for
        // every session (each registers the same four tasks in order).
        let (a_fast, a_slow) = (a.add_task("fast", 10), a.add_task("slow", 30));
        let (b_fast, b_slow) = (b.add_task("fast", 10), b.add_task("slow", 30));
        assert_eq!((a_fast, a_slow), (b_fast, b_slow));

        let mut fired = Vec::new();
        // Put the schedulers out of phase: A consumed t=0, B has not.
        a.advance_into(0, &mut fired);
        assert_eq!(fired, vec![a_fast, a_slow]);
        // B at t=5 fires both (first fire is t=0, caught up late)...
        b.advance_into(5, &mut fired);
        assert_eq!(fired, vec![b_fast, b_slow]);
        // ...and A at t=5 fires nothing: the buffer must come back empty,
        // not holding B's leftovers.
        a.advance_into(5, &mut fired);
        assert!(
            fired.is_empty(),
            "stale fired entries leaked across sessions"
        );
        // Interleave both schedulers through one buffer and compare every
        // dispatch against control schedulers that each own a private
        // buffer — any cross-contamination shows up as a mismatch.
        let (mut ctl_a, mut ctl_b) = (a.clone(), b.clone());
        for t in (10..=120).step_by(5) {
            a.advance_into(t, &mut fired);
            assert_eq!(fired, ctl_a.advance_to(t), "A contaminated at t={t}");
            b.advance_into(t, &mut fired);
            assert_eq!(fired, ctl_b.advance_to(t), "B contaminated at t={t}");
        }
    }

    #[test]
    fn hz_conversion() {
        let mut s = Scheduler::new();
        let cam = s.add_task_hz("camera", 15.0);
        assert_eq!(s.period_us(cam), 66_667);
        assert_eq!(s.name(cam), "camera");
    }

    #[test]
    #[should_panic(expected = "zero period")]
    fn zero_period_panics() {
        Scheduler::new().add_task("bad", 0);
    }
}
