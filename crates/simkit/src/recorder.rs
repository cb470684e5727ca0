//! Per-run time-series capture used by the evaluation harness.

/// One sample of the quantities the evaluation tracks, taken whenever an
/// actuation command is sent (the paper computes `d_safe` at actuation time,
/// §II-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time (s).
    pub t: f64,
    /// Ego speed (m/s).
    pub ego_speed: f64,
    /// Commanded ego acceleration (m/s²).
    pub ego_accel: f64,
    /// Ground-truth safety potential δ = d_safe − d_stop (m).
    pub delta: f64,
    /// Ground-truth bumper gap to the scripted target object (m).
    pub target_gap: f64,
    /// Whether an attack perturbation was applied to this frame.
    pub attack_active: bool,
    /// Whether the ADS was emergency braking at this sample.
    pub emergency_braking: bool,
}

/// Discrete events of interest during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The attacker began perturbing the camera feed.
    AttackStarted,
    /// The attacker stopped perturbing the camera feed.
    AttackEnded,
    /// The ADS entered emergency braking.
    EmergencyBrake,
    /// Ground-truth separation dropped below the 4 m simulator-halt limit.
    Collision,
}

/// Recorded history of a single simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Periodic samples, in time order.
    pub samples: Vec<Sample>,
    /// Time-stamped events, in time order.
    pub events: Vec<(f64, Event)>,
}

impl RunRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        RunRecord::default()
    }

    /// Appends a sample.
    pub fn push_sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Appends an event at time `t`.
    pub fn push_event(&mut self, t: f64, event: Event) {
        self.events.push((t, event));
    }

    /// Time of the first occurrence of `event`, if any.
    pub fn first_event(&self, event: Event) -> Option<f64> {
        self.events
            .iter()
            .find(|(_, e)| *e == event)
            .map(|(t, _)| *t)
    }

    /// Whether `event` occurred at least once.
    pub fn has_event(&self, event: Event) -> bool {
        self.first_event(event).is_some()
    }

    /// Minimum ground-truth safety potential from `from_t` (inclusive) to the
    /// end of the run — the Fig. 6 metric when `from_t` is the attack start.
    pub fn min_delta_since(&self, from_t: f64) -> Option<f64> {
        self.samples
            .iter()
            .filter(|s| s.t >= from_t)
            .map(|s| s.delta)
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
    }

    /// Number of samples flagged as attack-active (the realized attack
    /// length in actuation samples).
    pub fn attack_sample_count(&self) -> usize {
        self.samples.iter().filter(|s| s.attack_active).count()
    }

    /// Duration covered by the samples (s), zero if fewer than two samples.
    pub fn duration(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Order-sensitive 64-bit FNV-1a digest of the whole record: every
    /// sample field bit-exact (`f64::to_bits`) plus the event sequence.
    ///
    /// Two records digest equal iff their trajectories are bit-identical,
    /// so the golden-trace regression suite can commit this one hex string
    /// per 〈scenario, seed〉 instead of a full trace dump.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = fnv_u64(h, self.samples.len() as u64);
        for s in &self.samples {
            h = fnv_u64(h, s.t.to_bits());
            h = fnv_u64(h, s.ego_speed.to_bits());
            h = fnv_u64(h, s.ego_accel.to_bits());
            h = fnv_u64(h, s.delta.to_bits());
            h = fnv_u64(h, s.target_gap.to_bits());
            h = fnv_u64(h, u64::from(s.attack_active));
            h = fnv_u64(h, u64::from(s.emergency_braking));
        }
        h = fnv_u64(h, self.events.len() as u64);
        for (t, event) in &self.events {
            h = fnv_u64(h, t.to_bits());
            let tag = match event {
                Event::AttackStarted => 1u64,
                Event::AttackEnded => 2,
                Event::EmergencyBrake => 3,
                Event::Collision => 4,
            };
            h = fnv_u64(h, tag);
        }
        format!("{h:016x}")
    }
}

/// Folds one 64-bit word into an FNV-1a state, byte by byte.
fn fnv_u64(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, delta: f64, attack: bool) -> Sample {
        Sample {
            t,
            ego_speed: 10.0,
            ego_accel: 0.0,
            delta,
            target_gap: delta + 5.0,
            attack_active: attack,
            emergency_braking: false,
        }
    }

    #[test]
    fn min_delta_since_respects_window() {
        let mut r = RunRecord::new();
        r.push_sample(sample(0.0, 3.0, false)); // before the window
        r.push_sample(sample(1.0, 10.0, true));
        r.push_sample(sample(2.0, 7.0, true));
        assert_eq!(r.min_delta_since(0.5), Some(7.0));
        assert_eq!(r.min_delta_since(0.0), Some(3.0));
        assert_eq!(r.min_delta_since(5.0), None);
    }

    #[test]
    fn events_query() {
        let mut r = RunRecord::new();
        r.push_event(1.5, Event::AttackStarted);
        r.push_event(2.0, Event::EmergencyBrake);
        assert_eq!(r.first_event(Event::AttackStarted), Some(1.5));
        assert!(r.has_event(Event::EmergencyBrake));
        assert!(!r.has_event(Event::Collision));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = RunRecord::new();
        a.push_sample(sample(0.0, 10.0, false));
        a.push_event(1.0, Event::AttackStarted);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest(), "equal records, equal digests");
        assert_eq!(a.digest().len(), 16);

        // One ULP of one field changes the digest.
        b.samples[0].delta = f64::from_bits(b.samples[0].delta.to_bits() + 1);
        assert_ne!(a.digest(), b.digest());

        // Event order matters.
        let mut c = a.clone();
        c.push_event(2.0, Event::EmergencyBrake);
        let mut d = a.clone();
        d.push_event(2.0, Event::Collision);
        assert_ne!(c.digest(), d.digest());

        // Empty record digests to a fixed, non-trivial value.
        assert_ne!(RunRecord::new().digest(), a.digest());
    }

    #[test]
    fn counts_and_duration() {
        let mut r = RunRecord::new();
        r.push_sample(sample(0.0, 10.0, false));
        r.push_sample(sample(1.0, 10.0, true));
        r.push_sample(sample(2.0, 10.0, true));
        assert_eq!(r.attack_sample_count(), 2);
        assert_eq!(r.duration(), 2.0);
        assert_eq!(RunRecord::new().duration(), 0.0);
    }
}
