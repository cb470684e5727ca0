//! PID controller with output and jerk limiting (§II-A: "commands are
//! smoothed out using a PID controller ... so the AV does not make any
//! sudden changes in Aₜ").

/// A discrete PID controller with anti-windup and slew (jerk) limiting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pid {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Output clamp (symmetric ±limit when `Some`).
    pub output_limit: Option<f64>,
    /// Maximum output slew rate per second (jerk limit for acceleration
    /// outputs).
    pub slew_limit: Option<f64>,
    integral: f64,
    last_error: Option<f64>,
    last_output: f64,
}

impl Pid {
    /// Creates a PID controller with the given gains and no limits.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        Pid {
            kp,
            ki,
            kd,
            output_limit: None,
            slew_limit: None,
            integral: 0.0,
            last_error: None,
            last_output: 0.0,
        }
    }

    /// Builder: clamp the output to ±`limit`.
    pub fn with_output_limit(mut self, limit: f64) -> Self {
        self.output_limit = Some(limit);
        self
    }

    /// Builder: limit the output slew rate (units per second).
    pub fn with_slew_limit(mut self, limit: f64) -> Self {
        self.slew_limit = Some(limit);
        self
    }

    /// Advances the controller by `dt` seconds with tracking error `error`
    /// (setpoint − measurement) and returns the new output.
    pub fn step(&mut self, error: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0, "non-positive dt {dt}");
        self.integral += error * dt;
        // Anti-windup: bound the integral contribution to the output limit.
        if let (Some(limit), true) = (self.output_limit, self.ki.abs() > 1e-12) {
            let max_integral = limit / self.ki.abs();
            self.integral = self.integral.clamp(-max_integral, max_integral);
        }
        let derivative = self.last_error.map_or(0.0, |e0| (error - e0) / dt);
        self.last_error = Some(error);

        let mut out = self.kp * error + self.ki * self.integral + self.kd * derivative;
        if let Some(limit) = self.output_limit {
            out = out.clamp(-limit, limit);
        }
        if let Some(slew) = self.slew_limit {
            let max_step = slew * dt;
            out = out.clamp(self.last_output - max_step, self.last_output + max_step);
        }
        self.last_output = out;
        out
    }

    /// The most recent output.
    pub fn output(&self) -> f64 {
        self.last_output
    }

    /// Resets all internal state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
        self.last_output = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_tracks_error() {
        let mut pid = Pid::new(2.0, 0.0, 0.0);
        assert_eq!(pid.step(1.5, 0.1), 3.0);
        assert_eq!(pid.step(-1.0, 0.1), -2.0);
    }

    #[test]
    fn integral_removes_steady_state_error() {
        // Plant: x' = u; setpoint 1.0; P-only would leave residual error
        // against a disturbance d = -0.5.
        let mut pid = Pid::new(1.0, 2.0, 0.0);
        let mut x = 0.0;
        for _ in 0..2000 {
            let u = pid.step(1.0 - x, 0.01);
            x += (u - 0.5) * 0.01;
        }
        assert!((x - 1.0).abs() < 0.02, "x = {x}");
    }

    #[test]
    fn output_limit_clamps() {
        let mut pid = Pid::new(100.0, 0.0, 0.0).with_output_limit(5.0);
        assert_eq!(pid.step(10.0, 0.1), 5.0);
        assert_eq!(pid.step(-10.0, 0.1), -5.0);
    }

    #[test]
    fn slew_limit_bounds_rate_of_change() {
        let mut pid = Pid::new(100.0, 0.0, 0.0).with_slew_limit(10.0);
        let out1 = pid.step(100.0, 0.1);
        assert!((out1 - 1.0).abs() < 1e-9, "first step bounded: {out1}");
        let out2 = pid.step(100.0, 0.1);
        assert!((out2 - 2.0).abs() < 1e-9, "ramps at slew rate: {out2}");
    }

    #[test]
    fn anti_windup_bounds_integral() {
        let mut pid = Pid::new(0.0, 1.0, 0.0).with_output_limit(2.0);
        for _ in 0..1000 {
            pid.step(10.0, 0.1);
        }
        // After the error flips, recovery must be quick (integral bounded).
        let mut steps = 0;
        while pid.step(-10.0, 0.1) > 0.0 {
            steps += 1;
            assert!(steps < 100, "integral wind-up detected");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(1.0, 1.0, 1.0);
        pid.step(5.0, 0.1);
        pid.reset();
        assert_eq!(pid.output(), 0.0);
        assert_eq!(pid.step(0.0, 0.1), 0.0);
    }
}
