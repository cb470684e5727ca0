//! Constant-velocity Kalman filter in image space ("F*" in Fig. 1).
//!
//! State `x = [cx, cy, vx, vy]`, measurement `z = [cx, cy]` (a detection's
//! box center). The filter assumes **zero-mean Gaussian measurement noise**
//! — exactly the assumption §III-B identifies as the vulnerability: an
//! attacker who biases measurements while staying inside ±1σ of the modeled
//! noise walks the state away without ever looking anomalous.

type Mat4 = [[f64; 4]; 4];

fn mat4_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for (i, row) in a.iter().enumerate() {
        for j in 0..4 {
            out[i][j] = (0..4).map(|k| row[k] * b[k][j]).sum();
        }
    }
    out
}

fn mat4_transpose(a: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for (i, row) in a.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            out[j][i] = *v;
        }
    }
    out
}

/// Kalman filter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanConfig {
    /// 1σ of the white acceleration driving the process model (px/s²).
    pub process_accel: f64,
    /// 1σ measurement noise along image x (px).
    pub measurement_noise_x: f64,
    /// 1σ measurement noise along image y (px).
    pub measurement_noise_y: f64,
    /// Initial velocity variance ((px/s)²).
    pub initial_velocity_var: f64,
}

impl Default for KalmanConfig {
    fn default() -> Self {
        KalmanConfig {
            process_accel: 60.0,
            measurement_noise_x: 12.0,
            measurement_noise_y: 12.0,
            initial_velocity_var: 400.0,
        }
    }
}

/// Constant-velocity Kalman filter over an image-plane point.
#[derive(Debug, Clone, PartialEq)]
pub struct Kalman {
    config: KalmanConfig,
    x: [f64; 4],
    p: Mat4,
}

impl Kalman {
    /// Initializes the filter at a measured position with zero velocity.
    pub fn new(config: KalmanConfig, cx: f64, cy: f64) -> Self {
        let r = config
            .measurement_noise_x
            .max(config.measurement_noise_y)
            .powi(2);
        let mut p = [[0.0; 4]; 4];
        p[0][0] = r;
        p[1][1] = r;
        p[2][2] = config.initial_velocity_var;
        p[3][3] = config.initial_velocity_var;
        Kalman {
            config,
            x: [cx, cy, 0.0, 0.0],
            p,
        }
    }

    /// Estimated position `(cx, cy)`.
    pub fn position(&self) -> (f64, f64) {
        (self.x[0], self.x[1])
    }

    /// Estimated velocity `(vx, vy)` in px/s.
    pub fn velocity(&self) -> (f64, f64) {
        (self.x[2], self.x[3])
    }

    /// Position variance `(var_x, var_y)` (px²).
    pub fn position_variance(&self) -> (f64, f64) {
        (self.p[0][0], self.p[1][1])
    }

    /// Predict step: advance the state `dt` seconds under constant velocity.
    pub fn predict(&mut self, dt: f64) {
        let f: Mat4 = [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        // x = F x
        let x = self.x;
        self.x = [x[0] + dt * x[2], x[1] + dt * x[3], x[2], x[3]];
        // P = F P Fᵀ + Q (piecewise-constant white acceleration model)
        let fp = mat4_mul(&f, &self.p);
        self.p = mat4_mul(&fp, &mat4_transpose(&f));
        let qa = self.config.process_accel.powi(2);
        let q_pos = 0.25 * dt.powi(4) * qa;
        let q_pv = 0.5 * dt.powi(3) * qa;
        let q_vel = dt.powi(2) * qa;
        for axis in 0..2 {
            self.p[axis][axis] += q_pos;
            self.p[axis][axis + 2] += q_pv;
            self.p[axis + 2][axis] += q_pv;
            self.p[axis + 2][axis + 2] += q_vel;
        }
    }

    /// Update step: fuse a position measurement `(zx, zy)`.
    pub fn update(&mut self, zx: f64, zy: f64) {
        let rx = self.config.measurement_noise_x.powi(2);
        let ry = self.config.measurement_noise_y.powi(2);
        // S = H P Hᵀ + R (2×2, H = [I2 0])
        let s = [
            [self.p[0][0] + rx, self.p[0][1]],
            [self.p[1][0], self.p[1][1] + ry],
        ];
        let det = s[0][0] * s[1][1] - s[0][1] * s[1][0];
        debug_assert!(det.abs() > 1e-12, "singular innovation covariance");
        let s_inv = [
            [s[1][1] / det, -s[0][1] / det],
            [-s[1][0] / det, s[0][0] / det],
        ];
        // K = P Hᵀ S⁻¹ (4×2)
        let mut k = [[0.0f64; 2]; 4];
        for (i, pr) in self.p.iter().enumerate() {
            for j in 0..2 {
                k[i][j] = pr[0] * s_inv[0][j] + pr[1] * s_inv[1][j];
            }
        }
        let y = [zx - self.x[0], zy - self.x[1]];
        for (xi, ki) in self.x.iter_mut().zip(&k) {
            *xi += ki[0] * y[0] + ki[1] * y[1];
        }
        // P = (I − K H) P
        let mut ikh = [[0.0f64; 4]; 4];
        for (i, row) in ikh.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                let kh = if j < 2 { k[i][j] } else { 0.0 };
                *v = f64::from(u8::from(i == j)) - kh;
            }
        }
        self.p = mat4_mul(&ikh, &self.p);
    }

    /// Mahalanobis-free innovation magnitude for a candidate measurement —
    /// how far `z` is from the predicted position, in pixels.
    pub fn innovation(&self, zx: f64, zy: f64) -> f64 {
        (zx - self.x[0]).hypot(zy - self.x[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_at(cx: f64, cy: f64) -> Kalman {
        Kalman::new(KalmanConfig::default(), cx, cy)
    }

    #[test]
    fn converges_to_static_target() {
        let mut kf = filter_at(100.0, 100.0);
        for _ in 0..50 {
            kf.predict(1.0 / 15.0);
            kf.update(120.0, 80.0);
        }
        let (cx, cy) = kf.position();
        assert!((cx - 120.0).abs() < 1.0, "cx {cx}");
        assert!((cy - 80.0).abs() < 1.0, "cy {cy}");
        let (vx, vy) = kf.velocity();
        assert!(vx.abs() < 5.0 && vy.abs() < 5.0);
    }

    #[test]
    fn tracks_constant_velocity() {
        let mut kf = filter_at(0.0, 0.0);
        let dt = 1.0 / 15.0;
        for i in 1..=100 {
            kf.predict(dt);
            kf.update(30.0 * dt * i as f64, 0.0); // 30 px/s along x
        }
        let (vx, _) = kf.velocity();
        assert!((vx - 30.0).abs() < 2.0, "vx {vx}");
    }

    #[test]
    fn prediction_extrapolates() {
        let mut kf = filter_at(0.0, 0.0);
        let dt = 1.0 / 15.0;
        for i in 1..=60 {
            kf.predict(dt);
            kf.update(60.0 * dt * i as f64, 0.0);
        }
        let (x_before, _) = kf.position();
        kf.predict(1.0);
        let (x_after, _) = kf.position();
        assert!((x_after - x_before - 60.0).abs() < 5.0);
    }

    #[test]
    fn uncertainty_grows_without_updates() {
        let mut kf = filter_at(0.0, 0.0);
        let (v0, _) = kf.position_variance();
        for _ in 0..20 {
            kf.predict(1.0 / 15.0);
        }
        let (v1, _) = kf.position_variance();
        assert!(v1 > v0);
    }

    #[test]
    fn update_shrinks_uncertainty() {
        let mut kf = filter_at(0.0, 0.0);
        kf.predict(1.0);
        let (before, _) = kf.position_variance();
        kf.update(0.0, 0.0);
        let (after, _) = kf.position_variance();
        assert!(after < before);
    }

    #[test]
    fn single_update_moves_state_partially() {
        // The Kalman gain is < 1: one biased measurement must not teleport
        // the state — this is why the attacker needs K' consecutive frames.
        let mut kf = filter_at(100.0, 100.0);
        kf.predict(1.0 / 15.0);
        kf.update(150.0, 100.0);
        let (cx, _) = kf.position();
        assert!(cx > 101.0 && cx < 149.0, "cx {cx}");
    }

    #[test]
    fn innovation_distance() {
        let kf = filter_at(10.0, 10.0);
        assert!((kf.innovation(13.0, 14.0) - 5.0).abs() < 1e-9);
    }
}
