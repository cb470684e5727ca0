//! Plan-view geometry and small numeric helpers.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector in road coordinates: `x` longitudinal, `y` lateral (meters).
///
/// ```
/// use av_simkit::math::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Longitudinal component (meters).
    pub x: f64,
    /// Lateral component (meters).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Distance to `other`.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction, or zero if the norm is ~0.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n < 1e-12 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A pose in the plan view: position plus heading (radians, 0 = +x).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Position in road coordinates (meters).
    pub position: Vec2,
    /// Heading angle in radians; `0` points down the road (+x).
    pub heading: f64,
}

impl Pose {
    /// Creates a pose from a position and heading.
    pub fn new(position: Vec2, heading: f64) -> Self {
        Pose { position, heading }
    }

    /// Unit vector pointing along the heading.
    pub fn forward(self) -> Vec2 {
        Vec2::new(self.heading.cos(), self.heading.sin())
    }
}

/// Clamps `v` into `[lo, hi]`.
///
/// # Panics
///
/// Panics in debug builds if `lo > hi`.
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
    v.max(lo).min(hi)
}

/// Returns `true` when `a` and `b` differ by at most `tol`.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// One-dimensional interval overlap length between `[a0, a1]` and `[b0, b1]`.
///
/// Returns 0 when the intervals are disjoint. The inputs need not be ordered.
pub fn interval_overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    let (a0, a1) = if a0 <= a1 { (a0, a1) } else { (a1, a0) };
    let (b0, b1) = if b0 <= b1 { (b0, b1) } else { (b1, b0) };
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_norm_and_dot() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
    }

    #[test]
    fn vec2_normalized_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let u = Vec2::new(0.0, -2.0).normalized();
        assert!(approx_eq(u.y, -1.0, 1e-12));
    }

    #[test]
    fn vec2_lerp_endpoints() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, -2.0));
    }

    #[test]
    fn pose_forward() {
        let p = Pose::new(Vec2::ZERO, 0.0);
        assert!(approx_eq(p.forward().x, 1.0, 1e-12));
        let q = Pose::new(Vec2::ZERO, std::f64::consts::FRAC_PI_2);
        assert!(approx_eq(q.forward().y, 1.0, 1e-12));
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn interval_overlap_cases() {
        assert_eq!(interval_overlap(0.0, 2.0, 1.0, 3.0), 1.0);
        assert_eq!(interval_overlap(0.0, 1.0, 2.0, 3.0), 0.0);
        // Unordered inputs are normalized.
        assert_eq!(interval_overlap(2.0, 0.0, 3.0, 1.0), 1.0);
        // Containment.
        assert_eq!(interval_overlap(0.0, 10.0, 2.0, 3.0), 1.0);
    }
}
