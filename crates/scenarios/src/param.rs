//! Sampled scalar parameters of a scenario spec.

use av_suite::fnv::Fnv1a;
use rand::rngs::StdRng;

/// A scalar scenario parameter: either pinned or drawn per seed.
///
/// Sampling is *guarded*: a degenerate range (empty, reversed, or
/// non-finite) consumes **no** RNG draw and returns its lower bound / base,
/// so hostile specs stay total and deterministic instead of panicking
/// inside the RNG. Well-formed ranges always consume exactly one draw —
/// the draw-count stability the bit-identity contract with
/// `Scenario::build` relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// Always this value; never draws.
    Fixed(f64),
    /// Uniform in `[lo, hi)`; one draw when `lo < hi`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// `base` plus uniform jitter in `[-pm, pm)`; one draw when `pm > 0`.
    ///
    /// `Jitter { base, pm }` samples as `base + draw(-pm..pm)` — the exact
    /// expression (and therefore the exact bits) `Scenario::build` uses for
    /// its ±2 m spawn jitter.
    Jitter {
        /// Center value.
        base: f64,
        /// Jitter half-width (m or kph, depending on the knob).
        pm: f64,
    },
}

impl Param {
    /// Convenience: the fixed-scenario jitter form.
    pub fn jitter(base: f64, pm: f64) -> Param {
        Param::Jitter { base, pm }
    }

    /// Draws a value. See the type docs for the degenerate-range guard.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Param::Fixed(v) => v,
            Param::Uniform { lo, hi } => {
                if lo.is_finite() && hi.is_finite() && lo < hi {
                    rng.random_range(lo..hi)
                } else {
                    lo
                }
            }
            Param::Jitter { base, pm } => {
                if base.is_finite() && pm.is_finite() && pm > 0.0 {
                    base + rng.random_range(-pm..pm)
                } else {
                    base
                }
            }
        }
    }

    /// The nominal (center) value, without drawing.
    pub fn nominal(&self) -> f64 {
        match *self {
            Param::Fixed(v) => v,
            Param::Uniform { lo, hi } => (lo + hi) / 2.0,
            Param::Jitter { base, .. } => base,
        }
    }

    /// The closed interval every sample of this parameter lies in.
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Param::Fixed(v) => (v, v),
            Param::Uniform { lo, hi } => (lo, hi.max(lo)),
            Param::Jitter { base, pm } => {
                if pm > 0.0 {
                    (base - pm, base + pm)
                } else {
                    (base, base)
                }
            }
        }
    }

    /// Whether every reachable value is finite and the range well-ordered.
    pub fn is_well_formed(&self) -> bool {
        let (lo, hi) = match *self {
            Param::Fixed(v) => (v, v),
            Param::Uniform { lo, hi } => (lo, hi),
            Param::Jitter { base, pm } => (base - pm.abs(), base + pm.abs()),
        };
        lo.is_finite() && hi.is_finite() && lo <= hi
    }

    /// Whether every reachable value lies within `[lo, hi]`.
    pub fn within(&self, lo: f64, hi: f64) -> bool {
        let (a, b) = self.bounds();
        self.is_well_formed() && a >= lo && b <= hi
    }

    /// Shifts the parameter's center by `delta`, clamping the center into
    /// `[lo, hi]` (range widths are preserved where they fit).
    #[must_use]
    pub fn shifted(&self, delta: f64, lo: f64, hi: f64) -> Param {
        match *self {
            Param::Fixed(v) => Param::Fixed((v + delta).clamp(lo, hi)),
            Param::Uniform { lo: a, hi: b } => {
                let w = (b - a).max(0.0).min(hi - lo);
                let a2 = (a + delta).clamp(lo, hi - w);
                Param::Uniform { lo: a2, hi: a2 + w }
            }
            Param::Jitter { base, pm } => {
                let pm = pm.clamp(0.0, (hi - lo) / 2.0);
                Param::Jitter {
                    base: (base + delta).clamp(lo + pm, hi - pm),
                    pm,
                }
            }
        }
    }

    /// Folds the parameter into a content hash (tag + value bits).
    pub fn fold(&self, h: &mut Fnv1a) {
        match *self {
            Param::Fixed(v) => {
                h.write(b"F");
                h.write_f64(v);
            }
            Param::Uniform { lo, hi } => {
                h.write(b"U");
                h.write_f64(lo);
                h.write_f64(hi);
            }
            Param::Jitter { base, pm } => {
                h.write(b"J");
                h.write_f64(base);
                h.write_f64(pm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::rng::run_rng;

    #[test]
    fn jitter_matches_build_expression() {
        // Param::jitter(60, 2) must replay Scenario::build's draw exactly.
        let mut a = run_rng(7, 0xD5);
        let mut b = run_rng(7, 0xD5);
        let expected: f64 = 60.0 + a.random_range(-2.0..2.0);
        let got = Param::jitter(60.0, 2.0).sample(&mut b);
        assert_eq!(expected.to_bits(), got.to_bits());
    }

    #[test]
    fn degenerate_ranges_do_not_draw() {
        let mut rng = run_rng(1, 2);
        let before: f64 = rng.random_range(0.0..1.0);
        let mut replay = run_rng(1, 2);
        let _: f64 = replay.random_range(0.0..1.0);
        // None of these consume a draw...
        assert_eq!(Param::Fixed(3.0).sample(&mut replay), 3.0);
        assert_eq!(Param::Uniform { lo: 5.0, hi: 5.0 }.sample(&mut replay), 5.0);
        assert_eq!(
            Param::Uniform {
                lo: 5.0,
                hi: f64::NAN
            }
            .sample(&mut replay),
            5.0
        );
        assert_eq!(Param::jitter(2.0, 0.0).sample(&mut replay), 2.0);
        assert_eq!(Param::jitter(2.0, -1.0).sample(&mut replay), 2.0);
        // ...so the streams stay aligned.
        let mut fresh = run_rng(1, 2);
        let resumed: f64 = fresh.random_range(0.0..1.0);
        assert_eq!(resumed.to_bits(), before.to_bits());
        let after: f64 = replay.random_range(0.0..1.0);
        let expected: f64 = {
            let mut r = run_rng(1, 2);
            let _: f64 = r.random_range(0.0..1.0);
            r.random_range(0.0..1.0)
        };
        assert_eq!(after.to_bits(), expected.to_bits());
    }

    #[test]
    fn bounds_and_well_formedness() {
        assert!(Param::Fixed(1.0).within(0.0, 2.0));
        assert!(!Param::Fixed(f64::INFINITY).is_well_formed());
        assert!(Param::Uniform { lo: 1.0, hi: 2.0 }.within(1.0, 2.0));
        assert!(!Param::Uniform { lo: 1.0, hi: 2.0 }.within(1.5, 2.0));
        assert!(Param::jitter(5.0, 1.0).within(4.0, 6.0));
    }

    #[test]
    fn shifted_respects_clamps() {
        let p = Param::jitter(60.0, 2.0).shifted(1000.0, 10.0, 100.0);
        let (lo, hi) = p.bounds();
        assert!(lo >= 10.0 && hi <= 100.0, "{p:?}");
        let q = Param::Uniform { lo: 0.0, hi: 10.0 }.shifted(-50.0, 0.0, 20.0);
        let (lo, hi) = q.bounds();
        assert!(lo >= 0.0 && hi <= 20.0, "{q:?}");
    }

    #[test]
    fn fold_distinguishes_variants() {
        let digest = |p: Param| {
            let mut h = Fnv1a::new();
            p.fold(&mut h);
            h.finish()
        };
        assert_ne!(digest(Param::Fixed(1.0)), digest(Param::jitter(1.0, 0.0)));
        assert_ne!(
            digest(Param::Uniform { lo: 1.0, hi: 2.0 }),
            digest(Param::Uniform { lo: 1.0, hi: 3.0 })
        );
    }
}
