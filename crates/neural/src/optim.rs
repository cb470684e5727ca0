//! Adam optimizer (the paper trains the safety hijacker with Adam, §IV-B).
//!
//! Moment state is stored **interleaved**: one `mv` vector of `[m_i, v_i]`
//! pairs instead of separate `m` and `v` vectors. The Adam update reads
//! and writes both moments of a parameter together, so the interleaved
//! layout streams one cache line per parameter pair where the split layout
//! touched three independent streams (`m`, `v`, and the params) — the
//! update is memory-bound (ROADMAP: ~25 % of a training epoch), and
//! halving the moment traffic is the point. The per-element op *order* is
//! unchanged, so results stay bit-identical to the split layout (pinned by
//! a proptest over hostile gradients in `tests/props.rs`). Optimizer state
//! lives only for one training run and is never persisted: a stored oracle
//! is its trained parameters.

/// Adam optimizer state over a flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: u64,
    /// Interleaved moment pairs: `mv[2i]` is `m_i`, `mv[2i + 1]` is `v_i`.
    mv: Vec<f64>,
}

impl Adam {
    /// Creates an Adam optimizer for `param_count` parameters.
    pub fn new(param_count: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            mv: vec![0.0; param_count * 2],
        }
    }

    /// Begins an optimization step (advances the bias-correction clock) and
    /// returns a stepper to be called once per parameter, **in a fixed
    /// order** across steps.
    pub fn step(&mut self) -> AdamStep<'_> {
        self.t += 1;
        // Bias corrections depend only on the step clock: compute them once
        // per step, not once per update call (bit-identical — the divisions
        // below still happen per parameter).
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        AdamStep {
            adam: self,
            idx: 0,
            bc1,
            bc2,
        }
    }

    /// Number of optimization steps taken.
    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    fn param_count(&self) -> usize {
        self.mv.len() / 2
    }
}

/// Per-step cursor over the parameter vector.
#[derive(Debug)]
pub struct AdamStep<'a> {
    adam: &'a mut Adam,
    idx: usize,
    bc1: f64,
    bc2: f64,
}

impl AdamStep<'_> {
    /// Updates one parameter with its gradient. Must be called exactly once
    /// per parameter per step, in the same order every step.
    ///
    /// # Panics
    ///
    /// Panics if called more times than there are parameters.
    pub fn update(&mut self, param: &mut f64, grad: f64) {
        let a = &mut *self.adam;
        let i = self.idx;
        assert!(
            i < a.param_count(),
            "more parameters than the optimizer was sized for"
        );
        let pair = &mut a.mv[2 * i..2 * i + 2];
        pair[0] = a.beta1 * pair[0] + (1.0 - a.beta1) * grad;
        pair[1] = a.beta2 * pair[1] + (1.0 - a.beta2) * grad * grad;
        let m_hat = pair[0] / self.bc1;
        let v_hat = pair[1] / self.bc2;
        *param -= a.lr * m_hat / (v_hat.sqrt() + a.eps);
        self.idx += 1;
    }

    /// Updates a contiguous run of parameters with their gradients. Exactly
    /// equivalent to calling [`AdamStep::update`] once per element in order
    /// (bit-identical math), but a single pass over the interleaved moment
    /// pairs: each parameter's `[m, v]` pair is read, updated, and written
    /// through one streaming cursor instead of three.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length or the run passes the
    /// end of the parameter vector.
    pub fn update_slice(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let a = &mut *self.adam;
        let start = self.idx;
        assert!(
            start + params.len() <= a.param_count(),
            "more parameters than the optimizer was sized for"
        );
        let (bc1, bc2) = (self.bc1, self.bc2);
        let mv = &mut a.mv[2 * start..2 * (start + params.len())];
        for ((param, &grad), pair) in params.iter_mut().zip(grads).zip(mv.chunks_exact_mut(2)) {
            let m = a.beta1 * pair[0] + (1.0 - a.beta1) * grad;
            let v = a.beta2 * pair[1] + (1.0 - a.beta2) * grad * grad;
            pair[0] = m;
            pair[1] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            *param -= a.lr * m_hat / (v_hat.sqrt() + a.eps);
        }
        self.idx += params.len();
    }

    /// Borrows the moment window for parameters `offset..offset + len` in
    /// the flat parameter order, independent of the sequential cursor. The
    /// fused training step hands each backward GEMM a lane over its layer's
    /// weights so the optimizer update runs *inside* the gradient kernel's
    /// store path (tile order, not cursor order) — every parameter keeps
    /// its fixed moment slot and its exact update expression, and
    /// parameters are independent, so the final state is bit-identical to
    /// cursor-order stepping.
    ///
    /// The caller is responsible for covering each parameter exactly once
    /// per step across lanes and cursor calls combined.
    ///
    /// # Panics
    ///
    /// Panics if the window passes the end of the parameter vector.
    pub fn lane(&mut self, offset: usize, len: usize) -> AdamLane<'_> {
        let a = &mut *self.adam;
        assert!(
            offset + len <= a.param_count(),
            "more parameters than the optimizer was sized for"
        );
        AdamLane {
            mv: &mut a.mv[2 * offset..2 * (offset + len)],
            lr: a.lr,
            beta1: a.beta1,
            beta2: a.beta2,
            eps: a.eps,
            bc1: self.bc1,
            bc2: self.bc2,
        }
    }

    /// Updates a contiguous run of parameters at an absolute offset in the
    /// flat parameter order, leaving the sequential cursor untouched.
    /// Bit-identical to covering the same window with cursor-order
    /// [`AdamStep::update_slice`] calls (same per-element expression, same
    /// moment slots).
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length or the window passes
    /// the end of the parameter vector.
    pub fn update_slice_at(&mut self, offset: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let mut lane = self.lane(offset, params.len());
        lane.update_run(0, params, grads);
    }
}

/// A borrowed window of one step's Adam state for out-of-order updates —
/// see [`AdamStep::lane`]. Holds the interleaved `[m, v]` pairs of its
/// window plus the step's hyperparameters and bias corrections.
#[derive(Debug)]
pub struct AdamLane<'a> {
    mv: &'a mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

impl AdamLane<'_> {
    /// Updates the parameter at index `i` *within this lane's window*
    /// (global flat index `offset + i`). Must be called exactly once per
    /// parameter per step; calls may arrive in any order across the window.
    /// The update is the exact expression [`AdamStep::update_slice`]
    /// computes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the window.
    #[inline(always)]
    pub fn update(&mut self, i: usize, param: &mut f64, grad: f64) {
        let pair = &mut self.mv[2 * i..2 * i + 2];
        let m = self.beta1 * pair[0] + (1.0 - self.beta1) * grad;
        let v = self.beta2 * pair[1] + (1.0 - self.beta2) * grad * grad;
        pair[0] = m;
        pair[1] = v;
        let m_hat = m / self.bc1;
        let v_hat = v / self.bc2;
        *param -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
    }

    /// Updates the contiguous run of parameters starting at lane index
    /// `start` with `grads`. Per-element identical to calling
    /// [`AdamLane::update`] for `start..start + params.len()` in order, but
    /// a single streaming pass over the `[m, v]` pairs that the compiler
    /// can vectorize — the fused backward's epilogue calls this once per
    /// tile row so the divide/sqrt chain runs packed, not one scalar
    /// divide per element.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length or the run passes
    /// the end of the window.
    #[inline(always)]
    pub fn update_run(&mut self, start: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let mv = &mut self.mv[2 * start..2 * (start + params.len())];
        for ((param, &grad), pair) in params.iter_mut().zip(grads).zip(mv.chunks_exact_mut(2)) {
            let m = self.beta1 * pair[0] + (1.0 - self.beta1) * grad;
            let v = self.beta2 * pair[1] + (1.0 - self.beta2) * grad * grad;
            pair[0] = m;
            pair[1] = v;
            let m_hat = m / self.bc1;
            let v_hat = v / self.bc2;
            *param -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut adam = Adam::new(1, 0.1);
        let mut x = 0.0;
        for _ in 0..500 {
            let g = 2.0 * (x - 3.0);
            adam.step().update(&mut x, g);
        }
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn handles_multiple_parameters_independently() {
        let mut adam = Adam::new(2, 0.05);
        let mut p = [0.0, 10.0];
        for _ in 0..2000 {
            let g0 = 2.0 * (p[0] + 1.0);
            let g1 = 2.0 * (p[1] - 5.0);
            let mut step = adam.step();
            step.update(&mut p[0], g0);
            step.update(&mut p[1], g1);
        }
        assert!((p[0] + 1.0).abs() < 1e-2);
        assert!((p[1] - 5.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "more parameters")]
    fn too_many_updates_panics() {
        let mut adam = Adam::new(1, 0.1);
        let mut x = 0.0;
        let mut step = adam.step();
        step.update(&mut x, 1.0);
        step.update(&mut x, 1.0);
    }

    #[test]
    fn update_slice_matches_per_element_updates() {
        let mut a1 = Adam::new(4, 0.1);
        let mut a2 = Adam::new(4, 0.1);
        let mut p1 = [1.0, -2.0, 0.5, 3.0];
        let mut p2 = p1;
        let g = [0.3, -0.7, 1.1, 0.0];
        for _ in 0..10 {
            let mut s1 = a1.step();
            for (p, &gi) in p1.iter_mut().zip(&g) {
                s1.update(p, gi);
            }
            let mut s2 = a2.step();
            s2.update_slice(&mut p2[..2], &g[..2]);
            s2.update_slice(&mut p2[2..], &g[2..]);
        }
        assert_eq!(p1, p2, "slice stepping must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "more parameters")]
    fn update_slice_past_end_panics() {
        let mut adam = Adam::new(1, 0.1);
        let mut p = [0.0, 0.0];
        adam.step().update_slice(&mut p, &[1.0, 1.0]);
    }

    #[test]
    fn step_count_advances() {
        let mut adam = Adam::new(1, 0.1);
        assert_eq!(adam.steps_taken(), 0);
        let mut x = 0.0;
        adam.step().update(&mut x, 1.0);
        assert_eq!(adam.steps_taken(), 1);
    }
}
