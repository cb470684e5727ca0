//! The shared GEMM micro-kernel layer behind every training matrix product
//! in the crate.
//!
//! Training a safety-hijacker oracle is GEMM-bound: the minibatch forward
//! pass (`x · Wᵀ`), the weight gradients (`δᵀ · x`), and the backpropagated
//! deltas (`δ · W`) each run one of the three kernel families here on every
//! minibatch of every epoch. All callers — `Matrix::matmul_into`,
//! `Matrix::t_matmul_into`, `Matrix::matmul_t_into`, and
//! `Mlp::forward_train_diff_into`/`backward_adam_into` — resolve to the
//! kernels in this module, so there is exactly one place where training's
//! accumulation order (and therefore bit-level reproducibility) is decided.
//! Dropout-free inference does not come here: it runs the one-row kernel of
//! [`crate::infer`], which is deliberately independent of [`GemmMode`].
//!
//! # Kernel families
//!
//! | family | computes | reduction | used by |
//! |---|---|---|---|
//! | `nt` | `C = A × Bᵀ` | over columns (`k`) | training forward |
//! | `tn` | `C = Aᵀ × B` | over rows (`r`) | weight gradients |
//! | `nn` | `C = A × B` | over inner dim (`k`) | backpropagated deltas |
//!
//! Each family ships two implementations:
//!
//! - **naive** — reference triple loops. Every output element accumulates
//!   its contributions strictly in ascending reduction-index order from a
//!   `+0.0` start. This is the bit-level ground truth the blocked kernels
//!   are pinned against (and what `AV_GEMM_MODE=naive` routes through).
//! - **blocked** (default) — register-blocked micro-kernels built from one
//!   const-generic `R×C` tile (up to 4×8): an `R×C` block of outputs is
//!   held in `R·C` register accumulators while the reduction loop streams
//!   over both operands once. Every accumulator still sums *its*
//!   contributions strictly in ascending index order, so the speedup comes
//!   purely from instruction-level parallelism (up to 32 independent FP-add
//!   chains hide the ~4-cycle add latency) and from loading each operand
//!   element once per tile edge instead of once per output —
//!   **bit-identical** to naive on every non-NaN output (finite values,
//!   signed zeros, and infinities), with NaNs appearing in exactly the
//!   same places for non-finite inputs. NaN *payloads* are the one thing
//!   left unpinned: IEEE-754 leaves payload propagation
//!   implementation-defined and LLVM may commute add/mul operands, so two
//!   codegens of the same chain can surface different payload bits.
//!   Remainder rows/columns (shapes that are not multiples of 4 — which
//!   the paper's 5/100/50/1 layer sizes hit on every layer) run as
//!   narrower `R×C` tiles of the *same* generic micro-kernel, so even the
//!   edge outputs keep several independent chains in flight instead of
//!   finishing one dot product at a time. The `nt` family additionally
//!   transposes `B` into a thread-local scratch on large shapes so the
//!   inner loop vectorizes. (Pinned by unit tests and
//!   `tests/gemm_props.rs`.)
//!
//! # Fused epilogues
//!
//! The training pipeline historically ran the per-layer bias add, ReLU,
//! inverted-dropout mask apply, and the output layer's MSE diff as
//! separate full-matrix passes after each GEMM. Those are pure
//! *per-element* transforms of a completed output, so they can run inside
//! the kernel's store path — after an output element's strict-order
//! accumulator chain completes, before the register result is written back
//! — without reassociating a single FP add. [`nt_fused`] takes an
//! [`Epilogue`] and applies it exactly there in blocked mode; under the
//! naive mode it runs the plain kernel followed by a separate row-major
//! [`epilogue_pass`], which computes the identical per-element
//! expression — so `AV_GEMM_MODE=naive` stays the end-to-end bit-level
//! reference for the *fused* pipeline too, and CI's kernel-equivalence
//! smoke keeps proving the claim without modification.
//!
//! # No sparsity shortcut
//!
//! The pre-PR-8 `nn`/`tn` loops skipped work when a left-hand element
//! compared equal to `0.0`. That shortcut is **not IEEE-transparent**:
//! `0.0 × NaN` and `0.0 × ∞` are NaN, so a NaN or infinity entering the
//! backward pass (a diverging Adam step, a poisoned activation) was
//! silently laundered into a finite gradient instead of propagating to
//! the loss where a training stack must surface it. No kernel here skips
//! any contribution; non-finite inputs propagate exactly as IEEE-754
//! arithmetic dictates (pinned by regression tests in
//! [`crate::matrix`]).
//!
//! # Selecting a mode
//!
//! The process-wide mode is seeded on first use from the `AV_GEMM_MODE`
//! environment variable (`blocked` | `naive`, [`GemmMode::Blocked`] when
//! unset) — which is how CI's kernel-equivalence smoke job runs the whole
//! oracle-training path against the naive reference build and diffs the
//! resulting artifacts byte-for-byte. Any other value is an
//! [`UnknownGemmMode`] error, never a fallback: a typo in the smoke's
//! naive leg must not quietly run blocked and diff blocked against
//! itself. The experiment binaries check [`mode_from_env`] up front and
//! exit with a usage error; [`mode`] panics rather than pick a kernel the
//! operator did not ask for.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which GEMM implementation the [`crate::matrix::Matrix`] product methods
/// dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmMode {
    /// Register-blocked micro-kernels (the default). Bit-identical to
    /// [`GemmMode::Naive`] for every input.
    Blocked,
    /// Reference triple loops with strict index-order accumulation; the
    /// bit-level ground truth the blocked kernels are pinned against.
    Naive,
}

/// The environment variable the process-wide [`mode`] is seeded from.
const MODE_VAR: &str = "AV_GEMM_MODE";

/// An `AV_GEMM_MODE` value that names no [`GemmMode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGemmMode(pub String);

impl std::fmt::Display for UnknownGemmMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{MODE_VAR} takes blocked or naive, not {:?}", self.0)
    }
}

impl std::error::Error for UnknownGemmMode {}

impl std::str::FromStr for GemmMode {
    type Err = UnknownGemmMode;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "blocked" => Ok(GemmMode::Blocked),
            "naive" => Ok(GemmMode::Naive),
            other => Err(UnknownGemmMode(other.to_string())),
        }
    }
}

/// The mode `AV_GEMM_MODE` asks for; [`GemmMode::Blocked`] when unset.
///
/// # Errors
///
/// Any set value other than `blocked` or `naive` (empty and non-UTF-8
/// values included) is an [`UnknownGemmMode`].
pub fn mode_from_env() -> Result<GemmMode, UnknownGemmMode> {
    match std::env::var_os(MODE_VAR) {
        None => Ok(GemmMode::Blocked),
        Some(v) => v.to_string_lossy().parse(),
    }
}

const MODE_UNSET: u8 = 0;
const MODE_BLOCKED: u8 = 1;
const MODE_NAIVE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The process-wide GEMM mode, seeded from [`mode_from_env`] on first call
/// (racing first readers all resolve the same environment value).
///
/// # Panics
///
/// Panics if `AV_GEMM_MODE` holds an unknown value — no kernel is picked
/// that the operator did not ask for.
pub fn mode() -> GemmMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_BLOCKED => GemmMode::Blocked,
        MODE_NAIVE => GemmMode::Naive,
        _ => {
            let m = mode_from_env().unwrap_or_else(|e| panic!("{e}"));
            let code = match m {
                GemmMode::Blocked => MODE_BLOCKED,
                GemmMode::Naive => MODE_NAIVE,
            };
            MODE.store(code, Ordering::Relaxed);
            m
        }
    }
}

// ---------------------------------------------------------------------------
// Epilogues: per-element transforms fused into the kernel store path.
// ---------------------------------------------------------------------------

/// A per-element transform applied to output element `(i, j)` *after* its
/// strict-order accumulator chain completes, as the register result is
/// stored. Because an epilogue sees only one finished element at a time, a
/// fused kernel and "plain kernel + separate [`epilogue_pass`]" compute
/// the identical per-element expression — fusion changes memory traffic,
/// never bits.
///
/// `apply` takes `&mut self` so an epilogue may carry *state* — the fused
/// training step's optimizer epilogue updates weights and Adam moments as
/// each gradient element completes. A stateful epilogue is visited exactly
/// once per output element, but in an implementation-defined *order*
/// (tile order under the blocked kernels, row-major under
/// [`epilogue_pass`]); state mutations must therefore be per-element
/// independent for the fused/unfused equivalence to hold.
pub trait Epilogue {
    /// Transforms the completed accumulator `s` of output element `(i, j)`.
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64;

    /// Transforms a contiguous run of completed elements in row `i`,
    /// starting at column `j` — the granularity the kernels actually store
    /// at (one tile row at a time, the full matrix row under
    /// [`epilogue_pass`]). The default forwards to [`Epilogue::apply`] per
    /// element; stateful epilogues whose per-element work is
    /// division-heavy (the fused optimizer) override it so the run
    /// vectorizes instead of issuing one scalar divide per element.
    /// Overrides must stay per-element equivalent to `apply` — the
    /// fused/unfused equivalence contract is defined element-wise.
    #[inline(always)]
    fn apply_row(&mut self, i: usize, j: usize, vals: &mut [f64]) {
        for (jj, v) in vals.iter_mut().enumerate() {
            *v = self.apply(i, j + jj, *v);
        }
    }
}

/// The identity epilogue: a plain GEMM store.
#[derive(Debug, Clone, Copy)]
pub struct NoEpilogue;

impl Epilogue for NoEpilogue {
    #[inline(always)]
    fn apply(&mut self, _i: usize, _j: usize, s: f64) -> f64 {
        s
    }

    #[inline(always)]
    fn apply_row(&mut self, _i: usize, _j: usize, _vals: &mut [f64]) {}
}

/// The dense-layer epilogue: bias add, then optional ReLU, then optional
/// inverted-dropout mask apply — the exact per-element op chain the
/// historical separate full-matrix passes ran, in the same order.
///
/// The mask (row-major `m×n`, same shape as the output) holds `1/keep` for
/// kept units and `0.0` for dropped ones; dropped units are *assigned*
/// zero (not multiplied), so a NaN activation that dropout silences stays
/// silenced exactly as the unfused pipeline left it.
#[derive(Debug, Clone, Copy)]
pub struct LayerEpilogue<'a> {
    bias: &'a [f64],
    relu: bool,
    mask: Option<&'a [f64]>,
    n: usize,
}

impl<'a> LayerEpilogue<'a> {
    /// Builds the epilogue for an `m×n` layer output: `bias` has length
    /// `n`; `mask`, when present, is the row-major `m×n` scaled keep-mask.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != n`.
    pub fn new(bias: &'a [f64], relu: bool, mask: Option<&'a [f64]>, n: usize) -> Self {
        assert_eq!(bias.len(), n, "bias length must match output columns");
        LayerEpilogue {
            bias,
            relu,
            mask,
            n,
        }
    }
}

impl Epilogue for LayerEpilogue<'_> {
    #[inline(always)]
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        let mut v = s + self.bias[j];
        if self.relu && v < 0.0 {
            v = 0.0;
        }
        if let Some(mask) = self.mask {
            let m = mask[i * self.n + j];
            v = if m == 0.0 { 0.0 } else { v * m };
        }
        v
    }
}

/// The output-layer MSE epilogue: bias add, then subtract the target —
/// producing `diff = (Σ + b) − y` directly, the quantity the training
/// loop's loss and delta computations both start from.
#[derive(Debug, Clone, Copy)]
pub struct BiasDiffEpilogue<'a> {
    bias: &'a [f64],
    targets: &'a [f64],
    n: usize,
}

impl<'a> BiasDiffEpilogue<'a> {
    /// Builds the epilogue for an `m×n` output layer: `bias` has length
    /// `n`, `targets` is the row-major `m×n` target batch.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != n`.
    pub fn new(bias: &'a [f64], targets: &'a [f64], n: usize) -> Self {
        assert_eq!(bias.len(), n, "bias length must match output columns");
        BiasDiffEpilogue { bias, targets, n }
    }
}

impl Epilogue for BiasDiffEpilogue<'_> {
    #[inline(always)]
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        (s + self.bias[j]) - self.targets[i * self.n + j]
    }
}

/// Applies `epi` to every element of a fully-accumulated `m×n` output, in
/// row-major order — the unfused reference the naive mode uses
/// (per-element, so application order cannot change any result bit).
pub fn epilogue_pass<E: Epilogue>(c: &mut [f64], m: usize, n: usize, epi: &mut E) {
    if n == 0 {
        return;
    }
    for (i, crow) in c[..m * n].chunks_exact_mut(n).enumerate() {
        epi.apply_row(i, 0, crow);
    }
}

// ---------------------------------------------------------------------------
// The generic R×C register tile (R ≤ 4, C ≤ 8) all three families build on.
// ---------------------------------------------------------------------------

/// Writes a finished `R×C` accumulator tile into `c` at `(i, j)`, applying
/// the epilogue to each stored tile row.
#[inline(always)]
fn store_tile<const R: usize, const C: usize, E: Epilogue>(
    s: &[[f64; C]; R],
    c: &mut [f64],
    n: usize,
    i: usize,
    j: usize,
    epi: &mut E,
) {
    for (ii, srow) in s.iter().enumerate() {
        let crow = &mut c[(i + ii) * n + j..(i + ii) * n + j + C];
        crow.copy_from_slice(srow);
        epi.apply_row(i + ii, j, crow);
    }
}

/// Dispatches a remainder width (1..=3) to the matching const-width call.
/// `$tile` is invoked as `$tile!(W)` with the literal width.
macro_rules! remainder {
    ($rem:expr, $tile:ident) => {
        match $rem {
            1 => $tile!(1),
            2 => $tile!(2),
            3 => $tile!(3),
            _ => {}
        }
    };
}

// ---------------------------------------------------------------------------
// nt: C (m×n) = A (m×k) × B (n×k)ᵀ — reduction over columns of both operands.
// ---------------------------------------------------------------------------

/// Reference `C = A × Bᵀ`: each output is one strictly index-ordered dot
/// product of a row of `A` (`m×k`) with a row of `B` (`n×k`). Overwrites
/// every element of `c` (`m×n`).
pub fn nt_naive(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        let crow = &mut c[i * n..i * n + n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..j * k + k];
            let mut s = 0.0;
            for (x, y) in arow.iter().zip(brow) {
                s += x * y;
            }
            *cv = s;
        }
    }
}

/// Register-blocked `C = A × Bᵀ`; bit-identical to [`nt_naive`] (each
/// accumulator of an `R×C` output tile is a single strict-`k`-order
/// chain). Overwrites every element of `c`.
///
/// Large shapes first transpose `B` into a thread-local scratch and run
/// the `nn` micro-kernel over it: `nt`'s natural inner loop gathers from
/// four different `B` rows (which defeats vectorization), while the
/// transposed form makes the `j` dimension contiguous. Per output element
/// the contributions are still consumed in strictly ascending `k` order —
/// operand layout changes, the accumulation chain does not — so the fast
/// path stays bit-identical.
pub fn nt_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    nt_blocked_bt(a, b, None, c, m, n, k, &mut NoEpilogue);
}

/// [`nt_blocked`] with an epilogue and an optional caller-provided `Bᵀ`.
#[allow(clippy::too_many_arguments)]
fn nt_blocked_bt<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    bt: Option<&[f64]>,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    epi: &mut E,
) {
    match bt {
        Some(bt) => {
            debug_assert_eq!(bt.len(), n * k);
            nn_panel(a, bt, c, m, k, n, epi);
        }
        None if m >= 4 && n >= 4 && k >= 1 => {
            with_transposed(b, n, k, |bt| nn_panel(a, bt, c, m, k, n, epi));
        }
        None => nt_panel(a, b, c, m, n, k, epi),
    }
}

/// Fused `C = A × Bᵀ` + per-element epilogue — the training-forward entry
/// point ([`crate::mlp`] routes every layer of the fused pipeline here).
///
/// Dispatches on the process-wide [`mode`]: **blocked** applies `epi` in
/// the micro-kernel store path, after each output element's strict-order
/// chain completes (no separate pass, no FP reassociation); **naive** runs
/// the plain kernel followed by a row-major [`epilogue_pass`]. Both routes
/// compute the identical per-element expression, so blocked stays
/// bit-identical to naive end-to-end and the CI kernel-equivalence smoke
/// covers the fused pipeline unmodified.
pub fn nt_fused<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    epi: &mut E,
) {
    nt_fused_bt(a, b, None, c, m, n, k, epi);
}

/// [`nt_fused`] with an optional caller-provided transposed copy of `B`
/// (`bt`, `k×n` row-major, bit-equal to `Bᵀ`). In blocked mode the kernel
/// runs directly over `bt`, skipping the per-call transpose into the
/// thread-local scratch — this is how the fused training step reuses the
/// persistent `Wᵀ` shadow its optimizer epilogue maintains. The naive mode
/// ignores `bt` and reads `b`, so the mode-equivalence contract is
/// unchanged provided `bt` matches `Bᵀ` bit-for-bit (per-element operand
/// *values* are what the accumulation order is defined over, not which
/// buffer they stream from).
#[allow(clippy::too_many_arguments)]
pub fn nt_fused_bt<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    bt: Option<&[f64]>,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    epi: &mut E,
) {
    match mode() {
        GemmMode::Blocked => nt_blocked_bt(a, b, bt, c, m, n, k, epi),
        GemmMode::Naive => {
            nt_naive(a, b, c, m, n, k);
            epilogue_pass(c, m, n, epi);
        }
    }
}

/// Fused `C = Aᵀ × B` + per-element epilogue — the weight-gradient entry
/// point of the fused training step (the optimizer epilogue rides here:
/// each completed `dW` element's Adam divisions issue while the next
/// tile's multiply/add stream keeps the FP ports busy). Mode dispatch
/// mirrors [`nt_fused`]: blocked applies `epi` in the store path, naive
/// runs the plain kernel plus a row-major [`epilogue_pass`].
pub fn tn_fused<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    r: usize,
    m: usize,
    n: usize,
    epi: &mut E,
) {
    match mode() {
        GemmMode::Blocked => tn_panel(a, b, c, m, n, r, epi),
        GemmMode::Naive => {
            tn_naive(a, b, c, r, m, n);
            epilogue_pass(c, m, n, epi);
        }
    }
}

/// Fused `C = A × B` + per-element epilogue — the backpropagated-delta
/// entry point of the fused training step (the ReLU/dropout backward pass
/// rides here). Mode dispatch mirrors [`nt_fused`].
pub fn nn_fused<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    epi: &mut E,
) {
    match mode() {
        GemmMode::Blocked => nn_panel(a, b, c, m, k, n, epi),
        GemmMode::Naive => {
            nn_naive(a, b, c, m, k, n);
            epilogue_pass(c, m, n, epi);
        }
    }
}

thread_local! {
    /// Scratch for the `nt` fast path's transposed copy of `B`. Thread-local
    /// (not per-call) so steady-state training performs no heap allocation
    /// after the first minibatch.
    static BT_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over `B` (`rows×cols`, row-major) transposed into the
/// thread-local scratch (`cols×rows`, row-major).
fn with_transposed(b: &[f64], rows: usize, cols: usize, f: impl FnOnce(&[f64])) {
    BT_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        if buf.len() < rows * cols {
            buf.resize(rows * cols, 0.0);
        }
        let bt = &mut buf[..rows * cols];
        // Cache-blocked transpose: 32×32 element blocks keep both the
        // strided reads and the contiguous writes L1-resident (a naive
        // row-by-row scatter costs as much as the GEMM it feeds on the
        // paper's 100×100 layers).
        const TB: usize = 32;
        let mut t0 = 0;
        while t0 < cols {
            let te = (t0 + TB).min(cols);
            let mut j0 = 0;
            while j0 < rows {
                let je = (j0 + TB).min(rows);
                for t in t0..te {
                    let btrow = &mut bt[t * rows + j0..t * rows + je];
                    for (dst, src) in btrow.iter_mut().zip(j0..je) {
                        *dst = b[src * cols + t];
                    }
                }
                j0 = je;
            }
            t0 = te;
        }
        f(bt);
    });
}

/// One `R×C` tile of the `nt` kernel: both operand tiles are row-major
/// with `k`-contiguous rows, so the reduction streams `R + C` rows in
/// lockstep. Each of the `R·C` accumulators is one strict-`t`-order chain.
#[allow(clippy::too_many_arguments)] // private micro-kernel; the dims are the signature
#[inline(always)]
fn nt_tile<const R: usize, const C: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    k: usize,
    i: usize,
    j: usize,
    epi: &mut E,
) {
    let ar: [&[f64]; R] = std::array::from_fn(|rr| &a[(i + rr) * k..(i + rr) * k + k]);
    let br: [&[f64]; C] = std::array::from_fn(|cc| &b[(j + cc) * k..(j + cc) * k + k]);
    let mut s = [[0.0f64; C]; R];
    for t in 0..k {
        let y: [f64; C] = std::array::from_fn(|cc| br[cc][t]);
        for (srow, arow) in s.iter_mut().zip(&ar) {
            let x = arow[t];
            for (sv, &yv) in srow.iter_mut().zip(&y) {
                *sv += x * yv;
            }
        }
    }
    store_tile(&s, c, n, i, j, epi);
}

/// One `R`-row band of the `nt` kernel: full-width 8- and 4-column tiles,
/// then one narrower remainder tile covering the trailing `n % 4` outputs
/// together (independent chains — never one dot product at a time).
#[inline(always)]
fn nt_band<const R: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    k: usize,
    i: usize,
    epi: &mut E,
) {
    let mut j = 0;
    while j + 8 <= n {
        nt_tile::<R, 8, E>(a, b, c, n, k, i, j, epi);
        j += 8;
    }
    if j + 4 <= n {
        nt_tile::<R, 4, E>(a, b, c, n, k, i, j, epi);
        j += 4;
    }
    macro_rules! tail {
        ($w:literal) => {
            nt_tile::<R, $w, E>(a, b, c, n, k, i, j, epi)
        };
    }
    remainder!(n - j, tail);
}

/// The blocked `nt` kernel over the whole reduction, storing through the
/// epilogue.
fn nt_panel<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    epi: &mut E,
) {
    let mut i = 0;
    while i + 4 <= m {
        nt_band::<4, E>(a, b, c, n, k, i, epi);
        i += 4;
    }
    macro_rules! tail {
        ($r:literal) => {
            nt_band::<$r, E>(a, b, c, n, k, i, epi)
        };
    }
    remainder!(m - i, tail);
}

// ---------------------------------------------------------------------------
// tn: C (m×n) = A (r×m)ᵀ × B (r×n) — reduction over the shared row count.
// ---------------------------------------------------------------------------

/// Reference `C = Aᵀ × B`: `A` is `r×m`, `B` is `r×n`, and every output
/// element accumulates its `r` contributions strictly in ascending row
/// order (no sparsity shortcut — zero entries still multiply, so NaN/∞
/// propagate). Overwrites every element of `c` (`m×n`).
pub fn tn_naive(a: &[f64], b: &[f64], c: &mut [f64], r: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(c.len(), m * n);
    c[..m * n].fill(0.0);
    for t in 0..r {
        let arow = &a[t * m..t * m + m];
        let brow = &b[t * n..t * n + n];
        for (i, &x) in arow.iter().enumerate() {
            let crow = &mut c[i * n..i * n + n];
            for (cv, &y) in crow.iter_mut().zip(brow) {
                *cv += x * y;
            }
        }
    }
}

/// Register-blocked `C = Aᵀ × B`; bit-identical to [`tn_naive`] (each
/// `R×C` output tile holds `R·C` strict-row-order accumulator chains).
/// Overwrites every element of `c`.
pub fn tn_blocked(a: &[f64], b: &[f64], c: &mut [f64], r: usize, m: usize, n: usize) {
    tn_panel(a, b, c, m, n, r, &mut NoEpilogue);
}

/// One `R×C` tile of the `tn` kernel: the reduction walks rows of both
/// operands (strides `m` and `n`), loading `R + C` contiguous elements per
/// step.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_tile<const R: usize, const C: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    r: usize,
    i: usize,
    j: usize,
    epi: &mut E,
) {
    let mut s = [[0.0f64; C]; R];
    for t in 0..r {
        let arow = &a[t * m + i..t * m + i + R];
        let brow = &b[t * n + j..t * n + j + C];
        for (srow, &x) in s.iter_mut().zip(arow) {
            for (sv, &y) in srow.iter_mut().zip(brow) {
                *sv += x * y;
            }
        }
    }
    store_tile(&s, c, n, i, j, epi);
}

/// One `R`-row band of the `tn` kernel (see [`nt_band`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_band<const R: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    r: usize,
    i: usize,
    epi: &mut E,
) {
    let mut j = 0;
    while j + 8 <= n {
        tn_tile::<R, 8, E>(a, b, c, m, n, r, i, j, epi);
        j += 8;
    }
    if j + 4 <= n {
        tn_tile::<R, 4, E>(a, b, c, m, n, r, i, j, epi);
        j += 4;
    }
    macro_rules! tail {
        ($w:literal) => {
            tn_tile::<R, $w, E>(a, b, c, m, n, r, i, j, epi)
        };
    }
    remainder!(n - j, tail);
}

/// The blocked `tn` kernel over all `r` rows, storing through the
/// epilogue.
fn tn_panel<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    r: usize,
    epi: &mut E,
) {
    let mut i = 0;
    while i + 4 <= m {
        tn_band::<4, E>(a, b, c, m, n, r, i, epi);
        i += 4;
    }
    macro_rules! tail {
        ($r:literal) => {
            tn_band::<$r, E>(a, b, c, m, n, r, i, epi)
        };
    }
    remainder!(m - i, tail);
}

// ---------------------------------------------------------------------------
// nn: C (m×n) = A (m×k) × B (k×n) — reduction over A's columns / B's rows.
// ---------------------------------------------------------------------------

/// Reference `C = A × B`: every output element accumulates its `k`
/// contributions strictly in ascending inner-index order (no sparsity
/// shortcut). Overwrites every element of `c` (`m×n`).
pub fn nn_naive(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c[..m * n].fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        for (t, &x) in arow.iter().enumerate() {
            let brow = &b[t * n..t * n + n];
            let crow = &mut c[i * n..i * n + n];
            for (cv, &y) in crow.iter_mut().zip(brow) {
                *cv += x * y;
            }
        }
    }
}

/// Register-blocked `C = A × B`; bit-identical to [`nn_naive`] (each `R×C`
/// output tile holds `R·C` strict-`k`-order accumulator chains).
/// Overwrites every element of `c`.
pub fn nn_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    nn_panel(a, b, c, m, k, n, &mut NoEpilogue);
}

/// One `R×C` tile of the `nn` kernel: `A` rows are `k`-contiguous, `B`
/// contributes `C` contiguous elements per reduction step.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn_tile<const R: usize, const C: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    epi: &mut E,
) {
    let ar: [&[f64]; R] = std::array::from_fn(|rr| &a[(i + rr) * k..(i + rr) * k + k]);
    let mut s = [[0.0f64; C]; R];
    for t in 0..k {
        let brow = &b[t * n + j..t * n + j + C];
        for (srow, arow) in s.iter_mut().zip(&ar) {
            let x = arow[t];
            for (sv, &y) in srow.iter_mut().zip(brow) {
                *sv += x * y;
            }
        }
    }
    store_tile(&s, c, n, i, j, epi);
}

/// One `R`-row band of the `nn` kernel (see [`nt_band`]).
#[inline(always)]
fn nn_band<const R: usize, E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
    i: usize,
    epi: &mut E,
) {
    let mut j = 0;
    while j + 8 <= n {
        nn_tile::<R, 8, E>(a, b, c, k, n, i, j, epi);
        j += 8;
    }
    if j + 4 <= n {
        nn_tile::<R, 4, E>(a, b, c, k, n, i, j, epi);
        j += 4;
    }
    macro_rules! tail {
        ($w:literal) => {
            nn_tile::<R, $w, E>(a, b, c, k, n, i, j, epi)
        };
    }
    remainder!(n - j, tail);
}

/// The blocked `nn` kernel over the whole reduction, storing through the
/// epilogue. This panel also backs the `nt` fast path (over a transposed
/// `B`) and therefore the fused forward-layer store.
fn nn_panel<E: Epilogue>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    epi: &mut E,
) {
    let mut i = 0;
    while i + 4 <= m {
        nn_band::<4, E>(a, b, c, k, n, i, epi);
        i += 4;
    }
    macro_rules! tail {
        ($r:literal) => {
            nn_band::<$r, E>(a, b, c, k, n, i, epi)
        };
    }
    remainder!(m - i, tail);
}

// ---------------------------------------------------------------------------
// Mode dispatchers (what the Matrix product methods call).
// ---------------------------------------------------------------------------

pub(crate) fn nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    match mode() {
        GemmMode::Blocked => nt_blocked(a, b, c, m, n, k),
        GemmMode::Naive => nt_naive(a, b, c, m, n, k),
    }
}

pub(crate) fn tn(a: &[f64], b: &[f64], c: &mut [f64], r: usize, m: usize, n: usize) {
    match mode() {
        GemmMode::Blocked => tn_blocked(a, b, c, r, m, n),
        GemmMode::Naive => tn_naive(a, b, c, r, m, n),
    }
}

pub(crate) fn nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    match mode() {
        GemmMode::Blocked => nn_blocked(a, b, c, m, k, n),
        GemmMode::Naive => nn_naive(a, b, c, m, k, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::rng as simrng;
    use rand::Rng;
    use rand::SeedableRng;

    fn filled(len: usize, rng: &mut impl Rng) -> Vec<f64> {
        (0..len).map(|_| simrng::normal(rng, 0.0, 2.0)).collect()
    }

    /// Every (m, n, reduction) shape combination the paper's training loop
    /// hits, plus primes, degenerate zeros, and sizes straddling the tile
    /// boundaries.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (0, 0, 0),
            (0, 3, 2),
            (3, 0, 2),
            (3, 2, 0),
            (1, 1, 1),
            (4, 4, 4),
            (5, 7, 13),
            (16, 100, 5),
            (16, 1, 50),
            (9, 64, 3),
            (17, 23, 29),
            (32, 64, 64),
        ]
    }

    #[test]
    fn blocked_kernels_match_naive_to_the_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for (m, n, k) in shapes() {
            let a = filled(m * k, &mut rng);
            let b = filled(n * k, &mut rng);
            let mut want = vec![9e9; m * n];
            let mut got = vec![-9e9; m * n];
            nt_naive(&a, &b, &mut want, m, n, k);
            nt_blocked(&a, &b, &mut got, m, n, k);
            assert_bits(&want, &got, "nt", m, n, k);

            let a = filled(k * m, &mut rng);
            let b = filled(k * n, &mut rng);
            tn_naive(&a, &b, &mut want, k, m, n);
            tn_blocked(&a, &b, &mut got, k, m, n);
            assert_bits(&want, &got, "tn", m, n, k);

            let a = filled(m * k, &mut rng);
            let b = filled(k * n, &mut rng);
            nn_naive(&a, &b, &mut want, m, k, n);
            nn_blocked(&a, &b, &mut got, m, k, n);
            assert_bits(&want, &got, "nn", m, n, k);
        }
    }

    #[test]
    fn fused_epilogue_matches_kernel_plus_pass() {
        // Fused store-path application ≡ plain kernel + separate row-major
        // pass, bit-for-bit, on shapes exercising every remainder tile.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for (m, n, k) in shapes() {
            let a = filled(m * k, &mut rng);
            let b = filled(n * k, &mut rng);
            let bias = filled(n, &mut rng);
            let mask: Vec<f64> = (0..m * n)
                .map(|_| if rng.random::<f64>() < 0.8 { 1.25 } else { 0.0 })
                .collect();
            let mut epi = LayerEpilogue::new(&bias, true, Some(&mask), n);
            let mut want = vec![9e9; m * n];
            let mut got = vec![-9e9; m * n];
            nt_naive(&a, &b, &mut want, m, n, k);
            epilogue_pass(&mut want, m, n, &mut epi);
            nt_fused(&a, &b, &mut got, m, n, k, &mut epi);
            assert_bits(&want, &got, "nt fused layer", m, n, k);

            let targets = filled(m * n, &mut rng);
            let mut diff_epi = BiasDiffEpilogue::new(&bias, &targets, n);
            nt_naive(&a, &b, &mut want, m, n, k);
            epilogue_pass(&mut want, m, n, &mut diff_epi);
            nt_fused(&a, &b, &mut got, m, n, k, &mut diff_epi);
            assert_bits(&want, &got, "nt fused bias-diff", m, n, k);
        }
    }

    #[test]
    fn kernels_overwrite_stale_output() {
        // A zero-length reduction must still clear the output buffer in
        // every implementation.
        for f in [nt_naive, nt_blocked] {
            let mut c = vec![7.0; 6];
            f(&[], &[], &mut c, 2, 3, 0);
            assert_eq!(c, vec![0.0; 6]);
        }
        for f in [tn_naive, tn_blocked] {
            let mut c = vec![7.0; 6];
            f(&[], &[], &mut c, 0, 2, 3);
            assert_eq!(c, vec![0.0; 6]);
        }
        for f in [nn_naive, nn_blocked] {
            let mut c = vec![7.0; 6];
            f(&[], &[], &mut c, 2, 0, 3);
            assert_eq!(c, vec![0.0; 6]);
        }
    }

    #[test]
    fn fused_zero_reduction_still_applies_epilogue() {
        // k = 0: every accumulator chain is the empty sum (+0.0) and the
        // epilogue still runs on it — matching naive + pass.
        let bias = vec![1.0, -2.0, 3.0];
        let mut epi = LayerEpilogue::new(&bias, true, None, 3);
        let mut c = vec![7.0; 6];
        nt_fused(&[], &[], &mut c, 2, 3, 0, &mut epi);
        assert_eq!(c, vec![1.0, 0.0, 3.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn only_blocked_and_naive_name_a_mode() {
        assert_eq!("blocked".parse(), Ok(GemmMode::Blocked));
        assert_eq!("naive".parse(), Ok(GemmMode::Naive));
        // A typo or a retired mode is an error naming the variable, never
        // a silent fallback to blocked.
        for bad in ["tiled", "naiv", "Blocked", " naive", ""] {
            let err = bad.parse::<GemmMode>().unwrap_err();
            assert_eq!(err, UnknownGemmMode(bad.to_string()));
            let msg = err.to_string();
            assert!(
                msg.starts_with("AV_GEMM_MODE takes blocked or naive"),
                "{msg}"
            );
        }
    }

    fn assert_bits(want: &[f64], got: &[f64], kernel: &str, m: usize, n: usize, k: usize) {
        assert_eq!(want.len(), got.len());
        for (idx, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{kernel} {m}x{n} (reduction {k}) diverged at flat index {idx}: {w} vs {g}"
            );
        }
    }
}
