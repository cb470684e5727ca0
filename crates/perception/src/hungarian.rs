//! Hungarian algorithm ("M" in Fig. 1): minimum-cost bipartite assignment.
//!
//! O(n²·m) potential-based implementation (Kuhn–Munkres with Dijkstra-style
//! row augmentation). Rectangular matrices are supported; forbidden pairs
//! are encoded as `f64::INFINITY` and never reported as assigned.
//!
//! The solver is allocation-free in steady state: all working storage
//! (flat cost matrix, potentials, path arrays, the transposed mirror for
//! `rows > cols` inputs) lives in a reusable [`HungarianScratch`]. The
//! 15 Hz tracker owns one scratch and reuses it every frame; the
//! [`solve`] convenience wrapper allocates a fresh scratch per call and is
//! intended for tests and one-shot callers.

/// Sentinel used internally in place of `INFINITY` so arithmetic stays
/// finite (the classic big-M encoding: forbidden edges cost `M`, so the
/// minimum-total solution uses as few of them as possible and they are
/// stripped from the reported assignment afterwards).
///
/// The magnitude is a deliberate compromise. `M` must dominate any finite
/// alternating-path cost so a forbidden edge is only ever taken when
/// unavoidable — but f64 has only ~15.9 significant digits, so an `M` that
/// is *too* large erases the finite terms riding on top of it: at the old
/// sentinel of `1e30`, `1e30 + 2.85 == 1e30 + 6.02` exactly, and whenever a
/// contested column forced an augmenting path through a forbidden edge the
/// tie broke arbitrarily, silently keeping a suboptimal finite matching.
/// At `1e9` the unit in the last place is ≈ 2.4e-7, so finite cost
/// differences down to the micro scale survive sentinel arithmetic intact.
/// Callers must keep finite costs ≪ `FORBIDDEN` (association costs are
/// O(1); anything a caller passes at or above the sentinel is treated as
/// forbidden by the final strip).
const FORBIDDEN: f64 = 1e9;

/// Reusable working storage for the assignment solver.
///
/// Holds the flat row-major cost matrix plus every internal array the
/// potential algorithm needs (potentials `u`/`v`, column assignment `p`,
/// augmenting-path memory `way`, Dijkstra state `minv`/`used`, and the
/// transposed mirror used when `rows > cols`). After the first few frames
/// all buffers reach steady-state capacity and [`HungarianScratch::solve`]
/// performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct HungarianScratch {
    rows: usize,
    cols: usize,
    cost: Vec<f64>,
    /// Column-major mirror of `cost`, used when `rows > cols`.
    tcost: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// Per-row flag: does the row contain at least one finite cost?
    row_feasible: Vec<bool>,
    /// Assignment of the (possibly transposed) solved matrix.
    inner: Vec<Option<usize>>,
    assignment: Vec<Option<usize>>,
}

impl HungarianScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new `rows × cols` problem and returns the row-major cost
    /// buffer to fill. Every cell is pre-set to `INFINITY` (forbidden), so
    /// callers only need to write the admissible pairs.
    pub fn begin(&mut self, rows: usize, cols: usize) -> &mut [f64] {
        self.rows = rows;
        self.cols = cols;
        self.cost.clear();
        self.cost.resize(rows * cols, f64::INFINITY);
        &mut self.cost
    }

    /// Solves the problem prepared by [`HungarianScratch::begin`] and
    /// returns `assignment[row] = Some(col)` for every row matched to a
    /// column with finite cost (see [`solve`] for the full contract).
    pub fn solve(&mut self) -> &[Option<usize>] {
        let (n, m) = (self.rows, self.cols);
        self.assignment.clear();
        self.assignment.resize(n, None);
        if n == 0 || m == 0 {
            return &self.assignment;
        }
        // The potential algorithm needs rows <= cols; solve the transposed
        // mirror if necessary and map the column assignment back.
        if n > m {
            self.tcost.clear();
            self.tcost.resize(n * m, 0.0);
            for i in 0..n {
                for j in 0..m {
                    self.tcost[j * n + i] = self.cost[i * m + j];
                }
            }
            solve_rectangular(
                &self.tcost,
                m,
                n,
                &mut self.u,
                &mut self.v,
                &mut self.p,
                &mut self.way,
                &mut self.minv,
                &mut self.used,
                &mut self.row_feasible,
                &mut self.inner,
            );
            for (j, a) in self.inner.iter().enumerate() {
                if let Some(i) = *a {
                    self.assignment[i] = Some(j);
                }
            }
        } else {
            solve_rectangular(
                &self.cost,
                n,
                m,
                &mut self.u,
                &mut self.v,
                &mut self.p,
                &mut self.way,
                &mut self.minv,
                &mut self.used,
                &mut self.row_feasible,
                &mut self.assignment,
            );
        }
        &self.assignment
    }

    /// The assignment computed by the most recent [`HungarianScratch::solve`].
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }
}

/// Core solver over a flat row-major `n × m` matrix with `n <= m`.
///
/// Forbidden (`INFINITY`) pairs participate as big-M edges (see
/// [`FORBIDDEN`]): minimizing the padded total minimizes the number of
/// forbidden edges first and the finite cost second, which is exactly the
/// maximum-cardinality minimum-cost matching over the finite pairs once
/// forbidden edges are stripped from the output. Rows without a single
/// finite entry are additionally excluded from augmentation up front — they
/// could only ever claim a column through a sentinel edge, so skipping them
/// keeps the potentials finite-scale for the rows that matter. Both
/// properties are pinned against exhaustive enumeration by the property
/// suite in `tests/hungarian_props.rs`.
#[allow(clippy::too_many_arguments)]
fn solve_rectangular(
    cost: &[f64],
    n: usize,
    m: usize,
    u: &mut Vec<f64>,
    v: &mut Vec<f64>,
    p: &mut Vec<usize>,
    way: &mut Vec<usize>,
    minv: &mut Vec<f64>,
    used: &mut Vec<bool>,
    row_feasible: &mut Vec<bool>,
    out: &mut Vec<Option<usize>>,
) {
    debug_assert!(n <= m);
    let sanitized = |i: usize, j: usize| {
        let c = cost[i * m + j];
        if c.is_finite() {
            c
        } else {
            FORBIDDEN
        }
    };

    row_feasible.clear();
    row_feasible.extend((0..n).map(|i| cost[i * m..(i + 1) * m].iter().any(|c| c.is_finite())));

    // 1-indexed potentials; way[j] remembers the augmenting path.
    u.clear();
    u.resize(n + 1, 0.0);
    v.clear();
    v.resize(m + 1, 0.0);
    p.clear();
    p.resize(m + 1, 0); // p[j] = row assigned to column j (1-indexed)
    way.clear();
    way.resize(m + 1, 0);

    for i in 1..=n {
        if !row_feasible[i - 1] {
            continue;
        }
        p[0] = i;
        let mut j0 = 0usize;
        minv.clear();
        minv.resize(m + 1, f64::INFINITY);
        used.clear();
        used.resize(m + 1, false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = sanitized(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    out.clear();
    out.resize(n, None);
    for j in 1..=m {
        let i = p[j];
        if i > 0 {
            let c = cost[(i - 1) * m + (j - 1)];
            if c.is_finite() && c < FORBIDDEN {
                out[i - 1] = Some(j - 1);
            }
        }
    }
}

/// Solves the assignment problem for a `rows × cols` cost matrix.
///
/// Returns `assignment[row] = Some(col)` for every row matched to a column
/// with finite cost, `None` otherwise. A row with no finite cost at all is
/// never reported as assigned. Each column is used at most once. The
/// returned matching has maximum cardinality over the finite-cost pairs
/// and, among those, minimum total cost (finite costs must stay well below
/// the internal big-M sentinel of `1e9`; see `FORBIDDEN` in this module).
///
/// Allocates a fresh [`HungarianScratch`] per call; hot paths should own a
/// scratch and call [`HungarianScratch::solve`] instead.
///
/// # Panics
///
/// Panics if the rows are not all the same length.
pub fn solve(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    assert!(cost.iter().all(|r| r.len() == m), "ragged cost matrix");
    let mut scratch = HungarianScratch::new();
    let buf = scratch.begin(n, m);
    for (i, row) in cost.iter().enumerate() {
        buf[i * m..(i + 1) * m].copy_from_slice(row);
    }
    scratch.solve().to_vec()
}

/// Total cost of an assignment over a cost matrix (for tests).
pub fn assignment_cost(cost: &[Vec<f64>], assignment: &[Option<usize>]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|j| cost[i][j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_optimal() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = solve(&cost);
        assert_eq!(a, vec![Some(1), Some(0), Some(2)]);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
    }

    #[test]
    fn identity_diagonal() {
        let cost = vec![
            vec![0.0, 9.0, 9.0],
            vec![9.0, 0.0, 9.0],
            vec![9.0, 9.0, 0.0],
        ];
        assert_eq!(solve(&cost), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn rectangular_more_cols() {
        let cost = vec![vec![5.0, 1.0, 8.0, 3.0], vec![4.0, 7.0, 2.0, 9.0]];
        let a = solve(&cost);
        assert_eq!(a, vec![Some(1), Some(2)]);
    }

    #[test]
    fn rectangular_more_rows() {
        let cost = vec![vec![5.0, 1.0], vec![4.0, 7.0], vec![0.5, 9.0]];
        let a = solve(&cost);
        // Row 1 must lose: rows 0 and 2 take the two columns.
        assert_eq!(a, vec![Some(1), None, Some(0)]);
    }

    #[test]
    fn forbidden_pairs_never_assigned() {
        let inf = f64::INFINITY;
        let cost = vec![vec![inf, inf], vec![1.0, inf]];
        let a = solve(&cost);
        assert_eq!(a[0], None);
        assert_eq!(a[1], Some(0));
    }

    #[test]
    fn all_infinite_row_does_not_degrade_finite_rows() {
        // The forbidden row must neither take a column nor poison the
        // potentials: row 1 still gets its cheapest column.
        let inf = f64::INFINITY;
        let cost = vec![vec![inf, inf], vec![1.0, 2.0]];
        let a = solve(&cost);
        assert_eq!(a, vec![None, Some(0)]);
    }

    #[test]
    fn all_infinite_row_unassigned_in_transposed_branch() {
        // rows > cols exercises the transposed solve; the all-forbidden
        // row stays unassigned and both columns go to the finite rows.
        let inf = f64::INFINITY;
        let cost = vec![vec![inf, inf], vec![1.0, 5.0], vec![4.0, 2.0]];
        let a = solve(&cost);
        assert_eq!(a, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn all_infinite_matrix_assigns_nothing() {
        let inf = f64::INFINITY;
        for (n, m) in [(2, 3), (3, 2), (3, 3)] {
            let cost = vec![vec![inf; m]; n];
            assert_eq!(solve(&cost), vec![None; n], "{n}x{m}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(solve(&[]).is_empty());
        assert_eq!(solve(&[vec![], vec![]]), vec![None, None]);
    }

    #[test]
    fn columns_unique() {
        let cost = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]];
        let a = solve(&cost);
        let assigned: Vec<usize> = a.iter().flatten().copied().collect();
        assert_eq!(assigned.len(), 2);
        assert_ne!(assigned[0], assigned[1]);
    }

    #[test]
    fn greedy_is_suboptimal_hungarian_is_not() {
        // Greedy (row-by-row min) picks (0,0)=1 then (1,1)=10 → 11.
        // Optimal is (0,1)=2 + (1,0)=3 → 5.
        let cost = vec![vec![1.0, 2.0], vec![3.0, 10.0]];
        let a = solve(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_solves() {
        // One scratch reused across differently-shaped problems must give
        // the same answers as the allocating wrapper.
        let inf = f64::INFINITY;
        let problems: Vec<Vec<Vec<f64>>> = vec![
            vec![
                vec![4.0, 1.0, 3.0],
                vec![2.0, 0.0, 5.0],
                vec![3.0, 2.0, 2.0],
            ],
            vec![vec![5.0, 1.0], vec![4.0, 7.0], vec![0.5, 9.0]],
            vec![vec![inf, inf], vec![1.0, inf]],
            vec![vec![1.0]],
            vec![vec![inf; 4]; 2],
        ];
        let mut scratch = HungarianScratch::new();
        for cost in &problems {
            let m = cost[0].len();
            let buf = scratch.begin(cost.len(), m);
            for (i, row) in cost.iter().enumerate() {
                buf[i * m..(i + 1) * m].copy_from_slice(row);
            }
            assert_eq!(scratch.solve(), solve(cost).as_slice());
        }
    }

    #[test]
    fn begin_prefills_forbidden() {
        // Cells never written by the caller stay forbidden.
        let mut scratch = HungarianScratch::new();
        let buf = scratch.begin(2, 2);
        buf[0] = 1.0; // row 0 ↔ col 0 only
        assert_eq!(scratch.solve(), &[Some(0), None]);
    }
}
