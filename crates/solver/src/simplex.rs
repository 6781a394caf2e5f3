//! Dense two-phase simplex LP solver on a flat row-major tableau.
//!
//! Solves `maximize c·x subject to A x {≤,=,≥} b, x ≥ 0`. Designed for the
//! small, dense programs of the paper's Section 7.2 (LP (15) has at most
//! `m·k + 1 ≤ 226` variables for `m = 15`), so a dense tableau is the
//! right tool: simple, cache-friendly, and easy to audit.
//!
//! Implementation notes:
//!
//! - Phase 1 minimizes the sum of artificial variables to find a basic
//!   feasible solution; phase 2 optimizes the real objective.
//! - Pivoting uses Dantzig's rule (most negative reduced cost) with an
//!   automatic switch to Bland's rule after a stall threshold, which
//!   guarantees termination on degenerate programs.
//! - The tableau lives in one flat `rows × (cols+1)` arena inside a
//!   reusable [`SimplexScratch`]; pivots eliminate rows through
//!   `split_at_mut` borrows of that arena, so the pivot loop performs
//!   no heap allocation. A sweep job (Figure 10 solves ~63 000 LPs)
//!   creates one scratch and calls [`LinearProgram::solve_with`] per
//!   program; storage is recycled across solves.
//! - The solver is validated against an independent max-flow formulation
//!   in [`crate::loadflow`]'s tests and against the seed implementation
//!   (kept in [`crate::reference`]) by randomized cross-checks.

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aⱼxⱼ ≤ b`
    Le,
    /// `Σ aⱼxⱼ = b`
    Eq,
    /// `Σ aⱼxⱼ ≥ b`
    Ge,
}

/// A linear program `maximize c·x s.t. A x rel b, x ≥ 0`.
///
/// ```
/// use flowsched_solver::simplex::{LinearProgram, Relation};
///
/// // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
/// let mut lp = LinearProgram::maximize(2, vec![3.0, 5.0]);
/// lp.constraint(vec![1.0, 0.0], Relation::Le, 4.0);
/// lp.constraint(vec![0.0, 2.0], Relation::Le, 12.0);
/// lp.constraint(vec![3.0, 2.0], Relation::Le, 18.0);
/// let sol = lp.solve().expect_optimal();
/// assert!((sol.objective - 36.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) n_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) relations: Vec<Relation>,
    pub(crate) rhs: Vec<f64>,
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value `c·x*`.
    pub objective: f64,
    /// Optimal point `x*` (length = number of variables).
    pub x: Vec<f64>,
}

impl LpOutcome {
    /// Unwraps the optimal solution.
    ///
    /// # Panics
    /// Panics when the program was infeasible or unbounded.
    pub fn expect_optimal(self) -> LpSolution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected an optimal LP solution, got {other:?}"),
        }
    }
}

const EPS: f64 = 1e-9;
/// After this many consecutive degenerate (zero-improvement) pivots, the
/// solver switches from Dantzig's rule to Bland's anti-cycling rule.
const STALL_LIMIT: usize = 64;
/// Hard iteration cap — generous for the tiny programs this crate targets.
const MAX_ITERS: usize = 200_000;

/// Reusable simplex working storage: the flat tableau arena, basis,
/// and reduced-cost row. One scratch serves any number of sequential
/// [`LinearProgram::solve_with`] calls; buffers grow to the largest
/// program seen and are then recycled without further allocation.
#[derive(Debug, Default)]
pub struct SimplexScratch {
    /// Flat `rows × stride` tableau, row-major; `stride = cols + 1`
    /// with the rhs in the last column of each row.
    t: Vec<f64>,
    /// Basic variable (column) of each row.
    basis: Vec<usize>,
    /// Reduced-cost row (`cols + 1` entries; last is −objective).
    z: Vec<f64>,
    /// Cost vector buffer for building reduced rows.
    cost: Vec<f64>,
    /// Pivots performed by the most recent solve (both phases; the
    /// post-phase-1 artificial eviction sweep is bookkeeping, not an
    /// optimizing pivot, and is not counted).
    pivots: u64,
}

impl SimplexScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SimplexScratch::default()
    }

    /// Pivot count of the most recent solve through this scratch — the
    /// "iterations" payload of a `SimplexSolve` observability probe.
    pub fn last_pivots(&self) -> u64 {
        self.pivots
    }

    /// Clears and sizes the arena for direct tableau assembly: `rows`
    /// constraint rows over `n_structural + n_slack + n_art` columns plus
    /// a trailing rhs column per row. Returns the zeroed flat row arena
    /// (`rows × stride`, `stride = cols + 1`) and the basis array for the
    /// caller to fill exactly as [`LinearProgram::solve_with`]'s internal
    /// builder would (slacks then artificials assigned in row order);
    /// [`solve_assembled`] then runs the two-phase simplex over it.
    ///
    /// This exists for callers like [`crate::loadflow`] that know their
    /// program's structure and can skip materializing a dense
    /// [`LinearProgram`] on the hot path.
    pub(crate) fn assemble(
        &mut self,
        rows: usize,
        n_structural: usize,
        n_slack: usize,
        n_art: usize,
    ) -> (&mut [f64], &mut [usize]) {
        let stride = n_structural + n_slack + n_art + 1;
        self.t.clear();
        self.t.resize(rows * stride, 0.0);
        self.basis.clear();
        self.basis.resize(rows, usize::MAX);
        (&mut self.t, &mut self.basis)
    }
}

/// Solves a tableau assembled directly into `scratch` via
/// [`SimplexScratch::assemble`] (same dimensions, rhs non-negative,
/// basis filled). Behaviourally identical to building the equivalent
/// [`LinearProgram`] and calling [`LinearProgram::solve_with`]: given
/// the same tableau contents, the pivot sequence — and therefore the
/// outcome — is the same, which the cross-checks in
/// `tests/kernel_equivalence.rs` pin down.
pub(crate) fn solve_assembled(
    scratch: &mut SimplexScratch,
    rows: usize,
    n_structural: usize,
    n_slack: usize,
    n_art: usize,
    objective: &[f64],
) -> LpOutcome {
    let cols = n_structural + n_slack + n_art;
    debug_assert_eq!(scratch.t.len(), rows * (cols + 1));
    debug_assert_eq!(scratch.basis.len(), rows);
    let mut tab = Tableau {
        t: &mut scratch.t,
        basis: &mut scratch.basis,
        z: &mut scratch.z,
        cost: &mut scratch.cost,
        pivots: &mut scratch.pivots,
        rows,
        stride: cols + 1,
        n_structural,
        artificial_start: n_structural + n_slack,
        cols,
    };
    tab.solve(objective)
}

impl LinearProgram {
    /// Creates a program over `n_vars` non-negative variables maximizing
    /// `objective · x`.
    ///
    /// # Panics
    /// Panics if the objective length differs from `n_vars`.
    pub fn maximize(n_vars: usize, objective: Vec<f64>) -> Self {
        assert_eq!(
            objective.len(),
            n_vars,
            "objective length must match variable count"
        );
        LinearProgram {
            n_vars,
            objective,
            rows: Vec::new(),
            relations: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Creates a minimization program (internally negated).
    pub fn minimize(n_vars: usize, objective: Vec<f64>) -> Self {
        let negated = objective.into_iter().map(|c| -c).collect();
        LinearProgram::maximize(n_vars, negated)
    }

    /// Adds the constraint `coeffs · x rel rhs`.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != n_vars` or `rhs` is not finite.
    pub fn constraint(&mut self, coeffs: Vec<f64>, rel: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.n_vars,
            "constraint width must match variable count"
        );
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.rows.push(coeffs);
        self.relations.push(rel);
        self.rhs.push(rhs);
        self
    }

    /// Adds a sparse constraint given `(var, coeff)` terms.
    pub fn constraint_sparse(
        &mut self,
        terms: &[(usize, f64)],
        rel: Relation,
        rhs: f64,
    ) -> &mut Self {
        let mut coeffs = vec![0.0; self.n_vars];
        for &(v, c) in terms {
            assert!(v < self.n_vars, "variable index out of range");
            coeffs[v] += c;
        }
        self.constraint(coeffs, rel, rhs)
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Solves the program with one-shot scratch storage. Sweeps that
    /// solve many programs should hold a [`SimplexScratch`] and call
    /// [`solve_with`](Self::solve_with) instead.
    pub fn solve(&self) -> LpOutcome {
        self.solve_with(&mut SimplexScratch::new())
    }

    /// Solves the program using (and recycling) the caller's scratch
    /// storage. Behaviourally identical to [`solve`](Self::solve).
    pub fn solve_with(&self, scratch: &mut SimplexScratch) -> LpOutcome {
        let mut tab = Tableau::build(self, scratch);
        tab.solve(&self.objective)
    }

    /// The normalized (non-negative rhs) sense of constraint `i`:
    /// negating a row flips Le↔Ge and keeps Eq.
    fn normalized_relation(&self, i: usize) -> Relation {
        if self.rhs[i] < 0.0 {
            match self.relations[i] {
                Relation::Le => Relation::Ge,
                Relation::Eq => Relation::Eq,
                Relation::Ge => Relation::Le,
            }
        } else {
            self.relations[i]
        }
    }
}

/// Dense simplex tableau in canonical form over borrowed scratch
/// storage: basic columns form an identity, `rhs ≥ 0` throughout.
struct Tableau<'s> {
    /// Flat `rows × stride`; the last entry of each row is the rhs.
    t: &'s mut Vec<f64>,
    /// Basic variable (column) of each row.
    basis: &'s mut Vec<usize>,
    z: &'s mut Vec<f64>,
    cost: &'s mut Vec<f64>,
    /// Running pivot count, persisted in the scratch after the solve.
    pivots: &'s mut u64,
    rows: usize,
    stride: usize,
    n_structural: usize,
    /// Columns `artificial_start..cols` are artificials.
    artificial_start: usize,
    cols: usize,
}

impl<'s> Tableau<'s> {
    fn build(lp: &LinearProgram, scratch: &'s mut SimplexScratch) -> Self {
        let m = lp.rows.len();
        let n = lp.n_vars;
        // One slack/surplus per inequality, one artificial per Ge/Eq —
        // counted over the *normalized* senses (negative-rhs rows flip).
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for i in 0..m {
            match lp.normalized_relation(i) {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => n_art += 1,
            }
        }
        let cols = n + n_slack + n_art;
        let stride = cols + 1;
        let artificial_start = n + n_slack;

        // Recycle the scratch buffers: clear + resize reuses capacity
        // after the first (largest) program has been seen.
        scratch.t.clear();
        scratch.t.resize(m * stride, 0.0);
        scratch.basis.clear();
        scratch.basis.resize(m, usize::MAX);

        let mut next_slack = n;
        let mut next_art = artificial_start;
        for i in 0..m {
            let row = &mut scratch.t[i * stride..(i + 1) * stride];
            let flip = lp.rhs[i] < 0.0;
            if flip {
                for (dst, &a) in row[..n].iter_mut().zip(&lp.rows[i]) {
                    *dst = -a;
                }
                row[cols] = -lp.rhs[i];
            } else {
                row[..n].copy_from_slice(&lp.rows[i]);
                row[cols] = lp.rhs[i];
            }
            match lp.normalized_relation(i) {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    scratch.basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    scratch.basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    row[next_art] = 1.0;
                    scratch.basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
        Tableau {
            t: &mut scratch.t,
            basis: &mut scratch.basis,
            z: &mut scratch.z,
            cost: &mut scratch.cost,
            pivots: &mut scratch.pivots,
            rows: m,
            stride,
            n_structural: n,
            artificial_start,
            cols,
        }
    }

    /// Runs both phases; `objective` is the structural maximization
    /// objective.
    fn solve(&mut self, objective: &[f64]) -> LpOutcome {
        *self.pivots = 0;
        // ---- Phase 1: minimize the sum of artificials. ----
        if self.artificial_start < self.cols {
            // Max form: maximize -(sum of artificials). Reduced-cost row:
            // start from cost and eliminate basic columns.
            self.cost.clear();
            self.cost.resize(self.cols, 0.0);
            for c in self.cost.iter_mut().skip(self.artificial_start) {
                *c = -1.0;
            }
            self.reduced_row();
            match self.optimize(self.cols) {
                PivotResult::Optimal => {}
                PivotResult::Unbounded => {
                    unreachable!("phase-1 objective is bounded above by 0")
                }
            }
            // z[cols] = −(phase-1 objective) = +(minimal artificial sum).
            let artificial_sum = self.z[self.cols];
            if artificial_sum > 1e-7 {
                return LpOutcome::Infeasible;
            }
            self.evict_artificials();
        }

        // ---- Phase 2: maximize the real objective. ----
        // Structural objective with zero cost on auxiliaries; artificial
        // columns are barred from entering below (any basic artificial
        // sits at value 0 after a successful phase 1).
        self.cost.clear();
        self.cost.resize(self.cols, 0.0);
        self.cost[..self.n_structural].copy_from_slice(objective);
        self.reduced_row();
        match self.optimize(self.artificial_start) {
            PivotResult::Optimal => {}
            PivotResult::Unbounded => return LpOutcome::Unbounded,
        }

        let mut x = vec![0.0; self.n_structural];
        for (row, &b) in self.basis.iter().enumerate() {
            if b < self.n_structural {
                x[b] = self.t[row * self.stride + self.cols];
            }
        }
        let objective_value: f64 = x.iter().zip(objective).map(|(xi, ci)| xi * ci).sum();
        LpOutcome::Optimal(LpSolution {
            objective: objective_value,
            x,
        })
    }

    /// Computes the reduced-cost row `z` from the scratch cost vector:
    /// `z[j] = c[j] − Σᵢ c[basis[i]]·T[i][j]`, with `z[cols]` holding
    /// `−(objective value of the current basis)` so pivots update it
    /// uniformly with the rest of the row.
    fn reduced_row(&mut self) {
        self.z.clear();
        self.z.resize(self.stride, 0.0);
        self.z[..self.cols].copy_from_slice(self.cost);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb != 0.0 {
                let row = &self.t[i * self.stride..(i + 1) * self.stride];
                for (zj, tij) in self.z.iter_mut().zip(row) {
                    *zj -= cb * tij;
                }
            }
        }
    }

    /// Pivots until optimal or unbounded, maintaining the reduced row
    /// `z`. Only columns `< max_enter_col` may enter the basis.
    fn optimize(&mut self, max_enter_col: usize) -> PivotResult {
        let mut stall = 0usize;
        for _ in 0..MAX_ITERS {
            let entering = if stall > STALL_LIMIT {
                // Bland: smallest-index improving column.
                self.z[..max_enter_col].iter().position(|&zj| zj > EPS)
            } else {
                // Dantzig: most improving column.
                let mut best = None;
                let mut best_val = EPS;
                for (j, &zj) in self.z[..max_enter_col].iter().enumerate() {
                    if zj > best_val {
                        best_val = zj;
                        best = Some(j);
                    }
                }
                best
            };
            let Some(e) = entering else {
                return PivotResult::Optimal;
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.rows {
                let a = self.t[i * self.stride + e];
                if a > EPS {
                    let ratio = self.t[i * self.stride + self.cols] / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(l) = leave else {
                return PivotResult::Unbounded;
            };
            if best_ratio < EPS {
                stall += 1;
            } else {
                stall = 0;
            }
            self.pivot(l, e, max_enter_col);
        }
        panic!("simplex exceeded {MAX_ITERS} iterations — numerical trouble");
    }

    /// Performs the pivot: row `l` leaves, column `e` enters. The flat
    /// arena is split around the pivot row (`split_at_mut`), so every
    /// other row is eliminated against a live borrow of the pivot row —
    /// no clone, no allocation.
    ///
    /// Two exact work reductions on top of the textbook elimination,
    /// neither of which changes any tableau value that is ever read
    /// again (so pivot choices — and results — are untouched):
    ///
    /// - elimination is clipped to the nonzero span of the pivot row
    ///   (outside it `p == 0`, so `v -= factor·p` is a no-op);
    /// - columns `≥ active_cols` other than the rhs are left stale.
    ///   Phase 2 passes `active_cols = artificial_start`: artificial
    ///   columns are barred from entering and the solution is extracted
    ///   from `basis` + rhs alone, so they are dead after phase 1.
    fn pivot(&mut self, l: usize, e: usize, active_cols: usize) {
        *self.pivots += 1;
        let stride = self.stride;
        let piv = self.t[l * stride + e];
        debug_assert!(piv > EPS);
        debug_assert!(e < active_cols);
        let inv = 1.0 / piv;
        for v in &mut self.t[l * stride..(l + 1) * stride] {
            *v *= inv;
        }
        let (head, rest) = self.t.split_at_mut(l * stride);
        let (pivot_row, tail) = rest.split_at_mut(stride);
        // Nonzero span of the active part of the pivot row.
        let mut lo = 0usize;
        while lo < active_cols && pivot_row[lo] == 0.0 {
            lo += 1;
        }
        let mut hi = active_cols;
        while hi > lo && pivot_row[hi - 1] == 0.0 {
            hi -= 1;
        }
        let piv_span = &pivot_row[lo..hi];
        let piv_rhs = pivot_row[self.cols];
        for row in head
            .chunks_exact_mut(stride)
            .chain(tail.chunks_exact_mut(stride))
        {
            let factor = row[e];
            if factor != 0.0 {
                for (v, p) in row[lo..hi].iter_mut().zip(piv_span) {
                    *v -= factor * p;
                }
                row[self.cols] -= factor * piv_rhs;
                row[e] = 0.0; // exact zero for numerical hygiene
            }
        }
        let factor = self.z[e];
        if factor != 0.0 {
            for (v, p) in self.z[lo..hi].iter_mut().zip(piv_span) {
                *v -= factor * p;
            }
            self.z[self.cols] -= factor * piv_rhs;
            self.z[e] = 0.0;
        }
        self.basis[l] = e;
    }

    /// After phase 1, pivots basic artificial variables (at value 0) out
    /// of the basis where possible; rows that are entirely zero over
    /// non-artificial columns are redundant and harmless to keep.
    fn evict_artificials(&mut self) {
        let stride = self.stride;
        for row in 0..self.rows {
            if self.basis[row] >= self.artificial_start {
                let target =
                    (0..self.artificial_start).find(|&j| self.t[row * stride + j].abs() > 1e-7);
                if let Some(j) = target {
                    // The basic artificial has value 0 (phase 1 succeeded),
                    // so this degenerate pivot keeps feasibility. Pivot
                    // element may be negative; that is fine for a zero row.
                    let piv = self.t[row * stride + j];
                    let inv = 1.0 / piv;
                    for v in &mut self.t[row * stride..(row + 1) * stride] {
                        *v *= inv;
                    }
                    let (head, rest) = self.t.split_at_mut(row * stride);
                    let (pivot_row, tail) = rest.split_at_mut(stride);
                    for r in head
                        .chunks_exact_mut(stride)
                        .chain(tail.chunks_exact_mut(stride))
                    {
                        let f = r[j];
                        if f != 0.0 {
                            for (v, p) in r.iter_mut().zip(&*pivot_row) {
                                *v -= f * p;
                            }
                            r[j] = 0.0;
                        }
                    }
                    self.basis[row] = j;
                }
            }
        }
    }
}

enum PivotResult {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_two_variable_max() {
        // max 3x + 5y, x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut lp = LinearProgram::maximize(2, vec![3.0, 5.0]);
        lp.constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x ≤ 3 → z = 5.
        let mut lp = LinearProgram::maximize(2, vec![1.0, 1.0]);
        lp.constraint(vec![1.0, 1.0], Relation::Eq, 5.0);
        lp.constraint(vec![1.0, 0.0], Relation::Le, 3.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 5.0);
        assert_close(sol.x[0] + sol.x[1], 5.0);
    }

    #[test]
    fn ge_constraints_and_minimization() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1 → (4,0) cost 8? x=4,y=0: 8;
        // x=1,y=3: 11. Optimum 8 at (4, 0).
        let mut lp = LinearProgram::minimize(2, vec![2.0, 3.0]);
        lp.constraint(vec![1.0, 1.0], Relation::Ge, 4.0);
        lp.constraint(vec![1.0, 0.0], Relation::Ge, 1.0);
        let sol = lp.solve().expect_optimal();
        // maximize form returns the negated objective.
        assert_close(sol.objective, -8.0);
        assert_close(sol.x[0], 4.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2.
        let mut lp = LinearProgram::maximize(1, vec![1.0]);
        lp.constraint(vec![1.0], Relation::Le, 1.0);
        lp.constraint(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x ≥ 0 (no upper bound).
        let mut lp = LinearProgram::maximize(2, vec![1.0, 0.0]);
        lp.constraint(vec![0.0, 1.0], Relation::Le, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // max x s.t. −x ≤ −2 (i.e. x ≥ 2), x ≤ 5 → 5.
        let mut lp = LinearProgram::maximize(1, vec![1.0]);
        lp.constraint(vec![-1.0], Relation::Le, -2.0);
        lp.constraint(vec![1.0], Relation::Le, 5.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A classic degenerate LP (multiple constraints active at the
        // optimum with zero rhs).
        let mut lp = LinearProgram::maximize(3, vec![0.75, -150.0, 0.02]);
        lp.constraint(vec![0.25, -60.0, -0.04], Relation::Le, 0.0);
        lp.constraint(vec![0.5, -90.0, -0.02], Relation::Le, 0.0);
        lp.constraint(vec![0.0, 0.0, 1.0], Relation::Le, 1.0);
        let out = lp.solve();
        // Beale's cycling example (scaled): optimum 0.05 at x = (0.04/0.8...).
        match out {
            LpOutcome::Optimal(s) => assert!(s.objective > 0.0),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn sparse_constraint_builder() {
        let mut lp = LinearProgram::maximize(3, vec![1.0, 1.0, 1.0]);
        lp.constraint_sparse(&[(0, 1.0), (2, 1.0)], Relation::Le, 2.0);
        lp.constraint_sparse(&[(1, 1.0)], Relation::Le, 3.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 stated twice (redundant rows leave a basic artificial
        // in a zero row after phase 1).
        let mut lp = LinearProgram::maximize(2, vec![1.0, 0.0]);
        lp.constraint(vec![1.0, 1.0], Relation::Eq, 2.0);
        lp.constraint(vec![1.0, 1.0], Relation::Eq, 2.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn transportation_toy() {
        // Two origins (supply 1, 2), two destinations (demand ≤ 2, ≤ 2),
        // maximize shipped amount. Variables x00,x01,x10,x11.
        let mut lp = LinearProgram::maximize(4, vec![1.0; 4]);
        lp.constraint(vec![1.0, 1.0, 0.0, 0.0], Relation::Le, 1.0);
        lp.constraint(vec![0.0, 0.0, 1.0, 1.0], Relation::Le, 2.0);
        lp.constraint(vec![1.0, 0.0, 1.0, 0.0], Relation::Le, 2.0);
        lp.constraint(vec![0.0, 1.0, 0.0, 1.0], Relation::Le, 2.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn solution_satisfies_constraints() {
        let mut lp = LinearProgram::maximize(3, vec![2.0, 1.0, 3.0]);
        lp.constraint(vec![1.0, 1.0, 1.0], Relation::Le, 10.0);
        lp.constraint(vec![1.0, 0.0, 2.0], Relation::Le, 8.0);
        lp.constraint(vec![0.0, 1.0, 0.0], Relation::Ge, 1.0);
        let sol = lp.solve().expect_optimal();
        let x = &sol.x;
        assert!(x.iter().all(|&v| v >= -1e-9));
        assert!(x[0] + x[1] + x[2] <= 10.0 + 1e-7);
        assert!(x[0] + 2.0 * x[2] <= 8.0 + 1e-7);
        assert!(x[1] >= 1.0 - 1e-7);
    }

    #[test]
    fn scratch_is_reusable_across_programs_of_different_shapes() {
        let mut scratch = SimplexScratch::new();

        // Big program first, then smaller ones: buffers shrink logically
        // (resize) without reallocating, and results stay exact.
        let mut big = LinearProgram::maximize(4, vec![1.0; 4]);
        big.constraint(vec![1.0, 1.0, 0.0, 0.0], Relation::Le, 1.0);
        big.constraint(vec![0.0, 0.0, 1.0, 1.0], Relation::Le, 2.0);
        big.constraint(vec![1.0, 0.0, 1.0, 0.0], Relation::Le, 2.0);
        big.constraint(vec![0.0, 1.0, 0.0, 1.0], Relation::Le, 2.0);
        assert_close(big.solve_with(&mut scratch).expect_optimal().objective, 3.0);

        let mut small = LinearProgram::maximize(2, vec![3.0, 5.0]);
        small.constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        small.constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        small.constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        assert_close(
            small.solve_with(&mut scratch).expect_optimal().objective,
            36.0,
        );

        let mut infeasible = LinearProgram::maximize(1, vec![1.0]);
        infeasible.constraint(vec![1.0], Relation::Le, 1.0);
        infeasible.constraint(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(infeasible.solve_with(&mut scratch), LpOutcome::Infeasible);

        // And again after an infeasible solve: state fully recycles.
        assert_close(
            small.solve_with(&mut scratch).expect_optimal().objective,
            36.0,
        );
    }

    #[test]
    fn repeated_solves_with_shared_scratch_match_fresh_solves() {
        let mut scratch = SimplexScratch::new();
        for seed in 0..40u64 {
            // Small pseudo-random LPs from a hand-rolled LCG (keep this
            // test dependency-free).
            let mut state = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64 % 9 - 4) as f64
            };
            let n = 2 + (seed as usize % 3);
            let mut lp = LinearProgram::maximize(n, (0..n).map(|_| next().abs() + 0.5).collect());
            for _ in 0..(1 + seed as usize % 4) {
                let coeffs: Vec<f64> = (0..n).map(|_| next()).collect();
                lp.constraint(coeffs, Relation::Le, next().abs() + 1.0);
            }
            assert_eq!(lp.solve(), lp.solve_with(&mut scratch));
        }
    }

    #[test]
    fn pivot_counter_resets_per_solve_and_counts_work() {
        let mut scratch = SimplexScratch::new();
        let mut lp = LinearProgram::maximize(2, vec![3.0, 5.0]);
        lp.constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let _ = lp.solve_with(&mut scratch);
        let first = scratch.last_pivots();
        assert!(first > 0, "a non-trivial solve must pivot at least once");
        // The counter resets per solve: same program → same count.
        let _ = lp.solve_with(&mut scratch);
        assert_eq!(scratch.last_pivots(), first);
        // An already-optimal origin (maximize −x ≤ …) pivots zero times.
        let mut trivial = LinearProgram::maximize(1, vec![-1.0]);
        trivial.constraint(vec![1.0], Relation::Le, 1.0);
        let _ = trivial.solve_with(&mut scratch);
        assert_eq!(scratch.last_pivots(), 0);
    }

    #[test]
    #[should_panic(expected = "objective length")]
    fn wrong_objective_len_rejected() {
        let _ = LinearProgram::maximize(2, vec![1.0]);
    }
}
