//! Sequential numeric multifrontal factorization and solve.
//!
//! This is the correctness anchor of the reproduction: it executes the
//! assembly tree produced by `mf-symbolic` with real arithmetic in the
//! paper's Section 2 layout — one factor area, reserved once, with the
//! current front assembled and factored at its free end, beside the
//! contiguous CB stack of [`crate::arena`] (sized and checked by
//! `mf_symbolic::seqstack::traversal_peak`) — through the dense kernels
//! of [`crate::dense`], and verifies, through residual tests, that the
//! whole symbolic pipeline (ordering → etree → amalgamation → fronts) is
//! consistent.

use crate::arena::CbStack;
use crate::dense::KernelError;
use crate::front::{factor_front, new_area, AreaLayout, FrontEnv, FrontFactor, FrontWorkspace};
use crate::gemm::axpy_sub;
use mf_sparse::{CscMatrix, Permutation, Symmetry};
use mf_symbolic::frontstruct::FrontStructures;
use mf_symbolic::seqstack::traversal_peak;
use mf_symbolic::{AmalgamationOptions, SymbolicAnalysis};

/// Knobs of the numeric factorization drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericOptions {
    /// Thread budget for the trailing update *inside* each front (the
    /// malleable-task axis: tree parallelism distributes fronts, this
    /// knob splits one front's GEMM across workers). The factor bytes do
    /// not depend on this value — kernel dispatch keys on the pivot
    /// count only, and the parallel trailing sweep is partition-
    /// invariant — so it is purely a performance knob. `1` (the default)
    /// keeps every front sequential.
    pub cores_per_front: usize,
}

impl Default for NumericOptions {
    fn default() -> Self {
        NumericOptions { cores_per_front: 1 }
    }
}

/// Failure of the numeric factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A dense kernel failed (tiny pivot) at the given tree node.
    Kernel {
        /// Assembly-tree node where the failure occurred.
        node: usize,
        /// Underlying kernel error.
        source: KernelError,
    },
    /// The matrix is not square.
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Kernel { node, source } => write!(f, "front {node}: {source}"),
            FactorError::NotSquare => write!(f, "matrix must be square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Memory/operation statistics of a numeric factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NumericStats {
    /// Peak of the contribution-block stack (entries).
    pub stack_peak: u64,
    /// Peak of the active memory (stack + current front), the paper's
    /// reported quantity.
    pub active_peak: u64,
    /// Factor entries of the tree (`AssemblyTree::total_factor_entries`).
    pub factor_entries: u64,
    /// Words the factor area holds: `factor_entries`, plus each LDLᵀ
    /// panel's zero strict upper `p x p` triangle.
    pub factor_words: u64,
    /// Number of fronts processed.
    pub fronts: usize,
}

/// A complete numeric factorization, ready to solve.
#[derive(Debug, Clone)]
pub struct Factorization {
    pub(crate) sym: Symmetry,
    pub(crate) n: usize,
    pub(crate) perm: Permutation,
    /// Variable list of every front (pivots first).
    pub(crate) rows: FrontStructures,
    /// Every front's place in `area`, indexed by node.
    pub(crate) fronts: Vec<FrontFactor>,
    /// The factor area: every front's words, in postorder.
    pub(crate) area: Vec<f64>,
    pub(crate) topo: Vec<usize>,
    /// Memory and size statistics gathered during the factorization.
    pub stats: NumericStats,
}

impl Factorization {
    /// Full pipeline: orders nothing (uses `ordering` as given), runs the
    /// symbolic analysis, then the numeric factorization.
    pub fn new(
        a: &CscMatrix,
        ordering: &Permutation,
        amalg: &AmalgamationOptions,
    ) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        let s = mf_symbolic::analyze(a, ordering, amalg);
        Self::from_symbolic(a, &s)
    }

    /// Numeric factorization over an existing symbolic analysis.
    pub fn from_symbolic(a: &CscMatrix, s: &SymbolicAnalysis) -> Result<Self, FactorError> {
        Self::from_symbolic_with(a, s, &NumericOptions::default())
    }

    /// [`Factorization::from_symbolic`] with explicit driver options
    /// (within-front thread budget).
    pub fn from_symbolic_with(
        a: &CscMatrix,
        s: &SymbolicAnalysis,
        opts: &NumericOptions,
    ) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        factorize_sequential(a, s, opts)
    }

    /// Order-stable FNV-1a digest of the complete numeric content:
    /// symmetry, order, permutation, and — in topological order — every
    /// front's variables, pivot count, row permutation, and the exact
    /// bit patterns of its factor panel and `U12`. Two factorizations digest
    /// equal iff they are byte-identical; the determinism suite uses
    /// this to compare runs across thread counts and SIMD levels.
    pub fn content_digest(&self) -> u64 {
        fn mix(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
        fn mix_mat(h: &mut u64, (nrows, ncols): (usize, usize), words: &[f64]) {
            mix(h, nrows as u64);
            mix(h, ncols as u64);
            for &x in words {
                mix(h, x.to_bits());
            }
        }
        let mut h = 0xcbf29ce484222325u64;
        mix(&mut h, matches!(self.sym, Symmetry::Symmetric) as u64);
        mix(&mut h, self.n as u64);
        for i in 0..self.n {
            mix(&mut h, self.perm.new_of(i) as u64);
        }
        for &v in &self.topo {
            let fr = &self.fronts[v];
            let (f, p) = (self.rows.rows[v].len(), fr.npiv);
            mix(&mut h, f as u64);
            for &gv in &self.rows.rows[v] {
                mix(&mut h, gv as u64);
            }
            mix(&mut h, fr.npiv as u64);
            for &r in &fr.row_perm {
                mix(&mut h, r as u64);
            }
            let (panel, u12) = self.factors(v);
            mix_mat(&mut h, (f, p), panel);
            let u12_shape = match self.sym {
                Symmetry::General => (p, f - p),
                Symmetry::Symmetric => (0, 0),
            };
            mix_mat(&mut h, u12_shape, u12);
        }
        h
    }

    /// Front `v`'s words in the factor area: its `f x p` panel, and
    /// `U12` (`p x (f-p)`, column-major; empty for LDLᵀ).
    fn factors(&self, v: usize) -> (&[f64], &[f64]) {
        let (f, p) = (self.rows.rows[v].len(), self.fronts[v].npiv);
        let u12 = if self.sym == Symmetry::General { p * (f - p) } else { 0 };
        let (panel, rest) = self.area[self.fronts[v].offset..].split_at(f * p);
        (panel, &rest[..u12])
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Symmetry the factorization ran with.
    pub fn symmetry(&self) -> Symmetry {
        self.sym
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        // Permute RHS to elimination order.
        let mut g = vec![0.0; self.n];
        for (i, &v) in b.iter().enumerate() {
            g[self.perm.new_of(i)] = v;
        }
        let mut y = vec![0.0; self.n];
        // Scratch reused across fronts: `t` is the pivot part of the
        // front's vector, `w` its contribution-block part. The panel is
        // column-major — rows `..p` of a column are `L11`/`U11`, rows
        // `p..` are `L21` — so every product below goes column by column.
        let (mut t, mut w): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        // Forward elimination, children before parents.
        for &v in &self.topo {
            let fr = &self.fronts[v];
            let (vars, p) = (&self.rows.rows[v], fr.npiv);
            let (first, cb) = (vars[0], &vars[p..]);
            let (f, panel) = (vars.len(), self.factors(v).0);
            let col = |k: usize| &panel[k * f..(k + 1) * f];
            t.clear();
            if fr.row_perm.is_empty() {
                t.extend_from_slice(&g[first..first + p]);
            } else {
                t.extend(fr.row_perm.iter().map(|&r| g[vars[r]]));
            }
            for k in 0..p {
                let tk = t[k];
                if tk != 0.0 {
                    axpy_sub(&mut t[k + 1..], &col(k)[k + 1..p], tk);
                }
            }
            // g_cb -= L21 t, with w = -L21 t.
            w.clear();
            w.resize(cb.len(), 0.0);
            for k in 0..p {
                axpy_sub(&mut w, &col(k)[p..], t[k]);
            }
            for (&gv, &wi) in cb.iter().zip(&w) {
                g[gv] += wi;
            }
            y[first..first + p].copy_from_slice(&t);
        }
        // Backward substitution, parents before children.
        let mut x = vec![0.0; self.n];
        for &v in self.topo.iter().rev() {
            let (vars, p) = (&self.rows.rows[v], self.fronts[v].npiv);
            let (first, cb) = (vars[0], &vars[p..]);
            let (f, (panel, u12)) = (vars.len(), self.factors(v));
            let col = |k: usize| &panel[k * f..(k + 1) * f];
            t.clear();
            t.extend_from_slice(&y[first..first + p]);
            match self.sym {
                Symmetry::General => {
                    // t -= U12 * x_cb, then solve U11 t.
                    for (j, &gv) in cb.iter().enumerate() {
                        axpy_sub(&mut t, &u12[j * p..(j + 1) * p], x[gv]);
                    }
                    for j in (0..p).rev() {
                        let col = col(j);
                        t[j] /= col[j];
                        let tj = t[j];
                        axpy_sub(&mut t[..j], &col[..j], tj);
                    }
                }
                Symmetry::Symmetric => {
                    // t = D^-1 y (D is the panel's diagonal), then
                    // Lᵀ x = t using L21 and L11.
                    w.clear();
                    w.extend(cb.iter().map(|&gv| x[gv]));
                    for k in 0..p {
                        t[k] /= panel[k * f + k];
                    }
                    for k in (0..p).rev() {
                        let (l11, l21) = col(k).split_at(p);
                        let mut s = t[k];
                        for (l, xi) in l21.iter().zip(&w) {
                            s -= l * xi;
                        }
                        for (l, tj) in l11[k + 1..].iter().zip(&t[k + 1..]) {
                            s -= l * tj;
                        }
                        t[k] = s;
                    }
                }
            }
            x[first..first + p].copy_from_slice(&t);
        }
        // Permute back to original order.
        (0..self.n).map(|i| x[self.perm.new_of(i)]).collect()
    }

    /// Solves for several right-hand sides (forward/backward sweeps are
    /// repeated per column; the factors are traversed once per RHS).
    pub fn solve_many(&self, bs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// Solves `A x = b` with iterative refinement: up to `max_iters`
    /// residual corrections, stopping once the relative residual is below
    /// `tol`. Returns the solution and the final relative residual.
    ///
    /// Refinement recovers the last digits lost to restricted pivoting
    /// and is the standard companion of direct solvers.
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        max_iters: usize,
        tol: f64,
    ) -> (Vec<f64>, f64) {
        let mut x = self.solve(b);
        let mut res = Self::residual_inf(a, &x, b);
        for _ in 0..max_iters {
            if res <= tol {
                break;
            }
            let ax = a.mul_vec(&x);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let dx = self.solve(&r);
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
            let new_res = Self::residual_inf(a, &x, b);
            if new_res >= res {
                break; // stagnation: keep the best iterate so far
            }
            res = new_res;
        }
        (x, res)
    }

    /// Max-norm of the residual `b - A x` relative to `‖b‖∞` (test helper).
    pub fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        let bnorm = b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        ax.iter().zip(b).fold(0.0f64, |m, (&axi, &bi)| m.max((bi - axi).abs())) / bnorm
    }
}

fn factorize_sequential(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
    opts: &NumericOptions,
) -> Result<Factorization, FactorError> {
    let threads = opts.cores_per_front.max(1);
    let tree = &s.tree;
    let env = FrontEnv::new(a, s);
    let topo = tree.topo_order();
    let peaks = traversal_peak(tree, &topo);
    let layout = AreaLayout::new(tree, &topo);
    let mut fronts = vec![FrontFactor::default(); tree.len()];
    // Both areas are allocated once, at the peak this traversal will
    // reach: every front pops its children's CBs and pushes its own, and
    // is assembled and factored right behind the factors stored before it.
    let mut cb_stack = CbStack::with_capacity(peaks.stack as usize);
    let mut area = new_area(layout.capacity);
    let mut ws = FrontWorkspace::new(tree.n);
    for &v in &topo {
        fronts[v] = factor_front(&env, &mut ws, &mut cb_stack, v, threads, &mut area)?;
    }

    debug_assert_eq!(cb_stack.depth(), 0, "all CBs must be consumed");
    debug_assert_eq!((area.len(), area.capacity()), (layout.len, layout.capacity));
    // The real stack is the modelled one: packed symmetric CBs hold
    // exactly `cb_entries` words.
    debug_assert_eq!(cb_stack.peak(), peaks.stack);
    let rows = env.into_structures();
    Ok(Factorization {
        sym: tree.sym,
        n: tree.n,
        perm: s.perm.clone(),
        rows,
        fronts,
        stats: NumericStats {
            stack_peak: peaks.stack,
            active_peak: peaks.active,
            factor_entries: tree.total_factor_entries(),
            factor_words: area.len() as u64,
            fronts: tree.len(),
        },
        area,
        topo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::circuit::circuit;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 1000) as f64 / 100.0 - 5.0).collect()
    }

    fn check_solve(a: &CscMatrix, p: &Permutation) -> NumericStats {
        let f = Factorization::new(a, p, &AmalgamationOptions::default()).unwrap();
        let b = rhs(a.nrows());
        let x = f.solve(&b);
        let r = Factorization::residual_inf(a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
        f.stats
    }

    #[test]
    fn solves_spd_grid_identity_ordering() {
        let a = grid2d(9, 8, Stencil::Star);
        check_solve(&a, &Permutation::identity(72));
    }

    #[test]
    fn solves_spd_grid_reversed_ordering() {
        let a = grid2d(8, 8, Stencil::Box);
        let n = a.nrows();
        let p = Permutation::from_new_order((0..n).map(|i| n - 1 - i).collect()).unwrap();
        check_solve(&a, &p);
    }

    #[test]
    fn solves_unsymmetric_grid() {
        let a = grid3d(4, 4, 4, Stencil::Star, Symmetry::General, 3);
        check_solve(&a, &Permutation::identity(64));
    }

    #[test]
    fn solves_unsymmetric_circuit() {
        let a = circuit(150, 3, 2, 0.1, 17);
        check_solve(&a, &Permutation::identity(150));
    }

    #[test]
    fn matches_dense_oracle_on_small_matrix() {
        let a = grid2d(4, 3, Stencil::Box);
        let n = a.nrows();
        let mut dm = crate::dense::DenseMat::zeros(n, n);
        for j in 0..n {
            for (&i, &v) in a.rows_in_col(j).iter().zip(a.vals_in_col(j)) {
                *dm.get_mut(i, j) = v;
            }
        }
        let b = rhs(n);
        let xo = crate::dense::dense_solve(&dm, &b).unwrap();
        let f = Factorization::new(&a, &Permutation::identity(n), &AmalgamationOptions::none())
            .unwrap();
        let x = f.solve(&b);
        for i in 0..n {
            assert!((x[i] - xo[i]).abs() < 1e-9, "x[{i}]: {} vs {}", x[i], xo[i]);
        }
    }

    #[test]
    fn stack_peak_matches_symbolic_model() {
        // The numeric run's accounting must equal the symbolic sequential
        // analysis under the same (FrontThenFree) discipline and the same
        // child order.
        let a = grid2d(10, 10, Stencil::Star);
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(100), &AmalgamationOptions::default());
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        let model = mf_symbolic::seqstack::sequential_peak(
            &s.tree,
            mf_symbolic::seqstack::AssemblyDiscipline::FrontThenFree,
        );
        assert_eq!(f.stats.active_peak, model);
    }

    /// Both symmetries, a few hundred fronts each.
    fn instances() -> [CscMatrix; 2] {
        [grid2d(7, 9, Stencil::Box), grid3d(5, 4, 4, Stencil::Star, Symmetry::General, 5)]
    }

    fn both_drivers(a: &CscMatrix, s: &SymbolicAnalysis) -> [Factorization; 2] {
        let seq = Factorization::from_symbolic(a, s).unwrap();
        [seq, crate::parallel::factorize_parallel(a, s).unwrap()]
    }

    #[test]
    fn factor_entries_match_symbolic_total() {
        // The area holds `f·p + p(f−p)` words a front for LU, the tree's
        // factor entries; LDLᵀ keeps each panel's zero strict upper
        // `p x p` triangle beside them.
        for a in instances() {
            let n = a.nrows();
            let s =
                mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::none());
            let tree = &s.tree;
            let (mut lu, mut upper) = (0, 0);
            for nd in &tree.nodes {
                let (f, p) = (nd.nfront as u64, nd.npiv as u64);
                (lu, upper) = (lu + f * p + p * (f - p), upper + p * (p - 1) / 2);
            }
            let want = match tree.sym {
                Symmetry::General => lu,
                Symmetry::Symmetric => tree.total_factor_entries() + upper,
            };
            assert!(upper > 0, "the instance must have fronts of two pivots or more");
            for f in both_drivers(&a, &s) {
                assert_eq!(f.stats.factor_entries, tree.total_factor_entries());
                assert_eq!(f.stats.factor_words, want, "{:?}", tree.sym);
                assert_eq!(f.area.len() as u64, want, "{:?}", tree.sym);
            }
        }
    }

    #[test]
    fn fronts_tile_the_area_in_postorder_within_its_reservation() {
        let mut beyond = 0;
        for a in instances() {
            // Under AMD some front's `f²` reaches past the words kept.
            let perm = mf_order::OrderingKind::Amd.compute(&a);
            let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::none());
            let [seq, par] = both_drivers(&a, &s);
            // Each front starts where the one before it in postorder ends,
            // and the sequential driver's reservation is the most any
            // front needs: the words before it plus its `f²`.
            let (mut end, mut reserved) = (0, 0);
            for &v in &seq.topo {
                let f = s.tree.nodes[v].nfront;
                assert_eq!(seq.fronts[v].offset, end, "front {v}: a gap or an overlap");
                assert_eq!(par.fronts[v].offset, end, "front {v} in the parallel area");
                reserved = usize::max(reserved, end + f * f);
                let (panel, u12) = seq.factors(v);
                end += panel.len() + u12.len();
            }
            assert_eq!((seq.area.len(), par.area.len()), (end, end));
            // Reserved once and never grown: a reallocation would have
            // changed the capacity.
            assert_eq!(seq.area.capacity(), reserved, "{:?}", s.tree.sym);
            beyond += reserved - end;
        }
        assert!(beyond > 0, "no instance reserves more than it keeps: a grown area would pass");
    }

    #[test]
    fn refinement_improves_or_keeps_the_residual() {
        let a = grid2d(12, 12, Stencil::Box);
        let f =
            Factorization::new(&a, &Permutation::identity(144), &AmalgamationOptions::default())
                .unwrap();
        let b = rhs(144);
        let x0 = f.solve(&b);
        let r0 = Factorization::residual_inf(&a, &x0, &b);
        let (x1, r1) = f.solve_refined(&a, &b, 3, 1e-16);
        assert!(r1 <= r0, "refinement made it worse: {r1:e} > {r0:e}");
        assert_eq!(x1.len(), 144);
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let a = grid2d(6, 7, Stencil::Star);
        let f = Factorization::new(&a, &Permutation::identity(42), &AmalgamationOptions::none())
            .unwrap();
        let bs: Vec<Vec<f64>> = (0..3).map(|k| (0..42).map(|i| (i * k) as f64).collect()).collect();
        let many = f.solve_many(&bs);
        for (b, x) in bs.iter().zip(&many) {
            assert_eq!(x, &f.solve(b));
        }
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = mf_sparse::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        let a = coo.to_csc();
        assert!(matches!(
            Factorization::new(&a, &Permutation::identity(3), &AmalgamationOptions::none()),
            Err(FactorError::NotSquare)
        ));
    }

    #[test]
    fn singular_matrix_reports_tiny_pivot() {
        // Rank-1 dense 2x2: the second pivot vanishes whatever the order.
        let mut coo = mf_sparse::CooMatrix::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let r = Factorization::new(&a, &Permutation::identity(2), &AmalgamationOptions::none());
        assert!(matches!(r, Err(FactorError::Kernel { .. })), "{r:?}");
    }

    #[test]
    fn solve_after_split_tree_still_correct() {
        // Chain splitting must not change the numerics.
        let a = grid2d(8, 8, Stencil::Box);
        let mut s =
            mf_symbolic::analyze(&a, &Permutation::identity(64), &AmalgamationOptions::default());
        mf_symbolic::split::split_large_masters(&mut s.tree, 200);
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        let b = rhs(64);
        let x = f.solve(&b);
        let r = Factorization::residual_inf(&a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
    }
}
