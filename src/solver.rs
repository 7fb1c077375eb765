//! High-level one-stop solver API.
//!
//! The crates underneath expose every phase separately (ordering,
//! analysis, factorization, scheduling simulation); this module wires the
//! common path into a builder so downstream users get a direct solver in
//! three lines:
//!
//! ```
//! use multifrontal::solver::Solver;
//! use multifrontal::prelude::*;
//!
//! let a = multifrontal::sparse::gen::grid::grid2d(20, 20, Stencil::Star);
//! let solver = Solver::builder().ordering(OrderingKind::Amd).build(&a).unwrap();
//! let b = vec![1.0; a.nrows()];
//! let x = solver.solve(&b);
//! assert!(Solver::residual(&a, &x, &b) < 1e-10);
//! ```

use mf_frontal::numeric::{FactorError, Factorization, NumericOptions, NumericStats};
use mf_frontal::parallel::factorize_parallel_with;
use mf_order::OrderingKind;
use mf_sparse::{CscMatrix, Permutation};
use mf_symbolic::{AmalgamationOptions, SymbolicAnalysis};

/// Builder for [`Solver`].
#[derive(Debug, Clone)]
pub struct SolverBuilder {
    ordering: OrderingKind,
    amalgamation: AmalgamationOptions,
    parallel: bool,
    cores_per_front: usize,
    refine_steps: usize,
    refine_tol: f64,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder {
            ordering: OrderingKind::Amd,
            amalgamation: AmalgamationOptions::default(),
            parallel: false,
            cores_per_front: 1,
            refine_steps: 0,
            refine_tol: 1e-12,
        }
    }
}

impl SolverBuilder {
    /// Fill-reducing ordering (default: AMD).
    pub fn ordering(mut self, kind: OrderingKind) -> Self {
        self.ordering = kind;
        self
    }

    /// Supernode amalgamation tuning.
    pub fn amalgamation(mut self, opts: AmalgamationOptions) -> Self {
        self.amalgamation = opts;
        self
    }

    /// Use the rayon tree-parallel numeric engine.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Thread budget for the trailing update inside each front (works
    /// with both engines; the factor bytes do not depend on it). `1`
    /// (the default) keeps every front sequential.
    pub fn cores_per_front(mut self, n: usize) -> Self {
        self.cores_per_front = n.max(1);
        self
    }

    /// Apply up to `steps` iterative-refinement corrections per solve,
    /// stopping at relative residual `tol`.
    pub fn refinement(mut self, steps: usize, tol: f64) -> Self {
        self.refine_steps = steps;
        self.refine_tol = tol;
        self
    }

    /// Runs ordering, symbolic analysis and numeric factorization.
    pub fn build(self, a: &CscMatrix) -> Result<Solver, FactorError> {
        let perm = self.ordering.compute(a);
        let analysis = mf_symbolic::analyze(a, &perm, &self.amalgamation);
        let opts = NumericOptions { cores_per_front: self.cores_per_front };
        let factorization = if self.parallel {
            factorize_parallel_with(a, &analysis, &opts)?
        } else {
            Factorization::from_symbolic_with(a, &analysis, &opts)?
        };
        Ok(Solver {
            matrix: a.clone(),
            analysis,
            factorization,
            ordering: self.ordering,
            refine_steps: self.refine_steps,
            refine_tol: self.refine_tol,
        })
    }
}

/// A factorized sparse system, ready to solve any number of right-hand
/// sides.
#[derive(Debug, Clone)]
pub struct Solver {
    matrix: CscMatrix,
    analysis: SymbolicAnalysis,
    factorization: Factorization,
    ordering: OrderingKind,
    refine_steps: usize,
    refine_tol: f64,
}

impl Solver {
    /// Starts a builder with defaults (AMD, sequential, no refinement).
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// Solves `A x = b` (with refinement if configured at build time).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        if self.refine_steps == 0 {
            self.factorization.solve(b)
        } else {
            self.factorization.solve_refined(&self.matrix, b, self.refine_steps, self.refine_tol).0
        }
    }

    /// Solves for several right-hand sides.
    pub fn solve_many(&self, bs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// Relative max-norm residual helper.
    pub fn residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        Factorization::residual_inf(a, x, b)
    }

    /// Memory/operation statistics of the factorization.
    pub fn stats(&self) -> NumericStats {
        self.factorization.stats
    }

    /// The symbolic analysis (assembly tree and total permutation).
    pub fn analysis(&self) -> &SymbolicAnalysis {
        &self.analysis
    }

    /// The total fill-reducing permutation in effect.
    pub fn permutation(&self) -> &Permutation {
        &self.analysis.perm
    }

    /// The ordering the solver was built with.
    pub fn ordering(&self) -> OrderingKind {
        self.ordering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, Stencil};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 13) as f64 - 6.0).collect()
    }

    #[test]
    fn builder_defaults_solve() {
        let a = grid2d(11, 13, Stencil::Star);
        let s = Solver::builder().build(&a).unwrap();
        let b = rhs(a.nrows());
        let x = s.solve(&b);
        assert!(Solver::residual(&a, &x, &b) < 1e-10);
        assert_eq!(s.ordering(), OrderingKind::Amd);
    }

    #[test]
    fn parallel_and_refined_agree_with_plain() {
        let a = grid2d(14, 9, Stencil::Box);
        let b = rhs(a.nrows());
        let plain = Solver::builder().ordering(OrderingKind::Metis).build(&a).unwrap();
        let fancy = Solver::builder()
            .ordering(OrderingKind::Metis)
            .parallel(true)
            .refinement(2, 1e-14)
            .build(&a)
            .unwrap();
        let (x0, x1) = (plain.solve(&b), fancy.solve(&b));
        let d = x0.iter().zip(&x1).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        assert!(d < 1e-9, "diverged by {d:e}");
    }

    #[test]
    fn solve_many_round_trips() {
        let a = grid2d(8, 8, Stencil::Star);
        let s = Solver::builder().build(&a).unwrap();
        let bs: Vec<Vec<f64>> = (1..4).map(|k| (0..64).map(|i| (i * k) as f64).collect()).collect();
        for (b, x) in bs.iter().zip(s.solve_many(&bs)) {
            assert!(Solver::residual(&a, &x, b) < 1e-10);
        }
    }

    #[test]
    fn cores_per_front_is_bit_invariant() {
        // The malleable-tasks knob is a pure performance setting: the
        // factorization content must not depend on it.
        let a = grid2d(18, 17, Stencil::Box);
        let s1 = Solver::builder().cores_per_front(1).build(&a).unwrap();
        let s8 = Solver::builder().cores_per_front(8).build(&a).unwrap();
        assert_eq!(
            s1.factorization.content_digest(),
            s8.factorization.content_digest(),
            "cores_per_front changed the factor bytes"
        );
    }

    #[test]
    fn stats_are_populated() {
        let a = grid2d(10, 10, Stencil::Star);
        let s = Solver::builder().build(&a).unwrap();
        assert!(s.stats().factor_entries > 0);
        assert!(s.stats().fronts > 0);
        assert_eq!(s.permutation().len(), 100);
        assert!(s.analysis().tree.validate().is_ok());
    }
}
