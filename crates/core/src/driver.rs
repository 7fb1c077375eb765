//! One-call experiment runner.
//!
//! Composes the whole pipeline the paper's experiments need: ordering →
//! symbolic analysis → Liu child ordering → optional static splitting →
//! static mapping → simulated parallel factorization.

use crate::config::SolverConfig;
use crate::error::SimError;
use crate::mapping::compute_mapping;
use crate::parsim;
pub use crate::parsim::RunResult;
use mf_order::OrderingKind;
use mf_sparse::CscMatrix;
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};

/// What to factorize: a matrix and the reordering applied to it.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInput<'a> {
    /// The matrix.
    pub matrix: &'a CscMatrix,
    /// One of the paper's four reorderings.
    pub ordering: OrderingKind,
}

/// Builds the assembly tree for an experiment, its large type-2 masters
/// split at `split` master-part entries (Section 6) when given.
pub fn prepare_tree(input: &ExperimentInput<'_>, split: Option<u64>) -> AssemblyTree {
    let perm = input.ordering.compute(input.matrix);
    let mut s = mf_symbolic::analyze(input.matrix, &perm, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    if let Some(threshold) = split {
        mf_symbolic::split::split_large_masters(&mut s.tree, threshold);
    }
    s.tree
}

/// Runs one experiment cell: matrix × ordering × configuration, on the
/// unsplit tree.
pub fn run_experiment(
    input: &ExperimentInput<'_>,
    cfg: &SolverConfig,
) -> Result<RunResult, SimError> {
    let tree = prepare_tree(input, None);
    run_on_tree(&tree, cfg)
}

/// Runs the simulated factorization on an already prepared tree. A run
/// that cannot complete (deadlock, runaway, accounting bug) returns a
/// typed [`SimError`] with per-processor diagnostics instead of
/// panicking.
pub fn run_on_tree(tree: &AssemblyTree, cfg: &SolverConfig) -> Result<RunResult, SimError> {
    let map = compute_mapping(tree, cfg);
    parsim::run(tree, &map, cfg)
}

/// Percentage decrease of `candidate` relative to `baseline`
/// (positive = candidate is better), the quantity of Tables 2, 3, 5.
pub fn percent_decrease(baseline: u64, candidate: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    100.0 * (baseline as f64 - candidate as f64) / baseline as f64
}

/// Percentage increase of `candidate` over `baseline` (Table 6's
/// "loss of performance").
pub fn percent_increase(baseline: u64, candidate: u64) -> f64 {
    -percent_decrease(baseline, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, Stencil};

    #[test]
    fn pipeline_runs_end_to_end() {
        let a = grid2d(24, 24, Stencil::Star);
        let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Metis };
        let cfg = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let r = run_experiment(&input, &cfg).unwrap();
        assert!(r.max_peak > 0);
        assert!(r.makespan > 0);
    }

    #[test]
    fn splitting_changes_the_tree() {
        let a = grid2d(28, 28, Stencil::Star);
        let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Amd };
        let t1 = prepare_tree(&input, None);
        let t2 = prepare_tree(&input, Some(500));
        assert!(t2.len() > t1.len(), "{} !> {}", t2.len(), t1.len());
        for v in 0..t2.len() {
            assert!(t2.master_entries(v) <= 500);
        }
    }

    #[test]
    fn percent_helpers() {
        assert_eq!(percent_decrease(200, 100), 50.0);
        assert_eq!(percent_decrease(100, 110), -10.0);
        assert_eq!(percent_increase(100, 110), 10.0);
        assert_eq!(percent_decrease(0, 5), 0.0);
    }
}
