//! Shared experiment-sweep machinery: cell execution, parallel sweeps,
//! and the paper-style percent-table renderer the `paper` binary's
//! tables print through.

use std::sync::Arc;

use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use mf_symbolic::tree::TreeStats;
use mf_symbolic::AssemblyTree;
use rayon::prelude::*;

/// Result of one experiment cell (matrix × ordering × split setting),
/// with the baseline (workload) and the memory-based runs on the *same*
/// tree and mapping, as in the paper.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which matrix.
    pub matrix: PaperMatrix,
    /// Which ordering.
    pub ordering: OrderingKind,
    /// Splitting threshold applied (entries), if any.
    pub split: Option<u64>,
    /// Tree shape (after splitting).
    pub stats: TreeStats,
    /// Run with the workload baseline.
    pub baseline: RunResult,
    /// Run with the full memory-based strategies.
    pub memory: RunResult,
}

impl CellResult {
    /// Table 2/3/5 quantity: percentage decrease of the maximum stack
    /// peak achieved by the memory strategies.
    pub fn gain_percent(&self) -> f64 {
        mf_core::driver::percent_decrease(self.baseline.max_peak, self.memory.max_peak)
    }

    /// Table 6 quantity: percentage loss of factorization time.
    pub fn time_loss_percent(&self) -> f64 {
        mf_core::driver::percent_increase(self.baseline.makespan, self.memory.makespan)
    }
}

/// Base configuration at reproduction scale: 32 processors like the
/// paper, SP-like network, type-2 threshold fitting the reduced front
/// sizes. Observers (`record_events`, `sample_every`) are off; a caller
/// that wants them switches them on in its own copy.
pub fn paper_scale_config(nprocs: usize) -> SolverConfig {
    SolverConfig {
        nprocs,
        type2_front_min: 150,
        type3_front_min: 500,
        min_rows_per_slave: 12,
        ..SolverConfig::mumps_baseline(nprocs)
    }
}

/// Splitting threshold at reproduction scale.
///
/// The paper uses 2·10⁶ entries on matrices of order 10⁵–10⁶; our
/// analogues are 10–50× smaller, with master parts one to two orders of
/// magnitude smaller. 250k entries plays the same role: it splits only
/// the handful of huge type-2 masters. (The paper itself notes the
/// threshold "should be more matrix-dependent".)
pub fn split_threshold_for() -> u64 {
    250_000
}

/// Builds the assembly tree for a cell (ordering + analysis + Liu child
/// order + optional splitting), memoized process-wide: repeated calls
/// with the same key share one [`Arc`]'d artifact (see [`crate::cache`]).
pub fn build_tree(
    matrix: PaperMatrix,
    ordering: OrderingKind,
    split: Option<u64>,
) -> Arc<AssemblyTree> {
    crate::cache::cached_tree(matrix, ordering, split)
}

/// The paper's two configurations on one tree: `base` under the workload
/// baseline and under the memory-based strategy, over one static mapping,
/// on the simulator. Returns `(baseline, memory)`; panics on a failed
/// run (table cells run unperturbed and uncapped, so an error is a bug,
/// not a result).
pub fn run_strategies(tree: &AssemblyTree, base: &SolverConfig) -> (RunResult, RunResult) {
    let base_cfg = base.clone().with_workload_strategy();
    let mem_cfg = base.clone().with_memory_strategy();
    let map = compute_mapping(tree, &base_cfg);
    let run =
        |cfg| parsim::run(tree, &map, cfg).unwrap_or_else(|e| panic!("simulator run failed: {e}"));
    (run(&base_cfg), run(&mem_cfg))
}

/// Runs one cell: the cached tree of `(matrix, ordering, split)` through
/// [`run_strategies`]. Whatever else `base` switches on — the flight
/// recorder (`record_events`), the sampler (`sample_every`) —
/// applies to both runs and observes without perturbing: peaks,
/// makespans and message counts are those of the quiet cell (pinned by
/// `mf_core`'s `recording_is_deterministic_and_absent_when_disabled` and
/// `sampler_is_schedule_invariant_and_absent_when_disabled`).
pub fn sweep_cell(
    matrix: PaperMatrix,
    ordering: OrderingKind,
    split: Option<u64>,
    base: &SolverConfig,
) -> CellResult {
    let tree = build_tree(matrix, ordering, split);
    let (baseline, memory) = run_strategies(&tree, base);
    CellResult { matrix, ordering, split, stats: tree.stats(), baseline, memory }
}

/// One entry of a parallel sweep: matrix, ordering, processor count and
/// splitting threshold of a cell run at [`paper_scale_config`].
pub type CellSpec = (PaperMatrix, OrderingKind, usize, Option<u64>);

/// Runs many sweep cells in parallel, returning the results **in input
/// order** — cell `i` of the output is `sweep_cell(specs[i])`, whatever
/// the execution interleaving. Each cell is itself a deterministic pure
/// function (the simulator's virtual clock is unaffected by wall-clock
/// scheduling), so a parallel sweep renders bit-identical tables to the
/// sequential loop it replaces; the `parallel_sweep_is_deterministic`
/// test pins this under different thread-pool sizes.
pub fn sweep_cells(specs: &[CellSpec]) -> Vec<CellResult> {
    specs
        .par_iter()
        .map(|&(m, k, nprocs, split)| sweep_cell(m, k, split, &paper_scale_config(nprocs)))
        .collect()
}

/// Renders a matrix × ordering table of percentages, paper-style.
pub fn render_percent_table(
    title: &str,
    rows: &[(&str, [f64; 4])],
    paper: Option<&[(&str, [f64; 4])]>,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(out, "{:-<width$}", "", width = title.len()).unwrap();
    writeln!(out, "{:14} {:>8} {:>8} {:>8} {:>8}", "", "METIS", "PORD", "AMD", "AMF").unwrap();
    for (name, vals) in rows {
        writeln!(
            out,
            "{:14} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            name, vals[0], vals[1], vals[2], vals[3]
        )
        .unwrap();
        if let Some(paper_rows) = paper {
            if let Some((_, p)) = paper_rows.iter().find(|(n, _)| n == name) {
                writeln!(
                    out,
                    "{:14} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                    "  (paper)", p[0], p[1], p[2], p[3]
                )
                .unwrap();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_runs_both_strategies_deterministically() {
        let base = paper_scale_config(8);
        let c1 = sweep_cell(PaperMatrix::TwoTone, OrderingKind::Amd, None, &base);
        let c2 = sweep_cell(PaperMatrix::TwoTone, OrderingKind::Amd, None, &base);
        assert_eq!(c1.baseline.max_peak, c2.baseline.max_peak);
        assert_eq!(c1.memory.max_peak, c2.memory.max_peak);
        assert!(c1.baseline.max_peak > 0);
    }

    #[test]
    fn render_table_has_all_columns() {
        let s = render_percent_table("T", &[("X", [1.0, 2.0, 3.0, 4.0])], None);
        assert!(s.contains("METIS") && s.contains("AMF"));
        assert!(s.contains("X"));
    }
}
