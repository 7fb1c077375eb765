//! Table 5: percentage decrease of the maximum stack-memory peak when
//! both the static (splitting) and dynamic (memory-based) approaches are
//! applied, compared to the original MUMPS strategy on the unsplit tree.

use mf_bench::paper_data::PAPER_TABLE5;
use mf_bench::sweep::{run_percent_table, split_threshold_for, CellSpec};
use mf_core::driver::percent_decrease;
use mf_order::ALL_ORDERINGS;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

fn main() {
    let nprocs = 32;
    let thr = split_threshold_for();
    let matrices: Vec<PaperMatrix> =
        ALL_PAPER_MATRICES.into_iter().filter(|m| m.is_unsymmetric()).collect();
    // Per (matrix, ordering): the original (unsplit) cell, then the
    // combined (split) cell.
    let specs: Vec<CellSpec> = matrices
        .iter()
        .flat_map(|&m| {
            ALL_ORDERINGS
                .into_iter()
                .flat_map(move |k| [(m, k, nprocs, None), (m, k, nprocs, Some(thr))])
        })
        .collect();
    run_percent_table(
        "Table 5: % decrease of max stack peak, static splitting + dynamic memory vs original MUMPS",
        Some(&PAPER_TABLE5),
        &matrices,
        2,
        &specs,
        |m, entry| {
            let (original, combined) = (&entry[0], &entry[1]);
            let val = percent_decrease(original.baseline.max_peak, combined.memory.max_peak);
            let log = format!(
                "{:12} {:5}: original {:>9} -> split+memory {:>9} = {:+.1}%",
                m.name(),
                original.ordering.name(),
                original.baseline.max_peak,
                combined.memory.max_peak,
                val
            );
            (val, log)
        },
    );
}
