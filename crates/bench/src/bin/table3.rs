//! Table 3: percentage decrease of the maximum stack-memory peak by the
//! dynamic memory strategies on trees whose large type-2 masters were
//! statically split (both runs use the same split tree, as in the paper).

use mf_bench::paper_data::PAPER_TABLE3;
use mf_bench::sweep::{run_percent_table, split_threshold_for, CellSpec};
use mf_order::ALL_ORDERINGS;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

fn main() {
    let nprocs = 32;
    let thr = split_threshold_for();
    let matrices: Vec<PaperMatrix> =
        ALL_PAPER_MATRICES.into_iter().filter(|m| m.is_unsymmetric()).collect();
    let specs: Vec<CellSpec> = matrices
        .iter()
        .flat_map(|&m| ALL_ORDERINGS.into_iter().map(move |k| (m, k, nprocs, Some(thr))))
        .collect();
    run_percent_table(
        &format!("Table 3: % decrease of max stack peak on split trees (threshold {thr} entries)"),
        Some(&PAPER_TABLE3),
        &matrices,
        1,
        &specs,
        |m, entry| {
            let c = &entry[0];
            let val = c.gain_percent();
            let log = format!(
                "{:12} {:5}: split-baseline {:>9}, split-memory {:>9} -> {:+.1}% ({} fronts)",
                m.name(),
                c.ordering.name(),
                c.baseline.max_peak,
                c.memory.max_peak,
                val,
                c.stats.nodes,
            );
            (val, log)
        },
    );
}
