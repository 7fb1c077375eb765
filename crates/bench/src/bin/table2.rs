//! Table 2: percentage decrease of the maximum stack-memory peak
//! obtained by the dynamic memory strategies (Algorithm 1 with the
//! Section 5.1 mechanisms and Algorithm 2) against the workload baseline
//! — 8 matrices x 4 orderings, 32 simulated processors, no splitting.

use mf_bench::paper_data::PAPER_TABLE2;
use mf_bench::sweep::{run_percent_table, CellSpec};
use mf_order::ALL_ORDERINGS;
use mf_sparse::gen::paper::ALL_PAPER_MATRICES;

fn main() {
    let nprocs = 32;
    let specs: Vec<CellSpec> = ALL_PAPER_MATRICES
        .into_iter()
        .flat_map(|m| ALL_ORDERINGS.into_iter().map(move |k| (m, k, nprocs, None)))
        .collect();
    // All 32 cells run in parallel; results come back in spec order, so
    // the rendered table is identical to the sequential loop's.
    run_percent_table(
        "Table 2: % decrease of max stack peak (dynamic memory strategies, no splitting)",
        Some(&PAPER_TABLE2),
        &ALL_PAPER_MATRICES,
        1,
        &specs,
        |m, entry| {
            let c = &entry[0];
            let val = c.gain_percent();
            let log = format!(
                "{:12} {:5}: baseline peak {:>9}, memory peak {:>9} -> {:+.1}%",
                m.name(),
                c.ordering.name(),
                c.baseline.max_peak,
                c.memory.max_peak,
                val
            );
            (val, log)
        },
    );
}
