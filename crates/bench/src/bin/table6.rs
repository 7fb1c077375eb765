//! Table 6: loss of performance (percentage increase of the simulated
//! factorization time) between the original MUMPS strategy and the
//! memory-optimized strategy (splitting + dynamic memory scheduling).

use mf_bench::paper_data::PAPER_TABLE6;
use mf_bench::sweep::{run_percent_table, split_threshold_for, CellSpec};
use mf_core::driver::percent_increase;
use mf_order::ALL_ORDERINGS;
use mf_sparse::gen::paper::PaperMatrix;

fn main() {
    let nprocs = 32;
    let thr = split_threshold_for();
    let matrices = [PaperMatrix::Ship003, PaperMatrix::Pre2, PaperMatrix::Ultrasound3];
    // Per (matrix, ordering): the original cell, then the optimized one.
    // Symmetric SHIP_003 was not split in the paper's Table 3/5 either;
    // apply splitting only to the unsymmetric problems.
    let specs: Vec<CellSpec> = matrices
        .iter()
        .flat_map(|&m| {
            let split = m.is_unsymmetric().then_some(thr);
            ALL_ORDERINGS
                .into_iter()
                .flat_map(move |k| [(m, k, nprocs, None), (m, k, nprocs, split)])
        })
        .collect();
    run_percent_table(
        "Table 6: % loss of factorization time, memory-optimized vs original strategy",
        Some(&PAPER_TABLE6),
        &matrices,
        2,
        &specs,
        |m, entry| {
            let (original, optimized) = (&entry[0], &entry[1]);
            let val = percent_increase(original.baseline.makespan, optimized.memory.makespan);
            let log = format!(
                "{:12} {:5}: makespan {:>9} -> {:>9} = {:+.1}%",
                m.name(),
                original.ordering.name(),
                original.baseline.makespan,
                optimized.memory.makespan,
                val
            );
            (val, log)
        },
    );
}
