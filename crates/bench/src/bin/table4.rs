//! Table 4: absolute maximum stack peaks (millions of entries) on the two
//! illustrative cases, isolating the gain of the static splitting from
//! the gain of the dynamic memory strategies.

use mf_bench::paper_data::PAPER_TABLE4;
use mf_bench::sweep::{split_threshold_for, sweep_cells, CellSpec};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;

fn main() {
    mf_bench::obs::reject_args();
    let nprocs = 32;
    let thr = split_threshold_for();
    let cases = [
        (PaperMatrix::Ultrasound3, OrderingKind::Metis, "ULTRASOUND3-METIS"),
        (PaperMatrix::Xenon2, OrderingKind::Amf, "XENON2-AMF"),
    ];
    // Per case: the unsplit cell, then the split cell.
    let specs: Vec<CellSpec> = cases
        .iter()
        .flat_map(|&(m, k, _)| [(m, k, nprocs, None), (m, k, nprocs, Some(thr))])
        .collect();
    let cells = sweep_cells(&specs);
    println!("Table 4: max stack peak, millions of entries (measured | paper)");
    println!(
        "{:18} {:16} {:>10} {:>10}   {:>7} {:>7}",
        "Case", "Strategy", "No split", "Split", "paper:N", "paper:S"
    );
    for ((_, _, case), pair) in cases.iter().zip(cells.chunks_exact(2)) {
        let (plain, split) = (&pair[0], &pair[1]);
        let to_m = |v: u64| v as f64 / 1.0e6;
        for (strategy, nosplit, withsplit) in [
            ("MUMPS dynamic", plain.baseline.max_peak, split.baseline.max_peak),
            ("memory-based", plain.memory.max_peak, split.memory.max_peak),
        ] {
            let paper = PAPER_TABLE4
                .iter()
                .find(|(c, s, _, _)| c == case && strategy.starts_with(&s[..5]))
                .map(|&(_, _, a, b)| (a, b))
                .unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:18} {:16} {:>10.3} {:>10.3}   {:>7.2} {:>7.2}",
                case,
                strategy,
                to_m(nosplit),
                to_m(withsplit),
                paper.0,
                paper.1
            );
        }
    }
    println!("\n(paper columns: IBM SP, full-scale matrices; ours: reproduction scale)");
}
