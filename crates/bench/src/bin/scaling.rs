//! Memory scalability study — the paper's motivation, quantified.
//!
//! "By minimizing the stack memory and improving the memory scalability,
//! we will be able to treat larger problems since the scalability of the
//! stack is currently a limiting factor of the factorization."
//!
//! For processor counts 1..32 this binary reports, per strategy:
//! the maximum per-processor stack peak (what each node must provision),
//! the *sum* of the peaks (total machine memory — perfect scalability
//! would keep it flat at the sequential peak), and the memory efficiency
//! `seq_peak / (nprocs * max_peak)`, plus the makespan speedup.

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use mf_symbolic::seqstack::{sequential_peak, AssemblyDiscipline};
use rayon::prelude::*;

fn main() {
    let tree = build_tree(PaperMatrix::Ultrasound3, OrderingKind::Metis, None);
    let seq = sequential_peak(&tree, AssemblyDiscipline::FrontThenFree);
    println!("ULTRASOUND3 / METIS; sequential stack peak = {seq} entries");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10} {:>8}  strategy",
        "procs", "max peak", "sum peaks", "efficiency", "makespan", "speedup"
    );
    // All (processor count, strategy) points run in parallel against the
    // shared tree; results come back in input order so the report rows
    // and the speedup baselines (the nprocs=1 rows) are unchanged.
    let points: Vec<(usize, usize, bool)> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .flat_map(|np| [(np, 0usize, false), (np, 1, true)])
        .collect();
    let results: Vec<_> = points
        .par_iter()
        .map(|&(nprocs, _, memory)| {
            let mut cfg = paper_scale_config(nprocs);
            if memory {
                cfg = cfg.with_memory_strategy();
            }
            let map = compute_mapping(&tree, &cfg);
            parsim::run(&tree, &map, &cfg).expect("scaling run failed")
        })
        .collect();
    let t1 = [results[0].makespan, results[1].makespan];
    for (&(nprocs, si, memory), r) in points.iter().zip(&results) {
        let sum: u64 = r.peaks.iter().sum();
        println!(
            "{:>6} {:>10} {:>12} {:>11.1}% {:>10} {:>7.1}x  {}",
            nprocs,
            r.max_peak,
            sum,
            100.0 * seq as f64 / (nprocs as f64 * r.max_peak as f64),
            r.makespan,
            t1[si] as f64 / r.makespan as f64,
            if memory { "memory" } else { "workload" },
        );
    }
}
