//! Sensitivity of each strategy to execution-timing noise.
//!
//! The paper attributes small differences between its Tables 2 and 3 to
//! "the non-deterministic execution scheme of MUMPS". This binary
//! quantifies the analogous effect in the reproduction: it perturbs task
//! durations by ±10% under 16 seeds and reports the spread of the
//! maximum stack peak for the workload baseline and the memory-based
//! strategy.

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use rayon::prelude::*;

fn spread(tree: &mf_symbolic::AssemblyTree, cfg: &SolverConfig, seeds: u64) -> (u64, u64, f64) {
    let map = compute_mapping(tree, cfg);
    // Independent seeded runs; each seed fully determines its jittered
    // simulation, so the parallel fan-out changes nothing but wall time.
    let seed_list: Vec<u64> = (0..seeds).collect();
    let peaks: Vec<u64> = seed_list
        .par_iter()
        .map(|&seed| {
            let jcfg = SolverConfig { jitter: Some((seed, 0.10)), ..cfg.clone() };
            let r = parsim::run(tree, &map, &jcfg).expect("jittered run failed");
            r.max_peak
        })
        .collect();
    let min = *peaks.iter().min().unwrap();
    let max = *peaks.iter().max().unwrap();
    let mean = peaks.iter().sum::<u64>() as f64 / peaks.len() as f64;
    (min, max, mean)
}

fn main() {
    let seeds = 16;
    println!("max stack peak under ±10% duration noise, {seeds} seeds");
    println!(
        "{:22} {:>10} {:>10} {:>10} {:>8}",
        "cell / strategy", "min", "mean", "max", "spread%"
    );
    for (m, k) in
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ultrasound3, OrderingKind::Amf)]
    {
        let tree = build_tree(m, k, None);
        let base = paper_scale_config(32);
        let mem = base.clone().with_memory_strategy();
        for (name, cfg) in [("workload", &base), ("memory", &mem)] {
            let (min, max, mean) = spread(&tree, cfg, seeds);
            println!(
                "{:12} {:9} {:>10} {:>10.0} {:>10} {:>7.1}%",
                m.name(),
                name,
                min,
                mean,
                max,
                100.0 * (max - min) as f64 / mean,
            );
        }
    }
    println!("\n(the paper: \"the little difference on the gains measured between");
    println!(" Table 2 and Table 3 is due to the non-deterministic execution scheme\")");
}
