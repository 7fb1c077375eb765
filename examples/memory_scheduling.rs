//! The paper's headline experiment on one case: compare the workload
//! baseline against the memory-based strategies (Algorithm 1 + Section
//! 5.1 + Algorithm 2) on a TWOTONE-like harmonic-balance matrix, and plot
//! the per-processor active-memory evolution as ASCII sparklines.
//!
//! Run with: `cargo run --release --example memory_scheduling`

use multifrontal::core::driver::percent_decrease;
use multifrontal::core::mapping::compute_mapping;
use multifrontal::prelude::*;
use multifrontal::sim::SampleRow;
use multifrontal::symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};

/// One character per 1/60th of the run: the highest sampled active
/// memory in that slice, on a scale of `max`.
fn sparkline(series: &[SampleRow], makespan: u64, max: u64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut cols = [0u64; 60];
    for s in series.iter() {
        let c = (s.at * 60 / (makespan + 1)) as usize;
        cols[c] = cols[c].max(s.active);
    }
    cols.iter().map(|&v| LEVELS[((v * 7) / max.max(1)) as usize]).collect()
}

fn main() {
    let a = PaperMatrix::TwoTone.instantiate_scaled(0.5);
    println!("TWOTONE analogue: n = {}, nnz = {}", a.nrows(), a.nnz());
    let perm = OrderingKind::Amd.compute(&a);
    let mut s = analyze(&a, &perm, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);

    let nprocs = 16;
    let base_cfg = SolverConfig {
        sample_every: Some(100),
        type2_front_min: 150,
        type3_front_min: 500,
        ..SolverConfig::mumps_baseline(nprocs)
    };
    let mem_cfg = base_cfg.clone().with_memory_strategy();
    let map = compute_mapping(&s.tree, &base_cfg);
    let base = multifrontal::core::parsim::run(&s.tree, &map, &base_cfg).unwrap();
    let mem = multifrontal::core::parsim::run(&s.tree, &map, &mem_cfg).unwrap();

    println!(
        "\nmax stack peak: baseline {} -> memory-based {} ({:+.1}%)",
        base.max_peak,
        mem.max_peak,
        percent_decrease(base.max_peak, mem.max_peak)
    );
    println!("avg stack peak: baseline {:.0} -> memory-based {:.0}", base.avg_peak, mem.avg_peak);
    println!("makespan:       baseline {} -> memory-based {}", base.makespan, mem.makespan);

    let global_max = base.max_peak.max(mem.max_peak);
    for (name, r) in [("baseline", &base), ("memory-based", &mem)] {
        println!("\nactive-memory evolution per processor ({name}):");
        let series = r.timeseries.as_ref().unwrap();
        for (p, &peak) in r.peaks.iter().enumerate() {
            let line = sparkline(series.proc(p), r.makespan, global_max);
            println!("  P{p:<2} {line} peak {peak:>8}");
        }
    }
}
