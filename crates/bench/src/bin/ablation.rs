//! Ablation study of the design choices (beyond the paper's tables):
//! which mechanism buys what?
//!
//! Runs the same matrix × ordering cells under every meaningful strategy
//! combination — isolating Algorithm 1, the two Section 5.1 information
//! mechanisms, Algorithm 2 and its global refinement, and the hybrid
//! strategy of the paper's conclusion — and reports max/avg stack peak
//! and makespan for each.

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use rayon::prelude::*;

struct Variant {
    name: &'static str,
    cfg: fn(SolverConfig) -> SolverConfig,
}

const VARIANTS: &[Variant] = &[
    Variant { name: "workload+lifo (baseline)", cfg: |c| c },
    Variant {
        name: "alg1 only",
        cfg: |c| SolverConfig { slave_selection: SlaveSelection::Memory, ..c },
    },
    Variant {
        name: "alg1 + subtree info",
        cfg: |c| SolverConfig {
            slave_selection: SlaveSelection::Memory,
            use_subtree_info: true,
            ..c
        },
    },
    Variant {
        name: "alg1 + prediction",
        cfg: |c| SolverConfig {
            slave_selection: SlaveSelection::Memory,
            use_prediction: true,
            ..c
        },
    },
    Variant {
        name: "alg2 only",
        cfg: |c| SolverConfig { task_selection: TaskSelection::MemoryAware, ..c },
    },
    Variant { name: "full memory (paper)", cfg: |c| c.with_memory_strategy() },
    Variant {
        name: "full + global alg2",
        cfg: |c| SolverConfig {
            task_selection: TaskSelection::MemoryAwareGlobal,
            ..c.with_memory_strategy()
        },
    },
    Variant {
        name: "hybrid (conclusion)",
        cfg: |c| SolverConfig {
            slave_selection: SlaveSelection::Hybrid,
            ..c.with_memory_strategy()
        },
    },
    Variant {
        name: "mem-aware subtrees",
        cfg: |c| SolverConfig { subtree_peak_factor: Some(1.0), ..c.with_memory_strategy() },
    },
];

fn main() {
    let nprocs = 32;
    for (m, k) in [
        (PaperMatrix::TwoTone, OrderingKind::Amd),
        (PaperMatrix::Ultrasound3, OrderingKind::Amf),
        (PaperMatrix::Ship003, OrderingKind::Metis),
    ] {
        println!("=== {} / {} ({nprocs} processors) ===", m.name(), k.name());
        let tree = build_tree(m, k, None);
        println!(
            "{:26} {:>10} {:>10} {:>10} {:>8}",
            "variant", "max peak", "avg peak", "makespan", "vs base"
        );
        // All variants share the cached tree and run in parallel; the
        // results vector keeps VARIANTS order, so the report (and the
        // "vs base" column, anchored on the first variant) is unchanged.
        let results: Vec<_> = VARIANTS
            .par_iter()
            .map(|v| {
                let cfg = (v.cfg)(paper_scale_config(nprocs));
                let map = compute_mapping(&tree, &cfg);
                parsim::run(&tree, &map, &cfg).unwrap_or_else(|e| panic!("{} failed: {e}", v.name))
            })
            .collect();
        let base_peak = results[0].max_peak;
        for (v, r) in VARIANTS.iter().zip(&results) {
            println!(
                "{:26} {:>10} {:>10.0} {:>10} {:>+7.1}%",
                v.name,
                r.max_peak,
                r.avg_peak,
                r.makespan,
                100.0 * (base_peak as f64 - r.max_peak as f64) / base_peak as f64,
            );
        }
        println!();
    }
}
