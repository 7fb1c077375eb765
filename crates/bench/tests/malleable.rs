//! The malleable core allocation may only help: the speedup curve never
//! lengthens a duration and idle cores are free — the monotonicity the
//! `p^α` model of Guermouche/Marchal/Simon/Vivien (arXiv:1410.7249)
//! promises — so over a Table-5-shaped slice of the grid the summed
//! malleable makespan never exceeds the one-core-per-front one.

use mf_bench::sweep::{build_tree, paper_scale_config, split_threshold_for};
use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::{parsim, CoreAlloc};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;

#[test]
fn malleable_allocation_never_loses_to_static() {
    let (mut static_total, mut malleable_total) = (0u64, 0u64);
    for (m, k) in
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ship003, OrderingKind::Metis)]
    {
        for split in [None, Some(split_threshold_for())] {
            let tree = build_tree(m, k, split);
            for nprocs in [16usize, 32] {
                let fixed = paper_scale_config(nprocs).with_memory_strategy();
                let malleable = SolverConfig { core_alloc: CoreAlloc::Malleable, ..fixed.clone() };
                let map = compute_mapping(&tree, &fixed);
                let st = parsim::run(&tree, &map, &fixed).expect("static run");
                let ml = parsim::run(&tree, &map, &malleable).expect("malleable run");
                assert_eq!(st.nodes_done, ml.nodes_done, "malleable run lost fronts");
                static_total += st.makespan;
                malleable_total += ml.makespan;
            }
        }
    }
    assert!(
        malleable_total <= static_total,
        "malleable allocation regressed the summed makespan: {malleable_total} vs static \
         {static_total} ticks"
    );
}
