//! Property-based validation of the scheduling layer: blocking
//! partitions, Algorithm 1 selections, pool behaviour, and the simulated
//! factorization under arbitrary strategy combinations.

use multifrontal::core::blocking::{
    blocks_from_entry_budgets, equal_entry_blocks, slave_block_entries, slave_surface,
};
use multifrontal::core::driver::{prepare_tree, run_on_tree};
use multifrontal::core::pool::TaskPool;
use multifrontal::core::slavesel::{select_memory, select_workload, SelectionInput};
use multifrontal::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn blocking_partitions_exactly(
        nfront in 2usize..300,
        npiv_frac in 0.05f64..0.95,
        k in 1usize..12,
        symmetric in any::<bool>(),
    ) {
        let npiv = ((nfront as f64 * npiv_frac) as usize).clamp(1, nfront - 1);
        let rows = nfront - npiv;
        let k = k.min(rows);
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
        let blocks = equal_entry_blocks(sym, nfront, npiv, k);
        prop_assert_eq!(blocks.len(), k);
        let mut off = 0usize;
        let mut total = 0u64;
        for &(o, r) in &blocks {
            prop_assert_eq!(o, off, "blocks must be contiguous");
            prop_assert!(r >= 1);
            total += slave_block_entries(sym, nfront, npiv, o, r);
            off += r;
        }
        prop_assert_eq!(off, rows);
        prop_assert_eq!(total, slave_surface(sym, nfront, npiv));
    }

    #[test]
    fn budget_blocking_partitions_exactly(
        nfront in 2usize..300,
        npiv_frac in 0.05f64..0.95,
        budgets in prop::collection::vec(0u64..100_000, 1..10),
        symmetric in any::<bool>(),
    ) {
        let npiv = ((nfront as f64 * npiv_frac) as usize).clamp(1, nfront - 1);
        let rows = nfront - npiv;
        let k = budgets.len().min(rows);
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
        let blocks = blocks_from_entry_budgets(sym, nfront, npiv, &budgets[..k]);
        let mut off = 0usize;
        for &(o, r) in &blocks {
            prop_assert_eq!(o, off);
            prop_assert!(r >= 1);
            off += r;
        }
        prop_assert_eq!(off, rows);
    }

    #[test]
    fn algorithm1_selection_is_sound(
        metrics in prop::collection::vec(0u64..1_000_000, 2..16),
        nfront in 20usize..400,
        npiv_frac in 0.1f64..0.9,
        min_rows in 1usize..32,
    ) {
        let npiv = ((nfront as f64 * npiv_frac) as usize).clamp(1, nfront - 1);
        let candidates: Vec<usize> = (1..metrics.len()).collect();
        let input = SelectionInput {
            candidates: &candidates,
            metric: &metrics,
            fill_metric: None,
            master_metric: metrics[0],
            nfront,
            npiv,
            sym: Symmetry::General,
            min_rows_per_slave: min_rows,
        };
        for sel in [select_memory(&input), select_workload(&input)] {
            // Selected processors are distinct candidates.
            let mut procs: Vec<usize> = sel.iter().map(|a| a.proc).collect();
            procs.sort_unstable();
            procs.dedup();
            prop_assert_eq!(procs.len(), sel.len());
            prop_assert!(sel.iter().all(|a| candidates.contains(&a.proc)));
            // Rows cover the slave part exactly; blocks contiguous.
            let mut off = 0;
            for a in &sel {
                prop_assert_eq!(a.offset, off);
                prop_assert!(a.nrows >= 1);
                off += a.nrows;
            }
            if !sel.is_empty() {
                prop_assert_eq!(off, nfront - npiv);
            }
        }
        // Algorithm 1 ranks by metric: the selection is memory-sorted.
        let sel = select_memory(&input);
        for w in sel.windows(2) {
            prop_assert!(metrics[w[0].proc] <= metrics[w[1].proc]);
        }
    }

    #[test]
    fn pool_algorithms_return_every_task_exactly_once(
        tasks in prop::collection::vec(0usize..1_000, 0..30),
        subtree_mask in any::<u32>(),
        current in 0u64..5_000,
        peak in 0u64..5_000,
    ) {
        let mut dedup = tasks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let mut pool = TaskPool::new(dedup.clone());
        let in_subtree = |t: usize| (subtree_mask >> (t % 32)) & 1 == 1;
        let cost = |t: usize| t as u64 * 10;
        let mut popped = Vec::new();
        while let Some(t) = pool.pick_memory_aware(in_subtree, cost, current, peak, |_| true) {
            popped.push(t);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, dedup);
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn simulation_completes_under_any_strategy_mix(
        nprocs in 1usize..12,
        slave_sel in 0usize..3,
        task_sel in 0usize..3,
        subtree_info in any::<bool>(),
        prediction in any::<bool>(),
        split in any::<bool>(),
        subtree_peaks in any::<bool>(),
        jitter in any::<bool>(),
        nx in 10usize..18,
    ) {
        let a = multifrontal::sparse::gen::grid::grid2d(nx, nx, Stencil::Star);
        let cfg = SolverConfig {
            nprocs,
            type2_front_min: 20,
            type3_front_min: 60,
            min_rows_per_slave: 4,
            slave_selection: [SlaveSelection::Workload, SlaveSelection::Memory, SlaveSelection::Hybrid][slave_sel],
            task_selection: [TaskSelection::Lifo, TaskSelection::MemoryAware, TaskSelection::MemoryAwareGlobal][task_sel],
            use_subtree_info: subtree_info,
            use_prediction: prediction,
            split_threshold: split.then_some(2_000),
            subtree_peak_factor: subtree_peaks.then_some(1.0),
            jitter: jitter.then_some((42, 0.1)),
            ..SolverConfig::mumps_baseline(nprocs)
        };
        let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Metis };
        let tree = prepare_tree(&input, &cfg);
        let r = run_on_tree(&tree, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert!(r.max_peak > 0);
        // Peak is bounded below by the largest single local allocation and
        // above by the whole tree's front weight.
        let upper: u64 = (0..tree.len()).map(|v| tree.front_entries(v)).sum();
        prop_assert!(r.max_peak <= upper);
    }
}
