//! Property-based validation of the scheduling layer: blocking
//! partitions, Algorithm 1 selections, pool behaviour, the simulated
//! factorization under arbitrary strategy combinations — and the two
//! decision sites held to the code they replaced.
//!
//! `TaskSelection::pick` is one top-down pool scan and
//! `SlaveSelection::select` one candidates → belief → split pipeline.
//! Before that, each strategy had a function of its own: four pool
//! pickers and three slave selectors behind a context struct. Those
//! bodies live on below, unchanged, as the `oracle` module, and the
//! `*_equals_the_*_it_replaced` properties assert that the decision sites
//! take the same decision on random inputs.

use multifrontal::core::blocking::{
    blocks_from_entry_budgets, equal_entry_blocks, slave_block_entries, slave_surface,
};
use multifrontal::core::driver::{prepare_tree, run_on_tree};
use multifrontal::core::pool::TaskCtx;
use multifrontal::core::slavesel::{FrontSplit, SlaveCtx};
use multifrontal::core::views::Views;
use multifrontal::prelude::*;
use multifrontal::sim::FaultModel;
use proptest::prelude::*;

/// The per-strategy pool pickers and slave selectors the two decision
/// sites replaced, kept verbatim as test oracles (`self.stack` became
/// `stack`; the selectors return `(proc, offset, nrows)` triples).
mod oracle {
    use multifrontal::core::blocking::{
        blocks_from_entry_budgets, equal_entry_blocks, slave_surface,
    };
    use multifrontal::core::views::{PeerView, Views};
    use multifrontal::prelude::*;

    pub fn pick_lifo(stack: &mut Vec<usize>) -> Option<usize> {
        stack.pop()
    }

    pub fn pick_lifo_admissible(
        stack: &mut Vec<usize>,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let idx = stack.iter().rposition(|&t| admissible(t))?;
        Some(stack.remove(idx))
    }

    pub fn pick_memory_aware_global(
        stack: &mut Vec<usize>,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        released: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let &top = stack.last()?;
        if in_subtree(top) && admissible(top) {
            return stack.pop();
        }
        for idx in (0..stack.len()).rev() {
            let t = stack[idx];
            let net_cost = cost(t).saturating_sub(released(t));
            if admissible(t) && (net_cost + current_memory <= observed_peak || in_subtree(t)) {
                return Some(stack.remove(idx));
            }
        }
        // Fallback: the pending task releasing the most memory system-wide.
        let best = (0..stack.len())
            .filter(|&i| admissible(stack[i]))
            .max_by_key(|&i| (released(stack[i]), std::cmp::Reverse(cost(stack[i]))))?;
        Some(stack.remove(best))
    }

    pub fn pick_memory_aware(
        stack: &mut Vec<usize>,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let &top = stack.last()?;
        if in_subtree(top) && admissible(top) {
            return stack.pop();
        }
        for idx in (0..stack.len()).rev() {
            let t = stack[idx];
            if admissible(t) && (cost(t) + current_memory <= observed_peak || in_subtree(t)) {
                return Some(stack.remove(idx));
            }
        }
        let idx = stack.iter().rposition(|&t| admissible(t))?;
        Some(stack.remove(idx))
    }

    /// `TaskSelection::pick` as it dispatched to the pickers.
    #[allow(clippy::too_many_arguments)]
    pub fn pick(
        strategy: TaskSelection,
        stack: &mut Vec<usize>,
        in_subtree: &dyn Fn(usize) -> bool,
        cost: &dyn Fn(usize) -> u64,
        released: &dyn Fn(usize) -> u64,
        admissible: &dyn Fn(usize) -> bool,
        capped: bool,
        current_memory: u64,
        observed_peak: u64,
    ) -> Option<usize> {
        match strategy {
            TaskSelection::Lifo if capped => pick_lifo_admissible(stack, admissible),
            TaskSelection::Lifo => pick_lifo(stack),
            TaskSelection::MemoryAware => pick_memory_aware(
                stack,
                in_subtree,
                cost,
                current_memory,
                observed_peak,
                admissible,
            ),
            TaskSelection::MemoryAwareGlobal => pick_memory_aware_global(
                stack,
                in_subtree,
                cost,
                released,
                current_memory,
                observed_peak,
                admissible,
            ),
        }
    }

    #[derive(Debug, Clone)]
    pub struct SelectionInput<'a> {
        pub candidates: &'a [usize],
        pub metric: &'a [u64],
        pub fill_metric: Option<&'a [u64]>,
        pub master_metric: u64,
        pub nfront: usize,
        pub npiv: usize,
        pub sym: Symmetry,
        pub min_rows_per_slave: usize,
    }

    impl SelectionInput<'_> {
        fn max_slaves(&self) -> usize {
            let rows = self.nfront - self.npiv;
            (rows / self.min_rows_per_slave.max(1)).max(1).min(self.candidates.len())
        }
    }

    pub type Assignment = Vec<(usize, usize, usize)>;

    pub fn select_workload(input: &SelectionInput<'_>) -> Assignment {
        let rows = input.nfront - input.npiv;
        if rows == 0 || input.candidates.is_empty() {
            return Vec::new();
        }
        let mut cands: Vec<usize> = input
            .candidates
            .iter()
            .copied()
            .filter(|&p| input.metric[p] < input.master_metric)
            .collect();
        if cands.is_empty() {
            // Nobody is less loaded: take the single least-loaded candidate so
            // the type-2 node still runs in parallel (MUMPS keeps ≥1 slave).
            match input.candidates.iter().min_by_key(|&&p| (input.metric[p], p)) {
                Some(&best) => cands.push(best),
                None => return Vec::new(),
            }
        }
        cands.sort_by_key(|&p| (input.metric[p], p));
        let k = cands.len().min(input.max_slaves()).min(rows);
        let blocks = equal_entry_blocks(input.sym, input.nfront, input.npiv, k);
        cands.truncate(k);
        cands.into_iter().zip(blocks).map(|(proc, (offset, nrows))| (proc, offset, nrows)).collect()
    }

    pub fn select_memory(input: &SelectionInput<'_>) -> Assignment {
        let rows = input.nfront - input.npiv;
        if rows == 0 || input.candidates.is_empty() {
            return Vec::new();
        }
        let mut cands: Vec<usize> = input.candidates.to_vec();
        cands.sort_by_key(|&p| (input.metric[p], p));
        let fill = input.fill_metric.unwrap_or(input.metric);
        let surface = slave_surface(input.sym, input.nfront, input.npiv);
        let kmax = input.max_slaves().min(rows);

        // Largest i (1-based count) whose leveling deficit fits the surface.
        // Candidates are ranked by the (possibly enriched) metric; the
        // deficits level the instantaneous memory of the chosen set.
        let level_of = |cands: &[usize], i: usize| -> u64 {
            cands[..i].iter().map(|&p| fill[p]).max().unwrap_or(0)
        };
        let mut best_i = 1;
        for i in 2..=kmax {
            let level = level_of(&cands, i);
            let deficit: u64 = cands[..i].iter().map(|&p| level - fill[p]).sum();
            if deficit <= surface {
                best_i = i;
            }
        }
        let k = best_i;
        let level = level_of(&cands, k);
        let deficits: Vec<u64> = cands[..k].iter().map(|&p| level - fill[p]).collect();
        let used: u64 = deficits.iter().sum();
        let remaining = surface.saturating_sub(used);
        let extra = remaining / k as u64;
        let budgets: Vec<u64> = deficits.iter().map(|&d| d + extra).collect();
        let blocks = blocks_from_entry_budgets(input.sym, input.nfront, input.npiv, &budgets);
        cands[..k]
            .iter()
            .zip(blocks)
            .map(|(&proc, (offset, nrows))| (proc, offset, nrows))
            .collect()
    }

    pub fn select_hybrid(input: &SelectionInput<'_>, load: &[u64], master_load: u64) -> Assignment {
        let rows = input.nfront - input.npiv;
        if rows == 0 || input.candidates.is_empty() {
            return Vec::new();
        }
        let mut feasible: Vec<usize> =
            input.candidates.iter().copied().filter(|&p| load[p] < master_load).collect();
        if feasible.is_empty() {
            match input.candidates.iter().min_by_key(|&&p| (load[p], p)) {
                Some(&best) => feasible.push(best),
                None => return Vec::new(),
            }
        }
        let narrowed = SelectionInput { candidates: &feasible, ..input.clone() };
        select_memory(&narrowed)
    }

    /// `Views::memory_metric` as it read the views.
    fn memory_metric(v: PeerView, use_subtree: bool, use_prediction: bool) -> u64 {
        let mut m = v.mem;
        if use_subtree {
            m = m.max(v.subtree);
        }
        if use_prediction {
            m += v.predicted;
        }
        m
    }

    /// `SlaveSelection::select` as it derived the metric vectors and
    /// dispatched to the selectors through `input_of`.
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        strategy: SlaveSelection,
        views: &Views,
        master: usize,
        nprocs: usize,
        use_subtree_info: bool,
        use_prediction: bool,
        candidates: &[usize],
        nfront: usize,
        npiv: usize,
        sym: Symmetry,
        min_rows_per_slave: usize,
    ) -> (Assignment, Vec<u64>) {
        let column = |f: fn(PeerView) -> u64| views.iter().map(f).collect::<Vec<u64>>();
        let memory_metric = || -> Vec<u64> {
            (0..nprocs)
                .map(|q| memory_metric(views.get(q), use_subtree_info, use_prediction))
                .collect()
        };
        let ctx = SelectionInput {
            candidates,
            metric: &[],
            fill_metric: None,
            master_metric: 0,
            nfront,
            npiv,
            sym,
            min_rows_per_slave,
        };
        fn input_of<'a>(
            ctx: &SelectionInput<'a>,
            master: usize,
            metric: &'a [u64],
            fill: Option<&'a [u64]>,
        ) -> SelectionInput<'a> {
            SelectionInput {
                metric,
                fill_metric: fill,
                master_metric: metric[master],
                ..ctx.clone()
            }
        }
        match strategy {
            SlaveSelection::Workload => {
                let metric = column(|v| v.load);
                (select_workload(&input_of(&ctx, master, &metric, None)), metric)
            }
            SlaveSelection::Memory => {
                let (metric, mem) = (memory_metric(), column(|v| v.mem));
                (select_memory(&input_of(&ctx, master, &metric, Some(&mem))), metric)
            }
            SlaveSelection::Hybrid => {
                let (metric, mem, load) = (memory_metric(), column(|v| v.mem), column(|v| v.load));
                let input = input_of(&ctx, master, &metric, Some(&mem));
                (select_hybrid(&input, &load, load[master]), metric)
            }
        }
    }
}

const TASK_SELECTIONS: [TaskSelection; 3] =
    [TaskSelection::Lifo, TaskSelection::MemoryAware, TaskSelection::MemoryAwareGlobal];
const SLAVE_SELECTIONS: [SlaveSelection; 3] =
    [SlaveSelection::Workload, SlaveSelection::Memory, SlaveSelection::Hybrid];

/// Processor `p`'s believed (load, mem, subtree, predicted), drawn by
/// proptest.
type Belief = (u64, u64, u64, u64);

/// Master `master`'s views holding `beliefs`, built through the setters.
fn views_of(master: usize, beliefs: &[Belief]) -> Views {
    let load: Vec<u64> = beliefs.iter().map(|b| b.0).collect();
    let mut views = Views::new(master, &load);
    for (p, &(_, mem, subtree, predicted)) in beliefs.iter().enumerate() {
        views.set_mem(p, mem);
        views.set_subtree(p, subtree);
        views.set_predicted(p, predicted);
    }
    views
}

/// The node ids of `tasks`, deduplicated, in draw order (a pool holds
/// each ready task once).
fn pool_of(tasks: &[usize]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    tasks.iter().copied().filter(|&t| seen.insert(t)).collect()
}

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
        beliefs in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..100_000), 2..16),
        nfront in 20usize..400,
        npiv_frac in 0.1f64..0.9,
        min_rows in 1usize..32,
        symmetric in any::<bool>(),
    ) {
        let npiv = ((nfront as f64 * npiv_frac) as usize).clamp(1, nfront - 1);
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
        let views = views_of(0, &beliefs);
        let candidates: Vec<usize> = (1..beliefs.len()).collect();
        let front = FrontSplit { nfront, npiv, sym, min_rows_per_slave: min_rows };
        for strategy in SLAVE_SELECTIONS {
            let ctx = SlaveCtx {
                views: &views,
                master: 0,
                use_subtree_info: true,
                use_prediction: true,
                candidates: &candidates,
                front,
            };
            let (sel, metric) = strategy.select(&ctx);
            // Selected processors are distinct candidates.
            let mut procs: Vec<usize> = sel.iter().map(|a| a.proc).collect();
            procs.sort_unstable();
            procs.dedup();
            prop_assert_eq!(procs.len(), sel.len());
            prop_assert!(sel.iter().all(|a| candidates.contains(&a.proc)));
            // Rows cover the slave part exactly; blocks contiguous; each
            // block carries its own entries, which sum to the surface.
            let mut off = 0;
            for a in &sel {
                prop_assert_eq!(a.offset, off);
                prop_assert!(a.nrows >= 1);
                prop_assert_eq!(a.entries, slave_block_entries(sym, nfront, npiv, a.offset, a.nrows));
                off += a.nrows;
            }
            prop_assert!(!sel.is_empty(), "{:?} left a front unsplit", strategy);
            prop_assert_eq!(off, nfront - npiv);
            let total: u64 = sel.iter().map(|a| a.entries).sum();
            prop_assert_eq!(total, slave_surface(sym, nfront, npiv));
            // Every strategy ranks by its belief: the selection is sorted.
            for w in sel.windows(2) {
                prop_assert!(metric[w[0].proc] <= metric[w[1].proc], "{:?}", strategy);
            }
        }
    }

    #[test]
    fn slave_selection_equals_the_selectors_it_replaced(
        beliefs in prop::collection::vec((0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..2_000), 1..20),
        master in 0usize..20,
        candidate_mask in any::<u32>(),
        nfront in 1usize..200,
        npiv_frac in 0.0f64..1.0,
        min_rows in 0usize..24,
        symmetric in any::<bool>(),
        use_subtree_info in any::<bool>(),
        use_prediction in any::<bool>(),
    ) {
        let nprocs = beliefs.len();
        let master = master % nprocs;
        let npiv = ((nfront as f64 * npiv_frac) as usize).min(nfront);
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
        let views = views_of(master, &beliefs);
        let candidates: Vec<usize> =
            (0..nprocs).filter(|&q| q != master && (candidate_mask >> q) & 1 == 1).collect();
        let front = FrontSplit { nfront, npiv, sym, min_rows_per_slave: min_rows };
        for strategy in SLAVE_SELECTIONS {
            let ctx = SlaveCtx {
                views: &views,
                master,
                use_subtree_info,
                use_prediction,
                candidates: &candidates,
                front,
            };
            let (sel, metric) = strategy.select(&ctx);
            let (want, want_metric) = oracle::select(
                strategy,
                &views,
                master,
                nprocs,
                use_subtree_info,
                use_prediction,
                &candidates,
                nfront,
                npiv,
                sym,
                min_rows,
            );
            let got: oracle::Assignment = sel.iter().map(|a| (a.proc, a.offset, a.nrows)).collect();
            prop_assert_eq!(&got, &want, "{:?}", strategy);
            prop_assert_eq!(&metric, &want_metric, "{:?}", strategy);
            for a in &sel {
                prop_assert_eq!(a.entries, slave_block_entries(sym, nfront, npiv, a.offset, a.nrows));
            }
        }
    }

    #[test]
    fn pool_algorithms_return_every_task_exactly_once(
        tasks in prop::collection::vec(0usize..1_000, 0..30),
        subtree_mask in any::<u32>(),
        admissible_mask in any::<u32>(),
        current in 0u64..5_000,
        peak in 0u64..5_000,
    ) {
        let tasks = pool_of(&tasks);
        let in_subtree = |t: usize| (subtree_mask >> (t % 32)) & 1 == 1;
        let admissible = |t: usize| (admissible_mask >> (t % 32)) & 1 == 1;
        let cost = |t: usize| t as u64 * 10;
        let released = |t: usize| t as u64 * 7 % 3_000;
        for strategy in TASK_SELECTIONS {
            let mut pool = tasks.clone();
            let ctx = TaskCtx {
                in_subtree: &in_subtree,
                cost: &cost,
                released: &released,
                admissible: &admissible,
                current_memory: current,
                observed_peak: peak,
            };
            let mut popped = Vec::new();
            while let Some(t) = strategy.pick(&mut pool, &ctx) {
                prop_assert!(admissible(t), "{:?} returned the inadmissible task {}", strategy, t);
                popped.push(t);
            }
            // What is left is exactly the deferred tasks, in pool order.
            let deferred: Vec<usize> = tasks.iter().copied().filter(|&t| !admissible(t)).collect();
            prop_assert_eq!(&pool, &deferred, "{:?}", strategy);
            popped.extend(pool);
            popped.sort_unstable();
            let mut all = tasks.clone();
            all.sort_unstable();
            prop_assert_eq!(popped, all);
        }
    }

    #[test]
    fn pool_scan_equals_the_pickers_it_replaced(
        tasks in prop::collection::vec(0usize..64, 0..24),
        subtree_mask in any::<u64>(),
        admissible_mask in any::<u64>(),
        costs in prop::collection::vec(0u64..4_000, 64),
        releases in prop::collection::vec(0u64..4_000, 64),
        capped in any::<bool>(),
        current in 0u64..4_000,
        peak in 0u64..8_000,
    ) {
        let tasks = pool_of(&tasks);
        let in_subtree = |t: usize| (subtree_mask >> t) & 1 == 1;
        // Without a cap the core's verdict admits every task.
        let admissible = |t: usize| !capped || (admissible_mask >> t) & 1 == 1;
        let cost = |t: usize| costs[t];
        let released = |t: usize| releases[t];
        let ctx = TaskCtx {
            in_subtree: &in_subtree,
            cost: &cost,
            released: &released,
            admissible: &admissible,
            current_memory: current,
            observed_peak: peak,
        };
        for strategy in TASK_SELECTIONS {
            let (mut pool, mut want_pool) = (tasks.clone(), tasks.clone());
            loop {
                let got = strategy.pick(&mut pool, &ctx);
                let want = oracle::pick(
                    strategy,
                    &mut want_pool,
                    &in_subtree,
                    &cost,
                    &released,
                    &admissible,
                    capped,
                    current,
                    peak,
                );
                prop_assert_eq!(got, want, "{:?}", strategy);
                prop_assert_eq!(&pool, &want_pool, "{:?}", strategy);
                if got.is_none() {
                    break;
                }
            }
        }
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
        perturbed in any::<bool>(),
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
            subtree_peak_factor: subtree_peaks.then_some(1.0),
            fault: perturbed.then(|| FaultModel::intensity(42, 1.0)),
            ..SolverConfig::mumps_baseline(nprocs)
        };
        let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Metis };
        let tree = prepare_tree(&input, split.then_some(2_000));
        let r = run_on_tree(&tree, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert!(r.max_peak > 0);
        // Peak is bounded below by the largest single local allocation and
        // above by the whole tree's front weight.
        let upper: u64 = (0..tree.len()).map(|v| tree.front_entries(v)).sum();
        prop_assert!(r.max_peak <= upper);
    }
}
