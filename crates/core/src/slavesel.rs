//! Dynamic slave selection for type-2 fronts.
//!
//! The master of a type-2 node chooses its slaves at activation time from
//! its (possibly stale) view of the other processors:
//!
//! * the **workload baseline** (Section 3) picks processors less loaded
//!   than itself and balances the *work* given to each;
//! * **Algorithm 1** (Section 4) sorts candidates by *memory* load and
//!   levels memory like water filling a basin, never exceeding the level
//!   of the most-loaded selected processor — so the current peak is
//!   preserved whenever possible (Figure 4).

use crate::blocking::{blocks_from_entry_budgets, equal_entry_blocks, slave_surface};
use crate::config::SlaveSelection;
use crate::views::{PeerView, Views};
use mf_sparse::Symmetry;

/// A slave assignment: processor plus its contiguous row block
/// (`offset` is relative to the first non-pivot row, see
/// [`crate::blocking`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveAssignment {
    /// Selected processor.
    pub proc: usize,
    /// First row of the block (offset within the slave rows).
    pub offset: usize,
    /// Rows in the block.
    pub nrows: usize,
}

/// Inputs of a selection decision.
#[derive(Debug, Clone)]
pub struct SelectionInput<'a> {
    /// Candidate processors (excluding the master).
    pub candidates: &'a [usize],
    /// Metric per processor, indexed by processor id. For the workload
    /// strategy this is flops-still-to-do; for Algorithm 1 it is the
    /// memory metric (instantaneous + subtree + prediction, Section 5.1).
    pub metric: &'a [u64],
    /// Instantaneous memory per processor, used by Algorithm 1 for the
    /// leveling *arithmetic* (the enriched metric ranks and filters the
    /// candidates, but row budgets must level real memory, not projected
    /// peaks). `None` falls back to `metric`.
    pub fill_metric: Option<&'a [u64]>,
    /// The master's own metric value.
    pub master_metric: u64,
    /// Front order.
    pub nfront: usize,
    /// Pivot count.
    pub npiv: usize,
    /// Symmetry (selects the Figure 3 blocking shape).
    pub sym: Symmetry,
    /// Granularity: minimum rows per slave.
    pub min_rows_per_slave: usize,
}

impl SelectionInput<'_> {
    fn max_slaves(&self) -> usize {
        let rows = self.nfront - self.npiv;
        (rows / self.min_rows_per_slave.max(1)).max(1).min(self.candidates.len())
    }
}

/// Workload-based baseline: keep the candidates strictly less loaded than
/// the master (all of them when none is, to avoid starving the front),
/// then give each an equal-entry block (equal work under the 1-D
/// distribution).
pub fn select_workload(input: &SelectionInput<'_>) -> Vec<SlaveAssignment> {
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
    cands
        .into_iter()
        .zip(blocks)
        .map(|(proc, (offset, nrows))| SlaveAssignment { proc, offset, nrows })
        .collect()
}

/// The paper's Algorithm 1: memory-based waterfill.
///
/// Sort candidates by growing memory; find the largest `i` such that the
/// deficit `Σ_{j<i} (MEM[i-1] - MEM[j])` stays below the surface of the
/// slave part; give each selected processor its deficit in entries, then
/// spread the remaining entries equitably.
pub fn select_memory(input: &SelectionInput<'_>) -> Vec<SlaveAssignment> {
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
        .map(|(&proc, (offset, nrows))| SlaveAssignment { proc, offset, nrows })
        .collect()
}

/// The hybrid strategy sketched in the paper's conclusion: "hybrid
/// strategies well adapted at both balancing the workload and the memory
/// need to be designed".
///
/// Candidates are first filtered by workload like the baseline (only
/// processors less loaded than the master, so the makespan is protected),
/// then the *memory* waterfill of Algorithm 1 distributes the rows within
/// that feasible set. `input.metric` must be the memory metric and
/// `load` / `master_load` the workload view.
pub fn select_hybrid(
    input: &SelectionInput<'_>,
    load: &[u64],
    master_load: u64,
) -> Vec<SlaveAssignment> {
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

/// Everything a slave-selection strategy may consult: the master's (stale)
/// [`Views`] of the machine plus the geometry of the front being split.
/// [`SlaveSelection::select`] derives each strategy's metric vectors from
/// the views.
#[derive(Debug)]
pub struct SlaveCtx<'a> {
    /// The master's stale views of every processor.
    pub views: &'a Views,
    /// The deciding (master) processor.
    pub master: usize,
    /// Processors in the machine.
    pub nprocs: usize,
    /// Whether subtree-peak announcements enrich the memory metric.
    pub use_subtree_info: bool,
    /// Whether ready-master predictions enrich the memory metric.
    pub use_prediction: bool,
    /// Candidate processors (the capacity re-selection loop shrinks this).
    pub candidates: &'a [usize],
    /// Front order.
    pub nfront: usize,
    /// Pivot count.
    pub npiv: usize,
    /// Symmetry (selects the Figure 3 blocking shape).
    pub sym: Symmetry,
    /// Granularity: minimum rows per slave.
    pub min_rows_per_slave: usize,
}

fn input_of<'a>(
    ctx: &'a SlaveCtx<'_>,
    metric: &'a [u64],
    fill: Option<&'a [u64]>,
) -> SelectionInput<'a> {
    SelectionInput {
        candidates: ctx.candidates,
        metric,
        fill_metric: fill,
        master_metric: metric[ctx.master],
        nfront: ctx.nfront,
        npiv: ctx.npiv,
        sym: ctx.sym,
        min_rows_per_slave: ctx.min_rows_per_slave,
    }
}

impl SlaveSelection {
    /// One selection decision over `ctx.candidates`: the assignment plus
    /// the per-processor metric vector it was made from (the flight
    /// recorder captures what the master *believed*, not what was true).
    pub fn select(self, ctx: &SlaveCtx<'_>) -> (Vec<SlaveAssignment>, Vec<u64>) {
        let column = |f: fn(PeerView) -> u64| ctx.views.iter().map(f).collect::<Vec<u64>>();
        let memory_metric = || -> Vec<u64> {
            (0..ctx.nprocs)
                .map(|q| ctx.views.memory_metric(q, ctx.use_subtree_info, ctx.use_prediction))
                .collect()
        };
        match self {
            SlaveSelection::Workload => {
                let metric = column(|v| v.load);
                (select_workload(&input_of(ctx, &metric, None)), metric)
            }
            SlaveSelection::Memory => {
                let (metric, mem) = (memory_metric(), column(|v| v.mem));
                (select_memory(&input_of(ctx, &metric, Some(&mem))), metric)
            }
            SlaveSelection::Hybrid => {
                let (metric, mem, load) = (memory_metric(), column(|v| v.mem), column(|v| v.load));
                let input = input_of(ctx, &metric, Some(&mem));
                (select_hybrid(&input, &load, load[ctx.master]), metric)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::slave_block_entries;

    fn input<'a>(
        candidates: &'a [usize],
        metric: &'a [u64],
        master_metric: u64,
        nfront: usize,
        npiv: usize,
    ) -> SelectionInput<'a> {
        SelectionInput {
            candidates,
            metric,
            fill_metric: None,
            master_metric,
            nfront,
            npiv,
            sym: Symmetry::General,
            min_rows_per_slave: 4,
        }
    }

    #[test]
    fn workload_prefers_less_loaded() {
        let metric = vec![500, 100, 900, 50];
        let cands = [1, 2, 3];
        let sel = select_workload(&input(&cands, &metric, 600, 40, 10));
        let procs: Vec<usize> = sel.iter().map(|s| s.proc).collect();
        assert_eq!(procs, vec![3, 1]); // 900 is busier than the master
        let rows: usize = sel.iter().map(|s| s.nrows).sum();
        assert_eq!(rows, 30);
    }

    #[test]
    fn workload_falls_back_to_least_loaded() {
        let metric = vec![0, 800, 900];
        let cands = [1, 2];
        let sel = select_workload(&input(&cands, &metric, 100, 40, 10));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 1);
        assert_eq!(sel[0].nrows, 30);
    }

    #[test]
    fn memory_levels_without_raising_peak() {
        // Figure 4's situation: uneven memories; the fill must bring the
        // selected processors to (at most) a common level bounded by the
        // highest selected processor's memory plus its equal share.
        let metric = vec![0, 1000, 200, 600];
        let cands = [1, 2, 3];
        let inp = input(&cands, &metric, 0, 50, 20);
        let sel = select_memory(&inp);
        assert!(!sel.is_empty());
        // Candidates chosen in growing memory order: 2 (200), 3 (600), ...
        assert_eq!(sel[0].proc, 2);
        // Every row distributed exactly once.
        let rows: usize = sel.iter().map(|s| s.nrows).sum();
        assert_eq!(rows, 30);
        let mut off = 0;
        for s in &sel {
            assert_eq!(s.offset, off);
            off += s.nrows;
        }
        // The lower-memory slave must receive at least as many entries as
        // the higher-memory one (the leveling property).
        if sel.len() >= 2 {
            let e0 = slave_block_entries(Symmetry::General, 50, 20, sel[0].offset, sel[0].nrows);
            let e1 = slave_block_entries(Symmetry::General, 50, 20, sel[1].offset, sel[1].nrows);
            assert!(e0 >= e1, "{e0} < {e1}");
        }
    }

    #[test]
    fn memory_uses_fewest_procs_that_fit() {
        // Tiny front: leveling even two procs would exceed the surface, so
        // only the least-loaded is chosen (the "smallest set" property).
        let metric = vec![0, 10_000, 0];
        let cands = [1, 2];
        let inp = SelectionInput { min_rows_per_slave: 1, ..input(&cands, &metric, 0, 12, 4) };
        let sel = select_memory(&inp);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 2);
        assert_eq!(sel[0].nrows, 8);
    }

    #[test]
    fn memory_with_equal_memories_splits_equitably() {
        let metric = vec![0, 100, 100, 100];
        let cands = [1, 2, 3];
        let inp = SelectionInput { min_rows_per_slave: 1, ..input(&cands, &metric, 0, 60, 30) };
        let sel = select_memory(&inp);
        assert_eq!(sel.len(), 3);
        let rows: Vec<usize> = sel.iter().map(|s| s.nrows).collect();
        assert_eq!(rows.iter().sum::<usize>(), 30);
        assert!(rows.iter().all(|&r| r == 10), "{rows:?}");
    }

    #[test]
    fn granularity_limits_slave_count() {
        let metric = vec![0; 10];
        let cands: Vec<usize> = (1..10).collect();
        // 20 slave rows, min 8 rows/slave -> at most 2 slaves.
        let inp = SelectionInput { min_rows_per_slave: 8, ..input(&cands, &metric, 0, 30, 10) };
        assert!(select_memory(&inp).len() <= 2);
        assert!(select_workload(&inp).len() <= 2);
    }

    #[test]
    fn no_candidates_means_no_slaves() {
        let metric = vec![0];
        let sel = select_memory(&input(&[], &metric, 0, 30, 10));
        assert!(sel.is_empty());
    }

    #[test]
    fn hybrid_respects_the_workload_filter() {
        // Proc 3 has the least memory but too much work: the hybrid must
        // exclude it and waterfill memory among the less-loaded ones.
        let mem = vec![0, 500, 900, 50];
        let load = vec![1000, 100, 200, 5000];
        let cands = [1, 2, 3];
        let inp = input(&cands, &mem, 0, 50, 20);
        let sel = select_hybrid(&inp, &load, 900);
        assert!(!sel.is_empty());
        assert!(sel.iter().all(|a| a.proc != 3), "{sel:?}");
        // Memory ordering within the feasible set: proc 1 (mem 500) before
        // proc 2 (mem 900).
        assert_eq!(sel[0].proc, 1);
    }

    #[test]
    fn hybrid_falls_back_to_least_loaded() {
        let mem = vec![0, 10, 20];
        let load = vec![0, 900, 800];
        let cands = [1, 2];
        let inp = input(&cands, &mem, 0, 50, 20);
        let sel = select_hybrid(&inp, &load, 100);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 2); // least loaded wins the fallback
        assert_eq!(sel[0].nrows, 30);
    }

    #[test]
    fn each_strategy_derives_its_own_metric_from_the_views() {
        // Master 0 and three candidates with every view field distinct:
        // proc 2 is the busiest and heads for a 5000-entry subtree peak,
        // proc 3 is the idlest and about to activate a 3000-entry master.
        let mut views = Views::new(0, &[600, 100, 900, 50]);
        views.set_mem(1, 1000);
        views.set_mem(2, 100);
        views.set_subtree(2, 5000);
        views.set_mem(3, 600);
        views.set_predicted(3, 3000);
        let (load, mem) = (vec![600, 100, 900, 50], vec![0, 1000, 100, 600]);
        let cands = [1, 2, 3];
        let ctx = |use_subtree_info, use_prediction| SlaveCtx {
            views: &views,
            master: 0,
            nprocs: 4,
            use_subtree_info,
            use_prediction,
            candidates: &cands,
            nfront: 100,
            npiv: 20,
            sym: Symmetry::General,
            min_rows_per_slave: 4,
        };
        let by_hand = |metric: &[u64], fill_metric: Option<&[u64]>| {
            let inp = input(&cands, metric, metric[0], 100, 20);
            select_memory(&SelectionInput { fill_metric, ..inp })
        };
        let procs = |sel: &[SlaveAssignment]| sel.iter().map(|a| a.proc).collect::<Vec<_>>();

        // Workload: loads, whatever the Section 5.1 flags say; only the
        // processors less loaded than the master, idlest first.
        let (sel, metric) = SlaveSelection::Workload.select(&ctx(true, true));
        assert_eq!(metric, load);
        assert_eq!(procs(&sel), vec![3, 1]);

        // Memory and Hybrid: the memory metric under each flag pair.
        for (sub, pred) in [(false, false), (true, false), (false, true), (true, true)] {
            let want: Vec<u64> = (0..4).map(|q| views.memory_metric(q, sub, pred)).collect();
            for strategy in [SlaveSelection::Memory, SlaveSelection::Hybrid] {
                assert_eq!(strategy.select(&ctx(sub, pred)).1, want, "{strategy:?} {sub} {pred}");
            }
        }

        // Memory ranks by the enriched metric (1, 3, 2) but levels the
        // instantaneous memories 1000 / 600 / 100: the later a slave
        // ranks here, the more rows it takes. Levelling the enriched
        // metric would hand out the opposite budgets.
        let enriched = [0, 1000, 5000, 3600];
        let (sel, metric) = SlaveSelection::Memory.select(&ctx(true, true));
        assert_eq!(metric, enriched);
        assert_eq!(sel, by_hand(&enriched, Some(&mem)));
        assert_eq!(procs(&sel), vec![1, 3, 2]);
        assert!(sel[0].nrows < sel[1].nrows && sel[1].nrows < sel[2].nrows, "{sel:?}");
        let on_metric = by_hand(&enriched, None);
        assert!(on_metric[0].nrows > on_metric[2].nrows, "{on_metric:?}");

        // Flags off, the least-memory processor 2 leads Algorithm 1; the
        // hybrid drops it for carrying more work than the master.
        let (sel, _) = SlaveSelection::Memory.select(&ctx(false, false));
        assert_eq!(sel, by_hand(&mem, Some(&mem)));
        assert_eq!(sel[0].proc, 2);
        let (sel, _) = SlaveSelection::Hybrid.select(&ctx(false, false));
        let inp = SelectionInput { fill_metric: Some(&mem), ..input(&cands, &mem, 0, 100, 20) };
        assert_eq!(sel, select_hybrid(&inp, &load, 600));
        assert_eq!(procs(&sel), vec![3, 1]);
    }

    #[test]
    fn deterministic_tie_break_by_proc_id() {
        let metric = vec![0, 7, 7, 7];
        let cands = [3, 1, 2];
        let sel = select_memory(&input(&cands, &metric, 0, 40, 20));
        assert_eq!(sel[0].proc, 1);
    }
}
