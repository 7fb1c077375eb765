//! Dynamic slave selection for type-2 fronts.
//!
//! The master of a type-2 node chooses its slaves at activation time from
//! its (possibly stale) view of the other processors. Every strategy runs
//! the same three steps; each step has one arm per strategy:
//!
//! | step       | `Workload` (Section 3) | `Memory` (Algorithm 1)   | `Hybrid` (conclusion)    |
//! |------------|------------------------|--------------------------|--------------------------|
//! | candidates | less loaded than me    | all                      | less loaded than me      |
//! | belief     | workload               | memory metric            | memory metric            |
//! | split      | equal entries          | waterfill on memory      | waterfill on memory      |
//!
//! * **Candidates** — the workload filter keeps the processors strictly
//!   less loaded than the master, or the least-loaded one when none is.
//! * **Belief** — the per-processor metric the candidates are ranked by,
//!   lowest first; the flight recorder captures it as
//!   `SlaveChoice.metric`. The memory metric is the instantaneous memory
//!   enriched by the Section 5.1 announcements.
//! * **Split** — the equal-entry split balances the *work* given to each
//!   slave (the 1-D distribution); Algorithm 1 levels *instantaneous*
//!   memory like water filling a basin, never above the level of the
//!   most-loaded selected processor, so the current peak is preserved
//!   whenever possible (Figure 4).
//!
//! The granularity (`min_rows_per_slave`) caps the number of slaves.

use crate::blocking::{
    blocks_from_entry_budgets, equal_entry_blocks, slave_block_entries, slave_surface,
};
use crate::config::SlaveSelection;
use crate::views::Views;
use mf_sparse::Symmetry;

/// A slave assignment: processor plus its contiguous row block
/// (`offset` is relative to the first non-pivot row, see
/// [`crate::blocking`]) and the entries that block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveAssignment {
    /// Selected processor.
    pub proc: usize,
    /// First row of the block (offset within the slave rows).
    pub offset: usize,
    /// Rows in the block.
    pub nrows: usize,
    /// Entries of the block ([`slave_block_entries`]).
    pub entries: u64,
}

/// The geometry of the type-2 front being split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontSplit {
    /// Front order.
    pub nfront: usize,
    /// Pivot count (the master's rows).
    pub npiv: usize,
    /// Symmetry (selects the Figure 3 blocking shape).
    pub sym: Symmetry,
    /// Granularity: minimum rows per slave.
    pub min_rows_per_slave: usize,
}

impl FrontSplit {
    /// Assigns `blocks` to `procs` in order.
    fn assign(self, procs: &[usize], blocks: Vec<(usize, usize)>) -> Vec<SlaveAssignment> {
        let FrontSplit { nfront, npiv, sym, .. } = self;
        procs
            .iter()
            .zip(blocks)
            .map(|(&proc, (offset, nrows))| SlaveAssignment {
                proc,
                offset,
                nrows,
                entries: slave_block_entries(sym, nfront, npiv, offset, nrows),
            })
            .collect()
    }
}

/// Everything a slave-selection strategy may consult: the master's (stale)
/// [`Views`] of the machine plus the geometry of the front being split.
#[derive(Debug)]
pub struct SlaveCtx<'a> {
    /// The master's stale views of every processor.
    pub views: &'a Views,
    /// The deciding (master) processor.
    pub master: usize,
    /// Whether subtree-peak announcements enrich the memory metric.
    pub use_subtree_info: bool,
    /// Whether ready-master predictions enrich the memory metric.
    pub use_prediction: bool,
    /// Candidate processors (the capacity re-selection loop shrinks this).
    pub candidates: &'a [usize],
    /// The front being split.
    pub front: FrontSplit,
}

/// The candidates strictly less loaded than `master`; when none is, the
/// single least-loaded one, so the type-2 node still runs in parallel
/// (MUMPS keeps at least one slave).
fn less_loaded(views: &Views, master: usize, candidates: &[usize]) -> Vec<usize> {
    let load = |p: usize| views.get(p).load;
    let below: Vec<usize> =
        candidates.iter().copied().filter(|&p| load(p) < load(master)).collect();
    if !below.is_empty() {
        return below;
    }
    candidates.iter().copied().min_by_key(|&p| (load(p), p)).into_iter().collect()
}

/// The paper's Algorithm 1 over `ranked` (candidates, best first): find
/// the largest `i` such that the deficit `Σ_{j<i} (MEM[i-1] - MEM[j])`
/// stays within the surface of the slave part, give each of those `i`
/// processors its deficit in entries, then spread the remaining entries
/// equitably. `MEM` is the instantaneous memory: the belief ranks the
/// candidates, but the budgets must level real memory, not projections.
fn waterfill(front: FrontSplit, ranked: &[usize], views: &Views) -> Vec<SlaveAssignment> {
    let mem: Vec<u64> = ranked.iter().map(|&p| views.get(p).mem).collect();
    let surface = slave_surface(front.sym, front.nfront, front.npiv);
    // The level of the first `i` candidates and what it takes to fill
    // them all up to it.
    let fill = |i: usize| {
        let level = mem[..i].iter().copied().max().unwrap_or(0);
        (level, mem[..i].iter().map(|&m| level - m).sum::<u64>())
    };
    let k = (2..=mem.len()).rev().find(|&i| fill(i).1 <= surface).unwrap_or(1);
    let (level, deficit) = fill(k);
    let extra = surface.saturating_sub(deficit) / k as u64;
    let budgets: Vec<u64> = mem[..k].iter().map(|&m| level - m + extra).collect();
    let blocks = blocks_from_entry_budgets(front.sym, front.nfront, front.npiv, &budgets);
    front.assign(ranked, blocks)
}

impl SlaveSelection {
    /// One selection decision over `ctx.candidates`: the assignment plus
    /// the per-processor metric vector it was made from (the flight
    /// recorder captures what the master *believed*, not what was true).
    pub fn select(self, ctx: &SlaveCtx<'_>) -> (Vec<SlaveAssignment>, Vec<u64>) {
        let SlaveCtx { views, master, use_subtree_info, use_prediction, candidates, front } = *ctx;
        let metric: Vec<u64> = views
            .iter()
            .map(|v| match self {
                SlaveSelection::Workload => v.load,
                SlaveSelection::Memory | SlaveSelection::Hybrid => {
                    v.memory_metric(use_subtree_info, use_prediction)
                }
            })
            .collect();
        let rows = front.nfront - front.npiv;
        if rows == 0 || candidates.is_empty() {
            return (Vec::new(), metric);
        }
        let mut ranked = match self {
            SlaveSelection::Memory => candidates.to_vec(),
            SlaveSelection::Workload | SlaveSelection::Hybrid => {
                less_loaded(views, master, candidates)
            }
        };
        ranked.sort_by_key(|&p| (metric[p], p));
        ranked.truncate((rows / front.min_rows_per_slave.max(1)).max(1));
        let assignment = match self {
            SlaveSelection::Workload => {
                let blocks = equal_entry_blocks(front.sym, front.nfront, front.npiv, ranked.len());
                front.assign(&ranked, blocks)
            }
            SlaveSelection::Memory | SlaveSelection::Hybrid => waterfill(front, &ranked, views),
        };
        (assignment, metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Master 0's views: `load` and `mem` per processor.
    fn machine(load: &[u64], mem: &[u64]) -> Views {
        let mut v = Views::new(0, load);
        for (p, &m) in mem.iter().enumerate() {
            v.set_mem(p, m);
        }
        v
    }

    fn front(nfront: usize, npiv: usize, min_rows_per_slave: usize) -> FrontSplit {
        FrontSplit { nfront, npiv, sym: Symmetry::General, min_rows_per_slave }
    }

    /// One decision by master 0 without the Section 5.1 enrichments.
    fn select(
        strategy: SlaveSelection,
        views: &Views,
        candidates: &[usize],
        front: FrontSplit,
    ) -> Vec<SlaveAssignment> {
        let ctx = SlaveCtx {
            views,
            master: 0,
            use_subtree_info: false,
            use_prediction: false,
            candidates,
            front,
        };
        strategy.select(&ctx).0
    }

    const ALL: [SlaveSelection; 3] =
        [SlaveSelection::Workload, SlaveSelection::Memory, SlaveSelection::Hybrid];

    #[test]
    fn workload_prefers_less_loaded() {
        let v = machine(&[600, 100, 900, 50], &[0; 4]);
        let sel = select(SlaveSelection::Workload, &v, &[1, 2, 3], front(40, 10, 4));
        let procs: Vec<usize> = sel.iter().map(|s| s.proc).collect();
        assert_eq!(procs, vec![3, 1]); // 900 is busier than the master
        let rows: usize = sel.iter().map(|s| s.nrows).sum();
        assert_eq!(rows, 30);
    }

    #[test]
    fn workload_falls_back_to_least_loaded() {
        let v = machine(&[100, 800, 900], &[0; 3]);
        let sel = select(SlaveSelection::Workload, &v, &[1, 2], front(40, 10, 4));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 1);
        assert_eq!(sel[0].nrows, 30);
    }

    #[test]
    fn memory_levels_without_raising_peak() {
        // Figure 4's situation: uneven memories; the fill must bring the
        // selected processors to (at most) a common level bounded by the
        // highest selected processor's memory plus its equal share.
        let v = machine(&[0; 4], &[0, 1000, 200, 600]);
        let sel = select(SlaveSelection::Memory, &v, &[1, 2, 3], front(50, 20, 4));
        assert!(!sel.is_empty());
        // Candidates chosen in growing memory order: 2 (200), 3 (600), ...
        assert_eq!(sel[0].proc, 2);
        // Every row distributed exactly once, each block's entries its own.
        let rows: usize = sel.iter().map(|s| s.nrows).sum();
        assert_eq!(rows, 30);
        let mut off = 0;
        for s in &sel {
            assert_eq!(s.offset, off);
            assert_eq!(s.entries, slave_block_entries(Symmetry::General, 50, 20, off, s.nrows));
            off += s.nrows;
        }
        // The lower-memory slave must receive at least as many entries as
        // the higher-memory one (the leveling property).
        if sel.len() >= 2 {
            assert!(sel[0].entries >= sel[1].entries, "{sel:?}");
        }
    }

    #[test]
    fn memory_uses_fewest_procs_that_fit() {
        // Tiny front: leveling even two procs would exceed the surface, so
        // only the least-loaded is chosen (the "smallest set" property).
        let v = machine(&[0; 3], &[0, 10_000, 0]);
        let sel = select(SlaveSelection::Memory, &v, &[1, 2], front(12, 4, 1));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 2);
        assert_eq!(sel[0].nrows, 8);
    }

    #[test]
    fn memory_with_equal_memories_splits_equitably() {
        let v = machine(&[0; 4], &[0, 100, 100, 100]);
        let sel = select(SlaveSelection::Memory, &v, &[1, 2, 3], front(60, 30, 1));
        assert_eq!(sel.len(), 3);
        let rows: Vec<usize> = sel.iter().map(|s| s.nrows).collect();
        assert_eq!(rows.iter().sum::<usize>(), 30);
        assert!(rows.iter().all(|&r| r == 10), "{rows:?}");
    }

    #[test]
    fn granularity_limits_slave_count() {
        let v = machine(&[0; 10], &[0; 10]);
        let cands: Vec<usize> = (1..10).collect();
        // 20 slave rows, min 8 rows/slave -> at most 2 slaves.
        for strategy in ALL {
            assert!(select(strategy, &v, &cands, front(30, 10, 8)).len() <= 2, "{strategy:?}");
        }
    }

    #[test]
    fn no_candidates_means_no_slaves() {
        let v = machine(&[0], &[0]);
        for strategy in ALL {
            assert!(select(strategy, &v, &[], front(30, 10, 4)).is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn hybrid_respects_the_workload_filter() {
        // Proc 3 has the least memory but too much work: the hybrid must
        // exclude it and waterfill memory among the less-loaded ones.
        let v = machine(&[900, 100, 200, 5000], &[0, 500, 900, 50]);
        let sel = select(SlaveSelection::Hybrid, &v, &[1, 2, 3], front(50, 20, 4));
        assert!(!sel.is_empty());
        assert!(sel.iter().all(|a| a.proc != 3), "{sel:?}");
        // Memory ordering within the feasible set: proc 1 (mem 500) before
        // proc 2 (mem 900).
        assert_eq!(sel[0].proc, 1);
    }

    #[test]
    fn hybrid_falls_back_to_least_loaded() {
        let v = machine(&[100, 900, 800], &[0, 10, 20]);
        let sel = select(SlaveSelection::Hybrid, &v, &[1, 2], front(50, 20, 4));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].proc, 2); // least loaded wins the fallback
        assert_eq!(sel[0].nrows, 30);
    }

    #[test]
    fn each_strategy_derives_its_own_metric_from_the_views() {
        // Master 0 and three candidates with every view field distinct:
        // proc 2 is the busiest and heads for a 5000-entry subtree peak,
        // proc 3 is the idlest and about to activate a 3000-entry master.
        let load = [600, 100, 900, 50];
        let mut views = machine(&load, &[0, 1000, 100, 600]);
        views.set_subtree(2, 5000);
        views.set_predicted(3, 3000);
        let cands = [1, 2, 3];
        let split = front(100, 20, 4);
        let ctx = |use_subtree_info, use_prediction| SlaveCtx {
            views: &views,
            master: 0,
            use_subtree_info,
            use_prediction,
            candidates: &cands,
            front: split,
        };
        let procs = |sel: &[SlaveAssignment]| sel.iter().map(|a| a.proc).collect::<Vec<_>>();

        // Workload: loads, whatever the Section 5.1 flags say; only the
        // processors less loaded than the master, idlest first.
        let (sel, metric) = SlaveSelection::Workload.select(&ctx(true, true));
        assert_eq!(metric, load);
        assert_eq!(procs(&sel), vec![3, 1]);

        // Memory and Hybrid: the memory metric under each flag pair.
        for (sub, pred) in [(false, false), (true, false), (false, true), (true, true)] {
            let want: Vec<u64> = views.iter().map(|v| v.memory_metric(sub, pred)).collect();
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
        assert_eq!(sel, waterfill(split, &[1, 3, 2], &views));
        assert_eq!(procs(&sel), vec![1, 3, 2]);
        assert!(sel[0].nrows < sel[1].nrows && sel[1].nrows < sel[2].nrows, "{sel:?}");
        let on_metric = waterfill(split, &[1, 3, 2], &machine(&load, &enriched));
        assert!(on_metric[0].nrows > on_metric[2].nrows, "{on_metric:?}");

        // Flags off, the least-memory processor 2 leads Algorithm 1; the
        // hybrid drops it for carrying more work than the master.
        let (sel, _) = SlaveSelection::Memory.select(&ctx(false, false));
        assert_eq!(sel, waterfill(split, &[2, 3, 1], &views));
        assert_eq!(sel[0].proc, 2);
        let (sel, _) = SlaveSelection::Hybrid.select(&ctx(false, false));
        assert_eq!(sel, waterfill(split, &[3, 1], &views));
        assert_eq!(procs(&sel), vec![3, 1]);
    }

    #[test]
    fn deterministic_tie_break_by_proc_id() {
        let v = machine(&[0; 4], &[0, 7, 7, 7]);
        let sel = select(SlaveSelection::Memory, &v, &[3, 1, 2], front(40, 20, 4));
        assert_eq!(sel[0].proc, 1);
    }
}
