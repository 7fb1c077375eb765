//! Per-processor pool of ready tasks (Section 5.2) and the one decision
//! taken over it.
//!
//! The pool holds the ready tasks statically assigned to a processor as a
//! stack (`Vec<usize>`, top at the back). Every strategy runs the same
//! scan from the top: it takes the topmost admissible task that is in a
//! leaf subtree (subtrees proceed depth-first) or passes the strategy's
//! memory test; when none qualifies it takes the strategy's fallback.
//!
//! | strategy            | memory test                           | fallback           |
//! |---------------------|---------------------------------------|--------------------|
//! | `Lifo`              | always passes (Figure 7)              | topmost admissible |
//! | `MemoryAware`       | `cost + current ≤ peak` (Algorithm 2) | topmost admissible |
//! | `MemoryAwareGlobal` | `cost − released + current ≤ peak`    | largest release    |
//!
//! `peak` is the memory peak observed since the beginning of the
//! factorization: Algorithm 2 delays the upper-tree tasks that would raise
//! it (Figure 8). The global variant is Section 6's refinement — a task's
//! cost is offset by the contribution blocks its activation frees.

use crate::config::TaskSelection;

/// Everything a task-selection strategy may consult when picking the next
/// ready task from a pool. The closures close over the deciding
/// processor's state (tree geometry, stacked contribution blocks, the
/// capacity verdict), so strategies stay independent of the scheduler's
/// internals.
pub struct TaskCtx<'a> {
    /// Whether a node belongs to a leaf subtree (depth-first priority).
    pub in_subtree: &'a dyn Fn(usize) -> bool,
    /// Activation cost of a node on its owner, in entries.
    pub cost: &'a dyn Fn(usize) -> u64,
    /// Contribution-block entries (local and remote) an activation frees.
    pub released: &'a dyn Fn(usize) -> u64,
    /// Hard-capacity admissibility verdict (always true without a cap).
    pub admissible: &'a dyn Fn(usize) -> bool,
    /// Algorithm 2's "current memory (including peak of subtree)".
    pub current_memory: u64,
    /// Peak observed since the beginning of the factorization.
    pub observed_peak: u64,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("current_memory", &self.current_memory)
            .field("observed_peak", &self.observed_peak)
            .finish_non_exhaustive()
    }
}

impl TaskSelection {
    /// Picks (and removes) the next task from `pool`. Only admissible
    /// tasks are returned; `None` over a non-empty pool means every ready
    /// task was deferred by the capacity verdict and the processor stalls
    /// until memory frees.
    pub fn pick(self, pool: &mut Vec<usize>, ctx: &TaskCtx<'_>) -> Option<usize> {
        let TaskCtx { in_subtree, cost, released, admissible, current_memory, observed_peak } =
            *ctx;
        let fits = |t: usize| match self {
            TaskSelection::Lifo => true,
            TaskSelection::MemoryAware => cost(t) + current_memory <= observed_peak,
            TaskSelection::MemoryAwareGlobal => {
                cost(t).saturating_sub(released(t)) + current_memory <= observed_peak
            }
        };
        let idx = match pool.iter().rposition(|&t| admissible(t) && (in_subtree(t) || fits(t))) {
            Some(idx) => idx,
            // Nothing fits: the factorization must progress even if the
            // peak grows — the global variant frees the most it can.
            None if self == TaskSelection::MemoryAwareGlobal => (0..pool.len())
                .filter(|&i| admissible(pool[i]))
                .max_by_key(|&i| (released(pool[i]), std::cmp::Reverse(cost(pool[i]))))?,
            None => pool.iter().rposition(|&t| admissible(t))?,
        };
        Some(pool.remove(idx))
    }
}

/// Removes `node` from `pool` (a forced activation or a recovery plan
/// takes it out of turn). Returns `false` when the task is not there.
pub fn remove_task(pool: &mut Vec<usize>, node: usize) -> bool {
    match pool.iter().rposition(|&t| t == node) {
        Some(idx) => {
            pool.remove(idx);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One decision over `pool` with the given consultations.
    #[allow(clippy::too_many_arguments)]
    fn pick(
        strategy: TaskSelection,
        pool: &mut Vec<usize>,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        released: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let ctx = TaskCtx {
            in_subtree: &in_subtree,
            cost: &cost,
            released: &released,
            admissible: &admissible,
            current_memory,
            observed_peak,
        };
        strategy.pick(pool, &ctx)
    }

    /// Algorithm 2 without releases.
    fn memory_aware(
        pool: &mut Vec<usize>,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let strategy = TaskSelection::MemoryAware;
        pick(strategy, pool, in_subtree, cost, |_| 0, current_memory, observed_peak, admissible)
    }

    /// LIFO under an admissibility verdict.
    fn lifo(pool: &mut Vec<usize>, admissible: impl Fn(usize) -> bool) -> Option<usize> {
        pick(TaskSelection::Lifo, pool, |_| false, |_| 0, |_| 0, 0, 0, admissible)
    }

    #[test]
    fn lifo_pops_in_reverse_push_order() {
        let mut p = vec![1, 2];
        p.push(3);
        assert_eq!(lifo(&mut p, |_| true), Some(3));
        assert_eq!(lifo(&mut p, |_| true), Some(2));
        assert_eq!(lifo(&mut p, |_| true), Some(1));
        assert_eq!(lifo(&mut p, |_| true), None);
    }

    #[test]
    fn subtree_top_taken_unconditionally() {
        let mut p = vec![10, 20];
        // 20 is in a subtree; its cost would blow the peak, but it still
        // goes first.
        let got = memory_aware(&mut p, |t| t == 20, |_| 1_000_000, 999, 1_000, |_| true);
        assert_eq!(got, Some(20));
    }

    #[test]
    fn big_upper_task_is_delayed() {
        // Figure 8: the top task (100) is a huge upper-tree node; the one
        // below (5) fits under the observed peak and runs first.
        let mut p = vec![5, 100];
        let got = memory_aware(&mut p, |_| false, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(5));
        assert_eq!(p, [100]);
    }

    #[test]
    fn subtree_task_deeper_in_pool_is_preferred() {
        let mut p = vec![7, 8, 100];
        // 100 too big, 8 too big but in a subtree.
        let got = memory_aware(&mut p, |t| t == 8, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(8));
        assert_eq!(p, [7, 100]);
    }

    #[test]
    fn falls_back_to_top_when_nothing_fits() {
        let mut p = vec![70, 100];
        let got = memory_aware(&mut p, |_| false, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(100));
    }

    #[test]
    fn fitting_top_task_is_taken_directly() {
        let mut p = vec![70, 5];
        let got = memory_aware(&mut p, |_| false, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(5));
    }

    #[test]
    fn empty_pool_returns_none() {
        for strategy in
            [TaskSelection::Lifo, TaskSelection::MemoryAware, TaskSelection::MemoryAwareGlobal]
        {
            assert_eq!(
                pick(strategy, &mut Vec::new(), |_| false, |_| 0, |_| 0, 0, 0, |_| true),
                None
            );
        }
    }

    #[test]
    fn global_variant_offsets_cost_by_released_cbs() {
        // Task 100 looks too big, but activating it releases 80 entries of
        // stacked CBs: its net cost (20) fits under the observed peak.
        let mut p = vec![100];
        let released = |t| if t == 100 { 80 } else { 0 };
        let got = pick(
            TaskSelection::MemoryAwareGlobal,
            &mut p,
            |_| false,
            |t| t as u64,
            released,
            50,
            75,
            |_| true,
        );
        assert_eq!(got, Some(100));
    }

    #[test]
    fn inadmissible_tasks_are_deferred() {
        // Hard capacity: nothing admissible -> None, the pool is intact.
        let mut p = vec![5, 100];
        let got = memory_aware(&mut p, |_| false, |t| t as u64, 0, 1_000, |_| false);
        assert_eq!(got, None);
        assert_eq!(p, [5, 100]);
        // A subtree task at the top is also held back when inadmissible.
        let got = memory_aware(&mut p, |t| t == 100, |t| t as u64, 0, 1_000, |t| t != 100);
        assert_eq!(got, Some(5));
        assert_eq!(p, [100]);
    }

    #[test]
    fn lifo_admissible_takes_topmost_fitting_task() {
        let mut p = vec![1, 2, 3];
        assert_eq!(lifo(&mut p, |t| t != 3), Some(2));
        assert_eq!(p, [1, 3]);
        assert_eq!(lifo(&mut p, |_| false), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn each_strategy_runs_its_own_algorithm() {
        // Task 100 releases 80 entries of stacked CBs; task 200 is refused
        // by the capacity verdict when one is configured. At 50 entries
        // held and a peak of 75 the three strategies take three different
        // tasks.
        let pick = |strategy: TaskSelection, capped: bool| {
            let admissible = |t| !capped || t != 200;
            let released = |t| if t == 100 { 80 } else { 0 };
            pick(
                strategy,
                &mut vec![5, 100, 200],
                |_| false,
                |t| t as u64,
                released,
                50,
                75,
                admissible,
            )
        };
        // LIFO takes the top unless the verdict refuses it.
        assert_eq!(pick(TaskSelection::Lifo, false), Some(200));
        assert_eq!(pick(TaskSelection::Lifo, true), Some(100));
        // Algorithm 2: 100 + 50 > 75, so the small task goes first ...
        assert_eq!(pick(TaskSelection::MemoryAware, true), Some(5));
        // ... unless the release is counted: 100 - 80 + 50 <= 75.
        assert_eq!(pick(TaskSelection::MemoryAwareGlobal, true), Some(100));
    }

    #[test]
    fn remove_task_extracts_a_specific_node() {
        let mut p = vec![4, 9, 6];
        assert!(remove_task(&mut p, 9));
        assert!(!remove_task(&mut p, 9));
        assert_eq!(p, [4, 6]);
    }

    #[test]
    fn global_fallback_prefers_the_biggest_release() {
        // Nothing fits; the fallback picks the task freeing the most.
        let mut p = vec![60, 70];
        let released = |t| if t == 60 { 10 } else { 0 };
        let got = pick(
            TaskSelection::MemoryAwareGlobal,
            &mut p,
            |_| false,
            |t| t as u64,
            released,
            50,
            10,
            |_| true,
        );
        assert_eq!(got, Some(60));
    }
}
