//! Per-processor pool of ready tasks (Section 5.2).
//!
//! The pool holds the ready tasks statically assigned to a processor and
//! is managed as a stack: the baseline pops the top (depth-first
//! traversal, Figure 7); the paper's **Algorithm 2** scans from the top
//! and delays upper-tree tasks that would raise the memory peak observed
//! since the beginning of the factorization (Figure 8).

use crate::config::TaskSelection;

/// Pool of ready tasks (node ids). The top of the stack is the back.
#[derive(Debug, Clone, Default)]
pub struct TaskPool {
    stack: Vec<usize>,
}

impl TaskPool {
    /// Pool pre-loaded with `tasks` (the task to pop first goes last).
    pub fn new(tasks: Vec<usize>) -> Self {
        TaskPool { stack: tasks }
    }

    /// Pushes a newly ready task on top.
    pub fn push(&mut self, node: usize) {
        self.stack.push(node);
    }

    /// True when no task is ready.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Read-only view of the stack (bottom to top).
    pub fn as_slice(&self) -> &[usize] {
        &self.stack
    }

    /// Baseline selection: pop the top of the stack.
    pub fn pick_lifo(&mut self) -> Option<usize> {
        self.stack.pop()
    }

    /// LIFO restricted to `admissible` tasks: the topmost admissible task
    /// is taken; `None` defers everything (hard-capacity backpressure —
    /// the caller retries when memory frees or forces a task when the
    /// whole simulation would otherwise stall).
    pub fn pick_lifo_admissible(&mut self, admissible: impl Fn(usize) -> bool) -> Option<usize> {
        let idx = self.stack.iter().rposition(|&t| admissible(t))?;
        Some(self.stack.remove(idx))
    }

    /// Algorithm 2 with the global refinement of Section 6: like
    /// [`TaskPool::pick_memory_aware`], but a task's cost is offset by the
    /// contribution blocks (`released(t)`, local and remote) its
    /// activation frees — "the selection should not only be based on the
    /// memory of the processor concerned but also on the memory that will
    /// be freed (contribution blocks) on others".
    ///
    /// Only `admissible` tasks are ever returned (pass `|_| true` when no
    /// hard capacity applies); `None` with a non-empty pool means every
    /// task is inadmissible and the processor should wait.
    pub fn pick_memory_aware_global(
        &mut self,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        released: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let &top = self.stack.last()?;
        if in_subtree(top) && admissible(top) {
            return self.stack.pop();
        }
        for idx in (0..self.stack.len()).rev() {
            let t = self.stack[idx];
            let net_cost = cost(t).saturating_sub(released(t));
            if admissible(t) && (net_cost + current_memory <= observed_peak || in_subtree(t)) {
                return Some(self.stack.remove(idx));
            }
        }
        // Fallback: the pending task releasing the most memory system-wide.
        let best = (0..self.stack.len())
            .filter(|&i| admissible(self.stack[i]))
            .max_by_key(|&i| (released(self.stack[i]), std::cmp::Reverse(cost(self.stack[i]))))?;
        Some(self.stack.remove(best))
    }

    /// Algorithm 2: memory-aware task selection.
    ///
    /// * a top-of-pool task inside a subtree is returned unconditionally
    ///   (subtrees are memory-critical and must proceed depth-first);
    /// * otherwise the pool is scanned from the top; a task is returned if
    ///   activating it keeps the processor at or below the `observed_peak`
    ///   (`cost(t) + current_memory <= observed_peak`), or if it belongs
    ///   to a subtree (priority to subtree nodes, staying close to the
    ///   depth-first traversal);
    /// * if no task qualifies, the top is returned (the factorization must
    ///   progress even if the peak grows).
    ///
    /// Only `admissible` tasks are ever returned (pass `|_| true` when no
    /// hard capacity applies); `None` with a non-empty pool means every
    /// task is inadmissible and the processor should wait.
    pub fn pick_memory_aware(
        &mut self,
        in_subtree: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> u64,
        current_memory: u64,
        observed_peak: u64,
        admissible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let &top = self.stack.last()?;
        if in_subtree(top) && admissible(top) {
            return self.stack.pop();
        }
        for idx in (0..self.stack.len()).rev() {
            let t = self.stack[idx];
            if admissible(t) && (cost(t) + current_memory <= observed_peak || in_subtree(t)) {
                return Some(self.stack.remove(idx));
            }
        }
        let idx = self.stack.iter().rposition(|&t| admissible(t))?;
        Some(self.stack.remove(idx))
    }

    /// Removes a specific task (used when the scheduler force-activates a
    /// deferred task to break a capacity-induced stall). Returns `false`
    /// when the task is not in the pool.
    pub fn remove_task(&mut self, node: usize) -> bool {
        match self.stack.iter().rposition(|&t| t == node) {
            Some(idx) => {
                self.stack.remove(idx);
                true
            }
            None => false,
        }
    }
}

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
    /// Whether a hard capacity is configured.
    pub capped: bool,
    /// Algorithm 2's "current memory (including peak of subtree)".
    pub current_memory: u64,
    /// Peak observed since the beginning of the factorization.
    pub observed_peak: u64,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("capped", &self.capped)
            .field("current_memory", &self.current_memory)
            .field("observed_peak", &self.observed_peak)
            .finish_non_exhaustive()
    }
}

impl TaskSelection {
    /// Picks (and removes) the next task from `pool`. `None` over a
    /// non-empty pool means every ready task was deferred (the capacity
    /// verdict) and the processor stalls until memory frees.
    pub fn pick(self, pool: &mut TaskPool, ctx: &TaskCtx<'_>) -> Option<usize> {
        match self {
            TaskSelection::Lifo if ctx.capped => pool.pick_lifo_admissible(ctx.admissible),
            TaskSelection::Lifo => pool.pick_lifo(),
            TaskSelection::MemoryAware => pool.pick_memory_aware(
                ctx.in_subtree,
                ctx.cost,
                ctx.current_memory,
                ctx.observed_peak,
                ctx.admissible,
            ),
            TaskSelection::MemoryAwareGlobal => pool.pick_memory_aware_global(
                ctx.in_subtree,
                ctx.cost,
                ctx.released,
                ctx.current_memory,
                ctx.observed_peak,
                ctx.admissible,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_pops_in_reverse_push_order() {
        let mut p = TaskPool::new(vec![1, 2]);
        p.push(3);
        assert_eq!(p.pick_lifo(), Some(3));
        assert_eq!(p.pick_lifo(), Some(2));
        assert_eq!(p.pick_lifo(), Some(1));
        assert_eq!(p.pick_lifo(), None);
    }

    #[test]
    fn subtree_top_taken_unconditionally() {
        let mut p = TaskPool::new(vec![10, 20]);
        // 20 is in a subtree; its cost would blow the peak, but it still
        // goes first.
        let got = p.pick_memory_aware(|t| t == 20, |_| 1_000_000, 999, 1_000, |_| true);
        assert_eq!(got, Some(20));
    }

    #[test]
    fn big_upper_task_is_delayed() {
        // Figure 8: the top task (100) is a huge upper-tree node; the one
        // below (5) fits under the observed peak and runs first.
        let mut p = TaskPool::new(vec![5, 100]);
        let cost = |t: usize| t as u64;
        let got = p.pick_memory_aware(|_| false, cost, 50, 60, |_| true);
        assert_eq!(got, Some(5));
        assert_eq!(p.as_slice(), &[100]);
    }

    #[test]
    fn subtree_task_deeper_in_pool_is_preferred() {
        let mut p = TaskPool::new(vec![7, 8, 100]);
        // 100 too big, 8 too big but in a subtree.
        let got = p.pick_memory_aware(|t| t == 8, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(8));
        assert_eq!(p.as_slice(), &[7, 100]);
    }

    #[test]
    fn falls_back_to_top_when_nothing_fits() {
        let mut p = TaskPool::new(vec![70, 100]);
        let got = p.pick_memory_aware(|_| false, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(100));
    }

    #[test]
    fn fitting_top_task_is_taken_directly() {
        let mut p = TaskPool::new(vec![70, 5]);
        let got = p.pick_memory_aware(|_| false, |t| t as u64, 50, 60, |_| true);
        assert_eq!(got, Some(5));
    }

    #[test]
    fn empty_pool_returns_none() {
        let mut p = TaskPool::default();
        assert_eq!(p.pick_memory_aware(|_| false, |_| 0, 0, 0, |_| true), None);
    }

    #[test]
    fn global_variant_offsets_cost_by_released_cbs() {
        // Task 100 looks too big, but activating it releases 80 entries of
        // stacked CBs: its net cost (20) fits under the observed peak.
        let mut p = TaskPool::new(vec![100]);
        let got = p.pick_memory_aware_global(
            |_| false,
            |t| t as u64,
            |t| if t == 100 { 80 } else { 0 },
            50,
            75,
            |_| true,
        );
        assert_eq!(got, Some(100));
    }

    #[test]
    fn inadmissible_tasks_are_deferred() {
        // Hard capacity: nothing admissible -> None, the pool is intact.
        let mut p = TaskPool::new(vec![5, 100]);
        let got = p.pick_memory_aware(|_| false, |t| t as u64, 0, 1_000, |_| false);
        assert_eq!(got, None);
        assert_eq!(p.as_slice(), &[5, 100]);
        // A subtree task at the top is also held back when inadmissible.
        let got = p.pick_memory_aware(|t| t == 100, |t| t as u64, 0, 1_000, |t| t != 100);
        assert_eq!(got, Some(5));
        assert_eq!(p.as_slice(), &[100]);
    }

    #[test]
    fn lifo_admissible_takes_topmost_fitting_task() {
        let mut p = TaskPool::new(vec![1, 2, 3]);
        assert_eq!(p.pick_lifo_admissible(|t| t != 3), Some(2));
        assert_eq!(p.as_slice(), &[1, 3]);
        assert_eq!(p.pick_lifo_admissible(|_| false), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn each_strategy_runs_its_own_algorithm() {
        // Task 100 releases 80 entries of stacked CBs; task 200 is refused
        // by the capacity verdict. At 50 entries held and a peak of 75
        // the three strategies take three different tasks.
        let pick = |strategy: TaskSelection, capped: bool| {
            let ctx = TaskCtx {
                in_subtree: &|_| false,
                cost: &|t| t as u64,
                released: &|t| if t == 100 { 80 } else { 0 },
                admissible: &|t| t != 200,
                capped,
                current_memory: 50,
                observed_peak: 75,
            };
            strategy.pick(&mut TaskPool::new(vec![5, 100, 200]), &ctx)
        };
        // LIFO consults the verdict iff a capacity is configured.
        assert_eq!(pick(TaskSelection::Lifo, false), Some(200));
        assert_eq!(pick(TaskSelection::Lifo, true), Some(100));
        // Algorithm 2: 100 + 50 > 75, so the small task goes first ...
        assert_eq!(pick(TaskSelection::MemoryAware, true), Some(5));
        // ... unless the release is counted: 100 - 80 + 50 <= 75.
        assert_eq!(pick(TaskSelection::MemoryAwareGlobal, true), Some(100));
    }

    #[test]
    fn remove_task_extracts_a_specific_node() {
        let mut p = TaskPool::new(vec![4, 9, 6]);
        assert!(p.remove_task(9));
        assert!(!p.remove_task(9));
        assert_eq!(p.as_slice(), &[4, 6]);
    }

    #[test]
    fn global_fallback_prefers_the_biggest_release() {
        // Nothing fits; the fallback picks the task freeing the most.
        let mut p = TaskPool::new(vec![60, 70]);
        let got = p.pick_memory_aware_global(
            |_| false,
            |t| t as u64,
            |t| if t == 60 { 10 } else { 0 },
            50,
            10,
            |_| true,
        );
        assert_eq!(got, Some(60));
    }
}
