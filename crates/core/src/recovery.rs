//! Failure recovery: snapshots, recovery plans, and the plan builder.
//!
//! When a processor fail-stops, everything it held is gone: its factor
//! entries, the contribution blocks stacked on it, its bookkeeping about
//! children of the nodes it owned, and every message addressed to it.
//! The surviving [`crate::proto::SchedulerCore`]s detect the silence
//! through the lease protocol and emit `Effect::DeclareDead`; the
//! *driver* (the discrete-event simulator or the threaded coordinator —
//! the only party with a global, deterministic view) then builds a
//! [`RecoveryPlan`] from per-processor [`RecoverySnapshot`]s and feeds it
//! back into every surviving core as `Input::Recover`.
//!
//! The plan answers exactly three questions:
//!
//! 1. **What must be re-executed?** The recompute set `R`: every node the
//!    dead processor owned and had not finished, every node it *had*
//!    finished (its factors died with it), and every node for which it
//!    held a factor share as a type-2 slave or a type-3 share worker —
//!    whether or not that share was finished (an unfinished share would
//!    otherwise never be produced; a finished one is lost).
//! 2. **Who re-executes it?** Nodes owned by survivors keep their owner.
//!    Orphaned nodes are grouped into maximal connected components of the
//!    assembly tree and each component is adopted whole, by the survivor
//!    with the most memory headroom under the configured capacity —
//!    memory-aware adoption with exact (snapshot, not stale-view) memory
//!    state.
//! 3. **What bookkeeping must survivors repair?** Which contribution
//!    blocks to garbage-collect (pieces produced by or for a recomputed
//!    node are stale), which surviving pieces to re-register at the
//!    adopter, and what per-child completion counters the adopter must
//!    start from so the readiness chain (`Complete`/`PieceDone` →
//!    `check_child_done` → activation) resumes exactly once per node.
//!
//! Re-executed nodes run as *full local fronts* on their adopter
//! regardless of their original kind (a type-2 node is not re-partitioned
//! across slaves): the per-node factor-entry totals are partition
//! invariant (`master + Σ slave shares = factor_entries`), so a recovered
//! run reproduces the exact per-node factor content of a fault-free run —
//! the property [`digest_factors`] certifies. The one exception is a
//! type-3 root, which is re-scattered over the *surviving* processors
//! with the dead shares absorbed by the master, keeping the
//! `nprocs × share` total intact.

use std::collections::{BTreeMap, VecDeque};

use mf_sim::FaultModel;

/// Per-processor state the driver needs to build a recovery plan. Taken
/// from a live core on demand, and from a dying core *at kill time* (the
/// last coherent view of what died with it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Processor id.
    pub proc: usize,
    /// Nodes this core completed as owner.
    pub done: Vec<usize>,
    /// Nodes this core activated as owner (activation implies every
    /// child was complete, so a recompute can run standalone).
    pub activated: Vec<usize>,
    /// Factor entries stored per node on this processor, sparse.
    pub factors: Vec<(usize, u64)>,
    /// Contribution-block pieces physically on this processor's stack:
    /// `(producing node, entries)`. At most one piece per producer per
    /// holder.
    pub held: Vec<(usize, u64)>,
    /// Active memory (stack + fronts), in entries.
    pub active: u64,
}

/// Bookkeeping the adopter installs for one surviving (not recomputed)
/// child of a recomputed node, so the readiness chain resumes without
/// double-counting: the child's already-produced pieces are pre-counted
/// (their `PieceDone` notifications died with the old owner) and the
/// surviving ones re-registered for consumption at activation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChildState {
    /// The child node.
    pub child: usize,
    /// Whether the child has completed (counts toward `done_children`).
    pub done: bool,
    /// Pieces already produced by the child (surviving + lost with the
    /// dead): the value to preset `pieces_got` to.
    pub pre_got: usize,
    /// Surviving pieces to register in the adopter's `cb_pieces`:
    /// `(holder, entries)`.
    pub installs: Vec<(usize, u64)>,
}

/// One node of the recompute set, with everything its (new) owner needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanNode {
    /// The node to re-execute.
    pub node: usize,
    /// Its owner after recovery (the adopter for orphans, the unchanged
    /// owner for survivor-owned nodes that lost a slave share).
    pub owner: usize,
    /// The node had been activated in its previous life: every child is
    /// complete and every child contribution was already consumed, so the
    /// re-execution runs standalone (ready immediately, no installs).
    pub was_activated: bool,
    /// Every child is complete and none is being recomputed: push into
    /// the owner's ready pool at plan application.
    pub ready: bool,
    /// Per-child bookkeeping for children that are *not* themselves
    /// recomputed (recomputed children restart from zero counters).
    pub children: Vec<ChildState>,
}

/// The full recovery plan for one processor loss, applied identically by
/// every surviving core (and replayed to late joiners).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The processor that failed.
    pub dead: usize,
    /// Nodes to re-execute, ascending by node id.
    pub recompute: Vec<PlanNode>,
    /// `(component root, adopter)` per orphaned subtree component — the
    /// reassignment chain `explain` narrates.
    pub roots: Vec<(usize, usize)>,
    /// Contribution-block entries that died on the dead processor's stack
    /// (reclaimed from the global accounting; survivors GC their own
    /// stale pieces during plan application).
    pub dead_stack_entries: u64,
}

/// Driver-side record of factor-share obligations: which processors were
/// handed a type-2 slave task or a type-3 share for each node. A
/// processor on this list holds (or will hold) part of the node's factors,
/// so its death forces the node into the recompute set. Cleared for a
/// node when the node is recovered (its new life has fresh obligations).
#[derive(Debug, Clone, Default)]
pub struct ObligationLedger {
    /// node → processors with a type-2 slave share of it.
    pub slaves: BTreeMap<usize, Vec<usize>>,
    /// root → processors with a type-3 share of it.
    pub shares: BTreeMap<usize, Vec<usize>>,
}

impl ObligationLedger {
    /// Records a routed `SlaveTask` for `node` to `proc`.
    pub fn slave(&mut self, node: usize, proc: usize) {
        self.slaves.entry(node).or_default().push(proc);
    }

    /// Records a routed `Type3Share` for `node` to `proc`.
    pub fn share(&mut self, node: usize, proc: usize) {
        self.shares.entry(node).or_default().push(proc);
    }

    /// Nodes obligated to `proc`, ascending, deduplicated.
    fn obligated_to(&self, proc: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .slaves
            .iter()
            .chain(self.shares.iter())
            .filter(|(_, procs)| procs.contains(&proc))
            .map(|(&node, _)| node)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Drops every obligation of the recovered nodes (their re-execution
    /// is local to the adopter, or re-scattered and re-recorded).
    fn clear_nodes(&mut self, in_r: &[bool]) {
        self.slaves.retain(|&v, _| !in_r[v]);
        self.shares.retain(|&v, _| !in_r[v]);
    }
}

/// Inputs to [`build_plan`] that the driver maintains across the run.
pub struct PlanInputs<'a> {
    /// Assembly tree.
    pub tree: &'a mf_symbolic::AssemblyTree,
    /// Current ownership overlay (the static mapping plus every prior
    /// plan).
    pub owners: &'a [usize],
    /// Liveness per processor after this kill.
    pub alive: &'a [bool],
    /// Join state per processor (dormant processors cannot adopt).
    pub joined: &'a [bool],
    /// Per-processor memory capacity, if configured.
    pub capacity: Option<u64>,
}

/// Builds the recovery plan for the loss of processor `dead`.
///
/// `snaps[dead]` must be the kill-time snapshot; the other entries are
/// live snapshots taken at plan time. The ledger's obligations for
/// recovered nodes are cleared as a side effect.
pub fn build_plan(
    inputs: &PlanInputs<'_>,
    dead: usize,
    snaps: &[RecoverySnapshot],
    ledger: &mut ObligationLedger,
) -> RecoveryPlan {
    let tree = inputs.tree;
    let n = tree.len();

    // Global done/activated state from the snapshots (the dead one
    // included: its completions are real, just lost).
    let mut done = vec![false; n];
    let mut activated = vec![false; n];
    for s in snaps {
        for &v in &s.done {
            done[v] = true;
        }
        for &v in &s.activated {
            activated[v] = true;
        }
    }

    // The recompute set R.
    let mut in_r = vec![false; n];
    for &v in &snaps[dead].done {
        in_r[v] = true; // factors died with the processor
    }
    for (v, owner) in inputs.owners.iter().enumerate() {
        if *owner == dead && !done[v] {
            in_r[v] = true; // orphaned: pending, pooled, or mid-execution
        }
    }
    for v in ledger.obligated_to(dead) {
        in_r[v] = true; // a factor share lives (or would live) on the dead
    }
    for &(v, e) in &snaps[dead].factors {
        if e > 0 {
            in_r[v] = true; // backstop: any factor content on the dead
        }
    }

    // Surviving pieces per producing node: (holder, entries), holders
    // ascending (snapshot order). Only pieces on *surviving* processors.
    let mut held_alive: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut held_dead = vec![0usize; n];
    let mut dead_stack_entries = 0u64;
    for s in snaps {
        for &(node, entries) in &s.held {
            if s.proc == dead {
                held_dead[node] += 1;
                dead_stack_entries += entries;
            } else if inputs.alive[s.proc] {
                held_alive[node].push((s.proc, entries));
            }
        }
    }

    // Ownership after recovery: orphaned components of R are adopted
    // whole; survivor-owned members of R keep their owner. A component
    // root is an orphan whose parent is not itself an orphaned member of
    // R (walking the tree in id order is enough: only adoption targets
    // matter, not traversal order).
    let adopters: Vec<usize> =
        (0..snaps.len()).filter(|&p| p != dead && inputs.alive[p] && inputs.joined[p]).collect();
    debug_assert!(!adopters.is_empty(), "recovery requires a surviving processor");
    let orphan = |v: usize| in_r[v] && inputs.owners[v] == dead;
    let mut new_owner = vec![usize::MAX; n];
    let mut roots = Vec::new();
    // Largest front of each component, for capacity-aware adoption.
    let mut comp_load: BTreeMap<usize, u64> = BTreeMap::new();
    let mut comp_of = vec![usize::MAX; n];
    for v in 0..n {
        if !in_r[v] {
            continue;
        }
        if !orphan(v) {
            new_owner[v] = inputs.owners[v];
            continue;
        }
        // Component representative: highest orphaned ancestor. Children
        // have smaller ids than parents only pre-split, so walk up
        // explicitly.
        let mut root = v;
        while let Some(p) = tree.nodes[root].parent {
            if orphan(p) {
                root = p;
            } else {
                break;
            }
        }
        comp_of[v] = root;
        let load = comp_load.entry(root).or_insert(0);
        *load = (*load).max(tree.front_entries(v));
    }
    // Adopt components in ascending root order, tracking the projected
    // active memory of each candidate so consecutive components spread.
    let mut projected: Vec<u64> = snaps.iter().map(|s| s.active).collect();
    for (&root, &load) in comp_load.iter() {
        let fits = |p: usize| match inputs.capacity {
            Some(c) => projected[p].saturating_add(load) <= c,
            None => true,
        };
        let pick = adopters
            .iter()
            .copied()
            .filter(|&p| fits(p))
            .min_by_key(|&p| (projected[p], p))
            .or_else(|| adopters.iter().copied().min_by_key(|&p| (projected[p], p)))
            .expect("at least one adopter");
        projected[pick] = projected[pick].saturating_add(load);
        roots.push((root, pick));
        for v in 0..n {
            if comp_of[v] == root {
                new_owner[v] = pick;
            }
        }
    }

    // Per-node plan entries, ascending.
    let mut recompute = Vec::new();
    for v in 0..n {
        if !in_r[v] {
            continue;
        }
        let was_activated = activated[v];
        let children = if was_activated {
            Vec::new() // every contribution already consumed: standalone
        } else {
            tree.nodes[v]
                .children
                .iter()
                .filter(|&&c| !in_r[c])
                .map(|&c| {
                    let installs = held_alive[c].clone();
                    ChildState {
                        child: c,
                        done: done[c],
                        pre_got: installs.len() + held_dead[c],
                        installs,
                    }
                })
                .collect()
        };
        let ready = was_activated || tree.nodes[v].children.iter().all(|&c| done[c] && !in_r[c]);
        recompute.push(PlanNode { node: v, owner: new_owner[v], was_activated, ready, children });
    }

    ledger.clear_nodes(&in_r);
    RecoveryPlan { dead, recompute, roots, dead_stack_entries }
}

/// FNV-1a digest over the per-node factor-entry totals aggregated across
/// the surviving processors. Per-node totals are partition invariant
/// (type-2: `master + Σ slaves = factor_entries`; type-3:
/// `nprocs × share`), so two successful runs of the same problem — fault
/// free or recovered, either scheduling strategy's slave partition —
/// produce the same digest exactly when every node's factors were
/// computed exactly once and survived.
pub fn digest_factors(stored: impl IntoIterator<Item = (usize, u64)>, n: usize) -> u64 {
    let mut totals = vec![0u64; n];
    for (v, e) in stored {
        totals[v] += e;
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for (v, &t) in totals.iter().enumerate() {
        for b in (v as u64).to_le_bytes().into_iter().chain(t.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Driver-side membership orchestration state of the
/// kill/join/recovery protocol: the fault schedule, the machine-wide
/// liveness/ownership mirrors (the driver's copy of what every core's
/// overlays converge to), the kill-time snapshots, the obligation
/// ledger, and the membership log for joiner replay.
///
/// `None` on a run without recovery configuration or membership faults —
/// the quiet path takes no membership branches at all.
#[derive(Debug)]
pub struct Membership {
    /// Liveness per processor.
    pub alive: Vec<bool>,
    /// Join state per processor (scheduled joiners start dormant).
    pub joined: Vec<bool>,
    /// Ownership mirror: static owners + every plan.
    pub owners: Vec<usize>,
    /// Kill-time snapshot per dead processor.
    pub dead_snaps: Vec<Option<RecoverySnapshot>>,
    /// Deaths already recovered (the declaration arbiter's dedup).
    pub recovered_deaths: Vec<bool>,
    /// Applied recovery plans, in order, for joiner replay.
    pub log: Vec<RecoveryPlan>,
    /// Delivered-event counter the kill/join schedule is keyed on.
    pub delivered: u64,
    kills: VecDeque<(u64, usize)>,
    joins: VecDeque<(u64, usize)>,
}

impl Membership {
    /// Whether a run needs membership orchestration at all: recovery is
    /// configured (heartbeat timers keep the queue alive, so termination
    /// must be membership-aware) or the fault model schedules kills or
    /// joins.
    pub fn needed(recovery_on: bool, fault: Option<&FaultModel>) -> bool {
        recovery_on || fault.is_some_and(|f| !f.kill_at.is_empty() || !f.join_at.is_empty())
    }

    /// Fresh state for a run: everyone alive, scheduled joiners dormant,
    /// ownership from the static mapping.
    pub fn new(nprocs: usize, owners: Vec<usize>, fault: Option<&FaultModel>) -> Self {
        let mut kills: Vec<(u64, usize)> = fault.map(|f| f.kill_at.clone()).unwrap_or_default();
        kills.sort_unstable();
        let mut joins: Vec<(u64, usize)> = fault.map(|f| f.join_at.clone()).unwrap_or_default();
        joins.sort_unstable();
        let mut joined = vec![true; nprocs];
        for &(_, p) in &joins {
            if p < nprocs {
                joined[p] = false;
            }
        }
        Membership {
            alive: vec![true; nprocs],
            joined,
            owners,
            dead_snaps: vec![None; nprocs],
            recovered_deaths: vec![false; nprocs],
            log: Vec::new(),
            delivered: 0,
            kills: kills.into(),
            joins: joins.into(),
        }
    }

    /// Next scheduled kill due at or before event `idx`, consumed.
    pub fn take_due_kill(&mut self, idx: u64) -> Option<usize> {
        match self.kills.front() {
            Some(&(at, _)) if at <= idx => self.kills.pop_front().map(|(_, p)| p),
            _ => None,
        }
    }

    /// Next scheduled join due at or before event `idx`, consumed.
    pub fn take_due_join(&mut self, idx: u64) -> Option<usize> {
        match self.joins.front() {
            Some(&(at, _)) if at <= idx => self.joins.pop_front().map(|(_, p)| p),
            _ => None,
        }
    }

    /// Index of the next scheduled kill or join, if any.
    pub fn next_due(&self) -> Option<u64> {
        let (kill, join) = (self.kills.front(), self.joins.front());
        kill.into_iter().chain(join).map(|&(at, _)| at).min()
    }

    /// Forces the next scheduled join regardless of its index (the drain
    /// path: with no events left, scheduled indices are never reached).
    pub fn take_next_join(&mut self) -> Option<usize> {
        self.joins.pop_front().map(|(_, p)| p)
    }

    /// Whether any scheduled kill or join is still pending.
    pub fn schedule_pending(&self) -> bool {
        !self.kills.is_empty() || !self.joins.is_empty()
    }

    /// Whether some processor is dead but its loss not yet recovered
    /// (the lease has not expired yet — quiescence must wait for it).
    pub fn undeclared_dead(&self) -> bool {
        (0..self.alive.len()).any(|p| !self.alive[p] && !self.recovered_deaths[p])
    }

    /// Processors currently dead, ascending.
    pub fn dead(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&p| !self.alive[p]).collect()
    }

    /// Whether anyone is left to adopt the orphans of `dead`.
    pub fn adopters_exist(&self, dead: usize) -> bool {
        (0..self.alive.len()).any(|p| p != dead && self.alive[p] && self.joined[p])
    }

    /// Marks `proc` dead and stores its kill-time snapshot.
    pub fn note_kill(&mut self, proc: usize, snap: RecoverySnapshot) {
        self.alive[proc] = false;
        self.dead_snaps[proc] = Some(snap);
    }

    /// Marks `proc` joined.
    pub fn note_join(&mut self, proc: usize) {
        self.joined[proc] = true;
    }

    /// Builds the recovery plan for the loss of `dead` (liveness must
    /// already reflect the kill), updates the ownership mirror, and
    /// logs the plan for joiner replay. `ledger` is the driver's
    /// obligation record, cleared for recovered nodes as a side effect.
    pub fn plan_loss(
        &mut self,
        tree: &mf_symbolic::AssemblyTree,
        capacity: Option<u64>,
        dead: usize,
        snaps: &[RecoverySnapshot],
        ledger: &mut ObligationLedger,
    ) -> RecoveryPlan {
        let inputs = PlanInputs {
            tree,
            owners: &self.owners,
            alive: &self.alive,
            joined: &self.joined,
            capacity,
        };
        let plan = build_plan(&inputs, dead, snaps, ledger);
        for pn in &plan.recompute {
            self.owners[pn.node] = pn.owner;
        }
        self.recovered_deaths[dead] = true;
        self.log.push(plan.clone());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_symbolic::{AssemblyTree, FrontNode};

    /// A five-node tree: leaves 0,1 → node 2; leaf 3 and node 2 → root 4.
    fn tiny_tree() -> AssemblyTree {
        let mk = |npiv, nfront, parent, children: Vec<usize>| FrontNode {
            first_col: 0,
            npiv,
            nfront,
            parent,
            children,
            chain_head: None,
        };
        AssemblyTree {
            nodes: vec![
                mk(2, 4, Some(2), vec![]),
                mk(2, 4, Some(2), vec![]),
                mk(2, 5, Some(4), vec![0, 1]),
                mk(2, 4, Some(4), vec![]),
                mk(4, 4, None, vec![2, 3]),
            ],
            sym: mf_sparse::Symmetry::General,
            n: 12,
        }
    }

    fn snaps(n: usize) -> Vec<RecoverySnapshot> {
        (0..n).map(|proc| RecoverySnapshot { proc, ..Default::default() }).collect()
    }

    #[test]
    fn orphans_form_components_and_are_adopted_whole() {
        let tree = tiny_tree();
        let owners = vec![1, 0, 1, 0, 1]; // proc 1 owns 0, 2, 4
        let alive = vec![true, false, true];
        let joined = vec![true, true, true];
        let mut s = snaps(3);
        s[1] = RecoverySnapshot { proc: 1, done: vec![0], ..Default::default() };
        let inputs = PlanInputs {
            tree: &tree,
            owners: &owners,
            alive: &alive,
            joined: &joined,
            capacity: None,
        };
        let mut ledger = ObligationLedger::default();
        let plan = build_plan(&inputs, 1, &s, &mut ledger);
        // 0 (done by dead), 2 and 4 (owned, pending) recompute; 1 and 3
        // (owned by survivors, untouched) do not.
        let nodes: Vec<usize> = plan.recompute.iter().map(|p| p.node).collect();
        assert_eq!(nodes, vec![0, 2, 4]);
        // One connected orphan component rooted at 4, adopted whole.
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.roots[0].0, 4);
        let adopter = plan.roots[0].1;
        assert!(plan.recompute.iter().all(|p| p.owner == adopter));
        // Leaf 0 is ready (no children); 2 waits on 0 and 1; 4 on 2, 3.
        let by_node = |v: usize| plan.recompute.iter().find(|p| p.node == v).unwrap();
        assert!(by_node(0).ready);
        assert!(!by_node(2).ready);
        assert!(!by_node(4).ready);
        // 2's plan covers surviving child 1 only (0 restarts from zero).
        let kids: Vec<usize> = by_node(2).children.iter().map(|c| c.child).collect();
        assert_eq!(kids, vec![1]);
    }

    #[test]
    fn slave_obligations_force_survivor_owned_recompute() {
        let tree = tiny_tree();
        let owners = vec![0, 0, 0, 0, 0];
        let alive = vec![true, false];
        let joined = vec![true, true];
        let mut s = snaps(2);
        // Node 2 is done by its (surviving) owner, but the dead proc held
        // a slave share of it — and an unfinished share of node 4.
        s[0] = RecoverySnapshot {
            proc: 0,
            done: vec![0, 1, 2, 3],
            activated: vec![0, 1, 2, 3, 4],
            ..Default::default()
        };
        s[1] = RecoverySnapshot { proc: 1, factors: vec![(2, 6)], ..Default::default() };
        let mut ledger = ObligationLedger::default();
        ledger.slave(2, 1);
        ledger.slave(4, 1);
        let inputs = PlanInputs {
            tree: &tree,
            owners: &owners,
            alive: &alive,
            joined: &joined,
            capacity: None,
        };
        let plan = build_plan(&inputs, 1, &s, &mut ledger);
        let nodes: Vec<usize> = plan.recompute.iter().map(|p| p.node).collect();
        assert_eq!(nodes, vec![2, 4]);
        // Owner survives: no adoption, owner unchanged, activated nodes
        // re-run standalone and are immediately ready.
        assert!(plan.roots.is_empty());
        for p in &plan.recompute {
            assert_eq!(p.owner, 0);
            assert!(p.was_activated && p.ready && p.children.is_empty());
        }
        // Obligations of recovered nodes are cleared.
        assert!(ledger.slaves.is_empty());
    }

    #[test]
    fn surviving_pieces_are_reinstalled_and_dead_pieces_counted() {
        let tree = tiny_tree();
        let owners = vec![0, 1, 2, 1, 1]; // proc 2 owns only node 2
        let alive = vec![true, true, false];
        let joined = vec![true, true, true];
        let mut s = snaps(3);
        // Children 0 and 1 of node 2 are done; 0's piece survives on
        // proc 0, 1's piece died on proc 2's stack.
        s[0] =
            RecoverySnapshot { proc: 0, done: vec![0], held: vec![(0, 8)], ..Default::default() };
        s[1] = RecoverySnapshot { proc: 1, done: vec![1], ..Default::default() };
        s[2] = RecoverySnapshot { proc: 2, held: vec![(1, 8)], active: 8, ..Default::default() };
        let inputs = PlanInputs {
            tree: &tree,
            owners: &owners,
            alive: &alive,
            joined: &joined,
            capacity: None,
        };
        let mut ledger = ObligationLedger::default();
        let plan = build_plan(&inputs, 2, &s, &mut ledger);
        assert_eq!(plan.recompute.len(), 1);
        let p2 = &plan.recompute[0];
        assert_eq!(p2.node, 2);
        assert!(p2.ready, "both children done, neither recomputed");
        assert_eq!(plan.dead_stack_entries, 8);
        let c0 = p2.children.iter().find(|c| c.child == 0).unwrap();
        assert_eq!((c0.pre_got, c0.installs.as_slice()), (1, &[(0usize, 8u64)][..]));
        let c1 = p2.children.iter().find(|c| c.child == 1).unwrap();
        assert_eq!((c1.pre_got, c1.installs.len()), (1, 0), "dead piece counted, not installed");
    }

    #[test]
    fn adoption_is_memory_aware_under_capacity() {
        let tree = tiny_tree();
        let owners = vec![2, 2, 2, 2, 2];
        let alive = vec![true, true, false];
        let joined = vec![true, true, true];
        let mut s = snaps(3);
        s[0].active = 100; // proc 0 is loaded
        s[1].active = 10; // proc 1 has headroom
        let inputs = PlanInputs {
            tree: &tree,
            owners: &owners,
            alive: &alive,
            joined: &joined,
            capacity: Some(120),
        };
        let mut ledger = ObligationLedger::default();
        let plan = build_plan(&inputs, 2, &s, &mut ledger);
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.roots[0], (4, 1), "the emptier survivor adopts");
    }

    #[test]
    fn digest_is_partition_invariant_and_coverage_sensitive() {
        // 12 = 5 + 7 split across procs vs computed whole: same digest.
        let da = digest_factors([(0, 5), (2, 3), (0, 7)], 3);
        let db = digest_factors([(0, 12), (2, 3)], 3);
        assert_eq!(da, db);
        // A missing node changes it.
        assert_ne!(da, digest_factors([(0, 12)], 3));
        // So does the same total on the wrong node.
        assert_ne!(da, digest_factors([(0, 12), (1, 3)], 3));
    }
}
