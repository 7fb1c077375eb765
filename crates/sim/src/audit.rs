//! Protocol auditing: replay a [`Recording`] and verify the solver's
//! conservation and ordering invariants, reporting violations as typed
//! findings.
//!
//! The flight recorder captures every memory movement, compute span,
//! activation, status application, and membership change. Those streams
//! obey invariants that hold for *every* correct run — fault-free or
//! not — independent of strategy, backend, or matrix:
//!
//! * **time order** — events are recorded with non-decreasing
//!   timestamps;
//! * **id range** — every processor id an event names is below the
//!   processor count;
//! * **account balance** — on every (processor, node, area) memory
//!   account the `Free`s never exceed the `Alloc`s mid-run, and every
//!   account of a surviving processor drains to zero by completion
//!   (per-account balance on the CB stack *is* contribution-block
//!   conservation: nothing is consumed that was never produced, and
//!   nothing survives the run);
//! * **span pairing** — every `ComputeEnd` closes a matching
//!   `ComputeStart` on the same (processor, node, role), and no span is
//!   left open at the end of the recording;
//! * **activation epochs** — a front is activated at most once per
//!   membership epoch; re-activation is legal only after a processor
//!   loss or subtree reassignment made re-execution necessary;
//! * **membership fencing** — a processor declared lost does not start
//!   compute or activate fronts, and its status traffic is fenced (no
//!   `StatusApply` from a dead processor until it rejoins).
//!
//! [`audit_recording`] checks all of the above in one pass and returns
//! the violations as [`Finding`] values whose `Display` names the
//! processor, node, and area involved — machine-checkable in CI, and
//! readable when a human has to chase one.

use crate::engine::Time;
use crate::recorder::{MemArea, Recording, SchedEvent};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// Hashed with fixed keys, so a replay's rehash pattern (and time) is the
/// same in every process; findings are sorted, so the keys never show.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;
type FixedSet<K> = HashSet<K, BuildHasherDefault<DefaultHasher>>;

/// One audit violation, carrying enough context to locate the defect in
/// the recording without re-running the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// The recording dropped events (bounded ring overflow), so balance
    /// and pairing checks are not conclusive for this run: a free whose
    /// alloc, or an end whose start, was evicted is not reported.
    Truncated {
        /// Events evicted from the ring before iteration.
        dropped: u64,
    },
    /// An event was recorded with a timestamp earlier than its
    /// predecessor.
    TimeRegression {
        /// Zero-based index of the offending event.
        index: usize,
        /// Timestamp of the preceding event.
        prev: Time,
        /// The regressed timestamp.
        at: Time,
    },
    /// An event names a processor outside `0..nprocs`.
    ProcOutOfRange {
        /// When the event was recorded.
        at: Time,
        /// The out-of-range processor id.
        proc: usize,
        /// The processor count the audit was asked to check against.
        nprocs: usize,
    },
    /// A `Free` exceeded the outstanding balance on its account.
    NegativeBalance {
        /// When the offending free happened.
        at: Time,
        /// Account processor.
        proc: usize,
        /// Account node.
        node: usize,
        /// Account area.
        area: MemArea,
        /// Entries the free tried to return.
        freed: u64,
        /// Entries actually outstanding on the account.
        outstanding: u64,
    },
    /// An account of a surviving processor still holds entries at the
    /// end of the recording — an `Alloc` whose `Free` never happened.
    LeakedAllocation {
        /// Account processor.
        proc: usize,
        /// Account node.
        node: usize,
        /// Account area.
        area: MemArea,
        /// Entries never freed.
        entries: u64,
    },
    /// A `ComputeEnd` had no open `ComputeStart` on its
    /// (processor, node, role).
    UnmatchedComputeEnd {
        /// When the stray end was recorded.
        at: Time,
        /// Processor of the span.
        proc: usize,
        /// Node of the span.
        node: usize,
    },
    /// A `ComputeStart` on a surviving processor was never closed.
    DanglingComputeStart {
        /// Processor of the span.
        proc: usize,
        /// Node of the span.
        node: usize,
    },
    /// A front was activated twice within the same membership epoch
    /// (no processor loss or reassignment justified re-execution).
    DuplicateActivation {
        /// When the second activation was recorded.
        at: Time,
        /// The re-activated node.
        node: usize,
        /// Processor of the first activation.
        first_proc: usize,
        /// Processor of the duplicate activation.
        second_proc: usize,
    },
    /// A `StatusApply` arrived from a processor already declared lost —
    /// stale traffic that epoch fencing should have dropped.
    StaleStatusAfterLoss {
        /// When the stale apply was recorded.
        at: Time,
        /// The dead sender.
        from: usize,
        /// The processor that applied the stale view.
        to: usize,
    },
    /// A processor declared lost started compute or activated a front
    /// without rejoining first.
    ActivityFromDeadProc {
        /// When the impossible activity was recorded.
        at: Time,
        /// The dead processor.
        proc: usize,
        /// The node it touched.
        node: usize,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Truncated { dropped } => {
                write!(f, "recording truncated: {dropped} events dropped; audit inconclusive")
            }
            Finding::TimeRegression { index, prev, at } => {
                write!(f, "event {index} at t={at} recorded after t={prev}: time went backwards")
            }
            Finding::ProcOutOfRange { at, proc, nprocs } => {
                write!(f, "t={at}: proc {proc} out of range (nprocs={nprocs})")
            }
            Finding::NegativeBalance { at, proc, node, area, freed, outstanding } => {
                write!(
                    f,
                    "t={at}: proc {proc} freed {freed} entries of node {node}/{} with only \
                     {outstanding} outstanding",
                    area.name()
                )
            }
            Finding::LeakedAllocation { proc, node, area, entries } => {
                write!(
                    f,
                    "proc {proc} leaked {entries} entries of node {node}/{}: alloc without free",
                    area.name()
                )
            }
            Finding::UnmatchedComputeEnd { at, proc, node } => {
                write!(f, "t={at}: proc {proc} ended a compute span on node {node} it never began")
            }
            Finding::DanglingComputeStart { proc, node } => {
                write!(f, "proc {proc} never ended its compute span on node {node}")
            }
            Finding::DuplicateActivation { at, node, first_proc, second_proc } => {
                write!(
                    f,
                    "t={at}: node {node} activated on proc {second_proc} but already active on \
                     proc {first_proc} in the same membership epoch"
                )
            }
            Finding::StaleStatusAfterLoss { at, from, to } => {
                write!(
                    f,
                    "t={at}: proc {to} applied status from proc {from} after its loss was \
                     declared (stale traffic not fenced)"
                )
            }
            Finding::ActivityFromDeadProc { at, proc, node } => {
                write!(f, "t={at}: dead proc {proc} touched node {node} without rejoining")
            }
        }
    }
}

/// Replays `rec` and returns every invariant violation found.
///
/// An empty vector certifies that the recording is internally
/// consistent: memory accounts balance, compute spans pair, activations
/// respect membership epochs, and traffic from dead processors was
/// fenced. Processors that were lost and never rejoined are exempt from
/// the end-of-run balance and span checks — their outstanding state is
/// exactly what recovery reclaims out-of-band.
pub fn audit_recording(nprocs: usize, rec: &Recording) -> Vec<Finding> {
    let mut findings = Vec::new();
    // A ring that evicted its head lost the allocs and starts some of its
    // frees and ends pair with.
    let truncated = rec.dropped() > 0;
    if truncated {
        findings.push(Finding::Truncated { dropped: rec.dropped() });
    }

    // Outstanding entries per (proc, node, area) account.
    let mut balance: FixedMap<(usize, usize, MemArea), u64> = FixedMap::default();
    // Open compute spans per (proc, node) — a count, since role nesting
    // on one node is legal for master fronts.
    let mut open_spans: FixedMap<(usize, usize), u32> = FixedMap::default();
    // node -> (owner proc, membership epoch of the activation).
    let mut activated: FixedMap<usize, (usize, u64)> = FixedMap::default();
    // Bumped on every membership change; re-activation across epochs is
    // legitimate re-execution.
    let mut epoch = 0u64;
    let mut dead: FixedSet<usize> = FixedSet::default();
    let mut ever_lost: FixedSet<usize> = FixedSet::default();
    let mut prev_at: Time = 0;

    for (index, (at, ev)) in rec.events().enumerate() {
        if at < prev_at {
            findings.push(Finding::TimeRegression { index, prev: prev_at, at });
        }
        prev_at = prev_at.max(at);

        let check_proc = |findings: &mut Vec<Finding>, p: usize| {
            if p >= nprocs {
                findings.push(Finding::ProcOutOfRange { at, proc: p, nprocs });
            }
        };
        match *ev {
            SchedEvent::MemAlloc { proc, node, area, entries } => {
                let (proc, node) = (proc as usize, node as usize);
                check_proc(&mut findings, proc);
                *balance.entry((proc, node, area)).or_default() += entries;
            }
            SchedEvent::MemFree { proc, node, area, entries } => {
                let (proc, node) = (proc as usize, node as usize);
                check_proc(&mut findings, proc);
                let slot = balance.entry((proc, node, area)).or_default();
                if *slot < entries {
                    if !truncated {
                        findings.push(Finding::NegativeBalance {
                            at,
                            proc,
                            node,
                            area,
                            freed: entries,
                            outstanding: *slot,
                        });
                    }
                    *slot = 0;
                } else {
                    *slot -= entries;
                }
            }
            SchedEvent::ComputeStart { proc, node, .. } => {
                let (proc, node) = (proc as usize, node as usize);
                check_proc(&mut findings, proc);
                if dead.contains(&proc) {
                    findings.push(Finding::ActivityFromDeadProc { at, proc, node });
                }
                *open_spans.entry((proc, node)).or_default() += 1;
            }
            SchedEvent::ComputeEnd { proc, node, .. } => {
                let (proc, node) = (proc as usize, node as usize);
                check_proc(&mut findings, proc);
                let slot = open_spans.entry((proc, node)).or_default();
                if *slot == 0 {
                    if !truncated {
                        findings.push(Finding::UnmatchedComputeEnd { at, proc, node });
                    }
                } else {
                    *slot -= 1;
                }
            }
            SchedEvent::Activate { proc, node, .. } => {
                let (proc, node) = (proc as usize, node as usize);
                check_proc(&mut findings, proc);
                if dead.contains(&proc) {
                    findings.push(Finding::ActivityFromDeadProc { at, proc, node });
                }
                match activated.get(&node) {
                    Some(&(first_proc, e)) if e == epoch => {
                        findings.push(Finding::DuplicateActivation {
                            at,
                            node,
                            first_proc,
                            second_proc: proc,
                        });
                    }
                    _ => {
                        activated.insert(node, (proc, epoch));
                    }
                }
            }
            SchedEvent::StatusApply { from, about, ref applied, .. } => {
                let from = from as usize;
                check_proc(&mut findings, from);
                check_proc(&mut findings, about as usize);
                for &(to, _) in applied.iter() {
                    check_proc(&mut findings, to as usize);
                }
                // One row is one sender: fenced or not, the whole block is.
                if dead.contains(&from) {
                    findings.extend(applied.iter().map(|&(to, _)| Finding::StaleStatusAfterLoss {
                        at,
                        from,
                        to: to as usize,
                    }));
                }
            }
            SchedEvent::ProcLost { proc, .. } => {
                let proc = proc as usize;
                check_proc(&mut findings, proc);
                dead.insert(proc);
                ever_lost.insert(proc);
                epoch += 1;
            }
            SchedEvent::ProcJoined { proc } => {
                let proc = proc as usize;
                check_proc(&mut findings, proc);
                dead.remove(&proc);
                epoch += 1;
            }
            SchedEvent::SubtreeReassigned { from, to, .. } => {
                check_proc(&mut findings, from as usize);
                check_proc(&mut findings, to as usize);
                epoch += 1;
            }
            // Selection, pool, status-send, fault, forced and grant events
            // are context, not conserved quantities: only their ids are
            // checked.
            SchedEvent::SlaveSelection { master, ref choice, .. } => {
                check_proc(&mut findings, master as usize);
                for pick in &choice.picked {
                    check_proc(&mut findings, pick.proc);
                }
            }
            SchedEvent::Reselect { master, ref dropped, .. } => {
                check_proc(&mut findings, master as usize);
                for &q in dropped.iter() {
                    check_proc(&mut findings, q);
                }
            }
            SchedEvent::FaultDrop { from, to } => {
                check_proc(&mut findings, from as usize);
                check_proc(&mut findings, to as usize);
            }
            SchedEvent::PoolDecision { proc, .. }
            | SchedEvent::Forced { proc, .. }
            | SchedEvent::CoreGrant { proc, .. }
            | SchedEvent::StatusSend { from: proc, .. } => check_proc(&mut findings, proc as usize),
        }
    }

    // End-of-run drains. Dead processors' outstanding state is reclaimed
    // out-of-band by recovery; everyone else must balance to zero.
    let mut leaks: Vec<Finding> = balance
        .into_iter()
        .filter(|&((proc, _, _), left)| left > 0 && !dead.contains(&proc))
        .map(|((proc, node, area), entries)| Finding::LeakedAllocation {
            proc,
            node,
            area,
            entries,
        })
        .collect();
    leaks.sort_by_key(|fnd| match *fnd {
        Finding::LeakedAllocation { proc, node, area, .. } => (proc, node, area as u8),
        _ => unreachable!(),
    });
    findings.extend(leaks);

    let mut dangling: Vec<Finding> = open_spans
        .into_iter()
        .filter(|&((proc, _), open)| open > 0 && !dead.contains(&proc))
        .map(|((proc, node), _)| Finding::DanglingComputeStart { proc, node })
        .collect();
    dangling.sort_by_key(|fnd| match *fnd {
        Finding::DanglingComputeStart { proc, node } => (proc, node),
        _ => unreachable!(),
    });
    findings.extend(dangling);

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FrontClass, SchedEvent, StatusKind, TaskRole};

    fn alloc(proc: u32, node: u32, area: MemArea, entries: u64) -> SchedEvent {
        SchedEvent::MemAlloc { proc, node, area, entries }
    }
    fn free(proc: u32, node: u32, area: MemArea, entries: u64) -> SchedEvent {
        SchedEvent::MemFree { proc, node, area, entries }
    }
    fn apply(from: u32, applied: &[(u32, Time)]) -> SchedEvent {
        SchedEvent::StatusApply {
            from,
            about: from,
            kind: StatusKind::MemDelta,
            applied: Box::new(applied.to_vec()),
        }
    }

    #[test]
    fn clean_recording_has_no_findings() {
        let mut rec = Recording::new(None);
        rec.record(0, alloc(0, 1, MemArea::Front, 10));
        rec.record(0, SchedEvent::Activate { proc: 0, node: 1, class: FrontClass::Type1 });
        rec.record(0, SchedEvent::ComputeStart { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(5, SchedEvent::ComputeEnd { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(5, alloc(0, 1, MemArea::Stack, 4));
        rec.record(5, free(0, 1, MemArea::Front, 10));
        rec.record(9, free(0, 1, MemArea::Stack, 4));
        assert_eq!(audit_recording(2, &rec), vec![]);
    }

    #[test]
    fn dropped_free_names_proc_node_area() {
        let mut rec = Recording::new(None);
        rec.record(0, alloc(3, 7, MemArea::Stack, 42));
        // The matching free never happens.
        let f = audit_recording(4, &rec);
        assert_eq!(
            f,
            vec![Finding::LeakedAllocation { proc: 3, node: 7, area: MemArea::Stack, entries: 42 }]
        );
        let msg = f[0].to_string();
        assert!(msg.contains("proc 3"), "{msg}");
        assert!(msg.contains("node 7"), "{msg}");
        assert!(msg.contains("stack"), "{msg}");
    }

    #[test]
    fn overdrawn_account_is_negative_balance() {
        let mut rec = Recording::new(None);
        rec.record(0, alloc(1, 2, MemArea::Front, 5));
        rec.record(3, free(1, 2, MemArea::Front, 8));
        let f = audit_recording(2, &rec);
        assert_eq!(
            f,
            vec![Finding::NegativeBalance {
                at: 3,
                proc: 1,
                node: 2,
                area: MemArea::Front,
                freed: 8,
                outstanding: 5
            }]
        );
    }

    #[test]
    fn unmatched_and_dangling_spans_are_found() {
        let mut rec = Recording::new(None);
        rec.record(1, SchedEvent::ComputeEnd { proc: 0, node: 4, role: TaskRole::Slave });
        rec.record(2, SchedEvent::ComputeStart { proc: 1, node: 5, role: TaskRole::Elim });
        let f = audit_recording(2, &rec);
        assert!(f.contains(&Finding::UnmatchedComputeEnd { at: 1, proc: 0, node: 4 }));
        assert!(f.contains(&Finding::DanglingComputeStart { proc: 1, node: 5 }));
    }

    #[test]
    fn reactivation_needs_a_membership_epoch() {
        let mut rec = Recording::new(None);
        rec.record(0, SchedEvent::Activate { proc: 0, node: 3, class: FrontClass::Type1 });
        rec.record(4, SchedEvent::Activate { proc: 1, node: 3, class: FrontClass::Type1 });
        let f = audit_recording(2, &rec);
        assert_eq!(
            f,
            vec![Finding::DuplicateActivation { at: 4, node: 3, first_proc: 0, second_proc: 1 }]
        );

        // The same re-activation after a ProcLost is legitimate
        // re-execution, not a duplicate.
        let mut rec = Recording::new(None);
        rec.record(0, SchedEvent::Activate { proc: 0, node: 3, class: FrontClass::Type1 });
        rec.record(2, SchedEvent::ProcLost { proc: 0, nodes_lost: 1 });
        rec.record(4, SchedEvent::Activate { proc: 1, node: 3, class: FrontClass::Type1 });
        assert_eq!(audit_recording(2, &rec), vec![]);
    }

    #[test]
    fn dead_proc_traffic_and_activity_are_fenced() {
        let mut rec = Recording::new(None);
        rec.record(0, SchedEvent::ProcLost { proc: 2, nodes_lost: 0 });
        rec.record(1, apply(2, &[(0, 5), (3, 2)]));
        rec.record(2, SchedEvent::ComputeStart { proc: 2, node: 9, role: TaskRole::Elim });
        let f = audit_recording(4, &rec);
        assert!(f.contains(&Finding::StaleStatusAfterLoss { at: 1, from: 2, to: 0 }));
        assert!(f.contains(&Finding::StaleStatusAfterLoss { at: 1, from: 2, to: 3 }));
        assert!(f.contains(&Finding::ActivityFromDeadProc { at: 2, proc: 2, node: 9 }));

        // After a rejoin both become legal again.
        let mut rec = Recording::new(None);
        rec.record(0, SchedEvent::ProcLost { proc: 2, nodes_lost: 0 });
        rec.record(3, SchedEvent::ProcJoined { proc: 2 });
        rec.record(4, apply(2, &[(0, 1)]));
        assert_eq!(audit_recording(4, &rec), vec![]);
    }

    #[test]
    fn lost_procs_outstanding_state_is_exempt_from_leak_checks() {
        let mut rec = Recording::new(None);
        rec.record(0, alloc(1, 6, MemArea::Front, 12));
        rec.record(0, SchedEvent::ComputeStart { proc: 1, node: 6, role: TaskRole::Elim });
        rec.record(2, SchedEvent::ProcLost { proc: 1, nodes_lost: 1 });
        assert_eq!(audit_recording(2, &rec), vec![]);
    }

    #[test]
    fn time_regression_and_range_are_flagged() {
        let mut rec = Recording::new(None);
        rec.record(5, alloc(0, 1, MemArea::Front, 1));
        rec.record(3, free(0, 1, MemArea::Front, 1));
        rec.record(3, free(9, 1, MemArea::Front, 0));
        let f = audit_recording(2, &rec);
        assert!(f.contains(&Finding::TimeRegression { index: 1, prev: 5, at: 3 }));
        assert!(f.contains(&Finding::ProcOutOfRange { at: 3, proc: 9, nprocs: 2 }));
    }

    /// Every processor id an event names is range-checked: one bad id in
    /// any field of any variant gives exactly one `ProcOutOfRange`, and
    /// nothing else.
    #[test]
    fn every_processor_id_is_range_checked() {
        use crate::recorder::{SlaveChoice, SlavePick};
        let (n, bad) = (4, 9);
        let selection = |master: u32, pick: usize| SchedEvent::SlaveSelection {
            master,
            node: 1,
            choice: Box::new(SlaveChoice {
                metric: vec![0; n],
                view_age: vec![0; n],
                picked: vec![
                    SlavePick { proc: 1, entries: 8 },
                    SlavePick { proc: pick, entries: 8 },
                ],
            }),
            rounds: 0,
            serialized: false,
        };
        let status = |from: u32, about: u32, to: u32| SchedEvent::StatusApply {
            from,
            about,
            kind: StatusKind::LoadDelta,
            applied: Box::new(vec![(0, 3), (to, 1), (2, 0)]),
        };
        let cases = [
            alloc(bad, 1, MemArea::Front, 0),
            free(bad, 1, MemArea::Stack, 0),
            SchedEvent::Activate { proc: bad, node: 1, class: FrontClass::Type1 },
            selection(bad, 2),
            selection(0, bad as usize),
            SchedEvent::Reselect { master: bad, node: 1, dropped: Box::new(vec![2]) },
            SchedEvent::Reselect { master: 0, node: 1, dropped: Box::new(vec![2, bad as usize]) },
            SchedEvent::PoolDecision { proc: bad, depth: 3, picked: Some(1) },
            SchedEvent::StatusSend { from: bad, kind: StatusKind::MemDelta, value: 1 },
            status(bad, 0, 1),
            status(0, bad, 1),
            status(0, 0, bad),
            SchedEvent::FaultDrop { from: bad, to: 1 },
            SchedEvent::FaultDrop { from: 1, to: bad },
            SchedEvent::Forced { proc: bad, node: 1, cost: 5 },
            SchedEvent::ProcLost { proc: bad, nodes_lost: 0 },
            SchedEvent::ProcJoined { proc: bad },
            SchedEvent::SubtreeReassigned { root: 1, from: bad, to: 1 },
            SchedEvent::SubtreeReassigned { root: 1, from: 1, to: bad },
            SchedEvent::CoreGrant { proc: bad, node: 1, cores: 2, busy: 1 },
        ];
        let out_of_range = Finding::ProcOutOfRange { at: 7, proc: bad as usize, nprocs: n };
        for e in cases {
            let mut rec = Recording::new(None);
            rec.record(7, e.clone());
            assert_eq!(audit_recording(n, &rec), vec![out_of_range.clone()], "{e:?}");
        }
        // A compute span pairs on its processor: the bad id is named once
        // per event.
        let mut rec = Recording::new(None);
        rec.record(7, SchedEvent::ComputeStart { proc: bad, node: 1, role: TaskRole::Elim });
        rec.record(7, SchedEvent::ComputeEnd { proc: bad, node: 1, role: TaskRole::Elim });
        assert_eq!(audit_recording(n, &rec), vec![out_of_range.clone(), out_of_range]);
    }

    #[test]
    fn truncated_rings_are_inconclusive() {
        // The ring evicts node 1's alloc and compute start: its free and
        // end are no evidence of a fault. Node 2's alloc is retained and
        // never freed: that leak still counts.
        let mut rec = Recording::new(Some(3));
        rec.record(0, alloc(0, 1, MemArea::Front, 5));
        rec.record(0, SchedEvent::ComputeStart { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(1, SchedEvent::ComputeEnd { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(1, free(0, 1, MemArea::Front, 5));
        rec.record(2, alloc(0, 2, MemArea::Stack, 3));
        assert_eq!(
            audit_recording(1, &rec),
            vec![
                Finding::Truncated { dropped: 2 },
                Finding::LeakedAllocation { proc: 0, node: 2, area: MemArea::Stack, entries: 3 },
            ]
        );
    }
}
