//! Threaded execution backend: the same sans-io [`SchedulerCore`]s the
//! simulator drives, each on its own OS thread behind a channel.
//!
//! One worker thread per processor owns its core and a *physical* memory
//! ledger it maintains from the core's `Alloc`/`Free` effects — an
//! independent re-derivation of the memory accounting that is checked
//! against the core's own `active_peak` at the end of the run. The
//! calling thread runs the one run loop there is
//! ([`mf_core::parsim::run_hosted`]) over a [`CoreHost`] that turns every
//! core access into a command/reply round trip, so the execution is a
//! sequentially consistent interleaving with the *same* timestamps, and
//! the whole [`RunResult`] equals [`mf_core::parsim::run`]'s — the
//! equivalence `mf-bench`'s `backends` test asserts over the paper's
//! full matrix set, recording and sampled series included.
//!
//! Noise models are runtime features of the simulator, not of the
//! protocol; this backend rejects them ([`ExecError::Unsupported`])
//! rather than approximating.

#![warn(missing_docs)]

use mf_core::config::SolverConfig;
use mf_core::error::SimError;
use mf_core::mapping::StaticMapping;
use mf_core::parsim::{run_hosted, CoreHost, RunResult};
use mf_core::proto::{initial_loads, Effect, Input, SchedulerCore, Violation};
use mf_core::recovery::RecoverySnapshot;
use mf_core::views::{StatusDelta, ViewTable};
use mf_sim::recorder::{id32, MemArea};
use mf_sim::{SampleRow, Time};
use mf_symbolic::AssemblyTree;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::mpsc;

/// Why a threaded run could not be performed or failed.
#[derive(Debug)]
pub enum ExecError {
    /// The configuration asks for a simulator-only feature (per-message
    /// fault perturbations).
    Unsupported(String),
    /// The run failed the same way a simulated run can fail.
    Sim(SimError),
    /// A worker's physical ledger disagreed with its core's accounting —
    /// the cross-check this backend exists to perform.
    Ledger {
        /// Offending processor.
        proc: usize,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unsupported(what) => {
                write!(f, "threaded backend does not support {what}")
            }
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Ledger { proc, detail } => {
                write!(f, "physical ledger mismatch on proc {proc}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Commands the run loop's host sends to a worker.
enum Cmd {
    /// Feed one input into the core at virtual time `now`.
    Input { now: Time, input: Input },
    /// Apply a delivered status delta (a broadcast block's fast path).
    Status { at: Time, from: usize, delta: StatusDelta },
    /// Report the cheapest deferred ready task (stall-breaker support).
    CheapestDeferred,
    /// Report a recovery snapshot of the core's current state.
    Snapshot,
    /// Report the core-local fields of a telemetry sample.
    Sample,
    /// Hand the core and the ledger over and exit.
    Finish,
}

/// A worker's answer (the protocol is strictly one reply per command).
enum Reply<'a> {
    Stepped { effects: Vec<Effect>, nodes_done: usize, violation: Option<Violation> },
    Age(Option<Time>),
    Deferred(Option<(u64, usize)>),
    Snapshot(Box<RecoverySnapshot>),
    Sample(SampleRow),
    Final(Box<(SchedulerCore<'a>, Ledger)>),
}

/// The per-worker physical memory ledger, re-derived purely from the
/// core's `Alloc`/`Free` effects: outstanding entries per (node, area)
/// plus the running total and peak. In a correct run it reproduces the
/// core's accounting exactly — an end-to-end check that every allocation
/// the protocol reports is matched and sized consistently.
#[derive(Default)]
struct Ledger {
    outstanding: HashMap<(usize, u8), u64>,
    active: u64,
    peak: u64,
    /// First Free that exceeded its outstanding allocation, if any.
    fault: Option<String>,
}

impl Ledger {
    fn area_key(area: MemArea) -> u8 {
        match area {
            MemArea::Front => 0,
            MemArea::Stack => 1,
        }
    }

    fn alloc(&mut self, node: usize, area: MemArea, entries: u64) {
        *self.outstanding.entry((node, Self::area_key(area))).or_insert(0) += entries;
        self.active += entries;
        self.peak = self.peak.max(self.active);
    }

    fn free(&mut self, node: usize, area: MemArea, entries: u64) {
        let slot = self.outstanding.entry((node, Self::area_key(area))).or_insert(0);
        if *slot < entries || self.active < entries {
            if self.fault.is_none() {
                self.fault = Some(format!(
                    "free of {entries} entries for node {node} ({area:?}) exceeds the {} outstanding",
                    *slot
                ));
            }
            return;
        }
        *slot -= entries;
        self.active -= entries;
    }

    /// The end-of-run cross-check against the core's own accounting
    /// (its active peak and residual): what disagrees, if anything.
    fn mismatch(&self, peak: u64, active: u64) -> Option<String> {
        if let Some(fault) = &self.fault {
            Some(fault.clone())
        } else if self.peak != peak {
            Some(format!("ledger peak {} != accounting peak {peak}", self.peak))
        } else if self.active != active {
            Some(format!("ledger residual {} != accounting residual {active}", self.active))
        } else {
            None
        }
    }
}

/// One worker thread: owns its scheduler core and physical ledger,
/// executes commands until told to finish (or until the host is gone).
fn worker<'a>(
    p: usize,
    tree: &'a AssemblyTree,
    map: &'a StaticMapping,
    cfg: &'a SolverConfig,
    load0: &[u64],
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply<'a>>,
) {
    // The core's beliefs: a one-column view table of its own.
    let mut core = SchedulerCore::new(p, tree, map, cfg, &ViewTable::new(p..p + 1, load0));
    let mut ledger = Ledger::default();
    for cmd in rx {
        let reply = match cmd {
            Cmd::Input { now, input } => {
                let mut effects = Vec::new();
                for e in core.handle(now, input) {
                    match &e {
                        Effect::Alloc { node, area, entries } => {
                            ledger.alloc(*node, *area, *entries)
                        }
                        Effect::Free { node, area, entries } => ledger.free(*node, *area, *entries),
                        _ => {}
                    }
                    effects.push(e);
                }
                Reply::Stepped {
                    effects,
                    nodes_done: core.nodes_done(),
                    violation: core.take_violation(),
                }
            }
            Cmd::Status { at, from, delta } => Reply::Age(core.apply_status(at, from, delta)),
            Cmd::CheapestDeferred => Reply::Deferred(core.cheapest_deferred()),
            Cmd::Snapshot => Reply::Snapshot(Box::new(core.snapshot())),
            Cmd::Sample => Reply::Sample(core.sample()),
            Cmd::Finish => {
                let _ = tx.send(Reply::Final(Box::new((core, ledger))));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// The channel-backed [`CoreHost`]: processor `p`'s core lives on worker
/// thread `p`, one command/reply round trip away.
struct Workers<'a> {
    links: Vec<(mpsc::Sender<Cmd>, mpsc::Receiver<Reply<'a>>)>,
    /// Every worker's physical ledger, handed over by [`CoreHost::finish`].
    ledgers: Vec<Ledger>,
}

impl<'a> Workers<'a> {
    /// One command to worker `p`, one reply back. A worker only goes away
    /// early by panicking, which `std::thread::scope` re-raises once this
    /// thread unwinds — so a dead channel is a panic here too, naming the
    /// processor, never a run error.
    fn call(&self, p: usize, cmd: Cmd) -> Reply<'a> {
        let (tx, rx) = &self.links[p];
        tx.send(cmd)
            .ok()
            .and_then(|()| rx.recv().ok())
            .unwrap_or_else(|| panic!("the worker thread of processor {p} panicked"))
    }
}

impl<'a> CoreHost<'a> for Workers<'a> {
    fn step(
        &mut self,
        p: usize,
        now: Time,
        input: Input,
        perform: impl FnMut(Effect),
    ) -> (usize, Option<Violation>) {
        let Reply::Stepped { effects, nodes_done, violation } =
            self.call(p, Cmd::Input { now, input })
        else {
            unreachable!("one reply kind per command");
        };
        effects.into_iter().for_each(perform);
        (nodes_done, violation)
    }

    // One round trip per target: the cost of a block here is the
    // channel, not the loop.
    fn apply_block(
        &mut self,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        mut ages: Option<&mut Vec<(u32, Time)>>,
    ) {
        for p in targets.filter(|&p| p != from && !skip(p)) {
            let Reply::Age(age) = self.call(p, Cmd::Status { at, from, delta }) else {
                unreachable!("one reply kind per command");
            };
            if let (Some(ages), Some(age)) = (ages.as_deref_mut(), age) {
                ages.push((id32(p), age));
            }
        }
    }

    fn cheapest_deferred(&mut self, p: usize) -> Option<(u64, usize)> {
        let Reply::Deferred(d) = self.call(p, Cmd::CheapestDeferred) else {
            unreachable!("one reply kind per command");
        };
        d
    }

    fn snapshot(&mut self, p: usize) -> RecoverySnapshot {
        let Reply::Snapshot(s) = self.call(p, Cmd::Snapshot) else {
            unreachable!("one reply kind per command");
        };
        *s
    }

    fn sample(&mut self, p: usize) -> SampleRow {
        let Reply::Sample(row) = self.call(p, Cmd::Sample) else {
            unreachable!("one reply kind per command");
        };
        row
    }

    fn finish(&mut self) -> Vec<SchedulerCore<'a>> {
        let mut cores = Vec::with_capacity(self.links.len());
        for p in 0..self.links.len() {
            let Reply::Final(last) = self.call(p, Cmd::Finish) else {
                unreachable!("one reply kind per command");
            };
            let (core, ledger) = *last;
            cores.push(core);
            self.ledgers.push(ledger);
        }
        cores
    }
}

/// Runs the parallel factorization on real OS threads: one worker per
/// processor, the run loop on the calling thread.
///
/// Produces the same [`RunResult`] as [`mf_core::parsim::run`], field for
/// field. Returns [`ExecError::Unsupported`] when the configuration asks
/// for simulator-only noise models, and [`ExecError::Ledger`] when a
/// worker's physically re-derived memory ledger disagrees with its
/// core's accounting.
pub fn run_threads(
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
) -> Result<RunResult, ExecError> {
    // Membership faults (kills, joins, a network kill, stragglers) are
    // deterministic and fully supported; only per-message noise (jitter,
    // delays, drops) remains simulator-only.
    if cfg.fault.as_ref().is_some_and(|m| !m.is_message_quiet()) {
        return Err(ExecError::Unsupported("fault perturbations (simulator-only noise)".into()));
    }
    let load0 = initial_loads(tree, map, cfg.nprocs);

    std::thread::scope(|scope| {
        let mut host = Workers { links: Vec::with_capacity(cfg.nprocs), ledgers: Vec::new() };
        for p in 0..cfg.nprocs {
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            host.links.push((cmd_tx, reply_rx));
            let load0 = &load0;
            scope.spawn(move || worker(p, tree, map, cfg, load0, cmd_rx, reply_tx));
        }
        let result = run_hosted(tree, map, cfg, &mut host).map_err(ExecError::Sim)?;
        for (proc, ledger) in host.ledgers.iter().enumerate() {
            if let Some(detail) = ledger.mismatch(result.peaks[proc], result.final_active[proc]) {
                return Err(ExecError::Ledger { proc, detail });
            }
        }
        Ok(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::config::SolverConfig;
    use mf_core::mapping::compute_mapping;
    use mf_order::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_symbolic::seqstack::AssemblyDiscipline;
    use mf_symbolic::AmalgamationOptions;

    fn tree_for(nx: usize) -> AssemblyTree {
        let a = grid2d(nx, nx, Stencil::Star);
        let p = OrderingKind::Metis.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
        mf_symbolic::seqstack::apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        s.tree
    }

    #[test]
    fn threads_match_simulator_exactly() {
        let tree = tree_for(24);
        let base = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        for cfg in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) },
            base.clone(),
            SolverConfig {
                type2_front_min: 24,
                capacity: Some(1),
                ..SolverConfig::mumps_baseline(4)
            },
            // Observability rides the shared loop: the flight recording
            // and the sampled series are part of the result and must be
            // bit-identical too.
            SolverConfig { record_events: true, ..base.clone() },
            SolverConfig { sample_every: Some(50), ..base },
        ] {
            let map = compute_mapping(&tree, &cfg);
            let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
            let thr = run_threads(&tree, &map, &cfg).unwrap();
            assert!(sim.recording.as_ref().is_none_or(|rec| !rec.is_empty()));
            assert!(sim.timeseries.as_ref().is_none_or(|ts| ts.total_len() > 0));
            assert_eq!(thr, sim);
        }
    }

    #[test]
    fn noise_models_are_rejected() {
        let tree = tree_for(16);
        let cfg = SolverConfig {
            type2_front_min: 24,
            fault: Some(mf_sim::FaultModel::intensity(13, 3.0)),
            ..SolverConfig::mumps_baseline(2)
        };
        let map = compute_mapping(&tree, &cfg);
        assert!(matches!(run_threads(&tree, &map, &cfg), Err(ExecError::Unsupported(_))));
        // The *quiet* fault model perturbs nothing and is accepted.
        let cfg = SolverConfig {
            type2_front_min: 24,
            fault: Some(mf_sim::FaultModel::quiet(9)),
            ..SolverConfig::mumps_baseline(2)
        };
        let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
        let thr = run_threads(&tree, &map, &cfg).unwrap();
        assert_eq!(thr, sim);
    }

    #[test]
    fn membership_faults_match_simulator_exactly() {
        // Kill and join schedules are deterministic membership faults:
        // the threaded backend must reproduce the simulator's recovery
        // bit for bit — the whole result, recovery counters included.
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let faults = [
            mf_sim::FaultModel { kill_at: vec![(64, 1)], ..mf_sim::FaultModel::quiet(1) },
            mf_sim::FaultModel { join_at: vec![(64, 3)], ..mf_sim::FaultModel::quiet(1) },
            mf_sim::FaultModel {
                kill_at: vec![(256, 2)],
                join_at: vec![(32, 3)],
                ..mf_sim::FaultModel::quiet(1)
            },
        ];
        for fault in faults {
            let cfg = SolverConfig {
                recovery: Some(mf_core::config::RecoveryConfig::default()),
                fault: Some(fault),
                ..cfg0.clone()
            };
            let sim = mf_core::parsim::run(&tree, &map, &cfg).unwrap();
            let thr = run_threads(&tree, &map, &cfg).unwrap();
            assert_eq!(thr, sim);
        }
    }

    #[test]
    fn network_kill_reports_partitioned() {
        // The same typed error as the simulator backend: a crossed
        // network-kill threshold is a Partitioned, not a hang.
        let tree = tree_for(24);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig {
            fault: Some(mf_sim::FaultModel {
                kill_network_after: Some(10),
                ..mf_sim::FaultModel::quiet(1)
            }),
            ..cfg0
        };
        match run_threads(&tree, &map, &cfg) {
            Err(ExecError::Sim(SimError::Partitioned { after, diag })) => {
                assert_eq!(after, 10);
                assert!(diag.nodes_done < diag.total_nodes);
                assert!(diag.dropped_messages > 0);
                assert!(diag.dead.is_empty(), "a partition kills no processor");
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_still_guards() {
        let tree = tree_for(16);
        let cfg = SolverConfig {
            type2_front_min: 24,
            time_limit: Some(1),
            ..SolverConfig::mumps_baseline(2)
        };
        let map = compute_mapping(&tree, &cfg);
        match run_threads(&tree, &map, &cfg) {
            Err(ExecError::Sim(SimError::TimeLimit { .. })) => {}
            other => panic!("expected TimeLimit, got {other:?}"),
        }
    }
}
