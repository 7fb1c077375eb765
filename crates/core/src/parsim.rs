//! The run loop: [`crate::proto::SchedulerCore`]s driven in virtual time.
//!
//! Every processor runs the MUMPS-style loop inside its sans-io core;
//! this module is the *runtime*, and there is only one: it owns the
//! event queue, the network model, the duration model (flop rate,
//! stragglers), the fault injector, membership orchestration,
//! the flight recorder and the traffic-side metrics. The loop feeds
//! events into the cores and performs the effects they emit — in
//! emission order, which is what keeps it bit-identical to the
//! historical monolithic scheduler — and reaches the cores only through
//! a [`CoreHost`]: [`run`] keeps them in a `Vec` on the calling thread
//! over one shared [`ViewTable`] ([`LocalCores`]), the `mf-exec` crate
//! keeps each on its own OS thread.

use crate::config::SolverConfig;
use crate::error::{RunDiagnostics, SimError};
use crate::malleable::compute_ticks;
use crate::mapping::StaticMapping;
use crate::proto::{initial_loads, Effect, Input, Msg, SchedulerCore, Violation, TIMER_LEASE};
use crate::recovery::{digest_factors, Membership, RecoverySnapshot};
use crate::views::{StatusDelta, ViewTable};
use mf_sim::recorder::{id32, SchedEvent, TaskRole};
use mf_sim::{
    Delivery, Event, EventPayload, FaultInjector, FaultModel, MsgClass, NetworkModel, ProcMemory,
    Recording, RunMetrics, RunTimeseries, SampleRow, Sim, Time,
};
use mf_symbolic::AssemblyTree;
use std::ops::Range;

/// Outcome of a simulated parallel factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-processor peak of the active memory (stack + fronts), the
    /// quantity behind every table of the paper.
    pub peaks: Vec<u64>,
    /// `max(peaks)` — the "maximum stack memory peak" of Tables 2-5.
    pub max_peak: u64,
    /// Mean of the per-processor peaks (memory balance indicator).
    pub avg_peak: f64,
    /// Virtual completion time (Table 6's factorization time).
    pub makespan: Time,
    /// Messages exchanged.
    pub messages: u64,
    /// Events the engine delivered (messages + timers): the denominator
    /// of the scale bench's ns/event figure. The same on every backend —
    /// they share the queue and the loop.
    pub events_delivered: u64,
    /// Per-processor factor entries stored at the end.
    pub factor_entries: Vec<u64>,
    /// Fronts fully processed (must equal `total_nodes`).
    pub nodes_done: usize,
    /// Fronts in the tree.
    pub total_nodes: usize,
    /// Messages the fault injector dropped (0 without a fault model).
    pub dropped_messages: u64,
    /// Degradation events under a hard capacity: serialize-on-master
    /// fallbacks plus force-activated deferred tasks (0 without a cap).
    pub forced_activations: u64,
    /// Per-processor active memory at the end: all zeros in a correct
    /// run (every CB pushed was popped, every front freed — the entry
    /// conservation invariant the robustness proptests assert).
    pub final_active: Vec<u64>,
    /// Per-processor saturating-accounting underflow counts (0 in a
    /// correct run; nonzero only on runs that also returned an error).
    pub underflows: Vec<u64>,
    /// Always-on run metrics: traffic by message class, staleness and
    /// pool-depth histograms, per-processor busy/stalled/decision
    /// counters.
    pub metrics: RunMetrics,
    /// The flight recording when [`SolverConfig::record_events`] was set.
    pub recording: Option<Recording>,
    /// The sampled telemetry trajectory when
    /// [`SolverConfig::sample_every`] was set (see `mf_sim::timeseries`).
    pub timeseries: Option<RunTimeseries>,
    /// Partition-invariant digest of the per-node factor totals over the
    /// surviving processors ([`digest_factors`]): a recovered run must
    /// reproduce the fault-free run's digest exactly.
    pub factor_digest: u64,
    /// Processors dead at the end (empty without membership faults).
    pub dead: Vec<usize>,
}

impl RunResult {
    /// One-line human summary of the run's headline numbers, shared by
    /// every report binary (with [`RunMetrics::traffic_line`] and
    /// [`RunMetrics::decisions_line`] for the per-registry detail).
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "peak {} entries, makespan {} ticks, {} messages, {}/{} fronts, \
             {} dropped, {} forced, {} underflows",
            self.max_peak,
            self.makespan,
            self.messages,
            self.nodes_done,
            self.total_nodes,
            self.dropped_messages,
            self.forced_activations,
            self.underflows.iter().sum::<u64>()
        );
        if !self.metrics.recovery.is_zero() {
            line.push_str("; ");
            line.push_str(&self.metrics.recovery.summary());
        }
        line
    }
}

/// Where the cores live: the only way the run loop reaches a
/// [`SchedulerCore`]. Processor `p`'s core sits behind each call, in this
/// thread's memory or a channel round trip away; the loop cannot tell,
/// which is what keeps the backends bit-identical.
pub trait CoreHost<'a> {
    /// Feeds `input` into core `p` at virtual time `now`, hands the
    /// effects it emits to `perform` in emission order, and returns the
    /// fronts `p` has completed so far plus the fatal condition the input
    /// flagged, if any.
    fn step(
        &mut self,
        p: usize,
        now: Time,
        input: Input,
        perform: impl FnMut(Effect),
    ) -> (usize, Option<Violation>);
    /// One broadcast block of status deltas, or a contiguous segment of
    /// one: [`SchedulerCore::apply_status`] on every core of `targets` but
    /// the sender and those `skip` names, in ascending order, which writes
    /// their views and nothing else. When `ages` is given, each core that
    /// replaced a belief is pushed with that belief's age, in the same
    /// order ([`ViewTable::deliver_block`]'s contract).
    fn apply_block(
        &mut self,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        ages: Option<&mut Vec<(u32, Time)>>,
    );
    /// [`SchedulerCore::cheapest_deferred`] on core `p`.
    fn cheapest_deferred(&mut self, p: usize) -> Option<(u64, usize)>;
    /// [`SchedulerCore::snapshot`] of core `p`.
    fn snapshot(&mut self, p: usize) -> RecoverySnapshot;
    /// [`SchedulerCore::sample`] of core `p`.
    fn sample(&mut self, p: usize) -> SampleRow;
    /// Ends the run and hands every core over, in processor order: the
    /// per-processor final state results and diagnostics are built from.
    fn finish(&mut self) -> Vec<SchedulerCore<'a>>;
}

/// The in-process host: the cores in a `Vec` on the calling thread, each
/// holding its column of one shared `P × P` [`ViewTable`].
pub struct LocalCores<'a> {
    cores: Vec<SchedulerCore<'a>>,
    views: ViewTable,
}

impl<'a> CoreHost<'a> for LocalCores<'a> {
    #[inline]
    fn step(
        &mut self,
        p: usize,
        now: Time,
        input: Input,
        perform: impl FnMut(Effect),
    ) -> (usize, Option<Violation>) {
        let core = &mut self.cores[p];
        core.handle(now, input).for_each(perform);
        (core.nodes_done(), core.take_violation())
    }
    // The hot path of every broadcast block. Straight to the table, not
    // through the cores: the block's targets are consecutive slots of one
    // row, so the block is one sweep of it.
    #[inline(always)]
    fn apply_block(
        &mut self,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        ages: Option<&mut Vec<(u32, Time)>>,
    ) {
        self.views.deliver_block(at, from, delta, targets, skip, ages)
    }
    fn cheapest_deferred(&mut self, p: usize) -> Option<(u64, usize)> {
        self.cores[p].cheapest_deferred()
    }
    fn snapshot(&mut self, p: usize) -> RecoverySnapshot {
        self.cores[p].snapshot()
    }
    fn sample(&mut self, p: usize) -> SampleRow {
        self.cores[p].sample()
    }
    fn finish(&mut self) -> Vec<SchedulerCore<'a>> {
        std::mem::take(&mut self.cores)
    }
}

/// One fresh core per processor over one fresh view table, for the
/// in-process host.
pub fn local_cores<'a>(
    tree: &'a AssemblyTree,
    map: &'a StaticMapping,
    cfg: &'a SolverConfig,
) -> LocalCores<'a> {
    let views = ViewTable::new(0..cfg.nprocs, &initial_loads(tree, map, cfg.nprocs));
    let cores = (0..cfg.nprocs).map(|p| SchedulerCore::new(p, tree, map, cfg, &views)).collect();
    LocalCores { cores, views }
}

/// The runtime: transport, time, noise, membership and observability.
/// Everything *between* the cores lives here; everything *inside* a
/// processor lives in its [`SchedulerCore`].
struct SimDriver<'a> {
    tree: &'a AssemblyTree,
    cfg: &'a SolverConfig,
    sim: Sim<Msg>,
    net: NetworkModel,
    fault: Option<FaultInjector>,
    /// Traffic-side metrics (message counts/bytes, drops, busy time);
    /// merged with each core's decision-side registry at the end.
    metrics: RunMetrics,
    /// Flight recorder; `None` = disabled (the zero-cost path: cores emit
    /// no `Record` effects and every driver-side site is one branch).
    rec: Option<Recording>,
    /// Per-processor `(node, role)` by compute key, maintained only while
    /// recording: the driver synthesizes `ComputeStart` from the
    /// `StartCompute` effect and `ComputeEnd` from its timer, so the
    /// core's compute path needs no recording branch.
    work_info: Vec<Vec<(usize, TaskRole)>>,
    /// Fronts each core reported done at its last step; a killed
    /// processor's count drops to zero (its completions are recomputed
    /// elsewhere and must not double-count).
    nodes_done: Vec<usize>,
    /// Sum of `nodes_done`: fronts done over the surviving processors.
    done: usize,
    /// Death declarations emitted by the cores' lease checks this event,
    /// arbitrated after the event unwinds (one recovery per actual loss).
    pending_dead: Vec<usize>,
    /// Scheduled-but-unprocessed events that are *not* failure-detector
    /// chatter (heartbeat messages, heartbeat/lease timers). Zero means
    /// the run is quiescent apart from the detector — which is how a
    /// recovery-enabled run (whose timer chain never lets the queue
    /// drain) detects the capacity-deferral deadlock and genuine stalls.
    live_events: i64,
    /// Messages addressed to dormant (not yet joined) processors, parked
    /// until the join and delivered then.
    buffered: Vec<Vec<(usize, Msg)>>,
    /// Processors fail-stopped so far (fault schedule or made-real
    /// spurious declarations), in kill order.
    dead: Vec<usize>,
    /// Factor-share obligation record (which processors were routed a
    /// slave task or type-3 share of which node), maintained only on
    /// membership runs — a dead share holder forces its nodes into the
    /// recompute set even when the node's owner survived.
    ledger: crate::recovery::ObligationLedger,
    /// Whether to maintain `ledger` (membership orchestration active).
    track_obligations: bool,
    /// Timers refused while [`SimDriver::finishing`], as `(processor,
    /// key, after)`: a kill that takes completed fronts with it re-arms
    /// them, or nobody would be left to declare the loss.
    refused: Vec<(usize, u64, Time)>,
    /// Sampled telemetry series; `None` = sampling disabled.
    ts: Option<RunTimeseries>,
    /// The next sample instant; `Time::MAX` with sampling disabled, so
    /// the per-delivery check is one comparison that never passes.
    next_sample: Time,
}

impl<'a> SimDriver<'a> {
    fn new(tree: &'a AssemblyTree, cfg: &'a SolverConfig) -> Self {
        assert_ne!(cfg.sample_every, Some(0), "a zero sample interval never advances");
        SimDriver {
            tree,
            cfg,
            sim: Sim::new(),
            net: cfg.network,
            // Only message-level noise needs the injector. Without one
            // every broadcast stays one block; kill and join schedules
            // are `Membership`'s and fire inside blocks too.
            fault: cfg.fault.clone().filter(FaultModel::perturbs_messages).map(FaultInjector::new),
            metrics: RunMetrics::new(cfg.nprocs),
            rec: cfg.record_events.then(|| Recording::new(cfg.event_capacity)),
            work_info: if cfg.record_events { vec![Vec::new(); cfg.nprocs] } else { Vec::new() },
            nodes_done: vec![0; cfg.nprocs],
            done: 0,
            pending_dead: Vec::new(),
            live_events: 0,
            buffered: vec![Vec::new(); cfg.nprocs],
            dead: Vec::new(),
            ledger: Default::default(),
            track_obligations: false,
            refused: Vec::new(),
            ts: cfg.sample_every.map(|every| RunTimeseries::new(cfg.nprocs, every)),
            next_sample: cfg.sample_every.unwrap_or(Time::MAX),
        }
    }

    /// All fronts are done over the live processors; the run only keeps
    /// going to drain in-flight live traffic (so the makespan matches the
    /// recovery-off run), and the failure detector stops re-arming so its
    /// chain dies out.
    fn finishing(&self) -> bool {
        self.done >= self.tree.len()
    }

    /// True once the fault model's network kill threshold was crossed.
    fn partitioned(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.partitioned())
    }

    /// Records an event when the recorder is enabled.
    #[inline]
    fn record(&mut self, build: impl FnOnce() -> SchedEvent) {
        let now = self.sim.now();
        if let Some(rec) = self.rec.as_mut() {
            rec.record(now, build());
        }
    }

    /// Records an event a core emitted. Kept out of line: inlined, the
    /// drop of a `SchedEvent` sits in the per-effect loop of every run,
    /// recording or not, and measurably slowed the recording-off
    /// `sim_scale` workload on a 2-CPU host.
    #[cold]
    #[inline(never)]
    fn record_emitted(&mut self, ev: SchedEvent) {
        self.record(|| ev);
    }

    fn send(&mut self, from: usize, to: usize, msg: Msg, bytes: u64) {
        debug_assert_ne!(from, to, "self-sends are handled inside the core");
        if self.track_obligations {
            // Recorded at send time: a share routed toward a processor
            // that dies in flight is as lost as one that arrived.
            match msg {
                Msg::SlaveTask { node, .. } => self.ledger.slave(node, to),
                Msg::Type3Share { node, .. } => self.ledger.share(node, to),
                _ => {}
            }
        }
        match msg.class() {
            MsgClass::Control => {
                self.metrics.control_msgs += 1;
                self.metrics.control_bytes += bytes;
            }
            MsgClass::Status => {
                self.metrics.status_msgs += 1;
                self.metrics.status_bytes += bytes;
            }
        }
        let live = !matches!(msg, Msg::Heartbeat);
        match &mut self.fault {
            None => {
                self.net.send(&mut self.sim, from, to, msg, bytes);
                self.live_events += live as i64;
            }
            Some(inj) => {
                let base = self.net.transfer_time(bytes);
                match inj.route(base, msg.class()) {
                    Some(t) => {
                        self.sim.schedule(t, EventPayload::Message { from, to, msg });
                        self.live_events += live as i64;
                    }
                    None => {
                        self.metrics.dropped_status += 1;
                        self.record(|| SchedEvent::FaultDrop { from: id32(from), to: id32(to) });
                    }
                }
            }
        }
    }

    fn broadcast(&mut self, from: usize, msg: Msg, bytes: u64) {
        // Every broadcast is a status refresh: record the send once (not
        // per receiver) with its payload value.
        if self.rec.is_some() {
            if let Some((kind, value)) = msg.status_kind() {
                self.record(|| SchedEvent::StatusSend { from: id32(from), kind, value });
            }
        }
        debug_assert!(matches!(msg.class(), MsgClass::Status), "broadcast is status-only");
        if self.fault.is_none() {
            let n = self.cfg.nprocs.saturating_sub(1) as u64;
            self.metrics.status_msgs += n;
            self.metrics.status_bytes += n * bytes;
            self.live_events += n as i64;
            self.net.broadcast(&mut self.sim, from, self.cfg.nprocs, msg, bytes);
            return;
        }
        // Under message noise every target is routed independently
        // (jitter, delay and drops are per-message), so the single-entry
        // broadcast fast path cannot apply.
        for to in 0..self.cfg.nprocs {
            if to != from {
                self.send(from, to, msg.clone(), bytes);
            }
        }
    }

    /// Duration of a `flops`-sized work unit on processor `p` granted
    /// `cores` cores: the shared [`compute_ticks`] model (exact integer
    /// flop-rate time at one core, shrunk by the speedup model),
    /// slowed by the fault model's straggler factor.
    fn duration_of(&self, p: usize, flops: u64, cores: u32) -> Time {
        let base = compute_ticks(flops, cores);
        // Straggler processors compute slower by their speed factor.
        match &self.fault {
            None => base,
            Some(f) => {
                let factor = f.speed_factor(p);
                if factor > 1.0 {
                    ((base as f64 * factor).round() as Time).max(1)
                } else {
                    base
                }
            }
        }
    }

    /// Feeds one input into core `p` and performs the effects it emits,
    /// in emission order — the contract that keeps the loop bit-identical
    /// to the historical monolithic scheduler. A violation the input
    /// flagged ends the run.
    fn step(
        &mut self,
        host: &mut impl CoreHost<'a>,
        p: usize,
        now: Time,
        input: Input,
    ) -> Result<(), SimError> {
        if self.rec.is_some() {
            // A fired timer is a compute completion: record ComputeEnd
            // before the core's effects (exactly where the completion
            // handler sits in the event order).
            if let Input::TimerFired { key } = &input {
                if let Some(&(node, role)) = self.work_info[p].get(*key as usize) {
                    self.record(|| SchedEvent::ComputeEnd {
                        proc: id32(p),
                        node: id32(node),
                        role,
                    });
                }
            }
        }
        let (nodes_done, violation) = host.step(p, now, input, |e| self.perform(p, e));
        self.done = self.done - self.nodes_done[p] + nodes_done;
        self.nodes_done[p] = nodes_done;
        match violation {
            None => Ok(()),
            Some(Violation::Accounting { proc, area }) => {
                Err(SimError::Accounting { proc, area, diag: self.diagnostics(host) })
            }
            Some(Violation::Protocol { detail }) => {
                Err(SimError::Protocol { detail, diag: self.diagnostics(host) })
            }
        }
    }

    /// Performs one effect of processor `p`'s core. Forced inline: this
    /// is the body of the per-effect loop in [`CoreHost::step`], and as an
    /// out-of-line call it cost the Table 2 sweep ~8%.
    #[inline(always)]
    fn perform(&mut self, p: usize, e: Effect) {
        match e {
            Effect::Send { to, msg, bytes } => self.send(p, to, msg, bytes),
            Effect::Broadcast { msg, bytes } => self.broadcast(p, msg, bytes),
            Effect::StartCompute { key, node, role, flops, cores } => {
                if self.rec.is_some() {
                    self.record(|| SchedEvent::ComputeStart {
                        proc: id32(p),
                        node: id32(node),
                        role,
                    });
                    let info = &mut self.work_info[p];
                    let k = key as usize;
                    if info.len() <= k {
                        info.resize(k + 1, (0, TaskRole::Elim));
                    }
                    info[k] = (node, role);
                }
                let duration = self.duration_of(p, flops, cores);
                self.metrics.procs[p].busy_ticks += duration;
                self.live_events += 1;
                self.sim.schedule_timer(p, duration, key);
            }
            Effect::Arm { key, after } => {
                if self.partitioned() {
                    // A partitioned network starves the detector too:
                    // refusing to re-arm lets the run drain and fail with
                    // a typed `Partitioned` instead of spinning forever.
                } else if self.finishing() {
                    // Same once all fronts are done: the detector chain
                    // dies out and the queue drains — unless a kill takes
                    // the completion back, see `kill_proc`.
                    self.refused.push((p, key, after));
                } else {
                    self.sim.schedule_timer(p, after, key);
                }
            }
            Effect::DeclareDead { proc } => self.pending_dead.push(proc),
            Effect::Alloc { node, area, entries } => {
                self.record(|| SchedEvent::MemAlloc {
                    proc: id32(p),
                    node: id32(node),
                    area,
                    entries,
                });
            }
            Effect::Free { node, area, entries } => {
                self.record(|| SchedEvent::MemFree {
                    proc: id32(p),
                    node: id32(node),
                    area,
                    entries,
                });
            }
            Effect::Record(ev) => self.record_emitted(ev),
        }
    }

    /// Before the delivery just popped: for each sample instant `s` up to
    /// now, one row per alive and joined processor, in processor order,
    /// stamped with `s` and the traffic counters — the state after every
    /// event earlier than `s`. A read, not a delivery: the events, and the
    /// indices kills and joins key on, are the unsampled run's.
    #[cold]
    #[inline(never)]
    fn sample_due(&mut self, host: &mut impl CoreHost<'a>, ms: Option<&Membership>) {
        let (Some(ts), Some(every)) = (self.ts.as_mut(), self.cfg.sample_every) else { return };
        let (control_msgs, status_msgs) = (self.metrics.control_msgs, self.metrics.status_msgs);
        while self.next_sample <= self.sim.now() {
            let s = self.next_sample;
            for p in 0..self.cfg.nprocs {
                if ms.is_none_or(|m| m.alive[p] && m.joined[p]) {
                    ts.push(p, SampleRow { at: s, control_msgs, status_msgs, ..host.sample(p) });
                }
            }
            self.next_sample = s.saturating_add(every);
        }
    }

    /// Last-resort degradation step under a hard capacity: when the run
    /// is quiescent with unfinished fronts because every idle processor
    /// is deferring every ready task, force the globally cheapest
    /// deferred activation so the factorization completes (degrading
    /// memory, never correctness). With nothing to force it is a genuine
    /// stall (a dead processor nobody can detect, a dead network) and is
    /// reported as one.
    fn force_one_deferred(
        &mut self,
        host: &mut impl CoreHost<'a>,
        ms: Option<&Membership>,
    ) -> Result<(), SimError> {
        // Forcing work onto a dead or dormant processor helps nobody.
        let best = self.cfg.capacity.and_then(|_| {
            (0..self.cfg.nprocs)
                .filter(|&p| ms.is_none_or(|m| m.alive[p] && m.joined[p]))
                .filter_map(|p| host.cheapest_deferred(p).map(|(cost, node)| (cost, p, node)))
                .min()
        });
        let Some((_, p, node)) = best else {
            return Err(self.stall_error(host));
        };
        let now = self.sim.now();
        self.step(host, p, now, Input::Force { node })
    }

    /// No-progress error for the current state: a crossed network-kill
    /// threshold is a `Partitioned`, anything else a generic `Stalled`.
    fn stall_error(&self, host: &mut impl CoreHost<'a>) -> SimError {
        let diag = self.diagnostics(host);
        if self.partitioned() {
            let after = self.cfg.fault.as_ref().and_then(|f| f.kill_network_after).unwrap_or(0);
            SimError::Partitioned { after, diag }
        } else {
            SimError::Stalled { diag }
        }
    }

    /// Fail-stops processor `d`: snapshots the dying core (the last
    /// coherent view of what dies with it) and marks it dead. Detection
    /// and recovery happen later, through the lease protocol — so a kill
    /// that takes completed fronts with it while the run was finishing
    /// puts the survivors' wound-down timers back.
    fn kill_proc(&mut self, host: &mut impl CoreHost<'a>, ms: &mut Membership, d: usize) {
        if !ms.alive[d] {
            return;
        }
        let snap = if ms.joined[d] {
            host.snapshot(d)
        } else {
            RecoverySnapshot { proc: d, ..Default::default() }
        };
        ms.note_kill(d, snap);
        self.dead.push(d);
        self.done -= std::mem::take(&mut self.nodes_done[d]);
        self.metrics.recovery.kills_observed += 1;
        if !self.finishing() {
            for (p, key, after) in std::mem::take(&mut self.refused) {
                if ms.alive[p] {
                    self.sim.schedule_timer(p, after, key);
                }
            }
        }
    }

    /// Arbitrates the death declarations the cores' lease checks emitted:
    /// deduplicates (every survivor typically declares the same loss),
    /// makes a spurious declaration real (fail-stop semantics — a
    /// processor the machine gave up on cannot be half-alive), builds one
    /// recovery plan per actual loss, and feeds it to every reachable
    /// core in processor order.
    fn process_deaths(
        &mut self,
        host: &mut impl CoreHost<'a>,
        ms: &mut Membership,
    ) -> Result<(), SimError> {
        while !self.pending_dead.is_empty() {
            for d in std::mem::take(&mut self.pending_dead) {
                if ms.recovered_deaths[d] {
                    continue;
                }
                self.kill_proc(host, ms, d);
                if !ms.adopters_exist(d) {
                    return Err(self.stall_error(host));
                }
                let snaps: Vec<RecoverySnapshot> = (0..self.cfg.nprocs)
                    .map(|p| {
                        if ms.alive[p] {
                            host.snapshot(p)
                        } else {
                            ms.dead_snaps[p]
                                .clone()
                                .unwrap_or(RecoverySnapshot { proc: p, ..Default::default() })
                        }
                    })
                    .collect();
                let plan = ms.plan_loss(self.tree, self.cfg.capacity, d, &snaps, &mut self.ledger);
                self.metrics.recovery.subtrees_reassigned += plan.roots.len() as u64;
                self.metrics.recovery.nodes_recomputed += plan.recompute.len() as u64;
                self.metrics.recovery.orphaned_cb_entries += plan.dead_stack_entries;
                self.record(|| SchedEvent::ProcLost {
                    proc: id32(d),
                    nodes_lost: plan.recompute.len(),
                });
                for &(root, adopter) in &plan.roots {
                    self.record(|| SchedEvent::SubtreeReassigned {
                        root: id32(root),
                        from: id32(d),
                        to: id32(adopter),
                    });
                }
                let now = self.sim.now();
                for p in 0..self.cfg.nprocs {
                    if ms.alive[p] && ms.joined[p] {
                        self.step(host, p, now, Input::Recover { plan: Box::new(plan.clone()) })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Brings processor `q` into the machine: announces the join to every
    /// reachable core, replays the membership log so the joiner's
    /// overlays match the survivors', and delivers the traffic parked
    /// while it was dormant. From then on it takes work through the normal
    /// paths: its own static tasks, slave selection and recovery adoption.
    fn join_proc(
        &mut self,
        host: &mut impl CoreHost<'a>,
        ms: &mut Membership,
        q: usize,
    ) -> Result<(), SimError> {
        if !ms.alive[q] || ms.joined[q] {
            return Ok(());
        }
        ms.note_join(q);
        self.metrics.recovery.joins_observed += 1;
        let now = self.sim.now();
        for p in 0..self.cfg.nprocs {
            if ms.alive[p] && ms.joined[p] {
                self.step(host, p, now, Input::Join { proc: q })?;
            }
        }
        for plan in &ms.log {
            self.step(host, q, now, Input::Recover { plan: Box::new(plan.clone()) })?;
        }
        self.step(host, q, now, Input::Tick)?;
        for (from, msg) in std::mem::take(&mut self.buffered[q]) {
            if ms.alive[from] {
                self.step(host, q, now, Input::Deliver { from, msg })?;
            }
        }
        self.record(|| SchedEvent::ProcJoined { proc: id32(q) });
        Ok(())
    }

    /// Advances the fault schedule by one delivered event: the schedule
    /// is keyed on delivered-event indices, and scheduled kills and joins
    /// fire before the event they precede is processed.
    fn fire_due_membership(
        &mut self,
        host: &mut impl CoreHost<'a>,
        ms: &mut Membership,
    ) -> Result<(), SimError> {
        ms.delivered += 1;
        let idx = ms.delivered;
        while let Some(d) = ms.take_due_kill(idx) {
            self.kill_proc(host, ms, d);
        }
        while let Some(q) = ms.take_due_join(idx) {
            self.join_proc(host, ms, q)?;
        }
        Ok(())
    }

    /// Delivers one status delta from `from` at `at` to the cores of
    /// `targets` but the sender and those `skip` names, in one
    /// [`CoreHost::apply_block`]; when recording, then appends one
    /// `StatusApply` holding every replaced belief's age, in target order.
    #[inline(always)]
    fn apply_block(
        &mut self,
        host: &mut impl CoreHost<'a>,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
    ) {
        if self.rec.is_none() {
            return host.apply_block(at, from, delta, targets, skip, None);
        }
        let mut applied = Vec::with_capacity(targets.len());
        host.apply_block(at, from, delta, targets, skip, Some(&mut applied));
        if !applied.is_empty() {
            let (about, (kind, _)) = (delta.about(from), delta.kind());
            self.record(|| SchedEvent::StatusApply {
                from: id32(from),
                about: id32(about),
                kind,
                applied: Box::new(applied),
            });
        }
    }

    /// A broadcast block of `len` targets on a kill/join run. The schedule
    /// is keyed on delivered-event indices and fires before the event it
    /// precedes, so the block is cut into contiguous segments at each due
    /// index, and each segment is one [`SimDriver::apply_block`]: targets
    /// that are dead (or all of them, when the sender is) lose the
    /// message, dormant ones have it parked until their join. Returns
    /// whether some target reached a core and whether the last one did.
    fn membership_block(
        &mut self,
        host: &mut impl CoreHost<'a>,
        ms: &mut Membership,
        at: Time,
        from: usize,
        delta: StatusDelta,
        len: usize,
    ) -> Result<(bool, bool), SimError> {
        // The target at position `k` of the block (the sender is skipped).
        let target = |k: usize| k + usize::from(k >= from);
        let (mut any, mut last) = (false, false);
        let mut k = 0;
        while k < len {
            self.fire_due_membership(host, ms)?;
            let seg = ms
                .next_due()
                .map_or(len - k, |due| (due - ms.delivered).min((len - k) as u64) as usize);
            ms.delivered += seg as u64 - 1;
            self.live_events -= seg as i64;
            let targets = target(k)..target(k + seg - 1) + 1;
            k += seg;
            let reaches = |to: usize| ms.alive[to] && ms.joined[to];
            if ms.alive[from] {
                let dormant = |&to: &usize| to != from && ms.alive[to] && !ms.joined[to];
                for to in targets.clone().filter(dormant) {
                    self.buffered[to].push((from, Msg::Status(delta)));
                }
                self.apply_block(host, at, from, delta, targets.clone(), |to| !reaches(to));
                any |= targets.clone().any(|to| to != from && reaches(to));
            }
            last = ms.alive[from] && reaches(targets.end - 1);
        }
        Ok((any, last))
    }

    /// Ends the run on the host and snapshots the world for an error.
    fn diagnostics(&self, host: &mut impl CoreHost<'a>) -> Box<RunDiagnostics> {
        let cores = host.finish();
        let mut metrics = self.metrics.clone();
        for core in &cores {
            metrics.merge_core(core.id(), core.metrics());
        }
        Box::new(RunDiagnostics {
            now: self.sim.now(),
            delivered_events: self.sim.delivered(),
            in_flight: self.sim.pending(),
            nodes_done: cores.iter().map(|c| c.nodes_done()).sum(),
            total_nodes: self.tree.len(),
            dropped_messages: self.metrics.dropped_status,
            dead: self.dead.clone(),
            metrics: Box::new(metrics),
            procs: cores.iter().map(|c| c.proc_diag()).collect(),
        })
    }
}

/// Runs the simulated parallel factorization.
///
/// Never panics and never hangs: a no-progress state, a virtual-time
/// runaway past [`SolverConfig::time_limit`], an accounting underflow, or
/// a protocol violation returns a typed [`SimError`] carrying a full
/// per-processor diagnostic snapshot.
pub fn run(
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
) -> Result<RunResult, SimError> {
    run_hosted(tree, map, cfg, &mut local_cores(tree, map, cfg))
}

/// [`run`] over cores that live wherever `host` keeps them — the entry
/// point of the `mf-exec` backend. Same loop, same results, bit for bit.
pub fn run_hosted<'a>(
    tree: &'a AssemblyTree,
    map: &'a StaticMapping,
    cfg: &'a SolverConfig,
    host: &mut impl CoreHost<'a>,
) -> Result<RunResult, SimError> {
    let n = tree.len();
    let mut drv = SimDriver::new(tree, cfg);
    // Membership orchestration only on runs that need it — the quiet
    // path takes none of the branches below.
    let mut membership = Membership::needed(cfg.recovery.is_some(), cfg.fault.as_ref())
        .then(|| Membership::new(cfg.nprocs, map.owner.clone(), cfg.fault.as_ref()));
    drv.track_obligations = membership.is_some();

    for p in 0..cfg.nprocs {
        if membership.as_ref().is_some_and(|m| !m.joined[p]) {
            continue; // dormant until its scheduled join
        }
        drv.step(host, p, 0, Input::Tick)?;
    }
    'run: loop {
        while let Some(delivery) = drv.sim.pop() {
            if drv.sim.now() >= drv.next_sample {
                drv.sample_due(host, membership.as_ref());
            }
            // `any`: some event of this pop reached a core; `last`: the
            // final one did (an event with a dead or dormant endpoint
            // reaches nobody and skips the per-event epilogue below).
            let (any, last) = match delivery {
                Delivery::One(Event { at, payload }) => {
                    if let Some(ms) = membership.as_mut() {
                        drv.fire_due_membership(host, ms)?;
                    }
                    // Quiescence accounting: everything except
                    // failure-detector chatter counts as a live event.
                    match &payload {
                        EventPayload::Message { msg, .. } if !matches!(msg, Msg::Heartbeat) => {
                            drv.live_events -= 1;
                        }
                        EventPayload::Timer { key, .. } if *key < TIMER_LEASE => {
                            drv.live_events -= 1
                        }
                        _ => {}
                    }
                    let (p, input) = match payload {
                        EventPayload::Message { from, to, msg } => {
                            if let Some(ms) = membership.as_ref() {
                                if !ms.alive[from] || !ms.alive[to] {
                                    continue; // a dead endpoint: the message is lost
                                }
                                if !ms.joined[to] {
                                    drv.buffered[to].push((from, msg));
                                    continue; // parked until the join
                                }
                            }
                            (to, Input::Deliver { from, msg })
                        }
                        EventPayload::Timer { proc, key } => {
                            if let Some(ms) = membership.as_ref() {
                                if !ms.alive[proc] || !ms.joined[proc] {
                                    continue; // a dead processor's timers are void
                                }
                            }
                            (proc, Input::TimerFired { key })
                        }
                    };
                    drv.step(host, p, at, input)?;
                    (true, true)
                }
                // A broadcast block, delivered as one sweep per touched
                // row of the view table. Exact: its targets hold
                // contiguous sequence numbers at one instant, and a status
                // apply emits nothing but its `Record`, schedules nothing,
                // and cannot move `done`, `pending_dead`, a violation or
                // the clock — so of the per-event epilogues only the last
                // target's can act. A kill/join run cuts the block where
                // its schedule fires.
                Delivery::Block(block) => {
                    let Msg::Status(delta) = block.msg else {
                        unreachable!("broadcast is status-only");
                    };
                    let (at, from) = (block.at, block.from);
                    match membership.as_mut() {
                        None => {
                            drv.live_events -= block.len() as i64;
                            drv.apply_block(host, at, from, delta, 0..block.nprocs, |_| false);
                            (true, true)
                        }
                        Some(ms) => drv.membership_block(host, ms, at, from, delta, block.len())?,
                    }
                }
            };
            if any {
                if let Some(ms) = membership.as_mut() {
                    drv.process_deaths(host, ms)?;
                } else {
                    debug_assert!(drv.pending_dead.is_empty(), "DeclareDead without recovery");
                }
                if let Some(limit) = cfg.time_limit {
                    if drv.sim.now() > limit {
                        return Err(SimError::TimeLimit { limit, diag: drv.diagnostics(host) });
                    }
                }
            }
            if !last {
                continue;
            }
            if let Some(ms) = membership.as_mut() {
                // Membership-aware termination: with recovery configured
                // the detector's timer chain never lets the queue drain,
                // so completion is checked per event — over the survivors
                // only (a dead processor's completions were recomputed
                // elsewhere and must not double-count).
                if drv.finishing() {
                    // Keep draining in-flight live traffic so the final
                    // time matches the recovery-off run exactly; the
                    // detector stops re-arming and its chain dies out.
                    if drv.live_events == 0 {
                        break 'run;
                    }
                    continue;
                }
                // Quiescent apart from detector chatter. Progress can
                // still arrive from the fault schedule (indices keep
                // advancing on detector events) or from a lease about to
                // expire; otherwise this is the same situation as a
                // drained queue — run the degradation ladder.
                if drv.live_events == 0
                    && cfg.recovery.is_some()
                    && !ms.schedule_pending()
                    && !ms.undeclared_dead()
                {
                    drv.force_one_deferred(host, Some(&*ms))?;
                }
            }
        }
        // The queue drained (the recovery-off path — with recovery on it
        // only happens once a partitioned driver stops re-arming the
        // detector).
        if drv.done >= n {
            break;
        }
        // A scheduled join whose event index was never reached fires now:
        // the joiner may hold the only way forward.
        if let Some(ms) = membership.as_mut() {
            if let Some(q) = ms.take_next_join() {
                drv.join_proc(host, ms, q)?;
                continue;
            }
        }
        // Drained queue with unfinished fronts: the degradation ladder.
        drv.force_one_deferred(host, membership.as_ref())?;
    }

    let cores = host.finish();
    let makespan = drv.sim.now();
    let mems: Vec<&ProcMemory> = cores.iter().map(|c| c.memory()).collect();
    let peaks: Vec<u64> = mems.iter().map(|m| m.active_peak()).collect();
    let factor_entries: Vec<u64> = mems.iter().map(|m| m.factors()).collect();
    let max_peak = peaks.iter().copied().max().unwrap_or(0);
    let avg_peak = peaks.iter().sum::<u64>() as f64 / peaks.len().max(1) as f64;
    let mut metrics = drv.metrics;
    for core in &cores {
        metrics.merge_core(core.id(), core.metrics());
    }
    let alive = |p: usize| membership.as_ref().is_none_or(|m| m.alive[p]);
    let factor_digest = digest_factors(
        (0..cfg.nprocs).filter(|&p| alive(p)).flat_map(|p| cores[p].factors_by_node()),
        n,
    );
    Ok(RunResult {
        factor_entries,
        max_peak,
        avg_peak,
        makespan,
        messages: metrics.total_msgs(),
        events_delivered: drv.sim.delivered(),
        nodes_done: drv.done,
        total_nodes: n,
        dropped_messages: metrics.dropped_status,
        forced_activations: metrics.forced_activations + metrics.serialized_fronts,
        final_active: mems.iter().map(|m| m.active()).collect(),
        underflows: mems.iter().map(|m| m.underflows()).collect(),
        recording: drv.rec,
        timeseries: drv.ts,
        peaks,
        factor_digest,
        dead: drv.dead,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::mapping::{compute_mapping, NodeKind};
    use mf_order::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_symbolic::seqstack::{sequential_peak, AssemblyDiscipline};
    use mf_symbolic::AmalgamationOptions;

    fn tree_for(nx: usize) -> AssemblyTree {
        let a = grid2d(nx, nx, Stencil::Star);
        let p = OrderingKind::Metis.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
        mf_symbolic::seqstack::apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        s.tree
    }

    #[test]
    fn all_nodes_complete() {
        let tree = tree_for(24);
        for nprocs in [1, 2, 4, 8] {
            let cfg = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(nprocs) };
            let map = compute_mapping(&tree, &cfg);
            let r = run(&tree, &map, &cfg).unwrap();
            assert_eq!(r.nodes_done, r.total_nodes, "nprocs={nprocs}");
            assert!(r.makespan > 0);
        }
    }

    #[test]
    fn single_processor_matches_sequential_model() {
        // With one processor, no slaves and LIFO selection, the simulated
        // execution is exactly the sequential postorder factorization, so
        // the peak must equal the symbolic model's.
        let tree = tree_for(20);
        let cfg = SolverConfig::mumps_baseline(1);
        let map = compute_mapping(&tree, &cfg);
        let r = run(&tree, &map, &cfg).unwrap();
        assert_eq!(r.nodes_done, r.total_nodes);
        assert_eq!(r.max_peak, sequential_peak(&tree, AssemblyDiscipline::FrontThenFree));
    }

    #[test]
    fn deterministic_runs() {
        let tree = tree_for(20);
        let cfg = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg);
        let r1 = run(&tree, &map, &cfg).unwrap();
        let r2 = run(&tree, &map, &cfg).unwrap();
        assert_eq!(r1.peaks, r2.peaks);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.messages, r2.messages);
    }

    #[test]
    fn memory_strategy_runs_and_completes() {
        let tree = tree_for(28);
        for cfg in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(8) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(8) },
        ] {
            let map = compute_mapping(&tree, &cfg);
            let r = run(&tree, &map, &cfg).unwrap();
            assert_eq!(r.nodes_done, r.total_nodes);
            assert!(r.max_peak > 0);
        }
    }

    #[test]
    fn recording_attribution_sums_to_peaks() {
        // The flight recording replays to the exact accounting peaks: for
        // every processor the attributed composition sums to active_peak.
        let tree = tree_for(24);
        for cfg0 in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) },
        ] {
            let cfg = SolverConfig { record_events: true, ..cfg0 };
            let map = compute_mapping(&tree, &cfg);
            let r = run(&tree, &map, &cfg).unwrap();
            let rec = r.recording.as_ref().expect("recording enabled");
            assert_eq!(rec.dropped(), 0, "unbounded recording must be complete");
            assert!(!rec.is_empty());
            let att = mf_sim::attribute_peaks(cfg.nprocs, rec);
            assert_eq!(att.len(), cfg.nprocs);
            for a in &att {
                assert_eq!(a.peak, r.peaks[a.proc], "proc {}", a.proc);
                let sum: u64 = a.composition.iter().map(|it| it.entries).sum();
                assert_eq!(sum, a.peak, "composition must sum to the peak on proc {}", a.proc);
            }
        }
    }

    #[test]
    fn recording_is_deterministic_and_absent_when_disabled() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        assert!(plain.recording.is_none());
        let cfg = SolverConfig { record_events: true, ..cfg0 };
        let r1 = run(&tree, &map, &cfg).unwrap();
        let r2 = run(&tree, &map, &cfg).unwrap();
        assert_eq!(r1.recording, r2.recording, "recordings must be bit-identical");
        // Observability must not perturb the schedule.
        assert_eq!(r1.peaks, plain.peaks);
        assert_eq!(r1.makespan, plain.makespan);
        assert_eq!(r1.messages, plain.messages);
    }

    #[test]
    fn sampler_is_schedule_invariant_and_absent_when_disabled() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig {
            type2_front_min: 24,
            record_events: true,
            ..SolverConfig::memory_based(4)
        };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        assert!(plain.timeseries.is_none());
        let cfg = SolverConfig { sample_every: Some(50), ..cfg0.clone() };
        let r1 = run(&tree, &map, &cfg).unwrap();
        let r2 = run(&tree, &map, &cfg).unwrap();
        // Sampling must never perturb the schedule: identical peaks,
        // makespan, messages, delivered events, and a bit-identical
        // decision recording.
        assert_eq!(r1.peaks, plain.peaks);
        assert_eq!(r1.makespan, plain.makespan);
        assert_eq!(r1.messages, plain.messages);
        assert_eq!(r1.events_delivered, plain.events_delivered);
        assert_eq!(r1.recording, plain.recording, "recorded decisions must not move");
        // The series itself is deterministic, covers every processor,
        // stays within the run, and reflects real memory state.
        let ts = r1.timeseries.as_ref().unwrap();
        assert_eq!(r2.timeseries.as_ref().unwrap(), ts);
        assert_eq!(ts.nprocs(), 4);
        assert!(ts.total_len() > 0, "a {}-tick run must yield samples", r1.makespan);
        for p in 0..4 {
            for row in ts.proc(p).iter() {
                assert!(row.at <= r1.makespan);
            }
        }
        assert!((0..4).any(|p| ts.proc(p).iter().any(|r| r.active > 0 || r.stack > 0)));

        // A kill keyed on a delivered-event index past the first sample
        // instant lands on the same event sampled or not: a sample is a
        // read, not a delivery.
        let killed = SolverConfig {
            recovery: Some(crate::config::RecoveryConfig::default()),
            fault: Some(mf_sim::FaultModel {
                kill_at: vec![(1000, 1)],
                ..mf_sim::FaultModel::quiet(1)
            }),
            ..cfg0
        };
        let plain = run(&tree, &map, &killed).unwrap();
        let r = run(&tree, &map, &SolverConfig { sample_every: Some(50), ..killed }).unwrap();
        assert_eq!(plain.dead, vec![1]);
        assert_eq!(r.recording, plain.recording, "recorded decisions must not move");
        assert_eq!(r.peaks, plain.peaks);
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.metrics.recovery, plain.metrics.recovery);
        assert_eq!(r.events_delivered, plain.events_delivered);
        // The victim was sampled while alive, and not once dead.
        let ts = r.timeseries.as_ref().unwrap();
        assert!(!ts.proc(1).is_empty() && ts.proc(1).len() < ts.proc(0).len());
    }

    #[test]
    fn metrics_account_all_traffic() {
        let tree = tree_for(20);
        let cfg = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg);
        let r = run(&tree, &map, &cfg).unwrap();
        let m = &r.metrics;
        // Every counted message is either control or status.
        assert_eq!(m.total_msgs(), r.messages);
        assert!(m.control_msgs > 0 && m.status_msgs > 0);
        assert!(m.control_bytes > 0 && m.status_bytes > 0);
        assert_eq!(m.dropped_status, 0);
        assert_eq!(m.procs.len(), 4);
        // Busy time: positive, and no processor is busy longer than the run.
        for p in &m.procs {
            assert!(p.busy_ticks > 0 && p.busy_ticks <= r.makespan);
            assert_eq!(p.stalled_ticks, 0, "no capacity, no stalls");
        }
        // One activation per owner-activated node.
        let acts: u64 = m.procs.iter().map(|p| p.activations).sum();
        assert!(acts as usize <= r.total_nodes);
        assert!(m.view_staleness.count > 0, "type-2 selections observed staleness");
        assert!(m.pool_depth.count > 0);
    }

    #[test]
    fn capped_run_reports_deferrals_in_metrics() {
        let tree = tree_for(24);
        let base = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &base);
        let free = run(&tree, &map, &base).unwrap();
        // A capacity of 1 makes every out-of-subtree activation
        // inadmissible: each one is deferred until the stall-breaker
        // forces it, exercising the whole degradation ladder.
        let capped = SolverConfig { capacity: Some(1), record_events: true, ..base };
        let r = run(&tree, &map, &capped).unwrap();
        assert_eq!(r.nodes_done, r.total_nodes);
        let deferrals: u64 = r.metrics.procs.iter().map(|p| p.deferrals).sum();
        assert!(deferrals > 0, "a tight cap must defer something");
        assert!(r.forced_activations > 0);
        assert_eq!(
            r.metrics.serialized_fronts + r.metrics.forced_activations,
            r.forced_activations,
            "metrics split the degradation counter exactly"
        );
        let stalled: u64 = r.metrics.procs.iter().map(|p| p.stalled_ticks).sum();
        assert!(stalled > 0, "deferred processors accumulate stalled time");
        assert!(r.makespan >= free.makespan);
        // The recording saw the same story.
        let rec = r.recording.unwrap();
        assert!(rec.events().any(|(_, e)| matches!(e, SchedEvent::Forced { .. })));
        assert!(rec
            .events()
            .any(|(_, e)| matches!(e, SchedEvent::PoolDecision { picked: None, .. })));
    }

    #[test]
    fn parallel_peak_at_least_na_frontier() {
        // The per-processor peak can never be below the biggest single
        // allocation that processor makes.
        let tree = tree_for(24);
        let cfg = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &cfg);
        let r = run(&tree, &map, &cfg).unwrap();
        let biggest_local = (0..tree.len())
            .filter(|&v| matches!(map.kind[v], NodeKind::Subtree(_) | NodeKind::Type1))
            .map(|v| tree.front_entries(v))
            .max()
            .unwrap_or(0);
        assert!(r.max_peak >= biggest_local);
    }

    #[test]
    fn quiet_fault_model_is_bit_identical() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        let quiet = SolverConfig { fault: Some(mf_sim::FaultModel::quiet(9)), ..cfg0 };
        let r = run(&tree, &map, &quiet).unwrap();
        assert_eq!(r.peaks, plain.peaks);
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.messages, plain.messages);
        assert_eq!(r.dropped_messages, 0);
    }

    #[test]
    fn perturbed_runs_terminate_deterministically_with_same_factors() {
        let tree = tree_for(24);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        let cfg = SolverConfig { fault: Some(mf_sim::FaultModel::intensity(13, 3.0)), ..cfg0 };
        let r1 = run(&tree, &map, &cfg).unwrap();
        let r2 = run(&tree, &map, &cfg).unwrap();
        // Same seed: bit-identical.
        assert_eq!(r1.peaks, r2.peaks);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.dropped_messages, r2.dropped_messages);
        // Perturbed but correct: all fronts done, entry conservation, and
        // the factors are the ones the tree defines — identical to the
        // unperturbed run's.
        assert_eq!(r1.nodes_done, r1.total_nodes);
        assert!(r1.final_active.iter().all(|&a| a == 0), "{:?}", r1.final_active);
        assert!(r1.dropped_messages > 0, "intensity 3 should drop something");
        assert_eq!(r1.factor_entries.iter().sum::<u64>(), plain.factor_entries.iter().sum::<u64>(),);
    }

    #[test]
    fn watchdog_reports_partition_when_network_dies() {
        // Kill the network early: some Complete/SlaveTask message is lost
        // and the factorization can never finish — the watchdog must
        // return a typed Partitioned error instead of hanging (and name
        // the partition as such, not as a generic stall).
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
        match run(&tree, &map, &cfg) {
            Err(SimError::Partitioned { after, diag }) => {
                assert_eq!(after, 10);
                assert!(diag.nodes_done < diag.total_nodes);
                assert_eq!(diag.procs.len(), 4);
                assert!(diag.dropped_messages > 0);
                assert!(diag.dead.is_empty(), "a partition kills no processor");
                // The snapshot names what every processor held.
                assert!(diag.procs.iter().any(|p| !p.pool.is_empty() || p.active > 0));
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn recovery_layer_off_is_bit_identical() {
        // With recovery configured but no fault, the detector arms and
        // heartbeats flow, but the factorization itself must be exactly
        // the quiet run's (same peaks, same makespan, same digest).
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        // Aggressive detector periods so heartbeat traffic actually flows
        // within this short run.
        let rc = crate::config::RecoveryConfig { heartbeat_every: 20, lease_timeout: 120 };
        let cfg = SolverConfig { recovery: Some(rc), ..cfg0 };
        let r = run(&tree, &map, &cfg).unwrap();
        assert_eq!(r.peaks, plain.peaks);
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.factor_digest, plain.factor_digest);
        assert_eq!(r.nodes_done, r.total_nodes);
        assert!(r.dead.is_empty());
        assert!(r.messages > plain.messages, "heartbeats must flow");
    }

    #[test]
    fn killed_processor_recovers_with_identical_factors() {
        let tree = tree_for(20);
        for cfg0 in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) },
        ] {
            let map = compute_mapping(&tree, &cfg0);
            let plain = run(&tree, &map, &cfg0).unwrap();
            for victim in 0..4 {
                for kill_idx in [1u64, 64, 512, 2000] {
                    let cfg = SolverConfig {
                        recovery: Some(crate::config::RecoveryConfig::default()),
                        fault: Some(mf_sim::FaultModel {
                            kill_at: vec![(kill_idx, victim)],
                            ..mf_sim::FaultModel::quiet(1)
                        }),
                        ..cfg0.clone()
                    };
                    let r = run(&tree, &map, &cfg).unwrap_or_else(|e| {
                        panic!("victim {victim} at {kill_idx}: {e}");
                    });
                    assert_eq!(r.nodes_done, r.total_nodes, "victim {victim} at {kill_idx}");
                    assert_eq!(
                        r.factor_digest, plain.factor_digest,
                        "victim {victim} at {kill_idx}: factors diverged"
                    );
                    if r.dead.is_empty() {
                        // The run finished before the scheduled event index
                        // was reached: the kill never happened.
                        assert_eq!(r.metrics.recovery.kills_observed, 0);
                        continue;
                    }
                    assert_eq!(r.dead, vec![victim], "victim {victim} at {kill_idx}");
                    assert_eq!(r.metrics.recovery.kills_observed, 1);
                    // Entry conservation on the survivors: every stacked
                    // contribution block was consumed or reclaimed.
                    for (p, &a) in r.final_active.iter().enumerate() {
                        if p != victim {
                            assert_eq!(a, 0, "survivor {p} leaked {a} entries");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recordings_audit_clean_including_recovery_runs() {
        let tree = tree_for(20);
        for cfg0 in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) },
        ] {
            let map = compute_mapping(&tree, &cfg0);
            // Fault-free.
            let cfg = SolverConfig { record_events: true, ..cfg0.clone() };
            let r = run(&tree, &map, &cfg).unwrap();
            let rec = r.recording.as_ref().unwrap();
            let f = mf_sim::audit_recording(4, rec);
            assert!(f.is_empty(), "fault-free findings: {f:?}");
            // Kill mid-run with recovery: re-execution and reclamation
            // must still satisfy every invariant the audit checks.
            let cfg = SolverConfig {
                record_events: true,
                recovery: Some(crate::config::RecoveryConfig::default()),
                fault: Some(mf_sim::FaultModel {
                    kill_at: vec![(128, 1)],
                    ..mf_sim::FaultModel::quiet(1)
                }),
                ..cfg0.clone()
            };
            let r = run(&tree, &map, &cfg).unwrap();
            assert_eq!(r.dead, vec![1]);
            let rec = r.recording.as_ref().unwrap();
            let f = mf_sim::audit_recording(4, rec);
            assert!(f.is_empty(), "kill-run findings: {f:?}");
        }
    }

    #[test]
    fn kill_without_recovery_stalls_promptly_and_names_the_dead() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig {
            fault: Some(mf_sim::FaultModel {
                kill_at: vec![(8, 2)],
                ..mf_sim::FaultModel::quiet(1)
            }),
            ..cfg0
        };
        match run(&tree, &map, &cfg) {
            Err(SimError::Stalled { diag }) => {
                assert_eq!(diag.dead, vec![2], "the stall must name the dead processor");
                assert!(diag.nodes_done < diag.total_nodes);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn joined_processor_takes_work_and_factors_stay_identical() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        // Processor 3 starts dormant and joins mid-run.
        let cfg = SolverConfig {
            recovery: Some(crate::config::RecoveryConfig::default()),
            fault: Some(mf_sim::FaultModel {
                join_at: vec![(64, 3)],
                ..mf_sim::FaultModel::quiet(1)
            }),
            ..cfg0
        };
        let r = run(&tree, &map, &cfg).unwrap();
        assert_eq!(r.nodes_done, r.total_nodes);
        assert_eq!(r.factor_digest, plain.factor_digest);
        assert_eq!(r.metrics.recovery.joins_observed, 1);
        assert!(r.metrics.procs[3].busy_ticks > 0, "the joiner must compute");
        assert!(r.dead.is_empty());
        assert!(r.final_active.iter().all(|&a| a == 0));
    }

    #[test]
    fn kill_then_join_completes() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(4) };
        let map = compute_mapping(&tree, &cfg0);
        let plain = run(&tree, &map, &cfg0).unwrap();
        let cfg = SolverConfig {
            recovery: Some(crate::config::RecoveryConfig::default()),
            fault: Some(mf_sim::FaultModel {
                kill_at: vec![(128, 1)],
                join_at: vec![(256, 4)],
                ..mf_sim::FaultModel::quiet(1)
            }),
            nprocs: 5,
            ..cfg0
        };
        // Five slots, processor 4 dormant at start: the static mapping is
        // computed for the full machine and proc 4 contributes only after
        // its join.
        let map5 = compute_mapping(&tree, &cfg);
        let plain5 =
            run(&tree, &map5, &SolverConfig { recovery: None, fault: None, ..cfg.clone() })
                .unwrap();
        assert_eq!(plain5.factor_digest, plain.factor_digest, "digest is partition-invariant");
        let r = run(&tree, &map5, &cfg).unwrap();
        assert_eq!(r.nodes_done, r.total_nodes);
        assert_eq!(r.factor_digest, plain.factor_digest);
        assert_eq!(r.dead, vec![1]);
        assert_eq!(r.metrics.recovery.kills_observed, 1);
        assert_eq!(r.metrics.recovery.joins_observed, 1);
        assert!(r.metrics.procs[4].busy_ticks > 0, "the joiner must compute");
    }

    #[test]
    fn time_limit_trips_the_runaway_guard() {
        let tree = tree_for(20);
        let cfg0 = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig { time_limit: Some(1), ..cfg0 };
        match run(&tree, &map, &cfg) {
            Err(SimError::TimeLimit { limit, diag }) => {
                assert_eq!(limit, 1);
                assert!(diag.now > 1);
            }
            other => panic!("expected TimeLimit, got {other:?}"),
        }
    }

    #[test]
    fn capped_runs_complete_within_capacity() {
        let tree = tree_for(28);
        for base in [
            SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(8) },
            SolverConfig { type2_front_min: 24, ..SolverConfig::memory_based(8) },
        ] {
            let map = compute_mapping(&tree, &base);
            let free = run(&tree, &map, &base).unwrap();
            let cap = free.max_peak + free.max_peak / 5; // 1.2x headroom
            let capped = SolverConfig { capacity: Some(cap), ..base };
            let r = run(&tree, &map, &capped).unwrap();
            assert_eq!(r.nodes_done, r.total_nodes);
            assert!(
                r.peaks.iter().all(|&pk| pk <= cap),
                "peaks {:?} exceed capacity {cap}",
                r.peaks
            );
            assert!(r.final_active.iter().all(|&a| a == 0));
        }
    }

    #[test]
    fn tight_capacity_degrades_time_not_correctness() {
        // A capacity right at the biggest single allocation forces heavy
        // deferral/serialization, but the run still completes.
        let tree = tree_for(24);
        let base = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(4) };
        let map = compute_mapping(&tree, &base);
        let free = run(&tree, &map, &base).unwrap();
        let floor = (0..tree.len()).map(|v| tree.front_entries(v)).max().unwrap_or(0);
        let capped = SolverConfig { capacity: Some(floor.max(1)), ..base };
        let r = run(&tree, &map, &capped).unwrap();
        assert_eq!(r.nodes_done, r.total_nodes);
        assert!(r.final_active.iter().all(|&a| a == 0));
        assert!(
            r.makespan >= free.makespan,
            "tight cap should not be faster: {} < {}",
            r.makespan,
            free.makespan
        );
    }
}
