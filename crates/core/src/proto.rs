//! The sans-io scheduling protocol: one [`SchedulerCore`] per processor.
//!
//! This module is the paper's contribution distilled to a pure state
//! machine. A core consumes typed [`Input`]s — a delivered [`Msg`], a
//! fired compute timer, a tick — and emits typed [`Effect`]s: messages to
//! send, compute to start, memory movements, recorder events. It owns
//! **no clock** (every `handle` call carries the current time), **no
//! queue** (transport is the driver's problem), and **no RNG** (duration
//! noise and fault injection are runtime concerns). The same cores run
//! bit-identically in the driver's own thread ([`crate::parsim::run`])
//! and on one OS thread each (the `mf-exec` crate), which is the proof
//! that the protocol is runtime-agnostic.
//!
//! Strategy decisions are [`crate::config::SlaveSelection::select`] and
//! [`crate::config::TaskSelection::pick`]: a new policy is a variant and
//! its `match` arm there, not a change to this state machine.
//!
//! Two conventions keep the protocol deterministic across backends:
//!
//! - **Self-sends never leave the core.** A message a processor addresses
//!   to itself is delivered synchronously inside `handle` (the MUMPS loop
//!   does the local work inline); a core therefore *never* emits
//!   [`Effect::Send`] to its own id — an invariant the proptests pin.
//! - **Effects are ordered.** The driver must process the drained effects
//!   in emission order; that order is exactly the order the monolithic
//!   scheduler used to perform the corresponding side effects, which is
//!   what keeps simulator runs bit-identical across the refactor.

use crate::blocking::slave_block_entries;
use crate::config::SolverConfig;
use crate::error::ProcDiag;
use crate::malleable::{CoreAlloc, CORES_PER_PROC, MAX_CORES_PER_FRONT, MIN_MALLEABLE_FLOPS};
use crate::mapping::{NodeKind, StaticMapping};
use crate::pool::{remove_task, TaskCtx};
use crate::recovery::{RecoveryPlan, RecoverySnapshot};
use crate::slavesel::{FrontSplit, SlaveCtx};
use crate::views::{StatusDelta, ViewTable, Views};
use mf_sim::recorder::{
    id32, FrontClass, MemArea, SchedEvent, SlaveChoice, SlavePick, StatusKind, TaskRole,
};
use mf_sim::{CoreMetrics, MsgClass, ProcMemory, SampleRow, Time};
use mf_symbolic::AssemblyTree;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::LazyLock;

/// Timer key of the periodic heartbeat emitter (never collides with a
/// work-ledger key: work keys are ledger indices, far below the top of
/// the `u64` range).
pub const TIMER_HEARTBEAT: u64 = u64::MAX;
/// Timer key of the periodic lease check (the lowest reserved key: the
/// driver's quiescence accounting treats every key at or above it as
/// failure-detector chatter rather than live work).
pub const TIMER_LEASE: u64 = u64::MAX - 1;

/// Wire size of every status message. One size is what makes folding
/// same-kind deltas exact: equal sizes mean equal arrival instants.
const STATUS_BYTES: u64 = 16;

/// Status kinds that fold: every one but `Assigned`.
const FOLD_SLOTS: usize = 4;

/// Index of a foldable status kind in `SchedulerCore::pending`. An
/// `Assigned` is about a third party and never folds.
fn fold_slot(delta: &StatusDelta) -> Option<usize> {
    match delta {
        StatusDelta::Mem { .. } => Some(0),
        StatusDelta::Load { .. } => Some(1),
        StatusDelta::Subtree { .. } => Some(2),
        StatusDelta::Predicted { .. } => Some(3),
        StatusDelta::Assigned { .. } => None,
    }
}

/// `prev` then `next` of one foldable kind as a single delta: increments
/// add up, absolute values are replaced.
fn folded(prev: StatusDelta, next: StatusDelta) -> StatusDelta {
    match (prev, next) {
        (StatusDelta::Mem { delta: a }, StatusDelta::Mem { delta: b }) => {
            StatusDelta::Mem { delta: a + b }
        }
        (StatusDelta::Load { delta: a }, StatusDelta::Load { delta: b }) => {
            StatusDelta::Load { delta: a + b }
        }
        (StatusDelta::Subtree { .. }, StatusDelta::Subtree { .. })
        | (StatusDelta::Predicted { .. }, StatusDelta::Predicted { .. }) => next,
        _ => unreachable!("folded {next:?} into {prev:?}"),
    }
}

/// Inter-processor messages of the scheduling protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// A contribution-block piece of `child` was produced and sits on the
    /// stack of processor `holder` until the parent activates (control
    /// message to the parent's master; the data itself stays put).
    PieceDone {
        /// Producing child node.
        child: usize,
        /// Processor whose stack holds the piece.
        holder: usize,
        /// Piece size in entries.
        entries: u64,
        /// Lifetime of `child` the piece belongs to (see
        /// the core's per-node `epoch`): a stale piece notification
        /// from before a recovery is silently discarded.
        epoch: u32,
    },
    /// `child`'s elimination finished; `pieces` CB pieces were produced
    /// in total (0 when the CB is empty).
    Complete {
        /// Completed child node.
        child: usize,
        /// CB pieces produced in total.
        pieces: usize,
        /// Lifetime of `child` the completion belongs to.
        epoch: u32,
    },
    /// The parent activated: the addressed processor ships its stacked CB
    /// piece of `child` to the parent's workers and frees it.
    FetchCb {
        /// Child whose piece is fetched.
        child: usize,
        /// Piece size in entries.
        entries: u64,
        /// Lifetime of `child` the fetch belongs to.
        epoch: u32,
    },
    /// A slave task of a type-2 node.
    SlaveTask {
        /// The type-2 node.
        node: usize,
        /// Block size in entries.
        entries: u64,
        /// CB entries inside the block.
        cb_share: u64,
        /// Factor entries inside the block.
        factor_share: u64,
        /// Flops delegated with the block.
        flops_share: u64,
        /// Lifetime of `node` the enrolment belongs to.
        epoch: u32,
    },
    /// The 2-D root scatters equal shares to every processor.
    Type3Share {
        /// The type-3 root node.
        node: usize,
        /// Share size in entries.
        entries: u64,
        /// Flops of the share.
        flops_share: u64,
        /// Lifetime of `node` the share belongs to.
        epoch: u32,
    },
    /// Liveness beacon of the lease-based failure detector: sent to every
    /// reachable peer each `heartbeat_every` ticks when recovery is
    /// configured. Any delivered message renews the sender's lease; the
    /// heartbeat guarantees renewal when the protocol itself goes quiet.
    Heartbeat,
    /// A compact index-based status update (Sections 3–5.1): which belief
    /// slot of the receivers' [`Views`] changes and by how much. This is
    /// the only broadcast payload of the coherence protocol — each
    /// receiver applies it to exactly one slot via [`Views::apply`].
    Status(StatusDelta),
    /// All children of `node` have started: its master should soon expect
    /// it to become ready (Section 5.1 prediction trigger).
    ChildStarted {
        /// The parent node whose child just started.
        node: usize,
    },
}

impl Msg {
    /// Status classification for the flight recorder and the traffic
    /// metrics; `None` for control messages.
    pub fn status_kind(&self) -> Option<(StatusKind, i64)> {
        match self {
            Msg::Status(d) => Some(d.kind()),
            _ => None,
        }
    }

    /// Fault-injection delivery class: view refreshes are idempotent
    /// [`MsgClass::Status`] traffic a perturbed network may drop (the run
    /// stays correct, the views get staler); everything that carries an
    /// obligation — task payloads, completions, CB bookkeeping, the
    /// prediction *trigger* `ChildStarted` (its counter must reach the
    /// child count exactly once per child) — is [`MsgClass::Control`].
    pub fn class(&self) -> MsgClass {
        match self {
            Msg::Status(_) => MsgClass::Status,
            _ => MsgClass::Control,
        }
    }
}

/// A fatal condition detected inside a handler; the driver converts it
/// into a [`crate::error::SimError`] with full diagnostics after the
/// current input unwinds.
#[derive(Debug, Clone)]
pub enum Violation {
    /// A memory area would have gone negative.
    Accounting {
        /// Offending processor.
        proc: usize,
        /// Offending area ("fronts" or "stack").
        area: &'static str,
    },
    /// A protocol invariant was broken (unknown work key, completion for
    /// a parentless node, ...).
    Protocol {
        /// Human-readable description.
        detail: String,
    },
}

/// What a driver feeds into a [`SchedulerCore`].
#[derive(Debug, Clone)]
pub enum Input {
    /// Poll for work (used once per processor to start the run; all later
    /// polling happens inside the core on completions and deliveries).
    Tick,
    /// A message arrived from another processor.
    Deliver {
        /// Sending processor.
        from: usize,
        /// The message.
        msg: Msg,
    },
    /// The compute unit started by [`Effect::StartCompute`] with this key
    /// finished.
    TimerFired {
        /// The key the core handed out.
        key: u64,
    },
    /// Stall-breaker: force-activate the deferred ready task `node` (the
    /// driver picked it via [`SchedulerCore::cheapest_deferred`]).
    Force {
        /// The node to activate.
        node: usize,
    },
    /// A processor died: apply the driver-built recovery plan (cancel and
    /// garbage-collect everything belonging to recomputed nodes, repair
    /// readiness counters, take ownership of adopted work). Fed to every
    /// surviving core in processor order, and replayed to late joiners.
    Recover {
        /// The plan (boxed: recovery is rare, the `Input` enum is hot).
        plan: Box<RecoveryPlan>,
    },
    /// Processor `proc` joined the machine: mark it reachable (it now
    /// receives heartbeats, status traffic, and slave enrolments).
    Join {
        /// The joining processor.
        proc: usize,
    },
}

/// What a [`SchedulerCore`] asks its runtime to do. Effects must be
/// processed in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send `msg` to another processor (never the core's own id).
    Send {
        /// Destination processor.
        to: usize,
        /// The message.
        msg: Msg,
        /// Payload size for the network model.
        bytes: u64,
    },
    /// Send `msg` to every other processor (status traffic only).
    Broadcast {
        /// The message.
        msg: Msg,
        /// Per-target payload size for the network model.
        bytes: u64,
    },
    /// Run `flops` worth of compute; deliver [`Input::TimerFired`] with
    /// `key` when it completes. The runtime owns the duration model
    /// (flop rate, stragglers). A recording driver derives the
    /// `ComputeStart`/`ComputeEnd` events from this effect and its
    /// timer, so the core's compute hot path carries no recording
    /// branches at all.
    StartCompute {
        /// Completion key (an index into the core's work ledger).
        key: u64,
        /// The node being computed (for labelling; the key is what the
        /// core dispatches on).
        node: usize,
        /// Role of the work unit.
        role: TaskRole,
        /// Work size in flops.
        flops: u64,
        /// Cores granted to this work unit by the core-allocation
        /// policy ([`crate::malleable::CoreAlloc`]); the runtime feeds
        /// it to the shared duration model
        /// ([`crate::malleable::compute_ticks`]) and a numeric driver
        /// sizes its within-front thread scope with it. Always 1 under
        /// the default `Static(1)` policy.
        cores: u32,
    },
    /// `entries` were allocated in `area` for `node` (already applied to
    /// the core's own accounting; emitted so real backends can mirror it
    /// in a physical ledger and so the driver can feed the recorder).
    Alloc {
        /// The node the allocation belongs to.
        node: usize,
        /// Front or stack area.
        area: MemArea,
        /// Allocation size in entries.
        entries: u64,
    },
    /// `entries` were freed from `area` for `node` (counterpart of
    /// [`Effect::Alloc`]).
    Free {
        /// The node the release belongs to.
        node: usize,
        /// Front or stack area.
        area: MemArea,
        /// Release size in entries.
        entries: u64,
    },
    /// Arm (or re-arm) a recurring protocol timer: deliver
    /// [`Input::TimerFired`] with `key` after `after` ticks. Unlike
    /// [`Effect::StartCompute`] this carries no work and does not occupy
    /// the compute unit — it drives the heartbeat/lease failure detector.
    /// A driver whose network is partitioned refuses to re-arm, which is
    /// what lets a partitioned run drain and fail cleanly.
    Arm {
        /// Timer key ([`TIMER_HEARTBEAT`] or [`TIMER_LEASE`]).
        key: u64,
        /// Delay until the timer fires, in ticks.
        after: Time,
    },
    /// The lease of `proc` expired at this core: no message from it for
    /// longer than the configured `lease_timeout`. The driver arbitrates
    /// (several cores typically declare the same death) and responds with
    /// [`Input::Recover`] once per actual loss.
    DeclareDead {
        /// The silent processor.
        proc: usize,
    },
    /// A flight-recorder decision event (only emitted when the core was
    /// built with recording enabled, preserving the recorder's
    /// zero-cost-off contract). A [`SchedEvent`] is 24 bytes — payloads
    /// boxed, and only for the rare selection events — so this variant
    /// does not inflate the whole `Effect` enum the hot paths move
    /// through.
    Record(SchedEvent),
}

/// Work units whose completion is signalled by [`Input::TimerFired`].
#[derive(Debug, Clone)]
enum Work {
    /// Full-front elimination (type 1, subtree nodes, or a type-2 node
    /// that found no slaves).
    Elim { node: usize, flops: u64 },
    /// Master part of a type-2 node (`pieces` slaves were enrolled).
    MasterPart { node: usize, pieces: usize, flops: u64 },
    /// A slave block of a type-2 node: `cb_share + factor_share` entries.
    Slave { node: usize, cb_share: u64, factor_share: u64, flops: u64 },
    /// This processor's share of the 2-D root (`is_master` on the
    /// processor that owns the root and counts it done).
    RootShare { node: usize, entries: u64, flops: u64, is_master: bool },
}

/// Where a work of the ledger stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkState {
    /// Queued or running.
    Open,
    /// Completed.
    Done,
    /// Cancelled by a recovery plan: its timer still fires, but its
    /// completion only releases the compute unit.
    Cancelled,
}

/// What one core knows about one node. A core writes only to the nodes it
/// masters, their children, and the nodes it holds a block of; every
/// other node reads as `NodeState::default()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeState {
    // ---- as a child, kept at the parent's owner
    /// CB pieces produced in total, known once `Complete` arrived.
    pieces_expected: Option<usize>,
    /// `PieceDone` notifications received so far.
    pieces_got: usize,
    /// `Complete` arrived and the child has not been counted yet.
    child_complete: bool,
    /// Already counted into the parent's `done_children` (the permanent
    /// fire-once guard; recovery selectively clears it so a recomputed
    /// child counts again).
    counted: bool,
    // ---- as a parent, kept at its owner
    /// Children that completed with all their pieces.
    done_children: usize,
    /// Children that started (Section 5.1 prediction).
    started_children: usize,
    /// CB pieces stacked for this node: (holder processor, entries,
    /// producing child), released at activation.
    cb_pieces: Vec<(usize, u64, usize)>,
    activated: bool,
    /// Completed here as owner (the indicator behind `nodes_done`;
    /// recovery uncounts recomputed nodes through it).
    done_by_me: bool,
    // ---- wherever a block of the node lives
    /// Factor entries stored here, the partition-invariant quantity behind
    /// [`crate::recovery::digest_factors`].
    factors: u64,
    /// Entries of the CB piece this core physically holds (at most one
    /// piece per producer per holder; zero when not holding).
    held: u64,
    /// Lifetime counter, bumped machine-wide when the node enters a
    /// recompute set; messages from a previous lifetime are discarded.
    epoch: u32,
}

/// The [`NodeState`]s one core has written. Hashed rather than ordered:
/// lookups sit on every control event, ordered iteration only in
/// `snapshot`. Fixed hash keys keep a run's allocations repeatable.
#[derive(Default)]
struct NodeTable(HashMap<usize, NodeState, BuildHasherDefault<DefaultHasher>>);

impl NodeTable {
    /// Reads `v`; a node never written reads as untouched.
    fn get(&self, v: usize) -> &NodeState {
        static UNTOUCHED: LazyLock<NodeState> = LazyLock::new(NodeState::default);
        self.0.get(&v).unwrap_or(&UNTOUCHED)
    }

    /// Writes `v`, creating its entry on first use.
    fn at(&mut self, v: usize) -> &mut NodeState {
        self.0.entry(v).or_default()
    }
}

/// Initial workloads: each processor starts with the cost of its subtrees
/// (Section 3); everyone knows this static information. Shared by every
/// backend so all cores start from the same view of the machine.
pub fn initial_loads(tree: &AssemblyTree, map: &StaticMapping, nprocs: usize) -> Vec<u64> {
    let mut load0 = vec![0u64; nprocs];
    for v in 0..tree.len() {
        if map.subtree_of[v].is_some() {
            load0[map.owner[v]] += tree.flops(v);
        }
    }
    load0
}

/// One processor of the MUMPS-style scheduler as a sans-io state machine.
///
/// Owns everything a processor decides *with* — its memory accounting,
/// its stale [`Views`] of the others, its ready pool and slave queue, the
/// readiness bookkeeping of the nodes it masters — and nothing about
/// *how* the run executes (no clock, queue, or RNG). Drivers call
/// [`SchedulerCore::handle`] with each input and perform the drained
/// [`Effect`]s in order.
pub struct SchedulerCore<'a> {
    id: usize,
    tree: &'a AssemblyTree,
    map: &'a StaticMapping,
    cfg: &'a SolverConfig,
    /// Whether to build (expensive) recorder events; mirrors
    /// `cfg.record_events`.
    record: bool,
    /// Scratch: the time of the input being handled.
    now: Time,
    /// Effect buffer drained by `handle` (reused across calls).
    out: Vec<Effect>,
    /// Per foldable status kind ([`fold_slot`]), the position in `out` of
    /// the broadcast a new delta of that kind folds into: set by the
    /// broadcast, cleared at `handle` entry and by every `Effect::Send`.
    pending: [Option<usize>; FOLD_SLOTS],
    mem: ProcMemory,
    views: Views,
    /// Ready tasks, a stack (top at the back).
    pool: Vec<usize>,
    busy: bool,
    slave_queue: VecDeque<usize>, // indices into self.works
    current_subtree: Option<usize>,
    /// Active memory when the current subtree started (for Algorithm 2's
    /// "current memory including peak of subtree").
    subtree_base: u64,
    /// Instant this processor entered its current stalled interval (idle
    /// with every ready task deferred by the capacity verdict); `None`
    /// when not stalled. Feeds `ProcMetrics::stalled_ticks`.
    stalled_since: Option<Time>,
    /// Upper tasks owned here whose children have all started (node ->
    /// predicted activation cost), feeding the Predicted broadcasts.
    soon: BTreeMap<usize, u64>,
    /// Work ledger; [`Effect::StartCompute`] keys index into it.
    works: Vec<(Work, WorkState)>,
    nodes: NodeTable,
    nodes_done: usize,
    /// Key of the work currently occupying the compute unit, if any.
    running: Option<usize>,
    // ---- membership & failure detection (all-true / idle on runs
    // without membership faults, keeping the quiet path bit-identical)
    /// Liveness per processor, updated by recovery plans.
    alive: Vec<bool>,
    /// Join state per processor (procs scheduled to join later start
    /// dormant; dormant procs are unreachable but not dead).
    joined: Vec<bool>,
    /// Whether the heartbeat/lease timers were armed (once, on the first
    /// tick of a recovery-configured run).
    timers_armed: bool,
    /// Owners of the nodes a recovery plan moved, consulted before the
    /// static mapping's. A node in here is re-executed: its kind degrades
    /// to a full local front (type-3 roots excepted) and it leaves its
    /// static subtree. Empty on fault-free runs.
    owners: BTreeMap<usize, usize>,
    /// First fatal condition seen by a handler (drivers poll it after
    /// every input).
    violation: Option<Violation>,
    /// Decision-side metrics (staleness, pool depth, stalls, activations,
    /// deferrals, slave tasks, degradation counters). O(1) per core —
    /// the driver folds every core's slice into the run-wide registry
    /// (`RunMetrics::merge_core`) at the end. Traffic and busy time are
    /// runtime concerns the driver accounts directly.
    metrics: CoreMetrics,
}

impl<'a> SchedulerCore<'a> {
    /// A fresh core for processor `id`, holding column `id` of `views`
    /// (a table built over the machine-wide static workloads from
    /// [`initial_loads`]: shared by every core of the in-process host,
    /// one column of its own on a threaded worker).
    pub fn new(
        id: usize,
        tree: &'a AssemblyTree,
        map: &'a StaticMapping,
        cfg: &'a SolverConfig,
        views: &ViewTable,
    ) -> Self {
        SchedulerCore {
            id,
            tree,
            map,
            cfg,
            record: cfg.record_events,
            now: 0,
            out: Vec::new(),
            pending: [None; FOLD_SLOTS],
            mem: ProcMemory::new(),
            views: views.column(id),
            pool: map.initial_pool[id].clone(),
            busy: false,
            slave_queue: VecDeque::new(),
            current_subtree: None,
            subtree_base: 0,
            stalled_since: None,
            soon: Default::default(),
            works: Vec::new(),
            nodes: NodeTable::default(),
            nodes_done: 0,
            running: None,
            alive: vec![true; cfg.nprocs],
            joined: {
                let mut j = vec![true; cfg.nprocs];
                if let Some(f) = &cfg.fault {
                    for &(_, p) in &f.join_at {
                        if p < cfg.nprocs {
                            j[p] = false;
                        }
                    }
                }
                j
            },
            timers_armed: false,
            owners: BTreeMap::new(),
            violation: None,
            metrics: CoreMetrics::default(),
        }
    }

    /// Handles one input at time `now` and drains the effects it caused,
    /// in emission order. The drain borrows the core, so a driver
    /// processes the effects before feeding the next input — exactly the
    /// sequential semantics the protocol assumes.
    pub fn handle(&mut self, now: Time, input: Input) -> std::vec::Drain<'_, Effect> {
        debug_assert!(self.out.is_empty(), "effects of the previous input were not drained");
        self.now = now;
        self.pending = [None; FOLD_SLOTS];
        match input {
            Input::Tick => {
                self.maybe_arm_detector();
                self.try_start();
            }
            Input::Deliver { from, msg } => {
                if from != self.id {
                    self.views.hear(from, now);
                }
                self.deliver(from, msg);
            }
            Input::TimerFired { key: TIMER_HEARTBEAT } => self.heartbeat_fired(),
            Input::TimerFired { key: TIMER_LEASE } => self.lease_fired(),
            Input::TimerFired { key } => self.work_done(key as usize),
            Input::Force { node } => self.force_activate(node),
            Input::Recover { plan } => self.apply_plan(&plan),
            Input::Join { proc } => self.apply_join(proc),
        }
        self.out.drain(..)
    }

    /// Applies a delivered status delta: exactly what
    /// `handle(now, Deliver { from, msg: Msg::Status(delta) })` does to
    /// the core, without the effect buffer. A status apply emits nothing
    /// but the recorder's `StatusApply`, which the caller builds from the
    /// returned age of the belief replaced — `None` when the delta is
    /// about this core itself (an `Assigned` reaching the enrolled slave,
    /// whose self-view is exact). `handle` delegates here, so a driver
    /// that delivers a whole broadcast block through this entry point and
    /// one that feeds `handle` per message leave identical cores.
    ///
    /// It writes this core's column of the view table and nothing else —
    /// it is [`ViewTable::deliver`], whose per-receiver steps
    /// [`ViewTable::deliver_block`] takes for a whole row at once: that
    /// is how the in-process host delivers a block without touching the
    /// cores at all. In particular it does not set the core's clock:
    /// `now` is read only by the handlers `handle` dispatches to, after
    /// `handle` has set it.
    #[inline]
    pub fn apply_status(&mut self, now: Time, from: usize, delta: StatusDelta) -> Option<Time> {
        self.views.deliver(now, from, delta)
    }

    // ---------- driver-facing accessors ----------

    /// This core's processor id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Fronts this core completed as owner (plus the 2-D root it
    /// mastered).
    pub fn nodes_done(&self) -> usize {
        self.nodes_done
    }

    /// Takes the first fatal condition flagged by a handler, if any.
    pub fn take_violation(&mut self) -> Option<Violation> {
        self.violation.take()
    }

    /// The core's decision-side metrics slice (fold into the driver's
    /// run-wide registry with `RunMetrics::merge_core` at the end of a
    /// run).
    pub fn metrics(&self) -> &CoreMetrics {
        &self.metrics
    }

    /// The core's exact memory accounting.
    pub fn memory(&self) -> &ProcMemory {
        &self.mem
    }

    /// The core's (stale) beliefs about its peers, lease stamps included.
    pub fn views(&self) -> &Views {
        &self.views
    }

    /// Stall-breaker support: the cheapest deferred ready task
    /// `(activation cost, node)` on an idle processor, `None` when this
    /// core is busy, has queued slave work, or has an empty pool. The
    /// driver takes the global minimum across cores and feeds
    /// [`Input::Force`] to the winner.
    pub fn cheapest_deferred(&self) -> Option<(u64, usize)> {
        if self.busy || !self.slave_queue.is_empty() {
            return None;
        }
        let mut best: Option<(u64, usize)> = None;
        for &v in &self.pool {
            let cand = (self.activation_cost(v), v);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best
    }

    /// The core-local fields of a telemetry sample: memory, pool and
    /// queue depths, busy and stalled state. Read-only — the driver stamps
    /// `at` and its traffic counters over the zeros it leaves there.
    pub fn sample(&self) -> SampleRow {
        SampleRow {
            active: self.mem.active(),
            stack: self.mem.stack(),
            pool_depth: self.pool.len() as u32,
            queued: self.slave_queue.len() as u32,
            busy: self.busy,
            stalled: self.stalled_since.is_some(),
            ..Default::default()
        }
    }

    /// Diagnostic snapshot of this processor for error reports.
    pub fn proc_diag(&self) -> ProcDiag {
        ProcDiag {
            proc: self.id,
            busy: self.busy,
            active: self.mem.active(),
            stack: self.mem.stack(),
            factors: self.mem.factors(),
            pool: self.pool.clone(),
            queued_slave_tasks: self.slave_queue.len(),
            current_subtree: self.current_subtree,
            underflows: self.mem.underflows(),
        }
    }

    /// Factor entries stored on this processor as `(node, entries)`, in no
    /// particular order (the digest input; nodes factored elsewhere absent).
    pub fn factors_by_node(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.nodes.0.iter().filter(|(_, s)| s.factors > 0).map(|(&v, s)| (v, s.factors))
    }

    /// Recovery snapshot of this core: everything the driver's plan
    /// builder needs to know about what lives (or lived) here. Taken
    /// from survivors at plan time and from a dying core at kill time.
    pub fn snapshot(&self) -> RecoverySnapshot {
        let mut snap =
            RecoverySnapshot { proc: self.id, active: self.mem.active(), ..Default::default() };
        // Ascending node order: recovery plans are built from these lists.
        let mut nodes: Vec<_> = self.nodes.0.iter().collect();
        nodes.sort_unstable_by_key(|&(&v, _)| v);
        for (&v, s) in nodes {
            snap.done.extend(s.done_by_me.then_some(v));
            snap.activated.extend(s.activated.then_some(v));
            snap.factors.extend((s.factors > 0).then_some((v, s.factors)));
            snap.held.extend((s.held > 0).then_some((v, s.held)));
        }
        snap
    }

    // ---------- membership overlays ----------
    //
    // The static mapping stays immutable; recovery layers these three
    // views over it through one overlay, `owners`. On runs without
    // membership faults it is empty and every view falls through to the
    // mapping, so the quiet path is bit-identical.

    /// Current owner of `v` (static owner + recovery plans).
    fn owner_of(&self, v: usize) -> usize {
        *self.owners.get(&v).unwrap_or(&self.map.owner[v])
    }

    /// Current kind of `v`: a recomputed node runs as a full local front
    /// on its adopter whatever its original kind — except a type-3 root,
    /// which is re-scattered (with dead shares absorbed) to keep its
    /// `nprocs × share` factor total intact.
    fn kind_of(&self, v: usize) -> NodeKind {
        if self.owners.contains_key(&v) && !matches!(self.map.kind[v], NodeKind::Type3) {
            NodeKind::Type1
        } else {
            self.map.kind[v]
        }
    }

    /// Current subtree membership of `v`: a recomputed node leaves its
    /// static subtree (its re-execution is an upper task of its adopter).
    fn subtree_of(&self, v: usize) -> Option<usize> {
        if self.owners.contains_key(&v) {
            None
        } else {
            self.map.subtree_of[v]
        }
    }

    /// A peer this core may talk to and expect answers from: alive and
    /// joined.
    fn reachable(&self, q: usize) -> bool {
        self.alive[q] && self.joined[q]
    }

    // ---------- failure detection (heartbeats and leases) ----------

    /// Arms the heartbeat and lease timers once, on the first tick of a
    /// recovery-configured run. Runs without recovery never arm them, so
    /// their event streams are untouched.
    fn maybe_arm_detector(&mut self) {
        let Some(rc) = &self.cfg.recovery else { return };
        if self.timers_armed {
            return;
        }
        self.timers_armed = true;
        let now = self.now;
        for p in 0..self.cfg.nprocs {
            self.views.hear(p, now);
        }
        self.out.push(Effect::Arm { key: TIMER_HEARTBEAT, after: rc.heartbeat_every });
        self.out.push(Effect::Arm { key: TIMER_LEASE, after: rc.heartbeat_every });
    }

    /// Periodic heartbeat: renew this core's lease at every reachable
    /// peer, then re-arm.
    fn heartbeat_fired(&mut self) {
        let Some(rc) = &self.cfg.recovery else { return };
        let every = rc.heartbeat_every;
        for q in 0..self.cfg.nprocs {
            if q != self.id && self.reachable(q) {
                self.send(q, Msg::Heartbeat, 8);
            }
        }
        self.out.push(Effect::Arm { key: TIMER_HEARTBEAT, after: every });
    }

    /// Periodic lease check: declare any reachable peer unheard-from for
    /// longer than the lease timeout, then re-arm.
    fn lease_fired(&mut self) {
        let Some(rc) = &self.cfg.recovery else { return };
        let (every, timeout) = (rc.heartbeat_every, rc.lease_timeout);
        for q in 0..self.cfg.nprocs {
            if q != self.id
                && self.reachable(q)
                && self.now.saturating_sub(self.views.get(q).last_heard) > timeout
            {
                self.out.push(Effect::DeclareDead { proc: q });
            }
        }
        self.out.push(Effect::Arm { key: TIMER_LEASE, after: every });
    }

    // ---------- recovery (plan application) ----------

    /// Applies a recovery plan. Every surviving core runs this with the
    /// same plan in processor order, so the membership overlays stay
    /// consistent machine-wide; each core additionally repairs its own
    /// slice of the distributed state (cancelled works, stale pieces,
    /// readiness counters, adopted installs).
    fn apply_plan(&mut self, plan: &RecoveryPlan) {
        let n = self.tree.len();
        self.alive[plan.dead] = false;
        let mut in_r = vec![false; n];
        for pn in &plan.recompute {
            in_r[pn.node] = true;
        }

        // 1. Cancel unfinished works on recomputed nodes: release their
        // front memory and workload now; a running work's timer will
        // still fire and only then releases the compute unit.
        for key in 0..self.works.len() {
            let (work, state) = &self.works[key];
            if *state != WorkState::Open {
                continue;
            }
            let (node, front, flops) = match *work {
                Work::Elim { node, flops } => (node, self.tree.front_entries(node), flops),
                Work::MasterPart { node, flops, .. } => {
                    (node, self.tree.master_entries(node), flops)
                }
                Work::Slave { node, cb_share, factor_share, flops } => {
                    (node, cb_share + factor_share, flops)
                }
                Work::RootShare { node, entries, flops, .. } => (node, entries, flops),
            };
            if !in_r[node] {
                continue;
            }
            self.works[key].1 = WorkState::Cancelled;
            self.mem_free_front(node, front);
            self.load_change(-(flops as i64));
            self.slave_queue.retain(|&k| k != key);
            if self.running == Some(key) {
                // Leave a subtree whose in-progress node was cancelled so
                // Algorithm 2's projected peak does not linger.
                if let Some(s) = self.current_subtree {
                    if self.map.subtree_of[node] == Some(s) {
                        self.current_subtree = None;
                        if self.cfg.use_subtree_info {
                            self.views.set_subtree(self.id, 0);
                            self.broadcast(StatusDelta::Subtree { peak: 0 });
                        }
                    }
                }
            }
        }

        // 2. Per-node resets, at every core.
        for pn in &plan.recompute {
            let v = pn.node;
            let was_mine = self.owner_of(v) == self.id;
            let was_upper = self.subtree_of(v).is_none();
            self.owners.insert(v, pn.owner);
            // Everything v's previous life left here goes, except
            // `counted` and `done_children` (repaired below).
            let s = self.nodes.at(v);
            let old = std::mem::take(s);
            s.epoch = old.epoch.wrapping_add(1);
            s.counted = old.counted;
            s.done_children = old.done_children;
            if old.done_by_me {
                self.nodes_done -= 1;
            }
            if old.factors > 0 && !self.mem.forget_factors(old.factors) {
                self.flag(Violation::Accounting { proc: self.id, area: "factors" });
            }
            if self.soon.remove(&v).is_some() && self.cfg.use_prediction {
                self.rebroadcast_prediction();
            }
            if was_mine && remove_task(&mut self.pool, v) && was_upper {
                // An upper task's flops entered the load at readiness;
                // losing the task takes them out again.
                self.load_change(-(self.tree.flops(v) as i64));
            }
            if old.held > 0 {
                // The piece this core produced for v's parent is stale:
                // v's new life will reproduce it.
                self.mem_pop_cb(v, old.held);
                self.metrics.recovery.orphaned_cb_entries += old.held;
            }
            if pn.was_activated {
                // v's previous life consumed its children's pieces at
                // activation, but the consume may have died half way: a
                // `FetchCb` the old master sent a surviving holder is
                // lost if the master was the dead processor. The new
                // life re-executes standalone and will never release
                // them, so release local stale pieces now and bump the
                // children's epochs so a `FetchCb` still in flight (from
                // a surviving master) becomes a no-op instead of a
                // double free.
                for &c in &self.tree.nodes[v].children {
                    if in_r[c] {
                        continue; // reset by its own plan entry
                    }
                    let s = self.nodes.at(c);
                    s.epoch = s.epoch.wrapping_add(1);
                    let e = std::mem::take(&mut s.held);
                    if e > 0 {
                        self.mem_pop_cb(c, e);
                        self.metrics.recovery.orphaned_cb_entries += e;
                    }
                }
            }
            // Parent-side counter repair: if the parent survives
            // unactivated, v must count again when its new life
            // completes; if the parent already activated (it consumed
            // everything), the stale count stands as the fire-once guard.
            let parent = self.tree.nodes[v].parent.filter(|&p| !in_r[p]);
            if !parent.is_some_and(|p| self.nodes.get(p).activated)
                && std::mem::take(&mut self.nodes.at(v).counted)
            {
                if let Some(p) = parent {
                    self.nodes.at(p).done_children -= 1;
                }
            }
        }

        // 3. Registration GC at surviving parents: pieces produced by a
        // recomputed child are stale, pieces held by the dead are gone.
        for (&w, s) in &mut self.nodes.0 {
            if !in_r[w] {
                s.cb_pieces.retain(|&(h, _, c)| !in_r[c] && h != plan.dead);
            }
        }

        // 4. Owner-side installs: the (possibly new) owner of each
        // recomputed node rebuilds its readiness state from the plan.
        for pn in &plan.recompute {
            if pn.owner != self.id {
                continue;
            }
            let v = pn.node;
            if pn.was_activated {
                // Standalone re-execution: every child was complete and
                // consumed in the previous life.
                self.nodes.at(v).done_children = self.tree.nodes[v].children.len();
            } else {
                for cs in &pn.children {
                    let c = self.nodes.at(cs.child);
                    c.counted = cs.done;
                    c.child_complete = false;
                    c.pieces_got = cs.pre_got;
                    c.pieces_expected = cs.done.then_some(cs.pre_got);
                }
                let s = self.nodes.at(v);
                s.done_children = pn.children.iter().filter(|cs| cs.done).count();
                for cs in &pn.children {
                    s.cb_pieces.extend(cs.installs.iter().map(|&(h, e)| (h, e, cs.child)));
                }
            }
            if pn.ready {
                self.pool.push(v);
                if self.subtree_of(v).is_none() {
                    self.load_change(self.tree.flops(v) as i64);
                }
            }
        }

        self.try_start();
    }

    /// Marks `proc` joined. At the joiner itself this also resets every
    /// lease (its counters date from t=0) — the driver follows up with a
    /// membership-log replay, buffered deliveries, and a tick.
    fn apply_join(&mut self, proc: usize) {
        self.joined[proc] = true;
        let now = self.now;
        if proc == self.id {
            for p in 0..self.cfg.nprocs {
                self.views.hear(p, now);
            }
        } else {
            self.views.hear(proc, now);
        }
    }

    // ---------- internals ----------

    /// Records the first fatal condition; the driver surfaces it after
    /// the current input unwinds.
    fn flag(&mut self, v: Violation) {
        if self.violation.is_none() {
            self.violation = Some(v);
        }
    }

    /// Emits a recorder event when recording is enabled. The event is
    /// built inside the closure, so the disabled path is a single
    /// predictable branch with nothing constructed — and since the
    /// memory/compute hot paths derive their events driver-side from
    /// `Alloc`/`Free`/`StartCompute` effects, the recording-off fast
    /// path of the core's inner loops carries no recording branches at
    /// all; only the cold decision sites and status applies reach here.
    #[inline]
    fn emit_record(&mut self, build: impl FnOnce() -> SchedEvent) {
        if self.record {
            let ev = build();
            self.out.push(Effect::Record(ev));
        }
    }

    /// Cores granted to a work unit being started — the malleable
    /// allocator (see [`CoreAlloc`]). Under `Static(n)` every unit gets
    /// `n` and nothing is recorded (the event stream stays byte-identical
    /// to the pre-malleable scheduler). Under `Malleable` the grant is
    /// the machine's `CORES_PER_PROC × nprocs` cores split evenly over
    /// the peers this core believes still have tree work (its own status
    /// views — deterministic, same on every backend), clamped to
    /// `[1, MAX_CORES_PER_FRONT]`; small fronts always run sequentially.
    /// Each malleable grant is narrated to the flight recorder so
    /// `explain` can audit the decision like a slave selection.
    fn granted_cores(&mut self, node: usize, flops: u64) -> u32 {
        match self.cfg.core_alloc {
            CoreAlloc::Static(n) => n.max(1) as u32,
            CoreAlloc::Malleable => {
                if flops < MIN_MALLEABLE_FLOPS {
                    return 1;
                }
                let busy = (0..self.alive.len())
                    .filter(|&q| self.alive[q] && self.joined[q] && self.views.get(q).load > 0)
                    .count()
                    .max(1);
                let pool_cores = CORES_PER_PROC * self.cfg.nprocs;
                let grant = (pool_cores / busy).clamp(1, MAX_CORES_PER_FRONT) as u32;
                let id = self.id;
                self.emit_record(|| SchedEvent::CoreGrant {
                    proc: id32(id),
                    node: id32(node),
                    cores: grant,
                    busy: busy as u64,
                });
                grant
            }
        }
    }

    // ---------- messaging ----------

    fn send(&mut self, to: usize, msg: Msg, bytes: u64) {
        if to == self.id {
            // Local work is done inline: a self-addressed message never
            // crosses the transport (and is not counted as traffic).
            self.deliver(self.id, msg);
            return;
        }
        // A receiver may decide on this message: what was broadcast
        // before it must stay apart from what is broadcast after it.
        self.pending = [None; FOLD_SLOTS];
        self.out.push(Effect::Send { to, msg, bytes });
    }

    /// Broadcasts one status delta — at most one per kind between two
    /// sends of a step: a delta whose kind already has a broadcast
    /// pending in `out` is folded into it. Exact, not approximate: every
    /// status message has the same size, so the parts would have reached
    /// every receiver at one instant, with contiguous sequence numbers and
    /// nothing scheduled between them — no decision anywhere could read a
    /// view between the parts. A fold that sums to zero is still sent: it
    /// refreshes the receivers' stamps exactly as its parts did.
    fn broadcast(&mut self, delta: StatusDelta) {
        if let Some(slot) = fold_slot(&delta) {
            if let Some(i) = self.pending[slot] {
                let Effect::Broadcast { msg: Msg::Status(prev), .. } = &mut self.out[i] else {
                    unreachable!("pending[{slot}] points at a status broadcast");
                };
                *prev = folded(*prev, delta);
                return;
            }
            self.pending[slot] = Some(self.out.len());
        }
        self.out.push(Effect::Broadcast { msg: Msg::Status(delta), bytes: STATUS_BYTES });
    }

    // ---------- memory (every change refreshes the exact local
    // self-view and broadcasts the increment, Section 4) ----------

    fn mem_alloc_front(&mut self, node: usize, entries: u64) {
        self.out.push(Effect::Alloc { node, area: MemArea::Front, entries });
        self.mem.alloc_front(entries);
        self.after_mem_change(entries as i64);
    }

    fn mem_free_front(&mut self, node: usize, entries: u64) {
        self.out.push(Effect::Free { node, area: MemArea::Front, entries });
        if !self.mem.free_front(entries) {
            self.flag(Violation::Accounting { proc: self.id, area: "fronts" });
        }
        self.after_mem_change(-(entries as i64));
    }

    fn mem_push_cb(&mut self, node: usize, entries: u64) {
        self.out.push(Effect::Alloc { node, area: MemArea::Stack, entries });
        self.mem.push_cb(entries);
        self.after_mem_change(entries as i64);
    }

    fn mem_pop_cb(&mut self, node: usize, entries: u64) {
        self.out.push(Effect::Free { node, area: MemArea::Stack, entries });
        if !self.mem.pop_cb(entries) {
            self.flag(Violation::Accounting { proc: self.id, area: "stack" });
        }
        self.after_mem_change(-(entries as i64));
    }

    /// Stores factor entries of `node` in the factors area; the per-node
    /// total is tracked for the factor digest.
    fn store_factors(&mut self, node: usize, entries: u64) {
        self.nodes.at(node).factors += entries;
        self.mem.store_factors(entries);
    }

    fn after_mem_change(&mut self, delta: i64) {
        if delta == 0 {
            return;
        }
        let active = self.mem.active();
        self.views.set_mem(self.id, active);
        // The self-view is exact: keep its freshness stamp current so
        // decision-time staleness reads 0 for the deciding processor.
        self.views.touch(self.id, self.now);
        self.broadcast(StatusDelta::Mem { delta });
    }

    fn load_change(&mut self, delta: i64) {
        if delta == 0 {
            return;
        }
        self.views.apply_load_delta(self.id, delta);
        self.broadcast(StatusDelta::Load { delta });
    }

    // ---------- scheduling ----------

    /// Closes a stalled interval (idle with everything deferred) when the
    /// processor gets going again.
    fn close_stall(&mut self) {
        if let Some(since) = self.stalled_since.take() {
            self.metrics.me.stalled_ticks += self.now.saturating_sub(since);
        }
    }

    fn try_start(&mut self) {
        if self.busy {
            return;
        }
        // Received slave tasks have priority (they are already consuming
        // memory; finishing them frees it).
        if let Some(key) = self.slave_queue.pop_front() {
            let (flops, node, role) = match self.works.get(key).map(|(w, _)| w) {
                Some(Work::Slave { flops, node, .. }) => (*flops, *node, TaskRole::Slave),
                Some(Work::RootShare { flops, node, .. }) => (*flops, *node, TaskRole::Root),
                other => {
                    let p = self.id;
                    self.flag(Violation::Protocol {
                        detail: format!(
                            "queued work {key} on proc {p} must be slave-like, got {other:?}"
                        ),
                    });
                    return;
                }
            };
            self.close_stall();
            self.busy = true;
            self.running = Some(key);
            let cores = self.granted_cores(node, flops);
            self.out.push(Effect::StartCompute { key: key as u64, node, role, flops, cores });
            return;
        }
        // Taken out so that what the strategy consults can borrow `self`.
        let mut pool = std::mem::take(&mut self.pool);
        let pieces = |v: usize| self.nodes.get(v).cb_pieces.iter();
        let cost = |v: usize| self.activation_cost(v);
        // Hard capacity: an out-of-subtree activation is deferred unless
        // its net memory need (activation cost minus the locally stacked
        // CBs it releases) fits under the cap. Subtree tasks are always
        // admissible — the static mapping sized them in, and depth-first
        // progress inside a subtree is what frees its memory.
        let cap = self.cfg.capacity;
        let active = self.mem.active();
        let id = self.id;
        let in_subtree = |v: usize| self.subtree_of(v).is_some();
        let admissible = |v: usize| match cap {
            None => true,
            Some(c) => {
                in_subtree(v) || {
                    let local_release: u64 =
                        pieces(v).filter(|&&(h, _, _)| h == id).map(|&(_, e, _)| e).sum();
                    active + cost(v).saturating_sub(local_release) <= c
                }
            }
        };
        let released = |v: usize| pieces(v).map(|&(_, e, _)| e).sum::<u64>();
        let ctx = TaskCtx {
            in_subtree: &in_subtree,
            cost: &cost,
            released: &released,
            admissible: &admissible,
            current_memory: self.effective_memory(),
            observed_peak: self.mem.active_peak(),
        };
        let depth = pool.len();
        let picked = self.cfg.task_selection.pick(&mut pool, &ctx);
        self.pool = pool;
        if depth > 0 {
            // A real decision was taken over a non-empty pool: observe it.
            self.metrics.pool_depth.observe(depth as u64);
            self.emit_record(|| SchedEvent::PoolDecision {
                proc: id32(id),
                depth,
                picked: picked.map(id32),
            });
            if picked.is_none() {
                // The Algorithm-2 / capacity verdict deferred everything:
                // the processor is stalled until memory frees.
                self.metrics.me.deferrals += 1;
                let now = self.now;
                self.stalled_since.get_or_insert(now);
            }
        }
        if let Some(v) = picked {
            self.activate_node(v);
        }
    }

    /// Memory an activation of `v` allocates on its owner (the cost used
    /// by Algorithm 2, the capacity check, and the prediction mechanism).
    fn activation_cost(&self, v: usize) -> u64 {
        match self.kind_of(v) {
            NodeKind::Type2 => self.tree.master_entries(v),
            NodeKind::Type3 => self.tree.front_entries(v) / self.cfg.nprocs as u64,
            _ => self.tree.front_entries(v),
        }
    }

    /// [`Input::Force`]: activate a deferred ready task past the capacity
    /// verdict (last-resort degradation, picked by the driver from
    /// [`SchedulerCore::cheapest_deferred`]).
    fn force_activate(&mut self, v: usize) {
        let cost = self.activation_cost(v);
        remove_task(&mut self.pool, v);
        self.metrics.forced_activations += 1;
        let p = self.id;
        self.emit_record(|| SchedEvent::Forced { proc: id32(p), node: id32(v), cost });
        self.activate_node(v);
    }

    /// Algorithm 2's "current memory (including peak of subtree)": while a
    /// subtree is in progress its projected peak counts.
    fn effective_memory(&self) -> u64 {
        let active = self.mem.active();
        match self.current_subtree {
            Some(s) => active.max(self.subtree_base + self.map.subtree_peak[s]),
            None => active,
        }
    }

    fn activate_node(&mut self, v: usize) {
        debug_assert_eq!(self.owner_of(v), self.id);
        let s = self.nodes.at(v);
        debug_assert!(!s.activated, "node {v} activated twice");
        s.activated = true;
        self.close_stall();
        self.busy = true;
        self.metrics.me.activations += 1;
        let class = match self.kind_of(v) {
            NodeKind::Subtree(_) => FrontClass::Subtree,
            NodeKind::Type1 => FrontClass::Type1,
            NodeKind::Type2 => FrontClass::Type2,
            NodeKind::Type3 => FrontClass::Type3,
        };
        let p = self.id;
        self.emit_record(|| SchedEvent::Activate { proc: id32(p), node: id32(v), class });

        if self.cfg.use_prediction {
            // This task is no longer "upcoming": refresh the broadcast.
            if self.soon.remove(&v).is_some() {
                self.rebroadcast_prediction();
            }
            // Tell the parent's master we started (its readiness predictor).
            if let Some(par) = self.tree.nodes[v].parent {
                let owner = self.owner_of(par);
                self.send(owner, Msg::ChildStarted { node: par }, 16);
            }
        }

        // Entering a subtree broadcasts its peak (Section 5.1).
        if let Some(s) = self.subtree_of(v) {
            if self.current_subtree != Some(s) {
                self.current_subtree = Some(s);
                self.subtree_base = self.mem.active();
                if self.cfg.use_subtree_info {
                    // Broadcast the absolute level this stack is heading
                    // to (base + subtree peak), Section 5.1.
                    let peak = self.subtree_base + self.map.subtree_peak[s];
                    self.views.set_subtree(self.id, peak);
                    self.broadcast(StatusDelta::Subtree { peak });
                }
            }
        }

        match self.kind_of(v) {
            NodeKind::Subtree(_) | NodeKind::Type1 => self.start_full_front(v),
            NodeKind::Type2 => self.start_type2(v),
            NodeKind::Type3 => self.start_type3(v),
        }
    }

    fn start_full_front(&mut self, v: usize) {
        self.mem_alloc_front(v, self.tree.front_entries(v));
        self.consume_stacked(v);
        let flops = self.tree.flops(v);
        self.schedule_work(Work::Elim { node: v, flops });
    }

    fn start_type2(&mut self, v: usize) {
        let nd = &self.tree.nodes[v];
        let front = FrontSplit {
            nfront: nd.nfront,
            npiv: nd.npiv,
            sym: self.tree.sym,
            min_rows_per_slave: self.cfg.min_rows_per_slave,
        };
        let mut candidates: Vec<usize> =
            (0..self.cfg.nprocs).filter(|&q| q != self.id && self.reachable(q)).collect();
        let mut rounds = 0u32;
        let mut serialized = false;
        let (assignment, metric) = loop {
            // One selection decision over the surviving candidates, with
            // the per-processor metric vector it was made from: the
            // flight recorder captures what the master *believed*.
            let picked = self.cfg.slave_selection.select(&SlaveCtx {
                views: &self.views,
                master: self.id,
                use_subtree_info: self.cfg.use_subtree_info,
                use_prediction: self.cfg.use_prediction,
                candidates: &candidates,
                front,
            });
            let Some(cap) = self.cfg.capacity else { break picked };
            let (assignment, metric) = picked;
            if assignment.is_empty() {
                break (assignment, metric);
            }
            // Hard capacity: drop every candidate whose projected memory
            // (the master's view plus the block it would receive) would
            // breach the cap, and re-select over the survivors — fewer,
            // larger shares on the processors that still have room.
            let violators: Vec<usize> = assignment
                .iter()
                .filter(|a| self.views.get(a.proc).mem + a.entries > cap)
                .map(|a| a.proc)
                .collect();
            if violators.is_empty() {
                break (assignment, metric);
            }
            rounds += 1;
            self.metrics.reselect_rounds += 1;
            let master = self.id;
            self.emit_record(|| SchedEvent::Reselect {
                master: id32(master),
                node: id32(v),
                dropped: Box::new(violators.clone()),
            });
            candidates.retain(|q| !violators.contains(q));
            if candidates.is_empty() {
                // Last resort: serialize the whole front on the master.
                self.metrics.serialized_fronts += 1;
                serialized = true;
                break (Vec::new(), metric);
            }
        };

        // Observe decision-time view staleness (always-on) and record the
        // full decision — the believed metric vector, per-processor view
        // ages, the chosen blocks, and how the capacity loop resolved.
        let now = self.now;
        for a in &assignment {
            let age = self.views.age(a.proc, now);
            self.metrics.view_staleness.observe(age);
        }
        if self.record {
            let view_age: Vec<Time> =
                (0..self.cfg.nprocs).map(|q| self.views.age(q, now)).collect();
            let picked: Vec<SlavePick> =
                assignment.iter().map(|a| SlavePick { proc: a.proc, entries: a.entries }).collect();
            self.out.push(Effect::Record(SchedEvent::SlaveSelection {
                master: id32(self.id),
                node: id32(v),
                choice: Box::new(SlaveChoice { metric, view_age, picked }),
                rounds,
                serialized: serialized || assignment.is_empty(),
            }));
        }

        if assignment.is_empty() {
            // No usable slave: the master handles the whole front.
            self.start_full_front(v);
            return;
        }

        self.mem_alloc_front(v, self.tree.master_entries(v));
        self.consume_stacked(v);

        let total_flops = self.tree.flops(v);
        let front_entries = self.tree.front_entries(v);
        let master_entries = self.tree.master_entries(v);
        let master_flops = total_flops * master_entries / front_entries.max(1);
        let mut delegated = 0u64;
        let pieces = assignment.len();
        let epoch = self.nodes.get(v).epoch;
        for a in &assignment {
            let entries = a.entries;
            // The block's CB entries: the columns right of the pivot block,
            // restricted to its rows — a block of the CB-only front.
            let cb_share =
                slave_block_entries(self.tree.sym, front.nfront - front.npiv, 0, a.offset, a.nrows);
            let factor_share = entries - cb_share;
            let flops_share = total_flops * entries / front_entries.max(1);
            delegated += flops_share;
            self.send(
                a.proc,
                Msg::SlaveTask { node: v, entries, cb_share, factor_share, flops_share, epoch },
                entries * 8,
            );
            // Announce the choice so other masters account for it before
            // the slave's own memory reports catch up (Section 4).
            self.views.apply_mem_delta(a.proc, entries as i64);
            self.views.touch(a.proc, now);
            self.broadcast(StatusDelta::Assigned { proc: a.proc, entries });
        }
        // Work handed to the slaves leaves the master's workload.
        self.load_change(-(delegated as i64));
        self.schedule_work(Work::MasterPart { node: v, pieces, flops: master_flops });
    }

    fn start_type3(&mut self, v: usize) {
        self.consume_stacked(v);
        let share_entries = (self.tree.front_entries(v) / self.cfg.nprocs as u64).max(1);
        let share_flops = self.tree.flops(v) / self.cfg.nprocs as u64;
        let epoch = self.nodes.get(v).epoch;
        let mut absorbed = 0u64;
        for q in 0..self.cfg.nprocs {
            if q == self.id {
                continue;
            }
            if self.alive[q] {
                // Dormant joiners still get their share: the driver
                // buffers it until the join.
                self.send(
                    q,
                    Msg::Type3Share {
                        node: v,
                        entries: share_entries,
                        flops_share: share_flops,
                        epoch,
                    },
                    share_entries * 8,
                );
            } else {
                absorbed += 1;
            }
        }
        // Work scattered to the other processors leaves this workload;
        // the dead processors' shares are absorbed locally so the root's
        // `nprocs × share` factor total stays intact.
        let total_flops = self.tree.flops(v);
        self.load_change(-((total_flops - share_flops * (1 + absorbed)) as i64));
        self.mem_alloc_front(v, share_entries);
        for _ in 0..absorbed {
            self.mem_alloc_front(v, share_entries);
            self.queue_work(Work::RootShare {
                node: v,
                entries: share_entries,
                flops: share_flops,
                is_master: false,
            });
        }
        self.schedule_work(Work::RootShare {
            node: v,
            entries: share_entries,
            flops: share_flops,
            is_master: true,
        });
    }

    fn schedule_work(&mut self, work: Work) {
        let (flops, node, role) = match &work {
            Work::Elim { flops, node } => (*flops, *node, TaskRole::Elim),
            Work::MasterPart { flops, node, .. } => (*flops, *node, TaskRole::Master),
            Work::Slave { flops, node, .. } => (*flops, *node, TaskRole::Slave),
            Work::RootShare { flops, node, .. } => (*flops, *node, TaskRole::Root),
        };
        let key = self.add_work(work);
        self.running = Some(key);
        let cores = self.granted_cores(node, flops);
        self.out.push(Effect::StartCompute { key: key as u64, node, role, flops, cores });
    }

    /// Enters `work` into the ledger, open, and returns its key.
    fn add_work(&mut self, work: Work) -> usize {
        self.works.push((work, WorkState::Open));
        self.works.len() - 1
    }

    /// Enters a received slave-like `work` into the ledger and queues it
    /// for the compute unit.
    fn queue_work(&mut self, work: Work) {
        let key = self.add_work(work);
        self.slave_queue.push_back(key);
    }

    /// Releases the contribution blocks stacked for node `v` (the
    /// assembly): local pieces pop immediately; remote holders are told to
    /// ship-and-free theirs (one control-message latency away, like the
    /// real redistribution).
    fn consume_stacked(&mut self, v: usize) {
        let pieces = std::mem::take(&mut self.nodes.at(v).cb_pieces);
        for (holder, entries, child) in pieces {
            if holder == self.id {
                self.nodes.at(child).held = 0;
                self.mem_pop_cb(child, entries);
            } else {
                let epoch = self.nodes.get(child).epoch;
                self.send(holder, Msg::FetchCb { child, entries, epoch }, 16);
            }
        }
    }

    // ---------- completions ----------

    fn work_done(&mut self, key: usize) {
        let Some((work, state)) = self.works.get(key).cloned() else {
            self.flag(Violation::Protocol {
                detail: format!("timer fired for unknown work key {key}"),
            });
            return;
        };
        if self.running == Some(key) {
            self.running = None;
        }
        if state == WorkState::Cancelled {
            // A recovery plan cancelled this work while it was running:
            // its memory and workload were released at cancellation; the
            // completion only returns the compute unit.
            self.busy = false;
            self.try_start();
            return;
        }
        self.works[key].1 = WorkState::Done;
        match work {
            Work::Elim { node, flops } => {
                self.store_factors(node, self.tree.factor_entries(node));
                self.mem_free_front(node, self.tree.front_entries(node));
                let cb = self.tree.cb_entries(node);
                let pieces = if cb > 0 && self.tree.nodes[node].parent.is_some() { 1 } else { 0 };
                if pieces == 1 {
                    self.produce_cb_piece(node, cb);
                }
                self.finish_node(node, pieces, flops);
            }
            Work::MasterPart { node, pieces, flops } => {
                self.store_factors(node, self.tree.master_entries(node));
                self.mem_free_front(node, self.tree.master_entries(node));
                self.finish_node(node, pieces, flops);
            }
            Work::Slave { node, cb_share, factor_share, flops } => {
                self.store_factors(node, factor_share);
                self.mem_free_front(node, cb_share + factor_share);
                if cb_share > 0 && self.tree.nodes[node].parent.is_some() {
                    self.produce_cb_piece(node, cb_share);
                }
                self.load_change(-(flops as i64));
                self.busy = false;
                self.try_start();
            }
            Work::RootShare { node, entries, flops, is_master } => {
                self.store_factors(node, entries);
                self.mem_free_front(node, entries);
                self.load_change(-(flops as i64));
                if is_master {
                    // The 2-D root has no parent: completing the master
                    // share completes the node.
                    debug_assert!(self.tree.nodes[node].parent.is_none());
                    self.nodes_done += 1;
                    self.nodes.at(node).done_by_me = true;
                }
                self.busy = false;
                self.try_start();
            }
        }
    }

    /// Common tail of a node's (master) elimination: announce completion,
    /// leave any finished subtree, account the work, count the node.
    fn finish_node(&mut self, node: usize, pieces: usize, flops: u64) {
        if let Some(par) = self.tree.nodes[node].parent {
            let owner = self.owner_of(par);
            let epoch = self.nodes.get(node).epoch;
            self.send(owner, Msg::Complete { child: node, pieces, epoch }, 16);
        }
        self.load_change(-(flops as i64));
        if let Some(s) = self.current_subtree {
            if self.map.subtree_roots[s] == node {
                self.current_subtree = None;
                if self.cfg.use_subtree_info {
                    self.views.set_subtree(self.id, 0);
                    self.broadcast(StatusDelta::Subtree { peak: 0 });
                }
            }
        }
        self.nodes_done += 1;
        self.nodes.at(node).done_by_me = true;
        self.busy = false;
        self.try_start();
    }

    /// A CB piece of `child` was produced here: it stays on this stack
    /// until the parent activates; the parent's master is informed.
    fn produce_cb_piece(&mut self, child: usize, entries: u64) {
        let s = self.nodes.at(child);
        s.held = entries;
        let epoch = s.epoch;
        self.mem_push_cb(child, entries);
        let Some(parent) = self.tree.nodes[child].parent else {
            self.flag(Violation::Protocol {
                detail: format!("CB piece produced for parentless node {child}"),
            });
            return;
        };
        let dest = self.owner_of(parent);
        self.send(dest, Msg::PieceDone { child, holder: self.id, entries, epoch }, 16);
    }

    // ---------- message handling ----------

    fn deliver(&mut self, from: usize, msg: Msg) {
        let to = self.id;
        match msg {
            Msg::PieceDone { child, holder, entries, epoch } => {
                if epoch != self.nodes.get(child).epoch {
                    return; // a previous life of `child`: already repaired
                }
                let Some(parent) = self.tree.nodes[child].parent else {
                    self.flag(Violation::Protocol {
                        detail: format!("PieceDone for parentless node {child}"),
                    });
                    return;
                };
                // If the parent already activated, release immediately.
                if self.nodes.get(parent).activated {
                    if holder == to {
                        self.nodes.at(child).held = 0;
                        self.mem_pop_cb(child, entries);
                        // Freed memory may admit a deferred task.
                        if self.cfg.capacity.is_some() {
                            self.try_start();
                        }
                    } else {
                        self.send(holder, Msg::FetchCb { child, entries, epoch }, 16);
                    }
                } else {
                    self.nodes.at(parent).cb_pieces.push((holder, entries, child));
                }
                self.nodes.at(child).pieces_got += 1;
                self.check_child_done(child);
            }
            Msg::FetchCb { child, entries, epoch } => {
                let s = self.nodes.at(child);
                if epoch != s.epoch {
                    return; // stale fetch: the piece was GC'd by recovery
                }
                s.held = 0;
                self.mem_pop_cb(child, entries);
                // Freed memory may admit a deferred task (only meaningful
                // under a hard capacity; without one, nothing was ever
                // deferred and this keeps the happy path untouched).
                if self.cfg.capacity.is_some() {
                    self.try_start();
                }
            }
            Msg::Complete { child, pieces, epoch } => {
                let s = self.nodes.at(child);
                if epoch != s.epoch {
                    return; // a previous life of `child`
                }
                s.pieces_expected = Some(pieces);
                s.child_complete = true;
                self.check_child_done(child);
            }
            Msg::SlaveTask { node, entries, cb_share, factor_share, flops_share, epoch } => {
                if epoch != self.nodes.get(node).epoch {
                    return; // enrolment from before the node's recovery
                }
                // "Slave tasks are activated as soon as they are received":
                // the memory is allocated now, the CPU when free. No
                // increment is broadcast — the master's Assigned message
                // already announced this allocation to everyone.
                self.out.push(Effect::Alloc { node, area: MemArea::Front, entries });
                self.mem.alloc_front(entries);
                let active = self.mem.active();
                self.views.set_mem(to, active);
                self.views.touch(to, self.now);
                self.metrics.me.slave_tasks += 1;
                self.load_change(flops_share as i64);
                debug_assert_eq!(entries, cb_share + factor_share);
                self.queue_work(Work::Slave { node, cb_share, factor_share, flops: flops_share });
                self.try_start();
            }
            Msg::Type3Share { node, entries, flops_share, epoch } => {
                if epoch != self.nodes.get(node).epoch {
                    return; // share from before the root's recovery
                }
                self.mem_alloc_front(node, entries);
                self.load_change(flops_share as i64);
                self.queue_work(Work::RootShare {
                    node,
                    entries,
                    flops: flops_share,
                    is_master: false,
                });
                self.try_start();
            }
            Msg::Status(d) => {
                if let Some(age) = self.apply_status(self.now, from, d) {
                    let (about, (kind, _)) = (d.about(from), d.kind());
                    self.emit_record(|| SchedEvent::StatusApply {
                        from: id32(from),
                        about: id32(about),
                        kind,
                        applied: Box::new(vec![(id32(to), age)]),
                    });
                }
            }
            Msg::ChildStarted { node } => {
                let s = self.nodes.at(node);
                s.started_children += 1;
                if s.started_children == self.tree.nodes[node].children.len()
                    && !s.activated
                    && self.owner_of(node) == to
                    && self.subtree_of(node).is_none()
                {
                    let cost = self.activation_cost(node);
                    self.soon.insert(node, cost);
                    self.rebroadcast_prediction();
                }
            }
            Msg::Heartbeat => {
                // Lease renewal happened at delivery (`handle` stamps
                // `last_heard` for every delivered message).
            }
        }
    }

    fn check_child_done(&mut self, child: usize) {
        let c = self.nodes.at(child);
        if c.counted || !c.child_complete || Some(c.pieces_got) != c.pieces_expected {
            return;
        }
        c.child_complete = false; // fire once
        c.counted = true;
        let Some(parent) = self.tree.nodes[child].parent else {
            self.flag(Violation::Protocol {
                detail: format!("completion tracked for parentless node {child}"),
            });
            return;
        };
        let p = self.nodes.at(parent);
        p.done_children += 1;
        if p.done_children == self.tree.nodes[parent].children.len() {
            self.node_ready(parent);
        }
    }

    fn node_ready(&mut self, v: usize) {
        debug_assert_eq!(self.owner_of(v), self.id);
        self.pool.push(v);
        // Upper tasks enter the workload when they become ready; subtree
        // work was counted in the initial loads (Section 3).
        if self.subtree_of(v).is_none() {
            self.load_change(self.tree.flops(v) as i64);
        }
        self.try_start();
    }

    fn rebroadcast_prediction(&mut self) {
        let max = self.soon.values().copied().max().unwrap_or(0);
        if self.views.get(self.id).predicted != max {
            self.views.set_predicted(self.id, max);
            self.broadcast(StatusDelta::Predicted { cost: max });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::compute_mapping;
    use mf_order::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_symbolic::AmalgamationOptions;

    #[test]
    fn unwritten_nodes_read_as_default_and_snapshots_are_ordered() {
        let a = grid2d(12, 12, Stencil::Star);
        let p = OrderingKind::Metis.compute(&a);
        let tree = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default()).tree;
        let cfg = SolverConfig::mumps_baseline(2);
        let map = compute_mapping(&tree, &cfg);
        let views = ViewTable::new(0..2, &initial_loads(&tree, &map, 2));
        let mut core = SchedulerCore::new(0, &tree, &map, &cfg, &views);

        // Spelled out field by field, so a new field has to say here what
        // an untouched node reads as.
        let NodeState {
            pieces_expected,
            pieces_got,
            child_complete,
            counted,
            done_children,
            started_children,
            cb_pieces,
            activated,
            done_by_me,
            factors,
            held,
            epoch,
        } = core.nodes.get(3);
        assert_eq!(
            (*pieces_expected, *pieces_got, *child_complete, *counted),
            (None, 0, false, false)
        );
        assert_eq!((*done_children, *started_children, cb_pieces.len()), (0, 0, 0));
        assert_eq!((*activated, *done_by_me, *factors, *held, *epoch), (false, false, 0, 0, 0));
        assert_eq!(core.nodes.get(3), &NodeState::default());
        assert!(core.nodes.0.is_empty(), "a read must not create an entry");
        assert_eq!((core.owner_of(3), core.subtree_of(3)), (map.owner[3], map.subtree_of[3]));

        for v in [7, 2, 9, 4] {
            let s = core.nodes.at(v);
            s.done_by_me = true;
            s.activated = true;
            s.factors = 10 + v as u64;
            s.held = v as u64;
        }
        let snap = core.snapshot();
        assert_eq!(snap.done, [2, 4, 7, 9]);
        assert_eq!(snap.activated, [2, 4, 7, 9]);
        assert_eq!(snap.factors, [(2, 12), (4, 14), (7, 17), (9, 19)]);
        assert_eq!(snap.held, [(2, 2), (4, 4), (7, 7), (9, 9)]);
        let mut stored: Vec<_> = core.factors_by_node().collect();
        stored.sort_unstable();
        assert_eq!(stored, snap.factors);
    }
}
