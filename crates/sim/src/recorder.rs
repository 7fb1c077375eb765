//! Structured flight recorder for scheduling decisions.
//!
//! The paper's whole argument is about *explaining* per-processor stack
//! peaks (Figures 4/6/8, Tables 2–6): a surprising peak must be traceable
//! back to the slave-selection or task-activation decision that caused
//! it. The [`Recording`] captures a timestamped stream of scheduling
//! events emitted by the `mf-core` event loop at every decision point —
//! memory movements with *node attribution*, front activations, compute
//! spans, slave selections **with the per-candidate metric vector the
//! master saw**, pool activation/deferral verdicts, status-broadcast
//! sends/applies with view staleness, fault perturbations, and capacity
//! re-selections.
//!
//! # Storage layout (the production-grade cost model)
//!
//! Recording millions of events must cost nanoseconds, not microseconds,
//! per event, so the store is columnar rather than an enum buffer:
//!
//! * every event is one fixed-size POD `SchedEventRecord` row (40
//!   bytes: timestamp, a signed value, three small ids, a kind and a tag
//!   byte, and a payload reference) appended to preallocated pages —
//!   no per-event heap allocation;
//! * the rare variable-length payloads (slave-selection metric vectors,
//!   view ages, picked blocks, re-selection drop lists) are
//!   bump-allocated as plain `u64` words into a per-recording arena and
//!   referenced by `(offset, len)`;
//! * consumers iterate [`Recording::events`], which decodes each row
//!   into a borrowed [`EventRef`] on the fly — slices point straight
//!   into the arena, so replay allocates nothing either.
//!
//! On the wire between the scheduler core and its driver an event is a
//! [`CompactEvent`]: the same POD header plus an optional boxed payload
//! (only slave selections and re-selections carry one), which keeps the
//! `mf-core` `Effect` enum small.
//!
//! Recording is opt-in and zero-cost when disabled: the solver holds an
//! `Option<Recording>` and every emission site is a branch on `None`
//! (events are built inside closures, so nothing is constructed on the
//! disabled path). A recording replays deterministically: the same
//! configuration yields a byte-identical event stream, which makes
//! recordings diffable across strategies and thread-pool widths.

use crate::engine::Time;

/// Which of the two active-memory areas a movement touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemArea {
    /// Frontal-matrix area (allocated at activation, freed at completion).
    Front,
    /// Contribution-block stack (pushed at completion, popped at the
    /// parent's assembly).
    Stack,
}

impl MemArea {
    /// Short lowercase label (`"front"` / `"stack"`).
    pub fn name(self) -> &'static str {
        match self {
            MemArea::Front => "front",
            MemArea::Stack => "stack",
        }
    }

    fn tag(self) -> u8 {
        match self {
            MemArea::Front => 0,
            MemArea::Stack => 1,
        }
    }

    fn from_tag(t: u8) -> Self {
        match t {
            0 => MemArea::Front,
            _ => MemArea::Stack,
        }
    }
}

/// What a processor is computing (mirrors the solver's work units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskRole {
    /// Full-front elimination (type 1, subtree node, or a slave-less
    /// type-2 node).
    Elim,
    /// Master part of a type-2 node.
    Master,
    /// A slave block of a type-2 node.
    Slave,
    /// A share of the 2-D type-3 root.
    Root,
}

impl TaskRole {
    /// Short lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            TaskRole::Elim => "elim",
            TaskRole::Master => "master",
            TaskRole::Slave => "slave",
            TaskRole::Root => "root",
        }
    }

    fn tag(self) -> u8 {
        match self {
            TaskRole::Elim => 0,
            TaskRole::Master => 1,
            TaskRole::Slave => 2,
            TaskRole::Root => 3,
        }
    }

    fn from_tag(t: u8) -> Self {
        match t {
            0 => TaskRole::Elim,
            1 => TaskRole::Master,
            2 => TaskRole::Slave,
            _ => TaskRole::Root,
        }
    }
}

/// Node classification of an activated front (mirrors the static
/// mapping's type-1/2/3 classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontClass {
    /// Node inside a leaf subtree.
    Subtree,
    /// Sequential upper-tree node.
    Type1,
    /// 1-D parallel node (master + dynamically chosen slaves).
    Type2,
    /// 2-D root scattered over every processor.
    Type3,
}

impl FrontClass {
    /// Short lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            FrontClass::Subtree => "subtree",
            FrontClass::Type1 => "type1",
            FrontClass::Type2 => "type2",
            FrontClass::Type3 => "type3",
        }
    }

    fn tag(self) -> u8 {
        match self {
            FrontClass::Subtree => 0,
            FrontClass::Type1 => 1,
            FrontClass::Type2 => 2,
            FrontClass::Type3 => 3,
        }
    }

    fn from_tag(t: u8) -> Self {
        match t {
            0 => FrontClass::Subtree,
            1 => FrontClass::Type1,
            2 => FrontClass::Type2,
            _ => FrontClass::Type3,
        }
    }
}

/// Which status (information-mechanism) message a send/apply concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusKind {
    /// Active-memory increment (Section 4).
    MemDelta,
    /// Workload increment (Section 3).
    LoadDelta,
    /// Subtree-peak announcement (Section 5.1).
    SubtreePeak,
    /// Ready-master prediction (Section 5.1).
    Predicted,
    /// Master's slave-choice announcement (Section 4).
    Assigned,
}

impl StatusKind {
    /// Short label matching the message name.
    pub fn name(self) -> &'static str {
        match self {
            StatusKind::MemDelta => "mem_delta",
            StatusKind::LoadDelta => "load_delta",
            StatusKind::SubtreePeak => "subtree_peak",
            StatusKind::Predicted => "predicted",
            StatusKind::Assigned => "assigned",
        }
    }

    fn tag(self) -> u8 {
        match self {
            StatusKind::MemDelta => 0,
            StatusKind::LoadDelta => 1,
            StatusKind::SubtreePeak => 2,
            StatusKind::Predicted => 3,
            StatusKind::Assigned => 4,
        }
    }

    fn from_tag(t: u8) -> Self {
        match t {
            0 => StatusKind::MemDelta,
            1 => StatusKind::LoadDelta,
            2 => StatusKind::SubtreePeak,
            3 => StatusKind::Predicted,
            _ => StatusKind::Assigned,
        }
    }
}

/// One slave block chosen by a type-2 master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlavePick {
    /// The chosen processor.
    pub proc: usize,
    /// Entries of the block it receives.
    pub entries: u64,
}

/// Discriminant of an encoded event row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    MemAlloc = 0,
    MemFree = 1,
    Activate = 2,
    ComputeStart = 3,
    ComputeEnd = 4,
    SlaveSelection = 5,
    Reselect = 6,
    PoolDecision = 7,
    StatusSend = 8,
    StatusApply = 9,
    FaultDrop = 10,
    Forced = 11,
    ProcLost = 12,
    ProcJoined = 13,
    SubtreeReassigned = 14,
    CoreGrant = 15,
}

impl Kind {
    fn from_u8(k: u8) -> Self {
        match k {
            0 => Kind::MemAlloc,
            1 => Kind::MemFree,
            2 => Kind::Activate,
            3 => Kind::ComputeStart,
            4 => Kind::ComputeEnd,
            5 => Kind::SlaveSelection,
            6 => Kind::Reselect,
            7 => Kind::PoolDecision,
            8 => Kind::StatusSend,
            9 => Kind::StatusApply,
            10 => Kind::FaultDrop,
            11 => Kind::Forced,
            12 => Kind::ProcLost,
            13 => Kind::ProcJoined,
            14 => Kind::SubtreeReassigned,
            _ => Kind::CoreGrant,
        }
    }
}

/// One fixed-size event row: the columnar store appends these to
/// preallocated pages. 40 bytes, `Copy`, no drop glue — the whole record
/// path is a branch, a possible arena append, and one 40-byte store.
///
/// Field meaning depends on `kind` (see [`EventRef`] for the decoded
/// view): `a`/`b`/`c` carry small ids (processor, node, depth, rounds),
/// `value` the signed magnitude (entries, delta, age, cost), `tag` the
/// area/role/class/kind sub-discriminant, and `(payload_off,
/// payload_len)` reference `u64` words in the recording's arena (len 0 =
/// no payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedEventRecord {
    at: Time,
    value: i64,
    payload_off: u32,
    payload_len: u32,
    a: u32,
    b: u32,
    c: u32,
    kind: u8,
    tag: u8,
}

/// One event in wire form, as carried by `mf-core`'s `Effect::Record`:
/// the fixed-size header of a `SchedEventRecord` plus an optional
/// boxed payload for the two variable-length variants (slave selections
/// and capacity re-selections). POD events (the overwhelming majority)
/// construct without touching the heap, which keeps the `Effect` enum
/// small and the emission path cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactEvent {
    value: i64,
    payload: Option<Box<[u64]>>,
    a: u32,
    b: u32,
    c: u32,
    kind: u8,
    tag: u8,
}

#[inline]
fn id32(x: usize) -> u32 {
    debug_assert!(x <= u32::MAX as usize, "id {x} does not fit the compact event header");
    x as u32
}

impl CompactEvent {
    #[inline]
    fn pod(kind: Kind, tag: u8, a: u32, b: u32, c: u32, value: i64) -> Self {
        CompactEvent { value, payload: None, a, b, c, kind: kind as u8, tag }
    }

    /// `entries` allocated in `area` on `proc`, attributed to `node`.
    #[inline]
    pub fn mem_alloc(proc: usize, node: usize, area: MemArea, entries: u64) -> Self {
        Self::pod(Kind::MemAlloc, area.tag(), id32(proc), id32(node), 0, entries as i64)
    }

    /// `entries` released from `area` on `proc`, attributed to `node`.
    #[inline]
    pub fn mem_free(proc: usize, node: usize, area: MemArea, entries: u64) -> Self {
        Self::pod(Kind::MemFree, area.tag(), id32(proc), id32(node), 0, entries as i64)
    }

    /// `proc` activated front `node` (the owner-side decision).
    #[inline]
    pub fn activate(proc: usize, node: usize, class: FrontClass) -> Self {
        Self::pod(Kind::Activate, class.tag(), id32(proc), id32(node), 0, 0)
    }

    /// `proc` started computing its `role` part of `node`.
    #[inline]
    pub fn compute_start(proc: usize, node: usize, role: TaskRole) -> Self {
        Self::pod(Kind::ComputeStart, role.tag(), id32(proc), id32(node), 0, 0)
    }

    /// `proc` finished computing its `role` part of `node`.
    #[inline]
    pub fn compute_end(proc: usize, node: usize, role: TaskRole) -> Self {
        Self::pod(Kind::ComputeEnd, role.tag(), id32(proc), id32(node), 0, 0)
    }

    /// A type-2 master resolved its slave selection (see
    /// [`EventRef::SlaveSelection`] for the field meaning). The metric
    /// and view-age vectors must have one entry per processor.
    pub fn slave_selection(
        master: usize,
        node: usize,
        metric: &[u64],
        view_age: &[Time],
        picked: &[SlavePick],
        rounds: u32,
        serialized: bool,
    ) -> Self {
        debug_assert_eq!(metric.len(), view_age.len());
        let n = metric.len();
        let mut words = Vec::with_capacity(2 + 2 * n + 2 * picked.len());
        words.push(n as u64);
        words.extend_from_slice(metric);
        words.extend_from_slice(view_age);
        words.push(picked.len() as u64);
        for p in picked {
            words.push(p.proc as u64);
            words.push(p.entries);
        }
        CompactEvent {
            value: 0,
            payload: Some(words.into_boxed_slice()),
            a: id32(master),
            b: id32(node),
            c: rounds,
            kind: Kind::SlaveSelection as u8,
            tag: serialized as u8,
        }
    }

    /// A capacity re-selection on `master` dropped the `dropped`
    /// candidates for type-2 `node`.
    pub fn reselect(master: usize, node: usize, dropped: &[usize]) -> Self {
        let words: Vec<u64> = dropped.iter().map(|&p| p as u64).collect();
        CompactEvent {
            value: 0,
            payload: Some(words.into_boxed_slice()),
            a: id32(master),
            b: id32(node),
            c: 0,
            kind: Kind::Reselect as u8,
            tag: 0,
        }
    }

    /// A pool decision on `proc` over `depth` ready tasks; `picked:
    /// None` = everything deferred.
    #[inline]
    pub fn pool_decision(proc: usize, depth: usize, picked: Option<usize>) -> Self {
        let value = match picked {
            Some(v) => v as i64,
            None => -1,
        };
        Self::pod(Kind::PoolDecision, 0, id32(proc), 0, id32(depth), value)
    }

    /// A status broadcast of `kind` left `from` with payload `value`.
    #[inline]
    pub fn status_send(from: usize, kind: StatusKind, value: i64) -> Self {
        Self::pod(Kind::StatusSend, kind.tag(), id32(from), 0, 0, value)
    }

    /// A status message of `kind` from `from` was applied at `to`,
    /// refreshing a view entry of `about` that was `age` ticks old.
    #[inline]
    pub fn status_apply(to: usize, from: usize, about: usize, kind: StatusKind, age: Time) -> Self {
        Self::pod(Kind::StatusApply, kind.tag(), id32(to), id32(about), id32(from), age as i64)
    }

    /// The fault injector dropped a status message `from` → `to`.
    #[inline]
    pub fn fault_drop(from: usize, to: usize) -> Self {
        Self::pod(Kind::FaultDrop, 0, id32(from), id32(to), 0, 0)
    }

    /// The capacity stall-breaker force-activated `node` (activation
    /// cost `cost`) on `proc`.
    #[inline]
    pub fn forced(proc: usize, node: usize, cost: u64) -> Self {
        Self::pod(Kind::Forced, 0, id32(proc), id32(node), 0, cost as i64)
    }

    /// Processor `proc` fail-stopped (killed by the fault schedule or
    /// declared dead by the lease protocol); `nodes_lost` of its nodes
    /// must be re-executed.
    #[inline]
    pub fn proc_lost(proc: usize, nodes_lost: usize) -> Self {
        Self::pod(Kind::ProcLost, 0, id32(proc), 0, 0, nodes_lost as i64)
    }

    /// Processor `proc` joined the running computation and received
    /// `migrated` rebalanced tasks.
    #[inline]
    pub fn proc_joined(proc: usize, migrated: usize) -> Self {
        Self::pod(Kind::ProcJoined, 0, id32(proc), 0, 0, migrated as i64)
    }

    /// Recovery reassigned the orphaned subtree rooted at `root` from the
    /// dead `from` to the adopting `to`.
    #[inline]
    pub fn subtree_reassigned(root: usize, from: usize, to: usize) -> Self {
        Self::pod(Kind::SubtreeReassigned, 0, id32(from), id32(root), id32(to), 0)
    }

    /// The malleable allocator granted `cores` cores to `node`'s compute
    /// task on `proc` while it believed `busy` peers still had tree work.
    #[inline]
    pub fn core_grant(proc: usize, node: usize, cores: u32, busy: u64) -> Self {
        Self::pod(Kind::CoreGrant, 0, id32(proc), id32(node), cores, busy as i64)
    }
}

/// One structured scheduling event in owned form — the builder/output
/// type. Emission and storage use the compact forms ([`CompactEvent`] /
/// `SchedEventRecord`); this enum is what tests construct and what
/// [`EventRef::to_owned`] decodes back to. Node and processor ids refer
/// to the assembly tree and machine of the recorded run.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// `entries` were allocated in `area` on `proc`, attributed to `node`.
    MemAlloc {
        /// Processor whose account grew.
        proc: usize,
        /// Node the allocation belongs to.
        node: usize,
        /// Which area.
        area: MemArea,
        /// Entries allocated.
        entries: u64,
    },
    /// `entries` were released from `area` on `proc` (node attribution as
    /// in [`SchedEvent::MemAlloc`]).
    MemFree {
        /// Processor whose account shrank.
        proc: usize,
        /// Node the release belongs to.
        node: usize,
        /// Which area.
        area: MemArea,
        /// Entries released.
        entries: u64,
    },
    /// `proc` activated front `node` (the owner-side decision).
    Activate {
        /// Activating (owner) processor.
        proc: usize,
        /// Activated node.
        node: usize,
        /// Node classification.
        class: FrontClass,
    },
    /// `proc` started computing its part of `node`.
    ComputeStart {
        /// Computing processor.
        proc: usize,
        /// Node computed.
        node: usize,
        /// Which part.
        role: TaskRole,
    },
    /// `proc` finished computing its part of `node`.
    ComputeEnd {
        /// Computing processor.
        proc: usize,
        /// Node computed.
        node: usize,
        /// Which part.
        role: TaskRole,
    },
    /// A type-2 master resolved its slave selection: the exact
    /// per-candidate metric vector it decided from (Algorithm 1 /
    /// workload baseline, indexed by processor), the *age* of its view of
    /// each processor (ticks since the last applied status refresh — the
    /// Figure 5 staleness), and the outcome.
    SlaveSelection {
        /// The master processor.
        master: usize,
        /// The type-2 node.
        node: usize,
        /// Metric per processor as the master believed it.
        metric: Vec<u64>,
        /// View age per processor (ticks since last status apply).
        view_age: Vec<Time>,
        /// Chosen blocks (empty = serialized on the master).
        picked: Vec<SlavePick>,
        /// Capacity re-selection rounds before the outcome (0 = first
        /// selection stood).
        rounds: u32,
        /// Whether the front fell back to serialize-on-master.
        serialized: bool,
    },
    /// A capacity re-selection dropped candidates whose projected memory
    /// would breach the cap.
    Reselect {
        /// The master processor.
        master: usize,
        /// The type-2 node being re-selected.
        node: usize,
        /// Candidates removed this round.
        dropped: Vec<usize>,
    },
    /// A pool (task-selection) decision on `proc`: Algorithm 2 / LIFO
    /// verdict over a non-empty pool.
    PoolDecision {
        /// Deciding processor.
        proc: usize,
        /// Ready tasks in the pool at decision time.
        depth: usize,
        /// Activated task (`None` = every ready task was deferred by the
        /// Algorithm-2 admissibility/capacity verdict).
        picked: Option<usize>,
    },
    /// A status broadcast left `from` (recorded once per broadcast, not
    /// per receiver).
    StatusSend {
        /// Broadcasting processor.
        from: usize,
        /// Which mechanism.
        kind: StatusKind,
        /// Signed payload value (delta or absolute level).
        value: i64,
    },
    /// A status message was applied at `to`, refreshing its view of
    /// `about`.
    StatusApply {
        /// Receiving processor.
        to: usize,
        /// Sender.
        from: usize,
        /// Processor whose view entry was refreshed.
        about: usize,
        /// Which mechanism.
        kind: StatusKind,
        /// Age of the replaced view entry (ticks since its last refresh).
        age: Time,
    },
    /// The fault injector dropped a status message.
    FaultDrop {
        /// Sender of the lost message.
        from: usize,
        /// Intended receiver.
        to: usize,
    },
    /// The capacity stall-breaker force-activated a deferred task.
    Forced {
        /// Processor forced to activate.
        proc: usize,
        /// Activated node.
        node: usize,
        /// Its activation cost (entries).
        cost: u64,
    },
    /// A processor fail-stopped and recovery reclaimed its work.
    ProcLost {
        /// The dead processor.
        proc: usize,
        /// Nodes whose (re-)execution the recovery plan scheduled.
        nodes_lost: usize,
    },
    /// A processor joined the running computation.
    ProcJoined {
        /// The joining processor.
        proc: usize,
        /// Ready tasks migrated to it by the rebalancer.
        migrated: usize,
    },
    /// Recovery reassigned an orphaned subtree to a surviving adopter.
    SubtreeReassigned {
        /// Root of the reassigned subtree.
        root: usize,
        /// The dead previous owner.
        from: usize,
        /// The adopting survivor.
        to: usize,
    },
    /// The malleable allocator granted a front more than its static
    /// share of cores (emitted only under `CoreAlloc::Malleable`).
    CoreGrant {
        /// The granting (and computing) processor.
        proc: usize,
        /// The front whose compute task received the grant.
        node: usize,
        /// Cores granted.
        cores: u32,
        /// Peers the grantor believed still had tree work.
        busy: u64,
    },
}

impl From<&SchedEvent> for CompactEvent {
    fn from(ev: &SchedEvent) -> Self {
        match *ev {
            SchedEvent::MemAlloc { proc, node, area, entries } => {
                CompactEvent::mem_alloc(proc, node, area, entries)
            }
            SchedEvent::MemFree { proc, node, area, entries } => {
                CompactEvent::mem_free(proc, node, area, entries)
            }
            SchedEvent::Activate { proc, node, class } => CompactEvent::activate(proc, node, class),
            SchedEvent::ComputeStart { proc, node, role } => {
                CompactEvent::compute_start(proc, node, role)
            }
            SchedEvent::ComputeEnd { proc, node, role } => {
                CompactEvent::compute_end(proc, node, role)
            }
            SchedEvent::SlaveSelection {
                master,
                node,
                ref metric,
                ref view_age,
                ref picked,
                rounds,
                serialized,
            } => CompactEvent::slave_selection(
                master, node, metric, view_age, picked, rounds, serialized,
            ),
            SchedEvent::Reselect { master, node, ref dropped } => {
                CompactEvent::reselect(master, node, dropped)
            }
            SchedEvent::PoolDecision { proc, depth, picked } => {
                CompactEvent::pool_decision(proc, depth, picked)
            }
            SchedEvent::StatusSend { from, kind, value } => {
                CompactEvent::status_send(from, kind, value)
            }
            SchedEvent::StatusApply { to, from, about, kind, age } => {
                CompactEvent::status_apply(to, from, about, kind, age)
            }
            SchedEvent::FaultDrop { from, to } => CompactEvent::fault_drop(from, to),
            SchedEvent::Forced { proc, node, cost } => CompactEvent::forced(proc, node, cost),
            SchedEvent::ProcLost { proc, nodes_lost } => CompactEvent::proc_lost(proc, nodes_lost),
            SchedEvent::ProcJoined { proc, migrated } => CompactEvent::proc_joined(proc, migrated),
            SchedEvent::SubtreeReassigned { root, from, to } => {
                CompactEvent::subtree_reassigned(root, from, to)
            }
            SchedEvent::CoreGrant { proc, node, cores, busy } => {
                CompactEvent::core_grant(proc, node, cores, busy)
            }
        }
    }
}

impl From<SchedEvent> for CompactEvent {
    fn from(ev: SchedEvent) -> Self {
        CompactEvent::from(&ev)
    }
}

/// The chosen slave blocks of a decoded [`EventRef::SlaveSelection`],
/// backed by `(proc, entries)` word pairs in the recording's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlavePicks<'a>(&'a [u64]);

impl<'a> SlavePicks<'a> {
    /// Number of chosen blocks.
    pub fn len(&self) -> usize {
        self.0.len() / 2
    }

    /// True when the selection chose nobody (serialized on the master).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The picks, in selection order.
    pub fn iter(&self) -> impl Iterator<Item = SlavePick> + 'a {
        self.0.chunks_exact(2).map(|w| SlavePick { proc: w[0] as usize, entries: w[1] })
    }
}

/// A processor list of a decoded [`EventRef::Reselect`], backed by words
/// in the recording's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcList<'a>(&'a [u64]);

impl<'a> ProcList<'a> {
    /// Number of processors in the list.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The processors, in recorded order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.0.iter().map(|&p| p as usize)
    }

    /// True when `p` is in the list.
    pub fn contains(&self, p: usize) -> bool {
        self.0.contains(&(p as u64))
    }
}

/// A decoded event borrowed from a [`Recording`]: the zero-copy view
/// consumers iterate. Variable-length fields are slices straight into
/// the recording's payload arena; [`EventRef::to_owned`] converts to the
/// owned [`SchedEvent`] form. Field meanings match [`SchedEvent`]
/// variant for variant.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field docs live on the owned SchedEvent mirror
pub enum EventRef<'a> {
    /// See [`SchedEvent::MemAlloc`].
    MemAlloc { proc: usize, node: usize, area: MemArea, entries: u64 },
    /// See [`SchedEvent::MemFree`].
    MemFree { proc: usize, node: usize, area: MemArea, entries: u64 },
    /// See [`SchedEvent::Activate`].
    Activate { proc: usize, node: usize, class: FrontClass },
    /// See [`SchedEvent::ComputeStart`].
    ComputeStart { proc: usize, node: usize, role: TaskRole },
    /// See [`SchedEvent::ComputeEnd`].
    ComputeEnd { proc: usize, node: usize, role: TaskRole },
    /// See [`SchedEvent::SlaveSelection`].
    SlaveSelection {
        master: usize,
        node: usize,
        metric: &'a [u64],
        view_age: &'a [Time],
        picked: SlavePicks<'a>,
        rounds: u32,
        serialized: bool,
    },
    /// See [`SchedEvent::Reselect`].
    Reselect { master: usize, node: usize, dropped: ProcList<'a> },
    /// See [`SchedEvent::PoolDecision`].
    PoolDecision { proc: usize, depth: usize, picked: Option<usize> },
    /// See [`SchedEvent::StatusSend`].
    StatusSend { from: usize, kind: StatusKind, value: i64 },
    /// See [`SchedEvent::StatusApply`].
    StatusApply { to: usize, from: usize, about: usize, kind: StatusKind, age: Time },
    /// See [`SchedEvent::FaultDrop`].
    FaultDrop { from: usize, to: usize },
    /// See [`SchedEvent::Forced`].
    Forced { proc: usize, node: usize, cost: u64 },
    /// See [`SchedEvent::ProcLost`].
    ProcLost { proc: usize, nodes_lost: usize },
    /// See [`SchedEvent::ProcJoined`].
    ProcJoined { proc: usize, migrated: usize },
    /// See [`SchedEvent::SubtreeReassigned`].
    SubtreeReassigned { root: usize, from: usize, to: usize },
    /// See [`SchedEvent::CoreGrant`].
    CoreGrant { proc: usize, node: usize, cores: u32, busy: u64 },
}

impl EventRef<'_> {
    /// Decodes this borrowed view into the owned [`SchedEvent`] form
    /// (allocates for the variable-length variants).
    pub fn to_owned(&self) -> SchedEvent {
        match *self {
            EventRef::MemAlloc { proc, node, area, entries } => {
                SchedEvent::MemAlloc { proc, node, area, entries }
            }
            EventRef::MemFree { proc, node, area, entries } => {
                SchedEvent::MemFree { proc, node, area, entries }
            }
            EventRef::Activate { proc, node, class } => SchedEvent::Activate { proc, node, class },
            EventRef::ComputeStart { proc, node, role } => {
                SchedEvent::ComputeStart { proc, node, role }
            }
            EventRef::ComputeEnd { proc, node, role } => {
                SchedEvent::ComputeEnd { proc, node, role }
            }
            EventRef::SlaveSelection {
                master,
                node,
                metric,
                view_age,
                picked,
                rounds,
                serialized,
            } => SchedEvent::SlaveSelection {
                master,
                node,
                metric: metric.to_vec(),
                view_age: view_age.to_vec(),
                picked: picked.iter().collect(),
                rounds,
                serialized,
            },
            EventRef::Reselect { master, node, dropped } => {
                SchedEvent::Reselect { master, node, dropped: dropped.iter().collect() }
            }
            EventRef::PoolDecision { proc, depth, picked } => {
                SchedEvent::PoolDecision { proc, depth, picked }
            }
            EventRef::StatusSend { from, kind, value } => {
                SchedEvent::StatusSend { from, kind, value }
            }
            EventRef::StatusApply { to, from, about, kind, age } => {
                SchedEvent::StatusApply { to, from, about, kind, age }
            }
            EventRef::FaultDrop { from, to } => SchedEvent::FaultDrop { from, to },
            EventRef::Forced { proc, node, cost } => SchedEvent::Forced { proc, node, cost },
            EventRef::ProcLost { proc, nodes_lost } => SchedEvent::ProcLost { proc, nodes_lost },
            EventRef::ProcJoined { proc, migrated } => SchedEvent::ProcJoined { proc, migrated },
            EventRef::SubtreeReassigned { root, from, to } => {
                SchedEvent::SubtreeReassigned { root, from, to }
            }
            EventRef::CoreGrant { proc, node, cores, busy } => {
                SchedEvent::CoreGrant { proc, node, cores, busy }
            }
        }
    }
}

/// One iterated event of a [`Recording`]: its timestamp plus the decoded
/// borrowed view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventView<'a> {
    /// Virtual time of the event.
    pub at: Time,
    /// The decoded event.
    pub ev: EventRef<'a>,
}

/// Rows per preallocated page of the unbounded store (~640 KiB of
/// 40-byte rows): big enough to amortize page allocation to noise,
/// small enough that short recordings stay cheap.
const PAGE: usize = 1 << 14;

/// Ring mode: compact the payload arena once the garbage left behind by
/// evicted payloads exceeds the live payload bytes plus this slack.
const COMPACT_SLACK_WORDS: usize = 4096;

#[derive(Debug, Clone)]
enum Store {
    /// Unbounded: full pages are immutable, the last page has room.
    Paged(Vec<Vec<SchedEventRecord>>),
    /// Bounded: a preallocated circular buffer; `head` indexes the
    /// oldest retained row once the buffer has wrapped.
    Ring { buf: Vec<SchedEventRecord>, head: usize, cap: usize },
    /// Capacity 0: retain nothing, count everything.
    Null,
}

/// Columnar store of timestamped scheduling events. With `capacity:
/// None` it grows unbounded in preallocated pages (what `explain` needs:
/// peak attribution replays the full memory-event history); with a
/// capacity it keeps the most recent events in a preallocated circular
/// buffer and counts what it dropped, so long-running services can fly
/// with a bounded black box.
///
/// Variable-length payloads live in a per-recording `u64` arena,
/// referenced by `(offset, len)` from their rows; in ring mode the arena
/// is compacted when evictions leave too much garbage behind.
#[derive(Debug, Clone)]
pub struct Recording {
    store: Store,
    arena: Vec<u64>,
    /// Arena words referenced by retained rows (ring-mode compaction
    /// bookkeeping; equals `arena.len()` in paged mode).
    live_words: usize,
    dropped: u64,
}

impl Default for Recording {
    fn default() -> Self {
        Recording::new(None)
    }
}

impl PartialEq for Recording {
    /// Logical-stream equality: same retained `(at, event)` sequence and
    /// the same drop count, independent of page/ring internals.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.dropped == other.dropped
            && self.events().zip(other.events()).all(|(x, y)| x == y)
    }
}

impl Recording {
    /// Empty recording; `capacity: None` = unbounded.
    pub fn new(capacity: Option<usize>) -> Self {
        let store = match capacity {
            None => Store::Paged(Vec::new()),
            Some(0) => Store::Null,
            Some(cap) => Store::Ring { buf: Vec::with_capacity(cap), head: 0, cap },
        };
        Recording { store, arena: Vec::new(), live_words: 0, dropped: 0 }
    }

    /// Appends an event, evicting the oldest when at capacity. The hot
    /// path: one branch on the (absent) payload, a 40-byte row store,
    /// and a page-boundary check.
    #[inline]
    pub fn record(&mut self, at: Time, event: impl Into<CompactEvent>) {
        let ce = event.into();
        if matches!(self.store, Store::Null) {
            self.dropped += 1;
            return;
        }
        let (payload_off, payload_len) = match &ce.payload {
            None => (0, 0),
            Some(words) => self.push_payload(words),
        };
        let row = SchedEventRecord {
            at,
            value: ce.value,
            payload_off,
            payload_len,
            a: ce.a,
            b: ce.b,
            c: ce.c,
            kind: ce.kind,
            tag: ce.tag,
        };
        match &mut self.store {
            Store::Paged(pages) => match pages.last_mut() {
                Some(page) if page.len() < PAGE => page.push(row),
                _ => {
                    let mut page = Vec::with_capacity(PAGE);
                    page.push(row);
                    pages.push(page);
                }
            },
            Store::Ring { buf, head, cap } => {
                if buf.len() < *cap {
                    buf.push(row);
                } else {
                    let evicted = std::mem::replace(&mut buf[*head], row);
                    *head = (*head + 1) % *cap;
                    self.live_words -= evicted.payload_len as usize;
                    self.dropped += 1;
                    if self.arena.len() > 2 * self.live_words + COMPACT_SLACK_WORDS {
                        self.compact_arena();
                    }
                }
            }
            Store::Null => unreachable!("handled above"),
        }
    }

    /// Bump-allocates a payload into the arena, returning its
    /// `(offset, len)` reference.
    fn push_payload(&mut self, words: &[u64]) -> (u32, u32) {
        let off = self.arena.len();
        assert!(
            off + words.len() <= u32::MAX as usize,
            "recording payload arena exceeds the u32 offset space"
        );
        self.arena.extend_from_slice(words);
        self.live_words += words.len();
        (off as u32, words.len() as u32)
    }

    /// Ring mode: rebuild the arena from the retained rows in logical
    /// order, dropping the garbage evicted payloads left behind. Offsets
    /// stay monotonically increasing, preserving the non-overlap
    /// invariant [`Recording::payload_refs_valid`] checks.
    fn compact_arena(&mut self) {
        let old = std::mem::take(&mut self.arena);
        let mut arena = Vec::with_capacity(self.live_words);
        if let Store::Ring { buf, head, .. } = &mut self.store {
            let n = buf.len();
            for i in 0..n {
                let row = &mut buf[(*head + i) % n];
                if row.payload_len > 0 {
                    let start = row.payload_off as usize;
                    let end = start + row.payload_len as usize;
                    row.payload_off = arena.len() as u32;
                    arena.extend_from_slice(&old[start..end]);
                }
            }
        }
        self.arena = arena;
    }

    fn row(&self, i: usize) -> &SchedEventRecord {
        match &self.store {
            Store::Paged(pages) => &pages[i / PAGE][i % PAGE],
            Store::Ring { buf, head, .. } => &buf[(head + i) % buf.len()],
            Store::Null => unreachable!("a null store has no rows"),
        }
    }

    fn decode(&self, r: &SchedEventRecord) -> EventRef<'_> {
        let pay = &self.arena[r.payload_off as usize..(r.payload_off + r.payload_len) as usize];
        match Kind::from_u8(r.kind) {
            Kind::MemAlloc => EventRef::MemAlloc {
                proc: r.a as usize,
                node: r.b as usize,
                area: MemArea::from_tag(r.tag),
                entries: r.value as u64,
            },
            Kind::MemFree => EventRef::MemFree {
                proc: r.a as usize,
                node: r.b as usize,
                area: MemArea::from_tag(r.tag),
                entries: r.value as u64,
            },
            Kind::Activate => EventRef::Activate {
                proc: r.a as usize,
                node: r.b as usize,
                class: FrontClass::from_tag(r.tag),
            },
            Kind::ComputeStart => EventRef::ComputeStart {
                proc: r.a as usize,
                node: r.b as usize,
                role: TaskRole::from_tag(r.tag),
            },
            Kind::ComputeEnd => EventRef::ComputeEnd {
                proc: r.a as usize,
                node: r.b as usize,
                role: TaskRole::from_tag(r.tag),
            },
            Kind::SlaveSelection => {
                let n = pay[0] as usize;
                let metric = &pay[1..1 + n];
                let view_age = &pay[1 + n..1 + 2 * n];
                let npicked = pay[1 + 2 * n] as usize;
                let picks = &pay[2 + 2 * n..2 + 2 * n + 2 * npicked];
                EventRef::SlaveSelection {
                    master: r.a as usize,
                    node: r.b as usize,
                    metric,
                    view_age,
                    picked: SlavePicks(picks),
                    rounds: r.c,
                    serialized: r.tag != 0,
                }
            }
            Kind::Reselect => EventRef::Reselect {
                master: r.a as usize,
                node: r.b as usize,
                dropped: ProcList(pay),
            },
            Kind::PoolDecision => EventRef::PoolDecision {
                proc: r.a as usize,
                depth: r.c as usize,
                picked: (r.value >= 0).then_some(r.value as usize),
            },
            Kind::StatusSend => EventRef::StatusSend {
                from: r.a as usize,
                kind: StatusKind::from_tag(r.tag),
                value: r.value,
            },
            Kind::StatusApply => EventRef::StatusApply {
                to: r.a as usize,
                from: r.c as usize,
                about: r.b as usize,
                kind: StatusKind::from_tag(r.tag),
                age: r.value as Time,
            },
            Kind::FaultDrop => EventRef::FaultDrop { from: r.a as usize, to: r.b as usize },
            Kind::Forced => {
                EventRef::Forced { proc: r.a as usize, node: r.b as usize, cost: r.value as u64 }
            }
            Kind::ProcLost => {
                EventRef::ProcLost { proc: r.a as usize, nodes_lost: r.value as usize }
            }
            Kind::ProcJoined => {
                EventRef::ProcJoined { proc: r.a as usize, migrated: r.value as usize }
            }
            Kind::SubtreeReassigned => EventRef::SubtreeReassigned {
                root: r.b as usize,
                from: r.a as usize,
                to: r.c as usize,
            },
            Kind::CoreGrant => EventRef::CoreGrant {
                proc: r.a as usize,
                node: r.b as usize,
                cores: r.c,
                busy: r.value as u64,
            },
        }
    }

    /// Recorded events, oldest first (time-ordered: the solver emits in
    /// virtual-time order), decoded on the fly into borrowed views.
    pub fn events(&self) -> Events<'_> {
        Events { rec: self, next: 0, len: self.len() }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Paged(pages) => match pages.split_last() {
                None => 0,
                Some((last, full)) => full.len() * PAGE + last.len(),
            },
            Store::Ring { buf, .. } => buf.len(),
            Store::Null => 0,
        }
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring (0 means the recording is complete —
    /// the precondition of exact peak attribution).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Payload words currently held by the arena (capacity diagnostics;
    /// includes ring-mode garbage awaiting compaction).
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Structural soundness of the payload side table: every `(offset,
    /// len)` reference of a retained row is in-bounds, and in logical
    /// event order the references are non-overlapping with strictly
    /// increasing offsets (the bump-allocation discipline).
    pub fn payload_refs_valid(&self) -> bool {
        let mut prev_end = 0usize;
        for i in 0..self.len() {
            let r = self.row(i);
            if r.payload_len == 0 {
                continue;
            }
            let start = r.payload_off as usize;
            let end = start + r.payload_len as usize;
            if start < prev_end || end > self.arena.len() {
                return false;
            }
            prev_end = end;
        }
        true
    }

    /// Finalization check, called once by the drivers when a run
    /// completes: in debug builds, asserts [`Recording::payload_refs_valid`].
    pub fn debug_validate(&self) {
        debug_assert!(
            self.payload_refs_valid(),
            "recording payload references are out of bounds or overlapping"
        );
    }
}

/// Iterator over a [`Recording`]'s events (see [`Recording::events`]).
#[derive(Debug, Clone)]
pub struct Events<'a> {
    rec: &'a Recording,
    next: usize,
    len: usize,
}

impl<'a> Iterator for Events<'a> {
    type Item = EventView<'a>;

    fn next(&mut self) -> Option<EventView<'a>> {
        if self.next >= self.len {
            return None;
        }
        let row = self.rec.row(self.next);
        self.next += 1;
        Some(EventView { at: row.at, ev: self.rec.decode(row) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: usize) -> SchedEvent {
        SchedEvent::MemAlloc { proc: 0, node, area: MemArea::Front, entries: 1 }
    }

    fn selection(node: usize) -> SchedEvent {
        SchedEvent::SlaveSelection {
            master: 1,
            node,
            metric: vec![10, 20, 30],
            view_age: vec![0, 5, 9],
            picked: vec![SlavePick { proc: 2, entries: 64 }, SlavePick { proc: 0, entries: 8 }],
            rounds: 2,
            serialized: false,
        }
    }

    #[test]
    fn unbounded_recording_keeps_everything() {
        let mut r = Recording::new(None);
        for k in 0..1000 {
            r.record(k, ev(k as usize));
        }
        assert_eq!(r.len(), 1000);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().next().unwrap().at, 0);
        r.debug_validate();
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut r = Recording::new(Some(3));
        for k in 0..5 {
            r.record(k, ev(k as usize));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().unwrap();
        assert_eq!(first.at, 2, "oldest two evicted");
        r.debug_validate();
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = Recording::new(Some(0));
        r.record(1, ev(0));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.arena_words(), 0, "a null store must not grow the arena");
    }

    #[test]
    fn every_variant_round_trips() {
        let originals = vec![
            ev(7),
            SchedEvent::MemFree { proc: 3, node: 9, area: MemArea::Stack, entries: 42 },
            SchedEvent::Activate { proc: 1, node: 4, class: FrontClass::Type2 },
            SchedEvent::ComputeStart { proc: 2, node: 5, role: TaskRole::Master },
            SchedEvent::ComputeEnd { proc: 2, node: 5, role: TaskRole::Slave },
            selection(11),
            SchedEvent::SlaveSelection {
                master: 0,
                node: 12,
                metric: vec![1, 2],
                view_age: vec![3, 4],
                picked: vec![],
                rounds: 0,
                serialized: true,
            },
            SchedEvent::Reselect { master: 2, node: 6, dropped: vec![1, 3, 5] },
            SchedEvent::Reselect { master: 2, node: 7, dropped: vec![] },
            SchedEvent::PoolDecision { proc: 0, depth: 4, picked: Some(17) },
            SchedEvent::PoolDecision { proc: 1, depth: 2, picked: None },
            SchedEvent::StatusSend { from: 3, kind: StatusKind::LoadDelta, value: -77 },
            SchedEvent::StatusApply {
                to: 0,
                from: 2,
                about: 1,
                kind: StatusKind::Assigned,
                age: 12345,
            },
            SchedEvent::FaultDrop { from: 1, to: 2 },
            SchedEvent::Forced { proc: 3, node: 8, cost: 999 },
            SchedEvent::ProcLost { proc: 5, nodes_lost: 14 },
            SchedEvent::ProcJoined { proc: 6, migrated: 2 },
            SchedEvent::SubtreeReassigned { root: 33, from: 5, to: 1 },
            SchedEvent::CoreGrant { proc: 3, node: 41, cores: 4, busy: 7 },
        ];
        let mut r = Recording::new(None);
        for (t, e) in originals.iter().enumerate() {
            r.record(t as Time, e.clone());
        }
        assert!(r.payload_refs_valid());
        let decoded: Vec<SchedEvent> = r.events().map(|te| te.ev.to_owned()).collect();
        assert_eq!(decoded, originals, "compact encode/decode must be lossless");
        for (t, te) in r.events().enumerate() {
            assert_eq!(te.at, t as Time);
        }
    }

    #[test]
    fn slave_selection_decodes_borrowed_slices() {
        let mut r = Recording::new(None);
        r.record(5, selection(11));
        let te = r.events().next().unwrap();
        match te.ev {
            EventRef::SlaveSelection {
                master,
                node,
                metric,
                view_age,
                picked,
                rounds,
                serialized,
            } => {
                assert_eq!((master, node, rounds, serialized), (1, 11, 2, false));
                assert_eq!(metric, &[10, 20, 30]);
                assert_eq!(view_age, &[0, 5, 9]);
                assert_eq!(picked.len(), 2);
                assert!(picked.iter().any(|p| p.proc == 2 && p.entries == 64));
            }
            other => panic!("expected SlaveSelection, got {other:?}"),
        }
    }

    #[test]
    fn ring_with_payloads_compacts_and_stays_valid() {
        // Small cap, many payload-carrying events: evictions leave arena
        // garbage behind and the compactor must reclaim it without
        // corrupting the retained references.
        let mut r = Recording::new(Some(4));
        for k in 0..200 {
            r.record(k, selection(k as usize));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 196);
        assert!(r.payload_refs_valid());
        // Arena stays bounded: 4 live payloads of 12 words each, plus
        // bounded slack.
        assert!(r.arena_words() <= 2 * 4 * 12 + COMPACT_SLACK_WORDS + 12);
        let nodes: Vec<usize> = r
            .events()
            .map(|te| match te.ev {
                EventRef::SlaveSelection { node, .. } => node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, vec![196, 197, 198, 199]);
        // Every retained payload still decodes to the original content.
        for te in r.events() {
            match te.ev {
                EventRef::SlaveSelection { metric, .. } => assert_eq!(metric, &[10, 20, 30]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn recordings_compare_by_logical_stream() {
        let mut a = Recording::new(None);
        let mut b = Recording::new(None);
        for k in 0..100 {
            a.record(k, ev(k as usize));
            b.record(k, ev(k as usize));
        }
        assert_eq!(a, b);
        b.record(100, ev(100));
        assert_ne!(a, b);
    }

    #[test]
    fn paged_store_crosses_page_boundaries() {
        let mut r = Recording::new(None);
        let n = PAGE * 2 + 17;
        for k in 0..n {
            r.record(k as Time, ev(k));
        }
        assert_eq!(r.len(), n);
        let last = r.events().last().unwrap();
        assert_eq!(last.at, (n - 1) as Time);
        assert_eq!(r.events().count(), n);
    }

    #[test]
    fn compact_event_is_small() {
        // The wire type must stay lean: POD header + niche-optimized
        // payload option. This is what Effect::Record embeds.
        assert!(
            std::mem::size_of::<CompactEvent>() <= 48,
            "CompactEvent grew to {} bytes",
            std::mem::size_of::<CompactEvent>()
        );
        assert_eq!(std::mem::size_of::<SchedEventRecord>(), 40);
    }
}
