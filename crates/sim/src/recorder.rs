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
//! # One event type
//!
//! An event is a [`SchedEvent`] from end to end: the scheduler core
//! builds it, `mf-core`'s `Effect::Record` carries it, the recording
//! stores it and [`Recording::events`] lends it back. Millions of them
//! must cost nanoseconds each, so the enum is kept to 24 bytes and a
//! stored `(Time, SchedEvent)` row to 32:
//!
//! * processor and node ids are `u32`, narrowed at the emit sites by
//!   [`id32`];
//! * the three variable-length payloads — a slave selection's metric
//!   vector, view ages and picks ([`SlaveChoice`]), a re-selection's
//!   drop list, and a status block's `(receiver, age)` pairs — sit
//!   behind thin boxes, so only those events touch the heap;
//! * a status broadcast is one row, not one per receiver: a
//!   `StatusApply` whose `(at, from, about, kind)` is the last row's is
//!   appended to that row ([`Recording::record`]'s merge rule). The
//!   run loop records a delivered block as one event, or, under message
//!   noise, each delivery as its own; either way the rows
//!   depend only on the per-receiver stream, so `==`, `len`, ring
//!   eviction and first-divergence searches compare rows as stored;
//! * rows are appended to 16 Ki-row pages (unbounded), to a ring
//!   allocated up front (bounded), or only counted (capacity 0). A page's
//!   cost is the kernel's first touch of its fresh memory, not its
//!   allocation, so a dropped recording's pages are recycled to the next
//!   one: the recorder keeps its high-water mark of pages for the life of
//!   the process.
//!
//! Recording is opt-in and zero-cost when disabled: the solver holds an
//! `Option<Recording>` and every emission site is a branch on `None`
//! (events are built inside closures, so nothing is constructed on the
//! disabled path). A recording replays deterministically: the same
//! configuration yields a byte-identical event stream, which makes
//! recordings diffable across strategies and thread-pool widths.

use crate::engine::Time;
use std::fmt;
use std::mem;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
}

/// One slave block chosen by a type-2 master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlavePick {
    /// The chosen processor.
    pub proc: usize,
    /// Entries of the block it receives.
    pub entries: u64,
}

/// What a type-2 master decided from and what it chose: the boxed
/// payload of [`SchedEvent::SlaveSelection`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveChoice {
    /// Metric per processor as the master believed it.
    pub metric: Vec<u64>,
    /// View age per processor (ticks since last status apply).
    pub view_age: Vec<Time>,
    /// Chosen blocks (empty = serialized on the master).
    pub picked: Vec<SlavePick>,
}

/// Narrows a processor or node id to the `u32` a [`SchedEvent`] stores.
///
/// # Panics
///
/// If `x` does not fit in 32 bits.
#[inline]
pub fn id32(x: usize) -> u32 {
    u32::try_from(x).unwrap_or_else(|_| panic!("id {x} does not fit a recorded event"))
}

/// One structured scheduling event. Node and processor ids refer to the
/// assembly tree and machine of the recorded run.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// `entries` were allocated in `area` on `proc`, attributed to `node`.
    MemAlloc {
        /// Processor whose account grew.
        proc: u32,
        /// Node the allocation belongs to.
        node: u32,
        /// Which area.
        area: MemArea,
        /// Entries allocated.
        entries: u64,
    },
    /// `entries` were released from `area` on `proc` (node attribution as
    /// in [`SchedEvent::MemAlloc`]).
    MemFree {
        /// Processor whose account shrank.
        proc: u32,
        /// Node the release belongs to.
        node: u32,
        /// Which area.
        area: MemArea,
        /// Entries released.
        entries: u64,
    },
    /// `proc` activated front `node` (the owner-side decision).
    Activate {
        /// Activating (owner) processor.
        proc: u32,
        /// Activated node.
        node: u32,
        /// Node classification.
        class: FrontClass,
    },
    /// `proc` started computing its part of `node`.
    ComputeStart {
        /// Computing processor.
        proc: u32,
        /// Node computed.
        node: u32,
        /// Which part.
        role: TaskRole,
    },
    /// `proc` finished computing its part of `node`.
    ComputeEnd {
        /// Computing processor.
        proc: u32,
        /// Node computed.
        node: u32,
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
        master: u32,
        /// The type-2 node.
        node: u32,
        /// Metric vector, view ages and chosen blocks.
        choice: Box<SlaveChoice>,
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
        master: u32,
        /// The type-2 node being re-selected.
        node: u32,
        /// Candidates removed this round (a thin box keeps the row at 32
        /// bytes).
        dropped: Box<Vec<usize>>,
    },
    /// A pool (task-selection) decision on `proc`: Algorithm 2 / LIFO
    /// verdict over a non-empty pool.
    PoolDecision {
        /// Deciding processor.
        proc: u32,
        /// Ready tasks in the pool at decision time.
        depth: usize,
        /// Activated task (`None` = every ready task was deferred by the
        /// Algorithm-2 admissibility/capacity verdict).
        picked: Option<u32>,
    },
    /// A status broadcast left `from` (recorded once per broadcast, not
    /// per receiver).
    StatusSend {
        /// Broadcasting processor.
        from: u32,
        /// Which mechanism.
        kind: StatusKind,
        /// Signed payload value (delta or absolute level).
        value: i64,
    },
    /// A status message from `from` was applied at every receiver of
    /// `applied`, refreshing its view of `about`: one row per delivered
    /// block, not per receiver (see [`Recording::record`]'s merge rule).
    StatusApply {
        /// Sender.
        from: u32,
        /// Processor whose view entry was refreshed.
        about: u32,
        /// Which mechanism.
        kind: StatusKind,
        /// `(receiver, age)` per apply, in delivery order: the age of the
        /// replaced view entry is the ticks since its last refresh. A
        /// thin box keeps the row at 32 bytes.
        applied: Box<Vec<(u32, Time)>>,
    },
    /// The fault injector dropped a status message.
    FaultDrop {
        /// Sender of the lost message.
        from: u32,
        /// Intended receiver.
        to: u32,
    },
    /// The capacity stall-breaker force-activated a deferred task.
    Forced {
        /// Processor forced to activate.
        proc: u32,
        /// Activated node.
        node: u32,
        /// Its activation cost (entries).
        cost: u64,
    },
    /// A processor fail-stopped and recovery reclaimed its work.
    ProcLost {
        /// The dead processor.
        proc: u32,
        /// Nodes whose (re-)execution the recovery plan scheduled.
        nodes_lost: usize,
    },
    /// A processor joined the running computation.
    ProcJoined {
        /// The joining processor.
        proc: u32,
    },
    /// Recovery reassigned an orphaned subtree to a surviving adopter.
    SubtreeReassigned {
        /// Root of the reassigned subtree.
        root: u32,
        /// The dead previous owner.
        from: u32,
        /// The adopting survivor.
        to: u32,
    },
    /// The malleable allocator granted a front more than its static
    /// share of cores (emitted only under `CoreAlloc::Malleable`).
    CoreGrant {
        /// The granting (and computing) processor.
        proc: u32,
        /// The front whose compute task received the grant.
        node: u32,
        /// Cores granted.
        cores: u32,
        /// Peers the grantor believed still had tree work.
        busy: u64,
    },
}

/// Rows per page of the unbounded store (512 KiB of 32-byte rows): one
/// page-boundary check per 16 Ki events, and a short recording holds one
/// page. Pages come from and return to [`FREE_PAGES`].
const PAGE: usize = 1 << 14;

/// One stored event with its virtual time.
type Row = (Time, SchedEvent);

/// Empty pages of dropped unbounded recordings, waiting for the next one.
///
/// The system allocator hands a freed block this size back to the OS, and
/// a fresh one costs the kernel a zeroed page fault per 4 KiB on first
/// touch —
/// more than storing the rows does. Recycled pages are already
/// resident. `record` allocates a page only when the list is empty, so
/// the pages it has taken, live plus free, never outnumber the most that
/// were ever live at once (a clone copies into pages of its own); they
/// are kept until the process exits.
struct FreePages(Mutex<Vec<Vec<Row>>>);

/// The process's one free list.
static FREE_PAGES: FreePages = FreePages::new();

impl FreePages {
    const fn new() -> Self {
        FreePages(Mutex::new(Vec::new()))
    }

    /// Every update is one push, pop or append of empty pages, so a list
    /// poisoned by a panicking holder is still valid; `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, Vec<Vec<Row>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty page with room for `PAGE` rows, recycled when one is free.
    fn take(&self) -> Vec<Row> {
        self.lock().pop().unwrap_or_else(|| Vec::with_capacity(PAGE))
    }

    /// Empties the pages of an unbounded recording into the list. Only
    /// pages of capacity exactly `PAGE` are kept (a clone's short last
    /// page is freed); a ring or null store gives nothing.
    fn reclaim(&self, rec: &mut Recording) {
        if let Store::Paged(pages) = &mut rec.store {
            let mut pages = mem::take(pages);
            pages.retain_mut(|page| {
                page.clear();
                page.capacity() == PAGE
            });
            self.lock().append(&mut pages);
        }
    }
}

#[derive(Clone)]
enum Store {
    /// Unbounded: full pages are immutable, the last page has room.
    Paged(Vec<Vec<Row>>),
    /// Bounded: a circular buffer allocated up front; `head` indexes the
    /// oldest retained row once the buffer has wrapped.
    Ring { buf: Vec<Row>, head: usize, cap: usize },
    /// Capacity 0: retain nothing, count the rows it would have stored;
    /// `tail` is the merge key of the last of them.
    Null { tail: Option<BlockKey> },
}

/// What [`Recording::record`] merges `StatusApply` rows on: `(at, from,
/// about, kind)`.
type BlockKey = (Time, u32, u32, StatusKind);

/// The merge key of a `StatusApply` row; `None` for every other event.
#[inline]
fn block_key(at: Time, event: &SchedEvent) -> Option<BlockKey> {
    match *event {
        SchedEvent::StatusApply { from, about, kind, .. } => Some((at, from, about, kind)),
        _ => None,
    }
}

/// Store of timestamped scheduling events. With `capacity: None` it grows
/// unbounded in recycled pages (what `explain` needs: peak attribution
/// replays the full memory-event history); with a capacity it keeps the
/// most recent events in a circular buffer allocated up front and counts
/// what it dropped, so long-running services can fly with a bounded
/// black box.
///
/// Equality and `Debug` both see the logical stream — the retained
/// `(at, event)` rows and the drop count — not the pages or the ring.
#[derive(Clone)]
pub struct Recording {
    store: Store,
    dropped: u64,
}

impl Default for Recording {
    fn default() -> Self {
        Recording::new(None)
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        FREE_PAGES.reclaim(self);
    }
}

impl PartialEq for Recording {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped && self.events().eq(other.events())
    }
}

impl fmt::Debug for Recording {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recording")
            .field("events", &self.events().collect::<Vec<_>>())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Recording {
    /// Empty recording; `capacity: None` = unbounded.
    pub fn new(capacity: Option<usize>) -> Self {
        let store = match capacity {
            None => Store::Paged(Vec::new()),
            Some(0) => Store::Null { tail: None },
            Some(cap) => Store::Ring { buf: Vec::with_capacity(cap), head: 0, cap },
        };
        Recording { store, dropped: 0 }
    }

    /// Appends an event, evicting the oldest row when at capacity. The
    /// hot path: a 32-byte row store and a page-boundary check.
    ///
    /// The merge rule: a `StatusApply` whose `(at, from, about, kind)`
    /// equals the last row's is appended to that row's `applied` instead
    /// of becoming a row of its own. The rows therefore depend only on
    /// the per-receiver stream, however it was cut into events: a block
    /// recorded whole and the same applies recorded one at a time store
    /// identical rows.
    #[inline]
    pub fn record(&mut self, at: Time, event: SchedEvent) {
        let Some(event) = self.merge(at, event) else { return };
        match &mut self.store {
            Store::Paged(pages) => match pages.last_mut() {
                Some(page) if page.len() < PAGE => page.push((at, event)),
                _ => {
                    let mut page = FREE_PAGES.take();
                    page.push((at, event));
                    pages.push(page);
                }
            },
            Store::Ring { buf, head, cap } => {
                if buf.len() < *cap {
                    buf.push((at, event));
                } else {
                    buf[*head] = (at, event);
                    *head = (*head + 1) % *cap;
                    self.dropped += 1;
                }
            }
            Store::Null { tail } => {
                *tail = block_key(at, &event);
                self.dropped += 1;
            }
        }
    }

    /// Merges `event` into the last row when the merge rule applies;
    /// otherwise hands it back to be stored.
    #[inline]
    fn merge(&mut self, at: Time, event: SchedEvent) -> Option<SchedEvent> {
        let Some(key) = block_key(at, &event) else { return Some(event) };
        let last = match &mut self.store {
            Store::Paged(pages) => pages.last_mut().and_then(|page| page.last_mut()),
            // Before the ring wraps `head` is 0; after, the newest row sits
            // just before the oldest.
            Store::Ring { buf, head, cap } => {
                let newest = buf.len().checked_sub(1).map(|n| (*head + n) % *cap);
                newest.map(|k| &mut buf[k])
            }
            Store::Null { tail } => return (*tail != Some(key)).then_some(event),
        };
        match (last, event) {
            (
                Some((prev_at, SchedEvent::StatusApply { from, about, kind, applied: into })),
                SchedEvent::StatusApply { applied, .. },
            ) if (*prev_at, *from, *about, *kind) == key => {
                into.extend_from_slice(&applied);
                None
            }
            (_, event) => Some(event),
        }
    }

    /// Recorded events, oldest first (time-ordered: the solver emits in
    /// virtual-time order), lent as they were stored: the pages in order,
    /// or the ring's older half then its newer one, each walked as a
    /// slice.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = (Time, &SchedEvent)> + '_ {
        let (pages, ring): (&[Vec<Row>], [&[Row]; 2]) = match &self.store {
            Store::Paged(pages) => (pages, [&[], &[]]),
            Store::Ring { buf, head, .. } => (&[], [&buf[*head..], &buf[..*head]]),
            Store::Null { .. } => (&[], [&[], &[]]),
        };
        pages.iter().flatten().chain(ring.into_iter().flatten()).map(|(at, ev)| (*at, ev))
    }

    /// Number of retained rows (a status block is one).
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Paged(pages) => match pages.split_last() {
                None => 0,
                Some((last, full)) => full.len() * PAGE + last.len(),
            },
            Store::Ring { buf, .. } => buf.len(),
            Store::Null { .. } => 0,
        }
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows evicted by the ring, or counted by the null store (0 means
    /// the recording is complete — the precondition of exact peak
    /// attribution).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u32) -> SchedEvent {
        SchedEvent::MemAlloc { proc: 0, node, area: MemArea::Front, entries: 1 }
    }

    fn apply(from: u32, kind: StatusKind, applied: &[(u32, Time)]) -> SchedEvent {
        SchedEvent::StatusApply { from, about: from, kind, applied: Box::new(applied.to_vec()) }
    }

    /// Records `(at, event)` into every kind of store: unbounded, a ring
    /// that never wraps, and the null store.
    fn stores(rows: &[(Time, SchedEvent)]) -> [Recording; 3] {
        let mut stores = [Recording::new(None), Recording::new(Some(64)), Recording::new(Some(0))];
        for r in &mut stores {
            rows.iter().for_each(|(at, e)| r.record(*at, e.clone()));
        }
        stores
    }

    fn selection(node: u32) -> SchedEvent {
        SchedEvent::SlaveSelection {
            master: 1,
            node,
            choice: Box::new(SlaveChoice {
                metric: vec![10, 20, 30],
                view_age: vec![0, 5, 9],
                picked: vec![SlavePick { proc: 2, entries: 64 }, SlavePick { proc: 0, entries: 8 }],
            }),
            rounds: 2,
            serialized: false,
        }
    }

    #[test]
    fn unbounded_recording_keeps_everything() {
        let mut r = Recording::new(None);
        for k in 0..1000 {
            r.record(k, ev(k as u32));
        }
        assert_eq!(r.len(), 1000);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().next().unwrap().0, 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut r = Recording::new(Some(4));
        for k in 0..200 {
            r.record(k, ev(k as u32));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 196);
        let kept: Vec<(Time, SchedEvent)> = r.events().map(|(at, e)| (at, e.clone())).collect();
        let want: Vec<(Time, SchedEvent)> = (196..200).map(|k| (k, ev(k as u32))).collect();
        assert_eq!(kept, want);
    }

    #[test]
    fn ring_with_payloads_compacts_and_stays_valid() {
        // Small cap, many payload-carrying events: every eviction drops a
        // boxed payload in place, and the retained rows must still own
        // their original content.
        let mut r = Recording::new(Some(4));
        for k in 0..200 {
            r.record(k, selection(k as u32));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 196);
        let nodes: Vec<u32> = r
            .events()
            .map(|(_, e)| match e {
                SchedEvent::SlaveSelection { node, .. } => *node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, vec![196, 197, 198, 199]);
        for (at, e) in r.events() {
            assert_eq!(e, &selection(at as u32));
        }
    }

    #[test]
    fn slave_selection_decodes_borrowed_slices() {
        let mut r = Recording::new(None);
        r.record(5, selection(11));
        let (at, e) = r.events().next().unwrap();
        assert_eq!(at, 5);
        match e {
            SchedEvent::SlaveSelection { master, node, choice, rounds, serialized } => {
                assert_eq!((*master, *node, *rounds, *serialized), (1, 11, 2, false));
                let metric: &[u64] = &choice.metric;
                let view_age: &[Time] = &choice.view_age;
                assert_eq!(metric, &[10, 20, 30]);
                assert_eq!(view_age, &[0, 5, 9]);
                assert_eq!(choice.picked.len(), 2);
                assert!(choice.picked.iter().any(|p| p.proc == 2 && p.entries == 64));
            }
            other => panic!("expected SlaveSelection, got {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = Recording::new(Some(0));
        r.record(1, selection(0));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
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
            SchedEvent::Reselect { master: 2, node: 6, dropped: Box::new(vec![1, 3, 5]) },
            SchedEvent::PoolDecision { proc: 0, depth: 4, picked: Some(17) },
            SchedEvent::PoolDecision { proc: 1, depth: 2, picked: None },
            SchedEvent::StatusSend { from: 3, kind: StatusKind::LoadDelta, value: -77 },
            SchedEvent::StatusApply {
                from: 2,
                about: 1,
                kind: StatusKind::Assigned,
                applied: Box::new(vec![(0, 12345), (3, 0)]),
            },
            SchedEvent::FaultDrop { from: 1, to: 2 },
            SchedEvent::Forced { proc: 3, node: 8, cost: 999 },
            SchedEvent::ProcLost { proc: 5, nodes_lost: 14 },
            SchedEvent::ProcJoined { proc: 6 },
            SchedEvent::SubtreeReassigned { root: 33, from: 5, to: 1 },
            SchedEvent::CoreGrant { proc: 3, node: 41, cores: 4, busy: 7 },
        ];
        let mut r = Recording::new(None);
        for (t, e) in originals.iter().enumerate() {
            r.record(t as Time, e.clone());
        }
        let back: Vec<SchedEvent> = r.events().map(|(_, e)| e.clone()).collect();
        assert_eq!(back, originals);
        assert!(r.events().enumerate().all(|(t, (at, _))| at == t as Time));
    }

    #[test]
    fn recordings_compare_by_logical_stream() {
        let (mut a, mut b, mut ring) =
            (Recording::new(None), Recording::new(None), Recording::new(Some(200)));
        for k in 0..100 {
            a.record(k, ev(k as u32));
            b.record(k, ev(k as u32));
            ring.record(k, ev(k as u32));
        }
        assert_eq!(a, b);
        assert_eq!(a, ring, "a ring that never wrapped holds the paged stream");
        assert_eq!(format!("{a:?}"), format!("{ring:?}"));
        b.record(100, ev(100));
        assert_ne!(a, b);
    }

    /// One-receiver applies with the same `(at, from, about, kind)` store
    /// the rows of one block, in every store; the null store counts rows.
    #[test]
    fn one_receiver_applies_merge_into_the_block_they_came_from() {
        let pairs = [(0, 7), (1, 0), (3, 12), (1, 4)];
        let one_by_one: Vec<(Time, SchedEvent)> =
            pairs.iter().map(|&p| (9, apply(2, StatusKind::MemDelta, &[p]))).collect();
        let whole = [(9, apply(2, StatusKind::MemDelta, &pairs))];
        let halves = [
            (9, apply(2, StatusKind::MemDelta, &pairs[..1])),
            (9, apply(2, StatusKind::MemDelta, &pairs[1..])),
        ];
        for (a, (b, c)) in
            stores(&one_by_one).iter().zip(stores(&whole).iter().zip(&stores(&halves)))
        {
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!((a.len(), a.dropped()), (b.len(), b.dropped()));
        }
        let [paged, ring, null] = stores(&one_by_one);
        assert_eq!(paged.len(), 1);
        assert_eq!(paged.events().next(), Some((9, &whole[0].1)));
        assert_eq!(ring, paged);
        assert_eq!((null.len(), null.dropped()), (0, 1));
    }

    /// A different `at`, `from`, `about` or `kind` starts a new row, and
    /// so does any other event between two applies with the same key.
    #[test]
    fn a_new_key_or_an_event_between_starts_a_new_row() {
        let base = apply(2, StatusKind::MemDelta, &[(0, 1)]);
        let other_about = SchedEvent::StatusApply {
            from: 2,
            about: 5,
            kind: StatusKind::MemDelta,
            applied: Box::new(vec![(0, 1)]),
        };
        let lost = SchedEvent::ProcLost { proc: 4, nodes_lost: 0 };
        let splits = [
            vec![(9, base.clone()), (10, base.clone())],
            vec![(9, base.clone()), (9, apply(3, StatusKind::MemDelta, &[(0, 1)]))],
            vec![(9, base.clone()), (9, other_about)],
            vec![(9, base.clone()), (9, apply(2, StatusKind::LoadDelta, &[(0, 1)]))],
            vec![(9, base.clone()), (9, ev(1)), (9, base.clone())],
            vec![(9, base.clone()), (9, lost), (9, base.clone())],
        ];
        for rows in splits {
            let [paged, ring, null] = stores(&rows);
            let stored: Vec<(Time, SchedEvent)> =
                paged.events().map(|(at, e)| (at, e.clone())).collect();
            assert_eq!(stored, rows, "nothing merges");
            assert_eq!(ring, paged);
            assert_eq!(null.dropped(), rows.len() as u64);
        }
    }

    /// The ring holds whole rows: a block counts as one row against the
    /// capacity, is evicted whole, and an apply merging into the newest
    /// row of a wrapped ring evicts nothing.
    #[test]
    fn the_ring_evicts_whole_rows() {
        let mut r = Recording::new(Some(2));
        r.record(1, apply(0, StatusKind::MemDelta, &[(1, 0), (2, 0), (3, 0)]));
        r.record(2, ev(7));
        r.record(3, apply(1, StatusKind::LoadDelta, &[(0, 5)]));
        assert_eq!((r.len(), r.dropped()), (2, 1), "the three-receiver block went whole");
        r.record(3, apply(1, StatusKind::LoadDelta, &[(2, 6)]));
        assert_eq!((r.len(), r.dropped()), (2, 1), "a merge into a wrapped ring evicts nothing");
        let rows: Vec<(Time, SchedEvent)> = r.events().map(|(at, e)| (at, e.clone())).collect();
        assert_eq!(rows, vec![(2, ev(7)), (3, apply(1, StatusKind::LoadDelta, &[(0, 5), (2, 6)]))]);
        r.record(4, ev(8));
        let rows: Vec<Time> = r.events().map(|(at, _)| at).collect();
        assert_eq!((rows, r.dropped()), (vec![3, 4], 2));
    }

    #[test]
    fn paged_store_crosses_page_boundaries() {
        let mut r = Recording::new(None);
        let n = PAGE * 2 + 17;
        for k in 0..n {
            r.record(k as Time, ev(k as u32));
        }
        assert_eq!(r.len(), n);
        assert_eq!(r.events().last().unwrap().0, (n - 1) as Time);
        assert_eq!(r.events().count(), n);
    }

    /// The slice walk yields every stored row in order, across page
    /// boundaries and across the seam of a ring that wrapped mid-buffer,
    /// and `skip`, `last` and `next_back` land on the right rows.
    #[test]
    fn events_walk_pages_and_a_wrapped_ring_in_stored_order() {
        let n = PAGE * 2 + 17;
        let mut paged = Recording::new(None);
        for k in 0..n {
            paged.record(k as Time, ev(k as u32));
        }
        let (cap, total) = (5, 13); // head ends at 13 % 5 = 3: mid-buffer
        let mut ring = Recording::new(Some(cap));
        for k in 0..total {
            ring.record(k as Time, ev(k as u32));
        }
        assert!(matches!(ring.store, Store::Ring { head: 3, .. }));
        for (r, first) in [(&paged, 0), (&ring, total - cap)] {
            let len = r.len();
            assert_eq!(r.events().count(), len);
            for (i, (at, e)) in r.events().enumerate() {
                let k = first + i;
                assert_eq!((at, e), (k as Time, &ev(k as u32)));
            }
            for skip in [0, 1, len / 2, len - 1, len] {
                let want: Vec<Time> = (first + skip..first + len).map(|k| k as Time).collect();
                let got: Vec<Time> = r.events().skip(skip).map(|(at, _)| at).collect();
                assert_eq!(got, want, "skip {skip}");
                assert_eq!(r.events().nth(skip).map(|(at, _)| at), want.first().copied());
            }
            let last = (first + len - 1) as Time;
            assert_eq!(r.events().last().map(|(at, _)| at), Some(last));
            assert_eq!(r.events().next_back().map(|(at, _)| at), Some(last));
        }
        assert_eq!(Recording::new(Some(0)).events().count(), 0);
        assert_eq!(Recording::new(None).events().next(), None);
    }

    /// A recording of payload-carrying events across three pages and a
    /// bit is dropped, and a shorter, different stream is recorded next:
    /// whatever pages it gets, recycled or fresh, it holds exactly its own
    /// rows, and it equals the stream stored in a ring, which never
    /// touches the free list.
    #[test]
    fn recycled_pages_record_the_same_stream() {
        let mut first = Recording::new(None);
        for k in 0..PAGE * 3 + 5 {
            first.record(k as Time, selection(k as u32));
        }
        drop(first);
        let n = PAGE * 2 + 9;
        let (mut reused, mut fresh) = (Recording::new(None), Recording::new(Some(n)));
        for k in 0..n {
            reused.record(k as Time, ev(k as u32 + 7));
            fresh.record(k as Time, ev(k as u32 + 7));
        }
        assert_eq!(reused.len(), n);
        assert_eq!(reused, fresh);
        assert!(reused.events().enumerate().all(|(k, row)| row == (k as Time, &ev(k as u32 + 7))));
        let Store::Paged(pages) = &reused.store else { unreachable!() };
        assert!(pages.iter().all(|page| page.capacity() == PAGE));
    }

    /// Only full-size pages of an unbounded store are kept, emptied: a
    /// clone's short last page is freed, and a ring or null store keeps
    /// its rows and gives nothing.
    #[test]
    fn the_free_list_keeps_only_full_size_pages() {
        let list = FreePages::new();
        let mut original = Recording::new(None);
        for k in 0..PAGE * 2 + 3 {
            original.record(k as Time, ev(k as u32));
        }
        let mut copy = original.clone();
        list.reclaim(&mut copy);
        assert_eq!(list.lock().len(), 2, "the clone's short last page is not kept");
        list.reclaim(&mut original);
        assert_eq!(list.lock().len(), 5);
        assert!(original.is_empty() && copy.is_empty());
        let (mut ring, mut null) = (Recording::new(Some(4)), Recording::new(Some(0)));
        for k in 0..9 {
            ring.record(k, ev(k as u32));
            null.record(k, ev(k as u32));
        }
        list.reclaim(&mut ring);
        list.reclaim(&mut null);
        assert_eq!((ring.len(), ring.dropped(), null.dropped()), (4, 5, 9));
        assert_eq!(list.lock().len(), 5);
        assert!(list.lock().iter().all(|page| page.is_empty() && page.capacity() == PAGE));
        let page = list.take();
        assert_eq!((page.len(), page.capacity()), (0, PAGE), "a reused page keeps its size");
    }

    #[test]
    fn pages_come_back_from_a_recording_dropped_on_another_thread() {
        let list = FreePages::new();
        let mut rec = Recording::new(None);
        for k in 0..PAGE * 3 {
            rec.record(k as Time, selection(k as u32));
        }
        std::thread::scope(|s| {
            let list = &list;
            s.spawn(move || list.reclaim(&mut { rec }));
        });
        assert_eq!(list.lock().len(), 3);
    }

    /// Recordings of varying page counts live and die in cycles on one
    /// list: every page ever allocated is back on the list after each
    /// cycle, and their number is the most pages that were live at once.
    #[test]
    fn the_free_list_never_outgrows_the_high_water_mark() {
        let list = FreePages::new();
        let (mut allocated, mut peak) = (std::collections::HashSet::new(), 0);
        for live in [&[3, 1][..], &[2], &[1, 1, 2], &[4, 1], &[1]] {
            let mut recs: Vec<Recording> = live
                .iter()
                .map(|&n| {
                    let pages = (0..n)
                        .map(|k| {
                            let mut page = list.take();
                            assert!(page.is_empty(), "a recycled page holds no stale row");
                            allocated.insert(page.as_ptr());
                            page.push((k, selection(k as u32)));
                            page
                        })
                        .collect();
                    Recording { store: Store::Paged(pages), dropped: 0 }
                })
                .collect();
            peak = peak.max(live.iter().sum());
            recs.iter_mut().for_each(|rec| list.reclaim(rec));
            assert_eq!(list.lock().len(), allocated.len());
        }
        assert_eq!((allocated.len(), peak), (5, 5));
    }

    #[test]
    fn a_stored_row_is_32_bytes() {
        // Eight paper-scale recordings stay alive at once in the observed
        // sweep: the row width is its resident memory.
        assert!(std::mem::size_of::<SchedEvent>() <= 24);
        assert!(std::mem::size_of::<(Time, SchedEvent)>() <= 32);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn ids_wider_than_32_bits_are_refused() {
        id32(u32::MAX as usize + 1);
    }
}
