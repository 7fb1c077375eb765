//! Asynchronous views of the other processors (Sections 4 and 5.1).
//!
//! Every processor maintains what it *believes* about the others: their
//! memory occupation (accumulated increments), their workload, the peak
//! of the subtree they are currently processing, and the cost of the
//! largest master task about to activate on them. All of it arrives by
//! message and is therefore stale by at least one network latency — the
//! coherence problem of Figure 5 is real in this simulator, not modeled
//! away.
//!
//! The beliefs live in a [`ViewTable`] stored slot-major — one row per
//! processor believed *about*, one column per *receiver* — so the
//! receivers of one broadcast form one contiguous row and delivering it
//! is a sequential sweep. A processor reads and writes its own column
//! through [`Views`].

use mf_sim::{id32, StatusKind, Time};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One index-based status update: which belief slot changes and by how
/// much. This is the compact payload every status broadcast carries —
/// applying one touches exactly one field of one [`PeerView`] (plus its
/// staleness stamp), never a full-vector write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusDelta {
    /// Active-memory increment of the subject (Section 4).
    Mem {
        /// Signed change in active entries.
        delta: i64,
    },
    /// Workload increment of the subject (Section 3).
    Load {
        /// Signed change in flops still to do.
        delta: i64,
    },
    /// The subject entered (peak > 0) or left (0) a subtree (Section 5.1).
    Subtree {
        /// Absolute stack level the subject is heading to.
        peak: u64,
    },
    /// Cost of the largest master task about to activate on the subject
    /// (Section 5.1; absolute value, 0 when none).
    Predicted {
        /// Predicted activation cost in entries.
        cost: u64,
    },
    /// A master announces that it just assigned a slave block of
    /// `entries` to processor `proc` — the mechanism that makes masters'
    /// choices "known as quickly as possible by the others" (Section 4),
    /// without which concurrent masters pile work on the same processor.
    Assigned {
        /// The enrolled slave processor (the subject of this delta).
        proc: usize,
        /// Assigned block size in entries.
        entries: u64,
    },
}

impl StatusDelta {
    /// The processor this delta is *about*: the sender for everything
    /// except [`StatusDelta::Assigned`], which describes a third party.
    pub fn about(&self, sender: usize) -> usize {
        match *self {
            StatusDelta::Assigned { proc, .. } => proc,
            _ => sender,
        }
    }

    /// Recorder classification: the kind tag plus the signed magnitude.
    pub fn kind(&self) -> (StatusKind, i64) {
        match *self {
            StatusDelta::Mem { delta } => (StatusKind::MemDelta, delta),
            StatusDelta::Load { delta } => (StatusKind::LoadDelta, delta),
            StatusDelta::Subtree { peak } => (StatusKind::SubtreePeak, peak as i64),
            StatusDelta::Predicted { cost } => (StatusKind::Predicted, cost as i64),
            StatusDelta::Assigned { entries, .. } => (StatusKind::Assigned, entries as i64),
        }
    }
}

/// What one processor believes about one peer, plus when it last heard
/// from it: everything a delivered status delta touches, side by side in
/// 48 bytes. A [`ViewTable`] slot holds exactly these six words, so a
/// master's walk down its own column (slave selection, the recorder's
/// view ages) costs one cache line per peer (two when a slot straddles),
/// while a broadcast's receivers sit next to each other in one row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerView {
    /// Believed active memory (entries).
    pub mem: u64,
    /// Believed workload (flops still to do).
    pub load: u64,
    /// Believed memory *projection* of the peer's current subtree: the
    /// absolute level its stack will reach before the subtree ends (base
    /// memory at subtree entry + subtree peak; Section 5.1; 0 when the
    /// peer is not inside a subtree).
    pub subtree: u64,
    /// Believed cost of the largest master task about to activate on the
    /// peer (Section 5.1; 0 when none).
    pub predicted: u64,
    /// Instant this entry was last refreshed by an applied status
    /// message (0 until the first refresh). The gap between this and
    /// *now* is the view staleness of Figure 5 — the observability layer
    /// records it at every decision.
    pub updated_at: Time,
    /// Last time any message from the peer was delivered (the failure
    /// detector's lease stamp).
    pub last_heard: Time,
}

impl PeerView {
    /// The memory metric of Algorithm 1: instantaneous memory, raised to
    /// the announced subtree projection (the level the processor is known
    /// to be heading to), plus the predicted cost of its next master task
    /// when enabled (Section 5.1).
    pub fn memory_metric(self, use_subtree: bool, use_prediction: bool) -> u64 {
        let mut m = self.mem;
        if use_subtree {
            m = m.max(self.subtree);
        }
        if use_prediction {
            m += self.predicted;
        }
        m
    }
}

/// A [`PeerView`] as a table stores it: the same six words, each a
/// relaxed atomic. Relaxed loads and stores compile to plain moves; they
/// are atomics only so that a core holding its column stays `Send` (the
/// threaded backend hands cores across threads). A table is never used
/// from two threads at once — the in-process host and its cores share
/// one thread, a threaded worker's table is its own, and a core changes
/// threads only through a channel, whose send orders every write before
/// it — so `Relaxed` publishes nothing another thread relies on, and a
/// read-modify-write is a load then a store.
#[derive(Default)]
struct Slot {
    mem: AtomicU64,
    load: AtomicU64,
    subtree: AtomicU64,
    predicted: AtomicU64,
    updated_at: AtomicU64,
    last_heard: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == std::mem::size_of::<PeerView>());

fn get(word: &AtomicU64) -> u64 {
    word.load(Relaxed)
}

fn set(word: &AtomicU64, value: u64) {
    word.store(value, Relaxed)
}

fn add(word: &AtomicU64, delta: i64) {
    set(word, add_signed(get(word), delta))
}

impl Slot {
    fn get(&self) -> PeerView {
        PeerView {
            mem: get(&self.mem),
            load: get(&self.load),
            subtree: get(&self.subtree),
            predicted: get(&self.predicted),
            updated_at: get(&self.updated_at),
            last_heard: get(&self.last_heard),
        }
    }

    /// Stamps the refresh instant and returns the age of the belief it
    /// replaced; then increments add up (saturating at zero) and absolute
    /// values are replaced. The single mutation path of the coherence
    /// protocol: one field plus `updated_at`, whatever the machine size.
    #[inline]
    fn apply(&self, delta: StatusDelta, now: Time) -> Time {
        let age = now.saturating_sub(get(&self.updated_at));
        set(&self.updated_at, now);
        match delta {
            StatusDelta::Mem { delta } => add(&self.mem, delta),
            StatusDelta::Load { delta } => add(&self.load, delta),
            StatusDelta::Subtree { peak } => set(&self.subtree, peak),
            StatusDelta::Predicted { cost } => set(&self.predicted, cost),
            StatusDelta::Assigned { entries, .. } => add(&self.mem, entries as i64),
        }
        age
    }
}

/// The beliefs of the receivers `first..first + width` about every
/// processor, in one slot-major allocation: the slot of (`about`,
/// `receiver`) sits at `about × width + (receiver − first)`. Row `about`
/// is what every receiver believes about one processor — the receivers
/// of its broadcast, side by side — and column `receiver` is one
/// processor's [`Views`].
///
/// A cheap handle (`Arc`): the in-process host and each of its cores hold
/// the same `P × P` table; a threaded worker's core holds a one-column
/// table of its own.
#[derive(Clone)]
pub struct ViewTable {
    slots: Arc<[Slot]>,
    first: usize,
    width: usize,
}

impl ViewTable {
    /// Fresh beliefs of `receivers` about the `initial_load.len()`
    /// processors of the machine, with their initial workloads.
    pub fn new(receivers: Range<usize>, initial_load: &[u64]) -> Self {
        let width = receivers.len();
        // A mapped range has an exact length, so the slots are written in
        // place: no `Vec` staging copy doubling the table's peak RSS.
        let slots = (0..initial_load.len() * width)
            .map(|i| Slot { load: AtomicU64::new(initial_load[i / width]), ..Slot::default() })
            .collect();
        ViewTable { slots, first: receivers.start, width }
    }

    #[inline]
    fn slot(&self, about: usize, receiver: usize) -> &Slot {
        debug_assert!((self.first..self.first + self.width).contains(&receiver));
        &self.slots[about * self.width + (receiver - self.first)]
    }

    /// Processors the table holds beliefs about.
    fn nprocs(&self) -> usize {
        self.slots.len() / self.width.max(1)
    }

    /// `receiver`'s side of one status delta delivered from `from` at
    /// `at`: renew `from`'s lease stamp, then apply the delta to the
    /// belief about its subject — unless that subject is `receiver`
    /// itself (an `Assigned` reaching the enrolled slave, whose self-view
    /// is exact). Returns the age of the belief replaced, `None` when
    /// nothing was applied. What [`ViewTable::deliver_block`] does per
    /// target, and all [`crate::proto::SchedulerCore::apply_status`] does.
    #[inline]
    pub fn deliver(
        &self,
        receiver: usize,
        at: Time,
        from: usize,
        delta: StatusDelta,
    ) -> Option<Time> {
        if from != receiver {
            set(&self.slot(from, receiver).last_heard, at);
        }
        let about = delta.about(from);
        (about != receiver).then(|| self.slot(about, receiver).apply(delta, at))
    }

    /// One broadcast block, or a contiguous segment of one: what
    /// [`ViewTable::deliver`] does to every receiver of `targets` but the
    /// sender and those `skip` names, with the delta's `match` taken once
    /// and not once per receiver. A delta about its sender is one pass
    /// over row `from`, writing each slot's lease stamp, `updated_at` and
    /// the delta's one field; an `Assigned` is a pass over row `from` for
    /// the lease stamps, then one over its subject's row, which leaves
    /// the subject's own slot alone. When `ages` is given, each receiver
    /// whose belief was replaced is pushed with that belief's age, in
    /// ascending receiver order: exactly the `(receiver, Some(age))`
    /// sequence of per-receiver `deliver` calls.
    pub fn deliver_block(
        &self,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        ages: Option<&mut Vec<(u32, Time)>>,
    ) {
        let lease = |s: &Slot| set(&s.last_heard, at);
        match delta {
            StatusDelta::Mem { delta } => self.refresh(from, targets, skip, at, ages, |s| {
                lease(s);
                add(&s.mem, delta)
            }),
            StatusDelta::Load { delta } => self.refresh(from, targets, skip, at, ages, |s| {
                lease(s);
                add(&s.load, delta)
            }),
            StatusDelta::Subtree { peak } => self.refresh(from, targets, skip, at, ages, |s| {
                lease(s);
                set(&s.subtree, peak)
            }),
            StatusDelta::Predicted { cost } => self.refresh(from, targets, skip, at, ages, |s| {
                lease(s);
                set(&s.predicted, cost)
            }),
            // The one delta about a third party: the lease stamps and the
            // refresh are two rows, and the subject's own slot is exact.
            StatusDelta::Assigned { proc, entries } => {
                self.sweep(from, targets.clone(), &skip, |_, s| lease(s));
                let skip = |to| to == from || skip(to);
                self.refresh(proc, targets, skip, at, ages, |s| add(&s.mem, entries as i64))
            }
        }
    }

    /// The refresh pass of [`ViewTable::deliver_block`] over row `about`:
    /// stamp `updated_at`, `write` the delta's field, and push the
    /// replaced belief's age when asked, the `ages` test hoisted out of
    /// the pass.
    #[inline(always)]
    fn refresh(
        &self,
        about: usize,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        at: Time,
        ages: Option<&mut Vec<(u32, Time)>>,
        write: impl Fn(&Slot),
    ) {
        match ages {
            None => self.sweep(about, targets, skip, |_, s| {
                set(&s.updated_at, at);
                write(s);
            }),
            Some(ages) => self.sweep(about, targets, skip, |to, s| {
                ages.push((id32(to), at.saturating_sub(get(&s.updated_at))));
                set(&s.updated_at, at);
                write(s);
            }),
        }
    }

    /// Calls `visit` on the slots of row `row` that receivers `targets`
    /// hold, in ascending receiver order, skipping those `skip` names and
    /// receiver `row` itself: no delivery writes a processor's belief
    /// about itself (the sender is no target, and the self-view is
    /// exact), so the row is swept as the two runs around that slot.
    #[inline(always)]
    fn sweep(
        &self,
        row: usize,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        mut visit: impl FnMut(usize, &Slot),
    ) {
        debug_assert!(self.first <= targets.start && targets.end <= self.first + self.width);
        let (lo, hi) = (targets.start, targets.end);
        let halves = if targets.contains(&row) { [lo..row, row + 1..hi] } else { [lo..hi, hi..hi] };
        let row = &self.slots[row * self.width..(row + 1) * self.width];
        for part in halves {
            let cells = &row[part.start - self.first..part.end - self.first];
            for (to, s) in part.zip(cells) {
                if !skip(to) {
                    visit(to, s);
                }
            }
        }
    }

    /// `receiver`'s column.
    pub fn column(&self, receiver: usize) -> Views {
        assert!(
            (self.first..self.first + self.width).contains(&receiver),
            "receiver {receiver} is not a column of this table"
        );
        Views { table: self.clone(), me: receiver }
    }
}

/// One processor's beliefs about the whole machine, indexed by processor
/// id: its column of a [`ViewTable`] (its own entry is kept exact by the
/// state machine).
pub struct Views {
    table: ViewTable,
    me: usize,
}

impl std::fmt::Debug for Views {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Views {
    /// Processor `me`'s beliefs in a one-column table of their own.
    pub fn new(me: usize, initial_load: &[u64]) -> Self {
        ViewTable::new(me..me + 1, initial_load).column(me)
    }

    #[inline]
    fn at(&self, p: usize) -> &Slot {
        self.table.slot(p, self.me)
    }

    /// The belief about processor `p`.
    pub fn get(&self, p: usize) -> PeerView {
        self.at(p).get()
    }

    /// Every belief, in processor order.
    pub fn iter(&self) -> impl Iterator<Item = PeerView> + '_ {
        (0..self.table.nprocs()).map(|p| self.get(p))
    }

    /// Sets the believed memory of `p` (the exact self-view).
    pub fn set_mem(&mut self, p: usize, mem: u64) {
        set(&self.at(p).mem, mem);
    }

    /// Sets the believed subtree projection of `p` (the exact self-view).
    pub fn set_subtree(&mut self, p: usize, subtree: u64) {
        set(&self.at(p).subtree, subtree);
    }

    /// Sets the believed predicted master cost of `p` (the exact
    /// self-view).
    pub fn set_predicted(&mut self, p: usize, predicted: u64) {
        set(&self.at(p).predicted, predicted);
    }

    /// Renews processor `p`'s lease stamp: a message from it arrived at
    /// `now`.
    pub fn hear(&mut self, p: usize, now: Time) {
        set(&self.at(p).last_heard, now);
    }

    /// Marks processor `p`'s entry as refreshed at `now`, returning the
    /// age of the belief it replaced.
    pub fn touch(&mut self, p: usize, now: Time) -> Time {
        let v = self.at(p);
        let age = now.saturating_sub(get(&v.updated_at));
        set(&v.updated_at, now);
        age
    }

    /// Ticks since processor `p`'s entry was last refreshed.
    pub fn age(&self, p: usize, now: Time) -> Time {
        now.saturating_sub(get(&self.at(p).updated_at))
    }

    /// Applies a (possibly negative) memory increment for processor `p`.
    pub fn apply_mem_delta(&mut self, p: usize, delta: i64) {
        add(&self.at(p).mem, delta);
    }

    /// Applies a workload increment for processor `p`.
    pub fn apply_load_delta(&mut self, p: usize, delta: i64) {
        add(&self.at(p).load, delta);
    }

    /// Applies one status delta about processor `about`, stamping that
    /// entry's refresh instant and returning the age of the belief it
    /// replaced (the recorder's staleness figure). This is the single
    /// mutation path of the coherence protocol: one field of one
    /// [`PeerView`] plus its `updated_at`, regardless of the machine size.
    pub fn apply(&mut self, about: usize, delta: StatusDelta, now: Time) -> Time {
        self.at(about).apply(delta, now)
    }

    /// [`ViewTable::deliver`] to this column.
    pub fn deliver(&mut self, at: Time, from: usize, delta: StatusDelta) -> Option<Time> {
        self.table.deliver(self.me, at, from, delta)
    }
}

fn add_signed(value: u64, delta: i64) -> u64 {
    if delta >= 0 {
        value + delta as u64
    } else {
        value.saturating_sub(delta.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of every entry, in processor order.
    fn col(v: &Views, f: impl Fn(PeerView) -> u64) -> Vec<u64> {
        v.iter().map(f).collect()
    }

    #[test]
    fn deltas_accumulate() {
        let mut v = Views::new(0, &[0, 0, 0]);
        v.apply_mem_delta(1, 100);
        v.apply_mem_delta(1, -30);
        assert_eq!(v.get(1).mem, 70);
    }

    #[test]
    fn negative_overshoot_saturates() {
        // Out-of-order arrival can momentarily drive a believed value
        // negative; the view clamps instead of panicking.
        let mut v = Views::new(0, &[0]);
        v.apply_mem_delta(0, -5);
        assert_eq!(v.get(0).mem, 0);
    }

    #[test]
    fn metric_composition() {
        let mut v = Views::new(0, &[0, 0]);
        v.set_mem(1, 10);
        v.set_subtree(1, 100);
        v.set_predicted(1, 1000);
        let p = v.get(1);
        assert_eq!(p.memory_metric(false, false), 10);
        assert_eq!(p.memory_metric(true, false), 100);
        assert_eq!(p.memory_metric(false, true), 1010);
        assert_eq!(p.memory_metric(true, true), 1100);
    }

    #[test]
    fn initial_load_is_respected() {
        let v = Views::new(0, &[5, 7]);
        assert_eq!(col(&v, |p| p.load), vec![5, 7]);
    }

    #[test]
    fn apply_touches_exactly_one_slot() {
        let mut v = Views::new(0, &[0, 0, 0]);
        let age = v.apply(1, StatusDelta::Mem { delta: 40 }, 25);
        assert_eq!(age, 25, "replaced the initial (t=0) belief");
        assert_eq!(col(&v, |p| p.mem), vec![0, 40, 0]);
        assert_eq!(col(&v, |p| p.updated_at), vec![0, 25, 0]);
        v.apply(1, StatusDelta::Subtree { peak: 99 }, 30);
        assert_eq!(col(&v, |p| p.subtree), vec![0, 99, 0]);
        v.apply(1, StatusDelta::Predicted { cost: 7 }, 31);
        assert_eq!(col(&v, |p| p.predicted), vec![0, 7, 0]);
        v.apply(1, StatusDelta::Load { delta: -3 }, 32);
        assert_eq!(v.get(1).load, 0, "negative overshoot saturates through apply too");
        // Assigned credits the enrolled slave's memory belief.
        let age = v.apply(2, StatusDelta::Assigned { proc: 2, entries: 11 }, 40);
        assert_eq!(age, 40);
        assert_eq!(col(&v, |p| p.mem), vec![0, 40, 11]);
        assert_eq!(col(&v, |p| p.last_heard), vec![0; 3], "leases are the core's to stamp");
    }

    #[test]
    fn delta_subject_is_sender_except_assigned() {
        assert_eq!(StatusDelta::Mem { delta: 1 }.about(4), 4);
        assert_eq!(StatusDelta::Load { delta: 1 }.about(4), 4);
        assert_eq!(StatusDelta::Assigned { proc: 2, entries: 1 }.about(4), 2);
    }

    #[test]
    fn touch_tracks_staleness() {
        let mut v = Views::new(0, &[0, 0]);
        assert_eq!(v.age(1, 50), 50, "never refreshed: age since t=0");
        assert_eq!(v.touch(1, 50), 50);
        assert_eq!(v.age(1, 80), 30);
        assert_eq!(v.age(0, 80), 80, "other entries untouched");
    }

    #[test]
    fn a_broadcast_writes_one_row() {
        // Three receivers of one table: a delivery from 2 lands in row 2,
        // one slot per receiver, and each column reads it back as its own.
        let table = ViewTable::new(0..3, &[0, 0, 0]);
        for to in [0, 1] {
            assert_eq!(table.deliver(to, 9, 2, StatusDelta::Mem { delta: 5 }), Some(9));
        }
        let row: Vec<PeerView> = (0..3).map(|r| table.column(r).get(2)).collect();
        let fresh = PeerView { mem: 5, updated_at: 9, last_heard: 9, ..PeerView::default() };
        assert_eq!(row, [fresh, fresh, PeerView::default()]);
        assert_eq!(table.column(0).get(1), PeerView::default(), "other rows untouched");
    }

    /// A table of `receivers` about `nprocs` processors, every word of
    /// every slot drawn from `words` (cycled).
    fn filled(nprocs: usize, receivers: Range<usize>, words: &[u64]) -> ViewTable {
        let table = ViewTable::new(receivers.clone(), &vec![0; nprocs]);
        let mut w = words.iter().copied().cycle();
        for r in receivers {
            let mut col = table.column(r);
            for p in 0..nprocs {
                col.set_mem(p, w.next().unwrap());
                col.apply_load_delta(p, w.next().unwrap() as i64);
                col.set_subtree(p, w.next().unwrap());
                col.set_predicted(p, w.next().unwrap());
                col.touch(p, w.next().unwrap());
                col.hear(p, w.next().unwrap());
            }
        }
        table
    }

    fn contents(table: &ViewTable, receivers: Range<usize>) -> Vec<Vec<PeerView>> {
        receivers.map(|r| table.column(r).iter().collect()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// One sweep per row is per-receiver `deliver` in ascending order:
        /// random table contents, every delta kind (an `Assigned` about a
        /// third party), any sender, any contiguous segment of the table's
        /// receivers with any skip mask, ages on or off. The whole table
        /// and the pushed `(receiver, age)` sequence must agree.
        #[test]
        fn a_block_sweep_is_deliver_per_receiver_in_order(
            nprocs in 2usize..10,
            cut in (0usize..64, 0usize..64, 0usize..64, 0usize..64),
            words in proptest::collection::vec(0u64..1_000, 1..64),
            from_pick in 0usize..64,
            kind in 0u8..5,
            value in -2_000i64..2_000,
            subject_pick in 1usize..64,
            at in 0u64..2_000,
            mask in proptest::collection::vec(0u8..5, 10),
            with_ages in proptest::prelude::any::<bool>(),
        ) {
            // The table's receivers `lo..hi`, and the segment `a..b` of them.
            let lo = cut.0 % nprocs;
            let hi = lo + 1 + cut.1 % (nprocs - lo);
            let a = lo + cut.2 % (hi - lo);
            let b = a + 1 + cut.3 % (hi - a);
            let from = from_pick % nprocs;
            let delta = match kind {
                0 => StatusDelta::Mem { delta: value },
                1 => StatusDelta::Load { delta: value },
                2 => StatusDelta::Subtree { peak: value.unsigned_abs() },
                3 => StatusDelta::Predicted { cost: value.unsigned_abs() },
                _ => StatusDelta::Assigned {
                    proc: (from + subject_pick % (nprocs - 1) + 1) % nprocs,
                    entries: value.unsigned_abs(),
                },
            };
            let swept = filled(nprocs, lo..hi, &words);
            let mut ages = Vec::new();
            let skip = |to: usize| mask[to] == 0;
            swept.deliver_block(at, from, delta, a..b, skip, with_ages.then_some(&mut ages));
            let each = filled(nprocs, lo..hi, &words);
            let mut want = Vec::new();
            for to in (a..b).filter(|&to| to != from && !skip(to)) {
                if let Some(age) = each.deliver(to, at, from, delta) {
                    want.push((to as u32, age));
                }
            }
            if !with_ages {
                want.clear();
            }
            proptest::prop_assert_eq!(ages, want, "{:?} from {} to {}..{}", delta, from, a, b);
            proptest::prop_assert_eq!(contents(&swept, lo..hi), contents(&each, lo..hi));
        }
    }
}
