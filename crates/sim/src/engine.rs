//! Virtual clock and event queue.
//!
//! [`Sim`] is one binary heap keyed by `(time, insertion order)`: events
//! fire in time order and ties break FIFO, so a simulation is a pure
//! function of its inputs — the property that lets the experiment tables
//! be regenerated bit-identically. A broadcast is ONE entry, queued and
//! popped whole (a [`Block`]); the per-event [`Iterator`] unrolls it.

use std::collections::BinaryHeap;

/// Virtual time, in abstract ticks. The multifrontal layer uses
/// 1 tick = 1 µs with a flop rate expressed in flops/µs.
pub type Time = u64;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload<M> {
    /// A message delivered to processor `to`.
    Message {
        /// Sending processor.
        from: usize,
        /// Receiving processor.
        to: usize,
        /// Payload.
        msg: M,
    },
    /// A locally scheduled timer on processor `proc` (task completions,
    /// periodic checks, ...), carrying an opaque key.
    Timer {
        /// Processor the timer belongs to.
        proc: usize,
        /// Caller-defined discriminator.
        key: u64,
    },
}

/// A fired event: when plus what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<M> {
    /// Firing time.
    pub at: Time,
    /// Payload.
    pub payload: EventPayload<M>,
}

/// What one [`Sim::pop`] delivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery<M> {
    /// A single event.
    One(Event<M>),
    /// A whole broadcast block.
    Block(Block<M>),
}

/// A broadcast block: `msg` from `from` to every processor of
/// `0..nprocs` but the sender, all at the instant `at`, in ascending
/// target order. The per-target messages would occupy contiguous sequence
/// numbers at a single firing time, so no other event can ever interleave
/// them — queueing and popping the block as ONE entry keeps the delivery
/// sequence bit-identical to `nprocs - 1` separate messages while costing
/// one sift instead of `nprocs - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<M> {
    /// Firing time of every message of the block.
    pub at: Time,
    /// Sending processor.
    pub from: usize,
    /// Machine size; the targets are `0..nprocs` minus `from`.
    pub nprocs: usize,
    /// The message every target receives.
    pub msg: M,
}

impl<M> Block<M> {
    /// Number of targets.
    pub fn len(&self) -> usize {
        broadcast_targets(self.from, self.nprocs)
    }

    /// True when the block reaches nobody (never popped: empty broadcasts
    /// are not queued).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M: Clone> Block<M> {
    /// Unrolls the block into the per-target message events it stands
    /// for — the adapter behind [`Sim`]'s per-event `Iterator`.
    pub fn unroll(self) -> Unroll<M> {
        Unroll { block: self, next: 0 }
    }
}

/// Per-target iteration over a [`Block`] (see [`Block::unroll`]).
#[derive(Debug)]
pub struct Unroll<M> {
    block: Block<M>,
    /// Next candidate target (the sender is skipped when reached).
    next: usize,
}

impl<M> Unroll<M> {
    /// Targets not yet yielded.
    fn remaining(&self) -> usize {
        let Block { from, nprocs, .. } = self.block;
        (nprocs - self.next) - usize::from(from >= self.next && from < nprocs)
    }
}

impl<M: Clone> Iterator for Unroll<M> {
    type Item = Event<M>;

    fn next(&mut self) -> Option<Event<M>> {
        let Block { at, from, nprocs, ref msg } = self.block;
        if self.next == from {
            self.next += 1;
        }
        if self.next >= nprocs {
            return None;
        }
        let to = self.next;
        self.next += 1;
        Some(Event { at, payload: EventPayload::Message { from, to, msg: msg.clone() } })
    }
}

/// Number of targets of a broadcast from `from` over `0..nprocs`.
fn broadcast_targets(from: usize, nprocs: usize) -> usize {
    nprocs - usize::from(from < nprocs)
}

/// One queue entry: a single event payload or a broadcast block.
#[derive(Debug)]
enum Queued<M> {
    One(EventPayload<M>),
    Broadcast { from: usize, nprocs: usize, msg: M },
}

impl<M> Queued<M> {
    /// The delivery this entry turns into when it fires at `at`, and how
    /// many events it counts for.
    fn fire(self, at: Time) -> (Delivery<M>, usize) {
        match self {
            Queued::One(payload) => (Delivery::One(Event { at, payload }), 1),
            Queued::Broadcast { from, nprocs, msg } => {
                let b = Block { at, from, nprocs, msg };
                let n = b.len();
                (Delivery::Block(b), n)
            }
        }
    }
}

/// A queued entry with its payload stored inline: the heap is the only
/// data structure on the hot path (one sift per push/pop). Ordering
/// ignores the payload and inverts `(time, seq)` so the max-heap pops the
/// earliest entry, FIFO on ties.
#[derive(Debug)]
struct HeapEntry<M> {
    at: Time,
    seq: u64,
    payload: Queued<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: smallest (time, seq) is the heap maximum.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue: the virtual clock plus one binary heap of pending
/// entries, popped smallest `(time, seq)` first.
#[derive(Debug)]
pub struct Sim<M> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<HeapEntry<M>>,
    delivered: u64,
    /// Queued events, counting every message of a block.
    pending: usize,
    /// Block the per-event [`Iterator`] is part-way through; `pop` never
    /// looks at it.
    unrolling: Option<Unroll<M>>,
}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Sim<M> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Sim { now: 0, seq: 0, queue: BinaryHeap::new(), delivered: 0, pending: 0, unrolling: None }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered - self.unrolled_left() as u64
    }

    /// Number of pending events (counting every undelivered message of a
    /// broadcast block individually).
    pub fn pending(&self) -> usize {
        self.pending + self.unrolled_left()
    }

    /// Messages of a popped block the per-event [`Iterator`] has yet to
    /// yield (0 for `pop` consumers).
    fn unrolled_left(&self) -> usize {
        self.unrolling.as_ref().map_or(0, Unroll::remaining)
    }

    fn push(&mut self, delay: Time, payload: Queued<M>) {
        let (at, seq) = (self.now + delay, self.seq);
        self.seq += 1;
        self.queue.push(HeapEntry { at, seq, payload });
    }

    /// Schedules `payload` to fire `delay` ticks from now.
    pub fn schedule(&mut self, delay: Time, payload: EventPayload<M>) {
        self.push(delay, Queued::One(payload));
        self.pending += 1;
    }

    /// Schedules a timer on `proc` after `delay`.
    pub fn schedule_timer(&mut self, proc: usize, delay: Time, key: u64) {
        self.schedule(delay, EventPayload::Timer { proc, key });
    }

    /// Schedules delivery of clones of `msg` from `from` to every other
    /// processor in `0..nprocs`, `delay` ticks from now. Exactly
    /// equivalent to `nprocs - 1` back-to-back [`Sim::schedule`] calls of
    /// `Message` payloads — same firing time, same ascending-target FIFO
    /// order against every other event — but a single queue entry.
    pub fn schedule_broadcast(&mut self, delay: Time, from: usize, nprocs: usize, msg: M) {
        let targets = broadcast_targets(from, nprocs);
        if targets == 0 {
            return;
        }
        self.push(delay, Queued::Broadcast { from, nprocs, msg });
        self.pending += targets;
    }

    /// Pops the earliest pending entry, advancing the clock to its firing
    /// time: a single event, or a broadcast block handed over whole (all
    /// its targets count as delivered at once). `None` when the queue is
    /// empty — schedule more events and popping resumes.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        debug_assert_eq!(self.unrolled_left(), 0, "pop during a per-event block iteration");
        let HeapEntry { at, payload, .. } = self.queue.pop()?;
        debug_assert!(at >= self.now, "time cannot run backwards");
        self.now = at;
        let (d, n) = payload.fire(at);
        self.delivered += n as u64;
        self.pending -= n;
        Some(d)
    }
}

/// Draining per-event iteration: each `next()` yields the earliest
/// pending event, advancing the clock to its firing time; a popped block
/// is unrolled target by target. Yields `None` when the queue is empty —
/// schedule more events and iteration resumes.
impl<M: Clone> Iterator for Sim<M> {
    type Item = Event<M>;

    fn next(&mut self) -> Option<Event<M>> {
        loop {
            if let Some(e) = self.unrolling.as_mut().and_then(Iterator::next) {
                return Some(e);
            }
            self.unrolling = None;
            match self.pop()? {
                Delivery::One(e) => return Some(e),
                Delivery::Block(b) => self.unrolling = Some(b.unroll()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<&'static str> = Sim::new();
        sim.schedule(10, EventPayload::Timer { proc: 0, key: 1 });
        sim.schedule(5, EventPayload::Timer { proc: 0, key: 2 });
        sim.schedule(7, EventPayload::Timer { proc: 0, key: 3 });
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert_eq!((sim.now(), sim.delivered()), (10, 3));
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim: Sim<u32> = Sim::new();
        for k in 0..5 {
            sim.schedule(3, EventPayload::Timer { proc: 0, key: k });
        }
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_break_fifo_whatever_the_processor() {
        // Five processors, same instant: delivery follows insertion
        // order, not processor order.
        let mut sim: Sim<u32> = Sim::new();
        for (i, proc) in [4usize, 1, 3, 0, 2].into_iter().enumerate() {
            sim.schedule(3, EventPayload::Timer { proc, key: i as u64 });
        }
        let keys: Vec<u64> = std::iter::from_fn(|| sim.next())
            .map(|e| match e.payload {
                EventPayload::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_monotonically_with_nested_schedules() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(4, EventPayload::Timer { proc: 0, key: 0 });
        let mut times = Vec::new();
        while let Some(e) = sim.next() {
            times.push(e.at);
            if let EventPayload::Timer { key, .. } = e.payload {
                if key < 3 {
                    sim.schedule(2, EventPayload::Timer { proc: 0, key: key + 1 });
                }
            }
        }
        assert_eq!(times, vec![4, 6, 8, 10]);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut sim: Sim<u32> = Sim::new();
        assert!(sim.next().is_none());
        assert_eq!(sim.delivered(), 0);
    }

    #[test]
    fn broadcast_matches_per_message_schedules_exactly() {
        // The broadcast fast path must produce the same event sequence as
        // the per-target schedule loop it replaces, including FIFO
        // interleaving with other events at the same instant.
        let mut a: Sim<u32> = Sim::new();
        let mut b: Sim<u32> = Sim::new();
        a.schedule(5, EventPayload::Timer { proc: 9, key: 0 });
        b.schedule(5, EventPayload::Timer { proc: 9, key: 0 });
        for to in 0..4 {
            if to != 1 {
                a.schedule(5, EventPayload::Message { from: 1, to, msg: 7 });
            }
        }
        b.schedule_broadcast(5, 1, 4, 7);
        a.schedule(5, EventPayload::Timer { proc: 9, key: 1 });
        b.schedule(5, EventPayload::Timer { proc: 9, key: 1 });
        assert_eq!(a.pending(), b.pending());
        loop {
            let (ea, eb) = (a.next(), b.next());
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
        assert_eq!(a.delivered(), b.delivered());
    }

    #[test]
    fn pop_hands_a_block_over_whole() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_broadcast(4, 2, 5, 9);
        sim.schedule(4, EventPayload::Timer { proc: 0, key: 1 });
        assert_eq!(sim.pending(), 5);
        let Some(Delivery::Block(b)) = sim.pop() else { panic!("the block was queued first") };
        assert_eq!((b.at, b.from, b.msg, sim.now()), (4, 2, 9, 4));
        // Every target counted at once; the block is gone from the queue.
        assert_eq!((sim.delivered(), sim.pending()), (4, 1));
        let tos: Vec<usize> = b
            .unroll()
            .map(|e| match e.payload {
                EventPayload::Message { from: 2, to, msg: 9 } => to,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tos, vec![0, 1, 3, 4]);
        assert!(matches!(sim.pop(), Some(Delivery::One(_))));
        assert!(sim.pop().is_none());
    }

    #[test]
    fn broadcast_with_no_targets_schedules_nothing() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_broadcast(3, 0, 1, 42);
        assert_eq!(sim.pending(), 0);
        assert!(sim.next().is_none());
    }

    #[test]
    fn events_scheduled_during_broadcast_drain_come_after_the_block() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule_broadcast(2, 0, 3, 5);
        let first = sim.next().unwrap();
        assert_eq!(first.payload, EventPayload::Message { from: 0, to: 1, msg: 5 });
        // Scheduling at delay 0 lands at the same instant but AFTER the
        // remaining block messages, as its seq would be larger.
        sim.schedule(0, EventPayload::Timer { proc: 7, key: 1 });
        let second = sim.next().unwrap();
        assert_eq!(second.payload, EventPayload::Message { from: 0, to: 2, msg: 5 });
        let third = sim.next().unwrap();
        assert_eq!(third.payload, EventPayload::Timer { proc: 7, key: 1 });
    }

    #[test]
    fn message_payloads_round_trip() {
        let mut sim: Sim<String> = Sim::new();
        sim.schedule(1, EventPayload::Message { from: 2, to: 3, msg: "hello".into() });
        let e = sim.next().unwrap();
        assert_eq!(e.payload, EventPayload::Message { from: 2, to: 3, msg: "hello".into() });
    }
}
