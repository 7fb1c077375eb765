//! Throughput of the simulator's event queue: the production engine
//! against the layout it first replaced — a heap of bare `(time, seq)`
//! keys plus a `HashMap<seq, payload>` side table, one lookup-and-remove
//! per delivery — and, on the broadcast-heavy mix, against itself per
//! delivered event when whole blocks come out of one pop.
//!
//! The workload is a self-sustaining hold model: a queue pre-filled to a
//! fixed depth where every delivery schedules one successor at a
//! pseudo-random future time, which is how the parallel-factorization
//! simulation actually drives the queue (timers and messages in flight
//! at once, depth roughly stable). Sizes span 10^4 .. 10^6 events.

use std::collections::{BinaryHeap, HashMap};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mf_sim::engine::{Delivery, EventPayload, Sim};

const DEPTH: usize = 1 << 10;

#[inline]
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x
}

/// Drives the production queue: `events` deliveries at constant depth.
fn run_single_heap(events: u64) -> u64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut rng = 0x2545f4914f6cdd1du64;
    for k in 0..DEPTH as u64 {
        sim.schedule(lcg(&mut rng) % 1024, EventPayload::Timer { proc: 0, key: k });
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let Some(Delivery::One(e)) = sim.pop() else { panic!("queue kept full of timers") };
        acc = acc.wrapping_add(e.at);
        if let EventPayload::Timer { proc, key } = e.payload {
            sim.schedule_timer(proc, lcg(&mut rng) % 1024, key);
        }
    }
    acc
}

/// Machine size of the broadcast-heavy mix (the benchmark's `sim_scale`).
const BLOCK_PROCS: usize = 256;

/// The status-coherence mix: the queue holds `DEPTH` broadcast blocks,
/// each pop hands one over whole, the consumer walks its
/// `BLOCK_PROCS - 1` targets in a tight loop and schedules a successor
/// block. Counted per delivered event, like the scheduler's ns/event.
fn run_blocks(events: u64) -> u64 {
    let mut sim: Sim<u64> = Sim::with_procs(BLOCK_PROCS);
    let mut rng = 0x2545f4914f6cdd1du64;
    for k in 0..DEPTH as u64 {
        let from = lcg(&mut rng) as usize % BLOCK_PROCS;
        sim.schedule_broadcast(lcg(&mut rng) % 1024, from, BLOCK_PROCS, k);
    }
    let mut acc = 0u64;
    let mut delivered = 0u64;
    while delivered < events {
        let Some(Delivery::Block(b)) = sim.pop() else { panic!("queue kept full of blocks") };
        for to in b.targets() {
            acc = acc.wrapping_add(b.at ^ to as u64);
        }
        delivered += b.len() as u64;
        let from = lcg(&mut rng) as usize % BLOCK_PROCS;
        sim.schedule_broadcast(lcg(&mut rng) % 1024, from, BLOCK_PROCS, b.msg);
    }
    acc
}

/// The legacy two-structure queue, reproduced here as the baseline: a
/// max-heap of reversed `(time, seq)` keys and a `seq -> payload` map.
struct TwoStructQueue {
    now: u64,
    seq: u64,
    keys: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    payloads: HashMap<u64, EventPayload<u64>>,
}

impl TwoStructQueue {
    fn new() -> Self {
        TwoStructQueue { now: 0, seq: 0, keys: BinaryHeap::new(), payloads: HashMap::new() }
    }

    fn schedule(&mut self, delay: u64, payload: EventPayload<u64>) {
        let seq = self.seq;
        self.seq += 1;
        self.keys.push(std::cmp::Reverse((self.now + delay, seq)));
        self.payloads.insert(seq, payload);
    }

    fn next(&mut self) -> Option<(u64, EventPayload<u64>)> {
        let std::cmp::Reverse((at, seq)) = self.keys.pop()?;
        self.now = at;
        let payload = self.payloads.remove(&seq).expect("payload for key");
        Some((at, payload))
    }
}

fn run_two_struct(events: u64) -> u64 {
    let mut q = TwoStructQueue::new();
    let mut rng = 0x2545f4914f6cdd1du64;
    for k in 0..DEPTH as u64 {
        q.schedule(lcg(&mut rng) % 1024, EventPayload::Timer { proc: 0, key: k });
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let (at, payload) = q.next().expect("queue kept full");
        acc = acc.wrapping_add(at);
        if let EventPayload::Timer { proc, key } = payload {
            q.schedule(lcg(&mut rng) % 1024, EventPayload::Timer { proc, key });
        }
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for &events in &[10_000u64, 100_000, 1_000_000] {
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(BenchmarkId::new("single_heap", events), &events, |b, &n| {
            b.iter(|| run_single_heap(n))
        });
        group.bench_with_input(BenchmarkId::new("heap_plus_hashmap", events), &events, |b, &n| {
            b.iter(|| run_two_struct(n))
        });
        group.bench_with_input(BenchmarkId::new("broadcast_blocks", events), &events, |b, &n| {
            b.iter(|| run_blocks(n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
