//! Lane-sharded engine vs the single-global-heap reference, across the
//! processor counts the scale sweep targets.
//!
//! Both engines implement [`mf_sim::EventQueue`] and deliver bit-identical
//! sequences (see `crates/core/tests/engine_equiv.rs`); this bench prices
//! the difference. The workload is the hold model the factorization
//! simulation actually presents — a queue at roughly constant depth where
//! every delivery schedules a successor — in two mixes:
//!
//! * **p2p-heavy**: every delivery schedules one point-to-point message
//!   to a pseudo-random processor (the compute/completion traffic);
//! * **broadcast-heavy**: every 16th delivery schedules a broadcast from
//!   the delivering processor instead (the status-coherence traffic —
//!   one queue entry on either engine, popped whole as a block of P-1
//!   deliveries).
//!
//! Throughput is reported per *delivered* event, so the broadcast mix
//! measures the fan-out cost, not just the schedule cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mf_sim::engine::{Delivery, EventPayload, EventQueue, Sim, SingleHeapSim};

const DEPTH: usize = 1 << 10;

#[inline]
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x
}

/// Drives `sim` for `events` deliveries at roughly constant depth.
/// `bcast_every = 0` is the p2p-heavy mix; `n` in `1..` schedules a
/// broadcast on every `n`-th delivery instead of a message. A popped
/// block is consumed the way the scheduler's driver consumes it: one
/// tight loop over its targets, each counting as a delivery.
fn drive<Q: EventQueue<u64>>(mut sim: Q, nprocs: usize, events: u64, bcast_every: u64) -> u64 {
    let mut rng = 0x2545f4914f6cdd1du64;
    for k in 0..DEPTH as u64 {
        let (from, to) = (lcg(&mut rng) as usize % nprocs, lcg(&mut rng) as usize % nprocs);
        sim.schedule(lcg(&mut rng) % 1024, EventPayload::Message { from, to, msg: k });
    }
    let mut acc = 0u64;
    let mut delivered = 0u64;
    // A broadcast injects nprocs-1 deliveries at once, so it pre-pays
    // for that many future deliveries (`owed`): the queue depth stays
    // roughly constant and the two mixes are comparable.
    let mut owed = 0u64;
    // One delivery at processor `at_proc`: schedule its successor.
    let mut react = |sim: &mut Q, at_proc: usize| {
        delivered += 1;
        if owed > 0 {
            owed -= 1;
        } else if bcast_every > 0 && delivered.is_multiple_of(bcast_every) && nprocs > 1 {
            sim.schedule_broadcast(lcg(&mut rng) % 1024, at_proc, nprocs, delivered);
            owed = nprocs as u64 - 2;
        } else {
            let to = lcg(&mut rng) as usize % nprocs;
            let msg = EventPayload::Message { from: at_proc, to, msg: delivered };
            sim.schedule(lcg(&mut rng) % 1024, msg);
        }
        delivered
    };
    let mut done = 0;
    while done < events {
        match sim.pop().expect("queue kept live") {
            Delivery::One(e) => {
                acc = acc.wrapping_add(e.at);
                let at_proc = match e.payload {
                    EventPayload::Message { to, .. } => to,
                    EventPayload::Timer { proc, .. } => proc,
                };
                done = react(&mut sim, at_proc);
            }
            Delivery::Block(b) => {
                for to in b.targets() {
                    acc = acc.wrapping_add(b.at);
                    done = react(&mut sim, to);
                }
            }
        }
    }
    acc
}

fn bench_engines(c: &mut Criterion) {
    const EVENTS: u64 = 200_000;
    for (mix, bcast_every) in [("p2p_heavy", 0u64), ("broadcast_heavy", 16)] {
        let mut g = c.benchmark_group(format!("engine/{mix}"));
        g.throughput(Throughput::Elements(EVENTS));
        for nprocs in [32usize, 256, 1024] {
            g.bench_with_input(BenchmarkId::new("lanes", nprocs), &nprocs, |b, &np| {
                b.iter(|| drive(Sim::<u64>::with_procs(np), np, EVENTS, bcast_every))
            });
            g.bench_with_input(BenchmarkId::new("single_heap", nprocs), &nprocs, |b, &np| {
                b.iter(|| drive(SingleHeapSim::<u64>::new(), np, EVENTS, bcast_every))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
