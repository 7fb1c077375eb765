//! Cost of `Recording::record()` on a driver-shaped event mix.
//!
//! Each event is one 32-byte `(Time, SchedEvent)` row store; only the
//! rare slave selections allocate, for their boxed metric, view-age and
//! pick vectors. The mix below mirrors what the run loop actually
//! emits — dominated by memory alloc/free traffic, a status-view
//! refresh every 4th event, and a full 32-processor slave selection
//! (32-entry metric and view-age vectors, 4 picked blocks) every 32nd
//! event.
//!
//! Three configurations:
//!
//! * `off` — the driver-side fast path: `Option<Recording>` is `None`,
//!   so every site is one branch and the builder closure never runs;
//! * `on_unbounded` — the production attribution/export mode (paged
//!   store, unbounded);
//! * `on_ring_64k` — the black-box mode (preallocated circular buffer;
//!   an evicted row drops its boxed payload).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mf_sim::recorder::{MemArea, SchedEvent, SlaveChoice, SlavePick, StatusKind};
use mf_sim::{Recording, Time};

const EVENTS: u64 = 100_000;
const NPROCS: u32 = 32;

/// The driver-side recording site: one branch when off, build + append
/// when on. Mirrors `SimDriver::record`.
#[inline]
fn record(rec: &mut Option<Recording>, at: Time, build: impl FnOnce() -> SchedEvent) {
    if let Some(r) = rec.as_mut() {
        r.record(at, build());
    }
}

/// Feeds `events` mixed events through `rec`; returns a checksum so the
/// off path cannot be optimized away.
fn run_mix(rec: &mut Option<Recording>, events: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..events {
        let at = i as Time;
        let node = (i % 4096) as u32;
        let proc = (i % NPROCS as u64) as u32;
        if i % 32 == 7 {
            record(rec, at, || SchedEvent::SlaveSelection {
                master: proc,
                node,
                choice: Box::new(SlaveChoice {
                    metric: (0..NPROCS as u64).map(|p| 1_000 + p).collect(),
                    view_age: (0..NPROCS as Time).map(|p| 3 * p).collect(),
                    picked: (0..4).map(|p| SlavePick { proc: p, entries: 512 }).collect(),
                }),
                rounds: 0,
                serialized: false,
            });
        } else if i % 4 == 1 {
            let peer = (proc + 1) % NPROCS;
            record(rec, at, || SchedEvent::StatusApply {
                to: proc,
                from: peer,
                about: peer,
                kind: StatusKind::MemDelta,
                age: 5,
            });
        } else if i % 2 == 0 {
            let area = MemArea::Front;
            record(rec, at, || SchedEvent::MemAlloc { proc, node, area, entries: 128 });
        } else {
            let area = MemArea::Front;
            record(rec, at, || SchedEvent::MemFree { proc, node, area, entries: 128 });
        }
        acc = acc.wrapping_add(at);
    }
    acc.wrapping_add(rec.as_ref().map_or(0, |r| r.len() as u64))
}

fn bench_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("off", |b| {
        b.iter(|| {
            let mut rec: Option<Recording> = None;
            run_mix(&mut rec, EVENTS)
        })
    });
    group.bench_function("on_unbounded", |b| {
        b.iter(|| {
            let mut rec = Some(Recording::new(None));
            run_mix(&mut rec, EVENTS)
        })
    });
    group.bench_function("on_ring_64k", |b| {
        b.iter(|| {
            let mut rec = Some(Recording::new(Some(1 << 16)));
            run_mix(&mut rec, EVENTS)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_recorder);
criterion_main!(benches);
