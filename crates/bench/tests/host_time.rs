//! Host time per delivered event must not grow with the machine: on the
//! Table-1-scale synthetic tree (`paper synth_scale`), P=1024 costs no
//! more ns/event than P=32, best of three runs each in one process so one
//! noisy run cannot decide it. The ratio reads ~0.4 with one slot-major
//! view table; it read 1.2-1.3 when each processor kept a table of its
//! own and a broadcast touched one cache line in each of 1023 of them.
//! The smoke instance cannot tell the two apart: its P=32 cost is all
//! fixed per-event work, and its 256 x 256 views fit the caches either
//! way. Release builds only: a debug build times its own checks.

#![cfg(not(debug_assertions))]

use std::time::Instant;

use mf_bench::paper_scale_config;
use mf_bench::scenarios::{synth_nd_tree, SynthConfig};
use mf_core::mapping::compute_mapping;
use mf_core::parsim;

#[test]
fn ns_per_event_at_1024_processors_is_no_more_than_at_32() {
    let tree = synth_nd_tree(&SynthConfig::paper_scale(42));
    let best_ns_per_event = |nprocs: usize| {
        let cfg = paper_scale_config(nprocs).with_memory_strategy();
        let map = compute_mapping(&tree, &cfg);
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let r = parsim::run(&tree, &map, &cfg).expect("synthetic run completes");
                start.elapsed().as_nanos() as f64 / r.events_delivered as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (ns32, ns1024) = (best_ns_per_event(32), best_ns_per_event(1024));
    assert!(
        ns1024 <= ns32,
        "{ns1024:.1} ns per event at P=1024, over the {ns32:.1} at P=32 on the same instance: \
         does a broadcast still sweep one row of views?"
    );
}
