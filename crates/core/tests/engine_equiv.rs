//! Engine properties the run loop leans on.
//!
//! * **A broadcast is its per-target sends** — for arbitrary interleavings
//!   of point-to-point messages, timers and broadcasts, including
//!   operations scheduled reactively mid-drain and mid-block, one
//!   `schedule_broadcast` delivers exactly the event sequence of its
//!   `N − 1` per-target `schedule` calls on the one heap, whether the
//!   block is unrolled per target (`Iterator`,
//!   `lane_order_is_the_single_heap_order`) or taken whole (`pop`,
//!   `block_pop_unrolls_to_the_single_heap_order`).
//! * **Whole runs** — kills and joins landing inside a broadcast block
//!   reproduce whole-`RunResult` digests pinned when every block was
//!   delivered one event per pop.

use mf_core::config::{RecoveryConfig, SolverConfig};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::engine::{Delivery, Event, EventPayload, Sim};
use mf_sim::FaultModel;
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};
use proptest::prelude::*;

fn tree_for(nx: usize) -> AssemblyTree {
    let a = grid2d(nx, nx, Stencil::Star);
    let p = OrderingKind::Metis.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    s.tree
}

/// One queued operation of the raw-order property, drawn by proptest as
/// a `(kind, delay, a, b)` tuple: kind 0 = point-to-point message from
/// `a` to `b`, kind 1 = timer on `a` with key `b`, kind 2 = broadcast
/// from `a` (processor indices are taken modulo the machine size).
type Op = (usize, u64, usize, u64);

/// Applies `op` to both queues: as itself on `blocks`, and on `flat` with
/// a broadcast spelled out as its per-target `schedule` calls in
/// ascending target order.
fn apply_op(op: Op, nprocs: usize, blocks: &mut Sim<u64>, flat: &mut Sim<u64>, tag: u64) {
    let (kind, delay, a, b) = op;
    let a = a % nprocs;
    match kind {
        0 => {
            let p = EventPayload::Message { from: a, to: b as usize % nprocs, msg: tag };
            blocks.schedule(delay, p.clone());
            flat.schedule(delay, p);
        }
        1 => {
            blocks.schedule_timer(a, delay, b);
            flat.schedule_timer(a, delay, b);
        }
        _ => {
            blocks.schedule_broadcast(delay, a, nprocs, tag);
            for to in (0..nprocs).filter(|&to| to != a) {
                flat.schedule(delay, EventPayload::Message { from: a, to, msg: tag });
            }
        }
    }
}

/// `(pending, delivered, now)`: the counters both queues must agree on.
fn counters(sim: &Sim<u64>) -> (usize, u64, u64) {
    (sim.pending(), sim.delivered(), sim.now())
}

/// Raw queue order: a broadcast block delivers exactly what its
/// per-target sends would — the same resolution of every FIFO tie —
/// taken whole by `pop` and unrolled (`whole`), or one event at a time by
/// the `Iterator`, with the counters agreeing after every step. Reactive
/// pushes land between deliveries and between a block's targets.
fn check_broadcast_order(nprocs: usize, ops: &[Op], reschedule_each: u64, whole: bool) {
    let (mut blocks, mut flat) = (Sim::new(), Sim::new());
    for (i, &op) in ops.iter().enumerate() {
        apply_op(op, nprocs, &mut blocks, &mut flat, i as u64);
    }
    let mut queued: Vec<Op> = ops.iter().rev().copied().collect();
    let mut delivered = 0u64;
    let mut react = |delivered: u64, blocks: &mut Sim<u64>, flat: &mut Sim<u64>| {
        if delivered % 7 < reschedule_each {
            if let Some(op) = queued.pop() {
                apply_op(op, nprocs, blocks, flat, 10_000 + delivered);
            }
        }
    };
    if whole {
        while let Some(delivery) = blocks.pop() {
            let events: Vec<Event<u64>> = match delivery {
                Delivery::One(e) => vec![e],
                Delivery::Block(b) => {
                    prop_assert_eq!(b.len(), nprocs - 1);
                    prop_assert_eq!(b.at, blocks.now());
                    b.unroll().collect()
                }
            };
            for e in events {
                prop_assert_eq!(Some(e), flat.next());
                delivered += 1;
                react(delivered, &mut blocks, &mut flat);
            }
            prop_assert_eq!(counters(&blocks), counters(&flat));
        }
    } else {
        while let Some(e) = blocks.next() {
            prop_assert_eq!(Some(e), flat.next());
            prop_assert_eq!(counters(&blocks), counters(&flat));
            delivered += 1;
            react(delivered, &mut blocks, &mut flat);
        }
    }
    prop_assert_eq!(flat.next(), None);
    prop_assert_eq!(counters(&blocks), counters(&flat));
    prop_assert_eq!(blocks.delivered(), delivered);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The `Iterator` path: one event at a time, broadcast blocks
    /// unrolled per target, the sequence is the one a single heap fed the
    /// per-target sends delivers.
    #[test]
    fn lane_order_is_the_single_heap_order(
        nprocs in 1usize..24,
        ops in prop::collection::vec((0usize..3, 0u64..40, 0usize..24, any::<u64>()), 1..120),
        reschedule_each in 0u64..4,
    ) {
        check_broadcast_order(nprocs, &ops, reschedule_each, false);
    }

    /// The block seam: `pop` hands a broadcast over whole, and unrolling
    /// it yields exactly the per-target sequence of the single heap fed
    /// the per-target sends.
    #[test]
    fn block_pop_unrolls_to_the_single_heap_order(
        nprocs in 1usize..24,
        ops in prop::collection::vec((0usize..3, 0u64..40, 0usize..24, any::<u64>()), 1..120),
        reschedule_each in 0u64..4,
    ) {
        check_broadcast_order(nprocs, &ops, reschedule_each, true);
    }
}

/// FNV-1a over the `Debug` rendering: a cheap whole-value fingerprint
/// (every field of the result, recording included, reaches the digest).
fn fingerprint(r: &RunResult) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Kills and joins scheduled on delivered-event indices that land
/// *inside* a broadcast block — at its first, a middle and its last
/// target — behave exactly as they did when the engine unrolled blocks
/// one event per pop: the fingerprints below are whole-`RunResult`
/// digests (recording on). The models only kill and join, so the run
/// builds no fault injector and its broadcasts stay blocks (a model that
/// touches messages routes every target alone and would never reach the
/// block branch). The positions are read off a log of the
/// delivered-event stream. With everybody up, events 613..=617 are one
/// block from processor 2 (targets 0, 1, 3, 4, 5); with processor 5
/// dormant, events 376..=380 are one block from processor 3 (targets 0,
/// 1, 2, 4, 5). After a change in what is delivered, find the same two
/// blocks again (processor 2's and 3's first memory delta at t=28 and
/// t=27) and re-derive the digests (`-- --nocapture` prints them):
/// `peaks`, `makespan`, `factor_digest` and `nodes_done` of the seven
/// cases should not move when only the traffic did. A recording renders
/// as its `(Time, SchedEvent)` stream and drop count; the pins were
/// carried over to that rendering by rendering the same runs' streams,
/// and again to one `StatusApply` row per status block by rendering the
/// per-receiver streams with the recorder's merge rule applied. When the
/// recovery counters and `ProcJoined` each lost a field that read 0 in
/// every run here, the pins were carried over by cutting those two
/// fields out of the previous rendering of the same runs; likewise when
/// `RunResult` lost its `total_peaks` field.
#[test]
fn kills_and_joins_inside_a_block_match_the_per_event_engine() {
    let tree = tree_for(14);
    let cfg0 = SolverConfig {
        record_events: true,
        ..SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(6) }
            .with_memory_strategy()
    };
    let map = compute_mapping(&tree, &cfg0);
    type Schedule = (&'static [(u64, usize)], &'static [(u64, usize)]);
    let cases: [(Schedule, u64); 7] = [
        // Kill at the block's first target; the victim is a later target.
        ((&[(613, 4)], &[]), 0xdf7e_3e78_832e_0aeb),
        // Kill at a middle target; the victim is that very target.
        ((&[(615, 3)], &[]), 0x575f_fa5b_cc46_674f),
        // Kill at the last target; the victim is the block's sender.
        ((&[(617, 2)], &[]), 0xe5c0_d8bb_297c_16ed),
        // Join at the first, a middle and the last target (the joiner
        // itself: delivered, not parked).
        ((&[], &[(376, 5)]), 0x7b5e_5364_90fb_47d9),
        ((&[], &[(378, 5)]), 0x9720_09f9_3b11_fff8),
        ((&[], &[(380, 5)]), 0xe108_c686_5ab2_9ab8),
        // A kill and a join inside the same block.
        ((&[(377, 1)], &[(379, 5)]), 0xb659_7c1e_074c_6e87),
    ];
    for ((kill_at, join_at), want) in cases {
        let model = FaultModel {
            kill_at: kill_at.to_vec(),
            join_at: join_at.to_vec(),
            ..FaultModel::quiet(1)
        };
        // The premise: a model that touches no message gets no injector,
        // so every broadcast arrives as one block and the kill or join
        // fires between its targets.
        assert!(!model.perturbs_messages(), "kills {kill_at:?} joins {join_at:?}");
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(model),
            ..cfg0.clone()
        };
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        assert_eq!(a.dead.len(), kill_at.len(), "kills {kill_at:?} must fire");
        assert_eq!(a.metrics.recovery.joins_observed as usize, join_at.len());
        eprintln!("kills {kill_at:?} joins {join_at:?}: {:#018x}", fingerprint(&a));
        assert_eq!(fingerprint(&a), want, "kills {kill_at:?} joins {join_at:?}");
    }
}

/// Every slave × task strategy pair under hard capacities tight enough
/// to fire all three capacity arms — re-selection, serialize-on-master
/// and forced activation — reproduces its pinned whole-`RunResult`
/// digest (recording on): uncapped, at 30% and 20% of the pair's own
/// uncapped `max_peak`, and at a cap of one entry. The digests were
/// taken before the pool scan and the slave-selection pipeline were each
/// folded into one function, and carried over to one `StatusApply` row
/// per status block and past the two dropped fields as above;
/// `-- --nocapture` prints them. On this tree
/// the three task selections take the same decisions (one pinned row per
/// slave selection); the pool scan is held to the pickers it replaced by
/// `tests/prop_scheduling.rs`.
#[test]
fn every_strategy_pair_under_tight_caps_is_pinned() {
    use mf_core::config::{SlaveSelection, TaskSelection};
    let tree = tree_for(80);
    let base =
        SolverConfig { type2_front_min: 16, record_events: true, ..SolverConfig::memory_based(16) };
    let map = compute_mapping(&tree, &base);
    let slave_selections =
        [SlaveSelection::Workload, SlaveSelection::Memory, SlaveSelection::Hybrid];
    for (slave_selection, want) in slave_selections.into_iter().zip(PINNED_CAPPED) {
        for task_selection in
            [TaskSelection::Lifo, TaskSelection::MemoryAware, TaskSelection::MemoryAwareGlobal]
        {
            let cfg = SolverConfig { slave_selection, task_selection, ..base.clone() };
            let free = parsim::run(&tree, &map, &cfg).unwrap();
            let mut row = vec![fingerprint(&free)];
            for cap in [free.max_peak * 30 / 100, free.max_peak * 20 / 100, 1] {
                let capped = SolverConfig { capacity: Some(cap), ..cfg.clone() };
                let r = parsim::run(&tree, &map, &capped).unwrap();
                let m = &r.metrics;
                let fired = [m.reselect_rounds, m.serialized_fronts, m.forced_activations];
                eprintln!("{slave_selection:?}/{task_selection:?} cap {cap}: {fired:?}");
                if cap == free.max_peak * 20 / 100 {
                    assert!(
                        fired.iter().all(|&n| n > 0),
                        "{slave_selection:?}/{task_selection:?} at cap {cap}: {fired:?}"
                    );
                }
                row.push(fingerprint(&r));
            }
            eprintln!("{slave_selection:?}/{task_selection:?}: {row:#018x?}");
            assert_eq!(row, want, "{slave_selection:?}/{task_selection:?}");
        }
    }
}

/// Per slave selection (`Workload`, `Memory`, `Hybrid`), whatever the
/// task selection: the digests uncapped, at 30% and 20% of the uncapped
/// peak, and at cap 1.
const PINNED_CAPPED: [[u64; 4]; 3] = [
    [0xf6d8_629f_4dfe_cad3, 0x68c5_a8f3_e413_c42c, 0xc690_367b_47c6_1ba1, 0x0236_23b9_5deb_9d8f],
    [0x649d_f63d_97ff_c27b, 0xe9db_1072_eaa0_9b04, 0x5a7f_176f_6d4f_42b2, 0x60f6_430f_345a_b3e3],
    [0x649d_f63d_97ff_c27b, 0xe9db_1072_eaa0_9b04, 0x5a7f_176f_6d4f_42b2, 0x970b_a6b6_3ece_bf0d],
];
