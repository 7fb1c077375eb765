//! Engine-equivalence properties: the lane-sharded production engine
//! ([`mf_sim::Sim`]) must be indistinguishable from the single-global-heap
//! reference ([`mf_sim::SingleHeapSim`]).
//!
//! Two layers of evidence:
//!
//! * **Raw queue order** — for arbitrary interleavings of point-to-point
//!   messages, timers, and broadcasts, the two engines pop the exact same
//!   event sequence, whether a broadcast block is taken whole (`pop`) or
//!   unrolled per target (`Iterator`). Bit-equality is the strongest
//!   legal tie-break of the `(time, insertion order)` contract: every
//!   FIFO tie resolves the same way on both.
//! * **Whole runs** — [`parsim::run`] (lanes) and [`parsim::run_reference`]
//!   (single heap) produce identical `RunResult`s field for field — peaks,
//!   makespan, traffic, metrics, recordings, digests — across random
//!   strategies, perturbation seeds, and kill/join schedules.

use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::engine::{Delivery, EventPayload, Sim, SingleHeapSim};
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

fn strategy_cfg(which: usize, nprocs: usize) -> SolverConfig {
    let base = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(nprocs) };
    match which {
        0 => base,
        1 => base.with_memory_strategy(),
        _ => SolverConfig {
            slave_selection: SlaveSelection::Hybrid,
            task_selection: TaskSelection::MemoryAwareGlobal,
            ..base.with_memory_strategy()
        },
    }
}

/// Every field of two `RunResult`s must match (bit-identity across
/// engines). Spelled out so a new field cannot silently escape the
/// comparison — adding one is a compile error here.
fn assert_results_identical(a: &RunResult, b: &RunResult) {
    let RunResult {
        peaks,
        max_peak,
        avg_peak,
        makespan,
        messages,
        events_delivered,
        total_peaks,
        factor_entries,
        nodes_done,
        total_nodes,
        dropped_messages,
        forced_activations,
        final_active,
        underflows,
        metrics,
        recording,
        timeseries,
        factor_digest,
        dead,
    } = a;
    assert_eq!(peaks, &b.peaks);
    assert_eq!(max_peak, &b.max_peak);
    assert_eq!(avg_peak, &b.avg_peak);
    assert_eq!(makespan, &b.makespan);
    assert_eq!(messages, &b.messages);
    assert_eq!(events_delivered, &b.events_delivered);
    assert_eq!(total_peaks, &b.total_peaks);
    assert_eq!(factor_entries, &b.factor_entries);
    assert_eq!(nodes_done, &b.nodes_done);
    assert_eq!(total_nodes, &b.total_nodes);
    assert_eq!(dropped_messages, &b.dropped_messages);
    assert_eq!(forced_activations, &b.forced_activations);
    assert_eq!(final_active, &b.final_active);
    assert_eq!(underflows, &b.underflows);
    assert_eq!(metrics, &b.metrics);
    assert_eq!(factor_digest, &b.factor_digest);
    assert_eq!(dead, &b.dead);
    assert_eq!(recording, &b.recording, "recordings must be bit-identical");
    assert_eq!(timeseries, &b.timeseries, "timeseries must be bit-identical");
}

/// Names one leg's outcome for the divergence message of the membership
/// property below.
fn outcome_name<E>(r: &std::thread::Result<Result<RunResult, E>>) -> &'static str {
    match r {
        Ok(Ok(_)) => "completed",
        Ok(Err(_)) => "returned an error",
        Err(_) => "panicked",
    }
}

/// One queued operation of the raw-order property, drawn by proptest as
/// a `(kind, delay, a, b)` tuple: kind 0 = point-to-point message from
/// `a` to `b`, kind 1 = timer on `a` with key `b`, kind 2 = broadcast
/// from `a` (processor indices are taken modulo the machine size).
type Op = (usize, u64, usize, u64);

fn apply_op(op: Op, nprocs: usize, lanes: &mut Sim<u64>, heap: &mut SingleHeapSim<u64>, tag: u64) {
    let (kind, delay, a, b) = op;
    match kind {
        0 => {
            let p = EventPayload::Message { from: a % nprocs, to: b as usize % nprocs, msg: tag };
            lanes.schedule(delay, p.clone());
            heap.schedule(delay, p);
        }
        1 => {
            lanes.schedule_timer(a % nprocs, delay, b);
            heap.schedule_timer(a % nprocs, delay, b);
        }
        _ => {
            lanes.schedule_broadcast(delay, a % nprocs, nprocs, tag);
            heap.schedule_broadcast(delay, a % nprocs, nprocs, tag);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Raw queue order: the lane engine's delivery sequence is exactly
    /// the single-heap sequence — the same (hence a legal) resolution of
    /// every FIFO tie — for arbitrary operation interleavings, including
    /// operations scheduled reactively mid-drain and mid-broadcast.
    #[test]
    fn lane_order_is_the_single_heap_order(
        nprocs in 2usize..24,
        ops in prop::collection::vec((0usize..3, 0u64..40, 0usize..24, any::<u64>()), 1..120),
        reschedule_each in 0u64..4,
    ) {
        let mut lanes: Sim<u64> = Sim::with_procs(nprocs);
        let mut heap: SingleHeapSim<u64> = SingleHeapSim::new();
        for (i, &op) in ops.iter().enumerate() {
            apply_op(op, nprocs, &mut lanes, &mut heap, i as u64);
        }
        let mut drained = 0u64;
        let mut pending_ops: Vec<Op> = ops.iter().rev().copied().collect();
        loop {
            prop_assert_eq!(lanes.pending(), heap.pending());
            let (a, b) = (lanes.next(), heap.next());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
            drained += 1;
            // Reactive pushes while draining (also mid-broadcast): the
            // merge front must stay coherent under interleaved updates.
            if drained % 7 < reschedule_each {
                if let Some(op) = pending_ops.pop() {
                    apply_op(op, nprocs, &mut lanes, &mut heap, 10_000 + drained);
                }
            }
        }
        prop_assert_eq!(lanes.delivered(), heap.delivered());
        prop_assert_eq!(lanes.now(), heap.now());
    }

    /// The block seam: popping the lane engine entry by entry — blocks
    /// handed over whole, then unrolled by the adapter — yields exactly
    /// the per-target sequence the single heap's per-event iteration
    /// does, with the counters agreeing after every pop, including under
    /// reactive pushes scheduled between blocks.
    #[test]
    fn block_pop_unrolls_to_the_single_heap_order(
        nprocs in 2usize..24,
        ops in prop::collection::vec((0usize..3, 0u64..40, 0usize..24, any::<u64>()), 1..120),
        reschedule_each in 0u64..4,
    ) {
        let mut lanes: Sim<u64> = Sim::with_procs(nprocs);
        let mut heap: SingleHeapSim<u64> = SingleHeapSim::new();
        for (i, &op) in ops.iter().enumerate() {
            apply_op(op, nprocs, &mut lanes, &mut heap, i as u64);
        }
        let mut pops = 0u64;
        let mut pending_ops: Vec<Op> = ops.iter().rev().copied().collect();
        while let Some(delivery) = lanes.pop() {
            match delivery {
                Delivery::One(e) => prop_assert_eq!(Some(e), heap.next()),
                Delivery::Block(b) => {
                    prop_assert_eq!(b.len(), nprocs - 1);
                    prop_assert_eq!(b.at, lanes.now());
                    for e in b.unroll() {
                        prop_assert_eq!(Some(e), heap.next());
                    }
                }
            }
            prop_assert_eq!(lanes.pending(), heap.pending());
            prop_assert_eq!(lanes.delivered(), heap.delivered());
            pops += 1;
            if pops % 5 < reschedule_each {
                if let Some(op) = pending_ops.pop() {
                    apply_op(op, nprocs, &mut lanes, &mut heap, 10_000 + pops);
                }
            }
        }
        prop_assert_eq!(heap.next(), None);
        prop_assert_eq!(lanes.now(), heap.now());
    }
}

proptest! {
    // Each case runs two full simulations; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Quiet and perturbed runs: every `RunResult` field is identical
    /// across the two engines, for every strategy, with and without
    /// fault-model perturbations (jitter, delay, drops, stragglers).
    #[test]
    fn run_results_identical_across_engines(
        seed in any::<u64>(),
        level in 0.0f64..3.0,
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
        record in any::<bool>(),
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let cfg = SolverConfig {
            fault: (level > 0.05).then(|| FaultModel::intensity(seed, level)),
            record_events: record,
            ..cfg0
        };
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
        assert_results_identical(&a, &b);
    }

    /// Membership runs: processor loss, recovery, join, and rebalancing
    /// follow the exact same causal order on both engines — kills and
    /// joins are keyed on delivered-event indices, which the equivalence
    /// above makes engine-invariant. Some random kill+join schedules land
    /// outside the recovery protocol's supported envelope (e.g. a kill
    /// that leaves a single survivor before a dormant processor joins
    /// trips a protocol debug assertion); equivalence still holds there —
    /// both engines must reach the exact same edge — so the property
    /// asserts identical outcomes, successful or not, and field-identical
    /// results whenever both runs complete.
    #[test]
    fn kill_join_runs_identical_across_engines(
        strategy in 0usize..3,
        nprocs in 3usize..8,
        nx in 10usize..15,
        kill_idx in 50u64..400,
        join_idx in 100u64..600,
        victim in 1usize..8,
        joiner in 1usize..8,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        // Victim and joiner: distinct, nonzero (proc 0 owns the root
        // subtree in these small mappings; keep it alive so runs finish).
        let victim = 1 + victim % (nprocs - 1);
        let mut joiner = 1 + joiner % (nprocs - 1);
        if joiner == victim {
            joiner = if victim + 1 < nprocs { victim + 1 } else { 1 };
        }
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(kill_idx, victim)],
                join_at: vec![(join_idx, joiner)],
                ..FaultModel::quiet(11)
            }),
            ..cfg0
        };
        let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parsim::run(&tree, &map, &cfg)
        }));
        let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parsim::run_reference(&tree, &map, &cfg)
        }));
        match (a, b) {
            (Ok(Ok(a)), Ok(Ok(b))) => assert_results_identical(&a, &b),
            (Ok(Err(ea)), Ok(Err(eb))) => {
                prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"),
                    "both runs failed, but differently");
            }
            (Err(_), Err(_)) => {
                // Both engines drove the protocol into the identical
                // out-of-envelope edge: equivalence holds.
            }
            (a, b) => panic!(
                "engines diverged: lanes {}, reference {}",
                outcome_name(&a),
                outcome_name(&b),
            ),
        }
    }
}

/// The sampler's timer chain (and its termination logic) is also
/// engine-invariant: sampled runs match field for field, series included.
#[test]
fn sampled_runs_identical_across_engines() {
    let tree = tree_for(14);
    for strategy in 0..3 {
        let cfg = SolverConfig { sample_every: Some(500), ..strategy_cfg(strategy, 6) };
        let map = compute_mapping(&tree, &cfg);
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
        assert_results_identical(&a, &b);
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
/// digests (recording on), and every case also runs on the single-heap
/// reference engine. The positions are read off a log of the
/// delivered-event stream. With everybody up, events 613..=617 are one
/// block from processor 2 (targets 0, 1, 3, 4, 5); with processor 5
/// dormant, events 376..=380 are one block from processor 3 (targets 0,
/// 1, 2, 4, 5). After a change in what is delivered, find the same two
/// blocks again (processor 2's and 3's first memory delta at t=28 and
/// t=27) and re-derive the digests (`-- --nocapture` prints them):
/// `peaks`, `makespan`, `factor_digest` and `nodes_done` of the seven
/// cases should not move when only the traffic did.
#[test]
fn kills_and_joins_inside_a_block_match_the_per_event_engine() {
    let tree = tree_for(14);
    let cfg0 = SolverConfig { record_events: true, ..strategy_cfg(1, 6) };
    let map = compute_mapping(&tree, &cfg0);
    type Schedule = (&'static [(u64, usize)], &'static [(u64, usize)]);
    let cases: [(Schedule, u64); 7] = [
        // Kill at the block's first target; the victim is a later target.
        ((&[(613, 4)], &[]), 0x85d0_2a98_00cd_fd63),
        // Kill at a middle target; the victim is that very target.
        ((&[(615, 3)], &[]), 0xd229_cea6_3f1b_22da),
        // Kill at the last target; the victim is the block's sender.
        ((&[(617, 2)], &[]), 0x70c4_163a_2df8_0a96),
        // Join at the first, a middle and the last target (the joiner
        // itself: delivered, not parked).
        ((&[], &[(376, 5)]), 0xc89f_3e2f_4e62_efb5),
        ((&[], &[(378, 5)]), 0x021d_a653_1a46_8325),
        ((&[], &[(380, 5)]), 0x3165_8a79_ed33_ffb1),
        // A kill and a join inside the same block.
        ((&[(377, 1)], &[(379, 5)]), 0xd2f0_44ff_b7b4_3f23),
    ];
    for ((kill_at, join_at), want) in cases {
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: kill_at.to_vec(),
                join_at: join_at.to_vec(),
                ..FaultModel::quiet(1)
            }),
            ..cfg0.clone()
        };
        let a = parsim::run(&tree, &map, &cfg).unwrap();
        let b = parsim::run_reference(&tree, &map, &cfg).unwrap();
        assert_results_identical(&a, &b);
        assert_eq!(a.dead.len(), kill_at.len(), "kills {kill_at:?} must fire");
        assert_eq!(a.metrics.recovery.joins_observed as usize, join_at.len());
        eprintln!("kills {kill_at:?} joins {join_at:?}: {:#018x}", fingerprint(&a));
        assert_eq!(fingerprint(&a), want, "kills {kill_at:?} joins {join_at:?}");
    }
}
