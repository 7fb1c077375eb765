//! Property tests of the robustness subsystem: whatever the perturbation
//! seed and the scheduling strategy, a faulted run must still terminate,
//! conserve contribution-block entries, and produce the factors of the
//! unperturbed factorization; a capacity-capped run must stay under its
//! cap on every processor.

use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::FaultModel;
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
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

proptest! {
    // Each case runs a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Perturbed runs terminate with the right answer: every front is
    /// factorized, every stacked contribution block is consumed (entry
    /// conservation), and the factor entries are exactly the unperturbed
    /// run's — jitter, delay, reordering and status drops may change the
    /// schedule but never the factorization.
    #[test]
    fn perturbed_runs_terminate_and_preserve_factors(
        seed in any::<u64>(),
        level in 0.5f64..4.0,
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 12usize..18,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let plain = parsim::run(&tree, &map, &cfg0).unwrap();
        let cfg = SolverConfig {
            fault: Some(FaultModel::intensity(seed, level)),
            ..cfg0
        };
        let r = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert!(r.final_active.iter().all(|&a| a == 0),
            "leaked stack entries: {:?}", r.final_active);
        prop_assert_eq!(
            r.factor_entries.iter().sum::<u64>(),
            plain.factor_entries.iter().sum::<u64>(),
        );
        // Same seed, same level: the perturbation itself is deterministic.
        let r2 = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.peaks, r2.peaks);
        prop_assert_eq!(r.makespan, r2.makespan);
        prop_assert_eq!(r.dropped_messages, r2.dropped_messages);
    }

    /// Hard memory caps hold: with capacity = 1.2x the uncapped peak, the
    /// run completes and no processor's stack+front footprint ever
    /// exceeds the cap.
    #[test]
    fn capped_runs_never_exceed_capacity(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 12usize..18,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let free = parsim::run(&tree, &map, &cfg0).unwrap();
        let cap = free.max_peak + free.max_peak / 5;
        let capped = SolverConfig { capacity: Some(cap), ..cfg0 };
        let r = parsim::run(&tree, &map, &capped).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert!(r.peaks.iter().all(|&pk| pk <= cap),
            "peaks {:?} exceed capacity {}", r.peaks, cap);
        prop_assert!(r.final_active.iter().all(|&a| a == 0));
    }
}

proptest! {
    // Membership-fault cases replay the whole lease/recovery machinery;
    // keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random kill schedules recover to the exact fault-free factors:
    /// whatever the victim, the event index, and the strategy, the run
    /// terminates, the factor digest matches the unperturbed run, and
    /// every survivor's stack drains to zero (orphaned contribution
    /// blocks are reclaimed, re-executed subtrees are consumed).
    #[test]
    fn random_kill_schedules_recover_with_identical_factors(
        seed in any::<u64>(),
        kill_idx in 0u64..4000,
        victim_pick in any::<usize>(),
        strategy in 0usize..3,
        nprocs in 3usize..6,
        nx in 12usize..17,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let plain = parsim::run(&tree, &map, &cfg0).unwrap();
        let victim = victim_pick % nprocs;
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(kill_idx, victim)],
                ..FaultModel::quiet(seed)
            }),
            ..cfg0
        };
        let r = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert_eq!(r.factor_digest, plain.factor_digest,
            "victim {} at event {}: factors diverged", victim, kill_idx);
        if r.dead.is_empty() {
            // The run finished before the kill index was reached.
            prop_assert_eq!(r.metrics.recovery.kills_observed, 0);
        } else {
            prop_assert_eq!(&r.dead, &vec![victim]);
            prop_assert_eq!(r.metrics.recovery.kills_observed, 1);
            for (p, &a) in r.final_active.iter().enumerate() {
                if p != victim {
                    prop_assert_eq!(a, 0, "survivor {} leaked {} entries", p, a);
                }
            }
        }
    }

    /// Random join schedules: a dormant processor entering mid-run does
    /// not perturb the factors, and every stack is empty at completion.
    #[test]
    fn random_join_schedules_preserve_factors(
        seed in any::<u64>(),
        join_idx in 0u64..4000,
        strategy in 0usize..3,
        nprocs in 3usize..6,
        nx in 12usize..17,
    ) {
        let tree = tree_for(nx);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let plain = parsim::run(&tree, &map, &cfg0).unwrap();
        let joiner = nprocs - 1;
        let cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                join_at: vec![(join_idx, joiner)],
                ..FaultModel::quiet(seed)
            }),
            ..cfg0
        };
        let r = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert_eq!(r.factor_digest, plain.factor_digest);
        prop_assert!(r.dead.is_empty());
        prop_assert!(r.final_active.iter().all(|&a| a == 0));
        prop_assert!(r.metrics.recovery.joins_observed <= 1);
    }

    /// Caps hold through recovery: with a hard per-processor capacity,
    /// a mid-run kill re-executes the orphaned subtree on survivors
    /// without any peak ever exceeding the cap — capacity-aware adopter
    /// selection and the serialize-on-master fallback must keep the
    /// invariant, not merely the happy path.
    #[test]
    fn capped_runs_survive_kills_within_cap(
        seed in any::<u64>(),
        kill_idx in 0u64..3000,
        victim_pick in any::<usize>(),
        strategy in 0usize..3,
        nprocs in 3usize..6,
    ) {
        let tree = tree_for(14);
        let cfg0 = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg0);
        let free = parsim::run(&tree, &map, &cfg0).unwrap();
        let cap = free.max_peak + free.max_peak / 2;
        let victim = victim_pick % nprocs;
        let cfg = SolverConfig {
            capacity: Some(cap),
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(kill_idx, victim)],
                ..FaultModel::quiet(seed)
            }),
            ..cfg0
        };
        let r = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert_eq!(r.factor_digest, free.factor_digest);
        prop_assert!(r.peaks.iter().all(|&pk| pk <= cap),
            "peaks {:?} exceed capacity {} during recovery", r.peaks, cap);
    }
}

/// Runs `cfg`, whose fault model (if any) only kills and joins, and the
/// same run forced onto the per-message path by a network kill switch
/// that never trips. Without an injector every broadcast is delivered as
/// one block, one row sweep per segment between the schedule's due
/// indices; with one, every target is its own queue entry. The two runs
/// must agree bit for bit, recording included. Returns the block-path
/// run.
fn block_path_matches_per_message_path(tree: &AssemblyTree, cfg: &SolverConfig) -> RunResult {
    let model = cfg.fault.clone().unwrap_or_else(|| FaultModel::quiet(0));
    let model = &model;
    assert!(!model.perturbs_messages(), "the block path needs a membership-only model");
    let forced = SolverConfig {
        fault: Some(FaultModel { kill_network_after: Some(u64::MAX), ..model.clone() }),
        ..cfg.clone()
    };
    let map = compute_mapping(tree, cfg);
    let blocks = parsim::run(tree, &map, cfg).unwrap();
    let per_message = parsim::run(tree, &map, &forced).unwrap();
    let schedule = (&model.kill_at, &model.join_at);
    assert_eq!(blocks.peaks, per_message.peaks, "{schedule:?}");
    assert_eq!(blocks.makespan, per_message.makespan, "{schedule:?}");
    assert_eq!(blocks.messages, per_message.messages, "{schedule:?}");
    assert_eq!(blocks.events_delivered, per_message.events_delivered, "{schedule:?}");
    assert_eq!(blocks.factor_digest, per_message.factor_digest, "{schedule:?}");
    assert_eq!(blocks.dead, per_message.dead, "{schedule:?}");
    assert!(blocks.recording.is_some(), "the recorder must be on");
    assert!(blocks.recording == per_message.recording, "{schedule:?}: recordings differ");
    assert!(blocks == per_message, "{schedule:?}: results differ");
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A kill/join schedule needs no fault injector: random victims,
    /// indices and seeds, on both strategies, give the same run with
    /// every broadcast one block as with every target routed alone.
    #[test]
    fn membership_only_runs_match_the_per_message_path(
        seed in any::<u64>(),
        kill_idx in 0u64..4000,
        victim_pick in any::<usize>(),
        join_idx in 0u64..4000,
        with_join in any::<bool>(),
        strategy in 0usize..2,
        nprocs in 3usize..6,
    ) {
        let tree = tree_for(14);
        // The joiner is the last processor; the victim is another one.
        let joiner = nprocs - 1;
        let victim = victim_pick % joiner;
        let cfg = SolverConfig {
            record_events: true,
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(kill_idx, victim)],
                join_at: if with_join { vec![(join_idx, joiner)] } else { Vec::new() },
                ..FaultModel::quiet(seed)
            }),
            ..strategy_cfg(strategy, nprocs)
        };
        let r = block_path_matches_per_message_path(&tree, &cfg);
        prop_assert_eq!(r.nodes_done, r.total_nodes);
    }
}

/// The benchmark's recovered cell: TWOTONE under AMD at P=32 with the
/// paper-scale machine, two kills and a join, takes the block path and
/// equals its per-message twin.
#[test]
fn the_benchmark_recovery_cell_matches_the_per_message_path() {
    let a = PaperMatrix::TwoTone.instantiate();
    let p = OrderingKind::Amd.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    let cfg = SolverConfig {
        type2_front_min: 150,
        type3_front_min: 500,
        min_rows_per_slave: 12,
        record_events: true,
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: vec![(1000, 3), (2500, 11)],
            join_at: vec![(3000, 31)],
            ..FaultModel::quiet(7)
        }),
        ..SolverConfig::mumps_baseline(32).with_memory_strategy()
    };
    let r = block_path_matches_per_message_path(&s.tree, &cfg);
    assert_eq!(r.dead, vec![3, 11]);
    assert_eq!(r.metrics.recovery.joins_observed, 1);
}

/// The recorded and sampled path of the block loop: a block's row sweep
/// pushes the replaced beliefs' ages into a buffer that `SimDriver` hands
/// to one `StatusApply` row. On four paper matrices under four orderings
/// at P=32, with the recorder and the sampler on, the result and the
/// recording equal the per-message path's, which records every target
/// as its own event for the recorder to merge.
#[test]
fn recorded_block_sweeps_match_the_per_message_path() {
    use PaperMatrix::{Gupta3, Pre2, Ship003, TwoTone};
    let cells = [
        (TwoTone, OrderingKind::Amd),
        (Gupta3, OrderingKind::Metis),
        (Pre2, OrderingKind::Amf),
        (Ship003, OrderingKind::Pord),
    ];
    for (matrix, ordering) in cells {
        let a = matrix.instantiate();
        let p = ordering.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
        apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        let cfg = SolverConfig {
            type2_front_min: 150,
            type3_front_min: 500,
            min_rows_per_slave: 12,
            record_events: true,
            sample_every: Some(1000),
            ..SolverConfig::mumps_baseline(32).with_memory_strategy()
        };
        let r = block_path_matches_per_message_path(&s.tree, &cfg);
        assert_eq!(r.nodes_done, r.total_nodes, "{matrix:?}/{ordering:?}");
        assert!(r.timeseries.is_some(), "the sampler must be on");
    }
}

/// Kill/join runs cut a block into segments at each due index. The
/// schedules below put the cut at a block's edges and in its middle, on
/// the tree and configuration whose delivered-event log
/// `engine_equiv::kills_and_joins_inside_a_block_match_the_per_event_engine`
/// reads: with everybody up, events 613..=617 are one block from
/// processor 2 (targets 0, 1, 3, 4, 5); with processor 5 dormant,
/// events 376..=380 are one block from processor 3 (targets 0, 1, 2, 4,
/// 5). A dormant processor 2 is a middle target of every block sent by
/// 3, 4 or 5, so until its join each of those parks its message
/// mid-block. Each run equals the per-message path.
#[test]
fn kills_and_joins_at_segment_edges_match_the_per_message_path() {
    let tree = tree_for(14);
    let base = SolverConfig {
        record_events: true,
        recovery: Some(RecoveryConfig::default()),
        ..SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(6) }
            .with_memory_strategy()
    };
    type Schedule = (&'static [(u64, usize)], &'static [(u64, usize)]);
    let cases: [Schedule; 6] = [
        // A kill on the block's first target; the victim is a later one.
        (&[(613, 4)], &[]),
        // A kill on the block's first target; the victim is that target.
        (&[(613, 0)], &[]),
        // A kill on the block's last target; the victim is its sender.
        (&[(617, 2)], &[]),
        // A join in mid-block: targets 0 and 1 before it, 2, 4 and the
        // joiner after it.
        (&[], &[(378, 5)]),
        // Processor 2 dormant until event 2000: parked in mid-block.
        (&[], &[(2000, 2)]),
        // Both: parked mid-block, then a kill, then the join.
        (&[(1500, 4)], &[(2000, 2)]),
    ];
    for (kill_at, join_at) in cases {
        let cfg = SolverConfig {
            fault: Some(FaultModel {
                kill_at: kill_at.to_vec(),
                join_at: join_at.to_vec(),
                ..FaultModel::quiet(1)
            }),
            ..base.clone()
        };
        let r = block_path_matches_per_message_path(&tree, &cfg);
        assert_eq!(r.dead.len(), kill_at.len(), "kills {kill_at:?} must fire");
        assert_eq!(r.metrics.recovery.joins_observed as usize, join_at.len());
        assert_eq!(r.nodes_done, r.total_nodes);
    }
}

/// Kills scheduled around the finishing-drain window — after the last
/// front completed, while in-flight live traffic still drains and the
/// failure detector winds down. The scan is dense over the last events
/// of the run (the window's position depends on the schedule; it has
/// been the last ~70 events here) and over every victim: a kill up to
/// the last event — inside the window too, where the driver puts the
/// wound-down detector back so the loss is declared — recovers to the
/// fault-free digest, and a kill past the end of the run never fires.
/// Nothing stalls, hangs, panics, or moves the digest.
#[test]
fn kills_around_the_finishing_drain_window_recover_or_never_fire() {
    let tree = tree_for(14);
    let quiet = SolverConfig { recovery: Some(RecoveryConfig::default()), ..strategy_cfg(0, 4) };
    let map = compute_mapping(&tree, &quiet);
    let plain = parsim::run(&tree, &map, &quiet).unwrap();
    // The fault schedule is keyed on delivered-event indices: the last
    // event of the fault-free run is the last index a kill can fire on.
    let end = plain.events_delivered;
    let (mut recovered, mut never_fired) = (0usize, 0usize);
    for idx in end - 300..=end + 20 {
        for victim in 0..4usize {
            let cfg = SolverConfig {
                fault: Some(FaultModel { kill_at: vec![(idx, victim)], ..FaultModel::quiet(1) }),
                ..quiet.clone()
            };
            let r = parsim::run(&tree, &map, &cfg)
                .unwrap_or_else(|e| panic!("kill_at=({idx},{victim}): {e}"));
            assert_eq!(r.nodes_done, r.total_nodes, "kill_at=({idx},{victim})");
            assert_eq!(r.factor_digest, plain.factor_digest, "kill_at=({idx},{victim})");
            let fired = if idx <= end { vec![victim] } else { vec![] };
            assert_eq!(r.dead, fired, "kill_at=({idx},{victim})");
            recovered += fired.len();
            never_fired += fired.is_empty() as usize;
        }
    }
    assert!(recovered > 0 && never_fired > 0, "the scan must straddle the end of the run");
}

/// The full paper suite under single kills, both memory strategies:
/// kills at several event indices on each of the eight matrices must
/// reproduce the fault-free factor digest. Runs in the release suite
/// (`cargo test --release`); too slow for the debug tier.
#[test]
#[cfg_attr(debug_assertions, ignore = "release suite: run with --release")]
fn single_kills_on_all_paper_matrices_reproduce_factors() {
    const NPROCS: usize = 8;
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate_scaled(0.05);
        let p = OrderingKind::Metis.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
        apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        let tree = s.tree;
        for strategy in [1usize, 2] {
            let cfg0 = strategy_cfg(strategy, NPROCS);
            let map = compute_mapping(&tree, &cfg0);
            let plain = parsim::run(&tree, &map, &cfg0).unwrap();
            for (kill_idx, victim) in [(1u64, 0usize), (200, 3), (1500, 7)] {
                let cfg = SolverConfig {
                    recovery: Some(RecoveryConfig::default()),
                    fault: Some(FaultModel {
                        kill_at: vec![(kill_idx, victim)],
                        ..FaultModel::quiet(7)
                    }),
                    ..cfg0.clone()
                };
                let r = parsim::run(&tree, &map, &cfg)
                    .unwrap_or_else(|e| panic!("{}: victim {victim} at {kill_idx}: {e}", m.name()));
                assert_eq!(r.nodes_done, r.total_nodes, "{}", m.name());
                assert_eq!(
                    r.factor_digest,
                    plain.factor_digest,
                    "{}: victim {victim} at {kill_idx}: factors diverged",
                    m.name()
                );
                for (q, &act) in r.final_active.iter().enumerate() {
                    if r.dead.contains(&q) {
                        continue;
                    }
                    assert_eq!(act, 0, "{}: survivor {q} leaked", m.name());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Perturbation and capacity composed: the run still terminates under
    /// the cap or degrades by deferring — it never hangs and never
    /// corrupts the factors.
    #[test]
    fn perturbed_capped_runs_still_complete(
        seed in any::<u64>(),
        level in 0.5f64..3.0,
        strategy in 0usize..3,
    ) {
        let tree = tree_for(14);
        let cfg0 = strategy_cfg(strategy, 4);
        let map = compute_mapping(&tree, &cfg0);
        let free = parsim::run(&tree, &map, &cfg0).unwrap();
        let cfg = SolverConfig {
            fault: Some(FaultModel::intensity(seed, level)),
            capacity: Some(free.max_peak + free.max_peak / 5),
            ..cfg0
        };
        let r = parsim::run(&tree, &map, &cfg).unwrap();
        prop_assert_eq!(r.nodes_done, r.total_nodes);
        prop_assert!(r.final_active.iter().all(|&a| a == 0));
        prop_assert_eq!(
            r.factor_entries.iter().sum::<u64>(),
            free.factor_entries.iter().sum::<u64>(),
        );
    }
}
