//! The two hosts of the sans-io `SchedulerCore` — the discrete-event
//! simulator (`parsim::run`) and the threaded executor
//! (`mf_exec::run_threads`) — produce the same `RunResult`, every field:
//! peaks, makespan, metrics, factor digest, the flight recording and the
//! sampled time series. Where the cores live (one thread, or one thread
//! each behind a channel) changes nothing, and every worker's physical
//! memory ledger agrees with its core's accounting (the executor checks
//! that itself and fails the run otherwise). Equal recordings audit and
//! attribute equally, so this also covers `mf-obs` on either host.
//!
//! Release builds run all eight paper matrices at P = 16; debug builds
//! TWOTONE and SHIP_003 at P = 8.

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::{RecoveryConfig, SolverConfig};
use mf_core::mapping::compute_mapping;
use mf_core::{parsim, CoreAlloc};
use mf_order::OrderingKind;
use mf_sim::FaultModel;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use mf_symbolic::AssemblyTree;

/// Paper scale with both observers on: the unbounded flight recorder
/// and the telemetry sampler.
fn observed(nprocs: usize) -> SolverConfig {
    SolverConfig { record_events: true, sample_every: Some(1000), ..paper_scale_config(nprocs) }
}

/// Runs `cfg` on both hosts over one static mapping and asserts the
/// results are equal.
fn assert_hosts_agree(what: &str, tree: &AssemblyTree, cfg: &SolverConfig) -> parsim::RunResult {
    let map = compute_mapping(tree, cfg);
    let sim = parsim::run(tree, &map, cfg).unwrap_or_else(|e| panic!("{what}: simulator: {e}"));
    let thr = mf_exec::run_threads(tree, &map, cfg)
        .unwrap_or_else(|e| panic!("{what}: threaded executor: {e}"));
    // One field at a time only to name the first that differs; the
    // whole-result comparison below is the claim.
    assert_eq!(sim.peaks, thr.peaks, "{what}: active peaks differ");
    assert_eq!(sim.makespan, thr.makespan, "{what}: makespan differs");
    assert_eq!(sim.metrics, thr.metrics, "{what}: metrics differ");
    assert!(sim.recording == thr.recording, "{what}: flight recordings differ");
    assert!(sim.timeseries == thr.timeseries, "{what}: sampled series differ");
    assert!(sim == thr, "{what}: results differ");
    assert!(sim.recording.as_ref().is_some_and(|r| !r.is_empty()), "{what}: nothing recorded");
    assert!(sim.timeseries.as_ref().is_some_and(|t| t.total_len() > 0), "{what}: no samples");
    sim
}

/// The processor count and matrices of this build's grid.
fn grid() -> (usize, &'static [PaperMatrix]) {
    if cfg!(debug_assertions) {
        (8, &[PaperMatrix::TwoTone, PaperMatrix::Ship003])
    } else {
        (16, &ALL_PAPER_MATRICES)
    }
}

#[test]
fn sim_and_threads_produce_the_same_result_under_every_strategy() {
    let (nprocs, matrices) = grid();
    let strategies = [
        ("workload", observed(nprocs).with_workload_strategy()),
        ("memory", observed(nprocs).with_memory_strategy()),
        // Malleable grants feed the shared speedup-curve duration model;
        // both hosts must still agree tick for tick.
        (
            "malleable",
            SolverConfig {
                core_alloc: CoreAlloc::Malleable,
                ..observed(nprocs).with_memory_strategy()
            },
        ),
    ];
    for &m in matrices {
        let tree = build_tree(m, OrderingKind::Metis, None);
        for (name, cfg) in &strategies {
            assert_hosts_agree(&format!("{}/{name} P={nprocs}", m.name()), &tree, cfg);
        }
    }
}

#[test]
fn sim_and_threads_produce_the_same_result_through_a_kill_and_a_join() {
    let (nprocs, _) = grid();
    let tree = build_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
    let cfg = SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: vec![(128, 1)],
            join_at: vec![(3000, nprocs - 1)],
            ..FaultModel::quiet(7)
        }),
        ..observed(nprocs).with_memory_strategy()
    };
    let r = assert_hosts_agree(&format!("TWOTONE/AMD kill+join P={nprocs}"), &tree, &cfg);
    assert_eq!(r.dead, [1], "the kill must fire");
    assert_eq!(r.metrics.recovery.joins_observed, 1, "the join must fire");
    assert_eq!(r.nodes_done, r.total_nodes, "the recovered run must finish every front");
}
