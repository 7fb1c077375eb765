//! Static-vs-malleable core-allocation table over the full paper set.
//!
//! Machine model: `nprocs` processors with **4 cores each** (the pool
//! `CoreAlloc::malleable` is sized for). A *rigid* front can only use
//! its own processor's cores, so the feasible static budgets are
//! `Static(c)`, c ∈ {1, 2, 4}; a *malleable* front may additionally
//! collect idle peers' cores, up to 8 — that borrowing is the entire
//! point of malleability, and `pool/busy` is how the grant rule prices
//! it. `Static(8)` is also printed as an **oracle** column: it presumes
//! 8 cores resident on every processor simultaneously (2× the machine)
//! and is therefore infeasible — the interesting question is how close
//! malleable gets to it with half the silicon.
//!
//! For every paper matrix (plus one synthetic grid) the simulator runs
//! all five configurations under the memory-aware strategy over the
//! *same* tree and static mapping; every configuration prices durations
//! through the same speedup curve, so the comparison isolates *who gets
//! the cores when* — not the curve itself.
//!
//! The acceptance bar this binary pins: malleable must tie or beat the
//! *best feasible* static budget (chosen per matrix, with hindsight) on
//! at least 6 of the 8 paper matrices. EXPERIMENTS.md reproduces the
//! printed table; CI does not run this binary (it is the local
//! acceptance run — `tests/malleable.rs` carries the cheap subset guard).
//!
//! Usage: `malleable_table [--nprocs N]` (default 32).

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::{parsim, CoreAlloc};
use mf_order::OrderingKind;
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_sparse::gen::paper::ALL_PAPER_MATRICES;
use mf_symbolic::AmalgamationOptions;

/// Budgets a rigid scheduler can actually run on a 4-core-per-processor
/// machine. `ORACLE_BUDGET` (8) is infeasible and reported separately.
const STATIC_BUDGETS: [usize; 3] = [1, 2, 4];
const ORACLE_BUDGET: usize = 8;

fn cfg_with(nprocs: usize, alloc: CoreAlloc) -> SolverConfig {
    SolverConfig { core_alloc: alloc, ..paper_scale_config(nprocs).with_memory_strategy() }
}

fn main() {
    let mut nprocs = 32usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nprocs" => {
                nprocs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--nprocs needs an integer"));
            }
            other => panic!("unknown argument {other:?} (expected --nprocs N)"),
        }
    }

    // Synthetic companion case: a 60x60 box-stencil grid, AMD-ordered.
    // Regular grids have balanced trees (the opposite stress from the
    // paper's skewed industrial trees), so they check that malleability
    // does not *hurt* when tree-parallelism alone already saturates.
    let grid = grid2d(60, 60, Stencil::Box);
    let grid_perm = OrderingKind::Amd.compute(&grid);
    let grid_tree = mf_symbolic::analyze(&grid, &grid_perm, &AmalgamationOptions::default()).tree;

    println!(
        "{:<12} {:>9} {:>9} {:>9} | {:>9} {:>10} {:>7} | {:>9} {:>9}",
        "matrix",
        "static1",
        "static2",
        "static4",
        "malleable",
        "vs best",
        "result",
        "oracle8",
        "vs oracle"
    );
    let mut wins = 0usize;
    let mut rows = 0usize;
    let mut run_case = |name: &str, tree: &mf_symbolic::AssemblyTree, paper: bool| {
        let map = compute_mapping(tree, &cfg_with(nprocs, CoreAlloc::Static(1)));
        let makespan_with = |alloc: CoreAlloc| {
            parsim::run(tree, &map, &cfg_with(nprocs, alloc))
                .unwrap_or_else(|e| panic!("{name}/{alloc:?}: {e}"))
                .makespan
        };
        let statics: Vec<u64> =
            STATIC_BUDGETS.iter().map(|&c| makespan_with(CoreAlloc::Static(c))).collect();
        let oracle = makespan_with(CoreAlloc::Static(ORACLE_BUDGET));
        let mall = makespan_with(CoreAlloc::malleable(4 * nprocs));
        let best = *statics.iter().min().unwrap();
        let gain = 100.0 * (best as f64 - mall as f64) / best as f64;
        let vs_oracle = 100.0 * (mall as f64 - oracle as f64) / oracle as f64;
        let tie_or_win = mall <= best;
        if paper {
            rows += 1;
            wins += tie_or_win as usize;
        }
        println!(
            "{:<12} {:>9} {:>9} {:>9} | {:>9} {:>+9.1}% {:>7} | {:>9} {:>+8.1}%",
            name,
            statics[0],
            statics[1],
            statics[2],
            mall,
            gain,
            if tie_or_win { "ok" } else { "LOSS" },
            oracle,
            vs_oracle
        );
    };
    for m in ALL_PAPER_MATRICES {
        let tree = build_tree(m, OrderingKind::Metis, None);
        run_case(m.name(), &tree, true);
    }
    run_case("GRID60x60", &grid_tree, false);

    println!(
        "\nmalleable ties/beats best feasible static on {wins}/{rows} paper matrices \
         (acceptance floor: 6/8); machine = {nprocs} procs x 4 cores \
         (pool {}), malleable may borrow idle peers' cores up to 8/front; \
         oracle8 assumes 8 resident cores everywhere (2x the machine)",
        4 * nprocs
    );
    assert!(wins >= 6, "malleable won only {wins}/{rows} — below the 6/8 acceptance floor");
}
