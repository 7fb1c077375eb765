//! Every committed result, one report per `results/<name>.txt`:
//! `paper <report>` prints that file.
//!
//! * `table1` — the test problems (synthetic analogues + paper metadata);
//! * `table2` — % decrease of the max stack peak, memory strategies vs.
//!   workload baseline, 8 matrices × 4 orderings, no splitting;
//! * `table3` — same on trees with large type-2 masters split;
//! * `table4` — absolute peaks, {no-split, split} × {workload, memory};
//! * `table5` — combined static + dynamic vs. original MUMPS strategy;
//! * `table6` — factorization-time loss of the memory strategies;
//! * `figures` — scenario reproductions of Figures 3, 4, 5, 6 and 8;
//! * `ablation` — which mechanism buys what;
//! * `scaling` — memory scalability over 1..32 processors;
//! * `reordering_memory` — the reordering study of the paper's \[12\];
//! * `malleable` — static vs. malleable core allocation (the malleable
//!   tasks of Guermouche/Marchal/Simon/Vivien, arXiv:1410.7249);
//! * `robustness` — each strategy under message noise, hard memory caps
//!   and processor loss;
//! * `synth_scale` — the memory-based strategy on a Table-1-scale
//!   synthetic tree at 32 to 1024 processors.
//!
//! The command line is exactly one report name; anything else is a
//! usage error (exit 2, nothing on stdout). Tables 2, 3, 5 and 6 print
//! one progress line per entry on stderr, `synth_scale` its host time per
//! processor count: stdout carries only what the simulation determines.

use mf_bench::obs::{die, parse_matrix};
use mf_bench::paper_data::{PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5, PAPER_TABLE6};
use mf_bench::scenarios::{figure4, figure5, figure6, figure8, synth_nd_tree, SynthConfig};
use mf_bench::sweep::{
    build_tree, paper_scale_config, render_percent_table, split_threshold_for, sweep_cells,
    CellResult, CellSpec,
};
use mf_core::blocking::equal_entry_blocks;
use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::driver::{percent_decrease, percent_increase};
use mf_core::malleable::{CORES_PER_PROC, MAX_CORES_PER_FRONT};
use mf_core::mapping::{compute_mapping, StaticMapping};
use mf_core::parsim::{self, RunResult};
use mf_core::CoreAlloc;
use mf_order::{OrderingKind, ALL_ORDERINGS};
use mf_sim::FaultModel;
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use mf_sparse::stats::matrix_stats;
use mf_sparse::Symmetry;
use mf_symbolic::seqstack::{apply_liu_order, sequential_peak, AssemblyDiscipline};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Report name (its `results/` file stem) → the function printing it.
const REPORTS: [(&str, fn()); 13] = [
    ("table1", table1),
    ("table2", || percent_table(&TABLE2)),
    ("table3", || percent_table(&TABLE3)),
    ("table4", table4),
    ("table5", || percent_table(&TABLE5)),
    ("table6", || percent_table(&TABLE6)),
    ("figures", figures),
    ("ablation", ablation),
    ("scaling", scaling),
    ("reordering_memory", reordering_memory),
    ("malleable", malleable),
    ("robustness", robustness),
    ("synth_scale", synth_scale),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        let names: Vec<&str> = REPORTS.iter().map(|&(n, _)| n).collect();
        die(&format!("expects one report name: {}", names.join(" | ")))
    };
    let Some(&(_, report)) = REPORTS.iter().find(|&&(n, _)| n == name) else {
        die(&format!("unknown report {name:?}"))
    };
    if let Some(extra) = args.get(1) {
        die(&format!("unexpected argument {extra:?}: a report takes none"));
    }
    report();
}

/// The simulated processor count of every table cell, as in the paper.
const NPROCS: usize = 32;

/// One sweep cell at [`NPROCS`]; `split` applies the splitting threshold
/// to unsymmetric matrices only (the paper split no symmetric tree).
fn cell(m: PaperMatrix, k: OrderingKind, split: bool) -> CellSpec {
    (m, k, NPROCS, (split && m.is_unsymmetric()).then(split_threshold_for))
}

/// A matrix × ordering table of percentages, one entry per cell group.
struct PercentTable {
    /// Heading; `{thr}` stands for the splitting threshold.
    title: &'static str,
    /// The paper's numbers. Its rows are the matrices the table runs.
    paper: &'static [(&'static str, [f64; 4])],
    /// The cells of one (matrix, ordering) entry: `false` unsplit,
    /// `true` split (see [`cell`]).
    splits: &'static [bool],
    /// The entry's percentage and its stderr progress line, from its
    /// first and last cell (the same cell when `splits` has one).
    entry: fn(&CellResult, &CellResult) -> (f64, String),
}

const TABLE2: PercentTable = PercentTable {
    title: "Table 2: % decrease of max stack peak (dynamic memory strategies, no splitting)",
    paper: &PAPER_TABLE2,
    splits: &[false],
    entry: |c, _| {
        let val = c.gain_percent();
        let log = format!(
            "{:12} {:5}: baseline peak {:>9}, memory peak {:>9} -> {:+.1}%",
            c.matrix.name(),
            c.ordering.name(),
            c.baseline.max_peak,
            c.memory.max_peak,
            val
        );
        (val, log)
    },
};

const TABLE3: PercentTable = PercentTable {
    title: "Table 3: % decrease of max stack peak on split trees (threshold {thr} entries)",
    paper: &PAPER_TABLE3,
    splits: &[true],
    entry: |c, _| {
        let val = c.gain_percent();
        let log = format!(
            "{:12} {:5}: split-baseline {:>9}, split-memory {:>9} -> {:+.1}% ({} fronts)",
            c.matrix.name(),
            c.ordering.name(),
            c.baseline.max_peak,
            c.memory.max_peak,
            val,
            c.stats.nodes,
        );
        (val, log)
    },
};

const TABLE5: PercentTable = PercentTable {
    title:
        "Table 5: % decrease of max stack peak, static splitting + dynamic memory vs original MUMPS",
    paper: &PAPER_TABLE5,
    splits: &[false, true],
    entry: |original, combined| {
        let val = percent_decrease(original.baseline.max_peak, combined.memory.max_peak);
        let log = format!(
            "{:12} {:5}: original {:>9} -> split+memory {:>9} = {:+.1}%",
            original.matrix.name(),
            original.ordering.name(),
            original.baseline.max_peak,
            combined.memory.max_peak,
            val
        );
        (val, log)
    },
};

const TABLE6: PercentTable = PercentTable {
    title: "Table 6: % loss of factorization time, memory-optimized vs original strategy",
    paper: &PAPER_TABLE6,
    splits: &[false, true],
    entry: |original, optimized| {
        let val = percent_increase(original.baseline.makespan, optimized.memory.makespan);
        let log = format!(
            "{:12} {:5}: makespan {:>9} -> {:>9} = {:+.1}%",
            original.matrix.name(),
            original.ordering.name(),
            original.baseline.makespan,
            optimized.memory.makespan,
            val
        );
        (val, log)
    },
};

/// Runs every cell of `t` in parallel (results come back in input
/// order, so the table equals the sequential loop's), prints each
/// entry's progress line on stderr and the table on stdout.
fn percent_table(t: &PercentTable) {
    let matrices: Vec<PaperMatrix> = t
        .paper
        .iter()
        .map(|&(name, _)| parse_matrix(name).expect("a paper row names a paper matrix"))
        .collect();
    let specs: Vec<CellSpec> = matrices
        .iter()
        .flat_map(|&m| ALL_ORDERINGS.into_iter().map(move |k| (m, k)))
        .flat_map(|(m, k)| t.splits.iter().map(move |&s| cell(m, k, s)))
        .collect();
    let cells = sweep_cells(&specs);
    let mut rows = Vec::new();
    for (m, row) in matrices.iter().zip(cells.chunks_exact(4 * t.splits.len())) {
        let mut vals = [0.0f64; 4];
        for (val, entry) in vals.iter_mut().zip(row.chunks_exact(t.splits.len())) {
            let (v, log) = (t.entry)(&entry[0], entry.last().unwrap());
            *val = v;
            eprintln!("{log}");
        }
        rows.push((m.name(), vals));
    }
    let title = t.title.replace("{thr}", &split_threshold_for().to_string());
    println!("{}", render_percent_table(&title, &rows, Some(t.paper)));
}

/// Table 1: the test problems — paper metadata and the synthetic
/// analogues actually factorized in this reproduction.
fn table1() {
    println!("Table 1: test problems (paper instance -> synthetic analogue)");
    println!(
        "{:12} {:>9} {:>10} {:4}  {:>8} {:>9} {:>7} {:>5}  Description",
        "Matrix", "Order", "NZ", "Type", "order*", "nz*", "nnz/n*", "sym*"
    );
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate();
        let st = matrix_stats(&a);
        println!(
            "{:12} {:>9} {:>10} {:4}  {:>8} {:>9} {:>7.1} {:>4.0}%  {}",
            m.name(),
            m.paper_order(),
            m.paper_nnz(),
            m.symmetry().tag(),
            a.nrows(),
            a.nnz(),
            st.avg_row_nnz,
            100.0 * st.structural_symmetry,
            m.description(),
        );
    }
    println!("\n(*) reproduction-scale analogue generated by mf-sparse::gen");
}

/// Table 4: absolute maximum stack peaks (millions of entries) on the two
/// illustrative cases, isolating the gain of the static splitting from
/// the gain of the dynamic memory strategies.
fn table4() {
    let cases = [
        (PaperMatrix::Ultrasound3, OrderingKind::Metis, "ULTRASOUND3-METIS"),
        (PaperMatrix::Xenon2, OrderingKind::Amf, "XENON2-AMF"),
    ];
    let specs: Vec<CellSpec> =
        cases.iter().flat_map(|&(m, k, _)| [cell(m, k, false), cell(m, k, true)]).collect();
    let cells = sweep_cells(&specs);
    println!("Table 4: max stack peak, millions of entries (measured | paper)");
    println!(
        "{:18} {:16} {:>10} {:>10}   {:>7} {:>7}",
        "Case", "Strategy", "No split", "Split", "paper:N", "paper:S"
    );
    for ((_, _, case), pair) in cases.iter().zip(cells.chunks_exact(2)) {
        let (plain, split) = (&pair[0], &pair[1]);
        let to_m = |v: u64| v as f64 / 1.0e6;
        for (strategy, nosplit, withsplit) in [
            ("MUMPS dynamic", plain.baseline.max_peak, split.baseline.max_peak),
            ("memory-based", plain.memory.max_peak, split.memory.max_peak),
        ] {
            let paper = PAPER_TABLE4
                .iter()
                .find(|(c, s, _, _)| c == case && strategy.starts_with(&s[..5]))
                .map(|&(_, _, a, b)| (a, b))
                .unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:18} {:16} {:>10.3} {:>10.3}   {:>7.2} {:>7.2}",
                case,
                strategy,
                to_m(nosplit),
                to_m(withsplit),
                paper.0,
                paper.1
            );
        }
    }
    println!("\n(paper columns: IBM SP, full-scale matrices; ours: reproduction scale)");
}

/// Scenario reproductions of the paper's illustrative figures: the
/// type-2 blockings (Figure 3), one memory-based slave selection
/// (Figure 4), the stale-view coherence problem (Figure 5), predicting
/// incoming master tasks (Figure 6), memory-aware task selection vs.
/// LIFO (Figure 8).
fn figures() {
    fn bar(value: u64, unit: u64) -> String {
        "#".repeat(((value + unit / 2) / unit.max(1)) as usize)
    }

    println!("== Figure 3: type-2 blocking, front 100 with 20 pivots, 4 slaves ==");
    for sym in [Symmetry::General, Symmetry::Symmetric] {
        let blocks = equal_entry_blocks(sym, 100, 20, 4);
        let rows: Vec<usize> = blocks.iter().map(|&(_, n)| n).collect();
        println!("  {:?}: rows per slave {:?}", sym, rows);
    }

    println!("\n== Figure 4: memory-based slave selection (Algorithm 1) ==");
    let (memories, sel) = figure4();
    println!("  memory load per processor (# = 10k entries):");
    for (p, &m) in memories.iter().enumerate() {
        let role = if p == 0 { " (master)" } else { "" };
        println!("   P{p}: {:>7} {}{}", m, bar(m, 10_000), role);
    }
    println!("  Algorithm 1 row distribution (front 400, 100 pivots):");
    for (p, rows) in &sel {
        println!("   P{p}: {rows} rows");
    }
    let excluded: Vec<usize> = (1..8).filter(|p| !sel.iter().any(|&(q, _)| q == *p)).collect();
    println!("  processors left alone (their load already at the peak): {excluded:?}");

    println!("\n== Figure 5: the coherence problem ==");
    let o = figure5();
    println!("  slow control network  : P0 peak {:>7}, global {:>7}", o.bad.0, o.bad.1);
    println!("  instantaneous network : P0 peak {:>7}, global {:>7}", o.good.0, o.good.1);
    println!("  -> the stale memory view sends a slave block onto P0 while its");
    println!("     big master front is live; fresh information avoids it.");

    println!("\n== Figure 6: predicting the activation of ready tasks ==");
    let o = figure6();
    println!("  without prediction : P0 peak {:>7}, global {:>7}", o.bad.0, o.bad.1);
    println!("  with prediction    : P0 peak {:>7}, global {:>7}", o.good.0, o.good.1);
    println!("  -> every view of P0 is genuinely small at selection time; only the");
    println!("     Section 5.1 prediction knows a large master is about to start.");

    println!("\n== Figure 8: memory-aware task selection (Algorithm 2) ==");
    let o = figure8();
    println!("  LIFO pool          : P0 peak {:>7}, global {:>7}", o.bad.0, o.bad.1);
    println!("  Algorithm 2        : P0 peak {:>7}, global {:>7}", o.good.0, o.good.1);
    println!("  -> delaying the big type-2 master until the subtree finishes keeps");
    println!("     its master part from stacking on the subtree's CBs.");
}

/// A strategy combination of the ablation study, applied to the
/// baseline configuration.
type Variant = (&'static str, fn(SolverConfig) -> SolverConfig);

/// Every meaningful strategy combination: Algorithm 1 alone, with each
/// of the two Section 5.1 information mechanisms, Algorithm 2 and its
/// global refinement, and the hybrid strategy of the paper's conclusion.
const VARIANTS: &[Variant] = &[
    ("workload+lifo (baseline)", |c| c),
    ("alg1 only", |c| SolverConfig { slave_selection: SlaveSelection::Memory, ..c }),
    ("alg1 + subtree info", |c| SolverConfig {
        slave_selection: SlaveSelection::Memory,
        use_subtree_info: true,
        ..c
    }),
    ("alg1 + prediction", |c| SolverConfig {
        slave_selection: SlaveSelection::Memory,
        use_prediction: true,
        ..c
    }),
    ("alg2 only", |c| SolverConfig { task_selection: TaskSelection::MemoryAware, ..c }),
    ("full memory (paper)", |c| c.with_memory_strategy()),
    ("full + global alg2", |c| SolverConfig {
        task_selection: TaskSelection::MemoryAwareGlobal,
        ..c.with_memory_strategy()
    }),
    ("hybrid (conclusion)", |c| SolverConfig {
        slave_selection: SlaveSelection::Hybrid,
        ..c.with_memory_strategy()
    }),
    ("mem-aware subtrees", |c| SolverConfig {
        subtree_peak_factor: Some(1.0),
        ..c.with_memory_strategy()
    }),
];

/// Ablation study of the design choices (beyond the paper's tables):
/// the same cells under every [`VARIANTS`] entry, with max/avg stack
/// peak and makespan for each.
fn ablation() {
    for (m, k) in [
        (PaperMatrix::TwoTone, OrderingKind::Amd),
        (PaperMatrix::Ultrasound3, OrderingKind::Amf),
        (PaperMatrix::Ship003, OrderingKind::Metis),
    ] {
        println!("=== {} / {} ({NPROCS} processors) ===", m.name(), k.name());
        let tree = build_tree(m, k, None);
        println!(
            "{:26} {:>10} {:>10} {:>10} {:>8}",
            "variant", "max peak", "avg peak", "makespan", "vs base"
        );
        // The variants run in parallel on the cached tree; results keep
        // VARIANTS order, and "vs base" is anchored on the first.
        let results: Vec<_> = VARIANTS
            .par_iter()
            .map(|&(name, variant)| {
                let cfg = variant(paper_scale_config(NPROCS));
                let map = compute_mapping(&tree, &cfg);
                parsim::run(&tree, &map, &cfg).unwrap_or_else(|e| panic!("{name} failed: {e}"))
            })
            .collect();
        let base_peak = results[0].max_peak;
        for (&(name, _), r) in VARIANTS.iter().zip(&results) {
            println!(
                "{:26} {:>10} {:>10.0} {:>10} {:>+7.1}%",
                name,
                r.max_peak,
                r.avg_peak,
                r.makespan,
                100.0 * (base_peak as f64 - r.max_peak as f64) / base_peak as f64,
            );
        }
        println!();
    }
}

/// Memory scalability — the paper's motivation, quantified. For 1..32
/// processors and each strategy: the maximum per-processor stack peak
/// (what each node must provision), the *sum* of the peaks (perfect
/// scalability would keep it flat at the sequential peak), the memory
/// efficiency `seq_peak / (nprocs * max_peak)` and the makespan speedup.
fn scaling() {
    let tree = build_tree(PaperMatrix::Ultrasound3, OrderingKind::Metis, None);
    let seq = sequential_peak(&tree, AssemblyDiscipline::FrontThenFree);
    println!("ULTRASOUND3 / METIS; sequential stack peak = {seq} entries");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10} {:>8}  strategy",
        "procs", "max peak", "sum peaks", "efficiency", "makespan", "speedup"
    );
    // The points run in parallel; results keep input order, so the
    // speedup baselines are the two nprocs=1 rows.
    let points: Vec<(usize, bool)> =
        [1usize, 2, 4, 8, 16, 32].into_iter().flat_map(|np| [(np, false), (np, true)]).collect();
    let results: Vec<_> = points
        .par_iter()
        .map(|&(nprocs, memory)| {
            let mut cfg = paper_scale_config(nprocs);
            if memory {
                cfg = cfg.with_memory_strategy();
            }
            let map = compute_mapping(&tree, &cfg);
            parsim::run(&tree, &map, &cfg).expect("scaling run failed")
        })
        .collect();
    let t1 = [results[0].makespan, results[1].makespan];
    for (&(nprocs, memory), r) in points.iter().zip(&results) {
        let sum: u64 = r.peaks.iter().sum();
        println!(
            "{:>6} {:>10} {:>12} {:>11.1}% {:>10} {:>7.1}x  {}",
            nprocs,
            r.max_peak,
            sum,
            100.0 * seq as f64 / (nprocs as f64 * r.max_peak as f64),
            r.makespan,
            t1[memory as usize] as f64 / r.makespan as f64,
            if memory { "memory" } else { "workload" },
        );
    }
}

/// Impact of the reordering on memory (the paper's reference \[12\],
/// Guermouche, L'Excellent & Utard, Parallel Computing 2003). For every
/// matrix × ordering: sequential stack peak with and without Liu's
/// optimal child order, total factor entries and elimination flops —
/// minimum-degree orderings trade a smaller stack for more flops,
/// dissection orderings the reverse.
fn reordering_memory() {
    println!(
        "{:12} {:5} {:>12} {:>12} {:>7} {:>12} {:>12}",
        "Matrix", "Ord", "stack(DFS)", "stack(Liu)", "gain%", "factors", "flops"
    );
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate();
        for k in ALL_ORDERINGS {
            let perm = k.compute(&a);
            let mut s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
            let before = sequential_peak(&s.tree, AssemblyDiscipline::FrontThenFree);
            let after = apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
            println!(
                "{:12} {:5} {:>12} {:>12} {:>6.1}% {:>12} {:>12}",
                m.name(),
                k.name(),
                before,
                after,
                100.0 * (before - after) as f64 / before.max(1) as f64,
                s.tree.total_factor_entries(),
                s.tree.total_flops(),
            );
        }
    }
}

/// Static vs. malleable core allocation (the malleable tasks of
/// Guermouche/Marchal/Simon/Vivien, arXiv:1410.7249) on [`NPROCS`]
/// processors of 4 cores each. A rigid front uses its own processor's
/// cores: `Static(c)`, c ∈ {1, 2, 4}. A malleable front may also borrow
/// idle peers' cores, up to 8. `Static(8)` is an infeasible oracle (8
/// resident cores everywhere, 2× the machine). Every paper matrix (plus
/// a synthetic grid) runs all five under the memory-based strategy over
/// one tree and static mapping, durations priced by one speedup curve,
/// so the rows compare *who gets the cores when*. Acceptance floor:
/// malleable ties or beats the best feasible static budget, chosen per
/// matrix with hindsight, on at least 6 of the 8 paper matrices.
fn malleable() {
    let cfg_with = |alloc| SolverConfig {
        core_alloc: alloc,
        ..paper_scale_config(NPROCS).with_memory_strategy()
    };
    // Synthetic companion case: a 60x60 box-stencil grid, AMD-ordered.
    // Regular grids have balanced trees (the opposite stress from the
    // paper's skewed industrial trees), so they check that malleability
    // does not *hurt* when tree-parallelism alone already saturates.
    let grid = grid2d(60, 60, Stencil::Box);
    let grid_perm = OrderingKind::Amd.compute(&grid);
    let grid_tree = mf_symbolic::analyze(&grid, &grid_perm, &AmalgamationOptions::default()).tree;
    let cases = ALL_PAPER_MATRICES
        .map(|m| (m.name(), build_tree(m, OrderingKind::Metis, None), true))
        .into_iter()
        .chain([("GRID60x60", Arc::new(grid_tree), false)]);

    println!(
        "matrix         static1   static2   static4 | malleable    vs best  result |   oracle8 \
         vs oracle"
    );
    let mut wins = 0usize;
    for (name, tree, paper) in cases {
        let map = compute_mapping(&tree, &cfg_with(CoreAlloc::Static(1)));
        let makespan = |alloc| {
            parsim::run(&tree, &map, &cfg_with(alloc))
                .unwrap_or_else(|e| panic!("{name}/{alloc:?}: {e}"))
                .makespan
        };
        // Budgets 1, 2 and 4 are feasible on 4 cores; 8 is the oracle.
        let [s1, s2, s4, oracle] = [1, 2, 4, 8].map(|c| makespan(CoreAlloc::Static(c)));
        let mall = makespan(CoreAlloc::Malleable);
        let best = s1.min(s2).min(s4);
        wins += (paper && mall <= best) as usize;
        println!(
            "{name:<12} {s1:>9} {s2:>9} {s4:>9} | {mall:>9} {:>+9.1}% {:>7} | {oracle:>9} {:>+8.1}%",
            100.0 * (best as f64 - mall as f64) / best as f64,
            if mall <= best { "ok" } else { "LOSS" },
            100.0 * (mall as f64 - oracle as f64) / oracle as f64
        );
    }
    println!(
        "\nmalleable ties/beats best feasible static on {wins}/8 paper matrices \
         (acceptance floor: 6/8); machine = {NPROCS} procs x {CORES_PER_PROC} cores \
         (pool {}), malleable may borrow idle peers' cores up to {MAX_CORES_PER_FRONT}/front; \
         oracle8 assumes 8 resident cores everywhere (2x the machine)",
        CORES_PER_PROC * NPROCS
    );
    assert!(wins >= 6, "malleable won only {wins}/8 — below the 6/8 acceptance floor");
}

/// The strategies of the robustness report, applied to the baseline
/// configuration: the original MUMPS one, Algorithms 1 and 2 without
/// the Section 5.1 information, and the full memory-based strategy with
/// the global refinement of Algorithm 2.
const ROBUSTNESS_STRATEGIES: &[Variant] = &[
    ("workload", |c| c.with_workload_strategy()),
    ("memory", |c| SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: false,
        use_prediction: false,
        ..c
    }),
    ("memory+improvements", |c| SolverConfig {
        task_selection: TaskSelection::MemoryAwareGlobal,
        ..c.with_memory_strategy()
    }),
];

/// Runs one robustness cell and checks that it finished: every front
/// done, every surviving processor's stack drained (a killed processor's
/// stack is frozen at its death).
fn run_complete(tree: &AssemblyTree, map: &StaticMapping, cfg: &SolverConfig) -> RunResult {
    let r = parsim::run(tree, map, cfg)
        .unwrap_or_else(|e| panic!("run failed: {e} [{}]", e.diagnostics().summary_line()));
    assert_eq!(r.nodes_done, r.total_nodes, "fronts lost");
    for (p, &a) in r.final_active.iter().enumerate() {
        assert!(a == 0 || r.dead.contains(&p), "survivor {p} leaked {a} entries");
    }
    r
}

/// `v / base` as printed by the robustness report.
fn ratio(v: u64, base: u64) -> f64 {
    v as f64 / base.max(1) as f64
}

/// Robustness of each [`ROBUSTNESS_STRATEGIES`] entry on [`NPROCS`]
/// processors, in two sections:
///
/// * the perturbation ladder (`FaultModel::intensity`: latency jitter,
///   extra delay and reordering, status drops, a straggler at level 3),
///   three seeds per level on two cells, worst ratio over the seeds
///   against the unperturbed run; level 0 must equal that run exactly;
/// * the membership curve: 0, 1, 2 and 4 processors killed mid-run and
///   one kill + join, recovered through the lease protocol and subtree
///   re-execution; every cell must reproduce the fault-free factor
///   digest, and the armed detector alone must not move the run.
///
/// Every run must complete. Perturbation draws are per message and
/// kill/join indices count delivered events, so a change in the message
/// count moves the perturbed and membership rows; level-0 rows move only
/// with the schedule.
fn robustness() {
    const INTENSITIES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];
    const SEEDS: [u64; 3] = [11, 23, 47];
    let pairs =
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ship003, OrderingKind::Metis)];
    /// Each strategy's configuration, mapping and unperturbed run on `tree`.
    fn strategies(
        tree: &AssemblyTree,
    ) -> impl Iterator<Item = (&'static str, SolverConfig, StaticMapping, RunResult)> + '_ {
        ROBUSTNESS_STRATEGIES.iter().map(move |&(name, strategy)| {
            let cfg = strategy(paper_scale_config(NPROCS));
            let map = compute_mapping(tree, &cfg);
            let plain = run_complete(tree, &map, &cfg);
            (name, cfg, map, plain)
        })
    }

    println!(
        "== Perturbation ladder, {NPROCS} processors: worst of {} seeds per level \
         against the unperturbed run ==",
        SEEDS.len()
    );
    println!(
        "{:12} {:20} {:>5} {:>10} {:>7} {:>8} {:>10}",
        "matrix", "strategy", "level", "makespan x", "peak x", "dropped", "underflows"
    );
    for (m, k) in pairs {
        let tree = build_tree(m, k, None);
        for (name, cfg, map, plain) in strategies(&tree) {
            for level in INTENSITIES {
                // All seeds of a level are independent: fan them out.
                let runs: Vec<RunResult> = SEEDS
                    .par_iter()
                    .map(|&seed| {
                        let fault = Some(FaultModel::intensity(seed, level));
                        run_complete(&tree, &map, &SolverConfig { fault, ..cfg.clone() })
                    })
                    .collect();
                if level == 0.0 {
                    // Intensity zero is the bit-identical guarantee.
                    for r in &runs {
                        assert_eq!(r.peaks, plain.peaks, "quiet fault model changed peaks");
                        assert_eq!(r.makespan, plain.makespan, "quiet fault model moved time");
                        assert_eq!(r.dropped_messages, 0);
                    }
                }
                let worst = |f: fn(&RunResult) -> u64, base| {
                    runs.iter().map(|r| ratio(f(r), base)).fold(0.0, f64::max)
                };
                println!(
                    "{:12} {:20} {:>5.1} {:>10.3} {:>7.3} {:>8} {:>10}",
                    m.name(),
                    name,
                    level,
                    worst(|r| r.makespan, plain.makespan),
                    worst(|r| r.max_peak, plain.max_peak),
                    runs.iter().map(|r| r.dropped_messages).sum::<u64>(),
                    runs.iter().flat_map(|r| &r.underflows).sum::<u64>()
                );
            }
        }
    }

    type FaultSchedule = &'static [(u64, usize)];
    const SCENARIOS: [(&str, FaultSchedule, FaultSchedule); 5] = [
        ("0 kills (armed detector)", &[], &[]),
        ("1 kill", &[(1_000, 3)], &[]),
        ("2 kills", &[(1_000, 3), (2_500, 11)], &[]),
        ("4 kills", &[(1_000, 3), (2_500, 11), (4_000, 19), (5_500, 27)], &[]),
        ("1 kill + 1 join", &[(1_000, 3)], &[(3_000, 31)]),
    ];
    println!(
        "\n== Membership: processors killed (and joined) at delivered-event indices, \
         recovered; factor digest equal to the fault-free run's =="
    );
    println!(
        "{:12} {:20} {:24} {:>5} {:>5} {:>10} {:>15} {:>10} {:>10} {:>9}",
        "matrix",
        "strategy",
        "scenario",
        "kills",
        "joins",
        "makespan x",
        "survivor peak x",
        "reassigned",
        "recomputed",
        "reclaimed"
    );
    for (m, k) in pairs {
        let tree = build_tree(m, k, None);
        for (name, cfg, map, plain) in strategies(&tree) {
            let runs: Vec<RunResult> = SCENARIOS
                .par_iter()
                .map(|&(_, kills, joins)| {
                    let cfg = SolverConfig {
                        recovery: Some(RecoveryConfig::default()),
                        fault: Some(FaultModel {
                            kill_at: kills.to_vec(),
                            join_at: joins.to_vec(),
                            ..FaultModel::quiet(7)
                        }),
                        ..cfg.clone()
                    };
                    run_complete(&tree, &map, &cfg)
                })
                .collect();
            for (&(scenario, kills, joins), r) in SCENARIOS.iter().zip(&runs) {
                assert_eq!(
                    r.factor_digest,
                    plain.factor_digest,
                    "{} / {name} / {scenario}: recovered factors diverged",
                    m.name()
                );
                if kills.is_empty() && joins.is_empty() {
                    // The armed-but-idle detector must not perturb the
                    // schedule at all: bit-identical to the plain run.
                    assert_eq!(r.peaks, plain.peaks, "armed detector changed peaks");
                    assert_eq!(r.makespan, plain.makespan, "armed detector moved time");
                }
                let survivor_peak = (r.peaks.iter().enumerate())
                    .filter(|(p, _)| !r.dead.contains(p))
                    .map(|(_, &pk)| pk)
                    .max()
                    .unwrap_or(0);
                let rec = r.metrics.recovery;
                println!(
                    "{:12} {:20} {:24} {:>5} {:>5} {:>10.3} {:>15.3} {:>10} {:>10} {:>9}",
                    m.name(),
                    name,
                    scenario,
                    rec.kills_observed,
                    rec.joins_observed,
                    ratio(r.makespan, plain.makespan),
                    ratio(survivor_peak, plain.max_peak),
                    rec.subtrees_reassigned,
                    rec.nodes_recomputed,
                    rec.orphaned_cb_entries
                );
            }
        }
    }
}

/// The memory-based strategy (Algorithms 1 and 2, subtree information,
/// prediction) on a Table-1-scale synthetic nested-dissection tree
/// (~197k columns, 8191 fronts, 4096 leaf subtrees; see [`SynthConfig`])
/// at 32 to 1024 processors: the paper's tables stop at 32 because its
/// matrices do. Per processor count: delivered events, makespan, peaks,
/// and the status traffic that keeps the views coherent. Host time per
/// point goes to stderr.
fn synth_scale() {
    let shape = SynthConfig::paper_scale(42);
    let tree = synth_nd_tree(&shape);
    let stats = tree.stats();
    println!(
        "synthetic nested dissection: s0={} gamma={} depth={} beta={} jitter={} seed={}",
        shape.s0, shape.gamma, shape.depth, shape.beta, shape.jitter, shape.seed
    );
    println!(
        "n={} fronts={} leaves={} depth={} factor_entries={} flops={}",
        tree.n, stats.nodes, stats.leaves, stats.depth, stats.factor_entries, stats.flops
    );
    println!("memory-based strategy (Alg 1 + Alg 2, subtree info, prediction)\n");
    println!(
        "{:>5} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>11} {:>7} {:>7} {:>10} {:>9} {:>11} \
         {:>9}",
        "procs",
        "events",
        "makespan",
        "max peak",
        "sum peaks",
        "messages",
        "status",
        "status B",
        "dropped",
        "control",
        "control B",
        "status/ev",
        "bcast/front",
        "stale p95"
    );
    for nprocs in [32usize, 128, 512, 1024] {
        let cfg = paper_scale_config(nprocs).with_memory_strategy();
        let map = compute_mapping(&tree, &cfg);
        let start = Instant::now();
        let r = parsim::run(&tree, &map, &cfg)
            .unwrap_or_else(|e| panic!("synth_scale run at P={nprocs} failed: {e}"));
        let wall = start.elapsed();
        assert_eq!(r.nodes_done, r.total_nodes, "P={nprocs}: run did not complete");
        let events = r.events_delivered;
        eprintln!(
            "P={nprocs}: {:.1} ms, {:.1} ns/event",
            wall.as_secs_f64() * 1e3,
            wall.as_nanos() as f64 / events.max(1) as f64
        );
        let m = &r.metrics;
        // Every status message of a quiet run is one of the `nprocs - 1`
        // copies of a broadcast.
        let broadcasts = m.status_msgs / (nprocs as u64 - 1);
        println!(
            "{:>5} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>11} {:>7} {:>7} {:>10} {:>9.3} \
             {:>11.2} {:>9}",
            nprocs,
            events,
            r.makespan,
            r.max_peak,
            r.peaks.iter().sum::<u64>(),
            r.messages,
            m.status_msgs,
            m.status_bytes,
            m.dropped_status,
            m.control_msgs,
            m.control_bytes,
            m.status_msgs as f64 / events.max(1) as f64,
            broadcasts as f64 / r.total_nodes as f64,
            m.view_staleness.quantile(0.95)
        );
    }
}
