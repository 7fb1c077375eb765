//! Backend equivalence check: the discrete-event simulator and the
//! threaded executor must produce *identical* results for every paper
//! matrix under the quiet model — the whole `RunResult`, every field.
//! The two backends share the run loop and the per-processor
//! `SchedulerCore` state machines; this binary pins the claim that
//! where the cores live (one thread, or one thread each behind a
//! channel) changes nothing, and that every worker's physical memory
//! ledger agrees with its core's accounting.
//!
//! Usage:
//!
//! ```text
//! backend_equiv [--nprocs N] [--quick]
//! ```
//!
//! Defaults: 32 processors, all 8 matrices × three strategies. `--quick`
//! restricts to two matrices (CI uses `--quick --nprocs 16` to keep the
//! job short; the full grid is the local acceptance run).

use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_core::CoreAlloc;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

fn main() {
    let mut nprocs = 32usize;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nprocs" => {
                nprocs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--nprocs needs an integer"));
            }
            "--quick" => quick = true,
            other => panic!("unknown argument {other:?} (expected --nprocs N or --quick)"),
        }
    }
    let matrices: &[PaperMatrix] =
        if quick { &[PaperMatrix::TwoTone, PaperMatrix::Ship003] } else { &ALL_PAPER_MATRICES };

    type CfgOf = fn(usize) -> SolverConfig;
    let strategies: [(&str, CfgOf); 3] = [
        ("workload", |n| paper_scale_config(n).with_workload_strategy()),
        ("memory", |n| paper_scale_config(n).with_memory_strategy()),
        // Malleable grants feed the shared speedup-curve duration model;
        // both backends must still agree tick for tick.
        ("malleable", |n| SolverConfig {
            core_alloc: CoreAlloc::malleable(4 * n),
            ..paper_scale_config(n).with_memory_strategy()
        }),
    ];

    let mut cells = 0usize;
    for &m in matrices {
        let tree = build_tree(m, OrderingKind::Metis, None);
        for (name, cfg_of) in strategies {
            let cfg = cfg_of(nprocs);
            let map = compute_mapping(&tree, &cfg);
            let sim = parsim::run(&tree, &map, &cfg)
                .unwrap_or_else(|e| panic!("{}/{name}: simulator failed: {e}", m.name()));
            let thr = mf_exec::run_threads(&tree, &map, &cfg)
                .unwrap_or_else(|e| panic!("{}/{name}: threaded backend failed: {e}", m.name()));
            // One field at a time only to name the first that differs;
            // the whole-result comparison below is the claim.
            assert_eq!(sim.peaks, thr.peaks, "{}/{name}: active peaks differ", m.name());
            assert_eq!(sim.makespan, thr.makespan, "{}/{name}: makespan differs", m.name());
            assert_eq!(sim.metrics, thr.metrics, "{}/{name}: metrics differ", m.name());
            assert!(sim == thr, "{}/{name}: results differ", m.name());
            println!(
                "{:12} {:8} nprocs {:3}: backends agree — {}",
                m.name(),
                name,
                nprocs,
                sim.summary_line()
            );
            cells += 1;
        }
    }
    println!("backend equivalence: {cells} cells, sim == threads on every one");
}
