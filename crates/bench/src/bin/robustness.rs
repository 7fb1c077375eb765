//! Robustness sweep: perturbation intensity × scheduling strategy.
//!
//! For each (matrix, ordering) pair and each strategy, runs the simulated
//! factorization under a ladder of fault intensities (latency jitter,
//! bounded extra delay/reordering, status-message drops, stragglers —
//! see `mf_sim::FaultModel`), several seeds per intensity, and reports
//! how the schedule degrades: makespan and peak ratios versus the
//! unperturbed run, messages dropped, and whether every run completed
//! (it must — that is the robustness claim).
//!
//! A second section exercises the hard per-processor memory cap: with
//! `capacity` set to 1.2× the uncapped peak, every strategy must finish
//! without any processor exceeding the cap.
//!
//! A third section is the membership degradation curve: 0, 1, 2 and 4
//! processors killed mid-run (plus one kill+join scenario), each run
//! recovering through the lease protocol and subtree re-execution. The
//! factor digest must equal the fault-free run's on every cell, and the
//! rows carry the recovery counters (subtrees reassigned, nodes
//! recomputed, rebalance migrations, orphaned CB entries reclaimed).
//!
//! Writes `BENCH_robustness.json` and prints it. It takes no argument;
//! any argument is a usage error (exit 2) before anything runs.

use std::fmt::Write as _;

use mf_bench::obs::die;
use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::FaultModel;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use rayon::prelude::*;

const NPROCS: usize = 32;
const INTENSITIES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];
const SEEDS: [u64; 3] = [11, 23, 47];

struct Strategy {
    name: &'static str,
    cfg: fn() -> SolverConfig,
}

const STRATEGIES: [Strategy; 3] = [
    Strategy { name: "workload", cfg: workload_cfg },
    Strategy { name: "memory", cfg: memory_cfg },
    Strategy { name: "memory+improvements", cfg: improved_cfg },
];

fn workload_cfg() -> SolverConfig {
    paper_scale_config(NPROCS).with_workload_strategy()
}

fn memory_cfg() -> SolverConfig {
    SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: false,
        use_prediction: false,
        ..paper_scale_config(NPROCS)
    }
}

fn improved_cfg() -> SolverConfig {
    SolverConfig {
        task_selection: TaskSelection::MemoryAwareGlobal,
        ..paper_scale_config(NPROCS).with_memory_strategy()
    }
}

struct PerturbRow {
    matrix: PaperMatrix,
    strategy: &'static str,
    level: f64,
    seeds: usize,
    makespan_ratio_max: f64,
    peak_ratio_max: f64,
    dropped_total: u64,
    underflow_total: u64,
    forced_total: u64,
}

struct CapRow {
    matrix: PaperMatrix,
    strategy: &'static str,
    capacity: u64,
    uncapped_peak: u64,
    capped_peak: u64,
    makespan_ratio: f64,
    forced_activations: u64,
    serialized_fronts: u64,
    deferrals: u64,
    stalled_ticks: u64,
    underflow_total: u64,
}

struct MembershipRow {
    matrix: PaperMatrix,
    strategy: &'static str,
    scenario: &'static str,
    kills: u64,
    joins: u64,
    makespan_ratio: f64,
    peak_ratio_max: f64,
    subtrees_reassigned: u64,
    nodes_recomputed: u64,
    rebalance_migrations: u64,
    orphaned_cb_entries: u64,
}

fn run_ok(
    tree: &mf_symbolic::AssemblyTree,
    map: &mf_core::mapping::StaticMapping,
    cfg: &SolverConfig,
    what: &str,
) -> RunResult {
    let r = parsim::run(tree, map, cfg)
        .unwrap_or_else(|e| panic!("{what} failed: {e} [{}]", e.diagnostics().summary_line()));
    assert_eq!(r.nodes_done, r.total_nodes, "{what}: fronts lost");
    assert!(r.final_active.iter().all(|&a| a == 0), "{what}: stack leaked");
    r
}

/// Like [`run_ok`], but tolerating fail-stopped processors: a dead
/// processor's stack is frozen at kill time; only survivors must drain
/// to zero.
fn run_recovered(
    tree: &mf_symbolic::AssemblyTree,
    map: &mf_core::mapping::StaticMapping,
    cfg: &SolverConfig,
    what: &str,
) -> RunResult {
    let r = parsim::run(tree, map, cfg)
        .unwrap_or_else(|e| panic!("{what} failed: {e} [{}]", e.diagnostics().summary_line()));
    assert_eq!(r.nodes_done, r.total_nodes, "{what}: fronts lost");
    for (p, &a) in r.final_active.iter().enumerate() {
        if !r.dead.contains(&p) {
            assert_eq!(a, 0, "{what}: survivor {p} leaked {a} entries");
        }
    }
    r
}

fn main() {
    if let Some(a) = std::env::args().nth(1) {
        die(&format!("unexpected argument {a:?}: robustness takes none"));
    }
    let pairs =
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ship003, OrderingKind::Metis)];

    let mut perturb_rows: Vec<PerturbRow> = Vec::new();
    let mut cap_rows: Vec<CapRow> = Vec::new();

    for (m, k) in pairs {
        let tree = build_tree(m, k, None);
        for s in &STRATEGIES {
            let cfg0 = (s.cfg)();
            let map = compute_mapping(&tree, &cfg0);
            let plain = run_ok(&tree, &map, &cfg0, "unperturbed run");
            eprintln!("{:10} / {:20} unperturbed: {}", m.name(), s.name, plain.summary_line());

            for level in INTENSITIES {
                // All seeds of a level are independent: fan them out.
                let runs: Vec<RunResult> = SEEDS
                    .par_iter()
                    .map(|&seed| {
                        let cfg = SolverConfig {
                            fault: Some(FaultModel::intensity(seed, level)),
                            ..cfg0.clone()
                        };
                        run_ok(&tree, &map, &cfg, "perturbed run")
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
                let ratio = |v: u64, base: u64| v as f64 / base.max(1) as f64;
                perturb_rows.push(PerturbRow {
                    matrix: m,
                    strategy: s.name,
                    level,
                    seeds: SEEDS.len(),
                    makespan_ratio_max: runs
                        .iter()
                        .map(|r| ratio(r.makespan, plain.makespan))
                        .fold(0.0, f64::max),
                    peak_ratio_max: runs
                        .iter()
                        .map(|r| ratio(r.max_peak, plain.max_peak))
                        .fold(0.0, f64::max),
                    dropped_total: runs.iter().map(|r| r.dropped_messages).sum(),
                    underflow_total: runs.iter().map(|r| r.underflows.iter().sum::<u64>()).sum(),
                    forced_total: runs.iter().map(|r| r.forced_activations).sum(),
                });
            }
            let last = perturb_rows.last().unwrap();
            eprintln!(
                "{:10} / {:20} perturbation ladder done \
                 (top level: {} dropped, {} forced, {} underflows)",
                m.name(),
                s.name,
                last.dropped_total,
                last.forced_total,
                last.underflow_total
            );
        }
    }

    // Hard caps at 1.2x the uncapped peak, on EVERY test matrix and
    // strategy: graceful degradation must hold across the whole suite,
    // not just the two sweep cells.
    for m in ALL_PAPER_MATRICES {
        let tree = build_tree(m, OrderingKind::Metis, None);
        for s in &STRATEGIES {
            let cfg0 = (s.cfg)();
            let map = compute_mapping(&tree, &cfg0);
            let plain = run_ok(&tree, &map, &cfg0, "unperturbed run");
            let cap = plain.max_peak + plain.max_peak / 5;
            let capped_cfg = SolverConfig { capacity: Some(cap), ..cfg0.clone() };
            let capped = run_ok(&tree, &map, &capped_cfg, "capped run");
            assert!(
                capped.peaks.iter().all(|&pk| pk <= cap),
                "{} / {}: capped peaks {:?} exceed {}",
                m.name(),
                s.name,
                capped.peaks,
                cap
            );
            let mm = &capped.metrics;
            cap_rows.push(CapRow {
                matrix: m,
                strategy: s.name,
                capacity: cap,
                uncapped_peak: plain.max_peak,
                capped_peak: capped.max_peak,
                makespan_ratio: capped.makespan as f64 / plain.makespan.max(1) as f64,
                forced_activations: capped.forced_activations,
                serialized_fronts: mm.serialized_fronts,
                deferrals: mm.procs.iter().map(|p| p.deferrals).sum(),
                stalled_ticks: mm.procs.iter().map(|p| p.stalled_ticks).sum(),
                underflow_total: capped.underflows.iter().sum(),
            });
            let row = cap_rows.last().unwrap();
            eprintln!(
                "{:10} / {:20} cap {} held \
                 ({} deferrals, {} serialized, {} forced, {} stalled ticks, {} underflows)",
                m.name(),
                s.name,
                cap,
                row.deferrals,
                row.serialized_fronts,
                row.forced_activations,
                row.stalled_ticks,
                row.underflow_total
            );
        }
    }

    // Membership degradation curve on the two sweep matrices: processors
    // killed mid-run (plus one kill+join scenario), recovered through
    // the lease protocol and capacity-aware subtree re-execution. Every
    // cell must reproduce the fault-free factor digest; the curve is how
    // makespan and survivor peak degrade with the number of losses.
    let mut membership_rows: Vec<MembershipRow> = Vec::new();
    type FaultSchedule = &'static [(u64, usize)];
    let scenarios: [(&'static str, FaultSchedule, FaultSchedule); 5] = [
        ("0 kills (armed detector)", &[], &[]),
        ("1 kill", &[(1_000, 3)], &[]),
        ("2 kills", &[(1_000, 3), (2_500, 11)], &[]),
        ("4 kills", &[(1_000, 3), (2_500, 11), (4_000, 19), (5_500, 27)], &[]),
        ("1 kill + 1 join", &[(1_000, 3)], &[(3_000, 31)]),
    ];
    for (m, k) in pairs {
        let tree = build_tree(m, k, None);
        for s in &STRATEGIES {
            let cfg0 = (s.cfg)();
            let map = compute_mapping(&tree, &cfg0);
            let plain = run_ok(&tree, &map, &cfg0, "fault-free run");
            let idx: Vec<usize> = (0..scenarios.len()).collect();
            let rows: Vec<(usize, RunResult)> = idx
                .par_iter()
                .map(|&i| {
                    let (name, kills, joins) = scenarios[i];
                    let cfg = SolverConfig {
                        recovery: Some(RecoveryConfig::default()),
                        fault: Some(FaultModel {
                            kill_at: kills.to_vec(),
                            join_at: joins.to_vec(),
                            ..FaultModel::quiet(7)
                        }),
                        ..cfg0.clone()
                    };
                    (i, run_recovered(&tree, &map, &cfg, name))
                })
                .collect();
            for (i, r) in rows {
                let (name, kills, joins) = scenarios[i];
                assert_eq!(
                    r.factor_digest,
                    plain.factor_digest,
                    "{} / {} / {name}: recovered factors diverged",
                    m.name(),
                    s.name
                );
                if kills.is_empty() && joins.is_empty() {
                    // The armed-but-idle detector must not perturb the
                    // schedule at all: bit-identical to the plain run.
                    assert_eq!(r.peaks, plain.peaks, "armed detector changed peaks");
                    assert_eq!(r.makespan, plain.makespan, "armed detector moved time");
                }
                let survivor_peak = r
                    .peaks
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !r.dead.contains(p))
                    .map(|(_, &pk)| pk)
                    .max()
                    .unwrap_or(0);
                let rec = r.metrics.recovery;
                eprintln!(
                    "{:10} / {:20} {:24} makespan x{:.3}, survivor peak x{:.3}, \
                     {} reassigned, {} recomputed, {} migrated, {} CB entries reclaimed",
                    m.name(),
                    s.name,
                    name,
                    r.makespan as f64 / plain.makespan.max(1) as f64,
                    survivor_peak as f64 / plain.max_peak.max(1) as f64,
                    rec.subtrees_reassigned,
                    rec.nodes_recomputed,
                    rec.rebalance_migrations,
                    rec.orphaned_cb_entries
                );
                membership_rows.push(MembershipRow {
                    matrix: m,
                    strategy: s.name,
                    scenario: name,
                    kills: rec.kills_observed,
                    joins: rec.joins_observed,
                    makespan_ratio: r.makespan as f64 / plain.makespan.max(1) as f64,
                    peak_ratio_max: survivor_peak as f64 / plain.max_peak.max(1) as f64,
                    subtrees_reassigned: rec.subtrees_reassigned,
                    nodes_recomputed: rec.nodes_recomputed,
                    rebalance_migrations: rec.rebalance_migrations,
                    orphaned_cb_entries: rec.orphaned_cb_entries,
                });
            }
        }
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"cargo run --release -p mf-bench --bin robustness\",")
        .unwrap();
    writeln!(
        json,
        "  \"note\": \"jitter, delay and drops are drawn per message and kill/join indices count \
         delivered events, so perturbed and membership rows move with the message count (a \
         step's same-kind status deltas travel as one broadcast); intensity-0 and capacity \
         rows compare exactly across commits\","
    )
    .unwrap();
    writeln!(json, "  \"nprocs\": {NPROCS},").unwrap();
    writeln!(json, "  \"seeds_per_level\": {},", SEEDS.len()).unwrap();
    writeln!(json, "  \"perturbation\": [").unwrap();
    for (i, r) in perturb_rows.iter().enumerate() {
        let sep = if i + 1 == perturb_rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{ \"matrix\": \"{}\", \"strategy\": \"{}\", \"intensity\": {:.1}, \
             \"seeds\": {}, \"completed\": true, \"makespan_ratio_max\": {:.3}, \
             \"peak_ratio_max\": {:.3}, \"dropped_messages\": {}, \
             \"forced_activations\": {}, \"underflows\": {} }}{sep}",
            r.matrix.name(),
            r.strategy,
            r.level,
            r.seeds,
            r.makespan_ratio_max,
            r.peak_ratio_max,
            r.dropped_total,
            r.forced_total,
            r.underflow_total
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"capacity\": [").unwrap();
    for (i, r) in cap_rows.iter().enumerate() {
        let sep = if i + 1 == cap_rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{ \"matrix\": \"{}\", \"strategy\": \"{}\", \"capacity\": {}, \
             \"uncapped_peak\": {}, \"capped_peak\": {}, \"within_cap\": true, \
             \"makespan_ratio\": {:.3}, \"forced_activations\": {}, \
             \"serialized_fronts\": {}, \"deferrals\": {}, \"stalled_ticks\": {}, \
             \"underflows\": {} }}{sep}",
            r.matrix.name(),
            r.strategy,
            r.capacity,
            r.uncapped_peak,
            r.capped_peak,
            r.makespan_ratio,
            r.forced_activations,
            r.serialized_fronts,
            r.deferrals,
            r.stalled_ticks,
            r.underflow_total
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"membership\": [").unwrap();
    for (i, r) in membership_rows.iter().enumerate() {
        let sep = if i + 1 == membership_rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{ \"matrix\": \"{}\", \"strategy\": \"{}\", \"scenario\": \"{}\", \
             \"kills\": {}, \"joins\": {}, \"completed\": true, \"digest_identical\": true, \
             \"makespan_ratio\": {:.3}, \"peak_ratio_max\": {:.3}, \
             \"subtrees_reassigned\": {}, \"nodes_recomputed\": {}, \
             \"rebalance_migrations\": {}, \"orphaned_cb_entries\": {} }}{sep}",
            r.matrix.name(),
            r.strategy,
            r.scenario,
            r.kills,
            r.joins,
            r.makespan_ratio,
            r.peak_ratio_max,
            r.subtrees_reassigned,
            r.nodes_recomputed,
            r.rebalance_migrations,
            r.orphaned_cb_entries
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    mf_bench::obs::validate_json(&json).expect("BENCH_robustness.json must be well-formed");
    std::fs::write("BENCH_robustness.json", &json).expect("write BENCH_robustness.json");
    print!("{json}");
}
