//! `explain` — peak-attribution reports from the flight recorder.
//!
//! Answers the question the tables cannot: *why* did a run peak where it
//! did? For one experiment cell the binary re-runs both strategies with
//! the flight recorder on, replays each recording, and prints:
//!
//! * the exact peak instant and live-front **composition** of every
//!   processor's active-memory peak (entries per front/stack item, which
//!   must — and is asserted to — sum bit-exactly to the solver's
//!   `active_peak`);
//! * the **decision chain** leading into the machine-wide peak: the last
//!   scheduling decisions touching the peak processor, contrasting what
//!   the deciding master *believed* (the recorded metric vector, view
//!   ages) with the ground truth replayed from the same recording;
//! * a **strategy diff**: where the baseline and the memory-based
//!   schedules put their peaks, and which decisions moved.
//!
//! Usage:
//!
//! ```text
//! explain [MATRIX] [ORDERING] [--nprocs N] [--split] [--obs-dir DIR] [--check-all]
//!         [--cores] [--kill IDX:PROC]... [--join IDX:PROC]...
//! ```
//!
//! Defaults: TWOTONE, AMD, 32 processors, no splitting. `--check-all`
//! replaces the report with the acceptance sweep: every paper matrix is
//! run with the recorder on and the composition-sums-to-peak invariant is
//! asserted for every processor under both strategies (CI runs this).
//! With `--obs-dir` (or `MF_OBS_DIR`), the cell's Perfetto traces and
//! run summary are exported too.
//!
//! `--kill`/`--join` replace the report with a **recovery replay**: the
//! cell is run with the recorder on under the given membership-fault
//! schedule (kill/join processor `PROC` at delivered-event index `IDX`)
//! and the recording is narrated end-to-end — every processor loss, the
//! subtree reassignment chain (which orphaned root went to which
//! adopter), every join with its rebalancing migrations — followed by
//! the recovery counters and the factor-digest comparison against the
//! fault-free run.
//!
//! `--cores` replaces the report with a **core-allocation timeline**:
//! the cell is re-run under `CoreAlloc::Malleable` with the recorder on
//! and every `CoreGrant` decision is replayed against the granted
//! front's assembly-tree depth — making the malleable trade visible
//! (leaf storms run one core per front; the root chain collects the
//! pool) — followed by the makespan comparison against the static run.

use mf_bench::obs::{self, die, parse_fault, parse_matrix, parse_ordering};
use mf_bench::sweep::{
    build_tree, paper_scale_config, split_threshold_for, sweep_cell_captured, CellResult,
};
use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_core::CoreAlloc;
use mf_order::{OrderingKind, ALL_ORDERINGS};
use mf_sim::recorder::{EventRef, SchedEvent};
use mf_sim::{active_before, attribute_peaks, FaultModel, PeakAttribution, Recording};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

struct Args {
    matrix: PaperMatrix,
    ordering: OrderingKind,
    nprocs: usize,
    split: Option<u64>,
    check_all: bool,
    cores: bool,
    kills: Vec<(u64, usize)>,
    joins: Vec<(u64, usize)>,
}

fn parse_args() -> Args {
    let mut out = Args {
        matrix: PaperMatrix::TwoTone,
        ordering: OrderingKind::Amd,
        nprocs: 32,
        split: None,
        check_all: false,
        cores: false,
        kills: Vec::new(),
        joins: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nprocs" => {
                let v = args.next().and_then(|v| v.parse().ok());
                out.nprocs = v.unwrap_or_else(|| die("--nprocs needs an integer"));
            }
            "--split" => out.split = Some(split_threshold_for()),
            "--check-all" => out.check_all = true,
            "--cores" => out.cores = true,
            "--kill" => {
                let v = args.next().unwrap_or_else(|| die("--kill needs IDX:PROC"));
                out.kills.push(parse_fault(&v, "--kill"));
            }
            "--join" => {
                let v = args.next().unwrap_or_else(|| die("--join needs IDX:PROC"));
                out.joins.push(parse_fault(&v, "--join"));
            }
            "--obs-dir" => {
                args.next(); // consumed by obs::obs_dir()
            }
            other => {
                if let Some(m) = parse_matrix(other) {
                    out.matrix = m;
                } else if let Some(k) = parse_ordering(other) {
                    out.ordering = k;
                } else {
                    die(&format!(
                        "unknown argument {other:?}; matrices: {}; orderings: {}",
                        ALL_PAPER_MATRICES.map(|m| m.name()).join(", "),
                        ALL_ORDERINGS.map(|k| k.name()).join(", ")
                    ));
                }
            }
        }
    }
    out
}

/// Asserts the report's central invariant for one run: the replayed
/// composition of every processor's peak sums bit-exactly to the
/// solver's own `active_peak`. Returns the attributions.
fn checked_attribution(r: &RunResult) -> Vec<PeakAttribution> {
    let rec = r.recording.as_ref().expect("captured run carries a recording");
    assert_eq!(rec.dropped(), 0, "peak attribution needs an uncapped recording");
    let att = attribute_peaks(r.peaks.len(), rec);
    for (p, a) in att.iter().enumerate() {
        let sum: u64 = a.composition.iter().map(|it| it.entries).sum();
        assert_eq!(sum, a.peak, "proc {p}: composition must sum to the replayed peak");
        assert_eq!(
            a.peak, r.peaks[p],
            "proc {p}: replayed peak must equal the solver's active_peak"
        );
    }
    att
}

/// Stream index of the event that first set processor `p`'s peak.
fn peak_event_index(rec: &Recording, p: usize) -> Option<usize> {
    let mut active = 0u64;
    let mut peak = 0u64;
    let mut idx = None;
    for (i, te) in rec.events().enumerate() {
        match te.ev {
            EventRef::MemAlloc { proc, entries, .. } if proc == p => {
                active += entries;
                if active > peak {
                    peak = active;
                    idx = Some(i);
                }
            }
            EventRef::MemFree { proc, entries, .. } if proc == p => {
                active = active.saturating_sub(entries);
            }
            _ => {}
        }
    }
    idx
}

/// Is this a scheduling *decision* involving processor `p`?
fn involves(e: EventRef<'_>, p: usize) -> bool {
    match e {
        EventRef::Activate { proc, .. }
        | EventRef::PoolDecision { proc, .. }
        | EventRef::Forced { proc, .. } => proc == p,
        EventRef::SlaveSelection { master, picked, .. } => {
            master == p || picked.iter().any(|s| s.proc == p)
        }
        EventRef::Reselect { master, dropped, .. } => master == p || dropped.contains(p),
        EventRef::StatusApply { to, .. } => to == p,
        _ => false,
    }
}

fn describe(e: &SchedEvent, p: usize, truth: &[u64]) -> String {
    match e {
        SchedEvent::Activate { proc, node, class } => {
            format!("proc {proc} activates {} front n{node}", class.name())
        }
        SchedEvent::PoolDecision { proc, depth, picked } => match picked {
            Some(n) => format!("proc {proc} picks n{n} from a pool of {depth}"),
            None => format!("proc {proc} defers all {depth} pooled tasks (capacity verdict)"),
        },
        SchedEvent::Forced { proc, node, cost } => {
            format!("stall-breaker forces n{node} on proc {proc} (cost {cost})")
        }
        SchedEvent::SlaveSelection {
            master,
            node,
            metric,
            view_age,
            picked,
            rounds,
            serialized,
        } => {
            let mut s = format!("master {master} selects slaves for type-2 n{node}: ");
            if *serialized {
                s.push_str("serialized on master");
            } else {
                let parts: Vec<String> =
                    picked.iter().map(|sl| format!("p{}\u{2190}{}", sl.proc, sl.entries)).collect();
                s.push_str(&parts.join(" "));
            }
            if *rounds > 0 {
                s.push_str(&format!(" after {rounds} capacity round(s)"));
            }
            // The believed-vs-actual contrast for the processor under the
            // microscope: what the master's (stale) view said against the
            // ground truth replayed at the same stream position.
            s.push_str(&format!(
                "; believed metric[p{p}]={} (view age {}), actual active={}",
                metric[p], view_age[p], truth[p]
            ));
            s
        }
        SchedEvent::Reselect { master, node, dropped } => {
            let procs: Vec<String> = dropped.iter().map(|q| format!("p{q}")).collect();
            format!("master {master} drops {} over capacity on n{node}", procs.join(","))
        }
        SchedEvent::StatusApply { to, from, about, kind, age } => format!(
            "proc {to} refreshes its view of p{about} ({} from p{from}, was {age} stale)",
            kind.name()
        ),
        SchedEvent::CoreGrant { proc, node, cores, busy } => {
            format!("proc {proc} grants n{node} {cores} core(s) ({busy} peer(s) believed busy)")
        }
        _ => String::new(),
    }
}

/// Prints the decision chain leading into processor `p`'s peak: the last
/// `limit` decisions involving `p` before (and including) the
/// peak-setting instant.
fn print_decision_chain(rec: &Recording, nprocs: usize, p: usize, limit: usize) {
    let Some(peak_idx) = peak_event_index(rec, p) else {
        println!("  (no memory traffic recorded for proc {p})");
        return;
    };
    let decisions: Vec<(usize, mf_sim::Time, SchedEvent)> = rec
        .events()
        .enumerate()
        .take(peak_idx + 1)
        .filter(|(_, te)| involves(te.ev, p))
        .map(|(i, te)| (i, te.at, te.ev.to_owned()))
        .collect();
    let skipped = decisions.len().saturating_sub(limit);
    if skipped > 0 {
        println!("  ... {skipped} earlier decision(s) elided ...");
    }
    for (i, at, e) in decisions.iter().rev().take(limit).rev() {
        let truth = active_before(nprocs, rec, *i);
        println!("  t={at:>8}  {}", describe(e, p, &truth));
    }
}

fn print_report(name: &str, r: &RunResult) {
    let att = checked_attribution(r);
    let rec = r.recording.as_ref().unwrap();
    println!("\n=== {name} strategy ===");
    println!("{} ({} recorded events)", r.summary_line(), rec.len());
    println!("\nper-processor peaks (composition verified to sum to active_peak):");
    println!("{:>5} {:>12} {:>10} {:>6}  top fronts at the peak", "proc", "peak", "at", "live");
    for a in &att {
        let mut top: Vec<_> = a.composition.iter().collect();
        top.sort_by_key(|it| std::cmp::Reverse(it.entries));
        let head: Vec<String> = top
            .iter()
            .take(3)
            .map(|it| format!("n{}/{}:{}", it.node, it.area.name(), it.entries))
            .collect();
        println!(
            "{:>5} {:>12} {:>10} {:>6}  {}",
            a.proc,
            a.peak,
            a.at,
            a.composition.len(),
            head.join("  ")
        );
    }

    let worst = att.iter().max_by_key(|a| a.peak).expect("at least one processor");
    println!(
        "\nmachine peak: proc {} at t={} with {} entries across {} live items:",
        worst.proc,
        worst.at,
        worst.peak,
        worst.composition.len()
    );
    let mut comp: Vec<_> = worst.composition.iter().collect();
    comp.sort_by_key(|it| std::cmp::Reverse(it.entries));
    for it in comp.iter().take(12) {
        println!(
            "    n{:<6} {:6} {:>12} entries ({:>5.1}%)",
            it.node,
            it.area.name(),
            it.entries,
            100.0 * it.entries as f64 / worst.peak.max(1) as f64
        );
    }
    if comp.len() > 12 {
        let rest: u64 = comp.iter().skip(12).map(|it| it.entries).sum();
        println!("    ... {} more items, {} entries", comp.len() - 12, rest);
    }

    println!("\ndecision chain into the machine peak (believed vs actual):");
    print_decision_chain(rec, r.peaks.len(), worst.proc, 10);

    println!("\n{}", r.metrics.traffic_line());
    println!("{}", r.metrics.decisions_line());
}

fn print_diff(c: &CellResult) {
    let base = checked_attribution(&c.baseline);
    let mem = checked_attribution(&c.memory);
    println!("\n=== strategy vs strategy ===");
    println!(
        "max peak: {} -> {} ({:+.1}%), makespan: {} -> {} ({:+.1}%)",
        c.baseline.max_peak,
        c.memory.max_peak,
        -c.gain_percent(),
        c.baseline.makespan,
        c.memory.makespan,
        c.time_loss_percent()
    );
    let bw = base.iter().max_by_key(|a| a.peak).unwrap();
    let mw = mem.iter().max_by_key(|a| a.peak).unwrap();
    println!(
        "machine peak moved: proc {} (t={}) -> proc {} (t={})",
        bw.proc, bw.at, mw.proc, mw.at
    );
    println!("{:>5} {:>12} {:>12} {:>8}", "proc", "baseline", "memory", "delta%");
    for (b, m) in base.iter().zip(&mem) {
        let delta =
            if b.peak == 0 { 0.0 } else { 100.0 * (m.peak as f64 - b.peak as f64) / b.peak as f64 };
        println!("{:>5} {:>12} {:>12} {:>+8.1}", b.proc, b.peak, m.peak, delta);
    }
    let (bm, mm) = (&c.baseline.metrics, &c.memory.metrics);
    println!(
        "status traffic: {} -> {} msgs; staleness mean {:.0} -> {:.0} ticks",
        bm.status_msgs,
        mm.status_msgs,
        bm.view_staleness.mean(),
        mm.view_staleness.mean()
    );
}

/// `--kill`/`--join`: the recovery replay. Runs the cell under the given
/// membership-fault schedule with the recorder on (memory-based
/// strategy, recovery layer armed) and narrates the recording: losses,
/// the subtree reassignment chain, joins with their migrations —
/// asserting along the way that the run completed, the survivors
/// drained, and the factors are exactly the fault-free run's.
fn recovery_replay(args: &Args) {
    let tree = build_tree(args.matrix, args.ordering, args.split);
    let cfg0 = SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: true,
        use_prediction: true,
        record_events: true,
        ..paper_scale_config(args.nprocs)
    };
    let map = compute_mapping(&tree, &cfg0);
    let plain = parsim::run(&tree, &map, &cfg0).expect("fault-free run");
    let cfg = SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: args.kills.clone(),
            join_at: args.joins.clone(),
            ..FaultModel::quiet(7)
        }),
        ..cfg0
    };
    let r = parsim::run(&tree, &map, &cfg)
        .unwrap_or_else(|e| die(&format!("recovery run failed: {e}")));
    let rec = r.recording.as_ref().expect("recovery run carries a recording");

    println!("\n=== recovery replay ===");
    println!("schedule: kills {:?}, joins {:?}", args.kills, args.joins);
    println!("fault-free: {}", plain.summary_line());
    println!("recovered:  {}", r.summary_line());

    println!("\nmembership narrative (from the flight recording):");
    let mut lines = 0usize;
    for te in rec.events() {
        match te.ev {
            EventRef::ProcLost { proc, nodes_lost } => {
                println!(
                    "  t={:>8}  processor {proc} declared dead: {nodes_lost} unfinished \
                     node(s) reclaimed for re-execution",
                    te.at
                );
                lines += 1;
            }
            EventRef::SubtreeReassigned { root, from, to } => {
                println!(
                    "  t={:>8}    subtree rooted at n{root} reassigned p{from} -> p{to}",
                    te.at
                );
                lines += 1;
            }
            EventRef::ProcJoined { proc, migrated } => {
                println!(
                    "  t={:>8}  processor {proc} joined: {migrated} pooled task(s) migrated \
                     to it by rebalancing",
                    te.at
                );
                lines += 1;
            }
            _ => {}
        }
    }
    if lines == 0 {
        println!("  (no membership change fired: the schedule lies past the run's end)");
    }

    assert_eq!(r.nodes_done, r.total_nodes, "recovered run lost fronts");
    for (p, &a) in r.final_active.iter().enumerate() {
        if !r.dead.contains(&p) {
            assert_eq!(a, 0, "survivor {p} leaked {a} stack entries");
        }
    }
    assert_eq!(
        r.factor_digest, plain.factor_digest,
        "recovered factors diverged from the fault-free run"
    );

    let rec_counters = r.metrics.recovery;
    let summary = rec_counters.summary();
    if !summary.is_empty() {
        println!("\n{summary}");
    }
    println!(
        "\nfactor digest {:016x}: recovered run identical to the fault-free run",
        r.factor_digest
    );
    println!(
        "degradation: makespan x{:.3}, survivor peak x{:.3}",
        r.makespan as f64 / plain.makespan.max(1) as f64,
        r.peaks
            .iter()
            .enumerate()
            .filter(|(p, _)| !r.dead.contains(p))
            .map(|(_, &pk)| pk)
            .max()
            .unwrap_or(0) as f64
            / plain.max_peak.max(1) as f64
    );
}

/// `--cores`: the core-allocation timeline. Re-runs the cell under
/// `CoreAlloc::Malleable` with the recorder on and replays every
/// `CoreGrant` against the granted front's assembly-tree depth, then
/// summarizes grants per depth band — the malleable trade (tree
/// parallelism near the leaves, front parallelism near the root) read
/// straight off the flight recording.
fn core_timeline(args: &Args) {
    let tree = build_tree(args.matrix, args.ordering, args.split);
    let mk_cfg = |alloc: CoreAlloc| SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: true,
        use_prediction: true,
        record_events: true,
        core_alloc: alloc,
        ..paper_scale_config(args.nprocs)
    };
    let cfg_static = mk_cfg(CoreAlloc::Static(1));
    let cfg_mall = mk_cfg(CoreAlloc::malleable(4 * args.nprocs));
    let map = compute_mapping(&tree, &cfg_static);
    let fixed = parsim::run(&tree, &map, &cfg_static).expect("static run");
    let r = parsim::run(&tree, &map, &cfg_mall).expect("malleable run");
    let rec = r.recording.as_ref().expect("malleable run carries a recording");

    // Depth of every front below its root (roots at depth 0): parents
    // precede children when the topological order is walked backwards.
    let mut depth = vec![0usize; tree.len()];
    for &v in tree.topo_order().iter().rev() {
        for &c in &tree.nodes[v].children {
            depth[c] = depth[v] + 1;
        }
    }

    let grants: Vec<(mf_sim::Time, usize, usize, u32, u64)> = rec
        .events()
        .filter_map(|te| match te.ev {
            EventRef::CoreGrant { proc, node, cores, busy } => {
                Some((te.at, proc, node, cores, busy))
            }
            _ => None,
        })
        .collect();

    println!("\n=== core-allocation timeline (malleable) ===");
    println!("static:    {}", fixed.summary_line());
    println!("malleable: {}", r.summary_line());
    println!(
        "\n{} grant decision(s) recorded; pool {} cores over {} processors:",
        grants.len(),
        4 * args.nprocs,
        args.nprocs
    );
    let show = 20usize.min(grants.len());
    for &(at, proc, node, cores, busy) in &grants[grants.len() - show..] {
        println!(
            "  t={at:>8}  p{proc:<3} n{node:<6} depth {:>2}: {cores} core(s), {busy} peer(s) busy",
            depth[node]
        );
    }
    if grants.len() > show {
        println!("  (showing the last {show}; earlier grants elided)");
    }

    // Grants vs depth: the leaf storm should sit at 1 core/front, the
    // root chain should collect the pool.
    let maxd = grants.iter().map(|g| depth[g.2]).max().unwrap_or(0);
    println!("\n{:>6} {:>8} {:>10} {:>10}", "depth", "grants", "mean", "max");
    for d in 0..=maxd {
        let at_d: Vec<u32> = grants.iter().filter(|g| depth[g.2] == d).map(|g| g.3).collect();
        if at_d.is_empty() {
            continue;
        }
        let mean = at_d.iter().map(|&c| c as f64).sum::<f64>() / at_d.len() as f64;
        let max = at_d.iter().max().copied().unwrap_or(1);
        println!("{:>6} {:>8} {:>10.2} {:>10}", d, at_d.len(), mean, max);
    }
    println!(
        "\nmakespan: static {} -> malleable {} ({:+.1}%)",
        fixed.makespan,
        r.makespan,
        100.0 * (r.makespan as f64 - fixed.makespan as f64) / fixed.makespan.max(1) as f64
    );
    assert_eq!(r.nodes_done, r.total_nodes, "malleable run must finish every front");
}

/// `--check-all`: the acceptance sweep. Every paper matrix, both
/// strategies, recorder on; asserts composition-sums-to-peak for every
/// processor (via [`checked_attribution`]) and prints one line per cell.
fn check_all(ordering: OrderingKind, nprocs: usize, split: Option<u64>) {
    for m in ALL_PAPER_MATRICES {
        let c = sweep_cell_captured(m, ordering, nprocs, split);
        for (name, r) in [("workload", &c.baseline), ("memory", &c.memory)] {
            let att = checked_attribution(r);
            let worst = att.iter().max_by_key(|a| a.peak).unwrap();
            println!(
                "{:12} {:5} {:8}: {} procs verified, machine peak {} on proc {} at t={}",
                m.name(),
                ordering.name(),
                name,
                att.len(),
                worst.peak,
                worst.proc,
                worst.at
            );
        }
        obs::maybe_export_cell(&c);
    }
    println!("check-all: every composition sums to its active_peak under both strategies");
}

fn main() {
    let args = parse_args();
    if args.check_all {
        check_all(args.ordering, args.nprocs, args.split);
        return;
    }
    if args.cores {
        println!(
            "explain {} / {} on {} processors (core-allocation timeline)",
            args.matrix.name(),
            args.ordering.name(),
            args.nprocs
        );
        core_timeline(&args);
        return;
    }
    if !args.kills.is_empty() || !args.joins.is_empty() {
        println!(
            "explain {} / {} on {} processors (recovery replay)",
            args.matrix.name(),
            args.ordering.name(),
            args.nprocs
        );
        recovery_replay(&args);
        return;
    }
    println!(
        "explain {} / {} on {} processors{}",
        args.matrix.name(),
        args.ordering.name(),
        args.nprocs,
        match args.split {
            Some(t) => format!(", split at {t} entries"),
            None => String::new(),
        }
    );
    let c = sweep_cell_captured(args.matrix, args.ordering, args.nprocs, args.split);
    print_report("workload (baseline)", &c.baseline);
    print_report("memory-based", &c.memory);
    print_diff(&c);
    let written = obs::maybe_export_cell(&c);
    if written > 0 {
        eprintln!("explain: exported {written} artifact(s)");
    }
}
