//! `mf-obs` — the observability tool: explains, audits and compares runs
//! from their flight recordings.
//!
//! `mf-obs <subcommand> ...`, each subcommand reading exactly the words
//! and flags of its usage line in [`USAGE`]: any other flag or word, or a
//! flag without its value, is a usage error (exit 2) before any run.
//! Default cell: TWOTONE / AMD / 32 processors, no splitting. Every run
//! is a simulator run; `diff backends` runs the threaded executor too.
//!
//! * **explain** answers what the tables cannot — *why* did a run peak
//!   where it did? The cell is run under both strategies with the flight
//!   recorder on, each recording is replayed, and the report prints the
//!   peak instant and live-front **composition** of every processor's
//!   active-memory peak (entries per front/stack item, asserted to sum
//!   bit-exactly to the solver's `active_peak`), the **decision chain**
//!   into the machine-wide peak (what the deciding master *believed* —
//!   the recorded metric vector and view ages — against the ground truth
//!   replayed from the same recording; a recorded status block counts one
//!   decision per refresh of that processor's view, read from the
//!   block's `(receiver, age)` pairs), and the **strategy diff** that
//!   `diff strategies` prints. The recorded-event counts it prints are
//!   rows: one per status block, not one per receiver. With `--obs-dir`
//!   the cell's artifacts are exported too (see below). `--kill`/`--join`
//!   (which exclude `--cores` and `--obs-dir`) replace the report with a
//!   **recovery replay**: the memory-based run under
//!   that membership-fault schedule (kill/join processor `PROC` at
//!   delivered-event index `IDX`), narrated from its recording — every
//!   loss, the subtree reassignment chain, every join — then the
//!   recovery counters and the factor-digest comparison against the
//!   fault-free run. `--cores` replaces it with a **core-allocation
//!   timeline**: the run under `CoreAlloc::Malleable`,
//!   every `CoreGrant` replayed against the granted front's depth in the
//!   assembly tree (leaf storms run one core per front; the root chain
//!   collects the pool), then the makespan against the static run.
//! * **audit** verifies the protocol invariants on the same recordings
//!   (`mf_sim::audit`): memory-account balance, compute-span pairing,
//!   activation epochs, membership fencing. Every violation prints as a
//!   typed finding naming the processor, node and area; any finding
//!   exits 1. `--kill`/`--join` audit a recovery run instead.
//! * **check-all** is the acceptance sweep: every paper matrix is run
//!   once under both strategies and each recording gets the
//!   composition-sums-to-peak check *and* the audit.
//! * **diff** compares two runs. `backends` runs the same cell on the
//!   simulator and the thread pool — both strategies, or with
//!   `--kill`/`--join` the recovery run `audit` audits — and requires the
//!   whole `RunResult`s to be equal; on a difference it reports the first
//!   divergent recorded event and exits 1. `strategies` contrasts workload vs
//!   memory-based scheduling: first divergent event, metric deltas, how
//!   the machine peak's composition moved, per-processor peaks. `faults` contrasts a
//!   fault-free memory-strategy run with its twin under a kill/join
//!   schedule (default: kill processor 1 at delivered event 128) — the
//!   runs are identical up to the membership event, and the diff shows
//!   what the recovery machinery cost.
//! * **timeline** runs one strategy sampled every `--every` ticks (a
//!   read of each core, not an event) and prints the series as JSON Lines.
//!
//! `explain` and `check-all` are the only exporters: given `--obs-dir
//! DIR`, they run sampled every `--every` ticks and write
//! each cell's run summary and, per strategy, its Perfetto trace and its
//! time series as JSON Lines (`mf_bench::obs::export_cell`).

use mf_bench::obs::{self, die, parse_fault, parse_matrix, parse_ordering};
use mf_bench::sweep::{
    build_tree, paper_scale_config, split_threshold_for, sweep_cell, CellResult,
};
use mf_core::config::{RecoveryConfig, SolverConfig};
use mf_core::malleable::CORES_PER_PROC;
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_core::CoreAlloc;
use mf_order::{OrderingKind, ALL_ORDERINGS};
use mf_sim::{
    active_before, attribute_peaks, audit_recording, FaultModel, PeakAttribution, Recording,
    SchedEvent, Time,
};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;

/// The default sampling interval of `timeline` and of the exporters
/// (virtual ticks). Paper-scale
/// makespans run to a few hundred thousand ticks, so this yields on the
/// order of a hundred samples per processor — dense enough for
/// memory-evolution plots at one core read per processor per interval.
const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Every subcommand with its usage line. The line is the parser's
/// specification: a flag is accepted where the line names it, a matrix
/// or ordering where it names `[MATRIX]`/`[ORDERING]`.
const USAGE: [(&str, &str); 7] = [
    (
        "explain",
        "[MATRIX] [ORDERING] [--nprocs N] [--split] [--every TICKS] [--obs-dir DIR] [--cores] \
         [--kill IDX:PROC]... [--join IDX:PROC]...",
    ),
    (
        "audit",
        "[MATRIX] [ORDERING] [--nprocs N] [--split] [--kill IDX:PROC]... [--join IDX:PROC]...",
    ),
    ("check-all", "[ORDERING] [--nprocs N] [--split] [--every TICKS] [--obs-dir DIR]"),
    (
        "diff backends",
        "[MATRIX] [ORDERING] [--nprocs N] [--split] [--kill IDX:PROC]... [--join IDX:PROC]...",
    ),
    ("diff strategies", "[MATRIX] [ORDERING] [--nprocs N] [--split]"),
    (
        "diff faults",
        "[MATRIX] [ORDERING] [--nprocs N] [--split] [--kill IDX:PROC]... [--join IDX:PROC]...",
    ),
    (
        "timeline",
        "[MATRIX] [ORDERING] [--nprocs N] [--split] [--every TICKS] [--strategy baseline|memory]",
    ),
];

/// Everything the command line can say; each subcommand reads its part.
struct CellArgs {
    matrix: PaperMatrix,
    ordering: OrderingKind,
    nprocs: usize,
    split: Option<u64>,
    cores: bool,
    kills: Vec<(u64, usize)>,
    joins: Vec<(u64, usize)>,
    every: u64,
    strategy: String,
    obs_dir: Option<PathBuf>,
}

/// The one argument parser: reads `args` as subcommand `cmd`, whose
/// usage line is `line` (see [`USAGE`]); anything the line does not name
/// exits 2.
fn parse_args(mut args: impl Iterator<Item = String>, cmd: &str, line: &str) -> CellArgs {
    let names = |token: &str| line.split([' ', '[', ']']).any(|t| t == token);
    let refuse = |what: String| -> ! { die(&format!("{what}; usage: mf-obs {cmd} {line}")) };
    let mut out = CellArgs {
        matrix: PaperMatrix::TwoTone,
        ordering: OrderingKind::Amd,
        nprocs: 32,
        split: None,
        cores: false,
        kills: Vec::new(),
        joins: Vec::new(),
        every: DEFAULT_SAMPLE_INTERVAL,
        strategy: "memory".into(),
        obs_dir: None,
    };
    while let Some(a) = args.next() {
        if a.starts_with("--") && !names(&a) {
            refuse(format!("{cmd} takes no {a}"));
        }
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| die(&format!("{a} needs {what}")));
        let one_of = |v: String, allowed: &[&str]| {
            if !allowed.contains(&v.as_str()) {
                die(&format!("{a} must be one of {}, got {v:?}", allowed.join(", ")));
            }
            v
        };
        match a.as_str() {
            "--nprocs" => out.nprocs = number::<NonZeroUsize>(&a, &value("an integer")).get(),
            "--every" => out.every = number::<NonZeroU64>(&a, &value("a tick count")).get(),
            "--split" => out.split = Some(split_threshold_for()),
            "--cores" => out.cores = true,
            "--kill" => out.kills.push(parse_fault(&value("IDX:PROC"), "--kill")),
            "--join" => out.joins.push(parse_fault(&value("IDX:PROC"), "--join")),
            "--strategy" => {
                out.strategy = one_of(value("baseline|memory"), &["baseline", "memory"])
            }
            "--obs-dir" => out.obs_dir = Some(value("a directory").into()),
            word => match (parse_matrix(word), parse_ordering(word)) {
                (Some(m), _) if names("MATRIX") => out.matrix = m,
                (_, Some(k)) if names("ORDERING") => out.ordering = k,
                _ => refuse(format!(
                    "unknown argument {word:?}; matrices: {}; orderings: {}",
                    ALL_PAPER_MATRICES.map(|m| m.name()).join(", "),
                    ALL_ORDERINGS.map(|k| k.name()).join(", ")
                )),
            },
        }
    }
    out
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| die(&format!("{flag} needs a positive integer, got {v:?}")))
}

/// Paper scale with the flight recorder on (unbounded, so peak
/// attribution is exact).
fn recorded_cfg(nprocs: usize) -> SolverConfig {
    SolverConfig { record_events: true, ..paper_scale_config(nprocs) }
}

/// The cell of `matrix` under both strategies, recorded, and sampled
/// every `--every` ticks when `--obs-dir` exports it.
fn captured_cell(a: &CellArgs, matrix: PaperMatrix) -> CellResult {
    let sample_every = a.obs_dir.as_ref().map(|_| a.every);
    sweep_cell(
        matrix,
        a.ordering,
        a.split,
        &SolverConfig { sample_every, ..recorded_cfg(a.nprocs) },
    )
}

/// The recorded memory-based strategy under a membership-fault schedule,
/// recovery layer armed.
fn recovery_cfg(nprocs: usize, kills: &[(u64, usize)], joins: &[(u64, usize)]) -> SolverConfig {
    SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: kills.to_vec(),
            join_at: joins.to_vec(),
            ..FaultModel::quiet(7)
        }),
        ..recorded_cfg(nprocs).with_memory_strategy()
    }
}

/// One simulator run of the cell's cached tree under `cfg`.
fn run_cell(a: &CellArgs, cfg: &SolverConfig) -> RunResult {
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let map = compute_mapping(&tree, cfg);
    parsim::run(&tree, &map, cfg).unwrap_or_else(|e| panic!("simulator run failed: {e}"))
}

fn recording(r: &RunResult) -> &Recording {
    r.recording.as_ref().expect("the run was recorded")
}

// -------------------------------------------------------------- explain

/// Asserts the report's central invariant for one run: the replayed
/// composition of every processor's peak sums bit-exactly to the
/// solver's own `active_peak`. Returns the attributions.
fn checked_attribution(r: &RunResult) -> Vec<PeakAttribution> {
    let rec = recording(r);
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

/// The scheduling *decisions* involving processor `p` that one row
/// records, as positions in the row: `[0]` for a decision `p` takes or
/// is picked in, and for a status block the position of each apply at
/// `p` (one refresh of `p`'s view each).
fn involves(e: &SchedEvent, p: usize) -> Vec<usize> {
    let hit = match *e {
        SchedEvent::Activate { proc, .. }
        | SchedEvent::PoolDecision { proc, .. }
        | SchedEvent::Forced { proc, .. } => proc as usize == p,
        SchedEvent::SlaveSelection { master, ref choice, .. } => {
            master as usize == p || choice.picked.iter().any(|s| s.proc == p)
        }
        SchedEvent::Reselect { master, ref dropped, .. } => {
            master as usize == p || dropped.contains(&p)
        }
        SchedEvent::StatusApply { ref applied, .. } => {
            return (0..applied.len()).filter(|&k| applied[k].0 as usize == p).collect();
        }
        _ => false,
    };
    if hit {
        vec![0]
    } else {
        Vec::new()
    }
}

/// Renders decision `k` of row `e` (see [`involves`]) for processor `p`.
fn describe(e: &SchedEvent, k: usize, p: usize, truth: &[u64]) -> String {
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
        SchedEvent::SlaveSelection { master, node, choice, rounds, serialized } => {
            let mut s = format!("master {master} selects slaves for type-2 n{node}: ");
            if *serialized {
                s.push_str("serialized on master");
            } else {
                let parts: Vec<String> = choice
                    .picked
                    .iter()
                    .map(|sl| format!("p{}\u{2190}{}", sl.proc, sl.entries))
                    .collect();
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
                choice.metric[p], choice.view_age[p], truth[p]
            ));
            s
        }
        SchedEvent::Reselect { master, node, dropped } => {
            let procs: Vec<String> = dropped.iter().map(|q| format!("p{q}")).collect();
            format!("master {master} drops {} over capacity on n{node}", procs.join(","))
        }
        SchedEvent::StatusApply { from, about, kind, applied } => {
            let (to, age) = applied[k];
            format!(
                "proc {to} refreshes its view of p{about} ({} from p{from}, was {age} stale)",
                kind.name()
            )
        }
        SchedEvent::CoreGrant { proc, node, cores, busy } => {
            format!("proc {proc} grants n{node} {cores} core(s) ({busy} peer(s) believed busy)")
        }
        _ => String::new(),
    }
}

/// Prints the decision chain leading into the peak of `att`'s
/// processor: the last `limit` decisions involving it before (and
/// including) the peak-setting event.
fn print_decision_chain(rec: &Recording, nprocs: usize, att: &PeakAttribution, limit: usize) {
    let p = att.proc;
    let Some(peak_idx) = att.index else {
        println!("  (no memory traffic recorded for proc {p})");
        return;
    };
    let decisions: Vec<(usize, Time, &SchedEvent, usize)> = rec
        .events()
        .enumerate()
        .take(peak_idx + 1)
        .flat_map(|(i, (at, e))| involves(e, p).into_iter().map(move |k| (i, at, e, k)))
        .collect();
    let skipped = decisions.len().saturating_sub(limit);
    if skipped > 0 {
        println!("  ... {skipped} earlier decision(s) elided ...");
    }
    for &(i, at, e, k) in decisions.iter().rev().take(limit).rev() {
        let truth = active_before(nprocs, rec, i);
        println!("  t={at:>8}  {}", describe(e, k, p, &truth));
    }
}

fn print_report(name: &str, r: &RunResult) {
    let att = checked_attribution(r);
    let rec = recording(r);
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
    print_decision_chain(rec, r.peaks.len(), worst, 10);

    println!("\n{}", r.metrics.traffic_line());
    println!("{}", r.metrics.decisions_line());
}

/// `--kill`/`--join`: the recovery replay. Runs the cell under the given
/// membership-fault schedule with the recorder on (memory-based
/// strategy, recovery layer armed) and narrates the recording: losses,
/// the subtree reassignment chain, joins — asserting along the way that
/// the run completed, the survivors drained, and the factors are exactly
/// the fault-free run's.
fn recovery_replay(args: &CellArgs) {
    let plain = run_cell(args, &recorded_cfg(args.nprocs).with_memory_strategy());
    let r = run_cell(args, &recovery_cfg(args.nprocs, &args.kills, &args.joins));
    let rec = recording(&r);

    println!("\n=== recovery replay ===");
    println!("schedule: kills {:?}, joins {:?}", args.kills, args.joins);
    println!("fault-free: {}", plain.summary_line());
    println!("recovered:  {}", r.summary_line());

    println!("\nmembership narrative (from the flight recording):");
    let mut lines = 0usize;
    for (at, ev) in rec.events() {
        match *ev {
            SchedEvent::ProcLost { proc, nodes_lost } => {
                println!(
                    "  t={at:>8}  processor {proc} declared dead: {nodes_lost} unfinished \
                     node(s) reclaimed for re-execution"
                );
                lines += 1;
            }
            SchedEvent::SubtreeReassigned { root, from, to } => {
                println!("  t={at:>8}    subtree rooted at n{root} reassigned p{from} -> p{to}");
                lines += 1;
            }
            SchedEvent::ProcJoined { proc } => {
                println!("  t={at:>8}  processor {proc} joined");
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
fn core_timeline(args: &CellArgs) {
    let tree = build_tree(args.matrix, args.ordering, args.split);
    let cfg_static = recorded_cfg(args.nprocs).with_memory_strategy();
    let cfg_mall = SolverConfig { core_alloc: CoreAlloc::Malleable, ..cfg_static.clone() };
    let fixed = run_cell(args, &cfg_static);
    let r = run_cell(args, &cfg_mall);
    let rec = recording(&r);

    // Depth of every front below its root (roots at depth 0): parents
    // precede children when the topological order is walked backwards.
    let mut depth = vec![0usize; tree.len()];
    for &v in tree.topo_order().iter().rev() {
        for &c in &tree.nodes[v].children {
            depth[c] = depth[v] + 1;
        }
    }

    let grants: Vec<(Time, u32, usize, u32, u64)> = rec
        .events()
        .filter_map(|(at, ev)| match *ev {
            SchedEvent::CoreGrant { proc, node, cores, busy } => {
                Some((at, proc, node as usize, cores, busy))
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
        CORES_PER_PROC * args.nprocs,
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

fn cmd_explain(args: &CellArgs) {
    // `--cores` and `--kill`/`--join` each replace the report, and only
    // the report exports: any two of the three would leave one unread.
    if [args.cores, has_faults(args), args.obs_dir.is_some()].iter().filter(|&&on| on).count() > 1 {
        die("--cores, --kill/--join and --obs-dir exclude each other");
    }
    let header = format!(
        "explain {} / {} on {} processors",
        args.matrix.name(),
        args.ordering.name(),
        args.nprocs
    );
    if args.cores {
        println!("{header} (core-allocation timeline)");
        return core_timeline(args);
    }
    if has_faults(args) {
        println!("{header} (recovery replay)");
        return recovery_replay(args);
    }
    match args.split {
        Some(t) => println!("{header}, split at {t} entries"),
        None => println!("{header}"),
    }
    let c = captured_cell(args, args.matrix);
    print_report("workload (baseline)", &c.baseline);
    print_report("memory-based", &c.memory);
    print_strategy_diff(&c);
    if let Some(dir) = &args.obs_dir {
        obs::export_cell(dir, &c);
        eprintln!("explain: exported the cell's artifacts to {}", dir.display());
    }
}

// ------------------------------------------------- audit and check-all

/// Audits one run's recording; prints findings and returns their count.
fn audit_run(what: &str, nprocs: usize, r: &RunResult) -> usize {
    let rec = recording(r);
    let findings = audit_recording(nprocs, rec);
    if findings.is_empty() {
        println!("{what}: {} events, 0 findings", rec.len());
    } else {
        println!("{what}: {} events, {} FINDING(S)", rec.len(), findings.len());
        for f in &findings {
            println!("  finding: {f}");
        }
    }
    findings.len()
}

/// Exits 1 naming the count if an audit found anything.
fn exit_on_findings(cmd: &str, findings: usize) {
    if findings > 0 {
        eprintln!("mf-obs {cmd}: {findings} finding(s)");
        std::process::exit(1);
    }
}

fn cmd_audit(a: &CellArgs) {
    let findings = if has_faults(a) {
        let r = run_cell(a, &recovery_cfg(a.nprocs, &a.kills, &a.joins));
        println!("recovery run (kills {:?}, joins {:?}): {}", a.kills, a.joins, r.summary_line());
        audit_run(&format!("{} memory+recovery", a.matrix.name().to_lowercase()), a.nprocs, &r)
    } else {
        let c = captured_cell(a, a.matrix);
        let label = obs::cell_label(&c);
        audit_run(&format!("{label} workload"), a.nprocs, &c.baseline)
            + audit_run(&format!("{label} memory"), a.nprocs, &c.memory)
    };
    exit_on_findings("audit", findings);
    println!("audit: every invariant holds");
}

/// The acceptance sweep: every paper matrix run once, recorder on, and
/// on each strategy's recording both checks — composition-sums-to-peak
/// for every processor (via [`checked_attribution`]) and the audit.
fn cmd_check_all(a: &CellArgs) {
    let mut findings = 0usize;
    for m in ALL_PAPER_MATRICES {
        let c = captured_cell(a, m);
        let label = obs::cell_label(&c);
        for (name, r) in [("workload", &c.baseline), ("memory", &c.memory)] {
            let att = checked_attribution(r);
            let worst = att.iter().max_by_key(|at| at.peak).expect("at least one processor");
            println!(
                "{:12} {:5} {:8}: {} procs verified, machine peak {} on proc {} at t={}",
                m.name(),
                a.ordering.name(),
                name,
                att.len(),
                worst.peak,
                worst.proc,
                worst.at
            );
            findings += audit_run(&format!("{label} {name}"), a.nprocs, r);
        }
        if let Some(dir) = &a.obs_dir {
            obs::export_cell(dir, &c);
        }
    }
    exit_on_findings("check-all", findings);
    println!("check-all: every composition sums to its active_peak and every invariant holds");
}

// ----------------------------------------------------------------- diff

/// First index at which two recordings disagree, with a rendering of
/// both sides; `None` when one is a prefix of the other of equal length.
fn first_divergence(a: &Recording, b: &Recording) -> Option<(usize, String, String)> {
    let show = |e: Option<(Time, &SchedEvent)>| {
        e.map_or_else(|| "<end>".into(), |(at, ev)| format!("t={at} {ev:?}"))
    };
    let (mut ia, mut ib) = (a.events(), b.events());
    let mut i = 0usize;
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some((i, show(x), show(y))),
            _ => i += 1,
        }
    }
}

fn print_metric_deltas(aname: &str, bname: &str, a: &RunResult, b: &RunResult) {
    println!("{:>24} {:>14} {:>14} {:>10}", "metric", aname, bname, "delta%");
    let rows: [(&str, u64, u64); 6] = [
        ("max_peak", a.max_peak, b.max_peak),
        ("makespan", a.makespan, b.makespan),
        ("messages", a.messages, b.messages),
        ("status_msgs", a.metrics.status_msgs, b.metrics.status_msgs),
        ("forced_activations", a.forced_activations, b.forced_activations),
        ("reselect_rounds", a.metrics.reselect_rounds, b.metrics.reselect_rounds),
    ];
    for (name, x, y) in rows {
        let pct = if x == 0 { 0.0 } else { 100.0 * (y as f64 - x as f64) / x as f64 };
        println!("{name:>24} {x:>14} {y:>14} {pct:>+10.1}");
    }
}

/// How the machine peak's composition moved between two runs.
fn print_peak_composition_diff(a: &RunResult, b: &RunResult) {
    let aa = attribute_peaks(a.peaks.len(), recording(a));
    let ab = attribute_peaks(b.peaks.len(), recording(b));
    let wa = aa.iter().max_by_key(|x| x.peak).expect("procs");
    let wb = ab.iter().max_by_key(|x| x.peak).expect("procs");
    println!(
        "machine peak: proc {} ({} entries at t={}) -> proc {} ({} entries at t={})",
        wa.proc, wa.peak, wa.at, wb.proc, wb.peak, wb.at
    );
    for (side, w) in [("a", wa), ("b", wb)] {
        let mut comp: Vec<_> = w.composition.iter().collect();
        comp.sort_by_key(|it| std::cmp::Reverse(it.entries));
        let head: Vec<String> = comp
            .iter()
            .take(5)
            .map(|it| format!("n{}/{}:{}", it.node, it.area.name(), it.entries))
            .collect();
        println!("  peak composition ({side}): {}", head.join("  "));
    }
}

/// Whether the cell asks for a membership-fault schedule.
fn has_faults(a: &CellArgs) -> bool {
    !a.kills.is_empty() || !a.joins.is_empty()
}

fn cmd_diff_backends(a: &CellArgs) {
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let base = recorded_cfg(a.nprocs);
    println!(
        "diff backends: {} / {} on {} processors (sim vs threads)",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs
    );
    let runs = if has_faults(a) {
        vec![("memory+recovery", recovery_cfg(a.nprocs, &a.kills, &a.joins))]
    } else {
        vec![
            ("baseline", base.clone().with_workload_strategy()),
            ("memory", base.with_memory_strategy()),
        ]
    };
    let mut diverged = false;
    for (strategy, cfg) in runs {
        let map = compute_mapping(&tree, &cfg);
        let sim =
            parsim::run(&tree, &map, &cfg).unwrap_or_else(|e| panic!("simulator run failed: {e}"));
        let thr = mf_exec::run_threads(&tree, &map, &cfg)
            .unwrap_or_else(|e| panic!("threaded run failed: {e}"));
        if sim == thr {
            println!(
                "{strategy}: identical — {} events, every field of the result agrees bit-exactly",
                recording(&sim).len()
            );
            continue;
        }
        diverged = true;
        match first_divergence(recording(&sim), recording(&thr)) {
            Some((i, x, y)) => {
                println!("{strategy}: DIVERGED at event {i}");
                println!("  sim:     {x}");
                println!("  threads: {y}");
            }
            None => println!("{strategy}: DIVERGED with identical recordings"),
        }
        print_metric_deltas("sim", "threads", &sim, &thr);
    }
    if diverged {
        eprintln!("mf-obs diff backends: sim and threads diverged");
        std::process::exit(1);
    }
    println!("backends agree: the sans-io core is driven bit-identically");
}

/// The strategy-vs-strategy block, shared by `explain` and
/// `diff strategies`: where the two schedules part, what that did to the
/// run's totals, and where each processor's peak ended up.
fn print_strategy_diff(c: &CellResult) {
    println!("\n=== strategy vs strategy ===");
    let (ra, rb) = (recording(&c.baseline), recording(&c.memory));
    match first_divergence(ra, rb) {
        None => println!("schedules identical ({} events)", ra.len()),
        Some((i, x, y)) => {
            println!("first divergent event: #{i}");
            println!("  workload: {x}");
            println!("  memory:   {y}");
        }
    }
    print_metric_deltas("workload", "memory", &c.baseline, &c.memory);
    print_peak_composition_diff(&c.baseline, &c.memory);
    println!("{:>5} {:>12} {:>12} {:>8}", "proc", "workload", "memory", "delta%");
    for (p, (&b, &m)) in c.baseline.peaks.iter().zip(&c.memory.peaks).enumerate() {
        let delta = if b == 0 { 0.0 } else { 100.0 * (m as f64 - b as f64) / b as f64 };
        println!("{p:>5} {b:>12} {m:>12} {delta:>+8.1}");
    }
    println!(
        "view staleness mean {:.0} -> {:.0} ticks",
        c.baseline.metrics.view_staleness.mean(),
        c.memory.metrics.view_staleness.mean()
    );
    println!("peak gain {:.1}%, time loss {:.1}%", c.gain_percent(), c.time_loss_percent());
}

fn cmd_diff_strategies(a: &CellArgs) {
    println!(
        "diff strategies: {} / {} on {} processors (workload vs memory)",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs
    );
    print_strategy_diff(&captured_cell(a, a.matrix));
}

/// Fault-free memory-strategy run vs its twin under a membership-fault
/// schedule: same tree, same mapping, recorder on in both. The streams
/// agree bit-exactly up to the first membership event; everything after
/// is what surviving the fault cost.
fn cmd_diff_faults(a: &CellArgs) {
    let (kills, joins) = if has_faults(a) {
        (a.kills.clone(), a.joins.clone())
    } else {
        (vec![(128, 1)], Vec::new())
    };
    println!(
        "diff faults: {} / {} on {} processors (fault-free vs kills {:?}, joins {:?})",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs,
        kills,
        joins
    );
    let clean = run_cell(a, &recorded_cfg(a.nprocs).with_memory_strategy());
    let faulty = run_cell(a, &recovery_cfg(a.nprocs, &kills, &joins));
    for (what, r) in [("fault-free", &clean), ("faulted", &faulty)] {
        let n = audit_run(what, a.nprocs, r);
        if n > 0 {
            eprintln!("mf-obs diff faults: {what} run has {n} finding(s)");
            std::process::exit(1);
        }
    }
    let (ra, rb) = (recording(&clean), recording(&faulty));
    match first_divergence(ra, rb) {
        None => println!("schedules identical ({} events) — the fault never fired", ra.len()),
        Some((i, x, y)) => {
            println!("first divergent event: #{i} (of {} / {})", ra.len(), rb.len());
            println!("  fault-free: {x}");
            println!("  faulted:    {y}");
        }
    }
    print_metric_deltas("fault-free", "faulted", &clean, &faulty);
    print_peak_composition_diff(&clean, &faulty);
    println!("dead at exit: {:?}", faulty.dead);
    println!("{}", faulty.metrics.recovery.summary());
}

// ------------------------------------------------------------- timeline

fn cmd_timeline(a: &CellArgs) {
    let base = SolverConfig { sample_every: Some(a.every), ..paper_scale_config(a.nprocs) };
    let cfg = match a.strategy.as_str() {
        "baseline" => base.with_workload_strategy(),
        _ => base.with_memory_strategy(),
    };
    let r = run_cell(a, &cfg);
    let ts = r.timeseries.as_ref().expect("sampled run carries a time series");
    eprintln!(
        "timeline: {} / {} / {} on {} processors, interval {} ticks, {} samples",
        a.matrix.name(),
        a.ordering.name(),
        a.strategy,
        a.nprocs,
        a.every,
        ts.total_len()
    );
    ts.write_jsonl(&mut std::io::stdout().lock())
        .unwrap_or_else(|e| die(&format!("writing timeline: {e}")));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: mf-obs <explain|audit|check-all|diff|timeline> ...";
    let mut cmd = args.next().unwrap_or_else(|| die(usage));
    if cmd == "diff" {
        let usage = "usage: mf-obs diff <backends|strategies|faults> ...";
        cmd = format!("diff {}", args.next().unwrap_or_else(|| die(usage)));
    }
    let Some(&(_, line)) = USAGE.iter().find(|&&(c, _)| c == cmd) else {
        die(&format!("unknown subcommand {cmd:?}; {usage}"))
    };
    let a = parse_args(args, &cmd, line);
    match cmd.as_str() {
        "explain" => cmd_explain(&a),
        "audit" => cmd_audit(&a),
        "check-all" => cmd_check_all(&a),
        "diff backends" => cmd_diff_backends(&a),
        "diff strategies" => cmd_diff_strategies(&a),
        "diff faults" => cmd_diff_faults(&a),
        "timeline" => cmd_timeline(&a),
        _ => unreachable!("every USAGE entry has a command"),
    }
}
