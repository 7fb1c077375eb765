//! `mf-obs` — run auditing, cross-run diffing, and telemetry timelines.
//!
//! The observability companion to the table binaries: where `explain`
//! narrates *why* a run peaked, `mf-obs` checks that runs are *correct*
//! and tells two runs apart. Three subcommands:
//!
//! ```text
//! mf-obs audit [MATRIX] [ORDERING] [--nprocs N] [--split] [--check-all]
//!              [--kill IDX:PROC]... [--join IDX:PROC]...
//! mf-obs diff backends   [MATRIX] [ORDERING] [--nprocs N]
//! mf-obs diff strategies [MATRIX] [ORDERING] [--nprocs N]
//! mf-obs diff faults     [MATRIX] [ORDERING] [--nprocs N]
//!                        [--kill IDX:PROC]... [--join IDX:PROC]...
//! mf-obs diff sweeps OLD.json NEW.json
//! mf-obs timeline [MATRIX] [ORDERING] [--nprocs N] [--every TICKS]
//!                 [--strategy baseline|memory] [--format csv|jsonl|prom]
//! ```
//!
//! * **audit** replays a cell with the flight recorder on and verifies
//!   the protocol invariants (`mf_sim::audit`): memory-account balance,
//!   compute-span pairing, activation epochs, membership fencing. Every
//!   violation prints as a typed finding naming the processor, node and
//!   area; any finding exits nonzero. `--check-all` sweeps every paper
//!   matrix under both strategies (CI runs this on both backends via
//!   `MF_BACKEND`); `--kill`/`--join` audit a recovery run under the
//!   given membership-fault schedule.
//! * **diff** compares two runs. `backends` runs the same cell on the
//!   simulator and the thread pool and reports the first divergent
//!   recorded event (the bit-identity contract means there should be
//!   none). `strategies` contrasts workload vs memory-based scheduling:
//!   first divergent event, per-processor peak deltas, and how the
//!   machine peak's composition moved. `faults` contrasts a fault-free
//!   memory-strategy run with its twin under a kill/join schedule
//!   (default: kill processor 1 at control-message 128) — the runs are
//!   identical up to the membership event, and the diff shows what the
//!   recovery machinery cost. `sweeps` diffs two
//!   `BENCH_sweep.json`-style artifacts (commit vs commit) and names
//!   every metric that moved.
//! * **timeline** runs one strategy with the telemetry sampler armed
//!   and dumps the time series to stdout as CSV, JSONL, or Prometheus
//!   text exposition.
//!
//! Default cell: TWOTONE / AMD / 32 processors, matching `explain`.

use mf_bench::obs::{self, die, parse_fault, parse_matrix, parse_ordering};
use mf_bench::sweep::{
    build_tree, paper_scale_config, split_threshold_for, sweep_cell_captured, Backend, CellResult,
    DEFAULT_SAMPLE_INTERVAL,
};
use mf_core::config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_order::OrderingKind;
use mf_sim::{attribute_peaks, audit_recording, FaultModel, Recording};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

/// Options shared by the cell-running subcommands.
struct CellArgs {
    matrix: PaperMatrix,
    ordering: OrderingKind,
    nprocs: usize,
    split: Option<u64>,
    check_all: bool,
    kills: Vec<(u64, usize)>,
    joins: Vec<(u64, usize)>,
    every: u64,
    strategy: String,
    format: String,
    rest: Vec<String>,
}

fn parse_cell_args(args: impl Iterator<Item = String>) -> CellArgs {
    let mut out = CellArgs {
        matrix: PaperMatrix::TwoTone,
        ordering: OrderingKind::Amd,
        nprocs: 32,
        split: None,
        check_all: false,
        kills: Vec::new(),
        joins: Vec::new(),
        every: DEFAULT_SAMPLE_INTERVAL,
        strategy: "memory".into(),
        format: "csv".into(),
        rest: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nprocs" => {
                let v = args.next().and_then(|v| v.parse().ok());
                out.nprocs = v.unwrap_or_else(|| die("--nprocs needs an integer"));
            }
            "--split" => out.split = Some(split_threshold_for()),
            "--check-all" => out.check_all = true,
            "--kill" => {
                let v = args.next().unwrap_or_else(|| die("--kill needs IDX:PROC"));
                out.kills.push(parse_fault(&v, "--kill"));
            }
            "--join" => {
                let v = args.next().unwrap_or_else(|| die("--join needs IDX:PROC"));
                out.joins.push(parse_fault(&v, "--join"));
            }
            "--every" => {
                let v = args.next().and_then(|v| v.parse().ok());
                out.every = v.unwrap_or_else(|| die("--every needs a tick count"));
            }
            "--strategy" => {
                let v = args.next().unwrap_or_else(|| die("--strategy needs baseline|memory"));
                if v != "baseline" && v != "memory" {
                    die(&format!("--strategy must be baseline or memory, got {v:?}"));
                }
                out.strategy = v;
            }
            "--format" => {
                let v = args.next().unwrap_or_else(|| die("--format needs csv|jsonl|prom"));
                if !matches!(v.as_str(), "csv" | "jsonl" | "prom") {
                    die(&format!("--format must be csv, jsonl or prom, got {v:?}"));
                }
                out.format = v;
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
                    out.rest.push(other.to_string());
                }
            }
        }
    }
    out
}

/// Strategy knobs for one arm of a cell, on top of a base config.
fn strategy_cfg(strategy: &str, base: &SolverConfig) -> SolverConfig {
    match strategy {
        "baseline" => SolverConfig {
            slave_selection: SlaveSelection::Workload,
            task_selection: TaskSelection::Lifo,
            use_subtree_info: false,
            use_prediction: false,
            ..base.clone()
        },
        _ => SolverConfig {
            slave_selection: SlaveSelection::Memory,
            task_selection: TaskSelection::MemoryAware,
            use_subtree_info: true,
            use_prediction: true,
            ..base.clone()
        },
    }
}

// ---------------------------------------------------------------- audit

/// Audits one run's recording; prints findings and returns their count.
fn audit_run(what: &str, nprocs: usize, r: &RunResult) -> usize {
    let rec = r.recording.as_ref().expect("audited runs carry a recording");
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

fn audit_cell(c: &CellResult) -> usize {
    let label = obs::cell_label(c);
    let nprocs = c.baseline.peaks.len();
    audit_run(&format!("{label} workload"), nprocs, &c.baseline)
        + audit_run(&format!("{label} memory"), nprocs, &c.memory)
}

/// Audits a recovery run: the memory-based strategy under the given
/// membership-fault schedule, recovery layer armed, recorder on.
fn audit_recovery(a: &CellArgs) -> usize {
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let cfg = SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: a.kills.clone(),
            join_at: a.joins.clone(),
            ..FaultModel::quiet(7)
        }),
        record_events: true,
        ..strategy_cfg("memory", &paper_scale_config(a.nprocs))
    };
    let map = compute_mapping(&tree, &cfg);
    let r = parsim::run(&tree, &map, &cfg)
        .unwrap_or_else(|e| die(&format!("recovery run failed: {e}")));
    println!("recovery run (kills {:?}, joins {:?}): {}", a.kills, a.joins, r.summary_line());
    audit_run(&format!("{} memory+recovery", a.matrix.name().to_lowercase()), a.nprocs, &r)
}

fn cmd_audit(a: &CellArgs) {
    let mut findings = 0usize;
    if !a.kills.is_empty() || !a.joins.is_empty() {
        findings += audit_recovery(a);
    } else if a.check_all {
        for m in ALL_PAPER_MATRICES {
            let c = sweep_cell_captured(m, a.ordering, a.nprocs, a.split);
            findings += audit_cell(&c);
        }
    } else {
        let c = sweep_cell_captured(a.matrix, a.ordering, a.nprocs, a.split);
        findings += audit_cell(&c);
    }
    if findings > 0 {
        eprintln!("mf-obs audit: {findings} finding(s)");
        std::process::exit(1);
    }
    println!("audit: every invariant holds");
}

// ----------------------------------------------------------------- diff

/// First index at which two recordings disagree, with a rendering of
/// both sides; `None` when one is a prefix of the other of equal length.
fn first_divergence(a: &Recording, b: &Recording) -> Option<(usize, String, String)> {
    let mut ia = a.events();
    let mut ib = b.events();
    let mut i = 0usize;
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => return None,
            (Some(x), Some(y)) => {
                if x != y {
                    return Some((
                        i,
                        format!("t={} {:?}", x.at, x.ev.to_owned()),
                        format!("t={} {:?}", y.at, y.ev.to_owned()),
                    ));
                }
            }
            (Some(x), None) => {
                return Some((i, format!("t={} {:?}", x.at, x.ev.to_owned()), "<end>".into()))
            }
            (None, Some(y)) => {
                return Some((i, "<end>".into(), format!("t={} {:?}", y.at, y.ev.to_owned())))
            }
        }
        i += 1;
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
    let (ra, rb) = (a.recording.as_ref().unwrap(), b.recording.as_ref().unwrap());
    let aa = attribute_peaks(a.peaks.len(), ra);
    let ab = attribute_peaks(b.peaks.len(), rb);
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

fn cmd_diff_backends(a: &CellArgs) {
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let base =
        SolverConfig { record_events: true, event_capacity: None, ..paper_scale_config(a.nprocs) };
    println!(
        "diff backends: {} / {} on {} processors (sim vs threads)",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs
    );
    let mut diverged = false;
    for strategy in ["baseline", "memory"] {
        let cfg = strategy_cfg(strategy, &base);
        let map = compute_mapping(&tree, &cfg);
        let sim = Backend::Sim.run(&tree, &map, &cfg);
        let thr = Backend::Threads.run(&tree, &map, &cfg);
        let (rs, rt) = (sim.recording.as_ref().unwrap(), thr.recording.as_ref().unwrap());
        match first_divergence(rs, rt) {
            None => println!(
                "{strategy}: identical — {} events, peaks and makespan agree bit-exactly",
                rs.len()
            ),
            Some((i, x, y)) => {
                diverged = true;
                println!("{strategy}: DIVERGED at event {i}");
                println!("  sim:     {x}");
                println!("  threads: {y}");
                print_metric_deltas("sim", "threads", &sim, &thr);
            }
        }
    }
    if !diverged {
        println!("backends agree: the sans-io core is driven bit-identically");
    }
}

fn cmd_diff_strategies(a: &CellArgs) {
    println!(
        "diff strategies: {} / {} on {} processors (workload vs memory)",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs
    );
    let c = sweep_cell_captured(a.matrix, a.ordering, a.nprocs, a.split);
    let (ra, rb) = (c.baseline.recording.as_ref().unwrap(), c.memory.recording.as_ref().unwrap());
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
    println!("peak gain {:.1}%, time loss {:.1}%", c.gain_percent(), c.time_loss_percent());
}

/// Fault-free memory-strategy run vs its twin under a membership-fault
/// schedule: same tree, same mapping, recorder on in both. The streams
/// agree bit-exactly up to the first membership event; everything after
/// is what surviving the fault cost.
fn cmd_diff_faults(a: &CellArgs) {
    let (kills, joins) = if a.kills.is_empty() && a.joins.is_empty() {
        (vec![(128, 1)], Vec::new())
    } else {
        (a.kills.clone(), a.joins.clone())
    };
    println!(
        "diff faults: {} / {} on {} processors (fault-free vs kills {:?}, joins {:?})",
        a.matrix.name(),
        a.ordering.name(),
        a.nprocs,
        kills,
        joins
    );
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let base = SolverConfig {
        record_events: true,
        event_capacity: None,
        ..strategy_cfg("memory", &paper_scale_config(a.nprocs))
    };
    let fault_cfg = SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel { kill_at: kills, join_at: joins, ..FaultModel::quiet(7) }),
        ..base.clone()
    };
    let map = compute_mapping(&tree, &base);
    let run = |cfg: &SolverConfig| {
        parsim::run(&tree, &map, cfg).unwrap_or_else(|e| die(&format!("run failed: {e}")))
    };
    let clean = run(&base);
    let faulty = run(&fault_cfg);
    for (what, r) in [("fault-free", &clean), ("faulted", &faulty)] {
        let n = audit_run(what, a.nprocs, r);
        if n > 0 {
            eprintln!("mf-obs diff faults: {what} run has {n} finding(s)");
            std::process::exit(1);
        }
    }
    let (ra, rb) = (clean.recording.as_ref().unwrap(), faulty.recording.as_ref().unwrap());
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

fn cmd_diff_sweeps(old_path: &str, new_path: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("cannot read {p}: {e}")))
    };
    let (old_text, new_text) = (read(old_path), read(new_path));
    for (p, t) in [(old_path, &old_text), (new_path, &new_text)] {
        if let Err(e) = obs::validate_json(t) {
            die(&format!("{p} is not well-formed JSON: {e}"));
        }
    }
    let old_nums = obs::json_numbers(&old_text);
    let new_nums = obs::json_numbers(&new_text);
    let old_map: std::collections::HashMap<&str, f64> =
        old_nums.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let new_keys: std::collections::HashSet<&str> =
        new_nums.iter().map(|(k, _)| k.as_str()).collect();

    println!("diff sweeps: {old_path} -> {new_path}");
    let mut moved: Vec<(&str, f64, f64, f64)> = new_nums
        .iter()
        .filter_map(|(k, nv)| {
            let ov = *old_map.get(k.as_str())?;
            if ov == *nv {
                return None;
            }
            let pct = if ov == 0.0 { f64::INFINITY } else { 100.0 * (nv - ov) / ov.abs() };
            Some((k.as_str(), ov, *nv, pct))
        })
        .collect();
    moved.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
    if moved.is_empty() {
        println!("no shared metric moved");
    }
    for (k, ov, nv, pct) in &moved {
        println!("  {k}: {ov} -> {nv} ({pct:+.1}%)");
    }
    for (k, _) in &old_nums {
        if !new_keys.contains(k.as_str()) {
            println!("  {k}: removed");
        }
    }
    for (k, v) in &new_nums {
        if !old_map.contains_key(k.as_str()) {
            println!("  {k}: added ({v})");
        }
    }
}

// ------------------------------------------------------------- timeline

fn cmd_timeline(a: &CellArgs) {
    let tree = build_tree(a.matrix, a.ordering, a.split);
    let cfg = SolverConfig {
        sample_every: Some(a.every),
        ..strategy_cfg(&a.strategy, &paper_scale_config(a.nprocs))
    };
    let map = compute_mapping(&tree, &cfg);
    let r = Backend::from_env().run(&tree, &map, &cfg);
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
    let mut out = std::io::stdout().lock();
    let res = match a.format.as_str() {
        "jsonl" => ts.write_jsonl(&mut out),
        "prom" => ts.write_prometheus(&mut out),
        _ => ts.write_csv(&mut out),
    };
    res.unwrap_or_else(|e| die(&format!("writing timeline: {e}")));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| die("usage: mf-obs <audit|diff|timeline> ..."));
    match cmd.as_str() {
        "audit" => cmd_audit(&parse_cell_args(args)),
        "diff" => {
            let mode = args.next().unwrap_or_else(|| {
                die("usage: mf-obs diff <backends|strategies|faults|sweeps> ...")
            });
            match mode.as_str() {
                "backends" => cmd_diff_backends(&parse_cell_args(args)),
                "strategies" => cmd_diff_strategies(&parse_cell_args(args)),
                "faults" => cmd_diff_faults(&parse_cell_args(args)),
                "sweeps" => {
                    let a = parse_cell_args(args);
                    match a.rest.as_slice() {
                        [old, new] => cmd_diff_sweeps(old, new),
                        _ => die("usage: mf-obs diff sweeps OLD.json NEW.json"),
                    }
                }
                other => die(&format!("unknown diff mode {other:?}")),
            }
        }
        "timeline" => cmd_timeline(&parse_cell_args(args)),
        other => die(&format!("unknown subcommand {other:?}; try audit, diff or timeline")),
    }
}
