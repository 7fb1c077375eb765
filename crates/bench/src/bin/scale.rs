//! Processor-count scaling sweep on full-size synthetic instances —
//! the workload the event queue and the view table are sized for.
//!
//! The paper's tables stop at 32 processors because its matrices do; the
//! engine itself is sized for three more doublings. This binary runs the
//! memory-based strategy over a Table-1-scale synthetic nested-dissection
//! instance (~197k columns, 8191 fronts, 4096 leaf subtrees — see
//! [`mf_bench::scenarios::SynthConfig`]) at P in {32, 128, 512, 1024}
//! and writes `BENCH_scale.json` with, per point:
//!
//! * wall-clock, delivered events, ns/event and events/sec — the
//!   engine's end-to-end cost per point;
//! * makespan, peaks, and the status-coherence traffic (status message
//!   and byte counts, status broadcasts per front) — how the paper's
//!   protocol scales with P;
//! * the point's own resident memory: the RSS high-water mark is reset
//!   before each point, so `rss_hwm_kb` is that point's peak,
//!   `rss_delta_kb` what the run added to the RSS it started from, and
//!   `heap_bytes_per_node_proc` that delta per (front, processor) pair.
//!   Where the kernel refuses the reset the high-water mark stays
//!   cumulative and later points over-report.
//!
//! Usage: `scale [--smoke]`; any other argument is a usage error (exit
//! 2) before anything runs or is written.
//!
//! `--smoke` runs one 256-processor cell on the small smoke instance
//! under a hard wall-clock ceiling, an RSS-delta ceiling and a ceiling on
//! the status broadcasts per front, holds the full-size instance's host
//! time per event at P=1024 at or under its P=32 figure (best of three
//! each, same process), and validates the rendered JSON with
//! `mf_bench::obs` — the CI guard that the full sweep stays runnable, the
//! simulator's footprint small, a step's status deltas folded and the
//! per-event cost flat in P.

use std::fmt::Write as _;
use std::time::Instant;

use mf_bench::obs::die;
use mf_bench::paper_scale_config;
use mf_bench::scenarios::{synth_nd_tree, SynthConfig};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, RunResult};
use mf_symbolic::AssemblyTree;

/// One kB field (`VmHWM`, `VmRSS`) of `/proc/self/status`; 0 where the
/// file is unavailable (non-Linux hosts).
fn status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Per processor count, figures of earlier sweeps kept in the artifact
/// for comparison: `rss_hwm_kb` before the per-node scheduler state
/// became sparse (each cumulative over the points before it),
/// `status_msgs` before a step's same-kind status deltas were folded
/// into one broadcast, and `wall_ms`/`ns_per_event` while a broadcast
/// block still made one host call per target instead of one sweep per
/// touched row of the view table (the last sweep committed with that
/// loop).
const PRIOR: [(usize, u64, u64, f64, f64); 4] = [
    (32, 28872, 1516861, 13.4, 17.8),
    (128, 103992, 8832215, 41.6, 7.5),
    (512, 402264, 40812037, 191.7, 6.3),
    (1024, 818036, 93065379, 466.8, 5.8),
];

struct Point {
    nprocs: usize,
    wall_ms: f64,
    ns_per_event: f64,
    events_per_sec: f64,
    rss_hwm_kb: u64,
    rss_delta_kb: u64,
    r: RunResult,
}

impl Point {
    /// Status broadcasts per front: every status message of a quiet run
    /// is one of the `nprocs - 1` copies of a broadcast.
    fn status_broadcasts_per_front(&self) -> f64 {
        let broadcasts = self.r.metrics.status_msgs / (self.nprocs as u64 - 1).max(1);
        broadcasts as f64 / self.r.total_nodes as f64
    }
}

fn run_point(tree: &AssemblyTree, nprocs: usize) -> Point {
    // The paper's headline configuration (Algorithm 1 slave selection,
    // Algorithm 2 task selection, subtree info and prediction on), with
    // the table drivers' front-type thresholds.
    let cfg = paper_scale_config(nprocs).with_memory_strategy();
    let map = compute_mapping(tree, &cfg);
    // Reset the high-water mark to the current RSS (ignored where the
    // kernel does not permit it).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let rss_before = status_kb("VmRSS");
    let start = Instant::now();
    let r = parsim::run(tree, &map, &cfg)
        .unwrap_or_else(|e| panic!("scale run at P={nprocs} failed: {e}"));
    let wall = start.elapsed();
    assert_eq!(r.nodes_done, r.total_nodes, "P={nprocs}: run did not complete");
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events = r.events_delivered.max(1);
    let rss_hwm_kb = status_kb("VmHWM");
    Point {
        nprocs,
        wall_ms,
        ns_per_event: wall.as_nanos() as f64 / events as f64,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        rss_hwm_kb,
        rss_delta_kb: rss_hwm_kb.saturating_sub(rss_before),
        r,
    }
}

fn render_json(shape: &SynthConfig, tree: &AssemblyTree, points: &[Point]) -> String {
    let stats = tree.stats();
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"cargo run --release -p mf-bench --bin scale\",").unwrap();
    writeln!(json, "  \"instance\": {{").unwrap();
    writeln!(
        json,
        "    \"synth\": {{ \"s0\": {}, \"gamma\": {}, \"depth\": {}, \"beta\": {}, \
         \"jitter\": {}, \"seed\": {} }},",
        shape.s0, shape.gamma, shape.depth, shape.beta, shape.jitter, shape.seed
    )
    .unwrap();
    writeln!(
        json,
        "    \"n\": {}, \"fronts\": {}, \"leaves\": {}, \"depth\": {}, \
         \"factor_entries\": {}, \"flops\": {}",
        tree.n, stats.nodes, stats.leaves, stats.depth, stats.factor_entries, stats.flops
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"strategy\": \"memory-based (Alg 1 + Alg 2, subtree info, prediction)\",")
        .unwrap();
    writeln!(json, "  \"points\": [").unwrap();
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let m = &p.r.metrics;
        writeln!(json, "    {{").unwrap();
        let prior = PRIOR.iter().find(|(n, ..)| *n == p.nprocs);
        writeln!(json, "      \"nprocs\": {},", p.nprocs).unwrap();
        writeln!(json, "      \"wall_ms\": {:.1},", p.wall_ms).unwrap();
        if let Some((.., wall_ms, _)) = prior {
            writeln!(json, "      \"prior_wall_ms\": {wall_ms:.1},").unwrap();
        }
        writeln!(json, "      \"events_delivered\": {},", p.r.events_delivered).unwrap();
        writeln!(json, "      \"ns_per_event\": {:.1},", p.ns_per_event).unwrap();
        if let Some((.., ns_per_event)) = prior {
            writeln!(json, "      \"prior_ns_per_event\": {ns_per_event:.1},").unwrap();
        }
        writeln!(json, "      \"events_per_sec\": {:.0},", p.events_per_sec).unwrap();
        writeln!(json, "      \"makespan\": {},", p.r.makespan).unwrap();
        writeln!(json, "      \"max_peak\": {},", p.r.max_peak).unwrap();
        writeln!(json, "      \"sum_peaks\": {},", p.r.peaks.iter().sum::<u64>()).unwrap();
        writeln!(json, "      \"messages\": {},", p.r.messages).unwrap();
        writeln!(
            json,
            "      \"status_msgs\": {}, \"status_bytes\": {}, \"dropped_status\": {},",
            m.status_msgs, m.status_bytes, m.dropped_status
        )
        .unwrap();
        writeln!(
            json,
            "      \"control_msgs\": {}, \"control_bytes\": {},",
            m.control_msgs, m.control_bytes
        )
        .unwrap();
        writeln!(
            json,
            "      \"status_msgs_per_event\": {:.3},",
            m.status_msgs as f64 / p.r.events_delivered.max(1) as f64
        )
        .unwrap();
        writeln!(
            json,
            "      \"status_broadcasts_per_front\": {:.2},",
            p.status_broadcasts_per_front()
        )
        .unwrap();
        writeln!(json, "      \"view_staleness_p95\": {},", m.view_staleness.quantile(0.95))
            .unwrap();
        if let Some((_, _, status_msgs, ..)) = prior {
            writeln!(json, "      \"prior_status_msgs\": {status_msgs},").unwrap();
        }
        writeln!(json, "      \"rss_hwm_kb\": {},", p.rss_hwm_kb).unwrap();
        if let Some((_, rss_hwm_kb, ..)) = prior {
            writeln!(json, "      \"prior_rss_hwm_kb\": {rss_hwm_kb},").unwrap();
        }
        writeln!(json, "      \"rss_delta_kb\": {},", p.rss_delta_kb).unwrap();
        writeln!(
            json,
            "      \"heap_bytes_per_node_proc\": {:.1}",
            (p.rss_delta_kb * 1024) as f64 / (stats.nodes * p.nprocs) as f64
        )
        .unwrap();
        writeln!(json, "    }}{sep}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    json
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = match args.as_slice() {
        [] => false,
        [a] if a == "--smoke" => true,
        _ => die(&format!("unexpected arguments {args:?}; usage: scale [--smoke]")),
    };
    if smoke {
        // CI guard: one 256-processor cell on the small instance must
        // finish comfortably inside the ceiling and render valid JSON
        // whose numeric leaves are extractable (the artifact-diff path).
        // The cell takes ~10 ms on a quiet host; the ceiling leaves two
        // orders of magnitude for a contended CI runner.
        const CEILING_MS: f64 = 5_000.0;
        // 511 fronts x 256 processors: ~5 MB of views, queue and result.
        // Full-length per-node vectors in every core added 13 MB.
        const RSS_DELTA_CEILING_KB: u64 = 10 * 1024;
        // 7.99 here; 9.27 when every memory movement and load change of
        // a step was broadcast on its own.
        const BROADCASTS_PER_FRONT_CEILING: f64 = 8.6;
        let shape = SynthConfig::smoke(42);
        let tree = synth_nd_tree(&shape);
        let start = Instant::now();
        let p = run_point(&tree, 256);
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        // Host time per event must not grow with the machine: on the
        // full-size instance, P=1024 at or under P=32 (ROADMAP item 5),
        // best of three each in this process so one noisy run cannot
        // decide it. ~0.4 with one slot-major view table; 1.2-1.3 when
        // each processor kept a table of its own and a broadcast touched
        // one cache line in each of 1023 of them. The small instance
        // cannot tell the two apart: its P=32 cost is all fixed per-event
        // work, and its 256 x 256 views fit the caches either way.
        let full = synth_nd_tree(&SynthConfig::paper_scale(42));
        let best = |nprocs| {
            (0..3).map(|_| run_point(&full, nprocs).ns_per_event).fold(f64::INFINITY, f64::min)
        };
        let (ns32, ns1024) = (best(32), best(1024));
        let json = render_json(&shape, &tree, std::slice::from_ref(&p));
        mf_bench::obs::validate_json(&json).expect("smoke JSON must be well-formed");
        let nums = mf_bench::obs::json_numbers(&json);
        assert!(
            nums.iter().any(|(k, v)| k == "points[0].events_delivered" && *v > 0.0),
            "smoke JSON must carry delivered-event counts"
        );
        assert!(
            total_ms <= CEILING_MS,
            "scale smoke exceeded its ceiling: {total_ms:.0} ms > {CEILING_MS:.0} ms"
        );
        assert!(
            p.rss_delta_kb <= RSS_DELTA_CEILING_KB,
            "scale smoke grew the RSS by {} kB, over its ceiling of {RSS_DELTA_CEILING_KB} kB",
            p.rss_delta_kb
        );
        assert!(
            ns1024 <= ns32,
            "scale smoke spent {ns1024:.1} ns per event at P=1024, over the {ns32:.1} it spends \
             at P=32 on the same instance: does a broadcast still sweep one row of views?"
        );
        assert!(
            p.status_broadcasts_per_front() <= BROADCASTS_PER_FRONT_CEILING,
            "scale smoke broadcast {:.2} status deltas per front, over its ceiling of \
             {BROADCASTS_PER_FRONT_CEILING}: is every step folding its same-kind deltas?",
            p.status_broadcasts_per_front()
        );
        println!("{json}");
        eprintln!(
            "scale smoke OK: P=256, {} events in {:.0} ms (ceiling {:.0} ms), RSS +{} kB \
             (ceiling {} kB), {:.2} status broadcasts per front (ceiling {}); full instance \
             {:.1} ns/event at P=1024 over {:.1} at P=32 = {:.2} (ceiling 1)",
            p.r.events_delivered,
            total_ms,
            CEILING_MS,
            p.rss_delta_kb,
            RSS_DELTA_CEILING_KB,
            p.status_broadcasts_per_front(),
            BROADCASTS_PER_FRONT_CEILING,
            ns1024,
            ns32,
            ns1024 / ns32
        );
        return;
    }

    let shape = SynthConfig::paper_scale(42);
    eprintln!(
        "synthesizing instance (s0={}, gamma={}, depth={}) ...",
        shape.s0, shape.gamma, shape.depth
    );
    let tree = synth_nd_tree(&shape);
    let stats = tree.stats();
    eprintln!("instance: n={}, {} fronts, {} leaves", tree.n, stats.nodes, stats.leaves);
    let mut points = Vec::new();
    for nprocs in [32usize, 128, 512, 1024] {
        eprintln!("P={nprocs} ...");
        let p = run_point(&tree, nprocs);
        eprintln!(
            "  {} events in {:.0} ms: {:.0} ns/event, {:.2e} events/s, \
             {} status msgs ({:.2} broadcasts per front), rss {} MB (+{} MB)",
            p.r.events_delivered,
            p.wall_ms,
            p.ns_per_event,
            p.events_per_sec,
            p.r.metrics.status_msgs,
            p.status_broadcasts_per_front(),
            p.rss_hwm_kb / 1024,
            p.rss_delta_kb / 1024
        );
        points.push(p);
    }
    let json = render_json(&shape, &tree, &points);
    mf_bench::obs::validate_json(&json).expect("BENCH_scale.json must be well-formed");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    print!("{json}");
}
