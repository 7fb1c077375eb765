//! End-to-end performance harness: times the sweep fast path against the
//! old sequential/uncached execution model and the two hot-path kernels,
//! then writes the numbers to `BENCH_sweep.json` (see DESIGN.md,
//! "Performance").
//!
//! What observing a run costs (recorder, sampler, audit) is the
//! benchmark's `sweep_observed` workload and is not measured here.
//!
//! 0. **layers** — the per-layer ledger of ROADMAP item 1, one child so
//!    far: `order`, the wall time of each ordering over the eight paper
//!    matrices (what one column of a table costs before any analysis),
//!    as the median of a few repeats with its MAD and the prior run's
//!    median.
//! 1. **sweep subset** — a representative slice of the Table 2/3 grid
//!    run (a) the old way: one cell at a time, rebuilding the matrix,
//!    permutation and tree from scratch per cell; and (b) the current
//!    way: [`sweep_cells`] over the shared artifact cache. The two must
//!    agree peak-for-peak (asserted) — the speedup is pure scheduling
//!    and reuse, not a change of results.
//! 2. **event queue** — raw push/pop throughput of the simulator's
//!    single-heap event queue.
//! 3. **LU kernel + packed GEMM** — the blocked partial-LU front kernel
//!    at several front orders (with trajectory fields carrying the prior
//!    run's numbers), plus a GEMM section sweeping panel width × within-
//!    front thread budget at front=512, the packed-microkernel roofline
//!    estimate, and two guards: a gflop/s floor on the blocked kernel
//!    (SIMD-level dependent) and a ≥3× self-speedup check at 8 threads
//!    (only on hosts with ≥8 cores).
//! 4. **core allocation** — static vs malleable makespan over the subset;
//!    the summed malleable makespan may not exceed the static one.
//! 5. **end to end** — one real numeric factorization through the full
//!    stack, as gflop/s with the prior run's value.
//!
//! Afterwards the whole artifact is diffed against the prior
//! `BENCH_sweep.json` and every metric that moved is named (the
//! trajectory report).

use std::fmt::Write as _;
use std::time::Instant;

use mf_bench::sweep::{paper_scale_config, run_strategies, sweep_cell, sweep_cells, CellSpec};
use mf_core::config::SolverConfig;
use mf_core::parsim::RunResult;
use mf_core::CoreAlloc;
use mf_frontal::dense::{partial_lu_blocked_mt, partial_lu_blocked_rank1_panel, DenseMat};
use mf_frontal::gemm;
use mf_order::{OrderingKind, ALL_ORDERINGS};
use mf_sim::engine::{EventPayload, Sim};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::AmalgamationOptions;

/// The timed sweep subset mirrors the Table 5 driver's shape: each
/// (matrix, ordering) pair swept across split settings and processor
/// counts. That key overlap is exactly what the real drivers present to
/// the artifact cache — the matrix, permutation and base tree are shared
/// across every cell of a pair, and each split threshold re-derives its
/// tree from the cached base once.
fn subset() -> Vec<CellSpec> {
    let thr = mf_bench::sweep::split_threshold_for();
    let mut specs = Vec::new();
    for (m, k) in
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ship003, OrderingKind::Metis)]
    {
        for nprocs in [16usize, 32] {
            for split in [None, Some(thr)] {
                specs.push((m, k, nprocs, split));
            }
        }
    }
    specs
}

/// One cell the way the pre-cache drivers ran it: every artifact rebuilt
/// from scratch, nothing shared, strictly sequential at the call site.
/// Returns the `(baseline, memory)` runs.
fn uncached_runs(spec: &CellSpec) -> (RunResult, RunResult) {
    let &(matrix, ordering, nprocs, split) = spec;
    let a = matrix.instantiate();
    let perm = ordering.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    if let Some(t) = split {
        mf_symbolic::split::split_large_masters(&mut s.tree, t);
    }
    run_strategies(&s.tree, &paper_scale_config(nprocs))
}

/// Section 2: ns/event for schedule+next through the single-heap queue,
/// with a live queue of `depth` events (each pop schedules a successor).
fn event_queue_ns(depth: usize, events: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut delay = 1u64;
    for k in 0..depth as u64 {
        delay = delay.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        sim.schedule(delay % 1024, EventPayload::Timer { proc: 0, key: k });
    }
    let start = Instant::now();
    for _ in 0..events {
        let e = sim.next().expect("queue kept full");
        if let EventPayload::Timer { proc, key } = e.payload {
            delay = delay.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            sim.schedule_timer(proc, delay % 1024, key);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(sim.pending(), depth, "queue depth must stay constant");
    ns / events as f64
}

/// Section 3: blocked partial LU on a synthetic diagonally dominant
/// front with an explicit panel width and within-front thread budget;
/// returns (milliseconds, gflop/s).
fn lu_kernel_cfg(f: usize, npiv: usize, nb: usize, threads: usize, reps: u32) -> (f64, f64) {
    let mut a = DenseMat::zeros(f, f);
    let mut h = 0x9e3779b97f4a7c15u64 ^ f as u64;
    for j in 0..f {
        for i in 0..f {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            *a.get_mut(i, j) = if i == j { f as f64 } else { v };
        }
    }
    // Flops of a partial LU with npiv pivots on an f×f front.
    let mut flops = 0f64;
    for k in 0..npiv {
        let r = (f - k - 1) as f64;
        flops += r + 2.0 * r * r;
    }
    let mut perm = Vec::new();
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let mut w = a.clone();
        let start = Instant::now();
        partial_lu_blocked_mt(&mut w, npiv, nb, &mut perm, threads)
            .expect("dominant front factors");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
    }
    (best_ms, flops / (best_ms * 1e6))
}

/// The production configuration (the drivers' panel width, sequential).
/// Prior entries in the trajectory fields were measured the same way —
/// whatever panel width the drivers used then.
fn lu_kernel(f: usize, npiv: usize, reps: u32) -> (f64, f64) {
    lu_kernel_cfg(f, npiv, mf_frontal::dense::FRONT_NB, 1, reps)
}

/// Recursive-panel (production) vs rank-1-panel (pre-recursive
/// reference) blocked LU, measured **interleaved** — rep k of each
/// kernel runs back to back, so a loaded host's frequency drift hits
/// both arms alike and the *ratio* stays meaningful even when absolute
/// gflop/s swing between runs. Returns `((ms, gflops) recursive,
/// (ms, gflops) rank1)`, each the best over `reps`.
fn panel_pair(f: usize, npiv: usize, reps: u32) -> ((f64, f64), (f64, f64)) {
    let mut a = DenseMat::zeros(f, f);
    let mut h = 0x9e3779b97f4a7c15u64 ^ f as u64;
    for j in 0..f {
        for i in 0..f {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            *a.get_mut(i, j) = if i == j { f as f64 } else { v };
        }
    }
    let mut flops = 0f64;
    for k in 0..npiv {
        let r = (f - k - 1) as f64;
        flops += r + 2.0 * r * r;
    }
    let nb = mf_frontal::dense::FRONT_NB;
    let mut perm = Vec::new();
    let (mut rec_ms, mut r1_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let mut w = a.clone();
        let start = Instant::now();
        partial_lu_blocked_mt(&mut w, npiv, nb, &mut perm, 1).expect("dominant front factors");
        rec_ms = rec_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let mut w = a.clone();
        let start = Instant::now();
        partial_lu_blocked_rank1_panel(&mut w, npiv, nb, &mut perm)
            .expect("dominant front factors");
        r1_ms = r1_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    ((rec_ms, flops / (rec_ms * 1e6)), (r1_ms, flops / (r1_ms * 1e6)))
}

/// Single-core roofline estimate: the packed microkernel on L1-resident
/// pre-packed panels (no packing, no panel factorization, no memory
/// traffic beyond the tile) — the ceiling the full kernel works under.
fn microkernel_roofline_gflops() -> f64 {
    let (m, n, kc) = (48usize, 48usize, 64usize);
    let mut h = 0x243f6a8885a308d3u64;
    let mut fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    };
    let a = fill(m * kc);
    let b = fill(kc * n);
    let mut c = fill(m * n);
    let mut ws = gemm::GemmWorkspace::new();
    let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &b, kc, kc, n);
    let inner = 2000u32;
    let flops = 2.0 * (m * n * kc) as f64 * inner as f64;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..inner {
            gemm::gemm_sub_packed(&ap, &bp, n, &mut c, m);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Pulls the prior (ms, gflops) pair of one `lu_kernel_blocked` entry
/// out of a previous `BENCH_sweep.json` — the trajectory fields.
fn prior_lu_stats(path: &str, front: usize) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let sec = &text[text.find("\"lu_kernel_blocked\"")?..];
    let entry = &sec[sec.find(&format!("\"front\": {front},"))?..];
    let number_after = |key: &str| -> Option<f64> {
        let at = entry.find(key)? + key.len();
        let rest = entry[at..].trim_start();
        let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
        rest[..end].parse().ok()
    };
    Some((number_after("\"ms\":")?, number_after("\"gflops\":")?))
}

/// Pulls `"key": <number>` out of a previous hand-rendered
/// `BENCH_sweep.json`, if the file exists. String-searching is enough:
/// the file is our own output with unique key names.
fn prior_json_number(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

const ORDER_REPS: usize = 7;

/// `layers.order`: per ordering, the median and MAD in ms of
/// `ORDER_REPS` timings of `OrderingKind::compute` over the eight paper
/// matrices at full reproduction scale (adjacency graph included: it is
/// what a cell pays).
fn order_layer() -> Vec<(OrderingKind, f64, f64)> {
    let median = |v: &mut [f64]| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let matrices: Vec<_> = ALL_PAPER_MATRICES.iter().map(|m| m.instantiate()).collect();
    ALL_ORDERINGS
        .iter()
        .map(|&kind| {
            let mut ms: Vec<f64> = (0..ORDER_REPS)
                .map(|_| {
                    let start = Instant::now();
                    for a in &matrices {
                        std::hint::black_box(kind.compute(a));
                    }
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let med = median(&mut ms);
            let mut dev: Vec<f64> = ms.iter().map(|x| (x - med).abs()).collect();
            (kind, med, median(&mut dev))
        })
        .collect()
}

fn main() {
    let specs = subset();
    // Read before this run overwrites the file (the full text is kept
    // for the end-of-run trajectory diff).
    let prior_text = std::fs::read_to_string("BENCH_sweep.json").ok();
    let prior_lu: Vec<Option<(f64, f64)>> =
        [256usize, 512, 1024].iter().map(|&f| prior_lu_stats("BENCH_sweep.json", f)).collect();
    let prior_e2e_gflops = prior_json_number("BENCH_sweep.json", "e2e_gflops");

    let prior_order: Vec<Option<f64>> = ALL_ORDERINGS
        .iter()
        .map(|k| prior_json_number("BENCH_sweep.json", &format!("{}_ms", k.name().to_lowercase())))
        .collect();

    eprintln!("[0/5] layers.order: four orderings over the eight paper matrices ...");
    let order_ms = order_layer();

    eprintln!("[1/5] sweep subset, {} cells, sequential + uncached ...", specs.len());
    let start = Instant::now();
    let slow: Vec<(RunResult, RunResult)> = specs.iter().map(uncached_runs).collect();
    let sequential_uncached_ms = start.elapsed().as_secs_f64() * 1e3;

    eprintln!("[2/5] sweep subset, parallel + shared artifact cache ...");
    let start = Instant::now();
    let fast = sweep_cells(&specs);
    let parallel_cached_ms = start.elapsed().as_secs_f64() * 1e3;

    for (s, f) in slow.iter().zip(&fast) {
        for (a, b) in [(&s.0, &f.baseline), (&s.1, &f.memory)] {
            assert_eq!(
                (a.max_peak, a.makespan),
                (b.max_peak, b.makespan),
                "cached sweep changed results: uncached [{}] vs cached [{}]",
                a.summary_line(),
                b.summary_line()
            );
        }
    }
    // A third pass through the warm cache isolates the memoization gain.
    let start = Instant::now();
    let warm = sweep_cells(&specs);
    let warm_cache_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.len(), fast.len());
    let speedup = sequential_uncached_ms / parallel_cached_ms;

    eprintln!("[3/5] event queue + LU kernel + packed GEMM ...");
    let eq_depth = 10_000;
    let eq_events = 2_000_000u64;
    let eq_ns = event_queue_ns(eq_depth, eq_events);
    let kernels: Vec<(usize, usize, f64, f64)> =
        [(256usize, 128usize, 40u32), (512, 256, 25), (1024, 512, 6)]
            .into_iter()
            .map(|(f, p, reps)| {
                let (ms, gflops) = lu_kernel(f, p, reps);
                (f, p, ms, gflops)
            })
            .collect();

    // Panel comparison: the recursive panel (production) against the
    // rank-1 reference, interleaved rep for rep so the ratio survives
    // host noise. Reported with percent-of-same-run-roofline, the only
    // stable metric on shared hosts whose absolute rates drift.
    let panel_rows: Vec<_> = [(256usize, 128usize, 24u32), (512, 256, 12), (1024, 512, 5)]
        .into_iter()
        .map(|(f, p, reps)| {
            let (rec, r1) = panel_pair(f, p, reps);
            (f, p, rec, r1)
        })
        .collect();

    // GEMM section: the same blocked kernel swept over panel width and
    // within-front thread budget at the acceptance front size, plus the
    // microkernel ceiling. Thread counts above the host's core count are
    // still measured (they exercise the chunked dispatch) but cannot
    // show real speedup — host_cores is recorded next to them.
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let simd = gemm::active_simd();
    let roofline_gflops = microkernel_roofline_gflops();
    let mut gemm_rows: Vec<(usize, usize, f64, f64)> = Vec::new();
    for nb in [32usize, 64, 128] {
        for threads in [1usize, 2, 4, 8] {
            let (ms, gflops) = lu_kernel_cfg(512, 256, nb, threads, 6);
            gemm_rows.push((nb, threads, ms, gflops));
        }
    }
    let speedup_at = |threads: usize| -> f64 {
        let ms1 = gemm_rows.iter().find(|r| r.0 == 64 && r.1 == 1).unwrap().2;
        let msn = gemm_rows.iter().find(|r| r.0 == 64 && r.1 == threads).unwrap().2;
        ms1 / msn
    };
    let self_speedup_8t = speedup_at(8);

    // Floor guard: the packed kernel must not regress below the level's
    // floor at the acceptance point (front=512, production panel width,
    // single thread).
    // The recursive panel + MC-blocked GEMM measure ~35-50 gflop/s on a
    // quiet AVX2 host, but best-of-reps still swings by ~40% on loaded
    // shared hosts, so the SIMD floor sits at 16 — above the 12 the
    // rank-1-panel kernel was held to, with headroom for that noise.
    // The scalar floor covers hosts without AVX2.
    let g512 = kernels.iter().find(|k| k.0 == 512).unwrap().3;
    let floor = match simd {
        gemm::SimdLevel::Scalar => 1.0,
        gemm::SimdLevel::Avx2 | gemm::SimdLevel::Avx512 => 16.0,
    };
    assert!(
        g512 >= floor,
        "blocked LU at front=512 regressed: {g512:.2} gflop/s under the {} floor of {floor} \
         (prior axpy kernel: 9.4)",
        simd.name()
    );
    eprintln!(
        "lu-kernel floor guard: {g512:.2} gflop/s at front=512 >= {floor} ({}) OK",
        simd.name()
    );

    // Self-speedup guard: only meaningful where 8 real cores exist.
    if host_cores >= 8 {
        assert!(
            self_speedup_8t >= 3.0,
            "trailing-update self-speedup at 8 threads is {self_speedup_8t:.2}x on a \
             {host_cores}-core host (>=3x required)"
        );
        eprintln!("self-speedup guard: {self_speedup_8t:.2}x at 8 threads OK");
    } else {
        eprintln!(
            "self-speedup guard: skipped ({host_cores} host core(s); measured \
             {self_speedup_8t:.2}x at 8 threads)"
        );
    }

    eprintln!("[4/5] malleable core allocation: static vs malleable makespan ...");
    // Static(1) reproduces the historical scheduler tick for tick; the
    // malleable allocator may only help (the speedup curve never
    // lengthens a duration, and idle cores are free), so the summed
    // makespan over the subset is guarded to never regress. Per-cell
    // rows carry events_delivered and the modelled utilization as
    // trajectory fields for `mf-obs diff sweeps`.
    let mall_rows: Vec<_> = specs
        .iter()
        .map(|&(m, k, nprocs, split)| {
            let tree = mf_bench::sweep::build_tree(m, k, split);
            let cfg_s = paper_scale_config(nprocs).with_memory_strategy();
            let cfg_m =
                SolverConfig { core_alloc: CoreAlloc::malleable(4 * nprocs), ..cfg_s.clone() };
            let map = mf_core::mapping::compute_mapping(&tree, &cfg_s);
            let st = mf_core::parsim::run(&tree, &map, &cfg_s)
                .unwrap_or_else(|e| panic!("static run failed: {e}"));
            let ml = mf_core::parsim::run(&tree, &map, &cfg_m)
                .unwrap_or_else(|e| panic!("malleable run failed: {e}"));
            assert_eq!(st.nodes_done, ml.nodes_done, "malleable run lost fronts");
            // Modelled utilization: elimination flops the tree carries
            // per processor-tick of makespan (1.0 = every core of the
            // one-core-per-processor machine busy the whole run).
            let fpt = cfg_s.flops_per_tick as f64;
            let util = tree.total_flops() as f64 / (ml.makespan as f64 * fpt * nprocs as f64);
            (
                format!("{}/{}", m.name(), k.name()),
                nprocs,
                split.is_some(),
                st.makespan,
                ml.makespan,
                st.events_delivered,
                ml.events_delivered,
                util,
            )
        })
        .collect();
    let static_total: u64 = mall_rows.iter().map(|r| r.3).sum();
    let mall_total: u64 = mall_rows.iter().map(|r| r.4).sum();
    assert!(
        mall_total <= static_total,
        "malleable allocation regressed the summed makespan: {mall_total} vs static \
         {static_total} ticks"
    );
    let won = mall_rows.iter().filter(|r| r.4 <= r.3).count();
    eprintln!(
        "malleable guard: {mall_total} <= {static_total} summed ticks \
         ({won}/{} cells tie or win) OK",
        mall_rows.len()
    );

    eprintln!("[5/5] end-to-end numeric factorization ...");
    // Real factor bytes through the full stack (assembly + recursive
    // panels + packed trailing GEMM), timed end to end; the gflop/s
    // lands in the artifact as a trajectory field.
    let (e2e_ms, e2e_gflops, e2e_flops, e2e_n) = {
        let a = PaperMatrix::Ship003.instantiate_scaled(0.2);
        let perm = OrderingKind::Amd.compute(&a);
        let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
        let flops = s.tree.total_flops();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let f = mf_frontal::Factorization::from_symbolic(&a, &s).expect("factorize");
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&f);
        }
        (best, flops as f64 / (best * 1e6), flops, a.nrows())
    };
    eprintln!("end-to-end: n={e2e_n}, {e2e_flops} flops, {e2e_ms:.1} ms, {e2e_gflops:.2} gflop/s");

    // Degradation counters over the (unperturbed, uncapped) subset: all
    // structurally zero here, surfaced so any nonzero value in a future
    // run is visible in the artifact diff.
    let count = |f: fn(&RunResult) -> u64| -> u64 {
        fast.iter().flat_map(|c| [&c.baseline, &c.memory]).map(f).sum()
    };
    let dropped_total = count(|r| r.dropped_messages);
    let forced_total = count(|r| r.forced_activations);
    let underflow_total = count(|r| r.underflows.iter().sum());

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"cargo run --release -p mf-bench --bin perf_baseline\",")
        .unwrap();
    writeln!(json, "  \"layers\": {{").unwrap();
    writeln!(json, "    \"order\": {{").unwrap();
    writeln!(
        json,
        "      \"measurement\": \"OrderingKind::compute over the 8 paper matrices at scale 1, \
         median of {ORDER_REPS} with MAD, ms\","
    )
    .unwrap();
    for (i, ((kind, med, mad), prior)) in order_ms.iter().zip(&prior_order).enumerate() {
        let (key, sep) =
            (kind.name().to_lowercase(), if i + 1 == order_ms.len() { "" } else { "," });
        let prior = prior.map_or("null".to_string(), |p| format!("{p:.1}"));
        writeln!(
            json,
            "      \"{key}_ms\": {med:.1}, \"{key}_ms_mad\": {mad:.1}, \
             \"prior_{key}_ms\": {prior}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    }}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"sweep_subset\": {{").unwrap();
    writeln!(json, "    \"cells\": {},", specs.len()).unwrap();
    writeln!(json, "    \"shape\": \"2 (matrix,ordering) x 2 nprocs x 2 split\",").unwrap();
    writeln!(json, "    \"sequential_uncached_ms\": {sequential_uncached_ms:.1},").unwrap();
    writeln!(json, "    \"parallel_cached_ms\": {parallel_cached_ms:.1},").unwrap();
    writeln!(json, "    \"warm_cache_ms\": {warm_cache_ms:.1},").unwrap();
    writeln!(json, "    \"speedup\": {speedup:.2},").unwrap();
    writeln!(json, "    \"results_identical\": true,").unwrap();
    writeln!(
        json,
        "    \"dropped_messages\": {dropped_total}, \"forced_activations\": {forced_total}, \
         \"underflows\": {underflow_total},"
    )
    .unwrap();
    let events_delivered_total: u64 =
        fast.iter().flat_map(|c| [&c.baseline, &c.memory]).map(|r| r.events_delivered).sum();
    writeln!(json, "    \"events_delivered\": {events_delivered_total}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"core_alloc\": {{").unwrap();
    writeln!(json, "    \"guard\": \"summed malleable makespan <= summed static makespan\",")
        .unwrap();
    writeln!(json, "    \"static_makespan_total\": {static_total},").unwrap();
    writeln!(json, "    \"malleable_makespan_total\": {mall_total},").unwrap();
    writeln!(json, "    \"cells_tie_or_win\": {won},").unwrap();
    writeln!(json, "    \"by_cell\": [").unwrap();
    for (i, (name, nprocs, split, st, ml, ev_s, ev_m, util)) in mall_rows.iter().enumerate() {
        let sep = if i + 1 == mall_rows.len() { "" } else { "," };
        let gain = 100.0 * (*st as f64 - *ml as f64) / (*st).max(1) as f64;
        writeln!(
            json,
            "      {{ \"cell\": \"{name}\", \"nprocs\": {nprocs}, \"split\": {split}, \
             \"static_makespan\": {st}, \"malleable_makespan\": {ml}, \
             \"gain_percent\": {gain:.1}, \"static_events_delivered\": {ev_s}, \
             \"malleable_events_delivered\": {ev_m}, \"modelled_utilization\": {util:.3} }}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"end_to_end\": {{").unwrap();
    writeln!(json, "    \"matrix\": \"SHIP_003\", \"scale\": 0.2, \"n\": {e2e_n},").unwrap();
    writeln!(json, "    \"flops\": {e2e_flops},").unwrap();
    writeln!(json, "    \"e2e_ms\": {e2e_ms:.1},").unwrap();
    writeln!(json, "    \"e2e_gflops\": {e2e_gflops:.2},").unwrap();
    match prior_e2e_gflops {
        Some(prior) => writeln!(json, "    \"prior_e2e_gflops\": {prior:.2}").unwrap(),
        None => writeln!(json, "    \"prior_e2e_gflops\": null").unwrap(),
    }
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"event_queue\": {{").unwrap();
    writeln!(json, "    \"queue_depth\": {eq_depth},").unwrap();
    writeln!(json, "    \"events\": {eq_events},").unwrap();
    writeln!(json, "    \"ns_per_event\": {eq_ns:.1}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"gemm\": {{").unwrap();
    writeln!(json, "    \"host_cores\": {host_cores},").unwrap();
    writeln!(json, "    \"simd\": \"{}\",", simd.name()).unwrap();
    writeln!(json, "    \"microkernel_roofline_gflops\": {roofline_gflops:.2},").unwrap();
    writeln!(json, "    \"self_speedup_8t\": {self_speedup_8t:.2},").unwrap();
    writeln!(json, "    \"self_speedup_guard\": \">=3x at 8 threads when host_cores >= 8\",")
        .unwrap();
    writeln!(json, "    \"lu_floor_gflops\": {floor:.1},").unwrap();
    writeln!(json, "    \"by_config\": [").unwrap();
    for (i, (nb, threads, ms, gflops)) in gemm_rows.iter().enumerate() {
        let sep = if i + 1 == gemm_rows.len() { "" } else { "," };
        writeln!(
            json,
            "      {{ \"front\": 512, \"npiv\": 256, \"nb\": {nb}, \"threads\": {threads}, \
             \"ms\": {ms:.2}, \"gflops\": {gflops:.2} }}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"panel\": {{").unwrap();
    writeln!(
        json,
        "    \"measurement\": \"recursive (production) vs rank-1 (reference) panel, \
         interleaved reps, best-of-reps; pct_roofline is vs the same run's microkernel \
         ceiling\","
    )
    .unwrap();
    writeln!(json, "    \"by_front\": [").unwrap();
    for (i, (f, p, rec, r1)) in panel_rows.iter().enumerate() {
        let sep = if i + 1 == panel_rows.len() { "" } else { "," };
        let rec_pct = 100.0 * rec.1 / roofline_gflops.max(1e-9);
        let r1_pct = 100.0 * r1.1 / roofline_gflops.max(1e-9);
        writeln!(
            json,
            "      {{ \"front\": {f}, \"npiv\": {p}, \"recursive_ms\": {:.2}, \
             \"recursive_gflops\": {:.2}, \"recursive_pct_roofline\": {rec_pct:.1}, \
             \"rank1_ms\": {:.2}, \"rank1_gflops\": {:.2}, \
             \"rank1_pct_roofline\": {r1_pct:.1} }}{sep}",
            rec.0, rec.1, r1.0, r1.1
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"lu_kernel_blocked\": [").unwrap();
    for (i, (f, p, ms, gflops)) in kernels.iter().enumerate() {
        let sep = if i + 1 == kernels.len() { "" } else { "," };
        // Trajectory fields: the same configuration's numbers from the
        // previous run of this harness, so the artifact diff shows the
        // kernel's history, not just its present.
        let prior = match prior_lu.get(i).copied().flatten() {
            Some((pm, pg)) => format!(", \"prior_ms\": {pm:.2}, \"prior_gflops\": {pg:.2}"),
            None => String::new(),
        };
        writeln!(
            json,
            "    {{ \"front\": {f}, \"npiv\": {p}, \"ms\": {ms:.2}, \
             \"gflops\": {gflops:.2}{prior} }}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    mf_bench::obs::validate_json(&json).expect("BENCH_sweep.json must be well-formed");
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    print!("{json}");

    // Trajectory diff against the file this run replaced: every shared
    // metric that moved, named by its JSON path, largest movement first
    // (the same comparison `mf-obs diff sweeps` offers across commits).
    if let Some(prior) = &prior_text {
        let old_nums = mf_bench::obs::json_numbers(prior);
        let new_nums = mf_bench::obs::json_numbers(&json);
        let old_map: std::collections::HashMap<&str, f64> =
            old_nums.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut moved: Vec<(&str, f64, f64, f64)> = new_nums
            .iter()
            .filter_map(|(k, nv)| {
                let ov = *old_map.get(k.as_str())?;
                let pct = if ov == 0.0 { 0.0 } else { 100.0 * (nv - ov) / ov.abs() };
                (pct.abs() >= 1.0).then_some((k.as_str(), ov, *nv, pct))
            })
            .collect();
        moved.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
        eprintln!(
            "trajectory vs prior BENCH_sweep.json: {} shared metric(s), {} moved >=1%",
            new_nums.iter().filter(|(k, _)| old_map.contains_key(k.as_str())).count(),
            moved.len()
        );
        for (k, ov, nv, pct) in moved.iter().take(12) {
            eprintln!("  {k}: {ov} -> {nv} ({pct:+.1}%)");
        }
    }
    eprintln!(
        "sweep subset: {sequential_uncached_ms:.0} ms -> {parallel_cached_ms:.0} ms \
         ({speedup:.1}x; warm cache {warm_cache_ms:.0} ms); \
         event queue {eq_ns:.0} ns/event"
    );
    // Re-running a cell sequentially now also hits the warm cache.
    let c = sweep_cell(specs[0].0, specs[0].1, specs[0].3, &paper_scale_config(specs[0].2));
    assert_eq!(c.baseline.max_peak, fast[0].baseline.max_peak);
}
