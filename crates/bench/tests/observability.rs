//! Integration tests for the observability layer: Perfetto export
//! stability (golden file), schema validity of real exported traces, the
//! bounded ring on a real run, and bit-identical recordings across rayon
//! thread-pool widths.

use mf_bench::obs::{cell_summary_json, validate_json};
use mf_bench::sweep::{paper_scale_config, sweep_cell, CellResult};
use mf_core::config::SolverConfig;
use mf_order::OrderingKind;
use mf_sim::recorder::{FrontClass, MemArea, SchedEvent, TaskRole};
use mf_sim::{audit_recording, write_chrome_trace, Finding, Recording};
use mf_sparse::gen::paper::PaperMatrix;
use rayon::prelude::*;

const GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight_recorder.trace.json");
const GOLDEN_SMALL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/twotone_small.trace.json");

/// A small hand-built recording exercising every event kind the exporter
/// renders: slices on two processors, both memory areas, a transient
/// same-instant alloc/free pair, an activation instant, and a
/// stall-breaker instant.
fn sample_recording() -> Recording {
    let mut rec = Recording::new(None);
    rec.record(0, SchedEvent::Activate { proc: 0, node: 4, class: FrontClass::Subtree });
    rec.record(0, SchedEvent::MemAlloc { proc: 0, node: 4, area: MemArea::Front, entries: 120 });
    rec.record(0, SchedEvent::ComputeStart { proc: 0, node: 4, role: TaskRole::Elim });
    rec.record(8, SchedEvent::ComputeEnd { proc: 0, node: 4, role: TaskRole::Elim });
    rec.record(8, SchedEvent::MemFree { proc: 0, node: 4, area: MemArea::Front, entries: 120 });
    rec.record(8, SchedEvent::MemAlloc { proc: 0, node: 4, area: MemArea::Stack, entries: 30 });
    rec.record(10, SchedEvent::Activate { proc: 1, node: 7, class: FrontClass::Type2 });
    rec.record(10, SchedEvent::MemAlloc { proc: 1, node: 7, area: MemArea::Front, entries: 50 });
    rec.record(10, SchedEvent::ComputeStart { proc: 1, node: 7, role: TaskRole::Master });
    rec.record(12, SchedEvent::Forced { proc: 1, node: 9, cost: 77 });
    rec.record(15, SchedEvent::ComputeEnd { proc: 1, node: 7, role: TaskRole::Master });
    rec.record(15, SchedEvent::MemFree { proc: 1, node: 7, area: MemArea::Front, entries: 50 });
    rec
}

/// The cell under both strategies with the flight recorder on.
fn recorded_cell(m: PaperMatrix, k: OrderingKind, nprocs: usize) -> CellResult {
    sweep_cell(m, k, None, &SolverConfig { record_events: true, ..paper_scale_config(nprocs) })
}

fn render(rec: &Recording, nprocs: usize) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, nprocs, rec, None).expect("in-memory export cannot fail");
    String::from_utf8(buf).expect("trace is ASCII")
}

/// The exporter's output format is pinned by a committed golden file:
/// any change to the rendering is a deliberate, reviewed diff
/// (regenerate with `UPDATE_GOLDEN=1 cargo test -p mf-bench`).
#[test]
fn golden_perfetto_export_is_stable() {
    let s = render(&sample_recording(), 2);
    validate_json(&s).expect("exported trace must be well-formed JSON");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &s).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    assert_eq!(s, golden, "Perfetto export drifted from the golden file");
}

/// End-to-end golden on a *real* (scaled-down) paper matrix: the whole
/// pipeline — generation, ordering, analysis, mapping, simulation with
/// the recorder on, Perfetto export — must stay byte-stable.
#[test]
fn golden_small_paper_matrix_trace_is_stable() {
    use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};

    let nprocs = 4;
    let a = PaperMatrix::TwoTone.instantiate_scaled(0.02);
    let perm = OrderingKind::Amd.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &perm, &mf_symbolic::AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    let cfg = SolverConfig { record_events: true, ..paper_scale_config(nprocs) };
    let map = mf_core::mapping::compute_mapping(&s.tree, &cfg);
    let r = mf_core::parsim::run(&s.tree, &map, &cfg).expect("small run completes");
    let rec = r.recording.expect("recorder was on");

    let out = render(&rec, nprocs);
    validate_json(&out).expect("exported trace must be well-formed JSON");
    let ts = int_values(&out, "ts");
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotone");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_SMALL, &out).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_SMALL).expect("golden file is committed");
    assert_eq!(out, golden, "small-matrix trace drifted from the golden file");
}

/// Extracts every `"key": <integer>` occurrence, in document order.
fn int_values(s: &str, key: &str) -> Vec<i64> {
    let needle = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        out.push(rest[..end].parse().expect("integer after key"));
    }
    out
}

/// A real captured run exports a schema-valid trace with monotone
/// timestamps and balanced, never-negative B/E slice nesting per
/// processor.
#[test]
fn real_trace_is_valid_monotone_and_balanced() {
    let nprocs = 4;
    let c = recorded_cell(PaperMatrix::TwoTone, OrderingKind::Amd, nprocs);
    for run in [&c.baseline, &c.memory] {
        let rec = run.recording.as_ref().expect("captured run records");
        let s = render(rec, nprocs);
        validate_json(&s).expect("exported trace must be well-formed JSON");

        let ts = int_values(&s, "ts");
        assert!(!ts.is_empty(), "trace must carry timestamped events");
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotone");

        // Walk the emitted lines, tracking slice depth per pid.
        let mut depth = vec![0i64; nprocs];
        for line in s.lines() {
            let pid = match int_values(line, "pid").first() {
                Some(&p) => p as usize,
                None => continue,
            };
            if line.contains("\"ph\": \"B\"") {
                depth[pid] += 1;
            } else if line.contains("\"ph\": \"E\"") {
                depth[pid] -= 1;
                assert!(depth[pid] >= 0, "E without matching B on pid {pid}");
            }
        }
        assert!(depth.iter().all(|&d| d == 0), "unbalanced B/E slices: {depth:?}");

        // The counter track replays the same accounting the solver ran:
        // its maximum front+stack level per processor is the active peak.
        let summary = cell_summary_json(&c);
        validate_json(&summary).expect("summary must be well-formed JSON");
    }
}

/// The bounded store on a real run: TWOTONE/AMD at P=8 under the memory
/// strategy, recorded unbounded and into a ring a third of the stream
/// long. The ring holds exactly the newest events and counts the rest,
/// its audit reports the truncation and nothing else, and recording into
/// it moves no peak and no makespan.
#[test]
fn a_ring_on_a_real_run_keeps_the_newest_events_and_audits_as_truncated() {
    let nprocs = 8;
    let tree = mf_bench::sweep::build_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
    let run = |event_capacity| {
        let cfg =
            SolverConfig { record_events: true, event_capacity, ..paper_scale_config(nprocs) }
                .with_memory_strategy();
        let map = mf_core::mapping::compute_mapping(&tree, &cfg);
        mf_core::parsim::run(&tree, &map, &cfg).expect("run completes")
    };
    let full = run(None);
    let all = full.recording.as_ref().expect("recorder was on");
    let (len, k) = (all.len(), all.len() / 3);
    let bounded = run(Some(k));
    let ring = bounded.recording.as_ref().expect("recorder was on");
    let dropped = (len - k) as u64;
    assert_eq!(ring.len(), k);
    assert_eq!(ring.dropped(), dropped);
    assert!(ring.events().eq(all.events().skip(len - k)), "the ring must hold the last {k} events");
    assert_eq!(audit_recording(nprocs, ring), vec![Finding::Truncated { dropped }]);
    assert_eq!(bounded.peaks, full.peaks);
    assert_eq!(bounded.makespan, full.makespan);
}

/// Turning the sampler on is pure observation at bench scale: the
/// recorded event stream, peaks, makespan, and metrics of both strategy
/// arms are identical with and without `sample_every`, and the
/// paper-style percent table rendered from the runs is byte-identical.
#[test]
fn sampler_on_recordings_and_tables_are_byte_identical() {
    use mf_bench::render_percent_table;

    let nprocs = 8;
    let tree = mf_bench::sweep::build_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
    let arm = |memory: bool, sample_every: Option<u64>| {
        let observed =
            SolverConfig { record_events: true, sample_every, ..paper_scale_config(nprocs) };
        let cfg = if memory {
            observed.with_memory_strategy()
        } else {
            observed.with_workload_strategy()
        };
        let map = mf_core::mapping::compute_mapping(&tree, &cfg);
        mf_core::parsim::run(&tree, &map, &cfg).expect("run completes")
    };

    let table = |base_peak: u64, mem_peak: u64| {
        let gain = 100.0 * (base_peak as f64 - mem_peak as f64) / base_peak as f64;
        render_percent_table("sampler identity", &[("TWOTONE", [gain; 4])], None)
    };

    for memory in [false, true] {
        let off = arm(memory, None);
        let on = arm(memory, Some(500));
        assert!(off.recording == on.recording, "memory={memory}: sampler on/off recordings differ");
        assert_eq!(off.peaks, on.peaks, "memory={memory}: peaks differ");
        assert_eq!(off.makespan, on.makespan, "memory={memory}: makespan differs");
        assert!(off.metrics == on.metrics, "memory={memory}: metrics differ");
        assert!(off.timeseries.is_none(), "sampler off must not allocate series");
        let ts = on.timeseries.as_ref().expect("sampler on must produce a series");
        assert!(ts.total_len() > 0, "sampler on must retain samples");
    }

    let base_off = arm(false, None);
    let mem_off = arm(true, None);
    let base_on = arm(false, Some(500));
    let mem_on = arm(true, Some(500));
    let max = |peaks: &[u64]| peaks.iter().copied().max().unwrap_or(0);
    assert_eq!(
        table(max(&base_off.peaks), max(&mem_off.peaks)),
        table(max(&base_on.peaks), max(&mem_on.peaks)),
        "rendered paper table must not depend on the sampler"
    );
}

/// Flight recordings are part of the deterministic contract: sweeping
/// the same cells under different rayon pool widths must produce
/// byte-identical recordings, not just identical peaks.
#[test]
fn recordings_identical_across_thread_pool_widths() {
    let specs =
        [(PaperMatrix::TwoTone, OrderingKind::Amd), (PaperMatrix::Ship003, OrderingKind::Metis)];
    let run_with = |threads: usize| -> Vec<CellResult> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build local pool")
            .install(|| specs.par_iter().map(|&(m, k)| recorded_cell(m, k, 4)).collect())
    };
    let narrow = run_with(1);
    let wide = run_with(4);
    for (a, b) in narrow.iter().zip(&wide) {
        for (strat, x, y) in
            [("baseline", &a.baseline, &b.baseline), ("memory", &a.memory, &b.memory)]
        {
            let (rx, ry) = (x.recording.as_ref().unwrap(), y.recording.as_ref().unwrap());
            assert!(rx == ry, "{}/{strat}: recordings differ across pool widths", a.matrix.name());
            assert_eq!(x.peaks, y.peaks);
            assert_eq!(x.makespan, y.makespan);
            assert!(x.metrics == y.metrics, "{}/{strat}: metrics differ", a.matrix.name());
        }
    }
}

/// FNV-1a over the `Debug` rendering of every retained `(at, event)` of
/// a recording, in order, plus its drop count — of the whole recording,
/// and of what is left of it without the status traffic (`StatusSend`,
/// `StatusApply`): every decision with the metric vector and view ages
/// it was taken from, every memory movement, every compute span.
///
/// A status block row renders as the per-receiver rows it stands for,
/// each in the text a one-receiver `StatusApply { to, from, about, kind,
/// age }` row had before blocks were one row: the digests hash the
/// per-receiver stream, so a block that lost, gained, reordered or
/// re-aged one apply moves them exactly as a per-receiver row would.
fn recording_digests(rec: &Recording) -> [u64; 2] {
    use std::fmt::Write as _;
    let fnv = |h: &mut u64, line: &str| {
        *h = line.bytes().fold(*h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
    };
    let mut line = String::new();
    let mut h = [0xcbf2_9ce4_8422_2325u64; 2];
    for row in rec.events() {
        match row {
            (at, SchedEvent::StatusApply { from, about, kind, applied }) => {
                for (to, age) in applied.iter() {
                    line.clear();
                    write!(
                        line,
                        "({at}, StatusApply {{ to: {to}, from: {from}, about: {about}, \
                         kind: {kind:?}, age: {age} }})"
                    )
                    .expect("writing to a String cannot fail");
                    fnv(&mut h[0], &line);
                }
            }
            _ => {
                line.clear();
                write!(line, "{row:?}").expect("writing to a String cannot fail");
                let status = matches!(row.1, SchedEvent::StatusSend { .. });
                h[..2 - status as usize].iter_mut().for_each(|h| fnv(h, &line));
            }
        }
    }
    h.map(|h| (h ^ rec.dropped()).wrapping_mul(0x0100_0000_01b3))
}

/// Full-size recordings at the paper's P=32 are pinned, per strategy, to
/// two digests. The first covers the whole recording and moves whenever
/// the status traffic does. The second leaves the status traffic out and
/// was taken before a step's same-kind status deltas were folded into one
/// broadcast: how views are kept fresh may change, what was decided from
/// them, when, and on which beliefs may not. Both hash the rendering of
/// `(Time, &SchedEvent)` rows; they were carried over to it by rendering
/// the previous store's streams the same way. After an intentional
/// schedule change, re-derive with `-- --nocapture`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release suite: run with --release")]
fn full_scale_recordings_match_their_pinned_digests() {
    let cells = [
        (
            PaperMatrix::TwoTone,
            OrderingKind::Amd,
            [
                [0xb3f0_9e8a_b4f6_0f8eu64, 0x5a55_5f4d_45ca_d091],
                [0x75d1_9e7e_c616_b135, 0x01d0_550b_bb9f_09f1],
            ],
        ),
        (
            PaperMatrix::Ship003,
            OrderingKind::Metis,
            [
                [0x3d8d_b014_f430_93fa, 0x7314_b6c9_6bfd_a6de],
                [0x817e_3bf9_5b70_22d5, 0xa1ec_6963_0ad5_7d76],
            ],
        ),
    ];
    for (m, k, want) in cells {
        let c = recorded_cell(m, k, 32);
        let got = [&c.baseline, &c.memory]
            .map(|r| recording_digests(r.recording.as_ref().expect("recorder was on")));
        eprintln!("{}/{k:?}: {got:#018x?}", m.name());
        assert_eq!(got, want, "{}/{k:?}: recording drifted", m.name());
    }
}
