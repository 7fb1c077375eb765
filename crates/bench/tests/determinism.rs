//! Regression tests for the central invariant of the experiment harness:
//! caching and parallel cell execution must not change a single output
//! number. Every `paper` table depends on it (see DESIGN.md,
//! "Performance").

use mf_bench::sweep::{
    paper_scale_config, run_strategies, sweep_cell, sweep_cells, CellResult, CellSpec,
};
use mf_core::driver::{prepare_tree, ExperimentInput};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use rayon::ThreadPoolBuilder;

/// A small grid with deliberate artifact overlap: two split settings per
/// (matrix, ordering) and two processor counts, so the shared cache is
/// actually exercised across cells (not just within one).
fn grid() -> Vec<CellSpec> {
    let thr = mf_bench::sweep::split_threshold_for();
    let mut specs = Vec::new();
    for (m, k) in
        [(PaperMatrix::Gupta3, OrderingKind::Amd), (PaperMatrix::BmwCra1, OrderingKind::Metis)]
    {
        for nprocs in [8usize, 32] {
            for split in [None, Some(thr)] {
                specs.push((m, k, nprocs, split));
            }
        }
    }
    specs
}

/// Renders the fields the `paper` tables print, so byte-equal output
/// here means byte-equal published tables.
fn render(cells: &[CellResult]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&format!(
            "{} {} split={:?} | base peak={} makespan={} msgs={} | mem peak={} makespan={} msgs={} | fronts={}\n",
            c.matrix.name(),
            c.ordering.name(),
            c.split,
            c.baseline.max_peak,
            c.baseline.makespan,
            c.baseline.messages,
            c.memory.max_peak,
            c.memory.makespan,
            c.memory.messages,
            c.stats.nodes,
        ));
    }
    out
}

#[test]
fn sweep_cell_is_reproducible() {
    let a = sweep_cell(PaperMatrix::Gupta3, OrderingKind::Amd, None, &paper_scale_config(16));
    let b = sweep_cell(PaperMatrix::Gupta3, OrderingKind::Amd, None, &paper_scale_config(16));
    assert_eq!(a.baseline.peaks, b.baseline.peaks);
    assert_eq!(a.baseline.makespan, b.baseline.makespan);
    assert_eq!(a.memory.peaks, b.memory.peaks);
    assert_eq!(a.memory.makespan, b.memory.makespan);
    assert_eq!(render(&[a]), render(&[b]));
}

#[test]
fn parallel_sweep_is_deterministic() {
    let specs = grid();
    // Same grid through thread pools of different widths. Results are
    // collected in input order regardless of completion order, so the
    // rendered tables must be byte-identical.
    let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let four = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let seq = one.install(|| sweep_cells(&specs));
    let par = four.install(|| sweep_cells(&specs));
    assert_eq!(seq.len(), specs.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.baseline.max_peak, p.baseline.max_peak);
        assert_eq!(s.baseline.makespan, p.baseline.makespan);
        assert_eq!(s.memory.max_peak, p.memory.max_peak);
        assert_eq!(s.memory.makespan, p.memory.makespan);
    }
    assert_eq!(render(&seq), render(&par));

    // And a third pass through the now-warm cache, single-threaded calls
    // straight into sweep_cell, must agree with both.
    for (spec, p) in specs.iter().zip(&par) {
        let c = sweep_cell(spec.0, spec.1, spec.3, &paper_scale_config(spec.2));
        assert_eq!(c.baseline.peaks, p.baseline.peaks);
        assert_eq!(c.memory.peaks, p.memory.peaks);
    }
}

#[test]
fn cached_sweep_equals_cells_rebuilt_from_scratch() {
    // Every cell once more the way a library caller runs it — matrix,
    // ordering, analysis, Liu child order and splitting rebuilt per cell
    // by `prepare_tree`, nothing shared — must give the numbers the
    // artifact cache gives.
    let specs = grid();
    for (&(m, k, nprocs, split), c) in specs.iter().zip(&sweep_cells(&specs)) {
        let cfg = paper_scale_config(nprocs);
        let tree = prepare_tree(&ExperimentInput { matrix: &m.instantiate(), ordering: k }, split);
        let (baseline, memory) = run_strategies(&tree, &cfg);
        for (scratch, cached) in [(&baseline, &c.baseline), (&memory, &c.memory)] {
            assert_eq!(
                (scratch.max_peak, scratch.makespan),
                (cached.max_peak, cached.makespan),
                "cached sweep changed results: from scratch [{}] vs cached [{}]",
                scratch.summary_line(),
                cached.summary_line()
            );
        }
    }
}
