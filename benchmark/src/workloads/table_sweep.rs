//! `table_sweep`: the paper's Table 2 grid, cold. Per cell: order,
//! analyze, Liu child order, static mapping, then the workload baseline
//! and the memory-based strategy on the simulated machine, which is what
//! `run_experiment` does for a researcher who regenerates the table. No
//! artefact is cached between cells or units. The instances are the
//! paper analogues, fixed by the repository: the seed does not reshape
//! them, so the simulated results are the paper reproduction's own.

use multifrontal::core::mapping::compute_mapping;
use multifrontal::core::parsim::RunResult;
use multifrontal::order::{OrderingKind, ALL_ORDERINGS};
use multifrontal::sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use multifrontal::sparse::CscMatrix;
use multifrontal::symbolic::seqstack::{apply_liu_order, sequential_peak, AssemblyDiscipline};
use multifrontal::symbolic::{analyze, AmalgamationOptions, AssemblyTree};
use std::time::Instant;

use super::{baseline_cfg, check_run, memory_cfg, simulate, SimCounts, Trade, PAPER_PROCS};
use crate::harness::{Ctx, Gates, Workload};
use crate::registry::Table;
use crate::stats::median;
use crate::trace::Tracer;

pub struct TableSweep {
    matrices: Vec<(PaperMatrix, CscMatrix)>,
    smoke: bool,
    /// Kept from the first unit checked; every later unit must repeat it.
    first: Option<First>,
}

struct First {
    trade: Trade,
    counts: SimCounts,
    /// Events of both strategies' runs: what the `core.run` spans cover.
    events_both: u64,
    nodes: usize,
    flops: u64,
    factor_entries: u64,
    seq_peak: u64,
}

pub struct Cell {
    tree: AssemblyTree,
    base: RunResult,
    mem: RunResult,
}

/// One cell of the table, as `mf_core::driver::run_experiment` builds it.
fn cell(a: &CscMatrix, ordering: OrderingKind, tr: &mut Tracer) -> Cell {
    let (base_cfg, mem_cfg) = (baseline_cfg(PAPER_PROCS), memory_cfg(PAPER_PROCS));
    let perm = tr.span("order.compute", |_| ordering.compute(a));
    let mut s = tr.span("symbolic.analyze", |_| analyze(a, &perm, &AmalgamationOptions::default()));
    // Table 2 runs on unsplit trees; `split_large_masters` is not called.
    tr.span("symbolic.prepare", |_| {
        apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree)
    });
    let map = tr.span("core.mapping", |_| compute_mapping(&s.tree, &base_cfg));
    let base = tr.span("core.run", |_| simulate(&s.tree, &map, &base_cfg));
    let mem = tr.span("core.run", |_| simulate(&s.tree, &map, &mem_cfg));
    Cell { tree: s.tree, base, mem }
}

impl Workload for TableSweep {
    type Out = Vec<Cell>;
    const WARM_UNITS: usize = 1;
    const DROP_SPAN: &'static str = "core.drop";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let matrices = tr.span("sparse.gen", |_| {
            let (scale, set) = if ctx.smoke {
                (0.05, &[PaperMatrix::Ship003, PaperMatrix::TwoTone][..])
            } else {
                (1.0, &ALL_PAPER_MATRICES[..])
            };
            set.iter().map(|&m| (m, m.instantiate_scaled(scale))).collect()
        });
        TableSweep { matrices, smoke: ctx.smoke, first: None }
    }

    fn unit(&self, tr: &mut Tracer) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.matrices.len() * ALL_ORDERINGS.len());
        for (_, a) in &self.matrices {
            for ordering in ALL_ORDERINGS {
                cells.push(cell(a, ordering, tr));
            }
        }
        cells
    }

    fn check(&mut self, out: &Vec<Cell>, gates: &mut Gates) {
        let mut trade = Trade::default();
        for c in out {
            check_run(&c.base, gates);
            check_run(&c.mem, gates);
            trade.add(&c.base, &c.mem);
        }
        match &self.first {
            None => {
                let mut counts = SimCounts::new(PAPER_PROCS);
                out.iter().for_each(|c| counts.add(&c.mem));
                let stats: Vec<_> = out.iter().map(|c| c.tree.stats()).collect();
                self.first = Some(First {
                    trade,
                    counts,
                    events_both: out
                        .iter()
                        .map(|c| c.base.events_delivered + c.mem.events_delivered)
                        .sum(),
                    nodes: stats.iter().map(|s| s.nodes).sum(),
                    flops: stats.iter().map(|s| s.flops).sum(),
                    factor_entries: stats.iter().map(|s| s.factor_entries).sum(),
                    seq_peak: out
                        .iter()
                        .map(|c| sequential_peak(&c.tree, AssemblyDiscipline::FrontThenFree))
                        .sum(),
                });
            }
            Some(first) => gates.check("sim.repeats_exactly", trade == first.trade, || {
                format!("{trade:?} != {:?}", first.trade)
            }),
        }
    }

    fn probes(&self, layers: &mut Table, gates: &mut Gates) {
        // The threads backend against the simulator, at P=4: repeatable
        // at ~4 us/event. At P=32 on two cores it is bimodal (1.5-15 s
        // per cell) and is deliberately not timed.
        let cfg = memory_cfg(4);
        let mut us_per_event = Vec::new();
        let mut mismatches = 0;
        let picks = [
            (PaperMatrix::Ship003, OrderingKind::Metis),
            (PaperMatrix::TwoTone, OrderingKind::Amd),
        ];
        for (m, ordering) in picks {
            let (_, a) = self.matrices.iter().find(|(pm, _)| *pm == m).expect("in every set");
            let c = cell(a, ordering, &mut Tracer::new());
            let map = compute_mapping(&c.tree, &cfg);
            let sim = simulate(&c.tree, &map, &cfg);
            for _ in 0..if self.smoke { 1 } else { 3 } {
                let t = Instant::now();
                let thr = mf_exec::run_threads(&c.tree, &map, &cfg)
                    .unwrap_or_else(|e| panic!("threaded run failed: {e:?}"));
                us_per_event.push(1e6 * t.elapsed().as_secs_f64() / thr.events_delivered as f64);
                let same = thr.peaks == sim.peaks
                    && thr.makespan == sim.makespan
                    && thr.messages == sim.messages;
                mismatches += u32::from(!same);
                gates.check("exec.equals_simulator", same, || {
                    format!("{} / {}: threads and simulator disagree", m.name(), ordering.name())
                });
            }
        }
        layers.set_samples("exec.us_per_event_p4", &us_per_event);
        layers.set_exact("exec.equiv_mismatches", f64::from(mismatches));
    }

    fn finish(&self, tr: &Tracer, e2e: &mut Table, layers: &mut Table) {
        let first = self.first.as_ref().expect("at least one unit ran");
        e2e.set_exact("mem_peak_entries", first.trade.peak_entries as f64);
        first.trade.report(e2e, layers);
        first.counts.report(layers);
        layers.set_exact("symbolic.nodes", first.nodes as f64);
        layers.set_exact("symbolic.flops", first.flops as f64);
        layers.set_exact("symbolic.factor_entries", first.factor_entries as f64);
        layers.set_exact("symbolic.seq_peak_entries", first.seq_peak as f64);

        let run_s: Vec<f64> = tr.per_unit("core.run").iter().map(|p| p.0).collect();
        if !run_s.is_empty() {
            layers.set("sim.ns_per_event_p32", 1e9 * median(&run_s) / first.events_both as f64);
        }
    }
}
