//! `sim_scale`: the memory-based strategy on a synthetic
//! nested-dissection tree of the paper's larger matrices' size, at 256
//! processors. Tree and mapping are built in set-up; the unit is
//! `parsim::run` alone, and nearly every event it delivers is a status
//! delta, so the event engine and the view updates do all the work.

use mf_bench::scenarios::{synth_nd_tree, SynthConfig};
use multifrontal::core::config::SolverConfig;
use multifrontal::core::mapping::compute_mapping;
use multifrontal::core::parsim::RunResult;
use multifrontal::core::StaticMapping;
use multifrontal::sim::{EventPayload, Sim};
use multifrontal::symbolic::seqstack::{sequential_peak, AssemblyDiscipline};
use multifrontal::symbolic::AssemblyTree;
use std::time::Instant;

use super::{baseline_cfg, check_run, memory_cfg, simulate, SimCounts, Trade};
use crate::harness::{Ctx, Gates, Workload};
use crate::registry::Table;
use crate::stats::median;
use crate::trace::Tracer;

pub struct SimScale {
    tree: AssemblyTree,
    map: StaticMapping,
    cfg: SolverConfig,
    smoke: bool,
    /// Kept from the first unit checked; every later unit must repeat it.
    first: Option<(Trade, SimCounts)>,
}

/// The tree's jitter stream is pinned. Across seeds it moves the unit's
/// time by 15% and the peaks by 7%, more than any bound here: every run
/// would measure another instance. A fixed instance has nothing left
/// for `--seed` to draw.
const SHAPE_SEED: u64 = 42;

fn procs(smoke: bool) -> usize {
    if smoke {
        64
    } else {
        256
    }
}

impl Workload for SimScale {
    type Out = RunResult;
    const WARM_UNITS: usize = 1;
    const DROP_SPAN: &'static str = "core.drop";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let shape = if ctx.smoke {
            SynthConfig::smoke(SHAPE_SEED)
        } else {
            SynthConfig::paper_scale(SHAPE_SEED)
        };
        let tree = tr.span("sparse.gen", |_| synth_nd_tree(&shape));
        let cfg = memory_cfg(procs(ctx.smoke));
        let map = tr.span("core.mapping", |_| compute_mapping(&tree, &cfg));
        SimScale { tree, map, cfg, smoke: ctx.smoke, first: None }
    }

    fn unit(&self, tr: &mut Tracer) -> RunResult {
        tr.span("core.run", |_| simulate(&self.tree, &self.map, &self.cfg))
    }

    fn check(&mut self, out: &RunResult, gates: &mut Gates) {
        check_run(out, gates);
        match &self.first {
            None => {
                // The workload baseline on the same tree and mapping: the
                // other side of the paper's trade. Run once, off the clock.
                let base = simulate(&self.tree, &self.map, &baseline_cfg(self.cfg.nprocs));
                check_run(&base, gates);
                let mut trade = Trade::default();
                trade.add(&base, out);
                let mut counts = SimCounts::new(self.cfg.nprocs);
                counts.add(out);
                self.first = Some((trade, counts));
            }
            Some((trade, _)) => {
                let same =
                    out.max_peak == trade.peak_entries && out.makespan == trade.makespan_ticks;
                gates.check("sim.repeats_exactly", same, || {
                    format!(
                        "peak {} makespan {} differ from the first unit",
                        out.max_peak, out.makespan
                    )
                });
            }
        }
    }

    fn probes(&self, layers: &mut Table, gates: &mut Gates) {
        layers.set(
            "sim.queue_ns_per_event",
            queue_ns_per_event(if self.smoke { 100_000 } else { 2_000_000 }),
        );

        // One run at twice the processors: how host time per event grows
        // with P on the same tree.
        let cfg = memory_cfg(2 * self.cfg.nprocs);
        let map = compute_mapping(&self.tree, &cfg);
        let t = Instant::now();
        let r = simulate(&self.tree, &map, &cfg);
        layers.set(
            "sim.ns_per_event_p512",
            1e9 * t.elapsed().as_secs_f64() / r.events_delivered as f64,
        );
        check_run(&r, gates);
    }

    fn finish(&self, tr: &Tracer, e2e: &mut Table, layers: &mut Table) {
        let (trade, counts) = self.first.as_ref().expect("at least one unit ran");
        e2e.set_exact("mem_peak_entries", trade.peak_entries as f64);
        trade.report(e2e, layers);
        counts.report(layers);
        let stats = self.tree.stats();
        layers.set_exact("symbolic.nodes", stats.nodes as f64);
        layers.set_exact("symbolic.flops", stats.flops as f64);
        layers.set_exact("symbolic.factor_entries", stats.factor_entries as f64);
        let seq_peak = sequential_peak(&self.tree, AssemblyDiscipline::FrontThenFree);
        layers.set_exact("symbolic.seq_peak_entries", seq_peak as f64);
        // Set-up spans: the mapping is built there, not in the unit.
        layers.set("core.mapping_s", tr.setup_secs("core.mapping"));

        let run_s: Vec<f64> = tr.per_unit("core.run").iter().map(|p| p.0).collect();
        if !run_s.is_empty() {
            layers.set("sim.ns_per_event_p256", 1e9 * median(&run_s) / counts.events as f64);
        }
    }
}

/// The raw event queue: schedule and deliver through `Sim<u64>` with
/// 10 000 events in flight, every delivery scheduling a successor.
fn queue_ns_per_event(events: u64) -> f64 {
    const DEPTH: u64 = 10_000;
    let mut sim: Sim<u64> = Sim::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut delay = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % 1024
    };
    for key in 0..DEPTH {
        sim.schedule(delay(), EventPayload::Timer { proc: 0, key });
    }
    let t = Instant::now();
    for _ in 0..events {
        let e = sim.next().expect("the queue stays full");
        if let EventPayload::Timer { proc, key } = e.payload {
            sim.schedule_timer(proc, delay(), key);
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(sim.pending() as u64, DEPTH, "every delivery scheduled a successor");
    ns / events as f64
}
