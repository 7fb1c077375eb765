//! `sweep_observed`: the memory-based strategy on the eight paper
//! matrices under AMD at P=32, on trees built in set-up. Each cell runs
//! quiet, then again with the flight recorder and the sampler on; the
//! recording is audited and its peaks attributed. One more cell loses two
//! processors and gains one, and must recover the fault-free factors.
//! The same simulator layers as `sim_scale`, plus everything that watches
//! them: a quiet-path gain that taxes the recorder, the auditor or
//! recovery shows here.

use multifrontal::core::config::{RecoveryConfig, SolverConfig};
use multifrontal::core::mapping::compute_mapping;
use multifrontal::core::parsim::RunResult;
use multifrontal::core::StaticMapping;
use multifrontal::order::OrderingKind;
use multifrontal::sim::{attribute_peaks, audit_recording, FaultModel, Finding, PeakAttribution};
use multifrontal::sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use multifrontal::symbolic::seqstack::{apply_liu_order, sequential_peak, AssemblyDiscipline};
use multifrontal::symbolic::{analyze, AmalgamationOptions, AssemblyTree};
use std::time::Instant;

use super::{baseline_cfg, check_run, memory_cfg, simulate, SimCounts, Trade, PAPER_PROCS};
use crate::harness::{Ctx, Gates, Workload};
use crate::registry::Table;
use crate::stats::median;
use crate::trace::Tracer;

/// Virtual ticks between telemetry samples, the repository's default.
const SAMPLE_EVERY: u64 = 10_000;

struct Prepared {
    matrix: PaperMatrix,
    tree: AssemblyTree,
    map: StaticMapping,
}

pub struct SweepObserved {
    cells: Vec<Prepared>,
    quiet_cfg: SolverConfig,
    observed_cfg: SolverConfig,
    recovery_cfg: SolverConfig,
    smoke: bool,
    /// Kept from the first unit checked; every later unit must repeat it.
    first: Option<First>,
}

struct First {
    trade: Trade,
    counts: SimCounts,
    recovered_makespan: u64,
    fault_free_makespan: u64,
    digest_equal: bool,
    events_recorded: usize,
    samples: usize,
    findings: usize,
    /// Events of the quiet runs: the denominator of the ns/event figures.
    quiet_events: u64,
}

pub struct Observed {
    quiet: RunResult,
    observed: RunResult,
    findings: Vec<Finding>,
    attribution: Vec<PeakAttribution>,
}

pub struct Out {
    cells: Vec<Observed>,
    recovered: RunResult,
}

impl SweepObserved {
    /// The cell the recovery run repeats under kills and a join.
    fn recovery_cell(&self) -> usize {
        self.cells
            .iter()
            .position(|c| c.matrix == PaperMatrix::TwoTone)
            .expect("TWOTONE is in every set")
    }
}

impl Workload for SweepObserved {
    type Out = Out;
    const WARM_UNITS: usize = 2;
    const DROP_SPAN: &'static str = "sim.drop";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let set = if ctx.smoke {
            &[PaperMatrix::Gupta3, PaperMatrix::TwoTone][..]
        } else {
            &ALL_PAPER_MATRICES[..]
        };
        let quiet_cfg = memory_cfg(PAPER_PROCS);
        let cells = set
            .iter()
            .map(|&matrix| {
                let a = tr.span("sparse.gen", |_| matrix.instantiate());
                let perm = tr.span("order.compute", |_| OrderingKind::Amd.compute(&a));
                let mut s = tr.span("symbolic.analyze", |_| {
                    analyze(&a, &perm, &AmalgamationOptions::default())
                });
                tr.span("symbolic.prepare", |_| {
                    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree)
                });
                let map = tr.span("core.mapping", |_| compute_mapping(&s.tree, &quiet_cfg));
                Prepared { matrix, tree: s.tree, map }
            })
            .collect();
        let observed_cfg = SolverConfig {
            record_events: true,
            event_capacity: None,
            sample_every: Some(SAMPLE_EVERY),
            ..quiet_cfg.clone()
        };
        // Processors 3 and 11 fail-stop at delivered events 1000 and
        // 2500; processor 31 stays dormant until event 3000.
        let recovery_cfg = SolverConfig {
            recovery: Some(RecoveryConfig::default()),
            fault: Some(FaultModel {
                kill_at: vec![(1000, 3), (2500, 11)],
                join_at: vec![(3000, 31)],
                ..FaultModel::quiet(ctx.seed)
            }),
            ..quiet_cfg.clone()
        };
        SweepObserved {
            cells,
            quiet_cfg,
            observed_cfg,
            recovery_cfg,
            smoke: ctx.smoke,
            first: None,
        }
    }

    fn unit(&self, tr: &mut Tracer) -> Out {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let quiet = tr.span("core.run", |_| simulate(&c.tree, &c.map, &self.quiet_cfg));
                let observed =
                    tr.span("core.run_observed", |_| simulate(&c.tree, &c.map, &self.observed_cfg));
                let rec = observed.recording.as_ref().expect("the recorder was on");
                let findings = tr.span("sim.audit", |_| audit_recording(PAPER_PROCS, rec));
                let attribution = tr.span("sim.attribution", |_| attribute_peaks(PAPER_PROCS, rec));
                Observed { quiet, observed, findings, attribution }
            })
            .collect();
        let c = &self.cells[self.recovery_cell()];
        let recovered =
            tr.span("core.run_recovery", |_| simulate(&c.tree, &c.map, &self.recovery_cfg));
        Out { cells, recovered }
    }

    fn check(&mut self, out: &Out, gates: &mut Gates) {
        for o in &out.cells {
            check_run(&o.quiet, gates);
            check_run(&o.observed, gates);
            let same = o.observed.peaks == o.quiet.peaks && o.observed.makespan == o.quiet.makespan;
            gates.check("sim.recorder_is_neutral", same, || {
                "recorder and sampler changed peaks or makespan".into()
            });
            gates.check("sim.audit_clean", o.findings.is_empty(), || {
                format!("{} findings, first {:?}", o.findings.len(), o.findings[0])
            });
            let sums = o.attribution.iter().all(|a| {
                a.peak == o.observed.peaks[a.proc]
                    && a.composition.iter().map(|it| it.entries).sum::<u64>() == a.peak
            });
            gates.check("sim.attribution_sums_to_peak", sums, || {
                "a processor's attributed composition does not add up to its peak".into()
            });
        }
        let fault_free = &out.cells[self.recovery_cell()].quiet;
        check_run(&out.recovered, gates);
        let digest_equal = out.recovered.factor_digest == fault_free.factor_digest;
        gates.check("core.recovery_digest", digest_equal, || {
            format!("{:016x} != {:016x}", out.recovered.factor_digest, fault_free.factor_digest)
        });

        let mut trade = Trade::default();
        match &self.first {
            None => {
                // The workload baseline of each cell, for the paper's
                // trade. Run once, off the clock.
                let base_cfg = baseline_cfg(PAPER_PROCS);
                let mut counts = SimCounts::new(PAPER_PROCS);
                for (c, o) in self.cells.iter().zip(&out.cells) {
                    let base = simulate(&c.tree, &c.map, &base_cfg);
                    check_run(&base, gates);
                    trade.add(&base, &o.quiet);
                    counts.add(&o.quiet);
                }
                let recordings =
                    out.cells.iter().map(|o| o.observed.recording.as_ref().expect("on"));
                let series = out.cells.iter().map(|o| o.observed.timeseries.as_ref().expect("on"));
                self.first = Some(First {
                    trade,
                    counts,
                    recovered_makespan: out.recovered.makespan,
                    fault_free_makespan: fault_free.makespan,
                    digest_equal,
                    events_recorded: recordings.map(|r| r.len()).sum(),
                    samples: series.map(|s| s.total_len()).sum(),
                    findings: out.cells.iter().map(|o| o.findings.len()).sum(),
                    quiet_events: out.cells.iter().map(|o| o.quiet.events_delivered).sum(),
                });
            }
            Some(first) => {
                let peaks: u64 = out.cells.iter().map(|o| o.quiet.max_peak).sum();
                let ticks: u64 = out.cells.iter().map(|o| o.quiet.makespan).sum();
                let same = peaks == first.trade.peak_entries
                    && ticks == first.trade.makespan_ticks
                    && out.recovered.makespan == first.recovered_makespan;
                gates.check("sim.repeats_exactly", same, || {
                    format!("peaks {peaks} ticks {ticks} differ from the first unit")
                });
            }
        }
    }

    fn probes(&self, layers: &mut Table, gates: &mut Gates) {
        // The sampler alone against the quiet arm, interleaved over the
        // same cells.
        let sampled_cfg =
            SolverConfig { sample_every: Some(SAMPLE_EVERY), ..self.quiet_cfg.clone() };
        let (mut quiet_s, mut sampled_s) = (Vec::new(), Vec::new());
        for _ in 0..if self.smoke { 1 } else { 5 } {
            let (mut q, mut s) = (0.0, 0.0);
            for c in &self.cells {
                let t = Instant::now();
                let quiet = simulate(&c.tree, &c.map, &self.quiet_cfg);
                q += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let sampled = simulate(&c.tree, &c.map, &sampled_cfg);
                s += t.elapsed().as_secs_f64();
                gates.check("sim.sampler_is_neutral", sampled.peaks == quiet.peaks, || {
                    "the sampler changed peaks".into()
                });
            }
            quiet_s.push(q);
            sampled_s.push(s);
        }
        let (q, s) = (median(&quiet_s), median(&sampled_s));
        layers.set("sim.sampler_overhead_pct", 100.0 * (s - q) / q);
    }

    fn finish(&self, tr: &Tracer, e2e: &mut Table, layers: &mut Table) {
        let first = self.first.as_ref().expect("at least one unit ran");
        e2e.set_exact("mem_peak_entries", first.trade.peak_entries as f64);
        first.trade.report(e2e, layers);
        // The recovered run finishes later than the fault-free one; its
        // completion time counts too.
        e2e.set_exact(
            "makespan_ticks",
            (first.trade.makespan_ticks + first.recovered_makespan) as f64,
        );
        first.counts.report(layers);
        let ratio = first.recovered_makespan as f64 / first.fault_free_makespan as f64;
        layers.set_exact("core.recovery_makespan_ratio", ratio);
        layers.set_exact("core.recovery_digest_equal", f64::from(u8::from(first.digest_equal)));
        layers.set_exact("sim.events_recorded", first.events_recorded as f64);
        layers.set_exact("sim.samples_total", first.samples as f64);
        layers.set_exact("sim.audit_findings", first.findings as f64);

        let stats: Vec<_> = self.cells.iter().map(|c| c.tree.stats()).collect();
        layers.set_exact("symbolic.nodes", stats.iter().map(|s| s.nodes).sum::<usize>() as f64);
        layers.set_exact("symbolic.flops", stats.iter().map(|s| s.flops).sum::<u64>() as f64);
        let entries: u64 = stats.iter().map(|s| s.factor_entries).sum();
        layers.set_exact("symbolic.factor_entries", entries as f64);
        let seq_peak: u64 = self
            .cells
            .iter()
            .map(|c| sequential_peak(&c.tree, AssemblyDiscipline::FrontThenFree))
            .sum();
        layers.set_exact("symbolic.seq_peak_entries", seq_peak as f64);
        // Set-up spans: trees and mappings are built there.
        for (metric, span) in [
            ("order.compute_s", "order.compute"),
            ("symbolic.analyze_s", "symbolic.analyze"),
            ("symbolic.prepare_s", "symbolic.prepare"),
            ("core.mapping_s", "core.mapping"),
        ] {
            layers.set(metric, tr.setup_secs(span));
        }

        let secs = |name| -> Vec<f64> { tr.per_unit(name).iter().map(|p| p.0).collect() };
        let (quiet, observed) = (secs("core.run"), secs("core.run_observed"));
        if quiet.is_empty() {
            return; // an untraced run has no per-layer timings
        }
        let (q, o) = (median(&quiet), median(&observed));
        layers.set("sim.ns_per_event_p32", 1e9 * q / first.quiet_events as f64);
        // The observed arm as the unit runs it, recorder and sampler both.
        layers.set("sim.recorder_overhead_pct", 100.0 * (o - q) / q);
        layers.set("sim.recorder_ns_per_event", 1e9 * (o - q) / first.events_recorded as f64);
        let recorded = first.events_recorded as f64;
        layers.set("sim.audit_ns_per_event", 1e9 * median(&secs("sim.audit")) / recorded);
        layers
            .set("sim.attribution_ns_per_event", 1e9 * median(&secs("sim.attribution")) / recorded);
    }
}
