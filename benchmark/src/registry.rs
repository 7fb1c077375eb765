//! Every workload and metric the benchmark emits, by name. The result
//! tables are built from these lists, `check` holds `BENCHMARK.json`
//! against them, and `manifest` prints that file from them.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::{summarize, Summary};

/// What `run` measures for when `--seconds` is absent, and
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "solve_fat",
        "26^3 3-D grid under METIS: 1374 fat fronts, 70% of the unit in the dense factorization kernels, 8% in ordering and analysis",
    ),
    (
        "solve_thin",
        "300^2 2-D grid under AMD: 44k tiny fronts at 6 us each, 40% of the unit in ordering and analysis; assembly shows, the packed kernels do not",
    ),
    (
        "table_sweep",
        "the paper's Table 2 grid, cold: 8 matrices x 4 orderings at P=32, analysis through both simulated strategies; carries the paper's result",
    ),
    (
        "sim_scale",
        "196k-column synthetic tree at P=256, memory-based run only: 19M events, nearly all status deltas; the event engine does all the work",
    ),
    (
        "sweep_observed",
        "8 paper matrices at P=32 run quiet, then recorded, sampled, audited and attributed, plus a kill/join recovery: the observability tax",
    ),
];

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def { name, unit, better: "lower", bound }
}

/// Defined on every workload, never zero. The last four are simulated
/// or counted, and repeat exactly: the seed draws numeric values, never
/// the shape of an instance. Their bounds are what a change may cost.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", 0.25),
    // This host slows by a quarter for a minute at a time (other tenants
    // on the hardware): a tighter bound on one run's seconds would trip
    // on that alone.
    e2e("unit_s", "s", 0.25),
    e2e("rss_hwm_mb", "MB", 0.10),
    e2e("mem_peak_entries", "count", 0.001),
    e2e("makespan_ticks", "ticks", 0.01),
    e2e("peak_ratio", "ratio", 0.001),
    e2e("makespan_ratio", "ratio", 0.005),
];

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "lower", bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "higher", bound: 0.0 }
}

/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [Def; 78] = [
    lo("sparse.gen_s", "s"),
    lo("order.compute_s", "s"),
    lo("order.share", "ratio"),
    lo("symbolic.analyze_s", "s"),
    lo("symbolic.prepare_s", "s"),
    lo("symbolic.share", "ratio"),
    lo("symbolic.nodes", "count"),
    lo("symbolic.flops", "count"),
    lo("symbolic.factor_entries", "count"),
    lo("symbolic.seq_peak_entries", "count"),
    lo("frontal.factor_s", "s"),
    lo("frontal.share", "ratio"),
    hi("frontal.factor_gflops", "gflop/s"),
    lo("frontal.us_per_front", "us"),
    lo("frontal.solve_s", "s"),
    hi("frontal.rhs_per_s", "1/s"),
    hi("frontal.solve_gbytes_per_s", "GB/s"),
    lo("frontal.active_peak_entries", "count"),
    lo("frontal.stack_peak_entries", "count"),
    lo("frontal.residual_max", "ratio"),
    hi("frontal.digest_stable", "count"),
    hi("frontal.lu_gflops_f256", "gflop/s"),
    hi("frontal.lu_gflops_f512", "gflop/s"),
    hi("frontal.lu_gflops_f1024", "gflop/s"),
    hi("frontal.ldlt_gflops_f512", "gflop/s"),
    hi("frontal.gemm_roofline_gflops", "gflop/s"),
    hi("frontal.factor_pct_roofline", "%"),
    lo("frontal.par2_factor_s", "s"),
    hi("frontal.par2_speedup", "ratio"),
    hi("frontal.par2_equals_sequential", "count"),
    lo("core.mapping_s", "s"),
    lo("core.run_s", "s"),
    lo("core.share", "ratio"),
    lo("core.events_delivered", "count"),
    lo("core.status_msgs", "count"),
    lo("core.status_bytes", "count"),
    lo("core.control_msgs", "count"),
    lo("core.control_bytes", "count"),
    lo("core.status_share", "ratio"),
    lo("core.view_staleness_p95", "ticks"),
    lo("core.forced_activations", "count"),
    lo("core.serialized_fronts", "count"),
    lo("core.reselect_rounds", "count"),
    lo("core.underflows", "count"),
    lo("core.dropped_messages", "count"),
    lo("core.recovery_makespan_ratio", "ratio"),
    hi("core.recovery_digest_equal", "count"),
    hi("core.peak_gain_pct", "%"),
    lo("core.makespan_loss_pct", "%"),
    lo("sim.share", "ratio"),
    lo("sim.ns_per_event_p32", "ns"),
    lo("sim.ns_per_event_p256", "ns"),
    lo("sim.ns_per_event_p512", "ns"),
    lo("sim.queue_ns_per_event", "ns"),
    lo("sim.recorder_overhead_pct", "%"),
    lo("sim.recorder_ns_per_event", "ns"),
    lo("sim.sampler_overhead_pct", "%"),
    lo("sim.audit_s", "s"),
    lo("sim.audit_ns_per_event", "ns"),
    lo("sim.attribution_s", "s"),
    lo("sim.attribution_ns_per_event", "ns"),
    lo("sim.events_recorded", "count"),
    lo("sim.samples_total", "count"),
    lo("sim.audit_findings", "count"),
    lo("exec.us_per_event_p4", "us"),
    lo("exec.equiv_mismatches", "count"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.ledger_residual_pct", "%"),
    lo("bench.traced_unit_s", "s"),
    lo("bench.untraced_unit_s", "s"),
    lo("bench.warmup_s", "s"),
    lo("bench.check_s", "s"),
    hi("bench.units", "count"),
    lo("bench.setup_reps", "count"),
    lo("bench.checks_attempted", "count"),
    lo("bench.checks_failed", "count"),
    lo("bench.fail_share", "ratio"),
    lo("bench.wall_s", "s"),
];

/// One measured value, with its order statistics when it is a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub summary: Option<Summary>,
    /// Simulated or counted: repeats bit for bit on the same inputs.
    pub exact: bool,
}

/// The values of one list of metrics, in the list's order.
pub struct Table {
    defs: &'static [Def],
    vals: BTreeMap<&'static str, Metric>,
}

impl Table {
    pub fn new(defs: &'static [Def]) -> Self {
        Table { defs, vals: BTreeMap::new() }
    }

    fn def(&self, name: &str) -> &'static Def {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unlisted metric {name}"))
    }

    /// One measurement, or a value derived from measured ones.
    pub fn set(&mut self, name: &str, value: f64) {
        self.vals.insert(self.def(name).name, Metric { value, summary: None, exact: false });
    }

    /// A count or a simulated result.
    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.vals.insert(self.def(name).name, Metric { value, summary: None, exact: true });
    }

    /// A timing: the median of `samples` is the value.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.vals.insert(
            self.def(name).name,
            Metric { value: s.median, summary: Some(s), exact: false },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).map_or(0.0, |m| m.value)
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static Def, Metric)> + '_ {
        let zero = Metric { value: 0.0, summary: None, exact: false };
        self.defs.iter().map(move |d| (d, self.vals.get(d.name).cloned().unwrap_or(zero.clone())))
    }

    /// `{"name": {"value": .., "unit": ..}, ..}`: the shape of `metrics`
    /// in the result line, and, with the order statistics added, of the
    /// result files.
    pub fn to_json(&self, with_stats: bool) -> Value {
        let rows = self.rows().map(|(d, m)| {
            let mut o = vec![("value", Value::Num(m.value)), ("unit", Value::Str(d.unit.into()))];
            if m.exact && with_stats {
                o.push(("exact", Value::Bool(true)));
            }
            if let Some(s) = m.summary.filter(|_| with_stats) {
                o.push(("n", Value::Num(s.n() as f64)));
                o.push(("q1", Value::Num(s.q1)));
                o.push(("q3", Value::Num(s.q3)));
                if let Some((pct, v)) = s.tail {
                    o.push(("tail_pct", Value::Num(pct)));
                    o.push(("tail", Value::Num(v)));
                }
                o.push(("samples", Value::Arr(s.samples.into_iter().map(Value::Num).collect())));
            }
            (d.name.to_string(), Value::obj(o))
        });
        Value::Obj(rows.collect())
    }
}

/// `BENCHMARK.json`, as the lists above define it.
pub fn manifest() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::Str((*s).into())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| {
            Value::obj(vec![("name", Value::Str((*n).into())), ("why", Value::Str((*why).into()))])
        })
        .collect();
    let metric = |d: &Def, bound: bool| {
        let mut o = vec![
            ("name", Value::Str(d.name.into())),
            ("unit", Value::Str(d.unit.into())),
            ("better", Value::Str(d.better.into())),
        ];
        if bound {
            o.push(("bound", Value::Num(d.bound)));
        }
        Value::obj(o)
    };
    Value::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect())),
        ("per_layer", Value::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect())),
    ])
}
