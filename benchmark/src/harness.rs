//! The measuring loop every workload runs under.
//!
//! One run is: set the workload up several times (the median is
//! `setup_s`), run warm-up units, then repeat the unit for the measuring
//! time. Correctness checks run between units and are not timed. With
//! tracing on, traced and untraced units alternate, so that both see the
//! same host conditions; the traced ones give the per-layer table, and
//! the difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::registry::{Table, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// What a workload is told about the run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Tiny instances, one unit: exercises every path, measures nothing.
    pub smoke: bool,
}

/// Pass/fail checks on the program's outputs. Every check counts as one
/// attempt; `fail_share` is `failed / attempted`.
#[derive(Default)]
pub struct Gates {
    by_name: BTreeMap<&'static str, (u64, u64)>,
    first_failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let e = self.by_name.entry(name).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.by_name.values().map(|e| e.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.by_name.values().map(|e| e.1).sum()
    }

    pub fn print(&self) {
        println!("  checks (attempted / failed)");
        for (name, (a, f)) in &self.by_name {
            println!("    {name:<34} {a:>7} / {f}");
        }
        for line in &self.first_failures {
            println!("    FAILED {line}");
        }
    }
}

/// One workload: what is set up, what one unit of work is, and how its
/// output is checked.
pub trait Workload: Sized {
    /// What a unit returns: checked after the clock stops, then dropped
    /// under its own span (freeing the program's structures is work the
    /// user waits for).
    type Out;
    /// Untimed units run before measuring starts. The first unit of a
    /// process is 1.5-2x slower here (page faults, cold caches).
    const WARM_UNITS: usize;
    /// Span the drop of `Out` is recorded under.
    const DROP_SPAN: &'static str;

    /// Builds the inputs from the seed. Runs several times per process.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self;

    /// One unit of work, on the calling thread.
    fn unit(&self, tr: &mut Tracer) -> Self::Out;

    /// Checks one unit's output and keeps what `finish` reports from it.
    /// Not timed; reference results a check needs are computed here, once.
    fn check(&mut self, out: &Self::Out, gates: &mut Gates);

    /// Probes of single layers, run once after the units of a traced run.
    fn probes(&self, layers: &mut Table, gates: &mut Gates);

    /// The exact end-to-end values and the per-layer values that are not
    /// plain span sums.
    fn finish(&self, tr: &Tracer, e2e: &mut Table, layers: &mut Table);
}

pub struct Outcome {
    pub e2e: Table,
    pub layers: Table,
    pub gates: Gates,
    pub tracer: Tracer,
    pub wall_s: f64,
}

/// `VmHWM` of this process in MB; Linux only.
fn rss_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status") / 1024.0
}

/// Runs one unit and the drop of its output under the clock, the check
/// between them off it. Returns the timed seconds.
fn timed_unit<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    gates: &mut Gates,
    id: u32,
    traced: bool,
    check_s: &mut f64,
) -> f64 {
    tr.begin_unit(id, traced);
    let t0 = Instant::now();
    let out = tr.span("unit", |tr| w.unit(tr));
    let work = t0.elapsed();
    let t1 = Instant::now();
    w.check(&out, gates);
    *check_s += t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    tr.span(W::DROP_SPAN, |_| drop(out));
    (work + t2.elapsed()).as_secs_f64()
}

pub fn run<W: Workload>(ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    let start = Instant::now();
    let mut gates = Gates::default();
    let mut e2e = Table::new(&END_TO_END);
    let mut layers = Table::new(&PER_LAYER);

    // Set-up, repeated: at least three times, and a cheap one many more,
    // since a median of milliseconds needs the samples. The spans of the
    // last repetition are the ones kept.
    let mut setup_samples = Vec::new();
    let mut gen_samples = Vec::new();
    let (mut w, mut tr) = loop {
        let mut tr = Tracer::new();
        tr.begin_unit(Tracer::SETUP, true);
        let t = Instant::now();
        let w = W::setup(ctx, &mut tr);
        setup_samples.push(t.elapsed().as_secs_f64());
        gen_samples.push(tr.setup_secs("sparse.gen"));
        let spent: f64 = setup_samples.iter().sum();
        if ctx.smoke || (setup_samples.len() >= 3 && (setup_samples.len() >= 101 || spent > 1.5)) {
            break (w, tr);
        }
    };
    e2e.set_samples("setup_s", &setup_samples);
    layers.set_samples("sparse.gen_s", &gen_samples);
    layers.set("bench.setup_reps", setup_samples.len() as f64);

    let mut check_s = 0.0;
    let warm = Instant::now();
    for _ in 0..if ctx.smoke { 0 } else { W::WARM_UNITS } {
        timed_unit(&mut w, &mut tr, &mut gates, 1, false, &mut check_s);
    }
    layers.set("bench.warmup_s", warm.elapsed().as_secs_f64());

    // With tracing, every second unit is traced.
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let measure = Instant::now();
    let min_units = if ctx.smoke { 1 } else { 3 };
    let mut id = 1u32;
    loop {
        id += 1;
        let t = timed_unit(&mut w, &mut tr, &mut gates, id, false, &mut check_s);
        plain.push(t);
        if traced {
            id += 1;
            let t = timed_unit(&mut w, &mut tr, &mut gates, id, true, &mut check_s);
            with_spans.push(t);
        }
        if plain.len() >= min_units && (ctx.smoke || measure.elapsed() >= budget) {
            break;
        }
    }
    e2e.set_samples("unit_s", &plain);
    layers.set("bench.units", (plain.len() + with_spans.len()) as f64);
    layers.set_samples("bench.untraced_unit_s", &plain);

    if traced {
        layers.set_samples("bench.traced_unit_s", &with_spans);
        // Over neighbouring pairs, so that a slow minute of the host
        // falls on both sides of each difference.
        let overhead: Vec<f64> =
            with_spans.iter().zip(&plain).map(|(t, u)| 100.0 * (t - u) / u).collect();
        layers.set_samples("bench.trace_overhead_pct", &overhead);
        span_metrics(&tr, &with_spans, &mut layers);
        w.probes(&mut layers, &mut gates);
    }
    w.finish(&tr, &mut e2e, &mut layers);
    e2e.set("rss_hwm_mb", rss_hwm_mb());

    layers.set("bench.check_s", check_s);
    layers.set("bench.checks_attempted", gates.attempted() as f64);
    layers.set("bench.checks_failed", gates.failed() as f64);
    layers.set("bench.fail_share", gates.failed() as f64 / gates.attempted().max(1) as f64);
    let wall_s = start.elapsed().as_secs_f64();
    layers.set("bench.wall_s", wall_s);
    Outcome { e2e, layers, gates, tracer: tr, wall_s }
}

/// The per-layer values that are plain sums over spans: `<span>_s` for
/// every listed metric of that name (a span called `core.run_observed`
/// counts under `core.run_s` too), each layer's share of the unit, and
/// what no layer's span covers.
fn span_metrics(tr: &Tracer, unit_secs: &[f64], layers: &mut Table) {
    let by_unit = tr.self_by_name();
    let units = tr.units();
    assert_eq!(units.len(), unit_secs.len(), "one set of spans per traced unit");

    let mut names: Vec<&'static str> = by_unit.values().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();

    for d in PER_LAYER.iter().filter(|d| d.unit == "s") {
        let Some(stem) = d.name.strip_suffix("_s") else { continue };
        let hits: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| *n == stem || n.strip_prefix(stem).is_some_and(|r| r.starts_with('_')))
            .collect();
        if hits.is_empty() {
            continue;
        }
        // Leaf spans: self time is the whole duration.
        let samples: Vec<f64> = units
            .iter()
            .map(|u| hits.iter().map(|n| by_unit[u].get(n).copied().unwrap_or(0.0)).sum())
            .collect();
        layers.set_samples(d.name, &samples);
    }

    for layer in ["order", "symbolic", "frontal", "core", "sim"] {
        let shares: Vec<f64> = units
            .iter()
            .zip(unit_secs)
            .map(|(u, total)| {
                let own = by_unit[u].iter().filter(|(n, _)| n.split('.').next() == Some(layer));
                own.map(|(_, t)| t).sum::<f64>() / total
            })
            .collect();
        layers.set_samples(&format!("{layer}.share"), &shares);
    }
    let residual: Vec<f64> =
        units.iter().zip(unit_secs).map(|(u, total)| 100.0 * by_unit[u]["unit"] / total).collect();
    layers.set_samples("bench.ledger_residual_pct", &residual);
}
