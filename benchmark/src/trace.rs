//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span is opened and
//! closed here, outside it. Spans stay in memory until the run ends and
//! are then written as Chrome trace JSON. With the tracer off, `span`
//! only calls its closure, which is how the end-to-end pass runs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, the layer being a crate of the solver.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which unit of work the span belongs to.
    pub unit: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    unit: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { on: false, epoch: Instant::now(), unit: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Spans recorded from now on carry `unit`; `on` switches recording.
    pub fn begin_unit(&mut self, unit: u32, on: bool) {
        assert!(self.open.is_empty(), "a unit starts with no span open");
        self.unit = unit;
        self.on = on;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, unit: self.unit });
        self.open.push(idx);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(self);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        r
    }

    /// Unit 0 is set-up; measured units count from 1.
    pub const SETUP: u32 = 0;

    /// Measured units that recorded at least one span, ascending.
    pub fn units(&self) -> Vec<u32> {
        let mut u: Vec<u32> =
            self.spans.iter().map(|s| s.unit).filter(|&u| u != Self::SETUP).collect();
        u.dedup();
        u
    }

    /// Summed duration of the set-up spans called `name`.
    pub fn setup_secs(&self, name: &str) -> f64 {
        let hits = self.spans.iter().filter(|s| s.unit == Self::SETUP && s.name == name);
        hits.map(Span::secs).sum()
    }

    /// Per measured unit, the summed duration and the number of spans
    /// called `name`.
    pub fn per_unit(&self, name: &str) -> Vec<(f64, usize)> {
        self.units()
            .into_iter()
            .map(|u| {
                let hits = self.spans.iter().filter(|s| s.unit == u && s.name == name);
                hits.fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
            })
            .collect()
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover. Spans never overlap their siblings (one thread).
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Per measured unit, self time summed by span name.
    pub fn self_by_name(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let own = self.self_secs();
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own).filter(|(s, _)| s.unit != Self::SETUP) {
            *out.entry(s.unit).or_default().entry(s.name).or_default() += t;
        }
        out
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, the layer as its category.
    pub fn to_chrome_json(&self) -> Value {
        let own = self.self_secs();
        let events = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(i, (s, self_s))| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
                Value::obj(vec![
                    ("name", Value::Str(s.name.into())),
                    ("cat", Value::Str(layer.into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj(vec![
                            ("id", Value::Num(i as f64)),
                            ("parent", parent),
                            ("unit", Value::Num(f64::from(s.unit))),
                            ("self_us", Value::Num(self_s * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new();
        tr.begin_unit(1, false);
        tr.span("unit", |tr| tr.span("a.x", |_| ()));
        tr.begin_unit(Tracer::SETUP, true);
        tr.span("a.gen", |_| ());
        assert!(tr.units().is_empty() && tr.setup_secs("a.gen") > 0.0);

        tr.begin_unit(2, true);
        tr.span("unit", |tr| {
            tr.span("a.x", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("a.x", |_| ());
        });
        assert_eq!(tr.units(), vec![2]);
        let (t, n) = tr.per_unit("a.x")[0];
        assert_eq!(n, 2);
        let own = &tr.self_by_name()[&2];
        let total = tr.per_unit("unit")[0].0;
        assert!(t >= 0.002 && (own["unit"] + own["a.x"] - total).abs() < 1e-9);
        assert!(tr.spans[2].parent == Some(1) && tr.spans[1].parent.is_none());
    }
}
