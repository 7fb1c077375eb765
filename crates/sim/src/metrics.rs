//! Always-on metrics registry: counters, gauges, and histograms
//! aggregated during a run and folded into `RunResult` /
//! `RunDiagnostics`.
//!
//! Unlike the flight recorder (opt-in, per-event), metrics are cheap
//! enough to keep on unconditionally: every observation is a couple of
//! integer adds. They answer the aggregate questions — how much traffic
//! did each message class generate, how stale were the views masters
//! decided from, how deep did the task pools run, how long did each
//! processor sit idle or stalled — while the recorder answers the
//! per-decision ones.

use crate::engine::Time;
use std::fmt::Write as _;

/// Number of power-of-two buckets in a [`Histogram`]. Bucket `i` counts
/// observations in `[2^(i-1), 2^i)` (bucket 0 counts zeros); the last
/// bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

/// Fixed-size log2 histogram of `u64` observations.
///
/// Exact count/sum/min/max plus power-of-two buckets: enough for
/// staleness and pool-depth distributions without any allocation per
/// observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Log2 buckets; see [`HIST_BUCKETS`]. A fixed inline array so that
    /// creating and merging histograms never allocates — each scheduler
    /// core carries two of these on its hot path.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let b = if v == 0 { 0 } else { ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1) };
        self.buckets[b] += 1;
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, 0 when empty (presentation-friendly `min`).
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Folds another histogram into this one (exact: counts, sums, and
    /// buckets add; min/max combine).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`) from the log2
    /// buckets: in the bucket where the cumulative count crosses
    /// `ceil(q · count)`, the bucket's observations are taken as evenly
    /// spread over its range — narrowed to the exact `[min, max]` — and
    /// the one of the crossing rank is read off (a bucket's only
    /// observation reads as its upper edge). Rank 1 is therefore the
    /// exact minimum and rank `count` the exact maximum. Returns 0 on an
    /// empty histogram — never the internal `u64::MAX` min sentinel.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                // Bucket 0 holds zeros; bucket i (i ≥ 1) holds
                // [2^(i-1), 2^i), the last one everything above.
                let (lo, hi) = match i {
                    0 => (0, 0),
                    _ if i == HIST_BUCKETS - 1 => (1u64 << (i - 1), u64::MAX),
                    _ => (1u64 << (i - 1), (1u64 << i) - 1),
                };
                let (lo, hi) = (lo.max(self.min), hi.min(self.max));
                if c == 1 {
                    return hi;
                }
                let rank = target - seen; // 1 ..= c
                let step = (hi - lo) as u128 * (rank - 1) as u128 / (c - 1) as u128;
                return lo + step as u64;
            }
            seen += c;
        }
        self.max
    }

    fn json_into(&self, out: &mut String) {
        write!(
            out,
            "{{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3} }}",
            self.count,
            self.sum,
            self.min_or_zero(),
            self.max,
            self.mean()
        )
        .unwrap();
    }
}

/// Per-processor time and decision counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    /// Ticks spent computing (sum of work-unit durations).
    pub busy_ticks: Time,
    /// Ticks spent *stalled*: idle with ready-but-inadmissible work (the
    /// capacity verdict deferred everything). Idle = makespan − busy −
    /// stalled.
    pub stalled_ticks: Time,
    /// Fronts this processor activated as owner.
    pub activations: u64,
    /// Pool decisions where the admissibility verdict deferred every
    /// ready task.
    pub deferrals: u64,
    /// Slave blocks computed for remote masters.
    pub slave_tasks: u64,
}

/// Counters of the failure-recovery machinery (processor loss/join).
/// All zero on a run without membership faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Processor deaths observed (declared by the lease protocol or
    /// scheduled by the fault model).
    pub kills_observed: u64,
    /// Processors that joined mid-run.
    pub joins_observed: u64,
    /// Orphaned subtree roots reassigned to an adopter.
    pub subtrees_reassigned: u64,
    /// Fronts whose elimination was re-executed (lost factors or lost
    /// contribution blocks).
    pub nodes_recomputed: u64,
    /// Orphaned contribution-block entries garbage-collected from
    /// surviving stacks during recovery.
    pub orphaned_cb_entries: u64,
}

impl RecoveryCounters {
    /// True when no recovery machinery fired.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryCounters::default()
    }

    /// Folds another set of counters into this one.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.kills_observed += other.kills_observed;
        self.joins_observed += other.joins_observed;
        self.subtrees_reassigned += other.subtrees_reassigned;
        self.nodes_recomputed += other.nodes_recomputed;
        self.orphaned_cb_entries += other.orphaned_cb_entries;
    }

    /// One-line human summary (empty when nothing fired).
    pub fn summary(&self) -> String {
        if self.is_zero() {
            return String::new();
        }
        format!(
            "recovery: {} kills, {} joins, {} subtrees reassigned, {} nodes recomputed, \
             {} orphaned CB entries reclaimed",
            self.kills_observed,
            self.joins_observed,
            self.subtrees_reassigned,
            self.nodes_recomputed,
            self.orphaned_cb_entries
        )
    }

    fn json_into(&self, out: &mut String) {
        write!(
            out,
            "{{ \"kills_observed\": {}, \"joins_observed\": {}, \"subtrees_reassigned\": {}, \
             \"nodes_recomputed\": {}, \"orphaned_cb_entries\": {} }}",
            self.kills_observed,
            self.joins_observed,
            self.subtrees_reassigned,
            self.nodes_recomputed,
            self.orphaned_cb_entries
        )
        .unwrap();
    }
}

/// The slice of [`RunMetrics`] a single scheduler core owns: its own
/// per-processor counters plus the decision counters and histograms it
/// contributes to the run-wide registry.
///
/// Cores used to each carry a full `RunMetrics` with a P-length `procs`
/// vector of which they only ever touched their own row — O(P²) memory
/// across a run and an O(P) zeroing per core. `CoreMetrics` is O(1) per
/// core and allocation-free (the histograms are inline arrays); the
/// driver folds every core into the single run-wide registry with
/// [`RunMetrics::merge_core`] at the end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreMetrics {
    /// Capacity re-selection rounds across all type-2 selections.
    pub reselect_rounds: u64,
    /// Serialize-on-master fallbacks.
    pub serialized_fronts: u64,
    /// Deferred tasks force-activated by the stall-breaker.
    pub forced_activations: u64,
    /// View staleness observed at each slave-selection decision.
    pub view_staleness: Histogram,
    /// Ready-pool depth observed at each pool decision.
    pub pool_depth: Histogram,
    /// Failure-recovery counters (all zero without membership faults).
    pub recovery: RecoveryCounters,
    /// This processor's own time and decision counters.
    pub me: ProcMetrics,
}

/// Run-wide aggregates, indexed where relevant by processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Control messages delivered (task/data traffic: never droppable).
    pub control_msgs: u64,
    /// Payload bytes of control messages.
    pub control_bytes: u64,
    /// Status messages sent (information mechanisms; point-to-point
    /// count, i.e. a broadcast to `p−1` peers counts `p−1`).
    pub status_msgs: u64,
    /// Payload bytes of status messages.
    pub status_bytes: u64,
    /// Messages lost to fault injection: dropped status messages, plus
    /// every message once the network kill switch has fired.
    pub dropped_status: u64,
    /// Capacity re-selection rounds across all type-2 selections.
    pub reselect_rounds: u64,
    /// Serialize-on-master fallbacks.
    pub serialized_fronts: u64,
    /// Deferred tasks force-activated by the stall-breaker.
    pub forced_activations: u64,
    /// View staleness (ticks since last status refresh of the chosen
    /// candidate's entry) observed at each slave-selection decision.
    pub view_staleness: Histogram,
    /// Ready-pool depth observed at each pool decision.
    pub pool_depth: Histogram,
    /// Failure-recovery counters (all zero without membership faults).
    pub recovery: RecoveryCounters,
    /// Per-processor counters.
    pub procs: Vec<ProcMetrics>,
}

impl RunMetrics {
    /// Registry for an `nprocs`-processor run.
    pub fn new(nprocs: usize) -> Self {
        RunMetrics { procs: vec![ProcMetrics::default(); nprocs], ..Default::default() }
    }

    /// Total messages of both classes.
    pub fn total_msgs(&self) -> u64 {
        self.control_msgs + self.status_msgs
    }

    /// One-line traffic summary, shared by every human-facing report.
    pub fn traffic_line(&self) -> String {
        format!(
            "traffic: {} control + {} status messages ({} + {} bytes), {} status dropped",
            self.control_msgs,
            self.status_msgs,
            self.control_bytes,
            self.status_bytes,
            self.dropped_status
        )
    }

    /// One-line scheduling-decision summary, shared by every human-facing
    /// report.
    pub fn decisions_line(&self) -> String {
        format!(
            "decisions: staleness mean {:.0} ticks (max {}), pool depth mean {:.1}, \
             {} deferrals, {} reselect rounds, {} serialized, {} forced",
            self.view_staleness.mean(),
            self.view_staleness.max,
            self.pool_depth.mean(),
            self.procs.iter().map(|p| p.deferrals).sum::<u64>(),
            self.reselect_rounds,
            self.serialized_fronts,
            self.forced_activations
        )
    }

    /// Folds another registry into this one. Counters add, histograms
    /// merge exactly, and per-processor counters add elementwise (the
    /// registries must cover the same processor count). Used to combine
    /// the decision-side metrics each scheduler core keeps with the
    /// traffic-side metrics its driver keeps.
    pub fn merge(&mut self, other: &RunMetrics) {
        assert_eq!(self.procs.len(), other.procs.len(), "metrics registries must match in nprocs");
        self.control_msgs += other.control_msgs;
        self.control_bytes += other.control_bytes;
        self.status_msgs += other.status_msgs;
        self.status_bytes += other.status_bytes;
        self.dropped_status += other.dropped_status;
        self.reselect_rounds += other.reselect_rounds;
        self.serialized_fronts += other.serialized_fronts;
        self.forced_activations += other.forced_activations;
        self.view_staleness.merge(&other.view_staleness);
        self.pool_depth.merge(&other.pool_depth);
        self.recovery.merge(&other.recovery);
        for (p, o) in self.procs.iter_mut().zip(&other.procs) {
            p.busy_ticks += o.busy_ticks;
            p.stalled_ticks += o.stalled_ticks;
            p.activations += o.activations;
            p.deferrals += o.deferrals;
            p.slave_tasks += o.slave_tasks;
        }
    }

    /// Folds one scheduler core's [`CoreMetrics`] into this registry:
    /// decision counters and histograms merge run-wide, the core's own
    /// counters add into `procs[id]`. Equivalent to the old
    /// full-registry [`RunMetrics::merge`] where the core's registry was
    /// zero everywhere but its own row.
    pub fn merge_core(&mut self, id: usize, core: &CoreMetrics) {
        self.reselect_rounds += core.reselect_rounds;
        self.serialized_fronts += core.serialized_fronts;
        self.forced_activations += core.forced_activations;
        self.view_staleness.merge(&core.view_staleness);
        self.pool_depth.merge(&core.pool_depth);
        self.recovery.merge(&core.recovery);
        let p = &mut self.procs[id];
        let o = &core.me;
        p.busy_ticks += o.busy_ticks;
        p.stalled_ticks += o.stalled_ticks;
        p.activations += o.activations;
        p.deferrals += o.deferrals;
        p.slave_tasks += o.slave_tasks;
    }

    /// Renders the registry as a JSON object (no trailing newline).
    ///
    /// `makespan` lets per-processor idle time be derived
    /// (`makespan − busy − stalled`).
    pub fn to_json(&self, makespan: Time) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        writeln!(
            out,
            "      \"control_msgs\": {}, \"control_bytes\": {},",
            self.control_msgs, self.control_bytes
        )
        .unwrap();
        writeln!(
            out,
            "      \"status_msgs\": {}, \"status_bytes\": {}, \"dropped_status\": {},",
            self.status_msgs, self.status_bytes, self.dropped_status
        )
        .unwrap();
        writeln!(
            out,
            "      \"reselect_rounds\": {}, \"serialized_fronts\": {}, \"forced_activations\": {},",
            self.reselect_rounds, self.serialized_fronts, self.forced_activations
        )
        .unwrap();
        out.push_str("      \"view_staleness\": ");
        self.view_staleness.json_into(&mut out);
        out.push_str(",\n      \"pool_depth\": ");
        self.pool_depth.json_into(&mut out);
        out.push_str(",\n      \"recovery\": ");
        self.recovery.json_into(&mut out);
        out.push_str(",\n      \"procs\": [\n");
        for (i, p) in self.procs.iter().enumerate() {
            let sep = if i + 1 == self.procs.len() { "" } else { "," };
            let idle = makespan.saturating_sub(p.busy_ticks + p.stalled_ticks);
            writeln!(
                out,
                "        {{ \"proc\": {i}, \"busy_ticks\": {}, \"stalled_ticks\": {}, \
                 \"idle_ticks\": {idle}, \"activations\": {}, \"deferrals\": {}, \
                 \"slave_tasks\": {} }}{sep}",
                p.busy_ticks, p.stalled_ticks, p.activations, p.deferrals, p.slave_tasks
            )
            .unwrap();
        }
        out.push_str("      ]\n    }");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1 << 40);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 40);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1); // 2^40 clamps to the top bucket
        assert!((h.mean() - (6.0 + (1u64 << 40) as f64) / 5.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_presents_zero_min() {
        let h = Histogram::default();
        assert_eq!(h.min_or_zero(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn empty_min_sentinel_never_leaks_into_merges_or_exports() {
        // The internal min sentinel is u64::MAX; merging empties around
        // must neither surface it nor corrupt a real min.
        let mut a = Histogram::default();
        a.merge(&Histogram::default());
        assert_eq!(a.min, u64::MAX, "internal sentinel survives empty merges");
        assert_eq!(a.min_or_zero(), 0);
        let mut m = RunMetrics::new(1);
        m.merge(&RunMetrics::new(1));
        let j = m.to_json(10);
        assert!(j.contains("\"min\": 0"), "empty min must export as 0: {j}");
        assert!(!j.contains(&u64::MAX.to_string()), "sentinel leaked: {j}");
        // A real observation after the empty merges keeps exact min/max.
        a.observe(7);
        let mut b = Histogram::default();
        b.merge(&a);
        assert_eq!((b.min, b.max, b.min_or_zero()), (7, 7, 7));
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        assert_eq!(h.quantile(1.0), 0);
        for v in [0, 0, 1, 2, 3, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 0, "q=0 lands in the zero bucket");
        // The median is the 4th of 7: the first of the two observations
        // in [2, 3].
        assert_eq!(h.quantile(0.5), 2);
        // The top quantile is clamped to the exact max, not the bucket
        // edge (1023 for the bucket holding 1000).
        assert_eq!(h.quantile(1.0), 1000);
        // A single-value histogram answers that value everywhere.
        let mut s = Histogram::default();
        s.observe(42);
        assert_eq!(s.quantile(0.01), 42);
        assert_eq!(s.quantile(0.99), 42);
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 1000);
    }

    #[test]
    fn quantile_interpolates_by_rank_inside_the_crossing_bucket() {
        // One bucket, [64, 127], narrowed to the exact [70, 120]: the
        // five observations read as evenly spread from min to max.
        let mut one = Histogram::default();
        for v in [70, 80, 90, 100, 120] {
            one.observe(v);
        }
        let got: Vec<u64> = [0.0, 0.2, 0.4, 0.5, 0.8, 1.0].map(|q| one.quantile(q)).to_vec();
        assert_eq!(got, [70, 70, 82, 95, 107, 120]);
        // Two buckets, five observations each: [16, 31] and [64, 127]
        // (narrowed to the max, 100). Nothing is ever read in the empty
        // bucket between them.
        let mut two = Histogram::default();
        for v in [16, 18, 20, 25, 30, 64, 70, 80, 90, 100] {
            two.observe(v);
        }
        assert_eq!(two.quantile(0.0), 16, "rank 1 is the exact min");
        assert_eq!(two.quantile(0.3), 23, "3rd of 5 over [16, 31]");
        assert_eq!(two.quantile(0.5), 31, "last of the low bucket: its upper edge");
        assert_eq!(two.quantile(0.6), 64, "first of the high bucket: its lower edge");
        assert_eq!(two.quantile(0.8), 82, "3rd of 5 over [64, 100]");
        assert_eq!(two.quantile(0.95), 100);
        assert_eq!(two.quantile(1.0), 100, "rank count is the exact max");
        // A quantile can now move without crossing a power of two.
        assert_ne!(two.quantile(0.7), two.quantile(0.8));
        // Observations past the last bucket's lower edge stay in range.
        let mut top = Histogram::default();
        top.observe(1 << 40);
        top.observe(1 << 50);
        assert_eq!((top.quantile(0.0), top.quantile(1.0)), (1 << 40, 1 << 50));
    }

    #[test]
    fn json_shape_is_object() {
        let mut m = RunMetrics::new(2);
        m.control_msgs = 3;
        m.procs[1].busy_ticks = 40;
        let j = m.to_json(100);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"idle_ticks\": 60"));
        assert!(j.contains("\"control_msgs\": 3"));
        assert!(j.contains("\"kills_observed\": 0"));
    }

    #[test]
    fn merge_core_matches_full_registry_merge() {
        // A CoreMetrics folded at id must equal the old scheme: a full
        // RunMetrics zero everywhere but row id.
        let mut core = CoreMetrics {
            reselect_rounds: 3,
            serialized_fronts: 1,
            forced_activations: 2,
            recovery: RecoveryCounters { nodes_recomputed: 5, ..Default::default() },
            me: ProcMetrics {
                busy_ticks: 100,
                stalled_ticks: 7,
                activations: 9,
                deferrals: 2,
                slave_tasks: 4,
            },
            ..Default::default()
        };
        core.view_staleness.observe(17);
        core.pool_depth.observe(4);
        let mut via_core = RunMetrics::new(3);
        via_core.merge_core(1, &core);
        let mut full = RunMetrics::new(3);
        full.reselect_rounds = core.reselect_rounds;
        full.serialized_fronts = core.serialized_fronts;
        full.forced_activations = core.forced_activations;
        full.view_staleness = core.view_staleness.clone();
        full.pool_depth = core.pool_depth.clone();
        full.recovery = core.recovery;
        full.procs[1] = core.me.clone();
        let mut via_full = RunMetrics::new(3);
        via_full.merge(&full);
        assert_eq!(via_core, via_full);
    }

    #[test]
    fn recovery_counters_merge_and_summarize() {
        let mut a = RecoveryCounters::default();
        assert!(a.is_zero());
        assert_eq!(a.summary(), "");
        let b = RecoveryCounters {
            kills_observed: 1,
            subtrees_reassigned: 2,
            nodes_recomputed: 7,
            orphaned_cb_entries: 640,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.nodes_recomputed, 14);
        let s = a.summary();
        assert!(s.contains("2 kills") && s.contains("1280 orphaned CB entries"), "{s}");
    }
}
