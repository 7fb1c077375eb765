//! Time-resolved telemetry series read from the scheduler cores.
//!
//! The metrics registry folds a run to one end-of-run snapshot; this
//! module keeps the *trajectory*. When the solver configuration sets a
//! sampling interval, `mf-core`'s run loop takes one row per alive and
//! joined processor at every multiple `s` of it: before the first
//! delivery at or after `s`, it reads each core and stamps the row with
//! `s` and the run-wide traffic counters. The read is not an event, so
//! both backends produce bit-identical series and a sampled run delivers
//! exactly the unsampled run's events (the invariance tests of
//! `mf_core::parsim` assert this, a kill/recovery run included).
//!
//! Every sample is kept: a run yields one row per processor per
//! interval, a few hundred at paper scale and the default interval.
//!
//! Consumers: [`RunTimeseries::write_jsonl`], the series' one machine
//! format, and the Perfetto exporter's sampled counter tracks.

use crate::engine::Time;
use std::io::{self, Write};

/// One sample of a single processor at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleRow {
    /// The sample instant: a multiple of the interval.
    pub at: Time,
    /// Active (front-area) entries held by the processor.
    pub active: u64,
    /// Contribution-block stack entries held by the processor.
    pub stack: u64,
    /// Ready tasks in the processor's local pool.
    pub pool_depth: u32,
    /// Slave tasks queued behind the current computation.
    pub queued: u32,
    /// Whether the processor was computing.
    pub busy: bool,
    /// Whether the processor was stalled by the capacity check.
    pub stalled: bool,
    /// Cumulative run-wide control messages at sample time.
    pub control_msgs: u64,
    /// Cumulative run-wide status messages at sample time.
    pub status_msgs: u64,
}

/// The sampled trajectory of one run: every processor's samples, oldest
/// first, plus the configured interval. Built by the run loop (both
/// backends, identically) whenever sampling is enabled; the
/// cross-backend invariance tests assert its equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTimeseries {
    interval: Time,
    procs: Vec<Vec<SampleRow>>,
}

impl RunTimeseries {
    /// Empty series for `nprocs` processors sampled every `interval`
    /// ticks.
    pub fn new(nprocs: usize, interval: Time) -> Self {
        RunTimeseries { interval, procs: vec![Vec::new(); nprocs] }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// The samples of processor `p`, oldest first.
    pub fn proc(&self, p: usize) -> &[SampleRow] {
        &self.procs[p]
    }

    /// Appends a sample for processor `p`.
    pub fn push(&mut self, p: usize, row: SampleRow) {
        self.procs[p].push(row);
    }

    /// Total samples across all processors.
    pub fn total_len(&self) -> usize {
        self.procs.iter().map(Vec::len).sum()
    }

    /// All samples merged into `(proc, row)` pairs ordered by
    /// `(at, proc)` — the deterministic flat order the exports use.
    pub fn merged(&self) -> Vec<(usize, SampleRow)> {
        let mut rows: Vec<(usize, SampleRow)> = Vec::with_capacity(self.total_len());
        for (p, s) in self.procs.iter().enumerate() {
            rows.extend(s.iter().map(|&r| (p, r)));
        }
        rows.sort_by_key(|(p, r)| (r.at, *p));
        rows
    }

    /// Writes the series as JSON Lines (one object per sample, ordered
    /// by `(at, proc)`).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (p, r) in self.merged() {
            writeln!(
                w,
                "{{\"at\":{},\"proc\":{},\"active\":{},\"stack\":{},\"pool_depth\":{},\
                 \"queued\":{},\"busy\":{},\"stalled\":{},\"control_msgs\":{},\"status_msgs\":{}}}",
                r.at,
                p,
                r.active,
                r.stack,
                r.pool_depth,
                r.queued,
                r.busy,
                r.stalled,
                r.control_msgs,
                r.status_msgs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(at: Time, active: u64) -> SampleRow {
        SampleRow {
            at,
            active,
            stack: active / 2,
            pool_depth: 3,
            queued: 1,
            busy: active.is_multiple_of(2),
            stalled: false,
            control_msgs: 10 + at,
            status_msgs: 20 + at,
        }
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut ts = RunTimeseries::new(2, 50);
        ts.push(0, row(50, 100));
        ts.push(1, row(50, 7));
        ts.push(0, row(100, 200));
        assert_eq!(ts.total_len(), 3);
        assert_eq!(ts.proc(0), [row(50, 100), row(100, 200)]);
        assert_eq!(ts.proc(1).last(), Some(&row(50, 7)));
    }

    #[test]
    fn merged_orders_by_time_then_proc() {
        let mut ts = RunTimeseries::new(2, 10);
        ts.push(1, row(10, 1));
        ts.push(0, row(10, 2));
        ts.push(0, row(20, 3));
        let order: Vec<(usize, Time)> = ts.merged().iter().map(|(p, r)| (*p, r.at)).collect();
        assert_eq!(order, vec![(0, 10), (1, 10), (0, 20)]);
    }

    #[test]
    fn logical_stream_equality() {
        let mut a = RunTimeseries::new(1, 10);
        let mut b = RunTimeseries::new(1, 10);
        for k in 0..4 {
            a.push(0, row(k * 10, k));
            b.push(0, row(k * 10, k));
        }
        assert_eq!(a, b);
        b.push(0, row(40, 9));
        assert_ne!(a, b);
        let c = RunTimeseries::new(1, 20);
        assert_ne!(RunTimeseries::new(1, 10), c, "interval is part of identity");
    }

    #[test]
    fn jsonl_shape() {
        let mut ts = RunTimeseries::new(2, 10);
        ts.push(1, row(10, 5));
        ts.push(0, row(20, 4));
        let mut jl = Vec::new();
        ts.write_jsonl(&mut jl).unwrap();
        let jl = String::from_utf8(jl).unwrap();
        assert_eq!(
            jl,
            "{\"at\":10,\"proc\":1,\"active\":5,\"stack\":2,\"pool_depth\":3,\"queued\":1,\
             \"busy\":false,\"stalled\":false,\"control_msgs\":20,\"status_msgs\":30}\n\
             {\"at\":20,\"proc\":0,\"active\":4,\"stack\":2,\"pool_depth\":3,\"queued\":1,\
             \"busy\":true,\"stalled\":false,\"control_msgs\":30,\"status_msgs\":40}\n"
        );
    }
}
