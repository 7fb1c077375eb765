//! Chrome trace-event export (loads in Perfetto / `chrome://tracing`).
//!
//! Renders a [`Recording`] as the JSON
//! trace-event format: one *process* per simulated processor, compute
//! spans as balanced `B`/`E` duration slices on its thread track, and
//! the active-memory evolution as a `C` counter track split into the
//! paper's two areas (front area vs CB stack). Timestamps are simulator
//! ticks exported as microseconds, so a run of a few million ticks reads
//! as a few seconds of wall time in the viewer.
//!
//! The output is plain ASCII JSON, emitted deterministically in event
//! order — byte-identical for byte-identical recordings.

use crate::memory::{replay, ProcMemory};
use crate::recorder::{Recording, SchedEvent};
use crate::timeseries::RunTimeseries;
use std::io::{self, Write};

/// Writes `rec` as Chrome trace-event JSON for an `nprocs`-processor
/// run.
///
/// Counter tracks replay the recording's memory events through
/// `ProcMemory`, so they agree exactly with the solver's accounting (including transient
/// same-instant peaks that a sampled trace would collapse). When a
/// sampled [`RunTimeseries`] is supplied, per-processor `C` counter
/// tracks from the telemetry sampler are rendered too: `sampled memory`
/// (active/stack entries) and `scheduler load` (pool depth and queued
/// slave tasks) — what an external monitor polling at the sampling
/// interval would see, next to the exact replay in the viewer.
pub fn write_chrome_trace<W: Write>(
    w: &mut W,
    nprocs: usize,
    rec: &Recording,
    series: Option<&RunTimeseries>,
) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"displayTimeUnit\": \"ms\",")?;
    writeln!(w, "  \"traceEvents\": [")?;

    let mut first = true;
    let mut emit = |w: &mut W, line: &str| -> io::Result<()> {
        if first {
            first = false;
        } else {
            writeln!(w, ",")?;
        }
        write!(w, "    {line}")
    };

    // Track naming metadata: one "process" per simulated processor.
    for p in 0..nprocs {
        emit(
            w,
            &format!(
                "{{ \"ph\": \"M\", \"pid\": {p}, \"name\": \"process_name\", \
                 \"args\": {{ \"name\": \"proc {p}\" }} }}"
            ),
        )?;
        emit(
            w,
            &format!(
                "{{ \"ph\": \"M\", \"pid\": {p}, \"tid\": 0, \"name\": \"thread_name\", \
                 \"args\": {{ \"name\": \"compute\" }} }}"
            ),
        )?;
    }

    // Replayed per-processor memory levels for the counter tracks.
    let mut mems = vec![ProcMemory::new(); nprocs];

    for (ts, ev) in rec.events() {
        if let Some(p) = replay(&mut mems, ev) {
            let m = &mems[p];
            emit(w, &counter_line(p, ts, m.active() - m.stack(), m.stack()))?;
            continue;
        }
        match *ev {
            SchedEvent::ComputeStart { proc, node, role } => {
                emit(
                    w,
                    &format!(
                        "{{ \"ph\": \"B\", \"pid\": {proc}, \"tid\": 0, \"ts\": {ts}, \
                         \"name\": \"{} n{node}\", \"cat\": \"compute\" }}",
                        role.name()
                    ),
                )?;
            }
            SchedEvent::ComputeEnd { proc, node, role } => {
                emit(
                    w,
                    &format!(
                        "{{ \"ph\": \"E\", \"pid\": {proc}, \"tid\": 0, \"ts\": {ts}, \
                         \"name\": \"{} n{node}\", \"cat\": \"compute\" }}",
                        role.name()
                    ),
                )?;
            }
            SchedEvent::Activate { proc, node, class } => {
                emit(
                    w,
                    &format!(
                        "{{ \"ph\": \"i\", \"pid\": {proc}, \"tid\": 0, \"ts\": {ts}, \
                         \"s\": \"t\", \"name\": \"activate {} n{node}\", \
                         \"cat\": \"decision\" }}",
                        class.name()
                    ),
                )?;
            }
            SchedEvent::Forced { proc, node, .. } => {
                emit(
                    w,
                    &format!(
                        "{{ \"ph\": \"i\", \"pid\": {proc}, \"tid\": 0, \"ts\": {ts}, \
                         \"s\": \"t\", \"name\": \"forced n{node}\", \"cat\": \"decision\" }}"
                    ),
                )?;
            }
            // Selection, pool, status, and fault events carry vectors and
            // per-decision context: they belong to `explain`, not to the
            // timeline view.
            _ => {}
        }
    }

    // Sampled telemetry overlay: one row per (sample, proc), already in
    // time order within each processor's series.
    if let Some(ts) = series {
        for (proc, row) in ts.merged() {
            emit(
                w,
                &format!(
                    "{{ \"ph\": \"C\", \"pid\": {proc}, \"ts\": {}, \"name\": \"sampled memory\", \
                     \"args\": {{ \"active\": {}, \"stack\": {} }} }}",
                    row.at, row.active, row.stack
                ),
            )?;
            emit(
                w,
                &format!(
                    "{{ \"ph\": \"C\", \"pid\": {proc}, \"ts\": {}, \"name\": \"scheduler load\", \
                     \"args\": {{ \"pool\": {}, \"queued\": {} }} }}",
                    row.at, row.pool_depth, row.queued
                ),
            )?;
        }
    }

    writeln!(w)?;
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    Ok(())
}

fn counter_line(proc: usize, ts: crate::engine::Time, front: u64, stack: u64) -> String {
    format!(
        "{{ \"ph\": \"C\", \"pid\": {proc}, \"ts\": {ts}, \"name\": \"active memory\", \
         \"args\": {{ \"front\": {front}, \"stack\": {stack} }} }}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemArea, TaskRole};

    #[test]
    fn slices_and_counters_render() {
        let mut rec = Recording::new(None);
        rec.record(0, SchedEvent::MemAlloc { proc: 0, node: 1, area: MemArea::Front, entries: 10 });
        rec.record(0, SchedEvent::ComputeStart { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(5, SchedEvent::ComputeEnd { proc: 0, node: 1, role: TaskRole::Elim });
        rec.record(5, SchedEvent::MemFree { proc: 0, node: 1, area: MemArea::Front, entries: 10 });

        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, 1, &rec, None).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"ph\": \"B\""));
        assert!(s.contains("\"ph\": \"E\""));
        assert!(s.contains("\"front\": 10"));
        assert!(s.contains("\"front\": 0"));
        assert_eq!(s.matches("\"ph\": \"B\"").count(), s.matches("\"ph\": \"E\"").count());
    }

    #[test]
    fn counters_saturate_each_area_as_the_account_does() {
        let mut rec = Recording::new(None);
        let mem = |alloc: bool, area, entries| {
            let (proc, node) = (0, 1);
            if alloc {
                SchedEvent::MemAlloc { proc, node, area, entries }
            } else {
                SchedEvent::MemFree { proc, node, area, entries }
            }
        };
        rec.record(1, mem(true, MemArea::Front, 10));
        rec.record(2, mem(true, MemArea::Stack, 5));
        rec.record(3, mem(false, MemArea::Stack, 8)); // overdraws the stack only
        rec.record(4, mem(true, MemArea::Front, 6));

        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, 1, &rec, None).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let levels: Vec<&str> =
            s.lines().filter_map(|l| l.split("\"args\": ").nth(1)).skip(2).collect();
        assert_eq!(
            levels,
            [
                "{ \"front\": 10, \"stack\": 0 } },",
                "{ \"front\": 10, \"stack\": 5 } },",
                "{ \"front\": 10, \"stack\": 0 } },",
                "{ \"front\": 16, \"stack\": 0 } }",
            ]
        );
    }

    #[test]
    fn sampled_series_adds_counter_tracks() {
        use crate::timeseries::{RunTimeseries, SampleRow};
        let rec = Recording::new(None);
        let mut ts = RunTimeseries::new(2, 25);
        ts.push(
            1,
            SampleRow {
                at: 25,
                active: 7,
                stack: 3,
                pool_depth: 2,
                queued: 1,
                busy: true,
                stalled: false,
                control_msgs: 4,
                status_msgs: 9,
            },
        );
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, 2, &rec, Some(&ts)).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"name\": \"sampled memory\""));
        assert!(s.contains("\"active\": 7, \"stack\": 3"));
        assert!(s.contains("\"name\": \"scheduler load\""));
        assert!(s.contains("\"pool\": 2, \"queued\": 1"));

        // Without a series none of the sampled tracks are rendered.
        let mut plain = Vec::new();
        write_chrome_trace(&mut plain, 2, &rec, None).unwrap();
        let plain = String::from_utf8(plain).unwrap();
        assert!(!plain.contains("sampled memory") && !plain.contains("scheduler load"));
    }
}
