//! Peak attribution: replay a recording's memory events to recover the
//! exact instant and live-front composition of each processor's
//! active-memory peak.
//!
//! This is the analysis the memory-bounded tree-scheduling literature
//! uses to diagnose schedules: a peak is explained by the set of fronts
//! and stacked contribution blocks live at the peak instant. The replay
//! mirrors `ProcMemory` exactly — active = front area + CB stack,
//! strict-`>` peak update, saturating frees — so for a complete
//! recording ([`Recording::dropped`] == 0) the reported composition sums
//! bit-exactly to the solver's `active_peak`.

use crate::engine::Time;
use crate::recorder::{MemArea, Recording, SchedEvent};

/// One live allocation at a peak instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveItem {
    /// Owning node.
    pub node: usize,
    /// Which area it occupies.
    pub area: MemArea,
    /// Live entries.
    pub entries: u64,
}

/// A processor's reconstructed active-memory peak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakAttribution {
    /// The processor.
    pub proc: usize,
    /// Instant the peak was first reached.
    pub at: Time,
    /// Peak active memory (entries). Sums over `composition`.
    pub peak: u64,
    /// Live allocations at the peak instant, ordered by node then area.
    pub composition: Vec<LiveItem>,
    /// Stream index of the event that first set the peak; `None` when
    /// the processor recorded no memory traffic.
    pub index: Option<usize>,
}

/// Per-processor live state during a replay.
struct Replay {
    /// Live (node, area) → entries, insertion-ordered.
    live: Vec<LiveItem>,
    active: u64,
}

impl Replay {
    fn new() -> Self {
        Replay { live: Vec::new(), active: 0 }
    }

    fn alloc(&mut self, node: usize, area: MemArea, entries: u64) {
        self.active += entries;
        if let Some(it) = self.live.iter_mut().find(|it| it.node == node && it.area == area) {
            it.entries += entries;
        } else {
            self.live.push(LiveItem { node, area, entries });
        }
    }

    fn free(&mut self, node: usize, area: MemArea, entries: u64) {
        // Saturating, mirroring ProcMemory's underflow tolerance.
        self.active = self.active.saturating_sub(entries);
        if let Some(pos) = self.live.iter().position(|it| it.node == node && it.area == area) {
            let it = &mut self.live[pos];
            it.entries = it.entries.saturating_sub(entries);
            if it.entries == 0 {
                self.live.remove(pos);
            }
        }
    }
}

/// Replays `rec` and returns each processor's peak attribution.
///
/// Processors with no recorded memory traffic report a zero peak with an
/// empty composition. The peak instant is the *first* time the maximum
/// is reached (strict-`>` update, matching `ProcMemory`).
pub fn attribute_peaks(nprocs: usize, rec: &Recording) -> Vec<PeakAttribution> {
    // Pass 1: find each processor's peak value and the index of the
    // event that first set it.
    let mut active = vec![0u64; nprocs];
    let mut peak = vec![0u64; nprocs];
    let mut peak_idx = vec![None; nprocs];
    let mut peak_at = vec![0 as Time; nprocs];
    for (idx, (at, ev)) in rec.events().enumerate() {
        match *ev {
            SchedEvent::MemAlloc { proc, entries, .. } => {
                let proc = proc as usize;
                active[proc] += entries;
                if active[proc] > peak[proc] {
                    peak[proc] = active[proc];
                    peak_idx[proc] = Some(idx);
                    peak_at[proc] = at;
                }
            }
            SchedEvent::MemFree { proc, entries, .. } => {
                let proc = proc as usize;
                active[proc] = active[proc].saturating_sub(entries);
            }
            _ => {}
        }
    }

    // Pass 2: replay live compositions, snapshotting each processor at
    // its peak-setting event. Nothing after the last such event can
    // change a snapshot, so the replay stops there.
    let mut replays: Vec<Replay> = (0..nprocs).map(|_| Replay::new()).collect();
    let mut out: Vec<PeakAttribution> = (0..nprocs)
        .map(|p| PeakAttribution { proc: p, at: 0, peak: 0, composition: Vec::new(), index: None })
        .collect();
    let last = peak_idx.iter().flatten().max().copied();
    for (idx, (_, ev)) in rec.events().enumerate() {
        match *ev {
            SchedEvent::MemAlloc { proc, node, area, entries } => {
                let proc = proc as usize;
                replays[proc].alloc(node as usize, area, entries);
                if peak_idx[proc] == Some(idx) {
                    let mut comp = replays[proc].live.clone();
                    comp.sort_by_key(|it| (it.node, it.area));
                    out[proc] = PeakAttribution {
                        proc,
                        at: peak_at[proc],
                        peak: peak[proc],
                        composition: comp,
                        index: Some(idx),
                    };
                    if last == Some(idx) {
                        break;
                    }
                }
            }
            SchedEvent::MemFree { proc, node, area, entries } => {
                replays[proc as usize].free(node as usize, area, entries);
            }
            _ => {}
        }
    }
    out
}

/// Active memory per processor after replaying the first `idx` events
/// (i.e. the state an event at stream position `idx` observed).
///
/// `explain` uses this to contrast what a master *believed* about its
/// peers (the recorded metric vector) with the ground truth at the same
/// instant.
pub fn active_before(nprocs: usize, rec: &Recording, idx: usize) -> Vec<u64> {
    let mut active = vec![0u64; nprocs];
    for (_, ev) in rec.events().take(idx) {
        match *ev {
            SchedEvent::MemAlloc { proc, entries, .. } => active[proc as usize] += entries,
            SchedEvent::MemFree { proc, entries, .. } => {
                let proc = proc as usize;
                active[proc] = active[proc].saturating_sub(entries)
            }
            _ => {}
        }
    }
    active
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(proc: u32, node: u32, area: MemArea, entries: u64) -> SchedEvent {
        SchedEvent::MemAlloc { proc, node, area, entries }
    }
    fn free(proc: u32, node: u32, area: MemArea, entries: u64) -> SchedEvent {
        SchedEvent::MemFree { proc, node, area, entries }
    }

    #[test]
    fn composition_sums_to_peak() {
        let mut rec = Recording::new(None);
        rec.record(1, alloc(0, 1, MemArea::Front, 100));
        rec.record(2, alloc(0, 2, MemArea::Stack, 50));
        rec.record(3, alloc(0, 3, MemArea::Front, 25)); // peak = 175 here
        rec.record(4, free(0, 1, MemArea::Front, 100));
        rec.record(5, alloc(0, 4, MemArea::Front, 60)); // 135 < 175

        let att = attribute_peaks(1, &rec);
        assert_eq!(att[0].peak, 175);
        assert_eq!((att[0].at, att[0].index), (3, Some(2)));
        let sum: u64 = att[0].composition.iter().map(|it| it.entries).sum();
        assert_eq!(sum, att[0].peak);
        assert_eq!(att[0].composition.len(), 3);
    }

    #[test]
    fn first_peak_instant_wins() {
        let mut rec = Recording::new(None);
        rec.record(1, alloc(0, 1, MemArea::Front, 10));
        rec.record(2, free(0, 1, MemArea::Front, 10));
        rec.record(9, alloc(0, 2, MemArea::Front, 10)); // equals, not exceeds
        let att = attribute_peaks(1, &rec);
        assert_eq!(att[0].peak, 10);
        assert_eq!(att[0].at, 1, "strict-> keeps the first instant");
        assert_eq!(
            att[0].composition,
            vec![LiveItem { node: 1, area: MemArea::Front, entries: 10 }]
        );
    }

    #[test]
    fn idle_processor_reports_zero() {
        let mut rec = Recording::new(None);
        rec.record(1, alloc(0, 1, MemArea::Front, 10));
        let att = attribute_peaks(2, &rec);
        assert_eq!((att[1].peak, att[1].index), (0, None));
        assert!(att[1].composition.is_empty());
    }

    /// The replay stops after the last peak-setting event: on a stream
    /// whose peaks are all set mid-stream and followed by a long tail of
    /// traffic, it must report what replaying the whole stream reports.
    #[test]
    fn early_stop_equals_a_full_replay() {
        let (nprocs, mut rec) = (3usize, Recording::new(None));
        let mut t = 0;
        let mut push = |rec: &mut Recording, e| {
            t += 1;
            rec.record(t, e);
        };
        for k in 0..40u32 {
            let (p, area) = (k % 3, if k % 2 == 0 { MemArea::Front } else { MemArea::Stack });
            push(&mut rec, alloc(p, k % 7, area, u64::from(10 + k)));
            if k % 4 == 3 {
                push(&mut rec, free(p, (k + 3) % 7, area, 9));
            }
        }
        let tail_start = rec.len();
        for k in 0..200u32 {
            let (p, node) = (k % 3, k % 7);
            push(&mut rec, free(p, node, MemArea::Front, 40));
            push(&mut rec, alloc(p, node + 100, MemArea::Stack, 3));
        }

        // The reference: replay every event, snapshotting at each strict
        // new maximum.
        let mut replays: Vec<Replay> = (0..nprocs).map(|_| Replay::new()).collect();
        let mut want: Vec<PeakAttribution> = (0..nprocs)
            .map(|p| PeakAttribution {
                proc: p,
                at: 0,
                peak: 0,
                composition: Vec::new(),
                index: None,
            })
            .collect();
        for (idx, (at, ev)) in rec.events().enumerate() {
            match *ev {
                SchedEvent::MemAlloc { proc, node, area, entries } => {
                    let (p, r) = (proc as usize, &mut replays[proc as usize]);
                    r.alloc(node as usize, area, entries);
                    if r.active > want[p].peak {
                        let mut composition = r.live.clone();
                        composition.sort_by_key(|it| (it.node, it.area));
                        want[p] = PeakAttribution {
                            proc: p,
                            at,
                            peak: r.active,
                            composition,
                            index: Some(idx),
                        };
                    }
                }
                SchedEvent::MemFree { proc, node, area, entries } => {
                    replays[proc as usize].free(node as usize, area, entries)
                }
                _ => {}
            }
        }
        assert!(want.iter().all(|a| a.index.is_some_and(|i| i < tail_start)), "peaks mid-stream");
        assert_eq!(attribute_peaks(nprocs, &rec), want);
    }

    #[test]
    fn active_before_reconstructs_ground_truth() {
        let mut rec = Recording::new(None);
        rec.record(1, alloc(0, 1, MemArea::Front, 10));
        rec.record(2, alloc(1, 2, MemArea::Front, 7));
        rec.record(3, free(0, 1, MemArea::Front, 4));
        assert_eq!(active_before(2, &rec, 0), vec![0, 0]);
        assert_eq!(active_before(2, &rec, 2), vec![10, 7]);
        assert_eq!(active_before(2, &rec, 3), vec![6, 7]);
    }
}
