//! Peak attribution: replay a recording's memory events to recover the
//! exact instant and live-front composition of each processor's
//! active-memory peak.
//!
//! This is the analysis the memory-bounded tree-scheduling literature
//! uses to diagnose schedules: a peak is explained by the set of fronts
//! and stacked contribution blocks live at the peak instant. The memory
//! levels are replayed through `ProcMemory` itself — active = front
//! area + CB stack, strict-`>` peak update, saturating frees — so for a
//! complete recording ([`Recording::dropped`] == 0) the reported peak is
//! the solver's `active_peak`, and its composition sums to it.

use crate::engine::Time;
use crate::memory::{replay, ProcMemory};
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

/// Per-processor live composition during a replay.
struct Replay {
    /// Live (node, area) → entries, insertion-ordered.
    live: Vec<LiveItem>,
}

impl Replay {
    fn new() -> Self {
        Replay { live: Vec::new() }
    }

    fn alloc(&mut self, node: usize, area: MemArea, entries: u64) {
        if let Some(it) = self.live.iter_mut().find(|it| it.node == node && it.area == area) {
            it.entries += entries;
        } else {
            self.live.push(LiveItem { node, area, entries });
        }
    }

    fn free(&mut self, node: usize, area: MemArea, entries: u64) {
        if let Some(pos) = self.live.iter().position(|it| it.node == node && it.area == area) {
            if self.live[pos].entries <= entries {
                self.live.remove(pos);
            } else {
                self.live[pos].entries -= entries;
            }
        }
    }
}

/// Replays `rec` and returns each processor's peak attribution.
///
/// Processors with no recorded memory traffic report a zero peak with an
/// empty composition. The peak instant is the *first* time the maximum
/// is reached (strict-`>` update, as in `ProcMemory`).
pub fn attribute_peaks(nprocs: usize, rec: &Recording) -> Vec<PeakAttribution> {
    // Pass 1: find each processor's peak value and the instant and index
    // of the event that first set it.
    let mut mems = vec![ProcMemory::new(); nprocs];
    let mut out: Vec<PeakAttribution> = (0..nprocs)
        .map(|p| PeakAttribution { proc: p, at: 0, peak: 0, composition: Vec::new(), index: None })
        .collect();
    for (idx, (at, ev)) in rec.events().enumerate() {
        if let Some(p) = replay(&mut mems, ev) {
            let a = &mut out[p];
            if mems[p].active_peak() > a.peak {
                (a.peak, a.at, a.index) = (mems[p].active_peak(), at, Some(idx));
            }
        }
    }

    // Pass 2: replay live compositions, snapshotting each processor at
    // its peak-setting event (an allocation: a release never raises the
    // peak). Nothing after the last such event can change a snapshot, so
    // the replay stops there.
    let mut replays: Vec<Replay> = (0..nprocs).map(|_| Replay::new()).collect();
    let last = out.iter().filter_map(|a| a.index).max();
    for (idx, (_, ev)) in rec.events().enumerate() {
        match *ev {
            SchedEvent::MemAlloc { proc, node, area, entries } => {
                let proc = proc as usize;
                replays[proc].alloc(node as usize, area, entries);
                if out[proc].index == Some(idx) {
                    let mut comp = replays[proc].live.clone();
                    comp.sort_by_key(|it| (it.node, it.area));
                    out[proc].composition = comp;
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
    let mut mems = vec![ProcMemory::new(); nprocs];
    for (_, ev) in rec.events().take(idx) {
        replay(&mut mems, ev);
    }
    mems.iter().map(ProcMemory::active).collect()
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
        // The tail moves live entries only: each processor's first block
        // (allocated at k = p, node p, in the front area when p is even)
        // gives back one entry and takes it again, so no level exceeds an
        // earlier one.
        let tail_start = rec.len();
        for k in 0..200u32 {
            let p = k % 3;
            let area = if p % 2 == 0 { MemArea::Front } else { MemArea::Stack };
            push(&mut rec, free(p, p, area, 1));
            push(&mut rec, alloc(p, p, area, 1));
        }

        // The reference: replay every event through the account,
        // snapshotting at each strict new maximum.
        let mut mems = vec![ProcMemory::new(); nprocs];
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
            let Some(p) = replay(&mut mems, ev) else { continue };
            match *ev {
                SchedEvent::MemAlloc { node, area, entries, .. } => {
                    replays[p].alloc(node as usize, area, entries)
                }
                SchedEvent::MemFree { node, area, entries, .. } => {
                    replays[p].free(node as usize, area, entries)
                }
                _ => unreachable!("only memory events reach a ProcMemory"),
            }
            if mems[p].active() > want[p].peak {
                let mut composition = replays[p].live.clone();
                composition.sort_by_key(|it| (it.node, it.area));
                want[p] = PeakAttribution {
                    proc: p,
                    at,
                    peak: mems[p].active(),
                    composition,
                    index: Some(idx),
                };
            }
        }
        assert!(mems.iter().all(|m| m.underflows() == 0), "no area is overdrawn");
        assert!(want.iter().all(|a| a.index.is_some_and(|i| i < tail_start)), "peaks mid-stream");
        assert_eq!(attribute_peaks(nprocs, &rec), want);
    }

    /// An oversized free saturates its own area, as `ProcMemory` does,
    /// not the processor's total: the reported peak is the one the
    /// account reaches on the same calls.
    #[test]
    fn an_underflowing_free_peaks_where_the_account_does() {
        let mut rec = Recording::new(None);
        rec.record(1, alloc(0, 1, MemArea::Front, 10));
        rec.record(2, alloc(0, 2, MemArea::Stack, 5));
        rec.record(3, free(0, 2, MemArea::Stack, 8));
        rec.record(4, alloc(0, 3, MemArea::Front, 6));
        let mut m = ProcMemory::new();
        m.alloc_front(10);
        m.push_cb(5);
        assert!(!m.pop_cb(8), "the stack is overdrawn");
        m.alloc_front(6);
        assert_eq!(m.active_peak(), 16);

        let att = attribute_peaks(1, &rec);
        assert_eq!((att[0].peak, att[0].at, att[0].index), (m.active_peak(), 4, Some(3)));
        let sum: u64 = att[0].composition.iter().map(|it| it.entries).sum();
        assert_eq!(sum, att[0].peak);
        assert_eq!(active_before(1, &rec, 4), vec![m.active()]);
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
