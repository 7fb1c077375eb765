//! Per-processor memory accounting with running peaks.

use crate::recorder::{MemArea, SchedEvent};

/// Memory account of one simulated processor, in entries (f64 words).
///
/// Mirrors the three-area layout of the multifrontal method: a factors
/// area that only grows, a stack of contribution blocks, and the
/// currently active frontal matrices. The *stack memory* the paper's
/// tables report is `stack + fronts` (the active memory); its running
/// maximum is [`ProcMemory::active_peak`].
#[derive(Debug, Clone, Default)]
pub struct ProcMemory {
    factors: u64,
    stack: u64,
    fronts: u64,
    active_peak: u64,
    underflows: u64,
}

impl ProcMemory {
    /// Fresh, empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the peak to the current active memory; called only where
    /// it can grow (factors never count in it, a release never raises it).
    fn bump(&mut self) {
        let active = self.stack + self.fronts;
        if active > self.active_peak {
            self.active_peak = active;
        }
    }

    /// Allocates a frontal matrix.
    pub fn alloc_front(&mut self, entries: u64) {
        self.fronts += entries;
        self.bump();
    }

    /// Releases a frontal matrix. Returns `false` on underflow (an
    /// accounting bug): the account saturates at zero instead of
    /// wrapping, the event is counted in [`Self::underflows`], and the
    /// caller's watchdog reports it — in release builds too.
    #[must_use = "an underflow is an accounting bug the caller must surface"]
    pub fn free_front(&mut self, entries: u64) -> bool {
        let ok = self.fronts >= entries;
        if !ok {
            self.underflows += 1;
        }
        self.fronts = self.fronts.saturating_sub(entries);
        ok
    }

    /// Pushes a contribution block.
    pub fn push_cb(&mut self, entries: u64) {
        self.stack += entries;
        self.bump();
    }

    /// Pops a contribution block. Returns `false` on underflow, with the
    /// same saturate-and-count semantics as [`Self::free_front`].
    #[must_use = "an underflow is an accounting bug the caller must surface"]
    pub fn pop_cb(&mut self, entries: u64) -> bool {
        let ok = self.stack >= entries;
        if !ok {
            self.underflows += 1;
        }
        self.stack = self.stack.saturating_sub(entries);
        ok
    }

    /// Appends factor entries.
    pub fn store_factors(&mut self, entries: u64) {
        self.factors += entries;
    }

    /// Removes factor entries again (crash recovery: a node whose factors
    /// must be recomputed elsewhere forgets its stale share, so the final
    /// per-node factor accounting stays exactly-once). Returns `false` on
    /// underflow with the same saturate-and-count semantics as
    /// [`Self::free_front`]; peaks keep their history.
    #[must_use = "an underflow is an accounting bug the caller must surface"]
    pub fn forget_factors(&mut self, entries: u64) -> bool {
        let ok = self.factors >= entries;
        if !ok {
            self.underflows += 1;
        }
        self.factors = self.factors.saturating_sub(entries);
        ok
    }

    /// Current active memory (stack + fronts).
    pub fn active(&self) -> u64 {
        self.stack + self.fronts
    }

    /// Current stack-only usage.
    pub fn stack(&self) -> u64 {
        self.stack
    }

    /// Current factors usage.
    pub fn factors(&self) -> u64 {
        self.factors
    }

    /// Running peak of the active memory.
    pub fn active_peak(&self) -> u64 {
        self.active_peak
    }

    /// Number of underflowing releases seen (always-on checked
    /// accounting; zero in a correct run).
    pub fn underflows(&self) -> u64 {
        self.underflows
    }
}

/// Applies a recorded memory event to its processor's account in
/// `mems` and returns that processor; any other event is ignored.
///
/// Every replay of a recording's memory levels runs through here, so a
/// replay saturates and peaks exactly as the live account did.
pub(crate) fn replay(mems: &mut [ProcMemory], ev: &SchedEvent) -> Option<usize> {
    match *ev {
        SchedEvent::MemAlloc { proc, area, entries, .. } => {
            let m = &mut mems[proc as usize];
            match area {
                MemArea::Front => m.alloc_front(entries),
                MemArea::Stack => m.push_cb(entries),
            }
            Some(proc as usize)
        }
        SchedEvent::MemFree { proc, area, entries, .. } => {
            let m = &mut mems[proc as usize];
            // An underflow saturates and is counted, as in the run.
            let _ = match area {
                MemArea::Front => m.free_front(entries),
                MemArea::Stack => m.pop_cb(entries),
            };
            Some(proc as usize)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_peak_counts_stack_plus_fronts() {
        let mut m = ProcMemory::new();
        m.push_cb(100);
        m.alloc_front(50);
        assert!(m.pop_cb(100));
        assert!(m.free_front(50));
        assert_eq!(m.active(), 0);
        assert_eq!(m.active_peak(), 150);
        assert_eq!(m.underflows(), 0);
    }

    #[test]
    fn factors_do_not_count_in_active() {
        let mut m = ProcMemory::new();
        m.store_factors(1000);
        m.push_cb(10);
        assert_eq!(m.active_peak(), 10);
    }

    #[test]
    fn forget_factors_reverses_store_but_keeps_peaks() {
        let mut m = ProcMemory::new();
        m.push_cb(40);
        m.store_factors(500);
        assert!(m.forget_factors(200));
        assert_eq!(m.factors(), 300);
        assert_eq!(m.active_peak(), 40, "peaks keep their history");
        assert!(!m.forget_factors(400), "over-forgetting underflows");
        assert_eq!(m.factors(), 0);
        assert_eq!(m.underflows(), 1);
    }

    #[test]
    fn underflow_saturates_and_is_counted() {
        // Always-on checked accounting: release builds must not wrap.
        let mut m = ProcMemory::new();
        m.push_cb(5);
        assert!(!m.pop_cb(8));
        assert_eq!(m.stack(), 0);
        assert!(!m.free_front(1));
        assert_eq!(m.active(), 0);
        assert_eq!(m.underflows(), 2);
        // Peaks are unaffected by the saturated releases.
        assert_eq!(m.active_peak(), 5);
    }
}
