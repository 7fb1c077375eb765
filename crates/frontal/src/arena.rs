//! The three-area memory manager of the multifrontal method.
//!
//! Section 2 of the paper: "The algorithm uses three areas of storage in a
//! contiguous memory space, one for the factors, one to stack the
//! contribution blocks, and another one for the current frontal matrix."
//! This module reproduces that discipline and reports the exact usage and
//! peak of each area in *entries* (f64 words), so that the numeric runs
//! can validate the symbolic stack model used by the schedulers.

/// The contribution-block stack: one contiguous, growable area with
/// usage/peak accounting, as in the paper's memory layout.
///
/// Blocks must be released in reverse order of allocation, which is
/// exactly the postorder discipline of a sequential multifrontal
/// factorization (children CBs are consumed when the parent assembles).
#[derive(Debug, Default)]
pub struct CbStack {
    data: Vec<f64>,
    /// Start offset of every stacked block, bottom to top.
    starts: Vec<usize>,
    peak: u64,
}

/// Handle of a stacked contribution block: where it lies in the area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbHandle {
    offset: usize,
    len: usize,
}

impl CbStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty stack with room for `entries`: the stack area allocated
    /// once, from the analysis' peak, as the paper's solver does.
    pub fn with_capacity(entries: usize) -> Self {
        CbStack { data: Vec::with_capacity(entries), ..Self::default() }
    }

    /// Pushes a block of `len` entries made of `pieces` laid end to end
    /// (the columns of a contribution block as they sit in its front),
    /// returning its handle.
    pub fn push<'a>(
        &mut self,
        len: usize,
        pieces: impl IntoIterator<Item = &'a [f64]>,
    ) -> CbHandle {
        let offset = self.data.len();
        self.data.reserve(len);
        pieces.into_iter().for_each(|piece| self.data.extend_from_slice(piece));
        assert_eq!(self.data.len() - offset, len, "pieces do not add up to the block");
        self.starts.push(offset);
        self.peak = self.peak.max(self.used());
        CbHandle { offset, len }
    }

    /// Handle of the top block, if any.
    pub fn top(&self) -> Option<CbHandle> {
        self.starts.last().map(|&offset| CbHandle { offset, len: self.data.len() - offset })
    }

    /// Borrows the data of the block `h` (must still be stacked).
    pub fn get(&self, h: CbHandle) -> &[f64] {
        assert!(h.offset + h.len <= self.data.len(), "contribution block already released");
        &self.data[h.offset..h.offset + h.len]
    }

    /// Releases the *top* block, which must be `h` — enforcing the LIFO
    /// discipline of the contiguous stack area.
    pub fn pop(&mut self, h: CbHandle) {
        assert_eq!(Some(h), self.top(), "CB stack released out of order");
        self.starts.pop();
        self.data.truncate(h.offset);
    }

    /// Current entries stacked.
    pub fn used(&self) -> u64 {
        self.data.len() as u64
    }

    /// Peak entries stacked since creation.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of blocks currently stacked.
    pub fn depth(&self) -> usize {
        self.starts.len()
    }
}

/// Accounting for the whole three-area space.
///
/// `factors` only grows; `stack` is the CB stack; the current front is
/// tracked separately so the *active memory* (stack + front), the
/// quantity the paper's tables report, can peak mid-factorization.
#[derive(Debug, Default)]
pub struct MemoryAccount {
    factors: u64,
    front: u64,
    stack_used: u64,
    stack_peak: u64,
    active_peak: u64,
}

impl MemoryAccount {
    /// Fresh account.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&mut self) {
        let active = self.stack_used + self.front;
        self.stack_peak = self.stack_peak.max(self.stack_used);
        self.active_peak = self.active_peak.max(active);
    }

    /// Allocates the current frontal matrix.
    pub fn alloc_front(&mut self, entries: u64) {
        self.front += entries;
        self.bump();
    }

    /// Releases the current frontal matrix (factor part moved to the
    /// factors area, CB part to the stack — call the respective methods).
    pub fn free_front(&mut self, entries: u64) {
        assert!(self.front >= entries, "front underflow");
        self.front -= entries;
    }

    /// Moves `entries` into the factors area.
    pub fn store_factors(&mut self, entries: u64) {
        self.factors += entries;
        self.bump();
    }

    /// Pushes `entries` on the CB stack.
    pub fn push_cb(&mut self, entries: u64) {
        self.stack_used += entries;
        self.bump();
    }

    /// Pops `entries` from the CB stack.
    pub fn pop_cb(&mut self, entries: u64) {
        assert!(self.stack_used >= entries, "CB stack underflow");
        self.stack_used -= entries;
    }

    /// Current CB-stack usage.
    pub fn stack_used(&self) -> u64 {
        self.stack_used
    }

    /// Peak of the CB stack alone.
    pub fn stack_peak(&self) -> u64 {
        self.stack_peak
    }

    /// Peak of the *active memory* (CB stack + current fronts): the
    /// quantity reported in the paper's tables.
    pub fn active_peak(&self) -> u64 {
        self.active_peak
    }

    /// Factor entries stored so far.
    pub fn factors(&self) -> u64 {
        self.factors
    }

    /// Currently allocated front entries.
    pub fn front(&self) -> u64 {
        self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_tracks_usage_and_peak() {
        let mut s = CbStack::new();
        let a = s.push(10, [&[0.0; 10][..]]);
        let b = s.push(5, [&[0.0; 2][..], &[0.0; 3][..]]);
        assert_eq!(s.used(), 15);
        assert_eq!(s.peak(), 15);
        s.pop(b);
        assert_eq!(s.used(), 10);
        let c = s.push(2, [&[0.0; 2][..]]);
        assert_eq!(s.peak(), 15);
        s.pop(c);
        s.pop(a);
        assert_eq!(s.used(), 0);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn lifo_violation_panics() {
        let mut s = CbStack::new();
        let a = s.push(1, [&[0.0][..]]);
        let _b = s.push(1, [&[0.0][..]]);
        s.pop(a);
    }

    #[test]
    fn get_borrows_any_live_block() {
        let mut s = CbStack::new();
        let a = s.push(2, [&[1.0][..], &[2.0][..]]);
        let b = s.push(1, [&[3.0][..]]);
        assert_eq!(s.get(a), &[1.0, 2.0]);
        assert_eq!(s.top(), Some(b));
        assert_eq!(s.get(b), &[3.0]);
    }

    #[test]
    fn account_active_peak_counts_front_plus_stack() {
        let mut m = MemoryAccount::new();
        m.push_cb(100);
        m.alloc_front(50);
        assert_eq!(m.active_peak(), 150);
        m.pop_cb(100); // children assembled
        m.store_factors(30);
        m.push_cb(20); // own CB
        m.free_front(50);
        assert_eq!(m.stack_used(), 20);
        assert_eq!(m.factors(), 30);
        assert_eq!(m.active_peak(), 150);
    }

    #[test]
    fn factors_grow_monotonically() {
        let mut m = MemoryAccount::new();
        m.store_factors(5);
        m.store_factors(7);
        assert_eq!(m.factors(), 12);
    }
}
