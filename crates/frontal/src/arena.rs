//! The contribution-block stack area of the multifrontal method.
//!
//! Section 2 of the paper: "The algorithm uses three areas of storage in a
//! contiguous memory space, one for the factors, one to stack the
//! contribution blocks, and another one for the current frontal matrix."
//! This module holds the stack area with its real usage and peak in
//! *entries* (f64 words). The other two areas are one: the numeric
//! drivers keep the factors in one area per factorization and assemble
//! the current front at its free end (`crate::front`). The peaks of the
//! whole space are priced by `mf_symbolic::seqstack::traversal_peak`,
//! and the sequential driver checks the real stack peak against that
//! model.

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
}
