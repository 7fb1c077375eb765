//! Column-major dense storage and partial factorization kernels.

use crate::gemm::{self, GemmWorkspace};
use rayon::prelude::*;

/// A column-major dense matrix (the layout of frontal matrices).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMat {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw column-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// The matrix as a square front for the kernels.
    fn front_mut(&mut self) -> FrontMut<'_> {
        assert_eq!(self.nrows, self.ncols, "frontal matrices are square");
        FrontMut::new(self.nrows, &mut self.data)
    }

    /// Swaps rows `a` and `b` across all columns.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        debug_assert!(a < self.nrows && b < self.nrows);
        for col in self.data.chunks_exact_mut(self.nrows) {
            col.swap(a, b);
        }
    }

    /// `y += A x` (used by tests for residual checks).
    pub fn mul_vec_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, &a) in self.col(j).iter().enumerate() {
                y[i] += a * xj;
            }
        }
    }
}

/// A square column-major front borrowed where it lies: at the free end
/// of a factor area, or in a [`DenseMat`]. The kernels work on this
/// view, so a front is factored where it was assembled.
pub(crate) struct FrontMut<'a> {
    /// Order of the front.
    f: usize,
    data: &'a mut [f64],
}

impl<'a> FrontMut<'a> {
    /// The `f x f` front held by `data`.
    pub(crate) fn new(f: usize, data: &'a mut [f64]) -> Self {
        assert_eq!(data.len(), f * f, "a front of order {f} is {} words", f * f);
        FrontMut { f, data }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.f + i]
    }

    #[inline]
    fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[j * self.f + i]
    }

    /// Adds `v` to element `(i, j)` (assembly primitive).
    #[inline]
    pub(crate) fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.f + i] += v;
    }

    /// Column `j` as a slice.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.f..(j + 1) * self.f]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.f..(j + 1) * self.f]
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        for col in self.data.chunks_exact_mut(self.f) {
            col.swap(a, b);
        }
    }
}

/// Failure of a dense partial factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// A pivot smaller (in magnitude) than the threshold was met.
    TinyPivot {
        /// Elimination step at which it happened.
        step: usize,
        /// The offending pivot value.
        value: f64,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::TinyPivot { step, value } => {
                write!(f, "pivot too small at step {step}: {value:e}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// `dst[i] -= l[i] * u` over equal-length slices. Slicing `l` to
/// `dst.len()` up front lets the inner loop run without bounds checks.
#[inline]
fn axpy_sub(dst: &mut [f64], l: &[f64], u: f64) {
    gemm::axpy_sub(dst, l, u);
}

/// `dst[i] += src[i]` over equal-length slices (assembly fast path for
/// contribution blocks whose variables land on consecutive parent rows).
#[inline]
pub(crate) fn add_assign_slice(dst: &mut [f64], src: &[f64]) {
    let n = dst.len();
    let src = &src[..n];
    for i in 0..n {
        dst[i] += src[i];
    }
}

/// Partial LU of the leading `npiv` columns of a square front `w`
/// (order `f = w.nrows()`), with partial pivoting restricted to the
/// fully-summed rows `0..npiv`.
///
/// On return, the leading `npiv` columns hold `L` (unit diagonal implied)
/// below the diagonal and `U` on/above it; the trailing
/// `(f-npiv) x (f-npiv)` block holds the Schur complement (contribution
/// block). `row_perm[k]` records the row swapped into position `k`.
///
/// Restricting pivot search to the fully-summed rows is exact for the
/// diagonally dominant problems generated in this reproduction and is the
/// discipline MUMPS follows before resorting to delayed pivots (which we
/// do not model; a tiny pivot is an error instead).
pub fn partial_lu(
    w: &mut DenseMat,
    npiv: usize,
    row_perm: &mut Vec<usize>,
) -> Result<(), KernelError> {
    lu_unblocked(&mut w.front_mut(), npiv, row_perm)
}

/// [`partial_lu`] on a borrowed front.
fn lu_unblocked(
    w: &mut FrontMut<'_>,
    npiv: usize,
    row_perm: &mut Vec<usize>,
) -> Result<(), KernelError> {
    let f = w.f;
    assert!(npiv <= f);
    row_perm.clear();
    row_perm.extend(0..f);
    for k in 0..npiv {
        // Pivot: largest magnitude in column k among fully-summed rows.
        let mut piv_row = k;
        let mut piv_val = w.get(k, k).abs();
        for i in k + 1..npiv {
            let v = w.get(i, k).abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        if piv_val < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: w.get(piv_row, k) });
        }
        if piv_row != k {
            w.swap_rows(k, piv_row);
            row_perm.swap(k, piv_row);
        }
        let d = w.get(k, k);
        // Scale column k below the diagonal.
        let inv = 1.0 / d;
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        // Rank-1 update of the trailing block: W[k+1.., k+1..] -= l * u.
        // Splitting after column k separates the finished L column from
        // the columns being updated, so the axpy runs on plain slices.
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for colj in tail.chunks_exact_mut(f) {
            let ukj = colj[k];
            if ukj == 0.0 {
                continue;
            }
            axpy_sub(&mut colj[k + 1..], lcol, ukj);
        }
    }
    Ok(())
}

/// Fixed column-chunk width of the parallel trailing sweep (a multiple
/// of the microkernel tile width). The partition never changes results:
/// every column's update is computed independently from the shared
/// packed panel, so any chunking — including the single-chunk sequential
/// sweep — produces bit-identical bytes.
const PAR_COL_CHUNK: usize = 8 * gemm::NR;

/// Below this many trailing columns a parallel dispatch cannot pay for
/// its thread handoff; stay on the single-chunk path.
const PAR_MIN_COLS: usize = 2 * PAR_COL_CHUNK;

/// Packing buffers of one trailing sweep, reused through its whole
/// recursion: `ws` takes the `L` blocks the triangular solves push down,
/// `bp` every packed `B` panel. Separate from the workspace holding the
/// sweep's own packed `L21`, which stays live across it. The buffers are
/// cleared before every pack, so reuse cannot change a single bit.
#[derive(Default)]
struct SweepScratch {
    ws: GemmWorkspace,
    bp: Vec<f64>,
}

/// One chunk of the LU trailing update: for every column of `cols`
/// (whole front columns, length `f` each), solve `L11` against the
/// fully-summed rows `k0..kend` (forming `U12`), then subtract
/// `L21 · U12` from rows `kend..` through the packed microkernel.
fn lu_trailing_chunk(
    cols: &mut [f64],
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    ap: &gemm::APack<'_>,
    scratch: &mut SweepScratch,
) {
    let nc = cols.len() / f;
    solve_u12_rec(cols, f, k0, kend, panel, scratch);
    gemm::pack_b(&mut scratch.bp, &cols[k0..], f, kend - k0, nc);
    gemm::gemm_sub_packed(ap, &scratch.bp, nc, &mut cols[kend..], f);
}

/// Width at which the recursive triangular solves fall back to the
/// per-column `axpy_sub` loop (the solve is L1-resident at this size).
const TRSM_BASE: usize = 16;

/// In-place unit-lower-triangular solve forming `U12`: applies
/// `L(k0..kend, k0..kend)⁻¹` to rows `k0..kend` of every column in
/// `cols` (L read from `panel`). Recursive: the top half solves, one
/// packed GEMM pushes it into the bottom-half rows, the bottom half
/// solves — so the O(nc·kb²) solve flops run through the microkernels
/// instead of column-at-a-time `axpy_sub`. Contributions still land in
/// ascending-`k` order per element; only the rounding granularity of
/// the accumulation changes (axpy two-op steps vs one fused GEMM
/// chain), which the blocked-vs-unblocked tolerance tests cover.
fn solve_u12_rec(
    cols: &mut [f64],
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    scratch: &mut SweepScratch,
) {
    let kb = kend - k0;
    if kb <= TRSM_BASE {
        for colj in cols.chunks_exact_mut(f) {
            for k in k0..kend {
                let ukj = colj[k];
                if ukj == 0.0 {
                    continue;
                }
                let base = k * f + k + 1;
                axpy_sub(&mut colj[k + 1..kend], &panel[base..base + kend - k - 1], ukj);
            }
        }
        return;
    }
    let h = kb / 2;
    let mid = k0 + h;
    solve_u12_rec(cols, f, k0, mid, panel, scratch);
    let nc = cols.len() / f;
    let SweepScratch { ws, bp } = scratch;
    let ap = gemm::pack_a(ws, &panel[k0 * f + mid..], f, kend - mid, h);
    gemm::pack_b(bp, &cols[k0..], f, h, nc);
    gemm::gemm_sub_packed(&ap, bp, nc, &mut cols[mid..], f);
    solve_u12_rec(cols, f, mid, kend, panel, scratch);
}

/// One chunk of the LDLᵀ trailing update, lower triangle only. `cols`
/// are whole front columns starting at global column `r0 + c0`, where
/// `r0` is the first row below the factored columns `k0..kend` (and the
/// first trailing column); `ap` packs `L(r0.., k0..kend)`. Forms the
/// scaled rows `B(k,j) = d_k·l_{jk}` straight into packed strips, then
/// subtracts `L · B` from each column's rows at or below its diagonal.
#[allow(clippy::too_many_arguments)]
fn ldlt_trailing_chunk(
    cols: &mut [f64],
    r0: usize,
    c0: usize,
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    ap: &gemm::APack<'_>,
    bp: &mut Vec<f64>,
) {
    let nc = cols.len() / f;
    let l = &panel[k0 * f + r0 + c0..];
    gemm::pack_b_scaled_transpose(bp, l, f, kend - k0, nc, |k| panel[(k0 + k) * (f + 1)]);
    gemm::gemm_sub_packed_lower(ap, bp, nc, &mut cols[r0..], f, c0);
}

/// Runs `chunk_fn` over the trailing columns, either as one sequential
/// chunk on the caller's `scratch` or as fixed-width chunks fanned out
/// over up to `threads` rayon workers, each on scratch of its own. Chunks
/// write disjoint whole columns and read only the shared packed panel, so
/// there is **no cross-thread reduction to order**: the per-element
/// accumulation order is pinned inside the microkernel (ascending `k`),
/// and the output is bit-identical for every thread count and chunk
/// partition.
fn dispatch_trailing(
    trailing: &mut [f64],
    f: usize,
    threads: usize,
    scratch: &mut SweepScratch,
    chunk_fn: impl Fn(usize, &mut [f64], &mut SweepScratch) + Sync,
) {
    let ncols = trailing.len() / f;
    if threads <= 1 || ncols < PAR_MIN_COLS {
        chunk_fn(0, trailing, scratch);
        return;
    }
    let chunks: Vec<(usize, &mut [f64])> = trailing
        .chunks_mut(f * PAR_COL_CHUNK)
        .enumerate()
        .map(|(i, c)| (i * PAR_COL_CHUNK, c))
        .collect();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| {
        chunks.into_par_iter().for_each(|(c0, cols)| {
            chunk_fn(c0, cols, &mut SweepScratch::default());
        });
    });
}

/// Width at which the recursive panel factorization stops splitting and
/// runs the rank-1 column loop directly. At or below this width the
/// sub-panel is cache-resident and a GEMM call cannot pay for its
/// packing; above it the right half of each split is updated through the
/// packed microkernels instead of `axpy_sub`.
const PANEL_BASE: usize = 8;

/// Rank-1 panel LU over columns `k0..k0+kb`: the historical unblocked
/// panel loop — pivot (argmax over rows `k..npiv`, strict `>`), swap
/// across all columns, scale, then `axpy_sub` updates of the remaining
/// panel columns only. The base case of [`panel_lu_rec`] and the
/// reference the `panel` benchmark compares the recursion against.
fn panel_lu_rank1(
    w: &mut FrontMut<'_>,
    npiv: usize,
    row_perm: &mut [usize],
    k0: usize,
    kb: usize,
) -> Result<(), KernelError> {
    let f = w.f;
    for k in k0..k0 + kb {
        let mut piv_row = k;
        let mut piv_val = w.get(k, k).abs();
        for i in k + 1..npiv {
            let v = w.get(i, k).abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        if piv_val < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: w.get(piv_row, k) });
        }
        if piv_row != k {
            w.swap_rows(k, piv_row);
            row_perm.swap(k, piv_row);
        }
        let inv = 1.0 / w.get(k, k);
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        // Update only the remaining sub-panel columns now.
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for colj in tail.chunks_exact_mut(f).take(k0 + kb - k - 1) {
            let ukj = colj[k];
            if ukj == 0.0 {
                continue;
            }
            axpy_sub(&mut colj[k + 1..], lcol, ukj);
        }
    }
    Ok(())
}

/// Recursive panel LU over columns `k0..k0+kb`: split the panel in
/// halves, factor the left half, apply the left half to the right half
/// (triangular solve on the fully-summed panel rows + packed-GEMM update
/// of the rows below — exactly [`lu_trailing_chunk`] restricted to the
/// right-half columns), then recurse into the right half. The pivot rule
/// is unchanged (argmax over rows `k..npiv`, strict `>`), so pivot
/// choices match the rank-1 panel; at widths `<= PANEL_BASE` (hence at
/// `nb = 1`) the code path *is* the rank-1 loop.
fn panel_lu_rec(
    w: &mut FrontMut<'_>,
    npiv: usize,
    row_perm: &mut [usize],
    k0: usize,
    kb: usize,
    ws: &mut GemmWorkspace,
    scratch: &mut SweepScratch,
) -> Result<(), KernelError> {
    let f = w.f;
    if kb <= PANEL_BASE {
        return panel_lu_rank1(w, npiv, row_perm, k0, kb);
    }
    let h = kb / 2;
    panel_lu_rec(w, npiv, row_perm, k0, h, ws, scratch)?;
    let mid = k0 + h;
    {
        let (panel, rest) = w.data.split_at_mut(mid * f);
        let cols = &mut rest[..(kb - h) * f];
        let ap = gemm::pack_a(ws, &panel[k0 * f + mid..], f, f - mid, h);
        lu_trailing_chunk(cols, f, k0, mid, panel, &ap, scratch);
    }
    panel_lu_rec(w, npiv, row_perm, mid, kb - h, ws, scratch)
}

/// Rank-1 LDLᵀ steps `k0..kend` on the lower triangle of `w`: scale
/// column `k` below its diagonal, then update columns `k+1..jend`, each
/// from its own diagonal down. The whole of [`partial_ldlt`] (`jend =
/// f`) and the base case of [`panel_ldlt_rec`] (`jend` = panel end).
fn ldlt_rank1(
    w: &mut FrontMut<'_>,
    k0: usize,
    kend: usize,
    jend: usize,
) -> Result<(), KernelError> {
    let f = w.f;
    for k in k0..kend {
        let d = w.get(k, k);
        if d.abs() < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: d });
        }
        let inv = 1.0 / d;
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for (jt, colj) in tail.chunks_exact_mut(f).take(jend - k - 1).enumerate() {
            let ljk_d = lcol[jt] * d; // l_jk * d_k
            if ljk_d == 0.0 {
                continue;
            }
            axpy_sub(&mut colj[k + 1 + jt..], &lcol[jt..], ljk_d);
        }
    }
    Ok(())
}

/// Recursive panel LDLᵀ over columns `k0..k0+kb`, lower triangle only.
/// Same halving scheme as [`panel_lu_rec`], with the right-half update
/// delegated to [`ldlt_trailing_chunk`].
fn panel_ldlt_rec(
    w: &mut FrontMut<'_>,
    k0: usize,
    kb: usize,
    ws: &mut GemmWorkspace,
    bp: &mut Vec<f64>,
) -> Result<(), KernelError> {
    let f = w.f;
    if kb <= PANEL_BASE {
        return ldlt_rank1(w, k0, k0 + kb, k0 + kb);
    }
    let h = kb / 2;
    panel_ldlt_rec(w, k0, h, ws, bp)?;
    let mid = k0 + h;
    {
        let (panel, rest) = w.data.split_at_mut(mid * f);
        let cols = &mut rest[..(kb - h) * f];
        let ap = gemm::pack_a(ws, &panel[k0 * f + mid..], f, f - mid, h);
        ldlt_trailing_chunk(cols, mid, 0, f, k0, mid, panel, &ap, bp);
    }
    panel_ldlt_rec(w, mid, kb - h, ws, bp)
}

/// Cache-blocked variant of [`partial_lu`]: identical result (same pivot
/// choices), computed by panels of `nb` columns with a packed-GEMM
/// trailing update — the textbook BLAS-3 restructuring over the
/// [`crate::gemm`] microkernels. The trailing update of each panel is
/// fanned out across up to `threads` rayon workers (within-front
/// parallelism — the "malleable task" axis). Output bytes are identical
/// for every `threads` value: the panel factorization is sequential, and
/// the parallel trailing sweep partitions columns disjointly with a
/// pinned per-element accumulation order (see [`crate::gemm`]).
pub fn partial_lu_blocked_mt(
    w: &mut DenseMat,
    npiv: usize,
    nb: usize,
    row_perm: &mut Vec<usize>,
    threads: usize,
) -> Result<(), KernelError> {
    lu_blocked(&mut w.front_mut(), npiv, nb, row_perm, threads)
}

/// [`partial_lu_blocked_mt`] on a borrowed front.
fn lu_blocked(
    w: &mut FrontMut<'_>,
    npiv: usize,
    nb: usize,
    row_perm: &mut Vec<usize>,
    threads: usize,
) -> Result<(), KernelError> {
    let f = w.f;
    assert!(npiv <= f);
    let nb = nb.max(1);
    row_perm.clear();
    row_perm.extend(0..f);
    let (mut ws, mut scratch) = (GemmWorkspace::new(), SweepScratch::default());
    let mut k0 = 0;
    while k0 < npiv {
        let kb = nb.min(npiv - k0);
        // ---- Panel factorization (recursive, GEMM-rich) on columns
        // k0..k0+kb. ----
        panel_lu_rec(w, npiv, row_perm, k0, kb, &mut ws, &mut scratch)?;
        let kend = k0 + kb;
        // ---- Columns right of the panel: the triangular U12 solve
        // (rows k0..kend) followed by the GEMM update of rows kend..f,
        // `W22 -= L21 · U12`, through the packed microkernels. L21 is
        // packed once per panel and read-shared by every chunk. ----
        if kend < f {
            let (panel, trailing) = w.data.split_at_mut(kend * f);
            let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
            dispatch_trailing(trailing, f, threads, &mut scratch, |_, cols, scratch| {
                lu_trailing_chunk(cols, f, k0, kend, panel, &ap, scratch);
            });
        }
        k0 = kend;
    }
    Ok(())
}

/// Partial LDLᵀ of the leading `npiv` columns of a symmetric front held
/// in the **lower triangle** of `w`; no pivoting (1x1 diagonal pivots),
/// suitable for the diagonally dominant symmetric problems here. The
/// strict upper triangle is neither read nor written — by this kernel or
/// by the blocked ones.
///
/// On return, columns `0..npiv` hold `L` below the diagonal, `D` on it;
/// the lower triangle of the trailing block holds the Schur complement.
pub fn partial_ldlt(w: &mut DenseMat, npiv: usize) -> Result<(), KernelError> {
    ldlt_unblocked(&mut w.front_mut(), npiv)
}

/// [`partial_ldlt`] on a borrowed front.
fn ldlt_unblocked(w: &mut FrontMut<'_>, npiv: usize) -> Result<(), KernelError> {
    let f = w.f;
    assert!(npiv <= f);
    ldlt_rank1(w, 0, npiv, f)
}

/// Cache-blocked variant of [`partial_ldlt`]: same (unpivoted) pivot
/// sequence, computed by panels of `nb` columns with a deferred
/// `W22 -= L21 · (D·L21ᵀ)` swept over the lower trapezoid by the packed
/// microkernels. Values differ from the rank-1 kernel only by summation
/// order. The trailing update of each panel is fanned out across up to
/// `threads` rayon workers; the output is bit-identical for every
/// `threads` value, by the same argument as [`partial_lu_blocked_mt`]:
/// columns are partitioned disjointly and the per-element accumulation
/// order is pinned.
pub fn partial_ldlt_blocked_mt(
    w: &mut DenseMat,
    npiv: usize,
    nb: usize,
    threads: usize,
) -> Result<(), KernelError> {
    ldlt_blocked(&mut w.front_mut(), npiv, nb, threads)
}

/// [`partial_ldlt_blocked_mt`] on a borrowed front.
fn ldlt_blocked(
    w: &mut FrontMut<'_>,
    npiv: usize,
    nb: usize,
    threads: usize,
) -> Result<(), KernelError> {
    let f = w.f;
    assert!(npiv <= f);
    let nb = nb.max(1);
    let (mut ws, mut scratch) = (GemmWorkspace::new(), SweepScratch::default());
    let mut k0 = 0;
    while k0 < npiv {
        let kb = nb.min(npiv - k0);
        let kend = k0 + kb;
        // ---- Panel factorization (recursive, GEMM-rich) over the panel
        // columns only: same pivot sequence as the unblocked kernel
        // restricted to these columns. ----
        panel_ldlt_rec(w, k0, kb, &mut ws, &mut scratch.bp)?;
        // ---- Trailing columns: `L21` is packed once per panel and
        // read-shared by every chunk; each chunk scales its own rows of
        // it by `D` (the panel's diagonal keeps `d_k`). ----
        if kend < f {
            let (panel, trailing) = w.data.split_at_mut(kend * f);
            let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
            dispatch_trailing(trailing, f, threads, &mut scratch, |c0, cols, scratch| {
                ldlt_trailing_chunk(cols, kend, c0, f, k0, kend, panel, &ap, &mut scratch.bp);
            });
        }
        k0 = kend;
    }
    Ok(())
}

/// Production entry point used by the numeric drivers: picks the blocked
/// kernel for pivot blocks large enough to benefit, the rank-1 kernel
/// otherwise. Both compute the same factorization (identical pivot
/// choices; floating-point results differ only by summation order).
/// Below the threshold the rank-1 kernel wins on this workload's
/// cache-resident fronts. The kernel choice depends **only** on `npiv` —
/// never on the within-front thread budget `threads` — so a different
/// cores-per-front setting can never change which arithmetic runs, and
/// the factors stay bit-identical across budgets.
pub(crate) fn factor_front_lu_mt(
    w: &mut FrontMut<'_>,
    npiv: usize,
    row_perm: &mut Vec<usize>,
    threads: usize,
) -> Result<(), KernelError> {
    if npiv >= BLOCK_THRESHOLD {
        lu_blocked(w, npiv, FRONT_NB, row_perm, threads)
    } else {
        lu_unblocked(w, npiv, row_perm)
    }
}

/// Symmetric analogue of [`factor_front_lu_mt`]: blocked LDLᵀ for large
/// pivot blocks, rank-1 otherwise, with the same `npiv`-only dispatch
/// rule.
pub(crate) fn factor_front_ldlt_mt(
    w: &mut FrontMut<'_>,
    npiv: usize,
    threads: usize,
) -> Result<(), KernelError> {
    if npiv >= BLOCK_THRESHOLD {
        ldlt_blocked(w, npiv, FRONT_NB, threads)
    } else {
        ldlt_unblocked(w, npiv)
    }
}

/// Pivot-block size above which the numeric drivers switch from the
/// rank-1 kernels to the packed-GEMM blocked kernels; with the packed
/// microkernels the crossover sits far below the old axpy-based value
/// of 512.
const BLOCK_THRESHOLD: usize = 128;
/// Panel width used by the drivers' blocked kernels. With the recursive
/// panel and triangular solves the panel is no longer axpy-bound, so the
/// width is set by the trailing update alone: a wide panel (large GEMM
/// inner dimension `kc`) amortizes the compulsory C read+write traffic
/// over more flops. 128 wins over 32 and 64 at front sizes 256–1024;
/// public so benchmarks time the production configuration.
pub const FRONT_NB: usize = 128;

/// Full dense LU solve used as a test oracle: solves `A x = b` with
/// partial pivoting over all rows. Returns `None` for singular input.
pub fn dense_solve(a: &DenseMat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(b.len(), n);
    let mut w = a.clone();
    let mut x = b.to_vec();
    for k in 0..n {
        let (mut pr, mut pv) = (k, w.get(k, k).abs());
        for i in k + 1..n {
            let v = w.get(i, k).abs();
            if v > pv {
                pv = v;
                pr = i;
            }
        }
        if pv < 1e-300 {
            return None;
        }
        if pr != k {
            w.swap_rows(k, pr);
            x.swap(k, pr);
        }
        let inv = 1.0 / w.get(k, k);
        for i in k + 1..n {
            let l = w.get(i, k) * inv;
            if l == 0.0 {
                continue;
            }
            *w.get_mut(i, k) = l;
            for j in k + 1..n {
                let ukj = w.get(k, j);
                *w.get_mut(i, j) -= l * ukj;
            }
            x[i] -= l * x[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for j in k + 1..n {
            s -= w.get(k, j) * x[j];
        }
        x[k] = s / w.get(k, k);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`partial_lu_blocked_mt`] with the *rank-1* panel of the pre-recursive
    /// kernel: identical pivot rule and trailing update, but the panel
    /// columns advance by `axpy_sub` alone: the reference the recursive
    /// panel is compared against.
    fn partial_lu_blocked_rank1_panel(
        w: &mut DenseMat,
        npiv: usize,
        nb: usize,
        row_perm: &mut Vec<usize>,
    ) -> Result<(), KernelError> {
        let w = &mut w.front_mut();
        let f = w.f;
        assert!(npiv <= f);
        let nb = nb.max(1);
        row_perm.clear();
        row_perm.extend(0..f);
        let (mut ws, mut scratch) = (GemmWorkspace::new(), SweepScratch::default());
        let mut k0 = 0;
        while k0 < npiv {
            let kb = nb.min(npiv - k0);
            panel_lu_rank1(w, npiv, row_perm, k0, kb)?;
            let kend = k0 + kb;
            if kend < f {
                let (panel, trailing) = w.data.split_at_mut(kend * f);
                let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
                dispatch_trailing(trailing, f, 1, &mut scratch, |_, cols, scratch| {
                    lu_trailing_chunk(cols, f, k0, kend, panel, &ap, scratch);
                });
            }
            k0 = kend;
        }
        Ok(())
    }

    proptest! {
        /// For panel widths at or below the recursion base the recursive
        /// panel *is* the historical rank-1 loop, so the blocked kernel must
        /// reproduce the rank-1-panel reference exactly: same pivot choices,
        /// same factor bits — for arbitrary fronts, pivot counts and widths.
        #[test]
        fn recursive_panel_equals_rank1_reference_at_narrow_widths(
            f in 2usize..40,
            npiv_frac in 0.1f64..1.0,
            nb in 1usize..=8,
            seed in 0u64..1_000_000,
        ) {
            let npiv = ((f as f64 * npiv_frac) as usize).clamp(1, f);
            let lcg = |s: &mut u64| {
                *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((*s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let mut st = seed | 1;
            let mut w = DenseMat::zeros(f, f);
            for j in 0..f {
                for i in 0..f {
                    *w.get_mut(i, j) = lcg(&mut st) + if i == j { f as f64 } else { 0.0 };
                }
            }
            let mut w_ref = w.clone();
            let (mut perm, mut perm_ref) = (Vec::new(), Vec::new());
            partial_lu_blocked_mt(&mut w, npiv, nb, &mut perm, 1).unwrap();
            partial_lu_blocked_rank1_panel(&mut w_ref, npiv, nb, &mut perm_ref).unwrap();
            prop_assert_eq!(&perm, &perm_ref, "pivot choices diverged (f={}, npiv={}, nb={})", f, npiv, nb);
            for (i, (x, y)) in w.data().iter().zip(w_ref.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "factor bits diverged at {} (f={}, npiv={}, nb={}): {} vs {}", i, f, npiv, nb, x, y
                );
            }
        }
    }

    fn front_from(rows: &[&[f64]]) -> DenseMat {
        let n = rows.len();
        let mut w = DenseMat::zeros(n, n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                *w.get_mut(i, j) = v;
            }
        }
        w
    }

    #[test]
    fn full_lu_matches_dense_solve() {
        let a = front_from(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 3, &mut perm).unwrap();
        // Solve via the factors and compare with the oracle.
        let b = vec![1.0, 2.0, 3.0];
        let xo = dense_solve(&a, &b).unwrap();
        // forward/backward with perm
        let mut y = [0.0; 3];
        for (k, &p) in perm.iter().enumerate() {
            y[k] = b[p];
        }
        for k in 0..3 {
            for i in k + 1..3 {
                y[i] -= w.get(i, k) * y[k];
            }
        }
        for k in (0..3).rev() {
            for j in k + 1..3 {
                y[k] -= w.get(k, j) * y[j];
            }
            y[k] /= w.get(k, k);
        }
        for i in 0..3 {
            assert!((y[i] - xo[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_lu_schur_complement_is_correct() {
        // A = [A11 A12; A21 A22], npiv = 2; Schur = A22 - A21 A11^-1 A12.
        let a = front_from(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[1.0, 5.0, 0.0, 1.0],
            &[2.0, 0.0, 6.0, 1.5],
            &[0.5, 1.0, 1.5, 7.0],
        ]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 2, &mut perm).unwrap();
        // Compute the Schur complement with the oracle: solve A11 X = A12.
        let a11 = front_from(&[&[4.0, 1.0], &[1.0, 5.0]]);
        let x1 = dense_solve(&a11, &[2.0, 0.0]).unwrap();
        let x2 = dense_solve(&a11, &[0.5, 1.0]).unwrap();
        let a21 = [[2.0, 0.0], [0.5, 1.0]];
        let a22 = [[6.0, 1.5], [1.5, 7.0]];
        for i in 0..2 {
            for j in 0..2 {
                let xj = if j == 0 { &x1 } else { &x2 };
                let expect = a22[i][j] - (a21[i][0] * xj[0] + a21[i][1] * xj[1]);
                let got = w.get(2 + i, 2 + j);
                assert!((got - expect).abs() < 1e-12, "({i},{j}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn partial_lu_pivots_within_block() {
        // Needs a row swap inside the fully-summed block.
        let a = front_from(&[&[0.0, 1.0, 1.0], &[2.0, 1.0, 0.0], &[1.0, 0.0, 3.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 2, &mut perm).unwrap();
        assert_eq!(&perm[..2], &[1, 0]);
    }

    #[test]
    fn singular_pivot_block_is_reported() {
        let a = front_from(&[&[0.0, 0.0], &[0.0, 1.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        assert!(matches!(partial_lu(&mut w, 1, &mut perm), Err(KernelError::TinyPivot { .. })));
    }

    #[test]
    fn ldlt_schur_matches_lu_schur_for_symmetric_input() {
        let a = front_from(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[1.0, 5.0, 0.0, 1.0],
            &[2.0, 0.0, 6.0, 1.5],
            &[0.5, 1.0, 1.5, 7.0],
        ]);
        let mut wl = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut wl, 2, &mut perm).unwrap();
        let mut ws = a.clone();
        partial_ldlt(&mut ws, 2).unwrap();
        for i in 2..4 {
            for j in 2..=i {
                assert!((wl.get(i, j) - ws.get(i, j)).abs() < 1e-12, "Schur mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn ldlt_reconstructs_matrix() {
        let a = front_from(&[&[4.0, 1.0, 2.0], &[1.0, 5.0, 0.5], &[2.0, 0.5, 6.0]]);
        let mut w = a.clone();
        partial_ldlt(&mut w, 3).unwrap();
        // Rebuild A = L D L^T from the packed result.
        let mut l = DenseMat::zeros(3, 3);
        let mut d = [0.0; 3];
        for k in 0..3 {
            d[k] = w.get(k, k);
            *l.get_mut(k, k) = 1.0;
            for i in k + 1..3 {
                *l.get_mut(i, k) = w.get(i, k);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l.get(i, k) * d[k] * l.get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    fn random_front(f: usize, seed: u64) -> DenseMat {
        let mut w = DenseMat::zeros(f, f);
        let mut h = seed | 1;
        for j in 0..f {
            for i in 0..f {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                *w.get_mut(i, j) = if i == j { f as f64 } else { v };
            }
        }
        w
    }

    #[test]
    fn blocked_lu_matches_unblocked() {
        for (f, p, nb) in [(7, 4, 2), (20, 20, 8), (33, 17, 8), (64, 50, 16), (65, 65, 32)] {
            let a = random_front(f, (f * 31 + p) as u64);
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            let (mut p1, mut p2) = (Vec::new(), Vec::new());
            partial_lu(&mut w1, p, &mut p1).unwrap();
            partial_lu_blocked_mt(&mut w2, p, nb, &mut p2, 1).unwrap();
            assert_eq!(p1, p2, "pivot choices must agree (f={f}, p={p})");
            for j in 0..f {
                for i in 0..f {
                    let (x, y) = (w1.get(i, j), w2.get(i, j));
                    assert!(
                        (x - y).abs() <= 1e-10 * (1.0 + x.abs()),
                        "(f={f},p={p}) mismatch at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    fn random_sym_front(f: usize, seed: u64) -> DenseMat {
        let mut w = random_front(f, seed);
        for j in 0..f {
            for i in 0..j {
                let v = w.get(j, i);
                *w.get_mut(i, j) = v;
            }
        }
        w
    }

    #[test]
    fn blocked_ldlt_matches_unblocked() {
        for (f, p, nb) in [(7, 4, 2), (20, 20, 8), (33, 17, 8), (64, 50, 16), (65, 65, 32)] {
            let a = random_sym_front(f, (f * 17 + p) as u64);
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            partial_ldlt(&mut w1, p).unwrap();
            partial_ldlt_blocked_mt(&mut w2, p, nb, 1).unwrap();
            for j in 0..f {
                for i in j..f {
                    let (x, y) = (w1.get(i, j), w2.get(i, j));
                    assert!(
                        (x - y).abs() <= 1e-10 * (1.0 + x.abs()),
                        "(f={f},p={p}) mismatch at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn ldlt_kernels_never_touch_the_strict_upper_triangle() {
        // Poison the strict upper triangle, once with NaN (a read would
        // spread it into the lower triangle) and once with a finite
        // sentinel (a write would change it — NaN would swallow one):
        // every kernel must leave the poison as it was and produce the
        // lower triangle of the clean run, bit for bit. Orders off the
        // MR/NR tile grid, `npiv = f` included; 300 is wide enough for
        // the chunked multi-thread sweep.
        type Kernel = Box<dyn Fn(&mut DenseMat, usize) -> Result<(), KernelError>>;
        let mut kernels: Vec<(&str, Kernel)> = vec![("rank-1", Box::new(partial_ldlt))];
        for nb in [2, 8, 32] {
            kernels.push(("blocked", Box::new(move |w, p| partial_ldlt_blocked_mt(w, p, nb, 1))));
        }
        for threads in [2, 8] {
            let mt: Kernel = Box::new(move |w, p| partial_ldlt_blocked_mt(w, p, 32, threads));
            kernels.push(("blocked mt", mt));
        }
        for (name, kernel) in &kernels {
            for (f, p) in [(7, 4), (21, 21), (35, 17), (67, 50), (300, 130)] {
                let mut clean = random_sym_front(f, (f * 13 + p) as u64);
                kernel(&mut clean, p).unwrap();
                for poison in [f64::NAN, 12345.678] {
                    let mut w = random_sym_front(f, (f * 13 + p) as u64);
                    for j in 0..f {
                        w.col_mut(j)[..j].fill(poison);
                    }
                    kernel(&mut w, p).unwrap();
                    for j in 0..f {
                        for i in 0..f {
                            let want = if i < j { poison } else { clean.get(i, j) };
                            assert_eq!(
                                w.get(i, j).to_bits(),
                                want.to_bits(),
                                "{name} (f={f}, p={p}, poison {poison}) at ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mt_trailing_update_is_bit_identical() {
        // Large enough that the first panels' trailing sweeps exceed
        // PAR_MIN_COLS and actually take the chunked path.
        let a = random_front(160, 7);
        for threads in [2, 4, 8] {
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            let (mut p1, mut p2) = (Vec::new(), Vec::new());
            partial_lu_blocked_mt(&mut w1, 96, 32, &mut p1, 1).unwrap();
            partial_lu_blocked_mt(&mut w2, 96, 32, &mut p2, threads).unwrap();
            assert_eq!(p1, p2, "pivots (threads={threads})");
            for (x, y) in w1.data.iter().zip(&w2.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "LU bits differ (threads={threads})");
            }
        }
        let s = random_sym_front(160, 11);
        for threads in [2, 8] {
            let mut w1 = s.clone();
            let mut w2 = s.clone();
            partial_ldlt_blocked_mt(&mut w1, 96, 32, 1).unwrap();
            partial_ldlt_blocked_mt(&mut w2, 96, 32, threads).unwrap();
            for (x, y) in w1.data.iter().zip(&w2.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "LDLT bits differ (threads={threads})");
            }
        }
    }

    #[test]
    fn blocked_lu_detects_singularity_too() {
        let mut w = DenseMat::zeros(4, 4);
        *w.get_mut(0, 0) = 1.0; // rank 1: second pivot is exactly zero
        let mut perm = Vec::new();
        assert!(matches!(
            partial_lu_blocked_mt(&mut w, 2, 2, &mut perm, 1),
            Err(KernelError::TinyPivot { .. })
        ));
    }

    #[test]
    fn factor_front_dispatches_consistently() {
        // Above the threshold the dispatcher takes the blocked path; the
        // pivot choices must match the rank-1 kernel's exactly.
        let a = random_front(540, 99);
        let mut w1 = a.clone();
        let mut w2 = a.clone();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        factor_front_lu_mt(&mut w1.front_mut(), 520, &mut p1, 1).unwrap(); // blocked path
        partial_lu(&mut w2, 520, &mut p2).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn mul_vec_add_works() {
        let a = front_from(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![0.0, 0.0];
        a.mul_vec_add(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }
}
