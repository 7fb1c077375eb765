//! Packed cache-blocked GEMM microkernels with runtime SIMD dispatch.
//!
//! This module is the flop engine behind the blocked factorization
//! kernels of [`crate::dense`]: it computes `C -= A · B` (the
//! trailing-matrix update shape) through the classic three-step BLIS
//! recipe — pack `A` into row-strip panels, pack `B` into column-strip
//! panels, then sweep a register-tiled microkernel over the packed
//! buffers. Three microkernel backends are provided and selected once at
//! runtime (see [`active_simd`]):
//!
//! * **AVX-512F** — a 16×6 register tile (two 8-row strips of `zmm`
//!   accumulators);
//! * **AVX2+FMA** — an 8×6 register tile (twelve `ymm` accumulators);
//! * **scalar** — the same 8×6 tile computed with [`f64::mul_add`].
//!
//! # Bit-exactness contract
//!
//! Every backend computes each output element through the *identical*
//! floating-point operation sequence: an accumulator initialized to
//! zero, one fused multiply-add per `k` in ascending order, and a single
//! final subtraction from `C`. SIMD width only changes how many such
//! independent per-element chains advance per instruction, never the
//! order or rounding of any chain (`mul_add` and `vfmadd` are both
//! correctly-rounded fused operations). Row/column remainders are
//! handled by padding the packed buffers with zeros and masking the
//! stores, so edge elements run the same chain as interior ones.
//! Consequently the results are **bit-identical across the scalar,
//! AVX2, and AVX-512 paths and across any tiling of the m/n loops** —
//! which is what lets the within-front parallel callers in
//! [`crate::dense`] split C among threads without a cross-thread
//! reduction and stay deterministic (tested by `packed_matches_naive_
//! bitwise_all_levels` here and by `forced_scalar_path_matches_simd_bits`
//! and the `packed_gemm_equals_naive_triple_loop` proptest in
//! `tests/determinism.rs`).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Rows per packed A strip (microkernel register-tile height unit).
pub const MR: usize = 8;
/// Columns per packed B strip (microkernel register-tile width).
pub const NR: usize = 6;
/// A-strips per row block of the packed sweep (`MC = MC_STRIPS · MR`
/// rows). Sized so an `MC × kc` A block stays cache-resident across the
/// full column sweep even at the widest panel the drivers use
/// (256 × 128 × 8 B = 256 KiB — comfortably L2).
const MC_STRIPS: usize = 32;

/// SIMD instruction set a microkernel sweep runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable fallback: `f64::mul_add` chains (still fused, still
    /// bit-identical to the vector paths).
    Scalar,
    /// AVX2 + FMA 8×6 tile.
    Avx2,
    /// AVX-512F 16×6 tile (falls back to the AVX2 tile for odd strips).
    Avx512,
}

impl SimdLevel {
    /// Stable name for reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2+fma",
            SimdLevel::Avx512 => "avx512f",
        }
    }
}

/// Detects the best supported level once (cached in a `OnceLock`).
pub fn detected_simd() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Test/bench override: 0 = auto (use [`detected_simd`]), else 1 + the
/// discriminant of the forced level (clamped to the detected level, so
/// forcing can only ever *lower* the path — forcing an unsupported
/// vector level is impossible).
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the microkernel backend (clamped to the detected level);
/// `None` restores automatic dispatch. Intended for tests and benches —
/// the scalar/SIMD equivalence suite factors whole matrices under
/// `force_simd(Some(SimdLevel::Scalar))` and asserts bit-identical
/// output.
pub fn force_simd(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx2) => 2,
        Some(SimdLevel::Avx512) => 3,
    };
    FORCED.store(v, Ordering::Release);
}

/// The level the next GEMM sweep will run with: the forced override if
/// set (clamped to hardware support), the detected level otherwise.
pub fn active_simd() -> SimdLevel {
    let det = detected_simd();
    match FORCED.load(Ordering::Acquire) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2.min(det),
        3 => SimdLevel::Avx512.min(det),
        _ => det,
    }
}

/// Reusable packing buffers (one per factorization call; the packed
/// panels are read-shared by every worker of a parallel sweep).
#[derive(Debug, Default)]
pub struct GemmWorkspace {
    apack: Vec<f64>,
}

impl GemmWorkspace {
    /// Fresh workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A packed A panel: `m × kc`, laid out as ⌈m/MR⌉ row strips, each strip
/// `kc` groups of `MR` consecutive row values (k-major, zero-padded to a
/// full strip).
#[derive(Debug)]
pub struct APack<'a> {
    data: &'a [f64],
    m: usize,
    kc: usize,
}

impl APack<'_> {
    /// Logical row count (unpadded).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner (k) dimension.
    pub fn kc(&self) -> usize {
        self.kc
    }
}

/// Packs `A` (`m × kc`, column-major with column stride `lda`, first
/// element `a[0]`) into `ws`, returning a borrowed view over the packed
/// strips.
pub fn pack_a<'w>(
    ws: &'w mut GemmWorkspace,
    a: &[f64],
    lda: usize,
    m: usize,
    kc: usize,
) -> APack<'w> {
    let strips = m.div_ceil(MR);
    let len = strips * kc * MR;
    // The microkernels load one `MR`-row group (64 bytes) per `k`; a
    // group straddling two cache lines costs two loads, so the strips
    // start on a 64-byte boundary inside a buffer seven `f64`s longer.
    ws.apack.clear();
    ws.apack.resize(len + 7, 0.0);
    let skip = ws.apack.as_ptr().align_offset(64).min(7);
    let packed = &mut ws.apack[skip..skip + len];
    for s in 0..strips {
        let i0 = s * MR;
        let rows = MR.min(m - i0);
        let base = s * kc * MR;
        for k in 0..kc {
            let src = &a[k * lda + i0..k * lda + i0 + rows];
            packed[base + k * MR..base + k * MR + rows].copy_from_slice(src);
        }
    }
    APack { data: packed, m, kc }
}

/// Packs `B` (`kc × n`, column-major with column stride `ldb`, first
/// element `b[0]`) into `buf` as ⌈n/NR⌉ column strips, each strip `kc`
/// groups of `NR` column values (k-major, zero-padded to a full strip).
pub fn pack_b(buf: &mut Vec<f64>, b: &[f64], ldb: usize, kc: usize, n: usize) {
    let strips = n.div_ceil(NR);
    buf.clear();
    buf.resize(strips * kc * NR, 0.0);
    for t in 0..strips {
        let j0 = t * NR;
        let cols = NR.min(n - j0);
        let base = t * kc * NR;
        for c in 0..cols {
            let col = &b[(j0 + c) * ldb..(j0 + c) * ldb + kc];
            for (k, &v) in col.iter().enumerate() {
                buf[base + k * NR + c] = v;
            }
        }
    }
}

/// Packs `B = D · Lᵀ` for the symmetric trailing update: `B(k, j) =
/// l[k·ldl + j] · d(k)` for `k < kc`, `j < n`, where `l` addresses an
/// `n × kc` column-major block of `L` — same strip layout as [`pack_b`],
/// formed straight from the factored panel without a transposed copy.
pub fn pack_b_scaled_transpose(
    buf: &mut Vec<f64>,
    l: &[f64],
    ldl: usize,
    kc: usize,
    n: usize,
    d: impl Fn(usize) -> f64,
) {
    let strips = n.div_ceil(NR);
    buf.clear();
    buf.resize(strips * kc * NR, 0.0);
    for k in 0..kc {
        let (row, dk) = (&l[k * ldl..k * ldl + n], d(k));
        for (t, src) in row.chunks(NR).enumerate() {
            let dst = &mut buf[(t * kc + k) * NR..];
            for (x, &v) in dst.iter_mut().zip(src) {
                *x = v * dk;
            }
        }
    }
}

/// `C -= A · B` over packed panels: `c` points at `C(0,0)` of an
/// `apack.m() × n` block, column-major with column stride `ldc`.
/// `bpack` must hold `n` packed columns with inner dimension
/// `apack.kc()` (see [`pack_b`]). The sweep runs on [`active_simd`].
pub fn gemm_sub_packed(apack: &APack<'_>, bpack: &[f64], n: usize, c: &mut [f64], ldc: usize) {
    sweep(apack, bpack, n, c, ldc, None);
}

/// [`gemm_sub_packed`] restricted to a lower trapezoid: column `j` of the
/// block is updated from row `diag0 + j` down, and **no element above
/// that row is read or written**. Every updated element runs the chain
/// of the full sweep, so it equals [`gemm_sub_packed`] bit for bit
/// there. This is the trailing update of a symmetric front stored in its
/// lower triangle: `diag0` is the block row of column 0's diagonal.
pub fn gemm_sub_packed_lower(
    apack: &APack<'_>,
    bpack: &[f64],
    n: usize,
    c: &mut [f64],
    ldc: usize,
    diag0: usize,
) {
    sweep(apack, bpack, n, c, ldc, Some(diag0));
}

/// One 8×6 tile on the best kernel `level` allows: `c` starts at the
/// tile's first element.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_8x6(
    level: SimdLevel,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_active: usize,
    n_active: usize,
) {
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed strips too short");
    assert!(n_active >= 1 && c.len() >= (n_active - 1) * ldc + m_active, "C tile out of bounds");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            // SAFETY: avx2+fma implied by both levels (clamped to
            // detection); the strips hold `kc` groups and `c` covers the
            // active tile (asserted above).
            unsafe {
                x86::kernel_8x6_avx2(
                    kc,
                    ap.as_ptr(),
                    bp.as_ptr(),
                    c.as_mut_ptr(),
                    ldc,
                    m_active,
                    n_active,
                );
            }
        }
        _ => kernel_8x6_scalar(kc, ap, bp, c, ldc, m_active, n_active),
    }
}

/// The packed sweep behind both entry points. With `diag0 = Some(d)`
/// column strip `t` starts at the `MR`-aligned row strip containing the
/// diagonal of its first column; the (at most two) tiles a strip's
/// diagonals cross are computed in a scratch tile holding only their
/// on-or-below-diagonal elements, so nothing above a diagonal is touched.
fn sweep(
    apack: &APack<'_>,
    bpack: &[f64],
    n: usize,
    c: &mut [f64],
    ldc: usize,
    diag0: Option<usize>,
) {
    let (m, kc) = (apack.m, apack.kc);
    if m == 0 || n == 0 {
        return;
    }
    assert!(kc > 0, "empty inner dimension");
    assert!(ldc >= m && c.len() >= (n - 1) * ldc + m, "C block out of bounds");
    assert_eq!(bpack.len(), n.div_ceil(NR) * kc * NR, "B pack shape mismatch");
    let level = active_simd();
    let strips = m.div_ceil(MR);
    let col_strips = n.div_ceil(NR);
    // Row blocks of MC_STRIPS strips: the A block stays L2-resident
    // while every column strip of B sweeps over it, so A traffic does
    // not scale with n. Pure loop reordering — each output element's
    // fused chain is untouched, so the result is bit-identical to any
    // other tiling (see the module contract).
    let mut s_lo = 0;
    while s_lo < strips {
        let s_hi = (s_lo + MC_STRIPS).min(strips);
        for t in 0..col_strips {
            let j0 = t * NR;
            let n_active = NR.min(n - j0);
            let bp = &bpack[t * kc * NR..(t + 1) * kc * NR];
            // Rows of this strip's first and last diagonals (0 when the
            // sweep is not triangular: every tile is then a full one).
            let (first, last) = diag0.map_or((0, 0), |d| (d + j0, d + j0 + n_active - 1));
            let mut s = s_lo.max(first / MR);
            while s < s_hi {
                let i0 = s * MR;
                let m_active = MR.min(m - i0);
                let ap = &apack.data[s * kc * MR..(s + 1) * kc * MR];
                let coff = j0 * ldc + i0;
                if i0 < last {
                    // A diagonal crosses this tile.
                    let mut tile = [0.0f64; MR * NR];
                    let from = |j: usize| (first + j).saturating_sub(i0).min(m_active);
                    for j in 0..n_active {
                        tile[j * MR + from(j)..j * MR + m_active].copy_from_slice(
                            &c[coff + j * ldc + from(j)..coff + j * ldc + m_active],
                        );
                    }
                    tile_8x6(level, kc, ap, bp, &mut tile, MR, m_active, n_active);
                    for j in 0..n_active {
                        c[coff + j * ldc + from(j)..coff + j * ldc + m_active]
                            .copy_from_slice(&tile[j * MR + from(j)..j * MR + m_active]);
                    }
                    s += 1;
                    continue;
                }
                #[cfg(target_arch = "x86_64")]
                if level == SimdLevel::Avx512 && m_active == MR && s + 1 < s_hi && m - i0 - MR >= 1
                {
                    // Two full-or-padded strips at once; the second
                    // strip may be a row remainder (masked store).
                    let m2 = MR.min(m - i0 - MR);
                    let ap1 = &apack.data[(s + 1) * kc * MR..(s + 2) * kc * MR];
                    // SAFETY: avx512f verified by `active_simd`
                    // clamping to `detected_simd`; bounds asserted
                    // above.
                    unsafe {
                        x86::kernel_16x6_avx512(
                            kc,
                            ap.as_ptr(),
                            ap1.as_ptr(),
                            bp.as_ptr(),
                            c.as_mut_ptr().add(coff),
                            ldc,
                            MR + m2,
                            n_active,
                        );
                    }
                    s += 2;
                    continue;
                }
                tile_8x6(level, kc, ap, bp, &mut c[coff..], ldc, m_active, n_active);
                s += 1;
            }
        }
        s_lo = s_hi;
    }
}

/// Portable 8×6 microkernel: per-element fused multiply-add chains over
/// ascending `k`, then one subtraction — the exact operation sequence of
/// the vector kernels, lane by lane.
fn kernel_8x6_scalar(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_active: usize,
    n_active: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    for k in 0..kc {
        let a = &ap[k * MR..k * MR + MR];
        let b = &bp[k * NR..k * NR + NR];
        for j in 0..NR {
            let bj = b[j];
            for r in 0..MR {
                acc[j][r] = a[r].mul_add(bj, acc[j][r]);
            }
        }
    }
    for j in 0..n_active {
        let col = &mut c[j * ldc..j * ldc + m_active];
        for r in 0..m_active {
            col[r] -= acc[j][r];
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch` microkernels. All pointers address packed strips laid
    //! out by [`super::pack_a`] / [`super::pack_b`]; `c` addresses
    //! `C(i0,j0)` in the caller's column-major storage.

    use core::arch::x86_64::*;

    use super::{MR, NR};

    /// Lane mask for the low `n` of 4 `f64` lanes (maskload/maskstore).
    #[inline]
    fn mask4(n: usize) -> __m256i {
        // SAFETY: plain integer vector construction.
        unsafe {
            let set = |l: usize| if l < n { -1i64 } else { 0 };
            _mm256_setr_epi64x(set(0), set(1), set(2), set(3))
        }
    }

    /// 8×6 AVX2+FMA register tile: twelve `ymm` accumulators, one fused
    /// multiply-add chain per output element over ascending `k`, one
    /// final (masked) subtraction per column.
    ///
    /// # Safety
    /// Requires AVX2 and FMA. `ap`/`bp` must hold `kc` packed groups of
    /// `MR`/`NR` values; `c` must be valid for `m_active` rows in each of
    /// `n_active` columns with stride `ldc`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn kernel_8x6_avx2(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
        m_active: usize,
        n_active: usize,
    ) {
        let mut lo = [_mm256_setzero_pd(); NR];
        let mut hi = [_mm256_setzero_pd(); NR];
        for k in 0..kc {
            let a0 = _mm256_loadu_pd(ap.add(k * MR));
            let a1 = _mm256_loadu_pd(ap.add(k * MR + 4));
            for j in 0..NR {
                let b = _mm256_set1_pd(*bp.add(k * NR + j));
                lo[j] = _mm256_fmadd_pd(a0, b, lo[j]);
                hi[j] = _mm256_fmadd_pd(a1, b, hi[j]);
            }
        }
        if m_active == MR {
            for j in 0..n_active {
                let p = c.add(j * ldc);
                _mm256_storeu_pd(p, _mm256_sub_pd(_mm256_loadu_pd(p), lo[j]));
                let q = p.add(4);
                _mm256_storeu_pd(q, _mm256_sub_pd(_mm256_loadu_pd(q), hi[j]));
            }
        } else {
            let m0 = mask4(m_active.min(4));
            let m1 = mask4(m_active.saturating_sub(4));
            for j in 0..n_active {
                let p = c.add(j * ldc);
                let v = _mm256_maskload_pd(p, m0);
                _mm256_maskstore_pd(p, m0, _mm256_sub_pd(v, lo[j]));
                if m_active > 4 {
                    let q = p.add(4);
                    let v = _mm256_maskload_pd(q, m1);
                    _mm256_maskstore_pd(q, m1, _mm256_sub_pd(v, hi[j]));
                }
            }
        }
    }

    /// 4-wide `dst[i] -= l[i] * u`: one `vmulpd` + one `vsubpd` per
    /// group of lanes, scalar tail with the identical two rounded ops —
    /// bit-identical to [`super::axpy_sub_scalar`] element for element.
    ///
    /// # Safety
    /// Requires AVX. `l` must be at least as long as `dst`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn axpy_sub_avx(dst: &mut [f64], l: &[f64], u: f64) {
        let n = dst.len();
        let vu = _mm256_set1_pd(u);
        let d = dst.as_mut_ptr();
        let s = l.as_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(d.add(i));
            let x = _mm256_loadu_pd(s.add(i));
            _mm256_storeu_pd(d.add(i), _mm256_sub_pd(v, _mm256_mul_pd(x, vu)));
            i += 4;
        }
        for k in i..n {
            dst[k] -= l[k] * u;
        }
    }

    /// 8-wide `dst[i] -= l[i] * u`: one `vmulpd` + one `vsubpd` per
    /// group of lanes, scalar tail with the identical two rounded ops —
    /// bit-identical to [`super::axpy_sub_scalar`] element for element
    /// (same two-op sequence as [`axpy_sub_avx`], just wider).
    ///
    /// # Safety
    /// Requires AVX-512F. `l` must be at least as long as `dst`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy_sub_avx512(dst: &mut [f64], l: &[f64], u: f64) {
        let n = dst.len();
        let vu = _mm512_set1_pd(u);
        let d = dst.as_mut_ptr();
        let s = l.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm512_loadu_pd(d.add(i));
            let x = _mm512_loadu_pd(s.add(i));
            _mm512_storeu_pd(d.add(i), _mm512_sub_pd(v, _mm512_mul_pd(x, vu)));
            i += 8;
        }
        for k in i..n {
            dst[k] -= l[k] * u;
        }
    }

    /// 16×6 AVX-512F register tile over two adjacent packed strips (the
    /// second may be a padded row remainder, handled by a masked store).
    ///
    /// # Safety
    /// Requires AVX-512F. `ap0`/`ap1` must each hold `kc` packed groups
    /// of `MR` values; `c` must be valid for `m_active` (> `MR`) rows in
    /// each of `n_active` columns with stride `ldc`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn kernel_16x6_avx512(
        kc: usize,
        ap0: *const f64,
        ap1: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
        m_active: usize,
        n_active: usize,
    ) {
        let mut lo = [_mm512_setzero_pd(); NR];
        let mut hi = [_mm512_setzero_pd(); NR];
        for k in 0..kc {
            let a0 = _mm512_loadu_pd(ap0.add(k * MR));
            let a1 = _mm512_loadu_pd(ap1.add(k * MR));
            for j in 0..NR {
                let b = _mm512_set1_pd(*bp.add(k * NR + j));
                lo[j] = _mm512_fmadd_pd(a0, b, lo[j]);
                hi[j] = _mm512_fmadd_pd(a1, b, hi[j]);
            }
        }
        let hi_rows = m_active - MR;
        let hmask: __mmask8 = if hi_rows >= 8 { 0xff } else { (1u8 << hi_rows) - 1 };
        for j in 0..n_active {
            let p = c.add(j * ldc);
            _mm512_storeu_pd(p, _mm512_sub_pd(_mm512_loadu_pd(p), lo[j]));
            let q = p.add(MR);
            let v = _mm512_maskz_loadu_pd(hmask, q);
            _mm512_mask_storeu_pd(q, hmask, _mm512_sub_pd(v, hi[j]));
        }
    }
}

/// `dst[i] -= l[i] * u` — the row operation of the rank-1 panel updates
/// in [`crate::dense`], dispatched to the vector unit when available.
///
/// Unlike the GEMM chains this is a two-op sequence per element (one
/// rounded multiply, one rounded subtraction — deliberately *not* fused,
/// matching the historical scalar loop), and every backend performs
/// exactly those two rounded operations per lane. The result is
/// therefore bit-identical across SIMD levels; width only changes how
/// many independent elements advance per instruction.
pub fn axpy_sub(dst: &mut [f64], l: &[f64], u: f64) {
    let n = dst.len();
    let l = &l[..n];
    match active_simd() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            // SAFETY: the level is clamped to detection, so AVX-512F is
            // available; `l` re-sliced to `dst.len()` above.
            unsafe { x86::axpy_sub_avx512(dst, l, u) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: AVX is implied by the level (clamped to
            // detection); `l` re-sliced to `dst.len()` above.
            unsafe { x86::axpy_sub_avx(dst, l, u) }
        }
        _ => axpy_sub_scalar(dst, l, u),
    }
}

fn axpy_sub_scalar(dst: &mut [f64], l: &[f64], u: f64) {
    for (d, &x) in dst.iter_mut().zip(l) {
        *d -= x * u;
    }
}

/// Naive reference: `C -= A · B` with the same per-element fused-chain
/// semantics (ascending `k`, `mul_add`, single subtraction). The packed
/// sweep must match this **bit-for-bit** on every backend — the
/// `packed_gemm_equals_naive_triple_loop` proptest holds it to that.
#[allow(clippy::too_many_arguments)]
pub fn gemm_sub_naive(
    m: usize,
    n: usize,
    kc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0f64;
            for k in 0..kc {
                acc = a[k * lda + i].mul_add(b[j * ldb + k], acc);
            }
            c[j * ldc + i] -= acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// `FORCED` is process-global and the test harness runs tests
    /// concurrently; tests that set it serialize here.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    fn force_guard() -> MutexGuard<'static, ()> {
        FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut h = seed | 1;
        (0..len)
            .map(|_| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    fn run_packed(m: usize, n: usize, kc: usize, seed: u64, level: SimdLevel) -> Vec<f64> {
        let a = fill(seed, m * kc);
        let b = fill(seed ^ 0xabcdef, kc * n);
        let mut c = fill(seed ^ 0x123456, m * n);
        let mut ws = GemmWorkspace::new();
        force_simd(Some(level));
        let ap = pack_a(&mut ws, &a, m, m, kc);
        let mut bp = Vec::new();
        pack_b(&mut bp, &b, kc, kc, n);
        gemm_sub_packed(&ap, &bp, n, &mut c, m);
        force_simd(None);
        c
    }

    #[test]
    fn packed_matches_naive_bitwise_all_levels() {
        let _g = force_guard();
        for &(m, n, kc) in
            &[(1, 1, 1), (8, 6, 4), (7, 5, 3), (16, 12, 8), (17, 13, 9), (40, 23, 16), (64, 64, 32)]
        {
            let a = fill(3 * m as u64 + 1, m * kc);
            let b = fill(5 * n as u64 + 2, kc * n);
            let c0 = fill(7 * kc as u64 + 3, m * n);
            let mut expect = c0.clone();
            gemm_sub_naive(m, n, kc, &a, m, &b, kc, &mut expect, m);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                let mut c = c0.clone();
                let mut ws = GemmWorkspace::new();
                force_simd(Some(level));
                let ap = pack_a(&mut ws, &a, m, m, kc);
                let mut bp = Vec::new();
                pack_b(&mut bp, &b, kc, kc, n);
                gemm_sub_packed(&ap, &bp, n, &mut c, m);
                force_simd(None);
                for (i, (&x, &y)) in c.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "({m}x{n}x{kc}) level {:?} differs from naive at {i}: {x} vs {y}",
                        level
                    );
                }
            }
        }
    }

    #[test]
    fn lower_sweep_matches_full_sweep_below_the_diagonal_and_touches_nothing_above() {
        let _g = force_guard();
        // The shapes of the full-sweep test plus m/n remainders around
        // the MR/NR tile edges, a block taller than one MC row block, and
        // diagonals starting inside the block (a later column chunk).
        for &(m, n, kc, diag0) in &[
            (1, 1, 1, 0),
            (8, 6, 4, 0),
            (7, 5, 3, 0),
            (16, 12, 8, 0),
            (17, 13, 9, 0),
            (40, 23, 16, 0),
            (64, 64, 32, 0),
            (65, 61, 5, 0),
            (300, 47, 7, 0),
            (300, 47, 7, 250),
            (50, 13, 6, 9),
            (50, 6, 6, 44),
        ] {
            let a = fill(3 * m as u64 + 1, m * kc);
            let b = fill(5 * n as u64 + 2, kc * n);
            let c0 = fill(7 * kc as u64 + 3, m * n);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
                let (mut full, mut lower) = (c0.clone(), c0.clone());
                let mut ws = GemmWorkspace::new();
                force_simd(Some(level));
                let ap = pack_a(&mut ws, &a, m, m, kc);
                let mut bp = Vec::new();
                pack_b(&mut bp, &b, kc, kc, n);
                gemm_sub_packed(&ap, &bp, n, &mut full, m);
                gemm_sub_packed_lower(&ap, &bp, n, &mut lower, m, diag0);
                force_simd(None);
                for j in 0..n {
                    for i in 0..m {
                        let want = if i >= diag0 + j { full[j * m + i] } else { c0[j * m + i] };
                        assert_eq!(
                            lower[j * m + i].to_bits(),
                            want.to_bits(),
                            "({m}x{n}x{kc}, diag0 {diag0}) level {level:?} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scaled_transpose_pack_matches_pack_b_of_the_explicit_product() {
        let (n, kc, ldl) = (17usize, 5usize, 23usize);
        let l = fill(31, ldl * kc);
        let d = fill(37, kc);
        // B(k, j) = L(j, k) * d_k, column-major kc x n.
        let mut b = vec![0.0; kc * n];
        for j in 0..n {
            for k in 0..kc {
                b[j * kc + k] = l[k * ldl + j] * d[k];
            }
        }
        let (mut want, mut got) = (Vec::new(), Vec::new());
        pack_b(&mut want, &b, kc, kc, n);
        pack_b_scaled_transpose(&mut got, &l, ldl, kc, n, |k| d[k]);
        assert_eq!(want, got);
    }

    #[test]
    fn levels_agree_bitwise() {
        let _g = force_guard();
        let base = run_packed(33, 21, 15, 99, SimdLevel::Scalar);
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let got = run_packed(33, 21, 15, 99, level);
            assert!(
                base.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()),
                "level {level:?} disagrees with scalar"
            );
        }
    }

    #[test]
    fn detection_is_cached_and_forcing_clamps() {
        let _g = force_guard();
        let det = detected_simd();
        assert_eq!(det, detected_simd());
        force_simd(Some(SimdLevel::Avx512));
        assert!(active_simd() <= det);
        force_simd(Some(SimdLevel::Scalar));
        assert_eq!(active_simd(), SimdLevel::Scalar);
        force_simd(None);
        assert_eq!(active_simd(), det);
    }

    #[test]
    fn axpy_sub_levels_agree_bitwise() {
        let _g = force_guard();
        for n in [1usize, 3, 4, 7, 8, 33, 100, 511] {
            let l = fill(21 + n as u64, n);
            let d0 = fill(43 + n as u64, n);
            let mut expect = d0.clone();
            force_simd(Some(SimdLevel::Scalar));
            axpy_sub(&mut expect, &l, 0.7315);
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let mut d = d0.clone();
                force_simd(Some(level));
                axpy_sub(&mut d, &l, 0.7315);
                assert!(
                    d.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "axpy len {n} level {level:?} disagrees with scalar"
                );
            }
            force_simd(None);
        }
    }

    #[test]
    fn strided_c_block_is_respected() {
        // C embedded in a taller matrix (ldc > m): rows outside the
        // block must be untouched.
        let (m, n, kc, ldc) = (10usize, 7usize, 5usize, 16usize);
        let a = fill(11, m * kc);
        let b = fill(13, kc * n);
        let mut c = fill(17, ldc * n);
        let keep = c.clone();
        let mut expect = c.clone();
        gemm_sub_naive(m, n, kc, &a, m, &b, kc, &mut expect, ldc);
        let mut ws = GemmWorkspace::new();
        let ap = pack_a(&mut ws, &a, m, m, kc);
        let mut bp = Vec::new();
        pack_b(&mut bp, &b, kc, kc, n);
        gemm_sub_packed(&ap, &bp, n, &mut c, ldc);
        for j in 0..n {
            for i in 0..ldc {
                let idx = j * ldc + i;
                if i < m {
                    assert_eq!(c[idx].to_bits(), expect[idx].to_bits());
                } else {
                    assert_eq!(c[idx].to_bits(), keep[idx].to_bits(), "padding row touched");
                }
            }
        }
    }
}
