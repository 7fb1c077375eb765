//! Malleable-front core allocation: the speedup model and the shared
//! duration arithmetic behind `core_alloc`.
//!
//! A front is a *malleable task* in the sense of
//! Guermouche–Marchal–Simon–Vivien (arXiv:1410.7249): its processing
//! time shrinks with the number of cores allotted to it, with
//! diminishing returns captured by an Amdahl curve whose serial
//! fraction falls as the front (hence its trailing GEMM) grows. The
//! scheduler core turns that model into a per-front core grant at
//! `StartCompute` time; the driver then stretches or shrinks the
//! modelled compute duration through [`compute_ticks`].
//!
//! Everything here is deterministic across platforms: the curve uses
//! only IEEE-exact operations (`+ - * /` and `sqrt`), never libm
//! approximations (`powf`, `cbrt`, ...) whose last bits vary between
//! implementations.

/// Cores per processor of the machine model: a malleable front draws on
/// a pool of `CORES_PER_PROC × nprocs` cores.
pub const CORES_PER_PROC: usize = 4;

/// Upper bound on any single front's malleable grant.
pub const MAX_CORES_PER_FRONT: usize = 8;

/// Fronts smaller than this (flops) always run on one core: a grant
/// cannot pay for its fork/join.
pub const MIN_MALLEABLE_FLOPS: u64 = 5_000_000;

/// Serial fraction of the speedup model at [`FLOPS_REF`]: ~3x at 8
/// within-front threads on a front of order 512 (~46 Mflop partial LU),
/// i.e. 5/21 ≈ 0.238.
const SERIAL_REF: f64 = 0.238;

/// Flop count of the speedup model's calibration point.
const FLOPS_REF: u64 = 46_000_000;

/// Lower clamp on the serial fraction (no front is infinitely parallel).
const SERIAL_FLOOR: f64 = 0.02;

/// Modelled speedup of a `flops`-sized front on `cores` cores: Amdahl's
/// `1 / (s + (1 - s) / c)` with a size-dependent serial fraction
/// `s(flops) = SERIAL_REF · sqrt(FLOPS_REF / flops)`, clamped to
/// `[SERIAL_FLOOR, 1]`. The square-root law matches the blocked kernels:
/// the sequential panel factorization is `O(f²·nb)` of an `O(f³)` front,
/// so its share falls roughly with the square root of the flop count.
/// Monotone in `cores`, equals 1 at one core.
pub fn speedup(flops: u64, cores: u32) -> f64 {
    if cores <= 1 {
        return 1.0;
    }
    let ratio = FLOPS_REF as f64 / flops.max(1) as f64;
    let s = (SERIAL_REF * ratio.sqrt()).clamp(SERIAL_FLOOR, 1.0);
    1.0 / (s + (1.0 - s) / cores as f64)
}

/// How the scheduler allots cores to each front's compute task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreAlloc {
    /// Every front runs on this many cores (`Static(1)` — the default —
    /// is byte-identical to the pre-malleable scheduler).
    Static(usize),
    /// Core counts become a scheduling decision: a front starting on a
    /// processor is granted `CORES_PER_PROC × nprocs / busy` cores
    /// (clamped to `[1, MAX_CORES_PER_FRONT]`), where `busy` is the
    /// number of peers the granting processor believes still have tree
    /// work. Leaf-phase fronts run one per core; as tree-parallelism
    /// dries up toward the root, the survivors' wide fronts collect the
    /// idle cores. Fronts below [`MIN_MALLEABLE_FLOPS`] never get more
    /// than one core.
    Malleable,
}

impl Default for CoreAlloc {
    fn default() -> Self {
        CoreAlloc::Static(1)
    }
}

/// Compute speed of one core, flops per tick (1 tick = 1 µs, so this is
/// 1 Gflop/s).
pub const FLOPS_PER_TICK: u64 = 1000;

/// Modelled compute duration of a `flops` task on `cores` cores at
/// [`FLOPS_PER_TICK`] — the **single** duration formula both backends
/// use, so their event streams stay byte-identical.
///
/// At one core this is exactly the integer path
/// `(flops / FLOPS_PER_TICK).max(1)`; with more cores the integer
/// duration is divided by [`speedup`] in f64 (division and `ceil` are
/// IEEE-exact, hence cross-platform deterministic) and floored at one
/// tick.
pub fn compute_ticks(flops: u64, cores: u32) -> u64 {
    let exact = (flops / FLOPS_PER_TICK).max(1);
    if cores <= 1 {
        return exact;
    }
    let sp = speedup(flops, cores);
    ((exact as f64 / sp).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_is_the_exact_integer_path() {
        for flops in [0u64, 1, 999, 1000, 123_456_789] {
            assert_eq!(compute_ticks(flops, 1), (flops / FLOPS_PER_TICK).max(1));
        }
    }

    #[test]
    fn speedup_is_monotone_and_bounded() {
        for flops in [1_000_000u64, 46_000_000, 4_600_000_000] {
            let mut prev = 1.0;
            for c in 2..=32u32 {
                let sp = speedup(flops, c);
                assert!(sp >= prev, "speedup must not fall with more cores");
                assert!(sp <= c as f64, "super-linear speedup");
                prev = sp;
            }
        }
        // Bigger fronts parallelize better.
        assert!(speedup(4_600_000_000, 8) > speedup(46_000_000, 8));
    }

    #[test]
    fn default_curve_matches_the_calibration_point() {
        let sp = speedup(FLOPS_REF, 8);
        assert!((sp - 3.0).abs() < 0.05, "expected ~3x at 8 cores, got {sp}");
    }

    #[test]
    fn more_cores_never_lengthen_the_duration() {
        let mut prev = u64::MAX;
        for c in 1..=16u32 {
            let d = compute_ticks(80_000_000, c);
            assert!(d <= prev, "duration rose from {prev} to {d} at {c} cores");
            prev = d;
        }
        assert!(prev >= 1);
    }

    #[test]
    fn static_default_is_sequential() {
        assert_eq!(CoreAlloc::default(), CoreAlloc::Static(1));
    }
}
