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

/// Amdahl speedup curve with a size-dependent serial fraction.
///
/// `speedup(flops, c) = 1 / (s + (1 - s) / c)` where the serial
/// fraction `s(flops) = serial_ref · sqrt(flops_ref / flops)`, clamped
/// to `[floor, 1]`. The square-root law matches the blocked kernels:
/// the sequential panel factorization is `O(f²·nb)` of an `O(f³)`
/// front, so its share falls roughly with the square root of the flop
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupCurve {
    /// Serial fraction measured at `flops_ref`.
    pub serial_ref: f64,
    /// Flop count of the calibration point.
    pub flops_ref: u64,
    /// Lower clamp on the serial fraction (no front is infinitely
    /// parallel).
    pub floor: f64,
}

impl Default for SpeedupCurve {
    fn default() -> Self {
        // Calibration point: ~3x at 8 within-front threads on a front of
        // order 512 (~46 Mflop partial LU), i.e. serial fraction 5/21 ≈ 0.238.
        SpeedupCurve { serial_ref: 0.238, flops_ref: 46_000_000, floor: 0.02 }
    }
}

impl SpeedupCurve {
    /// Fits the curve to one measured point: `measured` speedup at
    /// `cores` on a task of `flops_ref` flops (the bench layer feeds a
    /// gemm-bench measurement through this once per run).
    pub fn fit(flops_ref: u64, cores: usize, measured: f64) -> Self {
        let c = (cores.max(2)) as f64;
        let sp = measured.clamp(1.0, c);
        // Invert speedup = 1/(s + (1-s)/c) for s.
        let s = ((c / sp) - 1.0) / (c - 1.0);
        SpeedupCurve { serial_ref: s.clamp(0.0, 1.0), flops_ref, floor: 0.02 }
    }

    /// Serial fraction at the given task size.
    pub fn serial_fraction(&self, flops: u64) -> f64 {
        let ratio = self.flops_ref.max(1) as f64 / flops.max(1) as f64;
        (self.serial_ref * ratio.sqrt()).clamp(self.floor, 1.0)
    }

    /// Modelled speedup of a `flops`-sized front on `cores` cores.
    /// Monotone in `cores`, equals 1 at one core.
    pub fn speedup(&self, flops: u64, cores: u32) -> f64 {
        if cores <= 1 {
            return 1.0;
        }
        let s = self.serial_fraction(flops);
        1.0 / (s + (1.0 - s) / cores as f64)
    }
}

/// How the scheduler allots cores to each front's compute task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreAlloc {
    /// Every front runs on this many cores (the historical
    /// `cores_per_front` knob; `Static(1)` — the default — is
    /// byte-identical to the pre-malleable scheduler).
    Static(usize),
    /// Core counts become a scheduling decision: a front starting on a
    /// processor is granted `pool_cores / busy` cores (clamped to
    /// `[1, max_per_front]`), where `busy` is the number of peers the
    /// granting processor believes still have tree work. Leaf-phase
    /// fronts run one per core; as tree-parallelism dries up toward the
    /// root, the survivors' wide fronts collect the idle cores. Fronts
    /// below `min_flops` never get more than one core (a grant cannot
    /// pay for its fork/join).
    Malleable {
        /// Total cores the machine can spread over concurrent fronts.
        pool_cores: usize,
        /// Upper bound on any single front's grant.
        max_per_front: usize,
        /// Fronts smaller than this (flops) always run on one core.
        min_flops: u64,
        /// The speedup model grants are evaluated against.
        curve: SpeedupCurve,
    },
}

impl CoreAlloc {
    /// A malleable allocation with the default curve and thresholds
    /// sized for the paper-scale machine model.
    pub fn malleable(pool_cores: usize) -> Self {
        CoreAlloc::Malleable {
            pool_cores,
            max_per_front: 8,
            min_flops: 5_000_000,
            curve: SpeedupCurve::default(),
        }
    }

    /// The speedup curve durations are modelled with (`None` under
    /// `Static`, where a grant of `n` cores still uses the default
    /// curve so static-vs-malleable comparisons are fair).
    pub fn curve(&self) -> SpeedupCurve {
        match self {
            CoreAlloc::Static(_) => SpeedupCurve::default(),
            CoreAlloc::Malleable { curve, .. } => *curve,
        }
    }
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
/// duration is divided by the curve's speedup in f64 (division and `ceil`
/// are IEEE-exact, hence cross-platform deterministic) and floored at
/// one tick.
pub fn compute_ticks(flops: u64, cores: u32, curve: &SpeedupCurve) -> u64 {
    let exact = (flops / FLOPS_PER_TICK).max(1);
    if cores <= 1 {
        return exact;
    }
    let sp = curve.speedup(flops, cores);
    ((exact as f64 / sp).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_is_the_exact_integer_path() {
        let curve = SpeedupCurve::default();
        for flops in [0u64, 1, 999, 1000, 123_456_789] {
            assert_eq!(compute_ticks(flops, 1, &curve), (flops / FLOPS_PER_TICK).max(1));
        }
    }

    #[test]
    fn speedup_is_monotone_and_bounded() {
        let curve = SpeedupCurve::default();
        for flops in [1_000_000u64, 46_000_000, 4_600_000_000] {
            let mut prev = 1.0;
            for c in 2..=32u32 {
                let sp = curve.speedup(flops, c);
                assert!(sp >= prev, "speedup must not fall with more cores");
                assert!(sp <= c as f64, "super-linear speedup");
                prev = sp;
            }
        }
        // Bigger fronts parallelize better.
        assert!(curve.speedup(4_600_000_000, 8) > curve.speedup(46_000_000, 8));
    }

    #[test]
    fn default_curve_matches_the_calibration_point() {
        let curve = SpeedupCurve::default();
        let sp = curve.speedup(46_000_000, 8);
        assert!((sp - 3.0).abs() < 0.05, "expected ~3x at 8 cores, got {sp}");
    }

    #[test]
    fn fit_inverts_the_measurement() {
        let fitted = SpeedupCurve::fit(46_000_000, 8, 3.0);
        let sp = fitted.speedup(46_000_000, 8);
        assert!((sp - 3.0).abs() < 1e-9, "fit must reproduce its input, got {sp}");
    }

    #[test]
    fn more_cores_never_lengthen_the_duration() {
        let curve = SpeedupCurve::default();
        let mut prev = u64::MAX;
        for c in 1..=16u32 {
            let d = compute_ticks(80_000_000, c, &curve);
            assert!(d <= prev, "duration rose from {prev} to {d} at {c} cores");
            prev = d;
        }
        assert!(prev >= 1);
    }

    #[test]
    fn static_default_is_sequential() {
        assert_eq!(CoreAlloc::default(), CoreAlloc::Static(1));
        match CoreAlloc::malleable(32) {
            CoreAlloc::Malleable { pool_cores, max_per_front, .. } => {
                assert_eq!(pool_cores, 32);
                assert!(max_per_front >= 2);
            }
            other => panic!("expected malleable, got {other:?}"),
        }
    }
}
