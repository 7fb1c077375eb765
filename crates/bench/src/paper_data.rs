//! The paper's published numbers, for side-by-side comparison in the
//! `paper` binary's tables and in EXPERIMENTS.md.

/// Table 2 of the paper: % decrease of the maximum stack peak with the
/// dynamic memory strategies (columns METIS, PORD, AMD, AMF).
pub const PAPER_TABLE2: [(&str, [f64; 4]); 8] = [
    ("BMWCRA_1", [3.0, 0.0, 0.6, 4.1]),
    ("GUPTA3", [5.6, 0.0, 0.0, 0.0]),
    ("MSDOOR", [14.3, 0.0, 2.0, 0.0]),
    ("SHIP_003", [2.0, -1.0, 2.1, 0.2]),
    ("PRE2", [10.3, 1.0, 8.8, -10.5]),
    ("TWOTONE", [-0.3, -4.9, 10.9, 50.6]),
    ("ULTRASOUND3", [16.5, 3.5, -2.0, 3.9]),
    ("XENON2", [3.5, 0.0, 12.0, 12.4]),
];

/// Table 3: same with the statically split tree (unsymmetric matrices).
pub const PAPER_TABLE3: [(&str, [f64; 4]); 4] = [
    ("PRE2", [11.0, 16.9, 4.3, 0.8]),
    ("TWOTONE", [9.2, 0.0, 14.1, 51.4]),
    ("ULTRASOUND3", [5.9, 13.4, -2.8, 14.1]),
    ("XENON2", [12.9, 0.0, -3.3, 9.0]),
];

/// Table 4: absolute max stack peaks (millions of entries) on two cases,
/// rows = (strategy, no-split, split).
// The paper really does report 3.14 million entries; it is not π.
#[allow(clippy::approx_constant)]
pub const PAPER_TABLE4: [(&str, &str, f64, f64); 4] = [
    ("ULTRASOUND3-METIS", "MUMPS dynamic", 7.56, 6.09),
    ("ULTRASOUND3-METIS", "memory-based", 6.13, 5.73),
    ("XENON2-AMF", "MUMPS dynamic", 3.14, 3.14),
    ("XENON2-AMF", "memory-based", 1.55, 1.52),
];

/// Table 5: % decrease with both static and dynamic modifications
/// against original MUMPS.
pub const PAPER_TABLE5: [(&str, [f64; 4]); 4] = [
    ("PRE2", [12.5, 31.0, 24.5, 1.0]),
    ("TWOTONE", [-1.3, -3.0, 14.1, 51.4]),
    ("ULTRASOUND3", [24.2, 5.1, 31.6, 39.5]),
    ("XENON2", [13.8, 0.0, 18.0, 32.7]),
];

/// Table 6: % loss of factorization time of the memory-optimized
/// strategy.
pub const PAPER_TABLE6: [(&str, [f64; 4]); 3] = [
    ("SHIP_003", [3.0, 94.3, 21.2, 36.8]),
    ("PRE2", [-4.5, 0.1, 8.5, -3.2]),
    ("ULTRASOUND3", [8.5, 3.7, 9.0, 49.8]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(PAPER_TABLE2.len(), 8);
        assert_eq!(PAPER_TABLE3.len(), 4);
        assert_eq!(PAPER_TABLE5.len(), 4);
        assert_eq!(PAPER_TABLE6.len(), 3);
        // Table 3/5 rows are the unsymmetric matrices of Table 2.
        for (name, _) in PAPER_TABLE3 {
            assert!(PAPER_TABLE2.iter().any(|(n, _)| *n == name));
        }
    }
}
