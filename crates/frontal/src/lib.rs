//! Dense frontal kernels and the numeric multifrontal factorization.
//!
//! This crate is the "compute" half of the solver: everything here deals
//! with real numbers, while `mf-symbolic` deals with structure and
//! `mf-core` with scheduling. It provides:
//!
//! * [`dense`] — column-major dense storage and the partial factorization
//!   kernels (LU with pivoting inside the fully-summed block, LDLᵀ on the
//!   lower triangle);
//! * [`arena`] — the contiguous contribution-block stack area of the
//!   paper's Section 2 memory layout, with exact usage and peak tracking
//!   (the factors area, with the current front at its free end, is the
//!   numeric drivers' one `Vec<f64>` per factorization);
//! * [`numeric`] — a sequential numeric multifrontal factorization and
//!   solve over an assembly tree (the correctness anchor of the whole
//!   reproduction: residual tests prove the symbolic layer + tree
//!   semantics are right);
//! * [`gemm`] — packed cache-blocked GEMM microkernels (runtime SIMD
//!   dispatch, bit-identical across scalar/AVX2/AVX-512 paths) backing
//!   the blocked kernels' trailing updates;
//! * [`parallel`] — a rayon tree-parallel variant exploiting the same
//!   tree parallelism the paper's type-1 nodes exploit across MPI ranks,
//!   here across threads.
//!
//! Both drivers push every front through one private pipeline (`front`:
//! assemble → factor in place → keep the panel at the free end of a
//! factor area), and both lay the factors out in one area in postorder,
//! so their factors are bit-identical.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops are the idiom of dense kernels
pub mod arena;
pub mod dense;
mod front;
pub mod gemm;
pub mod numeric;
pub mod parallel;

pub use numeric::{FactorError, Factorization};
