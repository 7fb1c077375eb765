//! Synthetic problem generators.
//!
//! The paper evaluates on eight matrices from the Rutherford-Boeing, UF and
//! PARASOL collections (Table 1). Those exact instances are not
//! redistributable here, so this module generates *structural analogues*:
//! one generator per application family (3-D solid FEM, shell FEM,
//! linear-programming normal equations, harmonic-balance circuits, 3-D wave
//! propagation, crystal lattices). What the experiments measure — assembly
//! tree topology and front sizes under the four orderings — is governed by
//! the structure family, which these generators preserve. See
//! [`paper`] for the catalogue mapping each Table 1 matrix to a generator
//! and scale.
//!
//! The grid and LP families ([`grid`], [`lp`]) build their CSC arrays
//! directly: their entries never collide, so each column's rows can be
//! counted and written in ascending order (the grids) or gathered and
//! sorted once (`B Bᵀ`). The circuit families ([`mod@circuit`]) keep
//! [`CooMatrix`](crate::CooMatrix): their random entries collide, and
//! the matrix is defined by `CooMatrix::to_csc` summing the duplicates in
//! its sort's order.

pub mod circuit;
pub mod grid;
pub mod lp;
pub mod paper;
#[cfg(test)]
mod reference;

pub use circuit::{circuit, harmonic_balance};
pub use grid::{grid2d, grid3d, shell3d, Stencil};
pub use lp::lp_normal_equations;
pub use paper::{PaperMatrix, ALL_PAPER_MATRICES};
