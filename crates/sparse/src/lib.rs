//! Sparse-matrix substrate for the multifrontal-solver reproduction.
//!
//! This crate provides the data structures every other layer builds on:
//!
//! * [`CooMatrix`] — a triplet builder used to assemble matrices entry by
//!   entry (duplicates are summed, like most finite-element assembly codes).
//! * [`CscMatrix`] — compressed sparse column storage, the canonical format
//!   consumed by the orderings and the symbolic analysis.
//! * [`Permutation`] — a validated permutation with its inverse, used to
//!   apply fill-reducing orderings symmetrically.
//! * [`gen`] — synthetic generators reproducing the *structure families* of
//!   the eight test problems of the paper (Table 1), at configurable scale.
//! * [`io`] — Matrix Market reading/writing so real instances from the
//!   Rutherford-Boeing / UF / PARASOL collections can be substituted in.
//!
//! Index type is `usize` throughout; the reproduction targets matrices with
//! up to a few hundred thousand rows, where the simplicity outweighs the
//! cache benefit of 32-bit indices.

#![warn(missing_docs)]
pub mod coo;
pub mod csc;
pub mod error;
pub mod gen;
pub mod graph;
pub mod hb;
pub mod io;
pub mod perm;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::{CscMatrix, Symmetry};
pub use error::SparseError;
pub use graph::{Graph, LevelStructure};
pub use perm::Permutation;
