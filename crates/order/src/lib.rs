//! Fill-reducing orderings.
//!
//! The paper studies its scheduling strategies under four reordering
//! techniques because the assembly-tree *topology* — deep and irregular vs.
//! wide and balanced — is what the dynamic schedulers react to:
//!
//! * **AMD** — approximate minimum degree ([`mindeg`] with the external
//!   degree metric), producing deep, irregular trees;
//! * **AMF** — approximate minimum fill (same quotient-graph engine with a
//!   deficiency metric, as implemented inside MUMPS), even deeper trees;
//! * **METIS-like nested dissection** ([`nd`]), wide well-balanced trees;
//! * **PORD-like hybrid** ([`pord`]), a bottom-up/top-down compromise.
//!
//! All four are exposed uniformly through [`OrderingKind::compute`].

#![warn(missing_docs)]
pub mod mindeg;
pub mod nd;
pub mod pord;
pub mod stats;

use mf_sparse::{CscMatrix, Graph, Permutation};

/// The four orderings of the paper's experimental sweep (Tables 2-6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingKind {
    /// METIS-like nested dissection.
    Metis,
    /// PORD-like bottom-up/top-down hybrid.
    Pord,
    /// Approximate minimum degree.
    Amd,
    /// Approximate minimum fill.
    Amf,
}

/// All four orderings, in the column order of Tables 2-6.
pub const ALL_ORDERINGS: [OrderingKind; 4] =
    [OrderingKind::Metis, OrderingKind::Pord, OrderingKind::Amd, OrderingKind::Amf];

impl OrderingKind {
    /// Column header used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind::Metis => "METIS",
            OrderingKind::Pord => "PORD",
            OrderingKind::Amd => "AMD",
            OrderingKind::Amf => "AMF",
        }
    }

    /// Computes the fill-reducing permutation for `a` (the pattern of
    /// `A + Aᵀ` is used when `a` is unsymmetric, as MUMPS does).
    pub fn compute(self, a: &CscMatrix) -> Permutation {
        let g = Graph::from_matrix(a);
        self.compute_on_graph(&g)
    }

    /// Computes the permutation directly on an adjacency graph.
    pub fn compute_on_graph(self, g: &Graph) -> Permutation {
        match self {
            OrderingKind::Amd => mindeg::min_degree(g, mindeg::Metric::ApproxDegree),
            OrderingKind::Amf => mindeg::min_degree(g, mindeg::Metric::ApproxFill),
            OrderingKind::Metis => nd::nested_dissection(g, &nd::NdOptions::metis_like()),
            OrderingKind::Pord => pord::pord_like(g),
        }
    }
}
