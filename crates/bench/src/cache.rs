//! Process-wide memoization of the analyzed assembly tree.
//!
//! Every sweep cell starts from the same pure computation — instantiate
//! the matrix, compute the fill-reducing permutation, run the symbolic
//! analysis — and the reports revisit the same `(matrix, ordering,
//! split)` triples many times (two strategies per cell, several tables
//! and studies, mf-obs subcommands). This module caches the tree once per
//! process behind an `Arc`, keyed by `(PaperMatrix, OrderingKind,
//! Option<split>)`: the `None` entry holds the analyzed tree after the
//! Liu child reordering, and a `Some(t)` entry is a clone of that tree
//! with large type-2 masters split. The matrix and the permutation are
//! dropped once the tree is built.
//!
//! The computation is a deterministic function of its key, so sharing
//! the artifact cannot change any number downstream — it only removes
//! repeated work. The map holds `Arc<OnceLock<..>>` slots so a miss
//! computes outside the map lock (concurrent sweep workers don't
//! serialize on each other) while concurrent misses of the *same* key
//! still compute it exactly once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mf_core::driver::{prepare_tree, ExperimentInput};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use mf_symbolic::AssemblyTree;

type Slot = Arc<OnceLock<Arc<AssemblyTree>>>;
type TreeKey = (PaperMatrix, OrderingKind, Option<u64>);

/// The analyzed assembly tree for `(m, k, split)`: symbolic analysis with
/// default amalgamation, Liu `FrontThenFree` child order, and — for
/// `Some(t)` — large type-2 masters split at threshold `t` (computed on a
/// clone of the cached unsplit tree). Computed at most once per process:
/// the map lock is held only to fetch/insert the slot, the analysis runs
/// on the slot's `OnceLock`.
pub fn cached_tree(m: PaperMatrix, k: OrderingKind, split: Option<u64>) -> Arc<AssemblyTree> {
    static CACHE: OnceLock<Mutex<HashMap<TreeKey, Slot>>> = OnceLock::new();
    let slot = CACHE
        .get_or_init(Default::default)
        .lock()
        .unwrap()
        .entry((m, k, split))
        .or_default()
        .clone();
    slot.get_or_init(|| {
        Arc::new(match split {
            None => {
                let input = ExperimentInput { matrix: &m.instantiate(), ordering: k };
                prepare_tree(&input, None)
            }
            Some(t) => {
                let mut tree = (*cached_tree(m, k, None)).clone();
                mf_symbolic::split::split_large_masters(&mut tree, t);
                tree
            }
        })
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
    use mf_symbolic::AmalgamationOptions;

    #[test]
    fn cached_tree_is_shared_and_matches_uncached() {
        let t1 = cached_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
        let t2 = cached_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
        assert!(Arc::ptr_eq(&t1, &t2), "same key must share one artifact");

        // Same numbers as the uncached pipeline.
        let a = PaperMatrix::TwoTone.instantiate();
        let perm = OrderingKind::Amd.compute(&a);
        let mut s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
        apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        assert_eq!(t1.stats(), s.tree.stats());
    }

    #[test]
    fn split_variant_is_distinct_from_base() {
        let base = cached_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
        let split = cached_tree(PaperMatrix::TwoTone, OrderingKind::Amd, Some(50_000));
        assert!(!Arc::ptr_eq(&base, &split));
        assert!(split.stats().nodes >= base.stats().nodes);
    }
}
