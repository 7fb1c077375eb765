//! Scripted scenarios reproducing the situations of Figures 4, 5, 6, 8,
//! plus the seeded full-size instance synthesizer behind the `synth_scale`
//! report (see [`SynthConfig`]).
//!
//! Each figure scenario is a small hand-built assembly tree plus a
//! hand-built static mapping, arranged so that the mechanism under study
//! fires at a controlled virtual time. The `figures` binary prints them;
//! the integration tests assert their direction (the documented strategy
//! must win in its own scenario).

use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::{NodeKind, StaticMapping};
use mf_core::parsim::{self, RunResult};
use mf_sim::NetworkModel;
use mf_sparse::Symmetry;
use mf_symbolic::seqstack::{subtree_peaks, AssemblyDiscipline};
use mf_symbolic::{AssemblyTree, FrontNode};

fn node(first_col: usize, npiv: usize, nfront: usize, parent: Option<usize>) -> FrontNode {
    FrontNode { first_col, npiv, nfront, parent, children: Vec::new(), chain_head: None }
}

fn link(nodes: &mut [FrontNode]) {
    for i in 0..nodes.len() {
        if let Some(p) = nodes[i].parent {
            nodes[p].children.push(i);
        }
    }
}

/// The master/slave race tree shared by the Figure 5 and Figure 6
/// scenarios, on 4 processors:
///
/// * node 0 — child of `B`, runs on P2 from t = 0;
/// * node 1 — `B`, a large type-1 front owned by P0, becomes ready when
///   node 0 completes;
/// * node 2 — child of `S`, runs on P1 (locally, so `S` becomes ready
///   without messaging delay); its pivot count tunes *when* `S`'s master
///   performs its slave selection relative to `B`'s activation;
/// * node 3 — `S`, a type-2 front mastered by P1 choosing exactly one
///   slave among {P0, P2, P3};
/// * node 4 — the root absorbing `S`'s contribution block, on P3.
fn race_tree(s_child_npiv: usize) -> (AssemblyTree, StaticMapping) {
    let mut nodes = vec![
        node(0, 30, 150, Some(1)),                            // B-child, P2
        node(30, 300, 300, None),                             // B, P0 (root)
        node(330, s_child_npiv, 200 + s_child_npiv, Some(3)), // S-child, P1
        node(330 + s_child_npiv, 100, 200, Some(4)),          // S, type-2, P1
        node(430 + s_child_npiv, 100, 100, None),             // R, P3 (root)
    ];
    link(&mut nodes);
    let n = 530 + s_child_npiv;
    let tree = AssemblyTree { nodes, sym: Symmetry::General, n };
    tree.validate().expect("scenario tree is well-formed");
    let map = StaticMapping {
        kind: vec![
            NodeKind::Type1,
            NodeKind::Type1,
            NodeKind::Type1,
            NodeKind::Type2,
            NodeKind::Type1,
        ],
        owner: vec![2, 0, 1, 1, 3],
        subtree_of: vec![None; 5],
        subtree_roots: vec![],
        subtree_proc: vec![],
        subtree_peak: vec![],
        initial_pool: vec![vec![], vec![2], vec![0], vec![]],
    };
    (tree, map)
}

fn race_config() -> SolverConfig {
    SolverConfig {
        nprocs: 4,
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::Lifo,
        use_subtree_info: false,
        use_prediction: false,
        min_rows_per_slave: 100, // exactly one slave for S
        type2_front_min: 150,
        type3_front_min: usize::MAX,
        ..SolverConfig::mumps_baseline(4)
    }
}

/// Outcome of a figure scenario: the peak of the processor under attack
/// (P0) and the global maximum, for the two contrasted settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// P0 peak / global max with the problematic setting.
    pub bad: (u64, u64),
    /// P0 peak / global max with the protective setting.
    pub good: (u64, u64),
}

fn outcome(bad: &RunResult, good: &RunResult) -> ScenarioOutcome {
    ScenarioOutcome { bad: (bad.peaks[0], bad.max_peak), good: (good.peaks[0], good.max_peak) }
}

/// Figure 5: the coherence problem. `S`'s master selects its slave just
/// after `B` allocated on P0, but the memory increment is still in
/// flight: with a slow control network the stale view sends the slave
/// block straight onto P0 and the peak rises; with an instantaneous
/// network the same decision avoids P0.
pub fn figure5() -> ScenarioOutcome {
    let (tree, map) = race_tree(20); // S ready after B activates
    let slow = SolverConfig {
        network: NetworkModel { latency: 500, bytes_per_tick: 350 },
        ..race_config()
    };
    let fast = SolverConfig { network: NetworkModel::instantaneous(), ..race_config() };
    let bad = parsim::run(&tree, &map, &slow).expect("scenario run failed");
    let good = parsim::run(&tree, &map, &fast).expect("scenario run failed");
    outcome(&bad, &good)
}

/// Figure 6: predicting the activation of an incoming master task. `S`'s
/// master selects *before* `B` becomes ready, so every memory view of P0
/// is genuinely small — only the prediction mechanism (Section 5.1) knows
/// `B` is about to allocate there.
pub fn figure6() -> ScenarioOutcome {
    let (tree, map) = race_tree(10); // S ready before B activates
    let without = race_config();
    let with = SolverConfig { use_prediction: true, ..race_config() };
    let bad = parsim::run(&tree, &map, &without).expect("scenario run failed");
    let good = parsim::run(&tree, &map, &with).expect("scenario run failed");
    outcome(&bad, &good)
}

/// Figure 8: memory-aware task selection. P0 is processing a subtree
/// when a large type-2 master task `T` becomes ready; LIFO activates `T`
/// on top of the subtree's stacked contribution blocks, Algorithm 2
/// delays it until the subtree is finished.
pub fn figure8() -> ScenarioOutcome {
    // Subtree on P0: two leaves (0, 1) under root 2. T (4) is a type-2
    // master on P0 in an *independent branch*: its only child (3) runs
    // quickly on P1, so T becomes ready while P0 is mid-subtree. The
    // root 5 (on P1) absorbs both the subtree's and T's CBs.
    let mut nodes = vec![
        node(0, 20, 120, Some(2)),    // L1a: cb 100 -> 10000 entries
        node(20, 20, 120, Some(2)),   // L1b
        node(40, 100, 110, Some(5)),  // L2 subtree root: cb 10 -> 100
        node(140, 4, 154, Some(4)),   // C: T's child on P1, fast; cb 150
        node(144, 150, 300, Some(5)), // T: type-2 master on P0, cb 150
        node(294, 150, 150, None),    // R root on P1
    ];
    // Both CBs (10 and 150) fit R's front (150).
    link(&mut nodes);
    let tree = AssemblyTree { nodes, sym: Symmetry::General, n: 444 };
    tree.validate().expect("scenario tree is well-formed");
    let subtree_peak = {
        let peaks = subtree_peaks(&tree, AssemblyDiscipline::FrontThenFree);
        vec![peaks[2]]
    };
    let map = StaticMapping {
        kind: vec![
            NodeKind::Subtree(0),
            NodeKind::Subtree(0),
            NodeKind::Subtree(0),
            NodeKind::Type1,
            NodeKind::Type2,
            NodeKind::Type1,
        ],
        owner: vec![0, 0, 0, 1, 0, 1],
        subtree_of: vec![Some(0), Some(0), Some(0), None, None, None],
        subtree_roots: vec![2],
        subtree_proc: vec![0],
        subtree_peak,
        initial_pool: vec![vec![1, 0], vec![3]],
    };
    let base = SolverConfig {
        nprocs: 2,
        slave_selection: SlaveSelection::Workload,
        task_selection: TaskSelection::Lifo,
        use_subtree_info: false,
        use_prediction: false,
        min_rows_per_slave: 150,
        type2_front_min: 150,
        type3_front_min: usize::MAX,
        ..SolverConfig::mumps_baseline(2)
    };
    let alg2 = SolverConfig { task_selection: TaskSelection::MemoryAware, ..base.clone() };
    let bad = parsim::run(&tree, &map, &base).expect("scenario run failed");
    let good = parsim::run(&tree, &map, &alg2).expect("scenario run failed");
    outcome(&bad, &good)
}

/// Parameters of the synthetic nested-dissection instance generator.
///
/// The generator emits the assembly tree a nested-dissection ordering of
/// a regular 2D/3D mesh would produce, at the scale of the paper's
/// Table 1 matrices, without paying for an actual ordering + symbolic
/// analysis at benchmark setup time:
///
/// * a complete binary tree of `depth` levels below the root — the
///   recursion tree of binary dissection, so `2^depth` leaf subtrees
///   (4096 at the default depth 12, enough to keep 1024 processors busy);
/// * separator (pivot-block) sizes shrink geometrically from the root:
///   a node at level `l` eliminates `s0 * gamma^l` pivots, the classic
///   profile of regular-mesh separators, perturbed by a seeded
///   multiplicative jitter of up to `jitter` so the tree is not
///   pathologically symmetric;
/// * contribution blocks are `beta * npiv` rows (clamped to fit the
///   parent front, which [`mf_symbolic::AssemblyTree::validate`]
///   requires), so fronts are `(1 + beta) * npiv` — border-to-separator
///   ratios around 1.5 match the paper's larger matrices.
///
/// Node ids are a postorder (children before parents, pivot columns
/// contiguous in id order), the layout every real ordering in this repo
/// produces and the one `compute_mapping`'s layered proportional mapping
/// expects. The same `(seed, shape)` always yields the identical tree:
/// the jitter comes from a private LCG, so instances are reproducible
/// across machines and sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Root separator size (pivots eliminated at the root front).
    pub s0: usize,
    /// Geometric decay of separator sizes per level (0 < gamma < 1).
    pub gamma: f64,
    /// Levels below the root; the tree has `2^(depth+1) - 1` fronts.
    pub depth: usize,
    /// Contribution-block rows per pivot (`cb = beta * npiv`).
    pub beta: f64,
    /// Maximum relative separator-size perturbation (e.g. 0.1 = ±10%).
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl SynthConfig {
    /// The Table-1-scale default: `s0 = 1000`, `gamma = 0.7`,
    /// `depth = 12` gives ~197k columns over 8191 fronts and 4096 leaf
    /// subtrees — the order of the paper's larger test matrices.
    pub fn paper_scale(seed: u64) -> Self {
        SynthConfig { s0: 1000, gamma: 0.7, depth: 12, beta: 1.5, jitter: 0.1, seed }
    }

    /// A smaller instance for smoke tests and CI: ~6k columns over 511
    /// fronts, same shape, fast even in debug builds.
    pub fn smoke(seed: u64) -> Self {
        SynthConfig { s0: 300, gamma: 0.6, depth: 8, beta: 1.5, jitter: 0.1, seed }
    }
}

/// Builds the synthetic nested-dissection assembly tree described by
/// `cfg`. The result passes [`mf_symbolic::AssemblyTree::validate`] and
/// feeds directly into `compute_mapping` + the simulation drivers.
pub fn synth_nd_tree(cfg: &SynthConfig) -> AssemblyTree {
    assert!(cfg.s0 >= 1 && cfg.gamma > 0.0 && cfg.gamma < 1.0, "degenerate shape");
    // Private LCG (MMIX constants): the jitter stream must not depend on
    // any global RNG so equal configs give equal instances everywhere.
    let mut state = cfg.seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Top 53 bits -> [0, 1).
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut nodes: Vec<FrontNode> = Vec::with_capacity((1usize << (cfg.depth + 1)) - 1);
    // Top-down sizes, bottom-up (postorder) ids: a node's front order is
    // fixed before its children are generated, so each child's CB can be
    // clamped to fit it, and children are pushed before their parent.
    fn gen(
        cfg: &SynthConfig,
        unit: &mut dyn FnMut() -> f64,
        nodes: &mut Vec<FrontNode>,
        level: usize,
        parent_front: Option<usize>,
    ) -> usize {
        let base = cfg.s0 as f64 * cfg.gamma.powi(level as i32);
        let wobble = 1.0 + cfg.jitter * (2.0 * unit() - 1.0);
        let npiv = ((base * wobble).round() as usize).max(1);
        let cb = match parent_front {
            None => 0, // the root's contribution block is empty
            Some(pf) => ((cfg.beta * npiv as f64).round() as usize).min(pf),
        };
        let nfront = npiv + cb;
        let children: Vec<usize> = if level < cfg.depth {
            (0..2).map(|_| gen(cfg, unit, nodes, level + 1, Some(nfront))).collect()
        } else {
            Vec::new()
        };
        let id = nodes.len();
        nodes.push(FrontNode {
            first_col: 0, // assigned below, once the postorder is complete
            npiv,
            nfront,
            parent: None,
            children: children.clone(),
            chain_head: None,
        });
        for c in children {
            nodes[c].parent = Some(id);
        }
        id
    }
    gen(cfg, &mut unit, &mut nodes, 0, None);
    // Pivot columns contiguous in postorder: the partition validate()
    // checks, and the column layout real orderings produce.
    let mut col = 0usize;
    for nd in nodes.iter_mut() {
        nd.first_col = col;
        col += nd.npiv;
    }
    let tree = AssemblyTree { nodes, sym: Symmetry::General, n: col };
    tree.validate().expect("synthetic instance is well-formed");
    tree
}

/// Figure 4: one memory-based slave-selection decision over an uneven
/// memory landscape. Returns `(memories, assignment)` for display: rows
/// given to each candidate by Algorithm 1.
pub fn figure4() -> (Vec<u64>, Vec<(usize, usize)>) {
    use mf_core::config::SlaveSelection;
    use mf_core::slavesel::{FrontSplit, SlaveCtx};
    use mf_core::views::Views;
    let memories: Vec<u64> = vec![90_000, 10_000, 35_000, 60_000, 20_000, 75_000, 45_000, 5_000];
    let candidates: Vec<usize> = (1..8).collect();
    let mut views = Views::new(0, &vec![0; memories.len()]);
    for (p, &m) in memories.iter().enumerate() {
        views.set_mem(p, m);
    }
    let ctx = SlaveCtx {
        views: &views,
        master: 0,
        use_subtree_info: false,
        use_prediction: false,
        candidates: &candidates,
        front: FrontSplit {
            nfront: 400,
            npiv: 100,
            sym: Symmetry::General,
            min_rows_per_slave: 16,
        },
    };
    let (sel, _) = SlaveSelection::Memory.select(&ctx);
    (memories, sel.into_iter().map(|a| (a.proc, a.nrows)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_latency_raises_the_peak() {
        let o = figure5();
        assert!(o.bad.0 > o.good.0, "stale views must hurt P0: {} !> {}", o.bad.0, o.good.0);
        assert!(o.bad.1 > o.good.1, "and the global peak: {:?}", o);
    }

    #[test]
    fn figure6_prediction_protects_p0() {
        let o = figure6();
        assert!(o.bad.0 > o.good.0, "prediction must protect P0: {:?}", o);
        assert!(o.bad.1 > o.good.1, "{o:?}");
    }

    #[test]
    fn figure8_algorithm2_delays_the_big_master() {
        let o = figure8();
        assert!(o.bad.0 > o.good.0, "Algorithm 2 must lower P0's peak: {:?}", o);
    }

    #[test]
    fn synth_tree_is_valid_deterministic_and_paper_sized() {
        let cfg = SynthConfig::paper_scale(7);
        let a = synth_nd_tree(&cfg);
        let b = synth_nd_tree(&cfg);
        assert_eq!(a.nodes, b.nodes, "same seed, same instance");
        let stats = a.stats();
        assert_eq!(stats.nodes, (1 << 13) - 1, "complete binary tree of depth 12");
        assert_eq!(stats.leaves, 1 << 12);
        assert_eq!(stats.depth, 12);
        // ~197k columns at the default shape; jitter moves it a little.
        assert!((150_000..250_000).contains(&a.n), "n = {}", a.n);
        let c = synth_nd_tree(&SynthConfig::paper_scale(8));
        assert_ne!(a.nodes, c.nodes, "different seed, different jitter");
    }

    #[test]
    fn synth_tree_maps_onto_many_processors() {
        let tree = synth_nd_tree(&SynthConfig::smoke(3));
        let cfg = SolverConfig::mumps_baseline(64);
        let map = mf_core::mapping::compute_mapping(&tree, &cfg);
        let used: std::collections::BTreeSet<usize> = map.owner.iter().copied().collect();
        assert!(used.len() >= 32, "only {} of 64 processors used", used.len());
        let r = parsim::run(&tree, &map, &cfg).expect("synthetic instance runs");
        assert_eq!(r.nodes_done, r.total_nodes);
    }

    #[test]
    fn figure4_lowest_memory_gets_most_rows() {
        let (memories, sel) = figure4();
        assert!(!sel.is_empty());
        // First selected = least loaded (proc 7 at 5k).
        assert_eq!(sel[0].0, 7);
        let rows: usize = sel.iter().map(|&(_, r)| r).sum();
        assert_eq!(rows, 300);
        // Rows monotone non-increasing along the memory-sorted selection.
        for w in sel.windows(2) {
            assert!(memories[w[0].0] <= memories[w[1].0], "selection must be memory-sorted");
            assert!(w[0].1 >= w[1].1, "leveling gives more rows to emptier procs");
        }
    }
}
