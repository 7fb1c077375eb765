//! Golden permutations: the refactoring oracle of the ordering engines.
//!
//! Every table of the paper is a function of the elimination orders, so
//! a rewrite of `mf-order` for speed must reproduce them bit for bit:
//! no pivot choice, tie-break or supervariable merge may move. Each
//! entry pins an FNV-1a digest of `elimination_order()`. The digests
//! were taken from the engine as it stood before PR 13 rewrote its
//! inside (`Vec<Vec<_>>` quotient graph, `BinaryHeap` with lazy
//! deletion, `HashMap` supervariable buckets); that engine is not kept
//! as a twin, these numbers are what is left of it.
//!
//! After an intentional change of behaviour, run
//!
//! ```bash
//! cargo test --release --test ordering_goldens -- --nocapture
//! ```
//!
//! and paste the tables it prints on failure.

use multifrontal::order::mindeg::{min_degree, Metric};
use multifrontal::order::nd::{nested_dissection, NdOptions};
use multifrontal::prelude::*;
use multifrontal::sparse::gen::grid::{grid2d, grid3d};
use multifrontal::sparse::Graph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn digest(p: &Permutation) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in p.elimination_order() {
        for b in (v as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Panics with the table in source form when `got` differs from `want`.
fn compare<const K: usize>(what: &str, want: &[[u64; K]], got: &[[u64; K]]) {
    if want == got {
        return;
    }
    let rows: Vec<String> = got
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    let first = want.iter().zip(got).position(|(w, g)| w != g).unwrap_or(want.len().min(got.len()));
    panic!("{what}: first difference in row {first}; the engine now produces\n{}", rows.join("\n"));
}

/// Rows follow `ALL_PAPER_MATRICES`, columns `ALL_ORDERINGS` (METIS, PORD, AMD, AMF).
const PAPER: [[u64; 4]; 8] = [
    [0x490ad9435572cf4d, 0x3eb89a2994c21315, 0xdd559fa51a38ce3d, 0x3aa91532317a42b1],
    [0xb823de9accdb3d35, 0xb692f4d7f1a51595, 0x4f2eb04a57060e19, 0xc1ba1eccdb64d11d],
    [0xa319f7ba44da66b5, 0xca7e0ab73730e93d, 0x59b1f58af184a081, 0x6f5a59df728bb6f5],
    [0xba518b11da7f2789, 0x7e7c5a36a98fdcfd, 0xb1562b31a5c06645, 0x97800b8f96e6f615],
    [0xb3532fddfc314b41, 0x90847492248609d1, 0x33ccdf6384d6d7f1, 0x07a2f899969c54b9],
    [0x92a3f073079006ad, 0xfd070646fd31e3fd, 0xef9a30aab720eeed, 0x9dcc5dddeb915095],
    [0x490ad9435572cf4d, 0x3eb89a2994c21315, 0xdd559fa51a38ce3d, 0x3aa91532317a42b1],
    [0x1e54bcbdc13fab9d, 0x37b86969f6bf1a7d, 0x51d2fdb3f3ab7d61, 0xfc4c48706fd5f70d],
];

#[test]
fn paper_matrices_under_all_four_orderings() {
    let got: Vec<[u64; 4]> = ALL_PAPER_MATRICES
        .iter()
        .map(|m| {
            let a = m.instantiate();
            ALL_ORDERINGS.map(|k| digest(&k.compute(&a)))
        })
        .collect();
    compare("paper matrices", &PAPER, &got);
}

/// `grid2d(300,300,Star)` under AMD (the `solve_thin` instance), then
/// `grid3d(26,26,26,Box)` under METIS (the `solve_fat` instance).
const GRIDS: [[u64; 1]; 2] = [[0xb3d6128e71b0aec9], [0xa74bfa9e1d579085]];

#[test]
fn large_grids() {
    let thin = grid2d(300, 300, Stencil::Star);
    let fat = grid3d(26, 26, 26, Stencil::Box, Symmetry::Symmetric, 1);
    let got =
        [[digest(&OrderingKind::Amd.compute(&thin))], [digest(&OrderingKind::Metis.compute(&fat))]];
    compare("grids", &GRIDS, &got);
}

/// PRE2 then TWOTONE at ×3, under AMD and AMF: at this size a variable's
/// element list runs to dozens of entries, which ×1 barely reaches. The
/// digests were taken on the engine that sorted every pruned list.
#[cfg(not(debug_assertions))]
const PAPER_X3: [[u64; 2]; 2] =
    [[0x1dea25d0453d03e1, 0x6855ea21cbfd6411], [0x41caf1bdad52a891, 0x0d59c320058ee3dd]];

/// Release only: the debug engine's checks take about 10 s per ordering
/// at this size.
#[cfg(not(debug_assertions))]
#[test]
fn pre2_and_twotone_at_three_times_scale() {
    let got: Vec<[u64; 2]> = [PaperMatrix::Pre2, PaperMatrix::TwoTone]
        .iter()
        .map(|m| {
            let a = m.instantiate_scaled(3.0);
            [OrderingKind::Amd, OrderingKind::Amf].map(|k| digest(&k.compute(&a)))
        })
        .collect();
    compare("paper matrices at x3", &PAPER_X3, &got);
}

/// A seeded graph with every shape the engine has a special path for:
/// two blocks that are never linked (disconnected), a tail of isolated
/// vertices, one dense row, a clique, and twins (vertices given a copy
/// of another's adjacency, which must merge into supervariables). Odd
/// seeds store each adjacency list in shuffled order.
fn random_graph(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(16usize..260);
    let (split, used) = (n / 2, n - n / 8);
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    fn link(adj: &mut [BTreeSet<usize>], a: usize, b: usize) {
        if a != b {
            adj[a].insert(b);
            adj[b].insert(a);
        }
    }
    let avg_deg = rng.gen_range(1usize..6);
    for block in [0..split, split..used] {
        for _ in 0..block.len() * avg_deg / 2 {
            link(&mut adj, rng.gen_range(block.clone()), rng.gen_range(block.clone()));
        }
    }
    let hub = rng.gen_range(0..split);
    for v in 0..split {
        if rng.gen_bool(0.7) {
            link(&mut adj, hub, v);
        }
    }
    let k = rng.gen_range(3usize..9).min(used - split);
    for a in split..split + k {
        for b in split..a {
            link(&mut adj, a, b);
        }
    }
    // Twins take over isolated vertices, so some stay isolated.
    for twin in used..used + (n - used) / 2 {
        let v = rng.gen_range(0..used);
        let copy: Vec<usize> = adj[v].iter().copied().collect();
        copy.into_iter().for_each(|w| link(&mut adj, twin, w));
        if rng.gen_bool(0.5) {
            link(&mut adj, twin, v);
        }
    }
    let mut ptr = vec![0];
    let mut flat = Vec::new();
    for list in &adj {
        let at = flat.len();
        flat.extend(list.iter().copied());
        if seed % 2 == 1 {
            for i in (at + 1..flat.len()).rev() {
                flat.swap(i, rng.gen_range(at..=i));
            }
        }
        ptr.push(flat.len());
    }
    Graph::from_raw_parts(ptr, flat)
}

/// Row `s` is `random_graph(s)` under AMD, AMF, and a nested dissection
/// down to leaves of 8 (so the separator code sees the odd shapes too).
const RANDOM: [[u64; 3]; 64] = [
    [0x64b919606e0d1ef9, 0x751174cccae821d9, 0x5f0e0187bc4c83f9],
    [0xa05d053b9465f384, 0x347f005ee92aa1e4, 0x7aef4e9fe9171c04],
    [0x0ece03d8193bd042, 0xae3055836f7f0ee2, 0xdea214b4a3b06d82],
    [0xeb3c9a39de0cc44d, 0x08e152856bebbc0d, 0xc599c0c7ef1a17ad],
    [0xe17f60e6880b036e, 0xa86a1bb072d222ee, 0xf7de3007c4ee2bae],
    [0x2acee7ca9c4f6b04, 0xd30caac45a519284, 0x7716a044d70cada4],
    [0xb2528c5cb0944c04, 0x68732094eafcfa84, 0xfd09a409aa3bc804],
    [0x38b122a8403ba6e5, 0x9be58212f1982b25, 0x198c648a345c14a5],
    [0x86f78192d7c39de4, 0xd9220cb11b0fb6a4, 0x7f4cfa6b277c7a84],
    [0xd6aa85437cba3a35, 0xd7dab5b17b40c115, 0x946cdcda9b6d86b5],
    [0x781b45ee364528f9, 0xab701638cbe4fbb9, 0xb753ec5b974d7679],
    [0x316abe365afa30e9, 0x830b9905c3517f49, 0x37b6f48b86a7bde9],
    [0x5f981a95ae5c0d65, 0x5d097cbb96069b05, 0x40943eb9d5605505],
    [0x4f8f72b06b4b2004, 0x0c5d4b5515afb344, 0x34716b3a30e77144],
    [0xfe279e889fb42f1d, 0xb1192bcc7a12c6fd, 0x74854b93561c4ddd],
    [0xd2e49842e2d8be25, 0x028806fc2d299b25, 0x19a2e355c254f085],
    [0x27a0af323a07c4d6, 0xe45e8cb852bbfc16, 0x4bda7929ad3419b6],
    [0xd92ccc6878cc5005, 0xcccbeb881dc24525, 0x6010de0e986eb4e5],
    [0x071b991adad5a925, 0xdec3927ab9569f45, 0xf935c898e61c5005],
    [0xd8ed92e3f2736d04, 0x4b2d7a402d7e1984, 0x8660776b1fb916c4],
    [0x392e0f63a8170025, 0xb580432d00c6d0e5, 0x9452706ff9996905],
    [0x63248c905d814825, 0x02fbe1cd2aee7525, 0x4e357efbccbcbd65],
    [0x5657439cb7bec3e4, 0xb87ba479688edb84, 0xd87e3f01ce31f384],
    [0xdfc0ccf93d8a9b41, 0x8a34d47548d12f41, 0x5b9324115119b0e1],
    [0xc7c60cdee6602d15, 0x84188c518baadb15, 0x5cdfbc900dc9c6b5],
    [0x7bb9b52d79cebce5, 0x21ff5d496a843065, 0xed05b6fa41dfb005],
    [0x4accddd00dade105, 0xf8d5dd86179ad745, 0xdd2d7af6a46f36e5],
    [0x9d917c9a5c5cbde4, 0x4bdaace522efcf44, 0xa95c817732219364],
    [0xe1597fcfa2e0fca5, 0xc49889025e0112e5, 0x65357ff6a72b9a85],
    [0xbdc885ab28c9a545, 0xa7a0304f373ffee5, 0xd9de5918e0d41a05],
    [0x3077d693f8c915e4, 0x494f1752f969c5e4, 0x5cfb892acd013064],
    [0x9d83876a85aecbc4, 0xb1b2dfd403f9b104, 0x8dd3467ca017e8c4],
    [0x7360c543d3378bd1, 0xb4a355e212d23cb1, 0x2a83ba975a5331f1],
    [0x0c6ac2d30112842a, 0x7db24391de1f10ea, 0x5adc4b6cbc40290a],
    [0x8890b5702e8809ca, 0xa27982f6dccaa44a, 0xd953a2d85e6bce6a],
    [0x4a1e82cd421b5d25, 0x8f4b49165b425345, 0x50556a728c437045],
    [0xad70f7a3204be579, 0x54c2935eba005ab9, 0x4e7ff8dea1fb1fb9],
    [0x1570a5ff4abe6ac2, 0x41374579df166022, 0xad04dd618800de02],
    [0x5033cd4bcddbad96, 0x09ef84c2760d8a36, 0x7c2bc9dd694e1d96],
    [0xfa3a0c1936499c85, 0x1513eba8e1804b85, 0x2f2d26998d930825],
    [0x23dc96e4f03b8546, 0xa4d151360a774206, 0x26a50794967658e6],
    [0xaf0d2fa3c3ac0afd, 0x0eda6a6ada4ed29d, 0x25476a12a68bfa3d],
    [0x9d15eb54d8707ce4, 0xbc7e486360e28be4, 0x2ba5ce3f34b77d24],
    [0x65dcd8e6da273785, 0xe48919e6b1b93405, 0xe93bf36ddf191ce5],
    [0x93943760e53e9379, 0xaab9db62fb35c179, 0x3563d2c7affb51d9],
    [0xb161799f887fd704, 0x909a0aeb25513304, 0xacfecb5bb9c07984],
    [0xf18264b64b36770e, 0x48d32bca7714526e, 0xd852a3cd5c48c7ae],
    [0xc7a871f51de11315, 0x5e2734e83847fbb5, 0xb2c4b661a63e5255],
    [0xff05791bb413d715, 0xc017f72028c1be35, 0x30b4dc94a6cd3d75],
    [0x90e35795b7743245, 0x37e30989d4b21725, 0xe73ed0840bf39165],
    [0xdd72f06c216760bd, 0x0adc9aafc1eff6dd, 0x13980b284ea49a9d],
    [0x54d6c541f106a91d, 0x38ab229d877a933d, 0xe5164f3f2084d86d],
    [0x27b27ca8b3a24304, 0x2efc6be262bef424, 0xba48dd7e66d67ae4],
    [0xff066a625a813f3d, 0x07ab171bdf70fc3d, 0xd7859e961229431d],
    [0x81ce2728e0436284, 0x34e4978b24f50364, 0x78de9208ade52d64],
    [0xdb80c02db50e4ea5, 0x8136ef13e8c68965, 0x95bd425fd45d5745],
    [0xbdf1b7d268b042e5, 0x33ac492a122244e5, 0x18600fa01ea89445],
    [0x7bf24cfb10779499, 0x52aab811a3eb7c19, 0xb059d61d642c9359],
    [0x39c2941143ff4045, 0x7de06684438944a5, 0x087e0a1c984a8d85],
    [0x64e08b8a04b72924, 0xd6218b305c6f9424, 0xbd975b2ff96961c4],
    [0x25ec2ef29569e2a5, 0x16a89d99562d8965, 0x838845261b49fbc5],
    [0xacd60c5ab4f226a5, 0xdf66f9d1c9a8e205, 0xd7190bb46c187b85],
    [0x1b1fd3824f862405, 0x20637fd146b17325, 0x38e21ecaafa32ac5],
    [0x3f84437c5aefb882, 0xdc6ec88d3be0c8c2, 0xce2831b130bfb062],
];

#[test]
fn seeded_random_graphs() {
    let nd = NdOptions { leaf_size: 8, ..NdOptions::metis_like() };
    let got: Vec<[u64; 3]> = (0..RANDOM.len() as u64)
        .map(|s| {
            let g = random_graph(s);
            [
                digest(&min_degree(&g, Metric::ApproxDegree)),
                digest(&min_degree(&g, Metric::ApproxFill)),
                digest(&nested_dissection(&g, &nd)),
            ]
        })
        .collect();
    compare("random graphs", &RANDOM, &got);
}

/// The Amestoy–Davis–Duff dense-row cutoff, `max(16, 10√n)`, and the
/// number of rows of the graph of `A + Aᵀ` whose degree exceeds it: the
/// rows a dense-row rule in `mindeg` would set aside.
fn dense_rows(g: &Graph) -> (usize, usize) {
    let cutoff = 16f64.max(10.0 * (g.n() as f64).sqrt()) as usize;
    (cutoff, (0..g.n()).filter(|&v| g.degree(v) > cutoff).count())
}

/// The dense-row census of the paper matrices at ×1: only GUPTA3 has
/// rows above the cutoff, 112 of 2000, with a largest degree of 904
/// against a cutoff of 447. A dense-row rule in whole-graph minimum
/// degree can therefore move only GUPTA3's AMD and AMF goldens above.
/// (Nested dissection runs the same engine on its pieces, whose smaller
/// `n` gives smaller cutoffs; this census does not cover them.)
#[test]
fn only_gupta3_has_dense_rows_at_scale_one() {
    for m in ALL_PAPER_MATRICES {
        let g = Graph::from_matrix(&m.instantiate());
        let (cutoff, dense) = dense_rows(&g);
        let max_degree = (0..g.n()).map(|v| g.degree(v)).max().unwrap_or(0);
        if m.name() == "GUPTA3" {
            assert_eq!((g.n(), cutoff, dense, max_degree), (2000, 447, 112, 904));
        } else {
            assert_eq!(dense, 0, "{}: max degree {max_degree}, cutoff {cutoff}", m.name());
        }
    }
}
