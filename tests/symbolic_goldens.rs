//! Golden analyses: the refactoring oracle of `mf_symbolic::analyze`.
//!
//! Every table of the paper is a function of the assembly tree built per
//! (matrix × ordering) cell, so a rewrite of the analysis for speed must
//! reproduce its outputs bit for bit. Each cell pins three FNV-1a
//! digests: of `perm.elimination_order()`, of the permuted pattern the
//! tree describes (`col_ptr`, `row_idx`, the bits of `values`, the
//! symmetry tag) and of the tree (`first_col`, `npiv`, `nfront`, `parent`,
//! `children` of every node, then `stats()`). The analysis no longer
//! returns the pattern: the test computes it as
//! `symmetric_form(a).permute_symmetric(&s.perm)`, so that column pins
//! `CscMatrix::{symmetrized, permute_symmetric}` and the permutation
//! together. The digests were taken from the analysis as it stood before
//! it read the matrix through the ordering (`P A Pᵀ` materialised, an
//! etree, a second permute, the same etree again, an `O(|L|)` row-subtree
//! count); that pipeline is not kept as a twin, these numbers are what is
//! left of it.
//!
//! After an intentional change of behaviour, run
//!
//! ```bash
//! cargo test --release --test symbolic_goldens -- --nocapture
//! ```
//!
//! and paste the tables it prints on failure.

use multifrontal::prelude::*;
use multifrontal::sparse::gen::circuit::circuit;
use multifrontal::sparse::gen::grid::{grid2d, grid3d};
use multifrontal::sparse::gen::lp::lp_normal_equations;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn words(&mut self, vs: &[usize]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.word(v as u64));
    }
}

/// The pattern `analyze` builds its tree on: `a`, or `A + Aᵀ` when the
/// pattern is unsymmetric.
fn symmetric_form(a: &CscMatrix) -> CscMatrix {
    if a.is_structurally_symmetric() {
        a.clone()
    } else {
        a.symmetrized()
    }
}

/// `[perm, pattern, tree]` digests of the analysis `s` of `a`.
fn digests(a: &CscMatrix, s: &SymbolicAnalysis) -> [u64; 3] {
    let mut perm = Fnv::new();
    perm.words(s.perm.elimination_order());

    let pattern = symmetric_form(a).permute_symmetric(&s.perm);
    let mut pat = Fnv::new();
    pat.words(pattern.col_ptr());
    pat.words(pattern.row_idx());
    pattern.values().iter().for_each(|v| pat.word(v.to_bits()));
    pat.word((pattern.symmetry() == Symmetry::Symmetric) as u64);

    let mut tree = Fnv::new();
    tree.word(s.tree.n as u64);
    tree.word((s.tree.sym == Symmetry::Symmetric) as u64);
    for nd in &s.tree.nodes {
        tree.words(&[nd.first_col, nd.npiv, nd.nfront, nd.parent.map_or(usize::MAX, |p| p)]);
        tree.words(&nd.children);
    }
    let st = s.tree.stats();
    tree.words(&[st.nodes, st.leaves, st.depth, st.max_nfront, st.max_npiv]);
    tree.word(st.factor_entries);
    tree.word(st.flops);

    [perm.0, pat.0, tree.0]
}

fn cell(a: &CscMatrix, p: &Permutation) -> [u64; 3] {
    digests(a, &analyze(a, p, &AmalgamationOptions::default()))
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
    panic!(
        "{what}: first difference in row {first}; the analysis now produces\n{}",
        rows.join("\n")
    );
}

/// Rows follow `ALL_PAPER_MATRICES` × `ALL_ORDERINGS` (METIS, PORD, AMD,
/// AMF), matrix-major; columns are `[perm, pattern, tree]`.
const PAPER: [[u64; 3]; 32] = [
    [0xed2d4ab720b3d164, 0x352d9bbe3dcbd54f, 0x4ed3563ec101dbd2],
    [0x805826d7ebd92924, 0x5c23e50a971de5f5, 0xa979b589b30c2e76],
    [0x6d97549fe4dfb7d8, 0x1a3748eb86e632e4, 0x1fbfc88e1fbf770c],
    [0x85e189bc232fbb98, 0x7e1ba5b91b868921, 0xae82286153e66660],
    [0xea15159c7d9314d4, 0x511e85e3bdcb54a7, 0xf0730e2e5f5beb21],
    [0x4ada91d931bb05ac, 0x6789615df5624d5d, 0xfde62ef3afef66a7],
    [0xae46efc20273a4dc, 0xf418adc876338848, 0x8a6637c5fc331e3c],
    [0x94785bdd36f4e184, 0xf59e8d1798afe81e, 0x77ade1bc3ac152fa],
    [0x20eb797483e7f155, 0xa78b4c92477b36ee, 0x674a4ca3f0b11753],
    [0x9eed9339daeb0a95, 0x42357f2adfcdd69a, 0x9c57637febefc429],
    [0x8905ac2e96cfcb61, 0xbf205b0aeeb6fbba, 0xdcbc1569123ad1c6],
    [0x1e72a745f0450c35, 0xc5aa444ba193b635, 0xa7c86cf22b3133ab],
    [0x98751ffb94798620, 0xc5e45282dced1b79, 0xd10ce31305fd62fc],
    [0x975a9158f556fbc0, 0xa899b723e0a0ea44, 0xe5a7bf3a14f73a83],
    [0x428e0d734eb63fa8, 0xabd498b9c0faa0f7, 0x04a6d8318e185bf6],
    [0xa36b748d3e897214, 0x5154a8b71f7f5126, 0x6dde5dee97e48fb4],
    [0x214b4ac5f51ecd43, 0xd6cf91b5470c44d5, 0xf271208b7632972e],
    [0xdaab70ed9b87d827, 0xb71ea8ee7aaa2454, 0xb4626a4e4f02fb71],
    [0x61804a5b8b36fa07, 0x0081c916bd634c26, 0xc22b5026d9f8dde6],
    [0x5821b2b8eca3038b, 0x8a27adbb682ce5a6, 0x6b0aeceeba125cf4],
    [0x0c8b7c76abe056dc, 0x388af2247355924a, 0x9717228b28bc356b],
    [0xcf35ab5ba7645834, 0x4cf0a62f3e5546e3, 0x85883b6a2a27c1d8],
    [0x9236f455b5b41a98, 0x6ef3f4cabaeb9845, 0x5769b2f4a54930a6],
    [0x8934ab0da5ce3dc4, 0x7c430b7f3eeadcdf, 0xe4270d4de59c4405],
    [0xed2d4ab720b3d164, 0x6a327c073274ed9c, 0x9ad2801a69ada6f7],
    [0x805826d7ebd92924, 0xef5cf618b25692e2, 0x2b5f4bb435ab4011],
    [0x6d97549fe4dfb7d8, 0x754ff3772bed9947, 0x50d488d8c11d83d3],
    [0x85e189bc232fbb98, 0xdb2eebcae88dea96, 0xa5db1a4007b9d2dd],
    [0xb4446110247ba2fb, 0x58d44dacf59098ad, 0xdac3baf8abe01d2a],
    [0x12a129a02f72080b, 0x3aec89bc0470532b, 0x72c3a310d24c0a86],
    [0x63606542b93c1143, 0x636728172336c888, 0xd23202938ac1c617],
    [0x5ee920096a996c3f, 0xaed60a08a3f7475a, 0xe71439644f38fbc5],
];

#[test]
fn paper_matrices_under_all_four_orderings() {
    let mut got = Vec::new();
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate();
        for k in ALL_ORDERINGS {
            got.push(cell(&a, &k.compute(&a)));
        }
    }
    compare("paper matrices", &PAPER, &got);
}

/// `grid2d(300,300,Star)` under AMD (the `solve_thin` instance);
/// `grid3d(12,12,12,Box,General,7)` under METIS (unsymmetric values on a
/// symmetric pattern); a `circuit` and an `lp` instance under AMD — the
/// circuit's pattern is unsymmetric, so it takes the `A + Aᵀ` path.
const GENERATORS: [[u64; 3]; 4] = [
    [0xb6b56b4299a16265, 0x303b0074c2e94e5f, 0x61cd9ce3a2bf521f],
    [0x8cc00128aeeb6237, 0x6dda9d527890990d, 0xea3c52c8da216b94],
    [0xd75b73e6cb773d6c, 0x443ff91729d9dd03, 0x0b6177c00698a08f],
    [0x8b2bfaec5a64dfc6, 0x854901e1fa9a43c8, 0x4dd3afe7f017ac53],
];

#[test]
fn generator_instances() {
    let thin = grid2d(300, 300, Stencil::Star);
    let uns = grid3d(12, 12, 12, Stencil::Box, Symmetry::General, 7);
    let circ = circuit(900, 3, 4, 0.1, 11);
    let lp = lp_normal_equations(400, 800, 3, 4, 0.1, 13);
    assert!(!circ.is_structurally_symmetric(), "the circuit must exercise symmetrization");
    let got = [
        cell(&thin, &OrderingKind::Amd.compute(&thin)),
        cell(&uns, &OrderingKind::Metis.compute(&uns)),
        cell(&circ, &OrderingKind::Amd.compute(&circ)),
        cell(&lp, &OrderingKind::Amd.compute(&lp)),
    ];
    compare("generators", &GENERATORS, &got);
}

/// A 9-column forest: a path 0-3-6, a triangle {1, 4, 7} with a pendant
/// 8, column 2 holding its diagonal only and column 5 holding nothing at
/// all. Stored once with a symmetric pattern and once with half of the
/// couplings one-sided (`General`, symmetrized inside `analyze`), each
/// under the identity and under a scrambling permutation.
fn forest(one_sided: bool) -> CscMatrix {
    let mut coo = if one_sided { CooMatrix::new(9, 9) } else { CooMatrix::new_symmetric(9) };
    for i in [0, 1, 2, 3, 4, 6, 7, 8] {
        coo.push(i, i, 4.0 + i as f64).unwrap();
    }
    for (k, &(i, j)) in [(3, 0), (6, 3), (4, 1), (7, 1), (7, 4), (8, 7)].iter().enumerate() {
        let v = -1.0 - 0.125 * k as f64;
        coo.push(i, j, v).unwrap();
        if one_sided && k % 2 == 0 {
            coo.push(j, i, 0.5 * v).unwrap();
        }
    }
    coo.to_csc()
}

const FOREST: [[u64; 3]; 4] = [
    [0x767c5cbe73aae124, 0xbbf10f32a40e06fa, 0x9cb767785232bdcb],
    [0x918eaf44094afda4, 0x0702191dd711d8ba, 0x1bf3fc371eaa1ea3],
    [0x767c5cbe73aae124, 0xc27d4dff6433d8d2, 0x9f5d2b1b619426a8],
    [0x918eaf44094afda4, 0x12891fa792f5670a, 0x9e6d29d97d7e23da],
];

#[test]
fn hand_built_forest() {
    let scramble = Permutation::from_elimination_order(vec![7, 2, 0, 5, 8, 3, 1, 6, 4]).unwrap();
    let none = AmalgamationOptions::none();
    let mut got = Vec::new();
    for a in [forest(false), forest(true)] {
        assert_eq!(a.rows_in_col(2), &[2]);
        assert!(a.rows_in_col(5).is_empty());
        for p in [Permutation::identity(9), scramble.clone()] {
            let s = analyze(&a, &p, &none);
            assert!(s.tree.validate().is_ok(), "{:?}", s.tree.validate());
            got.push(digests(&a, &s));
        }
    }
    compare("forest", &FOREST, &got);
}
