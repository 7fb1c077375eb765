//! The engine as it stood before its lists went to `u32` and its prunes
//! stopped sorting: every pruned list checked for order and sorted when
//! out of it, degree and hash summed in a second walk, every heap update
//! sifted both ways. Kept verbatim as the oracle of the differential test
//! in `mindeg`'s tests; its `compactions` counter is never read here.
#![allow(dead_code)]

use super::Metric;
use mf_sparse::{Graph, Permutation};
use std::ops::Range;

const NONE: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Principal variable, in the heap.
    Alive,
    /// Variable merged into a principal one.
    Absorbed,
    /// Eliminated pivot whose element is alive.
    Element,
    /// Element absorbed by the element of a later pivot.
    Dead,
}

/// One vertex: a variable until it is eliminated, an element after.
#[derive(Debug, Clone)]
struct Node {
    state: State,
    /// Supervariable weight; 0 once absorbed.
    nv: usize,
    /// The node's chunk is `arena[start..start + vlen + elen]`: a variable's
    /// variable neighbours then its element neighbours, an element's
    /// members (`elen == 0`). Lists may hold stale ids.
    start: usize,
    vlen: usize,
    elen: usize,
    /// Variable: approximate external degree (weighted). Element: its
    /// weighted size `|Le|`, fixed at creation.
    degree: usize,
    /// Element: `|Le \ Lp|` as the last pivot that touched it left it
    /// (`|Le|` until one does).
    wlen: usize,
    /// Equals the engine's mark when this variable is in the current `Lp`,
    /// or this element's `wlen` has been restarted for it.
    stamp: u64,
}

/// Binary min-heap of `(score, id)` that knows where each id sits, so a
/// score can change and an id can leave in O(log n).
#[derive(Debug, Default)]
struct IndexedHeap {
    items: Vec<(u64, usize)>,
    pos: Vec<usize>,
}

impl IndexedHeap {
    /// Refills the heap with ids `0..scores.len()`.
    fn reset(&mut self, scores: impl Iterator<Item = u64>) {
        self.items.clear();
        self.items.extend(scores.enumerate().map(|(id, s)| (s, id)));
        self.pos.clear();
        self.pos.extend(0..self.items.len());
        for k in (0..self.items.len() / 2).rev() {
            self.sift_down(k);
        }
    }

    fn place(&mut self, k: usize, item: (u64, usize)) {
        self.items[k] = item;
        self.pos[item.1] = k;
    }

    fn sift_up(&mut self, mut k: usize) {
        let item = self.items[k];
        while k > 0 && item < self.items[(k - 1) / 2] {
            self.place(k, self.items[(k - 1) / 2]);
            k = (k - 1) / 2;
        }
        self.place(k, item);
    }

    fn sift_down(&mut self, mut k: usize) {
        let item = self.items[k];
        loop {
            let mut child = 2 * k + 1;
            if child + 1 < self.items.len() && self.items[child + 1] < self.items[child] {
                child += 1;
            }
            if child >= self.items.len() || item <= self.items[child] {
                break;
            }
            self.place(k, self.items[child]);
            k = child;
        }
        self.place(k, item);
    }

    fn update(&mut self, id: usize, score: u64) {
        let k = self.pos[id];
        self.items[k].0 = score;
        self.sift_up(k);
        self.sift_down(self.pos[id]);
    }

    fn remove(&mut self, id: usize) {
        let k = std::mem::replace(&mut self.pos[id], NONE);
        let last = self.items.pop().expect("id is in the heap");
        if k < self.items.len() {
            self.items[k] = last;
            self.sift_up(k);
            self.sift_down(self.pos[last.1]);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let id = self.items.first()?.1;
        self.remove(id);
        Some(id)
    }
}

/// Moves the entries of `arena[from]` that `keep` accepts down to `to..`,
/// sorted and without repeats (they nearly always are already); returns
/// where they end.
fn prune(
    arena: &mut [usize],
    from: Range<usize>,
    to: usize,
    keep: impl Fn(usize) -> bool,
) -> usize {
    let mut end = to;
    for q in from {
        if keep(arena[q]) {
            arena[end] = arena[q];
            end += 1;
        }
    }
    if arena[to..end].windows(2).all(|w| w[0] < w[1]) {
        return end;
    }
    arena[to..end].sort_unstable();
    let mut last = to;
    for q in to + 1..end {
        if arena[q] != arena[last] {
            last += 1;
            arena[last] = arena[q];
        }
    }
    last + 1
}

/// The engine and its workspace, reusable from one graph to the next (a
/// dissection orders thousands of small leaves with one).
#[derive(Debug, Default)]
pub(crate) struct Engine {
    metric: Metric,
    nodes: Vec<Node>,
    arena: Vec<usize>,
    /// First free slot of the arena.
    top: usize,
    heap: IndexedHeap,
    mark: u64,
    alive_weight: usize,
    /// Output order of a supervariable: the principal, then `next` links
    /// up to `tail[principal]`.
    next: Vec<usize>,
    tail: Vec<usize>,
    /// Compactions since the engine was made; tests read it to know that
    /// the debug check of `compact` has run.
    compactions: usize,
    // Scratch of one pivot.
    lp: Vec<usize>,
    hashes: Vec<(u64, usize)>,
}

impl Engine {
    pub(crate) fn new(metric: Metric) -> Self {
        Engine { metric, ..Engine::default() }
    }

    /// Orders the graph on `0..n` whose vertex `i` has the neighbours
    /// `adj(i)` (symmetric, without `i`), calling `emit` on each vertex in
    /// elimination order.
    pub(crate) fn order<I: Iterator<Item = usize>>(
        &mut self,
        n: usize,
        adj: impl Fn(usize) -> I,
        mut emit: impl FnMut(usize),
    ) {
        self.load(n, adj);
        while let Some(p) = self.heap.pop() {
            self.eliminate(p);
            debug_assert!(!self.mark.is_power_of_two() || self.heap_is_exact());
            // A supervariable leaves as its principal followed by what it
            // absorbed, each with what that had absorbed before.
            let mut v = p;
            while v != NONE {
                emit(v);
                v = self.next[v];
            }
        }
    }

    fn load<I: Iterator<Item = usize>>(&mut self, n: usize, adj: impl Fn(usize) -> I) {
        self.nodes.clear();
        self.arena.clear();
        for i in 0..n {
            let start = self.arena.len();
            self.arena.extend(adj(i));
            let d = self.arena.len() - start;
            self.nodes.push(Node {
                state: State::Alive,
                nv: 1,
                start,
                vlen: d,
                elen: 0,
                degree: d,
                wlen: 0,
                stamp: 0,
            });
        }
        // The live lists never outgrow the graph they started as (an
        // element is no longer than the lists it replaces), so any slack
        // will do; this much keeps compactions to a handful.
        self.top = self.arena.len();
        self.arena.resize(self.top + self.top / 4 + n, 0);
        (self.mark, self.alive_weight) = (0, n);
        self.next.clear();
        self.next.resize(n, NONE);
        self.tail.clear();
        self.tail.extend(0..n);
        let mut heap = std::mem::take(&mut self.heap);
        heap.reset((0..n).map(|i| self.score(i)));
        self.heap = heap;
    }

    fn score(&self, i: usize) -> u64 {
        let node = &self.nodes[i];
        let d = node.degree as u64;
        match self.metric {
            Metric::ApproxDegree => d,
            Metric::ApproxFill => {
                // Approximate deficiency: the clique of each adjacent
                // element is already filled, so subtract its contribution.
                // `wlen[e]` is |Lp| for the element just created and
                // |Le \ Lp'| for the others, `p'` being the last pivot that
                // touched `e`: not |Le|. Kept exactly, because every table
                // was produced with it (DESIGN.md, "Model decisions").
                let elems = &self.arena[node.start + node.vlen..][..node.elen];
                elems
                    .iter()
                    .map(|&e| &self.nodes[e])
                    .filter(|elem| elem.state == State::Element)
                    .fold(d * d, |fill, elem| fill.saturating_sub((elem.wlen as u64).pow(2)))
            }
        }
    }

    /// Turns pivot `p` into an element and updates the variables it reaches.
    fn eliminate(&mut self, p: usize) {
        self.mark += 1;
        let mark = self.mark;
        let mut lp = std::mem::take(&mut self.lp);
        lp.clear();

        // ---- Lp = (Ap ∪ ⋃ Le) \ {p}, deduped with the stamp. ----
        let mut lp_weight = 0usize;
        let mut reach = |nodes: &mut [Node], v: usize| {
            let node = &mut nodes[v];
            if node.state == State::Alive && node.stamp != mark {
                node.stamp = mark;
                lp.push(v);
                lp_weight += node.nv;
            }
        };
        self.nodes[p].stamp = mark;
        let Node { start, vlen, elen, .. } = self.nodes[p];
        for q in start..start + vlen {
            reach(&mut self.nodes, self.arena[q]);
        }
        for q in start + vlen..start + vlen + elen {
            let e = self.arena[q];
            if self.nodes[e].state != State::Element {
                continue;
            }
            let Node { start: members, vlen: len, .. } = self.nodes[e];
            for r in members..members + len {
                reach(&mut self.nodes, self.arena[r]);
            }
            // Element e is absorbed by the new element p.
            self.nodes[e].state = State::Dead;
            self.nodes[e].vlen = 0;
        }

        // Element p: its members take over p's own chunk when they fit,
        // and otherwise come off the free tail.
        let node = &mut self.nodes[p];
        self.alive_weight -= node.nv;
        node.state = State::Element;
        (node.degree, node.wlen) = (lp_weight, lp_weight);
        (node.vlen, node.elen) = (0, 0); // p's old lists are not worth compacting
        if lp.len() > vlen + elen {
            if self.top + lp.len() > self.arena.len() {
                self.compact();
            }
            self.nodes[p].start = self.top;
            self.top += lp.len();
        }
        let at = self.nodes[p].start;
        self.arena[at..at + lp.len()].copy_from_slice(&lp);
        self.nodes[p].vlen = lp.len();

        if !lp.is_empty() {
            self.update_reached(p, &lp, lp_weight);
        }
        self.lp = lp;
    }

    /// Degrees, lists, supervariables and scores of the members of `Lp`.
    fn update_reached(&mut self, p: usize, lp: &[usize], lp_weight: usize) {
        let mark = self.mark;

        // ---- Pass 1: wlen[e] = |Le \ Lp| for every element touching Lp. ----
        for &i in lp {
            let Node { start, vlen, elen, nv, .. } = self.nodes[i];
            for q in start + vlen..start + vlen + elen {
                let e = self.arena[q];
                if self.nodes[e].state != State::Element {
                    continue;
                }
                if self.nodes[e].stamp != mark {
                    debug_assert_eq!(self.nodes[e].degree, self.scanned_weight(e), "element {e}");
                    self.nodes[e].stamp = mark;
                    self.nodes[e].wlen = self.nodes[e].degree;
                }
                self.nodes[e].wlen = self.nodes[e].wlen.saturating_sub(nv);
            }
        }

        // ---- Pass 2: prune lists and recompute degrees for i in Lp. ----
        // Lp members are stamped with `mark`.
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.clear();
        for (k, &i) in lp.iter().enumerate() {
            let Node { start, vlen, elen, nv, .. } = self.nodes[i];
            let (nodes, arena) = (&self.nodes, &mut self.arena[..]);
            // Prune variable adjacency: drop dead vars and members of Lp
            // (those are covered by element p now).
            let elems = prune(arena, start..start + vlen, start, |v| {
                nodes[v].state == State::Alive && nodes[v].stamp != mark
            });
            let mut hash: u64 = 0x9e3779b97f4a7c15;
            let mut degree = lp_weight - nv;
            for &v in &arena[start..elems] {
                degree += nodes[v].nv;
                hash = hash.wrapping_add((v as u64).wrapping_mul(0x100000001b3));
            }
            // Prune element adjacency, moved down to follow the variables,
            // and append p: it takes the slot of p itself or of an element
            // p absorbed, one of which was in these lists.
            let old_end = start + vlen + elen;
            let end =
                prune(arena, start + vlen..old_end, elems, |e| nodes[e].state == State::Element);
            assert!(end < old_end, "adjacency of {i} and {p} is not symmetric");
            for &e in &arena[elems..end] {
                // wlen[e] was set to |Le \ Lp| in pass 1.
                debug_assert_eq!(nodes[e].stamp, mark);
                degree += nodes[e].wlen;
                hash ^= (e as u64).wrapping_mul(0x9e3779b1);
            }
            arena[end] = p;
            hash ^= (p as u64).wrapping_mul(0x9e3779b1);
            let node = &mut self.nodes[i];
            (node.vlen, node.elen) = (elems - start, end + 1 - elems);
            node.degree = degree.min(self.alive_weight.saturating_sub(nv));
            hashes.push((hash, k));
        }

        // ---- Supervariable detection within Lp (cheap hash + exact check). ----
        // Sorted by (hash, position in Lp): equal lists end up in one run,
        // still in Lp order, and the first of them absorbs the rest.
        hashes.sort_unstable();
        for run in hashes.chunk_by(|a, b| a.0 == b.0) {
            for (x, &(_, k)) in run.iter().enumerate() {
                let i = lp[k];
                if self.nodes[i].state != State::Alive {
                    continue;
                }
                for &(_, k) in &run[x + 1..] {
                    let j = lp[k];
                    if self.nodes[j].state == State::Alive && self.same_lists(i, j) {
                        self.absorb(i, j);
                    }
                }
            }
        }
        self.hashes = hashes;

        // ---- Final scores. ----
        for &i in lp {
            if self.nodes[i].state != State::Alive {
                continue;
            }
            // Absorptions shrink external degree; recompute the cheap part.
            let node = &mut self.nodes[i];
            node.degree = node.degree.min(self.alive_weight.saturating_sub(node.nv));
            self.heap.update(i, self.score(i));
        }
    }

    fn lists(&self, i: usize) -> &[usize] {
        let node = &self.nodes[i];
        &self.arena[node.start..node.start + node.vlen + node.elen]
    }

    fn same_lists(&self, i: usize, j: usize) -> bool {
        self.nodes[i].vlen == self.nodes[j].vlen && self.lists(i) == self.lists(j)
    }

    /// Merges variable `j` into the indistinguishable variable `i`.
    fn absorb(&mut self, i: usize, j: usize) {
        self.nodes[i].nv += self.nodes[j].nv;
        let node = &mut self.nodes[j];
        (node.nv, node.vlen, node.elen) = (0, 0, 0);
        node.state = State::Absorbed;
        self.next[self.tail[i]] = j;
        self.tail[i] = self.tail[j];
        self.heap.remove(j);
    }

    /// Moves every live chunk to the front of the arena, in place and in
    /// order, and frees the rest.
    fn compact(&mut self) {
        let before: Vec<Vec<usize>> = if cfg!(debug_assertions) {
            (0..self.nodes.len()).map(|x| self.lists(x).to_vec()).collect()
        } else {
            Vec::new()
        };
        let mut live: Vec<usize> =
            (0..self.nodes.len()).filter(|&x| !self.lists(x).is_empty()).collect();
        live.sort_unstable_by_key(|&x| self.nodes[x].start);
        self.top = 0;
        for x in live {
            let node = &mut self.nodes[x];
            let len = node.vlen + node.elen;
            self.arena.copy_within(node.start..node.start + len, self.top);
            node.start = self.top;
            self.top += len;
        }
        self.compactions += 1;
        debug_assert!(before.iter().enumerate().all(|(x, list)| self.lists(x) == &list[..]));
    }

    /// `|Le|` by a scan of the members: what `degree[e]` stores.
    fn scanned_weight(&self, e: usize) -> usize {
        self.lists(e)
            .iter()
            .filter(|&&v| self.nodes[v].state == State::Alive)
            .map(|&v| self.nodes[v].nv)
            .sum()
    }

    /// True when the heap holds exactly the live principal variables, each
    /// where `pos` says, in heap order.
    fn heap_is_exact(&self) -> bool {
        let items = &self.heap.items;
        let alive = self.nodes.iter().filter(|node| node.state == State::Alive).count();
        alive == items.len()
            && items.iter().enumerate().all(|(k, &(_, id))| {
                self.nodes[id].state == State::Alive
                    && self.heap.pos[id] == k
                    && (k == 0 || items[(k - 1) / 2] <= items[k])
            })
    }
}

/// Computes a minimum-degree (or minimum-fill) elimination ordering of the
/// graph `g`, whose adjacency must be symmetric (panics otherwise).
pub fn min_degree(g: &Graph, metric: Metric) -> Permutation {
    let mut order = Vec::with_capacity(g.n());
    Engine::new(metric).order(g.n(), |i| g.neighbors(i).iter().copied(), |v| order.push(v));
    debug_assert_eq!(order.len(), g.n(), "every variable must be ordered");
    Permutation::from_elimination_order(order).expect("engine produced a bijection")
}
