//! Quotient-graph minimum-degree engine with pluggable metric.
//!
//! One engine serves both AMD (approximate external degree, in the spirit of
//! Amestoy-Davis-Duff) and AMF (approximate deficiency/fill, as implemented
//! inside MUMPS). The engine maintains the classical quotient graph:
//! eliminated pivots become *elements* whose adjacency lists represent the
//! clique their elimination created, supervariables with identical adjacency
//! are merged, and degrees are updated with the `|Le \ Lp|` counter trick so
//! each elimination costs time proportional to the structures it touches.
//!
//! Two properties carry both the speed and the reproducibility
//! (`tests/ordering_goldens.rs` pins the permutations):
//!
//! * **An element's weighted size never changes** between its creation and
//!   its absorption. A member that is eliminated absorbs the element; a
//!   member that is merged into a supervariable hands its weight to a
//!   principal variable with the same element list, hence in the same
//!   elements. So `|Le|` is stored once and read in O(1); debug builds
//!   check it against a scan of the members.
//! * **The pivot is the live principal variable with the least
//!   `(score, id)`**, a total order, so the indexed heap that finds it has
//!   no say in the sequence, and an update that leaves a score as it was
//!   skips the heap. Likewise, of the variables of `Lp` with equal lists,
//!   the first in `Lp` order absorbs the others, whatever the hash that
//!   brought them together.
//!
//! # Layout
//!
//! Ids, weights and arena slots are `u32`, so a node is 32 bytes;
//! [`arena_slots`] checks once, at load, that the graph fits and panics
//! naming the limit if it does not. All lists live in one index arena. A
//! variable owns one chunk, its variable neighbours followed by its element
//! neighbours; pruning only ever shrinks it, and the new element always
//! finds room where the pivot or an absorbed element stood, so a chunk
//! never moves. An element's member list reuses the pivot's chunk when it
//! fits, and otherwise comes off the free tail, which is compacted in place
//! when it runs out. Every buffer is sized at load, so ordering a graph
//! allocates a fixed handful of times whatever its pivot count
//! (`tests/footprint.rs` pins it).
//!
//! # List order
//!
//! A prune keeps a list in the order the next pivot traversal and the
//! supervariable test expect, without sorting it:
//!
//! * **A variable list is sorted from its first prune on.** An input list
//!   that is not sorted (or repeats an id) is sorted and deduplicated
//!   once, at that prune; the check rides along the filtering pass. Before
//!   it, a pivot reads the list in input order.
//! * **An element list is a sorted body plus the newest element.** Each
//!   prune filters the body, inserts the last entry (the element the
//!   previous prune appended) in place, and appends the new one. A pivot
//!   reads the list as stored, body first and newest last: that order
//!   fixes the order of `Lp`.
//!
//! Degree and supervariable hash are summed inside the filtering pass;
//! both sums are order-free (`wrapping_add` over variables, `^` over
//! elements).

use mf_sparse::{Graph, Permutation};
use std::ops::Range;

#[cfg(test)]
mod reference;

/// Pivot-selection metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Approximate external degree (AMD).
    #[default]
    ApproxDegree,
    /// Approximate deficiency `d² − Σ_e |Le\i|²` (AMF).
    ApproxFill,
}

/// No id: the end of a supervariable chain, a variable out of the heap.
const NONE: u32 = u32::MAX;

/// Arena slots the engine takes for a graph of `n` vertices whose
/// adjacency lists hold `entries` ids in all: the lists, a quarter of them
/// again and `n` more. The live lists never outgrow the graph they started
/// as (an element is no longer than the lists it replaces), so any slack
/// will do; this much keeps compactions to a handful.
///
/// # Panics
///
/// If the slots do not fit in `u32` (ids, weights and slots are `u32`;
/// `u32::MAX` is the no-id marker).
pub fn arena_slots(n: usize, entries: usize) -> usize {
    match entries.checked_add(entries / 4).and_then(|len| len.checked_add(n)) {
        Some(len) if len < NONE as usize => len,
        _ => panic!(
            "minimum degree: {n} vertices with {entries} adjacency entries need more than \
             the u32 limit of {} arena slots",
            NONE - 1
        ),
    }
}

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
    nv: u32,
    /// The node's chunk is `arena[start..start + vlen + elen]`: a variable's
    /// variable neighbours then its element neighbours, an element's
    /// members (`elen == 0`). Lists may hold stale ids.
    start: u32,
    vlen: u32,
    elen: u32,
    /// Variable: approximate external degree (weighted). Element: its
    /// weighted size `|Le|`, fixed at creation.
    degree: u32,
    /// Element: `|Le \ Lp|` as the last pivot that touched it left it
    /// (`|Le|` until one does).
    wlen: u32,
    /// Equals the engine's mark when this variable is in the current `Lp`,
    /// or this element's `wlen` has been restarted for it.
    stamp: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    /// Arena slots of the variable list.
    fn vars(&self) -> Range<usize> {
        self.start as usize..(self.start + self.vlen) as usize
    }

    /// Arena slots of the element list (an element's: empty).
    fn elems(&self) -> Range<usize> {
        let end = (self.start + self.vlen) as usize;
        end..end + self.elen as usize
    }

    /// Arena slots of both lists.
    fn chunk(&self) -> Range<usize> {
        self.start as usize..self.elems().end
    }
}

/// Binary min-heap of `(score, id)` that knows where each id sits, so a
/// score can change and an id can leave in O(log n).
#[derive(Debug, Default)]
struct IndexedHeap {
    items: Vec<(u64, u32)>,
    pos: Vec<u32>,
}

impl IndexedHeap {
    /// Refills the heap with ids `0..scores.len()`.
    fn reset(&mut self, scores: impl Iterator<Item = u64>) {
        self.items.clear();
        self.items.extend(scores.zip(0..));
        self.pos.clear();
        self.pos.extend(0..self.items.len() as u32);
        for k in (0..self.items.len() / 2).rev() {
            self.sift_down(k);
        }
    }

    fn place(&mut self, k: usize, item: (u64, u32)) {
        self.items[k] = item;
        self.pos[item.1 as usize] = k as u32;
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

    /// Puts `item` at `k`, where `was` stood, and restores the heap order:
    /// the key only moved one way, so it sifts only that way.
    fn replace(&mut self, k: usize, was: (u64, u32), item: (u64, u32)) {
        self.items[k] = item;
        if item < was {
            self.sift_up(k);
        } else {
            self.sift_down(k);
        }
    }

    fn update(&mut self, id: u32, score: u64) {
        let k = self.pos[id as usize] as usize;
        let was = self.items[k];
        if was.0 != score {
            self.replace(k, was, (score, id));
        }
    }

    fn remove(&mut self, id: u32) {
        let k = std::mem::replace(&mut self.pos[id as usize], NONE) as usize;
        let last = self.items.pop().expect("id is in the heap");
        if k < self.items.len() {
            self.replace(k, self.items[k], last);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let id = self.items.first()?.1;
        self.remove(id);
        Some(id)
    }
}

/// Sorts `arena[range]` (two ids or more) and drops repeats; returns where
/// the list ends. A variable list needs it once at most, at its first
/// prune, when the input list was out of order.
#[cold]
fn sort_once(arena: &mut [u32], range: Range<usize>) -> usize {
    let list = &mut arena[range.clone()];
    list.sort_unstable();
    let mut last = 0;
    for q in 1..list.len() {
        if list[q] != list[last] {
            last += 1;
            list[last] = list[q];
        }
    }
    range.start + last + 1
}

/// Hash of a variable neighbour (summed with `wrapping_add`) and of an
/// element neighbour (folded with `^`), from the seed `HASH_SEED`.
const HASH_SEED: u64 = 0x9e3779b97f4a7c15;
fn var_hash(v: u32) -> u64 {
    (v as u64).wrapping_mul(0x100000001b3)
}
fn elem_hash(e: u32) -> u64 {
    (e as u64).wrapping_mul(0x9e3779b1)
}

/// The engine and its workspace, reusable from one graph to the next (a
/// dissection orders thousands of small leaves with one).
#[derive(Debug, Default)]
pub(crate) struct Engine {
    metric: Metric,
    nodes: Vec<Node>,
    arena: Vec<u32>,
    /// First free slot of the arena.
    top: usize,
    heap: IndexedHeap,
    mark: u32,
    alive_weight: u32,
    /// Output order of a supervariable: the principal, then `next` links
    /// up to `tail[principal]`.
    next: Vec<u32>,
    tail: Vec<u32>,
    /// Compactions since the engine was made; tests read it to know that
    /// the debug check of `compact` has run.
    compactions: usize,
    // Scratch, `n` long from load on. `keyed` holds ids under a key in the
    // high half (`key << 32 | id`): position in Lp under its folded hash in
    // pass 2, node under its start in a compaction.
    lp: Vec<u32>,
    keyed: Vec<u64>,
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
                emit(v as usize);
                v = self.next[v as usize];
            }
        }
    }

    fn load<I: Iterator<Item = usize>>(&mut self, n: usize, adj: impl Fn(usize) -> I) {
        // What the lists can hold at most, so that every buffer is sized
        // once and the limit is checked before anything is read.
        let bound = (0..n).map(|i| adj(i).size_hint()).map(|(lo, hi)| hi.unwrap_or(lo)).sum();
        let slots = arena_slots(n, bound);
        self.nodes.clear();
        self.nodes.reserve_exact(n);
        self.arena.clear();
        self.arena.reserve_exact(slots);
        for i in 0..n {
            let start = self.arena.len();
            self.arena.extend(adj(i).map(|v| {
                assert!(v < n, "neighbour {v} of {i} is not a vertex");
                v as u32
            }));
            let d = (self.arena.len() - start) as u32;
            self.nodes.push(Node {
                state: State::Alive,
                nv: 1,
                start: start as u32,
                vlen: d,
                elen: 0,
                degree: d,
                wlen: 0,
                stamp: 0,
            });
        }
        self.top = self.arena.len();
        self.arena.resize(arena_slots(n, self.top), 0);
        (self.mark, self.alive_weight) = (0, n as u32);
        self.next.clear();
        self.next.resize(n, NONE);
        self.tail.clear();
        self.tail.extend(0..n as u32);
        self.lp.clear();
        self.lp.reserve_exact(n);
        self.keyed.clear();
        self.keyed.reserve_exact(n);
        let mut heap = std::mem::take(&mut self.heap);
        heap.reset((0..n as u32).map(|i| self.score(i)));
        self.heap = heap;
    }

    fn score(&self, i: u32) -> u64 {
        let node = &self.nodes[i as usize];
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
                self.arena[node.elems()]
                    .iter()
                    .map(|&e| &self.nodes[e as usize])
                    .filter(|elem| elem.state == State::Element)
                    .fold(d * d, |fill, elem| fill.saturating_sub((elem.wlen as u64).pow(2)))
            }
        }
    }

    /// Turns pivot `p` into an element and updates the variables it reaches.
    fn eliminate(&mut self, p: u32) {
        self.mark += 1;
        let mark = self.mark;
        let mut lp = std::mem::take(&mut self.lp);
        lp.clear();

        // ---- Lp = (Ap ∪ ⋃ Le) \ {p}, deduped with the stamp. ----
        let mut lp_weight = 0u32;
        let mut reach = |nodes: &mut [Node], v: u32| {
            let node = &mut nodes[v as usize];
            if node.state == State::Alive && node.stamp != mark {
                node.stamp = mark;
                lp.push(v);
                lp_weight += node.nv;
            }
        };
        let pi = p as usize;
        self.nodes[pi].stamp = mark;
        let (vars, elems) = (self.nodes[pi].vars(), self.nodes[pi].elems());
        let room = vars.len() + elems.len();
        for q in vars {
            reach(&mut self.nodes, self.arena[q]);
        }
        for q in elems {
            let e = self.arena[q] as usize;
            if self.nodes[e].state != State::Element {
                continue;
            }
            for r in self.nodes[e].chunk() {
                reach(&mut self.nodes, self.arena[r]);
            }
            // Element e is absorbed by the new element p.
            self.nodes[e].state = State::Dead;
            self.nodes[e].vlen = 0;
        }

        // Element p: its members take over p's own chunk when they fit,
        // and otherwise come off the free tail.
        let node = &mut self.nodes[pi];
        self.alive_weight -= node.nv;
        node.state = State::Element;
        (node.degree, node.wlen) = (lp_weight, lp_weight);
        (node.vlen, node.elen) = (0, 0); // p's old lists are not worth compacting
        if lp.len() > room {
            if self.top + lp.len() > self.arena.len() {
                self.compact();
            }
            self.nodes[pi].start = self.top as u32;
            self.top += lp.len();
        }
        let at = self.nodes[pi].start as usize;
        self.arena[at..at + lp.len()].copy_from_slice(&lp);
        self.nodes[pi].vlen = lp.len() as u32;

        if !lp.is_empty() {
            self.update_reached(p, &lp, lp_weight);
        }
        self.lp = lp;
    }

    /// Degrees, lists, supervariables and scores of the members of `Lp`.
    fn update_reached(&mut self, p: u32, lp: &[u32], lp_weight: u32) {
        let mark = self.mark;

        // ---- Pass 1: wlen[e] = |Le \ Lp| for every element touching Lp. ----
        for &i in lp {
            let (nv, elems) = (self.nodes[i as usize].nv, self.nodes[i as usize].elems());
            for q in elems {
                let e = self.arena[q] as usize;
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
        // Lp members are stamped with `mark`. Degree and hash are summed
        // while filtering; the degree in `u64`, as element terms can add up
        // past `n` before the cap.
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        for (k, &i) in lp.iter().enumerate() {
            let node = &self.nodes[i as usize];
            let (nv, Range { start, end: vend }, old_end) =
                (node.nv, node.vars(), node.chunk().end);
            let (nodes, arena) = (&self.nodes, &mut self.arena[..]);
            let mut hash = HASH_SEED;
            let mut degree = (lp_weight - nv) as u64;

            // Variables: drop dead ones and members of Lp (element p
            // covers those now); note whether what is kept is in order.
            let mut elems = start;
            let mut sorted = true;
            for q in start..vend {
                let v = arena[q];
                let var = &nodes[v as usize];
                if var.state == State::Alive && var.stamp != mark {
                    sorted &= elems == start || arena[elems - 1] < v;
                    arena[elems] = v;
                    elems += 1;
                    degree += var.nv as u64;
                    hash = hash.wrapping_add(var_hash(v));
                }
            }
            if !sorted {
                elems = sort_once(arena, start..elems);
                (hash, degree) = (HASH_SEED, (lp_weight - nv) as u64);
                for &v in &arena[start..elems] {
                    degree += nodes[v as usize].nv as u64;
                    hash = hash.wrapping_add(var_hash(v));
                }
            }

            // Elements, moved down to follow the variables: the live ones
            // of the sorted body, then the previous newest in its place.
            let mut end = elems;
            let mut keep = |arena: &mut [u32], e: u32, at: usize| {
                let elem = &nodes[e as usize];
                // wlen[e] was set to |Le \ Lp| in pass 1.
                debug_assert_eq!(elem.stamp, mark);
                degree += elem.wlen as u64;
                hash ^= elem_hash(e);
                arena[at] = e;
            };
            if old_end > vend {
                for q in vend..old_end - 1 {
                    let e = arena[q];
                    if nodes[e as usize].state == State::Element {
                        debug_assert!(end == elems || arena[end - 1] < e, "element list of {i}");
                        keep(arena, e, end);
                        end += 1;
                    }
                }
                let newest = arena[old_end - 1];
                if nodes[newest as usize].state == State::Element {
                    let mut at = end;
                    while at > elems && arena[at - 1] > newest {
                        arena[at] = arena[at - 1];
                        at -= 1;
                    }
                    keep(arena, newest, at);
                    end += 1;
                }
            }
            // Append p: it takes the slot of p itself or of an element p
            // absorbed, one of which was in these lists.
            assert!(end < old_end, "adjacency of {i} and {p} is not symmetric");
            arena[end] = p;
            hash ^= elem_hash(p);
            let cap = self.alive_weight.saturating_sub(nv);
            let node = &mut self.nodes[i as usize];
            (node.vlen, node.elen) = ((elems - start) as u32, (end + 1 - elems) as u32);
            node.degree = degree.min(cap as u64) as u32;
            keyed.push(((hash ^ hash >> 32) << 32) | k as u64);
        }

        // ---- Supervariable detection within Lp (cheap hash + exact check). ----
        // Sorted by (hash, position in Lp): equal lists end up in one run,
        // still in Lp order, and the first of them absorbs the rest. A run
        // may hold several classes of equal lists (the hash is folded to 32
        // bits); each class merges into its first member all the same.
        keyed.sort_unstable();
        for run in keyed.chunk_by(|a, b| a >> 32 == b >> 32) {
            for (x, &key) in run.iter().enumerate() {
                let i = lp[key as u32 as usize];
                if self.nodes[i as usize].state != State::Alive {
                    continue;
                }
                for &key in &run[x + 1..] {
                    let j = lp[key as u32 as usize];
                    if self.nodes[j as usize].state == State::Alive && self.same_lists(i, j) {
                        self.absorb(i, j);
                    }
                }
            }
        }
        self.keyed = keyed;

        // ---- Final scores. ----
        for &i in lp {
            if self.nodes[i as usize].state != State::Alive {
                continue;
            }
            // Absorptions shrink external degree; recompute the cheap part.
            let node = &mut self.nodes[i as usize];
            node.degree = node.degree.min(self.alive_weight.saturating_sub(node.nv));
            self.heap.update(i, self.score(i));
        }
    }

    fn lists(&self, i: usize) -> &[u32] {
        &self.arena[self.nodes[i].chunk()]
    }

    fn same_lists(&self, i: u32, j: u32) -> bool {
        let (i, j) = (i as usize, j as usize);
        self.nodes[i].vlen == self.nodes[j].vlen && self.lists(i) == self.lists(j)
    }

    /// Merges variable `j` into the indistinguishable variable `i`.
    fn absorb(&mut self, i: u32, j: u32) {
        let (iu, ju) = (i as usize, j as usize);
        self.nodes[iu].nv += self.nodes[ju].nv;
        let node = &mut self.nodes[ju];
        (node.nv, node.vlen, node.elen) = (0, 0, 0);
        node.state = State::Absorbed;
        self.next[self.tail[iu] as usize] = j;
        self.tail[iu] = self.tail[ju];
        self.heap.remove(j);
    }

    /// Moves every live chunk to the front of the arena, in place and in
    /// order, and frees the rest. Allocates nothing: the chunks are put in
    /// arena order in the `keyed` scratch.
    fn compact(&mut self) {
        let before = if cfg!(debug_assertions) { self.lists_digest() } else { 0 };
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        keyed.extend(
            (0..self.nodes.len() as u32)
                .filter(|&x| !self.nodes[x as usize].chunk().is_empty())
                .map(|x| (self.nodes[x as usize].start as u64) << 32 | x as u64),
        );
        keyed.sort_unstable();
        self.top = 0;
        for &key in &keyed {
            let node = &mut self.nodes[key as u32 as usize];
            let chunk = node.chunk();
            let len = chunk.len();
            self.arena.copy_within(chunk, self.top);
            node.start = self.top as u32;
            self.top += len;
        }
        self.keyed = keyed;
        self.compactions += 1;
        debug_assert_eq!(before, self.lists_digest(), "compaction changed a list");
    }

    /// FNV-1a of every node's lists in id order, lengths included: what a
    /// compaction must leave as it was.
    fn lists_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for x in 0..self.nodes.len() {
            let list = self.lists(x);
            for &w in std::iter::once(&(list.len() as u32)).chain(list) {
                h = (h ^ w as u64).wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// `|Le|` by a scan of the members: what `degree[e]` stores.
    fn scanned_weight(&self, e: usize) -> u32 {
        self.lists(e)
            .iter()
            .map(|&v| &self.nodes[v as usize])
            .filter(|var| var.state == State::Alive)
            .map(|var| var.nv)
            .sum()
    }

    /// True when the heap holds exactly the live principal variables, each
    /// where `pos` says, in heap order.
    fn heap_is_exact(&self) -> bool {
        let items = &self.heap.items;
        let alive = self.nodes.iter().filter(|node| node.state == State::Alive).count();
        alive == items.len()
            && items.iter().enumerate().all(|(k, &(_, id))| {
                self.nodes[id as usize].state == State::Alive
                    && self.heap.pos[id as usize] as usize == k
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::{nested_dissection, NdOptions};
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_sparse::Graph;
    use proptest::prelude::*;

    /// Symmetric graph on `n` vertices from arbitrary vertex pairs.
    fn graph_of(n: usize, pairs: &[(usize, usize)]) -> Graph {
        let mut adj = vec![std::collections::BTreeSet::new(); n];
        for &(a, b) in pairs {
            if a % n != b % n {
                adj[a % n].insert(b % n);
                adj[b % n].insert(a % n);
            }
        }
        let mut ptr = vec![0];
        let flat: Vec<usize> = adj.iter().flatten().copied().collect();
        ptr.extend(adj.iter().scan(0, |at, list| {
            *at += list.len();
            Some(*at)
        }));
        Graph::from_raw_parts(ptr, flat)
    }

    /// A seeded graph on `n` vertices with every shape the engine has a
    /// special path for: two blocks never linked to each other, a tail of
    /// isolated vertices, one dense row, a clique, and twins (copies of
    /// another vertex's adjacency, which must merge into supervariables).
    /// With `shuffle`, every adjacency list is stored out of order.
    fn shaped_graph(seed: u64, n: usize, shuffle: bool) -> Graph {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (split, used) = (n / 2, n - n / 8);
        let mut pairs = Vec::new();
        let avg_deg = rng.gen_range(1usize..7);
        for block in [0..split, split..used] {
            for _ in 0..block.len() * avg_deg / 2 {
                pairs.push((rng.gen_range(block.clone()), rng.gen_range(block.clone())));
            }
        }
        let hub = rng.gen_range(0..split);
        pairs.extend((0..split).filter(|_| rng.gen_bool(0.7)).map(|v| (hub, v)));
        let k = rng.gen_range(3usize..12).min(used - split);
        for a in split..split + k {
            pairs.extend((split..a).map(|b| (a, b)));
        }
        let g = graph_of(n, &pairs);
        // Twins take over isolated vertices, so some stay isolated.
        for twin in used..used + (n - used) / 2 {
            let v = rng.gen_range(0..used);
            pairs.extend(g.neighbors(v).iter().map(|&w| (twin, w)));
            if rng.gen_bool(0.5) {
                pairs.push((twin, v));
            }
        }
        let g = graph_of(n, &pairs);
        let mut ptr = vec![0];
        let mut flat = Vec::new();
        for v in 0..n {
            let at = flat.len();
            flat.extend_from_slice(g.neighbors(v));
            if shuffle {
                for i in (at + 1..flat.len()).rev() {
                    flat.swap(i, rng.gen_range(at..=i));
                }
            }
            ptr.push(flat.len());
        }
        Graph::from_raw_parts(ptr, flat)
    }

    fn loaded(g: &Graph, metric: Metric) -> Engine {
        let mut engine = Engine::new(metric);
        engine.load(g.n(), |i| g.neighbors(i).iter().copied());
        engine
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Every vertex leaves exactly once, whatever the graph; in debug
        /// builds the run also checks, at every pivot, each stored element
        /// weight against a scan, and the heap and every compaction at
        /// intervals.
        #[test]
        fn orders_arbitrary_graphs_with_every_invariant_holding(
            n in 1usize..90,
            pairs in prop::collection::vec((0usize..90, 0usize..90), 0..400),
            fill in any::<bool>(),
        ) {
            let g = graph_of(n, &pairs);
            let metric = if fill { Metric::ApproxFill } else { Metric::ApproxDegree };
            let mut seen = vec![false; n];
            let mut engine = Engine::new(metric);
            engine.order(n, |i| g.neighbors(i).iter().copied(), |v| {
                prop_assert!(!std::mem::replace(&mut seen[v], true), "{} ordered twice", v);
            });
            prop_assert!(seen.iter().all(|&s| s));
            prop_assert!(engine.heap.items.is_empty() && engine.heap_is_exact());
            // The dissection drives the same engine leaf after leaf.
            let nd = NdOptions { leaf_size: 4, leaf_metric: metric, max_imbalance: 0.65 };
            prop_assert_eq!(nested_dissection(&g, &nd).len(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The engine gives the elimination order of the one it replaced
        /// (`reference`, which sorted every pruned list), under both
        /// metrics, fresh and reused after another graph as the dissection
        /// reuses it.
        #[test]
        fn equals_the_reference_engine(
            seed in any::<u64>(),
            n in 8usize..300,
            shuffle in any::<bool>(),
            fill in any::<bool>(),
        ) {
            let g = shaped_graph(seed, n, shuffle);
            let metric = if fill { Metric::ApproxFill } else { Metric::ApproxDegree };
            let want = reference::min_degree(&g, metric);
            prop_assert_eq!(&min_degree(&g, metric), &want);
            let mut engine = Engine::new(metric);
            let other = shaped_graph(seed ^ 1, 308 - n, !shuffle);
            engine.order(other.n(), |i| other.neighbors(i).iter().copied(), |_| ());
            let mut got = Vec::with_capacity(n);
            engine.order(n, |i| g.neighbors(i).iter().copied(), |v| got.push(v));
            prop_assert_eq!(&got[..], want.elimination_order());
        }
    }

    #[test]
    fn the_arena_is_compacted_when_fill_outgrows_it() {
        let g = Graph::from_matrix(&grid2d(30, 30, Stencil::Star));
        let mut engine = Engine::new(Metric::ApproxDegree);
        engine.order(g.n(), |i| g.neighbors(i).iter().copied(), |_| ());
        assert!(engine.compactions > 0, "no compaction: the debug check of it never ran");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "element")]
    fn a_wrong_stored_element_weight_is_caught() {
        let g = Graph::from_matrix(&grid2d(6, 6, Stencil::Star));
        let mut engine = loaded(&g, Metric::ApproxDegree);
        while let Some(p) = engine.heap.pop() {
            engine.eliminate(p);
            engine.nodes[p as usize].degree += 1;
        }
    }

    #[test]
    fn a_variable_missing_from_the_heap_is_caught() {
        let g = Graph::from_matrix(&grid2d(6, 6, Stencil::Star));
        let mut engine = loaded(&g, Metric::ApproxFill);
        assert!(engine.heap_is_exact());
        engine.heap.remove(7);
        assert!(!engine.heap_is_exact());
    }

    /// Exact fill count by naive symbolic elimination (small graphs only).
    fn exact_fill(g: &Graph, order: &[usize]) -> u64 {
        let p = Permutation::from_elimination_order(order.to_vec()).unwrap();
        crate::stats::exact_fill(g, &p)
    }

    #[test]
    fn produces_valid_permutation() {
        let a = grid2d(8, 8, Stencil::Star);
        let g = Graph::from_matrix(&a);
        for metric in [Metric::ApproxDegree, Metric::ApproxFill] {
            let p = min_degree(&g, metric);
            assert_eq!(p.len(), 64);
        }
    }

    #[test]
    fn beats_natural_order_on_grid() {
        let a = grid2d(12, 12, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let natural: Vec<usize> = (0..g.n()).collect();
        let fill_nat = exact_fill(&g, &natural);
        for metric in [Metric::ApproxDegree, Metric::ApproxFill] {
            let p = min_degree(&g, metric);
            let fill_md = exact_fill(&g, p.elimination_order());
            assert!(fill_md < fill_nat, "{:?}: fill {} !< natural {}", metric, fill_md, fill_nat);
        }
    }

    #[test]
    fn path_graph_has_zero_fill() {
        // A path eliminated from the ends produces no fill; min degree
        // must find a zero-fill (perfect) ordering.
        let n = 30;
        let mut coo = mf_sparse::CooMatrix::new_symmetric(n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..n {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let p = min_degree(&g, Metric::ApproxDegree);
        assert_eq!(exact_fill(&g, p.elimination_order()), 0);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut coo = mf_sparse::CooMatrix::new_symmetric(6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(1, 0, 1.0).unwrap();
        coo.push(4, 3, 1.0).unwrap();
        let g = Graph::from_matrix(&coo.to_csc());
        let p = min_degree(&g, Metric::ApproxDegree);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn handles_complete_graph() {
        let n = 8;
        let mut coo = mf_sparse::CooMatrix::new_symmetric(n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            for j in 0..i {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let p = min_degree(&g, Metric::ApproxFill);
        assert_eq!(p.len(), n);
        assert_eq!(exact_fill(&g, p.elimination_order()), 0);
    }

    #[test]
    fn deterministic() {
        let a = grid2d(10, 9, Stencil::Box);
        let g = Graph::from_matrix(&a);
        let p1 = min_degree(&g, Metric::ApproxDegree);
        let p2 = min_degree(&g, Metric::ApproxDegree);
        assert_eq!(p1, p2);
    }

    #[test]
    fn amd_and_amf_differ_on_structured_problems() {
        let a = grid2d(14, 14, Stencil::Box);
        let g = Graph::from_matrix(&a);
        let amd = min_degree(&g, Metric::ApproxDegree);
        let amf = min_degree(&g, Metric::ApproxFill);
        assert_ne!(amd, amf, "metrics should generally disagree");
    }
}
