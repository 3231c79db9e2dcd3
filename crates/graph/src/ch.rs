//! Contraction hierarchy: the freeze-time shortcut graph behind the
//! fast `PATH` tier.
//!
//! A contraction hierarchy orders the nodes by importance and
//! *contracts* them one at a time: when a node `v` is removed, any
//! shortest path `u → v → w` that has no equally cheap detour around
//! `v` (established by a bounded *witness* search) is preserved by a
//! shortcut edge `u → w` whose weight is the sum of the two halves.
//! After all nodes are contracted, every edge — original or shortcut —
//! either *rises* (head ranked above tail) or *falls*, and any
//! shortest `src → dst` distance is realized by a path that first
//! rises from `src` and then falls into `dst`. Queries therefore meet
//! in the middle: a forward search over the upward half from `src`, a
//! backward search over the downward half from `dst`, both confined to
//! tiny cones near the top of the hierarchy.
//!
//! # What the weights mean
//!
//! [`ChIndex::build`] takes one weight per frozen edge, supplied by
//! the caller. The router derives these from its cost model as a
//! **source-independent lower bound** on what the mapper would charge
//! for the edge (state-dependent penalties bounded to zero — see
//! `pathalias-router`). CH distances over such weights lower-bound the
//! mapper's true path costs, which is exactly what the certified
//! point-to-point search needs: the hierarchy *accelerates* the exact
//! search by bounding it, it never replaces the mapper's arithmetic.
//!
//! # Building it
//!
//! Construction follows Geisberger et al., "Contraction Hierarchies:
//! Faster and Simpler Hierarchical Routing in Road Networks" (WEA 2008).
//! A witness search exists only to prove a shortcut redundant, so a
//! target counts as witnessed the moment an edge reaches it within its
//! limit. Pathalias networks need that: each is a star whose hub
//! reaches every member at weight 0, and a target the hub reaches at
//! exactly its limit would otherwise wait in the heap behind hundreds
//! of equal-cost members. With the budgets below re-sized after it, the
//! paper world builds in ~0.6 s instead of ~4 s (see ARCHITECTURE.md,
//! "Building the hierarchy").
//!
//! # Trust model
//!
//! A [`ChIndex`] loaded from a snapshot section is structurally
//! validated ([`ChIndex::validate_against`]): rank is a permutation,
//! rows are monotone, every original edge really exists in the frozen
//! CSR with the recorded endpoints, every shortcut nests (middle node
//! ranked below both endpoints) and carries the sum of its halves.
//! Those checks guarantee every CH path corresponds to a real path of
//! equal weight. *Completeness* — that no shortcut is missing — cannot
//! be re-verified cheaply and is trusted the same way edge costs are:
//! the checksum catches accidental corruption, and the router's parity
//! suite plus the CH-vs-no-CH end-to-end diff guard the construction
//! itself.

use crate::cost::Cost;
use crate::frozen::{EdgeId, FrozenGraph};
use crate::graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel in the second child slot marking an original (non-shortcut)
/// edge: its first slot is then a forward [`EdgeId`], not a CH ref.
pub const CH_ORIGINAL: u32 = u32::MAX;

/// Settle budget for the witness search run while actually contracting:
/// an inconclusive search just adds the (always-safe) shortcut. A
/// search that can witness mostly does so early, since targets are
/// decided on relaxation; what reaches the budget is mostly searches
/// that cannot. On the paper world 512 leaves 6.5k shortcuts where
/// 2048 left 7.3k before that rule; 256 leaves 7.1k, and 1024 builds
/// 6.2k more slowly.
const WITNESS_SETTLE_BUDGET: usize = 512;
/// Smaller settle budget for the priority simulation, which only needs
/// an estimate of how many shortcuts a contraction would add. Giving
/// up early overestimates, which only delays a node: on the paper
/// world 8 builds faster than 16 or 32 and leaves fewer shortcuts.
const SIM_SETTLE_BUDGET: usize = 8;
/// Above this many `in × out` pairs the simulation skips witness
/// searches entirely and pessimistically assumes every pair needs a
/// shortcut — dense hubs float to the top of the hierarchy either way.
const SIM_PAIR_CAP: usize = 64;

/// A contraction hierarchy over a [`FrozenGraph`] and a caller-supplied
/// per-edge weight vector.
///
/// Storage is two CSR halves sharing one *ref* space. Refs
/// `0..up_count` are **upward** edges (head ranked above tail), grouped
/// by tail so a forward search can relax everything rising out of a
/// node. Refs `up_count..` are **downward** edges stored *transposed* —
/// grouped by head — so a backward search from the destination can walk
/// everything falling into a node. Each ref carries two child slots:
/// `(edge_id, CH_ORIGINAL)` for an original edge, or the refs of its
/// two halves for a shortcut, which is how [`ChIndex::unpack_into`]
/// recovers concrete [`EdgeId`] paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChIndex {
    /// Contraction order: `rank[v]` is the step at which `v` was
    /// contracted; higher rank = more important.
    pub(crate) rank: Vec<u32>,
    /// Upward CSR row starts by tail node (`n + 1` entries).
    pub(crate) up_row: Vec<u32>,
    /// Head of each upward edge.
    pub(crate) up_to: Vec<u32>,
    /// Weight of each upward edge.
    pub(crate) up_w: Vec<Cost>,
    /// First child slot of each upward edge (see [`CH_ORIGINAL`]).
    pub(crate) up_a: Vec<u32>,
    /// Second child slot of each upward edge.
    pub(crate) up_b: Vec<u32>,
    /// Downward CSR row starts by *head* node (`n + 1` entries).
    pub(crate) down_row: Vec<u32>,
    /// Tail of each downward edge.
    pub(crate) down_from: Vec<u32>,
    /// Weight of each downward edge.
    pub(crate) down_w: Vec<Cost>,
    /// First child slot of each downward edge.
    pub(crate) down_a: Vec<u32>,
    /// Second child slot of each downward edge.
    pub(crate) down_b: Vec<u32>,
}

/// One hierarchy edge as seen from a query: the far endpoint, the
/// lower-bound weight, and the global ref for unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChEdge {
    /// The endpoint on the other side (head for upward edges iterated
    /// by tail, tail for downward edges iterated by head).
    pub node: NodeId,
    /// The edge weight in the metric the hierarchy was built over.
    pub weight: Cost,
    /// Global ref, usable with [`ChIndex::unpack_into`].
    pub edge: u32,
}

impl ChIndex {
    /// Builds a hierarchy over `f` using one `weights` entry per frozen
    /// edge (self-loops are ignored; parallel edges keep the cheapest).
    ///
    /// Node order is chosen greedily by *edge difference* (shortcuts a
    /// contraction would add minus edges it removes) plus a contracted-
    /// neighbors depth term, with lazy re-evaluation on a priority
    /// heap — the standard construction heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != f.edge_count()`.
    pub fn build(f: &FrozenGraph, weights: &[Cost]) -> ChIndex {
        assert_eq!(weights.len(), f.edge_count(), "one weight per frozen edge");
        let n = f.node_count();
        let mut b = Builder::new(n);
        b.seed(f, weights);
        b.contract_all();
        b.assemble(n)
    }

    /// Number of nodes the hierarchy covers.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }

    /// Number of upward edges.
    #[inline]
    pub fn up_count(&self) -> usize {
        self.up_to.len()
    }

    /// Number of downward edges.
    #[inline]
    pub fn down_count(&self) -> usize {
        self.down_from.len()
    }

    /// Number of shortcut (non-original) edges across both halves.
    pub fn shortcut_count(&self) -> usize {
        self.up_b.iter().filter(|&&b| b != CH_ORIGINAL).count()
            + self.down_b.iter().filter(|&&b| b != CH_ORIGINAL).count()
    }

    /// Contraction rank of `v`; higher ranks were contracted later and
    /// sit nearer the top of the hierarchy.
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Iterates the upward edges out of `u` (heads ranked above `u`).
    #[inline]
    pub fn up_edges(&self, u: NodeId) -> impl Iterator<Item = ChEdge> + '_ {
        let i = u.index();
        let r = self.up_row[i] as usize..self.up_row[i + 1] as usize;
        r.map(move |s| ChEdge {
            node: NodeId::from_raw(self.up_to[s]),
            weight: self.up_w[s],
            edge: s as u32,
        })
    }

    /// Iterates the downward edges *into* `v` (tails ranked above `v`):
    /// the transposed half a backward search from a destination walks.
    #[inline]
    pub fn down_into(&self, v: NodeId) -> impl Iterator<Item = ChEdge> + '_ {
        let i = v.index();
        let r = self.down_row[i] as usize..self.down_row[i + 1] as usize;
        let up = self.up_to.len();
        r.map(move |s| ChEdge {
            node: NodeId::from_raw(self.down_from[s]),
            weight: self.down_w[s],
            edge: (up + s) as u32,
        })
    }

    #[inline]
    fn parts(&self, r: usize) -> Option<(u32, u32)> {
        let up = self.up_to.len();
        if r < up {
            Some((self.up_a[r], self.up_b[r]))
        } else {
            let j = r - up;
            self.down_a.get(j).map(|&a| (a, self.down_b[j]))
        }
    }

    #[inline]
    fn weight_of(&self, r: usize) -> Cost {
        let up = self.up_to.len();
        if r < up {
            self.up_w[r]
        } else {
            self.down_w[r - up]
        }
    }

    /// Expands ref `r` into the forward [`EdgeId`] sequence it stands
    /// for, appending to `out` in path order. Iterative, with a step
    /// budget so hostile (structurally valid but degenerate) data
    /// cannot hang a query: on budget exhaustion or a dangling ref the
    /// partial expansion is discarded and `false` is returned — callers
    /// treat that as "no CH answer" and fall back.
    pub fn unpack_into(&self, r: u32, out: &mut Vec<EdgeId>) -> bool {
        let total = self.up_to.len() + self.down_from.len();
        let budget = 8 * total + 32;
        let mark = out.len();
        let mut stack: Vec<u32> = Vec::with_capacity(16);
        stack.push(r);
        let mut steps = 0usize;
        while let Some(r) = stack.pop() {
            steps += 1;
            if steps > budget {
                out.truncate(mark);
                return false;
            }
            let Some((a, b)) = self.parts(r as usize) else {
                out.truncate(mark);
                return false;
            };
            if b == CH_ORIGINAL {
                out.push(EdgeId::from_raw(a));
            } else {
                // Pop order: first half before second half.
                stack.push(b);
                stack.push(a);
            }
        }
        true
    }

    /// Structural validation against the graph the hierarchy claims to
    /// cover, for data loaded from a snapshot section: lengths, rank
    /// permutation, monotone rows, rising/falling direction per half,
    /// original edges present in the forward CSR with matching
    /// endpoints, shortcuts properly nested (middle node ranked below
    /// both endpoints, halves chaining tail→mid→head) and weighted as
    /// the saturating sum of their halves. See the module docs for
    /// what this deliberately does *not* prove (completeness).
    pub fn validate_against(&self, f: &FrozenGraph) -> bool {
        let n = f.node_count();
        let up = self.up_to.len();
        let down = self.down_from.len();
        if self.rank.len() != n
            || self.up_row.len() != n + 1
            || self.down_row.len() != n + 1
            || self.up_w.len() != up
            || self.up_a.len() != up
            || self.up_b.len() != up
            || self.down_w.len() != down
            || self.down_a.len() != down
            || self.down_b.len() != down
            || self.up_row[0] != 0
            || self.down_row[0] != 0
            || self.up_row[n] as usize != up
            || self.down_row[n] as usize != down
        {
            return false;
        }
        let mut seen = vec![false; n];
        for &r in &self.rank {
            let Some(s) = seen.get_mut(r as usize) else {
                return false;
            };
            if *s {
                return false;
            }
            *s = true;
        }
        // Monotonicity over both whole tables first: with the final
        // entries pinned to up/down above, this bounds every row before
        // anything indexes through them (this runs on untrusted bytes).
        for v in 0..n {
            if self.up_row[v] > self.up_row[v + 1] || self.down_row[v] > self.down_row[v + 1] {
                return false;
            }
        }
        for &h in &self.up_to {
            if h as usize >= n {
                return false;
            }
        }
        for &t in &self.down_from {
            if t as usize >= n {
                return false;
            }
        }
        // Endpoints of every ref, derived from row ownership.
        let total = up + down;
        let mut tail = vec![0u32; total];
        let mut head = vec![0u32; total];
        for v in 0..n {
            for s in self.up_row[v] as usize..self.up_row[v + 1] as usize {
                tail[s] = v as u32;
                head[s] = self.up_to[s];
            }
            for s in self.down_row[v] as usize..self.down_row[v + 1] as usize {
                tail[up + s] = self.down_from[s];
                head[up + s] = v as u32;
            }
        }
        for r in 0..total {
            let (t, h) = (tail[r] as usize, head[r] as usize);
            let rising = r < up;
            if rising {
                if self.rank[t] >= self.rank[h] {
                    return false;
                }
            } else if self.rank[t] <= self.rank[h] {
                return false;
            }
            let (a, b) = self.parts(r).expect("r < total");
            if b == CH_ORIGINAL {
                let Some(fe) = f.edges.get(a as usize) else {
                    return false;
                };
                if fe.to as usize != h || !f.row(t).contains(&(a as usize)) {
                    return false;
                }
            } else {
                let (ai, bi) = (a as usize, b as usize);
                if ai >= total || bi >= total {
                    return false;
                }
                if tail[ai] as usize != t || head[bi] as usize != h || head[ai] != tail[bi] {
                    return false;
                }
                let mid = head[ai] as usize;
                if self.rank[mid] >= self.rank[t] || self.rank[mid] >= self.rank[h] {
                    return false;
                }
                if self.weight_of(r) != self.weight_of(ai).saturating_add(self.weight_of(bi)) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that every original edge in the hierarchy carries exactly
    /// the given weight for its [`EdgeId`] — how an engine verifies a
    /// loaded hierarchy was built over *its* cost model before trusting
    /// its bounds. Shortcut weights are covered transitively (each is
    /// the sum of its halves, enforced by [`ChIndex::validate_against`]).
    pub fn weights_consistent(&self, weights: &[Cost]) -> bool {
        let total = self.up_to.len() + self.down_from.len();
        for r in 0..total {
            let Some((a, b)) = self.parts(r) else {
                return false;
            };
            if b == CH_ORIGINAL {
                match weights.get(a as usize) {
                    Some(&w) if w == self.weight_of(r) => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// One edge of the construction-time core graph. `a`/`b` follow the
/// same convention as the final arrays, except that shortcut children
/// are *temp* ids until [`Builder::assemble`] remaps them to refs.
struct Temp {
    from: u32,
    to: u32,
    w: Cost,
    a: u32,
    b: u32,
}

/// One live core edge as its endpoint's list holds it: the node on the
/// other side, the weight, and the temp id for [`Builder::assemble`].
type CoreEdge = (u32, Cost, u32);

struct Builder {
    temps: Vec<Temp>,
    /// Live adjacency by tail (`out`, far end = head) and by head
    /// (`inn`, far end = tail). Contracting a node removes its entries
    /// from its neighbours' lists, so every entry is live.
    out: Vec<Vec<CoreEdge>>,
    inn: Vec<Vec<CoreEdge>>,
    contracted: Vec<bool>,
    rank: Vec<u32>,
    /// Contracted-neighbors depth term of the priority heuristic.
    depth: Vec<u32>,
    // Witness-search scratch, generation-stamped so each search starts
    // clean without clearing the arrays.
    wit_dist: Vec<Cost>,
    wit_stamp: Vec<u32>,
    wit_gen: u32,
    wit_heap: BinaryHeap<Reverse<(Cost, u32)>>,
    // Multi-target marks for one witness search deciding many pairs.
    tgt_limit: Vec<Cost>,
    tgt_idx: Vec<u32>,
    tgt_stamp: Vec<u32>,
    wit_mark: Vec<bool>,
}

impl Builder {
    fn new(n: usize) -> Builder {
        Builder {
            temps: Vec::new(),
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            contracted: vec![false; n],
            rank: vec![0; n],
            depth: vec![0; n],
            wit_dist: vec![0; n],
            wit_stamp: vec![0; n],
            wit_gen: 0,
            wit_heap: BinaryHeap::new(),
            tgt_limit: vec![0; n],
            tgt_idx: vec![0; n],
            tgt_stamp: vec![0; n],
            wit_mark: Vec::new(),
        }
    }

    /// Seeds the core graph: the cheapest forward edge per distinct
    /// `(tail, head)` pair (the first in row order among equals),
    /// self-loops dropped, emitted in row order so temp ids are
    /// deterministic.
    fn seed(&mut self, f: &FrozenGraph, weights: &[Cost]) {
        let mut best: Vec<(u32, Cost, usize)> = Vec::new();
        for u in 0..f.node_count() {
            best.clear();
            best.extend(f.row(u).map(|e| (f.edges[e].to, weights[e], e)));
            best.retain(|&(v, _, _)| v as usize != u);
            best.sort_unstable();
            best.dedup_by_key(|&mut (v, _, _)| v);
            best.sort_unstable_by_key(|&(_, _, e)| e);
            for &(v, w, e) in &best {
                let t = self.temps.len() as u32;
                self.temps.push(Temp {
                    from: u as u32,
                    to: v,
                    w,
                    a: e as u32,
                    b: CH_ORIGINAL,
                });
                self.out[u].push((v, w, t));
                self.inn[v as usize].push((u as u32, w, t));
            }
        }
    }

    /// The distinct neighbours in one of `v`'s lists as `(node, weight,
    /// temp)`, parallel edges collapsed to the cheapest (lowest temp
    /// among equals), sorted by node for determinism.
    fn live(list: &[CoreEdge]) -> Vec<CoreEdge> {
        let mut live = list.to_vec();
        live.sort_unstable();
        live.dedup_by_key(|&mut (x, _, _)| x);
        live
    }

    /// One bounded local Dijkstra from `u` through the live core
    /// (skipping `excluded`) that decides *every* `(u, out)` pair of a
    /// contraction at once: `witnessed[i]` is set when a path to
    /// `outs[i]` of cost at most `wi + outs[i].weight` is proven. A
    /// target is witnessed the moment an edge reaches it within its
    /// limit — any path avoiding `excluded` that cheap makes the
    /// shortcut redundant, so nothing waits for the target to settle
    /// behind a star's equal-cost members — and refuted when it
    /// settles above its limit. The search stops once every target is
    /// decided, the frontier passes the largest limit, or the settle
    /// budget runs out. Targets left undecided stay `false` —
    /// inconclusive searches just cost an extra shortcut, never
    /// correctness. Running one search per in-neighbor instead of one
    /// per pair is what keeps contraction of high-degree hubs (network
    /// stars) tractable.
    fn witness_many(
        &mut self,
        u: usize,
        wi: Cost,
        outs: &[CoreEdge],
        excluded: usize,
        base_budget: usize,
        witnessed: &mut [bool],
    ) {
        self.wit_gen = self.wit_gen.wrapping_add(1);
        if self.wit_gen == 0 {
            self.wit_stamp.fill(0);
            self.tgt_stamp.fill(0);
            self.wit_gen = 1;
        }
        let gen = self.wit_gen;
        let mut remaining = 0usize;
        let mut horizon: Cost = 0;
        for (i, &(x, wo, _)) in outs.iter().enumerate() {
            if x as usize == u {
                continue; // not a pair; no shortcut ever needed
            }
            let limit = wi.saturating_add(wo);
            self.tgt_limit[x as usize] = limit;
            self.tgt_idx[x as usize] = i as u32;
            self.tgt_stamp[x as usize] = gen;
            remaining += 1;
            if limit > horizon {
                horizon = limit;
            }
        }
        if remaining == 0 {
            return;
        }
        let budget = base_budget + 2 * outs.len();
        self.wit_heap.clear();
        self.wit_dist[u] = 0;
        self.wit_stamp[u] = gen;
        self.wit_heap.push(Reverse((0, u as u32)));
        let mut settles = 0usize;
        while let Some(Reverse((d, x))) = self.wit_heap.pop() {
            let xi = x as usize;
            if d > self.wit_dist[xi] {
                continue; // stale heap entry
            }
            if d > horizon {
                return; // every live target's limit is behind us
            }
            if self.tgt_stamp[xi] == gen {
                self.tgt_stamp[xi] = 0; // consume: settled distance is final
                if d <= self.tgt_limit[xi] {
                    witnessed[self.tgt_idx[xi] as usize] = true;
                }
                remaining -= 1;
                if remaining == 0 {
                    return;
                }
            }
            settles += 1;
            if settles > budget {
                return;
            }
            for &(y, w, _) in &self.out[xi] {
                let y = y as usize;
                if y == excluded {
                    continue;
                }
                let nd = d.saturating_add(w);
                if nd > horizon {
                    continue;
                }
                if self.tgt_stamp[y] == gen && nd <= self.tgt_limit[y] {
                    self.tgt_stamp[y] = 0; // consume: witnessed on relaxation
                    witnessed[self.tgt_idx[y] as usize] = true;
                    remaining -= 1;
                    if remaining == 0 {
                        return;
                    }
                }
                if self.wit_stamp[y] != gen || nd < self.wit_dist[y] {
                    self.wit_stamp[y] = gen;
                    self.wit_dist[y] = nd;
                    self.wit_heap.push(Reverse((nd, y as u32)));
                }
            }
        }
    }

    /// Edge-difference priority of contracting `v` now: shortcuts the
    /// contraction would add, minus the live edges it removes, plus the
    /// depth term. Lower contracts earlier.
    fn priority(&mut self, v: usize) -> i64 {
        let ins = Builder::live(&self.inn[v]);
        let outs = Builder::live(&self.out[v]);
        let removed = ins.len() + outs.len();
        let pairs = ins
            .iter()
            .map(|&(u, _, _)| outs.iter().filter(|&&(x, _, _)| x != u).count())
            .sum::<usize>();
        let added = if pairs > SIM_PAIR_CAP {
            pairs
        } else {
            let mut mark = std::mem::take(&mut self.wit_mark);
            let mut added = 0usize;
            for &(u, wi, _) in &ins {
                mark.clear();
                mark.resize(outs.len(), false);
                self.witness_many(u as usize, wi, &outs, v, SIM_SETTLE_BUDGET, &mut mark);
                for (i, &(x, _, _)) in outs.iter().enumerate() {
                    if x != u && !mark[i] {
                        added += 1;
                    }
                }
            }
            self.wit_mark = mark;
            added
        };
        added as i64 - removed as i64 + i64::from(self.depth[v])
    }

    fn contract(&mut self, v: usize, next_rank: &mut u32) {
        let ins = Builder::live(&self.inn[v]);
        let outs = Builder::live(&self.out[v]);
        let mut mark = std::mem::take(&mut self.wit_mark);
        for &(u, wi, ti) in &ins {
            mark.clear();
            mark.resize(outs.len(), false);
            self.witness_many(u as usize, wi, &outs, v, WITNESS_SETTLE_BUDGET, &mut mark);
            for (i, &(x, wo, to)) in outs.iter().enumerate() {
                if x == u || mark[i] {
                    continue;
                }
                let (t, w) = (self.temps.len() as u32, wi.saturating_add(wo));
                self.temps.push(Temp {
                    from: u,
                    to: x,
                    w,
                    a: ti,
                    b: to,
                });
                self.out[u as usize].push((x, w, t));
                self.inn[x as usize].push((u, w, t));
            }
        }
        self.wit_mark = mark;
        // Unlink `v`, so searches never scan an edge into the contracted
        // part of the graph.
        let v32 = v as u32;
        for &(u, _, _) in &ins {
            self.out[u as usize].retain(|&(y, _, _)| y != v32);
        }
        for &(x, _, _) in &outs {
            self.inn[x as usize].retain(|&(y, _, _)| y != v32);
        }
        self.out[v] = Vec::new();
        self.inn[v] = Vec::new();
        self.contracted[v] = true;
        self.rank[v] = *next_rank;
        *next_rank += 1;
        let d = self.depth[v] + 1;
        for &(u, _, _) in &ins {
            let dd = &mut self.depth[u as usize];
            if *dd < d {
                *dd = d;
            }
        }
        for &(x, _, _) in &outs {
            let dd = &mut self.depth[x as usize];
            if *dd < d {
                *dd = d;
            }
        }
    }

    /// Contracts every node in priority order with lazy re-evaluation:
    /// a popped node whose recomputed priority no longer beats the heap
    /// top is pushed back instead of contracted.
    fn contract_all(&mut self) {
        let n = self.contracted.len();
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::with_capacity(n);
        for v in 0..n {
            let p = self.priority(v);
            heap.push(Reverse((p, v as u32)));
        }
        let mut next_rank = 0u32;
        while let Some(Reverse((p, v))) = heap.pop() {
            let vi = v as usize;
            if self.contracted[vi] {
                continue;
            }
            let p2 = self.priority(vi);
            if p2 > p {
                if let Some(&Reverse((top, _))) = heap.peek() {
                    if p2 > top {
                        heap.push(Reverse((p2, v)));
                        continue;
                    }
                }
            }
            self.contract(vi, &mut next_rank);
        }
    }

    /// Partitions the temp edges into the two CSR halves (counting sort
    /// in temp-id order, so rows come out deterministic) and remaps
    /// shortcut children from temp ids to final refs.
    fn assemble(self, n: usize) -> ChIndex {
        let Builder { temps, rank, .. } = self;
        let mut up_row = vec![0u32; n + 1];
        let mut down_row = vec![0u32; n + 1];
        for t in &temps {
            if rank[t.from as usize] < rank[t.to as usize] {
                up_row[t.from as usize + 1] += 1;
            } else {
                down_row[t.to as usize + 1] += 1;
            }
        }
        for v in 0..n {
            up_row[v + 1] += up_row[v];
            down_row[v + 1] += down_row[v];
        }
        let up_count = up_row[n] as usize;
        let down_count = down_row[n] as usize;
        let mut up_cur = up_row.clone();
        let mut down_cur = down_row.clone();
        let mut up_to = vec![0u32; up_count];
        let mut up_w = vec![0 as Cost; up_count];
        let mut up_a = vec![0u32; up_count];
        let mut up_b = vec![0u32; up_count];
        let mut down_from = vec![0u32; down_count];
        let mut down_w = vec![0 as Cost; down_count];
        let mut down_a = vec![0u32; down_count];
        let mut down_b = vec![0u32; down_count];
        let mut temp_ref = vec![0u32; temps.len()];
        for (ti, t) in temps.iter().enumerate() {
            if rank[t.from as usize] < rank[t.to as usize] {
                let s = up_cur[t.from as usize] as usize;
                up_cur[t.from as usize] += 1;
                up_to[s] = t.to;
                up_w[s] = t.w;
                temp_ref[ti] = s as u32;
            } else {
                let s = down_cur[t.to as usize] as usize;
                down_cur[t.to as usize] += 1;
                down_from[s] = t.from;
                down_w[s] = t.w;
                temp_ref[ti] = (up_count + s) as u32;
            }
        }
        for (ti, t) in temps.iter().enumerate() {
            let (a, b) = if t.b == CH_ORIGINAL {
                (t.a, CH_ORIGINAL)
            } else {
                (temp_ref[t.a as usize], temp_ref[t.b as usize])
            };
            let r = temp_ref[ti] as usize;
            if r < up_count {
                up_a[r] = a;
                up_b[r] = b;
            } else {
                down_a[r - up_count] = a;
                down_b[r - up_count] = b;
            }
        }
        ChIndex {
            rank,
            up_row,
            up_to,
            up_w,
            up_a,
            up_b,
            down_row,
            down_from,
            down_w,
            down_a,
            down_b,
        }
    }
}

impl FrozenGraph {
    /// Builds a contraction hierarchy over this graph and the given
    /// per-edge weights (see [`ChIndex::build`]).
    pub fn contraction_hierarchy(&self, weights: &[Cost]) -> ChIndex {
        ChIndex::build(self, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::link::RouteOp;

    /// Plain Dijkstra over the weight vector — the oracle the CH
    /// distances must reproduce exactly.
    fn dijkstra(f: &FrozenGraph, weights: &[Cost], src: usize) -> Vec<Option<Cost>> {
        let n = f.node_count();
        let mut dist: Vec<Option<Cost>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = Some(0);
        heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u as usize] != Some(d) {
                continue;
            }
            for e in f.row(u as usize) {
                let v = f.edges[e].to as usize;
                let nd = d.saturating_add(weights[e]);
                if dist[v].map_or(true, |old| nd < old) {
                    dist[v] = Some(nd);
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        dist
    }

    /// Reference CH query: forward over the upward half, backward over
    /// the transposed downward half, best meeting node wins. Returns
    /// the distance and the unpacked edge path.
    fn ch_query(
        _f: &FrozenGraph,
        ch: &ChIndex,
        src: usize,
        dst: usize,
    ) -> Option<(Cost, Vec<EdgeId>)> {
        let n = ch.node_count();
        let mut dist_d: Vec<Option<(Cost, Option<u32>)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist_d[dst] = Some((0, None));
        heap.push(Reverse((0, dst as u32)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if dist_d[v as usize].map(|(c, _)| c) != Some(d) {
                continue;
            }
            for e in ch.down_into(NodeId::from_raw(v)) {
                let u = e.node.index();
                let nd = d.saturating_add(e.weight);
                if dist_d[u].map_or(true, |(c, _)| nd < c) {
                    dist_d[u] = Some((nd, Some(e.edge)));
                    heap.push(Reverse((nd, u as u32)));
                }
            }
        }
        let mut dist_u: Vec<Option<(Cost, Option<u32>)>> = vec![None; n];
        let mut best: Option<(Cost, u32)> = None;
        let mut heap = BinaryHeap::new();
        dist_u[src] = Some((0, None));
        heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist_u[u as usize].map(|(c, _)| c) != Some(d) {
                continue;
            }
            if let Some((bc, _)) = best {
                if d >= bc {
                    break;
                }
            }
            if let Some((dd, _)) = dist_d[u as usize] {
                let through = d.saturating_add(dd);
                if best.map_or(true, |(bc, _)| through < bc) {
                    best = Some((through, u));
                }
            }
            for e in ch.up_edges(NodeId::from_raw(u)) {
                let v = e.node.index();
                let nd = d.saturating_add(e.weight);
                if dist_u[v].map_or(true, |(c, _)| nd < c) {
                    dist_u[v] = Some((nd, Some(e.edge)));
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        let (cost, meet) = best?;
        let mut refs_up = Vec::new();
        let mut x = meet as usize;
        while let Some((_, Some(r))) = dist_u[x] {
            refs_up.push(r);
            // The up half stores heads; recover the tail by walking the
            // rows (test-only, O(n)).
            let mut tail = None;
            for v in 0..n {
                if (ch.up_row[v]..ch.up_row[v + 1]).contains(&r) {
                    tail = Some(v);
                }
            }
            x = tail.unwrap();
        }
        refs_up.reverse();
        let mut path = Vec::new();
        for r in refs_up {
            assert!(ch.unpack_into(r, &mut path));
        }
        let mut x = meet as usize;
        while let Some((_, Some(r))) = dist_d[x] {
            assert!(ch.unpack_into(r, &mut path));
            let s = r as usize - ch.up_count();
            let mut head = None;
            for v in 0..n {
                if (ch.down_row[v]..ch.down_row[v + 1]).contains(&(s as u32)) {
                    head = Some(v);
                }
            }
            x = head.unwrap();
        }
        Some((cost, path))
    }

    fn world(seed: u64, hosts: usize, extra: usize) -> FrozenGraph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..hosts).map(|i| g.node(&format!("h{i}"))).collect();
        // A connected ring plus pseudo-random chords.
        for i in 0..hosts {
            g.declare_link(
                ids[i],
                ids[(i + 1) % hosts],
                100 + (i as u64 % 7) * 50,
                RouteOp::UUCP,
            );
        }
        let mut s = seed | 1;
        for _ in 0..extra {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (s >> 33) as usize % hosts;
            let b = (s >> 17) as usize % hosts;
            if a != b {
                g.declare_link(ids[a], ids[b], 50 + (s % 900), RouteOp::UUCP);
            }
        }
        g.freeze()
    }

    fn plain_weights(f: &FrozenGraph) -> Vec<Cost> {
        (0..f.edge_count()).map(|e| f.edges[e].cost()).collect()
    }

    #[test]
    fn ch_distances_match_dijkstra_everywhere() {
        for seed in [3, 17, 99] {
            let f = world(seed, 24, 40);
            let w = plain_weights(&f);
            let ch = ChIndex::build(&f, &w);
            assert!(ch.validate_against(&f));
            assert!(ch.weights_consistent(&w));
            let n = f.node_count();
            for src in 0..n {
                let want = dijkstra(&f, &w, src);
                for (dst, &want_dst) in want.iter().enumerate() {
                    let got = ch_query(&f, &ch, src, dst);
                    assert_eq!(
                        got.as_ref().map(|&(c, _)| c),
                        want_dst,
                        "seed {seed} src {src} dst {dst}"
                    );
                    if let Some((cost, path)) = got {
                        // The unpacked path is connected, starts at src,
                        // ends at dst, and its weights sum to the answer.
                        let mut at = src;
                        let mut total: Cost = 0;
                        for &e in &path {
                            assert!(f.row(at).contains(&e.index()), "disconnected unpack");
                            total = total.saturating_add(w[e.index()]);
                            at = f.edges[e.index()].to as usize;
                        }
                        assert_eq!(at, dst);
                        assert_eq!(total, cost);
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_tampering() {
        let f = world(7, 12, 12);
        let w = plain_weights(&f);
        let good = ChIndex::build(&f, &w);
        assert!(good.validate_against(&f));

        let mut bad = good.clone();
        if !bad.rank.is_empty() {
            bad.rank[0] = bad.rank[1 % bad.rank.len()];
            assert!(!bad.validate_against(&f), "duplicate rank accepted");
        }

        let mut bad = good.clone();
        if !bad.up_row.is_empty() {
            let n = bad.up_row.len() - 1;
            bad.up_row[n] += 1;
            assert!(!bad.validate_against(&f), "row overrun accepted");
        }

        let mut bad = good.clone();
        if !bad.up_to.is_empty() {
            bad.up_to[0] = u32::MAX;
            assert!(!bad.validate_against(&f), "out-of-range head accepted");
        }

        let mut bad = good.clone();
        if let Some(w0) = bad.up_w.first_mut() {
            *w0 = w0.wrapping_add(1);
            // Either an original now disagreeing with the frozen edge's
            // weight table, or a shortcut whose sum no longer matches —
            // weights_consistent or validate must notice.
            assert!(
                !bad.validate_against(&f) || !bad.weights_consistent(&w),
                "weight tamper accepted"
            );
        }
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let f = Graph::new().freeze();
        let ch = ChIndex::build(&f, &[]);
        assert!(ch.validate_against(&f));
        assert_eq!(ch.up_count() + ch.down_count(), 0);

        let mut g = Graph::new();
        g.node("solo");
        let f = g.freeze();
        let ch = ChIndex::build(&f, &[]);
        assert!(ch.validate_against(&f));
        assert_eq!(ch.node_count(), 1);
    }

    #[test]
    fn parallel_edges_keep_the_cheapest_and_self_loops_drop() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 500, RouteOp::UUCP);
        g.declare_link(a, b, 100, RouteOp::ARPA);
        g.declare_link(a, a, 1, RouteOp::UUCP);
        let f = g.freeze();
        let w = plain_weights(&f);
        let ch = ChIndex::build(&f, &w);
        assert!(ch.validate_against(&f));
        let (cost, _) = ch_query(&f, &ch, a.index(), b.index()).unwrap();
        assert_eq!(Some(cost), dijkstra(&f, &w, a.index())[b.index()]);
    }
}
