//! The point-to-point searches: the exact-forward oracle and its
//! pruned variants (bidirectional, contraction hierarchy).
//!
//! All produce labels **byte-identical** to the mapper's
//! (`pathalias_mapper::map_frozen_readonly`) on the destination's
//! predecessor chain — same cost, same visible-hop count, same path
//! state bits, same tie-broken predecessors. That is the whole game:
//! a `PATH src dst` answer must agree with the tree the daemon would
//! print from `src`, so this module holds no cost rule of its own: a
//! candidate is costed by the mapper's `CostModel::step`, kept or
//! dropped by its `settle` (the `(cost, hops, node)` key order with
//! the `(pred, edge)` tie break), and bounded by its `lower_bound`
//! (`pathalias_mapper::cost_model`). What lives here is one forward
//! label-setting loop, [`forward`], generic over what may prune it.
//!
//! # How the bidirectional variant stays exact
//!
//! Classic bidirectional Dijkstra stitches a meeting point and stops
//! when `top_f + top_b >= mu`. That yields the optimal *cost*, but not
//! the mapper's exact label: the path state (hops, syntax bits,
//! tie-broken predecessors) lives only in the forward relaxation. So
//! the bidirectional search here keeps the forward side exact and uses
//! the backward side as a *pruner*:
//!
//! * A backward Dijkstra from `dst` over the reverse CSR computes
//!   `B(v)`, a **lower bound** on the remaining forward cost from `v`
//!   to `dst`, under `CostModel::lower_bound` edge weights (each
//!   penalty counted only where it provably applies to every forward
//!   path over the edge).
//! * `mu` is the cost of the best *concrete* path seen so far:
//!   whenever a forward-labelled node is backward-settled (or vice
//!   versa), the backward chain is re-costed under full forward
//!   semantics from that label. The destination's own tentative
//!   forward label also feeds `mu`.
//! * A forward candidate is dropped — no label write, no heap push —
//!   only when `cand_cost + B(v) > mu`, strictly.
//!
//! # Certification (why optimism is safe)
//!
//! The mapper is a label-*setting* heuristic over state-dependent
//! penalties (the mixed and relay penalties depend on how a path got
//! there), so it is not optimal: a real path can cost less than the
//! mapper's answer when its intermediate label is shadowed by a
//! lower-key label with different syntax state. That means a stitched
//! real-path `mu` may dip below the mapper's final cost `C`, and a
//! prune against it could cut the oracle's chain.
//!
//! The search therefore *certifies* each run. Any candidate that could
//! have influenced the oracle's final answer — created, improved, or
//! tie-rewritten a label ancestral to `dst`'s chain, in either the
//! oracle's run or this one — provably satisfies
//! `cand_cost + B(v) <= answer cost` (its true remaining cost down the
//! answer chain is at least `B(v)`, a global lower bound). So the loop
//! tracks `worst_prune`, the minimum `cand_cost + B(v)` ever pruned:
//!
//! * `worst_prune > answer cost` — no pruned candidate could have
//!   mattered; the labels (and their ties) are exactly the oracle's.
//!   This is the common case: on shadow-free queries `mu` converges to
//!   `C` itself and every prune exceeds it by construction.
//! * otherwise the run is uncertified and the caller falls back to the
//!   forward oracle — correct by construction, merely slower. This
//!   fires exactly when greedy-vs-optimal shadowing is close enough to
//!   the query to matter.
//!
//! The forward side still settles `dst` itself (that is what makes the
//! answer byte-identical); the speedup comes from the frontier the
//! pruning never materializes. The standard `top_f + top_b` bound
//! appears as the backward side's own stopping rule: once `top_b > mu`
//! the backward search can improve nothing and freezes, leaving its
//! last top as the floor bound for every node it never settled.

use pathalias_graph::{ChIndex, Cost, EdgeId, FrozenGraph, NodeId, ReverseGraph};
use pathalias_mapper::cost_model::{
    key_cost, settle, source_label, unpack_label, Key, Settled, Tail, LABELLED, MAPPED, NO_PRED,
};
use pathalias_mapper::{CostModel, Label};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Backward-side state bits.
const B_LABELLED: u8 = 1 << 0;
const B_SETTLED: u8 = 1 << 1;

/// Backward heap key: cost then node id, so extraction (and therefore
/// the backward tree) is deterministic.
#[inline]
fn pack_bkey(cost: Cost, node: u32) -> Key {
    ((cost as u128) << 32) | node as u128
}

/// Counters from one point-to-point search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Forward heap extractions that settled a node.
    pub settled: u64,
    /// Forward heap insertions.
    pub pushes: u64,
    /// Forward candidates dropped by the lower-bound pruning.
    pub pruned: u64,
    /// Backward (lower-bound) settles — reverse-CSR settles for the
    /// bidirectional search; downward-cone settles plus memoized
    /// `B*` evaluations for the CH tier.
    pub backward_settled: u64,
    /// The bidirectional run failed certification and the engine
    /// re-ran the forward oracle (see the module docs).
    pub fell_back: bool,
    /// The engine had a contraction hierarchy and ran the CH tier.
    pub tried_ch: bool,
    /// The CH tier's run certified — its answer was returned without
    /// falling back to the bidirectional search.
    pub ch_certified: bool,
    /// The answer was read out of the engine's kept shortest-path tree
    /// for this source — no search tier ran.
    pub from_tree: bool,
    /// This request admitted its source to the tree cache: the
    /// microseconds the mapper spent building the tree (`settled` and
    /// `pushes` then count the mapper's work, not a search's).
    pub tree_build_us: Option<u64>,
}

/// Reusable search state: dense struct-of-arrays sized to the graph
/// once, then invalidated per query by bumping a generation stamp, so
/// repeated queries allocate nothing (the heaps keep their capacity
/// and are cheap to clear).
pub(crate) struct Scratch {
    generation: u32,
    n: usize,
    // Forward side (the mapper's SoA run state).
    f_key: Vec<Key>,
    f_pred: Vec<(u32, u32)>,
    f_state: Vec<u8>,
    f_stamp: Vec<u32>,
    f_heap: BinaryHeap<Reverse<Key>>,
    // Backward lower-bound side.
    b_dist: Vec<Cost>,
    b_pred: Vec<(u32, u32)>,
    b_state: Vec<u8>,
    b_stamp: Vec<u32>,
    b_heap: BinaryHeap<Reverse<Key>>,
    // CH tier: the destination's downward cone (exact CH-weight
    // distance to dst plus the (head, ref) step toward it) ...
    d_dist: Vec<Cost>,
    d_pred: Vec<(u32, u32)>,
    d_stamp: Vec<u32>,
    // ... the upward search from the source ...
    u_dist: Vec<Cost>,
    u_pred: Vec<(u32, u32)>,
    u_stamp: Vec<u32>,
    // ... and the memoized per-node lower bounds B*(v), with the
    // explicit DFS stack the lazy evaluation walks the up-edge DAG
    // with (kept here so repeated probes allocate nothing).
    bb_val: Vec<Cost>,
    bb_stamp: Vec<u32>,
    bb_stack: Vec<(u32, bool)>,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Scratch {
            generation: 0,
            n: 0,
            f_key: Vec::new(),
            f_pred: Vec::new(),
            f_state: Vec::new(),
            f_stamp: Vec::new(),
            f_heap: BinaryHeap::new(),
            b_dist: Vec::new(),
            b_pred: Vec::new(),
            b_state: Vec::new(),
            b_stamp: Vec::new(),
            b_heap: BinaryHeap::new(),
            d_dist: Vec::new(),
            d_pred: Vec::new(),
            d_stamp: Vec::new(),
            u_dist: Vec::new(),
            u_pred: Vec::new(),
            u_stamp: Vec::new(),
            bb_val: Vec::new(),
            bb_stamp: Vec::new(),
            bb_stack: Vec::new(),
        }
    }

    /// Starts a new query: size the arrays to the graph (first use
    /// only) and invalidate every slot by bumping the generation.
    fn begin(&mut self, n: usize) {
        if self.n < n {
            self.f_key.resize(n, 0);
            self.f_pred.resize(n, NO_PRED);
            self.f_state.resize(n, 0);
            self.f_stamp.resize(n, 0);
            self.b_dist.resize(n, 0);
            self.b_pred.resize(n, NO_PRED);
            self.b_state.resize(n, 0);
            self.b_stamp.resize(n, 0);
            self.d_dist.resize(n, 0);
            self.d_pred.resize(n, NO_PRED);
            self.d_stamp.resize(n, 0);
            self.u_dist.resize(n, 0);
            self.u_pred.resize(n, NO_PRED);
            self.u_stamp.resize(n, 0);
            self.bb_val.resize(n, 0);
            self.bb_stamp.resize(n, 0);
            self.n = n;
        }
        if self.generation == u32::MAX {
            // Generation wrap: one real clear every 2^32 queries.
            self.f_stamp.iter_mut().for_each(|s| *s = 0);
            self.b_stamp.iter_mut().for_each(|s| *s = 0);
            self.d_stamp.iter_mut().for_each(|s| *s = 0);
            self.u_stamp.iter_mut().for_each(|s| *s = 0);
            self.bb_stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.f_heap.clear();
        self.b_heap.clear();
    }

    #[inline]
    fn f_live(&self, i: usize) -> bool {
        self.f_stamp[i] == self.generation
    }

    #[inline]
    fn f_state_of(&self, i: usize) -> u8 {
        if self.f_live(i) {
            self.f_state[i]
        } else {
            0
        }
    }

    #[inline]
    fn b_state_of(&self, i: usize) -> u8 {
        if self.b_stamp[i] == self.generation {
            self.b_state[i]
        } else {
            0
        }
    }

    /// Node `i`'s forward label from the search just run, as the
    /// mapper would have it.
    pub(crate) fn label(&self, node: NodeId) -> Option<Label> {
        let i = node.index();
        unpack_label((self.f_key[i], self.f_pred[i], self.f_state_of(i)))
    }

    /// The relaxation tail for forward-labelled node `u`.
    #[inline]
    fn tail(&self, q: &Query, u: u32) -> Tail {
        let i = u as usize;
        let label = (self.f_key[i], self.f_pred[i], self.f_state[i]);
        Tail::load(q.f, q.src, NodeId::from_raw(u), label)
    }
}

/// Outcome of a point-to-point search. The destination's label and
/// predecessor chain are in the scratch ([`Scratch::label`]; `None`
/// when it was not reached — a search never returns with `dst`
/// labelled but unsettled).
pub(crate) struct SearchOutcome {
    /// Whether the result is provably identical to the forward
    /// oracle's (always true for the oracle itself). An uncertified
    /// outcome must be discarded and the oracle re-run.
    pub certified: bool,
    pub stats: SearchStats,
}

/// One query's fixed inputs.
#[derive(Clone, Copy)]
pub(crate) struct Query<'a> {
    pub f: &'a FrozenGraph,
    pub model: &'a CostModel,
    pub src: NodeId,
    pub dst: NodeId,
}

/// What may prune the exact forward search: a source of lower bounds
/// `B(v)` on the remaining forward cost from `v` to `dst`. [`forward`]
/// is monomorphised per pruner, so [`NoPrune`] compiles the pruning
/// out and is the oracle by construction.
trait Pruner {
    /// `false` removes every pruning branch from the loop.
    const PRUNES: bool = true;

    /// Called before each forward extraction, with the forward heap's
    /// top cost: the pruner's turn to advance. Returns `mu`, tightened
    /// if it met a cheaper concrete path.
    fn advance(
        &mut self,
        _: &Query,
        _: &mut Scratch,
        _: &mut SearchStats,
        _: Cost,
        mu: Cost,
    ) -> Cost {
        mu
    }

    /// Called when the forward side settles `u` (not `dst`): returns
    /// `mu`, tightened if a concrete path through `u` is cheaper.
    fn forward_settled(&mut self, _: &Query, _: &Scratch, _u: u32, mu: Cost) -> Cost {
        mu
    }

    /// `B(v)`; `Cost::MAX` means `v` cannot reach `dst`.
    fn bound(&mut self, s: &mut Scratch, stats: &mut SearchStats, v: u32) -> Cost;

    /// Whether an infinite bound is proof (prune even before any
    /// concrete path has set `mu`).
    fn exhausted(&self) -> bool {
        false
    }
}

/// The oracle's pruner: none.
struct NoPrune;

impl Pruner for NoPrune {
    const PRUNES: bool = false;

    fn bound(&mut self, _: &mut Scratch, _: &mut SearchStats, _: u32) -> Cost {
        0
    }
}

/// The bidirectional tier's pruner: a backward Dijkstra from `dst`
/// over the reverse CSR under [`CostModel::lower_bound`] weights,
/// advanced in step with the forward side (module docs).
struct Backward<'a> {
    rev: &'a ReverseGraph,
    /// Still settling. Once the backward top exceeds `mu` the search
    /// freezes and its last top (`floor`) bounds every unsettled node;
    /// once its heap drains, unsettled nodes cannot reach `dst` at all.
    active: bool,
    floor: Cost,
    exhausted: bool,
}

impl<'a> Backward<'a> {
    /// Starts the backward side at `dst` (after [`Scratch::begin`]).
    fn new(rev: &'a ReverseGraph, dst: NodeId, s: &mut Scratch) -> Self {
        let di = dst.index();
        s.b_stamp[di] = s.generation;
        s.b_dist[di] = 0;
        s.b_pred[di] = NO_PRED;
        s.b_state[di] = B_LABELLED;
        s.b_heap.push(Reverse(pack_bkey(0, dst.raw())));
        Backward {
            rev,
            active: true,
            floor: 0,
            exhausted: false,
        }
    }
}

impl Pruner for Backward<'_> {
    fn advance(
        &mut self,
        q: &Query,
        s: &mut Scratch,
        stats: &mut SearchStats,
        f_top_cost: Cost,
        mut mu: Cost,
    ) -> Cost {
        let gen = s.generation;
        // Advance while the backward side is the cheaper one.
        while self.active {
            let Some(&Reverse(bkey)) = s.b_heap.peek() else {
                self.active = false;
                self.exhausted = true;
                break;
            };
            let b_cost = (bkey >> 32) as Cost;
            if b_cost > mu.saturating_sub(f_top_cost) {
                // The standard `top_f + top_b >= mu` termination
                // bound: every forward candidate from here on costs at
                // least `top_f`, so once the backward floor alone
                // pushes such a candidate past `mu`, settling more
                // backward nodes can only reprove prunes the floor
                // already delivers. Freezing here (rather than at
                // `top_b > mu`) is what keeps the backward side from
                // exploring `dst`'s whole `mu`-ball under its
                // underestimated weights.
                self.active = false;
                self.floor = b_cost;
                break;
            }
            if b_cost > f_top_cost {
                break; // forward's turn
            }
            s.b_heap.pop();
            let v = bkey as u32 as usize;
            if s.b_state[v] & B_SETTLED != 0 {
                continue; // stale lazy-deletion entry
            }
            s.b_state[v] |= B_SETTLED;
            stats.backward_settled += 1;
            mu = stitch(q, s, v as u32, mu);
            for (u, e) in self.rev.in_edges(NodeId::from_raw(v as u32)) {
                let w = q
                    .model
                    .lower_bound(q.f, Some(q.src), u, e.raw(), q.f.edge(e));
                let cand = s.b_dist[v].saturating_add(w);
                let ui = u.index();
                let known = s.b_stamp[ui] == gen && s.b_state[ui] & B_LABELLED != 0;
                if known && s.b_state[ui] & B_SETTLED != 0 {
                    continue;
                }
                if !known || cand < s.b_dist[ui] {
                    s.b_stamp[ui] = gen;
                    s.b_dist[ui] = cand;
                    s.b_pred[ui] = (v as u32, e.raw());
                    s.b_state[ui] = B_LABELLED;
                    s.b_heap.push(Reverse(pack_bkey(cand, u.raw())));
                }
            }
        }
        mu
    }

    fn forward_settled(&mut self, q: &Query, s: &Scratch, u: u32, mu: Cost) -> Cost {
        stitch(q, s, u, mu)
    }

    /// Exact once backward-settled; otherwise the backward top
    /// (everything unsettled costs at least that), the frozen floor,
    /// or — backward heap drained — unreachable from `dst`.
    fn bound(&mut self, s: &mut Scratch, _: &mut SearchStats, v: u32) -> Cost {
        if s.b_state_of(v as usize) & B_SETTLED != 0 {
            s.b_dist[v as usize]
        } else if self.exhausted {
            Cost::MAX
        } else if self.active {
            s.b_heap
                .peek()
                .map_or(Cost::MAX, |&Reverse(k)| (k >> 32) as Cost)
        } else {
            self.floor
        }
    }

    fn exhausted(&self) -> bool {
        self.exhausted
    }
}

/// A forward-labelled, backward-settled node `x` stitches a concrete
/// path: re-cost the backward chain from `x` to `dst` under full
/// forward semantics, starting from `x`'s forward label. The result is
/// the cost of a real `src ⤳ x ⤳ dst` path — a valid upper bound for
/// `mu` by construction.
fn stitch(q: &Query, s: &Scratch, x: u32, mu: Cost) -> Cost {
    let xi = x as usize;
    if s.f_state_of(xi) & LABELLED == 0
        || s.b_state_of(xi) & B_SETTLED == 0
        || key_cost(s.f_key[xi]).saturating_add(s.b_dist[xi]) >= mu
    {
        return mu;
    }
    let mut budget = q.f.node_count();
    let end = follow(q, s.tail(q, x), |tail| {
        (tail.node != q.dst && budget > 0).then(|| {
            budget -= 1;
            EdgeId::from_raw(s.b_pred[tail.node.index()].1)
        })
    });
    debug_assert_eq!(end.node, q.dst, "backward chain cycled");
    match end.node == q.dst {
        true => mu.min(end.cost),
        false => mu,
    }
}

/// Walks the concrete path that leaves `tail` along the edges `next`
/// yields, under full forward semantics; the tail at its end.
fn follow(q: &Query, mut tail: Tail, mut next: impl FnMut(&Tail) -> Option<EdgeId>) -> Tail {
    while let Some(e) = next(&tail) {
        let edge = q.f.edge(e);
        let step = q.model.step(q.f, &tail, e.raw(), edge);
        tail = tail.advance(q.f, q.src, e.raw(), edge, &step);
    }
    tail
}

/// Runs the exact forward label-setting search from `q.src` until
/// `q.dst` is settled (or proven unreachable), dropping what `pruner`
/// proves irrelevant against `mu`, the cost of the best concrete path
/// known. On a hit the destination's predecessor chain is left in
/// `scratch` for the caller to walk. The caller has called
/// [`Scratch::begin`]; `stats` carries what its own phases counted.
fn forward<P: Pruner>(
    q: &Query,
    mut pruner: P,
    mut mu: Cost,
    mut stats: SearchStats,
    s: &mut Scratch,
) -> SearchOutcome {
    let gen = s.generation;
    let si = q.src.index();
    s.f_stamp[si] = gen;
    (s.f_key[si], s.f_pred[si], s.f_state[si]) = source_label(q.f, q.src);
    s.f_heap.push(Reverse(s.f_key[si]));
    stats.pushes += 1;
    // The smallest `cand_cost + B(v)` ever pruned; the run is
    // certified exact iff the answer beats it strictly (module docs).
    let mut worst_prune = Cost::MAX;
    // Pruning against `mu` is optimistic — the certification is what
    // makes it safe. With no concrete path yet, only a proven dead end
    // prunes.
    let prunes = |pruner: &P, b: Cost, through: Cost, mu: Cost| {
        through > mu || (b == Cost::MAX && mu == Cost::MAX && pruner.exhausted())
    };

    loop {
        if P::PRUNES {
            if let Some(&Reverse(top)) = s.f_heap.peek() {
                mu = pruner.advance(q, s, &mut stats, key_cost(top), mu);
            }
        }
        let Some(Reverse(key)) = s.f_heap.pop() else {
            // Forward frontier drained: dst unreached. Only certain if
            // no pruned candidate could have led anywhere.
            return SearchOutcome {
                certified: worst_prune == Cost::MAX,
                stats,
            };
        };
        let u_raw = key as u32;
        let ui = u_raw as usize;
        if s.f_state[ui] & MAPPED != 0 {
            continue; // superseded by a later improvement
        }
        s.f_state[ui] |= MAPPED;
        stats.settled += 1;
        let u_cost = key_cost(s.f_key[ui]);
        if u_raw == q.dst.raw() {
            // Settled. Certified iff no pruned candidate could have
            // produced, improved, or tie-rewritten any label on the
            // answer's causal chain.
            return SearchOutcome {
                certified: worst_prune > u_cost,
                stats,
            };
        }
        if P::PRUNES {
            mu = pruner.forward_settled(q, s, u_raw, mu);
            // Node-level prune: every candidate out of `u` costs at
            // least `u`'s cost plus a lower-bound edge weight, and
            // `B(u)` is at most that weight plus the head's own bound
            // — so when `cost(u) + B(u)` already exceeds `mu`, each
            // outgoing candidate would be pruned individually below;
            // skip the whole expansion. The recorded `worst_prune`
            // value under-approximates every skipped candidate's
            // `cand + B(v)`, so certification stays conservative (it
            // can only fall back more, never mis-certify).
            let b = pruner.bound(s, &mut stats, u_raw);
            let through = u_cost.saturating_add(b);
            if prunes(&pruner, b, through, mu) {
                worst_prune = worst_prune.min(through);
                stats.pruned += 1;
                continue;
            }
        }

        let tail = s.tail(q, u_raw);
        let (base_edge, row) = q.f.edge_slice(tail.node);
        for (i, &edge) in row.iter().enumerate() {
            let e_raw = base_edge + i as u32;
            let v = edge.to();
            let vi = v.index();
            let vstate = s.f_state_of(vi);
            if vstate & MAPPED != 0 {
                continue;
            }
            let step = q.model.step(q.f, &tail, e_raw, edge);
            if P::PRUNES {
                let b = pruner.bound(s, &mut stats, v.raw());
                let through = step.cost.saturating_add(b);
                if prunes(&pruner, b, through, mu) {
                    worst_prune = worst_prune.min(through);
                    stats.pruned += 1;
                    continue;
                }
                if v == q.dst {
                    // The destination's own tentative label is a
                    // concrete path cost — a sound `mu` contribution.
                    mu = mu.min(step.cost);
                }
            }
            let cand = step.label(&tail, e_raw, v);
            s.f_stamp[vi] = gen;
            let outcome = settle(
                vstate & LABELLED != 0,
                &mut s.f_key[vi],
                &mut s.f_pred[vi],
                &mut s.f_state[vi],
                cand,
            );
            if outcome == Settled::Improved {
                s.f_heap.push(Reverse(cand.0));
                stats.pushes += 1;
            }
        }
    }
}

/// The forward oracle (`reverse` absent) or the bidirectional tier:
/// [`forward`] unpruned, or pruned by the reverse-CSR backward side.
pub(crate) fn search(q: &Query, reverse: Option<&ReverseGraph>, s: &mut Scratch) -> SearchOutcome {
    s.begin(q.f.node_count());
    let stats = SearchStats::default();
    match reverse {
        Some(rev) => forward(q, Backward::new(rev, q.dst, s), Cost::MAX, stats, s),
        None => forward(q, NoPrune, Cost::MAX, stats, s),
    }
}

/// The CH tier's pruner: `B*(v)`, the *exact* hierarchy distance
/// `v → dst` over the CH weights — a lower bound on the remaining
/// forward cost from any label at `v`. `Cost::MAX` means the hierarchy
/// sees no `v → dst` path at all.
///
/// Up edges strictly ascend rank, so the upward half is a DAG and the
/// distance obeys an exact recurrence with no search at all:
///
/// ```text
/// B*(v) = min( D(v),  min over up edges v → w:  weight + B*(w) )
/// ```
///
/// `D` is [`search_ch`] phase 1's exhaustive downward cone (every way
/// of descending into `dst`), and the up-edge minimization covers
/// every way of first climbing — together every up-then-down path,
/// which by the builder's witness guarantee realizes the true
/// hierarchy distance. Memoized per query and evaluated lazily
/// (post-order DFS over the DAG), each node costs amortized
/// `O(up-degree)` across the whole forward search — the entire point
/// of the hierarchy tier's speed.
struct Hierarchy<'a>(&'a ChIndex);

impl Pruner for Hierarchy<'_> {
    fn bound(&mut self, scratch: &mut Scratch, stats: &mut SearchStats, v: u32) -> Cost {
        let ch = self.0;
        let gen = scratch.generation;
        if scratch.bb_stamp[v as usize] == gen {
            return scratch.bb_val[v as usize];
        }
        let mut stack = std::mem::take(&mut scratch.bb_stack);
        stack.clear();
        stack.push((v, false));
        while let Some((x, children_done)) = stack.pop() {
            let xi = x as usize;
            if scratch.bb_stamp[xi] == gen {
                continue; // memoized by an earlier probe or a DAG diamond
            }
            if children_done {
                // Every up-successor is memoized now; fold the recurrence.
                let mut best = if scratch.d_stamp[xi] == gen {
                    scratch.d_dist[xi]
                } else {
                    Cost::MAX
                };
                for e in ch.up_edges(NodeId::from_raw(x)) {
                    debug_assert_eq!(scratch.bb_stamp[e.node.index()], gen);
                    best = best.min(e.weight.saturating_add(scratch.bb_val[e.node.index()]));
                }
                scratch.bb_stamp[xi] = gen;
                scratch.bb_val[xi] = best;
                stats.backward_settled += 1;
            } else {
                stack.push((x, true));
                for e in ch.up_edges(NodeId::from_raw(x)) {
                    if scratch.bb_stamp[e.node.index()] != gen {
                        stack.push((e.node.raw(), false));
                    }
                }
            }
        }
        scratch.bb_stack = stack;
        scratch.bb_val[v as usize]
    }
}

/// The CH-assisted point-to-point search: same contract as [`search`],
/// with the contraction hierarchy standing in for the reverse-CSR
/// backward side. Three phases:
///
/// 1. a full backward Dijkstra from `dst` over the transposed downward
///    half computes `D(x)`, the exact CH-weight distance from each
///    cone node down into `dst`;
/// 2. an upward Dijkstra from `src` finds the best meeting node; its
///    path is unpacked to concrete forward edges and re-costed under
///    full forward semantics — a real path whose true cost seeds `mu`.
///    No meeting ⇒ return uncertified (never conclude `NoRoute` from
///    the hierarchy alone — the engine falls back);
/// 3. [`forward`] runs pruned by the memoized per-node bound `B*(v)`
///    and certifies against `worst_prune` exactly as the bidirectional
///    search does.
///
/// The answer labels come from phase 3's mapper-identical relaxation,
/// so a certified outcome is byte-identical to the oracle's — the
/// hierarchy only decides what *not* to explore.
pub(crate) fn search_ch(q: &Query, ch: &ChIndex, scratch: &mut Scratch) -> SearchOutcome {
    let (src, dst) = (q.src, q.dst);
    scratch.begin(q.f.node_count());
    let gen = scratch.generation;
    let mut stats = SearchStats::default();

    // Phase 1: the destination's downward cone, to exhaustion — `D`
    // feeds both the meeting phase and every later B* probe.
    scratch.d_stamp[dst.index()] = gen;
    scratch.d_dist[dst.index()] = 0;
    scratch.d_pred[dst.index()] = NO_PRED;
    scratch.b_heap.push(Reverse(pack_bkey(0, dst.raw())));
    while let Some(Reverse(k)) = scratch.b_heap.pop() {
        let c = (k >> 32) as Cost;
        let v = k as u32 as usize;
        if c > scratch.d_dist[v] {
            continue;
        }
        stats.backward_settled += 1;
        for e in ch.down_into(NodeId::from_raw(v as u32)) {
            let x = e.node.index();
            let cand = c.saturating_add(e.weight);
            if scratch.d_stamp[x] != gen || cand < scratch.d_dist[x] {
                scratch.d_stamp[x] = gen;
                scratch.d_dist[x] = cand;
                scratch.d_pred[x] = (v as u32, e.edge);
                scratch.b_heap.push(Reverse(pack_bkey(cand, e.node.raw())));
            }
        }
    }

    // Phase 2: upward from `src`; stop once the heap floor cannot beat
    // the best meeting (every later settle only rises).
    let mut best_meet: Cost = Cost::MAX;
    let mut meet: Option<u32> = None;
    scratch.u_stamp[src.index()] = gen;
    scratch.u_dist[src.index()] = 0;
    scratch.u_pred[src.index()] = NO_PRED;
    scratch.b_heap.clear();
    scratch.b_heap.push(Reverse(pack_bkey(0, src.raw())));
    while let Some(Reverse(k)) = scratch.b_heap.pop() {
        let c = (k >> 32) as Cost;
        let x = k as u32 as usize;
        if c > scratch.u_dist[x] {
            continue;
        }
        if c >= best_meet {
            break;
        }
        stats.backward_settled += 1;
        if scratch.d_stamp[x] == gen {
            let through = c.saturating_add(scratch.d_dist[x]);
            if through < best_meet {
                best_meet = through;
                meet = Some(x as u32);
            }
        }
        for e in ch.up_edges(NodeId::from_raw(x as u32)) {
            let y = e.node.index();
            let cand = c.saturating_add(e.weight);
            if scratch.u_stamp[y] != gen || cand < scratch.u_dist[y] {
                scratch.u_stamp[y] = gen;
                scratch.u_dist[y] = cand;
                scratch.u_pred[y] = (x as u32, e.edge);
                scratch.b_heap.push(Reverse(pack_bkey(cand, e.node.raw())));
            }
        }
    }
    let uncertified = |stats| SearchOutcome {
        certified: false,
        stats,
    };
    let Some(meet) = meet else {
        return uncertified(stats);
    };

    // Unpack the meeting path (both pred chains strictly descend rank,
    // so they terminate — the load-time validator proved the edge
    // directions) and re-cost it to seed `mu` with a real path's cost:
    // the CH-weight sum `best_meet` is only a lower bound.
    let mut refs: Vec<u32> = Vec::new();
    let mut x = meet;
    while x != src.raw() {
        let (p, r) = scratch.u_pred[x as usize];
        refs.push(r);
        x = p;
    }
    refs.reverse();
    let mut x = meet;
    while x != dst.raw() {
        let (h, r) = scratch.d_pred[x as usize];
        refs.push(r);
        x = h;
    }
    let mut edges: Vec<EdgeId> = Vec::new();
    for &r in &refs {
        if !ch.unpack_into(r, &mut edges) {
            return uncertified(stats);
        }
    }
    let mut path = edges.iter().copied();
    let mu = follow(q, Tail::source(q.f, src), |_| path.next()).cost;

    // Phase 3: the exact forward search, pruned by B* and certified
    // exactly as the bidirectional variant.
    forward(q, Hierarchy(ch), mu, stats, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mapgen::{generate, MapSpec};
    use pathalias_mapper::cost_model::ch_weights;

    /// `Scratch::begin`'s "one real clear every 2^32 queries": a
    /// scratch full of earlier queries' labels, every slot of it
    /// stamped 1, 2 or 3, is wound forward to the wrap, and the four
    /// searches across it (generations `MAX`, then 1–3 again) must see
    /// none of them.
    #[test]
    fn generation_wrap_clears_stale_stamps() {
        let map = generate(&MapSpec::small(150, 7));
        let f = map.parse().expect("generated maps parse").freeze();
        let model = CostModel::default();
        let rev = f.reverse();
        let ch = ChIndex::build(&f, &ch_weights(&f, &model));
        let hosts: Vec<NodeId> = f.node_ids().filter(|&v| f.is_mappable(v)).collect();
        // Query `k` of either round: its own pair, and a tier.
        let run = |k: usize, s: &mut Scratch| {
            let q = Query {
                f: &f,
                model: &model,
                src: hosts[k * 53 % hosts.len()],
                dst: hosts[(k * 37 + 5) % hosts.len()],
            };
            let outcome = match k % 3 {
                0 => search(&q, None, s),
                1 => search(&q, Some(&rev), s),
                _ => search_ch(&q, &ch, s),
            };
            let labels: Vec<Option<Label>> = f.node_ids().map(|v| s.label(v)).collect();
            (outcome.certified, outcome.stats, labels)
        };
        let mut wrapped = Scratch::new();
        for k in 0..12 {
            run(k, &mut wrapped);
        }
        let s = &mut wrapped;
        for stamps in [
            &mut s.f_stamp,
            &mut s.b_stamp,
            &mut s.d_stamp,
            &mut s.u_stamp,
            &mut s.bb_stamp,
        ] {
            for (i, stamp) in stamps.iter_mut().enumerate() {
                *stamp = 1 + i as u32 % 3;
            }
        }
        wrapped.generation = u32::MAX - 1;
        // The hierarchy tier goes first: it labels few nodes, so the
        // stale stamps are still there for the three after it.
        for k in 14..18 {
            assert_eq!(run(k, &mut wrapped), run(k, &mut Scratch::new()), "{k}");
        }
        assert_eq!(wrapped.generation, 3);
    }
}
