//! The point-to-point searches: the exact-forward oracle and the
//! pruned bidirectional variant.
//!
//! Both produce labels **byte-identical** to the mapper's
//! (`pathalias_mapper::map_frozen_readonly`) on the destination's
//! predecessor chain — same cost, same visible-hop count, same path
//! state bits, same tie-broken predecessors. That is the whole game:
//! a `PATH src dst` answer must agree with the tree the daemon would
//! print from `src`, so this module replicates the mapper's relaxation
//! arithmetic exactly (adjust folding with the raw-cost source
//! exemption, gateway exemptions, the domain relay restriction, dead
//! host/link penalties, mixed-syntax state, and the
//! `(cost, hops, node)` key order with the `(pred, edge)` tie break).
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
//!   to `dst` (each penalty is included only when it provably applies
//!   to every forward path over that edge — gate and dead penalties
//!   are node/edge properties, the relay penalty applies whenever the
//!   tail is a domain since every forward label at a domain is
//!   tainted; the mixed penalty is state-dependent so it bounds to 0).
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

use pathalias_graph::{
    ChIndex, Cost, Dir, EdgeId, FrozenEdge, FrozenGraph, LinkFlags, NodeFlags, NodeId, ReverseGraph,
};
use pathalias_mapper::CostModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Path-state bits, identical to the mapper's packed run state.
pub(crate) const LABELLED: u8 = 1 << 0;
pub(crate) const HAS_LEFT: u8 = 1 << 1;
pub(crate) const HAS_RIGHT: u8 = 1 << 2;
pub(crate) const TAINTED: u8 = 1 << 3;
pub(crate) const VIA_BACK: u8 = 1 << 4;
pub(crate) const AMBIGUOUS: u8 = 1 << 5;
pub(crate) const MAPPED: u8 = 1 << 6;

/// Backward-side state bits.
const B_LABELLED: u8 = 1 << 0;
const B_SETTLED: u8 = 1 << 1;

/// The source's predecessor sentinel.
pub(crate) const NO_PRED: (u32, u32) = (u32::MAX, u32::MAX);

type Key = u128;

#[inline]
fn pack_key(cost: Cost, hops: u32, node: u32) -> Key {
    ((cost as u128) << 64) | ((hops as u128) << 32) | node as u128
}

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

    /// The forward predecessor `(node, edge)` of slot `i` — only
    /// meaningful for nodes on the settled chain after a hit.
    #[inline]
    pub(crate) fn pred_of(&self, i: usize) -> (u32, u32) {
        self.f_pred[i]
    }
}

/// Everything the relaxation needs about the tail, mirroring the
/// mapper's `Tail`.
struct TailView {
    u: u32,
    cost: Cost,
    hops: u32,
    state: u8,
    pred_edge: Option<EdgeId>,
    is_domain: bool,
    use_raw: bool,
    dead_extra: Cost,
}

impl TailView {
    fn load(f: &FrozenGraph, model: &CostModel, src: NodeId, s: &Scratch, u: u32) -> TailView {
        let i = u as usize;
        let pred = s.f_pred[i];
        let id = NodeId::from_raw(u);
        let is_source = id == src;
        let uflags = f.flags(id);
        TailView {
            u,
            cost: (s.f_key[i] >> 64) as Cost,
            hops: (s.f_key[i] >> 32) as u32,
            state: s.f_state[i],
            pred_edge: (pred != NO_PRED).then(|| EdgeId::from_raw(pred.1)),
            is_domain: uflags.contains(NodeFlags::DOMAIN),
            use_raw: is_source && f.adjust(id) != 0,
            dead_extra: if !is_source && uflags.contains(NodeFlags::DEAD) {
                model.dead_penalty
            } else {
                0
            },
        }
    }
}

/// The mapper's gateway-exemption rule, verbatim.
#[inline]
fn gateway_exempt(tail_is_domain: bool, eflags: LinkFlags, v_is_domain: bool) -> bool {
    eflags.contains(LinkFlags::GATEWAY)
        || eflags.contains(LinkFlags::ALIAS)
        || eflags.contains(LinkFlags::NET_OUT)
        || (eflags.contains(LinkFlags::NET_IN) && v_is_domain && !tail_is_domain)
        || (eflags.is_explicit() && !tail_is_domain)
}

/// The operator side of the visible hop this edge appends, if any
/// (mapper's `visible_dir`).
#[inline]
fn visible_dir(f: &FrozenGraph, tail: &TailView, edge: FrozenEdge) -> Option<Dir> {
    let eflags = edge.flags();
    if eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_IN) {
        return None;
    }
    if eflags.contains(LinkFlags::NET_OUT) {
        let entering = tail
            .pred_edge
            .map(|pe| f.edge(pe).dir())
            .unwrap_or_else(|| edge.dir());
        return Some(entering);
    }
    Some(edge.dir())
}

/// One forward relaxation's arithmetic — the mapper's `relax` with the
/// label bookkeeping factored out, so the search loop and the
/// stitched-path evaluator cost a candidate identically.
#[inline]
fn eval_step(
    f: &FrozenGraph,
    model: &CostModel,
    tail: &TailView,
    e_raw: u32,
    edge: FrozenEdge,
) -> (Cost, u32, u8) {
    let v = edge.to();
    let vflags = f.flags(v);
    let v_is_domain = vflags.contains(NodeFlags::DOMAIN);
    let eflags = edge.flags();

    let base = if tail.use_raw {
        f.edge_raw_cost(EdgeId::from_raw(e_raw))
    } else {
        edge.cost()
    };

    let mut gate = 0;
    let mut relay = 0;
    let mut mixed = 0;
    let mut extra = tail.dead_extra;
    if eflags.contains(LinkFlags::DEAD) {
        extra += model.dead_link_penalty;
    }
    if vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
        && !gateway_exempt(tail.is_domain, eflags, v_is_domain)
    {
        gate = model.gate_penalty;
    }
    if tail.state & TAINTED != 0 && !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT) {
        relay = model.relay_penalty;
    }

    let vis = visible_dir(f, tail, edge);
    let mut cand_state = (tail.state & !MAPPED) | LABELLED;
    if let Some(dir) = vis {
        match dir {
            Dir::Left => {
                if tail.state & HAS_RIGHT != 0 {
                    mixed = model.mixed_penalty;
                    cand_state |= AMBIGUOUS;
                }
                cand_state |= HAS_LEFT;
            }
            Dir::Right => {
                if model.strict_mixed && tail.state & HAS_LEFT != 0 {
                    mixed = model.mixed_penalty;
                }
                cand_state |= HAS_RIGHT;
            }
        }
    }
    if v_is_domain {
        cand_state |= TAINTED;
    }
    if eflags.contains(LinkFlags::BACK) {
        cand_state |= VIA_BACK;
    }

    let cand_cost = tail
        .cost
        .saturating_add(base)
        .saturating_add(gate)
        .saturating_add(relay)
        .saturating_add(mixed)
        .saturating_add(extra);
    let cand_hops = tail.hops + u32::from(vis.is_some());
    (cand_cost, cand_hops, cand_state)
}

/// The backward side's lower-bound weight for the forward edge
/// `u --e--> v`. Every component is included only when it applies to
/// *all* forward paths crossing the edge, so summing these along any
/// `u ⤳ dst` backward path under-approximates the true remaining
/// forward cost from any label at `u`.
#[inline]
fn lower_bound_weight(
    f: &FrozenGraph,
    model: &CostModel,
    src: NodeId,
    u: NodeId,
    e_raw: u32,
    edge: FrozenEdge,
) -> Cost {
    let uflags = f.flags(u);
    let u_is_domain = uflags.contains(NodeFlags::DOMAIN);
    let v = edge.to();
    let vflags = f.flags(v);
    let v_is_domain = vflags.contains(NodeFlags::DOMAIN);
    let eflags = edge.flags();

    // Exact: the raw-cost source exemption is a property of `u`.
    let base = if u == src && f.adjust(u) != 0 {
        f.edge_raw_cost(EdgeId::from_raw(e_raw))
    } else {
        edge.cost()
    };
    let mut w = base;
    // Exact: dead host/link penalties are node/edge properties.
    if u != src && uflags.contains(NodeFlags::DEAD) {
        w = w.saturating_add(model.dead_penalty);
    }
    if eflags.contains(LinkFlags::DEAD) {
        w = w.saturating_add(model.dead_link_penalty);
    }
    // Exact: the exemption rule only reads node/edge properties.
    if vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
        && !gateway_exempt(u_is_domain, eflags, v_is_domain)
    {
        w = w.saturating_add(model.gate_penalty);
    }
    // Every forward label at a domain node is tainted (the source
    // starts tainted if it is a domain; reaching a domain taints), so
    // the relay penalty is exact when `u` is a domain — and only a
    // lower bound (0) otherwise. The mixed penalty is path-state
    // dependent, so it bounds to 0.
    if u_is_domain && !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT) {
        w = w.saturating_add(model.relay_penalty);
    }
    w
}

/// The destination's settled label.
pub(crate) struct SearchHit {
    pub cost: Cost,
    pub hops: u32,
    pub state: u8,
}

/// Outcome of a point-to-point search.
pub(crate) struct SearchOutcome {
    /// The destination's label, if reachable.
    pub hit: Option<SearchHit>,
    /// Whether the result is provably identical to the forward
    /// oracle's (always true for the oracle itself). An uncertified
    /// outcome must be discarded and the oracle re-run.
    pub certified: bool,
    pub stats: SearchStats,
}

/// Runs the search from `src` until `dst` is settled (or proven
/// unreachable). With `reverse` the backward pruner runs; without it
/// this is the plain forward oracle. On a hit the destination's
/// predecessor chain is left in `scratch` for the caller to walk.
pub(crate) fn search(
    f: &FrozenGraph,
    reverse: Option<&ReverseGraph>,
    model: &CostModel,
    src: NodeId,
    dst: NodeId,
    scratch: &mut Scratch,
) -> SearchOutcome {
    let n = f.node_count();
    scratch.begin(n);
    let gen = scratch.generation;
    let mut stats = SearchStats::default();

    // Forward init: the mapper's source label.
    let si = src.index();
    scratch.f_stamp[si] = gen;
    scratch.f_key[si] = pack_key(0, 0, src.raw());
    scratch.f_pred[si] = NO_PRED;
    scratch.f_state[si] = LABELLED | if f.is_domain(src) { TAINTED } else { 0 };
    scratch.f_heap.push(Reverse(pack_key(0, 0, src.raw())));
    stats.pushes += 1;

    // Backward init.
    let bidi = reverse.is_some();
    if bidi {
        let di = dst.index();
        scratch.b_stamp[di] = gen;
        scratch.b_dist[di] = 0;
        scratch.b_pred[di] = NO_PRED;
        scratch.b_state[di] = B_LABELLED;
        scratch.b_heap.push(Reverse(pack_bkey(0, dst.raw())));
    }
    // The best concrete path cost seen so far (stitched chains and the
    // destination's own tentative label). Pruning against it is
    // optimistic — the certification below is what makes it safe.
    let mut mu = Cost::MAX;
    // The smallest `cand_cost + B(v)` ever pruned; the run is
    // certified exact iff the answer beats it strictly (module docs).
    let mut worst_prune = Cost::MAX;
    // Backward stopping state: once the backward top exceeds `mu` the
    // search freezes and its last top bounds every unsettled node;
    // once its heap drains, unsettled nodes cannot reach `dst` at all.
    let mut b_active = bidi;
    let mut b_floor: Cost = 0;
    let mut b_exhausted = false;

    loop {
        let Some(&Reverse(fkey)) = scratch.f_heap.peek() else {
            // Forward frontier drained: dst unreached. Only certain if
            // no pruned candidate could have led anywhere (every prune
            // was of a provably dst-unreachable head).
            return SearchOutcome {
                hit: None,
                certified: worst_prune == Cost::MAX,
                stats,
            };
        };
        let f_top_cost = (fkey >> 64) as Cost;

        // Advance the backward pruner while it is the cheaper side.
        while b_active {
            let Some(&Reverse(bkey)) = scratch.b_heap.peek() else {
                b_active = false;
                b_exhausted = true;
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
                b_active = false;
                b_floor = b_cost;
                break;
            }
            if b_cost > f_top_cost {
                break; // forward's turn
            }
            scratch.b_heap.pop();
            let v = bkey as u32 as usize;
            if scratch.b_state[v] & B_SETTLED != 0 {
                continue; // stale lazy-deletion entry
            }
            scratch.b_state[v] |= B_SETTLED;
            stats.backward_settled += 1;
            // A forward-labelled, backward-settled node stitches a
            // concrete path: re-cost the backward chain under full
            // forward semantics to tighten `mu`.
            if scratch.f_state_of(v) & LABELLED != 0 {
                let lb = ((scratch.f_key[v] >> 64) as Cost).saturating_add(scratch.b_dist[v]);
                if lb < mu {
                    mu = mu.min(stitch(f, model, src, dst, scratch, v as u32));
                }
            }
            let rev = reverse.expect("backward side requires the reverse CSR");
            for (u, e) in rev.in_edges(NodeId::from_raw(v as u32)) {
                let edge = f.edge(e);
                let w = lower_bound_weight(f, model, src, u, e.raw(), edge);
                let cand = scratch.b_dist[v].saturating_add(w);
                let ui = u.index();
                let known = scratch.b_stamp[ui] == gen && scratch.b_state[ui] & B_LABELLED != 0;
                if known && scratch.b_state[ui] & B_SETTLED != 0 {
                    continue;
                }
                if !known || cand < scratch.b_dist[ui] {
                    scratch.b_stamp[ui] = gen;
                    scratch.b_dist[ui] = cand;
                    scratch.b_pred[ui] = (v as u32, e.raw());
                    scratch.b_state[ui] = B_LABELLED;
                    scratch.b_heap.push(Reverse(pack_bkey(cand, u.raw())));
                }
            }
        }

        // Forward extraction (the oracle's loop, verbatim).
        let Some(Reverse(key)) = scratch.f_heap.pop() else {
            return SearchOutcome {
                hit: None,
                certified: worst_prune == Cost::MAX,
                stats,
            };
        };
        let u_raw = key as u32;
        let ui = u_raw as usize;
        if scratch.f_state[ui] & MAPPED != 0 {
            continue; // superseded by a later improvement
        }
        scratch.f_state[ui] |= MAPPED;
        stats.settled += 1;
        if u_raw == dst.raw() {
            // Settled. Certified iff no pruned candidate could have
            // produced, improved, or tie-rewritten any label on the
            // answer's causal chain.
            let cost = (scratch.f_key[ui] >> 64) as Cost;
            return SearchOutcome {
                hit: Some(SearchHit {
                    cost,
                    hops: (scratch.f_key[ui] >> 32) as u32,
                    state: scratch.f_state[ui],
                }),
                certified: worst_prune > cost,
                stats,
            };
        }
        if bidi && scratch.b_state_of(ui) & B_SETTLED != 0 {
            let lb = ((scratch.f_key[ui] >> 64) as Cost).saturating_add(scratch.b_dist[ui]);
            if lb < mu {
                mu = mu.min(stitch(f, model, src, dst, scratch, u_raw));
            }
        }

        // Node-level prune: every candidate out of `u` costs at least
        // `u`'s cost plus a lower-bound edge weight, and `B(u)` is at
        // most that weight plus the head's own bound — so when
        // `cost(u) + B(u)` already exceeds `mu`, each outgoing
        // candidate would be pruned individually below; skip the whole
        // expansion. The recorded `worst_prune` value under-approximates
        // every skipped candidate's `cand + B(v)`, so certification
        // stays conservative (it can only fall back more, never
        // mis-certify).
        if bidi {
            let b_of_u = if scratch.b_state_of(ui) & B_SETTLED != 0 {
                scratch.b_dist[ui]
            } else if b_exhausted {
                Cost::MAX
            } else if b_active {
                scratch
                    .b_heap
                    .peek()
                    .map_or(Cost::MAX, |&Reverse(k)| (k >> 32) as Cost)
            } else {
                b_floor
            };
            let through = ((scratch.f_key[ui] >> 64) as Cost).saturating_add(b_of_u);
            if through > mu || (b_of_u == Cost::MAX && mu == Cost::MAX && b_exhausted) {
                worst_prune = worst_prune.min(through);
                stats.pruned += 1;
                continue;
            }
        }

        let tail = TailView::load(f, model, src, scratch, u_raw);
        let (base_edge, row) = f.edge_slice(NodeId::from_raw(u_raw));
        for (i, &edge) in row.iter().enumerate() {
            let e_raw = base_edge + i as u32;
            let v = edge.to();
            let vi = v.index();
            let vstate = scratch.f_state_of(vi);
            if vstate & MAPPED != 0 {
                continue;
            }
            let (cand_cost, cand_hops, cand_state) = eval_step(f, model, &tail, e_raw, edge);

            // The pruning rule. `B(v)`: exact once backward-settled;
            // otherwise the backward top (everything unsettled costs
            // at least that), the frozen floor, or — backward heap
            // drained — unreachable-from-dst, prune unconditionally.
            if bidi {
                let b_of_v = if scratch.b_state_of(vi) & B_SETTLED != 0 {
                    scratch.b_dist[vi]
                } else if b_exhausted {
                    Cost::MAX
                } else if b_active {
                    scratch
                        .b_heap
                        .peek()
                        .map_or(Cost::MAX, |&Reverse(k)| (k >> 32) as Cost)
                } else {
                    b_floor
                };
                let through = cand_cost.saturating_add(b_of_v);
                if through > mu || (b_of_v == Cost::MAX && mu == Cost::MAX && b_exhausted) {
                    worst_prune = worst_prune.min(through);
                    stats.pruned += 1;
                    continue;
                }
                if v == dst {
                    // The destination's own tentative label is a
                    // concrete path cost — a sound `mu` contribution.
                    mu = mu.min(cand_cost);
                }
            }

            let cand_key = pack_key(cand_cost, cand_hops, v.raw());
            let cand_pred = (u_raw, e_raw);
            if vstate & LABELLED == 0 {
                scratch.f_stamp[vi] = gen;
                scratch.f_key[vi] = cand_key;
                scratch.f_pred[vi] = cand_pred;
                scratch.f_state[vi] = cand_state;
                scratch.f_heap.push(Reverse(cand_key));
                stats.pushes += 1;
            } else {
                let old = scratch.f_key[vi];
                if cand_key < old {
                    scratch.f_key[vi] = cand_key;
                    scratch.f_pred[vi] = cand_pred;
                    scratch.f_state[vi] = cand_state;
                    scratch.f_heap.push(Reverse(cand_key));
                    stats.pushes += 1;
                } else if cand_key == old && cand_pred < scratch.f_pred[vi] {
                    // The mapper's deterministic tie break.
                    scratch.f_pred[vi] = cand_pred;
                    scratch.f_state[vi] = cand_state;
                }
            }
        }
    }
}

/// Re-costs the backward predecessor chain from `x` to `dst` under
/// full forward semantics, starting from `x`'s forward label. The
/// result is the cost of a concrete `src ⤳ x ⤳ dst` path — a valid
/// upper bound by construction.
fn stitch(
    f: &FrozenGraph,
    model: &CostModel,
    src: NodeId,
    dst: NodeId,
    scratch: &Scratch,
    x: u32,
) -> Cost {
    let mut tail = TailView::load(f, model, src, scratch, x);
    let mut guard = 0usize;
    while tail.u != dst.raw() {
        let (_, e_raw) = scratch.b_pred[tail.u as usize];
        debug_assert_ne!(e_raw, u32::MAX, "backward chain must reach dst");
        let edge = f.edge(EdgeId::from_raw(e_raw));
        let (cost, hops, state) = eval_step(f, model, &tail, e_raw, edge);
        let v = edge.to();
        let vflags = f.flags(v);
        let is_source = v == src;
        tail = TailView {
            u: v.raw(),
            cost,
            hops,
            state,
            pred_edge: Some(EdgeId::from_raw(e_raw)),
            is_domain: vflags.contains(NodeFlags::DOMAIN),
            use_raw: is_source && f.adjust(v) != 0,
            dead_extra: if !is_source && vflags.contains(NodeFlags::DEAD) {
                model.dead_penalty
            } else {
                0
            },
        };
        guard += 1;
        debug_assert!(guard <= f.node_count(), "backward chain cycled");
        if guard > f.node_count() {
            return Cost::MAX;
        }
    }
    tail.cost
}

/// The universal lower-bound weight vector the contraction hierarchy
/// is built over: one entry per frozen edge, independent of the query
/// source (unlike the private `lower_bound_weight`, which may charge the exact
/// raw-cost and dead-host terms because it knows `src`). Every
/// component is included only when it applies to *every* forward
/// relaxation over the edge, from any label at any source:
///
/// * the base cost is the folded cost capped by the raw sidecar cost —
///   whichever of the two the mapper charges (folded normally, raw at
///   an adjusted source), the minimum under-approximates it;
/// * the dead-*link* penalty (an edge property) is exact, but the
///   dead-*host* penalty is omitted: its source-tail exemption makes
///   it query-dependent;
/// * the gate penalty is exact — the exemption rule reads only
///   node/edge properties;
/// * the relay penalty applies when the tail is a domain (every
///   forward label at a domain is tainted); the mixed penalty is
///   path-state dependent and bounds to zero.
///
/// Summing these along any path under-approximates what the mapper
/// charges for it, so hierarchy distances over this metric are sound
/// pruning bounds for the certified search.
pub fn ch_weights(f: &FrozenGraph, model: &CostModel) -> Vec<Cost> {
    let mut w = vec![0; f.edge_count()];
    for u in f.node_ids() {
        let u_is_domain = f.is_domain(u);
        let (base_edge, row) = f.edge_slice(u);
        for (i, &edge) in row.iter().enumerate() {
            let e_raw = base_edge + i as u32;
            let vflags = f.flags(edge.to());
            let eflags = edge.flags();
            let mut c = edge.cost().min(f.edge_raw_cost(EdgeId::from_raw(e_raw)));
            if eflags.contains(LinkFlags::DEAD) {
                c = c.saturating_add(model.dead_link_penalty);
            }
            if vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
                && !gateway_exempt(u_is_domain, eflags, vflags.contains(NodeFlags::DOMAIN))
            {
                c = c.saturating_add(model.gate_penalty);
            }
            if u_is_domain && !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT) {
                c = c.saturating_add(model.relay_penalty);
            }
            w[e_raw as usize] = c;
        }
    }
    w
}

/// Re-costs an explicit forward edge chain starting at `src` under
/// full forward semantics — the unpacked CH meeting path becomes a
/// concrete upper bound this way.
fn cost_path(f: &FrozenGraph, model: &CostModel, src: NodeId, edges: &[EdgeId]) -> Cost {
    let mut tail = TailView {
        u: src.raw(),
        cost: 0,
        hops: 0,
        state: LABELLED | if f.is_domain(src) { TAINTED } else { 0 },
        pred_edge: None,
        is_domain: f.is_domain(src),
        use_raw: f.adjust(src) != 0,
        dead_extra: 0,
    };
    for &e in edges {
        let edge = f.edge(e);
        let (cost, hops, state) = eval_step(f, model, &tail, e.raw(), edge);
        let v = edge.to();
        let vflags = f.flags(v);
        let is_source = v == src;
        tail = TailView {
            u: v.raw(),
            cost,
            hops,
            state,
            pred_edge: Some(e),
            is_domain: vflags.contains(NodeFlags::DOMAIN),
            use_raw: is_source && f.adjust(v) != 0,
            dead_extra: if !is_source && vflags.contains(NodeFlags::DEAD) {
                model.dead_penalty
            } else {
                0
            },
        };
    }
    tail.cost
}

/// The CH pruning oracle: `B*(v)`, the *exact* hierarchy distance
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
/// `D` is phase 1's exhaustive downward cone (every way of descending
/// into `dst`), and the up-edge minimization covers every way of first
/// climbing — together every up-then-down path, which by the builder's
/// witness guarantee realizes the true hierarchy distance. Memoized
/// per query and evaluated lazily (post-order DFS over the DAG), each
/// node costs amortized `O(up-degree)` across the whole forward
/// search — the entire point of the hierarchy tier's speed.
fn bound_to_dst(ch: &ChIndex, scratch: &mut Scratch, stats: &mut SearchStats, v: u32) -> Cost {
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
/// 3. the exact forward label-setting loop (the oracle's, verbatim)
///    runs pruned by the memoized per-node bound `B*(v)` and certifies
///    against `worst_prune` exactly as the bidirectional search does.
///
/// The answer labels come from phase 3's mapper-identical relaxation,
/// so a certified outcome is byte-identical to the oracle's — the
/// hierarchy only decides what *not* to explore.
pub(crate) fn search_ch(
    f: &FrozenGraph,
    ch: &ChIndex,
    model: &CostModel,
    src: NodeId,
    dst: NodeId,
    scratch: &mut Scratch,
) -> SearchOutcome {
    let n = f.node_count();
    scratch.begin(n);
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
    let Some(meet) = meet else {
        return SearchOutcome {
            hit: None,
            certified: false,
            stats,
        };
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
            return SearchOutcome {
                hit: None,
                certified: false,
                stats,
            };
        }
    }
    let mut mu = cost_path(f, model, src, &edges);

    // Phase 3: the exact forward search (the oracle's loop, verbatim),
    // pruned by B* and certified exactly as the bidirectional variant.
    let si = src.index();
    scratch.f_stamp[si] = gen;
    scratch.f_key[si] = pack_key(0, 0, src.raw());
    scratch.f_pred[si] = NO_PRED;
    scratch.f_state[si] = LABELLED | if f.is_domain(src) { TAINTED } else { 0 };
    scratch.f_heap.push(Reverse(pack_key(0, 0, src.raw())));
    stats.pushes += 1;
    let mut worst_prune = Cost::MAX;

    loop {
        let Some(Reverse(key)) = scratch.f_heap.pop() else {
            return SearchOutcome {
                hit: None,
                certified: worst_prune == Cost::MAX,
                stats,
            };
        };
        let u_raw = key as u32;
        let ui = u_raw as usize;
        if scratch.f_state[ui] & MAPPED != 0 {
            continue; // superseded by a later improvement
        }
        scratch.f_state[ui] |= MAPPED;
        stats.settled += 1;
        if u_raw == dst.raw() {
            let cost = (scratch.f_key[ui] >> 64) as Cost;
            return SearchOutcome {
                hit: Some(SearchHit {
                    cost,
                    hops: (scratch.f_key[ui] >> 32) as u32,
                    state: scratch.f_state[ui],
                }),
                certified: worst_prune > cost,
                stats,
            };
        }
        // Node-level prune, same rule as the bidirectional search.
        let b_of_u = bound_to_dst(ch, scratch, &mut stats, u_raw);
        let through = ((scratch.f_key[ui] >> 64) as Cost).saturating_add(b_of_u);
        if through > mu {
            worst_prune = worst_prune.min(through);
            stats.pruned += 1;
            continue;
        }

        let tail = TailView::load(f, model, src, scratch, u_raw);
        let (base_edge, row) = f.edge_slice(NodeId::from_raw(u_raw));
        for (i, &edge) in row.iter().enumerate() {
            let e_raw = base_edge + i as u32;
            let v = edge.to();
            let vi = v.index();
            let vstate = scratch.f_state_of(vi);
            if vstate & MAPPED != 0 {
                continue;
            }
            let (cand_cost, cand_hops, cand_state) = eval_step(f, model, &tail, e_raw, edge);
            let b_of_v = bound_to_dst(ch, scratch, &mut stats, v.raw());
            let through = cand_cost.saturating_add(b_of_v);
            if through > mu {
                worst_prune = worst_prune.min(through);
                stats.pruned += 1;
                continue;
            }
            if v == dst {
                // The destination's tentative label is a concrete
                // path cost — a sound `mu` contribution.
                mu = mu.min(cand_cost);
            }

            let cand_key = pack_key(cand_cost, cand_hops, v.raw());
            let cand_pred = (u_raw, e_raw);
            if vstate & LABELLED == 0 {
                scratch.f_stamp[vi] = gen;
                scratch.f_key[vi] = cand_key;
                scratch.f_pred[vi] = cand_pred;
                scratch.f_state[vi] = cand_state;
                scratch.f_heap.push(Reverse(cand_key));
                stats.pushes += 1;
            } else {
                let old = scratch.f_key[vi];
                if cand_key < old {
                    scratch.f_key[vi] = cand_key;
                    scratch.f_pred[vi] = cand_pred;
                    scratch.f_state[vi] = cand_state;
                    scratch.f_heap.push(Reverse(cand_key));
                    stats.pushes += 1;
                } else if cand_key == old && cand_pred < scratch.f_pred[vi] {
                    // The mapper's deterministic tie break.
                    scratch.f_pred[vi] = cand_pred;
                    scratch.f_state[vi] = cand_state;
                }
            }
        }
    }
}
