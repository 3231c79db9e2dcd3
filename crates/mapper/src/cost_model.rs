//! The cost heuristics layered on edge weights, and the relaxation
//! kernel that applies them.
//!
//! "In calculating path costs, pathalias augments the edge weight sums
//! with heuristics designed to avoid ambiguous routes and routes through
//! networks that demand a gateway. Although this sullies our weighted
//! graph model, it's consistent with our pragmatic approach to cost
//! measures."
//!
//! Those heuristics are written down once, here. The mapper's runs, the
//! incremental repair and the point-to-point searches of
//! `pathalias-router` all cost a candidate with [`CostModel::step`],
//! keep or drop it with [`settle`], and bound what a path still owes
//! with [`CostModel::lower_bound`]; a rule changes in this file or
//! nowhere.

use crate::tree::Label;
use pathalias_graph::{
    Cost, Dir, EdgeId, FrozenEdge, FrozenGraph, LinkFlags, NodeFlags, NodeId, INF,
};

/// A label's rank, packed into one `u128`: cost in the high 64 bits,
/// then visible hops, then the node id — totally ordered, so
/// extraction order and therefore output are deterministic, and small
/// enough that a heap slot is one 16-byte move.
pub type Key = u128;

/// Packs a [`Key`].
#[inline]
pub fn pack_key(cost: Cost, hops: u32, node: u32) -> Key {
    ((cost as u128) << 64) | ((hops as u128) << 32) | node as u128
}

/// The cost a [`Key`] carries.
#[inline]
pub fn key_cost(key: Key) -> Cost {
    (key >> 64) as Cost
}

#[inline]
fn key_hops(key: Key) -> u32 {
    (key >> 32) as u32
}

/// Path-state bit: the node has a label. A run's visit state is one
/// byte per node; the full [`Label`] is unpacked on request.
pub const LABELLED: u8 = 1 << 0;
const HAS_LEFT: u8 = 1 << 1;
const HAS_RIGHT: u8 = 1 << 2;
const TAINTED: u8 = 1 << 3;
const VIA_BACK: u8 = 1 << 4;
const AMBIGUOUS: u8 = 1 << 5;
/// Path-state bit: the node's label is final (it has been extracted).
pub const MAPPED: u8 = 1 << 6;

/// The source's predecessor sentinel (only the source has no pred).
pub const NO_PRED: (u32, u32) = (u32::MAX, u32::MAX);

/// A label as a run stores it: rank, `(pred node, pred edge)`, state.
pub type Packed = (Key, (u32, u32), u8);

/// The label every run gives its source.
#[inline]
pub fn source_label(f: &FrozenGraph, source: NodeId) -> Packed {
    let state = LABELLED | if f.is_domain(source) { TAINTED } else { 0 };
    (pack_key(0, 0, source.raw()), NO_PRED, state)
}

/// A packed label as the public one, `None` if the run never reached
/// the node.
#[inline]
pub fn unpack_label((key, pred, st): Packed) -> Option<Label> {
    if st & LABELLED == 0 {
        return None;
    }
    Some(Label {
        cost: key_cost(key),
        hops: key_hops(key),
        pred: (pred != NO_PRED).then(|| (NodeId::from_raw(pred.0), EdgeId::from_raw(pred.1))),
        has_left: st & HAS_LEFT != 0,
        has_right: st & HAS_RIGHT != 0,
        tainted: st & TAINTED != 0,
        via_backlink: st & VIA_BACK != 0,
        ambiguous: st & AMBIGUOUS != 0,
    })
}

/// The inverse of [`unpack_label`] for `node`'s label (not yet
/// [`MAPPED`]).
pub fn pack_label(node: NodeId, l: Label) -> Packed {
    let bit = |on: bool, b: u8| if on { b } else { 0 };
    (
        pack_key(l.cost, l.hops, node.raw()),
        l.pred.map_or(NO_PRED, |(p, e)| (p.raw(), e.raw())),
        LABELLED
            | bit(l.has_left, HAS_LEFT)
            | bit(l.has_right, HAS_RIGHT)
            | bit(l.tainted, TAINTED)
            | bit(l.via_backlink, VIA_BACK)
            | bit(l.ambiguous, AMBIGUOUS),
    )
}

/// Everything a relaxation needs about its tail node, loaded once per
/// extraction instead of once per edge.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The tail node.
    pub node: NodeId,
    /// Its label's cost.
    pub cost: Cost,
    /// Its label's visible hops.
    pub hops: u32,
    /// Its label's path-state bits.
    pub state: u8,
    /// The edge that reached the node (for the network-exit operator
    /// rule).
    pred_edge: Option<EdgeId>,
    is_domain: bool,
    /// Edges out of the source use raw costs when the source carries
    /// an `adjust` bias (the bias was folded in at freeze time).
    use_raw: bool,
    /// Every edge out of the node owes the dead-host penalty.
    dead: bool,
}

impl Tail {
    /// The tail for `node` carrying the label `(key, pred, state)`, in
    /// a run from `source`.
    #[inline]
    pub fn load(f: &FrozenGraph, source: NodeId, node: NodeId, (key, pred, state): Packed) -> Tail {
        let is_source = node == source;
        let flags = f.flags(node);
        Tail {
            node,
            cost: key_cost(key),
            hops: key_hops(key),
            state,
            pred_edge: (pred != NO_PRED).then(|| EdgeId::from_raw(pred.1)),
            is_domain: flags.contains(NodeFlags::DOMAIN),
            use_raw: is_source && f.adjust(node) != 0,
            dead: !is_source && flags.contains(NodeFlags::DEAD),
        }
    }

    /// The tail a run from `source` starts with.
    #[inline]
    pub fn source(f: &FrozenGraph, source: NodeId) -> Tail {
        Tail::load(f, source, source, source_label(f, source))
    }

    /// The tail at the head of `edge` (= frozen edge `e_raw`), reached
    /// from this one by `step`.
    #[inline]
    pub fn advance(
        &self,
        f: &FrozenGraph,
        source: NodeId,
        e_raw: u32,
        edge: FrozenEdge,
        step: &Step,
    ) -> Tail {
        let v = edge.to();
        Tail::load(f, source, v, step.label(self, e_raw, v))
    }
}

/// One relaxation's result: the candidate label for the edge's head,
/// and the terms it was summed from.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Candidate path cost.
    pub cost: Cost,
    /// Candidate visible-hop count.
    pub hops: u32,
    /// Candidate path-state bits.
    pub state: u8,
    /// The edge weight charged (after `adjust`).
    pub base: Cost,
    /// Gate penalty charged.
    pub gate: Cost,
    /// Relay penalty charged.
    pub relay: Cost,
    /// Mixed-syntax penalty charged.
    pub mixed: Cost,
    /// The gate rule fired (whatever the penalty is configured to).
    pub gate_fired: bool,
    /// The relay rule fired.
    pub relay_fired: bool,
    /// The hop puts a `!` after an `@`.
    pub ambiguous_hop: bool,
}

impl Step {
    /// The candidate as a packed label for head `v`, reached from
    /// `tail` over frozen edge `e_raw`.
    #[inline]
    pub fn label(&self, tail: &Tail, e_raw: u32, v: NodeId) -> Packed {
        (
            pack_key(self.cost, self.hops, v.raw()),
            (tail.node.raw(), e_raw),
            self.state,
        )
    }
}

/// What [`settle`] did with a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// New label, or a strictly smaller key: the caller queues the
    /// node again.
    Improved,
    /// Equal key, smaller `(pred, edge)`: label rewritten, key
    /// unchanged.
    TieWon,
    /// Equal key, the existing predecessor stays.
    TieKept,
    /// The candidate lost.
    Worse,
}

/// Offers `cand` to the slot `(key, pred, state)`, which holds a label
/// iff `labelled`. Ties break on the smaller `(pred id, edge id)`, so
/// the outcome does not depend on visit order.
#[inline]
pub fn settle(
    labelled: bool,
    key: &mut Key,
    pred: &mut (u32, u32),
    state: &mut u8,
    cand: Packed,
) -> Settled {
    let outcome = if !labelled || cand.0 < *key {
        Settled::Improved
    } else if cand.0 > *key {
        return Settled::Worse;
    } else if cand.1 < *pred {
        Settled::TieWon
    } else {
        return Settled::TieKept;
    };
    (*key, *pred, *state) = cand;
    outcome
}

/// Whether entering gated node `v` over the edge counts as going
/// through a gateway; each clause is one rule.
#[inline]
fn gateway_exempt(tail_is_domain: bool, eflags: LinkFlags, v_is_domain: bool) -> bool {
    eflags.contains(LinkFlags::GATEWAY)
        || eflags.contains(LinkFlags::ALIAS)
        // Parent network/domain exiting into a gated member: the
        // parent is the member's gateway.
        || eflags.contains(LinkFlags::NET_OUT)
        // A (non-domain) host member entering its own domain.
        || (eflags.contains(LinkFlags::NET_IN) && v_is_domain && !tail_is_domain)
        // An explicitly written link into a gated net declares its
        // writer a gateway (how `seismo .edu(DEDICATED)` works).
        || (eflags.is_explicit() && !tail_is_domain)
}

/// Whether the edge owes the gate penalty: its head demands a gateway
/// and the edge is not one. Reads only node and edge properties.
#[inline]
fn gate_applies(f: &FrozenGraph, tail_is_domain: bool, edge: FrozenEdge) -> bool {
    let vflags = f.flags(edge.to());
    vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
        && !gateway_exempt(
            tail_is_domain,
            edge.flags(),
            vflags.contains(NodeFlags::DOMAIN),
        )
}

/// Whether a tainted path owes the relay penalty on this edge.
#[inline]
fn relay_applies(eflags: LinkFlags) -> bool {
    !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT)
}

/// The operator side of the *visible hop* this edge appends, if any.
/// Alias and network-entry edges append nothing; network-exit edges use
/// "the ones encountered when entering the network". The relaxation
/// never needs the operator character, only its side.
#[inline]
fn visible_dir(f: &FrozenGraph, tail: &Tail, edge: FrozenEdge) -> Option<Dir> {
    let eflags = edge.flags();
    if eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_IN) {
        return None;
    }
    if eflags.contains(LinkFlags::NET_OUT) {
        return Some(
            tail.pred_edge
                .map_or_else(|| edge.dir(), |pe| f.edge(pe).dir()),
        );
    }
    Some(edge.dir())
}

/// Penalty configuration for the mapping phase.
///
/// The defaults reproduce the paper's behaviour; [`CostModel::plain`]
/// turns every heuristic off, which the experiments harness uses to
/// measure each heuristic's effect (E10, E11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Added when entering a gatewayed network (a `gated` network or
    /// any domain) through an edge that is not a gateway. "Any path
    /// that enters such a network through a host not declared as a
    /// gateway is severely penalized."
    pub gate_penalty: Cost,
    /// Added to any further link once a path has passed through a
    /// domain. "A similar constraint also affects links out of domains
    /// ... This assures compliance with ARPANET restrictions on use of
    /// the network as a relay."
    pub relay_penalty: Cost,
    /// Added when a hop's routing syntax would make the route
    /// ambiguous. "It's clear, then, that we should be willing to pay a
    /// price if it results in fewer ambiguous routes."
    pub mixed_penalty: Cost,
    /// Penalize *any* change of routing syntax, not just the
    /// ambiguity-creating `!`-after-`@` form. The paper's own worked
    /// example prints `duke!research!ucbvax!%s@mit-ai` at an unpenalized
    /// cost of 3395, so the tolerated classic form (a single `@` hop
    /// after a pure `!` prefix) must be free by default.
    pub strict_mixed: bool,
    /// Added to every link leaving a host declared `dead` ("may be a
    /// destination, never a relay").
    pub dead_penalty: Cost,
    /// Added to links declared dead.
    pub dead_link_penalty: Cost,
    /// Added to invented back links, keeping "paths generated by
    /// implication" strictly last-resort.
    pub backlink_penalty: Cost,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gate_penalty: INF,
            relay_penalty: INF,
            mixed_penalty: 100_000,
            strict_mixed: false,
            dead_penalty: INF,
            dead_link_penalty: INF,
            backlink_penalty: INF,
        }
    }
}

impl CostModel {
    /// The paper's model (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Pure weighted-graph model: every heuristic disabled. Dijkstra on
    /// this model is a clean shortest-path oracle, which the property
    /// tests exploit.
    pub fn plain() -> Self {
        CostModel {
            gate_penalty: 0,
            relay_penalty: 0,
            mixed_penalty: 0,
            strict_mixed: false,
            dead_penalty: 0,
            dead_link_penalty: 0,
            backlink_penalty: 0,
        }
    }

    /// Whether the model applies no heuristics at all.
    pub fn is_plain(&self) -> bool {
        *self == Self::plain()
    }

    /// Costs the relaxation of frozen edge `e_raw` (= `edge`) out of
    /// `tail`: what the path pays and the state it arrives in.
    // `always`: with a plain hint LLVM leaves this a call inside the
    // router's loops, which costs the bidirectional tier 5% (560 →
    // 590 µs a search on the paper-scale world).
    #[inline(always)]
    pub fn step(&self, f: &FrozenGraph, tail: &Tail, e_raw: u32, edge: FrozenEdge) -> Step {
        let eflags = edge.flags();
        let base = if tail.use_raw {
            f.edge_raw_cost(EdgeId::from_raw(e_raw))
        } else {
            edge.cost()
        };
        let mut extra = if tail.dead { self.dead_penalty } else { 0 };
        if eflags.contains(LinkFlags::DEAD) {
            extra += self.dead_link_penalty;
        }
        let gate_fired = gate_applies(f, tail.is_domain, edge);
        let gate = if gate_fired { self.gate_penalty } else { 0 };
        let relay_fired = tail.state & TAINTED != 0 && relay_applies(eflags);
        let relay = if relay_fired { self.relay_penalty } else { 0 };

        let vis = visible_dir(f, tail, edge);
        let mut mixed = 0;
        let mut ambiguous_hop = false;
        let mut state = (tail.state & !MAPPED) | LABELLED;
        match vis {
            Some(Dir::Left) => {
                // `!` applied after `@` builds an address UUCP mailers
                // misparse: always penalized, and recorded even when
                // the penalty is configured to zero.
                if tail.state & HAS_RIGHT != 0 {
                    mixed = self.mixed_penalty;
                    ambiguous_hop = true;
                    state |= AMBIGUOUS;
                }
                state |= HAS_LEFT;
            }
            Some(Dir::Right) => {
                // The classic `bang!path!%s@host` form is tolerated
                // unless strict mode penalizes all mixing.
                if self.strict_mixed && tail.state & HAS_LEFT != 0 {
                    mixed = self.mixed_penalty;
                }
                state |= HAS_RIGHT;
            }
            None => {}
        }
        if f.is_domain(edge.to()) {
            state |= TAINTED;
        }
        if eflags.contains(LinkFlags::BACK) {
            state |= VIA_BACK;
        }
        Step {
            cost: tail
                .cost
                .saturating_add(base)
                .saturating_add(gate)
                .saturating_add(relay)
                .saturating_add(mixed)
                .saturating_add(extra),
            hops: tail.hops + u32::from(vis.is_some()),
            state,
            base,
            gate,
            relay,
            mixed,
            gate_fired,
            relay_fired,
            ambiguous_hop,
        }
    }

    /// A lower bound on what [`step`](Self::step) charges for the edge
    /// `u --e_raw--> edge.to()` from *any* label at `u`: each term is
    /// included only when it applies to every forward path over the
    /// edge, so sums of these along a path under-approximate the
    /// path's cost. With `source` the bound is for runs from that
    /// source; with `None` it holds for every source (the metric a
    /// contraction hierarchy is built over).
    ///
    /// * The base cost is exact given the source (raw at an adjusted
    ///   source, folded elsewhere); without one it is the smaller of
    ///   the two.
    /// * The dead-link penalty is an edge property; the dead-host
    ///   penalty exempts the source, so it needs one.
    /// * The gate rule reads only node and edge properties.
    /// * Every label at a domain is tainted (a domain source starts
    ///   tainted; reaching a domain taints), so the relay penalty is
    ///   owed when `u` is a domain — and bounds to 0 otherwise, as the
    ///   path-state dependent mixed penalty always does.
    #[inline]
    pub fn lower_bound(
        &self,
        f: &FrozenGraph,
        source: Option<NodeId>,
        u: NodeId,
        e_raw: u32,
        edge: FrozenEdge,
    ) -> Cost {
        let raw = || f.edge_raw_cost(EdgeId::from_raw(e_raw));
        let uflags = f.flags(u);
        let u_is_domain = uflags.contains(NodeFlags::DOMAIN);
        let mut w = match source {
            Some(s) if s == u && f.adjust(u) != 0 => raw(),
            Some(_) => edge.cost(),
            None => edge.cost().min(raw()),
        };
        if source.is_some_and(|s| s != u) && uflags.contains(NodeFlags::DEAD) {
            w = w.saturating_add(self.dead_penalty);
        }
        if edge.flags().contains(LinkFlags::DEAD) {
            w = w.saturating_add(self.dead_link_penalty);
        }
        if gate_applies(f, u_is_domain, edge) {
            w = w.saturating_add(self.gate_penalty);
        }
        if u_is_domain && relay_applies(edge.flags()) {
            w = w.saturating_add(self.relay_penalty);
        }
        w
    }
}

/// The universal lower-bound weight vector the contraction hierarchy
/// is built over: [`CostModel::lower_bound`] with no source, one entry
/// per frozen edge. Summing these along any path under-approximates
/// what the mapper charges for it from any label at any source, so
/// hierarchy distances over this metric are sound pruning bounds for
/// the certified search.
pub fn ch_weights(f: &FrozenGraph, model: &CostModel) -> Vec<Cost> {
    let mut w = Vec::with_capacity(f.edge_count());
    for u in f.node_ids() {
        let (base_edge, row) = f.edge_slice(u);
        w.extend(
            row.iter()
                .enumerate()
                .map(|(i, &edge)| model.lower_bound(f, None, u, base_edge + i as u32, edge)),
        );
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let m = CostModel::default();
        assert_eq!(m.gate_penalty, INF);
        assert_eq!(m.relay_penalty, INF);
        assert!(m.mixed_penalty > 0 && m.mixed_penalty < INF);
        assert!(!m.strict_mixed);
        assert_eq!(CostModel::paper(), m);
    }

    #[test]
    fn plain_is_plain() {
        assert!(CostModel::plain().is_plain());
        assert!(!CostModel::default().is_plain());
    }
}
