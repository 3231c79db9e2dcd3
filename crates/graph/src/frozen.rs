//! The frozen graph: an immutable compressed-sparse-row snapshot.
//!
//! The paper's mapping phase is "mostly pointers and flags": the
//! mutable [`Graph`] keeps singly-linked adjacency lists, so every
//! traversal chases pointers across the heap. Freezing rebuilds the
//! graph into contiguous arrays — per-node `[start, end)` ranges into
//! parallel `edge_*` slices — which is what Dijkstra actually wants to
//! iterate: one cache line holds many edges, and the visit state is a
//! dense array indexed by node id instead of a hash lookup.
//!
//! Freezing is also where declaration-time bookkeeping is settled once
//! instead of per relaxation:
//!
//! * `delete`d nodes lose their edges (in both directions) — the mapper
//!   never has to test for them again;
//! * `delete`d links are dropped outright;
//! * exact-duplicate parallel links (same target, operator and flags)
//!   collapse to the cheapest declaration;
//! * `adjust` biases are folded into the stored edge costs (the raw
//!   cost is kept on the side for the one case that must not be biased:
//!   edges leaving the mapping *source*).
//!
//! A [`FrozenGraph`] is cheap to share (`Arc`) and never changes; the
//! back-link pass builds an *augmented* copy with
//! [`FrozenGraph::with_edges_appended`] rather than mutating anything.
//!
//! # Examples
//!
//! ```
//! use pathalias_graph::{Graph, RouteOp};
//!
//! let mut g = Graph::new();
//! let a = g.node("unc");
//! let b = g.node("duke");
//! g.declare_link(a, b, 500, RouteOp::UUCP);
//! let f = g.freeze();
//! let out: Vec<_> = f.out_edges(a).collect();
//! assert_eq!(out.len(), 1);
//! assert_eq!(f.edge_target(out[0]), b);
//! assert_eq!(f.edge_cost(out[0]), 500);
//! assert_eq!(f.name(b), "duke");
//! ```

use crate::cost::Cost;
use crate::flags::{LinkFlags, NodeFlags};
use crate::graph::{Graph, NodeId};
use crate::link::{Dir, RouteOp};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Identifies an edge in a [`FrozenGraph`]: an index into the CSR edge
/// arrays. Edge ids are only meaningful for the frozen graph that
/// produced them (an augmented copy renumbers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Builds an edge id from a raw index.
    #[inline]
    pub fn from_raw(idx: u32) -> Self {
        EdgeId(idx)
    }

    /// The raw index value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One frozen edge, packed into 16 bytes so a cache line holds four:
/// target, cost, routing operator (char + side as bytes) and flags.
/// Field order mirrors the [`snapshot`](crate::snapshot) record layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenEdge {
    pub(crate) to: u32,
    pub(crate) op_ch: u8,
    /// 0 = host-on-left (`!`), 1 = host-on-right (`@`).
    pub(crate) op_dir: u8,
    pub(crate) flags: LinkFlags,
    pub(crate) cost: Cost,
}

impl FrozenEdge {
    pub(crate) fn new(to: NodeId, cost: Cost, op: RouteOp, flags: LinkFlags) -> FrozenEdge {
        debug_assert!(op.ch.is_ascii(), "routing operators are ASCII");
        FrozenEdge {
            to: to.raw(),
            op_ch: op.ch as u8,
            op_dir: match op.dir {
                Dir::Left => 0,
                Dir::Right => 1,
            },
            flags,
            cost,
        }
    }

    /// The edge's head (target) node.
    #[inline]
    pub fn to(self) -> NodeId {
        NodeId::from_raw(self.to)
    }

    /// The edge's cost (with the tail's `adjust` bias applied).
    #[inline]
    pub fn cost(self) -> Cost {
        self.cost
    }

    /// The edge's routing operator.
    #[inline]
    pub fn op(self) -> RouteOp {
        RouteOp {
            ch: self.op_ch as char,
            dir: if self.op_dir == 0 {
                Dir::Left
            } else {
                Dir::Right
            },
        }
    }

    /// The edge's flags.
    #[inline]
    pub fn flags(self) -> LinkFlags {
        self.flags
    }

    /// Which side of the operator the host lands on — all the
    /// relaxation needs from the operator, without rebuilding a
    /// [`RouteOp`].
    #[inline]
    pub fn dir(self) -> Dir {
        if self.op_dir == 0 {
            Dir::Left
        } else {
            Dir::Right
        }
    }
}

/// A replacement adjacency row for one node, consumed by
/// [`FrozenGraph::with_rows_replaced`]: the node's complete new
/// out-link list in declaration order, with raw (pre-`adjust`) costs —
/// the same shape the freezer reads out of a built [`Graph`].
#[derive(Debug, Clone)]
pub struct RowPatch {
    /// The node whose row is replaced.
    pub node: NodeId,
    /// The full new row: `(target, raw cost, operator, flags)`.
    pub edges: Vec<(NodeId, Cost, RouteOp, LinkFlags)>,
}

/// Maps edge ids of a snapshot onto the delta-applied snapshot
/// returned by [`FrozenGraph::with_rows_replaced`]. Edges before the
/// first replaced row keep their ids; later edges shift by the
/// cumulative row-size delta; edges *inside* a replaced row have no
/// counterpart and map to `None`.
#[derive(Debug, Clone)]
pub struct EdgeShift {
    /// Per replaced row, ascending: `(old_start, old_end, delta)`
    /// where `delta` applies to every old edge id at or past
    /// `old_end` (until the next span).
    spans: Vec<(u32, u32, i64)>,
}

impl EdgeShift {
    /// The new id of old edge `e`, or `None` when `e` sat inside a
    /// replaced row.
    pub fn map(&self, e: EdgeId) -> Option<EdgeId> {
        let raw = e.raw();
        // Rightmost span starting at or before `raw`.
        let i = self.spans.partition_point(|&(start, _, _)| start <= raw);
        if i == 0 {
            return Some(e); // Before the first dirty row: identity.
        }
        let (_, end, delta) = self.spans[i - 1];
        if raw < end {
            return None; // Inside a replaced row.
        }
        Some(EdgeId::from_raw((raw as i64 + delta) as u32))
    }

    /// Whether the delta moved no surviving edge (every replaced row
    /// kept its length), so old and new ids coincide outside the
    /// replaced rows.
    pub fn is_identity_outside_rows(&self) -> bool {
        self.spans.iter().all(|&(_, _, delta)| delta == 0)
    }
}

/// An immutable, cache-friendly snapshot of a built [`Graph`].
///
/// Node ids are shared with the source graph (the pool indices are
/// already dense `u32`s), so a [`NodeId`] means the same node before
/// and after freezing. Edges get fresh dense [`EdgeId`]s in CSR order:
/// all edges out of node 0, then node 1, and so on, each adjacency run
/// in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenGraph {
    pub(crate) ignore_case: bool,
    /// Shared with every graph derived from this one
    /// ([`with_edges_appended`](FrozenGraph::with_edges_appended),
    /// [`with_rows_replaced`](FrozenGraph::with_rows_replaced)): a
    /// derivation never changes a name.
    pub(crate) names: Arc<Names>,
    pub(crate) flags: Vec<NodeFlags>,
    pub(crate) adjust: Vec<i64>,
    /// CSR row starts; `row_start[n]..row_start[n+1]` indexes `edges`.
    pub(crate) row_start: Vec<u32>,
    /// All edges, packed, in CSR order; costs carry the tail's
    /// `adjust` bias (clamped at zero).
    pub(crate) edges: Vec<FrozenEdge>,
    /// Pre-`adjust` costs, kept only for edges whose tail carries a
    /// bias (rare): the bias must not apply when the tail is the
    /// mapping source.
    pub(crate) raw_cost: HashMap<u32, Cost>,
}

/// A snapshot's node names and their lookup index.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Names {
    /// All node names, concatenated; `off` has n+1 offsets.
    pub(crate) data: String,
    pub(crate) off: Vec<u32>,
    /// Global (non-`private`) name lookup, folded when `ignore_case`.
    pub(crate) index: HashMap<Box<str>, u32>,
}

impl FrozenGraph {
    /// Builds the CSR snapshot. Equivalent to [`Graph::freeze`].
    pub fn freeze(g: &Graph) -> FrozenGraph {
        let n = g.node_count();
        let mut name_data = String::new();
        let mut name_off = Vec::with_capacity(n + 1);
        let mut flags = Vec::with_capacity(n);
        let mut adjust = Vec::with_capacity(n);
        let mut index: HashMap<Box<str>, u32> = HashMap::with_capacity(n);

        let mut row_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut edges: Vec<FrozenEdge> = Vec::new();
        let mut raw_cost: HashMap<u32, Cost> = HashMap::new();

        // Scratch reused per node: adjacency in declaration order.
        let mut row: Vec<(NodeId, Cost, RouteOp, LinkFlags)> = Vec::new();
        let mut settle = RowSettler::new(n);

        for (id, node) in g.iter_nodes() {
            name_off.push(name_data.len() as u32);
            name_data.push_str(g.name(id));
            flags.push(node.flags);
            adjust.push(node.adjust);
            if !node.flags.contains(NodeFlags::PRIVATE) {
                let key = if g.ignore_case() {
                    g.name(id).to_ascii_lowercase()
                } else {
                    g.name(id).to_string()
                };
                index.entry(key.into()).or_insert(id.raw());
            }

            row_start.push(edges.len() as u32);
            if !node.is_mappable() {
                continue; // Deleted nodes keep their slot but lose all edges.
            }
            // The adjacency list is stored newest-first; reverse it so
            // CSR order is declaration order and the "smaller link id
            // wins" tie break keeps its meaning.
            row.clear();
            for (_, l) in g.links_from(id) {
                if l.flags.contains(LinkFlags::DELETED) || !g.node_ref(l.to).is_mappable() {
                    continue;
                }
                row.push((l.to, l.cost, l.op, l.flags));
            }
            row.reverse();
            settle.row(&mut edges, &mut raw_cost, node.adjust, row.iter().copied());
        }
        name_off.push(name_data.len() as u32);
        row_start.push(edges.len() as u32);

        // Private hosts are file-scoped, but `-l`/`-t` may still name
        // one when no global host claims the name; fall back to the
        // first private declaration then.
        for (id, node) in g.iter_nodes() {
            if node.flags.contains(NodeFlags::PRIVATE) {
                let key = if g.ignore_case() {
                    g.name(id).to_ascii_lowercase()
                } else {
                    g.name(id).to_string()
                };
                index.entry(key.into()).or_insert(id.raw());
            }
        }

        FrozenGraph {
            ignore_case: g.ignore_case(),
            names: Arc::new(Names {
                data: name_data,
                off: name_off,
                index,
            }),
            flags,
            adjust,
            row_start,
            edges,
            raw_cost,
        }
    }

    /// Rebuilds the snapshot with `extra` edges appended to their tail
    /// nodes' adjacency runs (the back-link pass's "invent links ...
    /// and continue"). Costs are given raw; the tail's `adjust` bias is
    /// applied exactly as [`freeze`](FrozenGraph::freeze) would.
    /// Appending keeps every existing within-row edge order, so tie
    /// breaks against older edges are unchanged.
    pub fn with_edges_appended(
        &self,
        extra: &[(NodeId, NodeId, Cost, RouteOp, LinkFlags)],
    ) -> FrozenGraph {
        let n = self.node_count();
        let mut per_node: Vec<Vec<(NodeId, Cost, RouteOp, LinkFlags)>> = vec![Vec::new(); n];
        for &(from, to, cost, op, lflags) in extra {
            per_node[from.index()].push((to, cost, op, lflags));
        }

        let m = self.edges.len() + extra.len();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut edges: Vec<FrozenEdge> = Vec::with_capacity(m);
        let mut raw_cost = HashMap::new();

        for (u, extras) in per_node.iter().enumerate() {
            row_start.push(edges.len() as u32);
            for e in self.row(u) {
                if let Some(&raw) = self.raw_cost.get(&(e as u32)) {
                    raw_cost.insert(edges.len() as u32, raw);
                }
                edges.push(self.edges[e]);
            }
            let bias = self.adjust[u];
            for &(to, cost, op, lflags) in extras {
                if bias != 0 {
                    raw_cost.insert(edges.len() as u32, cost);
                }
                edges.push(FrozenEdge::new(
                    to,
                    if bias != 0 {
                        apply_adjust(cost, bias)
                    } else {
                        cost
                    },
                    op,
                    lflags,
                ));
            }
        }
        row_start.push(edges.len() as u32);

        FrozenGraph {
            ignore_case: self.ignore_case,
            names: self.names.clone(),
            flags: self.flags.clone(),
            adjust: self.adjust.clone(),
            row_start,
            edges,
            raw_cost,
        }
    }

    /// Rebuilds the snapshot with the adjacency rows of the patched
    /// nodes replaced wholesale, reusing the CSR prefix before the
    /// first dirty row byte-for-byte (only the suffix shifts). This is
    /// the incremental-freeze path: an entry-level map edit touches a
    /// handful of rows, and every other node keeps its id and — up to a
    /// uniform index shift — its edge range.
    ///
    /// Patch edges are given raw, in declaration order; the same
    /// settling [`freeze`](FrozenGraph::freeze) performs is applied per
    /// replaced row: edges to deleted nodes are dropped, exact
    /// duplicates collapse to the cheapest, and the tail's `adjust`
    /// bias is folded in (raw cost kept on the side). A patch for a
    /// deleted node yields an empty row, as freezing would.
    ///
    /// `patches` must be sorted by node id, without duplicates. The
    /// returned [`EdgeShift`] maps the old snapshot's edge ids into the
    /// new one, `None` for edges inside replaced rows.
    pub fn with_rows_replaced(&self, patches: &[RowPatch]) -> (FrozenGraph, EdgeShift) {
        debug_assert!(
            patches.windows(2).all(|w| w[0].node < w[1].node),
            "patches must be sorted by node id, without duplicates"
        );
        if patches.is_empty() {
            return (self.clone(), EdgeShift { spans: Vec::new() });
        }
        let n = self.node_count();
        let first = patches[0].node.index();
        assert!(
            patches.last().unwrap().node.index() < n,
            "patch for a node outside the snapshot"
        );

        // Reuse the untouched prefix: row starts for nodes 0..=first
        // and every edge before the first dirty row.
        let cut = self.row_start[first] as usize;
        let mut row_start: Vec<u32> = self.row_start[..=first].to_vec();
        let mut edges: Vec<FrozenEdge> = self.edges[..cut].to_vec();
        let mut raw_cost: HashMap<u32, Cost> = HashMap::new();
        let mut spans: Vec<(u32, u32, i64)> = Vec::with_capacity(patches.len());
        let mut settle = RowSettler::new(n);

        let mut next_patch = 0usize;
        for u in first..n {
            let old = self.row(u);
            if next_patch < patches.len() && patches[next_patch].node.index() == u {
                let patch = &patches[next_patch];
                next_patch += 1;
                if self.is_mappable(NodeId::from_raw(u as u32)) {
                    let live = patch.edges.iter().copied().filter(|&(to, _, _, lflags)| {
                        !lflags.contains(LinkFlags::DELETED) && self.is_mappable(to)
                    });
                    settle.row(&mut edges, &mut raw_cost, self.adjust[u], live);
                }
                // Cumulative shift for every old edge after this row.
                let delta = edges.len() as i64 - old.end as i64;
                spans.push((old.start as u32, old.end as u32, delta));
            } else {
                edges.extend_from_slice(&self.edges[old]);
            }
            row_start.push(edges.len() as u32);
        }

        let shift = EdgeShift { spans };
        // Raw-cost sidecar entries outside the dirty rows follow their
        // edges; entries inside were re-derived (or dropped) above.
        for (&k, &v) in &self.raw_cost {
            if let Some(nk) = shift.map(EdgeId::from_raw(k)) {
                raw_cost.insert(nk.raw(), v);
            }
        }

        (
            FrozenGraph {
                ignore_case: self.ignore_case,
                names: self.names.clone(),
                flags: self.flags.clone(),
                adjust: self.adjust.clone(),
                row_start,
                edges,
                raw_cost,
            },
            shift,
        )
    }

    /// Whether name lookups fold case.
    pub fn ignore_case(&self) -> bool {
        self.ignore_case
    }

    /// Number of nodes (deleted and private nodes keep their slots).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.flags.len()
    }

    /// Number of edges that survived freezing.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node's display name.
    #[inline]
    pub fn name(&self, id: NodeId) -> &str {
        let i = id.index();
        let names = &*self.names;
        &names.data[names.off[i] as usize..names.off[i + 1] as usize]
    }

    /// Looks up a host by name. Global names win; a name claimed only
    /// by `private` declarations resolves to the first of them (the
    /// file-scoped shadowing that existed during parsing is gone once
    /// frozen, but `-l`/`-t` naming a private-only host still works).
    pub fn id_of(&self, name: &str) -> Option<NodeId> {
        let id = if self.ignore_case {
            self.names.index.get(name.to_ascii_lowercase().as_str())
        } else {
            self.names.index.get(name)
        };
        id.map(|&raw| NodeId::from_raw(raw))
    }

    /// The node's flags.
    #[inline]
    pub fn flags(&self, id: NodeId) -> NodeFlags {
        self.flags[id.index()]
    }

    /// The node's `adjust` bias (already folded into its out-edge
    /// costs; exposed for the source-edge exemption and reporting).
    #[inline]
    pub fn adjust(&self, id: NodeId) -> i64 {
        self.adjust[id.index()]
    }

    /// Whether the node is a network placeholder (including domains).
    #[inline]
    pub fn is_net(&self, id: NodeId) -> bool {
        self.flags[id.index()].intersects(NodeFlags::NET | NodeFlags::DOMAIN)
    }

    /// Whether the node is a domain.
    #[inline]
    pub fn is_domain(&self, id: NodeId) -> bool {
        self.flags[id.index()].contains(NodeFlags::DOMAIN)
    }

    /// Whether entering the node requires a gateway.
    #[inline]
    pub fn is_gated(&self, id: NodeId) -> bool {
        self.flags[id.index()].intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
    }

    /// Whether the mapping phase should consider this node at all.
    #[inline]
    pub fn is_mappable(&self, id: NodeId) -> bool {
        !self.flags[id.index()].contains(NodeFlags::DELETED)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId::from_raw)
    }

    /// The CSR edge range of `id`, as raw indices into the edge arrays.
    #[inline]
    pub fn row(&self, id: usize) -> Range<usize> {
        self.row_start[id] as usize..self.row_start[id + 1] as usize
    }

    /// Iterates the out-edges of `id` in declaration order.
    #[inline]
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = EdgeId> {
        self.row(id.index()).map(|e| EdgeId(e as u32))
    }

    /// Out-degree after freezing.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.row(id.index()).len()
    }

    /// The packed edge record.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> FrozenEdge {
        self.edges[e.index()]
    }

    /// The packed edges of `id` plus the edge id of the first, for the
    /// hot loop: one bounds check per node, then slice iteration.
    #[inline]
    pub fn edge_slice(&self, id: NodeId) -> (u32, &[FrozenEdge]) {
        let r = self.row(id.index());
        (r.start as u32, &self.edges[r])
    }

    /// The edge's head (target) node.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].to()
    }

    /// The edge's cost, with the tail's `adjust` bias applied.
    #[inline]
    pub fn edge_cost(&self, e: EdgeId) -> Cost {
        self.edges[e.index()].cost()
    }

    /// The edge's cost *without* the tail's `adjust` bias — what the
    /// relaxation must use when the tail is the mapping source.
    #[inline]
    pub fn edge_raw_cost(&self, e: EdgeId) -> Cost {
        self.raw_cost
            .get(&e.raw())
            .copied()
            .unwrap_or_else(|| self.edges[e.index()].cost())
    }

    /// The edge's routing operator.
    #[inline]
    pub fn edge_op(&self, e: EdgeId) -> RouteOp {
        self.edges[e.index()].op()
    }

    /// The edge's flags.
    #[inline]
    pub fn edge_flags(&self, e: EdgeId) -> LinkFlags {
        self.edges[e.index()].flags()
    }

    /// Whether a live BACK edge `from -> to` already exists (the
    /// back-link pass invents each reverse link at most once).
    pub fn has_back_edge(&self, from: NodeId, to: NodeId) -> bool {
        let (_, row) = self.edge_slice(from);
        row.iter()
            .any(|e| e.to() == to && e.flags().contains(LinkFlags::BACK))
    }
}

impl Graph {
    /// Freezes the built graph into its immutable CSR snapshot (see
    /// [`FrozenGraph`]).
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::freeze(self)
    }
}

/// Applies an `adjust` bias to a cost, clamping into the `Cost` range.
#[inline]
fn apply_adjust(cost: Cost, bias: i64) -> Cost {
    ((cost as i128) + (bias as i128)).clamp(0, Cost::MAX as i128) as Cost
}

/// Settles adjacency rows the way a freeze does, for
/// [`FrozenGraph::freeze`] and [`FrozenGraph::with_rows_replaced`]:
/// exact-duplicate parallel links (same target, operator and flags)
/// collapse to the cheapest declaration, and the tail's `adjust` bias
/// is folded into the stored costs. Links that differ in role (alias
/// vs explicit vs net edge) have different mapping semantics and are
/// all kept.
///
/// A duplicate is found without walking the row: each target's first
/// edge in the row sits in an epoch-stamped per-node slot, and the
/// row's edges to one target are chained from it, so a 200,000-link
/// hub row settles in linear time.
struct RowSettler {
    /// Bumped per row, so stale slots need no clearing.
    epoch: u32,
    /// Per node: the epoch that last saw it as a target, and the
    /// index in `edges` of the row's first edge to it.
    first: Vec<(u32, u32)>,
    /// Per edge of the row being settled, by offset from the row's
    /// start: the next edge of the row to the same target.
    next: Vec<Option<u32>>,
}

impl RowSettler {
    fn new(nodes: usize) -> RowSettler {
        RowSettler {
            epoch: 0,
            first: vec![(0, 0); nodes],
            next: Vec::new(),
        }
    }

    /// Appends one settled row to `edges`, from `row`'s raw links in
    /// declaration order, noting raw costs in `raw_cost` when `bias`
    /// applies.
    fn row(
        &mut self,
        edges: &mut Vec<FrozenEdge>,
        raw_cost: &mut HashMap<u32, Cost>,
        bias: i64,
        row: impl Iterator<Item = (NodeId, Cost, RouteOp, LinkFlags)>,
    ) {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.first.iter_mut().for_each(|s| s.0 = 0);
            1
        });
        self.next.clear();
        let base = edges.len();
        'edges: for (to, cost, op, lflags) in row {
            let cand = FrozenEdge::new(to, cost, op, lflags);
            let slot = &mut self.first[to.index()];
            if slot.0 == self.epoch {
                let mut at = slot.1 as usize;
                loop {
                    let e = &mut edges[at];
                    if e.op_ch == cand.op_ch && e.op_dir == cand.op_dir && e.flags == cand.flags {
                        e.cost = e.cost.min(cand.cost);
                        continue 'edges;
                    }
                    match self.next[at - base] {
                        Some(next) => at = next as usize,
                        None => break,
                    }
                }
                self.next[at - base] = Some(edges.len() as u32);
            } else {
                *slot = (self.epoch, edges.len() as u32);
            }
            self.next.push(None);
            edges.push(cand);
        }
        // Remember the raw value for source-edge exemption.
        if bias != 0 {
            for (e, edge) in edges.iter_mut().enumerate().skip(base) {
                raw_cost.insert(e as u32, edge.cost);
                edge.cost = apply_adjust(edge.cost, bias);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::INF;
    use crate::link::RouteOp;

    #[test]
    fn csr_mirrors_declaration_order() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, c, 20, RouteOp::ARPA);
        let f = g.freeze();
        let out: Vec<_> = f.out_edges(a).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(
            f.edge_target(out[0]),
            b,
            "declaration order, not list order"
        );
        assert_eq!(f.edge_target(out[1]), c);
        assert_eq!(f.edge_cost(out[0]), 10);
        assert_eq!(f.edge_op(out[1]), RouteOp::ARPA);
        assert_eq!(f.edge_count(), 2);
        assert_eq!(f.degree(a), 2);
        assert_eq!(f.degree(b), 0);
    }

    #[test]
    fn deleted_nodes_lose_both_directions() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(b, c, 10, RouteOp::UUCP);
        g.declare_link(a, c, 99, RouteOp::UUCP);
        g.delete_node(b);
        let f = g.freeze();
        assert!(!f.is_mappable(b));
        assert_eq!(f.degree(b), 0, "out-edges dropped");
        let targets: Vec<_> = f.out_edges(a).map(|e| f.edge_target(e)).collect();
        assert_eq!(targets, vec![c], "in-edges dropped too");
    }

    #[test]
    fn deleted_links_dropped() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.delete_link(a, b);
        let f = g.freeze();
        assert_eq!(f.degree(a), 0);
    }

    #[test]
    fn exact_parallel_duplicates_collapse_to_cheapest() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        // declare_link dedups explicit links itself, so build the
        // parallel pair with raw adds (as the back-link pass might).
        g.add_raw_link(a, b, 30, RouteOp::UUCP, LinkFlags::empty());
        g.add_raw_link(a, b, 10, RouteOp::UUCP, LinkFlags::empty());
        // A different role to the same target is kept.
        g.add_raw_link(a, b, 5, RouteOp::UUCP, LinkFlags::ALIAS);
        let f = g.freeze();
        let out: Vec<_> = f.out_edges(a).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(f.edge_cost(out[0]), 10, "cheapest duplicate wins");
        assert!(f.edge_flags(out[1]).contains(LinkFlags::ALIAS));
    }

    #[test]
    fn adjust_folds_into_costs_with_raw_kept() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.adjust_node(a, 100);
        let f = g.freeze();
        let e = f.out_edges(a).next().unwrap();
        assert_eq!(f.edge_cost(e), 110);
        assert_eq!(f.edge_raw_cost(e), 10);
        assert_eq!(f.adjust(a), 100);

        // Negative bias clamps at zero but the raw cost survives.
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.adjust_node(a, -100);
        let f = g.freeze();
        let e = f.out_edges(a).next().unwrap();
        assert_eq!(f.edge_cost(e), 0);
        assert_eq!(f.edge_raw_cost(e), 10);
    }

    #[test]
    fn name_lookup_and_case_folding() {
        let mut g = Graph::with_ignore_case(true);
        let a = g.node("UNC");
        let f = g.freeze();
        assert_eq!(f.id_of("unc"), Some(a));
        assert_eq!(f.id_of("UNC"), Some(a));
        assert_eq!(f.name(a), "UNC", "display keeps the first spelling");
        assert!(f.id_of("duke").is_none());
    }

    #[test]
    fn private_nodes_shadowed_by_globals_in_lookup() {
        let mut g = Graph::new();
        g.begin_file("one");
        let global = g.node("bilbo");
        g.begin_file("two");
        let private = g.declare_private("bilbo");
        let f = g.freeze();
        assert_eq!(f.id_of("bilbo"), Some(global));
        assert_ne!(f.id_of("bilbo"), Some(private));
        assert_eq!(f.name(private), "bilbo", "still has its display name");
    }

    #[test]
    fn private_only_names_resolve_as_fallback() {
        // No global claims the name: `-l wiretap-bilbo` must still
        // find the private host.
        let mut g = Graph::new();
        g.begin_file("wiretap-site");
        let private = g.declare_private("bilbo");
        g.node("wiretap");
        let f = g.freeze();
        assert_eq!(f.id_of("bilbo"), Some(private));
    }

    #[test]
    fn appended_edges_respect_adjust_and_order() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.adjust_node(a, 7);
        let f = g.freeze();
        let f2 = f.with_edges_appended(&[
            (a, c, 20, RouteOp::UUCP, LinkFlags::BACK),
            (b, a, 5, RouteOp::ARPA, LinkFlags::BACK),
        ]);
        let out: Vec<_> = f2.out_edges(a).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(f2.edge_target(out[0]), b, "existing edges first");
        assert_eq!(f2.edge_cost(out[0]), 17, "existing bias preserved");
        assert_eq!(f2.edge_raw_cost(out[0]), 10);
        assert_eq!(f2.edge_cost(out[1]), 27, "appended edge biased too");
        assert_eq!(f2.edge_raw_cost(out[1]), 20);
        assert!(f2.has_back_edge(a, c));
        assert!(f2.has_back_edge(b, a));
        assert!(!f.has_back_edge(a, c), "original untouched");
        assert_eq!(f2.edge_count(), f.edge_count() + 2);
    }

    #[test]
    fn flags_and_predicates_survive() {
        let mut g = Graph::new();
        let net = g.node("NET");
        let d = g.node(".edu");
        let h = g.node("host");
        g.declare_network(net, &[(h, 50)], RouteOp::UUCP);
        g.mark_gated(net);
        g.mark_dead(h);
        let f = g.freeze();
        assert!(f.is_net(net) && f.is_gated(net) && !f.is_domain(net));
        assert!(f.is_domain(d) && f.is_gated(d) && f.is_net(d));
        assert!(f.flags(h).contains(NodeFlags::DEAD));
        assert!(f.is_mappable(h));
        // Network edges keep their roles and the zero exit cost.
        let entry = f.out_edges(h).next().unwrap();
        assert!(f.edge_flags(entry).contains(LinkFlags::NET_IN));
        assert_eq!(f.edge_cost(entry), 50);
        let exit = f.out_edges(net).next().unwrap();
        assert!(f.edge_flags(exit).contains(LinkFlags::NET_OUT));
        assert_eq!(f.edge_cost(exit), 0);
    }

    #[test]
    fn row_replacement_matches_cold_freeze() {
        // Build a -> {b, c}, b -> {c}, c -> {a}; then replace b's row
        // with {a, c} and check the patched snapshot equals freezing
        // the same world cold.
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, c, 20, RouteOp::UUCP);
        g.declare_link(b, c, 30, RouteOp::UUCP);
        g.declare_link(c, a, 40, RouteOp::UUCP);
        let f = g.freeze();

        let (patched, shift) = f.with_rows_replaced(&[RowPatch {
            node: b,
            edges: vec![
                (a, 5, RouteOp::UUCP, LinkFlags::empty()),
                (c, 35, RouteOp::UUCP, LinkFlags::empty()),
            ],
        }]);

        let mut g2 = Graph::new();
        let a2 = g2.node("a");
        let b2 = g2.node("b");
        let c2 = g2.node("c");
        g2.declare_link(a2, b2, 10, RouteOp::UUCP);
        g2.declare_link(a2, c2, 20, RouteOp::UUCP);
        g2.declare_link(b2, a2, 5, RouteOp::UUCP);
        g2.declare_link(b2, c2, 35, RouteOp::UUCP);
        g2.declare_link(c2, a2, 40, RouteOp::UUCP);
        assert_eq!(patched, g2.freeze(), "patched snapshot == cold freeze");

        // Prefix edges keep their ids; b's old row maps to None; c's
        // row shifts by the row-size delta (+1).
        let a_edges: Vec<_> = f.out_edges(a).collect();
        assert_eq!(shift.map(a_edges[0]), Some(a_edges[0]));
        assert_eq!(shift.map(a_edges[1]), Some(a_edges[1]));
        let b_edge = f.out_edges(b).next().unwrap();
        assert_eq!(shift.map(b_edge), None);
        let c_edge = f.out_edges(c).next().unwrap();
        assert_eq!(shift.map(c_edge), Some(EdgeId::from_raw(c_edge.raw() + 1)));
        assert!(!shift.is_identity_outside_rows());
        assert_eq!(
            patched.edge_target(shift.map(c_edge).unwrap()),
            f.edge_target(c_edge)
        );
    }

    #[test]
    fn row_replacement_settles_like_freeze() {
        // Duplicate collapse, deleted-target drop and adjust folding
        // must all happen inside a replaced row.
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        let dead = g.node("gone");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.adjust_node(a, 7);
        g.delete_node(dead);
        let f = g.freeze();

        let (patched, shift) = f.with_rows_replaced(&[RowPatch {
            node: a,
            edges: vec![
                (b, 30, RouteOp::UUCP, LinkFlags::empty()),
                (b, 10, RouteOp::UUCP, LinkFlags::empty()), // dup, cheaper
                (dead, 1, RouteOp::UUCP, LinkFlags::empty()), // dropped
                (c, 20, RouteOp::UUCP, LinkFlags::empty()),
            ],
        }]);
        let out: Vec<_> = patched.out_edges(a).collect();
        assert_eq!(out.len(), 2, "dup collapsed, deleted target dropped");
        assert_eq!(patched.edge_cost(out[0]), 17, "adjust folded in");
        assert_eq!(patched.edge_raw_cost(out[0]), 10, "raw kept");
        assert_eq!(patched.edge_cost(out[1]), 27);
        assert_eq!(shift.map(f.out_edges(a).next().unwrap()), None);

        // Patching a deleted node keeps its row empty.
        let (patched, _) = f.with_rows_replaced(&[RowPatch {
            node: dead,
            edges: vec![(b, 1, RouteOp::UUCP, LinkFlags::empty())],
        }]);
        assert_eq!(patched.degree(dead), 0, "deleted nodes stay edgeless");
    }

    #[test]
    fn cost_only_patch_is_identity_shift() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(b, a, 10, RouteOp::UUCP);
        let f = g.freeze();
        let (patched, shift) = f.with_rows_replaced(&[RowPatch {
            node: a,
            edges: vec![(b, 99, RouteOp::UUCP, LinkFlags::empty())],
        }]);
        assert!(shift.is_identity_outside_rows());
        let e = f.out_edges(b).next().unwrap();
        assert_eq!(shift.map(e), Some(e));
        assert_eq!(patched.edge_cost(patched.out_edges(a).next().unwrap()), 99);
        // Empty patch set: a plain clone.
        let (same, shift) = f.with_rows_replaced(&[]);
        assert_eq!(same, f);
        assert_eq!(shift.map(e), Some(e));
    }

    #[test]
    fn huge_biases_saturate_without_overflow() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, Cost::MAX - 5, RouteOp::UUCP);
        g.adjust_node(a, i64::MAX);
        let f = g.freeze();
        let e = f.out_edges(a).next().unwrap();
        assert_eq!(f.edge_cost(e), Cost::MAX, "saturates, no overflow");
        assert_eq!(f.edge_raw_cost(e), Cost::MAX - 5);
        // And a plain INF edge keeps its value untouched.
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, INF, RouteOp::UUCP);
        let f = g.freeze();
        let e = f.out_edges(a).next().unwrap();
        assert_eq!(f.edge_cost(e), INF);
    }
}
