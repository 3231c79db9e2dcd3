//! The frozen graph: an immutable compressed-sparse-row snapshot.
//!
//! The paper's mapping phase is "mostly pointers and flags": the
//! mutable [`Graph`] chains each node's links through one vector, so a
//! walk of a row chases indices across it. Freezing sorts the links
//! into contiguous rows — per-node `[start, end)` ranges into one
//! packed edge array — which is what Dijkstra actually wants to
//! iterate: one cache line holds many edges, and the visit state is a
//! dense array indexed by node id instead of a hash lookup. The names,
//! node flags and biases are the build's own vectors, moved in.
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
use crate::link::{Dir, Link, RouteOp};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One edge appended to a frozen graph, `(from, to, raw cost, operator,
/// flags)`: what [`FrozenGraph::with_edges_appended`] takes and
/// [`FrozenGraph::appended_since`] gives back.
pub type AppendedEdge = (NodeId, NodeId, Cost, RouteOp, LinkFlags);

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
/// Node ids are shared with the source graph (they are already dense
/// `u32` indices), so a [`NodeId`] means the same node before
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

/// Every node's name, in id order, and the index that finds a node by
/// name. The build graph grows it as it declares nodes, and the freeze
/// moves it into the snapshot whole, so a name is copied once, from the
/// input text, and hashed once.
#[derive(Debug, Clone)]
pub(crate) struct Names {
    /// All node names, concatenated; `off` has n+1 offsets.
    pub(crate) data: String,
    pub(crate) off: Vec<u32>,
    /// Whether lookups fold ASCII case.
    pub(crate) fold: bool,
    /// Open addressing with linear probing: node ids keyed by their
    /// names in `data`, [`VACANT`] where none sits. Between half and
    /// three quarters full, so a name costs at most eight bytes here
    /// and a lookup about two probes.
    index: Vec<u32>,
    /// Slots of `index` that hold an id.
    indexed: usize,
}

/// An empty slot of the name index.
const VACANT: u32 = u32::MAX;

/// Two name lists are equal when they hold the same names: the index
/// is derived, and its size depends on how it grew.
impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.fold == other.fold && self.off == other.off && self.data == other.data
    }
}

impl Eq for Names {}

impl Names {
    /// No names yet. Small, so an empty [`Graph`] costs nothing to make.
    pub(crate) fn empty(fold: bool) -> Names {
        Names {
            data: String::new(),
            off: vec![0],
            fold,
            index: vec![VACANT; 4],
            indexed: 0,
        }
    }

    /// Indexes `data`/`off` for `id_of` as a build would have: every
    /// global name, claimed by its first node, then the names only
    /// `private` nodes carry. The PAGF1 loader's builder, as the file
    /// stores no index.
    pub(crate) fn new(data: String, off: Vec<u32>, flags: &[NodeFlags], fold: bool) -> Names {
        let n = off.len().saturating_sub(1);
        let mut names = Names {
            data,
            off,
            fold,
            index: vec![VACANT; n + n / 2 + 1],
            indexed: 0,
        };
        for (id, f) in flags.iter().enumerate() {
            if !f.contains(NodeFlags::PRIVATE) {
                if let Err(slot) = names.probe(names.get(id)) {
                    names.insert_at(slot, id as u32);
                }
            }
        }
        names.index_private_only(flags);
        names
    }

    /// Node `id`'s name.
    #[inline]
    pub(crate) fn get(&self, id: usize) -> &str {
        &self.data[self.off[id] as usize..self.off[id + 1] as usize]
    }

    /// Appends the next node's name, unindexed.
    pub(crate) fn push(&mut self, name: &str) {
        self.data.push_str(name);
        let end = u32::try_from(self.data.len()).expect("host names over 4 GiB");
        self.off.push(end);
    }

    /// Where `name`'s probe sequence starts.
    fn home(&self, name: &str) -> usize {
        let h = pathalias_hash::name_key(name, self.fold);
        ((u128::from(h) * self.index.len() as u128) >> 64) as usize
    }

    /// The node `name` finds, or the vacant slot where it would go.
    pub(crate) fn probe(&self, name: &str) -> Result<u32, usize> {
        let len = self.index.len();
        let mut slot = self.home(name);
        loop {
            let id = self.index[slot];
            if id == VACANT {
                return Err(slot);
            }
            let have = self.get(id as usize);
            if have == name || (self.fold && have.eq_ignore_ascii_case(name)) {
                return Ok(id);
            }
            slot = if slot + 1 == len { 0 } else { slot + 1 };
        }
    }

    /// Indexes node `id` at `slot`, the vacant slot [`probe`](Names::probe)
    /// found for its name, and grows the index past three quarters full.
    pub(crate) fn insert_at(&mut self, slot: usize, id: u32) {
        self.index[slot] = id;
        self.indexed += 1;
        if self.indexed * 4 > self.index.len() * 3 {
            let old = std::mem::replace(&mut self.index, vec![VACANT; self.indexed * 2]);
            let len = self.index.len();
            for id in old.into_iter().filter(|&id| id != VACANT) {
                let mut slot = self.home(self.get(id as usize));
                while self.index[slot] != VACANT {
                    slot = if slot + 1 == len { 0 } else { slot + 1 };
                }
                self.index[slot] = id;
            }
        }
    }

    /// Indexes each name that only `private` nodes carry, by the first
    /// of them: a file-scoped host `-l`/`-t` may still name once the
    /// files' scopes are gone.
    pub(crate) fn index_private_only(&mut self, flags: &[NodeFlags]) {
        for (id, f) in flags.iter().enumerate() {
            if f.contains(NodeFlags::PRIVATE) {
                if let Err(slot) = self.probe(self.get(id)) {
                    self.insert_at(slot, id as u32);
                }
            }
        }
    }

    /// Heap bytes of the index, names not counted.
    fn index_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.index)
    }
}

impl FrozenGraph {
    /// Builds the CSR snapshot. Equivalent to [`Graph::freeze`].
    pub fn freeze(g: &Graph) -> FrozenGraph {
        g.freeze()
    }

    /// The snapshot of a build's parts: its names (every private-only
    /// name indexed), node flags and biases, and its links in
    /// declaration order. A stable counting sort by tail puts each
    /// row's live links in declaration order, and one sequential pass
    /// settles the rows into the edge array. The vectors a build grew
    /// give back their spare capacity, as the snapshot never grows.
    pub(crate) fn from_parts(
        mut names: Names,
        mut flags: Vec<NodeFlags>,
        mut adjust: Vec<i64>,
        links: &[Link],
    ) -> FrozenGraph {
        names.data.shrink_to_fit();
        names.off.shrink_to_fit();
        flags.shrink_to_fit();
        adjust.shrink_to_fit();
        let n = flags.len();
        let mappable = |id: NodeId| !flags[id.index()].contains(NodeFlags::DELETED);
        // Deleted links go, and deleted nodes lose their edges both ways.
        let live =
            |l: &Link| !l.flags.contains(LinkFlags::DELETED) && mappable(l.from) && mappable(l.to);
        let mut row_start = vec![0u32; n + 1];
        for l in links.iter().filter(|l| live(l)) {
            row_start[l.from.index()] += 1;
        }
        let mut total = 0;
        for start in &mut row_start {
            let count = *start;
            *start = total;
            total += count;
        }
        // Placing the links in declaration order keeps each row in it,
        // which the "smaller edge id wins" tie break relies on. Placing
        // a link advances its row's start, so each start ends up where
        // its row ends, and every placeholder is overwritten.
        let placeholder =
            FrozenEdge::new(NodeId::from_raw(0), 0, RouteOp::UUCP, LinkFlags::empty());
        let mut edges = vec![placeholder; total as usize];
        for l in links.iter().filter(|l| live(l)) {
            let at = &mut row_start[l.from.index()];
            edges[*at as usize] = FrozenEdge::new(l.to, l.cost, l.op, l.flags);
            *at += 1;
        }
        // Each row settles in place, towards the front.
        let mut raw_cost: HashMap<u32, Cost> = HashMap::new();
        let mut settle = RowSettler::new(n);
        let (mut begin, mut settled) = (0, 0);
        for (u, &bias) in adjust.iter().enumerate() {
            let end = row_start[u] as usize;
            row_start[u] = settled as u32;
            settled = settle.row(&mut edges, &mut raw_cost, bias, begin..end, settled);
            begin = end;
        }
        edges.truncate(settled);
        row_start[n] = settled as u32;

        FrozenGraph {
            ignore_case: names.fold,
            names: Arc::new(names),
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
    pub fn with_edges_appended(&self, extra: &[AppendedEdge]) -> FrozenGraph {
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

    /// The edges this graph has beyond `base`, in the shape
    /// [`with_edges_appended`](FrozenGraph::with_edges_appended) takes
    /// them: each node's row past the length of its row in `base`, in
    /// row order, costs raw. For a graph built from `base` by appending
    /// (the back-link pass's augmented graphs are),
    /// `base.with_edges_appended(&self.appended_since(base))` is `self`.
    pub fn appended_since(&self, base: &FrozenGraph) -> Vec<AppendedEdge> {
        debug_assert_eq!(self.node_count(), base.node_count());
        let mut extra = Vec::with_capacity(self.edge_count().saturating_sub(base.edge_count()));
        for u in self.node_ids() {
            let row = self.row(u.index());
            for e in row.start + base.degree(u)..row.end {
                let e = EdgeId(e as u32);
                let edge = self.edge(e);
                extra.push((u, edge.to(), self.edge_raw_cost(e), edge.op(), edge.flags()));
            }
        }
        extra
    }

    /// Rebuilds the snapshot with the adjacency rows of the patched
    /// nodes replaced wholesale. This is the incremental-freeze path:
    /// an entry-level map edit touches a handful of rows, and every
    /// other node keeps its id and — up to a uniform index shift — its
    /// edge range. When every patched row keeps its length (a cost
    /// edit), the edge array is copied once and the patched rows are
    /// overwritten in place; otherwise the CSR prefix before the first
    /// patched row is reused byte-for-byte and only the suffix shifts.
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
        assert!(
            patches.last().unwrap().node.index() < n,
            "patch for a node outside the snapshot"
        );

        // Settle every patched row on its own first, into one buffer:
        // `settled[ends[i - 1]..ends[i]]` is patch `i`'s row, and
        // `settled_raw` is keyed by offsets into `settled`.
        let mut settle = RowSettler::sparse();
        let mut settled: Vec<FrozenEdge> = Vec::new();
        let mut settled_raw: HashMap<u32, Cost> = HashMap::new();
        let mut ends: Vec<usize> = Vec::with_capacity(patches.len());
        for patch in patches {
            let u = patch.node.index();
            if self.is_mappable(patch.node) {
                let start = settled.len();
                let live = patch.edges.iter().filter(|&&(to, _, _, lflags)| {
                    !lflags.contains(LinkFlags::DELETED) && self.is_mappable(to)
                });
                settled.extend(
                    live.map(|&(to, cost, op, lflags)| FrozenEdge::new(to, cost, op, lflags)),
                );
                let raw = start..settled.len();
                let end = settle.row(&mut settled, &mut settled_raw, self.adjust[u], raw, start);
                settled.truncate(end);
            }
            ends.push(settled.len());
        }
        let span = |i: usize| if i == 0 { 0 } else { ends[i - 1] }..ends[i];

        let same_shape = patches
            .iter()
            .enumerate()
            .all(|(i, p)| span(i).len() == self.degree(p.node));
        let (row_start, edges, shift) = if same_shape {
            let mut edges = self.edges.clone();
            let mut spans = Vec::with_capacity(patches.len());
            for (i, p) in patches.iter().enumerate() {
                let old = self.row(p.node.index());
                edges[old.clone()].copy_from_slice(&settled[span(i)]);
                spans.push((old.start as u32, old.end as u32, 0));
            }
            (self.row_start.clone(), edges, EdgeShift { spans })
        } else {
            let first = patches[0].node.index();
            let cut = self.row_start[first] as usize;
            let mut row_start: Vec<u32> = self.row_start[..=first].to_vec();
            let mut edges: Vec<FrozenEdge> = self.edges[..cut].to_vec();
            let mut spans = Vec::with_capacity(patches.len());
            let mut next_patch = 0usize;
            for u in first..n {
                let old = self.row(u);
                if next_patch < patches.len() && patches[next_patch].node.index() == u {
                    edges.extend_from_slice(&settled[span(next_patch)]);
                    next_patch += 1;
                    // Cumulative shift for every old edge after this row.
                    let delta = edges.len() as i64 - old.end as i64;
                    spans.push((old.start as u32, old.end as u32, delta));
                } else {
                    edges.extend_from_slice(&self.edges[old]);
                }
                row_start.push(edges.len() as u32);
            }
            (row_start, edges, EdgeShift { spans })
        };

        // Raw-cost sidecar entries outside the dirty rows follow their
        // edges; entries inside were re-derived (or dropped) above.
        let mut raw_cost: HashMap<u32, Cost> = self
            .raw_cost
            .iter()
            .filter_map(|(&k, &v)| Some((shift.map(EdgeId(k))?.raw(), v)))
            .collect();
        for (i, p) in patches.iter().enumerate() {
            let (from, to) = (span(i).start as u32, row_start[p.node.index()]);
            for e in span(i) {
                if let Some(&raw) = settled_raw.get(&(e as u32)) {
                    raw_cost.insert(to + e as u32 - from, raw);
                }
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

    /// The graph without the links the back-link pass invented: every
    /// edge flagged [`LinkFlags::BACK`] dropped, and every other one
    /// kept in order, raw cost included. Only the back-link pass sets
    /// the flag, and it appends, so for a graph it augmented from
    /// `base`, `self.without_back_links()` is `base`: the mapping's
    /// served graph carries its declared graph along.
    pub fn without_back_links(&self) -> FrozenGraph {
        let n = self.node_count();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.edges.len());
        for u in 0..n {
            row_start.push(edges.len() as u32);
            let row = &self.edges[self.row(u)];
            edges.extend(row.iter().filter(|e| !e.flags.contains(LinkFlags::BACK)));
        }
        row_start.push(edges.len() as u32);
        // A kept edge moves back by the edges dropped from rows before
        // its own, and no kept edge follows a dropped one in its row.
        let raw_cost = self
            .raw_cost
            .iter()
            .filter(|&(&e, _)| !self.edges[e as usize].flags.contains(LinkFlags::BACK))
            .map(|(&e, &raw)| {
                let u = self.row_start.partition_point(|&start| start <= e) - 1;
                (e - self.row_start[u] + row_start[u], raw)
            })
            .collect();
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
        self.names.get(id.index())
    }

    /// Looks up a host by name. Global names win; a name claimed only
    /// by `private` declarations resolves to the first of them (the
    /// file-scoped shadowing that existed during parsing is gone once
    /// frozen, but `-l`/`-t` naming a private-only host still works).
    /// Under `-i` the comparison folds ASCII case.
    pub fn id_of(&self, name: &str) -> Option<NodeId> {
        self.names.probe(name).ok().map(NodeId::from_raw)
    }

    /// Heap bytes of the index [`id_of`](FrozenGraph::id_of) probes:
    /// node ids only, keyed by the names the snapshot stores anyway.
    pub fn name_index_bytes(&self) -> usize {
        self.names.index_bytes()
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
/// edge in the row sits in an epoch-stamped slot, and the row's edges
/// to one target are chained from it, so a 200,000-link hub row
/// settles in linear time.
struct RowSettler {
    /// Advanced per row, so stale slots need no clearing.
    epoch: u32,
    /// Per target node: the epoch that last saw it as a target, and
    /// the index in `edges` of the row's first edge to it.
    first: Slots,
    /// Per edge of the row being settled, by offset from the row's
    /// start: the next edge of the row to the same target.
    next: Vec<Option<u32>>,
}

/// [`RowSettler`]'s per-target slots: one per node for a freeze, which
/// settles every row, and only the targets seen for a patch, which
/// settles a few.
enum Slots {
    Dense(Vec<(u32, u32)>),
    Sparse(HashMap<u32, (u32, u32)>),
}

impl RowSettler {
    /// A settler for the rows of a graph of `nodes` nodes.
    fn new(nodes: usize) -> RowSettler {
        RowSettler {
            epoch: 0,
            first: Slots::Dense(vec![(0, 0); nodes]),
            next: Vec::new(),
        }
    }

    /// A settler for a few rows, sized by what they hold.
    fn sparse() -> RowSettler {
        RowSettler {
            epoch: 0,
            first: Slots::Sparse(HashMap::new()),
            next: Vec::new(),
        }
    }

    /// Settles the row whose raw edges sit at `edges[read]`, in
    /// declaration order, into `edges[write..]`, and returns where the
    /// settled row ends. A settled row is never longer than its raw
    /// one, so `write` may be `read.start` or anywhere before it. Raw
    /// costs go to `raw_cost`, keyed by settled position, when `bias`
    /// applies.
    fn row(
        &mut self,
        edges: &mut [FrozenEdge],
        raw_cost: &mut HashMap<u32, Cost>,
        bias: i64,
        read: Range<usize>,
        write: usize,
    ) -> usize {
        debug_assert!(write <= read.start);
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            match &mut self.first {
                Slots::Dense(slots) => slots.iter_mut().for_each(|s| s.0 = 0),
                Slots::Sparse(slots) => slots.clear(),
            }
            1
        });
        self.next.clear();
        let mut end = write;
        'edges: for r in read {
            let cand = edges[r];
            let slot = match &mut self.first {
                Slots::Dense(slots) => &mut slots[cand.to as usize],
                Slots::Sparse(slots) => slots.entry(cand.to).or_default(),
            };
            if slot.0 == self.epoch {
                let mut at = slot.1 as usize;
                loop {
                    let e = &mut edges[at];
                    if e.op_ch == cand.op_ch && e.op_dir == cand.op_dir && e.flags == cand.flags {
                        e.cost = e.cost.min(cand.cost);
                        continue 'edges;
                    }
                    match self.next[at - write] {
                        Some(next) => at = next as usize,
                        None => break,
                    }
                }
                self.next[at - write] = Some(end as u32);
            } else {
                *slot = (self.epoch, end as u32);
            }
            self.next.push(None);
            edges[end] = cand;
            end += 1;
        }
        // Remember the raw value for source-edge exemption.
        if bias != 0 {
            for (e, edge) in edges.iter_mut().enumerate().take(end).skip(write) {
                raw_cost.insert(e as u32, edge.cost);
                edge.cost = apply_adjust(edge.cost, bias);
            }
        }
        end
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
        // Appending again keeps each tail's order; reading the extras
        // back gives them raw, grouped by tail, and rebuilds the graph.
        let f3 = f2.with_edges_appended(&[(a, a, 3, RouteOp::UUCP, LinkFlags::BACK)]);
        let extra = f3.appended_since(&f);
        assert_eq!(
            extra,
            vec![
                (a, c, 20, RouteOp::UUCP, LinkFlags::BACK),
                (a, a, 3, RouteOp::UUCP, LinkFlags::BACK),
                (b, a, 5, RouteOp::ARPA, LinkFlags::BACK),
            ]
        );
        assert_eq!(f.with_edges_appended(&extra), f3);
        assert!(f.appended_since(&f).is_empty());
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
    fn cost_only_patch_of_a_biased_row_keeps_the_raw_sidecar() {
        // a is biased, and so is b, after it: the one-copy path must
        // re-derive a's raw costs and carry b's over.
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, c, 20, RouteOp::UUCP);
        g.declare_link(b, c, 30, RouteOp::UUCP);
        g.adjust_node(a, 5);
        g.adjust_node(b, 7);
        let f = g.freeze();
        let (patched, shift) = f.with_rows_replaced(&[RowPatch {
            node: a,
            edges: vec![
                (b, 11, RouteOp::UUCP, LinkFlags::empty()),
                (c, 20, RouteOp::UUCP, LinkFlags::empty()),
            ],
        }]);
        assert!(shift.is_identity_outside_rows());
        let mut cold = Graph::new();
        let (a2, b2, c2) = (cold.node("a"), cold.node("b"), cold.node("c"));
        cold.declare_link(a2, b2, 11, RouteOp::UUCP);
        cold.declare_link(a2, c2, 20, RouteOp::UUCP);
        cold.declare_link(b2, c2, 30, RouteOp::UUCP);
        cold.adjust_node(a2, 5);
        cold.adjust_node(b2, 7);
        assert_eq!(patched, cold.freeze());
    }

    #[test]
    fn without_back_links_undoes_appending() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(b, c, 10, RouteOp::UUCP);
        g.declare_link(c, a, 10, RouteOp::UUCP);
        g.adjust_node(b, 3);
        g.adjust_node(c, 4);
        let f = g.freeze();
        let aug = f.with_edges_appended(&[
            (a, c, 20, RouteOp::UUCP, LinkFlags::BACK),
            (b, a, 5, RouteOp::ARPA, LinkFlags::BACK),
        ]);
        assert_eq!(aug.without_back_links(), f);
        assert_eq!(f.without_back_links(), f);
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
