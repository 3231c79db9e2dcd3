//! The shortest-path tree produced by mapping.

use crate::cost_model::{unpack_label, Key, LABELLED, NO_PRED};
use pathalias_graph::{Cost, EdgeId, FrozenGraph, NodeId};
use std::ops::Index;
use std::sync::Arc;

/// The best path found to one node.
///
/// Besides cost, a label carries the path state the heuristics need:
/// visible-hop count, which routing-syntax classes appear on the path,
/// and whether the path has passed through a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// Total path cost including heuristic penalties.
    pub cost: Cost,
    /// Number of *visible* hops (alias and network-entry edges add no
    /// hop to the printed route).
    pub hops: u32,
    /// Predecessor node and the frozen edge that reached this node;
    /// `None` only for the source.
    pub pred: Option<(NodeId, EdgeId)>,
    /// The path contains a host-on-left (`!`-style) hop.
    pub has_left: bool,
    /// The path contains a host-on-right (`@`-style) hop.
    pub has_right: bool,
    /// The path has passed through a domain node.
    pub tainted: bool,
    /// The path uses at least one invented back link.
    pub via_backlink: bool,
    /// The path splices a `!` hop after an `@` hop — the address form
    /// UUCP mailers misparse (what the mixed-syntax penalty exists to
    /// avoid). Tracked regardless of the penalty setting so ablations
    /// can count ambiguous routes.
    pub ambiguous: bool,
}

/// Counters from a mapping run.
///
/// After a back-link pass the heap and penalty counters count the work
/// done across every round, not only the last one's: a resumed round
/// adds what it relaxed and extracted, and a round run from scratch
/// adds its whole run (see [`map_frozen`](crate::map_frozen)).
/// `mapped` is always the final tree's count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Nodes mapped (extracted with final labels).
    pub mapped: usize,
    /// Heap insertions (0 for the quadratic variant).
    pub pushes: u64,
    /// Heap extractions that yielded a node (0 for the quadratic
    /// variant).
    pub pops: u64,
    /// Lazy-deletion extractions skipped because the node's label had
    /// improved after the entry was queued (0 for the quadratic
    /// variant).
    pub stale_pops: u64,
    /// Edge relaxations attempted.
    pub relaxations: u64,
    /// Candidate-selection scan steps (quadratic variant only).
    pub scan_steps: u64,
    /// Gate penalties applied.
    pub gate_penalties: u64,
    /// Relay penalties applied.
    pub relay_penalties: u64,
    /// Mixed-syntax penalties applied.
    pub mixed_penalties: u64,
    /// Relaxations that would create an ambiguous (`!`-after-`@`)
    /// address, counted independently of the penalty setting.
    pub ambiguous_hops: u64,
    /// Back-link rounds run (the "continue with Dijkstra" passes).
    pub backlink_rounds: u32,
    /// Back-link rounds that re-ran the search from scratch instead of
    /// continuing it (tracing was on, or continuing could not be shown
    /// to match a fresh run).
    pub restarted_rounds: u32,
    /// Back links invented.
    pub invented_links: u64,
}

/// Why a relaxation did or did not improve a label (trace output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecision {
    /// The candidate became the node's label.
    Accepted,
    /// The candidate lost to the existing label.
    Worse,
    /// Equal cost and hops; the tie broke on predecessor identity.
    TieKept,
}

/// One traced relaxation (pathalias `-t`-style debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Edge tail.
    pub from: NodeId,
    /// Edge head.
    pub to: NodeId,
    /// The frozen edge relaxed.
    pub link: EdgeId,
    /// Raw edge weight (after `adjust`).
    pub base: Cost,
    /// Gate penalty applied.
    pub gate: Cost,
    /// Relay penalty applied.
    pub relay: Cost,
    /// Mixed-syntax penalty applied.
    pub mixed: Cost,
    /// Resulting candidate path cost.
    pub candidate: Cost,
    /// Outcome.
    pub decision: TraceDecision,
}

/// The result of a mapping run: a directed tree rooted at the source
/// ("the marked edges form a directed tree, rooted at the source
/// vertex").
///
/// The tree owns a handle to the [`FrozenGraph`] it was mapped on —
/// which, after a back-link pass, may be an *augmented* copy of the
/// graph the caller froze — so edge ids in the labels always resolve
/// against the right snapshot and the printer needs nothing else.
///
/// The labels stay in the run's own packed arrays, 25 bytes a node (a
/// [`Label`] is 32): the run hands them over as they stand, and
/// [`label`](ShortestPathTree::label) unpacks one on each read. A kept
/// tree is repaired in place ([`repair_frozen`](crate::repair_frozen)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathTree {
    /// The mapping source (the local host).
    pub source: NodeId,
    /// The frozen graph the labels refer to.
    pub(crate) frozen: Arc<FrozenGraph>,
    /// Each node's packed rank (cost, hops, id), predecessor and
    /// path-state bits. The state never carries
    /// [`MAPPED`](crate::cost_model::MAPPED): a repair reads that bit
    /// as "extracted by the repair".
    pub(crate) key: Vec<Key>,
    pub(crate) pred: Vec<(u32, u32)>,
    pub(crate) state: Vec<u8>,
    /// Counters from the run.
    pub stats: MapStats,
    /// Traced relaxations for hosts requested in the options.
    pub trace: Vec<TraceEvent>,
}

impl ShortestPathTree {
    /// The frozen graph this tree's labels (and their edge ids) refer
    /// to. After a back-link pass this includes the invented edges.
    pub fn frozen(&self) -> &Arc<FrozenGraph> {
        &self.frozen
    }

    /// The label for `node`, if it was reached.
    #[inline]
    pub fn label(&self, node: NodeId) -> Option<Label> {
        let i = node.index();
        unpack_label((*self.key.get(i)?, self.pred[i], self.state[i]))
    }

    /// The path cost to `node`, if reached.
    pub fn cost(&self, node: NodeId) -> Option<Cost> {
        self.label(node).map(|l| l.cost)
    }

    /// Whether `node` was reached.
    pub fn is_mapped(&self, node: NodeId) -> bool {
        self.state
            .get(node.index())
            .is_some_and(|s| s & LABELLED != 0)
    }

    /// Number of reached nodes.
    pub fn mapped_count(&self) -> usize {
        self.state.iter().filter(|&&s| s & LABELLED != 0).count()
    }

    /// Heap bytes of the label arrays and the trace.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.key.capacity() * size_of::<Key>()
            + self.pred.capacity() * size_of::<(u32, u32)>()
            + self.state.capacity()
            + self.trace.capacity() * size_of::<TraceEvent>()
    }

    /// Builds every node's children list (indexed by node), each
    /// sorted by node id for deterministic traversal.
    pub fn children(&self) -> Children {
        // Only a labelled node other than the source has a predecessor.
        let parent = |&(p, _): &(u32, u32)| (p != NO_PRED.0).then_some(p as usize);
        // Count each node's children, turn the counts into row starts,
        // then fill the rows visiting nodes in ascending id order.
        let n = self.pred.len();
        let mut offsets = vec![0u32; n + 1];
        for p in self.pred.iter().filter_map(parent) {
            offsets[p + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut ids = vec![NodeId::from_raw(0); offsets[n] as usize];
        let mut next = offsets[..n].to_vec();
        for (i, l) in self.pred.iter().enumerate() {
            if let Some(p) = parent(l) {
                ids[next[p] as usize] = NodeId::from_raw(i as u32);
                next[p] += 1;
            }
        }
        Children { offsets, ids }
    }

    /// Hosts that remain unreachable: mappable nodes without labels.
    pub fn unreachable(&self) -> Vec<NodeId> {
        self.frozen
            .node_ids()
            .filter(|&id| self.frozen.is_mappable(id) && self.label(id).is_none())
            .collect()
    }
}

/// Every node's children in a [`ShortestPathTree`], as one flat
/// array: `children[i]` is node `i`'s, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Children {
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s run of `ids`.
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Children {
    /// Moves `child` from `from`'s run to `to`'s, at its place in id
    /// order: what a repair that re-parents `child` does to the tree's
    /// lists. The ids between the two runs shift by one (a memmove),
    /// and so do the offsets between them; no label is read. `child`
    /// must be in `from`'s run.
    pub fn reparent(&mut self, child: NodeId, from: NodeId, to: NodeId) {
        let (f, t) = (from.index(), to.index());
        if f == t {
            return;
        }
        let run = |c: &Children, i: usize| c.offsets[i] as usize..c.offsets[i + 1] as usize;
        let (of_from, of_to) = (run(self, f), run(self, t));
        let at = match self.ids[of_from.clone()].binary_search(&child) {
            Ok(k) => of_from.start + k,
            Err(_) => panic!("{child:?} is not a child of {from:?}"),
        };
        let slot = of_to.start + self.ids[of_to].partition_point(|&c| c < child);
        if f < t {
            self.ids.copy_within(at + 1..slot, at);
            self.ids[slot - 1] = child;
            self.offsets[f + 1..=t].iter_mut().for_each(|o| *o -= 1);
        } else {
            self.ids.copy_within(slot..at, slot + 1);
            self.ids[slot] = child;
            self.offsets[t + 1..=f].iter_mut().for_each(|o| *o += 1);
        }
    }
}

impl Index<usize> for Children {
    type Output = [NodeId];

    fn index(&self, node: usize) -> &[NodeId] {
        &self.ids[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

/// Renders traced relaxations as human-readable lines (the pathalias
/// `-t` debugging output: why a route was or was not chosen).
pub fn format_trace(f: &FrozenGraph, events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let penalties = {
            let mut parts = Vec::new();
            if e.gate > 0 {
                parts.push(format!("gate+{}", e.gate));
            }
            if e.relay > 0 {
                parts.push(format!("relay+{}", e.relay));
            }
            if e.mixed > 0 {
                parts.push(format!("mixed+{}", e.mixed));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!(" [{}]", parts.join(" "))
            }
        };
        let verdict = match e.decision {
            TraceDecision::Accepted => "accepted",
            TraceDecision::Worse => "worse",
            TraceDecision::TieKept => "tie-kept",
        };
        let _ = writeln!(
            out,
            "trace: {} -> {} base {}{} => candidate {} ({verdict})",
            f.name(e.from),
            f.name(e.to),
            e.base,
            penalties,
            e.candidate,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::pack_label;
    use pathalias_graph::Graph;

    fn node(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    fn tree_with(labels: Vec<Option<Label>>) -> ShortestPathTree {
        // A frozen graph with matching node count (edges irrelevant
        // for these structural tests).
        let mut g = Graph::new();
        for i in 0..labels.len() {
            g.node(&format!("n{i}"));
        }
        let mut t = ShortestPathTree {
            source: node(0),
            frozen: Arc::new(g.freeze()),
            key: vec![0; labels.len()],
            pred: vec![NO_PRED; labels.len()],
            state: vec![0; labels.len()],
            stats: MapStats::default(),
            trace: Vec::new(),
        };
        for (i, l) in labels.iter().enumerate() {
            if let Some(l) = l {
                set(&mut t, i as u32, *l);
            }
        }
        t
    }

    fn set(t: &mut ShortestPathTree, i: u32, l: Label) {
        let i = i as usize;
        (t.key[i], t.pred[i], t.state[i]) = pack_label(node(i as u32), l);
    }

    fn lbl(cost: Cost, pred: Option<u32>) -> Label {
        Label {
            cost,
            hops: 0,
            pred: pred.map(|p| (node(p), EdgeId::from_raw(0))),
            has_left: false,
            has_right: false,
            tainted: false,
            via_backlink: false,
            ambiguous: false,
        }
    }

    #[test]
    fn path_reconstruction() {
        // 0 -> 1 -> 2, 3 unreachable.
        let t = tree_with(vec![
            Some(lbl(0, None)),
            Some(lbl(5, Some(0))),
            Some(lbl(9, Some(1))),
            None,
        ]);
        let parent = |v: u32| t.label(node(v)).and_then(|l| l.pred).map(|(p, _)| p);
        assert_eq!(
            (parent(2), parent(1), parent(0)),
            (Some(node(1)), Some(node(0)), None)
        );
        assert_eq!((t.cost(node(2)), t.label(node(3))), (Some(9), None));
        assert_eq!(t.mapped_count(), 3);
        assert!(t.is_mapped(node(1)));
        assert!(!t.is_mapped(node(3)));
        assert_eq!(t.unreachable(), vec![node(3)]);
    }

    #[test]
    fn children_sorted() {
        let t = tree_with(vec![
            Some(lbl(0, None)),
            Some(lbl(5, Some(0))),
            Some(lbl(6, Some(0))),
            Some(lbl(7, Some(2))),
        ]);
        let kids = t.children();
        assert_eq!(kids[0], vec![node(1), node(2)]);
        assert_eq!(kids[2], vec![node(3)]);
        assert!(kids[1].is_empty());
    }

    #[test]
    fn reparenting_moves_a_child_between_runs() {
        // 0 is the root; 1 and 3 hang off it, 2 and 4 off 1.
        let mut t = tree_with(vec![
            Some(lbl(0, None)),
            Some(lbl(1, Some(0))),
            Some(lbl(2, Some(1))),
            Some(lbl(1, Some(0))),
            Some(lbl(2, Some(1))),
        ]);
        let mut kids = t.children();
        for (child, from, to) in [(4, 1, 3), (2, 1, 0), (4, 3, 1), (1, 0, 3), (2, 0, 0)] {
            kids.reparent(node(child), node(from), node(to));
            set(&mut t, child, lbl(2, Some(to)));
            assert_eq!(kids, t.children(), "moving {child} from {from} to {to}");
        }
    }
}
