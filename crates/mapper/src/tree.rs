//! The shortest-path tree produced by mapping.

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
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The mapping source (the local host).
    pub source: NodeId,
    /// The frozen graph the labels refer to.
    pub(crate) frozen: Arc<FrozenGraph>,
    pub(crate) labels: Vec<Option<Label>>,
    /// Counters from the run.
    pub stats: MapStats,
    /// Traced relaxations for hosts requested in the options.
    pub trace: Vec<TraceEvent>,
}

/// A mapping run's result left in the run's own packed arrays (25
/// bytes a node) — what
/// [`map_frozen_readonly_packed`](crate::map_frozen_readonly_packed)
/// returns. Labels are unpacked one at a time, on request; edge ids in
/// them refer to the graph the run was given.
#[derive(Debug)]
pub struct PackedTree {
    pub(crate) key: Vec<crate::cost_model::Key>,
    pub(crate) pred: Vec<(u32, u32)>,
    pub(crate) state: Vec<u8>,
    /// Counters from the run.
    pub stats: MapStats,
}

impl PackedTree {
    /// The label for `node`, if it was reached — field for field what
    /// [`ShortestPathTree::label`] gives for the same run.
    pub fn label(&self, node: NodeId) -> Option<Label> {
        let i = node.index();
        crate::cost_model::unpack_label((*self.key.get(i)?, self.pred[i], self.state[i]))
    }
}

impl ShortestPathTree {
    /// The frozen graph this tree's labels (and their edge ids) refer
    /// to. After a back-link pass this includes the invented edges.
    pub fn frozen(&self) -> &Arc<FrozenGraph> {
        &self.frozen
    }

    /// The label for `node`, if it was reached.
    pub fn label(&self, node: NodeId) -> Option<&Label> {
        self.labels.get(node.index()).and_then(|l| l.as_ref())
    }

    /// The path cost to `node`, if reached.
    pub fn cost(&self, node: NodeId) -> Option<Cost> {
        self.label(node).map(|l| l.cost)
    }

    /// Whether `node` was reached.
    pub fn is_mapped(&self, node: NodeId) -> bool {
        self.label(node).is_some()
    }

    /// Number of reached nodes.
    pub fn mapped_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// The tree path from the source to `node` (inclusive), or `None`
    /// if unreached.
    pub fn path_to(&self, node: NodeId) -> Option<Vec<NodeId>> {
        self.label(node)?;
        let mut path = vec![node];
        let mut cur = node;
        while let Some(l) = self.label(cur) {
            match l.pred {
                Some((p, _)) => {
                    path.push(p);
                    cur = p;
                }
                None => break,
            }
            assert!(
                path.len() <= self.labels.len(),
                "predecessor chain contains a cycle"
            );
        }
        path.reverse();
        Some(path)
    }

    /// Builds every node's children list (indexed by node), each
    /// sorted by node id for deterministic traversal.
    pub fn children(&self) -> Children {
        let parent = |l: &Option<Label>| l.as_ref()?.pred.map(|(p, _)| p.index());
        // Count each node's children, turn the counts into row starts,
        // then fill the rows visiting nodes in ascending id order.
        let n = self.labels.len();
        let mut offsets = vec![0u32; n + 1];
        for p in self.labels.iter().filter_map(parent) {
            offsets[p + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut ids = vec![NodeId::from_raw(0); offsets[n] as usize];
        let mut next = offsets[..n].to_vec();
        for (i, l) in self.labels.iter().enumerate() {
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
        ShortestPathTree {
            source: node(0),
            frozen: Arc::new(g.freeze()),
            labels,
            stats: MapStats::default(),
            trace: Vec::new(),
        }
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
        assert_eq!(t.path_to(node(2)), Some(vec![node(0), node(1), node(2)]));
        assert_eq!(t.path_to(node(0)), Some(vec![node(0)]));
        assert_eq!(t.path_to(node(3)), None);
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
    #[should_panic(expected = "cycle")]
    fn cyclic_pred_detected() {
        let t = tree_with(vec![Some(lbl(1, Some(1))), Some(lbl(1, Some(0)))]);
        let _ = t.path_to(node(0));
    }
}
