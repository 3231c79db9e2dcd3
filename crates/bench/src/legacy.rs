//! The seed's linked-list mapper and route traversal, kept verbatim as
//! the comparison baseline and correctness oracle.
//!
//! PR 3 rewrote the production mapper to traverse the frozen CSR
//! snapshot ([`pathalias_graph::FrozenGraph`]); the old implementation
//! — Dijkstra chasing `Node::first_link` / `Link::next` chains through
//! the pools, `adjust` re-applied on every relaxation, route traversal
//! reading the mutable graph — moved here, out of the production
//! crates, so that:
//!
//! * experiment E7 can time CSR against the genuine seed code path on
//!   the same graphs, and
//! * the freeze-parity property test can assert the new pipeline's
//!   rendered output is byte-identical to the seed's.
//!
//! Nothing in the serving or pipeline path calls this module, and this
//! module calls nothing of theirs: its `relax` is a second, independent
//! statement of the cost rules on purpose. The shipped mapper and
//! router share one (`pathalias_mapper::cost_model`); an oracle that
//! shared it too would agree with any bug in it. A rule that changes
//! there changes here only by a second, deliberate edit, which is how
//! `freeze_parity` catches an accidental one.

use crate::heap::IndexedHeap;
use pathalias_graph::{Cost, Dir, Graph, Link, LinkFlags, LinkId, NodeFlags, NodeId, RouteOp};
use pathalias_mapper::MapOptions;
use pathalias_printer::{Route, RouteKind, RouteTable};
use std::collections::HashSet;

/// The seed's per-node label (pred holds a pool [`LinkId`], not a CSR
/// edge id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegacyLabel {
    /// Total path cost including heuristic penalties.
    pub cost: Cost,
    /// Visible hops.
    pub hops: u32,
    /// Predecessor node and pool link.
    pub pred: Option<(NodeId, LinkId)>,
    /// `!`-style hop seen.
    pub has_left: bool,
    /// `@`-style hop seen.
    pub has_right: bool,
    /// Path passed through a domain.
    pub tainted: bool,
    /// Path uses an invented back link.
    pub via_backlink: bool,
    /// Path splices `!` after `@`.
    pub ambiguous: bool,
}

/// The seed's shortest-path tree: labels over the mutable graph.
#[derive(Debug, Clone)]
pub struct LegacyTree {
    /// The mapping source.
    pub source: NodeId,
    labels: Vec<Option<LegacyLabel>>,
    /// Relaxations that touched a traced host (the baseline keeps the
    /// seed's per-relaxation trace lookups for timing fidelity).
    pub traced: u64,
}

impl LegacyTree {
    /// The label for `node`, if reached.
    pub fn label(&self, node: NodeId) -> Option<&LegacyLabel> {
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

    /// Mappable nodes without labels.
    pub fn unreachable(&self, g: &Graph) -> Vec<NodeId> {
        g.iter_nodes()
            .filter(|(id, n)| n.is_mappable() && self.label(*id).is_none())
            .map(|(id, _)| id)
            .collect()
    }

    /// Dense children lists sorted by node id.
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); self.labels.len()];
        for (i, l) in self.labels.iter().enumerate() {
            if let Some(LegacyLabel {
                pred: Some((p, _)), ..
            }) = l
            {
                kids[p.index()].push(NodeId::from_raw(i as u32));
            }
        }
        for k in &mut kids {
            k.sort();
        }
        kids
    }
}

type Key = (Cost, u32, u32);

fn key_of(node: NodeId, l: &LegacyLabel) -> Key {
    (l.cost, l.hops, node.raw())
}

struct Run<'g> {
    g: &'g Graph,
    opts: &'g MapOptions,
    source: NodeId,
    labels: Vec<Option<LegacyLabel>>,
    mapped: Vec<bool>,
    trace_set: HashSet<NodeId>,
    traced: u64,
}

enum Relaxed {
    Improved(Key),
    NoKeyChange,
    Skipped,
}

impl<'g> Run<'g> {
    fn new(g: &'g Graph, source: NodeId, opts: &'g MapOptions) -> Run<'g> {
        let src = g.node_ref(source);
        assert!(src.is_mappable(), "legacy baseline maps live sources only");
        let n = g.node_count();
        let mut labels = vec![None; n];
        labels[source.index()] = Some(LegacyLabel {
            cost: 0,
            hops: 0,
            pred: None,
            has_left: false,
            has_right: false,
            tainted: src.is_domain(),
            via_backlink: false,
            ambiguous: false,
        });
        Run {
            g,
            opts,
            source,
            labels,
            mapped: vec![false; n],
            trace_set: opts.trace.iter().copied().collect(),
            traced: 0,
        }
    }

    fn gateway_exempt(&self, u: NodeId, link: &Link) -> bool {
        let u_node = self.g.node_ref(u);
        link.flags.contains(LinkFlags::GATEWAY)
            || link.flags.contains(LinkFlags::ALIAS)
            || link.flags.contains(LinkFlags::NET_OUT)
            || (link.flags.contains(LinkFlags::NET_IN)
                && self.g.node_ref(link.to).is_domain()
                && !u_node.is_domain())
            || (link.flags.is_explicit() && !u_node.is_domain())
    }

    fn visible_op(&self, u_label: &LegacyLabel, link: &Link) -> Option<RouteOp> {
        if link.flags.intersects(LinkFlags::ALIAS | LinkFlags::NET_IN) {
            return None;
        }
        if link.flags.contains(LinkFlags::NET_OUT) {
            let entering = u_label
                .pred
                .map(|(_, plid)| self.g.link_ref(plid).op)
                .unwrap_or(link.op);
            return Some(entering);
        }
        Some(link.op)
    }

    fn relax(&mut self, u: NodeId, u_label: LegacyLabel, lid: LinkId, link: &Link) -> Relaxed {
        let model = &self.opts.model;
        let v = link.to;
        let v_node = self.g.node_ref(v);
        if link.flags.contains(LinkFlags::DELETED)
            || !v_node.is_mappable()
            || (self.opts.exclude_domains && v_node.is_domain())
            || self.mapped[v.index()]
        {
            return Relaxed::Skipped;
        }

        let mut base = link.cost;
        let u_node = self.g.node_ref(u);
        if u != self.source && u_node.adjust != 0 {
            let biased = (base as i128) + (u_node.adjust as i128);
            base = biased.clamp(0, Cost::MAX as i128) as Cost;
        }

        let mut gate = 0;
        let mut relay = 0;
        let mut mixed = 0;
        let mut extra = 0;
        if link.flags.contains(LinkFlags::DEAD) {
            extra += model.dead_link_penalty;
        }
        if u != self.source && u_node.flags.contains(NodeFlags::DEAD) {
            extra += model.dead_penalty;
        }
        if v_node.is_gated() && !self.gateway_exempt(u, link) {
            gate = model.gate_penalty;
        }
        if u_label.tainted && !link.flags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT) {
            relay = model.relay_penalty;
        }

        let vis = self.visible_op(&u_label, link);
        let mut has_left = u_label.has_left;
        let mut has_right = u_label.has_right;
        let mut hop_ambiguous = false;
        if let Some(op) = vis {
            match op.dir {
                Dir::Left => {
                    if u_label.has_right {
                        mixed = model.mixed_penalty;
                        hop_ambiguous = true;
                    }
                    has_left = true;
                }
                Dir::Right => {
                    if model.strict_mixed && u_label.has_left {
                        mixed = model.mixed_penalty;
                    }
                    has_right = true;
                }
            }
        }

        let cost = u_label
            .cost
            .saturating_add(base)
            .saturating_add(gate)
            .saturating_add(relay)
            .saturating_add(mixed)
            .saturating_add(extra);
        let hops = u_label.hops + u32::from(vis.is_some());
        let cand = LegacyLabel {
            cost,
            hops,
            pred: Some((u, lid)),
            has_left,
            has_right,
            tainted: u_label.tainted || v_node.is_domain(),
            via_backlink: u_label.via_backlink || link.flags.contains(LinkFlags::BACK),
            ambiguous: u_label.ambiguous || hop_ambiguous,
        };

        let slot = &mut self.labels[v.index()];
        let outcome = match slot {
            None => {
                *slot = Some(cand);
                Relaxed::Improved(key_of(v, &cand))
            }
            Some(old) => {
                if (cand.cost, cand.hops) < (old.cost, old.hops) {
                    *old = cand;
                    Relaxed::Improved(key_of(v, &cand))
                } else if (cand.cost, cand.hops) == (old.cost, old.hops) {
                    let old_pred = old.pred.map(|(p, l)| (p.raw(), l.raw()));
                    let new_pred = cand.pred.map(|(p, l)| (p.raw(), l.raw()));
                    if new_pred < old_pred {
                        *old = cand;
                    }
                    Relaxed::NoKeyChange
                } else {
                    Relaxed::NoKeyChange
                }
            }
        };
        // The seed probed the trace set on every relaxation; keep the
        // lookups so the baseline's timing stays honest.
        if self.trace_set.contains(&v) || self.trace_set.contains(&u) {
            self.traced += 1;
        }
        outcome
    }

    fn finish(self) -> LegacyTree {
        LegacyTree {
            source: self.source,
            labels: self.labels,
            traced: self.traced,
        }
    }
}

/// The seed's heap Dijkstra over the linked adjacency lists (no back
/// links).
pub fn map_linked_readonly(g: &Graph, source: NodeId, opts: &MapOptions) -> LegacyTree {
    let mut run = Run::new(g, source, opts);
    let mut heap: IndexedHeap<Key> = IndexedHeap::new(g.node_count());
    heap.push(
        source.raw(),
        key_of(source, run.labels[source.index()].as_ref().expect("source")),
    );
    while let Some((u_raw, _)) = heap.pop() {
        let u = NodeId::from_raw(u_raw);
        run.mapped[u.index()] = true;
        let u_label = run.labels[u.index()].expect("queued node has a label");
        for (lid, _) in run.g.links_from(u) {
            // Re-borrow the link each iteration, exactly as the seed
            // did to satisfy the borrow checker.
            let link = *run.g.link_ref(lid);
            if let Relaxed::Improved(key) = run.relax(u, u_label, lid, &link) {
                let v_raw = link.to.raw();
                if heap.contains(v_raw) {
                    heap.decrease(v_raw, key);
                } else {
                    heap.push(v_raw, key);
                }
            }
        }
    }
    run.finish()
}

/// The seed's full mapping: heap Dijkstra plus the back-link pass to
/// fixpoint, inventing reverse links *into the graph* (the mutation the
/// frozen pipeline abolished).
pub fn map_linked(g: &mut Graph, source: NodeId, opts: &MapOptions) -> LegacyTree {
    let mut rounds = 0u32;
    loop {
        let tree = map_linked_readonly(g, source, opts);
        if opts.no_backlinks {
            return tree;
        }
        let mut inventions: Vec<(NodeId, NodeId, Cost, RouteOp)> = Vec::new();
        for u in tree.unreachable(g) {
            if opts.exclude_domains && g.node_ref(u).is_domain() {
                continue;
            }
            for (_, l) in g.links_from(u) {
                if l.flags.contains(LinkFlags::DELETED) || l.flags.contains(LinkFlags::BACK) {
                    continue;
                }
                if tree.is_mapped(l.to) {
                    let cost = l.cost.saturating_add(opts.model.backlink_penalty);
                    inventions.push((l.to, u, cost, l.op));
                }
            }
        }
        if inventions.is_empty() {
            return tree;
        }
        for (from, to, cost, op) in inventions {
            let exists = g
                .links_from(from)
                .any(|(_, l)| l.to == to && l.flags.contains(LinkFlags::BACK));
            if !exists {
                g.add_raw_link(from, to, cost, op, LinkFlags::BACK);
            }
        }
        rounds += 1;
        assert!(
            (rounds as usize) <= g.node_count() + 1,
            "legacy back-link pass failed to converge"
        );
    }
}

/// The seed's preorder route traversal over the mutable graph.
pub fn legacy_routes(g: &Graph, tree: &LegacyTree) -> RouteTable {
    let children = tree.children();
    let mut entries: Vec<Route> = Vec::with_capacity(tree.mapped_count());
    let mut stack: Vec<(NodeId, String, String)> = vec![(
        tree.source,
        "%s".to_string(),
        g.name(tree.source).to_string(),
    )];

    while let Some((node, route, name)) = stack.pop() {
        let n = g.node_ref(node);
        let label = tree.label(node).expect("traversal follows labels");

        let kind = if n.flags.contains(NodeFlags::PRIVATE) {
            RouteKind::Private
        } else if n.is_domain() {
            let parent_is_domain = label
                .pred
                .map(|(p, _)| g.node_ref(p).is_domain())
                .unwrap_or(false);
            if parent_is_domain {
                RouteKind::SubDomain
            } else {
                RouteKind::TopDomain
            }
        } else if n.is_net() {
            RouteKind::Network
        } else if label
            .pred
            .map(|(_, l)| g.link_ref(l).flags.contains(LinkFlags::ALIAS))
            .unwrap_or(false)
        {
            RouteKind::Alias
        } else {
            RouteKind::Host
        };

        for &child in children[node.index()].iter().rev() {
            let (_, lid) = tree
                .label(child)
                .expect("child is labelled")
                .pred
                .expect("non-source labelled nodes have predecessors");
            let link = g.link_ref(lid);

            let child_name = if n.is_domain() {
                format!("{}{}", g.name(child), name)
            } else {
                g.name(child).to_string()
            };

            // Aliases splice nothing, and "the route to a network is
            // identical to the route to its parent".
            let child_route = if link.flags.contains(LinkFlags::ALIAS) || g.node_ref(child).is_net()
            {
                route.clone()
            } else {
                let op = if link.flags.contains(LinkFlags::NET_OUT) {
                    tree.label(node)
                        .and_then(|l| l.pred)
                        .map(|(_, entering)| g.link_ref(entering).op)
                        .unwrap_or(link.op)
                } else {
                    link.op
                };
                op.splice(&route, &child_name)
            };
            stack.push((child, child_route, child_name));
        }

        entries.push(Route {
            node,
            name,
            cost: label.cost,
            route,
            kind,
            via_domain: label.tainted,
            via_backlink: label.via_backlink,
            ambiguous: label.ambiguous,
        });
    }

    entries.sort_by_key(|r| r.node);
    RouteTable {
        source: tree.source,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mapper::{map, map_readonly};
    use pathalias_parser::parse;
    use pathalias_printer::{render, PrintOptions};

    #[test]
    fn baseline_agrees_with_csr_on_a_small_map() {
        let text = "\
unc duke(500), phs(2000)
duke phs(300), @research(100)
leaf duke(25)
N = {unc, research}(40)
.edu = {caip}(0)
duke .edu(95)
adjust {duke(10)}
";
        let mut g = parse(text).unwrap();
        let src = g.try_node("unc").unwrap();
        let opts = MapOptions::default();
        let csr = map(&g, src, &opts).unwrap();
        let old = map_linked(&mut g, src, &opts);
        for id in g.node_ids() {
            assert_eq!(csr.cost(id), old.cost(id), "cost of {}", g.name(id));
        }
        let print_opts = PrintOptions {
            with_costs: true,
            ..PrintOptions::default()
        };
        let new_text = render(&pathalias_printer::compute_routes(&csr), &print_opts);
        let old_text = render(&legacy_routes(&g, &old), &print_opts);
        assert_eq!(new_text, old_text);
    }

    #[test]
    fn readonly_variant_matches_production_readonly() {
        let g = parse("a b(10)\nb c(7), @d(3)\nc a(1)\n").unwrap();
        let src = g.try_node("a").unwrap();
        let opts = MapOptions {
            no_backlinks: true,
            ..MapOptions::default()
        };
        let csr = map_readonly(&g, src, &opts).unwrap();
        let old = map_linked_readonly(&g, src, &opts);
        for id in g.node_ids() {
            assert_eq!(csr.cost(id), old.cost(id));
        }
    }
}
