//! Route-string formatting for a single path.
//!
//! The printer labels the whole shortest-path tree in one preorder
//! traversal (`pathalias_printer::compute_routes`); a point-to-point
//! answer only needs the label of one leaf, so this module walks the
//! single `src ⤳ dst` chain applying the *same* combination rules —
//! alias and network edges inherit the parent's route unchanged, a
//! network-exit edge reuses the operator the path entered the network
//! with, and a domain's successors get the domain name appended. The
//! result is byte-identical to the printer's route for `dst` in the
//! tree rooted at `src` (the parity tests assert exactly that).

use pathalias_graph::{Cost, EdgeId, FrozenGraph, LinkFlags, NodeId};

/// A fully resolved point-to-point answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAnswer {
    /// Total path cost under the engine's cost model — identical to the
    /// mapper's label for `dst` in the tree rooted at `src`.
    pub cost: Cost,
    /// Visible hops (alias and network-entry edges add none).
    pub hops: u32,
    /// The node chain, `src` first, `dst` last.
    pub nodes: Vec<NodeId>,
    /// The edge chain; `edges[i]` connects `nodes[i]` to `nodes[i + 1]`.
    pub edges: Vec<EdgeId>,
    /// The printable name of the destination (domain members get the
    /// domain name appended, e.g. `caip.rutgers.edu`).
    pub name: String,
    /// The route template with `%s` standing for the user part, e.g.
    /// `seismo!caip.rutgers.edu!%s`.
    pub route: String,
    /// The path passes through a domain (ARPANET relay taint).
    pub via_domain: bool,
    /// The path uses an invented back link.
    pub via_backlink: bool,
    /// The route mixes syntaxes ambiguously (`!` after `@`).
    pub ambiguous: bool,
}

impl PathAnswer {
    /// The answer for a predecessor chain as a walk back from the
    /// destination leaves it (`nodes` and `edges` destination-first),
    /// with the three path-state flags unset for the caller to fill in
    /// from wherever the walk read its labels.
    pub(crate) fn from_walk(
        f: &FrozenGraph,
        mut nodes: Vec<NodeId>,
        mut edges: Vec<EdgeId>,
        cost: Cost,
        hops: u32,
    ) -> PathAnswer {
        nodes.reverse();
        edges.reverse();
        let (route, name) = format_route(f, &nodes, &edges);
        PathAnswer {
            cost,
            hops,
            nodes,
            edges,
            name,
            route,
            via_domain: false,
            via_backlink: false,
            ambiguous: false,
        }
    }
}

/// Formats the route template and printable destination name for the
/// node/edge chain `nodes` / `edges` (as produced by a search), using
/// the printer's combination rules.
fn format_route(f: &FrozenGraph, nodes: &[NodeId], edges: &[EdgeId]) -> (String, String) {
    debug_assert_eq!(nodes.len(), edges.len() + 1);
    let mut route = "%s".to_string();
    let mut name = f.name(nodes[0]).to_string();
    for (i, &edge) in edges.iter().enumerate() {
        let parent = nodes[i];
        let child = nodes[i + 1];
        let eflags = f.edge_flags(edge);

        // Domain-name synthesis: "the name of the domain is appended to
        // the name of its successor".
        let child_name = if f.is_domain(parent) {
            format!("{}{}", f.name(child), name)
        } else {
            f.name(child).to_string()
        };

        let child_route = if eflags.contains(LinkFlags::ALIAS) {
            // Aliases splice nothing: the predecessor's name is the one
            // on the wire.
            route.clone()
        } else if f.is_net(child) {
            // "The route to a network is identical to the route to its
            // parent."
            route.clone()
        } else {
            // "When traversing a network-to-member edge, the routing
            // character and direction are the ones encountered when
            // entering the network" — the parent's own entering edge,
            // which on this chain is simply the previous edge.
            let op = if eflags.contains(LinkFlags::NET_OUT) && i > 0 {
                f.edge_op(edges[i - 1])
            } else {
                f.edge_op(edge)
            };
            op.splice(&route, &child_name)
        };
        route = child_route;
        name = child_name;
    }
    (route, name)
}
