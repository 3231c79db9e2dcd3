//! The preorder traversal that labels the tree with routes.
//!
//! "Routes are computed by labeling nodes in the shortest path tree in a
//! preorder traversal. We first label the root, which corresponds to the
//! local host, with route %s. In the recursion step of the traversal, we
//! calculate the route to a child node by combining the parent's route
//! and the routing information in the parent-to-child edge." As in the
//! original, routes live only on the traversal stack, not in the nodes.
//!
//! The traversal reads everything — names, node flags, edge operators —
//! from the tree's frozen snapshot by id, so a [`ShortestPathTree`] is
//! all it takes to print (and the snapshot is guaranteed to be the one
//! the labels' edge ids refer to, back-link augmentations included).

use crate::route::{Route, RouteKind, RouteTable};
use pathalias_graph::{FrozenGraph, LinkFlags, NodeFlags, NodeId, RouteOp};
use pathalias_mapper::{Children, ShortestPathTree};

/// Computes the route for every node the tree reached.
pub fn compute_routes(tree: &ShortestPathTree) -> RouteTable {
    let f: &FrozenGraph = tree.frozen();
    let children = tree.children();
    let mut entries: Vec<Route> = Vec::with_capacity(tree.mapped_count());

    // Iterative preorder: (node, route, name) — the route/name strings
    // are exactly what the original passed as recursion parameters.
    let stack: Vec<(NodeId, String, String)> = vec![(
        tree.source,
        "%s".to_string(),
        f.name(tree.source).to_string(),
    )];
    traverse(f, tree, &children, stack, &mut entries);

    entries.sort_by_key(|r| r.node);
    RouteTable {
        source: tree.source,
        entries,
    }
}

/// Recomputes, in place, the routes an incremental remap moved.
///
/// `changed` lists the nodes whose tree labels differ from the run
/// `table` was printed from. A node's route depends on its own label
/// and on its ancestors' routes, so only the subtree closure of
/// `changed` (in the *new* tree) is re-traversed; every other entry is
/// left where it is. Returns the entries it replaced, each with its
/// index into `table.entries`, ascending.
///
/// Requires that the labelled set is unchanged (the incremental-remap
/// contract) and that `table` was printed from the same source. When
/// the inputs don't line up it returns `None` *without writing
/// anything*, so the caller can fall back to [`compute_routes`] from a
/// table that is still the old one.
pub fn update_routes(
    tree: &ShortestPathTree,
    table: &mut RouteTable,
    changed: &[NodeId],
) -> Option<Vec<(usize, Route)>> {
    let f: &FrozenGraph = tree.frozen();
    if table.source != tree.source || table.entries.len() != tree.mapped_count() {
        return None;
    }
    if changed.is_empty() {
        return Some(Vec::new());
    }
    let children = tree.children();

    // The closure: every changed node plus all of its descendants in
    // the new tree (their routes splice through it).
    let n = f.node_count();
    let mut needs = vec![false; n];
    let mut marked = 0;
    let mut dfs: Vec<NodeId> = changed
        .iter()
        .copied()
        .filter(|&c| tree.label(c).is_some())
        .collect();
    while let Some(v) = dfs.pop() {
        if std::mem::replace(&mut needs[v.index()], true) {
            continue;
        }
        marked += 1;
        dfs.extend(children[v.index()].iter().copied());
    }

    // Entries are sorted by node id, so parents resolve by binary
    // search.
    let index_of = |node: NodeId| table.entries.binary_search_by_key(&node, |r| r.node).ok();

    // Re-traverse each maximal dirty subtree, seeding its root's
    // (route, name) from the still-valid parent entry.
    let mut stack: Vec<(NodeId, String, String)> = Vec::new();
    for i in 0..n {
        if !needs[i] {
            continue;
        }
        let node = NodeId::from_raw(i as u32);
        if node == tree.source {
            stack.push((node, "%s".to_string(), f.name(node).to_string()));
            continue;
        }
        let (parent, _) = tree.label(node)?.pred?;
        if needs[parent.index()] {
            continue; // an inner node; its subtree root seeds it
        }
        let pe = &table.entries[index_of(parent)?];
        let (route, name) = child_step(f, tree, parent, &pe.route, &pe.name, node)?;
        stack.push((node, route, name));
    }
    let mut fresh: Vec<Route> = Vec::new();
    traverse(f, tree, &children, stack, &mut fresh);
    fresh.sort_by_key(|r| r.node);

    // Every re-traversed node must already have its slot, and every
    // node the closure marked must have been re-traversed; only then
    // is anything written.
    let slots: Vec<usize> = fresh
        .iter()
        .map(|r| index_of(r.node))
        .collect::<Option<_>>()?;
    if slots.len() != marked {
        return None;
    }
    let replaced = slots.into_iter().zip(fresh);
    let replaced = replaced.map(|(i, r)| (i, std::mem::replace(&mut table.entries[i], r)));
    Some(replaced.collect())
}

/// Runs the preorder traversal from a pre-seeded stack, appending one
/// [`Route`] per visited node.
fn traverse(
    f: &FrozenGraph,
    tree: &ShortestPathTree,
    children: &Children,
    mut stack: Vec<(NodeId, String, String)>,
    entries: &mut Vec<Route>,
) {
    while let Some((node, route, name)) = stack.pop() {
        let label = tree.label(node).expect("traversal follows labels");

        let kind = if f.flags(node).contains(NodeFlags::PRIVATE) {
            RouteKind::Private
        } else if f.is_domain(node) {
            let parent_is_domain = label.pred.map(|(p, _)| f.is_domain(p)).unwrap_or(false);
            if parent_is_domain {
                RouteKind::SubDomain
            } else {
                RouteKind::TopDomain
            }
        } else if f.is_net(node) {
            RouteKind::Network
        } else if label
            .pred
            .map(|(_, e)| f.edge_flags(e).contains(LinkFlags::ALIAS))
            .unwrap_or(false)
        {
            RouteKind::Alias
        } else {
            RouteKind::Host
        };

        // Children in reverse so the stack pops them in sorted order.
        for &child in children[node.index()].iter().rev() {
            let (child_route, child_name) = child_step(f, tree, node, &route, &name, child)
                .expect("children of labelled nodes are labelled");
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
}

/// The recursion step: the (route, name) a child inherits from its tree
/// parent's (route, name).
fn child_step(
    f: &FrozenGraph,
    tree: &ShortestPathTree,
    node: NodeId,
    route: &str,
    name: &str,
    child: NodeId,
) -> Option<(String, String)> {
    let (_, edge) = tree.label(child)?.pred?;
    let eflags = f.edge_flags(edge);

    // Domain-name synthesis: "the name of the domain is appended to the
    // name of its successor".
    let child_name = if f.is_domain(node) {
        format!("{}{}", f.name(child), name)
    } else {
        f.name(child).to_string()
    };

    let child_route = if eflags.contains(LinkFlags::ALIAS) {
        // Aliases splice nothing: the predecessor's name is the one on
        // the wire.
        route.to_string()
    } else if f.is_net(child) {
        // "The route to a network is identical to the route to its
        // parent."
        route.to_string()
    } else {
        let op = effective_op(
            f,
            tree,
            node,
            f.edge_op(edge),
            eflags.contains(LinkFlags::NET_OUT),
        );
        op.splice(route, &child_name)
    };
    Some((child_route, child_name))
}

/// "When traversing a network-to-member edge, the routing character and
/// direction are the ones encountered when entering the network." Also
/// applies to any edge leaving a network or domain node, so different
/// gateways can impose different syntax.
fn effective_op(
    f: &FrozenGraph,
    tree: &ShortestPathTree,
    parent: NodeId,
    edge_op: RouteOp,
    net_out: bool,
) -> RouteOp {
    if net_out {
        if let Some(Some((_, entering))) = tree.label(parent).map(|l| l.pred) {
            return f.edge_op(entering);
        }
    }
    edge_op
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::Graph;
    use pathalias_mapper::{map, MapOptions};
    use pathalias_parser::parse;

    fn routes_for(text: &str, source: &str) -> RouteTable {
        let g = parse(text).unwrap();
        let s = g.try_node(source).unwrap();
        let tree = map(&g, s, &MapOptions::default()).unwrap();
        compute_routes(&tree)
    }

    fn route_of<'t>(t: &'t RouteTable, name: &str) -> &'t Route {
        t.find(name)
            .unwrap_or_else(|| panic!("no route named {name}"))
    }

    #[test]
    fn root_is_percent_s() {
        let t = routes_for("unc duke(500)\n", "unc");
        let r = route_of(&t, "unc");
        assert_eq!(r.route, "%s");
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn left_and_right_splicing() {
        let t = routes_for("a b(10)\nb @c(10)\n", "a");
        assert_eq!(route_of(&t, "b").route, "b!%s");
        assert_eq!(route_of(&t, "c").route, "b!%s@c");
    }

    #[test]
    fn network_invisible_and_exit_op_follows_entry() {
        let t = routes_for("u ARPA(95)\nARPA = @{mit-ai}(95)\n", "u");
        // Wait: entering op here comes from the explicit u->ARPA link,
        // which is plain UUCP; the member exit then uses `!`.
        assert_eq!(route_of(&t, "mit-ai").route, "mit-ai!%s");
        assert!(t.find("ARPA").map(|r| !r.kind.is_visible()).unwrap_or(true));
    }

    #[test]
    fn network_entry_via_member_uses_declared_op() {
        let t = routes_for("u ucbvax(300)\nARPA = @{mit-ai, ucbvax}(95)\n", "u");
        // ucbvax enters ARPA over its member edge declared with `@`, so
        // mit-ai is spliced host-on-right.
        assert_eq!(route_of(&t, "mit-ai").route, "ucbvax!%s@mit-ai");
    }

    #[test]
    fn alias_inherits_route_unchanged() {
        let t = routes_for("a princeton(100)\nprinceton = fun\nfun z(10)\n", "a");
        assert_eq!(route_of(&t, "princeton").route, "princeton!%s");
        assert_eq!(route_of(&t, "fun").route, "princeton!%s");
        assert_eq!(route_of(&t, "fun").kind, RouteKind::Alias);
        // Links from the alias splice into the partner's route.
        assert_eq!(route_of(&t, "z").route, "princeton!z!%s");
    }

    #[test]
    fn domain_names_append_through_the_tree() {
        // The paper's figure: a tree fragment rooted one hop before
        // seismo, with the chain seismo -> .edu -> .rutgers -> caip.
        let text = "\
u seismo(100)
seismo .edu(95)
.edu = {.rutgers}(0)
.rutgers = {caip}(0)
";
        let t = routes_for(text, "u");
        assert_eq!(
            route_of(&t, "caip.rutgers.edu").route,
            "seismo!caip.rutgers.edu!%s"
        );
        // Top-level domain printed with its parent's (gateway's) route.
        let edu = route_of(&t, ".edu");
        assert_eq!(edu.route, "seismo!%s");
        assert_eq!(edu.kind, RouteKind::TopDomain);
        // Subdomain hidden.
        let rutgers = t.entries.iter().find(|r| r.name == ".rutgers.edu").unwrap();
        assert_eq!(rutgers.kind, RouteKind::SubDomain);
    }

    #[test]
    fn masquerading_subdomain_is_top_level() {
        // `.rutgers.edu` as a single node with gateway caip.
        let text = "\
host caip(200)
.rutgers.edu = {caip(0), blue(0)}
";
        let t = routes_for(text, "host");
        assert_eq!(route_of(&t, "caip").route, "caip!%s");
        assert_eq!(
            route_of(&t, "blue.rutgers.edu").route,
            "caip!blue.rutgers.edu!%s"
        );
        let dom = route_of(&t, ".rutgers.edu");
        assert_eq!(dom.kind, RouteKind::TopDomain);
        assert_eq!(dom.route, "caip!%s");
    }

    #[test]
    fn private_hosts_hidden_but_relay() {
        let mut g = Graph::new();
        g.begin_file("f");
        let a = g.node("a");
        let p = g.declare_private("bilbo");
        let z = g.node("z");
        g.declare_link(a, p, 10, RouteOp::UUCP);
        g.declare_link(p, z, 10, RouteOp::UUCP);
        let tree = map(&g, a, &MapOptions::default()).unwrap();
        let t = compute_routes(&tree);
        let bilbo = t.entries.iter().find(|r| r.name == "bilbo").unwrap();
        assert_eq!(bilbo.kind, RouteKind::Private);
        assert!(!bilbo.kind.is_visible());
        // ... but it appears inside z's route.
        assert_eq!(route_of(&t, "z").route, "bilbo!z!%s");
    }

    #[test]
    fn backlink_and_domain_flags_carried() {
        let t = routes_for("a b(10)\nleaf b(25)\n", "a");
        assert!(route_of(&t, "leaf").via_backlink);
        assert!(!route_of(&t, "b").via_backlink);
    }

    /// Maps `text`, patches one node's row, cold-maps the patched
    /// graph, and returns (old table, new tree, changed node list).
    fn patched_world(
        text: &str,
        source: &str,
        patch_node: &str,
        edit: impl Fn(
            &pathalias_graph::FrozenGraph,
            NodeId,
        ) -> Vec<(NodeId, pathalias_graph::Cost, RouteOp, LinkFlags)>,
    ) -> (RouteTable, ShortestPathTree, Vec<NodeId>) {
        use pathalias_mapper::map_frozen_readonly;
        use std::sync::Arc;

        let g = parse(text).unwrap();
        let s = g.try_node(source).unwrap();
        let p = g.try_node(patch_node).unwrap();
        let frozen = Arc::new(g.freeze());
        let old_tree = map_frozen_readonly(&frozen, s, &MapOptions::default()).unwrap();
        let old_table = compute_routes(&old_tree);

        let (patched, _) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: p,
            edges: edit(&frozen, p),
        }]);
        let patched = Arc::new(patched);
        let new_tree = map_frozen_readonly(&patched, s, &MapOptions::default()).unwrap();
        let changed: Vec<NodeId> = patched
            .node_ids()
            .filter(|&id| old_tree.label(id) != new_tree.label(id))
            .collect();
        (old_table, new_tree, changed)
    }

    #[test]
    fn update_routes_matches_full_recompute() {
        // The b->x cost drop moves x (and its whole subtree, including
        // the domain chain that re-synthesizes names) under b.
        let text = "\
hub a(10), b(12)
a x(20)
b x(20)
x y(5)
y .edu(5)
.edu = {.rutgers}(0)
.rutgers = {caip}(0)
x z(1)
";
        let (mut updated, new_tree, changed) = patched_world(text, "hub", "b", |f, _| {
            let x = f.id_of("x").unwrap();
            vec![(x, 1, RouteOp::UUCP, LinkFlags::empty())]
        });
        assert!(!changed.is_empty());
        let old = updated.clone();
        let replaced = update_routes(&new_tree, &mut updated, &changed).expect("inputs line up");
        let full = compute_routes(&new_tree);
        assert_eq!(updated.entries, full.entries);
        assert_eq!(updated.source, full.source);
        // Exactly the rewritten slots differ from the old table.
        let moved: Vec<usize> = (0..old.entries.len())
            .filter(|&i| old.entries[i] != updated.entries[i])
            .collect();
        assert!(moved
            .iter()
            .all(|&i| replaced.iter().any(|(at, _)| *at == i)));
        assert!(replaced.iter().all(|(at, was)| old.entries[*at] == *was));
        assert!(replaced.len() < old.entries.len(), "only the moved subtree");
        // The moved subtree really re-routed.
        assert_eq!(updated.find("x").unwrap().route, "b!x!%s");
        assert_eq!(
            updated.find("caip.rutgers.edu").unwrap().route,
            "b!x!y!caip.rutgers.edu!%s"
        );
    }

    #[test]
    fn update_routes_no_changes_is_identity() {
        let g = parse("a b(10)\nb c(20)\n").unwrap();
        let a = g.try_node("a").unwrap();
        let tree = map(&g, a, &MapOptions::default()).unwrap();
        let mut table = compute_routes(&tree);
        let before = table.entries.clone();
        assert!(update_routes(&tree, &mut table, &[]).unwrap().is_empty());
        assert_eq!(table.entries, before);
    }

    #[test]
    fn update_routes_rejects_mismatched_table() {
        let g = parse("a b(10)\n").unwrap();
        let a = g.try_node("a").unwrap();
        let b = g.try_node("b").unwrap();
        let tree_a = map(&g, a, &MapOptions::default()).unwrap();
        let tree_b = map(&g, b, &MapOptions::default()).unwrap();
        let mut table_b = compute_routes(&tree_b);
        let before = table_b.entries.clone();
        assert!(update_routes(&tree_a, &mut table_b, &[a]).is_none());
        assert_eq!(table_b.entries, before, "a refusal writes nothing");
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let mut text = String::new();
        for i in 0..6_000 {
            text.push_str(&format!("h{} h{}(1)\n", i, i + 1));
        }
        let t = routes_for(&text, "h0");
        let last = route_of(&t, "h6000");
        assert_eq!(last.cost, 6_000);
        assert!(last.route.starts_with("h1!h2!"));
    }
}
