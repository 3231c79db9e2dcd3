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

use crate::route::{Route, RouteKind, RouteRef, RouteTable};
use pathalias_graph::{FrozenGraph, LinkFlags, NodeFlags, NodeId, RouteOp};
use pathalias_mapper::{Children, ShortestPathTree};

/// Computes the route for every node the tree reached.
pub fn compute_routes(tree: &ShortestPathTree) -> RouteTable {
    let mut entries: Vec<Route> = Vec::with_capacity(tree.mapped_count());
    for_each_route(tree, |r| entries.push(r.to_route()));
    entries.sort_by_key(|r| r.node);
    RouteTable {
        source: tree.source,
        entries,
    }
}

/// The preorder traversal: hands each labelled node's route to `emit`
/// as soon as it is computed, in traversal order, and keeps none of
/// them. [`compute_routes`] copies them into a table; a consumer that
/// keeps only part of each route (the renderer, a lookup database)
/// copies the bytes it wants straight from the [`RouteRef`].
///
/// The borrowed name and route live in one pair of buffers per tree
/// depth: a child's are written from its parent's, one depth up,
/// which still holds the parent's when the child is visited. So the
/// walk's working memory is bounded by the routes on the current path
/// (each depth's buffers are about as long as the longest route and
/// name written there) and never exceeds the output being produced,
/// and it allocates only when a buffer grows.
pub fn for_each_route(tree: &ShortestPathTree, emit: impl FnMut(RouteRef<'_>)) {
    RouteWalk::new(tree, &tree.children()).for_each(emit);
}

/// What the traversal gives `node`'s entry as its [`RouteKind`], read
/// off the tree's labels without computing a route; `None` when the
/// tree did not reach the node.
pub fn route_kind(tree: &ShortestPathTree, node: NodeId) -> Option<RouteKind> {
    let f: &FrozenGraph = tree.frozen();
    let pred = tree.label(node)?.pred;
    Some(if f.flags(node).contains(NodeFlags::PRIVATE) {
        RouteKind::Private
    } else if f.is_domain(node) {
        if pred.is_some_and(|(p, _)| f.is_domain(p)) {
            RouteKind::SubDomain
        } else {
            RouteKind::TopDomain
        }
    } else if f.is_net(node) {
        RouteKind::Network
    } else if pred.is_some_and(|(_, e)| f.edge_flags(e).contains(LinkFlags::ALIAS)) {
        RouteKind::Alias
    } else {
        RouteKind::Host
    })
}

/// The output name the traversal gives `node`, derived up the tree
/// through the domains above it (`caip` + `.rutgers` + `.edu`) without
/// computing a route; `None` when the tree did not reach the node.
pub fn route_name(tree: &ShortestPathTree, node: NodeId) -> Option<String> {
    let f: &FrozenGraph = tree.frozen();
    let mut name = f.name(node).to_string();
    let mut pred = tree.label(node)?.pred;
    while let Some((parent, _)) = pred.filter(|&(p, _)| f.is_domain(p)) {
        name.push_str(f.name(parent));
        pred = tree.label(parent)?.pred;
    }
    Some(name)
}

/// The routes an incremental remap moved.
///
/// `tree` is the repaired tree and `children` its child lists
/// ([`ShortestPathTree::children`], or lists kept up to date with
/// [`Children::reparent`]); `changed` lists the nodes whose labels the
/// repair moved. A node's route depends on its own label and on its
/// ancestors' routes, so only the subtree closure of `changed` (in the
/// repaired tree) is re-traversed, and nothing else is read. Each
/// maximal dirty subtree is walked once, seeded from its parent's
/// route, re-derived along the tree's predecessor chain: the parent is
/// clean, so that route is the one it had. Returns the closure's routes
/// as the tree prints them, sorted by node.
///
/// Requires that the repair left the labelled set as it was (the
/// incremental-remap contract, which
/// [`repair_frozen`](pathalias_mapper::repair_frozen) checks); returns
/// `None` when a changed node's predecessor chain does not reach the
/// source, so the caller can fall back to a full traversal.
pub fn update_routes(
    tree: &ShortestPathTree,
    children: &Children,
    changed: &[NodeId],
) -> Option<Vec<Route>> {
    if changed.is_empty() {
        return Some(Vec::new());
    }

    // The closure: every changed node plus all of its descendants in
    // the new tree (their routes splice through it). Each changed node
    // collects the descendants no changed node below it roots, so
    // every node is visited once.
    let mut roots: Vec<NodeId> = changed
        .iter()
        .copied()
        .filter(|&c| tree.label(c).is_some())
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let mut closure: Vec<NodeId> = Vec::with_capacity(roots.len());
    let mut dfs: Vec<NodeId> = roots.clone();
    while let Some(v) = dfs.pop() {
        closure.push(v);
        let below = children[v.index()].iter().copied();
        dfs.extend(below.filter(|c| roots.binary_search(c).is_err()));
    }
    closure.sort_unstable();

    // Walk each maximal dirty subtree from its root, seeded with the
    // root's (route, name).
    let mut walk = RouteWalk::new(tree, children);
    let mut fresh: Vec<Route> = Vec::with_capacity(closure.len());
    for &node in &closure {
        if let Some((parent, _)) = tree.label(node)?.pred {
            if closure.binary_search(&parent).is_ok() {
                continue; // an inner node; its subtree root seeds it
            }
        }
        let depth = walk.seed(node)?;
        walk.subtree(node, depth, &mut |r| fresh.push(r.to_route()));
    }
    fresh.sort_by_key(|r| r.node);
    (fresh.len() == closure.len()).then_some(fresh)
}

/// The traversal of [`for_each_route`] as a value, for a consumer
/// that walks one tree more than once (a database sizes its shards on
/// a first walk and fills them on a second): the walk's buffers are
/// made once, and the tree's child lists are the caller's, made once
/// and kept as long as it likes.
pub struct RouteWalk<'t> {
    f: &'t FrozenGraph,
    tree: &'t ShortestPathTree,
    children: &'t Children,
    /// `paths[d]`: the route and name of the node last visited at
    /// depth `d` — on the current path, the ancestor at that depth.
    paths: Vec<(String, String)>,
    /// Nodes to visit, with their depths.
    stack: Vec<(NodeId, usize)>,
    /// A predecessor chain, while seeding.
    chain: Vec<NodeId>,
}

impl<'t> RouteWalk<'t> {
    /// A walk over `tree`, whose child lists are `children`
    /// ([`ShortestPathTree::children`]).
    pub fn new(tree: &'t ShortestPathTree, children: &'t Children) -> RouteWalk<'t> {
        RouteWalk {
            f: tree.frozen(),
            tree,
            children,
            paths: Vec::new(),
            stack: Vec::new(),
            chain: Vec::new(),
        }
    }

    /// Walks the whole tree, as [`for_each_route`] does.
    pub fn for_each(&mut self, mut emit: impl FnMut(RouteRef<'_>)) {
        let source = self.tree.source;
        self.seed(source)
            .expect("the source is labelled and roots its own chain");
        self.subtree(source, 0, &mut emit);
    }

    /// Writes the (route, name) of every node on `node`'s predecessor
    /// chain into the depth buffers, the source's at depth 0, and
    /// returns `node`'s depth; `None` when the chain is broken.
    fn seed(&mut self, node: NodeId) -> Option<usize> {
        self.chain.clear();
        let mut at = node;
        while at != self.tree.source {
            self.chain.push(at);
            (at, _) = self.tree.label(at)?.pred?;
        }
        if self.paths.is_empty() {
            self.paths.push(Default::default());
        }
        let (route, name) = &mut self.paths[0];
        route.clear();
        route.push_str("%s");
        name.clear();
        name.push_str(self.f.name(self.tree.source));
        for depth in 1..=self.chain.len() {
            let child = self.chain[self.chain.len() - depth];
            self.step(child, depth)?;
        }
        Some(self.chain.len())
    }

    /// Visits `root`, whose (route, name) is already in the buffers at
    /// `depth`, and then its subtree in preorder, handing each route to
    /// `emit`.
    fn subtree(&mut self, root: NodeId, depth: usize, emit: &mut impl FnMut(RouteRef<'_>)) {
        self.stack.push((root, depth));
        while let Some((node, depth)) = self.stack.pop() {
            if node != root {
                self.step(node, depth)
                    .expect("children of labelled nodes are labelled");
            }
            let label = self.tree.label(node).expect("traversal follows labels");
            let (route, name) = &self.paths[depth];
            emit(RouteRef {
                node,
                name,
                cost: label.cost,
                route,
                kind: route_kind(self.tree, node).expect("traversal follows labels"),
                via_domain: label.tainted,
                via_backlink: label.via_backlink,
                ambiguous: label.ambiguous,
            });
            // Children in reverse so the stack pops them in sorted
            // order.
            let below = self.children[node.index()].iter().rev();
            self.stack.extend(below.map(|&child| (child, depth + 1)));
        }
    }

    /// The recursion step: writes the (route, name) `child` inherits
    /// from its tree parent's, at `depth - 1`, into the buffers at
    /// `depth`.
    fn step(&mut self, child: NodeId, depth: usize) -> Option<()> {
        let f = self.f;
        let (node, edge) = self.tree.label(child)?.pred?;
        let eflags = f.edge_flags(edge);
        if self.paths.len() == depth {
            // A new depth: its routes are about one hop longer than
            // the longest the depth above has held, and its names as
            // long, so its buffers seldom grow again.
            let (route, name) = &self.paths[depth - 1];
            let hop = name.capacity() + 1;
            let grown = String::with_capacity(route.capacity() + hop);
            self.paths
                .push((grown, String::with_capacity(name.capacity())));
        }
        let (above, here) = self.paths.split_at_mut(depth);
        let (route, name) = &above[depth - 1];
        let (child_route, child_name) = &mut here[0];

        // Domain-name synthesis: "the name of the domain is appended to
        // the name of its successor".
        child_name.clear();
        child_name.push_str(f.name(child));
        if f.is_domain(node) {
            child_name.push_str(name);
        }

        if eflags.contains(LinkFlags::ALIAS) || f.is_net(child) {
            // Aliases splice nothing: the predecessor's name is the one
            // on the wire. And "the route to a network is identical to
            // the route to its parent."
            child_route.clear();
            child_route.push_str(route);
        } else {
            let op = effective_op(
                f,
                self.tree,
                node,
                f.edge_op(edge),
                eflags.contains(LinkFlags::NET_OUT),
            );
            op.splice_into(route, child_name, child_route);
        }
        Some(())
    }
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
    /// graph, and returns (old tree, new tree, changed node list).
    fn patched_world(
        text: &str,
        source: &str,
        patch_node: &str,
        edit: impl Fn(
            &pathalias_graph::FrozenGraph,
            NodeId,
        ) -> Vec<(NodeId, pathalias_graph::Cost, RouteOp, LinkFlags)>,
    ) -> (ShortestPathTree, ShortestPathTree, Vec<NodeId>) {
        use pathalias_mapper::map_frozen_readonly;
        use std::sync::Arc;

        let g = parse(text).unwrap();
        let s = g.try_node(source).unwrap();
        let p = g.try_node(patch_node).unwrap();
        let frozen = Arc::new(g.freeze());
        let old_tree = map_frozen_readonly(&frozen, s, &MapOptions::default()).unwrap();

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
        (old_tree, new_tree, changed)
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
        let (old_tree, new_tree, changed) = patched_world(text, "hub", "b", |f, _| {
            let x = f.id_of("x").unwrap();
            vec![(x, 1, RouteOp::UUCP, LinkFlags::empty())]
        });
        assert!(!changed.is_empty());
        let old = compute_routes(&old_tree);
        let moved = update_routes(&new_tree, &new_tree.children(), &changed)
            .expect("the chains reach the source");
        assert!(moved.windows(2).all(|w| w[0].node < w[1].node));
        // The old table with the moved routes written over their nodes'
        // entries is the new tree's table.
        let mut updated = old.clone();
        for r in &moved {
            let at = updated
                .entries
                .iter()
                .position(|e| e.node == r.node)
                .unwrap();
            updated.entries[at] = r.clone();
        }
        let full = compute_routes(&new_tree);
        assert_eq!(updated.entries, full.entries);
        // Every entry that differs moved, and only the subtree moved.
        for (was, now) in old.entries.iter().zip(&full.entries) {
            assert!(was == now || moved.iter().any(|r| r.node == now.node));
        }
        assert!(moved.len() < old.entries.len(), "only the moved subtree");
        // The moved subtree really re-routed.
        assert_eq!(updated.find("x").unwrap().route, "b!x!%s");
        assert_eq!(
            updated.find("caip.rutgers.edu").unwrap().route,
            "b!x!y!caip.rutgers.edu!%s"
        );
    }

    #[test]
    fn kind_and_name_match_the_traversal() {
        let text = "\
u seismo(100), ARPA(95)
ARPA = @{mit-ai}(95)
seismo .edu(95)
.edu = {.rutgers}(0)
.rutgers = {caip}(0)
seismo princeton(10)
princeton = fun
";
        let g = parse(text).unwrap();
        let tree = map(&g, g.try_node("u").unwrap(), &MapOptions::default()).unwrap();
        let table = compute_routes(&tree);
        for r in &table.entries {
            assert_eq!(route_kind(&tree, r.node), Some(r.kind), "{}", r.name);
            assert_eq!(route_name(&tree, r.node).as_deref(), Some(&*r.name));
        }
        assert!(table.find("caip.rutgers.edu").is_some());
    }

    #[test]
    fn update_routes_no_changes_is_identity() {
        let g = parse("a b(10)\nb c(20)\n").unwrap();
        let a = g.try_node("a").unwrap();
        let tree = map(&g, a, &MapOptions::default()).unwrap();
        assert!(update_routes(&tree, &tree.children(), &[])
            .unwrap()
            .is_empty());
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
