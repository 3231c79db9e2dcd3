//! The serving database and the frozen name index against their
//! oracles, on generated worlds with domains, aliases, `private` hosts,
//! networks and duplicate output names (hosts declared under the very
//! names domain members print as):
//!
//! * the database streamed from the tree holds the routes the table
//!   prints, the last of a duplicate name in node order winning, and
//!   answers every name as the one built from `compute_routes(&tree)`
//!   does;
//! * after cost edits, `update_routes` plus `RouteDb::patched` (or the
//!   fresh build it falls back to) answers as a cold build does;
//! * `FrozenGraph::id_of` agrees with a `HashMap` of first claims,
//!   globals before `private` hosts, after `freeze` and after a PAGF1
//!   round trip, with and without `-i`.

use pathalias_core::{
    compute_routes, snapshot, update_routes, EdgeId, Frozen, FrozenGraph, Label, NodeFlags, NodeId,
    Options, Parsed, RowPatch, ShortestPathTree,
};
use pathalias_mailer::{Resolver, RouteDb};
use pathalias_mapgen::{generate, MapSpec};
use proptest::prelude::*;
use std::collections::HashMap;

/// A generated world plus hosts declared, from the home, under some of
/// the names its domain members print as: each such name then belongs
/// to two nodes, and the larger node id must be the one served. Two
/// files then declare `private` hosts no global host is named after,
/// one of them in both files, so the name index has private-only names
/// to fall back to.
fn world(hosts: usize, seed: u64, ignore_case: bool) -> (Frozen, Options) {
    let map = generate(&MapSpec::small(hosts, seed));
    let options = Options {
        local: Some(map.home.clone()),
        ignore_case,
        ..Options::default()
    };
    let base = map.concatenated();
    let routes = build(&base, &options).map(&options).unwrap().routes();
    let mut dups: Vec<&str> = routes
        .visible()
        .map(|r| r.name.as_str())
        .filter(|n| !n.starts_with('.') && n.contains('.'))
        .collect();
    dups.sort_unstable();
    let mut text = base.clone();
    text.push_str("file { duplicates }\n");
    for (i, dup) in dups
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as u64 + seed) % 5 == 0)
    {
        text.push_str(&format!("{} {dup}({})\n", map.home, 100 + i % 400));
    }
    for file in ["one", "two"] {
        text.push_str(&format!(
            "file {{ {file} }}\nprivate {{Hidden-{file}, Hidden}}\n"
        ));
        text.push_str(&format!("{} Hidden-{file}(50), Hidden(60)\n", map.home));
    }
    (build(&text, &options), options)
}

fn build(text: &str, options: &Options) -> Frozen {
    let mut parsed = Parsed::new();
    parsed.push_str("world", text);
    parsed.build(options).unwrap().freeze()
}

/// `got` holds exactly the routes `tree` prints, a duplicate name going
/// to its last entry in node order (a map insert over the table), and
/// every name, and a few names no one holds exactly, resolve in it as
/// in the database built from the table.
fn assert_serves(got: &RouteDb, tree: &ShortestPathTree) {
    let table = compute_routes(tree);
    let mut printed: HashMap<&str, &str> = HashMap::new();
    for r in table.visible() {
        printed.insert(&r.name, &r.route);
    }
    prop_assert_eq!(got.len(), printed.len());
    for (name, route) in &printed {
        prop_assert_eq!(got.get(name).map(|e| e.route.as_str()), Some(*route));
    }
    let want = RouteDb::from_table(&table);
    prop_assert_eq!(got.len(), want.len());
    for e in want.iter() {
        prop_assert_eq!(got.get(&e.name), Some(e));
        let probe = format!("nohost.{}", e.name.trim_start_matches('.'));
        prop_assert_eq!(
            got.resolve(&probe, "u").ok(),
            want.resolve(&probe, "u").ok()
        );
    }
    prop_assert!(got.iter().all(|e| want.get(&e.name) == Some(e)));
}

/// Whether the route printed for `id` could differ between the trees:
/// its label, or the operator and flags of the edge that reached it.
fn moved(old: &ShortestPathTree, new: &ShortestPathTree, id: NodeId) -> bool {
    let edge = |t: &ShortestPathTree, l: Label| {
        l.pred
            .map(|(p, e)| (p, t.frozen().edge_op(e), t.frozen().edge_flags(e)))
    };
    match (old.label(id), new.label(id)) {
        (Some(o), Some(n)) => {
            (o.cost, o.hops, o.has_left, o.has_right) != (n.cost, n.hops, n.has_left, n.has_right)
                || (o.tainted, o.via_backlink, o.ambiguous)
                    != (n.tainted, n.via_backlink, n.ambiguous)
                || edge(old, o) != edge(new, n)
        }
        (o, n) => o.is_some() != n.is_some(),
    }
}

/// The node `id_of` must find: the first global node of that name,
/// else the first `private` one, comparing case-folded under `-i`.
fn oracle(f: &FrozenGraph) -> HashMap<String, NodeId> {
    let mut index = HashMap::new();
    for private_pass in [false, true] {
        for id in f.node_ids() {
            if f.flags(id).contains(NodeFlags::PRIVATE) == private_pass {
                index.entry(key(f, f.name(id))).or_insert(id);
            }
        }
    }
    index
}

/// `name` as the oracle keys it.
fn key(f: &FrozenGraph, name: &str) -> String {
    if f.ignore_case() {
        name.to_ascii_lowercase()
    } else {
        name.to_string()
    }
}

fn assert_index_matches(f: &FrozenGraph) {
    let want = oracle(f);
    for id in f.node_ids() {
        let name = f.name(id);
        prop_assert_eq!(f.id_of(name), want.get(&key(f, name)).copied());
        let flipped: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect();
        prop_assert_eq!(f.id_of(&flipped), want.get(&key(f, &flipped)).copied());
        prop_assert_eq!(f.id_of(&format!("{name}-absent")), None);
    }
    prop_assert!(f.name_index_bytes() <= 8 * f.node_count().max(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(16))]

    #[test]
    fn the_streamed_database_answers_as_the_table_does(
        seed in 0u64..10_000,
        hosts in 40usize..160,
        ignore_case in any::<bool>(),
    ) {
        let (frozen, options) = world(hosts, seed, ignore_case);
        let tree = frozen.map(&options).unwrap().tree;
        let streamed = RouteDb::from_tree(&tree, &tree.children());
        assert_serves(&streamed, &tree);
    }

    #[test]
    fn a_patched_database_answers_as_a_cold_build_does(
        seed in 0u64..10_000,
        hosts in 40usize..160,
        edits in proptest::collection::vec((any::<u32>(), 0u64..600), 1..6),
    ) {
        let (frozen, options) = world(hosts, seed, false);
        let old = frozen.map(&options).unwrap().tree;
        let db = RouteDb::from_tree(&old, &old.children());
        let f = frozen.graph();
        // Cost-only edits keep every row's shape, so the same nodes
        // stay reachable and the trees line up.
        let tails: Vec<NodeId> = f.node_ids().filter(|&id| f.degree(id) > 0).collect();
        let mut patches: Vec<RowPatch> = Vec::new();
        for (pick, cost) in edits {
            let node = tails[pick as usize % tails.len()];
            if patches.iter().any(|p| p.node == node) {
                continue;
            }
            let (start, row) = f.edge_slice(node);
            // Most edits retune a tree edge, which moves a subtree.
            let tree_edges: Vec<usize> = (0..row.len())
                .filter(|&i| {
                    let e = EdgeId::from_raw(start + i as u32);
                    old.label(row[i].to()).and_then(|l| l.pred) == Some((node, e))
                })
                .collect();
            let bump = match tree_edges.len() {
                n if n > 0 && pick % 4 != 0 => tree_edges[pick as usize / 4 % n],
                _ => pick as usize % row.len(),
            };
            let edges = row.iter().enumerate().map(|(i, e)| {
                let raw = f.edge_raw_cost(EdgeId::from_raw(start + i as u32));
                (e.to(), if i == bump { cost } else { raw }, e.op(), e.flags())
            });
            patches.push(RowPatch { node, edges: edges.collect() });
        }
        patches.sort_by_key(|p| p.node);
        let edited = frozen.with_graph(std::sync::Arc::new(f.with_rows_replaced(&patches).0));
        let new = edited.map(&options).unwrap().tree;
        let changed: Vec<NodeId> = f.node_ids().filter(|&id| moved(&old, &new, id)).collect();
        let routes = update_routes(&new, &new.children(), &changed).expect("cost edits keep the labelled set");
        let patched = db.patched(&old, &routes).unwrap_or_else(|| RouteDb::from_tree(&new, &new.children()));
        assert_serves(&patched, &new);
    }

    #[test]
    fn the_name_index_finds_what_a_map_of_first_claims_does(
        seed in 0u64..10_000,
        hosts in 20usize..120,
        ignore_case in any::<bool>(),
    ) {
        let (frozen, _) = world(hosts, seed, ignore_case);
        assert_index_matches(frozen.graph());
        let loaded = snapshot::from_bytes(&snapshot::to_bytes(frozen.graph())).unwrap();
        prop_assert_eq!(&loaded, &**frozen.graph());
        assert_index_matches(&loaded);
    }
}
