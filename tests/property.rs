//! Property-based tests over the whole pipeline.

use pathalias::core::{map_readonly, CostModel, Graph, MapOptions, RouteOp};
use pathalias::{Address, Pathalias, SyntaxStyle};
use proptest::prelude::*;

/// A random sparse digraph as an edge list over `n` nodes, deduplicated
/// per (from, to) so the duplicate-link rule never fires.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (2usize..16).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0u64..2_000);
        (Just(n), proptest::collection::vec(edge, 0..70)).prop_map(|(n, mut edges)| {
            edges.retain(|(u, v, _)| u != v);
            let mut seen = std::collections::HashSet::new();
            edges.retain(|(u, v, _)| seen.insert((*u, *v)));
            (n, edges)
        })
    })
}

fn build_graph(n: usize, edges: &[(usize, usize, u64)]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<_> = (0..n).map(|i| g.node(&format!("n{i}"))).collect();
    for &(u, v, c) in edges {
        g.declare_link(ids[u], ids[v], c, RouteOp::UUCP);
    }
    g
}

/// Bellman–Ford oracle over the same edge list.
fn bellman_ford(n: usize, edges: &[(usize, usize, u64)], src: usize) -> Vec<Option<u64>> {
    let mut dist: Vec<Option<u64>> = vec![None; n];
    dist[src] = Some(0);
    for _ in 0..n {
        let mut changed = false;
        for &(u, v, c) in edges {
            if let Some(du) = dist[u] {
                let cand = du + c;
                if dist[v].map_or(true, |dv| cand < dv) {
                    dist[v] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With all heuristics off, the mapper is plain Dijkstra and must
    /// agree with a Bellman–Ford oracle on every distance.
    #[test]
    fn dijkstra_matches_bellman_ford((n, edges) in edges_strategy()) {
        let g = build_graph(n, &edges);
        let src = g.try_node("n0").unwrap();
        let opts = MapOptions {
            model: CostModel::plain(),
            no_backlinks: true,
            ..MapOptions::default()
        };
        let tree = map_readonly(&g, src, &opts).unwrap();
        let oracle = bellman_ford(n, &edges, 0);
        for (i, expected) in oracle.iter().enumerate() {
            let id = g.try_node(&format!("n{i}")).unwrap();
            prop_assert_eq!(tree.cost(id), *expected, "node n{}", i);
        }
    }

    /// Costs along any tree path are monotonically non-decreasing and
    /// hop counts increase by at most one per predecessor step.
    #[test]
    fn tree_paths_are_monotone((n, edges) in edges_strategy()) {
        let g = build_graph(n, &edges);
        let src = g.try_node("n0").unwrap();
        let tree = map_readonly(&g, src, &MapOptions::default()).unwrap();
        for id in g.node_ids() {
            if let Some(l) = tree.label(id) {
                if let Some((p, _)) = l.pred {
                    let pl = tree.label(p).expect("pred is labelled");
                    prop_assert!(pl.cost <= l.cost);
                    prop_assert!(l.hops == pl.hops || l.hops == pl.hops + 1);
                }
            }
        }
    }
}

/// Random statement soup exercising nets, aliases and operators.
fn map_text_strategy() -> impl Strategy<Value = String> {
    let link_line = (
        0usize..8,
        proptest::collection::vec((0usize..8, 1u64..999), 1..4),
    )
        .prop_map(|(from, tos)| {
            let list: Vec<String> = tos.iter().map(|(t, c)| format!("h{t}({c})")).collect();
            format!("h{from}\t{}\n", list.join(", "))
        });
    let arpa_line = (0usize..8, 0u64..500).prop_map(|(t, c)| format!("h9\t@h{t}({c})\n"));
    let net_line = proptest::collection::vec(0usize..8, 1..4).prop_map(|ms| {
        let members: Vec<String> = ms.iter().map(|m| format!("h{m}")).collect();
        format!("NETX = {{{}}}(25)\n", members.join(", "))
    });
    let alias_line = (0usize..8).prop_map(|a| format!("h{a} = h{a}-aka\n"));
    let stmt = prop_oneof![
        4 => link_line,
        1 => arpa_line,
        1 => net_line,
        1 => alias_line,
    ];
    proptest::collection::vec(stmt, 1..12).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every visible route has exactly one %s marker, formats cleanly,
    /// and the root costs zero.
    #[test]
    fn route_invariants(text in map_text_strategy()) {
        let mut pa = Pathalias::new();
        pa.parse_str("m", &text).unwrap();
        let out = pa.run().unwrap();
        let mut saw_root = false;
        for r in out.routes().visible() {
            prop_assert_eq!(r.route.matches("%s").count(), 1, "{}", r.route);
            let formatted = r.format("user");
            prop_assert!(formatted.contains("user"));
            prop_assert!(!formatted.contains("%s"));
            if r.cost == 0 && r.route == "%s" {
                saw_root = true;
            }
        }
        prop_assert!(saw_root, "the local host always appears");
    }
}

fn hop_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,6}".prop_filter("no trailing hyphen", |s| !s.ends_with('-'))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bang-path rendering and parsing round-trip.
    #[test]
    fn address_bang_roundtrip(
        hops in proptest::collection::vec(hop_name(), 0..5),
        user in hop_name(),
    ) {
        let addr = Address { hops, user };
        let text = addr.to_bang_path();
        let parsed = Address::parse(&text, SyntaxStyle::Heuristic).unwrap();
        prop_assert_eq!(parsed, addr);
    }

    /// Mixed-form rendering parses back to the same travel order under
    /// UUCP-first precedence.
    #[test]
    fn address_mixed_roundtrip(
        hops in proptest::collection::vec(hop_name(), 1..5),
        user in hop_name(),
    ) {
        let addr = Address { hops, user };
        let text = addr.to_mixed();
        let parsed = Address::parse(&text, SyntaxStyle::UucpFirst).unwrap();
        prop_assert_eq!(parsed, addr);
    }
}

/// Generated maps keep their invariants across seeds (fixed sample of
/// seeds; full mapgen runs are too slow for per-case generation).
#[test]
fn mapgen_invariants_across_seeds() {
    for seed in [1u64, 7, 42, 1986, 0xdead] {
        let map = pathalias::generate(&pathalias::MapSpec::small(120, seed));
        let mut pa = Pathalias::new();
        for (name, text) in &map.files {
            pa.parse_str(name, text).unwrap();
        }
        pa.options_mut().local = Some(map.home.clone());
        let out = pa.run().unwrap();
        assert!(out.routes().visible().count() > 100, "seed {seed}");
        for r in out.routes().visible() {
            assert_eq!(r.route.matches("%s").count(), 1, "seed {seed}: {}", r.route);
        }
    }
}
