//! Property tests of the study code against the shipped code: the
//! O(v²) mapper against the heap run, and the unparser's round trip
//! through the parser (moved here from the root `tests/property.rs`
//! with the code).

use pathalias_bench::study::map_frozen_quadratic_readonly;
use pathalias_bench::unparse;
// `unparse_fixpoint` calls `pathalias::parse`, as it did at the root.
use pathalias_core as pathalias;
use pathalias_graph::{Graph, RouteOp};
use pathalias_mapper::{map_readonly, MapOptions};
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

    /// The heap variant and the quadratic variant are label-identical,
    /// heuristics and all.
    #[test]
    fn heap_and_quadratic_agree((n, edges) in edges_strategy()) {
        let g = build_graph(n, &edges);
        let src = g.try_node("n0").unwrap();
        let opts = MapOptions::default();
        let a = map_readonly(&g, src, &opts).unwrap();
        let b = map_frozen_quadratic_readonly(&g.freeze(), src, &opts).unwrap();
        for id in g.node_ids() {
            prop_assert_eq!(a.label(id), b.label(id));
        }
    }

    /// parse → unparse converges after one round trip.
    #[test]
    fn unparse_fixpoint(text in map_text_strategy()) {
        let g1 = pathalias::parse(&text).unwrap();
        let t1 = unparse::unparse(&g1);
        let g2 = pathalias::parse(&t1).unwrap();
        let t2 = unparse::unparse(&g2);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(g1.node_count(), g2.node_count());
    }
}
