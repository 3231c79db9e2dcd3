//! Property test: the study's O(v²) mapper against the shipped heap
//! run (moved here from the root `tests/property.rs` with the code).

use pathalias_bench::study::map_frozen_quadratic_readonly;
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
}
