//! `ChIndex::build` against plain Dijkstra, on the graphs where the
//! witness search has to be careful.
//!
//! A pathalias network `NET = {a, b, c}(cost)` becomes a star: the hub
//! reaches every member at weight 0 and each member pays to get back.
//! Such stars make long runs of equal-cost ties, and a witness search
//! that decides a target as soon as an edge reaches it within its
//! limit is exactly where a `<` for `<=` slip, or a detour through the
//! node being contracted, would go unnoticed on tie-free weights. The
//! generated graphs mix stars with parallel edges, self-loops,
//! equal-cost chords and zero weights. For every pair the hierarchy's
//! distance must equal Dijkstra's, the unpacked path must be a real
//! walk whose weights sum to that distance, and the index must pass
//! its own structural and weight checks.

use pathalias_graph::{ChIndex, Cost, EdgeId, FrozenGraph, Graph, LinkFlags, NodeId, RouteOp};
use proptest::collection::vec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A star: hub, members, and what each member pays to get back.
type Star = (usize, Vec<usize>, Cost);

/// Builds the frozen graph. Every link is raw, so parallel edges and
/// self-loops survive to the CSR; a link's cost is its weight.
fn world(n: usize, stars: &[Star], chords: &[(usize, usize, Cost)]) -> FrozenGraph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.node(&format!("h{i}"))).collect();
    let mut link = |a: usize, b: usize, w: Cost| {
        g.add_raw_link(ids[a % n], ids[b % n], w, RouteOp::UUCP, LinkFlags::empty());
    };
    for (hub, members, back) in stars {
        for &m in members {
            link(*hub, m, 0);
            link(m, *hub, *back);
        }
    }
    for &(a, b, w) in chords {
        link(a, b, w);
    }
    g.freeze()
}

fn dijkstra(f: &FrozenGraph, w: &[Cost], src: usize) -> Vec<Option<Cost>> {
    let mut dist = vec![None; f.node_count()];
    let mut heap = BinaryHeap::from([Reverse((0 as Cost, src))]);
    dist[src] = Some(0);
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u] != Some(d) {
            continue;
        }
        for e in f.row(u) {
            let v = f.edge_target(EdgeId::from_raw(e as u32)).index();
            let nd = d.saturating_add(w[e]);
            if dist[v].map_or(true, |old| nd < old) {
                dist[v] = Some(nd);
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Distance and predecessor `(node, ref)` per node from one exhaustive
/// search over one half of the hierarchy.
type Cone = Vec<Option<(Cost, Option<(usize, u32)>)>>;

fn cone(ch: &ChIndex, root: usize, upward: bool) -> Cone {
    let mut dist: Cone = vec![None; ch.node_count()];
    let mut heap = BinaryHeap::from([Reverse((0 as Cost, root))]);
    dist[root] = Some((0, None));
    while let Some(Reverse((d, x))) = heap.pop() {
        if dist[x].map(|(c, _)| c) != Some(d) {
            continue;
        }
        let at = NodeId::from_raw(x as u32);
        let edges: Vec<_> = if upward {
            ch.up_edges(at).collect()
        } else {
            ch.down_into(at).collect()
        };
        for e in edges {
            let (y, nd) = (e.node.index(), d.saturating_add(e.weight));
            if dist[y].map_or(true, |(c, _)| nd < c) {
                dist[y] = Some((nd, Some((x, e.edge))));
                heap.push(Reverse((nd, y)));
            }
        }
    }
    dist
}

/// The hierarchy's `src → dst` distance and its unpacked edge path:
/// the cheapest meeting of the upward cone of `src` and the downward
/// cone of `dst`.
fn ch_route(ch: &ChIndex, up: &Cone, dst: usize) -> Option<(Cost, Vec<EdgeId>)> {
    let down = cone(ch, dst, false);
    let (cost, meet) = (0..ch.node_count())
        .filter_map(|x| Some((up[x]?.0.saturating_add(down[x]?.0), x)))
        .min()?;
    let mut rising = Vec::new();
    let mut x = meet;
    while let Some((_, Some((prev, r)))) = up[x] {
        rising.push(r);
        x = prev;
    }
    let mut path = Vec::new();
    for &r in rising.iter().rev() {
        assert!(
            ch.unpack_into(r, &mut path),
            "rising ref {r} does not unpack"
        );
    }
    let mut x = meet;
    while let Some((_, Some((next, r)))) = down[x] {
        assert!(
            ch.unpack_into(r, &mut path),
            "falling ref {r} does not unpack"
        );
        x = next;
    }
    Some((cost, path))
}

fn check(f: &FrozenGraph) {
    let w: Vec<Cost> = (0..f.edge_count())
        .map(|e| f.edge_raw_cost(EdgeId::from_raw(e as u32)))
        .collect();
    let ch = ChIndex::build(f, &w);
    assert!(ch.validate_against(f), "structural validation");
    assert!(
        ch.weights_consistent(&w),
        "original edges keep their weights"
    );
    for src in 0..f.node_count() {
        let want = dijkstra(f, &w, src);
        let up = cone(&ch, src, true);
        for (dst, &want) in want.iter().enumerate() {
            let got = ch_route(&ch, &up, dst);
            assert_eq!(got.as_ref().map(|g| g.0), want, "distance {src} -> {dst}");
            let Some((cost, path)) = got else { continue };
            let (mut at, mut total) = (src, 0 as Cost);
            for e in path {
                assert!(f.row(at).contains(&e.index()), "{src} -> {dst}: not a walk");
                total = total.saturating_add(w[e.index()]);
                at = f.edge_target(e).index();
            }
            assert_eq!((at, total), (dst, cost), "{src} -> {dst}: unpacked path");
        }
    }
}

fn star(n: usize) -> impl Strategy<Value = Star> {
    (0..n, vec(0..n, 1..7), 1..12u64)
}

proptest! {
    // The CI fuzz job cranks case counts via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(128))]

    #[test]
    fn ch_distances_match_dijkstra_on_stars_and_ties(
        (n, stars, chords) in (3usize..14).prop_flat_map(|n| (
            Just(n),
            vec(star(n), 0..4),
            // Few distinct weights, zero included: ties everywhere, and
            // small n makes parallel edges and self-loops common.
            vec((0..n, 0..n, prop_oneof![Just(0u64), Just(1), Just(2), Just(3), Just(5)]), 0..30),
        )),
    ) {
        check(&world(n, &stars, &chords));
    }
}
