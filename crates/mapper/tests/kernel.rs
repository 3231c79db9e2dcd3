//! The relaxation kernel's own contract, edge by edge, on generated
//! worlds: the two lower bounds really are lower bounds on what `step`
//! charges (the router's certification rests on that, and until now
//! only certification itself tested it), a `Tail` advanced along a
//! tree's predecessor chains rebuilds every label bit for bit, and
//! with every heuristic off all of it collapses to the edge's cost.

use pathalias_graph::{EdgeId, FrozenGraph, NodeId};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::cost_model::{pack_label, Tail};
use pathalias_mapper::{map_frozen, map_frozen_readonly, CostModel, MapOptions, ShortestPathTree};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministically appends `adjust` and `delete` statements over the
/// generated hosts (the generator of `router/tests/parity.rs`), so bias
/// folding, the raw-cost source exemption and node dropping are
/// exercised even where the generator is gentle.
fn with_admin_statements(base: &str, home: &str, seed: u64) -> String {
    let g = pathalias_parser::parse(base).expect("base parses");
    let mut hosts: Vec<&str> = g
        .node_ids()
        .filter(|&id| !g.node_ref(id).is_net() && g.name(id) != home)
        .map(|id| g.name(id))
        .collect();
    hosts.sort_unstable();
    let mut extra = String::from("file { admin }\n");
    for (i, host) in hosts.iter().enumerate() {
        match (i as u64 + seed) % 17 {
            0 => extra.push_str(&format!(
                "adjust {{{host}({})}}\n",
                (seed % 900) as i64 - 300
            )),
            5 => extra.push_str(&format!("delete {{{host}}}\n")),
            _ => {}
        }
    }
    format!("{base}{extra}")
}

/// The home tree's augmented snapshot (invented back links included)
/// and three sources to map it from: the home and two seed-chosen
/// nodes, whatever they are.
fn world(hosts: usize, seed: u64, model: CostModel) -> (Arc<FrozenGraph>, Vec<NodeId>) {
    let map = generate(&MapSpec::small(hosts, seed));
    let text = with_admin_statements(&map.concatenated(), &map.home, seed);
    let g = pathalias_parser::parse(&text).expect("map parses");
    let home = g.try_node(&map.home).expect("home exists");
    let opts = MapOptions {
        model,
        ..MapOptions::default()
    };
    let f = map_frozen(&Arc::new(g.freeze()), home, &opts)
        .expect("home maps")
        .frozen()
        .clone();
    let n = f.node_count() as u64;
    let others = (1..3u64).map(|k| NodeId::from_raw(((seed * 7 + k * 13) % n) as u32));
    let sources = std::iter::once(home)
        .chain(others)
        .filter(|&s| f.is_mappable(s))
        .collect();
    (f, sources)
}

/// The tail a run from `tree.source` holds when it extracts `u`.
fn tail_at(tree: &ShortestPathTree, u: NodeId) -> Option<Tail> {
    let label = tree.label(u)?;
    Some(Tail::load(
        tree.frozen(),
        tree.source,
        u,
        pack_label(u, label),
    ))
}

/// Every edge out of every labelled node of `tree`, with the tail it
/// is relaxed from.
fn for_each_relaxation(tree: &ShortestPathTree, mut check: impl FnMut(&Tail, u32)) {
    let f = tree.frozen();
    for u in f.node_ids() {
        let Some(tail) = tail_at(tree, u) else {
            continue;
        };
        let (base_edge, row) = f.edge_slice(u);
        for i in 0..row.len() as u32 {
            check(&tail, base_edge + i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(16))]

    /// `lower_bound(None) ≤ lower_bound(Some(src)) ≤ step.cost −
    /// tail.cost`, for every edge and every label the trees leave at
    /// its tail.
    #[test]
    fn bounds_never_exceed_the_step(hosts in 40usize..120, seed in 0u64..10_000) {
        let model = CostModel::default();
        let (f, sources) = world(hosts, seed, model);
        for &src in &sources {
            let opts = MapOptions { model, ..MapOptions::default() };
            let tree = map_frozen_readonly(&f, src, &opts).expect("source maps");
            for_each_relaxation(&tree, |tail, e_raw| {
                let edge = f.edge(EdgeId::from_raw(e_raw));
                let charged = model.step(&f, tail, e_raw, edge).cost - tail.cost;
                let any = model.lower_bound(&f, None, tail.node, e_raw, edge);
                let from_src = model.lower_bound(&f, Some(src), tail.node, e_raw, edge);
                assert!(
                    any <= from_src && from_src <= charged,
                    "{} -> {} from {}: {any} <= {from_src} <= {charged}",
                    f.name(tail.node), f.name(edge.to()), f.name(src),
                );
            });
        }
    }

    /// Starting from `Tail::source` and advancing along a node's
    /// predecessor chain arrives at that node's label: cost, hops,
    /// state bits and predecessor, for every labelled node.
    #[test]
    fn advancing_along_the_tree_rebuilds_every_label(hosts in 40usize..120, seed in 0u64..10_000) {
        let model = CostModel::default();
        let (f, sources) = world(hosts, seed, model);
        for &src in &sources {
            let opts = MapOptions { model, ..MapOptions::default() };
            let tree = map_frozen_readonly(&f, src, &opts).expect("source maps");
            for v in f.node_ids() {
                let Some(label) = tree.label(v) else { continue };
                let mut chain: Vec<EdgeId> = Vec::new();
                let mut cur = label;
                while let Some((p, e)) = cur.pred {
                    chain.push(e);
                    cur = tree.label(p).expect("pred is labelled");
                }
                let mut tail = Tail::source(&f, src);
                let mut arrived = pack_label(src, tree.label(src).expect("source is labelled"));
                for &e in chain.iter().rev() {
                    let edge = f.edge(e);
                    let step = model.step(&f, &tail, e.raw(), edge);
                    arrived = step.label(&tail, e.raw(), edge.to());
                    tail = tail.advance(&f, src, e.raw(), edge, &step);
                }
                prop_assert_eq!(arrived, pack_label(v, label), "{} from {}", f.name(v), f.name(src));
                prop_assert_eq!((tail.node, tail.cost, tail.hops), (v, label.cost, label.hops));
                prop_assert_eq!(tail.state, arrived.2);
            }
        }
    }

    /// With `CostModel::plain()` the heuristics vanish: a step charges
    /// the edge's cost (raw out of an adjusted source, folded
    /// elsewhere), the sourced bound is exactly that, and the
    /// sourceless one is the smaller of the edge's two costs.
    #[test]
    fn plain_model_charges_the_edge_cost(hosts in 40usize..120, seed in 0u64..10_000) {
        let model = CostModel::plain();
        let (f, sources) = world(hosts, seed, model);
        for &src in &sources {
            let opts = MapOptions { model, ..MapOptions::default() };
            let tree = map_frozen_readonly(&f, src, &opts).expect("source maps");
            for_each_relaxation(&tree, |tail, e_raw| {
                let edge = f.edge(EdgeId::from_raw(e_raw));
                let raw = f.edge_raw_cost(EdgeId::from_raw(e_raw));
                let cost = if tail.node == src && f.adjust(src) != 0 { raw } else { edge.cost() };
                assert_eq!(model.step(&f, tail, e_raw, edge).cost - tail.cost, cost);
                assert_eq!(model.lower_bound(&f, Some(src), tail.node, e_raw, edge), cost);
                assert_eq!(model.lower_bound(&f, None, tail.node, e_raw, edge), edge.cost().min(raw));
            });
        }
    }
}
