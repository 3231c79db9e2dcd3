//! The back-link pass continues one run from round to round instead of
//! mapping every augmented graph from scratch. The loop it replaced is
//! the oracle here: on generated worlds carrying `adjust` and `delete`
//! statements, under the paper's model and the plain one, the
//! continued run must give every node the same label (predecessor edge
//! ids included) over the same augmented graph, and the rounds that
//! could not be shown to match must be the ones it re-ran.

use pathalias_graph::{FrozenGraph, LinkFlags, NodeId};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::{map_frozen, map_frozen_readonly, CostModel, MapOptions, ShortestPathTree};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Deterministically appends `adjust` and `delete` statements over the
/// generated hosts (the generator of `kernel.rs`).
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

/// The frozen world and three sources to map it from: the home and
/// two seed-chosen hosts, which leave more of the world to back links.
fn world(hosts: usize, seed: u64) -> (Arc<FrozenGraph>, Vec<NodeId>) {
    let map = generate(&MapSpec::small(hosts, seed));
    let text = with_admin_statements(&map.concatenated(), &map.home, seed);
    let g = pathalias_parser::parse(&text).expect("map parses");
    let home = g.try_node(&map.home).expect("home exists");
    let f = Arc::new(g.freeze());
    let n = f.node_count() as u64;
    let others = (1..3u64).map(|k| NodeId::from_raw(((seed * 7 + k * 13) % n) as u32));
    let sources = std::iter::once(home)
        .chain(others)
        .filter(|&s| f.is_mappable(s))
        .collect();
    (f, sources)
}

/// The back-link loop as it was before rounds continued: map the
/// augmented graph from scratch after every round.
fn map_restarting(f: &Arc<FrozenGraph>, source: NodeId, opts: &MapOptions) -> ShortestPathTree {
    let mut frozen = f.clone();
    let (mut rounds, mut invented) = (0u32, 0u64);
    loop {
        let mut tree = map_frozen_readonly(&frozen, source, opts).expect("source maps");
        tree.stats.backlink_rounds = rounds;
        tree.stats.invented_links = invented;
        let mut inventions = Vec::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for u in tree.unreachable() {
            for e in frozen.out_edges(u) {
                if frozen.edge_flags(e).contains(LinkFlags::BACK) {
                    continue;
                }
                let to = frozen.edge_target(e);
                if tree.is_mapped(to) {
                    let cost = frozen
                        .edge_raw_cost(e)
                        .saturating_add(opts.model.backlink_penalty);
                    if !frozen.has_back_edge(to, u) && seen.insert((to.raw(), u.raw())) {
                        inventions.push((to, u, cost, frozen.edge_op(e), LinkFlags::BACK));
                    }
                }
            }
        }
        if inventions.is_empty() {
            return tree;
        }
        invented += inventions.len() as u64;
        frozen = Arc::new(frozen.with_edges_appended(&inventions));
        rounds += 1;
    }
}

/// Maps `f` from `source` both ways and asserts they agree; the number
/// of rounds the continued run re-ran.
fn compare(f: &Arc<FrozenGraph>, source: NodeId, model: CostModel) -> u32 {
    let opts = MapOptions {
        model,
        ..MapOptions::default()
    };
    let oracle = map_restarting(f, source, &opts);
    let tree = map_frozen(f, source, &opts).expect("source maps");
    let name = f.name(source);
    assert!(
        **tree.frozen() == **oracle.frozen(),
        "augmented graphs differ from {name}"
    );
    for id in f.node_ids() {
        assert_eq!(
            tree.label(id),
            oracle.label(id),
            "label of {} from {name}",
            f.name(id)
        );
    }
    let (s, o) = (tree.stats, oracle.stats);
    assert_eq!(
        (s.mapped, s.backlink_rounds, s.invented_links),
        (o.mapped, o.backlink_rounds, o.invented_links),
        "round counts from {name}"
    );
    assert!(s.restarted_rounds <= s.backlink_rounds);
    s.restarted_rounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(16))]

    /// Under both models, from the home and from two hosts the back
    /// links have more to do for.
    #[test]
    fn continued_rounds_match_restarted_ones(hosts in 40usize..300, seed in 0u64..10_000) {
        let (f, sources) = world(hosts, seed);
        for model in [CostModel::paper(), CostModel::plain()] {
            for &src in &sources {
                compare(&f, src, model);
            }
        }
    }
}

/// Back links under the plain model cost no penalty, so a host they
/// reach can offer an earlier round's host a cheaper path: continuing
/// must decline there, and the re-run rounds must still match. Without
/// the check that declines, this test fails.
#[test]
fn rounds_that_would_relabel_are_rerun() {
    let mut restarted = 0;
    for seed in 0..12 {
        let (f, sources) = world(150, seed);
        for &src in &sources {
            restarted += compare(&f, src, CostModel::plain());
            compare(&f, src, CostModel::paper());
        }
    }
    assert!(restarted > 0, "no generated world exercised a restart");
}
