//! The repair seeds its queue from in-edges: the labelled dirty nodes
//! and the labelled tails of the edges into what it cleared, read off
//! the old graph's transpose. A cold run over the patched graph is the
//! oracle: on generated worlds carrying `adjust`, deleted hosts and
//! deleted links, with patch costs drawn from a few values so that
//! ties are common, every label the repair leaves (predecessor edge
//! ids included) must be the cold run's, and every node whose label
//! moved must be among the nodes the repair says it wrote. Patches go
//! to the declared graph (costs up and down, a link removed, a link
//! added) and, costs only, to the graph a mapping augmented with back
//! links.

use pathalias_graph::{Cost, EdgeShift, FrozenGraph, LinkFlags, NodeId, RouteOp, RowPatch};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::{
    map_frozen, map_frozen_readonly, repair_frozen, CostModel, Label, MapOptions, ShortestPathTree,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministically appends `adjust`, `delete` host and `delete`
/// link statements over the generated hosts.
fn with_admin_statements(base: &str, home: &str, seed: u64) -> String {
    let g = pathalias_parser::parse(base).expect("base parses");
    let mut hosts: Vec<NodeId> = g
        .node_ids()
        .filter(|&id| !g.node_ref(id).is_net() && g.name(id) != home)
        .collect();
    hosts.sort_unstable_by_key(|&id| g.name(id));
    let mut extra = String::from("file { admin }\n");
    for (i, &host) in hosts.iter().enumerate() {
        let name = g.name(host);
        match (i as u64 + seed) % 17 {
            0 => extra.push_str(&format!(
                "adjust {{{name}({})}}\n",
                (seed % 900) as i64 - 300
            )),
            5 => extra.push_str(&format!("delete {{{name}}}\n")),
            9 => {
                if let Some((_, link)) = g.links_from(host).next() {
                    extra.push_str(&format!("delete {{{name}!{}}}\n", g.name(link.to)));
                }
            }
            _ => {}
        }
    }
    format!("{base}{extra}")
}

/// The declared world, and the home to map it from.
fn world(hosts: usize, seed: u64) -> (Arc<FrozenGraph>, NodeId) {
    let map = generate(&MapSpec::small(hosts, seed));
    let text = with_admin_statements(&map.concatenated(), &map.home, seed);
    let g = pathalias_parser::parse(&text).expect("map parses");
    let home = g.try_node(&map.home).expect("home exists");
    (Arc::new(g.freeze()), home)
}

/// One row edit.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// One link's cost set to a larger value.
    Up,
    /// One link's cost set to a smaller value.
    Down,
    /// One link dropped.
    Remove,
    /// A link to another node appended.
    Add,
}

/// Patch costs: few and small, so that ties are common.
const COSTS: [Cost; 5] = [0, 1, 5, 10, 25];

/// `node`'s row in `f` as a patch takes it (raw costs), with `edit`
/// applied to its `pick`-th declared link; `None` when the edit does
/// not apply there. Back links keep their place at the row's end.
fn edited_row(f: &FrozenGraph, node: NodeId, edit: Edit, pick: usize) -> Option<RowPatch> {
    let mut edges: Vec<_> = f
        .out_edges(node)
        .map(|e| {
            (
                f.edge_target(e),
                f.edge_raw_cost(e),
                f.edge_op(e),
                f.edge_flags(e),
            )
        })
        .collect();
    let declared = edges
        .iter()
        .take_while(|e| !e.3.contains(LinkFlags::BACK))
        .count();
    let at = pick % declared.max(1);
    match edit {
        Edit::Up if declared > 0 => {
            let cost = &mut edges[at].1;
            let higher = COSTS.iter().copied().filter(|&c| c > *cost);
            *cost = higher.clone().nth(pick % 2).unwrap_or(*cost + 100);
        }
        Edit::Down if declared > 0 => {
            let cost = &mut edges[at].1;
            *cost = COSTS.iter().copied().rfind(|&c| c < *cost)?;
        }
        Edit::Remove if declared > 0 => {
            edges.remove(at);
        }
        Edit::Add => {
            let to = NodeId::from_raw((pick % f.node_count()) as u32);
            let cost = COSTS[pick % COSTS.len()];
            edges.insert(declared, (to, cost, RouteOp::UUCP, LinkFlags::empty()));
        }
        _ => return None,
    }
    Some(RowPatch { node, edges })
}

/// Whether a label is unmoved across a patch whose edge ids moved as
/// `shift` says.
fn same(old: Option<&Label>, new: Option<&Label>, shift: &EdgeShift) -> bool {
    match (old, new) {
        (Some(o), Some(n)) => {
            let pred = |l: &Label| l.pred.map(|(p, e)| (p, Some(e)));
            let moved = o.pred.map(|(p, e)| (p, shift.map(e)));
            Label { pred: None, ..*o } == Label { pred: None, ..*n } && moved == pred(n)
        }
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Patches `old`'s graph at `nodes` with `edit`, repairs, and checks
/// the repair against a cold run; whether the repair applied.
fn check(
    old: &ShortestPathTree,
    nodes: &[NodeId],
    edit: Edit,
    pick: usize,
    model: CostModel,
) -> bool {
    let f = old.frozen();
    let mut nodes = nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    let patches: Vec<RowPatch> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, &n)| edited_row(f, n, edit, pick + i))
        .collect();
    if patches.is_empty() {
        return false;
    }
    let dirty: Vec<NodeId> = patches.iter().map(|p| p.node).collect();
    let (patched, shift) = f.with_rows_replaced(&patches);
    let patched = Arc::new(patched);
    let opts = MapOptions {
        model,
        ..MapOptions::default()
    };
    let repaired = repair_frozen(
        old,
        &old.children(),
        &f.reverse(),
        &patched,
        &dirty,
        &shift,
        &opts,
        1.0,
    )
    .expect("the source maps");
    let Some((tree, written)) = repaired else {
        return false;
    };
    let cold = map_frozen_readonly(&patched, old.source, &opts).expect("the source maps");
    assert!(written.windows(2).all(|w| w[0] < w[1]), "written is sorted");
    for id in patched.node_ids() {
        let name = patched.name(id);
        assert_eq!(tree.label(id), cold.label(id), "{edit:?}: label of {name}");
        if !same(old.label(id), tree.label(id), &shift) {
            assert!(
                written.binary_search(&id).is_ok(),
                "{edit:?}: {name} moved but was not written"
            );
        }
    }
    true
}

/// Repairs a batch of edits over one world, on the declared graph and
/// (costs only) on the augmented one; how many applied per edit kind.
fn run(hosts: usize, seed: u64, picks: &[(u8, usize)], model: CostModel) -> [usize; 4] {
    let (f, home) = world(hosts, seed);
    let opts = MapOptions {
        model,
        ..MapOptions::default()
    };
    let declared = map_frozen_readonly(&f, home, &opts).expect("home maps");
    let augmented = map_frozen(&f, home, &opts).expect("home maps");
    let n = f.node_count();
    let mut applied = [0; 4];
    for &(kind, pick) in picks {
        let edit = [Edit::Up, Edit::Down, Edit::Remove, Edit::Add][kind as usize];
        let nodes: Vec<NodeId> = (0..1 + pick % 3)
            .map(|k| NodeId::from_raw(((pick / 3 + k * 7919) % n) as u32))
            .collect();
        applied[kind as usize] += usize::from(check(&declared, &nodes, edit, pick, model));
        if matches!(edit, Edit::Up | Edit::Down) {
            applied[kind as usize] += usize::from(check(&augmented, &nodes, edit, pick, model));
        }
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// Under both models, on the declared graph and the augmented one.
    #[test]
    fn in_edge_seeded_repairs_match_cold_runs(
        hosts in 40usize..250,
        seed in 0u64..10_000,
        picks in proptest::collection::vec((0u8..4, 0usize..100_000), 1..12),
    ) {
        for model in [CostModel::paper(), CostModel::plain()] {
            run(hosts, seed, &picks, model);
        }
    }
}

/// The generated worlds exercise every kind of edit: each applies
/// somewhere (a repair may decline, when reachability changes).
#[test]
fn every_edit_kind_repairs_somewhere() {
    let mut applied = [0; 4];
    for seed in 0..8 {
        let picks: Vec<(u8, usize)> = (0..40).map(|i| ((i % 4) as u8, i * 7717 + seed)).collect();
        let counts = run(150, seed as u64, &picks, CostModel::paper());
        for (total, n) in applied.iter_mut().zip(counts) {
            *total += n;
        }
    }
    assert!(
        applied.iter().all(|&n| n > 0),
        "applied per kind: {applied:?}"
    );
}
