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
//!
//! The repair works on the kept tree in place. A repair that declines
//! must leave the tree bit for bit as it was (labels, counters and the
//! graph handle), whichever gate declined; its log must swap the old
//! generation in and out exactly; and a chain of committed repairs
//! must stay the cold run's after every edit.

use pathalias_graph::{Cost, EdgeShift, FrozenGraph, LinkFlags, NodeId, RouteOp, RowPatch};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::{
    map_frozen, map_frozen_readonly, repair_frozen, CostModel, Label, MapOptions, Repair,
    ShortestPathTree,
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
fn same(old: Option<Label>, new: Option<Label>, shift: &EdgeShift) -> bool {
    match (old, new) {
        (Some(o), Some(n)) => {
            let pred = |l: Label| l.pred.map(|(p, e)| (p, Some(e)));
            let moved = o.pred.map(|(p, e)| (p, shift.map(e)));
            Label { pred: None, ..o } == Label { pred: None, ..n } && moved == pred(n)
        }
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// `old` and the patch of its graph at `nodes` with `edit`: the
/// patched graph, its shift and the dirty nodes; `None` when the edit
/// applies nowhere.
fn patch(
    old: &ShortestPathTree,
    nodes: &[NodeId],
    edit: Edit,
    pick: usize,
) -> Option<(Arc<FrozenGraph>, EdgeShift, Vec<NodeId>)> {
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
        return None;
    }
    let dirty: Vec<NodeId> = patches.iter().map(|p| p.node).collect();
    let (patched, shift) = f.with_rows_replaced(&patches);
    Some((Arc::new(patched), shift, dirty))
}

/// Repairs `tree` in place over `patched` (its own child lists and
/// transpose); a repair that declines must leave it bit for bit as it
/// was.
fn repair_in_place(
    tree: &mut ShortestPathTree,
    patched: &Arc<FrozenGraph>,
    shift: &EdgeShift,
    dirty: &[NodeId],
    opts: &MapOptions,
    budget: f64,
) -> Option<Repair> {
    let before = tree.clone();
    let children = tree.children();
    let reverse = tree.frozen().reverse();
    let repair = repair_frozen(
        tree, &children, &reverse, patched, dirty, shift, opts, budget,
    )
    .expect("the source maps");
    if repair.is_none() {
        assert_unchanged(tree, &before);
    }
    repair
}

/// `tree` is `before`, bit for bit: labels, counters, trace and the
/// very graph handle.
fn assert_unchanged(tree: &ShortestPathTree, before: &ShortestPathTree) {
    assert!(Arc::ptr_eq(tree.frozen(), before.frozen()), "graph handle");
    assert_eq!(tree.stats, before.stats);
    assert!(tree == before, "the tree is not as it was");
}

/// Patches `old`'s graph at `nodes` with `edit`, repairs a copy of
/// `old` in place, and checks the repair against a cold run and its
/// log against `old`; whether the repair applied.
fn check(
    old: &ShortestPathTree,
    nodes: &[NodeId],
    edit: Edit,
    pick: usize,
    model: CostModel,
) -> bool {
    let Some((patched, shift, dirty)) = patch(old, nodes, edit, pick) else {
        return false;
    };
    let opts = MapOptions {
        model,
        ..MapOptions::default()
    };
    let mut tree = old.clone();
    let Some(mut repair) = repair_in_place(&mut tree, &patched, &shift, &dirty, &opts, 1.0) else {
        return false;
    };
    let cold = map_frozen_readonly(&patched, old.source, &opts).expect("the source maps");
    let written = repair.written().to_vec();
    assert!(written.windows(2).all(|w| w[0] < w[1]), "written is sorted");
    assert!(
        Arc::ptr_eq(tree.frozen(), &patched),
        "the tree is on the patched graph"
    );
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
    // The log holds the old labels, and swaps the old generation in
    // and out exactly.
    for (i, &id) in written.iter().enumerate() {
        assert_eq!(repair.old_label(i), old.label(id), "{edit:?}: old label");
    }
    let repaired = tree.clone();
    repair.swap(&mut tree);
    assert_unchanged(&tree, old);
    for (i, &id) in written.iter().enumerate() {
        assert_eq!(repair.old_label(i), repaired.label(id), "{edit:?}: swapped");
    }
    repair.swap(&mut tree);
    assert_unchanged(&tree, &repaired);
    repair.undo(&mut tree);
    assert_unchanged(&tree, old);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// Committed repairs chain: each edit repairs, in place, the tree
    /// the last one left, which must stay the cold run's. A declined
    /// edit falls back to the cold run, as a full reload would. On the
    /// augmented graph the edits are cost edits.
    #[test]
    fn chained_in_place_repairs_stay_cold_runs(
        hosts in 40usize..200,
        seed in 0u64..10_000,
        augmented in any::<bool>(),
        edits in proptest::collection::vec((0u8..4, 0usize..100_000), 1..10),
    ) {
        let (f, home) = world(hosts, seed);
        let opts = MapOptions::default();
        let mut tree = if augmented {
            map_frozen(&f, home, &opts)
        } else {
            map_frozen_readonly(&f, home, &opts)
        }
        .expect("home maps");
        for (kind, pick) in edits {
            let edit = match (augmented, kind) {
                (true, k) => [Edit::Up, Edit::Down][k as usize % 2],
                (false, k) => [Edit::Up, Edit::Down, Edit::Remove, Edit::Add][k as usize],
            };
            let n = tree.frozen().node_count();
            let nodes: Vec<NodeId> = (0..1 + pick % 3)
                .map(|k| NodeId::from_raw(((pick / 3 + k * 7919) % n) as u32))
                .collect();
            let Some((patched, shift, dirty)) = patch(&tree, &nodes, edit, pick) else {
                continue;
            };
            let cold = map_frozen_readonly(&patched, home, &opts).expect("home maps");
            match repair_in_place(&mut tree, &patched, &shift, &dirty, &opts, 1.0) {
                Some(_) => {
                    prop_assert!(Arc::ptr_eq(tree.frozen(), &patched));
                    for id in patched.node_ids() {
                        prop_assert_eq!(tree.label(id), cold.label(id), "{:?}", edit);
                    }
                }
                None => tree = cold,
            }
        }
    }
}

/// A map, and its node ids by name.
fn small_world(text: &str) -> (Arc<FrozenGraph>, impl Fn(&str) -> NodeId) {
    let f = Arc::new(pathalias_parser::parse(text).expect("map parses").freeze());
    let names = f.clone();
    (f, move |name: &str| names.id_of(name).expect("named host"))
}

/// `node`'s row in `f` with its link to `to` costing `cost`, or
/// without that link when `cost` is `None`.
fn relinked(f: &FrozenGraph, node: NodeId, to: NodeId, cost: Option<Cost>) -> RowPatch {
    let edges = f.out_edges(node).filter_map(|e| {
        let target = f.edge_target(e);
        let cost = if target == to {
            cost?
        } else {
            f.edge_raw_cost(e)
        };
        Some((target, cost, f.edge_op(e), f.edge_flags(e)))
    });
    RowPatch {
        node,
        edges: edges.collect(),
    }
}

/// Whether the repair of `old` over `patch` applies under `opts` and
/// `budget`; a declined one is checked to leave the tree as it was.
fn applies(old: &ShortestPathTree, patch: RowPatch, opts: &MapOptions, budget: f64) -> bool {
    let (patched, shift) = old
        .frozen()
        .with_rows_replaced(std::slice::from_ref(&patch));
    let mut tree = old.clone();
    repair_in_place(
        &mut tree,
        &Arc::new(patched),
        &shift,
        &[patch.node],
        opts,
        budget,
    )
    .is_some()
}

/// Each gate that declines a repair, forced on a small map, with a
/// setting under which the same edit repairs to show which gate it
/// was. Every declined repair leaves the tree bit for bit as it was
/// (checked in `repair_in_place`), edge ids moved or not.
#[test]
fn every_declining_gate_leaves_the_tree_as_it_was() {
    let paper = MapOptions::default();
    let plain = MapOptions {
        model: CostModel::plain(),
        ..MapOptions::default()
    };
    let stranding = MapOptions {
        no_backlinks: true,
        ..MapOptions::default()
    };

    // The dirty budget: re-costing a -> x clears x and y.
    let (f, id) = small_world("hub a(10), b(50)\na x(10)\nb x(10)\nx y(1)\n");
    let old = map_frozen_readonly(&f, id("hub"), &paper).unwrap();
    let (a, x) = (id("a"), id("x"));
    for cut in [Some(11), None] {
        assert!(
            !applies(&old, relinked(&f, a, x, cut), &paper, 0.0),
            "{cut:?}"
        );
        assert!(
            applies(&old, relinked(&f, a, x, cut), &paper, 1.0),
            "{cut:?}"
        );
    }

    // The reached set: cutting a -> x strands x and y (and moves the
    // edge ids after a's row).
    let (f, id) = small_world("hub a(10)\na x(10)\nx y(1)\nhub z(5)\n");
    let old = map_frozen_readonly(&f, id("hub"), &stranding).unwrap();
    let (a, x) = (id("a"), id("x"));
    assert!(!applies(&old, relinked(&f, a, x, None), &stranding, 1.0));
    assert!(applies(&old, relinked(&f, a, x, Some(3)), &stranding, 1.0));

    // The child offers: p gets cheaper over an `@` hop, and the `!` hop
    // on to its child c then owes the mixed-syntax penalty, so the
    // relaxation keeps c's old, cheaper label, which a cold run would
    // not give it. Without the penalty c is rewritten and all is well.
    let text = "hub b(10), d(1)\nb p(10)\nd @p(100)\np c(10)\n";
    let (f, id) = small_world(text);
    let (d, p, c) = (id("d"), id("p"), id("c"));
    let old = map_frozen_readonly(&f, id("hub"), &paper).unwrap();
    assert_eq!(old.label(c).unwrap().pred.unwrap().0, p);
    assert!(!applies(&old, relinked(&f, d, p, Some(1)), &paper, 1.0));
    let old = map_frozen_readonly(&f, id("hub"), &plain).unwrap();
    assert!(applies(&old, relinked(&f, d, p, Some(1)), &plain, 1.0));

    // The back-link gate: unreachable `leaf` gains a link to a mapped
    // host, which a cold run with back links would invent a link for.
    let (f, id) = small_world("hub b(10)\nleaf b(25)\n");
    let (leaf, b) = (id("leaf"), id("b"));
    let old = map_frozen_readonly(&f, id("hub"), &stranding).unwrap();
    assert!(!old.is_mapped(leaf));
    assert!(!applies(&old, relinked(&f, leaf, b, Some(30)), &paper, 1.0));
    assert!(applies(
        &old,
        relinked(&f, leaf, b, Some(30)),
        &stranding,
        1.0
    ));
}
