//! The freeze against the algorithm it replaced, kept here as the spec.
//!
//! `Graph::into_frozen` and `Graph::freeze` sort the graph's links into
//! rows by a counting sort over the link vector, read validation
//! warnings from that vector, and hand the build's name index to the
//! snapshot. The model below does what the freeze used to do: walk
//! each row's chain newest first, reverse it into declaration order,
//! and settle it (drop deleted links and links to deleted nodes,
//! collapse exact duplicates to the cheapest, fold in the tail's
//! `adjust` bias); walk every chain for `gateway` links into ungated
//! networks; and claim each name by its first global node, then by its
//! first `private` node. Random declaration sequences over a few names
//! (deletions, dead links, gateways into gated and ungated networks,
//! private shadowing across files, `adjust`, `-i`) must freeze to the
//! same snapshot both ways, with the same warnings in order and the
//! same `id_of` for every name.

use pathalias_graph::{Cost, FrozenGraph, Graph, LinkFlags, NodeFlags, NodeId, RouteOp, Warning};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Few names, two spellings of most: collisions are common, and under
/// `-i` the spellings collide with each other.
const NAMES: [&str; 8] = ["a", "A", "b", "B", "c", "net", "NET", ".dom"];

const OPS: [RouteOp; 3] = [
    RouteOp::UUCP,
    RouteOp::ARPA,
    RouteOp {
        ch: '%',
        dir: pathalias_graph::Dir::Left,
    },
];

/// Raw links, parallel ones included, of every kind the freeze tells
/// apart.
const RAW_FLAGS: [LinkFlags; 5] = [
    LinkFlags::empty(),
    LinkFlags::ALIAS,
    LinkFlags::NET_IN,
    LinkFlags::GATEWAY,
    LinkFlags::DELETED,
];

const BIASES: [i64; 5] = [-7, -1, 2, 40, i64::MAX];

#[derive(Debug, Clone)]
enum Op {
    BeginFile,
    Node(usize),
    Private(usize),
    Link(usize, usize, Cost, usize),
    RawLink(usize, usize, Cost, usize, usize),
    Network(usize, Vec<(usize, Cost)>, usize),
    Alias(usize, usize),
    Dead(usize),
    DeadLink(usize, usize),
    Delete(usize),
    DeleteLink(usize, usize),
    Adjust(usize, usize),
    Gated(usize),
    Gateway(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    let name = || 0..NAMES.len();
    let cost = || prop_oneof![4 => 0..6u64, 1 => Just(Cost::MAX - 3)];
    prop_oneof![
        2 => Just(Op::BeginFile),
        1 => name().prop_map(Op::Node),
        2 => name().prop_map(Op::Private),
        8 => (name(), name(), cost(), 0..OPS.len()).prop_map(|(f, t, c, o)| Op::Link(f, t, c, o)),
        4 => (name(), name(), cost(), 0..OPS.len(), 0..RAW_FLAGS.len())
            .prop_map(|(f, t, c, o, k)| Op::RawLink(f, t, c, o, k)),
        3 => (name(), vec((name(), cost()), 0..4), 0..OPS.len())
            .prop_map(|(n, m, o)| Op::Network(n, m, o)),
        1 => (name(), name()).prop_map(|(a, b)| Op::Alias(a, b)),
        1 => name().prop_map(Op::Dead),
        1 => (name(), name()).prop_map(|(f, t)| Op::DeadLink(f, t)),
        1 => name().prop_map(Op::Delete),
        2 => (name(), name()).prop_map(|(f, t)| Op::DeleteLink(f, t)),
        2 => (name(), 0..BIASES.len()).prop_map(|(n, b)| Op::Adjust(n, b)),
        1 => name().prop_map(Op::Gated),
        3 => (name(), name()).prop_map(|(n, h)| Op::Gateway(n, h)),
    ]
}

fn apply(g: &mut Graph, op: &Op) {
    let mut node = |n: usize| g.node(NAMES[n]);
    match *op {
        Op::BeginFile => {
            g.begin_file("next");
        }
        Op::Node(n) => {
            node(n);
        }
        Op::Private(n) => {
            g.declare_private(NAMES[n]);
        }
        Op::Link(f, t, cost, o) => {
            let (f, t) = (node(f), node(t));
            g.declare_link(f, t, cost, OPS[o]);
        }
        Op::RawLink(f, t, cost, o, k) => {
            let (f, t) = (node(f), node(t));
            g.add_raw_link(f, t, cost, OPS[o], RAW_FLAGS[k]);
        }
        Op::Network(n, ref members, o) => {
            let members: Vec<(NodeId, Cost)> = members.iter().map(|&(m, c)| (node(m), c)).collect();
            let net = node(n);
            g.declare_network(net, &members, OPS[o]);
        }
        Op::Alias(a, b) => {
            let (a, b) = (node(a), node(b));
            g.declare_alias(a, b);
        }
        Op::Dead(n) => {
            let n = node(n);
            g.mark_dead(n);
        }
        Op::DeadLink(f, t) => {
            let (f, t) = (node(f), node(t));
            g.mark_dead_link(f, t);
        }
        Op::Delete(n) => {
            let n = node(n);
            g.delete_node(n);
        }
        Op::DeleteLink(f, t) => {
            let (f, t) = (node(f), node(t));
            g.delete_link(f, t);
        }
        Op::Adjust(n, b) => {
            let n = node(n);
            g.adjust_node(n, BIASES[b]);
        }
        Op::Gated(n) => {
            let n = node(n);
            g.mark_gated(n);
        }
        Op::Gateway(net, host) => {
            let (net, host) = (node(net), node(host));
            g.declare_gateway(net, host);
        }
    }
}

/// One settled edge: target, cost with the bias, raw cost, operator
/// and flags.
type Edge = (NodeId, Cost, Cost, RouteOp, LinkFlags);

/// The row the freeze must give `id`: its chain walked newest first,
/// reversed, and settled.
fn model_row(g: &Graph, id: NodeId) -> Vec<Edge> {
    let mappable = |n: NodeId| !g.node_ref(n).flags.contains(NodeFlags::DELETED);
    if !mappable(id) {
        return Vec::new();
    }
    let mut row: Vec<_> = g
        .links_from(id)
        .map(|(_, l)| *l)
        .filter(|l| !l.flags.contains(LinkFlags::DELETED) && mappable(l.to))
        .collect();
    row.reverse();
    let mut settled: Vec<(NodeId, Cost, RouteOp, LinkFlags)> = Vec::new();
    for l in row {
        match settled
            .iter_mut()
            .find(|e| e.0 == l.to && e.2 == l.op && e.3 == l.flags)
        {
            Some(e) => e.1 = e.1.min(l.cost),
            None => settled.push((l.to, l.cost, l.op, l.flags)),
        }
    }
    let bias = g.node_ref(id).adjust;
    settled
        .into_iter()
        .map(|(to, raw, op, flags)| {
            let cost = (i128::from(raw) + i128::from(bias)).clamp(0, i128::from(Cost::MAX));
            (to, cost as Cost, raw, op, flags)
        })
        .collect()
}

fn frozen_row(f: &FrozenGraph, id: NodeId) -> Vec<Edge> {
    f.out_edges(id)
        .map(|e| {
            let edge = f.edge(e);
            (
                edge.to(),
                edge.cost(),
                f.edge_raw_cost(e),
                edge.op(),
                edge.flags(),
            )
        })
        .collect()
}

/// Every chain walked in node order, newest link first.
fn model_warnings(g: &Graph) -> Vec<Warning> {
    let mut found = Vec::new();
    for from in g.node_ids() {
        for (_, l) in g.links_from(from) {
            if l.flags.contains(LinkFlags::GATEWAY) && !g.node_ref(l.to).is_gated() {
                found.push(Warning::GatewayIntoUngated {
                    net: g.name(l.to).to_string(),
                    host: g.name(from).to_string(),
                });
            }
        }
    }
    found
}

fn key(g: &Graph, name: &str) -> String {
    if g.ignore_case() {
        name.to_ascii_lowercase()
    } else {
        name.to_string()
    }
}

/// Each name claimed by its first global node, else by its first
/// private one.
fn model_claims(g: &Graph) -> HashMap<String, NodeId> {
    let mut claims = HashMap::new();
    for private in [false, true] {
        for (id, node) in g.iter_nodes() {
            if node.flags.contains(NodeFlags::PRIVATE) == private {
                claims.entry(key(g, g.name(id))).or_insert(id);
            }
        }
    }
    claims
}

fn assert_freezes_as_the_model(g: &Graph, f: &FrozenGraph) {
    assert_eq!(f.node_count(), g.node_count());
    assert_eq!(f.ignore_case(), g.ignore_case());
    let mut edges = 0;
    for (id, node) in g.iter_nodes() {
        assert_eq!(f.name(id), g.name(id));
        assert_eq!(f.flags(id), node.flags);
        assert_eq!(f.adjust(id), node.adjust);
        let want = model_row(g, id);
        assert_eq!(frozen_row(f, id), want, "row of {}", g.name(id));
        edges += want.len();
    }
    assert_eq!(f.edge_count(), edges);
    let claims = model_claims(g);
    let names = NAMES
        .iter()
        .map(|n| n.to_string())
        .chain(["absent".to_string()]);
    for name in names.chain(g.node_ids().map(|id| g.name(id).to_ascii_uppercase())) {
        assert_eq!(
            f.id_of(&name),
            claims.get(&key(g, &name)).copied(),
            "id_of({name})"
        );
    }
}

proptest! {
    // The CI fuzz job raises the case count with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(128))]

    #[test]
    fn freeze_matches_the_walking_model(fold in any::<bool>(), ops in vec(op(), 1..120)) {
        let (mut g, mut consumed) = (Graph::with_ignore_case(fold), Graph::with_ignore_case(fold));
        for op in &ops {
            apply(&mut g, op);
            apply(&mut consumed, op);
        }
        prop_assert_eq!(g.validation_warnings(), model_warnings(&g));
        let frozen = g.freeze();
        assert_freezes_as_the_model(&g, &frozen);
        // Equality compares names, not the index they moved in with.
        let consumed = consumed.into_frozen();
        assert_freezes_as_the_model(&g, &consumed);
        prop_assert_eq!(consumed, frozen);
    }
}
