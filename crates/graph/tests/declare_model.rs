//! `Graph`'s declaration rules against a model that walks.
//!
//! `Graph` answers "is this link already here?", "is this host already
//! a member?" and "was this name mentioned in this file?" from side
//! tables (a row index, a per-node file stamp). The model below
//! answers them the way the rules are written: by walking the row and
//! by keeping the set of names each file mentioned. Random declaration
//! sequences over a small pool of names, so that duplicates, redeclared
//! networks, private shadowing and foreign `add_raw_link` writers are
//! the common case, must leave both with identical rows in list order
//! (link ids, targets, costs, operators, flags), identical node flags
//! and identical warnings in order.

use pathalias_graph::{Cost, Graph, LinkFlags, NodeFlags, NodeId, RouteOp, Warning};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Few names, two spellings of most: collisions are common, and under
/// `-i` the spellings collide with each other.
const NAMES: [&str; 8] = ["a", "A", "b", "B", "c", "net", "NET", ".dom"];

const OPS: [RouteOp; 2] = [RouteOp::UUCP, RouteOp::ARPA];

/// What a foreign writer may put on a raw link: every kind the
/// declaration rules tell apart, plus flags they must look through.
const RAW_FLAGS: [LinkFlags; 7] = [
    LinkFlags::empty(),
    LinkFlags::GATEWAY,
    LinkFlags::DELETED,
    LinkFlags::ALIAS,
    LinkFlags::NET_IN,
    LinkFlags::NET_OUT,
    LinkFlags::BACK,
];

#[derive(Debug, Clone)]
enum Op {
    BeginFile,
    Node(usize),
    Link(usize, usize, Cost, usize),
    Network(usize, Vec<(usize, Cost)>, usize),
    Alias(usize, usize),
    Private(usize),
    RawLink(usize, usize, Cost, usize),
    DeleteLink(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    let name = || 0..NAMES.len();
    let cost = || 0..6u64;
    prop_oneof![
        2 => Just(Op::BeginFile),
        2 => name().prop_map(Op::Node),
        8 => (name(), name(), cost(), 0..OPS.len()).prop_map(|(f, t, c, o)| Op::Link(f, t, c, o)),
        4 => (name(), vec((name(), cost()), 0..5), 0..OPS.len())
            .prop_map(|(n, m, o)| Op::Network(n, m, o)),
        2 => (name(), name()).prop_map(|(a, b)| Op::Alias(a, b)),
        2 => name().prop_map(Op::Private),
        3 => (name(), name(), cost(), 0..RAW_FLAGS.len())
            .prop_map(|(f, t, c, k)| Op::RawLink(f, t, c, k)),
        2 => (name(), name()).prop_map(|(f, t)| Op::DeleteLink(f, t)),
    ]
}

#[derive(Debug, Clone, PartialEq)]
struct ModelLink {
    id: u32,
    to: usize,
    cost: Cost,
    op: RouteOp,
    flags: LinkFlags,
}

/// The declaration rules, written as walks over plain vectors. Rows
/// are kept in list order: the newest link is at index 0.
#[derive(Default)]
struct Model {
    fold: bool,
    names: Vec<String>,
    flags: Vec<NodeFlags>,
    rows: Vec<Vec<ModelLink>>,
    table: HashMap<String, usize>,
    private: HashMap<String, usize>,
    mentioned: HashSet<String>,
    links: u32,
    warnings: Vec<Warning>,
}

impl Model {
    fn key(&self, name: &str) -> String {
        if self.fold {
            name.to_ascii_lowercase()
        } else {
            name.to_string()
        }
    }

    fn new_node(&mut self, name: &str, mut flags: NodeFlags) -> usize {
        if name.starts_with('.') {
            flags.insert(NodeFlags::DOMAIN);
        }
        self.names.push(name.to_string());
        self.flags.push(flags);
        self.rows.push(Vec::new());
        self.names.len() - 1
    }

    fn begin_file(&mut self) {
        self.private.clear();
        self.mentioned.clear();
    }

    fn node(&mut self, name: &str) -> usize {
        let key = self.key(name);
        self.mentioned.insert(key.clone());
        if let Some(&id) = self.private.get(&key).or(self.table.get(&key)) {
            return id;
        }
        let id = self.new_node(name, NodeFlags::empty());
        self.table.insert(key, id);
        id
    }

    fn declare_private(&mut self, name: &str) -> usize {
        let key = self.key(name);
        if let Some(&id) = self.private.get(&key) {
            return id;
        }
        if self.mentioned.contains(&key) {
            self.warnings.push(Warning::PrivateAfterUse {
                host: name.to_string(),
            });
        }
        let id = self.new_node(name, NodeFlags::PRIVATE);
        self.private.insert(key, id);
        id
    }

    fn add_raw_link(
        &mut self,
        from: usize,
        to: usize,
        cost: Cost,
        op: RouteOp,
        flags: LinkFlags,
    ) -> u32 {
        let id = self.links;
        self.links += 1;
        let link = ModelLink {
            id,
            to,
            cost,
            op,
            flags,
        };
        self.rows[from].insert(0, link);
        id
    }

    fn declare_link(&mut self, from: usize, to: usize, cost: Cost, op: RouteOp) -> Option<u32> {
        if from == to {
            let host = self.names[from].clone();
            self.warnings.push(Warning::SelfLink { host });
            return None;
        }
        let existing = self.rows[from]
            .iter_mut()
            .find(|l| l.to == to && l.flags.is_explicit());
        let Some(link) = existing else {
            return Some(self.add_raw_link(from, to, cost, op, LinkFlags::empty()));
        };
        let old = link.cost;
        if cost < old {
            link.cost = cost;
            link.op = op;
        }
        let id = link.id;
        self.warnings.push(Warning::DuplicateLink {
            from: self.names[from].clone(),
            to: self.names[to].clone(),
            kept: old.min(cost),
            dropped: old.max(cost),
        });
        Some(id)
    }

    fn declare_network(&mut self, net: usize, members: &[(usize, Cost)], op: RouteOp) {
        let has_members = self.rows[net]
            .iter()
            .any(|l| l.flags.contains(LinkFlags::NET_OUT));
        let is_net = self.flags[net].intersects(NodeFlags::NET | NodeFlags::DOMAIN);
        if is_net && has_members {
            let net = self.names[net].clone();
            self.warnings.push(Warning::RedeclaredNet { net });
        }
        self.flags[net].insert(NodeFlags::NET);
        for &(m, cost) in members {
            if m == net {
                let host = self.names[net].clone();
                self.warnings.push(Warning::SelfLink { host });
                continue;
            }
            let entry = self.rows[m]
                .iter_mut()
                .find(|l| l.to == net && l.flags.contains(LinkFlags::NET_IN));
            match entry {
                Some(l) if cost < l.cost => {
                    l.cost = cost;
                    l.op = op;
                }
                Some(_) => {}
                None => {
                    self.add_raw_link(m, net, cost, op, LinkFlags::NET_IN);
                }
            }
            let has_out = self.rows[net]
                .iter()
                .any(|l| l.to == m && l.flags.contains(LinkFlags::NET_OUT));
            if !has_out {
                self.add_raw_link(net, m, 0, op, LinkFlags::NET_OUT);
            }
        }
    }

    fn declare_alias(&mut self, a: usize, b: usize) {
        if a == b {
            let host = self.names[a].clone();
            self.warnings.push(Warning::SelfAlias { host });
            return;
        }
        for (x, y) in [(a, b), (b, a)] {
            let have = self.rows[x]
                .iter()
                .any(|l| l.to == y && l.flags.contains(LinkFlags::ALIAS));
            if !have {
                self.add_raw_link(x, y, 0, RouteOp::UUCP, LinkFlags::ALIAS);
            }
        }
    }

    fn delete_link(&mut self, from: usize, to: usize) -> bool {
        let live = self.rows[from]
            .iter_mut()
            .find(|l| l.to == to && !l.flags.contains(LinkFlags::DELETED));
        match live {
            Some(l) => {
                l.flags.insert(LinkFlags::DELETED);
                true
            }
            None => {
                self.warnings.push(Warning::NoSuchLink {
                    from: self.names[from].clone(),
                    to: self.names[to].clone(),
                });
                false
            }
        }
    }
}

/// Applies `op` to both sides, checking every return value on the way.
fn apply(g: &mut Graph, m: &mut Model, op: &Op) {
    // A name resolves on both sides or the run has already diverged.
    let resolve = |g: &mut Graph, m: &mut Model, name: usize| -> (NodeId, usize) {
        let (real, model) = (g.node(NAMES[name]), m.node(NAMES[name]));
        assert_eq!(real.index(), model, "node({})", NAMES[name]);
        (real, model)
    };
    match *op {
        Op::BeginFile => {
            g.begin_file("next");
            m.begin_file();
        }
        Op::Node(n) => {
            resolve(g, m, n);
        }
        Op::Link(f, t, cost, o) => {
            let ((gf, mf), (gt, mt)) = (resolve(g, m, f), resolve(g, m, t));
            // The walk `declare_link` used to make is its own oracle
            // (a self link is refused before any lookup).
            let walked = g.find_explicit_link(gf, gt);
            let got = g.declare_link(gf, gt, cost, OPS[o]);
            if walked.is_some() && gf != gt {
                assert_eq!(got, walked, "declare_link disagrees with the walk");
            }
            assert_eq!(got.map(|l| l.raw()), m.declare_link(mf, mt, cost, OPS[o]));
        }
        Op::Network(n, ref members, o) => {
            let (mut real, mut model) = (Vec::new(), Vec::new());
            for &(name, cost) in members {
                let (gm, mm) = resolve(g, m, name);
                real.push((gm, cost));
                model.push((mm, cost));
            }
            let (gn, mn) = resolve(g, m, n);
            g.declare_network(gn, &real, OPS[o]);
            m.declare_network(mn, &model, OPS[o]);
        }
        Op::Alias(a, b) => {
            let ((ga, ma), (gb, mb)) = (resolve(g, m, a), resolve(g, m, b));
            g.declare_alias(ga, gb);
            m.declare_alias(ma, mb);
        }
        Op::Private(n) => {
            assert_eq!(
                g.declare_private(NAMES[n]).index(),
                m.declare_private(NAMES[n])
            );
        }
        Op::RawLink(f, t, cost, k) => {
            let ((gf, mf), (gt, mt)) = (resolve(g, m, f), resolve(g, m, t));
            let real = g.add_raw_link(gf, gt, cost, RouteOp::UUCP, RAW_FLAGS[k]);
            let model = m.add_raw_link(mf, mt, cost, RouteOp::UUCP, RAW_FLAGS[k]);
            assert_eq!(real.raw(), model);
        }
        Op::DeleteLink(f, t) => {
            let ((gf, mf), (gt, mt)) = (resolve(g, m, f), resolve(g, m, t));
            assert_eq!(g.delete_link(gf, gt), m.delete_link(mf, mt));
        }
    }
}

fn assert_same(g: &Graph, m: &Model) {
    assert_eq!(g.node_count(), m.names.len());
    assert_eq!(g.link_count(), m.links as usize);
    for (id, node) in g.iter_nodes() {
        let i = id.index();
        assert_eq!(g.name(id), m.names[i]);
        assert_eq!(node.flags, m.flags[i], "flags of {}", m.names[i]);
        let row: Vec<ModelLink> = g
            .links_from(id)
            .map(|(lid, l)| ModelLink {
                id: lid.raw(),
                to: l.to.index(),
                cost: l.cost,
                op: l.op,
                flags: l.flags,
            })
            .collect();
        assert_eq!(row, m.rows[i], "row of {}", m.names[i]);
    }
    assert_eq!(g.warnings(), m.warnings);
}

proptest! {
    // The CI fuzz job cranks case counts via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(128))]

    #[test]
    fn graph_matches_the_walking_model(fold in any::<bool>(), ops in vec(op(), 1..120)) {
        let mut g = Graph::with_ignore_case(fold);
        let mut m = Model { fold, ..Model::default() };
        for op in &ops {
            apply(&mut g, &mut m, op);
        }
        assert_same(&g, &m);
    }
}
