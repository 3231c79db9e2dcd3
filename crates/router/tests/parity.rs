//! Parity: a `PATH src dst` answer must be byte-identical to the
//! mapper tree the daemon would print from `src` — same cost, hops,
//! predecessor chain, state flags, and route string — for every
//! destination, on every map, from any source. The uni-directional
//! oracle, the pruned bidirectional search, the contraction-hierarchy
//! tier, and the source-tree cache in front of them must all agree
//! with each other exactly.

use pathalias_graph::{FrozenGraph, NodeId};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::{map_frozen, map_frozen_readonly, CostModel, MapOptions};
use pathalias_printer::compute_routes;
use pathalias_router::{PathAnswer, PointToPoint, RouteError, SearchStats};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, OnceLock};

/// Builds the serving world the daemon would hold: the home tree's
/// augmented snapshot (invented back links included), a plain
/// bidirectional engine, and a hierarchy-carrying engine over that
/// same graph.
fn serving_world(text: &str, home: &str) -> (Arc<FrozenGraph>, PointToPoint, PointToPoint) {
    let g = pathalias_parser::parse(text).expect("map parses");
    let src = g.try_node(home).expect("home exists");
    let f = Arc::new(g.freeze());
    let tree = map_frozen(&f, src, &MapOptions::default()).expect("home maps");
    let aug = tree.frozen().clone();
    let engine = PointToPoint::new(aug.clone(), CostModel::default());
    let ch_engine = PointToPoint::with_fresh_hierarchy(aug.clone(), CostModel::default());
    assert!(
        ch_engine.hierarchy().is_some(),
        "freshly built hierarchy passes the engine's consistency gate"
    );
    (aug, engine, ch_engine)
}

/// Checks every destination whose id satisfies the stride filter
/// against a fresh mapper tree rooted at `src` over the same graph:
/// mapped nodes must produce identical answers (including the printed
/// route), unreached nodes must produce `NoRoute`, and the
/// bidirectional and uni-directional searches must agree bit-for-bit.
/// The tiers are asked through `route_ids_uncached`, so every pair is
/// really searched; `route_ids` asks the serving path beside them,
/// which from the second destination on answers from the source's
/// kept tree.
fn assert_parity_from(
    aug: &Arc<FrozenGraph>,
    engine: &PointToPoint,
    ch_engine: &PointToPoint,
    src: NodeId,
    stride: u32,
) {
    if !aug.is_mappable(src) {
        let dst = aug.node_ids().next().expect("non-empty graph");
        assert_eq!(engine.route_ids(src, dst), Err(RouteError::DeletedSource));
        assert_eq!(
            ch_engine.route_ids(src, dst),
            Err(RouteError::DeletedSource)
        );
        return;
    }
    let tree = map_frozen_readonly(aug, src, &MapOptions::default()).expect("tree maps");
    let table = compute_routes(&tree);
    let routes: HashMap<NodeId, _> = table.entries.iter().map(|r| (r.node, r)).collect();

    for dst in aug.node_ids() {
        if dst.raw() % stride != src.raw() % stride {
            continue;
        }
        let bidi = engine.route_ids_uncached(src, dst).map(|(a, _)| a);
        let uni = engine.route_ids_unidirectional(src, dst);
        assert_eq!(bidi, uni, "bidirectional vs oracle for {}", aug.name(dst));
        let ch = ch_engine.route_ids_uncached(src, dst).map(|(a, _)| a);
        assert_eq!(ch, bidi, "CH tier vs bidirectional for {}", aug.name(dst));
        for served in [engine.route_ids(src, dst), ch_engine.route_ids(src, dst)] {
            assert_eq!(served, uni, "serving path vs oracle for {}", aug.name(dst));
        }

        match tree.label(dst) {
            None => assert_eq!(bidi, Err(RouteError::NoRoute)),
            Some(label) => {
                let a = bidi
                    .unwrap_or_else(|e| panic!("engine missed mapped node {}: {e}", aug.name(dst)));
                assert_eq!(a.cost, label.cost, "cost for {}", aug.name(dst));
                assert_eq!(a.hops, label.hops, "hops for {}", aug.name(dst));
                assert_eq!(a.via_domain, label.tainted);
                assert_eq!(a.via_backlink, label.via_backlink);
                assert_eq!(a.ambiguous, label.ambiguous);

                // The predecessor chain, node for node and edge for
                // edge (this is what makes the route string match).
                let mut chain_nodes = vec![dst];
                let mut chain_edges = Vec::new();
                let mut cur = dst;
                while let Some((p, e)) = tree.label(cur).and_then(|l| l.pred) {
                    chain_nodes.push(p);
                    chain_edges.push(e);
                    cur = p;
                }
                chain_nodes.reverse();
                chain_edges.reverse();
                assert_eq!(a.nodes, chain_nodes, "node chain for {}", aug.name(dst));
                assert_eq!(a.edges, chain_edges, "edge chain for {}", aug.name(dst));

                // The printed route and name, against the printer's
                // whole-tree traversal.
                let r = routes.get(&dst).expect("mapped node has a route entry");
                assert_eq!(a.route, r.route, "route for {}", aug.name(dst));
                assert_eq!(a.name, r.name, "name for {}", aug.name(dst));
            }
        }
    }
}

/// A new engine over `engine`'s graph and sections, with an empty
/// source-tree cache.
fn fresh(engine: &PointToPoint) -> PointToPoint {
    PointToPoint::with_sections(
        engine.graph().clone(),
        Some(engine.reverse().clone()),
        engine.hierarchy().cloned(),
        *engine.model(),
    )
}

/// `dst`'s answer as the mapper and printer give it from `src`: the
/// printed route and name, with the label's cost and hops.
fn printed_answers(
    aug: &Arc<FrozenGraph>,
    src: NodeId,
) -> HashMap<NodeId, (String, String, u64, u32)> {
    let tree = map_frozen_readonly(aug, src, &MapOptions::default()).expect("tree maps");
    compute_routes(&tree)
        .entries
        .iter()
        .map(|r| {
            let label = tree.label(r.node).expect("printed node is labelled");
            (
                r.node,
                (r.route.clone(), r.name.clone(), label.cost, label.hops),
            )
        })
        .collect()
}

fn assert_printed(
    printed: &HashMap<NodeId, (String, String, u64, u32)>,
    dst: NodeId,
    got: &Result<PathAnswer, RouteError>,
) {
    match (printed.get(&dst), got) {
        (None, Err(RouteError::NoRoute)) => {}
        (Some((route, name, cost, hops)), Ok(a)) => {
            assert_eq!(
                (&a.route, &a.name, a.cost, a.hops),
                (route, name, *cost, *hops)
            );
        }
        (want, got) => panic!("tree says {want:?}, engine says {got:?}"),
    }
}

/// More sources than an engine keeps trees for (it keeps four).
const CYCLED_SOURCES: usize = 6;

/// Walks the source-tree cache through its whole life on a fresh copy
/// of `engine`: each source's first request is searched, its second
/// builds the tree, the rest are read from it, and cycling through
/// more sources than the cache keeps evicts the tree so the second
/// round starts over. Every answer must equal the forward oracle's and
/// the tree's printed route, reached or not.
fn assert_cache_lifecycle(aug: &Arc<FrozenGraph>, engine: &PointToPoint, sources: &[NodeId]) {
    assert_eq!(sources.len(), CYCLED_SOURCES);
    let engine = fresh(engine);
    let step = (aug.node_count() / 9).max(1);
    let dsts: Vec<NodeId> = aug.node_ids().step_by(step).collect();
    assert!(
        dsts.len() >= 4,
        "enough destinations for hits after the build"
    );
    for _round in 0..2 {
        for &src in sources {
            let printed = printed_answers(aug, src);
            for (k, &dst) in dsts.iter().enumerate() {
                let got = engine.route_ids_with_stats(src, dst);
                if let Ok((_, stats)) = &got {
                    assert_eq!(
                        stats.from_tree,
                        k >= 1,
                        "request {k} from {}",
                        aug.name(src)
                    );
                    assert_eq!(stats.tree_build_us.is_some(), k == 1);
                }
                let got = got.map(|(a, _)| a);
                assert_eq!(got, engine.route_ids_unidirectional(src, dst));
                assert_printed(&printed, dst, &got);
            }
        }
    }
}

/// The first `CYCLED_SOURCES` distinct mappable nodes of a seed-chosen
/// stride through the id space — hosts, nets and domains alike.
fn cycled_sources(aug: &FrozenGraph, seed: u64) -> Vec<NodeId> {
    let n = aug.node_count() as u64;
    // A prime stride that does not divide `n` visits every id.
    let stride = [13, 11, 7, 1]
        .into_iter()
        .find(|p| n % p != 0 || *p == 1)
        .unwrap();
    let mut out: Vec<NodeId> = Vec::new();
    for k in 0..n {
        let id = NodeId::from_raw(((seed * 7 + k * stride) % n) as u32);
        if aug.is_mappable(id) && !out.contains(&id) {
            out.push(id);
            if out.len() == CYCLED_SOURCES {
                break;
            }
        }
    }
    out
}

/// Hand-written maps exercising each cost-model rule the search must
/// replicate: operators on both sides, networks with gateways,
/// domains (taint + name synthesis), aliases, dead hosts and links,
/// `adjust` (raw-cost source exemption), `delete`, duplicate links,
/// and back-link territory.
const CORPUS: &[(&str, &str)] = &[
    ("chain", "a b(10)\nb c(20)\nc d(30)\na d(100)\n"),
    (
        "operators",
        "home duke(500), research(1000)\nduke @mit-ai(95)\nresearch ucbvax(300)\nucbvax @mit-ai(95)\n",
    ),
    (
        "networks",
        "u ucbvax(300)\nARPA = @{mit-ai, ucbvax}(95)\nmit-ai next(50)\n",
    ),
    (
        "domains",
        "u seismo(100)\nseismo .edu(95)\n.edu = {.rutgers}(0)\n.rutgers = {caip}(0)\ncaip deep(10)\n",
    ),
    (
        "aliases",
        "a princeton(100)\nprinceton = fun\nfun z(10)\nz tail(5)\n",
    ),
    (
        "dead-and-adjust",
        "h relay(50)\nrelay far(50)\nh shortcut(10)\nshortcut far(10)\ndead {shortcut}\nadjust {relay(-20)}\nfar beyond(5)\n",
    ),
    (
        "delete-and-duplicates",
        "s x(100)\ns x(40)\nx y(10)\ns y(200)\ns gone(5)\ngone y(1)\ndelete {gone}\n",
    ),
    (
        "backlinks",
        "core a(10)\nleaf a(25)\nleaf b(30)\n",
    ),
    (
        "gated",
        "g inner(10)\ngated {NET}\nNET = {inner(5), outer(5)}\nouter far(10)\ng far(9000)\n",
    ),
];

#[test]
fn corpus_parity_from_home() {
    for (tag, text) in CORPUS {
        let home = text.split_whitespace().next().unwrap();
        let (aug, engine, ch_engine) = serving_world(text, home);
        let src = aug.id_of(home).expect("home survives freezing");
        assert_parity_from(&aug, &engine, &ch_engine, src, 1);
        let _ = tag;
    }
}

#[test]
fn corpus_parity_from_every_endpoint() {
    for (_tag, text) in CORPUS {
        let home = text.split_whitespace().next().unwrap();
        let (aug, engine, ch_engine) = serving_world(text, home);
        // Every node takes a turn as the query source — including
        // deleted ones (refused) and nets/domains.
        for src in aug.node_ids() {
            assert_parity_from(&aug, &engine, &ch_engine, src, 1);
        }
    }
}

#[test]
fn via_lists_one_hop_predecessors() {
    let text = "h a(10)\nh b(20)\na z(5)\nb z(7)\nb z(3)\nh z(100)\n";
    let (aug, engine, _ch) = serving_world(text, "h");
    let vias = engine.via("z").expect("z exists");
    // Brute force from the forward side: every tail with an edge to z,
    // cheapest folded edge cost.
    let z = aug.id_of("z").unwrap();
    let mut expect: Vec<(NodeId, u64)> = Vec::new();
    for u in aug.node_ids() {
        let best = aug
            .out_edges(u)
            .filter(|&e| aug.edge_target(e) == z)
            .map(|e| aug.edge_cost(e))
            .min();
        if let Some(c) = best {
            expect.push((u, c));
        }
    }
    expect.sort_by_key(|&(n, _)| n);
    let got: Vec<(NodeId, u64)> = vias.iter().map(|v| (v.node, v.cost)).collect();
    assert_eq!(got, expect);
    assert_eq!(
        engine.via("nonesuch"),
        Err(RouteError::UnknownDest("nonesuch".to_string()))
    );
}

/// An engine from `PointToPoint::new` builds its reverse CSR on the
/// first request that reads it: two bidirectional searches racing to
/// be first, then `PATH * dst` and more searches, answer (and count
/// their work) as an engine handed the reverse CSR up front does, and
/// every clone reads the one CSR built.
#[test]
fn a_reverse_built_on_first_use_answers_as_one_built_up_front() {
    let map = generate(&MapSpec::small(300, 7));
    let (aug, _, _) = serving_world(&map.concatenated(), &map.home);
    let model = CostModel::default();
    let eager =
        PointToPoint::with_sections(aug.clone(), Some(Arc::new(aug.reverse())), None, model);
    let lazy = PointToPoint::new(aug.clone(), model);
    let ids: Vec<NodeId> = aug.node_ids().step_by(11).collect();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for (src, dst) in [(ids[0], ids[3]), (ids[1], ids[2])] {
            let (lazy, eager, start) = (lazy.clone(), &eager, &start);
            scope.spawn(move || {
                start.wait();
                assert_eq!(
                    lazy.route_ids_uncached(src, dst),
                    eager.route_ids_uncached(src, dst)
                );
            });
        }
    });
    assert_eq!(**lazy.reverse(), **eager.reverse());
    assert!(Arc::ptr_eq(lazy.reverse(), lazy.clone().reverse()));
    for &dst in &ids {
        let name = aug.name(dst);
        assert_eq!(lazy.via(name), eager.via(name), "PATH * {name}");
        for &src in ids.iter().step_by(5) {
            assert_eq!(
                lazy.route_ids_uncached(src, dst),
                eager.route_ids_uncached(src, dst),
                "PATH {} {name}",
                aug.name(src)
            );
        }
    }
    // `PATH * dst` first builds it as well.
    let lazy = PointToPoint::new(aug.clone(), model);
    assert_eq!(lazy.via(aug.name(ids[4])), eager.via(aug.name(ids[4])));
}

#[test]
fn name_resolution_errors() {
    let (_aug, engine, _ch) = serving_world("a b(10)\n", "a");
    assert!(matches!(
        engine.route("nope", "b"),
        Err(RouteError::UnknownSource(_))
    ));
    assert!(matches!(
        engine.route("a", "nope"),
        Err(RouteError::UnknownDest(_))
    ));
    assert_eq!(engine.route("a", "b").unwrap().route, "b!%s");
}

#[test]
fn qualified_domain_member_names_resolve() {
    // Nested domains: `deep` is a member of `.relay`, itself a member
    // of `.edu` — the printer keys it as `deep.relay.edu`, so PATH
    // must accept every name QUERY serves from the printed table.
    let text = "h gw(10)\ngw .edu(5)\n.edu = {.relay}(0)\n.relay = {deep, other}(0)\n";
    let (aug, engine, _ch) = serving_world(text, "h");
    let deep = aug.id_of("deep").unwrap();
    let exact = engine.route_ids(aug.id_of("h").unwrap(), deep).unwrap();
    let by_name = engine.route("h", "deep.relay.edu").unwrap();
    assert_eq!(by_name, exact);
    assert_eq!(by_name.name, "deep.relay.edu");
    // The nested domain's own printed name resolves to the domain node.
    assert_eq!(
        engine.route("h", ".relay.edu").unwrap().nodes.last(),
        Some(&aug.id_of(".relay").unwrap())
    );
    // `PATH * dst` accepts the same qualified spelling.
    assert_eq!(engine.via("deep.relay.edu"), engine.via("deep"));
    // Suffix matches alone don't resolve: `gw` is not a member of
    // `.edu`, and `deep` is not a *direct* member of it either.
    assert!(matches!(
        engine.route("h", "gw.edu"),
        Err(RouteError::UnknownDest(_))
    ));
    assert!(matches!(
        engine.route("h", "deep.edu"),
        Err(RouteError::UnknownDest(_))
    ));
}

/// Deterministically appends `adjust` and `delete` statements over the
/// generated hosts so bias folding, the raw-cost source exemption, and
/// node dropping are exercised even where the generator is gentle.
fn with_admin_statements(base: &str, home: &str, seed: u64) -> String {
    let g = pathalias_parser::parse(base).expect("base parses");
    let mut hosts: Vec<&str> = g
        .node_ids()
        .filter(|&id| {
            let n = g.node_ref(id);
            !n.is_net() && g.name(id) != home
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Generated worlds — cliques (networks), chains, domains, dead
    /// hosts, aliases, injected `adjust`/`delete` — answer identically
    /// from the home and from pseudo-random other endpoints.
    #[test]
    fn generated_worlds_parity(
        hosts in 40usize..120,
        seed in 0u64..10_000,
    ) {
        let map = generate(&MapSpec::small(hosts, seed));
        let text = with_admin_statements(&map.concatenated(), &map.home, seed);
        let (aug, engine, ch_engine) = serving_world(&text, &map.home);
        let home = aug.id_of(&map.home).expect("home survives");
        assert_parity_from(&aug, &engine, &ch_engine, home, 1);
        // Two more endpoints' perspectives, seed-chosen.
        let n = aug.node_count() as u64;
        for k in 1..3u64 {
            let src = NodeId::from_raw(((seed * 7 + k * 13) % n) as u32);
            assert_parity_from(&aug, &engine, &ch_engine, src, 1);
        }
        let sources = cycled_sources(&aug, seed);
        assert_cache_lifecycle(&aug, &engine, &sources);
        assert_cache_lifecycle(&aug, &ch_engine, &sources);
    }
}

/// The cache's corner cases by name: an unreached destination read
/// from a kept tree, a deleted source refused however often it asks,
/// and a domain as the source of a kept tree.
#[test]
fn cached_trees_answer_no_route_deleted_and_domain_sources() {
    let text = "h gw(10)\ngw .edu(5)\n.edu = {caip, topaz}(0)\ncaip far(20)\n\
                island rock(5)\nh gone(1)\ngone far(1)\ndelete {gone}\n";
    let (aug, engine, ch_engine) = serving_world(text, "h");
    let id = |name: &str| aug.id_of(name).unwrap_or_else(|| panic!("{name} exists"));
    for engine in [&engine, &ch_engine] {
        // Nothing leads from `rock` to `far`, tree or no tree.
        for k in 0..4 {
            assert_eq!(
                engine.route_ids(id("rock"), id("far")),
                Err(RouteError::NoRoute),
                "request {k}"
            );
            assert_eq!(
                engine.route_ids(id("gone"), id("far")),
                Err(RouteError::DeletedSource),
                "request {k}"
            );
        }
        let printed = printed_answers(&aug, id(".edu"));
        for k in 0..4 {
            for dst in ["caip", "topaz", "far", "h"] {
                let got = engine.route_ids_with_stats(id(".edu"), id(dst));
                if let Ok((a, stats)) = &got {
                    assert!(a.via_domain, "a domain source taints every route");
                    assert_eq!(stats.from_tree, k > 0 || dst != "caip");
                }
                let got = got.map(|(a, _)| a);
                assert_eq!(got, engine.route_ids_unidirectional(id(".edu"), id(dst)));
                assert_printed(&printed, id(dst), &got);
            }
        }
    }
}

/// Four threads on one shared engine, their source lists overlapping
/// and rotated against each other so lookups, tree builds of the same
/// source, and evictions collide; every answer must still be the
/// oracle's.
#[test]
fn shared_engine_hammer_matches_oracle() {
    let map = generate(&MapSpec::small(300, 42));
    let (aug, _engine, ch_engine) = serving_world(&map.concatenated(), &map.home);
    let sources = cycled_sources(&aug, 42);
    let dsts: Vec<NodeId> = aug.node_ids().step_by(17).collect();
    let oracle: HashMap<(NodeId, NodeId), Result<PathAnswer, RouteError>> = sources
        .iter()
        .flat_map(|&s| dsts.iter().map(move |&d| (s, d)))
        .map(|(s, d)| ((s, d), ch_engine.route_ids_unidirectional(s, d)))
        .collect();
    const THREADS: usize = 4;
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, sources, dsts, oracle, start) =
                (ch_engine.clone(), &sources, &dsts, &oracle, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..6 {
                    for i in 0..sources.len() {
                        // Thread `t` leads with source `t`, and each
                        // round shifts by one, so threads meet on a
                        // source at different stages of its life.
                        let src = sources[(i + t + round) % sources.len()];
                        for &dst in dsts {
                            assert_eq!(
                                engine.route_ids(src, dst),
                                oracle[&(src, dst)],
                                "thread {t} round {round}"
                            );
                        }
                    }
                }
            });
        }
    });
}

/// The paper-scale world, built once for the tests that need it (the
/// hierarchy takes seconds). A test that depends on what the cache
/// holds takes a [`fresh`] copy of an engine.
fn paper_world() -> &'static (Arc<FrozenGraph>, PointToPoint, PointToPoint, NodeId) {
    static WORLD: OnceLock<(Arc<FrozenGraph>, PointToPoint, PointToPoint, NodeId)> =
        OnceLock::new();
    WORLD.get_or_init(|| {
        let map = generate(&MapSpec::usenet_1986(1986));
        let (aug, engine, ch_engine) = serving_world(&map.concatenated(), &map.home);
        let home = aug.id_of(&map.home).expect("home survives");
        (aug, engine, ch_engine, home)
    })
}

/// The paper-scale world: the cache's whole life from the home hub and
/// five other sources, on both engines.
#[test]
fn paper_scale_cache_lifecycle() {
    let (aug, engine, ch_engine, home) = paper_world();
    let mut sources = cycled_sources(aug, 1986);
    if !sources.contains(home) {
        sources[0] = *home;
    }
    assert_cache_lifecycle(aug, engine, &sources);
    assert_cache_lifecycle(aug, ch_engine, &sources);
}

/// The paper-scale world: full parity from the home on a sampled
/// destination set, and the pruner must actually prune.
#[test]
fn paper_scale_parity_and_pruning() {
    let (aug, engine, ch_engine, home) = paper_world();
    let home = *home;
    assert_parity_from(aug, engine, ch_engine, home, 97);
    // A second perspective from an arbitrary mid-map host.
    let other = NodeId::from_raw((aug.node_count() / 2) as u32);
    assert_parity_from(aug, engine, ch_engine, other, 211);

    // The bidirectional search must do strictly less forward work
    // than the oracle somewhere on a map this size.
    let mut saw_pruning = false;
    for dst in aug.node_ids().filter(|d| d.raw() % 631 == 5) {
        if let Ok((_, stats)) = engine.route_ids_uncached(home, dst) {
            if stats.pruned > 0 {
                saw_pruning = true;
                break;
            }
        }
    }
    assert!(
        saw_pruning,
        "lower-bound pruning never fired on the paper-scale map"
    );

    // The CH tier must actually answer (certify) on a map this size —
    // if every query fell back, the hierarchy would be dead weight.
    let mut tried = 0u32;
    let mut certified = 0u32;
    for dst in aug.node_ids().filter(|d| d.raw() % 631 == 5) {
        if let Ok((_, stats)) = ch_engine.route_ids_uncached(home, dst) {
            assert!(stats.tried_ch, "engine carries a hierarchy");
            tried += 1;
            certified += u32::from(stats.ch_certified);
        }
    }
    assert!(
        tried > 0 && certified > 0,
        "CH tier certified {certified}/{tried} sampled queries — it must win sometimes"
    );
}

/// The searches' work on 200 fixed pairs, one line per pair: the plain
/// engine's and the hierarchy engine's [`SearchStats`] through
/// `route_ids_uncached`, and the forward oracle's answer.
fn seam_lines() -> String {
    let (aug, engine, ch_engine, _) = paper_world();
    let n = aug.node_count() as u32;
    let stats = |r: Result<(PathAnswer, SearchStats), RouteError>| match r {
        Ok((_, s)) => format!(
            "{} {} {} {} {}{}{}",
            s.settled,
            s.pushes,
            s.pruned,
            s.backward_settled,
            u8::from(s.fell_back),
            u8::from(s.tried_ch),
            u8::from(s.ch_certified),
        ),
        Err(e) => format!("{e:?}"),
    };
    let mut out = String::new();
    for k in 0..200u32 {
        let src = NodeId::from_raw((k * 3_701 + 11) % n);
        let dst = NodeId::from_raw((k * 1_009 + 7) % n);
        let uni = match engine.route_ids_unidirectional(src, dst) {
            Ok(a) => format!("{} {}", a.cost, a.hops),
            Err(e) => format!("{e:?}"),
        };
        out.push_str(&format!(
            "{} {} | {} | {} | {uni}\n",
            src.raw(),
            dst.raw(),
            stats(engine.route_ids_uncached(src, dst)),
            stats(ch_engine.route_ids_uncached(src, dst)),
        ));
    }
    out
}

/// The seam between the router and the mapper's kernel: the merged
/// forward loop does the work the three hand-written loops did,
/// relaxation for relaxation, not merely the same answers.
/// `seam_stats.txt` was recorded at the commit before the merge
/// (`src dst | settled pushes pruned backward_settled
/// fell_back,tried_ch,ch_certified | the same with a hierarchy |
/// oracle cost hops`). A deliberate change to the search order
/// re-records it from this test's failure output.
#[test]
fn search_work_is_unchanged_pair_for_pair() {
    let got = seam_lines();
    let want = include_str!("seam_stats.txt");
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "pair {k}");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "\n{got}");
}
