//! Incremental (O(delta)) reload, end to end: however a reload is
//! served — repaired in place by the delta path or recomputed by the
//! full pipeline — the answers must be byte-identical to a cold run
//! over the same bytes. The delta path is an optimization with *no*
//! observable surface beyond speed and the `delta_reloads` counter.

use pathalias_core::{ChIndex, Cost, Options, Parsed, RouteKind};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_parser::{Kind, Statements, Tok};
use pathalias_router::PointToPoint;
use pathalias_server::{Client, MapSource, Server, ServerConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pathalias-increload-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a generated world's files to `dir`, returning their paths in
/// parse order.
fn write_world(dir: &Path, files: &[(String, String)]) -> Vec<PathBuf> {
    files
        .iter()
        .map(|(name, text)| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p
        })
        .collect()
}

/// The link lists with at least one explicit cost — the only
/// statements the delta planner will ever absorb, and the kind an
/// operator edits when retuning a link — as the parser cuts them.
fn plain_cost_statements(text: &str) -> Vec<&str> {
    let view = Statements::scan("map", text).unwrap();
    view.iter()
        .filter(|st| st.kind == Kind::Links && st.toks.contains(&Tok::LParen))
        .map(|st| &text[st.span])
        .collect()
}

/// Bumps the first `(cost)` group on the line by `delta`. Numeric
/// costs are bumped in place; symbolic expressions (`DEMAND`,
/// `HOURLY*4`) get `+delta` appended — the grammar is
/// `expr := term (('+'|'-') term)*`.
fn bump_first_cost(line: &str, delta: u64) -> Option<String> {
    let open = line.find('(')?;
    let close = line[open..].find(')')? + open;
    let expr = line[open + 1..close].trim();
    if expr.is_empty() {
        return None;
    }
    let bumped = match expr.parse::<u64>() {
        Ok(n) => format!("{}", n + delta),
        Err(_) => format!("{expr}+{delta}"),
    };
    Some(format!("{}({bumped}){}", &line[..open], &line[close + 1..]))
}

/// The cold oracle: the full pipeline over the bytes currently on
/// disk, under the same options the daemon serves with.
fn cold_pipeline(paths: &[PathBuf], options: &Options) -> (pathalias_core::Printed, PointToPoint) {
    let mut parsed = Parsed::new();
    parsed.push_files(paths).unwrap();
    let frozen = parsed.build(options).unwrap().freeze();
    let mapped = frozen.map(options).unwrap();
    let printed = mapped.print(options);
    let engine = PointToPoint::new(mapped.tree.frozen().clone(), options.cost_model);
    (printed, engine)
}

/// Every visible plain-host route the daemon serves must match the
/// cold pipeline's table, and a sample of `PATH` answers must match
/// the cold engine.
fn assert_daemon_matches_cold(
    client: &mut Client,
    paths: &[PathBuf],
    options: &Options,
    home: &str,
) {
    let (printed, engine) = cold_pipeline(paths, options);
    let mut path_checked = 0;
    for entry in printed.routes.visible() {
        if entry.name.starts_with('.') || entry.kind != RouteKind::Host {
            continue;
        }
        let served = client
            .query(&entry.name, Some("u"))
            .unwrap()
            .unwrap_or_else(|| panic!("daemon lost the route to {}", entry.name));
        assert_eq!(
            served,
            entry.route.replacen("%s", "u", 1),
            "route to {} diverged from the cold pipeline",
            entry.name
        );
        if path_checked < 5 && entry.name != home {
            if let Ok(answer) = engine.route(home, &entry.name) {
                let info = client
                    .path(home, &entry.name)
                    .unwrap()
                    .expect("cold engine routes but daemon PATH does not");
                assert_eq!(
                    info.route, answer.route,
                    "PATH {home} {} diverged from the cold engine",
                    entry.name
                );
                path_checked += 1;
            }
        }
    }
    assert!(path_checked > 0, "no PATH answers were compared");
}

/// The HEALTH generation counter.
fn generation(client: &mut Client) -> u64 {
    client
        .health()
        .unwrap()
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("generation="))
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn daemon_delta_reload_is_byte_identical_end_to_end() {
    let gen = generate(&MapSpec::small(300, 7));
    let dir = temp_dir("e2e");
    let paths = write_world(&dir, &gen.files);
    let options = Options {
        local: Some(gen.home.clone()),
        ..Default::default()
    };
    let source = MapSource::map_files(paths.clone(), options.clone());
    let MapSource::Map { cache, .. } = &source else {
        unreachable!()
    };
    let cache = cache.clone();

    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    client.negotiate().unwrap();
    assert_daemon_matches_cold(&mut client, &paths, &options, &gen.home);

    // Walk candidate one-cost edits until one is absorbed by the delta
    // path. Along the way every reload — fallback or delta — must stay
    // byte-identical to the cold pipeline, and every RELOAD must bump
    // the generation the daemon reports.
    let mut tried = 0;
    'hunt: for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        for line in plain_cost_statements(&text) {
            let Some(edited_line) = bump_first_cost(line, 3) else {
                continue;
            };
            let before_deltas = cache.delta_reloads();
            let before_gen = generation(&mut client);
            let edited = std::fs::read_to_string(path)
                .unwrap()
                .replacen(line, &edited_line, 1);
            std::fs::write(path, edited).unwrap();
            client.reload().unwrap();
            assert_eq!(
                generation(&mut client),
                before_gen + 1,
                "RELOAD must bump the generation"
            );
            assert_daemon_matches_cold(&mut client, &paths, &options, &gen.home);
            tried += 1;
            if cache.delta_reloads() > before_deltas {
                break 'hunt;
            }
            assert!(tried < 60, "no edit took the delta path after 60 tries");
        }
    }
    assert!(
        cache.delta_reloads() > 0,
        "the delta path never fired on a mapgen world"
    );

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}

/// One of the default map's counters out of a `METRICS` scrape.
fn scraped(client: &mut Client, name: &str) -> u64 {
    let text = client.metrics().unwrap();
    let series = format!("{name}{{map=\"default\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .unwrap_or_else(|| panic!("missing series {name}"))
        .trim()
        .parse()
        .unwrap()
}

/// The engine keeps whole source trees, and nothing invalidates them:
/// a reload that changes the world swaps in a new engine whose cache
/// starts empty, and a reload that changes nothing keeps the engine
/// and its trees.
#[test]
fn reload_replaces_kept_source_trees_only_when_the_world_changes() {
    // Sixteen spokes keep one edit's dirty cone under the delta
    // planner's budget; n1 and n2 compete for `x`.
    let spokes: Vec<String> = (1..=16).map(|i| format!("n{i}(10)")).collect();
    let world = format!(
        "hub\t{}\nn1\tx(30)\nn2\tx(20)\nx\ty(5)\n",
        spokes.join(", ")
    );
    let dir = temp_dir("trees");
    let path = dir.join("world.map");
    std::fs::write(&path, &world).unwrap();
    let paths = vec![path.clone()];
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    let source = MapSource::map_files(paths.clone(), options.clone());
    let MapSource::Map { cache, .. } = &source else {
        unreachable!()
    };
    let cache = cache.clone();
    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    client.negotiate().unwrap();
    let (hits, builds) = (
        "pathalias_path_tree_hits_total",
        "pathalias_path_tree_builds_total",
    );

    // Searched, tree built, read from the tree.
    for _ in 0..3 {
        let info = client.path("hub", "y").unwrap().unwrap();
        assert_eq!((info.route.as_str(), info.cost), ("n2!x!y!%s", 35));
    }
    assert_eq!(
        (scraped(&mut client, builds), scraped(&mut client, hits)),
        (1, 1)
    );

    // Nothing changed on disk: same engine, same trees, the hits flow.
    client.reload().unwrap();
    client.path("hub", "y").unwrap().unwrap();
    assert_eq!(
        (scraped(&mut client, builds), scraped(&mut client, hits)),
        (1, 2)
    );

    // Raise a cost on the kept tree's own route. The delta path
    // absorbs it, and the answer must be the cold pipeline's, not the
    // old tree's.
    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(&path, world.replace("n2\tx(20)", "n2\tx(35)")).unwrap();
    let before = cache.delta_reloads();
    client.reload().unwrap();
    assert_eq!(
        cache.delta_reloads(),
        before + 1,
        "the edit took the delta path"
    );
    let (_, cold_engine) = cold_pipeline(&paths, &options);
    let cold = cold_engine.route("hub", "y").unwrap();
    assert_eq!(cold.route, "n1!x!y!%s");
    // The new engine has seen no source: it searches, then builds its
    // own tree, and only then do the lifetime counters show a hit.
    for (want_builds, want_hits) in [(1, 2), (2, 2), (2, 3)] {
        let info = client.path("hub", "y").unwrap().unwrap();
        assert_eq!(
            (info.route.as_str(), info.cost, info.hops),
            (cold.route.as_str(), cold.cost, cold.hops)
        );
        assert_eq!(
            (scraped(&mut client, builds), scraped(&mut client, hits)),
            (want_builds, want_hits)
        );
    }

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn patching_a_frozen_stage_drops_its_derived_sections() {
    // A contraction hierarchy is cost-dependent: serving yesterday's
    // hierarchy over today's costs answers PATH queries wrongly. The
    // frozen stage therefore drops the hierarchy (and the transpose)
    // when rows are patched, and the engines rebuild from the patched
    // graph.
    let mut parsed = Parsed::new();
    parsed.push_str("map", "hub\ta(10), b(12)\na\tx(20)\nb\tx(20)\nx\ty(5)\n");
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    let frozen = parsed.build(&options).unwrap().freeze();
    let g = frozen.graph().clone();
    let mut weights: Vec<Cost> = vec![0; g.edge_count()];
    for id in g.node_ids() {
        for e in g.out_edges(id) {
            weights[e.index()] = g.edge_cost(e);
        }
    }
    let frozen = frozen.with_hierarchy(Arc::new(ChIndex::build(&g, &weights)));
    assert!(frozen.hierarchy().is_some());

    // Patch a's row: x now costs 1 through a.
    let a = g.id_of("a").unwrap();
    let mut edges = Vec::new();
    for e in g.out_edges(a) {
        edges.push((g.edge_target(e), 1, g.edge_op(e), g.edge_flags(e)));
    }
    let (patched, _shift) =
        frozen.with_rows_replaced(&[pathalias_core::RowPatch { node: a, edges }]);
    assert!(
        patched.hierarchy().is_none(),
        "a stale hierarchy must not survive a cost change"
    );
    assert!(patched.reverse_index().is_none());

    // Engines rebuilt over the patched graph agree with each other and
    // see the new cost — no stale shortcut answers.
    let plain = PointToPoint::new(patched.graph().clone(), options.cost_model);
    let with_ch = PointToPoint::with_fresh_hierarchy(patched.graph().clone(), options.cost_model);
    let a1 = plain.route("hub", "x").unwrap();
    let a2 = with_ch.route("hub", "x").unwrap();
    assert_eq!(a1.route, a2.route);
    assert_eq!(a1.cost, a2.cost);
    assert_eq!(a1.route, "a!x!%s", "the cheapened link must win");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Random single-cost edits to a mapgen world: whatever path the
    /// reload takes, the served table must be byte-identical to the
    /// cold pipeline over the same bytes.
    #[test]
    fn random_cost_edits_keep_serving_byte_identical(
        pick in 0usize..10_000,
        delta in 1u64..60,
        seed in 0u64..4,
    ) {
        let gen = generate(&MapSpec::small(120, 11 + seed));
        let dir = temp_dir(&format!("prop-{pick}-{delta}-{seed}"));
        let paths = write_world(&dir, &gen.files);
        let options = Options {
            local: Some(gen.home.clone()),
            ..Default::default()
        };
        let source = MapSource::map_files(paths.clone(), options.clone());
        let (resolver, _, _) = source.load_serving_timed().unwrap();
        drop(resolver);

        // Pick the `pick`-th editable line, modulo how many there are.
        let mut candidates = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let text = std::fs::read_to_string(p).unwrap();
            for line in plain_cost_statements(&text) {
                if bump_first_cost(line, delta).is_some() {
                    candidates.push((i, line.to_string()));
                }
            }
        }
        prop_assert!(!candidates.is_empty());
        let (file_idx, line) = &candidates[pick % candidates.len()];
        let edited_line = bump_first_cost(line, delta).unwrap();
        let path = &paths[*file_idx];
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, text.replacen(line.as_str(), &edited_line, 1)).unwrap();

        // Reload (delta or fallback — the property holds either way)
        // and compare the whole served table against the cold oracle.
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        let (printed, cold_engine) = cold_pipeline(&paths, &options);
        let cold_db = pathalias_mailer::RouteDb::from_table(&printed.routes);
        prop_assert_eq!(resolver.entries(), cold_db.len());
        for entry in cold_db.iter() {
            let served = resolver.resolve(&entry.name, "u").unwrap();
            prop_assert_eq!(
                &served.route,
                &entry.route.replacen("%s", "u", 1),
                "route to {} diverged", entry.name
            );
        }
        let engine = engine.unwrap();
        let mut compared = 0;
        for entry in printed.routes.visible() {
            if entry.name.starts_with('.') || entry.name == gen.home {
                continue;
            }
            if let Ok(answer) = cold_engine.route(&gen.home, &entry.name) {
                let served = engine.route(&gen.home, &entry.name).unwrap();
                prop_assert_eq!(&served.route, &answer.route, "PATH to {}", entry.name);
                prop_assert_eq!(served.cost, answer.cost);
                compared += 1;
                if compared >= 8 {
                    break;
                }
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
