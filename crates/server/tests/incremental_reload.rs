//! Incremental (O(delta)) reload, end to end: however a reload is
//! served — repaired in place by the delta path or recomputed by the
//! full pipeline — the answers must be byte-identical to a cold run
//! over the same bytes. The delta path is an optimization with *no*
//! observable surface beyond speed and the `delta_reloads` counter.

use pathalias_core::{
    plan_delta, render, ChIndex, Cost, DeltaPlan, FrozenGraph, Options, Parsed, RouteKind,
};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_parser::{Kind, Statements, Tok};
use pathalias_router::PointToPoint;
use pathalias_server::{Client, MapSource, Server, ServerConfig, ServerHandle};
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

/// The cold oracle: the full pipeline over the bytes currently on
/// disk, under the same options the daemon serves with, and the
/// frozen graph it maps from.
fn cold_pipeline(
    paths: &[PathBuf],
    options: &Options,
) -> (pathalias_core::Printed, PointToPoint, Arc<FrozenGraph>) {
    let mut parsed = Parsed::new();
    parsed.push_files(paths).unwrap();
    let frozen = parsed.build(options).unwrap().freeze();
    let mapped = frozen.map(options).unwrap();
    let printed = mapped.print(options);
    let engine = PointToPoint::new(mapped.tree.frozen().clone(), options.cost_model);
    (printed, engine, frozen.graph().clone())
}

/// Every visible plain-host route the daemon serves must match the
/// cold pipeline's table, and a sample of `PATH` and `PATH * dst`
/// answers must match the cold engine's.
fn assert_daemon_matches_cold(
    client: &mut Client,
    paths: &[PathBuf],
    options: &Options,
    home: &str,
) {
    let (printed, engine, _) = cold_pipeline(paths, options);
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
                let via = engine.via(&entry.name).unwrap();
                let via = via
                    .iter()
                    .map(|v| (engine.graph().name(v.node).to_string(), v.cost));
                assert_eq!(
                    client.via(&entry.name).unwrap(),
                    Some(via.collect()),
                    "PATH * {} diverged from the cold engine",
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
            let Some(edited_line) = edit_first_cost(line, 3, true) else {
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

/// One of the default map's counters out of a `METRICS` scrape;
/// `labels` are the series' labels after `map`.
fn scraped_with(client: &mut Client, name: &str, labels: &str) -> u64 {
    let text = client.metrics().unwrap();
    let series = format!("{name}{{map=\"default\"{labels}}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .unwrap_or_else(|| panic!("missing series {series}"))
        .trim()
        .parse()
        .unwrap()
}

fn scraped(client: &mut Client, name: &str) -> u64 {
    scraped_with(client, name, "")
}

/// A world wide enough that one edit's dirty cone stays under the
/// delta planner's budget: sixteen spokes off `hub`, two of which (n1
/// and n2) compete for `x`.
fn spoke_world() -> String {
    let spokes: Vec<String> = (1..=16).map(|i| format!("n{i}(10)")).collect();
    format!(
        "hub\t{}\nn1\tx(30)\nn2\tx(20)\nx\ty(5)\n",
        spokes.join(", ")
    )
}

/// Starts a daemon over `world` written to a fresh directory.
fn serve_world(tag: &str, world: &str, options: &Options) -> (PathBuf, Client, ServerHandle) {
    let dir = temp_dir(tag);
    let path = dir.join("world.map");
    std::fs::write(&path, world).unwrap();
    let source = MapSource::map_files(vec![path.clone()], options.clone());
    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    client.negotiate().unwrap();
    (path, client, handle)
}

/// Every reload is counted under the path that served it, and a
/// full-path reload of a map source under the delta gate that refused
/// it.
#[test]
fn reload_paths_and_bailouts_are_counted() {
    let world = spoke_world();
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    let (path, mut client, handle) = serve_world("paths", &world, &options);
    let paths = |c: &mut Client| {
        ["unchanged", "delta", "full"]
            .map(|p| scraped_with(c, "pathalias_reloads_total", &format!(",path=\"{p}\"")))
    };
    client.reload().unwrap();
    assert_eq!(paths(&mut client), [1, 0, 0]);

    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(&path, world.replace("n2\tx(20)", "n2\tx(35)")).unwrap();
    client.reload().unwrap();
    assert_eq!(paths(&mut client), [1, 1, 0], "a cost edit is a delta");

    // A new host shifts node ids: the planner refuses it.
    std::fs::write(&path, format!("{world}z\thub(1)\n")).unwrap();
    client.reload().unwrap();
    assert_eq!(paths(&mut client), [1, 1, 1], "a structural edit is full");
    let reason = ",reason=\"first-mention sequence changed\"";
    assert_eq!(
        scraped_with(&mut client, "pathalias_reload_delta_bailouts_total", reason),
        1
    );
    let text = client.metrics().unwrap();
    for phase in ["plan_delta", "routedb", "engine"] {
        let series = format!("pathalias_reload_phase_seconds{{map=\"default\",phase=\"{phase}\"}}");
        assert!(text.contains(&series), "missing {series}");
    }

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// `pathalias_table_bytes` follows the database each load leaves
/// serving: the start-up load's, a delta reload's patch of it, and a
/// full reload's rebuild over a world one host larger.
/// `pathalias_tree_bytes` follows the kept tree, which a delta reload
/// repairs in place, in the arrays it had.
#[test]
fn the_served_database_footprint_is_scraped() {
    let world = spoke_world();
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    let (path, mut client, handle) = serve_world("bytes", &world, &options);
    let loaded = scraped(&mut client, "pathalias_table_bytes");
    assert!(loaded > 0);
    let tree = scraped(&mut client, "pathalias_tree_bytes");
    assert!(tree >= 25 * world.lines().count() as u64, "{tree}");

    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(&path, world.replace("n2\tx(20)", "n2\tx(35)")).unwrap();
    client.reload().unwrap();
    assert!(scraped(&mut client, "pathalias_table_bytes") > 0);
    assert_eq!(scraped(&mut client, "pathalias_tree_bytes"), tree);

    std::fs::write(&path, format!("{world}z\thub(1)\n")).unwrap();
    client.reload().unwrap();
    assert!(scraped(&mut client, "pathalias_table_bytes") > loaded);
    assert!(scraped(&mut client, "pathalias_tree_bytes") > tree);

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// A plan costs what changed: the first plan outlines every old text,
/// and from then on a cost edit to one file of a three-file map scans
/// no whole text, only the window around the edit.
#[test]
fn a_warm_cost_edit_scans_no_whole_text() {
    let dir = temp_dir("scanned");
    let world = spoke_world();
    let files = [
        ("a.map".to_string(), world.clone()),
        ("b.map".to_string(), "n3\tq(10)\nq\tr(5)\n".to_string()),
        ("c.map".to_string(), "n4\tw(10)\n".to_string()),
    ];
    let paths = write_world(&dir, &files);
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    let source = MapSource::map_files(paths.clone(), options.clone());
    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    client.negotiate().unwrap();
    let counts = |c: &mut Client| {
        (
            scraped(c, "pathalias_reload_files_scanned_total"),
            scraped_with(c, "pathalias_reloads_total", ",path=\"delta\""),
        )
    };

    let edits = [
        (0, world.replace("n2\tx(20)", "n2\tx(35)"), (3, 1)),
        (1, "n3\tq(10)\nq\tr(6)\n".to_string(), (3, 2)),
        (0, world.replace("n2\tx(20)", "n2\tx(36)"), (3, 3)),
        (2, "n4\tw(11)\n".to_string(), (3, 4)),
    ];
    for (file, text, want) in edits {
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&paths[file], text).unwrap();
        client.reload().unwrap();
        assert_eq!(counts(&mut client), want, "after editing {}", files[file].0);
    }
    assert_daemon_matches_cold(&mut client, &paths, &options, "hub");

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}

/// Under `-i` the graph keeps each name as first spelled. Respelling a
/// first mention (`Q` to `q`, in a row whose repair is small) changes
/// what a cold run prints, so the daemon must serve the new spelling
/// too, not patch the old world.
#[test]
fn ignore_case_respelled_first_mention_serves_the_cold_name() {
    let world = format!("{}x\tQ(7)\n", spoke_world());
    let options = Options {
        local: Some("hub".into()),
        ignore_case: true,
        ..Default::default()
    };
    let (path, mut client, handle) = serve_world("respell", &world, &options);
    assert_eq!(
        client.query("Q", Some("u")).unwrap().as_deref(),
        Some("n2!x!Q!u")
    );

    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(&path, world.replace("x\tQ(7)", "x\tq(7)")).unwrap();
    client.reload().unwrap();
    assert_eq!(
        client.query("q", Some("u")).unwrap().as_deref(),
        Some("n2!x!q!u")
    );
    assert_daemon_matches_cold(&mut client, std::slice::from_ref(&path), &options, "hub");

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// The engine keeps whole source trees, and nothing invalidates them:
/// a reload that changes the world swaps in a new engine whose cache
/// starts empty, and a reload that changes nothing keeps the engine
/// and its trees.
#[test]
fn reload_replaces_kept_source_trees_only_when_the_world_changes() {
    let world = spoke_world();
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
    let (_, cold_engine, _) = cold_pipeline(&paths, &options);
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
    // frozen stage over a patched graph therefore drops the hierarchy
    // (and the transpose), and the engines rebuild from the patched
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
    let (patched, _shift) = g.with_rows_replaced(&[pathalias_core::RowPatch { node: a, edges }]);
    let patched = frozen.with_graph(Arc::new(patched));
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

/// A `--pagf` daemon over a snapshot frozen with a hierarchy, whose
/// mapping invents a back link, rebuilds the hierarchy at start-up and
/// on every reload, and says so: in `METRICS` and with the build's own
/// reload phase.
#[test]
fn a_rebuilt_hierarchy_is_counted_and_timed() {
    let dir = temp_dir("ch-rebuilt");
    let options = Options {
        local: Some("hub".into()),
        ..Default::default()
    };
    // Nothing reaches `stray`, so mapping from hub invents hub -> stray.
    let mut parsed = Parsed::new();
    parsed.push_str("map", &format!("{}stray\thub(10)\n", spoke_world()));
    let frozen = parsed.build(&options).unwrap().freeze();
    let g = frozen.graph().clone();
    let weights = pathalias_router::ch_weights(&g, &options.cost_model);
    let frozen = frozen.with_hierarchy(Arc::new(ChIndex::build(&g, &weights)));
    let pagf = dir.join("world.pagf");
    frozen.write_snapshot_all(&pagf).unwrap();

    let source = MapSource::frozen_snapshot(pagf, options);
    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    client.negotiate().unwrap();
    let loads = |c: &mut Client, outcome: &str| {
        let labels = format!(",outcome=\"{outcome}\"");
        scraped_with(c, "pathalias_hierarchy_loads_total", &labels)
    };
    assert_eq!(loads(&mut client, "rebuilt"), 1, "the start-up load");
    client.reload().unwrap();
    assert_eq!(loads(&mut client, "rebuilt"), 2);
    assert_eq!(loads(&mut client, "stored"), 0);
    let text = client.metrics().unwrap();
    let phase = "pathalias_reload_phase_seconds{map=\"default\",phase=\"hierarchy\"} ";
    let secs: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(phase))
        .expect("hierarchy phase exported")
        .parse()
        .unwrap();
    assert!(secs > 0.0, "the rebuild was timed");
    let info = client.path("hub", "y").unwrap().unwrap();
    assert_eq!(info.route, "n2!x!y!%s");

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}

/// `freeze --ch` stores the hierarchy over the graph its default
/// mapping serves, back links included. A `--pagf` daemon that maps
/// from the first host serves it as stored, at start-up and on every
/// reload, with no hierarchy build; one whose `-l` invents other back
/// links rebuilds it. Both answer `PATH` as a `--map` daemon does.
#[test]
fn a_hierarchy_over_the_served_graph_is_stored() {
    let dir = temp_dir("ch-stored");
    // Nothing reaches `stray` or `lone`: mapping from hub, the first
    // host, invents hub -> stray and n1 -> lone; from stray, only the
    // second.
    let world = format!("{}stray\thub(10)\nlone\tn1(5)\n", spoke_world());
    let mut parsed = Parsed::new();
    parsed.push_str("map", &world);
    let defaults = Options::default();
    let frozen = parsed.build(&defaults).unwrap().freeze();
    let frozen = frozen.with_served_hierarchy(&defaults);
    let pagf = dir.join("world.pagf");
    frozen.write_snapshot_all(&pagf).unwrap();

    let hosts = ["hub", "n1", "n2", "x", "y", "stray", "lone"];
    let phase = "pathalias_reload_phase_seconds{map=\"default\",phase=\"hierarchy\"} ";
    for (local, stored) in [("hub", true), ("stray", false)] {
        let options = Options {
            local: Some(local.into()),
            ..Default::default()
        };
        let source = MapSource::frozen_snapshot(pagf.clone(), options.clone());
        let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
        let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
        client.negotiate().unwrap();
        client.reload().unwrap();
        let loads = |c: &mut Client, outcome: &str| {
            let labels = format!(",outcome=\"{outcome}\"");
            scraped_with(c, "pathalias_hierarchy_loads_total", &labels)
        };
        let want = |hit: bool| if hit { 2 } else { 0 };
        assert_eq!(loads(&mut client, "stored"), want(stored), "-l {local}");
        assert_eq!(loads(&mut client, "rebuilt"), want(!stored), "-l {local}");
        let text = client.metrics().unwrap();
        let secs: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(phase))
            .expect("hierarchy phase exported")
            .parse()
            .unwrap();
        assert_eq!(secs == 0.0, stored, "-l {local}: hierarchy built {secs} s");

        let (map_path, mut map_client, map_handle) =
            serve_world(&format!("ch-stored-{local}"), &world, &options);
        for src in hosts {
            for dst in hosts {
                assert_eq!(
                    client.path(src, dst).unwrap(),
                    map_client.path(src, dst).unwrap(),
                    "-l {local}: PATH {src} {dst}"
                );
            }
        }
        map_client.quit().unwrap();
        map_handle.shutdown();
        client.quit().unwrap();
        handle.shutdown();
        std::fs::remove_dir_all(map_path.parent().unwrap()).unwrap();
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// One step of an edit chain.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Raise the cost of a link the shortest-path tree uses: its
    /// target's label moves, and may re-parent.
    CostUp,
    /// Make nearly free a link the tree does not use, whose head is
    /// closer to home than its target: the target (and the subtree
    /// behind it) re-parents.
    CostDown,
    /// Raise the cost of a link the tree does not use, which moves no
    /// label.
    OffTree,
    /// Add a comment, which the parser does not see.
    Comment,
}

/// Rewrites the first `(cost)` group of a statement: raised by `delta`
/// (a symbolic expression like `HOURLY*4` gets `+delta` appended — the
/// grammar is `expr := term (('+'|'-') term)*`), or, for `up == false`,
/// replaced by a cost under 8.
fn edit_first_cost(stmt: &str, delta: u64, up: bool) -> Option<String> {
    let open = stmt.find('(')?;
    let close = stmt[open..].find(')')? + open;
    let expr = stmt[open + 1..close].trim();
    let edited = match (expr.parse::<u64>(), up) {
        _ if expr.is_empty() => return None,
        (Ok(n), true) => (n + delta).to_string(),
        (Err(_), true) => format!("{expr}+{delta}"),
        (_, false) => (delta % 8).to_string(),
    };
    Some(format!("{}({edited}){}", &stmt[..open], &stmt[close + 1..]))
}

/// The head of a link list and the target its first `(cost)` belongs
/// to: the last name before the first parenthesis.
fn first_costed_link(stmt: &str) -> Option<(String, String)> {
    let view = Statements::scan("stmt", stmt).ok()?;
    let st = view.iter().next()?;
    let open = st.toks.iter().position(|t| *t == Tok::LParen)?;
    let mut names = st.toks[..open].iter().filter_map(|t| match t {
        Tok::Name(n) => Some(n.to_string()),
        _ => None,
    });
    let head = names.next()?;
    Some((head, names.next_back()?))
}

/// Applies `step` to the `pick`-th statement it can edit — in file
/// `only`, when given — and returns whether anything was written.
/// Edits the delta planner absorbs are preferred — most link lists in
/// a generated world name a network member, and those edits all take
/// the full path.
fn apply(
    step: Step,
    pick: usize,
    delta: u64,
    only: Option<usize>,
    paths: &[PathBuf],
    options: &Options,
) -> bool {
    if let Step::Comment = step {
        let path = &paths[only.unwrap_or(pick % paths.len())];
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, format!("{text}# retuned, edit {pick}\n")).unwrap();
        return true;
    }
    let mut parsed = Parsed::new();
    parsed.push_files(paths).unwrap();
    let frozen = parsed.build(options).unwrap().freeze();
    let tree = frozen.map(options).unwrap().tree;
    let old: Vec<(String, String)> = parsed
        .inputs()
        .iter()
        .map(|input| (input.file().to_string(), input.text().to_string()))
        .collect();
    let mut candidates = Vec::new();
    for (i, (_, text)) in old.iter().enumerate() {
        if only.is_some_and(|only| only != i) {
            continue;
        }
        for stmt in plain_cost_statements(text) {
            let Some(edited) = edit_first_cost(stmt, delta, !matches!(step, Step::CostDown)) else {
                continue;
            };
            let Some((head, target)) = first_costed_link(stmt) else {
                continue;
            };
            let g = tree.frozen();
            let label = |name: &str| g.id_of(name).and_then(|id| tree.label(id));
            let (Some(h), Some(t)) = (label(&head), label(&target)) else {
                continue;
            };
            let on_tree = t.pred.map(|(p, _)| p) == g.id_of(&head);
            let fits = match step {
                Step::CostUp => on_tree,
                Step::CostDown => !on_tree && h.cost + 8 < t.cost,
                _ => !on_tree,
            };
            if !fits {
                continue;
            }
            let mut new = old.clone();
            new[i].1 = text.replacen(stmt, &edited, 1);
            let absorbed = matches!(
                plan_delta(&old, &new, frozen.graph()),
                DeltaPlan::Patch { .. }
            );
            candidates.push((absorbed, i, new.swap_remove(i).1));
        }
    }
    let absorbed: Vec<_> = candidates.iter().filter(|c| c.0).collect();
    let pool: Vec<_> = if absorbed.is_empty() {
        candidates.iter().collect()
    } else {
        absorbed
    };
    let Some((_, i, text)) = pool.get(pick % pool.len().max(1)) else {
        return false;
    };
    std::fs::write(&paths[*i], text).unwrap();
    true
}

/// What a map source serves after a reload — the routes of its cached
/// mapping (rendered), its resolver and its `PATH` engine — against a
/// cold run over the bytes on disk, byte for byte. And what it keeps
/// beside them against a rebuild: the tree's child lists, the
/// transpose the engine carries, and the graph a mapping starts from,
/// which is the served one without its back links.
fn serves_like_a_cold_run(
    source: &MapSource,
    resolver: pathalias_mailer::BoxedResolver,
    engine: Option<Arc<PointToPoint>>,
    paths: &[PathBuf],
    options: &Options,
    home: &str,
    step: impl std::fmt::Debug,
) {
    let MapSource::Map { cache, .. } = source else {
        unreachable!()
    };
    let (printed, cold_engine, cold_graph) = cold_pipeline(paths, options);
    prop_assert!(
        cache.kept_state_matches_rebuild(),
        "kept child lists or transpose drifted after {:?}",
        step
    );
    let base = cache.snapshot().expect("the map source caches its stage");
    prop_assert!(
        *base == *cold_graph,
        "the base view drifted after {:?}",
        step
    );
    let routes = cache.routes().expect("the map source caches its mapping");
    let rendered = render(&routes, &options.print_options());
    let drift = rendered
        .lines()
        .zip(printed.rendered.lines())
        .find(|(served, cold)| served != cold);
    prop_assert!(
        rendered == printed.rendered,
        "the cached table drifted after {:?}: {:?}",
        step,
        drift
    );
    let cold_db = pathalias_mailer::RouteDb::from_table(&printed.routes);
    prop_assert_eq!(resolver.entries(), cold_db.len());
    for entry in cold_db.iter() {
        let served = resolver.resolve(&entry.name, "u").unwrap();
        prop_assert_eq!(
            &served.route,
            &entry.route.replacen("%s", "u", 1),
            "route to {} diverged after {:?}",
            entry.name,
            step
        );
    }
    let engine = engine.unwrap();
    let mut compared = 0;
    for entry in printed.routes.visible() {
        if entry.name.starts_with('.') || entry.name == home {
            continue;
        }
        if let Ok(answer) = cold_engine.route(home, &entry.name) {
            let served = engine.route(home, &entry.name).unwrap();
            prop_assert_eq!(&served.route, &answer.route, "PATH to {}", entry.name);
            prop_assert_eq!(served.cost, answer.cost);
            compared += 1;
            if compared >= 8 {
                break;
            }
        }
    }
}

/// Appends a host the map has never mentioned, linked both ways to
/// the first host of `path`: a first mention, which only the full
/// pipeline can absorb.
fn add_host(path: &Path, tag: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let view = Statements::scan("map", &text).unwrap();
    let anchor = view
        .iter()
        .find_map(|st| match st.toks[0] {
            Tok::Name(name) if st.kind == Kind::Links => Some(name.to_string()),
            _ => None,
        })
        .expect("a file with a host row");
    let host = format!("zz-added-{tag}");
    std::fs::write(
        path,
        format!("{text}{host}\t{anchor}(25)\n{anchor}\t{host}(25)\n"),
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(12))]

    /// Random chains of three to six edits to a mapgen world — costs
    /// up and down, a retuned link the tree does not use, a comment —
    /// reloaded after each one. Whatever path each reload takes, the
    /// served answers and the cached mapping's routes (rendered) must be
    /// byte-identical to the cold pipeline over the same bytes: the
    /// in-place patches must not drift from it as they accumulate.
    #[test]
    fn random_cost_edits_keep_serving_byte_identical(
        edits in proptest::collection::vec((0u8..4, 0usize..10_000, 1u64..3000), 3..7),
        seed in 0u64..4,
    ) {
        let gen = generate(&MapSpec::small(120, 11 + seed));
        let dir = temp_dir(&format!("prop-{seed}-{}-{}", edits[0].1, edits.len()));
        let paths = write_world(&dir, &gen.files);
        let options = Options {
            local: Some(gen.home.clone()),
            with_costs: true,
            ..Default::default()
        };
        let source = MapSource::map_files(paths.clone(), options.clone());
        source.load_serving_timed().unwrap();

        for &(kind, pick, delta) in &edits {
            let step = [Step::CostUp, Step::CostDown, Step::OffTree, Step::Comment][kind as usize];
            if !apply(step, pick, delta, None, &paths, &options) {
                continue;
            }
            let (resolver, engine, _) = source.load_serving_timed().unwrap();
            serves_like_a_cold_run(&source, resolver, engine, &paths, &options, &gen.home, step);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Chains of four to seven edits that alternate between two files
    /// of a mapgen world, with a new host added halfway (a structural
    /// edit, served by the full pipeline). After every reload the
    /// daemon's answers are a cold run's, byte for byte, and once a
    /// plan has outlined the unchanged files, no later plan scans more
    /// than the changed file, old and new — the full reload in the
    /// middle keeps the outlines, and the added host's file is outlined
    /// as it is re-read.
    #[test]
    fn multi_file_chains_keep_serving_byte_identical(
        edits in proptest::collection::vec((0u8..4, 0usize..10_000, 1u64..3000), 4..8),
        first in 0usize..2,
        seed in 0u64..4,
    ) {
        let gen = generate(&MapSpec::small(120, 21 + seed));
        prop_assert!(gen.files.len() >= 2, "the world has two files to alternate between");
        let dir = temp_dir(&format!("chain-{seed}-{}-{}", edits[0].1, edits.len()));
        let paths = write_world(&dir, &gen.files);
        let options = Options {
            local: Some(gen.home.clone()),
            with_costs: true,
            ..Default::default()
        };
        let source = MapSource::map_files(paths.clone(), options.clone());
        source.load_serving_timed().unwrap();

        let mut outlined = false;
        for (at, &(kind, pick, delta)) in edits.iter().enumerate() {
            let file = (first + at) % 2;
            let step = if at == edits.len() / 2 {
                add_host(&paths[file], at);
                "structural"
            } else {
                let step = [Step::CostUp, Step::CostDown, Step::OffTree, Step::Comment][kind as usize];
                if !apply(step, pick, delta, Some(file), &paths, &options) {
                    continue;
                }
                "edit"
            };
            let (resolver, engine, report) = source.load_serving_timed().unwrap();
            prop_assert!(
                !outlined || report.files_scanned <= 2,
                "{} in file {} scanned {} texts", step, file, report.files_scanned
            );
            outlined |= report.files_scanned > 2;
            serves_like_a_cold_run(&source, resolver, engine, &paths, &options, &gen.home, (step, file));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
