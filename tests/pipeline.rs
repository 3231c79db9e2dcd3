//! End-to-end pipeline tests spanning parser, graph, mapper and
//! printer: multi-file semantics, collisions, commands, and round
//! trips.

use pathalias::core::Options;
use pathalias::{parse_files, Pathalias, RouteDb};

/// The paper's bilbo collision: two hosts, same name, different files,
/// one private. Routes must keep them distinct.
#[test]
fn private_collision_end_to_end() {
    let files = [
        (
            "princeton-site",
            "princeton bilbo(LOCAL)\nbilbo princeton(LOCAL)\n",
        ),
        (
            // The private bilbo talks to princeton and is wiretap's
            // only connection to the world.
            "wiretap-site",
            "private {bilbo}\nbilbo wiretap(LOCAL), princeton(HOURLY)\nwiretap bilbo(LOCAL)\n",
        ),
    ];
    let mut pa = Pathalias::new();
    for (name, text) in files {
        pa.parse_str(name, text).unwrap();
    }
    pa.options_mut().local = Some("princeton".into());
    let out = pa.run().unwrap();

    // The visible bilbo is the public one, one LOCAL hop away.
    let routes = out.routes();
    let bilbo = routes.find("bilbo").unwrap();
    assert_eq!(bilbo.route, "bilbo!%s");
    assert_eq!(bilbo.cost, 25);

    // The private bilbo never appears in output under its own line...
    let bilbo_count = routes.visible().filter(|r| r.name == "bilbo").count();
    assert_eq!(bilbo_count, 1);

    // ...but it may relay: wiretap is reached through it.
    let wiretap = routes.find("wiretap").unwrap();
    assert!(
        wiretap.route.contains("bilbo!wiretap"),
        "route: {}",
        wiretap.route
    );
}

#[test]
fn file_scoping_via_parse_files() {
    let g = parse_files(&[("a", "private {x}\nx one(10)\n"), ("b", "x two(10)\n")]).unwrap();
    let xs = g.iter_nodes().filter(|(id, _)| g.name(*id) == "x").count();
    assert_eq!(xs, 2, "private x and global x");
}

#[test]
fn dead_delete_adjust_shape_routes() {
    let input = "\
home relay(100), slow(100)
relay target(100)
slow target(100)
adjust {relay(500)}
";
    // With relay penalized by adjust, the slow branch wins.
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("home".into());
    pa.parse_str("m", input).unwrap();
    let out = pa.run().unwrap();
    assert_eq!(out.routes().find("target").unwrap().route, "slow!target!%s");

    // Deleting slow forces the adjusted relay.
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("home".into());
    pa.parse_str("m", &format!("{input}delete {{slow}}\n"))
        .unwrap();
    let out = pa.run().unwrap();
    assert_eq!(
        out.routes().find("target").unwrap().route,
        "relay!target!%s"
    );
    assert!(out.routes().find("slow").is_none());

    // A dead host still gets a route but stops relaying.
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("home".into());
    pa.parse_str("m", &format!("{input}dead {{slow}}\n"))
        .unwrap();
    let out = pa.run().unwrap();
    assert!(out.routes().find("slow").is_some());
    assert_eq!(
        out.routes().find("target").unwrap().route,
        "relay!target!%s"
    );
}

#[test]
fn ignore_case_pipeline() {
    let mut pa = Pathalias::with_options(Options {
        ignore_case: true,
        local: Some("HOME".into()),
        ..Options::default()
    });
    pa.parse_str("m", "home Relay(10)\nRELAY far(10)\n")
        .unwrap();
    let out = pa.run().unwrap();
    // One relay node; far reachable through it.
    let routes = out.routes();
    let far = routes.find("far").unwrap();
    assert_eq!(far.cost, 20);
}

/// The route database round-trips through the rendered text.
#[test]
fn output_roundtrips_into_route_db() {
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("hub".into());
    pa.options_mut().with_costs = true;
    pa.parse_str(
        "m",
        "hub a(100), b(200)\na c(50)\nb @d(25)\n.edu = {campus}(0)\nhub .edu(95)\n",
    )
    .unwrap();
    let out = pa.run().unwrap();
    let db = RouteDb::from_output(&out.rendered).unwrap();
    assert_eq!(db.len(), out.routes().visible().count());
    for r in out.routes().visible() {
        let entry = db.get(&r.name).expect("every visible route loads");
        assert_eq!(entry.route, r.route);
        // The database keeps no cost; the line it loaded carried one.
        let line = format!("{}\t{}\t{}\n", r.cost, r.name, r.route);
        assert!(out.rendered.contains(&line), "{line:?}");
    }
    // Domain member resolves through the suffix entry.
    assert_eq!(
        db.route_to("campus.edu", "prof").unwrap(),
        "campus.edu!prof",
        "gateway route for .edu is the local hub's %s-slot"
    );
}

/// Larger multi-file run: a generated map split across files keeps all
/// semantics when concatenated with `file {}` markers.
#[test]
fn concatenated_equals_multifile() {
    let map = pathalias::generate(&pathalias::MapSpec::small(150, 99));

    let mut multi = Pathalias::new();
    for (name, text) in &map.files {
        multi.parse_str(name, text).unwrap();
    }
    multi.options_mut().local = Some(map.home.clone());
    let out_multi = multi.run().unwrap();

    let mut single = Pathalias::new();
    single.parse_str("all", &map.concatenated()).unwrap();
    single.options_mut().local = Some(map.home.clone());
    let out_single = single.run().unwrap();

    assert_eq!(out_multi.rendered, out_single.rendered);
}
