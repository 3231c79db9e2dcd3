//! Byte-exact reproductions of every worked example in the paper.
//!
//! Experiment ids are those of the experiments binary (README, "Tests
//! and benches").

use pathalias::core::{compute_routes, map, CostModel, MapOptions};
use pathalias::{parse, symbol_cost, Pathalias};

/// E1: the OUTPUT-section example, "a simplified portion of the map
/// from 1981", run from unc.
#[test]
fn e1_unc_1981_output() {
    const INPUT: &str = "\
unc\tduke(HOURLY), phs(HOURLY*4)
duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
phs\tunc(HOURLY*4), duke(HOURLY)
research\tduke(DEMAND), ucbvax(DEMAND)
ucbvax\tresearch(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
";
    const EXPECTED: &str = "\
0\tunc\t%s
500\tduke\tduke!%s
800\tphs\tduke!phs!%s
3000\tresearch\tduke!research!%s
3300\tucbvax\tduke!research!ucbvax!%s
3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai
3395\tstanford\tduke!research!ucbvax!%s@stanford
";
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("unc".into());
    pa.options_mut().with_costs = true;
    pa.parse_str("map-1981", INPUT).unwrap();
    let out = pa.run().unwrap();
    assert_eq!(out.rendered, EXPECTED);
    assert!(out.report.warnings.is_empty());
    assert!(out.report.unreachable.is_empty());
}

/// E2: the symbolic cost table, exactly as printed in the paper.
#[test]
fn e2_cost_table() {
    let expected = [
        ("LOCAL", 25),
        ("DEDICATED", 95),
        ("DIRECT", 200),
        ("DEMAND", 300),
        ("HOURLY", 500),
        ("EVENING", 1800),
        ("POLLED", 5000),
        ("DAILY", 5000),
        ("WEEKLY", 30000),
    ];
    for (sym, val) in expected {
        assert_eq!(symbol_cost(sym), Some(val), "{sym}");
    }
}

/// The INPUT-section examples: `a b(10), c(20)` in all three syntax
/// spellings produces the same graph shape.
#[test]
fn input_section_syntax_equivalence() {
    let default_form = parse("a b(10), c(20)\n").unwrap();
    let explicit_form = parse("a b!(10), c!(20)\n").unwrap();
    for g in [&default_form, &explicit_form] {
        let a = g.try_node("a").unwrap();
        let costs: Vec<u64> = g.links_from(a).map(|(_, l)| l.cost).collect();
        assert_eq!(costs.iter().sum::<u64>(), 30);
    }

    // The ARPA spelling flips the operator side.
    let arpa = parse("a @b(10), @c(20)\n").unwrap();
    let a = arpa.try_node("a").unwrap();
    for (_, l) in arpa.links_from(a) {
        assert_eq!(l.op, pathalias::core::RouteOp::ARPA);
    }

    // The UNC-dwarf network shorthand equals the written-out clique.
    let shorthand = parse("UNC-dwarf = {dopey, grumpy, sleepy}(10)\n").unwrap();
    for host in ["dopey", "grumpy", "sleepy"] {
        let h = shorthand.try_node(host).unwrap();
        let (_, entry) = shorthand.links_from(h).next().unwrap();
        assert_eq!(entry.cost, 10);
    }
}

/// E11: the PROBLEMS-section figure. Left branch 425 (+ penalty), right
/// branch 500; the heuristics must prefer the right branch.
#[test]
fn e11_motown_route_decision() {
    const MOTOWN: &str = "\
princeton caip(200), topaz(300)
caip .rutgers.edu(200)
.rutgers.edu motown(25)
topaz motown(200)
";
    // With the paper's heuristics: topaz branch, cost 500.
    let g = parse(MOTOWN).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let topaz = g.try_node("topaz").unwrap();
    let tree = map(&g, princeton, &MapOptions::default()).unwrap();
    assert_eq!(tree.label(motown).unwrap().pred.unwrap().0, topaz);
    assert_eq!(tree.cost(motown), Some(500));
    let table = compute_routes(&tree);
    let r = table.entries.iter().find(|r| r.node == motown).unwrap();
    assert_eq!(r.route, "topaz!motown!%s");

    // Without heuristics: the domain branch at 425 — the route the
    // mailer at Rutgers rejects.
    let g = parse(MOTOWN).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let plain = MapOptions {
        model: CostModel::plain(),
        ..MapOptions::default()
    };
    let tree = map(&g, princeton, &plain).unwrap();
    assert_eq!(tree.cost(motown), Some(425));
    let table = compute_routes(&tree);
    let r = table.entries.iter().find(|r| r.node == motown).unwrap();
    assert_eq!(r.route, "caip!motown.rutgers.edu!%s");
}

/// E14a: the domain-tree figure — `seismo!caip.rutgers.edu!%s` with the
/// domain names appended through the traversal, subdomains hidden,
/// top-level domains shown with the gateway's route.
#[test]
fn e14_domain_tree_figure() {
    let g = parse("u seismo(100)\nseismo .edu(95)\n.edu = {.rutgers}(0)\n.rutgers = {caip}(0)\n")
        .unwrap();
    let u = g.try_node("u").unwrap();
    let tree = map(&g, u, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);

    let caip = table.find("caip.rutgers.edu").expect("synthesized name");
    assert_eq!(caip.route, "seismo!caip.rutgers.edu!%s");

    let edu = table.find(".edu").expect("top-level domain printed");
    assert_eq!(edu.route, "seismo!%s");
    assert!(edu.kind.is_visible());

    let rutgers = table
        .entries
        .iter()
        .find(|r| r.name == ".rutgers.edu")
        .expect("subdomain exists");
    assert!(!rutgers.kind.is_visible(), "subdomains are not printed");
}

/// E14b: the masquerade figure — "to augment the figure above with a
/// top-level domain .rutgers.edu with gateway caip ... the route to
/// caip and blue become caip!%s and caip!blue.rutgers.edu!%s".
#[test]
fn e14_masquerade_figure() {
    let g = parse("u caip(50)\n.rutgers.edu = {caip(0), blue(0)}\n").unwrap();
    let u = g.try_node("u").unwrap();
    let tree = map(&g, u, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);

    assert_eq!(table.find("caip").unwrap().route, "caip!%s");
    assert_eq!(
        table.find("blue.rutgers.edu").unwrap().route,
        "caip!blue.rutgers.edu!%s"
    );
    // "This makes caip a gateway for .rutgers.edu, but not for the
    // ARPANET as a whole": the domain's route is caip's.
    assert_eq!(table.find(".rutgers.edu").unwrap().route, "caip!%s");
}

/// The DATA STRUCTURES section's nosc/noscvax scenario: "the ARPANET
/// host nosc has UUCP name noscvax. A route by way of the ARPANET must
/// use the former, while a route by way of UUCP must use the latter."
/// With aliases as edges, each direction picks the right name.
#[test]
fn nosc_noscvax_alias_names() {
    // Note: arpaside's link into the net is written with `@`; network
    // exits use "the routing character and direction ... encountered
    // when entering the network".
    const WORLD: &str = "\
nosc = noscvax
ARPANET = @{nosc}(DEDICATED)
uucpside noscvax(HOURLY)
arpaside @ARPANET(DEDICATED)
";
    // Via UUCP: the predecessor knows "noscvax".
    let g = parse(WORLD).unwrap();
    let uucp = g.try_node("uucpside").unwrap();
    let tree = map(&g, uucp, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    assert_eq!(table.find("noscvax").unwrap().route, "noscvax!%s");
    // The alias gets the same route string — the wire name stays
    // noscvax.
    assert_eq!(table.find("nosc").unwrap().route, "noscvax!%s");

    // Via the ARPANET: the name on the wire is nosc.
    let g = parse(WORLD).unwrap();
    let arpa = g.try_node("arpaside").unwrap();
    let tree = map(&g, arpa, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    assert_eq!(table.find("nosc").unwrap().route, "%s@nosc");
    assert_eq!(table.find("noscvax").unwrap().route, "%s@nosc");
}

/// The HISTORY-section address form: `mail hosta!hostb!user` — routing
/// through an explicitly chosen relay.
#[test]
fn history_section_relative_address() {
    let g = parse("here hosta(100)\nhosta hostb(100)\n").unwrap();
    let here = g.try_node("here").unwrap();
    let tree = map(&g, here, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    let r = table.find("hostb").unwrap();
    assert_eq!(r.format("user"), "hosta!hostb!user");
}
