//! Failure injection and structural edge cases, end to end.

use pathalias::core::{map, MapOptions, INF};
use pathalias::{parse, Pathalias};

/// Every statement type has a rejection path; none of them panic and
/// all report a location.
#[test]
fn parser_error_catalogue() {
    let bad_inputs = [
        "a @b!(10)\n",          // operators on both sides
        "a b(10) c(20)\n",      // missing comma
        "a b(10,)\n",           // stray comma in cost
        "a b()\n",              // empty cost
        "a b(5/0)\n",           // division by zero
        "a b(5 - 10)\n",        // negative link cost
        "a b(99999999999)\n",   // cost out of range
        "N = {a\n",             // unclosed brace
        "N = @(5)\n",           // operator without brace
        "= b\n",                // missing left-hand side
        "adjust {x}\n",         // adjust without bias
        "gateway {justanet}\n", // gateway without !
        "file {a, b}\n",        // file arity
        "a $b\n",               // illegal character
        "(5)\n",                // statement starts with punctuation
    ];
    for text in bad_inputs {
        let err = parse(text).expect_err(text);
        assert!(err.line >= 1, "{text:?} -> {err}");
        assert!(!err.msg.is_empty());
    }
}

/// Near-misses that are legal and must parse.
#[test]
fn parser_accepts_unusual_but_legal() {
    let good_inputs = [
        "dead alive(10)\n",           // keyword as host name
        "gateway relay(10)\n",        // ditto
        "a b\n",                      // costless link
        "x\n",                        // bare host
        "a b(0)\n",                   // zero cost
        "a b((((5))))\n",             // nested parens
        "a b(2 * 3 + 4 / 2 - 1)\n",   // full expression grammar
        "N = {m}(0)\n",               // zero-cost network
        "N = {a, }(5)\n",             // trailing comma tolerated, as in real maps
        "a .lone-domain(5)\n",        // link into a fresh domain
        "private {p}\nprivate {p}\n", // repeated private
        "private {}\n",               // empty command list is a no-op
        "# only a comment\n",
        "\n\n\n",
        "a\tb(5),\tc(6)\n", // tabs everywhere
    ];
    for text in good_inputs {
        parse(text).unwrap_or_else(|e| panic!("{text:?} should parse: {e}"));
    }
}

#[test]
fn alias_chains_and_cycles_are_harmless() {
    // a = b, b = c, c = a: a cycle of zero-cost edges.
    let g = parse("start a(10)\na = b\nb = c\nc = a\nc out(5)\n").unwrap();
    let start = g.try_node("start").unwrap();
    let tree = map(&g, start, &MapOptions::default()).unwrap();
    for host in ["a", "b", "c"] {
        let id = g.try_node(host).unwrap();
        assert_eq!(tree.cost(id), Some(10), "{host}");
    }
    let out = g.try_node("out").unwrap();
    assert_eq!(tree.cost(out), Some(15));
}

#[test]
fn network_of_networks() {
    // A net whose member is itself a net: exits chain for free.
    let text = "\
start OUTER(100)
OUTER = {INNER}(50)
INNER = {deep}(25)
";
    let g = parse(text).unwrap();
    let start = g.try_node("start").unwrap();
    let deep = g.try_node("deep").unwrap();
    let tree = map(&g, start, &MapOptions::default()).unwrap();
    assert_eq!(tree.cost(deep), Some(100), "both exits are free");
}

#[test]
fn dead_symbol_makes_link_last_resort() {
    let g = parse("a b(DEAD)\na c(100)\nc b(100)\n").unwrap();
    let a = g.try_node("a").unwrap();
    let b = g.try_node("b").unwrap();
    let tree = map(&g, a, &MapOptions::default()).unwrap();
    assert_eq!(tree.cost(b), Some(200), "detour beats the DEAD link");

    // With no detour, the DEAD link still delivers.
    let g = parse("a b(DEAD)\n").unwrap();
    let a = g.try_node("a").unwrap();
    let b = g.try_node("b").unwrap();
    let tree = map(&g, a, &MapOptions::default()).unwrap();
    assert_eq!(tree.cost(b), Some(INF));
}

#[test]
fn delete_then_redeclare_keeps_deletion() {
    // `delete` wins over later link declarations mentioning the host:
    // the node stays deleted (the paper's delete is administrative
    // removal, not a soft hint).
    let mut pa = Pathalias::new();
    pa.parse_str("m", "a b(10)\ndelete {b}\na b(5)\n").unwrap();
    pa.options_mut().local = Some("a".into());
    let out = pa.run().unwrap();
    assert!(out.routes().find("b").is_none());
}

#[test]
fn saturating_costs_never_overflow() {
    // Chain of DEAD links: costs stack toward saturation, not panic.
    let mut text = String::from("h0 h1(DEAD)\n");
    for i in 1..40 {
        text.push_str(&format!("h{} h{}(DEAD)\n", i, i + 1));
    }
    let g = parse(&text).unwrap();
    let h0 = g.try_node("h0").unwrap();
    let last = g.try_node("h40").unwrap();
    let tree = map(&g, h0, &MapOptions::default()).unwrap();
    let cost = tree.cost(last).unwrap();
    assert!(cost >= 40 * INF || cost == u64::MAX);
}

#[test]
fn self_contained_island_reports_unreachable() {
    let mut pa = Pathalias::new();
    pa.options_mut().no_backlinks = true;
    pa.parse_str("m", "a b(1)\nx y(1)\ny x(1)\n").unwrap();
    pa.options_mut().local = Some("a".into());
    let out = pa.run().unwrap();
    let mut unreachable = out.report.unreachable.clone();
    unreachable.sort();
    assert_eq!(unreachable, vec!["x", "y"]);
}

#[test]
fn backlinks_cannot_cross_deleted_hosts() {
    // leaf's only outward link goes to a deleted host: stays dark.
    let mut pa = Pathalias::new();
    pa.parse_str("m", "a b(1)\nleaf gone(5)\ndelete {gone}\n")
        .unwrap();
    pa.options_mut().local = Some("a".into());
    let out = pa.run().unwrap();
    assert!(out.report.unreachable.contains(&"leaf".to_string()));
}

#[test]
fn zero_cost_cycles_terminate() {
    let g = parse("a b(0)\nb c(0)\nc a(0)\nc d(0)\n").unwrap();
    let a = g.try_node("a").unwrap();
    let d = g.try_node("d").unwrap();
    let tree = map(&g, a, &MapOptions::default()).unwrap();
    assert_eq!(tree.cost(d), Some(0));
    assert_eq!(tree.stats.mapped, 4);
}

#[test]
fn duplicate_network_merge_is_stable() {
    let text = "N = {a, b}(10)\nN = {b, c}(5)\nstart N(1)\n";
    let mut pa = Pathalias::new();
    pa.parse_str("m", text).unwrap();
    pa.options_mut().local = Some("start".into());
    let out = pa.run().unwrap();
    for host in ["a", "b", "c"] {
        assert!(out.routes().find(host).is_some(), "{host} routed");
    }
    assert!(out
        .report
        .warnings
        .iter()
        .any(|w| matches!(w, pathalias::core::Warning::RedeclaredNet { .. })));
}

#[test]
fn huge_fanout_host() {
    // One hub with 5,000 leaves: exercises adjacency-list depth.
    let mut text = String::new();
    for i in 0..5_000 {
        text.push_str(&format!("hub leaf{i}(10)\n"));
    }
    let g = parse(&text).unwrap();
    let hub = g.try_node("hub").unwrap();
    let tree = map(&g, hub, &MapOptions::default()).unwrap();
    assert_eq!(tree.stats.mapped, 5_001);
}
