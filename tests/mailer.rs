//! E15: mailer integration against real pipeline output, end to end.

use pathalias::{
    generate, HeaderRewriter, MapSpec, Message, Pathalias, Policy, Rewriter, RouteDb, SyntaxStyle,
};

fn run_world() -> (Pathalias, String) {
    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("princeton".into());
    pa.parse_str(
        "world",
        "\
princeton seismo(DEMAND), cbosgd(EVENING), topaz(HOURLY)
seismo .edu(DEDICATED), mcvax(DAILY), ihnp4(DEMAND)
cbosgd ihnp4(HOURLY)
.edu = {.rutgers}(0)
.rutgers = {caip}(0)
",
    )
    .unwrap();
    let rendered = pa.run().unwrap().rendered;
    (pa, rendered)
}

/// The paper's domain walkthrough produces identical routes whether the
/// exact entry exists or only the `.edu` gateway does.
#[test]
fn e15_domain_suffix_walkthrough() {
    let (_, rendered) = run_world();
    let db = RouteDb::from_output(&rendered).unwrap();
    let exact = db.route_to("caip.rutgers.edu", "pleasant").unwrap();
    assert_eq!(exact, "seismo!caip.rutgers.edu!pleasant");

    // Drop the exact line; the suffix search must produce the same.
    let without: String = rendered
        .lines()
        .filter(|l| !l.starts_with("caip.rutgers.edu"))
        .collect::<Vec<_>>()
        .join("\n");
    let db = RouteDb::from_output(&without).unwrap();
    let via_suffix = db.route_to("caip.rutgers.edu", "pleasant").unwrap();
    assert_eq!(via_suffix, exact);
}

/// First-hop vs rightmost-known on a USENET-style reply path.
#[test]
fn e15_policies_differ_as_described() {
    let (_, rendered) = run_world();
    let db = RouteDb::from_output(&rendered).unwrap();
    let reply = "cbosgd!ihnp4!seismo!mcvax!piet";

    let first = Rewriter::new(&db).policy(Policy::FirstHop);
    assert_eq!(
        first.rewrite(reply).unwrap(),
        "cbosgd!ihnp4!seismo!mcvax!piet",
        "first-hop keeps the user's path"
    );

    let rightmost = Rewriter::new(&db).policy(Policy::RightmostKnown);
    assert_eq!(
        rightmost.rewrite(reply).unwrap(),
        "seismo!mcvax!piet",
        "rightmost-known strips the circuitous prefix"
    );
}

/// The whole cbosgd example as one story: receive, rewrite headers,
/// and refuse the unsafe abbreviation.
#[test]
fn e15_cbosgd_story() {
    let (_, rendered) = run_world();
    let db = RouteDb::from_output(&rendered).unwrap();

    let msg = Message::parse(
        "From cbosgd!mark Sun Feb 9 13:14:58 EST 1986\n\
         To: princeton!honey\n\
         Cc: seismo!mcvax!piet\n\n\
         body line\n",
    )
    .unwrap();

    let hw = HeaderRewriter::new(
        Rewriter::new(&db)
            .policy(Policy::FirstHop)
            .style(SyntaxStyle::Heuristic),
    );
    let (out, errors) = hw.rewrite_message(&msg);
    assert!(errors.is_empty());
    assert_eq!(out.get("Cc"), Some("seismo!mcvax!piet"));
    assert_eq!(out.body, msg.body, "principle 2: body untouched");

    // Reply path construction at princeton: prefix the origin host.
    let reply = format!("cbosgd!{}", "mcvax!piet");
    let careful = Rewriter::new(&db);
    assert_eq!(
        careful.shorten(&reply).unwrap(),
        "cbosgd!mcvax!piet",
        "mcvax is not princeton's neighbor; the prefix must stay"
    );
    // Whereas the full path shortens safely by one hop at most.
    assert_eq!(
        careful.shorten("cbosgd!seismo!mcvax!piet").unwrap(),
        "seismo!mcvax!piet"
    );
}

/// Gateway style translation (principle 6).
#[test]
fn gateway_translates_styles() {
    let addr = pathalias::Address::parse("seismo!mcvax!piet", SyntaxStyle::Heuristic).unwrap();
    assert_eq!(addr.to_mixed(), "seismo!piet@mcvax");
    let back = pathalias::Address::parse(&addr.to_mixed(), SyntaxStyle::UucpFirst).unwrap();
    assert_eq!(back, addr, "translation round-trips");
}

/// Mailer lookup at scale: every visible route in a generated map loads
/// and expands.
#[test]
fn route_db_at_scale() {
    let map = generate(&MapSpec::small(400, 77));
    let mut pa = Pathalias::new();
    for (name, text) in &map.files {
        pa.parse_str(name, text).unwrap();
    }
    pa.options_mut().local = Some(map.home.clone());
    let out = pa.run().unwrap();
    let db = RouteDb::from_output(&out.rendered).unwrap();
    assert_eq!(db.len(), out.routes().visible().count());
    for r in out.routes().visible() {
        let expanded = db.route_to(&r.name, "user").unwrap();
        assert!(expanded.contains("user"), "{expanded}");
        assert!(!expanded.contains("%s"));
    }
}
