//! Paper-scale structural checks on the synthetic universe.

use pathalias::core::{parse, plan_delta, DeltaPlan, LinkFlags, RowPatch, Warning};
use pathalias::{generate, MapSpec, Pathalias};
use std::fmt::Write;
use std::time::{Duration, Instant};

fn paper_world() -> (Pathalias, String) {
    let map = generate(&MapSpec::usenet_1986(1986));
    let mut pa = Pathalias::new();
    for (name, text) in &map.files {
        pa.parse_str(name, text).unwrap();
    }
    (pa, map.home.clone())
}

#[test]
fn full_pipeline_reaches_everything() {
    let (mut pa, home) = paper_world();
    pa.options_mut().local = Some(home);
    let out = pa.run().unwrap();
    assert!(
        out.report.unreachable.is_empty(),
        "{:?}",
        out.report.unreachable
    );
    let visible = out.routes().visible().count();
    assert!(visible > 8_000, "visible routes: {visible}");
    // Route strings are well-formed at scale.
    for r in out.routes().visible() {
        assert_eq!(r.route.matches("%s").count(), 1, "{}", r.route);
    }
}

#[test]
fn byte_identical_across_runs() {
    let run = || {
        let (mut pa, home) = paper_world();
        pa.options_mut().local = Some(home);
        pa.options_mut().with_costs = true;
        pa.run().unwrap().rendered
    };
    assert_eq!(run(), run(), "the pipeline is deterministic");
}

/// Graph building is linear in the map text, whatever its shape: a
/// 200,000-member network declared in two halves, a 200,000-link hub
/// row spread over 200 statements with other hosts' statements in
/// between, and 200,000 one-link hosts. Walking the row per member or
/// per link (what `Graph` did before it kept a row index) makes this
/// tens of billions of list steps, minutes even in a release build;
/// linear is a second or two in a debug one, so the limit neither flakes
/// nor passes by accident. It is also the hostile-map case: one such
/// file must not pin a `--watch` daemon's reload for minutes.
///
/// Freezing the result, and splicing a 200,000-link row into the
/// frozen graph, are linear too: each collapses duplicate links
/// without comparing every link with the row so far.
#[test]
fn graph_building_is_linear_in_the_text() {
    const N: usize = 200_000;
    const PER_STATEMENT: usize = 1_000;
    let started = Instant::now();

    let mut text = String::new();
    for half in [0..N / 2, N / 2..N] {
        text.push_str("BIGNET = {");
        for m in half {
            writeln!(text, "m{m},").unwrap();
        }
        text.push_str("}(10)\n");
    }
    for chunk in 0..N / PER_STATEMENT {
        let ids = chunk * PER_STATEMENT..(chunk + 1) * PER_STATEMENT;
        text.push_str("hub ");
        for t in ids.clone() {
            write!(text, "t{t}(10), ").unwrap();
        }
        text.push_str("m0(10)\n");
        for h in ids {
            writeln!(text, "h{h} hub(10)").unwrap();
        }
    }

    let g = parse(&text).unwrap();
    let (net, hub) = (g.try_node("BIGNET").unwrap(), g.try_node("hub").unwrap());
    // The net, its members, the hub, its targets, the one-link hosts.
    assert_eq!(g.node_count(), 1 + N + 1 + N + N);
    let exits = g
        .links_from(net)
        .filter(|(_, l)| l.flags.contains(LinkFlags::NET_OUT))
        .count();
    assert_eq!((exits, g.links_from(net).count()), (N, N));
    // `hub m0` is written once per statement and kept once.
    assert_eq!(g.links_from(hub).count(), N + 1);
    assert_eq!(g.link_count(), N + N + (N + 1) + N);
    let duplicates = N / PER_STATEMENT - 1;
    assert_eq!(g.warnings().len(), 1 + duplicates);
    assert_eq!(
        g.warnings()[0],
        Warning::RedeclaredNet {
            net: "BIGNET".into()
        }
    );

    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "took {took:?}");

    let started = Instant::now();
    let frozen = g.freeze();
    let took = started.elapsed();
    assert_eq!((frozen.degree(net), frozen.degree(hub)), (N, N + 1));
    assert!(took < Duration::from_secs(10), "freeze took {took:?}");

    // The hub's row again, every link written twice, the second time
    // dearer: the patch collapses to the row it replaces.
    let row: Vec<_> = frozen
        .out_edges(hub)
        .map(|e| {
            let (to, cost) = (frozen.edge_target(e), frozen.edge_raw_cost(e));
            (to, cost, frozen.edge_op(e), frozen.edge_flags(e))
        })
        .collect();
    let doubled = row.iter().chain(&row).enumerate();
    let edges =
        doubled.map(|(i, &(to, cost, op, flags))| (to, cost + (i / row.len()) as u64, op, flags));
    let patch = RowPatch {
        node: hub,
        edges: edges.collect(),
    };
    let started = Instant::now();
    let (patched, _) = frozen.with_rows_replaced(&[patch]);
    let took = started.elapsed();
    assert!(
        patched == frozen,
        "the doubled row collapses to the old one"
    );
    assert!(took < Duration::from_secs(10), "row patch took {took:?}");
}

/// Planning a one-file edit is linear in the edit: bumping every cost
/// of 200,000 one-link rows dirties 200,000 heads, and a planner that
/// checks each against a list of the heads so far takes minutes.
#[test]
fn delta_planning_is_linear_in_the_edit() {
    const N: usize = 200_000;
    let rows = |cost: u32| {
        let text: String = (0..N).map(|i| format!("h{i} hub({cost})\n")).collect();
        vec![("map".to_string(), text)]
    };
    let (old, new) = (rows(10), rows(11));
    let frozen = parse(&old[0].1).unwrap().freeze();
    let started = Instant::now();
    let plan = plan_delta(&old, &new, &frozen);
    let took = started.elapsed();
    assert!(matches!(plan, DeltaPlan::Patch { patches } if patches.len() == N));
    assert!(took < Duration::from_secs(10), "took {took:?}");
}
