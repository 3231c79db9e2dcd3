//! Map the whole (synthetic) 1986 USENET.
//!
//! The paper's production workload: "USENET maps contain over 5,700
//! nodes and 20,000 links, while ARPANET, CSNET, and BITNET add another
//! 2,800 nodes and 8,000 links." This example generates a synthetic
//! universe at that scale, runs the full pipeline from a hub, and
//! reports what the authors watched: phase timings, heap traffic,
//! penalty counts, back-link inventions, and unreachable hosts.
//!
//! Run with: `cargo run --release --example usenet_map`

use pathalias::core::Options;
use pathalias::{generate, MapSpec, Pathalias};

fn main() {
    let spec = MapSpec::usenet_1986(1986);
    println!(
        "# generating a synthetic USENET: {} uucp hosts + {} network hosts...",
        spec.uucp_hosts, spec.net_hosts
    );
    let map = generate(&spec);
    println!(
        "# generated {} files, {} bytes, {} links, {} networks, {} domain nodes",
        map.files.len(),
        map.byte_size(),
        map.stats.links,
        map.stats.networks,
        map.stats.domains
    );

    let mut pa = Pathalias::with_options(Options {
        local: Some(map.home.clone()),
        with_costs: true,
        ..Options::default()
    });
    for (name, text) in &map.files {
        pa.parse_str(name, text).expect("generated maps parse");
    }
    let out = pa.run().expect("mapping succeeds");

    let g = pa.graph();
    let s = out.tree.stats;
    println!("\n# pipeline report (mapping from {}):", map.home);
    println!("nodes: {}, links: {}", g.node_count(), g.link_count());
    println!(
        "mapped: {} ({} visible routes)",
        s.mapped,
        out.routes().visible().count()
    );
    println!(
        "heap: {} pushes, {} pops ({} stale) over {} relaxations",
        s.pushes, s.pops, s.stale_pops, s.relaxations
    );
    println!(
        "penalties applied: {} gateway, {} domain-relay, {} mixed-syntax",
        s.gate_penalties, s.relay_penalties, s.mixed_penalties
    );
    println!(
        "back links: {} invented over {} extra rounds",
        s.invented_links, s.backlink_rounds
    );
    println!(
        "unreachable after back links: {} hosts",
        out.report.unreachable.len()
    );
    println!(
        "timings: parse {:?}, map {:?}, print {:?}",
        out.report.timings.build, out.report.timings.map, out.report.timings.print
    );
    println!("warnings from the map data: {}", out.report.warnings.len());

    // Show the near end of the route list: the expensive tail is where
    // back links and penalties live.
    let table = out.routes();
    let mut routes: Vec<_> = table.visible().collect();
    routes.sort_by_key(|r| r.cost);
    println!("\n# five cheapest routes:");
    for r in routes.iter().take(5) {
        println!("{}\t{}\t{}", r.cost, r.name, r.route);
    }
    println!("\n# five most expensive (penalized / invented) routes:");
    for r in routes.iter().rev().take(5) {
        println!("{}\t{}\t{}", r.cost, r.name, r.route);
    }
}
