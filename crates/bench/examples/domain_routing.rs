//! Domains, gateways, and the second-best experiment.
//!
//! Reproduces the two domain figures from the paper (the
//! `seismo!caip.rutgers.edu!%s` synthesis and the `.rutgers.edu`
//! masquerade) and the PROBLEMS-section motown example, showing how the
//! heuristics change the chosen route and what the "second-best"
//! modified algorithm keeps.
//!
//! Run with: `cargo run -p pathalias-bench --example domain_routing`

use pathalias_bench::dual::map_dual;
use pathalias_mapper::{map, CostModel, MapOptions};
use pathalias_parser::parse;
use pathalias_printer::{compute_routes, render, PrintOptions, Sort};

fn main() {
    // Figure 1: the domain tree behind seismo.
    let tree_map = "\
u seismo(DEMAND)
seismo .edu(DEDICATED)
.edu = {.rutgers}(0)
.rutgers = {caip}(0)
";
    let g = parse(tree_map).unwrap();
    let u = g.try_node("u").unwrap();
    let tree = map(&g, u, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    println!("# domain tree figure — routes from u:");
    print!(
        "{}",
        render(
            &table,
            &PrintOptions {
                with_costs: false,
                sort: Sort::ByName,
                include_hidden: true,
            },
        )
    );

    // Figure 2: a subdomain masquerading as a top-level domain.
    let masquerade = "\
u caip(DEMAND)
.rutgers.edu = {caip(0), blue(0)}
";
    let g = parse(masquerade).unwrap();
    let u = g.try_node("u").unwrap();
    let tree = map(&g, u, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    println!("\n# masquerade figure — caip gateways .rutgers.edu only:");
    for name in ["caip", "blue.rutgers.edu", ".rutgers.edu"] {
        let r = table.find(name).expect(name);
        println!("{}\t{}", r.name, r.route);
    }

    // The PROBLEMS figure: motown via the domain (425 + penalty) or via
    // topaz (500).
    let motown_map = "\
princeton caip(200), topaz(300)
caip .rutgers.edu(200)
.rutgers.edu motown(25)
topaz motown(200)
";
    println!("\n# PROBLEMS figure — motown from princeton:");

    // With the paper's heuristics, the relay penalty prices the left
    // branch out: the right branch (topaz, 500) wins.
    let g = parse(motown_map).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let tree = map(&g, princeton, &MapOptions::default()).unwrap();
    let table = compute_routes(&tree);
    let r = table.entries.iter().find(|r| r.node == motown).unwrap();
    println!("with heuristics:    cost {:>9}  {}", r.cost, r.route);

    // With heuristics off (early pathalias), the domain branch wins at
    // 425 — and "the mailer at Rutgers rejects the left branch route".
    let g = parse(motown_map).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let plain = MapOptions {
        model: CostModel::plain(),
        ..MapOptions::default()
    };
    let tree = map(&g, princeton, &plain).unwrap();
    let table = compute_routes(&tree);
    let r = table.entries.iter().find(|r| r.node == motown).unwrap();
    println!("without heuristics: cost {:>9}  {}", r.cost, r.route);

    // The modified algorithm from the PROBLEMS section: keep the
    // second-best path when the shortest goes by way of a domain.
    let g = parse(motown_map).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let mut opts = MapOptions::default();
    opts.model.relay_penalty = 0; // Pre-heuristic cost model.
    let dual = map_dual(&g, princeton, &opts).unwrap();
    println!(
        "second-best:        primary {} via domain, clean alternative {}",
        dual.primary.cost(motown).unwrap(),
        dual.second_best(motown).map(|l| l.cost).unwrap()
    );
}
