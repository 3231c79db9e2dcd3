//! The route file rendered straight from the tree against the one
//! rendered from the route table, on generated worlds plus hand-written
//! rows: domains and subdomains, networks entered by a member and by a
//! link, aliases, `private` hosts, the `%`, `@` and `:` operators, and
//! a name printed twice. Under `-c`, `-n` and the hidden-entry listing,
//! `render_tree(&tree)` must equal `render(&compute_routes(&tree))`
//! byte for byte.

use pathalias_core::{
    compute_routes, render, render_tree, Options, Parsed, PrintOptions, ShortestPathTree, Sort,
};
use pathalias_mapgen::{generate, MapSpec};
use proptest::prelude::*;

/// Rows hung off the generated world's home. `{c0}`..`{c5}` are costs
/// the case picks, so ties and tree shapes vary; the two `caip.edu`
/// lines always tie on cost, so only the last tie-break orders them.
const ROWS: &str = "\
private {secret}
HOME gw-edu({c0}), caip.edu({c0}), NETA({c2}), member({c3}), princeton({c4}), b%({c5})
HOME @arpahost({c2}), colon:({c3}), :cname({c4}), secret({c1})
gw-edu .edu(0)
.edu = {.rutgers, caip}(0)
.rutgers = {blue, caip}(0)
NETA = @{m1, m2, member}({c5})
NETB = {n1, n2, member}({c4})
princeton = fun
fun z1(10)
secret deep({c0})
b sun%({c1})
sun c({c2})
colon d1({c3})
";

/// The world for one case: a generated map, the rows above, mapped
/// from the generated home.
fn tree(hosts: usize, seed: u64, costs: &[u64], ignore_case: bool) -> ShortestPathTree {
    let map = generate(&MapSpec::small(hosts, seed));
    let mut rows = ROWS.replace("HOME", &map.home);
    for (i, cost) in costs.iter().enumerate() {
        rows = rows.replace(&format!("{{c{i}}}"), &cost.to_string());
    }
    let options = Options {
        local: Some(map.home.clone()),
        ignore_case,
        ..Options::default()
    };
    let mut parsed = Parsed::new();
    for (name, text) in &map.files {
        parsed.push_str(name, text);
    }
    parsed.push_str("rows", &rows);
    let frozen = parsed.build(&options).unwrap().freeze();
    frozen.map(&options).unwrap().tree
}

/// Every combination of `-c`, `-n` and the hidden-entry listing.
fn every_option() -> Vec<PrintOptions> {
    let mut all = Vec::new();
    for with_costs in [false, true] {
        for sort in [Sort::ByCost, Sort::ByName] {
            for include_hidden in [false, true] {
                all.push(PrintOptions {
                    with_costs,
                    sort,
                    include_hidden,
                });
            }
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(16))]

    #[test]
    fn the_tree_renders_as_its_table_does(
        seed in 0u64..10_000,
        hosts in 40usize..200,
        costs in proptest::collection::vec(0u64..300, 6..7),
        ignore_case in any::<bool>(),
    ) {
        let tree = tree(hosts, seed, &costs, ignore_case);
        let table = compute_routes(&tree);
        // The rows under test were all reached and printed.
        for name in ["caip.edu", "blue.rutgers.edu", "m1", "n1", "fun", "deep", "c", "d1"] {
            prop_assert!(table.visible().any(|r| r.name == name), "{} not printed", name);
        }
        prop_assert!(table.visible().filter(|r| r.name == "caip.edu").count() >= 2);
        for opts in every_option() {
            let from_tree = render_tree(&tree, &opts);
            let from_table = render(&table, &opts);
            prop_assert!(from_tree == from_table, "{:?} renders differ", opts);
        }
    }
}
