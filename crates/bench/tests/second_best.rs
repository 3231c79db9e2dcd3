//! E12 in depth: the "second-best path" modified algorithm across
//! richer topologies than the paper's figure.

use pathalias_bench::dual::map_dual;
use pathalias_mapper::{CostModel, MapOptions};
use pathalias_parser::parse;

/// A world where several hosts sit beyond a domain, with varying
/// domain-free alternatives.
const WORLD: &str = "\
src gw(100), side(400)
gw .corp.com(50)
.corp.com = {inner}(0)
inner deep(100)
side inner(300)
side deep(350)
";

#[test]
fn alternatives_found_per_host() {
    let g = parse(WORLD).unwrap();
    let src = g.try_node("src").unwrap();
    let inner = g.try_node("inner").unwrap();
    let deep = g.try_node("deep").unwrap();

    let opts = MapOptions {
        model: CostModel::plain(),
        ..MapOptions::default()
    };
    let dual = map_dual(&g, src, &opts).unwrap();

    // Primary routes go through the domain (cheaper).
    assert_eq!(dual.primary.cost(inner), Some(150));
    assert!(dual.via_domain(inner));
    assert_eq!(dual.primary.cost(deep), Some(250));
    assert!(dual.via_domain(deep));

    // Domain-free alternatives exist for both.
    assert_eq!(dual.second_best(inner).unwrap().cost, 700);
    assert_eq!(dual.second_best(deep).unwrap().cost, 750);
    assert!(!dual.second_best(deep).unwrap().tainted);
}

#[test]
fn clean_tree_never_contains_domains() {
    let g = parse(WORLD).unwrap();
    let src = g.try_node("src").unwrap();
    let corp = g.try_node(".corp.com").unwrap();
    let dual = map_dual(&g, src, &MapOptions::default()).unwrap();
    assert!(dual.primary.is_mapped(corp), "primary sees the domain");
    assert!(!dual.clean.is_mapped(corp), "clean tree must not");
    // Every clean label is untainted by construction.
    for id in g.node_ids() {
        if let Some(l) = dual.clean.label(id) {
            assert!(!l.tainted, "clean label tainted for {}", g.name(id));
        }
    }
}

#[test]
fn heuristics_make_second_best_redundant_here() {
    // With the paper's relay penalty active, the primary tree already
    // avoids relaying beyond the domain, so hosts past it get their
    // routes via the side links and need no alternative.
    let g = parse(WORLD).unwrap();
    let src = g.try_node("src").unwrap();
    let deep = g.try_node("deep").unwrap();
    let dual = map_dual(&g, src, &MapOptions::default()).unwrap();
    // inner is still cheapest via the domain (members may be reached
    // through their own domain), but the onward hop to deep is
    // penalized, so deep prefers the clean route even in the primary.
    assert_eq!(dual.primary.cost(deep), Some(750));
    assert!(!dual.via_domain(deep));
    assert!(dual.second_best(deep).is_none());
}

#[test]
fn preferred_is_total_over_mapped_hosts() {
    let g = parse(WORLD).unwrap();
    let src = g.try_node("src").unwrap();
    let opts = MapOptions {
        model: CostModel::plain(),
        ..MapOptions::default()
    };
    let dual = map_dual(&g, src, &opts).unwrap();
    for id in g.node_ids() {
        if dual.primary.is_mapped(id) && !g.node_ref(id).is_domain() {
            assert!(
                dual.preferred(id).is_some(),
                "no preferred label for {}",
                g.name(id)
            );
        }
    }
}
