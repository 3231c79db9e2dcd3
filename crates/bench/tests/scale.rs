//! The generator's shape check against the paper's figures (moved here
//! from the root `tests/scale.rs` with `stats`).

use pathalias_bench::stats;
use pathalias_core::Pathalias;
use pathalias_mapgen::{generate, MapSpec};

fn paper_world() -> (Pathalias, String) {
    let map = generate(&MapSpec::usenet_1986(1986));
    let mut pa = Pathalias::new();
    for (name, text) in &map.files {
        pa.parse_str(name, text).unwrap();
    }
    (pa, map.home.clone())
}

#[test]
fn structure_matches_the_paper() {
    let (pa, _) = paper_world();
    let s = stats::stats(pa.graph());
    // "over 5,700 nodes and 20,000 links ... another 2,800 nodes and
    // 8,000 links": nodes ≈ 8,500+, links in the tens of thousands,
    // and sparse (e proportional to v, not v²).
    assert!(s.nodes > 8_500, "nodes: {}", s.nodes);
    assert!(s.links > 20_000, "links: {}", s.links);
    assert!(s.sparsity < 10.0, "e/v = {}", s.sparsity);
    assert!(s.nets >= 20, "networks: {}", s.nets);
    assert!(s.domains >= 6, "domains: {}", s.domains);
    // One giant component holds nearly everything.
    assert!(
        s.largest_component as f64 >= s.nodes as f64 * 0.95,
        "largest component {} of {}",
        s.largest_component,
        s.nodes
    );
}
