//! Keeps the production crates' public surface at what ships.
//!
//! `pathalias_bench` exists so that study code (the paper's
//! comparisons, oracles, the generator's checks) does not ride in the
//! crates the `pathalias` binary links. This reads those crates'
//! `lib.rs` files and fails when one has a `pub mod` or `pub use`
//! statement that `surface.txt` does not list, word for word, beside
//! the shipped caller that needs it — or when the list names one that
//! is gone.

use std::collections::BTreeSet;
use std::path::Path;

const CRATES: &[&str] = &["graph", "parser", "printer", "arena", "mapper", "mailer"];

#[test]
fn production_crates_export_only_the_listed_surface() {
    let mut actual = BTreeSet::new();
    for krate in CRATES {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../{krate}/src/lib.rs"));
        let lib = std::fs::read_to_string(&path).expect("lib.rs is readable");
        // Top-level statements only: `pub(crate)` and indented items
        // are not surface. rustfmt may wrap a long `pub use`.
        for stmt in lib.split("\npub ").skip(1) {
            let end = stmt.find(';').expect("statement ends");
            let words: Vec<&str> = stmt[..end].split_whitespace().collect();
            let stmt = words.join(" ").replace("{ ", "{").replace(", }", "}");
            actual.insert((krate.to_string(), format!("pub {stmt};")));
        }
    }
    let listed: BTreeSet<(String, String)> = include_str!("surface.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split(" | ");
            let mut field = || fields.next().unwrap_or_default().to_string();
            let item = (field(), field());
            assert!(!field().is_empty(), "`{line}` does not say what needs it");
            item
        })
        .collect();
    let unlisted: Vec<_> = actual.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "exported but not in crates/bench/tests/surface.txt \
         (study code belongs in crates/bench): {unlisted:#?}"
    );
    let stale: Vec<_> = listed.difference(&actual).collect();
    assert!(
        stale.is_empty(),
        "in surface.txt but no longer exported: {stale:#?}"
    );
}
