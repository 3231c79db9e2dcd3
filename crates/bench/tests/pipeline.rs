//! The unparser's round trip through the shipped parser (moved here
//! from the root `tests/pipeline.rs` with the code).

use pathalias_bench::unparse;
// The body calls `pathalias::parse`, as it did at the root.
use pathalias_core as pathalias;

/// parse → unparse → parse must converge: the second and third
/// unparsings are identical.
#[test]
fn unparse_fixpoint() {
    let input = "\
unc duke(500), @phs(2000)
duke research(2500)
ARPA = @{mit-ai, ucbvax}(95)
princeton = fun
dead {duke!research}
gated {ARPA}
seismo ARPA(300)
adjust {unc(50)}
";
    let g1 = pathalias::parse(input).unwrap();
    let text1 = unparse::unparse(&g1);
    let g2 = pathalias::parse(&text1).unwrap();
    let text2 = unparse::unparse(&g2);
    assert_eq!(text1, text2, "unparse must reach a fixpoint");
    // And the graphs agree on scale.
    assert_eq!(g1.node_count(), g2.node_count());
}
