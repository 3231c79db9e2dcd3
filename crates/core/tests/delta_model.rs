//! `plan_delta` against a cold freeze, over one random edit to a small
//! generated world (networks, aliases, `dead`, `adjust`, `private`): a
//! `Patch` splices into exactly the cold freeze of the new text, and
//! `Unchanged` means that freeze is the old one.

use pathalias_core::{parse_into, plan_delta, DeltaPlan, FrozenGraph, Graph};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_parser::{Kind, Statements, Tok};
use proptest::prelude::*;
use std::collections::HashSet;

fn cold(files: &[(String, String)], ignore_case: bool) -> FrozenGraph {
    let mut g = Graph::with_ignore_case(ignore_case);
    files
        .iter()
        .for_each(|(f, t)| parse_into(&mut g, f, t).unwrap());
    g.validate();
    g.freeze()
}

/// Edit `which` (0 cost change; 1 reflow, 2 comment, 3 `\` continuation,
/// 4 `*N` as `*0N` and 5 member respacing, which the parser cannot see;
/// 6 member line break, 7 link added, 8 link removed, 9 swap with the
/// next statement, 10 a later mention respelled) on the `pick`-th
/// statement it fits.
fn edit(files: &mut [(String, String)], which: usize, pick: usize) -> Option<()> {
    let (mut seen, mut fits) = (HashSet::new(), Vec::new());
    for (f, (_, text)) in files.iter().enumerate() {
        for st in Statements::scan("m", text).unwrap().iter() {
            let Tok::Name(head) = st.toks[0] else {
                continue;
            };
            let has = |tok: Tok| st.toks.contains(&tok);
            let fit = match which {
                2 | 9 => true,
                4 => st.kind == Kind::Links && has(Tok::Star),
                5 | 6 => st.kind == Kind::NetOrAlias && has(Tok::LBrace),
                10 => st.kind == Kind::Links && seen.contains(&head.to_ascii_lowercase()),
                _ => st.kind == Kind::Links && has(Tok::LParen),
            };
            for t in st.toks {
                if let Tok::Name(name) = t {
                    seen.insert(name.to_ascii_lowercase());
                }
            }
            if fit {
                fits.push((f, st.span, head));
            }
        }
    }
    let i = pick % fits.len().max(1);
    let (f, span, head) = fits.get(i)?.clone();
    let (text, (a, mut b)) = (&files[f].1, (span.start, span.end));
    let s = &text[span];
    let new = match which {
        0 => s.replacen('(', "(1+", 1),
        1 => s.replacen(['\t', ' '], " \t  ", 1),
        2 => format!("# note\n{s} # changed"),
        3 => s.replacen(", ", ", \\\n\t", 1),
        4 => s.replacen('*', "*0", 1),
        5 => s.replace(", ", " ,\t").replacen('{', "{ ", 1),
        6 => s.replacen(", ", ",\n ", 1),
        7 => format!("{s}, {}(7)", fits[(i + 1) % fits.len()].2),
        8 => s[..s.rfind(", ")?].to_string(),
        9 => {
            let next = fits.get(i + 1).filter(|next| next.0 == f)?.1.clone();
            let swapped = format!("{}{}{s}", &text[next.clone()], &text[b..next.start]);
            b = next.end;
            swapped
        }
        _ => format!("{}{}", head.to_ascii_uppercase(), &s[head.len()..]),
    };
    files[f].1 = format!("{}{new}{}", &text[..a], &text[b..]);
    Some(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(128))]

    #[test]
    fn plans_agree_with_a_cold_freeze(seed in 0u64..1_000, which in 0usize..11, pick in 0usize..10_000) {
        let old = generate(&MapSpec::small(400, seed)).files;
        let mut new = old.clone();
        edit(&mut new, which, pick);
        let fold = which == 10;
        let frozen = cold(&old, fold);
        let plan = plan_delta(&old, &new, &frozen);
        let unchanged = matches!(plan, DeltaPlan::Unchanged);
        prop_assert!(unchanged || !(1..=5).contains(&which), "edit {which}: {plan:?}");
        match plan {
            DeltaPlan::Patch { patches } => {
                prop_assert!(frozen.with_rows_replaced(&patches).0 == cold(&new, fold));
            }
            DeltaPlan::Unchanged => prop_assert!(frozen == cold(&new, fold)),
            DeltaPlan::Fallback(_) => {}
        }
    }
}
