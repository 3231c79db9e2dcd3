//! `plan_delta` against a cold freeze, over one random edit to a small
//! generated world (networks, aliases, `dead`, `adjust`, `private`): a
//! `Patch` splices into exactly the cold freeze of the new text, and
//! `Unchanged` means that freeze is the old one. And `Parsed::plan_delta`,
//! which reads unchanged files from outlines it caches across a chain of
//! edits, against `plan_delta` over the same texts.

use pathalias_core::{parse_into, plan_delta, DeltaPlan, FrozenGraph, Graph, Parsed};
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
/// statement it fits, in file `only` when given.
fn edit(
    files: &mut [(String, String)],
    which: usize,
    pick: usize,
    only: Option<usize>,
) -> Option<()> {
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
            if fit && only.map_or(true, |only| only == f) {
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
        edit(&mut new, which, pick, None);
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

    /// A chain of edits of every kind, alternating between two files,
    /// planned by one `Parsed` carried from step to step (a clone with
    /// the edited file re-read, as a reload makes it), so later plans
    /// read the other files from outlines earlier ones cut. Every plan
    /// must be the one `plan_delta` makes from the texts alone, and
    /// once the files are outlined a plan scans only the edited file.
    #[test]
    fn cached_outlines_plan_as_cold_ones(
        seed in 0u64..1_000,
        steps in proptest::collection::vec((0usize..11, 0usize..10_000), 2..7),
        fold in any::<bool>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "pathalias-delta-model-{}-{seed}-{}",
            std::process::id(),
            steps[0].1
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |files: &[(String, String)]| -> Vec<_> {
            let path = |name: &String| dir.join(name.replace('/', "_"));
            files.iter().map(|(f, t)| std::fs::write(path(f), t).map(|()| path(f)).unwrap()).collect()
        };
        let mut texts = generate(&MapSpec::small(400, seed)).files;
        let paths = write(&texts);
        let mut parsed = Parsed::new();
        parsed.push_files(&paths).unwrap();
        // The texts under the names the inputs were read as.
        let names: Vec<String> = parsed.inputs().iter().map(|input| input.file().to_string()).collect();
        let named = |texts: &[(String, String)]| -> Vec<(String, String)> {
            names.iter().cloned().zip(texts.iter().map(|(_, t)| t.clone())).collect()
        };
        let mut outlined = false;
        for (at, &(which, pick)) in steps.iter().enumerate() {
            let mut new = texts.clone();
            if edit(&mut new, which, pick, Some(at % 2)).is_none() {
                continue;
            }
            write(&new);
            let mut next = parsed.clone();
            next.replace_file(at % 2, &paths[at % 2]).unwrap();
            let frozen = cold(&texts, fold);
            let (plan, scanned) = parsed.plan_delta(&next, &frozen);
            let cold_plan = plan_delta(&named(&texts), &named(&new), &frozen);
            prop_assert_eq!(format!("{plan:?}"), format!("{cold_plan:?}"), "edit {which} at step {at}");
            prop_assert!(!outlined || scanned <= 2, "step {at} scanned {scanned} texts");
            outlined |= scanned > 2;
            (parsed, texts) = (next, new);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
