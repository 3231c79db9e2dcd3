//! `plan_delta` against a cold freeze, over one random edit to a small
//! generated world (networks, aliases, `dead`, `adjust`, `private`): a
//! `Patch` splices into exactly the cold freeze of the new text, and
//! `Unchanged` means that freeze is the old one. And `Parsed::plan_delta`,
//! which reads every file from outlines it caches, and splices, across a
//! chain of edits, against `plan_delta` over the same texts. Then the
//! edits whose window the planner must widen or run past, one by one.

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
    /// read the files from outlines earlier ones cut or spliced. Every
    /// plan must be the one `plan_delta` makes from the texts alone,
    /// every outline kept must be the one a scan of its text cuts, and
    /// once the files are outlined a cost edit scans no whole text (any
    /// other edit at most the old text outside its window).
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
        for (at, &(which, pick)) in steps.iter().enumerate() {
            let mut new = texts.clone();
            if edit(&mut new, which, pick, Some(at % 2)).is_none() {
                continue;
            }
            write(&new);
            let mut next = parsed.clone();
            next.replace_file(at % 2, &paths[at % 2]).unwrap();
            let frozen = cold(&texts, fold);
            let outlined = parsed.inputs().iter().all(|input| input.outline_matches_text().is_some());
            let (plan, scanned) = parsed.plan_delta(&next, &frozen);
            let cold_plan = plan_delta(&named(&texts), &named(&new), &frozen);
            prop_assert_eq!(format!("{plan:?}"), format!("{cold_plan:?}"), "edit {which} at step {at}");
            prop_assert!(
                !outlined || scanned <= usize::from(which != 0),
                "edit {which} at step {at} scanned {scanned} texts"
            );
            for input in next.inputs() {
                prop_assert_ne!(input.outline_matches_text(), Some(false), "edit {which} at step {at}");
            }
            (parsed, texts) = (next, new);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Plans the edit of input `file` to `text` with `Parsed::plan_delta`,
/// holds it to `plan_delta` over the same texts and a patch to a cold
/// freeze, and returns the verdict: `Patch`, `Unchanged` or the
/// fallback reason.
fn verdict(files: &[(&str, &str)], file: usize, text: &str, fold: bool) -> String {
    let old: Vec<(String, String)> = files
        .iter()
        .map(|(f, t)| (f.to_string(), t.to_string()))
        .collect();
    let mut new = old.clone();
    new[file].1 = text.to_string();
    let [before, after] = [&old, &new].map(|files| {
        let mut parsed = Parsed::new();
        files.iter().for_each(|(f, t)| parsed.push_str(f, t));
        parsed
    });
    let frozen = cold(&old, fold);
    let (plan, _) = before.plan_delta(&after, &frozen);
    assert_eq!(
        format!("{plan:?}"),
        format!("{:?}", plan_delta(&old, &new, &frozen))
    );
    assert_ne!(after.inputs()[file].outline_matches_text(), Some(false));
    match plan {
        DeltaPlan::Patch { patches } => {
            assert!(frozen.with_rows_replaced(&patches).0 == cold(&new, fold));
            "Patch".to_string()
        }
        DeltaPlan::Unchanged => "Unchanged".to_string(),
        DeltaPlan::Fallback(why) => why.to_string(),
    }
}

const RING: &str = "a b(10)\nb c(20)\nc a(30)\n";

#[test]
fn edits_at_the_first_and_last_statement() {
    let files = [("m", RING)];
    assert_eq!(
        verdict(&files, 0, "a b(11)\nb c(20)\nc a(30)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(20)\nc a(31)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(20)\nc a(31)", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(20)\nc a(30)\nc b(1)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "b c(1)\na b(10)\nb c(20)\nc a(30)\n", false),
        "first-mention sequence changed"
    );
    assert_eq!(
        verdict(&files, 0, "b c(20)\nc a(30)\n", false),
        "first-mention sequence changed"
    );
    assert_eq!(verdict(&files, 0, "a b(10)\nb c(20)\n", false), "Patch");
}

#[test]
fn edits_across_a_continuation_or_a_comment() {
    let files = [("m", "a b(10), \\\n  c(5)\nb c(20)\nc a(30)\n")];
    // A cost on a continued line, and a continuation taken out.
    assert_eq!(
        verdict(&files, 0, "a b(10), \\\n  c(6)\nb c(20)\nc a(30)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10), c(5)\nb c(20)\nc a(30)\n", false),
        "Unchanged"
    );
    // A continuation put in joins two rows into one: the new scan runs
    // past the row the old one stops at.
    let files = [("m", "a b(10)\nx c(20)\ny a(5)\n")];
    let joined = "a b(10), \\\nx c(20)\ny a(5)\n";
    assert_eq!(
        verdict(&files, 0, joined, false),
        "edited statements do not parse"
    );
    // A statement commented out, and one brought back from a comment.
    let files = [("m", "a b(10)\n#b c(5)\nb c(20)\nc a(30)\n")];
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(5)\nb c(20)\nc a(30)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10)\n#b c(5)\n#b c(20)\nc a(30)\n", false),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "a b(10)\n#b c(5)\n#b c(20)\n#c a(30)\n", false),
        "first-mention sequence changed"
    );
    assert_eq!(
        verdict(
            &files,
            0,
            "a b(10)\n#b c(6) # now\nb c(20)\nc a(30)\n",
            false
        ),
        "Unchanged"
    );
}

#[test]
fn an_edit_that_opens_a_brace() {
    let files = [("m", "a b(10)\nb c(20)\nc a(30)\nd e(1)\n")];
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(20) {\nc a(30)\nd e(1)\n", false),
        "text does not scan"
    );
    let closed = "a b(10)\nb c(20) {\nc a(30)\n}\nd e(1)\n";
    assert_eq!(
        verdict(&files, 0, closed, false),
        "edited statements do not parse"
    );
    let private = "a b(10)\nprivate {\nc}\nb c(20)\nc a(30)\nd e(1)\n";
    assert_eq!(
        verdict(&files, 0, private, false),
        "edit touches a non-plain statement"
    );
}

#[test]
fn a_link_to_a_name_first_mentioned_later_in_the_file() {
    let files = [("m", "a b(10)\nb c(20)\nq z(1)\nz a(5)\n")];
    // z is first mentioned after a's row: naming it there moves its id.
    assert_eq!(
        verdict(&files, 0, "a b(10), z(3)\nb c(20)\nq z(1)\nz a(5)\n", false),
        "first-mention sequence changed"
    );
    // c is mentioned before q's row: naming it there moves nothing.
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(20)\nq z(1), c(4)\nz a(5)\n", false),
        "Patch"
    );
    // A name whose first mention leaves one row and turns up again in
    // the next keeps its place in the sequence.
    let files = [("m", "a b(1)\nq n(5)\nn z(1)\n")];
    assert_eq!(verdict(&files, 0, "a b(1)\nq\nn z(1)\n", false), "Patch");
}

#[test]
fn a_respelling_under_ignore_case() {
    let files = [("m", "A b(10)\nb c(5)\nc A(1)\n")];
    assert_eq!(
        verdict(&files, 0, "a b(10)\nb c(5)\nc A(1)\n", true),
        "first mention respelled"
    );
    assert_eq!(
        verdict(&files, 0, "A b(10)\nb c(5)\nc a(1)\n", true),
        "Patch"
    );
    assert_eq!(
        verdict(&files, 0, "A b(10)\nB c(5)\nc A(1)\n", true),
        "Patch"
    );
    // Without folding, a respelling is another name.
    assert_eq!(
        verdict(&files, 0, "A b(10)\nb c(5)\nc a(1)\n", false),
        "first-mention sequence changed"
    );
}
