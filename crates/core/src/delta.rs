//! Entry-level parse diffing for incremental reload.
//!
//! A map edit is usually one line in one file; re-running parse, build,
//! freeze, map and print over a million-node world to absorb it is the
//! O(world) cost the incremental reload path exists to avoid. This
//! module compares the previous input texts against the re-read ones at
//! *statement* granularity and, when the edit is provably safe, emits
//! the [`RowPatch`] set that [`FrozenGraph::with_rows_replaced`] turns
//! into a patched snapshot — skipping the build and freeze stages
//! entirely.
//!
//! Statements are read through the parser's own statement view
//! ([`Statements`]) and compare by their tokens, so an edit the parser
//! cannot see — a comment, a reflowed row, a `\` continuation, `(010)`
//! for `(10)` — leaves the file *unchanged* and costs nothing.
//!
//! "Provably safe" is the whole game. Pathalias input has non-local
//! semantics — `private` rescopes names per file, `dead`/`delete`/
//! `adjust` rewrite flags declared elsewhere, networks and aliases
//! fabricate edges on *other* nodes' rows, and node ids (which every
//! frozen structure is keyed by) are assigned in first-mention order
//! across the whole file set. The planner therefore only accepts an
//! edit when:
//!
//! * exactly one input file changed;
//! * every removed and added statement is *plain*: of kind
//!   [`Kind::Links`], a `host target, target...` link list;
//! * the file's first-mention sequence of names is unchanged, so every
//!   node keeps its id (mentions are the names outside parentheses:
//!   `(HOURLY*4)` mentions no host);
//! * no name touched by the edit — and no target of any surviving
//!   statement whose row is being rebuilt — appears anywhere in a
//!   non-plain statement, which keeps the edit clear of `private`
//!   scoping, network membership, aliasing, adjustments and the rest.
//!
//! Everything else falls back to the full pipeline, which stays the
//! oracle: the reload path proves the patched snapshot equal to a cold
//! rebuild before trusting it further.

use pathalias_graph::{FrozenGraph, NodeId, RowPatch};
use pathalias_parser::{parse_into, Kind, Statement, Statements, Tok};
use std::borrow::Cow;
use std::collections::HashSet;

/// The planner's verdict on one re-read of the input files.
#[derive(Debug)]
pub enum DeltaPlan {
    /// The inputs scan to the same statements (they are byte-identical,
    /// or differ only in comments, spacing, continuations or how a
    /// number is written): nothing to do.
    Unchanged,
    /// The edit is safe to absorb as row replacements.
    Patch {
        /// Replacement rows, sorted by node id, one per dirty head.
        patches: Vec<RowPatch>,
    },
    /// The edit could not be proven safe; re-run the full pipeline.
    /// The string names the first gate that failed, for telemetry.
    Fallback(&'static str),
}

/// Diffs `old` against `new` (parallel `(file, text)` lists) and plans
/// the cheapest safe reload against `frozen`, the snapshot built from
/// `old`.
///
/// # Examples
///
/// ```
/// use pathalias_core::{plan_delta, DeltaPlan};
///
/// let old = vec![("m".to_string(), "a b(10)\nb c(20)\n".to_string())];
/// let new = vec![("m".to_string(), "a b(10)\nb c(5)\n".to_string())];
/// let frozen = pathalias_parser::parse("a b(10)\nb c(20)\n").unwrap().freeze();
/// match plan_delta(&old, &new, &frozen) {
///     DeltaPlan::Patch { patches } => assert_eq!(patches.len(), 1),
///     other => panic!("expected a patch, got {other:?}"),
/// }
/// ```
pub fn plan_delta(
    old: &[(String, String)],
    new: &[(String, String)],
    frozen: &FrozenGraph,
) -> DeltaPlan {
    if old.len() != new.len() {
        return DeltaPlan::Fallback("file set changed");
    }
    let mut changed: Option<usize> = None;
    for (i, ((of, ot), (nf, nt))) in old.iter().zip(new).enumerate() {
        if of != nf {
            return DeltaPlan::Fallback("file set changed");
        }
        if ot != nt {
            if changed.is_some() {
                return DeltaPlan::Fallback("multiple files changed");
            }
            changed = Some(i);
        }
    }
    let Some(ci) = changed else {
        return DeltaPlan::Unchanged;
    };
    let ((of, ot), (nf, nt)) = (&old[ci], &new[ci]);
    let (Ok(old_view), Ok(new_view)) = (Statements::scan(of, ot), Statements::scan(nf, nt)) else {
        return DeltaPlan::Fallback("text does not scan");
    };
    let fold = frozen.ignore_case();

    // Longest common prefix and suffix of the statement lists; the
    // window between them is the edit.
    let (before, after): (Vec<Statement>, Vec<Statement>) =
        (old_view.iter().collect(), new_view.iter().collect());
    let same = |i: usize, j: usize| before[i].toks == after[j].toks;
    let (o, n) = (before.len(), after.len());
    let mut p = 0;
    while p < o.min(n) && same(p, p) {
        p += 1;
    }
    let mut s = 0;
    while s < o.min(n) - p && same(o - 1 - s, n - 1 - s) {
        s += 1;
    }
    let edited = || before[p..o - s].iter().chain(&after[p..n - s]);
    if edited().next().is_none() {
        return DeltaPlan::Unchanged;
    }
    if edited().any(|st| st.kind != Kind::Links) {
        return DeltaPlan::Fallback("edit touches a non-plain statement");
    }

    // Node ids are assigned in first-mention order across the file
    // set; the edited file's mention sequence must be unchanged. Under
    // `-i` the graph also keeps each name as first spelled, so a first
    // mention must keep its spelling too.
    let [was, is] = [&before, &after].map(|stmts| {
        let mut seen = HashSet::new();
        let names = stmts.iter().flat_map(|st| mentions(st.toks));
        names
            .filter(|&name| seen.insert(key(name, fold)))
            .collect::<Vec<_>>()
    });
    if was != is {
        let same_keys = was.len() == is.len()
            && was
                .iter()
                .zip(&is)
                .all(|(a, b)| key(a, fold) == key(b, fold));
        return DeltaPlan::Fallback(if same_keys {
            "first mention respelled"
        } else {
            "first-mention sequence changed"
        });
    }

    // The dirty heads, and every name the edit touches.
    let mut dirty: Vec<NodeId> = Vec::new();
    let mut heads = HashSet::new();
    let mut touched = Vec::new();
    for st in edited() {
        for (k, name) in mentions(st.toks).enumerate() {
            let Some(id) = frozen.id_of(name) else {
                return DeltaPlan::Fallback("edited name is not in the snapshot");
            };
            if k == 0 {
                dirty.push(id);
                heads.insert(key(name, fold));
            }
            touched.push(key(name, fold));
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    drop(before);
    drop(old_view);

    // One pass over the new file set. It collects the names with
    // non-plain semantics anywhere (private scoping, network
    // membership, aliases, dead/delete/adjust marks, gateways), which
    // the edit must stay clear of, and every plain statement whose
    // head is dirty, in file order — link order and duplicate handling
    // must match a cold parse.
    let mut complex = HashSet::new();
    let mut rows = String::new();
    let mut targets = Vec::new();
    for (i, (file, text)) in new.iter().enumerate() {
        let rescan = (i != ci).then(|| Statements::scan(file, text));
        let view = match &rescan {
            None => &new_view,
            Some(Ok(view)) => view,
            Some(Err(_)) => return DeltaPlan::Fallback("text does not scan"),
        };
        for st in view.iter() {
            let mut names = mentions(st.toks).map(|name| key(name, fold));
            if st.kind != Kind::Links {
                complex.extend(names);
            } else if names.next().is_some_and(|head| heads.contains(&head)) {
                rows.push_str(&text[st.span.clone()]);
                rows.push('\n');
                targets.extend(names);
            }
        }
    }
    if touched.iter().any(|name| complex.contains(name)) {
        return DeltaPlan::Fallback("edited name has non-plain semantics");
    }
    if targets.iter().any(|name| complex.contains(name)) {
        // The statement resolves this target through file scoping the
        // scratch parse cannot reproduce.
        return DeltaPlan::Fallback("surviving target has non-plain semantics");
    }
    build_patches(&rows, frozen, &dirty)
}

/// Re-derives the full replacement row for every dirty head by running
/// its surviving plain statements (`rows`, from every file) through the
/// real parser, then mapping the scratch graph's links back by name.
fn build_patches(rows: &str, frozen: &FrozenGraph, dirty: &[NodeId]) -> DeltaPlan {
    let mut scratch = pathalias_graph::Graph::with_ignore_case(frozen.ignore_case());
    if parse_into(&mut scratch, "<delta>", rows).is_err() {
        return DeltaPlan::Fallback("edited statements do not parse");
    }

    let mut patches = Vec::with_capacity(dirty.len());
    for &node in dirty {
        let mut edges = Vec::new();
        if let Some(sh) = scratch.try_node(frozen.name(node)) {
            for (_, l) in scratch.links_from(sh) {
                let Some(to) = frozen.id_of(scratch.name(l.to)) else {
                    return DeltaPlan::Fallback("edited target is not in the snapshot");
                };
                edges.push((to, l.cost, l.op, l.flags));
            }
            // The adjacency list is stored newest-first; the patch,
            // like the freeze, wants declaration order.
            edges.reverse();
        }
        patches.push(RowPatch { node, edges });
    }
    DeltaPlan::Patch { patches }
}

/// The host names a statement mentions: its names outside parentheses
/// (inside them are cost symbols).
fn mentions<'s, 'a>(toks: &'s [Tok<'a>]) -> impl Iterator<Item = &'a str> + 's {
    let mut depth = 0usize;
    toks.iter().filter_map(move |t| {
        depth = match t {
            Tok::LParen => depth + 1,
            Tok::RParen => depth.saturating_sub(1),
            _ => depth,
        };
        match t {
            Tok::Name(name) if depth == 0 => Some(*name),
            _ => None,
        }
    })
}

/// A name as the graph keys it: folded under `-i`.
fn key(name: &str, fold: bool) -> Cow<'_, str> {
    if fold && name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(texts: &[(&str, &str)]) -> Vec<(String, String)> {
        texts
            .iter()
            .map(|(f, t)| (f.to_string(), t.to_string()))
            .collect()
    }

    fn frozen_of(inputs: &[(String, String)]) -> FrozenGraph {
        let pairs: Vec<(&str, &str)> = inputs
            .iter()
            .map(|(f, t)| (f.as_str(), t.as_str()))
            .collect();
        pathalias_parser::parse_files(&pairs).unwrap().freeze()
    }

    fn expect_patch(plan: DeltaPlan) -> Vec<RowPatch> {
        match plan {
            DeltaPlan::Patch { patches } => patches,
            other => panic!("expected Patch, got {other:?}"),
        }
    }

    #[test]
    fn identical_inputs_are_unchanged() {
        let old = inputs(&[("m", "a b(10)\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &old.clone(), &frozen),
            DeltaPlan::Unchanged
        ));
    }

    #[test]
    fn comment_only_edit_is_unchanged() {
        let old = inputs(&[("m", "a b(10) # slow\n")]);
        let new = inputs(&[("m", "a b(10) # fast now\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Unchanged
        ));
    }

    #[test]
    fn cost_edit_patches_one_row() {
        let old = inputs(&[("m", "a b(10)\nb c(20)\nc a(30)\n")]);
        let new = inputs(&[("m", "a b(10)\nb c(5)\nc a(30)\n")]);
        let frozen = frozen_of(&old);
        let patches = expect_patch(plan_delta(&old, &new, &frozen));
        assert_eq!(patches.len(), 1);
        let b = frozen.id_of("b").unwrap();
        let c = frozen.id_of("c").unwrap();
        assert_eq!(patches[0].node, b);
        assert_eq!(patches[0].edges.len(), 1);
        assert_eq!(patches[0].edges[0].0, c);
        assert_eq!(patches[0].edges[0].1, 5);
    }

    #[test]
    fn patched_snapshot_equals_cold_freeze() {
        // The planner's output fed through with_rows_replaced must be
        // indistinguishable from a full re-freeze of the new text.
        let old = inputs(&[("m", "hub a(10), b(20)\na x(10)\nb x(10)\nx y(5)\n")]);
        let new = inputs(&[("m", "hub a(10), b(20)\na x(10), y(50)\nb x(10)\nx y(5)\n")]);
        let frozen = frozen_of(&old);
        let patches = expect_patch(plan_delta(&old, &new, &frozen));
        let (patched, _) = frozen.with_rows_replaced(&patches);
        assert_eq!(patched, frozen_of(&new));
    }

    #[test]
    fn link_removal_and_symbolic_costs() {
        let old = inputs(&[("m", "a b(HOURLY), c(HOURLY*4)\nb c(10)\n")]);
        let new = inputs(&[("m", "a b(HOURLY)\nb c(10)\n")]);
        let frozen = frozen_of(&old);
        // c vanishes from a's row but stays mentioned via b's — the
        // mention walk must not count HOURLY as a host.
        let patches = expect_patch(plan_delta(&old, &new, &frozen));
        let (patched, _) = frozen.with_rows_replaced(&patches);
        assert_eq!(patched, frozen_of(&new));
    }

    #[test]
    fn new_name_falls_back() {
        let old = inputs(&[("m", "a b(10)\n")]);
        let new = inputs(&[("m", "a b(10), newhost(5)\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn vanished_mention_falls_back() {
        let old = inputs(&[("m", "a b(10)\na c(10)\n")]);
        let new = inputs(&[("m", "a b(10)\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn non_plain_edit_falls_back() {
        let old = inputs(&[("m", "a b(10)\nN = {a, b}(5)\n")]);
        let new = inputs(&[("m", "a b(10)\nN = {a, b}(7)\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn edit_touching_network_member_falls_back() {
        let old = inputs(&[("m", "a b(10)\nN = {b, c}(5)\nc d(1)\n")]);
        let new = inputs(&[("m", "a b(20)\nN = {b, c}(5)\nc d(1)\n")]);
        let frozen = frozen_of(&old);
        // b is a network member: its row carries fabricated edges the
        // scratch parse would lose.
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn edit_touching_private_name_falls_back() {
        let old = inputs(&[
            ("one", "a b(10)\n"),
            ("two", "private {b}\nb z(5)\nq b(9)\n"),
        ]);
        let mut new = old.clone();
        new[0].1 = "a b(20)\n".to_string();
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn surviving_statement_with_private_target_falls_back() {
        // The edit itself touches only clean names, but rebuilding q's
        // row would re-resolve its other statement's target `p`, which
        // is privately scoped in its own file.
        let old = inputs(&[
            ("one", "private {p}\np x(1)\nq p(5)\n"),
            ("two", "q r(10)\n"),
        ]);
        let mut new = old.clone();
        new[1].1 = "q r(20)\n".to_string();
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn reordered_first_mentions_fall_back() {
        let old = inputs(&[("m", "a b(10)\nc d(10)\n")]);
        let new = inputs(&[("m", "c d(10)\na b(10)\n")]);
        let frozen = frozen_of(&old);
        assert!(matches!(
            plan_delta(&old, &new, &frozen),
            DeltaPlan::Fallback(_)
        ));
    }

    #[test]
    fn multi_file_edit_patches_row_with_links_from_both_files() {
        // b's row is fed by statements in both files; only one file
        // changed, but the rebuilt row must include both.
        let old = inputs(&[("one", "a b(10)\nb c(10)\n"), ("two", "b d(10)\nd a(1)\n")]);
        let mut new = old.clone();
        new[0].1 = "a b(10)\nb c(7)\n".to_string();
        let frozen = frozen_of(&old);
        let patches = expect_patch(plan_delta(&old, &new, &frozen));
        let (patched, _) = frozen.with_rows_replaced(&patches);
        assert_eq!(patched, frozen_of(&new));
    }

    #[test]
    fn duplicate_links_keep_cheapest_like_cold_parse() {
        let old = inputs(&[("m", "a b(300)\na b(100)\nb a(5)\n")]);
        let new = inputs(&[("m", "a b(300)\na b(50)\nb a(5)\n")]);
        let frozen = frozen_of(&old);
        let patches = expect_patch(plan_delta(&old, &new, &frozen));
        let (patched, _) = frozen.with_rows_replaced(&patches);
        assert_eq!(patched, frozen_of(&new));
    }

    #[test]
    fn ignore_case_folds_mentions() {
        // A folding graph keeps a name as first spelled, so respelling
        // a first mention changes what a cold run prints: fall back.
        // Respelling a later mention changes nothing and patches.
        let old = inputs(&[("m", "A b(10)\nb c(5)\n")]);
        let mut g = pathalias_graph::Graph::with_ignore_case(true);
        pathalias_parser::parse_into(&mut g, "m", &old[0].1).unwrap();
        g.validate();
        let frozen = g.freeze();
        let respelled = inputs(&[("m", "a B(10)\nb c(5)\n")]);
        assert!(matches!(
            plan_delta(&old, &respelled, &frozen),
            DeltaPlan::Fallback("first mention respelled")
        ));
        let later = inputs(&[("m", "A b(10)\nB c(5)\n")]);
        let patches = expect_patch(plan_delta(&old, &later, &frozen));
        let (patched, _) = frozen.with_rows_replaced(&patches);
        assert_eq!(patched, frozen);
    }
}
