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
//!
//! # Outlines
//!
//! The last gate, and the rows a patch rebuilds, need every file, not
//! just the edited one: a name's non-plain uses and a head's other rows
//! can sit anywhere. Each file is read from its *outline*, cut from one
//! scan of its text: the names its non-plain statements mention, and
//! the head and byte span of each plain row. Names are kept as 64-bit
//! key hashes, so an outline is a fraction of its text. A [`Parsed`]
//! caches each input's outline beside its text, in the same
//! allocation, and a reload that re-reads one file shares the others,
//! outlines included.
//!
//! The changed file's outline also bounds what a plan scans of it. The
//! bytes the old and new texts share at the front and at the back are
//! widened to the nearest plain rows the old outline lists: a row start
//! is a clean scanner state (outside braces, just past an end of line),
//! so only the window between them is scanned, old and new. The new
//! text's outline is spliced from the old one (the window's rows
//! replaced, later spans moved by the change in length) and cached with
//! it, so once every file has been outlined a plan scans no whole text.
//! An edit that is not plain leaves the new outline to be cut by a
//! later plan, and one that changes which names a statement mentions
//! scans the old text outside the window to check first mentions.
//!
//! A hash can collide, so no hash is trusted as proof. A row whose head
//! hashes like a dirty head is re-scanned from its span, and it joins
//! the patch only if its head really is that name; a collision costs
//! one re-scan. A name that hashes like a non-plain name makes the plan
//! fall back, so a collision there costs a full reload, never a wrong
//! answer. A map crafted to collide can therefore make planning as
//! slow as re-scanning every row, or every reload full, and no worse.

use crate::stages::{Input, Parsed};
use pathalias_graph::{FrozenGraph, NodeId, RowPatch};
use pathalias_parser::{parse_into, Kind, ParseError, Statement, Statements, Tok};
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
/// `old`. Every old text is outlined on the spot; a
/// caller that plans again and again keeps its inputs in a [`Parsed`]
/// and calls [`Parsed::plan_delta`], which cuts each outline once.
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
    let old: Vec<Doc> = old.iter().map(Doc::from).collect();
    let new: Vec<Doc> = new.iter().map(Doc::from).collect();
    plan(&old, &new, frozen, &mut 0)
}

impl Parsed {
    /// [`plan_delta`] from `self`, the inputs `frozen` was built from,
    /// to `new`, their re-read, reading the files that did not change
    /// from their cached outlines. Returns the plan and how many file
    /// texts it scanned.
    ///
    /// An input's outline is cut the first time a plan needs it, or
    /// again when it was cut under the other `-i` fold; the changed
    /// file's new outline is spliced from its old one. When `new` is
    /// `self` with the changed files re-read ([`Parsed::replace_file`]
    /// on a clone), it shares every other input, so after the first
    /// plan a one-file cost edit scans no whole text, only the window
    /// around the edit.
    pub fn plan_delta(&self, new: &Parsed, frozen: &FrozenGraph) -> (DeltaPlan, usize) {
        let old: Vec<Doc> = self.inputs().iter().map(Doc::from).collect();
        let new: Vec<Doc> = new.inputs().iter().map(Doc::from).collect();
        let mut scanned = 0;
        let plan = plan(&old, &new, frozen, &mut scanned);
        (plan, scanned)
    }
}

impl Input {
    /// Whether the planner keeps an outline of this input and, if so,
    /// whether it is the one a scan of the text cuts. A plan splices
    /// the changed file's new outline from its old one instead of
    /// cutting it; this holds the two to each other in tests.
    #[doc(hidden)]
    pub fn outline_matches_text(&self) -> Option<bool> {
        let outline = self.outline.get()?;
        let cut = Outline::cut(&self.file, &self.text, outline.fold);
        Some(cut.is_ok_and(|cut| cut == *outline))
    }
}

/// One input as the planner reads it: its name, its text and, for an
/// input of a [`Parsed`], the slot its outline is cached in.
struct Doc<'p> {
    file: &'p str,
    text: &'p str,
    slot: Option<&'p OnceLock<Outline>>,
}

impl<'p> From<&'p (String, String)> for Doc<'p> {
    fn from((file, text): &'p (String, String)) -> Self {
        Doc {
            file,
            text,
            slot: None,
        }
    }
}

impl<'p> From<&'p Arc<Input>> for Doc<'p> {
    fn from(input: &'p Arc<Input>) -> Self {
        Doc {
            file: &input.file,
            text: &input.text,
            slot: Some(&input.outline),
        }
    }
}

impl<'p> Doc<'p> {
    /// The outline under `fold`: the cached one when it was cut under
    /// that fold, else one cut from the text now (counted in
    /// `scanned`).
    fn outline(&self, fold: bool, scanned: &mut usize) -> Result<Cow<'p, Outline>, ParseError> {
        if let Some(outline) = self.slot.and_then(OnceLock::get) {
            if outline.fold == fold {
                return Ok(Cow::Borrowed(outline));
            }
        }
        *scanned += 1;
        Ok(self.keep(Outline::cut(self.file, self.text, fold)?))
    }

    /// Caches `outline` when the slot is still empty.
    fn keep(&self, outline: Outline) -> Cow<'p, Outline> {
        let Some(slot) = self.slot else {
            return Cow::Owned(outline);
        };
        match slot.set(outline) {
            Ok(()) => Cow::Borrowed(slot.get().expect("just set")),
            Err(outline) => Cow::Owned(outline),
        }
    }
}

/// The one planner body, over inputs from either entry point.
fn plan(old: &[Doc<'_>], new: &[Doc<'_>], frozen: &FrozenGraph, scanned: &mut usize) -> DeltaPlan {
    if old.len() != new.len() {
        return DeltaPlan::Fallback("file set changed");
    }
    let mut changed: Option<usize> = None;
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        if o.file != n.file {
            return DeltaPlan::Fallback("file set changed");
        }
        // A re-read shares the inputs that did not move: same address.
        if !std::ptr::eq(o.text, n.text) && o.text != n.text {
            if changed.is_some() {
                return DeltaPlan::Fallback("multiple files changed");
            }
            changed = Some(i);
        }
    }
    let Some(ci) = changed else {
        return DeltaPlan::Unchanged;
    };
    let (od, nd) = (&old[ci], &new[ci]);
    let fold = frozen.ignore_case();
    let Ok(outline) = od.outline(fold, scanned) else {
        return DeltaPlan::Fallback("text does not scan");
    };
    let Ok(window) = Window::scan(od, nd, &outline) else {
        return DeltaPlan::Fallback("text does not scan");
    };

    // Longest common prefix and suffix of the window's statement lists;
    // what lies between them is the edit.
    let (before, after): (Vec<Statement>, Vec<Statement>) =
        (window.old.iter().collect(), window.new.iter().collect());
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
    let (was, is) = (&before[p..o - s], &after[p..n - s]);
    let edited = || was.iter().chain(is);
    if edited().any(|st| st.kind != Kind::Links) {
        // The new text is left for a later plan to outline.
        return DeltaPlan::Fallback("edit touches a non-plain statement");
    }
    // Spliced now, so that the new text keeps its outline whatever a
    // gate below decides, and no later plan scans it.
    let new_outline = nd.keep(outline.spliced(&window, &after));
    if edited().next().is_none() {
        return DeltaPlan::Unchanged;
    }

    // Node ids are assigned in first-mention order across the file
    // set; the edited file's mention sequence must be unchanged. Under
    // `-i` the graph also keeps each name as first spelled, so a first
    // mention must keep its spelling too. An edit that mentions the
    // same names, spelled the same, keeps both (every cost edit does);
    // any other is judged over the whole file, the statements outside
    // the window scanned from the old text.
    let (names_was, names_is) = (
        was.iter().flat_map(|st| mentions(st.toks)),
        is.iter().flat_map(|st| mentions(st.toks)),
    );
    if !names_was.eq(names_is) {
        *scanned += 1;
        let Ok((head, tail)) = window.outside(od) else {
            return DeltaPlan::Fallback("text does not scan");
        };
        let (head, tail): (Vec<Statement>, Vec<Statement>) =
            (head.iter().collect(), tail.iter().collect());
        let [was, is] = [&before, &after].map(|stmts| {
            let mut seen = HashSet::new();
            let names = head
                .iter()
                .chain(stmts)
                .chain(&tail)
                .flat_map(|st| mentions(st.toks));
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
    }

    // The dirty heads, and every name the edit touches.
    let mut dirty: Vec<NodeId> = Vec::new();
    let mut heads = HashSet::new();
    let mut head_keys = Vec::new();
    let mut touched = Vec::new();
    for st in edited() {
        for (k, name) in mentions(st.toks).enumerate() {
            let Some(id) = frozen.id_of(name) else {
                return DeltaPlan::Fallback("edited name is not in the snapshot");
            };
            if k == 0 {
                dirty.push(id);
                heads.insert(key(name, fold));
                head_keys.push(key_hash(name, fold));
            }
            touched.push(key_hash(name, fold));
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    head_keys.sort_unstable();
    head_keys.dedup();

    // Every file's outline: the changed file's was spliced above, the
    // others come from their cache or are cut here.
    let mut outlines = Vec::with_capacity(new.len());
    for doc in new[..ci].iter().chain(&new[ci + 1..]) {
        match doc.outline(fold, scanned) {
            Ok(outline) => outlines.push(outline),
            Err(_) => return DeltaPlan::Fallback("text does not scan"),
        }
    }
    outlines.insert(ci, new_outline);

    // Every plain statement whose head is dirty, in file order — link
    // order and duplicate handling must match a cold parse — re-scanned
    // from the spans each file's outline lists under a dirty head's
    // hash.
    let mut rows = String::new();
    let mut targets = Vec::new();
    for (doc, outline) in new.iter().zip(&outlines) {
        let mut spans: Vec<&Range<usize>> = head_keys
            .iter()
            .flat_map(|&head| outline.rows_headed(head))
            .collect();
        spans.sort_unstable_by_key(|span| span.start);
        for span in spans {
            let text = &doc.text[span.clone()];
            let Ok(view) = Statements::scan(doc.file, text) else {
                return DeltaPlan::Fallback("text does not scan");
            };
            let mut stmts = view.iter();
            let (Some(st), None) = (stmts.next(), stmts.next()) else {
                return DeltaPlan::Fallback("text does not scan");
            };
            let mut names = mentions(st.toks);
            let dirty_head = st.kind == Kind::Links
                && names
                    .next()
                    .is_some_and(|head| heads.contains(&key(head, fold)));
            if dirty_head {
                rows.push_str(text);
                rows.push('\n');
                targets.extend(names.map(|name| key_hash(name, fold)));
            }
        }
    }

    // The names with non-plain semantics anywhere (private scoping,
    // network membership, aliases, dead/delete/adjust marks, gateways)
    // the edit must stay clear of.
    let complex = |name: &u64| outlines.iter().any(|o| o.mentions_complex(*name));
    if touched.iter().any(complex) {
        return DeltaPlan::Fallback("edited name has non-plain semantics");
    }
    if targets.iter().any(complex) {
        // The statement resolves this target through file scoping the
        // scratch parse cannot reproduce.
        return DeltaPlan::Fallback("surviving target has non-plain semantics");
    }
    build_patches(&rows, frozen, &dirty)
}

/// The part of one changed file an edit can have moved, scanned in the
/// old text and in the new one. Both scans start at `start`, a plain
/// row at or before the first byte that differs (or the start of the
/// text), where the two texts are in the same scanner state. The old scan stops at `end`, a plain
/// row after the last byte that differs (or the end of the text), and
/// the new one where that row now starts, `end + shift`: from a
/// statement start in the bytes both texts end with, they scan alike.
/// The new scan stops at the first such row it reaches as a statement
/// start, which is a later one than the nearest when the edit changed
/// how the text around it scans (a `\` continuation, an opened `{`).
struct Window<'a> {
    start: usize,
    end: usize,
    /// How much longer the new text is than the old.
    shift: isize,
    old: Statements<'a>,
    new: Statements<'a>,
}

impl<'a> Window<'a> {
    fn scan(old: &Doc<'a>, new: &Doc<'a>, outline: &Outline) -> Result<Window<'a>, ParseError> {
        let (a, b) = (old.text.as_bytes(), new.text.as_bytes());
        let prefix = common_prefix(a, b);
        let synced = a.len() - common_suffix(&a[prefix..], &b[prefix..]);
        let shift = b.len() as isize - a.len() as isize;
        // The nearest plain rows: the last to start in the common
        // prefix, and the first to start in the common suffix.
        let (mut start, mut next) = (0, a.len());
        for (_, span) in &outline.rows {
            if span.start <= prefix {
                start = start.max(span.start);
            }
            if span.start >= synced {
                next = next.min(span.start);
            }
        }
        let mut later: Option<Vec<usize>> = None;
        let (new_view, stop) = Statements::scan_from(new.file, new.text, start, |at| {
            let Some(at) = at.checked_add_signed(-shift).filter(|&at| at >= synced) else {
                return false;
            };
            at == next
                || later
                    .get_or_insert_with(|| {
                        let rows = outline.rows.iter().map(|(_, span)| span.start);
                        let mut later: Vec<usize> = rows.filter(|&at| at >= synced).collect();
                        later.sort_unstable();
                        later
                    })
                    .binary_search(&at)
                    .is_ok()
        })?;
        let end = if stop == b.len() {
            a.len()
        } else {
            stop.wrapping_add_signed(-shift)
        };
        let (old_view, _) = Statements::scan_from(old.file, old.text, start, |at| at >= end)?;
        Ok(Window {
            start,
            end,
            shift,
            old: old_view,
            new: new_view,
        })
    }

    /// The old text's statements before the window and after it.
    fn outside(&self, old: &Doc<'a>) -> Result<(Statements<'a>, Statements<'a>), ParseError> {
        let (head, _) = Statements::scan_from(old.file, old.text, 0, |at| at >= self.start)?;
        let (tail, _) = Statements::scan_from(old.file, old.text, self.end, |_| false)?;
        Ok((head, tail))
    }
}

/// How many bytes `a` and `b` share at the front: eight at a time,
/// then one.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let at = words.take_while(|(x, y)| x == y).count() * 8;
    let bytes = a[at..].iter().zip(&b[at..]);
    at + bytes.take_while(|(x, y)| x == y).count()
}

/// How many bytes `a` and `b` share at the back.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let words = a.rchunks_exact(8).zip(b.rchunks_exact(8));
    let at = words.take_while(|(x, y)| x == y).count() * 8;
    let bytes = a[..a.len() - at]
        .iter()
        .rev()
        .zip(b[..b.len() - at].iter().rev());
    at + bytes.take_while(|(x, y)| x == y).count()
}

/// What the planner needs of a file it did not change, cut from one
/// scan of its text: the names its non-plain statements mention, and
/// each plain row's head and byte span. Names are [`key_hash`]es.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outline {
    /// Whether names were folded (`-i`) when the outline was cut.
    fold: bool,
    /// Every name a non-plain statement mentions, sorted, once each.
    complex: Vec<u64>,
    /// Per [`Kind::Links`] statement: its head and its span, sorted by
    /// head, then by position.
    rows: Vec<(u64, Range<usize>)>,
}

impl Outline {
    fn cut(file: &str, text: &str, fold: bool) -> Result<Outline, ParseError> {
        Ok(Outline::of(&Statements::scan(file, text)?, fold))
    }

    fn of(view: &Statements<'_>, fold: bool) -> Outline {
        let (mut complex, mut rows) = (Vec::new(), Vec::new());
        for st in view.iter() {
            let mut names = mentions(st.toks).map(|name| key_hash(name, fold));
            if st.kind != Kind::Links {
                complex.extend(names);
            } else if let Some(head) = names.next() {
                rows.push((head, st.span));
            }
        }
        complex.sort_unstable();
        complex.dedup();
        complex.shrink_to_fit();
        rows.sort_unstable_by_key(|(head, span)| (*head, span.start));
        rows.shrink_to_fit();
        Outline {
            fold,
            complex,
            rows,
        }
    }

    /// This outline of a window's old text, made the new text's: the
    /// window's rows replaced by `after`'s (its statements in the new
    /// text) and every later row moved by the shift. Only for a plain
    /// edit: the window's non-plain statements are then the same in
    /// both texts, so `complex` stands.
    fn spliced(&self, window: &Window<'_>, after: &[Statement<'_, '_>]) -> Outline {
        let moved = |at: usize| at.wrapping_add_signed(window.shift);
        let mut rows = Vec::with_capacity(self.rows.len() + after.len());
        for (head, span) in &self.rows {
            if span.start < window.start {
                rows.push((*head, span.clone()));
            } else if span.start >= window.end {
                rows.push((*head, moved(span.start)..moved(span.end)));
            }
        }
        for st in after.iter().filter(|st| st.kind == Kind::Links) {
            if let Some(head) = mentions(st.toks).next() {
                rows.push((key_hash(head, self.fold), st.span.clone()));
            }
        }
        // Two sorted runs, the second short: a stable sort merges them.
        rows.sort_by_key(|(head, span)| (*head, span.start));
        Outline {
            fold: self.fold,
            complex: self.complex.clone(),
            rows,
        }
    }

    fn mentions_complex(&self, name: u64) -> bool {
        self.complex.binary_search(&name).is_ok()
    }

    /// The rows whose head hashes to `head`, in file order.
    fn rows_headed(&self, head: u64) -> impl Iterator<Item = &Range<usize>> {
        let from = self.rows.partition_point(|(h, _)| *h < head);
        let to = from + self.rows[from..].partition_point(|(h, _)| *h == head);
        self.rows[from..to].iter().map(|(_, span)| span)
    }
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

/// [`key`] as 64 bits, for outlines: a multiply-rotate hash over the
/// folded name, eight bytes at a time.
fn key_hash(name: &str, fold: bool) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (name.len() as u64).wrapping_mul(K);
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        if fold {
            word.make_ascii_lowercase();
        }
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(K)
            .rotate_left(29);
    }
    (h ^ (h >> 32)).wrapping_mul(K)
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

    fn parsed(inputs: &[(String, String)]) -> Parsed {
        let mut parsed = Parsed::new();
        inputs.iter().for_each(|(f, t)| parsed.push_str(f, t));
        parsed
    }

    /// `parsed` with input `index` re-read as `text`, sharing the rest.
    fn reread(parsed: &Parsed, index: usize, text: &str) -> Parsed {
        let mut new = parsed.clone();
        new.replace_text(index, text);
        new
    }

    #[test]
    fn parsed_plans_scan_no_whole_text_once_outlined() {
        let old = inputs(&[
            ("one", "a b(10)\nb c(10)\n"),
            ("two", "b d(10)\nd a(1)\n"),
            ("three", "c e(3)\nprivate {z}\nz a(1)\n"),
        ]);
        let frozen = frozen_of(&old);
        let cached = parsed(&old);
        let mut new = old.clone();
        new[0].1 = "a b(10)\nb c(7)\n".to_string();
        let first = reread(&cached, 0, &new[0].1);
        let (plan, scanned) = cached.plan_delta(&first, &frozen);
        assert_eq!(
            format!("{plan:?}"),
            format!("{:?}", plan_delta(&old, &new, &frozen))
        );
        assert!(matches!(plan, DeltaPlan::Patch { .. }));
        assert_eq!(scanned, 3, "each old text outlined once");

        // The next edit, to another file, finds every file outlined,
        // the first edit's new text included (its outline spliced), and
        // scans only the edit's window.
        let frozen = frozen_of(&new);
        let mut newer = new.clone();
        newer[1].1 = "b d(12)\nd a(1)\n".to_string();
        let second = reread(&first, 1, &newer[1].1);
        let (plan, scanned) = first.plan_delta(&second, &frozen);
        assert_eq!(
            format!("{plan:?}"),
            format!("{:?}", plan_delta(&new, &newer, &frozen))
        );
        assert_eq!(scanned, 0);
        let patches = expect_patch(plan);
        assert_eq!(frozen.with_rows_replaced(&patches).0, frozen_of(&newer));
    }

    #[test]
    fn outlines_cut_without_fold_are_cut_again_under_it() {
        // Under `-i`, `B` in the second file is `b`, so b's rebuilt row
        // takes a link from there: an outline cut without folding
        // would miss it.
        let old = inputs(&[
            ("one", "A b(10)\nb c(5)\n"),
            ("two", "C a(3)\nB e(2)\nN = {q}(1)\n"),
        ]);
        let mut new = old.clone();
        new[0].1 = "A b(10)\nb c(6)\n".to_string();
        let cached = parsed(&old);
        let edited = reread(&cached, 0, &new[0].1);
        let (_, scanned) = cached.plan_delta(&edited, &frozen_of(&old));
        assert_eq!(scanned, 2, "outlined without -i");

        let mut g = pathalias_graph::Graph::with_ignore_case(true);
        for (f, t) in &old {
            parse_into(&mut g, f, t).unwrap();
        }
        g.validate();
        let folding = g.freeze();
        let (plan, scanned) = cached.plan_delta(&edited, &folding);
        assert_eq!(scanned, 2, "the unfolded outlines are cut again");
        let cold = plan_delta(&old, &new, &folding);
        assert_eq!(format!("{plan:?}"), format!("{cold:?}"));
        let patches = expect_patch(plan);
        assert_eq!(
            patches[0].edges.len(),
            2,
            "c from one file, e from the other"
        );
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
