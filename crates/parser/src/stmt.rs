//! The statement view: one file cut into statements by the scanner.
//!
//! The delta planner (`pathalias_core::plan_delta`) compares, classifies
//! and re-parses a file statement by statement. [`Statements::scan`] cuts
//! them with the parser's own [`Lexer`]: comments, blank lines and `\`
//! continuations are gone, an end of line outside braces ends a
//! statement, and one inside a brace list stays as a [`Tok::Eol`] (the
//! parser rejects `dead {a\n!b}` but reads `dead {a!b}`). [`Kind::of`]
//! classifies statements here and dispatches them in the parser.

use crate::error::ParseError;
use crate::scan::Lexer;
use crate::token::Tok;
use std::ops::Range;

const KEYWORDS: [&str; 7] = [
    "private", "dead", "delete", "adjust", "file", "gated", "gateway",
];

/// What a statement declares, told by its first two tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `host target, target, ...`, or a bare `host`.
    Links,
    /// `name = {members}(cost)`, a network, or `name = other`, an alias.
    NetOrAlias,
    /// `keyword {list}`, for one of `private`, `dead`, `delete`,
    /// `adjust`, `file`, `gated` and `gateway`.
    Command,
    /// A `{` after a host that is no keyword, or a statement that does
    /// not start with a name: the parser rejects it.
    Malformed,
}

impl Kind {
    /// The kind of a statement that starts with `lead`; two tokens
    /// decide it. Keywords are contextual: a host may be called `dead`.
    #[inline]
    pub(crate) fn of(lead: &[Tok<'_>]) -> Kind {
        match lead {
            [Tok::Name(kw), Tok::LBrace, ..] if KEYWORDS.contains(kw) => Kind::Command,
            [Tok::Name(_), Tok::LBrace, ..] => Kind::Malformed,
            [Tok::Name(_), Tok::Equals, ..] => Kind::NetOrAlias,
            [Tok::Name(_), ..] => Kind::Links,
            _ => Kind::Malformed,
        }
    }
}

/// One statement of a [`Statements`] view.
#[derive(Debug, Clone)]
pub struct Statement<'s, 'a> {
    /// What it declares.
    pub kind: Kind,
    /// Its bytes in the file, first token to last.
    pub span: Range<usize>,
    /// Its tokens, with the `Eol`s inside brace lists.
    pub toks: &'s [Tok<'a>],
}

/// One file's statements, in file order, over one flat token buffer.
///
/// # Examples
///
/// ```
/// use pathalias_parser::{Kind, Statements};
///
/// let text = "a b(10), \\\n  c(020)  # reflowed\nN = {a, b}(5)\n";
/// let view = Statements::scan("map", text).unwrap();
/// let plain = Statements::scan("map", "a b(10), c(20)").unwrap();
/// let (row, net) = (view.iter().next().unwrap(), view.iter().nth(1).unwrap());
/// assert_eq!(row.toks, plain.iter().next().unwrap().toks);
/// assert_eq!((net.kind, &text[net.span]), (Kind::NetOrAlias, "N = {a, b}(5)"));
/// ```
#[derive(Debug)]
pub struct Statements<'a> {
    toks: Vec<Tok<'a>>,
    /// Kind, byte span and token range of each statement.
    stmts: Vec<(Kind, Range<usize>, Range<usize>)>,
}

impl<'a> Statements<'a> {
    /// Scans `text`, reporting errors against `file`. Fails where the
    /// scanner does (a byte no token starts with, a number too large),
    /// and on braces that do not balance.
    pub fn scan(file: &'a str, text: &'a str) -> Result<Self, ParseError> {
        Statements::scan_from(file, text, 0, |_| false).map(|(view, _)| view)
    }

    /// [`scan`](Statements::scan) of `text[from..]`, stopping before the
    /// first statement whose start `stop` accepts. `from` must be where
    /// a statement of `text` starts, or its end: there the scanner is
    /// outside braces, just past an end of line, as at the start of a
    /// file, so the statements are the ones a scan of all of `text`
    /// cuts there. Spans are offsets into `text`. Returns the view and
    /// where it stopped: the refused statement's start, or the end of
    /// `text`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathalias_parser::Statements;
    ///
    /// let text = "a b(1)\nb c(2)\nc a(3)\n";
    /// let (view, end) = Statements::scan_from("map", text, 7, |at| at >= 14).unwrap();
    /// let spans: Vec<&str> = view.iter().map(|st| &text[st.span]).collect();
    /// assert_eq!((spans, end), (vec!["b c(2)"], 14));
    /// ```
    pub fn scan_from(
        file: &'a str,
        text: &'a str,
        from: usize,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Result<(Self, usize), ParseError> {
        let mut lx = Lexer::new(file, &text[from..]);
        let (mut toks, mut stmts) = (Vec::new(), Vec::new());
        let (mut depth, mut first, mut span) = (0usize, 0, 0..0);
        loop {
            let t = lx.next_token()?;
            match t.tok {
                Tok::Eol | Tok::Eof if depth == 0 => {
                    if first < toks.len() {
                        stmts.push((Kind::of(&toks[first..]), span.clone(), first..toks.len()));
                        first = toks.len();
                    }
                    if t.tok == Tok::Eof {
                        return Ok((Statements { toks, stmts }, text.len()));
                    }
                    continue;
                }
                Tok::Eof => return Err(lx.error_at_token(&t, "unclosed `{`")),
                Tok::LBrace => depth += 1,
                Tok::RBrace if depth == 0 => return Err(lx.error_at_token(&t, "unmatched `}`")),
                Tok::RBrace => depth -= 1,
                _ => {}
            }
            if t.tok != Tok::Eol {
                let at = lx.span_of(&t);
                let at = from + at.start..from + at.end;
                if first < toks.len() {
                    span.end = at.end;
                } else if stop(at.start) {
                    return Ok((Statements { toks, stmts }, at.start));
                } else {
                    span = at;
                }
            }
            toks.push(t.tok);
        }
    }

    /// The statements in file order.
    pub fn iter(&self) -> impl Iterator<Item = Statement<'_, 'a>> + '_ {
        self.stmts.iter().map(|(kind, span, toks)| Statement {
            kind: *kind,
            span: span.clone(),
            toks: &self.toks[toks.clone()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuation_and_multiline_statements_split() {
        let text = "a b(5), \\\n  c(6)\nN = {x,\n y}(5)\n# note\ndead {q}\nb {q}\n";
        let view = Statements::scan("t", text).unwrap();
        let spans: Vec<&str> = view.iter().map(|s| &text[s.span]).collect();
        assert_eq!(
            spans,
            ["a b(5), \\\n  c(6)", "N = {x,\n y}(5)", "dead {q}", "b {q}"]
        );
        let kinds: Vec<Kind> = view.iter().map(|s| s.kind).collect();
        use Kind::*;
        assert_eq!(kinds, [Links, NetOrAlias, Command, Malformed]);
        let net = view.iter().nth(1).unwrap().toks;
        assert_eq!(
            net[3..7],
            [Tok::Name("x"), Tok::Comma, Tok::Eol, Tok::Name("y")]
        );
        for bad in ["N = {a, b\n", "a b}\n", "a $\n"] {
            assert!(Statements::scan("t", bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_scan_from_a_statement_start_cuts_what_the_whole_scan_cuts() {
        let text = "a b(5), \\\n  c(6)\n# note\nN = {x,\n y}(5)\n\nb c(1)\nc {q}\n";
        let whole = Statements::scan("t", text).unwrap();
        let all: Vec<Statement> = whole.iter().collect();
        for (i, st) in all.iter().enumerate() {
            let (view, end) = Statements::scan_from("t", text, st.span.start, |_| false).unwrap();
            let rest: Vec<Statement> = view.iter().collect();
            assert_eq!(format!("{rest:?}"), format!("{:?}", &all[i..]));
            assert_eq!(end, text.len());
            // Stopped at the next statement: just this one.
            let next = all.get(i + 1).map_or(text.len(), |next| next.span.start);
            let (view, end) =
                Statements::scan_from("t", text, st.span.start, |at| at >= next).unwrap();
            let spans: Vec<Range<usize>> = view.iter().map(|s| s.span).collect();
            assert_eq!(spans, vec![st.span.clone()]);
            assert_eq!(end, next);
        }
        let (view, end) = Statements::scan_from("t", text, text.len(), |_| true).unwrap();
        assert_eq!((view.iter().count(), end), (0, text.len()));
    }
}
