//! The hand-built scanner.
//!
//! The paper: "We experimented with lex for transforming the raw input
//! into lexical tokens, but were disappointed with its performance: half
//! the run time was spent in the scanner. Since our input tokens are
//! easy to recognize, we built a simple scanner and cut the overall run
//! time by 40%." This is that scanner: a single pass over the input
//! bytes, no allocation per token (names are slices of the input), and a
//! one-token pushback buffer for the parser's lookahead.

use crate::error::ParseError;
use crate::token::{is_name_byte, is_name_start, Tok, Token};
use std::ops::Range;

/// Streaming scanner over one input file.
///
/// # Examples
///
/// ```
/// use pathalias_parser::scan::Lexer;
/// use pathalias_parser::Tok;
///
/// let mut lx = Lexer::new("map", "unc duke(500)\n");
/// assert_eq!(lx.next_token().unwrap().tok, Tok::Name("unc"));
/// assert_eq!(lx.next_token().unwrap().tok, Tok::Name("duke"));
/// assert_eq!(lx.next_token().unwrap().tok, Tok::LParen);
/// ```
pub struct Lexer<'a> {
    file: &'a str,
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
    line_start: usize,
    pushed: Option<Token<'a>>,
}

impl<'a> Lexer<'a> {
    /// Creates a scanner for `text`, reporting errors against `file`.
    pub fn new(file: &'a str, text: &'a str) -> Self {
        Lexer {
            file,
            src: text.as_bytes(),
            text,
            pos: 0,
            line: 1,
            line_start: 0,
            pushed: None,
        }
    }

    /// The file name used in error messages.
    pub fn file(&self) -> &str {
        self.file
    }

    fn col(&self, at: usize) -> u32 {
        (at - self.line_start + 1) as u32
    }

    /// Builds a [`ParseError`] at byte offset `at`.
    pub fn error_at(&self, at: usize, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.file, self.line, self.col(at), msg)
    }

    /// Builds a [`ParseError`] at a previously returned token.
    pub fn error_at_token(&self, t: &Token<'a>, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.file, t.line, t.col, msg)
    }

    /// The bytes of `t`, the token just scanned (not an `Eol`).
    pub(crate) fn span_of(&self, t: &Token<'a>) -> Range<usize> {
        self.line_start + t.col as usize - 1..self.pos
    }

    /// Pushes one token back; the next [`next_token`] returns it.
    ///
    /// [`next_token`]: Lexer::next_token
    pub fn push_back(&mut self, t: Token<'a>) {
        debug_assert!(self.pushed.is_none(), "single-token pushback only");
        self.pushed = Some(t);
    }

    /// Returns the next token without consuming it.
    pub fn peek(&mut self) -> Result<Token<'a>, ParseError> {
        let t = self.next_token()?;
        self.push_back(t);
        Ok(t)
    }

    /// Scans and returns the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        if let Some(t) = self.pushed.take() {
            return Ok(t);
        }
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Ok(self.make(Tok::Eof, self.pos));
            };
            match b {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'\\' => {
                    // Line continuation: swallow it, stay mid-statement.
                    let len = match &self.src[self.pos + 1..] {
                        [b'\n', ..] => 2,
                        [b'\r', b'\n', ..] => 3,
                        _ => break,
                    };
                    self.pos += len;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                b'#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'\n' => {
                    let at = self.pos;
                    let t = self.make(Tok::Eol, at);
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                    return Ok(t);
                }
                _ => break,
            }
        }
        let at = self.pos;
        let b = self.src[at];
        let single = |tok| (tok, 1usize);
        let (tok, len) = match b {
            b',' => single(Tok::Comma),
            b'(' => single(Tok::LParen),
            b')' => single(Tok::RParen),
            b'{' => single(Tok::LBrace),
            b'}' => single(Tok::RBrace),
            b'=' => single(Tok::Equals),
            b'+' => single(Tok::Plus),
            b'-' => single(Tok::Minus),
            b'*' => single(Tok::Star),
            b'/' => single(Tok::Slash),
            b'!' | b'@' | b':' | b'%' => single(Tok::Op(b as char)),
            _ if is_name_start(b) => {
                let mut end = at + 1;
                while end < self.src.len() && is_name_byte(self.src[end]) {
                    end += 1;
                }
                let word = &self.text[at..end];
                let tok = if word.bytes().all(|b| b.is_ascii_digit()) {
                    match word.parse::<u64>() {
                        Ok(n) => Tok::Number(n),
                        Err(_) => {
                            return Err(self.error_at(at, format!("number `{word}` too large")))
                        }
                    }
                } else {
                    Tok::Name(word)
                };
                (tok, end - at)
            }
            _ => {
                return Err(self.error_at(at, format!("unexpected character `{}`", char::from(b))));
            }
        };
        let t = self.make(tok, at);
        self.pos += len;
        Ok(t)
    }

    fn make(&self, tok: Tok<'a>, at: usize) -> Token<'a> {
        Token {
            tok,
            line: self.line,
            col: self.col(at),
        }
    }
}

/// Scans the whole input into a vector (benchmark entry point; the
/// parser uses the streaming interface).
pub fn tokenize<'a>(file: &'a str, text: &'a str) -> Result<Vec<Token<'a>>, ParseError> {
    let mut lx = Lexer::new(file, text);
    let mut out = Vec::new();
    loop {
        let t = lx.next_token()?;
        let done = t.tok == Tok::Eof;
        out.push(t);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<Tok<'_>> {
        tokenize("t", text)
            .unwrap()
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn paper_link_line() {
        assert_eq!(
            toks("unc duke(HOURLY), phs(HOURLY*4)\n"),
            vec![
                Tok::Name("unc"),
                Tok::Name("duke"),
                Tok::LParen,
                Tok::Name("HOURLY"),
                Tok::RParen,
                Tok::Comma,
                Tok::Name("phs"),
                Tok::LParen,
                Tok::Name("HOURLY"),
                Tok::Star,
                Tok::Number(4),
                Tok::RParen,
                Tok::Eol,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn network_line() {
        assert_eq!(
            toks("ARPA = @{mit-ai, ucbvax}(DEDICATED)\n"),
            vec![
                Tok::Name("ARPA"),
                Tok::Equals,
                Tok::Op('@'),
                Tok::LBrace,
                Tok::Name("mit-ai"),
                Tok::Comma,
                Tok::Name("ucbvax"),
                Tok::RBrace,
                Tok::LParen,
                Tok::Name("DEDICATED"),
                Tok::RParen,
                Tok::Eol,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_blank_lines() {
        assert_eq!(
            toks("# a map\n\nunc duke(5) # trailing\n"),
            vec![
                Tok::Eol,
                Tok::Eol,
                Tok::Name("unc"),
                Tok::Name("duke"),
                Tok::LParen,
                Tok::Number(5),
                Tok::RParen,
                Tok::Eol,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn continuation_joins_lines() {
        assert_eq!(
            toks("unc duke(5), \\\n  phs(6)\n"),
            toks("unc duke(5), phs(6)\n")
        );
    }

    #[test]
    fn continuation_before_crlf_joins_lines() {
        assert_eq!(
            toks("unc duke(5), \\\r\n  phs(6)\r\n"),
            toks("unc duke(5), phs(6)\n")
        );
        let ts = tokenize("t", "a \\\r\n  b\r\n").unwrap();
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
        // At the end of the input, and a `\r` that ends no line.
        assert_eq!(toks("a \\\n"), toks("a"));
        assert!(tokenize("t", "a \\\r b\n").is_err());
    }

    #[test]
    fn names_with_dots_hyphens_digits() {
        assert_eq!(
            toks(".rutgers.edu UNC-dwarf 3com u_w\n"),
            vec![
                Tok::Name(".rutgers.edu"),
                Tok::Name("UNC-dwarf"),
                Tok::Name("3com"),
                Tok::Name("u_w"),
                Tok::Eol,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn minus_vs_hyphen() {
        // Inside a name it is a hyphen; spaced, it is subtraction.
        assert_eq!(
            toks("(HOURLY - 5)\n")[0..5],
            [
                Tok::LParen,
                Tok::Name("HOURLY"),
                Tok::Minus,
                Tok::Number(5),
                Tok::RParen,
            ]
        );
        assert_eq!(toks("a-b\n")[0], Tok::Name("a-b"));
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("@b c! d:e %f\n"),
            vec![
                Tok::Op('@'),
                Tok::Name("b"),
                Tok::Name("c"),
                Tok::Op('!'),
                Tok::Name("d"),
                Tok::Op(':'),
                Tok::Name("e"),
                Tok::Op('%'),
                Tok::Name("f"),
                Tok::Eol,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let ts = tokenize("t", "a b\n  c\n").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1)); // a
        assert_eq!((ts[1].line, ts[1].col), (1, 3)); // b
        assert_eq!((ts[3].line, ts[3].col), (2, 3)); // c
    }

    #[test]
    fn unexpected_character_is_an_error() {
        let e = tokenize("t", "a $\n").unwrap_err();
        assert!(e.msg.contains('$'));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn huge_number_is_an_error() {
        let e = tokenize("t", "99999999999999999999999999\n").unwrap_err();
        assert!(e.msg.contains("too large"));
    }

    #[test]
    fn pushback_roundtrip() {
        let mut lx = Lexer::new("t", "a b\n");
        let a = lx.next_token().unwrap();
        lx.push_back(a);
        assert_eq!(lx.next_token().unwrap().tok, Tok::Name("a"));
        assert_eq!(lx.peek().unwrap().tok, Tok::Name("b"));
        assert_eq!(lx.next_token().unwrap().tok, Tok::Name("b"));
    }

    #[test]
    fn empty_input() {
        assert_eq!(toks(""), vec![Tok::Eof]);
    }

    #[test]
    fn comment_only_file_without_newline() {
        assert_eq!(toks("# nothing"), vec![Tok::Eof]);
    }
}
