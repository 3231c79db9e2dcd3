//! The baseline scanner, standing in for lex.
//!
//! The paper rejected a lex-generated scanner after finding that "half
//! the run time was spent in the scanner". Generated scanners of that
//! era paid for generality: a table-driven automaton stepping one
//! character at a time, per-token buffer copies, and action dispatch.
//! This module reproduces that cost profile honestly — it is a correct
//! scanner producing the same token stream as [`pathalias_parser::scan`], but it:
//!
//! * decodes the input into a `Vec<char>` up front (lex worked on a
//!   buffered character stream, not on in-place bytes),
//! * steps a generic character-class DFA table one transition per
//!   character,
//! * accumulates every token's text into a fresh `String` (yytext), and
//! * re-parses names against a keyword list with owned comparisons.
//!
//! The scanner benchmark (experiment E3) runs both over the same maps
//! and reports the ratio next to the paper's 40 % figure.

use pathalias_parser::ParseError;

/// An owned token, mirroring [`pathalias_parser::Tok`] with owned text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedTok {
    /// A name, with its text copied out.
    Name(String),
    /// An unsigned integer literal.
    Number(u64),
    /// A routing operator character.
    Op(char),
    /// Any single-character punctuation token.
    Punct(char),
    /// End of line.
    Eol,
    /// End of input.
    Eof,
}

/// Character classes for the table-driven automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Space,
    Newline,
    Hash,
    Backslash,
    NameStart,
    NameCont,
    Digit,
    Op,
    Punct,
    Other,
}

fn classify(c: char) -> Class {
    // A real lex table maps every character through an equivalence
    // class; emulate the lookup cost with a match over char ranges.
    match c {
        ' ' | '\t' | '\r' => Class::Space,
        '\n' => Class::Newline,
        '#' => Class::Hash,
        '\\' => Class::Backslash,
        '0'..='9' => Class::Digit,
        'a'..='z' | 'A'..='Z' | '.' | '_' => Class::NameStart,
        '-' => Class::NameCont,
        '!' | '@' | ':' | '%' => Class::Op,
        ',' | '(' | ')' | '{' | '}' | '=' | '+' | '*' | '/' => Class::Punct,
        _ => Class::Other,
    }
}

/// Scans `text` the way the rejected lex scanner would have.
///
/// Produces the same token stream as the fast scanner (the equivalence
/// is property-tested); errors match on position.
pub fn tokenize(file: &str, text: &str) -> Result<Vec<OwnedTok>, ParseError> {
    // Lex-style: buffer the whole input as characters first.
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // yytext: reused the way lex reuses its token buffer, but grown
    // and copied per token.
    while i < chars.len() {
        let c = chars[i];
        match classify(c) {
            Class::Space => {
                i += 1;
                col += 1;
            }
            Class::Backslash => {
                let eol = match chars[i + 1..] {
                    ['\n', ..] => 2,
                    ['\r', '\n', ..] => 3,
                    _ => 0,
                };
                if eol > 0 {
                    i += eol;
                    line += 1;
                    col = 1;
                } else {
                    return Err(ParseError::new(
                        file,
                        line,
                        col,
                        "unexpected character `\\`".to_string(),
                    ));
                }
            }
            Class::Hash => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            Class::Newline => {
                out.push(OwnedTok::Eol);
                i += 1;
                line += 1;
                col = 1;
            }
            Class::NameStart | Class::Digit => {
                // Accumulate the token text character by character into
                // a fresh buffer, as yytext filling does.
                let mut yytext = String::new();
                let mut all_digits = true;
                while i < chars.len() {
                    let cc = chars[i];
                    let cl = classify(cc);
                    if !matches!(cl, Class::NameStart | Class::NameCont | Class::Digit) {
                        break;
                    }
                    if cl != Class::Digit {
                        all_digits = false;
                    }
                    yytext.push(cc);
                    i += 1;
                    col += 1;
                }
                if all_digits {
                    match yytext.parse::<u64>() {
                        Ok(n) => out.push(OwnedTok::Number(n)),
                        Err(_) => {
                            return Err(ParseError::new(
                                file,
                                line,
                                col - yytext.len() as u32,
                                format!("number `{yytext}` too large"),
                            ))
                        }
                    }
                } else {
                    // Keyword screening with owned comparisons, the way
                    // a naive action table would.
                    let keywords: Vec<String> = [
                        "private", "dead", "delete", "adjust", "file", "gated", "gateway",
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                    let _screened = keywords.contains(&yytext);
                    out.push(OwnedTok::Name(yytext));
                }
            }
            Class::NameCont => {
                // Leading '-': minus operator.
                out.push(OwnedTok::Punct('-'));
                i += 1;
                col += 1;
            }
            Class::Op => {
                out.push(OwnedTok::Op(c));
                i += 1;
                col += 1;
            }
            Class::Punct => {
                out.push(OwnedTok::Punct(c));
                i += 1;
                col += 1;
            }
            Class::Other => {
                return Err(ParseError::new(
                    file,
                    line,
                    col,
                    format!("unexpected character `{c}`"),
                ));
            }
        }
    }
    out.push(OwnedTok::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_parser::{scan, Tok};

    /// Converts a fast token to the owned shape for comparison.
    fn convert(t: Tok<'_>) -> OwnedTok {
        match t {
            Tok::Name(s) => OwnedTok::Name(s.to_string()),
            Tok::Number(n) => OwnedTok::Number(n),
            Tok::Op(c) => OwnedTok::Op(c),
            Tok::Comma => OwnedTok::Punct(','),
            Tok::LParen => OwnedTok::Punct('('),
            Tok::RParen => OwnedTok::Punct(')'),
            Tok::LBrace => OwnedTok::Punct('{'),
            Tok::RBrace => OwnedTok::Punct('}'),
            Tok::Equals => OwnedTok::Punct('='),
            Tok::Plus => OwnedTok::Punct('+'),
            Tok::Minus => OwnedTok::Punct('-'),
            Tok::Star => OwnedTok::Punct('*'),
            Tok::Slash => OwnedTok::Punct('/'),
            Tok::Eol => OwnedTok::Eol,
            Tok::Eof => OwnedTok::Eof,
        }
    }

    fn assert_equivalent(text: &str) {
        let fast: Vec<OwnedTok> = scan::tokenize("t", text)
            .unwrap()
            .into_iter()
            .map(|t| convert(t.tok))
            .collect();
        let slow = tokenize("t", text).unwrap();
        assert_eq!(fast, slow, "scanners disagree on {text:?}");
    }

    #[test]
    fn equivalent_on_paper_examples() {
        assert_equivalent("unc duke(HOURLY), phs(HOURLY*4)\n");
        assert_equivalent("ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)\n");
        assert_equivalent("a @b(10), c!(20)\n");
        assert_equivalent("private {bilbo}\nbilbo wiretap(DAILY/2)\n");
        assert_equivalent("# comment only\n\n");
        assert_equivalent("adjust {x(-200)}\n");
        assert_equivalent("a b(3 + 4 * 2)\n");
        assert_equivalent("cont a(1), \\\n b(2)\n");
    }

    #[test]
    fn errors_on_same_input() {
        assert!(tokenize("t", "a $\n").is_err());
        assert!(scan::tokenize("t", "a $\n").is_err());
    }
}
