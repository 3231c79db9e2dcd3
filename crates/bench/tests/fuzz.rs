//! Robustness properties: the two scanners agree everywhere, and the
//! parser never panics on arbitrary input.

use pathalias_bench::slow;
use pathalias_parser::{scan, Tok};
use proptest::prelude::*;

/// Converts a fast token to the slow scanner's owned shape.
fn convert(t: Tok<'_>) -> slow::OwnedTok {
    match t {
        Tok::Name(s) => slow::OwnedTok::Name(s.to_string()),
        Tok::Number(n) => slow::OwnedTok::Number(n),
        Tok::Op(c) => slow::OwnedTok::Op(c),
        Tok::Comma => slow::OwnedTok::Punct(','),
        Tok::LParen => slow::OwnedTok::Punct('('),
        Tok::RParen => slow::OwnedTok::Punct(')'),
        Tok::LBrace => slow::OwnedTok::Punct('{'),
        Tok::RBrace => slow::OwnedTok::Punct('}'),
        Tok::Equals => slow::OwnedTok::Punct('='),
        Tok::Plus => slow::OwnedTok::Punct('+'),
        Tok::Minus => slow::OwnedTok::Punct('-'),
        Tok::Star => slow::OwnedTok::Punct('*'),
        Tok::Slash => slow::OwnedTok::Punct('/'),
        Tok::Eol => slow::OwnedTok::Eol,
        Tok::Eof => slow::OwnedTok::Eof,
    }
}

proptest! {
    // The CI fuzz job cranks case counts via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(256))]

    /// On inputs drawn from the language's alphabet, both scanners
    /// produce the same token stream or the same rejection.
    #[test]
    fn scanners_agree(text in "[ \t\na-z0-9.!@:%,(){}=+*/#_-]{0,200}") {
        let fast = scan::tokenize("f", &text);
        let slow_result = slow::tokenize("f", &text);
        match (fast, slow_result) {
            (Ok(f), Ok(s)) => {
                let f: Vec<slow::OwnedTok> = f.into_iter().map(|t| convert(t.tok)).collect();
                prop_assert_eq!(f, s);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "disagreement: {:?} vs {:?}", f.is_ok(), s.is_ok()),
        }
    }

    /// The parser returns Ok or Err but never panics, on fully
    /// arbitrary input.
    #[test]
    fn parser_never_panics(text in "\\PC{0,300}") {
        let _ = pathalias_parser::parse(&text);
    }

    /// Same, on inputs biased toward nearly-valid statements.
    #[test]
    fn parser_never_panics_nearly_valid(
        text in "[ \t\na-f0-9.!@:%,(){}=+*/#-]{0,300}"
    ) {
        let _ = pathalias_parser::parse(&text);
    }

    /// Scanning is loss-free over names: every name token's text occurs
    /// in the input.
    #[test]
    fn names_are_substrings(text in "[a-z .!,()\n-]{0,120}") {
        if let Ok(tokens) = scan::tokenize("f", &text) {
            for t in tokens {
                if let Tok::Name(n) = t.tok {
                    prop_assert!(text.contains(n));
                }
            }
        }
    }
}
