//! Scanner and parser for the pathalias input language.
//!
//! The original used yacc for parsing and replaced a lex-generated
//! scanner with a hand-built one, cutting total run time by 40 %. This
//! crate is the fast half: a zero-copy, hand-built scanner ([`scan`])
//! used by the recursive-descent parser ([`parse`] / [`parse_into`] /
//! [`parse_files`] / [`parse_inputs`]). The lex stand-in it is compared
//! against (experiment E3) lives in `pathalias_bench::slow`.
//!
//! The parser records the graph calls a statement makes and declares
//! them from the record; [`parse_inputs`] records on a helper thread
//! while the calling thread declares, so building the graph from
//! several inputs, or one large one, takes two cores.
//!
//! The same scanner also cuts a file into [`Statements`]: per statement
//! its tokens, byte span and [`Kind`], the rule the parser dispatches
//! on. Incremental reload (`pathalias_core::plan_delta`) diffs and
//! classifies map edits through it.
//!
//! # The input language
//!
//! Line-oriented; `#` starts a comment; a trailing `\` continues the
//! line; newlines between the items of a `{ ... }` list are ignored.
//!
//! ```text
//! unc     duke(HOURLY), phs(HOURLY*4)     # links with cost expressions
//! a       @b(10), c!(20)                  # routing operator prefix/suffix
//! ARPA    = @{mit-ai, ucbvax}(DEDICATED)  # network (clique as star)
//! princeton = fun                         # alias
//! private {bilbo}                         # file-scoped names
//! dead    {vortex, a!b}                   # dead host / dead link
//! delete  {oldhost, a!b}                  # remove host / link
//! adjust  {munnari(-200), seismo(HOURLY)} # node cost bias
//! file    {u.washington}                  # file boundary marker
//! gated   {BITNET}                        # network requiring gateways
//! gateway {BITNET!psuvax1}                # declare a gateway
//! ```
//!
//! Host names may contain letters, digits, `.`, `_` and `-`; a name
//! consisting solely of digits is a number. Because `-` may appear in
//! names, subtraction in cost expressions must be spaced: `HOURLY - 5`.
//!
//! # Examples
//!
//! ```
//! let g = pathalias_parser::parse("unc duke(HOURLY), phs(HOURLY*4)\n").unwrap();
//! let unc = g.try_node("unc").unwrap();
//! assert_eq!(g.links_from(unc).count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod ops;
#[allow(clippy::module_inception)]
mod parse;
pub mod scan;
mod stmt;
mod token;

pub use error::ParseError;
pub use parse::{parse, parse_files, parse_inputs, parse_into};
pub use stmt::{Kind, Statement, Statements};
pub use token::{Tok, Token};
