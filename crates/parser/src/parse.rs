//! The recursive-descent statement parser (yacc replaced by hand).
//!
//! "Parsing is done with yacc. We use syntax-directed translation to
//! support a rich syntax with edge weights and labels, aliases,
//! networks, and accommodation of host name collisions." The grammar is
//! small and LL(2); a hand parser keeps the crate dependency-free and
//! gives better error messages than the original's `syntax error`.

use crate::error::ParseError;
use crate::expr;
use crate::scan::Lexer;
use crate::stmt::Kind;
use crate::token::{Tok, Token};
use pathalias_graph::{Cost, Dir, Graph, NodeId, RouteOp, DEFAULT_COST};

/// Parses a single anonymous input, returning the graph.
///
/// # Examples
///
/// ```
/// let g = pathalias_parser::parse("a b(10), @c(20)\n").unwrap();
/// assert_eq!(g.node_count(), 3);
/// ```
pub fn parse(text: &str) -> Result<Graph, ParseError> {
    let mut g = Graph::new();
    parse_into(&mut g, "<input>", text)?;
    g.validate();
    Ok(g)
}

/// Parses several named input files into one graph, with file-boundary
/// semantics for `private` declarations, then validates.
pub fn parse_files(inputs: &[(&str, &str)]) -> Result<Graph, ParseError> {
    let mut g = Graph::new();
    for (file, text) in inputs {
        parse_into(&mut g, file, text)?;
    }
    g.validate();
    Ok(g)
}

/// Parses one input file into an existing graph. Does not validate;
/// callers should invoke [`Graph::validate`] after the last file.
pub fn parse_into(g: &mut Graph, file: &str, text: &str) -> Result<(), ParseError> {
    g.begin_file(file);
    let mut p = Parser {
        lx: Lexer::new(file, text),
        g,
    };
    p.run()
}

struct Parser<'g, 'a> {
    lx: Lexer<'a>,
    g: &'g mut Graph,
}

impl<'a> Parser<'_, 'a> {
    fn run(&mut self) -> Result<(), ParseError> {
        loop {
            let t = self.lx.next_token()?;
            match t.tok {
                Tok::Eol => continue,
                Tok::Eof => return Ok(()),
                Tok::Name(name) => self.statement(name)?,
                other => {
                    return Err(self
                        .lx
                        .error_at_token(&t, format!("expected a host name, found {other}")))
                }
            }
        }
    }

    /// Dispatches on the [`Kind`] the leading name and the token after
    /// it make — the same rule the statement view classifies by.
    fn statement(&mut self, first: &'a str) -> Result<(), ParseError> {
        let next = self.lx.peek()?;
        match Kind::of(&[Tok::Name(first), next.tok]) {
            Kind::Command => self.command(first),
            Kind::NetOrAlias => {
                self.lx.next_token()?;
                self.net_or_alias(first)
            }
            Kind::Links => self.links(first),
            Kind::Malformed => Err(self
                .lx
                .error_at_token(&next, format!("unexpected `{{` after host `{first}`"))),
        }
    }

    /// `host target, target, ...` — also a bare `host` declaring a node.
    fn links(&mut self, first: &str) -> Result<(), ParseError> {
        let from = self.g.node(first);
        loop {
            let t = self.lx.peek()?;
            match t.tok {
                Tok::Eol => {
                    self.lx.next_token()?;
                    return Ok(());
                }
                Tok::Eof => return Ok(()),
                _ => {}
            }
            let (to, cost, op) = self.target()?;
            self.g.declare_link(from, to, cost, op);
            let sep = self.lx.next_token()?;
            match sep.tok {
                Tok::Comma => continue,
                Tok::Eol | Tok::Eof => return Ok(()),
                other => {
                    return Err(self.lx.error_at_token(
                        &sep,
                        format!("expected `,` or end of line after link, found {other}"),
                    ))
                }
            }
        }
    }

    /// One link target: `[op]name[op][(cost)]`.
    fn target(&mut self) -> Result<(NodeId, Cost, RouteOp), ParseError> {
        let mut prefix: Option<char> = None;
        let mut t = self.lx.next_token()?;
        if let Tok::Op(c) = t.tok {
            prefix = Some(c);
            t = self.lx.next_token()?;
        }
        let Tok::Name(name) = t.tok else {
            return Err(self
                .lx
                .error_at_token(&t, format!("expected a host name, found {}", t.tok)));
        };
        let mut suffix: Option<char> = None;
        let peeked = self.lx.peek()?;
        if let Tok::Op(c) = peeked.tok {
            self.lx.next_token()?;
            suffix = Some(c);
        }
        let op = match (prefix, suffix) {
            (Some(_), Some(_)) => {
                return Err(self.lx.error_at_token(
                    &t,
                    format!("host `{name}` has routing operators on both sides"),
                ))
            }
            (Some(c), None) => RouteOp {
                ch: c,
                dir: Dir::Right,
            },
            (None, Some(c)) => RouteOp {
                ch: c,
                dir: Dir::Left,
            },
            (None, None) => RouteOp::UUCP,
        };
        let cost = if self.lx.peek()?.tok == Tok::LParen {
            expr::parse_cost(&mut self.lx)?
        } else {
            DEFAULT_COST
        };
        Ok((self.g.node(name), cost, op))
    }

    /// After `name =`: either a network `[op]{members}(cost)` or an
    /// alias `name = other`.
    fn net_or_alias(&mut self, first: &str) -> Result<(), ParseError> {
        let t = self.lx.next_token()?;
        match t.tok {
            Tok::Name(other) => {
                let a = self.g.node(first);
                let b = self.g.node(other);
                self.g.declare_alias(a, b);
                self.end_of_statement()
            }
            Tok::Op(c) => {
                let open = self.lx.next_token()?;
                if open.tok != Tok::LBrace {
                    return Err(self.lx.error_at_token(
                        &open,
                        format!("expected `{{` after network operator, found {}", open.tok),
                    ));
                }
                self.network(
                    first,
                    RouteOp {
                        ch: c,
                        dir: Dir::Right,
                    },
                )
            }
            Tok::LBrace => self.network(first, RouteOp::UUCP),
            other => Err(self.lx.error_at_token(
                &t,
                format!("expected an alias name or `{{` after `=`, found {other}"),
            )),
        }
    }

    /// Members between `{` and `}`, then an optional default cost.
    /// Per-member costs override the default, e.g. `{a(10), b}` with
    /// `(20)` after the brace gives a→net 10 and b→net 20.
    fn network(&mut self, net_name: &str, op: RouteOp) -> Result<(), ParseError> {
        let mut members: Vec<(NodeId, Option<Cost>)> = Vec::new();
        loop {
            let t = self.next_skip_eol()?;
            match t.tok {
                Tok::RBrace => break,
                Tok::Name(m) => {
                    let id = self.g.node(m);
                    let cost = if self.lx.peek()?.tok == Tok::LParen {
                        Some(expr::parse_cost(&mut self.lx)?)
                    } else {
                        None
                    };
                    members.push((id, cost));
                    let sep = self.next_skip_eol()?;
                    match sep.tok {
                        Tok::Comma => continue,
                        Tok::RBrace => break,
                        other => {
                            return Err(self.lx.error_at_token(
                                &sep,
                                format!("expected `,` or `}}` in member list, found {other}"),
                            ))
                        }
                    }
                }
                other => {
                    return Err(self.lx.error_at_token(
                        &t,
                        format!("expected a member name or `}}`, found {other}"),
                    ))
                }
            }
        }
        let default_cost = if self.lx.peek()?.tok == Tok::LParen {
            expr::parse_cost(&mut self.lx)?
        } else {
            DEFAULT_COST
        };
        let net = self.g.node(net_name);
        let resolved: Vec<(NodeId, Cost)> = members
            .into_iter()
            .map(|(id, c)| (id, c.unwrap_or(default_cost)))
            .collect();
        self.g.declare_network(net, &resolved, op);
        self.end_of_statement()
    }

    /// Brace-list commands: `private`, `dead`, `delete`, `adjust`,
    /// `file`, `gated`, `gateway`.
    fn command(&mut self, kw: &str) -> Result<(), ParseError> {
        let open = self.lx.next_token()?;
        debug_assert_eq!(open.tok, Tok::LBrace);
        let mut count = 0usize;
        loop {
            let t = self.next_skip_eol()?;
            match t.tok {
                Tok::RBrace => break,
                Tok::Name(name) => {
                    self.command_item(kw, name, &t)?;
                    count += 1;
                    let sep = self.next_skip_eol()?;
                    match sep.tok {
                        Tok::Comma => continue,
                        Tok::RBrace => break,
                        other => {
                            return Err(self.lx.error_at_token(
                                &sep,
                                format!("expected `,` or `}}` in {kw} list, found {other}"),
                            ))
                        }
                    }
                }
                other => {
                    return Err(self.lx.error_at_token(
                        &t,
                        format!("expected a name in {kw} list, found {other}"),
                    ))
                }
            }
        }
        if kw == "file" && count != 1 {
            let t = self.lx.peek()?;
            return Err(self
                .lx
                .error_at_token(&t, format!("file takes exactly one name, got {count}")));
        }
        self.end_of_statement()
    }

    fn command_item(&mut self, kw: &str, name: &'a str, at: &Token<'a>) -> Result<(), ParseError> {
        match kw {
            "private" => {
                self.g.declare_private(name);
            }
            "dead" | "delete" => {
                // `name` alone is a host; `from!to` is a link.
                if self.lx.peek()?.tok == Tok::Op('!') {
                    self.lx.next_token()?;
                    let t2 = self.lx.next_token()?;
                    let Tok::Name(to_name) = t2.tok else {
                        return Err(self.lx.error_at_token(
                            &t2,
                            format!("expected a host after `!` in {kw} list, found {}", t2.tok),
                        ));
                    };
                    let from = self.g.node(name);
                    let to = self.g.node(to_name);
                    if kw == "dead" {
                        self.g.mark_dead_link(from, to);
                    } else {
                        self.g.delete_link(from, to);
                    }
                } else {
                    let id = self.g.node(name);
                    if kw == "dead" {
                        self.g.mark_dead(id);
                    } else {
                        self.g.delete_node(id);
                    }
                }
            }
            "adjust" => {
                if self.lx.peek()?.tok != Tok::LParen {
                    return Err(self.lx.error_at_token(
                        at,
                        format!("adjust requires a parenthesized bias after `{name}`"),
                    ));
                }
                let bias = expr::parse_signed(&mut self.lx)?;
                let id = self.g.node(name);
                self.g.adjust_node(id, bias);
            }
            "file" => {
                self.g.begin_file(name);
            }
            "gated" => {
                let id = self.g.node(name);
                self.g.mark_gated(id);
            }
            "gateway" => {
                let bang = self.lx.next_token()?;
                if bang.tok != Tok::Op('!') {
                    return Err(self.lx.error_at_token(
                        &bang,
                        format!("gateway items are net!host pairs, found {}", bang.tok),
                    ));
                }
                let t2 = self.lx.next_token()?;
                let Tok::Name(host_name) = t2.tok else {
                    return Err(self.lx.error_at_token(
                        &t2,
                        format!("expected a gateway host after `!`, found {}", t2.tok),
                    ));
                };
                let net = self.g.node(name);
                let host = self.g.node(host_name);
                self.g.declare_gateway(net, host);
            }
            _ => unreachable!("statement() filters keywords"),
        }
        Ok(())
    }

    /// Next token, skipping newlines (inside brace lists).
    fn next_skip_eol(&mut self) -> Result<Token<'a>, ParseError> {
        loop {
            let t = self.lx.next_token()?;
            if t.tok != Tok::Eol {
                return Ok(t);
            }
        }
    }

    fn end_of_statement(&mut self) -> Result<(), ParseError> {
        let t = self.lx.next_token()?;
        match t.tok {
            Tok::Eol | Tok::Eof => Ok(()),
            other => Err(self
                .lx
                .error_at_token(&t, format!("expected end of line, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::{LinkFlags, NodeFlags};

    fn link_cost(g: &Graph, from: &str, to: &str) -> Option<Cost> {
        let f = g.try_node(from)?;
        let t = g.try_node(to)?;
        g.links_from(f)
            .find(|(_, l)| l.to == t)
            .map(|(_, l)| l.cost)
    }

    #[test]
    fn paper_first_example() {
        // "a b(10), c(20)" from the INPUT section.
        let g = parse("a b(10), c(20)\n").unwrap();
        assert_eq!(link_cost(&g, "a", "b"), Some(10));
        assert_eq!(link_cost(&g, "a", "c"), Some(20));
    }

    #[test]
    fn arpa_syntax_and_explicit_uucp() {
        let g = parse("a @b(10), c!(20)\n").unwrap();
        let a = g.try_node("a").unwrap();
        let b = g.try_node("b").unwrap();
        let c = g.try_node("c").unwrap();
        let (_, lb) = g.links_from(a).find(|(_, l)| l.to == b).unwrap();
        assert_eq!(lb.op, RouteOp::ARPA);
        let (_, lc) = g.links_from(a).find(|(_, l)| l.to == c).unwrap();
        assert_eq!(lc.op, RouteOp::UUCP);
    }

    #[test]
    fn network_with_costs() {
        let g = parse("UNC-dwarf = {dopey, grumpy, sleepy}(10)\n").unwrap();
        let net = g.try_node("UNC-dwarf").unwrap();
        assert!(g.node_ref(net).is_net());
        assert_eq!(link_cost(&g, "dopey", "UNC-dwarf"), Some(10));
        assert_eq!(link_cost(&g, "UNC-dwarf", "sleepy"), Some(0));
    }

    #[test]
    fn network_with_operator_and_symbol() {
        let g = parse("ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)\n").unwrap();
        let m = g.try_node("mit-ai").unwrap();
        let net = g.try_node("ARPA").unwrap();
        let (_, l) = g.links_from(m).find(|(_, l)| l.to == net).unwrap();
        assert_eq!(l.cost, 95);
        assert_eq!(l.op, RouteOp::ARPA);
    }

    #[test]
    fn per_member_cost_overrides() {
        let g = parse("N = {a(10), b}(20)\n").unwrap();
        assert_eq!(link_cost(&g, "a", "N"), Some(10));
        assert_eq!(link_cost(&g, "b", "N"), Some(20));
    }

    #[test]
    fn multiline_network() {
        let g = parse("N = {a,\n b,\n c}(5)\n").unwrap();
        assert_eq!(link_cost(&g, "c", "N"), Some(5));
    }

    #[test]
    fn alias_declaration() {
        let g = parse("princeton = fun\n").unwrap();
        let p = g.try_node("princeton").unwrap();
        let f = g.try_node("fun").unwrap();
        let (_, l) = g.links_from(p).next().unwrap();
        assert_eq!(l.to, f);
        assert!(l.flags.contains(LinkFlags::ALIAS));
    }

    #[test]
    fn default_cost_applied() {
        let g = parse("a b\n").unwrap();
        assert_eq!(link_cost(&g, "a", "b"), Some(DEFAULT_COST));
    }

    #[test]
    fn bare_host_declares_node() {
        let g = parse("lonely\n").unwrap();
        assert!(g.try_node("lonely").is_some());
    }

    #[test]
    fn private_command_and_scope() {
        let g = parse_files(&[
            ("one", "bilbo princeton(10)\n"),
            ("two", "private {bilbo}\nbilbo wiretap(10)\n"),
        ])
        .unwrap();
        // Two distinct bilbos.
        let count = g
            .iter_nodes()
            .filter(|(id, _)| g.name(*id) == "bilbo")
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn dead_delete_commands() {
        let g = parse("a b(10)\ndead {a, a!b}\ndelete {c}\n").unwrap();
        let a = g.try_node("a").unwrap();
        assert!(g.node_ref(a).flags.contains(NodeFlags::DEAD));
        let (_, l) = g.links_from(a).next().unwrap();
        assert!(l.flags.contains(LinkFlags::DEAD));
        let c = g.try_node("c").unwrap();
        assert!(g.node_ref(c).flags.contains(NodeFlags::DELETED));
    }

    #[test]
    fn adjust_command() {
        let g = parse("adjust {slow(200), fast(-50)}\n").unwrap();
        assert_eq!(g.node_ref(g.try_node("slow").unwrap()).adjust, 200);
        assert_eq!(g.node_ref(g.try_node("fast").unwrap()).adjust, -50);
    }

    #[test]
    fn adjust_without_cost_is_error() {
        let e = parse("adjust {x}\n").unwrap_err();
        assert!(e.msg.contains("adjust"), "{e}");
    }

    #[test]
    fn gated_and_gateway() {
        let g = parse("BITNET = {psuvax1, cornell}(DAILY)\ngated {BITNET}\npsuvax1 BITNET(HOURLY)\ngateway {BITNET!psuvax1}\n").unwrap();
        let net = g.try_node("BITNET").unwrap();
        assert!(g.node_ref(net).is_gated());
        let p = g.try_node("psuvax1").unwrap();
        assert!(g
            .links_from(p)
            .any(|(_, l)| l.to == net && l.flags.contains(LinkFlags::GATEWAY)));
    }

    #[test]
    fn file_command_resets_private_scope() {
        let text = "private {x}\nx a(10)\nfile {next-site}\nx b(10)\n";
        let g = parse(text).unwrap();
        // First x is private, second x is global.
        let xs: Vec<_> = g
            .iter_nodes()
            .filter(|(id, _)| g.name(*id) == "x")
            .map(|(id, n)| (id, n.flags.contains(NodeFlags::PRIVATE)))
            .collect();
        assert_eq!(xs.len(), 2);
        assert!(xs[0].1 && !xs[1].1);
    }

    #[test]
    fn comments_and_blanks_between_statements() {
        let g = parse("# map preamble\n\na b(10) # inline\n\n# trailer\n").unwrap();
        assert_eq!(link_cost(&g, "a", "b"), Some(10));
    }

    #[test]
    fn continuation_line() {
        let g = parse("a b(10), \\\n  c(20)\n").unwrap();
        assert_eq!(link_cost(&g, "a", "c"), Some(20));
    }

    #[test]
    fn host_named_like_keyword() {
        let g = parse("dead alive(10)\n").unwrap();
        assert_eq!(link_cost(&g, "dead", "alive"), Some(10));
    }

    #[test]
    fn error_both_side_operators() {
        let e = parse("a @b!(10)\n").unwrap_err();
        assert!(e.msg.contains("both sides"), "{e}");
    }

    #[test]
    fn error_missing_separator() {
        let e = parse("a b(10) c(20)\n").unwrap_err();
        assert!(e.msg.contains("expected `,`"), "{e}");
    }

    #[test]
    fn error_bad_statement_start() {
        let e = parse("(oops)\n").unwrap_err();
        assert!(e.msg.contains("expected a host name"), "{e}");
    }

    #[test]
    fn error_gateway_shape() {
        let e = parse("gateway {justanet}\n").unwrap_err();
        assert!(e.msg.contains("net!host"), "{e}");
    }

    #[test]
    fn error_file_arity() {
        let e = parse("file {a, b}\n").unwrap_err();
        assert!(e.msg.contains("exactly one"), "{e}");
    }

    #[test]
    fn error_unclosed_brace() {
        assert!(parse("N = {a, b\n").is_err());
    }

    #[test]
    fn error_reports_location() {
        let e = parse("a b(10)\nq $\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.col >= 3);
    }

    #[test]
    fn last_line_without_newline() {
        let g = parse("a b(10)").unwrap();
        assert_eq!(link_cost(&g, "a", "b"), Some(10));
    }

    #[test]
    fn empty_input_ok() {
        let g = parse("").unwrap();
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn duplicate_links_warn_and_keep_cheapest() {
        let g = parse("a b(300)\na b(100)\n").unwrap();
        assert_eq!(link_cost(&g, "a", "b"), Some(100));
        assert!(!g.warnings().is_empty());
    }
}
