//! The recursive-descent statement parser (yacc replaced by hand).
//!
//! "Parsing is done with yacc. We use syntax-directed translation to
//! support a rich syntax with edge weights and labels, aliases,
//! networks, and accommodation of host name collisions." The grammar is
//! small and LL(2); a hand parser keeps the crate dependency-free and
//! gives better error messages than the original's `syntax error`.
//!
//! The parser records what it would declare ([`Ops`]) instead of
//! calling the [`Graph`], and a [`Declarer`] replays the record. Several
//! inputs ([`parse_inputs`]) are read and recorded on a helper thread
//! while the calling thread declares, a buffer of about [`CHUNK`] ops at
//! a time; one input ([`parse_into`]) alternates the two steps on one
//! thread. Either way the graph sees the same calls in the same order,
//! so node ids, warnings and errors do not depend on the split.

use crate::error::ParseError;
use crate::expr;
use crate::ops::{Declarer, Op, Ops, Span};
use crate::scan::Lexer;
use crate::stmt::Kind;
use crate::token::{Tok, Token};
use pathalias_graph::{Dir, Graph, RouteOp, DEFAULT_COST};
use std::mem;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;

/// Ops a buffer collects before the parser hands it over, at the end
/// of the statement that reaches this many.
const CHUNK: usize = 4096;

/// Buffers that circulate between the two threads of [`parse_inputs`].
const BUFFERS: usize = 4;

/// [`DEFAULT_COST`] as an op holds it.
const DEFAULT: u32 = DEFAULT_COST as u32;

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
    parse_inputs(&mut g, inputs.iter().map(|&input| Ok(input)))?;
    g.validate();
    Ok(g)
}

/// Parses one input file into an existing graph. Does not validate;
/// callers should invoke [`Graph::validate`] after the last file. On an
/// error the graph keeps every declaration made before it.
pub fn parse_into(g: &mut Graph, file: &str, text: &str) -> Result<(), ParseError> {
    let mut p = Parser::new(file, text)?;
    g.begin_file(file);
    let mut declarer = Declarer::default();
    loop {
        let filled = p.fill();
        declarer.apply(g, &p.ops, text);
        p.ops.clear();
        if filled? {
            return Ok(());
        }
    }
}

/// Parses named inputs, in order, into an existing graph, as
/// [`parse_into`] on each in turn would, on two threads: a helper
/// thread takes each input from `inputs` and records it while this one
/// declares what is recorded. Does not validate.
///
/// The first error ends the run, and is the one returned: an `Err` item
/// of `inputs`, or a parse error, which leaves the graph holding every
/// declaration made before it. No later item is taken from `inputs`.
/// At most two texts are alive at a time, the one being declared and
/// the one being read: an item is taken only once the declaring thread
/// is done with the text before the previous one.
///
/// # Examples
///
/// ```
/// use pathalias_graph::Graph;
/// use pathalias_parser::{parse_inputs, ParseError};
///
/// let mut g = Graph::new();
/// let inputs = [("one", "a b(10)\n"), ("two", "b c(20)\n")];
/// parse_inputs(&mut g, inputs.map(Ok::<_, ParseError>)).unwrap();
/// assert_eq!(g.node_count(), 3);
///
/// let bad = [("three", "c d(\n")];
/// let e = parse_inputs(&mut g, bad.map(Ok::<_, ParseError>)).unwrap_err();
/// assert_eq!(e.to_string(), "three:1:5: expected a cost, found end of line");
/// assert!(g.try_node("d").is_none()); // `c` was declared, `d` not yet.
/// ```
pub fn parse_inputs<I, N, T, E>(g: &mut Graph, inputs: I) -> Result<(), E>
where
    I: IntoIterator<Item = Result<(N, T), E>>,
    I::IntoIter: Send,
    N: AsRef<str> + Send + Sync,
    T: AsRef<str> + Send + Sync,
    E: From<ParseError> + Send,
{
    let inputs = inputs.into_iter();
    let (full_tx, full_rx) = mpsc::channel();
    let (free_tx, free_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    for _ in 0..BUFFERS {
        // Allocated on this thread, so the helper allocates next to
        // nothing of its own.
        let _ = free_tx.send(Ops::with_capacity(CHUNK + CHUNK / 4));
    }
    thread::scope(|s| {
        thread::Builder::new()
            .name("pathalias-scan".to_string())
            .spawn_scoped(s, move || record(inputs, &full_tx, &free_rx, &done_rx))
            .expect("starting the scanning thread");
        declare(g, full_rx, free_tx, done_tx)
    })
}

/// What the recording thread of [`parse_inputs`] sends the declaring
/// one, in input order.
enum Msg<N, T, E> {
    /// The next input's name and text: the ops that follow are its,
    /// and their spans are into this text.
    Input(Arc<(N, T)>),
    /// A filled buffer, to be declared and handed back.
    Ops(Ops),
    /// The error that ends the run; nothing follows it.
    Fail(E),
}

/// The helper thread of [`parse_inputs`]: takes each input, records it
/// into buffers from `free` and sends them on `full`. Returns at the
/// first error, after sending it, or when the other thread has gone.
fn record<N, T, E>(
    mut inputs: impl Iterator<Item = Result<(N, T), E>>,
    full: &Sender<Msg<N, T, E>>,
    free: &Receiver<Ops>,
    done: &Receiver<()>,
) where
    N: AsRef<str>,
    T: AsRef<str>,
    E: From<ParseError>,
{
    // Inputs sent whose text the declaring thread still holds.
    let mut held = 0;
    loop {
        while held == 2 {
            if done.recv().is_err() {
                return;
            }
            held -= 1;
        }
        let input = match inputs.next() {
            None => return,
            Some(Ok(input)) => Arc::new(input),
            Some(Err(e)) => {
                let _ = full.send(Msg::Fail(e));
                return;
            }
        };
        let (file, text) = (input.0.as_ref(), input.1.as_ref());
        let mut p = match Parser::new(file, text) {
            Ok(p) => p,
            Err(e) => {
                let _ = full.send(Msg::Fail(e.into()));
                return;
            }
        };
        if full.send(Msg::Input(input.clone())).is_err() {
            return;
        }
        held += 1;
        loop {
            let Ok(ops) = free.recv() else { return };
            p.ops = ops;
            let filled = p.fill();
            if full.send(Msg::Ops(mem::take(&mut p.ops))).is_err() {
                return;
            }
            match filled {
                Ok(false) => continue,
                Ok(true) => break,
                Err(e) => {
                    let _ = full.send(Msg::Fail(e.into()));
                    return;
                }
            }
        }
    }
}

/// The calling thread of [`parse_inputs`]: declares what `full`
/// brings, hands each buffer back on `free`, and says on `done` when
/// it lets go of a text. It owns its ends of the channels, so that if
/// it panics they close and the helper, which may be waiting on them,
/// returns.
fn declare<N, T, E>(
    g: &mut Graph,
    full: Receiver<Msg<N, T, E>>,
    free: Sender<Ops>,
    done: Sender<()>,
) -> Result<(), E>
where
    N: AsRef<str>,
    T: AsRef<str>,
{
    let mut declarer = Declarer::default();
    let mut input: Option<Arc<(N, T)>> = None;
    for msg in full {
        match msg {
            Msg::Input(next) => {
                g.begin_file(next.0.as_ref());
                if let Some(last) = input.replace(next) {
                    drop(last);
                    let _ = done.send(());
                }
            }
            Msg::Ops(mut ops) => {
                let input = input.as_deref().expect("an input precedes its ops");
                declarer.apply(g, &ops, input.1.as_ref());
                ops.clear();
                let _ = free.send(ops);
            }
            Msg::Fail(e) => return Err(e),
        }
    }
    Ok(())
}

/// Records one input's statements, a buffer at a time.
struct Parser<'a> {
    lx: Lexer<'a>,
    text: &'a str,
    /// The buffer being filled.
    ops: Ops,
    /// A network's members and their costs, while its list is read.
    members: Vec<(u32, Option<u32>)>,
}

impl<'a> Parser<'a> {
    /// A parser of `text`, which fails when the text is too long for
    /// the 32-bit spans of [`Ops`].
    fn new(file: &'a str, text: &'a str) -> Result<Parser<'a>, ParseError> {
        if u32::try_from(text.len()).is_err() {
            return Err(ParseError::new(
                file,
                1,
                1,
                format!("input of {} bytes is over the 4 GiB limit", text.len()),
            ));
        }
        Ok(Parser {
            lx: Lexer::new(file, text),
            text,
            ops: Ops::default(),
            members: Vec::new(),
        })
    }

    /// Records statements until the buffer holds [`CHUNK`] ops or the
    /// input ends; `Ok(true)` at the end. On an error the buffer holds
    /// what was recorded before it.
    fn fill(&mut self) -> Result<bool, ParseError> {
        while self.ops.len() < CHUNK {
            let t = self.lx.next_token()?;
            match t.tok {
                Tok::Eol => continue,
                Tok::Eof => return Ok(true),
                Tok::Name(name) => self.statement(name)?,
                other => {
                    return Err(self
                        .lx
                        .error_at_token(&t, format!("expected a host name, found {other}")))
                }
            }
        }
        Ok(false)
    }

    /// Records [`Graph::node`] for `name`, a slice of the text; returns
    /// its slot.
    fn node(&mut self, name: &str) -> u32 {
        self.ops.node(Span::of(self.text, name))
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
        let from = self.node(first);
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
            self.ops.push(Op::Link {
                from,
                to,
                cost,
                op: op.into(),
            });
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
    fn target(&mut self) -> Result<(u32, u32, RouteOp), ParseError> {
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
        let cost = self.cost()?.unwrap_or(DEFAULT);
        Ok((self.node(name), cost, op))
    }

    /// A parenthesized cost, if one follows.
    fn cost(&mut self) -> Result<Option<u32>, ParseError> {
        if self.lx.peek()?.tok != Tok::LParen {
            return Ok(None);
        }
        // `parse_cost` refuses costs above `u32::MAX`.
        expr::parse_cost(&mut self.lx).map(|cost| Some(cost as u32))
    }

    /// After `name =`: either a network `[op]{members}(cost)` or an
    /// alias `name = other`.
    fn net_or_alias(&mut self, first: &str) -> Result<(), ParseError> {
        let t = self.lx.next_token()?;
        match t.tok {
            Tok::Name(other) => {
                let a = self.node(first);
                let b = self.node(other);
                self.ops.push(Op::Alias(a, b));
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
        self.members.clear();
        loop {
            let t = self.next_skip_eol()?;
            match t.tok {
                Tok::RBrace => break,
                Tok::Name(m) => {
                    let id = self.node(m);
                    let cost = self.cost()?;
                    self.members.push((id, cost));
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
        let default_cost = self.cost()?.unwrap_or(DEFAULT);
        let net = self.node(net_name);
        for &(node, cost) in &self.members {
            let cost = cost.unwrap_or(default_cost);
            self.ops.push(Op::Member { node, cost });
        }
        self.ops.push(Op::Net { net, op: op.into() });
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
                self.ops.push(Op::Private(Span::of(self.text, name)));
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
                    let from = self.node(name);
                    let to = self.node(to_name);
                    self.ops.push(if kw == "dead" {
                        Op::DeadLink(from, to)
                    } else {
                        Op::DeleteLink(from, to)
                    });
                } else {
                    let id = self.node(name);
                    self.ops.push(if kw == "dead" {
                        Op::Dead(id)
                    } else {
                        Op::Delete(id)
                    });
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
                let node = self.node(name);
                self.ops.push(Op::Adjust { node, bias });
            }
            "file" => {
                self.ops.push(Op::File(Span::of(self.text, name)));
            }
            "gated" => {
                let id = self.node(name);
                self.ops.push(Op::Gated(id));
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
                let net = self.node(name);
                let host = self.node(host_name);
                self.ops.push(Op::Gateway { net, host });
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
    use pathalias_graph::{Cost, LinkFlags, NodeFlags};

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
    fn continuation_line_in_a_crlf_file() {
        let crlf = parse("a b(10), \\\r\n  c(20)\r\n").unwrap();
        assert_eq!(link_cost(&crlf, "a", "c"), Some(20));
        let net = parse("N = {a, \\\r\n b}(5)\r\nx y\r\n").unwrap();
        assert_eq!(link_cost(&net, "b", "N"), Some(5));
        let e = parse("a b(10), \\\r\n  c(20)\r\nq $\r\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 3));
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
