//! Recorded declarations: what the parser asks of the [`Graph`], written
//! down so that another thread can declare it.
//!
//! The parser does not call the graph. It appends one [`Op`] per graph
//! call to an [`Ops`] buffer, in the order the calls would have been
//! made, and a [`Declarer`] replays the buffer into the graph. Reading
//! and declaring then split across two threads
//! ([`parse_inputs`](crate::parse_inputs)), and a single input takes the
//! same two steps on one ([`parse_into`](crate::parse_into)).
//!
//! An op is 16 bytes: names are spans into the input text, nodes are
//! 32-bit slots numbered by the buffer's [`Op::Node`] ops, and costs
//! are `u32` (the cost evaluator caps them at `u32::MAX`). A buffer
//! ends only at a statement boundary, or at a parse error, so no slot
//! is named outside the buffer that resolved it.

use pathalias_graph::{Cost, Dir, Graph, NodeId, RouteOp};

/// A byte range of the input text that holds a name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span of `name`, a slice of `text`.
    pub(crate) fn of(text: &str, name: &str) -> Span {
        let start = name.as_ptr() as usize - text.as_ptr() as usize;
        debug_assert!(
            start + name.len() <= text.len(),
            "a name is a slice of its text"
        );
        Span {
            start: start as u32,
            len: name.len() as u32,
        }
    }

    fn get(self, text: &str) -> &str {
        let start = self.start as usize;
        &text[start..start + self.len as usize]
    }
}

/// A routing operator in two bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    ch: u8,
    dir: Dir,
}

impl From<RouteOp> for Route {
    fn from(op: RouteOp) -> Route {
        // The scanner's operators are the ASCII `! @ : %`.
        Route {
            ch: op.ch as u8,
            dir: op.dir,
        }
    }
}

impl From<Route> for RouteOp {
    fn from(r: Route) -> RouteOp {
        RouteOp {
            ch: char::from(r.ch),
            dir: r.dir,
        }
    }
}

/// One graph call. `u32` fields name slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// [`Graph::node`]; the id fills the buffer's next slot.
    Node(Span),
    /// [`Graph::begin_file`], from a `file {name}` command.
    File(Span),
    /// [`Graph::declare_private`].
    Private(Span),
    /// [`Graph::declare_link`].
    Link {
        from: u32,
        to: u32,
        cost: u32,
        op: Route,
    },
    /// [`Graph::declare_alias`].
    Alias(u32, u32),
    /// One member of the network the next [`Op::Net`] declares.
    Member { node: u32, cost: u32 },
    /// [`Graph::declare_network`] over the members listed since the
    /// last one.
    Net { net: u32, op: Route },
    /// [`Graph::mark_dead`].
    Dead(u32),
    /// [`Graph::delete_node`].
    Delete(u32),
    /// [`Graph::mark_dead_link`].
    DeadLink(u32, u32),
    /// [`Graph::delete_link`].
    DeleteLink(u32, u32),
    /// [`Graph::adjust_node`].
    Adjust { node: u32, bias: i64 },
    /// [`Graph::mark_gated`].
    Gated(u32),
    /// [`Graph::declare_gateway`].
    Gateway { net: u32, host: u32 },
}

/// One buffer of recorded graph calls.
#[derive(Debug, Default)]
pub(crate) struct Ops {
    ops: Vec<Op>,
    /// Slots the buffer's [`Op::Node`] ops fill.
    slots: u32,
}

impl Ops {
    /// An empty buffer with room for `n` ops.
    pub(crate) fn with_capacity(n: usize) -> Ops {
        Ops {
            ops: Vec::with_capacity(n),
            slots: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.slots = 0;
    }

    pub(crate) fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Records [`Graph::node`]; returns the slot its id will fill.
    pub(crate) fn node(&mut self, name: Span) -> u32 {
        self.ops.push(Op::Node(name));
        self.slots += 1;
        self.slots - 1
    }
}

/// Replays [`Ops`] buffers into a graph, keeping its scratch between
/// buffers.
#[derive(Debug, Default)]
pub(crate) struct Declarer {
    /// The node id of each slot of the buffer being declared.
    ids: Vec<NodeId>,
    /// The members of the network being declared.
    members: Vec<(NodeId, Cost)>,
}

impl Declarer {
    /// Makes the calls `ops` records, in order; its spans are into
    /// `text`.
    pub(crate) fn apply(&mut self, g: &mut Graph, ops: &Ops, text: &str) {
        self.ids.clear();
        for &op in &ops.ops {
            let id = |slot: u32| self.ids[slot as usize];
            match op {
                Op::Node(name) => {
                    let node = g.node(name.get(text));
                    self.ids.push(node);
                }
                Op::File(name) => {
                    g.begin_file(name.get(text));
                }
                Op::Private(name) => {
                    g.declare_private(name.get(text));
                }
                Op::Link { from, to, cost, op } => {
                    g.declare_link(id(from), id(to), Cost::from(cost), op.into());
                }
                Op::Alias(a, b) => g.declare_alias(id(a), id(b)),
                Op::Member { node, cost } => {
                    let member = (id(node), Cost::from(cost));
                    self.members.push(member);
                }
                Op::Net { net, op } => {
                    g.declare_network(id(net), &self.members, op.into());
                    self.members.clear();
                }
                Op::Dead(node) => g.mark_dead(id(node)),
                Op::Delete(node) => g.delete_node(id(node)),
                Op::DeadLink(from, to) => {
                    g.mark_dead_link(id(from), id(to));
                }
                Op::DeleteLink(from, to) => {
                    g.delete_link(id(from), id(to));
                }
                Op::Adjust { node, bias } => g.adjust_node(id(node), bias),
                Op::Gated(node) => g.mark_gated(id(node)),
                Op::Gateway { net, host } => {
                    g.declare_gateway(id(net), id(host));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }
}
