//! The connectivity graph: node and link vectors, name resolution, and
//! declaration semantics (duplicate links, networks, aliases, private
//! scoping).

use crate::cost::Cost;
use crate::diag::Warning;
use crate::flags::{LinkFlags, NodeFlags};
use crate::frozen::{FrozenGraph, Names};
use crate::link::{Link, RouteOp};
use crate::node::Node;
use pathalias_arena::Handle;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Identifies a node in the graph.
pub type NodeId = Handle<Node>;

/// Identifies a link in the graph.
pub type LinkId = Handle<Link>;

/// The end of a row's chain: no link.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Identifies an input file (for private scoping and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct FileId(u32);

impl FileId {
    /// Raw index of the file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which links of a row the [`RowIndex`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// Hand-written links: what `declare_link`'s duplicate rule sees.
    Explicit,
    /// Network exit edges: what `declare_network`'s membership rule sees.
    NetOut,
}

impl RowKind {
    fn admits(self, flags: LinkFlags) -> bool {
        match self {
            RowKind::Explicit => flags.is_explicit(),
            RowKind::NetOut => flags.contains(LinkFlags::NET_OUT),
        }
    }
}

/// "Seen target → newest link" for the links of one kind in one row,
/// so a declaration asks "is there already a link to `to`?" without
/// walking the row's chain. One walk fills it when a declaration moves
/// to another row or kind; `add_raw_link`, the only code that grows a
/// row, keeps it current.
#[derive(Debug, Default)]
struct RowIndex {
    /// The indexed row and kind; `None` when nothing is indexed.
    row: Option<(NodeId, RowKind)>,
    /// Links of that kind in the row.
    len: usize,
    /// Advanced on every fill, so stale entries need no clearing.
    epoch: u32,
    /// Per node: the epoch that last saw it as a target, and the link
    /// the row's chain reaches first (the newest).
    seen: Vec<(u32, LinkId)>,
}

/// The in-memory connectivity graph built by the parsing phase and
/// consumed by the mapping and printing phases.
///
/// The layout is the one the CSR snapshot wants, so that freezing
/// moves data instead of copying it: names in one store with their
/// index, node flags and biases in vectors, and links appended to one
/// vector in declaration order, each carrying its tail. Each node's
/// links also form a chain, newest first, as the original's adjacency
/// lists did: the declaration rules walk it.
///
/// # Name resolution
///
/// Host names normally have global scope across all input files. A
/// `private` declaration narrows the scope of a name "to the end of the
/// file in which it is declared": between the declaration and end of
/// file, the name resolves to a fresh, file-local node.
///
/// # Examples
///
/// ```
/// use pathalias_graph::{Graph, RouteOp};
///
/// let mut g = Graph::new();
/// g.begin_file("site-a");
/// let a = g.node("bilbo");
/// g.begin_file("site-b");
/// let b = g.declare_private("bilbo");
/// assert_ne!(a, b);
/// assert_eq!(g.node("bilbo"), b); // Still inside site-b.
/// g.begin_file("site-c");
/// assert_eq!(g.node("bilbo"), a); // Scope ended with the file.
/// ```
#[derive(Debug)]
pub struct Graph {
    /// Every node's name, and the index that resolves global names.
    names: Names,
    /// Per node: flags, `adjust` bias, and the newest link of its row
    /// ([`NO_LINK`] when it has none).
    flags: Vec<NodeFlags>,
    adjust: Vec<i64>,
    first_link: Vec<u32>,
    /// Every link, in declaration order.
    links: Vec<Link>,
    /// `private` bindings for the current file only.
    private_scope: HashMap<Box<str>, NodeId>,
    /// Per node: the last file whose text resolved a name to it
    /// (private-after-use diagnostics). File ids only grow, so nothing
    /// is cleared between files.
    mentioned_in: Vec<FileId>,
    row_index: RowIndex,
    files: Vec<String>,
    warnings: Vec<Warning>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty, case-sensitive graph.
    pub fn new() -> Self {
        Self::with_ignore_case(false)
    }

    /// Creates an empty graph; with `ignore_case` set, host names fold
    /// to lower case on every lookup (pathalias `-i`).
    pub fn with_ignore_case(ignore_case: bool) -> Self {
        Graph {
            names: Names::empty(ignore_case),
            flags: Vec::new(),
            adjust: Vec::new(),
            first_link: Vec::new(),
            links: Vec::new(),
            private_scope: HashMap::new(),
            mentioned_in: Vec::new(),
            row_index: RowIndex::default(),
            files: vec!["<input>".to_string()],
            warnings: Vec::new(),
        }
    }

    /// Whether lookups fold case.
    pub fn ignore_case(&self) -> bool {
        self.names.fold
    }

    /// Starts a new input file: private scope and mention tracking from
    /// the previous file end here.
    pub fn begin_file(&mut self, name: &str) -> FileId {
        self.private_scope.clear();
        self.files.push(name.to_string());
        FileId((self.files.len() - 1) as u32)
    }

    /// The current file id.
    pub fn current_file(&self) -> FileId {
        FileId((self.files.len() - 1) as u32)
    }

    /// The name of an input file.
    pub fn file_name(&self, f: FileId) -> &str {
        &self.files[f.index()]
    }

    /// The `private` binding of `name` in the current file.
    fn private_binding(&self, name: &str) -> Option<NodeId> {
        if self.private_scope.is_empty() {
            return None;
        }
        self.private_scope.get(self.key_of(name).as_ref()).copied()
    }

    /// The `private` scope's key for `name`: borrowed unless case
    /// folding has to rewrite it.
    fn key_of<'a>(&self, name: &'a str) -> Cow<'a, str> {
        if self.ignore_case() && name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        }
    }

    fn new_node(&mut self, name: &str, extra: NodeFlags) -> NodeId {
        let id = NodeId::from_raw(u32::try_from(self.flags.len()).expect("too many nodes"));
        let mut flags = extra;
        if name.starts_with('.') {
            flags.insert(NodeFlags::DOMAIN);
        }
        self.names.push(name);
        self.flags.push(flags);
        self.adjust.push(0);
        self.first_link.push(NO_LINK);
        self.mentioned_in.push(self.current_file());
        self.row_index.seen.push((0, LinkId::from_raw(0)));
        id
    }

    /// Resolves `name` to a node, creating it if unknown. Private
    /// bindings in the current file take precedence over the global
    /// name space.
    pub fn node(&mut self, name: &str) -> NodeId {
        assert!(!name.is_empty(), "host names cannot be empty");
        if let Some(id) = self.private_binding(name) {
            return id;
        }
        match self.names.probe(name) {
            Ok(id) => {
                self.mentioned_in[id as usize] = self.current_file();
                NodeId::from_raw(id)
            }
            Err(slot) => {
                let id = self.new_node(name, NodeFlags::empty());
                self.names.insert_at(slot, id.raw());
                id
            }
        }
    }

    /// Looks `name` up without creating it.
    pub fn try_node(&self, name: &str) -> Option<NodeId> {
        self.private_binding(name)
            .or_else(|| self.names.probe(name).ok().map(NodeId::from_raw))
    }

    /// Declares `name` private: a fresh node scoped from here to the end
    /// of the current file. Repeating the declaration in the same file
    /// returns the same node.
    pub fn declare_private(&mut self, name: &str) -> NodeId {
        if let Some(id) = self.private_binding(name) {
            return id;
        }
        // A private binding would have returned above, so a mention in
        // this file can only have resolved to the global node.
        let global = self.names.probe(name).ok();
        if global.is_some_and(|g| self.mentioned_in[g as usize] == self.current_file()) {
            self.warnings.push(Warning::PrivateAfterUse {
                host: name.to_string(),
            });
        }
        let id = self.new_node(name, NodeFlags::PRIVATE);
        let key = self.key_of(name).into_owned().into();
        self.private_scope.insert(key, id);
        id
    }

    /// The node's display name.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.get(id.index())
    }

    /// The node's flags and bias, by value.
    pub fn node_ref(&self, id: NodeId) -> Node {
        Node {
            flags: self.flags[id.index()],
            adjust: self.adjust[id.index()],
        }
    }

    /// Shared link access.
    pub fn link_ref(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of nodes (including private, deleted and network nodes).
    pub fn node_count(&self) -> usize {
        self.flags.len()
    }

    /// Number of links (including implicit and deleted ones).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all nodes in creation order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, Node)> + '_ {
        self.node_ids().map(|id| (id, self.node_ref(id)))
    }

    /// Iterates over all node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.flags.len() as u32).map(NodeId::from_raw)
    }

    /// Iterates over the links of `from`, newest first, as the
    /// original's adjacency lists ran.
    pub fn links_from(&self, from: NodeId) -> LinkIter<'_> {
        LinkIter {
            links: &self.links,
            cur: self.first_link[from.index()],
        }
    }

    /// Adds a link unconditionally (no duplicate handling), heading
    /// its row's chain exactly as the original prepended it.
    pub fn add_raw_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        cost: Cost,
        op: RouteOp,
        flags: LinkFlags,
    ) -> LinkId {
        let raw = u32::try_from(self.links.len())
            .ok()
            .filter(|&raw| raw != NO_LINK)
            .expect("too many links");
        let head = &mut self.first_link[from.index()];
        self.links.push(Link {
            from,
            to,
            cost,
            op,
            flags,
            next: *head,
        });
        *head = raw;
        let id = LinkId::from_raw(raw);
        // The new link heads the chain, so it is what a walk finds first.
        let index = &mut self.row_index;
        if index
            .row
            .is_some_and(|(row, kind)| row == from && kind.admits(flags))
        {
            index.seen[to.index()] = (index.epoch, id);
            index.len += 1;
        }
        id
    }

    /// Points the row index at `from`'s links of `kind`: one walk of
    /// the row unless it is there already.
    fn index_row(&mut self, from: NodeId, kind: RowKind) {
        let index = &mut self.row_index;
        if index.row == Some((from, kind)) {
            return;
        }
        index.row = Some((from, kind));
        index.len = 0;
        index.epoch = index.epoch.checked_add(1).unwrap_or_else(|| {
            index.seen.iter_mut().for_each(|s| s.0 = 0);
            1
        });
        let row = LinkIter {
            links: &self.links,
            cur: self.first_link[from.index()],
        };
        for (id, link) in row.filter(|(_, l)| kind.admits(l.flags)) {
            index.len += 1;
            let seen = &mut index.seen[link.to.index()];
            if seen.0 != index.epoch {
                *seen = (index.epoch, id);
            }
        }
    }

    /// The newest link to `to` among the indexed row's links.
    fn indexed_link(&self, to: NodeId) -> Option<LinkId> {
        let (epoch, id) = self.row_index.seen[to.index()];
        (epoch == self.row_index.epoch).then_some(id)
    }

    /// Finds the first explicit (hand-written) link `from -> to` by
    /// walking the row. `declare_link` answers the same question from
    /// the row index; this walk is the rule it must agree with.
    pub fn find_explicit_link(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.links_from(from)
            .find(|(_, l)| l.to == to && l.flags.is_explicit())
            .map(|(id, _)| id)
    }

    /// Finds any live (non-deleted) link `from -> to`.
    pub fn find_link(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.links_from(from)
            .find(|(_, l)| l.to == to && !l.flags.contains(LinkFlags::DELETED))
            .map(|(id, _)| id)
    }

    /// Declares an explicit link, applying the duplicate rule: if the
    /// link already exists, the cheapest declaration wins (a warning is
    /// recorded). Self links are ignored with a warning.
    pub fn declare_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        cost: Cost,
        op: RouteOp,
    ) -> Option<LinkId> {
        if from == to {
            let host = self.name(from).to_string();
            self.warnings.push(Warning::SelfLink { host });
            return None;
        }
        self.index_row(from, RowKind::Explicit);
        if let Some(existing) = self.indexed_link(to) {
            let old = self.links[existing.index()].cost;
            let (kept, dropped) = if cost < old {
                let l = &mut self.links[existing.index()];
                l.cost = cost;
                l.op = op;
                (cost, old)
            } else {
                (old, cost)
            };
            self.warnings.push(Warning::DuplicateLink {
                from: self.name(from).to_string(),
                to: self.name(to).to_string(),
                kept,
                dropped,
            });
            return Some(existing);
        }
        Some(self.add_raw_link(from, to, cost, op, LinkFlags::empty()))
    }

    /// Declares `net` as a network with the given members and per-member
    /// entry costs: each member gets an entry edge member→net at its
    /// cost and a free exit edge net→member ("you pay to get onto a
    /// network, but you get off for free").
    pub fn declare_network(&mut self, net: NodeId, members: &[(NodeId, Cost)], op: RouteOp) {
        self.index_row(net, RowKind::NetOut);
        if self.node_ref(net).is_net() && self.row_index.len > 0 {
            self.warnings.push(Warning::RedeclaredNet {
                net: self.name(net).to_string(),
            });
        }
        self.flags[net.index()].insert(NodeFlags::NET);
        for &(m, cost) in members {
            if m == net {
                let host = self.name(net).to_string();
                self.warnings.push(Warning::SelfLink { host });
                continue;
            }
            // Merge duplicate membership, keeping the cheaper entry.
            let dup_in = self
                .links_from(m)
                .find(|(_, l)| l.to == net && l.flags.contains(LinkFlags::NET_IN))
                .map(|(id, _)| id);
            match dup_in {
                Some(id) => {
                    let l = &mut self.links[id.index()];
                    if cost < l.cost {
                        l.cost = cost;
                        l.op = op;
                    }
                }
                None => {
                    self.add_raw_link(m, net, cost, op, LinkFlags::NET_IN);
                }
            }
            // `m != net`, so the entry edge above left the net's row alone.
            if self.indexed_link(m).is_none() {
                self.add_raw_link(net, m, 0, op, LinkFlags::NET_OUT);
            }
        }
    }

    /// Declares `a` and `b` aliases of one another: a pair of zero-cost
    /// alias edges. Idempotent; self-aliases are ignored with a warning.
    pub fn declare_alias(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            let host = self.name(a).to_string();
            self.warnings.push(Warning::SelfAlias { host });
            return;
        }
        let have_ab = self
            .links_from(a)
            .any(|(_, l)| l.to == b && l.flags.contains(LinkFlags::ALIAS));
        if !have_ab {
            self.add_raw_link(a, b, 0, RouteOp::UUCP, LinkFlags::ALIAS);
        }
        let have_ba = self
            .links_from(b)
            .any(|(_, l)| l.to == a && l.flags.contains(LinkFlags::ALIAS));
        if !have_ba {
            self.add_raw_link(b, a, 0, RouteOp::UUCP, LinkFlags::ALIAS);
        }
    }

    /// Marks a host dead: a legal destination that must never relay.
    pub fn mark_dead(&mut self, id: NodeId) {
        self.flags[id.index()].insert(NodeFlags::DEAD);
    }

    /// Marks the link `from -> to` dead (last resort). Returns false,
    /// with a warning, if no such link exists.
    pub fn mark_dead_link(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.find_link(from, to) {
            Some(l) => {
                self.links[l.index()].flags.insert(LinkFlags::DEAD);
                true
            }
            None => {
                self.warnings.push(Warning::NoSuchLink {
                    from: self.name(from).to_string(),
                    to: self.name(to).to_string(),
                });
                false
            }
        }
    }

    /// Deletes a host outright: it disappears from mapping and output.
    pub fn delete_node(&mut self, id: NodeId) {
        self.flags[id.index()].insert(NodeFlags::DELETED);
    }

    /// Deletes the link `from -> to`. Returns false, with a warning, if
    /// no such link exists.
    pub fn delete_link(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.find_link(from, to) {
            Some(l) => {
                self.links[l.index()].flags.insert(LinkFlags::DELETED);
                true
            }
            None => {
                self.warnings.push(Warning::NoSuchLink {
                    from: self.name(from).to_string(),
                    to: self.name(to).to_string(),
                });
                false
            }
        }
    }

    /// Applies an `adjust` bias to a node (added to every path that
    /// transits it).
    pub fn adjust_node(&mut self, id: NodeId, bias: i64) {
        let adjust = &mut self.adjust[id.index()];
        *adjust = adjust.saturating_add(bias);
        self.flags[id.index()].insert(NodeFlags::ADJUSTED);
    }

    /// Marks a network as requiring explicit gateways.
    pub fn mark_gated(&mut self, id: NodeId) {
        self.flags[id.index()].insert(NodeFlags::GATED | NodeFlags::NET);
    }

    /// Declares `host` a gateway into `net`: every live link host→net
    /// becomes a gateway link. Returns false, with a warning, if no such
    /// link exists.
    pub fn declare_gateway(&mut self, net: NodeId, host: NodeId) -> bool {
        let ids: Vec<LinkId> = self
            .links_from(host)
            .filter(|(_, l)| l.to == net && !l.flags.contains(LinkFlags::DELETED))
            .map(|(id, _)| id)
            .collect();
        if ids.is_empty() {
            self.warnings.push(Warning::NoSuchLink {
                from: self.name(host).to_string(),
                to: self.name(net).to_string(),
            });
            return false;
        }
        for id in ids {
            self.links[id.index()].flags.insert(LinkFlags::GATEWAY);
        }
        true
    }

    /// Post-parse validation: records the
    /// [`validation_warnings`](Graph::validation_warnings).
    pub fn validate(&mut self) {
        let found = self.validation_warnings();
        self.warnings.extend(found);
    }

    /// Warnings for suspicious but legal constructs (currently:
    /// `gateway` links into ungated networks) over the whole graph as
    /// it stands, recorded nowhere. They come in node order, newest
    /// link first within a row: the order a walk of every chain finds
    /// them in.
    pub fn validation_warnings(&self) -> Vec<Warning> {
        let mut found: Vec<(NodeId, Reverse<usize>)> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.flags.contains(LinkFlags::GATEWAY) && !self.node_ref(l.to).is_gated()
            })
            .map(|(i, l)| (l.from, Reverse(i)))
            .collect();
        found.sort_unstable();
        found
            .into_iter()
            .map(|(from, Reverse(i))| Warning::GatewayIntoUngated {
                net: self.name(self.links[i].to).to_string(),
                host: self.name(from).to_string(),
            })
            .collect()
    }

    /// Warnings recorded so far.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Takes ownership of the recorded warnings, clearing the list.
    pub fn take_warnings(&mut self) -> Vec<Warning> {
        std::mem::take(&mut self.warnings)
    }

    /// Records an externally generated warning (used by the parser).
    pub fn push_warning(&mut self, w: Warning) {
        self.warnings.push(w);
    }

    /// Freezes the built graph into its immutable CSR snapshot (see
    /// [`FrozenGraph`]); the graph stays as it is, so more input can
    /// follow.
    pub fn freeze(&self) -> FrozenGraph {
        let mut names = self.names.clone();
        names.index_private_only(&self.flags);
        FrozenGraph::from_parts(names, self.flags.clone(), self.adjust.clone(), &self.links)
    }

    /// [`freeze`](Graph::freeze), consuming the graph: the names, node
    /// flags and biases move into the snapshot, what only declarations
    /// read is freed before the CSR is built, and the links once it is.
    /// Take the warnings first ([`take_warnings`](Graph::take_warnings)).
    pub fn into_frozen(self) -> FrozenGraph {
        let Graph {
            mut names,
            flags,
            adjust,
            links,
            private_scope,
            mentioned_in,
            row_index,
            ..
        } = self;
        drop((private_scope, mentioned_in, row_index));
        names.index_private_only(&flags);
        FrozenGraph::from_parts(names, flags, adjust, &links)
    }
}

/// Iterator over a node's links, newest first.
pub struct LinkIter<'a> {
    links: &'a [Link],
    cur: u32,
}

impl<'a> Iterator for LinkIter<'a> {
    type Item = (LinkId, &'a Link);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.cur;
        let link = self.links.get(id as usize)?;
        self.cur = link.next;
        Some((LinkId::from_raw(id), link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DEFAULT_COST;

    #[test]
    fn node_interning() {
        let mut g = Graph::new();
        let a = g.node("seismo");
        let b = g.node("seismo");
        assert_eq!(a, b);
        assert_eq!(g.name(a), "seismo");
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn case_folding_optional() {
        let mut g = Graph::new();
        assert_ne!(g.node("UNC"), g.node("unc"));

        let mut g = Graph::with_ignore_case(true);
        assert_eq!(g.node("UNC"), g.node("unc"));
        // The first-seen spelling is kept for display.
        let id = g.node("unc");
        assert_eq!(g.name(id), "UNC");
    }

    #[test]
    fn domain_flag_automatic() {
        let mut g = Graph::new();
        let d = g.node(".edu");
        assert!(g.node_ref(d).is_domain());
        assert!(g.node_ref(d).is_gated());
        let h = g.node("edu");
        assert!(!g.node_ref(h).is_domain());
    }

    #[test]
    fn links_prepend_like_the_original() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, c, 20, RouteOp::UUCP);
        let tos: Vec<NodeId> = g.links_from(a).map(|(_, l)| l.to).collect();
        assert_eq!(tos, vec![c, b], "newest link first");
    }

    #[test]
    fn duplicate_link_keeps_cheapest() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 300, RouteOp::UUCP);
        g.declare_link(a, b, 100, RouteOp::ARPA);
        g.declare_link(a, b, 200, RouteOp::UUCP);
        assert_eq!(g.links_from(a).count(), 1);
        let (_, l) = g.links_from(a).next().unwrap();
        assert_eq!(l.cost, 100);
        assert_eq!(l.op, RouteOp::ARPA);
        assert_eq!(g.warnings().len(), 2);
    }

    #[test]
    fn self_link_ignored() {
        let mut g = Graph::new();
        let a = g.node("a");
        assert!(g.declare_link(a, a, 10, RouteOp::UUCP).is_none());
        assert_eq!(g.links_from(a).count(), 0);
        assert!(matches!(g.warnings()[0], Warning::SelfLink { .. }));
    }

    #[test]
    fn network_creates_paired_edges() {
        let mut g = Graph::new();
        let net = g.node("ARPA");
        let m1 = g.node("mit-ai");
        let m2 = g.node("ucbvax");
        g.declare_network(net, &[(m1, 95), (m2, 95)], RouteOp::ARPA);

        assert!(g.node_ref(net).is_net());
        // Entry edges carry the cost.
        let (_, l) = g
            .links_from(m1)
            .find(|(_, l)| l.to == net)
            .expect("entry edge");
        assert_eq!(l.cost, 95);
        assert!(l.flags.contains(LinkFlags::NET_IN));
        // Exit edges are free.
        let outs: Vec<&Link> = g.links_from(net).map(|(_, l)| l).collect();
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|l| l.cost == 0));
        assert!(outs.iter().all(|l| l.flags.contains(LinkFlags::NET_OUT)));
    }

    #[test]
    fn network_membership_merges_on_redeclaration() {
        let mut g = Graph::new();
        let net = g.node("N");
        let m = g.node("m");
        g.declare_network(net, &[(m, 100)], RouteOp::UUCP);
        g.declare_network(net, &[(m, 50)], RouteOp::UUCP);
        // Cheaper entry wins; no duplicate edges.
        let entries: Vec<&Link> = g
            .links_from(m)
            .filter(|(_, l)| l.to == net)
            .map(|(_, l)| l)
            .collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].cost, 50);
        assert_eq!(g.links_from(net).count(), 1);
        assert!(g
            .warnings()
            .iter()
            .any(|w| matches!(w, Warning::RedeclaredNet { .. })));
    }

    #[test]
    fn alias_edges_are_paired_zero_cost() {
        let mut g = Graph::new();
        let p = g.node("princeton");
        let f = g.node("fun");
        g.declare_alias(p, f);
        g.declare_alias(p, f); // Idempotent.
        let (_, ab) = g.links_from(p).next().unwrap();
        let (_, ba) = g.links_from(f).next().unwrap();
        assert_eq!(ab.to, f);
        assert_eq!(ba.to, p);
        assert_eq!(ab.cost, 0);
        assert!(ab.flags.contains(LinkFlags::ALIAS));
        assert_eq!(g.links_from(p).count(), 1);
        assert_eq!(g.links_from(f).count(), 1);
    }

    #[test]
    fn private_scoping_follows_files() {
        let mut g = Graph::new();
        g.begin_file("one");
        let global = g.node("bilbo");
        let princeton = g.node("princeton");
        g.declare_link(global, princeton, DEFAULT_COST, RouteOp::UUCP);

        g.begin_file("two");
        let private = g.declare_private("bilbo");
        assert_ne!(global, private);
        assert!(g.node_ref(private).flags.contains(NodeFlags::PRIVATE));
        // Inside file two, "bilbo" means the private node.
        assert_eq!(g.node("bilbo"), private);
        // Repeated declaration: same node.
        assert_eq!(g.declare_private("bilbo"), private);

        g.begin_file("three");
        assert_eq!(g.node("bilbo"), global);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn private_after_use_warns() {
        let mut g = Graph::new();
        g.begin_file("f");
        let _ = g.node("bilbo");
        let _ = g.declare_private("bilbo");
        assert!(g
            .warnings()
            .iter()
            .any(|w| matches!(w, Warning::PrivateAfterUse { .. })));
    }

    /// Runs `check` case-sensitively and under `-i`; `again` spells a
    /// repeated mention of a name (upper case when folding, so the
    /// second spelling differs from the first).
    fn with_and_without_folding(check: impl Fn(Graph, &dyn Fn(&str) -> String)) {
        check(Graph::new(), &|s| s.to_string());
        check(Graph::with_ignore_case(true), &|s| s.to_ascii_uppercase());
    }

    fn row(g: &Graph, from: NodeId) -> Vec<(NodeId, Cost, LinkFlags)> {
        g.links_from(from)
            .map(|(_, l)| (l.to, l.cost, l.flags))
            .collect()
    }

    #[test]
    fn duplicate_link_found_across_other_statements_and_files() {
        with_and_without_folding(|mut g, again| {
            g.begin_file("one");
            let (a, b, c) = (g.node("a"), g.node("b"), g.node("c"));
            let first = g.declare_link(a, b, 300, RouteOp::UUCP).unwrap();
            // Another host's statement moves the row index away.
            g.declare_link(c, b, 10, RouteOp::UUCP);
            let (a2, b2) = (g.node(&again("a")), g.node(&again("b")));
            assert_eq!(g.declare_link(a2, b2, 100, RouteOp::ARPA), Some(first));
            g.begin_file("two");
            g.declare_link(c, a, 10, RouteOp::UUCP);
            assert_eq!(g.declare_link(a, b, 200, RouteOp::UUCP), Some(first));

            assert_eq!(row(&g, a), vec![(b, 100, LinkFlags::empty())]);
            assert_eq!(
                g.link_ref(first).op,
                RouteOp::ARPA,
                "op follows the cheaper"
            );
            let dup = |kept, dropped| Warning::DuplicateLink {
                from: "a".into(),
                to: "b".into(),
                kept,
                dropped,
            };
            assert_eq!(g.warnings(), [dup(100, 300), dup(100, 200)]);
        });
    }

    #[test]
    fn duplicate_link_sees_foreign_writers_to_the_row() {
        let mut g = Graph::new();
        let (a, b, c, d, e) = (
            g.node("a"),
            g.node("b"),
            g.node("c"),
            g.node("d"),
            g.node("e"),
        );
        let ab = g.declare_link(a, b, 10, RouteOp::UUCP).unwrap();
        // Raw links land in the row the index is pointing at.
        let ac = g.add_raw_link(a, c, 5, RouteOp::UUCP, LinkFlags::empty());
        assert_eq!(g.declare_link(a, c, 3, RouteOp::UUCP), Some(ac));
        assert_eq!(g.link_ref(ac).cost, 3);
        // Two parallel raw links: the newest heads the list and wins.
        g.add_raw_link(a, d, 30, RouteOp::UUCP, LinkFlags::empty());
        let newest = g.add_raw_link(a, d, 10, RouteOp::UUCP, LinkFlags::empty());
        assert_eq!(g.find_explicit_link(a, d), Some(newest));
        assert_eq!(g.declare_link(a, d, 20, RouteOp::UUCP), Some(newest));
        // A link of another kind to the same target is no duplicate.
        g.add_raw_link(a, e, 0, RouteOp::UUCP, LinkFlags::ALIAS);
        let ae = g.declare_link(a, e, 7, RouteOp::UUCP).unwrap();
        assert_eq!(g.find_explicit_link(a, e), Some(ae));
        // The oldest link of the row is still found after all that.
        assert_eq!(g.declare_link(a, b, 9, RouteOp::UUCP), Some(ab));
        assert_eq!(g.link_ref(ab).cost, 9);
        assert_eq!(g.links_from(a).count(), 6);
        assert_eq!(g.warnings().len(), 3);
    }

    #[test]
    fn network_redeclared_with_overlapping_members() {
        with_and_without_folding(|mut g, again| {
            let net = g.node("net");
            let (m1, m2, m3) = (g.node("m1"), g.node("m2"), g.node("m3"));
            g.declare_network(net, &[(m1, 100), (m2, 100)], RouteOp::UUCP);
            g.declare_link(m3, m1, 10, RouteOp::UUCP);
            let net2 = g.node(&again("net"));
            g.declare_network(net2, &[(m2, 50), (m3, 70), (m1, 200)], RouteOp::ARPA);

            // One exit edge per member, first declaration's order kept.
            let out = LinkFlags::NET_OUT;
            assert_eq!(row(&g, net), vec![(m3, 0, out), (m2, 0, out), (m1, 0, out)]);
            let entry = |m| {
                let (_, l) = g.links_from(m).find(|(_, l)| l.to == net).unwrap();
                (l.cost, l.op)
            };
            assert_eq!(entry(m1), (100, RouteOp::UUCP));
            assert_eq!(entry(m2), (50, RouteOp::ARPA), "cheaper entry kept");
            assert_eq!(entry(m3), (70, RouteOp::ARPA));
            assert_eq!(g.links_from(m2).count(), 1);
            assert_eq!(g.warnings(), [Warning::RedeclaredNet { net: "net".into() }]);
        });
    }

    #[test]
    fn private_after_use_is_per_file_and_per_global_name() {
        with_and_without_folding(|mut g, again| {
            let warned = |g: &Graph| g.warnings().len();
            g.begin_file("one");
            let global = g.node("x");
            g.declare_private(&again("x"));
            assert_eq!(
                g.warnings(),
                [Warning::PrivateAfterUse { host: again("x") }]
            );
            // Mentioned in file one only: file two may hide it quietly.
            g.begin_file("two");
            let hidden = g.declare_private("x");
            assert_eq!(g.node(&again("x")), hidden);
            assert_eq!(g.declare_private("x"), hidden);
            // `y` is only ever resolved through its private binding.
            let y = g.declare_private("y");
            assert_eq!(g.node(&again("y")), y);
            assert_eq!(g.declare_private(&again("y")), y);
            assert_eq!(warned(&g), 1);
            g.begin_file("three");
            assert_eq!(g.try_node("y"), None);
            assert_eq!(g.node("x"), global);
            g.declare_private("y");
            assert_eq!(warned(&g), 1);
        });
    }

    #[test]
    fn dead_and_delete() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        assert!(g.mark_dead_link(a, b));
        assert!(!g.mark_dead_link(b, a));
        g.mark_dead(a);
        assert!(g.node_ref(a).flags.contains(NodeFlags::DEAD));
        assert!(g.delete_link(a, b));
        assert!(g.find_link(a, b).is_none());
        g.delete_node(b);
        assert!(!g.node_ref(b).is_mappable());
    }

    #[test]
    fn gateway_declaration() {
        let mut g = Graph::new();
        let net = g.node("CSNET");
        let host = g.node("relay");
        g.mark_gated(net);
        // Before any link exists the declaration fails.
        assert!(!g.declare_gateway(net, host));
        g.declare_link(host, net, 10, RouteOp::UUCP);
        assert!(g.declare_gateway(net, host));
        let (_, l) = g.links_from(host).next().unwrap();
        assert!(l.flags.contains(LinkFlags::GATEWAY));
    }

    #[test]
    fn validate_flags_gateway_into_ungated() {
        let mut g = Graph::new();
        let net = g.node("OPEN");
        let host = g.node("h");
        g.declare_network(net, &[], RouteOp::UUCP);
        g.declare_link(host, net, 10, RouteOp::UUCP);
        g.declare_gateway(net, host);
        g.validate();
        assert!(g
            .warnings()
            .iter()
            .any(|w| matches!(w, Warning::GatewayIntoUngated { .. })));
    }

    #[test]
    fn adjust_accumulates() {
        let mut g = Graph::new();
        let a = g.node("a");
        g.adjust_node(a, 100);
        g.adjust_node(a, -30);
        assert_eq!(g.node_ref(a).adjust, 70);
        assert!(g.node_ref(a).flags.contains(NodeFlags::ADJUSTED));
    }

    #[test]
    fn into_frozen_is_freeze() {
        let mut g = Graph::new();
        g.begin_file("one");
        let a = g.node("a");
        g.declare_private("p");
        let p = g.node("p");
        g.declare_link(a, p, 10, RouteOp::UUCP);
        g.begin_file("two");
        let p2 = g.node("p");
        g.declare_link(p2, a, 5, RouteOp::UUCP);
        let frozen = g.freeze();
        assert_eq!(g.into_frozen(), frozen);
    }

    #[test]
    fn take_warnings_clears() {
        let mut g = Graph::new();
        let a = g.node("a");
        g.declare_link(a, a, 1, RouteOp::UUCP);
        assert_eq!(g.take_warnings().len(), 1);
        assert!(g.warnings().is_empty());
    }
}
