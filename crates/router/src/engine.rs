//! The [`PointToPoint`] engine: a frozen graph, its reverse CSR (built
//! on first use), a pool of reusable search state, and a small cache of
//! whole shortest-path trees for the sources that keep asking,
//! answering `src → dst` queries.

use crate::route::PathAnswer;
use crate::search::{search, search_ch, Query, Scratch, SearchStats};
use pathalias_graph::{ChIndex, Cost, EdgeId, FrozenGraph, NodeId, ReverseGraph};
use pathalias_mapper::cost_model::ch_weights;
use pathalias_mapper::{map_frozen_readonly, CostModel, Label, MapOptions, ShortestPathTree};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Why a point-to-point query produced no route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The source name does not resolve to a node.
    UnknownSource(String),
    /// The destination name does not resolve to a node.
    UnknownDest(String),
    /// The source has been `delete`d (or is otherwise unmappable) —
    /// the same refusal the mapper gives for a deleted tree root.
    DeletedSource,
    /// No path exists from source to destination.
    NoRoute,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownSource(name) => write!(f, "unknown source `{name}`"),
            RouteError::UnknownDest(name) => write!(f, "unknown destination `{name}`"),
            RouteError::DeletedSource => write!(f, "source has been deleted"),
            RouteError::NoRoute => write!(f, "no route"),
        }
    }
}

impl std::error::Error for RouteError {}

/// One entry of a `PATH * dst` answer: a node with a direct link to
/// the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViaEntry {
    /// The neighboring node.
    pub node: NodeId,
    /// The cheapest direct edge from `node` to the destination (folded
    /// cost, as the mapper would charge a non-source tail).
    pub cost: Cost,
}

/// Source trees an engine keeps, most recently used first.
const TREE_SLOTS: usize = 4;
/// Sources remembered as "asked once" while they have no tree.
const SEEN_SLOTS: usize = 8;

/// What the tree cache knows about a request's source.
enum Sighting {
    /// Its tree is kept: read the answer out of it.
    Kept(Arc<ShortestPathTree>),
    /// It asked recently and has no tree: build one and keep it.
    Repeat,
    /// Not seen recently: search, and remember it asked.
    First,
}

/// The source-tree cache in front of the search tiers.
///
/// A source's first request is searched and leaves only its id in the
/// `seen` ring; a second request while the id is still there pays for
/// the source's whole tree — the mapper's own, so a cached answer *is*
/// the parity oracle's — and later requests read their label from it.
/// Sources that ask once never cost a tree; sources that keep asking
/// cost one search and one tree, then a table read each.
struct TreeCache {
    /// At most [`TREE_SLOTS`] entries, most recently used first.
    trees: Vec<(NodeId, Arc<ShortestPathTree>)>,
    seen: [Option<NodeId>; SEEN_SLOTS],
    /// The `seen` slot the next first sighting overwrites.
    next_seen: usize,
}

impl TreeCache {
    fn new() -> TreeCache {
        TreeCache {
            trees: Vec::new(),
            seen: [None; SEEN_SLOTS],
            next_seen: 0,
        }
    }

    fn sight(&mut self, src: NodeId) -> Sighting {
        if let Some(i) = self.trees.iter().position(|(s, _)| *s == src) {
            self.trees[..=i].rotate_right(1);
            return Sighting::Kept(self.trees[0].1.clone());
        }
        if let Some(slot) = self.seen.iter_mut().find(|s| **s == Some(src)) {
            *slot = None;
            // Make room before the build, not after it: the victim's
            // arrays are the size the new tree's will be, so the
            // allocator hands them straight back and the engine never
            // holds more than `TREE_SLOTS` trees' worth at once.
            self.trees.truncate(TREE_SLOTS - 1);
            return Sighting::Repeat;
        }
        self.seen[self.next_seen] = Some(src);
        self.next_seen = (self.next_seen + 1) % SEEN_SLOTS;
        Sighting::First
    }

    fn keep(&mut self, src: NodeId, tree: Arc<ShortestPathTree>) {
        // Two threads can build the same source's tree at once; the
        // trees are identical, so the second is simply dropped.
        if self.trees.iter().any(|(s, _)| *s == src) {
            return;
        }
        // Again, for the builds that raced this one into the room
        // `sight` made.
        self.trees.truncate(TREE_SLOTS - 1);
        self.trees.insert(0, (src, tree));
    }
}

/// Locks `mutex`, reading past poison: the tree cache and the scratch
/// pool stay whole if a thread panics while it holds one (each is only
/// read, or gains or loses one whole entry, under the lock), and a
/// panic in one search must not fail every later `PATH`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The point-to-point route engine.
///
/// Holds an [`Arc<FrozenGraph>`] plus the reverse CSR and a pool of
/// generation-stamped search scratch, so concurrent queries allocate
/// nothing in the steady state. The reverse CSR is loaded from a PAGF
/// snapshot's reverse section when there is one, and otherwise built
/// by the first request that reads it (a bidirectional `PATH` search or
/// `PATH * dst`), so an engine costs nothing to make and a daemon that
/// answers only `QUERY` never holds one. Cloning the engine is cheap —
/// both graphs are shared; the scratch pool and the source-tree cache
/// are too (an `Arc` each), so clones also share warmed-up buffers and
/// kept trees, and the reverse CSR whichever clone builds it. A new
/// world means a new engine, so nothing ever has to invalidate a tree.
#[derive(Clone)]
pub struct PointToPoint {
    graph: Arc<FrozenGraph>,
    reverse: Arc<OnceLock<Arc<ReverseGraph>>>,
    ch: Option<Arc<ChIndex>>,
    model: CostModel,
    scratch: Arc<Mutex<Vec<Scratch>>>,
    trees: Arc<Mutex<TreeCache>>,
}

impl fmt::Debug for PointToPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointToPoint")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .finish_non_exhaustive()
    }
}

impl PointToPoint {
    /// Builds an engine over `graph`, in O(1): the reverse CSR (an
    /// O(n + m) counting sort) waits for the first request that reads
    /// it.
    pub fn new(graph: Arc<FrozenGraph>, model: CostModel) -> PointToPoint {
        PointToPoint::with_sections(graph, None, None, model)
    }

    /// Builds an engine from snapshot sections: the reverse CSR (built
    /// on first use when `None`) plus, optionally, a contraction
    /// hierarchy the `PATH` tier tries first. A given reverse index
    /// must be the transpose of `graph` — snapshot loading validates
    /// this; a mismatched pair is caught here in debug builds. The hierarchy is accepted
    /// only if it is structurally a hierarchy over `graph` *and* its
    /// edge weights match what [`ch_weights`] derives from `model` — on
    /// any mismatch (say, a snapshot frozen under different penalties)
    /// it is dropped and queries run bidirectional, merely slower.
    /// [`hierarchy`](Self::hierarchy) then returns `None`, which is how
    /// the daemon tells a `rejected` hierarchy from a `stored` one.
    pub fn with_sections(
        graph: Arc<FrozenGraph>,
        reverse: Option<Arc<ReverseGraph>>,
        ch: Option<Arc<ChIndex>>,
        model: CostModel,
    ) -> PointToPoint {
        debug_assert!(reverse
            .as_ref()
            .map_or(true, |r| r.validate_against(&graph)));
        let ch = ch.filter(|ch| {
            ch.validate_against(&graph) && ch.weights_consistent(&ch_weights(&graph, &model))
        });
        PointToPoint {
            graph,
            reverse: Arc::new(reverse.map_or_else(OnceLock::new, OnceLock::from)),
            ch,
            model,
            scratch: Arc::new(Mutex::new(Vec::new())),
            trees: Arc::new(Mutex::new(TreeCache::new())),
        }
    }

    /// Builds an engine with a freshly constructed hierarchy
    /// (contraction over the [`ch_weights`] metric) — what servers do
    /// when no snapshot section is available.
    pub fn with_fresh_hierarchy(graph: Arc<FrozenGraph>, model: CostModel) -> PointToPoint {
        let ch = Arc::new(ChIndex::build(&graph, &ch_weights(&graph, &model)));
        PointToPoint::with_sections(graph, None, Some(ch), model)
    }

    /// The graph this engine answers over.
    pub fn graph(&self) -> &Arc<FrozenGraph> {
        &self.graph
    }

    /// The reverse adjacency index, built now if no request has
    /// needed it yet. Concurrent first callers wait for one build.
    pub fn reverse(&self) -> &Arc<ReverseGraph> {
        self.reverse.get_or_init(|| Arc::new(self.graph.reverse()))
    }

    /// The reverse adjacency index if the engine holds one already
    /// (given, or built by a request), without building it.
    pub fn built_reverse(&self) -> Option<&Arc<ReverseGraph>> {
        self.reverse.get()
    }

    /// The contraction hierarchy, when the engine carries one.
    pub fn hierarchy(&self) -> Option<&Arc<ChIndex>> {
        self.ch.as_ref()
    }

    /// The cost model queries are answered under.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Resolves `src → dst` by name: from the source's kept tree when
    /// it has one, else through the search tiers.
    pub fn route(&self, src: &str, dst: &str) -> Result<PathAnswer, RouteError> {
        let (s, d) = self.resolve(src, dst)?;
        self.route_ids(s, d)
    }

    /// Resolves `src → dst` by id: from the source's kept tree when it
    /// has one, else through the search tiers.
    pub fn route_ids(&self, src: NodeId, dst: NodeId) -> Result<PathAnswer, RouteError> {
        self.run_cached(src, dst).map(|(a, _)| a)
    }

    /// Resolves `src → dst` by id through the search tiers alone
    /// (hierarchy, bidirectional, oracle), neither reading nor feeding
    /// the source-tree cache — what a source's first request runs.
    /// Parity tests and tier benchmarks use it to keep exercising the
    /// searches on sources a serving engine would answer from a tree.
    pub fn route_ids_uncached(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(PathAnswer, SearchStats), RouteError> {
        self.run(src, dst, true)
    }

    /// Resolves `src → dst` by id with the plain forward oracle
    /// (uni-directional Dijkstra, stopped at the destination, never
    /// cached). Same answer as [`route_ids`](Self::route_ids), fewer
    /// moving parts — the parity baseline and the benchmark's control.
    pub fn route_ids_unidirectional(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<PathAnswer, RouteError> {
        self.run(src, dst, false).map(|(a, _)| a)
    }

    /// [`route_ids`](Self::route_ids) plus the search counters
    /// (settled/pushed/pruned, and which stage answered), for tests
    /// and diagnostics.
    pub fn route_ids_with_stats(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(PathAnswer, SearchStats), RouteError> {
        self.run_cached(src, dst)
    }

    /// [`route`](Self::route) plus the search counters — the daemon
    /// uses the `from_tree`/`tried_ch`/`ch_certified` bits to report
    /// which stage answered.
    pub fn route_with_stats(
        &self,
        src: &str,
        dst: &str,
    ) -> Result<(PathAnswer, SearchStats), RouteError> {
        let (s, d) = self.resolve(src, dst)?;
        self.run_cached(s, d)
    }

    /// Answers `PATH * dst`: every node with a direct edge to `dst`,
    /// one entry per neighbor (cheapest edge wins), sorted by node id.
    /// This is a straight read of the reverse CSR — no search runs.
    pub fn via(&self, dst: &str) -> Result<Vec<ViaEntry>, RouteError> {
        let d = self.dst_id(dst)?;
        let mut out: Vec<ViaEntry> = Vec::new();
        // Reverse rows are edge-id ascending, not grouped by tail, so
        // dedup via a sort at the end (rows are short).
        for (tail, e) in self.reverse().in_edges(d) {
            let cost = self.graph.edge_cost(e);
            match out.iter_mut().find(|v| v.node == tail) {
                Some(v) => v.cost = v.cost.min(cost),
                None => out.push(ViaEntry { node: tail, cost }),
            }
        }
        out.sort_by_key(|v| v.node);
        Ok(out)
    }

    fn resolve(&self, src: &str, dst: &str) -> Result<(NodeId, NodeId), RouteError> {
        let s = self
            .resolve_name(src)
            .ok_or_else(|| RouteError::UnknownSource(src.to_string()))?;
        let d = self.dst_id(dst)?;
        Ok((s, d))
    }

    fn dst_id(&self, dst: &str) -> Result<NodeId, RouteError> {
        self.resolve_name(dst)
            .ok_or_else(|| RouteError::UnknownDest(dst.to_string()))
    }

    /// Resolves a name to a node, accepting both literal node names
    /// and the domain-qualified names the printer emits.
    ///
    /// The route table keys domain members by their fully qualified
    /// name — `format_route` appends the enclosing domain chain, so a
    /// node `waterlooastro` inside `.yalerelay96` inside `.edu` prints
    /// (and is queried) as `waterlooastro.yalerelay96.edu`, and the
    /// nested domain itself prints as `.yalerelay96.edu`. None of
    /// those are node names, so after an exact `id_of` miss this peels
    /// domain components off the right end: each peeled suffix must
    /// name a domain node that is a member of the previously peeled
    /// (outer) one, and the surviving prefix must be a member of the
    /// innermost domain. The membership checks keep unrelated names
    /// that merely end in `.edu` from resolving.
    fn resolve_name(&self, name: &str) -> Option<NodeId> {
        if let Some(id) = self.graph.id_of(name) {
            return Some(id);
        }
        let mut rest = name;
        let mut enclosing: Option<NodeId> = None;
        loop {
            let i = rest.rfind('.')?;
            if i == 0 {
                return None;
            }
            let peeled = self.graph.id_of(&rest[i..])?;
            if !self.graph.is_domain(peeled) {
                return None;
            }
            if let Some(outer) = enclosing {
                if !self.member_of(outer, peeled) {
                    return None;
                }
            }
            enclosing = Some(peeled);
            rest = &rest[..i];
            if let Some(host) = self.graph.id_of(rest) {
                if self.member_of(peeled, host) {
                    return Some(host);
                }
            }
        }
    }

    /// Whether `domain` has a direct (membership) edge to `node`.
    fn member_of(&self, domain: NodeId, node: NodeId) -> bool {
        let (_, row) = self.graph.edge_slice(domain);
        row.iter().any(|e| e.to() == node)
    }

    /// The serving path: the source-tree cache, then the search tiers.
    /// The cache lock covers only the lookup and the insert; a tree is
    /// built and read outside it.
    fn run_cached(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(PathAnswer, SearchStats), RouteError> {
        // Refused before the cache hears of it, as the mapper would
        // refuse to root a tree there.
        if !self.graph.is_mappable(src) {
            return Err(RouteError::DeletedSource);
        }
        let sighting = lock(&self.trees).sight(src);
        let from_tree = SearchStats {
            from_tree: true,
            ..SearchStats::default()
        };
        let (tree, stats) = match sighting {
            Sighting::First => return self.run(src, dst, true),
            Sighting::Kept(tree) => (tree, from_tree),
            Sighting::Repeat => {
                let start = Instant::now();
                let opts = MapOptions {
                    model: self.model,
                    ..MapOptions::default()
                };
                let tree = Arc::new(
                    map_frozen_readonly(&self.graph, src, &opts)
                        .expect("a mappable source roots a tree"),
                );
                let stats = SearchStats {
                    settled: tree.stats.mapped as u64,
                    pushes: tree.stats.pushes,
                    tree_build_us: Some(
                        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                    ),
                    ..from_tree
                };
                lock(&self.trees).keep(src, tree.clone());
                (tree, stats)
            }
        };
        self.answer(dst, |node| tree.label(node))
            .map(|answer| (answer, stats))
            .ok_or(RouteError::NoRoute)
    }

    /// `dst`'s answer from wherever a finished run left its labels (a
    /// kept tree, a search's scratch): the label, then the predecessor
    /// walk back to the source.
    fn answer(&self, dst: NodeId, label: impl Fn(NodeId) -> Option<Label>) -> Option<PathAnswer> {
        let dst_label = label(dst)?;
        let mut nodes: Vec<NodeId> = vec![dst];
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut pred = dst_label.pred;
        while let Some((p, e)) = pred {
            edges.push(e);
            nodes.push(p);
            pred = label(p)
                .expect("a labelled node's predecessor is labelled")
                .pred;
        }
        Some(PathAnswer {
            via_domain: dst_label.tainted,
            via_backlink: dst_label.via_backlink,
            ambiguous: dst_label.ambiguous,
            ..PathAnswer::from_walk(&self.graph, nodes, edges, dst_label.cost, dst_label.hops)
        })
    }

    fn run(
        &self,
        src: NodeId,
        dst: NodeId,
        bidirectional: bool,
    ) -> Result<(PathAnswer, SearchStats), RouteError> {
        if !self.graph.is_mappable(src) {
            return Err(RouteError::DeletedSource);
        }
        let mut scratch = lock(&self.scratch).pop().unwrap_or_else(Scratch::new);
        let q = Query {
            f: &self.graph,
            model: &self.model,
            src,
            dst,
        };
        // Tier order: contraction hierarchy, bidirectional, oracle —
        // each certified tier answers outright; an uncertified run
        // discards its labels and drops to the next (slower, but
        // correct by construction) tier.
        let mut outcome = match &self.ch {
            Some(ch) if bidirectional => {
                let mut o = search_ch(&q, ch, &mut scratch);
                o.stats.tried_ch = true;
                o.stats.ch_certified = o.certified;
                if !o.certified {
                    let ch_stats = o.stats;
                    o = search(&q, Some(&**self.reverse()), &mut scratch);
                    o.stats.tried_ch = true;
                    o.stats.pruned += ch_stats.pruned;
                    o.stats.backward_settled += ch_stats.backward_settled;
                }
                o
            }
            _ => search(&q, bidirectional.then(|| &**self.reverse()), &mut scratch),
        };
        if !outcome.certified {
            // The pruned run could not prove it matches the oracle
            // (greedy-vs-optimal shadowing near the query — see the
            // search module docs). Re-run the plain forward oracle,
            // which is exact by construction.
            let stats = outcome.stats;
            outcome = search(&q, None, &mut scratch);
            outcome.stats.pruned = stats.pruned;
            outcome.stats.backward_settled = stats.backward_settled;
            outcome.stats.tried_ch = stats.tried_ch;
            outcome.stats.fell_back = true;
        }
        let answer = self
            .answer(dst, |node| scratch.label(node))
            .map(|answer| (answer, outcome.stats));
        lock(&self.scratch).push(scratch);
        answer.ok_or(RouteError::NoRoute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::{Graph, RouteOp};

    /// Threads that panic while they hold the tree cache and the
    /// scratch pool poison both; `PATH` reads past the poison through a
    /// first sighting (a search), a repeat (a tree built and kept) and
    /// a kept tree, and answers as an engine that saw no panic.
    #[test]
    fn poisoned_locks_keep_answering() {
        let mut g = Graph::new();
        let (unc, duke, research) = (g.node("unc"), g.node("duke"), g.node("research"));
        g.declare_link(unc, duke, 100, RouteOp::UUCP);
        g.declare_link(duke, research, 200, RouteOp::UUCP);
        let graph = Arc::new(g.freeze());
        let clean = PointToPoint::new(graph.clone(), CostModel::default());
        let engine = PointToPoint::new(graph, CostModel::default());
        let trees = engine.trees.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = trees.lock().unwrap();
            panic!("injected panic under the tree-cache lock");
        });
        assert!(poisoner.join().is_err());
        let scratch = engine.scratch.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = scratch.lock().unwrap();
            panic!("injected panic under the scratch-pool lock");
        });
        assert!(poisoner.join().is_err());
        assert!(engine.trees.is_poisoned() && engine.scratch.is_poisoned());

        let want = clean.route("unc", "research").unwrap();
        assert_eq!(want.cost, 300);
        for from_tree in [false, true, true] {
            let (answer, stats) = engine.route_with_stats("unc", "research").unwrap();
            assert_eq!(answer, want);
            assert_eq!(stats.from_tree, from_tree);
        }
    }
}
