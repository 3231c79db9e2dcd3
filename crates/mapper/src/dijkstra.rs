//! The mapping algorithms: heap Dijkstra over the frozen CSR graph,
//! its incremental repair, and the back-link pass.
//!
//! The engine traverses a [`FrozenGraph`]: contiguous edge slices per
//! node instead of the build-time linked lists, dense visit arrays
//! indexed by node id, and `adjust` biases already folded into the
//! stored costs. Callers that hold only a mutable [`Graph`] can use the
//! freezing wrappers ([`map`], [`map_readonly`]); anything that maps
//! more than once — the staged pipeline, the server, the
//! point-to-point engine's tree cache — freezes once and calls the
//! `*_frozen` entry points.

use crate::cost_model::{
    pack_key, settle, source_label, unpack_label, CostModel, Key, Packed, Settled, Tail, LABELLED,
    MAPPED, NO_PRED,
};
use crate::tree::{Children, Label, MapStats, ShortestPathTree, TraceDecision, TraceEvent};
use pathalias_graph::{
    EdgeId, EdgeShift, FrozenEdge, FrozenGraph, Graph, LinkFlags, NodeId, ReverseGraph,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Options for a mapping run.
#[derive(Debug, Clone, Default)]
pub struct MapOptions {
    /// Penalty configuration.
    pub model: CostModel,
    /// Trace relaxations whose head or tail is one of these nodes
    /// (pathalias `-t`).
    pub trace: Vec<NodeId>,
    /// Skip domain nodes entirely (used by the second-best pass).
    pub exclude_domains: bool,
    /// Disable the back-link pass in [`map`].
    pub no_backlinks: bool,
}

/// Errors from mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The source node has been `delete`d.
    DeletedSource,
    /// The source is a domain but domains are excluded from this run.
    ExcludedSource,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::DeletedSource => write!(f, "mapping source has been deleted"),
            MapError::ExcludedSource => {
                write!(f, "mapping source is a domain but domains are excluded")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Shared relaxation state for a run and its repair: labels kept as
/// dense parallel arrays (struct-of-arrays), so the common "candidate
/// is worse" outcome touches two words, not a whole label.
struct Run<'g> {
    f: &'g FrozenGraph,
    model: CostModel,
    exclude_domains: bool,
    source: NodeId,
    /// Each labelled node's packed heap key (cost, hops, own id):
    /// comparing two candidates for the same node is one `u128`
    /// compare, and the key pushed on improvement is the stored value.
    key: Vec<Key>,
    pred: Vec<(u32, u32)>,
    state: Vec<u8>,
    stats: MapStats,
    /// Only consulted when tracing was requested; the empty-set case
    /// skips the per-relaxation lookups entirely.
    tracing: bool,
    trace_set: HashSet<NodeId>,
    trace: Vec<TraceEvent>,
    /// In a resumed back-link round, the nodes earlier rounds settled;
    /// empty otherwise.
    earlier: Vec<bool>,
    /// A relaxation out of a newly reached host tied or beat the label
    /// of a node in `earlier` (see [`map_frozen`]).
    interfered: bool,
    /// In a repair, every label it cleared or set, as it was before,
    /// in the order it did (with repeats); empty otherwise.
    undo: Vec<(NodeId, Packed)>,
    /// In a repair, every node it extracted; empty otherwise.
    extracted: Vec<NodeId>,
}

/// How a run drains: from scratch, as a resumed back-link round (which
/// also checks what it offers the nodes earlier rounds settled), or as
/// a repair (which also logs every label it overwrites and every node
/// it extracts). The checks compile away in the runs that do not make
/// them.
const FROM_SCRATCH: u8 = 0;
const RESUMED: u8 = 1;
const REPAIR: u8 = 2;

/// A drained run's per-node state, detached from the graph it was
/// computed over: what one back-link round hands the next.
struct Carry {
    key: Vec<Key>,
    pred: Vec<(u32, u32)>,
    state: Vec<u8>,
    stats: MapStats,
    /// Each invented link's tail, with the ids its invented edges have
    /// in the next round's graph (the end of its row).
    appended: Vec<(NodeId, Range<u32>)>,
}

impl<'g> Run<'g> {
    fn new(f: &'g FrozenGraph, source: NodeId, opts: &MapOptions) -> Result<Self, MapError> {
        check_source(f, source, opts)?;
        let n = f.node_count();
        let mut run = Run::with_labels(
            f,
            source,
            opts,
            (0..n as u32).map(|i| pack_key(0, 0, i)).collect(),
            vec![NO_PRED; n],
            vec![0; n],
            MapStats::default(),
        );
        run.set(source, source_label(f, source));
        Ok(run)
    }

    /// A run over `f` holding the given per-node state.
    fn with_labels(
        f: &'g FrozenGraph,
        source: NodeId,
        opts: &MapOptions,
        key: Vec<Key>,
        pred: Vec<(u32, u32)>,
        state: Vec<u8>,
        stats: MapStats,
    ) -> Self {
        Run {
            f,
            model: opts.model,
            exclude_domains: opts.exclude_domains,
            source,
            key,
            pred,
            state,
            stats,
            tracing: !opts.trace.is_empty(),
            trace_set: opts.trace.iter().copied().collect(),
            trace: Vec::new(),
            earlier: Vec::new(),
            interfered: false,
            undo: Vec::new(),
            extracted: Vec::new(),
        }
    }

    /// Hands this drained run's state on to `next`, the graph
    /// `with_edges_appended` built from this run's one. Appending keeps
    /// each row's old edges in order and puts the extras at its end,
    /// so an old edge moves by exactly the number of edges appended to
    /// earlier rows: every stored predecessor edge is shifted by how
    /// far its tail's row start moved.
    fn carry(self, next: &FrozenGraph) -> Carry {
        let Run {
            f,
            key,
            mut pred,
            state,
            stats,
            ..
        } = self;
        let moved = |u: usize| (next.row(u).start - f.row(u).start) as u32;
        for p in pred.iter_mut().filter(|p| **p != NO_PRED) {
            p.1 += moved(p.0 as usize);
        }
        let appended = (0..f.node_count())
            .filter_map(|u| {
                let (old, new) = (f.row(u), next.row(u));
                (new.len() > old.len()).then(|| {
                    (
                        NodeId::from_raw(u as u32),
                        (new.start + old.len()) as u32..new.end as u32,
                    )
                })
            })
            .collect();
        Carry {
            key,
            pred,
            state,
            stats,
            appended,
        }
    }

    /// Continues a carried run over the augmented graph `f`: offers
    /// every invented link from its already-mapped tail, then drains
    /// the hosts those offers reach. Sets `interfered` when a
    /// relaxation out of one of them would have tied or beaten an
    /// earlier round's label.
    fn resume(f: &'g FrozenGraph, source: NodeId, opts: &MapOptions, carry: Carry) -> Self {
        let earlier = carry.state.iter().map(|&s| s & MAPPED != 0).collect();
        let mut run = Run::with_labels(
            f,
            source,
            opts,
            carry.key,
            carry.pred,
            carry.state,
            carry.stats,
        );
        run.earlier = earlier;
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(256);
        for (t, extras) in carry.appended {
            let ti = t.index();
            let tail = Tail::load(f, source, t, (run.key[ti], run.pred[ti], run.state[ti]));
            run.stats.relaxations += extras.len() as u64;
            for e_raw in extras {
                let edge = f.edge(EdgeId::from_raw(e_raw));
                if let Some(key) = run.relax::<RESUMED>(&tail, e_raw, edge) {
                    run.push(&mut heap, key);
                }
            }
        }
        run.drain::<RESUMED>(&mut heap);
        run
    }

    fn set(&mut self, node: NodeId, (key, pred, state): Packed) {
        let i = node.index();
        (self.key[i], self.pred[i], self.state[i]) = (key, pred, state);
    }

    /// Relaxes the frozen edge `e_raw` (= `edge`) out of `tail`; the
    /// head's new key if it has to be queued. The caller accounts
    /// `stats.relaxations` once per adjacency run. `MODE` says what
    /// else the run checks or notes ([`FROM_SCRATCH`], [`RESUMED`],
    /// [`REPAIR`]).
    // `always`: with a plain hint and the resumed round's seeding as a
    // second caller, LLVM leaves this a call inside the drain loop,
    // which costs a search on `big` 15–25%.
    #[inline(always)]
    fn relax<const MODE: u8>(&mut self, tail: &Tail, e_raw: u32, edge: FrozenEdge) -> Option<Key> {
        let v = edge.to();
        let vi = v.index();
        let vstate = self.state[vi];
        if vstate & MAPPED != 0 {
            if MODE == RESUMED && self.earlier[vi] {
                self.check_earlier(tail, e_raw, edge);
            }
            return None;
        }
        if self.exclude_domains && self.f.is_domain(v) {
            return None;
        }
        // A run extracts its source first; a repair, which starts from
        // labels none of which is extracted, must not offer it one.
        if MODE == REPAIR && v == self.source {
            return None;
        }
        let step = self.model.step(self.f, tail, e_raw, edge);
        self.stats.gate_penalties += u64::from(step.gate_fired);
        self.stats.relay_penalties += u64::from(step.relay_fired);
        self.stats.ambiguous_hops += u64::from(step.ambiguous_hop);
        self.stats.mixed_penalties += u64::from(step.mixed > 0);

        let cand = step.label(tail, e_raw, v);
        let before = (self.key[vi], self.pred[vi], vstate);
        let outcome = settle(
            vstate & LABELLED != 0,
            &mut self.key[vi],
            &mut self.pred[vi],
            &mut self.state[vi],
            cand,
        );
        if self.tracing && (self.trace_set.contains(&v) || self.trace_set.contains(&tail.node)) {
            self.trace.push(TraceEvent {
                from: tail.node,
                to: v,
                link: EdgeId::from_raw(e_raw),
                base: step.base,
                gate: step.gate,
                relay: step.relay,
                mixed: step.mixed,
                candidate: step.cost,
                decision: match outcome {
                    Settled::Improved | Settled::TieWon => TraceDecision::Accepted,
                    Settled::TieKept => TraceDecision::TieKept,
                    Settled::Worse => TraceDecision::Worse,
                },
            });
        }
        // A repair queues a tie it won as well: the node may hold an
        // old label that was never queued, and its new one has to be
        // offered on.
        let written = MODE == REPAIR && outcome == Settled::TieWon;
        if written || MODE == REPAIR && outcome == Settled::Improved {
            self.undo.push((v, before));
        }
        (outcome == Settled::Improved || written).then_some(cand.0)
    }

    /// A resumed round's relaxation into `edge.to()`, which an earlier
    /// round settled: its candidate, judged as if the head were not
    /// yet mapped, must lose on the key. A tie the stored predecessor
    /// keeps counts against it as well: in a run from scratch the tie
    /// may arrive before the stored label's own offer and be extracted
    /// with, so only a strictly larger key is safe.
    #[cold]
    fn check_earlier(&mut self, tail: &Tail, e_raw: u32, edge: FrozenEdge) {
        let v = edge.to();
        let step = self.model.step(self.f, tail, e_raw, edge);
        self.interfered |= step.label(tail, e_raw, v).0 <= self.key[v.index()];
    }

    /// Queues `key` (a labelled node's stored key).
    fn push(&mut self, heap: &mut BinaryHeap<Reverse<Key>>, key: Key) {
        heap.push(Reverse(key));
        self.stats.pushes += 1;
    }

    /// The lazy-deletion loop: extracts nodes in key order until the
    /// queue is empty, relaxing each one's row. An improved label is
    /// pushed again and the superseded entry is skipped when popped
    /// (one state-byte test). A resumed round stops as soon as it has
    /// interfered with an earlier one: it is about to be discarded.
    fn drain<const MODE: u8>(&mut self, heap: &mut BinaryHeap<Reverse<Key>>) {
        while let Some(Reverse(key)) = heap.pop() {
            if MODE == RESUMED && self.interfered {
                return;
            }
            let u = NodeId::from_raw(key as u32);
            let ui = u.index();
            if self.state[ui] & MAPPED != 0 {
                self.stats.stale_pops += 1; // Superseded by a later improvement.
                continue;
            }
            self.stats.pops += 1;
            self.state[ui] |= MAPPED;
            self.stats.mapped += 1;
            if MODE == REPAIR {
                self.extracted.push(u);
            }
            let label = (self.key[ui], self.pred[ui], self.state[ui]);
            let tail = Tail::load(self.f, self.source, u, label);
            let (base_edge, row) = self.f.edge_slice(u);
            self.stats.relaxations += row.len() as u64;
            for (i, &edge) in row.iter().enumerate() {
                if let Some(key) = self.relax::<MODE>(&tail, base_edge + i as u32, edge) {
                    self.push(heap, key);
                }
            }
        }
    }

    /// Hands the packed run state over as the tree, every label's
    /// [`MAPPED`] bit cleared.
    fn finish(mut self, frozen: Arc<FrozenGraph>) -> ShortestPathTree {
        self.state.iter_mut().for_each(|s| *s &= !MAPPED);
        ShortestPathTree {
            source: self.source,
            frozen,
            key: self.key,
            pred: self.pred,
            state: self.state,
            stats: self.stats,
            trace: self.trace,
        }
    }
}

/// Maps the frozen graph from `source` with the priority-queue variant
/// of Dijkstra's algorithm (O(e log v) on the sparse maps pathalias
/// sees). No back links are invented.
///
/// The queue is a lazy-deletion binary heap over the packed 128-bit
/// keys. On sparse maps this benches about twice as fast as the
/// paper's decrease-key heap — the position index costs two extra
/// stores per sift level, and pathalias graphs see few decreases — so
/// the engine takes the modern shape; the 1986 structure survives
/// faithfully in `pathalias_bench::{heap, legacy}`.
pub fn map_frozen_readonly(
    f: &Arc<FrozenGraph>,
    source: NodeId,
    opts: &MapOptions,
) -> Result<ShortestPathTree, MapError> {
    Ok(heap_run(f, source, opts)?.finish(f.clone()))
}

/// Refuses a source no run may start from.
fn check_source(f: &FrozenGraph, source: NodeId, opts: &MapOptions) -> Result<(), MapError> {
    if !f.is_mappable(source) {
        return Err(MapError::DeletedSource);
    }
    if opts.exclude_domains && f.is_domain(source) {
        return Err(MapError::ExcludedSource);
    }
    Ok(())
}

/// The priority-queue run every mapping starts with.
fn heap_run<'g>(
    f: &'g FrozenGraph,
    source: NodeId,
    opts: &MapOptions,
) -> Result<Run<'g>, MapError> {
    let mut run = Run::new(f, source, opts)?;
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(256);
    run.push(&mut heap, pack_key(0, 0, source.raw()));
    run.drain::<FROM_SCRATCH>(&mut heap);
    Ok(run)
}

/// One invented link, in the shape
/// [`FrozenGraph::with_edges_appended`] takes.
type Invention = pathalias_graph::frozen::AppendedEdge;

/// Maps from `source`, then runs the back-link pass to fixpoint: "we
/// examine the connections out of each unreachable host, invent links
/// from its neighbors back to the host, and continue with Dijkstra's
/// algorithm." Invented links carry [`LinkFlags::BACK`] and the
/// back-link penalty; each round rebuilds an augmented frozen graph
/// (the original is never touched), and the returned tree's
/// [`frozen`](ShortestPathTree::frozen) handle is the final snapshot
/// including every invented edge.
///
/// Each round continues the run before it rather than mapping its
/// augmented graph again: the invented links are offered from their
/// already-mapped tails, and only the hosts they reach are drained.
/// The labels are still exactly those of a run from scratch over the
/// augmented graph. Call the nodes earlier rounds settled *old* and
/// the rest *new*. No old edge leads from an old node to a new one
/// (the earlier run would have labelled it), so new nodes are reached
/// only over invented links. An invented link always adds a visible
/// hop, so its offer is strictly greater in (cost, hops) than its
/// tail's label, and a run extracts in nondecreasing (cost, hops).
/// Hence a run from scratch extracts every old node with the label the
/// earlier round gave it, unless some new node offers that node a key
/// that is not strictly greater than its label: an offer strictly
/// greater is extracted only after the label it loses to. The resumed
/// round checks exactly that on every edge from a new node into an old
/// one. And each new node sees the offers a restart's would: those of
/// the new nodes extracted before it, and every invented offer, where
/// one a restart would deliver only after the head's extraction is
/// strictly greater than the head's label, and so changes nothing.
///
/// A round runs from scratch, as every round once did, when that check
/// fires, or when tracing is on: a trace logs the last run's
/// relaxations, and only a run from scratch makes them all.
/// [`MapStats::restarted_rounds`] counts those rounds. The heap and
/// penalty counters count the work done across every round, a
/// discarded resumption included.
pub fn map_frozen(
    f: &Arc<FrozenGraph>,
    source: NodeId,
    opts: &MapOptions,
) -> Result<ShortestPathTree, MapError> {
    let mut frozen = f.clone();
    let mut carried: Option<Carry> = None;
    let (mut rounds, mut restarted, mut invented_total) = (0u32, 0u32, 0u64);
    loop {
        let run = match carried.take() {
            None => heap_run(&frozen, source, opts)?,
            Some(carry) if opts.trace.is_empty() => {
                let resumed = Run::resume(&frozen, source, opts, carry);
                if !resumed.interfered {
                    resumed
                } else {
                    restarted += 1;
                    restart(&frozen, source, opts, &resumed.stats)?
                }
            }
            Some(carry) => {
                restarted += 1;
                restart(&frozen, source, opts, &carry.stats)?
            }
        };
        let inventions = if opts.no_backlinks {
            Vec::new()
        } else {
            invent(&run, opts)
        };
        if inventions.is_empty() {
            let mut tree = run.finish(frozen.clone());
            tree.stats.backlink_rounds = rounds;
            tree.stats.restarted_rounds = restarted;
            tree.stats.invented_links = invented_total;
            return Ok(tree);
        }
        invented_total += inventions.len() as u64;
        let next = frozen.with_edges_appended(&inventions);
        carried = Some(run.carry(&next));
        frozen = Arc::new(next);
        rounds += 1;
        assert!(
            (rounds as usize) <= frozen.node_count() + 1,
            "back-link pass failed to converge"
        );
    }
}

/// A back-link round run from scratch over `f`, after `done`: the work
/// counters carry on, the mapped count starts over.
fn restart<'g>(
    f: &'g FrozenGraph,
    source: NodeId,
    opts: &MapOptions,
    done: &MapStats,
) -> Result<Run<'g>, MapError> {
    let mut run = heap_run(f, source, opts)?;
    let s = &mut run.stats;
    s.pushes += done.pushes;
    s.pops += done.pops;
    s.stale_pops += done.stale_pops;
    s.relaxations += done.relaxations;
    s.gate_penalties += done.gate_penalties;
    s.relay_penalties += done.relay_penalties;
    s.mixed_penalties += done.mixed_penalties;
    s.ambiguous_hops += done.ambiguous_hops;
    Ok(run)
}

/// The reverse links a drained run's round invents: for each host the
/// run left unlabelled, one per declared link out of it to a labelled
/// host, from that host back.
fn invent(run: &Run<'_>, opts: &MapOptions) -> Vec<Invention> {
    let f = run.f;
    let labelled = |v: NodeId| run.state[v.index()] & LABELLED != 0;
    let mut inventions = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for u in f.node_ids() {
        if !f.is_mappable(u) || labelled(u) || (opts.exclude_domains && f.is_domain(u)) {
            continue;
        }
        for e in f.out_edges(u) {
            if f.edge_flags(e).contains(LinkFlags::BACK) {
                continue;
            }
            let to = f.edge_target(e);
            if labelled(to) {
                // The invented edge starts from the declared raw
                // weight; the *neighbor's* own bias is applied when
                // the augmented graph is rebuilt.
                let cost = f
                    .edge_raw_cost(e)
                    .saturating_add(opts.model.backlink_penalty);
                // Only invent a given reverse link once, across
                // rounds and within this round.
                if !f.has_back_edge(to, u) && seen.insert((to.raw(), u.raw())) {
                    inventions.push((to, u, cost, f.edge_op(e), LinkFlags::BACK));
                }
            }
        }
    }
    inventions
}

/// Repairs `tree` in place — a tree mapped over a snapshot that
/// differs from `graph` only in the adjacency rows of the `dirty`
/// nodes — into the tree a fresh [`map_frozen_readonly`] run over
/// `graph` would produce, in time proportional to the affected cone
/// rather than the whole world (Ramalingam–Reps-style dynamic SSSP over
/// the tree's packed labels).
///
/// The caller must pass `tree`'s [`children`](ShortestPathTree::children),
/// the transpose of `tree.frozen()` ([`ReverseGraph::build`]), the
/// `graph`/`shift` pair returned by [`FrozenGraph::with_rows_replaced`]
/// applied to `tree.frozen()`, and the same `opts` the tree was mapped
/// with. The repair clears every strict descendant of a dirty node,
/// then seeds the priority queue with the labelled dirty nodes and the
/// labelled tails of the in-edges into what it cleared, and re-runs the
/// ordinary relaxation. Tails read from the old graph's transpose are
/// enough even when a patched row changes shape: every row outside the
/// patch is unchanged, and the dirty tails are seeded anyway. The
/// deterministic tie break ("smaller (pred, edge) wins") is visit-order
/// independent, so the repaired labels are bit-identical to a cold
/// run's.
///
/// Returns the [`Repair`], the log of what it overwrote, which undoes
/// it. Past the predecessor shift taken when the edit moved edge ids,
/// nothing reads or writes a label outside the cone.
///
/// Returns `Ok(None)`, with `tree` as it was, when the repair cannot
/// cheaply certify equivalence (the caller falls back to a full remap):
/// tracing is on (a repair's trace log would differ from a full run's),
/// the dirty cone exceeds `max_dirty_fraction` of the world (the
/// worst-case guard: a delta must never cost more than the full run it
/// replaces), the set of reached nodes changed (the back-link pass
/// would invent a different augmentation), a child the repair left
/// alone is not what its rewritten parent offers it, or an unreachable
/// dirty node gained an edge to a mapped host (a full run would invent
/// a new back link). A panic mid-repair leaves `tree` without labels.
// The tree, its two indexes, the patched graph with its edit, and the
// run's settings: grouping them would only name the call's arguments.
#[allow(clippy::too_many_arguments)]
pub fn repair_frozen(
    tree: &mut ShortestPathTree,
    children: &Children,
    reverse: &ReverseGraph,
    graph: &Arc<FrozenGraph>,
    dirty: &[NodeId],
    shift: &EdgeShift,
    opts: &MapOptions,
    max_dirty_fraction: f64,
) -> Result<Option<Repair>, MapError> {
    let n = graph.node_count();
    if !opts.trace.is_empty()
        || n != tree.frozen.node_count()
        || n != reverse.node_count()
        || n == 0
    {
        return Ok(None);
    }
    let source = tree.source;
    check_source(graph, source, opts)?;
    // When edge ids move, every surviving predecessor is shifted below,
    // and the undo keeps the old ones whole.
    let old_pred = (!shift.is_identity_outside_rows()).then(|| tree.pred.clone());
    let stats = MapStats {
        backlink_rounds: tree.stats.backlink_rounds,
        invented_links: tree.stats.invented_links,
        ..MapStats::default()
    };
    let (key, pred, state) = (
        std::mem::take(&mut tree.key),
        std::mem::take(&mut tree.pred),
        std::mem::take(&mut tree.state),
    );
    let mut run = Run::with_labels(graph, source, opts, key, pred, state, stats);
    let labelled = |s: u8| s & LABELLED != 0;
    let stands = 'repair: {
        // Invalidate every strict descendant of a dirty node: its label
        // was derived (directly or transitively) through a replaced row.
        // The dirty nodes themselves keep their labels — the path *into*
        // them is intact.
        let mut stack: Vec<NodeId> = Vec::new();
        for &d in dirty {
            stack.extend(children[d.index()].iter().copied());
        }
        while let Some(v) = stack.pop() {
            let vi = v.index();
            if !labelled(run.state[vi]) {
                continue; // Already cleared via another dirty ancestor.
            }
            run.undo
                .push((v, (run.key[vi], run.pred[vi], run.state[vi])));
            run.set(v, (pack_key(0, 0, v.raw()), NO_PRED, 0));
            stack.extend(children[vi].iter().copied());
        }
        let cleared: Vec<NodeId> = run.undo.iter().map(|&(v, _)| v).collect();
        let budget = ((n as f64) * max_dirty_fraction) as usize;
        if cleared.len() + dirty.len() > budget.max(1) {
            break 'repair false;
        }

        // Surviving labels still hold old edge ids; shift them into the
        // new snapshot, unless no surviving edge moved. An intact pred
        // inside a replaced row is impossible (its head would have been
        // invalidated above) — bail rather than trust a corrupt input.
        if old_pred.is_some() {
            for i in 0..n {
                if labelled(run.state[i]) && run.pred[i] != NO_PRED {
                    match shift.map(EdgeId::from_raw(run.pred[i].1)) {
                        Some(e) => run.pred[i].1 = e.raw(),
                        None => break 'repair false,
                    }
                }
            }
        }

        // Seed the queue: every labelled dirty tail (its row's weights
        // changed) and every labelled tail of an edge into the cleared
        // region. Over-seeding is harmless — a pop whose relaxations all
        // lose is just wasted work.
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(256);
        let tails = cleared
            .iter()
            .flat_map(|&v| reverse.in_edges(v).map(|(u, _)| u));
        for u in dirty.iter().copied().chain(tails) {
            if labelled(run.state[u.index()]) {
                run.push(&mut heap, run.key[u.index()]);
            }
        }
        run.drain::<REPAIR>(&mut heap);

        // Each written node once, with the label it had. The reached
        // set must be exactly the old one: anything else means the
        // back-link pass would run differently on a cold start. Only a
        // written label can have changed.
        run.undo.sort_by_key(|&(v, _)| v);
        run.undo.dedup_by_key(|&mut (v, _)| v);
        let written = |v: NodeId| run.undo.binary_search_by_key(&v, |&(w, _)| w).is_ok();
        if (run.undo.iter())
            .any(|&(v, (_, _, was))| labelled(run.state[v.index()]) != labelled(was))
        {
            break 'repair false;
        }
        // A child the repair left alone holds what its parent's old label
        // offered it. Where the parent's label was rewritten, the child's
        // must be what the new one offers, or the repair cannot vouch for
        // it: the penalties are not monotone, and a cheaper label may
        // offer its children dearer ones (which a relaxation, keeping the
        // smaller key, would never write).
        for &(u, _) in &run.undo {
            let ui = u.index();
            if !labelled(run.state[ui]) {
                continue;
            }
            let tail = Tail::load(graph, source, u, (run.key[ui], run.pred[ui], run.state[ui]));
            for &c in children[ui].iter().filter(|&&c| !written(c)) {
                let ci = c.index();
                let e_raw = run.pred[ci].1;
                let edge = graph.edge(EdgeId::from_raw(e_raw));
                let offer = (run.model.step(graph, &tail, e_raw, edge)).label(&tail, e_raw, c);
                if offer != (run.key[ci], run.pred[ci], run.state[ci] & !MAPPED) {
                    break 'repair false;
                }
            }
        }
        // An unreachable dirty node whose *new* row reaches a mapped host
        // would make a cold run invent a back link that the old
        // augmentation lacks.
        opts.no_backlinks
            || !dirty.iter().any(|&d| {
                !labelled(run.state[d.index()])
                    && graph.edge_slice(d).1.iter().any(|e| {
                        !e.flags().contains(LinkFlags::BACK) && labelled(run.state[e.to().index()])
                    })
            })
    };
    let Run {
        key,
        pred,
        mut state,
        stats,
        mut undo,
        extracted,
        ..
    } = run;
    for v in extracted {
        state[v.index()] &= !MAPPED;
    }
    (tree.key, tree.pred, tree.state) = (key, pred, state);
    // A node's first logged label is the one it had.
    undo.sort_by_key(|&(v, _)| v);
    undo.dedup_by_key(|&mut (v, _)| v);
    let (written, labels) = undo.into_iter().unzip();
    let mut repair = Repair {
        written,
        labels,
        pred: old_pred,
        frozen: std::mem::replace(&mut tree.frozen, graph.clone()),
        stats: std::mem::replace(&mut tree.stats, stats),
    };
    if !stands {
        repair.swap(tree);
        return Ok(None);
    }
    Ok(Some(repair))
}

/// What [`repair_frozen`] overwrote in the tree it repaired in place:
/// the label each written node had, the tree's graph handle and
/// counters, and, when the edit moved edge ids, the whole predecessor
/// array as it was. Apart from that array it is the size of the cone.
#[derive(Debug)]
pub struct Repair {
    written: Vec<NodeId>,
    /// `labels[i]`: the other generation's label of `written[i]`, its
    /// predecessor read from `pred` when that is kept.
    labels: Vec<Packed>,
    pred: Option<Vec<(u32, u32)>>,
    frozen: Arc<FrozenGraph>,
    stats: MapStats,
}

impl Repair {
    /// The nodes whose labels the repair cleared or set, sorted: every
    /// node whose label differs from the old tree's is among them (a
    /// label elsewhere differs at most in its predecessor edge's id, as
    /// the edit's shift moves it).
    pub fn written(&self) -> &[NodeId] {
        &self.written
    }

    /// The label `written()[i]` had before the repair, its predecessor
    /// edge an id of the old graph (between two [`swap`](Repair::swap)s,
    /// the repaired label).
    pub fn old_label(&self, i: usize) -> Option<Label> {
        let (key, pred, state) = self.labels[i];
        let pred = self
            .pred
            .as_ref()
            .map_or(pred, |p| p[self.written[i].index()]);
        unpack_label((key, pred, state))
    }

    /// Exchanges the generation `tree` holds with the one this log
    /// holds, in O(cone): the first call puts the tree back as it was
    /// before the repair, bit for bit, and a second returns it to the
    /// repaired one. A reader of the old tree runs between two calls.
    pub fn swap(&mut self, tree: &mut ShortestPathTree) {
        for (&v, (key, pred, state)) in self.written.iter().zip(&mut self.labels) {
            let i = v.index();
            std::mem::swap(&mut tree.key[i], key);
            std::mem::swap(&mut tree.state[i], state);
            if self.pred.is_none() {
                std::mem::swap(&mut tree.pred[i], pred);
            }
        }
        if let Some(pred) = &mut self.pred {
            std::mem::swap(&mut tree.pred, pred);
        }
        std::mem::swap(&mut tree.frozen, &mut self.frozen);
        std::mem::swap(&mut tree.stats, &mut self.stats);
    }

    /// Puts `tree` back as it was before the repair, bit for bit.
    pub fn undo(mut self, tree: &mut ShortestPathTree) {
        self.swap(tree);
    }
}

/// Freezes `g` and maps it from `source` with back links (see
/// [`map_frozen`]). Convenient for one-shot callers; anything that maps
/// repeatedly should freeze once.
pub fn map(g: &Graph, source: NodeId, opts: &MapOptions) -> Result<ShortestPathTree, MapError> {
    map_frozen(&Arc::new(g.freeze()), source, opts)
}

/// Freezes `g` and maps it from `source` without back links (see
/// [`map_frozen_readonly`]).
pub fn map_readonly(
    g: &Graph,
    source: NodeId,
    opts: &MapOptions,
) -> Result<ShortestPathTree, MapError> {
    map_frozen_readonly(&Arc::new(g.freeze()), source, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::{NodeFlags, INF};
    use pathalias_parser::parse;

    fn ids(g: &Graph, names: &[&str]) -> Vec<NodeId> {
        names.iter().map(|n| g.try_node(n).unwrap()).collect()
    }

    /// The tree path from the source to `v`, which must be reached.
    fn path(t: &ShortestPathTree, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        while let Some((p, _)) = t.label(path[path.len() - 1]).unwrap().pred {
            path.push(p);
        }
        path.reverse();
        path
    }

    #[test]
    fn straight_line_costs() {
        let g = parse("a b(10)\nb c(20)\nc d(5)\n").unwrap();
        let v = ids(&g, &["a", "b", "c", "d"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[0]), Some(0));
        assert_eq!(t.cost(v[1]), Some(10));
        assert_eq!(t.cost(v[2]), Some(30));
        assert_eq!(t.cost(v[3]), Some(35));
        assert_eq!(path(&t, v[3]), v);
    }

    #[test]
    fn picks_cheaper_indirect_route() {
        // The paper's observation: unc->phs direct (2000) loses to
        // unc->duke->phs (500+300).
        let g = parse("unc duke(500), phs(2000)\nduke phs(300)\n").unwrap();
        let v = ids(&g, &["unc", "duke", "phs"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(800));
        assert_eq!(path(&t, v[2]), v);
    }

    #[test]
    fn network_membership_costs() {
        // Pay to enter, exit for free.
        let g = parse("a NET(50)\nNET = {x, y}(75)\n").unwrap();
        let v = ids(&g, &["a", "NET", "x", "y"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(50));
        assert_eq!(t.cost(v[2]), Some(50), "exit is free");
        assert_eq!(t.cost(v[3]), Some(50));
    }

    #[test]
    fn alias_edges_are_free_and_invisible() {
        let g = parse("a princeton(100)\nprinceton = fun\nfun z(10)\n").unwrap();
        let v = ids(&g, &["a", "princeton", "fun", "z"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(100), "alias costs nothing");
        assert_eq!(
            t.label(v[2]).unwrap().hops,
            t.label(v[1]).unwrap().hops,
            "alias adds no visible hop"
        );
        assert_eq!(t.cost(v[3]), Some(110), "links from the alias work");
    }

    #[test]
    fn dead_host_never_relays() {
        let g = parse("a b(10)\nb c(10)\na c(1000)\ndead {b}\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(10), "dead host is reachable");
        assert_eq!(t.cost(v[2]), Some(1000), "but never relays");
    }

    #[test]
    fn dead_link_is_last_resort() {
        let g = parse("a b(10)\ndead {a!b}\na c(50)\nc b(50)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(100), "detour beats dead link");
    }

    #[test]
    fn deleted_nodes_and_links_ignored() {
        let g = parse("a b(10)\nb c(10)\ndelete {b}\na c(500)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), None);
        assert_eq!(t.cost(v[2]), Some(500));
    }

    #[test]
    fn adjust_bias_applies_in_transit_only() {
        let g = parse("a b(10)\nb c(10)\nadjust {b(100)}\na c(50)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(10), "bias not charged to reach b");
        assert_eq!(t.cost(v[2]), Some(50), "transit through b costs 120");
    }

    #[test]
    fn adjusted_source_pays_no_own_bias() {
        // The bias on the *source* must not apply to its own edges —
        // the case the freeze-time folding has to undo.
        let g = parse("a b(10)\nadjust {a(100)}\n").unwrap();
        let v = ids(&g, &["a", "b"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(10), "source exempt from its bias");
        // Mapping from elsewhere, the bias applies in transit.
        let g = parse("z a(5)\na b(10)\nadjust {a(100)}\n").unwrap();
        let v = ids(&g, &["z", "a", "b"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(115));
    }

    #[test]
    fn negative_adjust_clamps_at_zero() {
        let g = parse("a b(10)\nb c(5)\nadjust {b(-100)}\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(10), "edge cost clamps at zero");
    }

    #[test]
    fn gated_network_penalty_and_gateway() {
        let text = "\
GNET = {x, y}(10)
gated {GNET}
a x(10), g(10)
g GNET(20)
gateway {GNET!g}
";
        let g = parse(text).unwrap();
        let v = ids(&g, &["a", "x", "g", "GNET", "y"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        // Entering via member x is penalized; via gateway g is not.
        assert_eq!(t.cost(v[3]), Some(30), "a->g->GNET");
        assert_eq!(t.cost(v[4]), Some(30), "y via the gateway");
        assert!(t.stats.gate_penalties > 0);
    }

    #[test]
    fn explicit_link_into_gated_net_is_gateway() {
        // No `gateway` command: the explicit link itself qualifies.
        let text = "GNET = {x}(10)\ngated {GNET}\na s(10)\ns GNET(5)\n";
        let g = parse(text).unwrap();
        let v = ids(&g, &["a", "s", "GNET", "x"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(15));
        assert_eq!(t.cost(v[3]), Some(15));
    }

    #[test]
    fn domain_up_edge_essentially_infinite() {
        // .edu has member .rutgers; going up .rutgers -> .edu must cost
        // about INF (the membership entry edge is not exempt for a
        // domain member).
        let text = ".edu = {.rutgers}(0)\n.rutgers = {caip}(0)\nstart caip(10)\n";
        let g = parse(text).unwrap();
        let v = ids(&g, &["start", "caip", ".rutgers", ".edu"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        // caip is a member of .rutgers: entering is exempt; but its
        // path then went through a domain, so further links from .edu
        // are relay-penalized; the up edge gets the gate penalty too.
        let up = t.cost(v[3]).unwrap();
        assert!(
            up >= INF,
            "up-tree cost {up} should be essentially infinite"
        );
        assert!(t.cost(v[2]).unwrap() < INF);
    }

    #[test]
    fn relay_restriction_after_domain() {
        // Once through a domain, further links are penalized.
        let text = "a caip(10)\ncaip .rutgers.edu(20)\n.rutgers.edu = {blue}(0)\nblue far(10)\n";
        let g = parse(text).unwrap();
        let v = ids(&g, &["a", "blue", "far"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[1]), Some(30), "blue via the domain is fine");
        assert!(
            t.cost(v[2]).unwrap() >= INF,
            "onward relaying from a domain-reached host is penalized"
        );
        assert!(t.label(v[1]).unwrap().tainted);
    }

    #[test]
    fn mixed_syntax_bang_after_at_penalized() {
        // a -@-> b -!-> c: the ! hop lands after an @ hop.
        let g = parse("a @b(10)\nb c(10)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        let m = MapOptions::default().model;
        assert_eq!(t.cost(v[2]), Some(20 + m.mixed_penalty));
        assert_eq!(t.stats.mixed_penalties, 1);
    }

    #[test]
    fn classic_at_after_bang_free() {
        // The paper's own example form: pure ! prefix then a final @.
        let g = parse("a b(10)\nb @c(10)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(20), "no penalty by default");

        let strict = MapOptions {
            model: CostModel {
                strict_mixed: true,
                ..CostModel::default()
            },
            ..MapOptions::default()
        };
        let t = map(&g, v[0], &strict).unwrap();
        assert_eq!(
            t.cost(v[2]),
            Some(20 + strict.model.mixed_penalty),
            "strict mode penalizes any mixing"
        );
    }

    #[test]
    fn backlinks_reach_leaf_hosts() {
        // leaf declares a link out but nobody links back to it.
        let g = parse("a b(10)\nleaf b(25)\n").unwrap();
        let v = ids(&g, &["a", "b", "leaf"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        let m = MapOptions::default().model;
        assert_eq!(
            t.cost(v[2]),
            Some(10 + 25 + m.backlink_penalty),
            "b gets an invented link back to leaf"
        );
        assert!(t.label(v[2]).unwrap().via_backlink);
        assert_eq!(t.stats.invented_links, 1);
        assert_eq!(t.stats.backlink_rounds, 1);
        // The invented edge lives in the tree's (augmented) snapshot,
        // not in anything the caller holds.
        assert!(t.frozen().has_back_edge(v[1], v[2]));
    }

    #[test]
    fn backlinks_iterate_to_fixpoint() {
        // A whole chain pointing the wrong way: leaf2 -> leaf1 -> b.
        let g = parse("a b(10)\nleaf1 b(20)\nleaf2 leaf1(30)\n").unwrap();
        let v = ids(&g, &["a", "leaf1", "leaf2"]);
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert!(t.is_mapped(v[1]));
        assert!(t.is_mapped(v[2]), "second round reaches leaf2");
        assert_eq!(t.stats.backlink_rounds, 2);
    }

    #[test]
    fn backlink_that_relabels_an_earlier_host_reruns_the_round() {
        // Plain weights charge a back link nothing extra: b invents
        // b -> leaf (1), and leaf's own link to c (1) undercuts the
        // direct a -> c (100) that round 0 settled.
        let g = parse("a b(10), c(100)\nleaf b(1), c(1)\n").unwrap();
        let v = ids(&g, &["a", "b", "c", "leaf"]);
        let opts = MapOptions {
            model: CostModel::plain(),
            ..MapOptions::default()
        };
        let t = map(&g, v[0], &opts).unwrap();
        assert_eq!(t.cost(v[2]), Some(12), "c via b, leaf");
        assert_eq!(path(&t, v[2]), vec![v[0], v[1], v[3], v[2]]);
        assert_eq!((t.stats.backlink_rounds, t.stats.restarted_rounds), (1, 1));
        // Under the paper's model the back link is last-resort, so the
        // round continues.
        let t = map(&g, v[0], &MapOptions::default()).unwrap();
        assert_eq!(t.cost(v[2]), Some(100));
        assert_eq!(t.stats.restarted_rounds, 0);
    }

    #[test]
    fn no_backlinks_option() {
        let g = parse("a b(10)\nleaf b(25)\n").unwrap();
        let v = ids(&g, &["a", "leaf"]);
        let opts = MapOptions {
            no_backlinks: true,
            ..MapOptions::default()
        };
        let t = map(&g, v[0], &opts).unwrap();
        assert!(!t.is_mapped(v[1]));
        assert_eq!(t.unreachable(), vec![v[1]]);
    }

    #[test]
    fn deleted_source_errors() {
        let g = parse("a b(10)\ndelete {a}\n").unwrap();
        let a = g.try_node("a").unwrap();
        assert_eq!(
            map(&g, a, &MapOptions::default()).unwrap_err(),
            MapError::DeletedSource
        );
    }

    #[test]
    fn trace_records_decisions() {
        let g = parse("a b(10), c(5)\nc b(1)\n").unwrap();
        let v = ids(&g, &["a", "b", "c"]);
        let opts = MapOptions {
            trace: vec![v[1]],
            ..MapOptions::default()
        };
        let t = map(&g, v[0], &opts).unwrap();
        assert!(t.trace.len() >= 2, "both relaxations into b traced");
        assert!(t
            .trace
            .iter()
            .any(|e| e.decision == TraceDecision::Accepted));
        assert_eq!(t.cost(v[1]), Some(6));
    }

    #[test]
    fn determinism_across_variants_and_runs() {
        let text = "\
hub a(10), b(10), c(10)
a x(10)
b x(10)
c x(10)
x y(1)
";
        let g = parse(text).unwrap();
        let hub = g.try_node("hub").unwrap();
        let opts = MapOptions::default();
        let t1 = map_readonly(&g, hub, &opts).unwrap();
        let t2 = map_readonly(&g, hub, &opts).unwrap();
        let x = g.try_node("x").unwrap();
        // Three equal-cost preds for x: the smallest node id (a) wins
        // in every variant (the array scan's turn is in
        // `pathalias_bench::study`).
        let a = g.try_node("a").unwrap();
        assert_eq!(t1.label(x).unwrap().pred.unwrap().0, a);
        assert_eq!(t1.label(x), t2.label(x));
    }

    /// [`repair_frozen`] of a copy of `old`, over `old`'s own child
    /// lists and transpose: the repaired tree. A declined repair must
    /// leave the copy as it was.
    fn repair(
        old: &ShortestPathTree,
        patched: &Arc<FrozenGraph>,
        dirty: &[NodeId],
        shift: &pathalias_graph::EdgeShift,
        opts: &MapOptions,
        budget: f64,
    ) -> Option<ShortestPathTree> {
        let reverse = old.frozen().reverse();
        let mut tree = old.clone();
        let repaired = repair_frozen(
            &mut tree,
            &old.children(),
            &reverse,
            patched,
            dirty,
            shift,
            opts,
            budget,
        );
        match repaired.unwrap() {
            Some(_) => Some(tree),
            None => {
                assert_eq!(&tree, old, "a declined repair restores the tree");
                None
            }
        }
    }

    /// Asserts every label of `a` equals the matching label of `b`.
    fn assert_trees_equal(a: &ShortestPathTree, b: &ShortestPathTree) {
        for id in a.frozen().node_ids() {
            assert_eq!(a.label(id), b.label(id), "label of node {id:?}");
        }
    }

    #[test]
    fn repair_matches_cold_run_on_cost_change() {
        let text = "\
hub a(10), b(10), c(10)
a x(10)
b x(10)
c x(10)
x y(1)
y hub(1)
";
        let g = parse(text).unwrap();
        let hub = g.try_node("hub").unwrap();
        let a = g.try_node("a").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions::default();
        let frozen = Arc::new(g.freeze());
        let old = map_frozen_readonly(&frozen, hub, &opts).unwrap();

        // Cheapen a -> x so the tie for x flips to a decisive win.
        let (patched, shift) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: a,
            edges: vec![(x, 1, pathalias_graph::RouteOp::UUCP, LinkFlags::empty())],
        }]);
        let patched = Arc::new(patched);
        let repaired = repair(&old, &patched, &[a], &shift, &opts, 1.0).expect("repair applies");
        let cold = map_frozen_readonly(&patched, hub, &opts).unwrap();
        assert_trees_equal(&repaired, &cold);
        assert_eq!(repaired.cost(x), Some(11));
    }

    #[test]
    fn repair_matches_cold_run_on_link_removal() {
        let text = "\
hub a(10), b(50)
a x(10)
b x(10)
x y(1)
b a(70)
";
        let g = parse(text).unwrap();
        let hub = g.try_node("hub").unwrap();
        let a = g.try_node("a").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions::default();
        let frozen = Arc::new(g.freeze());
        let old = map_frozen_readonly(&frozen, hub, &opts).unwrap();
        assert_eq!(old.cost(x), Some(20), "via a");

        // Drop a -> x: x must re-route through b, and the whole x
        // subtree repairs.
        let (patched, shift) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: a,
            edges: vec![],
        }]);
        let patched = Arc::new(patched);
        let repaired = repair(&old, &patched, &[a], &shift, &opts, 1.0).expect("repair applies");
        let cold = map_frozen_readonly(&patched, hub, &opts).unwrap();
        assert_trees_equal(&repaired, &cold);
        assert_eq!(repaired.cost(x), Some(60), "re-routed via b");
    }

    #[test]
    fn repair_settles_ties_like_cold_run() {
        // Three equal preds for x; dirtying one must leave the
        // deterministic winner (smallest pred id) in place.
        let text = "\
hub a(10), b(10), c(10)
a x(10)
b x(10)
c x(10)
";
        let g = parse(text).unwrap();
        let hub = g.try_node("hub").unwrap();
        let c = g.try_node("c").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions::default();
        let frozen = Arc::new(g.freeze());
        let old = map_frozen_readonly(&frozen, hub, &opts).unwrap();
        let (patched, shift) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: c,
            edges: vec![(x, 10, pathalias_graph::RouteOp::UUCP, LinkFlags::empty())],
        }]);
        let patched = Arc::new(patched);
        let repaired = repair(&old, &patched, &[c], &shift, &opts, 1.0).expect("repair applies");
        let cold = map_frozen_readonly(&patched, hub, &opts).unwrap();
        assert_trees_equal(&repaired, &cold);
        let a = g.try_node("a").unwrap();
        assert_eq!(repaired.label(x).unwrap().pred.unwrap().0, a);
    }

    #[test]
    fn repair_bails_when_reachability_changes() {
        let g = parse("hub a(10)\na x(10)\n").unwrap();
        let hub = g.try_node("hub").unwrap();
        let a = g.try_node("a").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions {
            no_backlinks: true,
            ..MapOptions::default()
        };
        let frozen = Arc::new(g.freeze());
        let old = map_frozen_readonly(&frozen, hub, &opts).unwrap();
        // Cutting a -> x strands x: the reached set shrinks, so the
        // repair must hand back to the full pipeline.
        let (patched, shift) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: a,
            edges: vec![],
        }]);
        let patched = Arc::new(patched);
        assert!(repair(&old, &patched, &[a], &shift, &opts, 1.0).is_none());
        // And a too-small dirty budget bails before doing any work.
        let (same, shift2) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: a,
            edges: vec![(x, 11, pathalias_graph::RouteOp::UUCP, LinkFlags::empty())],
        }]);
        let same = Arc::new(same);
        assert!(
            repair(&old, &same, &[a], &shift2, &opts, 0.0).is_none(),
            "zero budget always falls back"
        );
    }

    #[test]
    fn repair_bails_when_unreachable_dirty_node_gains_mapped_target() {
        // leaf is unreachable (no_backlinks run over a world where a
        // cold full map would invent b -> leaf). Giving leaf an edge
        // while it stays unreachable must bail under default options
        // because a cold run's invention set would change.
        let g = parse("hub b(10)\nleaf b(25)\n").unwrap();
        let hub = g.try_node("hub").unwrap();
        let b = g.try_node("b").unwrap();
        let leaf = g.try_node("leaf").unwrap();
        let opts = MapOptions {
            no_backlinks: true,
            ..MapOptions::default()
        };
        let frozen = Arc::new(g.freeze());
        let old = map_frozen_readonly(&frozen, hub, &opts).unwrap();
        assert!(!old.is_mapped(leaf));
        let (patched, shift) = frozen.with_rows_replaced(&[pathalias_graph::RowPatch {
            node: leaf,
            edges: vec![(b, 30, pathalias_graph::RouteOp::UUCP, LinkFlags::empty())],
        }]);
        let patched = Arc::new(patched);
        // With back links enabled a cold run would invent differently.
        let with_backlinks = MapOptions::default();
        assert!(
            repair(&old, &patched, &[leaf], &shift, &with_backlinks, 1.0).is_none(),
            "invention-changing delta must fall back"
        );
        // With back links disabled the repair can stand.
        let repaired = repair(&old, &patched, &[leaf], &shift, &opts, 1.0)
            .expect("no inventions to differ on");
        let cold = map_frozen_readonly(&patched, hub, &opts).unwrap();
        assert_trees_equal(&repaired, &cold);
    }

    #[test]
    fn repair_over_augmented_snapshot_cost_change() {
        // A world that needed a back link: the cached tree's graph is
        // the augmented snapshot. A cost-only patch to a row of that
        // snapshot (base prefix + kept BACK tail) must still repair to
        // the cold answer over the same augmentation.
        let g = parse("hub a(10)\na x(10)\nleaf a(25)\n").unwrap();
        let hub = g.try_node("hub").unwrap();
        let a = g.try_node("a").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions::default();
        let frozen = Arc::new(g.freeze());
        let old = map_frozen(&frozen, hub, &opts).unwrap();
        assert_eq!(old.stats.invented_links, 1);
        let aug = old.frozen().clone();

        // Rebuild a's row with the same shape, only the a->x cost
        // changed; the invented a->leaf BACK edge rides along.
        let mut edges = Vec::new();
        for e in aug.out_edges(a) {
            let cost = if aug.edge_target(e) == x {
                99
            } else {
                aug.edge_raw_cost(e)
            };
            edges.push((aug.edge_target(e), cost, aug.edge_op(e), aug.edge_flags(e)));
        }
        let (patched, shift) =
            aug.with_rows_replaced(&[pathalias_graph::RowPatch { node: a, edges }]);
        assert!(shift.is_identity_outside_rows());
        let patched = Arc::new(patched);
        let repaired = repair(&old, &patched, &[a], &shift, &opts, 1.0)
            .expect("repair applies over the augmented snapshot");
        let cold = map_frozen_readonly(&patched, hub, &opts).unwrap();
        assert_trees_equal(&repaired, &cold);
        assert_eq!(repaired.cost(x), Some(109));
    }

    #[test]
    fn private_hosts_map_normally() {
        let mut g = Graph::new();
        g.begin_file("f");
        let a = g.node("a");
        let p = g.declare_private("bilbo");
        g.declare_link(a, p, 10, pathalias_graph::RouteOp::UUCP);
        let t = map(&g, a, &MapOptions::default()).unwrap();
        assert_eq!(t.cost(p), Some(10));
        assert!(g.node_ref(p).flags.contains(NodeFlags::PRIVATE));
    }
}
