//! The staged pipeline: `Parsed → Built → Frozen → Mapped → Printed`.
//!
//! The original driver was a monolith: parse, map, print, all in one
//! call. This module splits the run into *values* — each stage is a
//! struct you can keep, re-enter, and time:
//!
//! * [`Parsed`] — the named input texts, before any graph exists;
//! * [`Built`] — the mutable [`Graph`] that parsing grows, named
//!   inputs in order: the one place text becomes a graph, read and
//!   scanned on a helper thread while the caller's thread declares;
//! * [`Frozen`] — the immutable CSR snapshot
//!   ([`pathalias_graph::FrozenGraph`]) plus the build's warnings,
//!   validation's included. Cheap to share.
//! * [`Mapped`] — the shortest-path tree from one mapping run;
//! * [`Printed`] — the route table and rendered text.
//!
//! Re-entry is the point: holding a [`Frozen`] stage, you can map with
//! different options (a different `-l` host, other penalties, traces)
//! without re-parsing or re-freezing — this is how the server's hot
//! reload skips the expensive stages when only mapping options change.
//!
//! # Examples
//!
//! ```
//! use pathalias_core::{Options, Parsed};
//!
//! let mut parsed = Parsed::new();
//! parsed.push_str("map", "unc duke(500)\nduke phs(300)\n");
//! let options = Options { local: Some("unc".into()), ..Options::default() };
//! let frozen = parsed.build(&options).unwrap().freeze();
//! // Map twice from the same snapshot — no re-parse, no re-freeze.
//! let out1 = frozen.map(&options).unwrap().print(&options);
//! let out2 = frozen.map(&options).unwrap().print(&options);
//! assert_eq!(out1.rendered, out2.rendered);
//! assert!(out1.rendered.contains("phs\tduke!phs!%s"));
//! ```

use crate::delta::Outline;
use crate::options::Options;
use crate::pipeline::Error;
use pathalias_graph::snapshot::{self, SnapshotError, StoredHierarchy};
use pathalias_graph::{ChIndex, FrozenGraph, Graph, NodeId, ReverseGraph, Warning};
use pathalias_mapper::cost_model::ch_weights;
use pathalias_mapper::{map_frozen, MapOptions, ShortestPathTree};
use pathalias_parser::{parse_inputs, parse_into, ParseError};
use pathalias_printer::{compute_routes, render, RouteTable};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Stage 1: named input texts, not yet parsed.
///
/// Cloning shares the inputs: each is one [`Input`] behind an `Arc`,
/// so a reload that re-reads one file of thirty shares the other
/// twenty-nine, and the delta planner's outline of each with them.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    inputs: Vec<Arc<Input>>,
}

/// One named input text, and the delta planner's outline of it.
///
/// The outline is cut on the first delta plan that needs it, or
/// spliced by the plan that replaced this text from the old text's
/// outline, and cached beside the text, in the same `Arc`, so it is
/// never served for any other text.
#[derive(Debug)]
pub struct Input {
    pub(crate) file: String,
    pub(crate) text: String,
    pub(crate) outline: OnceLock<Outline>,
}

impl Input {
    fn new(file: String, text: String) -> Arc<Input> {
        Arc::new(Input {
            file,
            text,
            outline: OnceLock::new(),
        })
    }

    /// The name the input was added under.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The input's text.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl Parsed {
    /// No inputs yet.
    pub fn new() -> Self {
        Parsed::default()
    }

    /// Adds one named input.
    pub fn push_str(&mut self, file: &str, text: &str) {
        self.inputs
            .push(Input::new(file.to_string(), text.to_string()));
    }

    /// Reads and adds an input file from disk.
    pub fn push_file(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let input = read(path.as_ref())?;
        self.inputs.push(input);
        Ok(())
    }

    /// Reads and adds several input files, in order — the shape every
    /// multi-file caller (CLI file lists, the server's map sources)
    /// wants. Stops at the first unreadable file.
    pub fn push_files(
        &mut self,
        paths: impl IntoIterator<Item = impl AsRef<Path>>,
    ) -> std::io::Result<()> {
        for path in paths {
            self.push_file(path)?;
        }
        Ok(())
    }

    /// Re-reads input `index` from `path`, in place. The input is no
    /// longer shared with clones of `self`, and has no outline yet.
    ///
    /// # Panics
    ///
    /// When there is no input `index`.
    pub fn replace_file(&mut self, index: usize, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.inputs[index] = read(path.as_ref())?;
        Ok(())
    }

    /// Replaces input `index`'s text, as [`replace_file`] does.
    ///
    /// [`replace_file`]: Parsed::replace_file
    #[cfg(test)]
    pub(crate) fn replace_text(&mut self, index: usize, text: &str) {
        let file = self.inputs[index].file.clone();
        self.inputs[index] = Input::new(file, text.to_string());
    }

    /// The inputs accumulated so far.
    pub fn inputs(&self) -> &[Arc<Input>] {
        &self.inputs
    }

    /// Whether any input was added.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Stage 2: parses every input, in order, into a fresh [`Built`]
    /// (only `options.ignore_case` matters here), on two threads
    /// ([`Built::parse_inputs`]).
    pub fn build(&self, options: &Options) -> Result<Built, Error> {
        let mut built = Built::new(options);
        let inputs = self
            .inputs
            .iter()
            .map(|input| Ok((&*input.file, &*input.text)));
        built.parse_inputs(inputs).map_err(Error::Parse)?;
        Ok(built)
    }
}

/// Reads one input file, named by its path.
fn read(path: &Path) -> std::io::Result<Arc<Input>> {
    let text = std::fs::read_to_string(path)?;
    Ok(Input::new(path.to_string_lossy().into_owned(), text))
}

/// Stage 2: the mutable graph that parsing grows, named inputs in
/// order.
#[derive(Debug)]
pub struct Built {
    graph: Graph,
    /// Wall-clock time spent parsing into the graph; under
    /// [`parse_inputs`](Built::parse_inputs) that includes taking the
    /// items, so the CLI's file reads count here.
    pub build_time: Duration,
}

impl Built {
    /// An empty graph (only `options.ignore_case` matters here).
    pub fn new(options: &Options) -> Built {
        Built {
            graph: Graph::with_ignore_case(options.ignore_case),
            build_time: Duration::ZERO,
        }
    }

    /// Parses one named input into the graph. Inputs parsed in turn
    /// share it, with file-boundary semantics for `private`.
    pub fn parse_str(&mut self, file: &str, text: &str) -> Result<(), ParseError> {
        let t0 = Instant::now();
        parse_into(&mut self.graph, file, text)?;
        self.build_time += t0.elapsed();
        Ok(())
    }

    /// Parses named inputs, in order, as [`parse_str`] on each would:
    /// a helper thread takes each item and scans it while this thread
    /// declares what it read ([`parse_inputs`]). The first `Err` item
    /// or parse error ends the run and is returned; the graph keeps
    /// what was declared before it. The build time counts the whole
    /// call, taking the items included.
    ///
    /// [`parse_str`]: Built::parse_str
    pub fn parse_inputs<I, N, T, E>(&mut self, inputs: I) -> Result<(), E>
    where
        I: IntoIterator<Item = Result<(N, T), E>>,
        I::IntoIter: Send,
        N: AsRef<str> + Send + Sync,
        T: AsRef<str> + Send + Sync,
        E: From<ParseError> + Send,
    {
        let t0 = Instant::now();
        let parsed = parse_inputs(&mut self.graph, inputs);
        self.build_time += t0.elapsed();
        parsed
    }

    /// The built graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Stage 3: validates the whole graph and freezes it into its
    /// immutable CSR snapshot. The stage's warnings are parsing's, then
    /// validation's. The `Built` stage survives the freeze, so more
    /// input can follow and freeze again.
    pub fn freeze(&self) -> Frozen {
        let t0 = Instant::now();
        let mut warnings = self.graph.warnings().to_vec();
        warnings.extend(self.graph.validation_warnings());
        Frozen::built(self.graph.freeze(), warnings, t0)
    }

    /// [`freeze`](Built::freeze), consuming the stage: the build graph's
    /// names, flags and biases move into the snapshot, and its links
    /// are freed once the CSR is made ([`Graph::into_frozen`]), so
    /// nothing is copied that the build already holds.
    pub fn into_frozen(mut self) -> Frozen {
        let t0 = Instant::now();
        let mut warnings = self.graph.take_warnings();
        warnings.extend(self.graph.validation_warnings());
        Frozen::built(self.graph.into_frozen(), warnings, t0)
    }
}

/// Stage 3: the immutable snapshot every later stage works from.
#[derive(Debug, Clone)]
pub struct Frozen {
    graph: Arc<FrozenGraph>,
    reverse: Option<Arc<ReverseGraph>>,
    /// The contraction hierarchy and the graph it is over: `graph`
    /// itself, or `graph` with the back links of one mapping appended.
    hierarchy: Option<(Arc<ChIndex>, Arc<FrozenGraph>)>,
    warnings: Vec<Warning>,
    /// Wall-clock time spent freezing.
    pub freeze_time: Duration,
}

impl Frozen {
    /// The stage a [`Built`] freezes into, its freeze begun at `t0`.
    fn built(graph: FrozenGraph, warnings: Vec<Warning>, t0: Instant) -> Frozen {
        Frozen {
            graph: Arc::new(graph),
            reverse: None,
            hierarchy: None,
            warnings,
            freeze_time: t0.elapsed(),
        }
    }

    /// Attaches a contraction hierarchy to the stage, so it is carried
    /// into snapshots ([`write_snapshot_all`](Frozen::write_snapshot_all))
    /// and picked up by serving engines. The hierarchy must have been
    /// built over this stage's graph — loaders and engines re-validate
    /// the pairing and drop a mismatched one rather than trust it.
    pub fn with_hierarchy(mut self, ch: Arc<ChIndex>) -> Self {
        self.hierarchy = Some((ch, self.graph.clone()));
        self
    }

    /// Builds the contraction hierarchy a daemon serving this stage
    /// prunes `PATH` searches with, and attaches it (`pathalias freeze
    /// --ch`). It is built over the graph that mapping with `options`
    /// serves: the back links the mapping invents are part of it, so a
    /// daemon that maps the same way validates the stored hierarchy
    /// instead of building its own. The weights are `options`' cost
    /// model's lower bounds ([`ch_weights`]). If the mapping fails,
    /// the hierarchy is over this stage's graph alone.
    pub fn with_served_hierarchy(mut self, options: &Options) -> Self {
        let over = match self.map(options) {
            Ok(mapped) => mapped.tree.frozen().clone(),
            Err(_) => self.graph.clone(),
        };
        let ch = ChIndex::build(&over, &ch_weights(&over, &options.cost_model));
        self.hierarchy = Some((Arc::new(ch), over));
        self
    }

    /// Re-enters the pipeline at the frozen stage from a PAGF1
    /// snapshot file ([`pathalias_graph::snapshot`]): parse, build and
    /// freeze are skipped entirely — this is the daemon cold-start
    /// path, and `freeze_time` records the (milliseconds-scale) load
    /// instead.
    pub fn from_snapshot(path: impl AsRef<Path>) -> Result<Frozen, SnapshotError> {
        let t0 = Instant::now();
        let (graph, reverse, hierarchy) = snapshot::read_snapshot_all(path)?;
        let graph = Arc::new(graph);
        let hierarchy = hierarchy.map(|StoredHierarchy { ch, augmented }| {
            let over = augmented.map_or_else(|| graph.clone(), Arc::new);
            (Arc::new(ch), over)
        });
        Ok(Frozen {
            graph,
            reverse: reverse.map(Arc::new),
            hierarchy,
            warnings: Vec::new(),
            freeze_time: t0.elapsed(),
        })
    }

    /// Writes the frozen graph to `path` as a PAGF1 snapshot,
    /// [`from_snapshot`](Frozen::from_snapshot)'s counterpart.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        snapshot::write_snapshot(&self.graph, path)
    }

    /// Writes the snapshot with the reverse-index section included, so
    /// a loader serving point-to-point queries skips the transpose
    /// rebuild (`pathalias freeze` writes this form). Reuses the
    /// stage's reverse index when it already has one.
    pub fn write_snapshot_with_reverse(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        match &self.reverse {
            Some(rev) => snapshot::write_snapshot_full(&self.graph, Some(rev), path),
            None => snapshot::write_snapshot_full(&self.graph, Some(&self.graph.reverse()), path),
        }
    }

    /// Writes the snapshot with every optional section the stage
    /// carries: the contraction hierarchy when one was attached
    /// ([`with_hierarchy`](Frozen::with_hierarchy),
    /// [`with_served_hierarchy`](Frozen::with_served_hierarchy)) or
    /// loaded, with the back links of the graph it is over, and the
    /// reverse index (built here when absent) unless there are back
    /// links: a daemon that serves the hierarchy serves their graph,
    /// and one that rebuilds it serves another, so neither reads the
    /// bare graph's transpose (`pathalias freeze --ch` writes this
    /// form).
    pub fn write_snapshot_all(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let (ch, backlinks) = match &self.hierarchy {
            Some((ch, over)) => (Some(&**ch), over.appended_since(&self.graph)),
            None => (None, Vec::new()),
        };
        let g = &self.graph;
        if !backlinks.is_empty() {
            return snapshot::write_snapshot_all(g, None, ch, &backlinks, path);
        }
        match &self.reverse {
            Some(rev) => snapshot::write_snapshot_all(g, Some(rev), ch, &backlinks, path),
            None => snapshot::write_snapshot_all(g, Some(&g.reverse()), ch, &backlinks, path),
        }
    }

    /// The stage over `graph`, a graph derived from this stage's (its
    /// rows patched with [`FrozenGraph::with_rows_replaced`], back
    /// links appended or removed): the warnings carry over, and the
    /// reverse index and the hierarchy are dropped, not patched. Both
    /// are derived over the edge set, and serving a stale hierarchy
    /// across a cost change answers `PATH` queries wrongly. A daemon
    /// keeps its stage over the graph it serves, so a generation holds
    /// one CSR, and maps again from that graph without its back links
    /// ([`FrozenGraph::without_back_links`]).
    pub fn with_graph(&self, graph: Arc<FrozenGraph>) -> Frozen {
        Frozen {
            graph,
            reverse: None,
            hierarchy: None,
            warnings: self.warnings.clone(),
            freeze_time: self.freeze_time,
        }
    }

    /// The frozen graph.
    pub fn graph(&self) -> &Arc<FrozenGraph> {
        &self.graph
    }

    /// The reverse adjacency index, when the stage came from a
    /// snapshot that stored one. `None` means callers who need the
    /// transpose build it themselves ([`FrozenGraph::reverse`]).
    pub fn reverse_index(&self) -> Option<&Arc<ReverseGraph>> {
        self.reverse.as_ref()
    }

    /// The contraction hierarchy, when the stage came from a snapshot
    /// that stored one or one was attached with
    /// [`with_hierarchy`](Frozen::with_hierarchy). `None` means the
    /// point-to-point tier serves without the hierarchy fast path.
    pub fn hierarchy(&self) -> Option<&Arc<ChIndex>> {
        self.hierarchy.as_ref().map(|(ch, _)| ch)
    }

    /// The graph the [`hierarchy`](Frozen::hierarchy) is over: this
    /// stage's graph, or it with the back links a mapping invents
    /// ([`with_served_hierarchy`](Frozen::with_served_hierarchy); in a
    /// snapshot `pathalias freeze --ch` wrote, the first declared
    /// host's). A mapping that serves another graph cannot use the
    /// hierarchy.
    pub fn hierarchy_graph(&self) -> Option<&Arc<FrozenGraph>> {
        self.hierarchy.as_ref().map(|(_, over)| over)
    }

    /// Warnings recorded while building.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Resolves the mapping source: `options.local` by name, else the
    /// first host the input declared. That is the first node parsing
    /// created, node 0: node ids survive freezing, patching and
    /// snapshots.
    pub fn resolve_local(&self, options: &Options) -> Result<NodeId, Error> {
        match &options.local {
            Some(name) => self
                .graph
                .id_of(name)
                .ok_or_else(|| Error::UnknownLocal(name.clone())),
            None => self.graph.node_ids().next().ok_or(Error::NoInput),
        }
    }

    /// Stage 4: maps from the local host, with back links. Re-entrant:
    /// call as often as you like with different options.
    pub fn map(&self, options: &Options) -> Result<Mapped, Error> {
        let source = self.resolve_local(options)?;
        let map_opts = MapOptions {
            model: options.cost_model,
            trace: options
                .trace
                .iter()
                .filter_map(|n| self.graph.id_of(n))
                .collect(),
            exclude_domains: false,
            no_backlinks: options.no_backlinks,
        };
        let t0 = Instant::now();
        let tree = map_frozen(&self.graph, source, &map_opts)?;
        Ok(Mapped {
            tree,
            map_time: t0.elapsed(),
        })
    }
}

/// Stage 4: the result of one mapping run.
#[derive(Debug, Clone)]
pub struct Mapped {
    /// The shortest-path tree.
    pub tree: ShortestPathTree,
    /// Wall-clock time spent mapping.
    pub map_time: Duration,
}

impl Mapped {
    /// Stage 5, route step: every labelled node's route, not rendered.
    /// (A server that answers lookups keeps none of them: it copies
    /// the same traversal's borrowed routes into its database.)
    pub fn routes(&self) -> RouteTable {
        compute_routes(&self.tree)
    }

    /// Stage 5: computes the routes, then renders them (from the
    /// table, which it keeps; [`Pathalias::run`](crate::Pathalias::run)
    /// renders straight from the tree).
    pub fn print(&self, options: &Options) -> Printed {
        let t0 = Instant::now();
        let routes = self.routes();
        let rendered = render(&routes, &options.print_options());
        let unreachable = unreachable_names(&self.tree);
        Printed {
            routes,
            rendered,
            unreachable,
            print_time: t0.elapsed(),
        }
    }
}

/// The names of the hosts that stayed unreachable in `tree`.
pub(crate) fn unreachable_names(tree: &ShortestPathTree) -> Vec<String> {
    let f = tree.frozen();
    let ids = tree.unreachable().into_iter();
    ids.map(|id| f.name(id).to_string()).collect()
}

/// Stage 5: the printable output.
#[derive(Debug, Clone)]
pub struct Printed {
    /// Every computed route (hidden entries included).
    pub routes: RouteTable,
    /// The rendered route list.
    pub rendered: String,
    /// Hosts that stayed unreachable even after back links.
    pub unreachable: Vec<String>,
    /// Wall-clock time spent printing.
    pub print_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP: &str = "unc duke(500)\nduke phs(300)\n";

    fn parsed() -> Parsed {
        let mut p = Parsed::new();
        p.push_str("m", MAP);
        p
    }

    #[test]
    fn stages_compose() {
        let options = Options {
            local: Some("unc".into()),
            with_costs: true,
            ..Options::default()
        };
        let built = parsed().build(&options).unwrap();
        assert_eq!(built.graph().node_count(), 3);
        let frozen = built.freeze();
        let mapped = frozen.map(&options).unwrap();
        let printed = mapped.print(&options);
        assert!(printed.rendered.contains("800\tphs\tduke!phs!%s"));
    }

    #[test]
    fn frozen_stage_is_reentrant_with_new_options() {
        let options = Options::default();
        let frozen = parsed().build(&options).unwrap().freeze();
        // Same snapshot, two different mapping sources.
        let from_unc = Options {
            local: Some("unc".into()),
            ..Options::default()
        };
        let from_phs = Options {
            local: Some("phs".into()),
            ..Options::default()
        };
        let a = frozen.map(&from_unc).unwrap().print(&from_unc);
        let b = frozen.map(&from_phs).unwrap().print(&from_phs);
        assert!(a.routes.find("unc").unwrap().route == "%s");
        assert!(b.routes.find("phs").unwrap().route == "%s");
    }

    #[test]
    fn freezing_shares_not_copies() {
        let options = Options::default();
        let frozen = parsed().build(&options).unwrap().freeze();
        let mapped = frozen.map(&options).unwrap();
        assert!(
            Arc::ptr_eq(frozen.graph(), mapped.tree.frozen()),
            "no back links here, so the tree holds the same snapshot"
        );
    }

    #[test]
    fn unknown_local_and_no_input() {
        let options = Options {
            local: Some("nosuch".into()),
            ..Options::default()
        };
        let frozen = parsed().build(&options).unwrap().freeze();
        assert!(matches!(frozen.map(&options), Err(Error::UnknownLocal(_))));
        let empty = Parsed::new().build(&Options::default()).unwrap().freeze();
        assert!(matches!(
            empty.map(&Options::default()),
            Err(Error::NoInput)
        ));
    }

    #[test]
    fn built_survives_freezing_for_refreeze() {
        let options = Options::default();
        let built = parsed().build(&options).unwrap();
        let f1 = built.freeze();
        let f2 = built.freeze();
        assert_eq!(f1.graph().node_count(), f2.graph().node_count());
    }

    #[test]
    fn snapshot_reentry_prints_identically() {
        let options = Options {
            local: Some("unc".into()),
            with_costs: true,
            ..Options::default()
        };
        let frozen = parsed().build(&options).unwrap().freeze();
        let path =
            std::env::temp_dir().join(format!("pathalias-stages-{}.pagf", std::process::id()));
        frozen.write_snapshot(&path).unwrap();
        let loaded = Frozen::from_snapshot(&path).unwrap();
        assert_eq!(
            loaded.graph().as_ref(),
            frozen.graph().as_ref(),
            "loaded snapshot equals the in-memory freeze"
        );
        let a = frozen.map(&options).unwrap().print(&options);
        let b = loaded.map(&options).unwrap().print(&options);
        assert_eq!(a.rendered, b.rendered, "routes byte-identical");
        // The default `-l` (first declared host) also survives.
        let defaults = Options::default();
        let da = frozen.map(&defaults).unwrap().print(&defaults);
        let db = loaded.map(&defaults).unwrap().print(&defaults);
        assert_eq!(da.rendered, db.rendered);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn snapshot_load_failures_report() {
        let missing = std::env::temp_dir().join("definitely-missing.pagf");
        assert!(matches!(
            Frozen::from_snapshot(&missing),
            Err(SnapshotError::Io(_))
        ));
        let garbage =
            std::env::temp_dir().join(format!("pathalias-stages-bad-{}.pagf", std::process::id()));
        std::fs::write(&garbage, "not a snapshot").unwrap();
        assert!(matches!(
            Frozen::from_snapshot(&garbage),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_file(garbage).unwrap();
    }

    #[test]
    fn push_file_reads_disk() {
        let path =
            std::env::temp_dir().join(format!("pathalias-stages-{}.map", std::process::id()));
        std::fs::write(&path, MAP).unwrap();
        let mut p = Parsed::new();
        p.push_file(&path).unwrap();
        assert_eq!(p.inputs().len(), 1);
        assert!(!p.is_empty());
        let built = p.build(&Options::default()).unwrap();
        assert_eq!(built.graph().node_count(), 3);
        std::fs::remove_file(path).unwrap();
    }
}
