//! The staged pipeline: `Parsed → Built → Frozen → Mapped → Printed`.
//!
//! The original driver was a monolith: parse, map, print, all in one
//! call. This module splits the run into *values* — each stage is a
//! struct you can keep, re-enter, and time:
//!
//! * [`Parsed`] — the named input texts, before any graph exists;
//! * [`Built`] — the mutable [`Graph`] produced by parsing (validated,
//!   warnings recorded);
//! * [`Frozen`] — the immutable CSR snapshot
//!   ([`pathalias_graph::FrozenGraph`]) plus everything later stages
//!   need from the build (first host, warnings). Cheap to share.
//! * [`Mapped`] — the shortest-path tree (and optional second-best
//!   dual) from one mapping run;
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
use pathalias_graph::snapshot::{self, SnapshotError};
use pathalias_graph::{ChIndex, FrozenGraph, Graph, NodeId, ReverseGraph, Warning};
use pathalias_mapper::{map_dual_frozen, map_frozen, DualTree, MapOptions, ShortestPathTree};
use pathalias_parser::parse_into;
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
/// The outline is cut on the first delta plan that needs it and
/// cached beside the text, in the same `Arc`, so it is never served
/// for any other text.
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

    /// Stage 2: parses every input into a fresh graph (only
    /// `options.ignore_case` matters here) and validates it.
    pub fn build(&self, options: &Options) -> Result<Built, Error> {
        let t0 = Instant::now();
        let mut graph = Graph::with_ignore_case(options.ignore_case);
        let mut first_host = None;
        for input in &self.inputs {
            let before = graph.node_count();
            parse_into(&mut graph, &input.file, &input.text)?;
            if first_host.is_none() && graph.node_count() > before {
                first_host = Some(
                    graph
                        .node_ids()
                        .nth(before)
                        .expect("a node was just created"),
                );
            }
        }
        graph.validate();
        Ok(Built {
            graph,
            first_host,
            build_time: t0.elapsed(),
        })
    }
}

/// Reads one input file, named by its path.
fn read(path: &Path) -> std::io::Result<Arc<Input>> {
    let text = std::fs::read_to_string(path)?;
    Ok(Input::new(path.to_string_lossy().into_owned(), text))
}

/// Stage 2: the mutable graph built by parsing.
#[derive(Debug)]
pub struct Built {
    graph: Graph,
    first_host: Option<NodeId>,
    /// Wall-clock time spent parsing and validating.
    pub build_time: Duration,
}

impl Built {
    /// The built graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The first host declared in the input (the default `-l`).
    pub fn first_host(&self) -> Option<NodeId> {
        self.first_host
    }

    /// Stage 3: freezes the graph into its immutable CSR snapshot.
    /// The `Built` stage survives, so a caller can re-freeze after
    /// further mutation.
    pub fn freeze(&self) -> Frozen {
        let t0 = Instant::now();
        Frozen {
            graph: Arc::new(self.graph.freeze()),
            reverse: None,
            ch: None,
            first_host: self.first_host,
            warnings: self.graph.warnings().to_vec(),
            freeze_time: t0.elapsed(),
        }
    }
}

/// Stage 3: the immutable snapshot every later stage works from.
#[derive(Debug, Clone)]
pub struct Frozen {
    graph: Arc<FrozenGraph>,
    reverse: Option<Arc<ReverseGraph>>,
    ch: Option<Arc<ChIndex>>,
    first_host: Option<NodeId>,
    warnings: Vec<Warning>,
    /// Wall-clock time spent freezing.
    pub freeze_time: Duration,
}

impl Frozen {
    /// Assembles the stage from parts (for drivers that build the
    /// graph incrementally rather than through [`Parsed::build`]).
    pub fn from_parts(
        graph: Arc<FrozenGraph>,
        first_host: Option<NodeId>,
        warnings: Vec<Warning>,
        freeze_time: Duration,
    ) -> Self {
        Frozen {
            graph,
            reverse: None,
            ch: None,
            first_host,
            warnings,
            freeze_time,
        }
    }

    /// Attaches a contraction hierarchy to the stage, so it is carried
    /// into snapshots ([`write_snapshot_all`](Frozen::write_snapshot_all))
    /// and picked up by serving engines. The hierarchy must have been
    /// built over this stage's graph — loaders and engines re-validate
    /// the pairing and drop a mismatched one rather than trust it.
    pub fn with_hierarchy(mut self, ch: Arc<ChIndex>) -> Self {
        self.ch = Some(ch);
        self
    }

    /// Re-enters the pipeline at the frozen stage from a PAGF1
    /// snapshot file ([`pathalias_graph::snapshot`]): parse, build and
    /// freeze are skipped entirely — this is the daemon cold-start
    /// path, and `freeze_time` records the (milliseconds-scale) load
    /// instead.
    pub fn from_snapshot(path: impl AsRef<Path>) -> Result<Frozen, SnapshotError> {
        let t0 = Instant::now();
        let (graph, reverse, ch) = snapshot::read_snapshot_all(path)?;
        // `Parsed::build` pins the default `-l` to the first node
        // parsing ever creates, which is node 0 of a non-empty pool;
        // node ids survive freezing and serialization, so the same
        // node is the default here.
        let first_host = graph.node_ids().next();
        Ok(Frozen {
            graph: Arc::new(graph),
            reverse: reverse.map(Arc::new),
            ch: ch.map(Arc::new),
            first_host,
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
    /// carries: the reverse index (built here when absent) and the
    /// contraction hierarchy when one was attached
    /// ([`with_hierarchy`](Frozen::with_hierarchy)) or loaded
    /// (`pathalias freeze --ch` writes this form).
    pub fn write_snapshot_all(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let ch = self.ch.as_deref();
        match &self.reverse {
            Some(rev) => snapshot::write_snapshot_all(&self.graph, Some(rev), ch, path),
            None => {
                snapshot::write_snapshot_all(&self.graph, Some(&self.graph.reverse()), ch, path)
            }
        }
    }

    /// Re-enters the frozen stage with the given rows replaced — the
    /// incremental-reload path, which patches the CSR in place of a
    /// full re-parse/build/freeze ([`crate::delta`] plans the patches).
    ///
    /// The reverse index and the contraction hierarchy are *dropped*,
    /// not patched: both are derived over the edge set, and serving a
    /// stale hierarchy across a cost change answers `PATH` queries
    /// wrongly. Callers rebuild what they need from the patched graph.
    pub fn with_rows_replaced(
        &self,
        patches: &[pathalias_graph::RowPatch],
    ) -> (Frozen, pathalias_graph::EdgeShift) {
        let t0 = Instant::now();
        let (graph, shift) = self.graph.with_rows_replaced(patches);
        (
            Frozen {
                graph: Arc::new(graph),
                reverse: None,
                ch: None,
                first_host: self.first_host,
                warnings: self.warnings.clone(),
                freeze_time: t0.elapsed(),
            },
            shift,
        )
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
        self.ch.as_ref()
    }

    /// Warnings recorded while building.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Resolves the mapping source: `options.local` by name, else the
    /// first declared host.
    pub fn resolve_local(&self, options: &Options) -> Result<NodeId, Error> {
        match &options.local {
            Some(name) => self
                .graph
                .id_of(name)
                .ok_or_else(|| Error::UnknownLocal(name.clone())),
            None => self.first_host.ok_or(Error::NoInput),
        }
    }

    /// Stage 4: maps from the local host (with back links, and the
    /// second-best dual when requested). Re-entrant: call as often as
    /// you like with different options.
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
        let (tree, dual) = if options.second_best {
            let dual = map_dual_frozen(&self.graph, source, &map_opts)?;
            (dual.primary.clone(), Some(dual))
        } else {
            (map_frozen(&self.graph, source, &map_opts)?, None)
        };
        Ok(Mapped {
            tree,
            dual,
            map_time: t0.elapsed(),
        })
    }
}

/// Stage 4: the result of one mapping run.
#[derive(Debug, Clone)]
pub struct Mapped {
    /// The shortest-path tree (the dual's primary when `-s` was set).
    pub tree: ShortestPathTree,
    /// The second-best (domain-free) result, when requested.
    pub dual: Option<DualTree>,
    /// Wall-clock time spent mapping.
    pub map_time: Duration,
}

impl Mapped {
    /// Stage 5, route step: every labelled node's route, not rendered
    /// — all a server that answers lookups needs.
    pub fn routes(&self) -> RouteTable {
        compute_routes(&self.tree)
    }

    /// Stage 5: computes the routes, then renders them.
    pub fn print(&self, options: &Options) -> Printed {
        let t0 = Instant::now();
        let routes = self.routes();
        let rendered = render(&routes, &options.print_options());
        let unreachable = self
            .tree
            .unreachable()
            .into_iter()
            .map(|id| self.tree.frozen().name(id).to_string())
            .collect();
        Printed {
            routes,
            rendered,
            unreachable,
            print_time: t0.elapsed(),
        }
    }
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
