//! The pipeline driver: a thin convenience wrapper over the staged API.
//!
//! [`Pathalias`] accumulates parsed input incrementally (the CLI shape:
//! parse files as they arrive, then run), drives the
//! [stages](crate::stages) `Built → Frozen → Mapped → Printed`, and
//! caches the [`Frozen`] stage between runs — calling [`run`] twice
//! with different mapping or printing options re-enters the pipeline at
//! the map stage without re-parsing or re-freezing. The batch run
//! itself, [`write_routes`], consumes the driver instead, and frees each
//! stage as soon as the next one exists.
//!
//! [`run`]: Pathalias::run
//! [`write_routes`]: Pathalias::write_routes

use crate::options::Options;
use crate::stages::{unreachable_names, Frozen, Mapped};
use pathalias_graph::{Graph, NodeId, Warning};
use pathalias_mapper::{format_trace, DualTree, MapError, MapStats, ShortestPathTree};
use pathalias_parser::{parse_into, ParseError};
use pathalias_printer::{compute_routes, render_tree, write_tree, RouteTable};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fatal pipeline error.
#[derive(Debug)]
pub enum Error {
    /// Scanning or parsing failed.
    Parse(ParseError),
    /// Mapping failed.
    Map(MapError),
    /// The `-l` host does not appear in the input.
    UnknownLocal(String),
    /// `run` was called with no parsed input.
    NoInput,
    /// Reading an input file, or writing the route file
    /// ([`Pathalias::write_routes`]), failed.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Map(e) => write!(f, "mapping error: {e}"),
            Error::UnknownLocal(h) => write!(f, "local host `{h}` not found in the input"),
            Error::NoInput => write!(f, "no input parsed"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<MapError> for Error {
    fn from(e: MapError) -> Self {
        Error::Map(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Wall-clock time spent in each phase (experiment E9 reports these;
/// the server exports the latest reload's timings over `METRICS`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Time spent parsing input.
    pub parse: Duration,
    /// Time spent building the graph from parsed input. The
    /// incremental [`Pathalias`] driver fuses building into parsing
    /// (`parse_into` grows the graph as text arrives), so it reports
    /// zero here; the staged `Parsed → Built` path (reloads, `freeze`)
    /// reports the build stage separately.
    pub build: Duration,
    /// Time spent freezing the built graph into its CSR snapshot.
    pub freeze: Duration,
    /// Time spent building the shortest-path tree.
    pub map: Duration,
    /// Time spent printing: the traversal that computes the routes
    /// and the rendering of the route file, together. [`Pathalias`]
    /// renders straight from the tree and builds no route table; the
    /// staged [`Mapped::print`] also keeps the table. Under
    /// [`Pathalias::write_routes`] it includes writing the routes out.
    pub print: Duration,
}

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct Output {
    /// The rendered route list.
    pub rendered: String,
    /// The shortest-path tree.
    pub tree: ShortestPathTree,
    /// The dual (second-best) result, when requested.
    pub dual: Option<DualTree>,
    /// Warnings accumulated while building the graph.
    pub warnings: Vec<Warning>,
    /// Hosts that stayed unreachable even after back links ("before
    /// reporting these hosts on the error output").
    pub unreachable: Vec<String>,
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl Output {
    /// Every computed route (hidden entries included), computed afresh
    /// from the tree: a run renders without keeping a table, so only a
    /// caller that wants one pays for it.
    pub fn routes(&self) -> RouteTable {
        compute_routes(&self.tree)
    }
}

/// What a batch run ([`Pathalias::write_routes`]) leaves for standard
/// error once the routes are written, in the order `pathalias` prints
/// it.
#[derive(Debug)]
pub struct Report {
    /// Warnings accumulated while building the graph.
    pub warnings: Vec<Warning>,
    /// The `-t` trace, formatted; empty when nothing was traced.
    pub trace: String,
    /// Hosts that stayed unreachable even after back links.
    pub unreachable: Vec<String>,
    /// Nodes in the built graph, counted before the freeze.
    pub nodes: usize,
    /// Links in the built graph, counted before the freeze.
    pub links: usize,
    /// The mapping run's counters.
    pub stats: MapStats,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// The pipeline driver. Parse one or more inputs, then [`run`], or
/// [`write_routes`] once.
///
/// [`run`]: Pathalias::run
/// [`write_routes`]: Pathalias::write_routes
#[derive(Debug)]
pub struct Pathalias {
    options: Options,
    graph: Graph,
    parsed_any: bool,
    first_host: Option<NodeId>,
    parse_time: Duration,
    validated: bool,
    /// Cached frozen stage; dropped whenever new input arrives.
    frozen: Option<Frozen>,
}

impl Default for Pathalias {
    fn default() -> Self {
        Self::new()
    }
}

impl Pathalias {
    /// Creates a pipeline with default options.
    pub fn new() -> Self {
        Self::with_options(Options::default())
    }

    /// Creates a pipeline with the given options.
    pub fn with_options(options: Options) -> Self {
        let graph = Graph::with_ignore_case(options.ignore_case);
        Pathalias {
            options,
            graph,
            parsed_any: false,
            first_host: None,
            parse_time: Duration::ZERO,
            validated: false,
            frozen: None,
        }
    }

    /// The options (mutable, so callers can adjust between parses; note
    /// `ignore_case` only takes effect when set before the first
    /// parse).
    pub fn options_mut(&mut self) -> &mut Options {
        &mut self.options
    }

    /// Shared access to the options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The graph built so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Parses one named input.
    pub fn parse_str(&mut self, file: &str, text: &str) -> Result<(), ParseError> {
        let t0 = Instant::now();
        let before = self.graph.node_count();
        parse_into(&mut self.graph, file, text)?;
        if self.first_host.is_none() && self.graph.node_count() > before {
            self.first_host = Some(
                self.graph
                    .node_ids()
                    .nth(before)
                    .expect("a node was just created"),
            );
        }
        self.parsed_any = true;
        // New input invalidates the snapshot and requires revalidation.
        self.frozen = None;
        self.validated = false;
        self.parse_time += t0.elapsed();
        Ok(())
    }

    /// Reads and parses an input file from disk.
    pub fn parse_file(&mut self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let name = path.to_string_lossy().into_owned();
        self.parse_str(&name, &text)?;
        Ok(())
    }

    /// The frozen stage for the input parsed so far, building (and
    /// caching) it on first use. Lets callers re-enter the staged API
    /// directly — e.g. to fan out multi-source mapping over the same
    /// snapshot [`run`](Pathalias::run) uses.
    pub fn frozen(&mut self) -> Result<&Frozen, Error> {
        if !self.parsed_any {
            return Err(Error::NoInput);
        }
        if self.frozen.is_none() {
            if !self.validated {
                self.graph.validate();
                self.validated = true;
            }
            let t0 = Instant::now();
            let snapshot = Arc::new(self.graph.freeze());
            self.frozen = Some(Frozen::from_parts(
                snapshot,
                self.first_host,
                self.graph.warnings().to_vec(),
                t0.elapsed(),
            ));
        }
        Ok(self.frozen.as_ref().expect("just built"))
    }

    /// Runs the freeze, map and print stages, consuming nothing: `run`
    /// may be called repeatedly (e.g. with different options), and only
    /// the stages invalidated by intervening changes are redone —
    /// repeat runs on unchanged input skip straight to mapping.
    pub fn run(&mut self) -> Result<Output, Error> {
        let options = self.options.clone();
        let parse_time = self.parse_time;
        let frozen = self.frozen()?;
        let mapped: Mapped = frozen.map(&options)?;
        let t0 = Instant::now();
        let rendered = render_tree(&mapped.tree, &options.print_options());
        let unreachable = unreachable_names(&mapped.tree);
        let print = t0.elapsed();
        Ok(Output {
            rendered,
            tree: mapped.tree,
            dual: mapped.dual,
            warnings: frozen.warnings().to_vec(),
            unreachable,
            timings: PhaseTimings {
                parse: parse_time,
                build: Duration::ZERO,
                freeze: frozen.freeze_time,
                map: mapped.map_time,
                print,
            },
        })
    }

    /// The batch run: freezes, maps and writes the route file to `out`
    /// (byte for byte [`run`](Pathalias::run)'s `rendered`), and returns
    /// what is left to report. It consumes the driver so that no stage
    /// outlives the next one: the linked graph is frozen in place
    /// ([`Graph::into_frozen`]), the snapshot goes once mapped (the tree
    /// holds the graph it mapped), and the routes are written as they
    /// are rendered, never held whole. A failed write is
    /// [`Error::Io`]; nothing else in here does I/O.
    pub fn write_routes(self, out: &mut impl Write) -> Result<Report, Error> {
        let Pathalias {
            options,
            mut graph,
            parsed_any,
            first_host,
            parse_time,
            validated,
            frozen,
        } = self;
        if !parsed_any {
            return Err(Error::NoInput);
        }
        let (nodes, links) = (graph.node_count(), graph.link_count());
        let frozen = match frozen {
            Some(frozen) => {
                drop(graph);
                frozen
            }
            None => {
                if !validated {
                    graph.validate();
                }
                let warnings = graph.take_warnings();
                let t0 = Instant::now();
                let snapshot = Arc::new(graph.into_frozen());
                Frozen::from_parts(snapshot, first_host, warnings, t0.elapsed())
            }
        };
        let Mapped { tree, map_time, .. } = frozen.map(&options)?;
        let (warnings, freeze) = (frozen.warnings().to_vec(), frozen.freeze_time);
        drop(frozen);

        let t0 = Instant::now();
        write_tree(&tree, &options.print_options(), out)?;
        let unreachable = unreachable_names(&tree);
        let print = t0.elapsed();
        let trace = if tree.trace.is_empty() {
            String::new()
        } else {
            format_trace(tree.frozen(), &tree.trace)
        };
        Ok(Report {
            warnings,
            trace,
            unreachable,
            nodes,
            links,
            stats: tree.stats,
            timings: PhaseTimings {
                parse: parse_time,
                build: Duration::ZERO,
                freeze,
                map: map_time,
                print,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_printer::Sort;

    /// The paper's worked example input (OUTPUT section).
    const PAPER_1981: &str = "\
unc\tduke(HOURLY), phs(HOURLY*4)
duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
phs\tunc(HOURLY*4), duke(HOURLY)
research\tduke(DEMAND), ucbvax(DEMAND)
ucbvax\tresearch(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
";

    #[test]
    fn paper_output_reproduced_exactly() {
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("unc".into());
        pa.options_mut().with_costs = true;
        pa.parse_str("1981-map", PAPER_1981).unwrap();
        let out = pa.run().unwrap();
        let expected = "\
0\tunc\t%s
500\tduke\tduke!%s
800\tphs\tduke!phs!%s
3000\tresearch\tduke!research!%s
3300\tucbvax\tduke!research!ucbvax!%s
3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai
3395\tstanford\tduke!research!ucbvax!%s@stanford
";
        assert_eq!(out.rendered, expected);
    }

    #[test]
    fn default_local_is_first_host() {
        let mut pa = Pathalias::new();
        pa.parse_str("m", "alpha beta(10)\n").unwrap();
        let out = pa.run().unwrap();
        assert_eq!(out.routes().find("alpha").unwrap().route, "%s");
    }

    #[test]
    fn unknown_local_is_error() {
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("nosuch".into());
        pa.parse_str("m", "a b(1)\n").unwrap();
        assert!(matches!(pa.run(), Err(Error::UnknownLocal(_))));
    }

    #[test]
    fn no_input_is_error() {
        let mut pa = Pathalias::new();
        assert!(matches!(pa.run(), Err(Error::NoInput)));
    }

    #[test]
    fn ignore_case_merges_names() {
        let mut pa = Pathalias::with_options(Options {
            ignore_case: true,
            ..Options::default()
        });
        pa.parse_str("m", "Alpha beta(10)\nALPHA gamma(20)\n")
            .unwrap();
        let out = pa.run().unwrap();
        assert!(out.routes().find("gamma").is_some());
        assert_eq!(pa.graph().node_count(), 3);
    }

    #[test]
    fn unreachable_reported() {
        let mut pa = Pathalias::new();
        pa.options_mut().no_backlinks = true;
        pa.parse_str("m", "a b(1)\nisland remote(5)\n").unwrap();
        let out = pa.run().unwrap();
        assert!(out.unreachable.contains(&"island".to_string()));
        assert!(out.unreachable.contains(&"remote".to_string()));
    }

    #[test]
    fn warnings_surface() {
        let mut pa = Pathalias::new();
        pa.parse_str("m", "a b(10)\na b(20)\n").unwrap();
        let out = pa.run().unwrap();
        assert!(!out.warnings.is_empty());
    }

    #[test]
    fn second_best_included_when_requested() {
        let mut pa = Pathalias::new();
        pa.options_mut().second_best = true;
        pa.options_mut().cost_model.relay_penalty = 0;
        pa.parse_str(
            "m",
            "p caip(200), topaz(300)\ncaip .r.edu(200)\n.r.edu motown(25)\ntopaz motown(200)\n",
        )
        .unwrap();
        let out = pa.run().unwrap();
        let dual = out.dual.expect("dual requested");
        let motown = pa.graph().try_node("motown").unwrap();
        assert_eq!(dual.second_best(motown).unwrap().cost, 500);
    }

    #[test]
    fn run_twice_is_stable_and_reuses_the_snapshot() {
        let mut pa = Pathalias::new();
        pa.options_mut().with_costs = true;
        pa.parse_str("m", PAPER_1981).unwrap();
        pa.options_mut().local = Some("unc".into());
        let a = pa.run().unwrap();
        let b = pa.run().unwrap();
        assert_eq!(a.rendered, b.rendered);
        // The second run re-entered at the map stage: same Arc.
        assert!(Arc::ptr_eq(a.tree.frozen(), b.tree.frozen()));
    }

    #[test]
    fn new_input_invalidates_the_snapshot() {
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("a".into());
        pa.parse_str("one", "a b(10)\n").unwrap();
        let first = pa.run().unwrap();
        assert!(first.routes().find("c").is_none());
        pa.parse_str("two", "b c(10)\n").unwrap();
        let second = pa.run().unwrap();
        assert_eq!(second.routes().find("c").unwrap().route, "b!c!%s");
        assert!(!Arc::ptr_eq(first.tree.frozen(), second.tree.frozen()));
    }

    #[test]
    fn input_after_a_run_is_still_validated() {
        // A run between two parses must not leave later input
        // unvalidated: the second file's gateway-into-ungated construct
        // has to produce its warning.
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("a".into());
        pa.parse_str("one", "a b(10)\n").unwrap();
        assert!(pa.run().unwrap().warnings.is_empty());
        pa.parse_str("two", "OPEN = {x}\nh OPEN(10)\ngateway {OPEN!h}\na h(5)\n")
            .unwrap();
        let out = pa.run().unwrap();
        assert!(
            out.warnings
                .iter()
                .any(|w| matches!(w, Warning::GatewayIntoUngated { .. })),
            "warnings: {:?}",
            out.warnings
        );
    }

    #[test]
    fn local_may_name_a_private_only_host() {
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("bilbo".into());
        pa.parse_str("site", "private {bilbo}\nbilbo wiretap(25)\n")
            .unwrap();
        let out = pa.run().unwrap();
        assert_eq!(out.routes().find("wiretap").unwrap().route, "wiretap!%s");
    }

    #[test]
    fn multiple_files_accumulate() {
        let mut pa = Pathalias::new();
        pa.parse_str("one", "a b(10)\n").unwrap();
        pa.parse_str("two", "b c(10)\n").unwrap();
        pa.options_mut().local = Some("a".into());
        let out = pa.run().unwrap();
        assert_eq!(out.routes().find("c").unwrap().route, "b!c!%s");
    }

    /// A driver over `text` with `options`, parsed and not yet run.
    fn driver(options: &Options, text: &str) -> Pathalias {
        let mut pa = Pathalias::with_options(options.clone());
        pa.parse_str("m", text).unwrap();
        pa
    }

    #[test]
    fn write_routes_writes_what_run_renders_and_reports_the_rest() {
        // A duplicate link, a back link, unreachable hosts and a net.
        let text = format!("{PAPER_1981}unc\tduke(9)\nlone\tphs(3)\nx\ty(1)\n");
        for (with_costs, sort, include_hidden, second_best) in [
            (false, Sort::ByCost, false, false),
            (true, Sort::ByCost, false, false),
            (false, Sort::ByName, true, false),
            (true, Sort::ByName, false, true),
        ] {
            let options = Options {
                local: Some("unc".into()),
                with_costs,
                sort,
                include_hidden,
                second_best,
                trace: vec!["lone".into()],
                ..Options::default()
            };
            let mut pa = driver(&options, &text);
            let want = pa.run().unwrap();
            let nodes = pa.graph().node_count();
            let mut written = Vec::new();
            let report = driver(&options, &text).write_routes(&mut written).unwrap();
            assert_eq!(String::from_utf8(written).unwrap(), want.rendered);
            assert_eq!(report.warnings, want.warnings);
            assert!(!report.warnings.is_empty());
            assert_eq!(report.unreachable, ["x", "y"]);
            assert_eq!(report.unreachable, want.unreachable);
            assert_eq!(
                report.trace,
                format_trace(want.tree.frozen(), &want.tree.trace)
            );
            assert!(report.trace.contains("lone"), "{}", report.trace);
            assert_eq!(
                (report.nodes, report.links),
                (nodes, pa.graph().link_count())
            );
            assert_eq!(report.stats, want.tree.stats);
            assert_eq!(report.stats.invented_links, 1);

            // A driver that already froze (and ran) writes the same.
            let mut written = Vec::new();
            pa.write_routes(&mut written).unwrap();
            assert_eq!(String::from_utf8(written).unwrap(), want.rendered);
        }
    }

    #[test]
    fn write_routes_reports_errors() {
        let mut sink = Vec::new();
        let err = Pathalias::new().write_routes(&mut sink);
        assert!(matches!(err, Err(Error::NoInput)));
        let options = Options {
            local: Some("nosuch".into()),
            ..Options::default()
        };
        let err = driver(&options, PAPER_1981).write_routes(&mut sink);
        assert!(matches!(err, Err(Error::UnknownLocal(_))));
        assert!(sink.is_empty());
        let mut full: &mut [u8] = &mut [0; 8];
        let err = driver(&Options::default(), PAPER_1981).write_routes(&mut full);
        assert!(matches!(err, Err(Error::Io(_))));
    }

    #[test]
    fn timings_populated() {
        let mut pa = Pathalias::new();
        pa.parse_str("m", PAPER_1981).unwrap();
        pa.options_mut().local = Some("unc".into());
        let out = pa.run().unwrap();
        assert!(out.timings.parse > Duration::ZERO);
        assert!(out.timings.freeze > Duration::ZERO);
    }
}
