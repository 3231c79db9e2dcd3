//! The pipeline driver: a thin convenience wrapper over the staged API.
//!
//! [`Pathalias`] accumulates parsed input incrementally (the CLI shape:
//! parse files as they arrive, then run) into one [`Built`] stage,
//! drives the [stages](crate::stages) `Built → Frozen → Mapped →
//! Printed`, and caches the [`Frozen`] stage between runs — calling
//! [`run`] twice with different mapping or printing options re-enters
//! the pipeline at the map stage without re-parsing or re-freezing.
//! The batch run itself, [`write_routes`], consumes the driver instead,
//! and frees each stage as soon as the next one exists. Both return a
//! [`Report`].
//!
//! [`run`]: Pathalias::run
//! [`write_routes`]: Pathalias::write_routes

use crate::options::Options;
use crate::stages::{unreachable_names, Built, Frozen, Mapped};
use pathalias_graph::{Graph, Warning};
use pathalias_mapper::{format_trace, MapError, MapStats, ShortestPathTree};
use pathalias_parser::ParseError;
use pathalias_printer::{compute_routes, render_tree, write_tree, RouteTable};
use std::fmt;
use std::io::Write;
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
    /// No `-l` host was given and the input declares no host.
    NoInput,
    /// Writing the route file ([`Pathalias::write_routes`]) failed.
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
    /// Time spent reading the input texts: a reload's file reads.
    /// [`Pathalias`] reports zero here: its texts are read, if at all,
    /// inside the build ([`Pathalias::parse_inputs`]).
    pub parse: Duration,
    /// Time spent parsing the texts into the graph
    /// ([`Built::build_time`]).
    pub build: Duration,
    /// Time spent validating the built graph and freezing it into its
    /// CSR snapshot.
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

/// What [`Pathalias::run`] produces.
#[derive(Debug)]
pub struct Output {
    /// The rendered route list.
    pub rendered: String,
    /// The shortest-path tree.
    pub tree: ShortestPathTree,
    /// Everything else the run found.
    pub report: Report,
}

impl Output {
    /// Every computed route (hidden entries included), computed afresh
    /// from the tree: a run renders without keeping a table, so only a
    /// caller that wants one pays for it.
    pub fn routes(&self) -> RouteTable {
        compute_routes(&self.tree)
    }
}

/// What a run leaves for standard error besides its routes, in the
/// order `pathalias` prints it.
#[derive(Debug)]
pub struct Report {
    /// Warnings from parsing, then from validating the whole graph.
    pub warnings: Vec<Warning>,
    /// The `-t` trace, formatted; empty when nothing was traced.
    pub trace: String,
    /// Hosts that stayed unreachable even after back links ("before
    /// reporting these hosts on the error output").
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

impl Report {
    /// The report on `tree`, mapped from `frozen` in `map`; `frozen`
    /// froze a graph of `nodes` and `links` built in `build`. The print
    /// time is the caller's to fill in.
    fn new(
        tree: &ShortestPathTree,
        frozen: &Frozen,
        (nodes, links, build): (usize, usize, Duration),
        map: Duration,
    ) -> Report {
        let trace = if tree.trace.is_empty() {
            String::new()
        } else {
            format_trace(tree.frozen(), &tree.trace)
        };
        Report {
            warnings: frozen.warnings().to_vec(),
            trace,
            unreachable: unreachable_names(tree),
            nodes,
            links,
            stats: tree.stats,
            timings: PhaseTimings {
                parse: Duration::ZERO,
                build,
                freeze: frozen.freeze_time,
                map,
                print: Duration::ZERO,
            },
        }
    }
}

/// The pipeline driver. Parse one or more inputs, then [`run`], or
/// [`write_routes`] once.
///
/// [`run`]: Pathalias::run
/// [`write_routes`]: Pathalias::write_routes
#[derive(Debug)]
pub struct Pathalias {
    options: Options,
    built: Built,
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
        Pathalias {
            built: Built::new(&options),
            options,
            frozen: None,
        }
    }

    /// The options (mutable, so callers can adjust between parses; note
    /// `ignore_case` only takes effect when set before the first
    /// parse).
    pub fn options_mut(&mut self) -> &mut Options {
        &mut self.options
    }

    /// The graph built so far.
    pub fn graph(&self) -> &Graph {
        self.built.graph()
    }

    /// Parses one named input ([`Built::parse_str`]).
    pub fn parse_str(&mut self, file: &str, text: &str) -> Result<(), ParseError> {
        self.frozen = None;
        self.built.parse_str(file, text)
    }

    /// Parses named inputs in order, on two threads
    /// ([`Built::parse_inputs`]).
    pub fn parse_inputs<I, N, T, E>(&mut self, inputs: I) -> Result<(), E>
    where
        I: IntoIterator<Item = Result<(N, T), E>>,
        I::IntoIter: Send,
        N: AsRef<str> + Send + Sync,
        T: AsRef<str> + Send + Sync,
        E: From<ParseError> + Send,
    {
        self.frozen = None;
        self.built.parse_inputs(inputs)
    }

    /// Runs the freeze, map and print stages, consuming nothing: `run`
    /// may be called repeatedly (e.g. with different options), and only
    /// the stages invalidated by intervening changes are redone —
    /// repeat runs on unchanged input skip straight to mapping.
    pub fn run(&mut self) -> Result<Output, Error> {
        let counts = self.counts();
        let Pathalias {
            options,
            built,
            frozen,
        } = self;
        let frozen = frozen.get_or_insert_with(|| built.freeze());
        let Mapped { tree, map_time } = frozen.map(options)?;
        let t0 = Instant::now();
        let rendered = render_tree(&tree, &options.print_options());
        let mut report = Report::new(&tree, frozen, counts, map_time);
        report.timings.print = t0.elapsed();
        Ok(Output {
            rendered,
            tree,
            report,
        })
    }

    /// The batch run: freezes, maps and writes the route file to `out`
    /// (byte for byte [`run`](Pathalias::run)'s `rendered`), and returns
    /// the same report. It consumes the driver so that no stage
    /// outlives the next one: the build graph moves into its snapshot
    /// ([`Built::into_frozen`]), the snapshot goes once mapped (the
    /// tree holds the graph it mapped), and the routes are written as
    /// they are rendered, never held whole. A failed write is
    /// [`Error::Io`]; nothing else in here does I/O.
    pub fn write_routes(self, out: &mut impl Write) -> Result<Report, Error> {
        let counts = self.counts();
        let Pathalias {
            options,
            built,
            frozen,
        } = self;
        let frozen = match frozen {
            Some(frozen) => {
                drop(built);
                frozen
            }
            None => built.into_frozen(),
        };
        let Mapped { tree, map_time } = frozen.map(&options)?;
        let t0 = Instant::now();
        let mut report = Report::new(&tree, &frozen, counts, map_time);
        drop(frozen);
        write_tree(&tree, &options.print_options(), out)?;
        report.timings.print = t0.elapsed();
        Ok(report)
    }

    /// The built graph's node and link counts, and its build time.
    fn counts(&self) -> (usize, usize, Duration) {
        let g = self.built.graph();
        (g.node_count(), g.link_count(), self.built.build_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::Parsed;
    use pathalias_printer::Sort;
    use std::sync::Arc;

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
        assert!(out.report.unreachable.contains(&"island".to_string()));
        assert!(out.report.unreachable.contains(&"remote".to_string()));
    }

    #[test]
    fn warnings_surface() {
        let mut pa = Pathalias::new();
        pa.parse_str("m", "a b(10)\na b(20)\n").unwrap();
        let out = pa.run().unwrap();
        assert!(!out.report.warnings.is_empty());
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
        // A run between two parses must leave later input validated,
        // and earlier input validated once: each file's
        // gateway-into-ungated construct warns once, as in one run over
        // both files.
        let files = [
            ("one", "OPEN = {x}\nh OPEN(10)\ngateway {OPEN!h}\na h(5)\n"),
            ("two", "SHUT = {y}\nk SHUT(10)\ngateway {SHUT!k}\na k(5)\n"),
        ];
        let gateway = |net: &str, host: &str| Warning::GatewayIntoUngated {
            net: net.into(),
            host: host.into(),
        };
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("a".into());
        pa.parse_str(files[0].0, files[0].1).unwrap();
        assert_eq!(pa.run().unwrap().report.warnings, [gateway("OPEN", "h")]);
        pa.parse_str(files[1].0, files[1].1).unwrap();
        let rerun = pa.run().unwrap().report.warnings;

        let mut once = Pathalias::new();
        once.options_mut().local = Some("a".into());
        for (file, text) in files {
            once.parse_str(file, text).unwrap();
        }
        assert_eq!(rerun, once.run().unwrap().report.warnings);
        assert_eq!(rerun, [gateway("OPEN", "h"), gateway("SHUT", "k")]);
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

    /// A driver over `files` with `options`, parsed and not yet run.
    fn driver(options: &Options, files: &[(&str, &str)]) -> Pathalias {
        let mut pa = Pathalias::with_options(options.clone());
        for (file, text) in files {
            pa.parse_str(file, text).unwrap();
        }
        pa
    }

    #[test]
    fn write_routes_writes_what_run_renders_and_reports_the_rest() {
        // A duplicate link across files, a back link, unreachable
        // hosts, a net and a gateway into it that validation warns of.
        let files = [
            ("paper", PAPER_1981),
            ("more", "unc\tduke(9)\nlone\tphs(3)\nx\ty(1)\n"),
            ("open", "OPEN = {q}\nduke OPEN(10)\ngateway {OPEN!duke}\n"),
        ];
        for (with_costs, sort, include_hidden) in [
            (false, Sort::ByCost, false),
            (true, Sort::ByCost, false),
            (false, Sort::ByName, true),
            (true, Sort::ByName, false),
        ] {
            let options = Options {
                local: Some("unc".into()),
                with_costs,
                sort,
                include_hidden,
                trace: vec!["lone".into()],
                ..Options::default()
            };
            let mut pa = driver(&options, &files);
            let want = pa.run().unwrap();
            let nodes = pa.graph().node_count();
            let mut written = Vec::new();
            let report = driver(&options, &files).write_routes(&mut written).unwrap();
            assert_eq!(String::from_utf8(written).unwrap(), want.rendered);
            assert_eq!(report.warnings, want.report.warnings);
            assert!(matches!(
                report.warnings[..],
                [
                    Warning::DuplicateLink { .. },
                    Warning::GatewayIntoUngated { .. }
                ]
            ));
            assert_eq!(report.unreachable, ["x", "y"]);
            assert_eq!(report.unreachable, want.report.unreachable);
            assert_eq!(report.trace, want.report.trace);
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

            // The staged path, as a daemon loads: the same bytes,
            // warnings and unreachable hosts.
            let mut parsed = Parsed::new();
            for (file, text) in files {
                parsed.push_str(file, text);
            }
            let frozen = parsed.build(&options).unwrap().freeze();
            let printed = frozen.map(&options).unwrap().print(&options);
            assert_eq!(printed.rendered, want.rendered);
            assert_eq!(frozen.warnings(), report.warnings);
            assert_eq!(printed.unreachable, report.unreachable);

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
        let paper = [("m", PAPER_1981)];
        let err = driver(&options, &paper).write_routes(&mut sink);
        assert!(matches!(err, Err(Error::UnknownLocal(_))));
        assert!(sink.is_empty());
        let mut full: &mut [u8] = &mut [0; 8];
        let err = driver(&Options::default(), &paper).write_routes(&mut full);
        assert!(matches!(err, Err(Error::Io(_))));
    }

    #[test]
    fn timings_populated() {
        let mut pa = Pathalias::new();
        pa.parse_str("m", PAPER_1981).unwrap();
        pa.options_mut().local = Some("unc".into());
        let out = pa.run().unwrap();
        assert!(out.report.timings.build > Duration::ZERO);
        assert!(out.report.timings.freeze > Duration::ZERO);
        let mut sink = Vec::new();
        let report = driver(&Options::default(), &[("m", PAPER_1981)])
            .write_routes(&mut sink)
            .unwrap();
        assert!(report.timings.build > Duration::ZERO);
    }
}
