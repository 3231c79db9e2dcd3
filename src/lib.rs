//! # pathalias
//!
//! A Rust reproduction of **pathalias** — Peter Honeyman and Steven M.
//! Bellovin, *"PATHALIAS or The Care and Feeding of Relative
//! Addresses"*, USENIX 1986 — the tool that computed electronic-mail
//! routes for the UUCP/USENET world.
//!
//! > "Pathalias computes electronic mail routes in environments that mix
//! > explicit and implicit routing, as well as syntax styles. ...
//! > Pathalias is guided by a simple philosophy: get the mail through,
//! > reliably and efficiently."
//!
//! This crate is a facade over the component crates:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`pathalias_core`] (re-exported as [`core`]) | the parse → map → print pipeline, options, diagnostics |
//! | [`pathalias_mailer`] (re-exported as [`mailer`]) | route database, address parsing/rewriting, headers |
//! | [`pathalias_mapgen`] (re-exported as [`mapgen`]) | synthetic 1986-scale map generation |
//! | [`pathalias_server`] (re-exported as [`server`]) | the concurrent route-query daemon with hot reload |
//!
//! The most common entry points are also re-exported at the top level.
//! One worth knowing by name: [`Resolver`] is the single lookup API
//! every route backend implements — the in-memory [`RouteDb`], the
//! shared [`SharedRouteDb`] handle, the page-cache-backed
//! [`mailer::disk::MappedDb`] over a PADB1 file, and the server's
//! generation-stamped snapshot handle ([`server::index::Cached`],
//! which passes every lookup straight to its backend) all answer
//! `resolve(host, user)` identically.
//!
//! ```
//! use pathalias::{Resolver, RouteDb, SharedRouteDb};
//!
//! let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
//! // Any backend, same call, same answer:
//! let shared = SharedRouteDb::new(db.clone());
//! for backend in [&db as &dyn Resolver, &shared as &dyn Resolver] {
//!     let hit = backend.resolve("caip.rutgers.edu", "pleasant").unwrap();
//!     assert_eq!(hit.route, "seismo!caip.rutgers.edu!pleasant");
//! }
//! ```
//!
//! # Quick start
//!
//! ```
//! use pathalias::{Pathalias, RouteDb};
//!
//! // A fragment of the 1981 UUCP map, straight from the paper.
//! let map = "\
//! unc\tduke(HOURLY), phs(HOURLY*4)
//! duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
//! phs\tunc(HOURLY*4), duke(HOURLY)
//! research\tduke(DEMAND), ucbvax(DEMAND)
//! ucbvax\tresearch(DAILY)
//! ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
//! ";
//!
//! let mut pa = Pathalias::new();
//! pa.options_mut().local = Some("unc".into());
//! pa.parse_str("paper-map", map).unwrap();
//! let out = pa.run().unwrap();
//!
//! // The route database a mailer would load:
//! let db = RouteDb::from_output(&out.rendered).unwrap();
//! assert_eq!(
//!     db.route_to("mit-ai", "minsky").unwrap(),
//!     "duke!research!ucbvax!minsky@mit-ai"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pathalias_core as core;
pub use pathalias_mailer as mailer;
pub use pathalias_mapgen as mapgen;
pub use pathalias_server as server;

pub use pathalias_core::{
    parse, parse_files, symbol_cost, symbol_table, CostModel, Error, Graph, MapOptions, Options,
    Output, Pathalias, Route, RouteTable, ShortestPathTree, Sort, DEFAULT_COST, INF,
};
pub use pathalias_mailer::{
    Address, BoxedResolver, HeaderRewriter, Message, Policy, Resolution, ResolveError, ResolvedVia,
    Resolver, RewriteError, Rewriter, RouteDb, SharedRouteDb, SyntaxStyle,
};
pub use pathalias_mapgen::{generate, GeneratedMap, MapSpec};
pub use pathalias_server::{Client, ClientError, MapSource, Server, ServerConfig};
