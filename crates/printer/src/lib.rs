//! Route printing: the third phase of pathalias.
//!
//! "With the shortest path tree identified ... the goal is to print each
//! host name followed by the route to that host. Routes are presented as
//! printf format strings, e.g., ulysses!decvax!%s."
//!
//! The traversal rules implemented here, straight from the paper:
//!
//! * routes are built in a preorder traversal, splicing each visible hop
//!   into the parent's route with the link's routing operator;
//! * the route to a network is identical to the route to its parent,
//!   and (except for domains) a network never appears in the output;
//! * when traversing a network-to-member edge, the routing character and
//!   direction are the ones encountered when *entering* the network;
//! * upon encountering a domain, the domain's name is appended to the
//!   name of its successor (`caip` + `.rutgers` + `.edu` =
//!   `caip.rutgers.edu`);
//! * a top-level domain (one whose tree parent is not a domain) is shown
//!   in the output with its parent's route; subdomains are not printed;
//! * private hosts are labelled but not printed, though they may appear
//!   inside other hosts' routes;
//! * alias edges splice nothing: the alias inherits its partner's route
//!   unchanged, so "the name used in a path is the one understood to a
//!   host's predecessor".
//!
//! The traversal works entirely off the [`ShortestPathTree`] — names,
//! flags and edge operators come from the frozen snapshot the tree
//! carries, so printing needs no access to the mutable build-time
//! graph.
//!
//! # Examples
//!
//! ```
//! use pathalias_mapper::{map, MapOptions};
//! use pathalias_printer::{compute_routes, render, PrintOptions};
//!
//! let g = pathalias_parser::parse("unc duke(500)\nduke phs(300)\n").unwrap();
//! let unc = g.try_node("unc").unwrap();
//! let tree = map(&g, unc, &MapOptions::default()).unwrap();
//! let table = compute_routes(&tree);
//! let text = render(&table, &PrintOptions::default());
//! assert!(text.contains("phs\tduke!phs!%s"));
//! ```
//!
//! [`ShortestPathTree`]: pathalias_mapper::ShortestPathTree

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod output;
mod route;
mod traverse;

pub use output::{render, render_tree, write_tree, PrintOptions, Sort};
pub use route::{Route, RouteKind, RouteRef, RouteTable};
pub use traverse::{
    compute_routes, for_each_route, route_kind, route_name, update_routes, RouteWalk,
};
