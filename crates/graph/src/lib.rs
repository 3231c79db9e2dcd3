//! Connectivity-graph representation for the pathalias reproduction.
//!
//! The paper models "a set of hosts and networks, called *nodes*, with
//! communication links among them" as a directed graph held in an
//! adjacency-list representation: each node points at a singly-linked
//! list of *links*, and each link carries a destination, a non-negative
//! cost, a routing operator, and flags. This crate keeps those lists as
//! chains of indices through one link vector (the safe Rust idiom for
//! the original's pointer soup) plus everything the input semantics
//! need:
//!
//! * [`Graph`] — one name store with its index, node and link vectors,
//!   and file-scoped `private` name resolution;
//! * [`FrozenGraph`] — the immutable compressed-sparse-row snapshot
//!   ([`Graph::freeze`]) the mapping and printing phases traverse;
//! * [`snapshot`] — PAGF1, the versioned, checksummed on-disk form of
//!   a frozen graph, for instant daemon cold starts;
//! * [`reverse`] — the transpose CSR ([`FrozenGraph::reverse`])
//!   point-to-point search runs its backward side over, optionally
//!   persisted as a PAGF1 section;
//! * [`ch`] — the contraction hierarchy ([`ChIndex`]) built at freeze
//!   time over a lower-bound edge metric, the shortcut graph behind the
//!   fast `PATH` tier, also persisted as an optional PAGF1 section;
//! * [`Node`] / [`Link`] with [`NodeFlags`] / [`LinkFlags`];
//! * networks as single nodes with paired member edges (the "clique as
//!   star" representation that avoids the ARPANET's "millions of
//!   edges");
//! * aliases as paired zero-cost flagged edges ("aliases are a property
//!   of edges, not vertices");
//! * domains (names beginning with `.`), which are always gatewayed;
//! * [`Warning`] diagnostics for duplicate links, self links, collisions
//!   and the rest.
//!
//! # Examples
//!
//! ```
//! use pathalias_graph::{Graph, RouteOp};
//!
//! let mut g = Graph::new();
//! let unc = g.node("unc");
//! let duke = g.node("duke");
//! g.declare_link(unc, duke, 500, RouteOp::UUCP);
//! assert_eq!(g.name(unc), "unc");
//! assert_eq!(g.links_from(unc).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ch;
mod cost;
mod diag;
mod flags;
pub mod frozen;
#[allow(clippy::module_inception)]
mod graph;
mod link;
mod node;
pub mod reverse;
pub mod snapshot;

pub use ch::{ChEdge, ChIndex};
pub use cost::{symbol_cost, symbol_table, Cost, DEFAULT_COST, INF};
pub use diag::Warning;
pub use flags::{LinkFlags, NodeFlags};
pub use frozen::{EdgeId, EdgeShift, FrozenEdge, FrozenGraph, RowPatch};
pub use graph::{FileId, Graph, LinkId, NodeId};
pub use link::{Dir, Link, RouteOp};
pub use node::Node;
pub use reverse::ReverseGraph;
pub use snapshot::SnapshotError;
