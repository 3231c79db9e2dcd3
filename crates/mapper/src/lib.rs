//! Shortest-path mapping: the second phase of pathalias.
//!
//! "We perform a modified breadth-first search of the graph, starting at
//! the source ... we use a priority queue and extract vertices in
//! increasing order of path cost." This crate implements:
//!
//! * [`map_frozen`] / [`map_frozen_readonly`] — the sparse-graph
//!   Dijkstra variant over the frozen CSR snapshot
//!   ([`pathalias_graph::FrozenGraph`]), running in O(e log v) with
//!   contiguous edge slices and dense visit arrays (the paper's
//!   decrease-key heap and the O(v²) scan it is compared against live
//!   in `pathalias_bench::{heap, study}`, for experiment E7);
//! * [`map`] / [`map_readonly`] — one-shot wrappers that freeze a
//!   built [`pathalias_graph::Graph`] and map it;
//! * [`CostModel`] — the routing heuristics layered on edge weights:
//!   the mixed-syntax penalty, gatewayed networks and domains, and the
//!   domain relay restriction — and, in [`cost_model`], the relaxation
//!   kernel (`step`, `settle`, `lower_bound`) that is the only place
//!   they are applied, for this crate's runs and for
//!   `pathalias-router`'s searches alike;
//! * back links: "we examine the connections out of each unreachable
//!   host, invent links from its neighbors back to the host, and
//!   continue" — realized as augmented frozen snapshots, so mapping
//!   never mutates the caller's graph;
//! * [`map_dual`] — the PROBLEMS-section experiment: "a modified
//!   algorithm that maintains the 'second-best' path when the shortest
//!   path to a host goes by way of a domain".
//!
//! # Examples
//!
//! ```
//! use pathalias_mapper::{map, MapOptions};
//!
//! let g = pathalias_parser::parse("a b(10)\nb c(20)\n").unwrap();
//! let a = g.try_node("a").unwrap();
//! let c = g.try_node("c").unwrap();
//! let tree = map(&g, a, &MapOptions::default()).unwrap();
//! assert_eq!(tree.cost(c), Some(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_model;
mod dijkstra;
mod dual;
mod tree;

pub use cost_model::CostModel;
pub use dijkstra::{
    map, map_frozen, map_frozen_readonly, map_frozen_readonly_packed, map_readonly, repair_frozen,
    MapError, MapOptions,
};
pub use dual::{map_dual, map_dual_frozen, DualTree};
pub use tree::{format_trace, Children, Label, MapStats, PackedTree, ShortestPathTree, TraceEvent};
