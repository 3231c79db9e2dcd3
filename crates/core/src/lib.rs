//! The pathalias pipeline: parse → build → freeze → map → print.
//!
//! "Pathalias runs in three phases: parse the input, build a shortest
//! path tree, and print the routes." This reproduction splits the run
//! into explicit [stages] — `Parsed → Built → Frozen → Mapped →
//! Printed` — each a value you can keep, re-enter, and time; the
//! freeze step snapshots the built graph into the immutable CSR form
//! the mapper traverses. [`Pathalias`] wires the stages behind one
//! builder-style API, with the original tool's options (`-l` local
//! host, `-i` ignore case, `-c` print costs, `-t` trace) plus the
//! reproduction's extras (heuristic configuration, second-best
//! mapping, phase timings).
//!
//! # Examples
//!
//! ```
//! use pathalias_core::Pathalias;
//!
//! let mut pa = Pathalias::new();
//! pa.options_mut().local = Some("unc".to_string());
//! pa.options_mut().with_costs = true;
//! pa.parse_str("map", "unc duke(500)\nduke phs(300)\n").unwrap();
//! let out = pa.run().unwrap();
//! assert!(out.rendered.contains("800\tphs\tduke!phs!%s"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
mod options;
mod pipeline;
pub mod stages;

pub use delta::{plan_delta, DeltaPlan};
pub use options::Options;
pub use pipeline::{Error, Output, Pathalias, PhaseTimings};
pub use stages::{Built, Frozen, Mapped, Parsed, Printed};

// Re-export the component crates' vocabulary so downstream users need
// only this crate.
pub use pathalias_graph::{
    snapshot, symbol_cost, symbol_table, ChIndex, Cost, Dir, EdgeId, EdgeShift, FrozenGraph, Graph,
    LinkFlags, NodeFlags, NodeId, ReverseGraph, RouteOp, RowPatch, SnapshotError, Warning,
    DEFAULT_COST, INF,
};
pub use pathalias_mapper::{
    format_trace, map, map_dual, map_dual_frozen, map_frozen, map_frozen_readonly, map_readonly,
    repair_frozen, CostModel, DualTree, Label, MapError, MapOptions, MapStats, ShortestPathTree,
};
pub use pathalias_parser::{parse, parse_files, parse_into, ParseError};
pub use pathalias_printer::{
    compute_routes, render, update_routes, write_routes, PrintOptions, Route, RouteKind,
    RouteTable, Sort,
};
