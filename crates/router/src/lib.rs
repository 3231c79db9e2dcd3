//! Point-to-point route engine: bidirectional Dijkstra over the
//! frozen CSR.
//!
//! The mapper (`pathalias-mapper`) answers "routes from here to
//! everywhere" by building a whole shortest-path tree. This crate
//! answers the other question — "the route from *src* to *dst*" —
//! without materializing a tree (unless the source keeps asking: see
//! "The source-tree cache" below): a forward Dijkstra from `src` runs
//! until it settles `dst`, and a backward lower-bound Dijkstra from
//! `dst` over the reverse CSR ([`pathalias_graph::ReverseGraph`])
//! prunes the forward frontier so most of the graph is never touched.
//!
//! The contract is **byte-for-byte parity** with the mapper: the cost,
//! visible-hop count, predecessor chain, and printed route of a
//! `PATH src dst` answer are identical to what the daemon would serve
//! from the shortest-path tree rooted at `src`. That makes the engine
//! safe to serve next to tree-backed resolvers — two code paths, one
//! answer. The parity is enforced three ways: the forward side has no
//! relaxation arithmetic or tie-breaking of its own — it calls the
//! mapper's (`pathalias_mapper::cost_model`: `step`, `settle`, and
//! `lower_bound` for everything the pruners assume); each
//! pruned run *certifies* that no dropped candidate could have touched
//! the answer's chain, falling back to the plain forward oracle on the
//! rare queries where it cannot (the mapper's state-dependent
//! penalties make it non-optimal, so a cheaper real path is not always
//! proof of safety — see the search module docs); and property tests
//! compare whole answer sets against `map_frozen` trees.
//!
//! ```
//! use pathalias_mapper::CostModel;
//! use pathalias_parser::parse;
//! use pathalias_router::PointToPoint;
//! use std::sync::Arc;
//!
//! let g = parse("a b(10)\nb c(20)\n").unwrap();
//! let f = Arc::new(g.freeze());
//! let engine = PointToPoint::new(f, CostModel::default());
//! let answer = engine.route("a", "c").unwrap();
//! assert_eq!(answer.cost, 30);
//! assert_eq!(answer.route, "b!c!%s");
//! ```
//!
//! For serving, build the engine over the *augmented* graph of a
//! mapped tree (`tree.frozen()`), which includes the invented
//! back links — then `PATH home X` agrees with the printed map
//! exactly, and any other source on the same topology is equally
//! well-defined.
//!
//! # The contraction-hierarchy tier
//!
//! On top of the bidirectional search sits an optional fast tier: a
//! [`pathalias_graph::ChIndex`] built (at freeze time, or by
//! [`PointToPoint::with_fresh_hierarchy`]) over [`ch_weights`] — a
//! *source-independent lower bound* on the mapper's per-edge charge.
//! A query first meets in the middle over the hierarchy's shortcut
//! halves; the meeting path is unpacked to concrete edges and
//! re-costed under full forward semantics, and the exact forward
//! search then runs pruned by per-node hierarchy distances. The
//! certification rule is unchanged, so a certified CH answer is
//! byte-identical to the oracle's; uncertified runs (including any
//! query the hierarchy cannot meet on) drop to the bidirectional
//! tier, then to the oracle. The hierarchy never *answers* — it only
//! decides what the exact search may skip — so `PATH` parity survives
//! even a hierarchy missing shortcuts; see `pathalias_graph::ch` for
//! the trust model.
//!
//! # The source-tree cache
//!
//! In front of the tiers sits the paper's own trick, "map once, then
//! every route is a table read", applied per source: a source's first
//! request is searched; a second one soon after has the mapper build
//! that source's whole tree (`map_frozen_readonly` — the run the
//! parity tests compare every search against, on the kernel the
//! searches call, so a cached answer is the oracle's by construction;
//! a tree keeps the run's packed arrays, 25 bytes a node); every later
//! request is the destination's label, unpacked on read, plus a
//! predecessor walk. An engine keeps at most four trees,
//! least recently used out first, and remembers the last eight
//! sources that asked once. There is nothing to configure and nothing
//! to invalidate — a changed world is a new engine.
//! [`PointToPoint::route_ids_unidirectional`] and
//! [`PointToPoint::route_ids_uncached`] bypass the cache.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod route;
mod search;

pub use engine::{PointToPoint, RouteError, ViaEntry};
pub use pathalias_mapper::cost_model::ch_weights;
pub use route::PathAnswer;
pub use search::SearchStats;
