//! The pathalias route-query daemon.
//!
//! The paper stops at a file: "output from pathalias is a simple
//! linear file ... a separate program may be used to convert this file
//! into a format appropriate for rapid database retrieval." This crate
//! is the step after that program — a long-lived process that *serves*
//! those lookups to many concurrent clients, with the table hot-swapped
//! in place when the map changes:
//!
//! * [`protocol`] — the line-oriented wire format, v1 (`QUERY`,
//!   `STATS`, `RELOAD`, `HEALTH`, `QUIT`) and the negotiated v2
//!   (`PROTO 2`, batched `MQUERY`, point-to-point `PATH`, `SHUTDOWN`,
//!   `MAPS` and per-request `@name` map qualifiers); a v1 session is
//!   byte-for-byte what the PR-1 daemon spoke;
//! * [`index`] — immutable per-generation snapshots behind an atomic
//!   swap cell, wrapped by [`Cached`]: a generation-stamped cache
//!   generic over any [`Resolver`](pathalias_mailer::Resolver)
//!   backend — in-memory tables and page-cache-backed PADB1 files
//!   serve through the same decorator;
//! * [`cache`] — a sharded, bounded, generation-stamped LRU with
//!   per-shard hit/miss/eviction counters;
//! * [`reload`] — the table sources (PADB1 in-memory or in-place,
//!   linear route file, PAGF1 snapshot, full map pipeline), the
//!   incremental reload that repairs a map in place, and the one
//!   refusal of a rebuilt map: it has no live host;
//! * [`daemon`] — TCP, Unix-socket, and UDP endpoints served by a
//!   fixed pool of epoll/kqueue event-loop workers (`SO_REUSEPORT`
//!   shards the accept load; other platforms have no daemon and
//!   [`Server::start`] says so), graceful
//!   [`drain`](ServerHandle::drain), and
//!   **sharded multi-map serving**: one daemon holds N named maps
//!   (`--map-set`), each with its own snapshot, cache, counters, and
//!   independent hot reload — unqualified requests go to the default
//!   map, so a single-map daemon behaves exactly as before;
//! * [`client`] — the synchronous client: one-shot queries, batched
//!   [`query_batch`](Client::query_batch) (one round trip for N
//!   queries), point-to-point [`path`](Client::path) /
//!   [`via`](Client::via), and a send/recv split for pipelining;
//! * [`metrics`] — relaxed atomic counters rendered by `STATS`;
//! * [`telemetry`] — per-map latency histograms, the worst-N
//!   slow-query log, and reload phase timings, exposed over the
//!   protocol-v2 `METRICS` (Prometheus text) and `SLOWLOG` verbs.
//!
//! # Examples
//!
//! ```
//! use pathalias_server::{Client, MapSource, Server, ServerConfig};
//!
//! // A route file (pathalias output) to serve.
//! let path = std::env::temp_dir().join(format!("doc-ex-{}.routes", std::process::id()));
//! std::fs::write(&path, "seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
//!
//! let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(path.clone()))).unwrap();
//! let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
//! assert_eq!(
//!     client.query("caip.rutgers.edu", Some("pleasant")).unwrap().unwrap(),
//!     "seismo!caip.rutgers.edu!pleasant",
//! );
//! // Protocol v2: three answers in one round trip, order preserved.
//! let batch = client.query_batch(&[
//!     ("seismo", Some("rick")),
//!     ("no.such.host", None),
//!     ("x.mit.edu", Some("minsky")),
//! ]).unwrap();
//! assert_eq!(batch[0].as_deref(), Some("seismo!rick"));
//! assert!(batch[1].is_none());
//! assert_eq!(batch[2].as_deref(), Some("seismo!x.mit.edu!minsky"));
//! client.quit().unwrap();
//! handle.shutdown();
//! std::fs::remove_file(path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
#[cfg(unix)]
mod event;
pub mod index;
pub mod metrics;
pub mod protocol;
pub mod reload;
pub mod telemetry;

pub use cache::{CachedHit, ShardStats, ShardedCache};
pub use client::{Client, ClientError, MapsInfo, PathInfo, QueryResult, UdpClient};
pub use daemon::{
    valid_map_name, Server, ServerConfig, ServerHandle, StartError, DEFAULT_MAP_NAME,
};
pub use index::{Cached, RouteIndex, SwapCell};
pub use metrics::{Metrics, ServerMetrics};
pub use protocol::{parse_request, ProtoVersion, Request, Response, MAX_LINE};
pub use reload::{LoadError, MapSource, StageCache};
pub use telemetry::{MapTelemetry, SLOWLOG_CAPACITY};
// Re-exported so callers can build a [`ServerConfig`] (whose `logger`
// field is a telemetry type) without naming the telemetry crate.
pub use pathalias_telemetry::{Level, Logger};
