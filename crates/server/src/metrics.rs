//! Lock-free serving counters.
//!
//! Every counter is a relaxed [`AtomicU64`]: the numbers feed `STATS`
//! output and capacity planning, where cross-counter consistency does
//! not matter but query-path overhead does.
//!
//! Counters come in two scopes. [`Metrics`] is **per map**: a daemon
//! serving several namespaces (`--map-set`) keeps one instance per
//! map, so `STATS @name` reports that map's traffic alone.
//! [`ServerMetrics`] is **per daemon**: connections belong to the
//! process, not to any one map (a single connection may query every
//! namespace). `STATS` renders one map's counters and the daemon's
//! connection counters on one line, in the exact field order the PR-1
//! daemon used — a single-map daemon's `STATS` output is byte-identical
//! to what it always was.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-map counters: one instance per served namespace, shared by
/// every event-loop worker answering queries on that map.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `QUERY` requests served against this map.
    pub queries: AtomicU64,
    /// Queries that found a route (exact or suffix).
    pub hits: AtomicU64,
    /// Queries with no route.
    pub misses: AtomicU64,
    /// Queries that failed with a backend error (disk I/O, corrupt
    /// table) rather than a clean hit or miss.
    pub resolve_errors: AtomicU64,
    /// Successful `RELOAD`s of this map.
    pub reloads: AtomicU64,
    /// Failed `RELOAD`s (old table kept serving).
    pub reload_failures: AtomicU64,
    /// `PATH` answers certified by the contraction-hierarchy tier (the
    /// fast path won). Prometheus-only: `STATS` wire output is pinned
    /// to its PR-1 field set, so hierarchy counters show up in
    /// `METRICS` instead.
    pub path_ch_certified: AtomicU64,
    /// `PATH` queries that tried the hierarchy tier but fell back to
    /// the bidirectional (or oracle) search.
    pub path_ch_fallbacks: AtomicU64,
    /// `PATH` answers read from a source tree the engine had kept — no
    /// search ran. A lifetime count, Prometheus-only like the
    /// hierarchy counters: a reload's new engine starts with no trees
    /// but does not reset it.
    pub path_tree_hits: AtomicU64,
    /// `PATH` queries whose source asked twice and had its whole tree
    /// built and kept (the query itself is answered from that tree).
    pub path_tree_builds: AtomicU64,
}

/// Daemon-wide counters: connection accounting and request hygiene,
/// shared by every connection regardless of which maps it queries.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Lines that did not parse as a request.
    pub bad_requests: AtomicU64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub active_connections: AtomicU64,
    started: Instant,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            bad_requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

/// `metrics.bump(&metrics.queries)` reads poorly; free functions keep
/// call sites short.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Decrements `counter` (used for the active-connection gauge).
pub fn drop_one(counter: &AtomicU64) {
    counter.fetch_sub(1, Ordering::Relaxed);
}

impl ServerMetrics {
    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

impl Metrics {
    /// One consistent-enough reading of every counter, rendered as the
    /// `STATS` payload: `key=value` pairs in the wire order clients
    /// have parsed since PR 1 (the connection-scoped fields come from
    /// `server`, everything else from this map).
    ///
    /// `cache_hits` and `cache_misses` always read 0: lookups go
    /// straight to the table, and the keys stay so that clients parsing
    /// the first daemon's line keep finding every field where it was.
    pub fn render(&self, server: &ServerMetrics, generation: u64, entries: usize) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "queries={} hits={} misses={} cache_hits=0 cache_misses=0 resolve_errors={} \
             reloads={} reload_failures={} bad_requests={} connections={} \
             active_connections={} generation={generation} entries={entries} uptime_ms={}",
            g(&self.queries),
            g(&self.hits),
            g(&self.misses),
            g(&self.resolve_errors),
            g(&self.reloads),
            g(&self.reload_failures),
            g(&server.bad_requests),
            g(&server.connections),
            g(&server.active_connections),
            server.uptime_ms(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_counter() {
        let m = Metrics::default();
        let s = ServerMetrics::default();
        bump(&m.queries);
        bump(&m.queries);
        bump(&m.hits);
        bump(&s.connections);
        let line = m.render(&s, 7, 42);
        assert!(line.contains("queries=2"), "{line}");
        assert!(line.contains("hits=1"), "{line}");
        assert!(line.contains("connections=1"), "{line}");
        assert!(line.contains("generation=7"), "{line}");
        assert!(line.contains("entries=42"), "{line}");
        assert!(line.contains("uptime_ms="), "{line}");
    }

    #[test]
    fn stats_keys_keep_their_wire_order() {
        let line = Metrics::default().render(&ServerMetrics::default(), 3, 9);
        let keys: Vec<&str> = line
            .split(' ')
            .map(|pair| pair.split_once('=').expect("key=value").0)
            .collect();
        assert_eq!(
            keys,
            [
                "queries",
                "hits",
                "misses",
                "cache_hits",
                "cache_misses",
                "resolve_errors",
                "reloads",
                "reload_failures",
                "bad_requests",
                "connections",
                "active_connections",
                "generation",
                "entries",
                "uptime_ms",
            ],
            "{line}"
        );
        assert!(line.contains(" cache_hits=0 cache_misses=0 "), "{line}");
    }

    #[test]
    fn gauge_up_and_down() {
        let m = Metrics::default();
        let s = ServerMetrics::default();
        bump(&s.active_connections);
        bump(&s.active_connections);
        drop_one(&s.active_connections);
        assert!(m.render(&s, 0, 0).contains("active_connections=1"));
    }

    #[test]
    fn per_map_scopes_are_independent() {
        // Two maps share the daemon's connection counters but keep
        // their own query counters — the multi-map STATS contract.
        let a = Metrics::default();
        let b = Metrics::default();
        let s = ServerMetrics::default();
        bump(&a.queries);
        bump(&s.connections);
        assert!(a.render(&s, 0, 0).contains("queries=1"));
        assert!(b.render(&s, 0, 0).contains("queries=0"));
        assert!(b.render(&s, 0, 0).contains("connections=1"));
    }
}
