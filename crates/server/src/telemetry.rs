//! Per-map latency telemetry: histograms, the slow-query log, and
//! reload phase timings.
//!
//! [`MapTelemetry`] is the per-namespace bundle the daemon threads
//! through request dispatch: one log2 histogram per verb shape
//! (`QUERY`, `MQUERY` per batch and per item, `PATH`, `RELOAD`), a
//! worst-N
//! slow-query log, the latest reload's [`LoadReport`] (phase timings)
//! and per-path reload counters. Everything here is exposed over the protocol-v2
//! `METRICS` (Prometheus text exposition) and `SLOWLOG` verbs —
//! `STATS` keeps its PR-1 byte format and knows nothing of this
//! module.

use crate::reload::{HierarchyOutcome, LoadPath, LoadReport};
use pathalias_telemetry::{unix_ms, Histogram, SlowEntry, SlowLog};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many slow requests each map retains (worst-N by latency).
pub const SLOWLOG_CAPACITY: usize = 32;

/// A [`Duration`] as saturating nanoseconds — the unit histograms and
/// the slow log record in.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One namespace's latency telemetry, shared by every connection
/// thread serving that map (all recording is lock-free except slow
/// enough requests entering the slow log).
#[derive(Debug)]
pub struct MapTelemetry {
    /// `QUERY` latency, per request.
    pub query: Histogram,
    /// `MQUERY` latency, per batch (whole request line).
    pub mquery_batch: Histogram,
    /// `MQUERY` latency, per item within a batch.
    pub mquery_item: Histogram,
    /// `PATH` latency, per request (point-to-point and `PATH *`).
    pub path: Histogram,
    /// `RELOAD` duration (wire-triggered and `--watch`-triggered).
    pub reload: Histogram,
    /// The worst-[`SLOWLOG_CAPACITY`] requests against this map.
    pub slowlog: SlowLog,
    /// Per delta reload: the labels its repair moved.
    pub relabelled: Histogram,
    /// Per delta reload: the routes it recomputed.
    pub routes_moved: Histogram,
    /// Per delta reload: the database shards it rewrote.
    pub shards_rewritten: Histogram,
    /// The latest successful reload's report (`None` until the first
    /// one). Stages skipped by the stage cache report zero.
    last_reload: Mutex<Option<LoadReport>>,
    /// Successful reloads per [`LoadPath`], in [`LoadPath::ALL`] order.
    reload_paths: [AtomicU64; 3],
    /// Full-path reloads of a map-file source per delta-path gate that
    /// refused them, in first-seen order (a handful of fixed labels).
    bailouts: Mutex<Vec<(&'static str, u64)>>,
    /// File texts the delta planner scanned, over every reload.
    files_scanned: AtomicU64,
    /// Loads (start-up included) per [`HierarchyOutcome`], in
    /// [`HierarchyOutcome::ALL`] order.
    hierarchy_loads: [AtomicU64; 5],
    /// Heap bytes of the database now serving ([`LoadReport::db_bytes`]).
    table_bytes: AtomicU64,
    /// Heap bytes of the tree kept beside it ([`LoadReport::tree_bytes`]).
    tree_bytes: AtomicU64,
}

impl Default for MapTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl MapTelemetry {
    /// Fresh, empty telemetry for one map.
    pub fn new() -> MapTelemetry {
        MapTelemetry {
            query: Histogram::new(),
            mquery_batch: Histogram::new(),
            mquery_item: Histogram::new(),
            path: Histogram::new(),
            reload: Histogram::new(),
            relabelled: Histogram::new(),
            routes_moved: Histogram::new(),
            shards_rewritten: Histogram::new(),
            slowlog: SlowLog::new(SLOWLOG_CAPACITY),
            last_reload: Mutex::new(None),
            reload_paths: Default::default(),
            bailouts: Mutex::new(Vec::new()),
            files_scanned: AtomicU64::new(0),
            hierarchy_loads: Default::default(),
            table_bytes: AtomicU64::new(0),
            tree_bytes: AtomicU64::new(0),
        }
    }

    /// Records what any load, start-up included, leaves serving: what
    /// it did with the hierarchy and how many bytes its database and
    /// its kept tree hold.
    /// [`MapTelemetry::record_reload`] calls it too.
    pub fn record_load(&self, report: &LoadReport) {
        self.hierarchy_loads[report.hierarchy as usize].fetch_add(1, Ordering::Relaxed);
        self.table_bytes
            .store(report.db_bytes as u64, Ordering::Relaxed);
        self.tree_bytes
            .store(report.tree_bytes as u64, Ordering::Relaxed);
    }

    /// Loads per hierarchy outcome, in [`HierarchyOutcome::ALL`] order.
    pub fn hierarchy_loads(&self) -> [(HierarchyOutcome, u64); 5] {
        HierarchyOutcome::ALL.map(|o| (o, self.hierarchy_loads[o as usize].load(Ordering::Relaxed)))
    }

    /// Records a successful reload: its report, its path, the gate
    /// that sent it down the full path, if one did, the texts its plan
    /// scanned, what it left serving, and, for a delta reload, the size
    /// of its cone.
    pub fn record_reload(&self, report: &LoadReport) {
        if let Ok(mut slot) = self.last_reload.lock() {
            *slot = Some(*report);
        }
        self.record_load(report);
        self.reload_paths[report.path as usize].fetch_add(1, Ordering::Relaxed);
        if report.path == LoadPath::Delta {
            self.relabelled.record(report.relabelled as u64);
            self.routes_moved.record(report.routes_moved as u64);
            self.shards_rewritten.record(report.shards_rewritten as u64);
        }
        self.files_scanned
            .fetch_add(report.files_scanned as u64, Ordering::Relaxed);
        if let (Some(reason), Ok(mut bailouts)) = (report.bailout, self.bailouts.lock()) {
            match bailouts.iter_mut().find(|(r, _)| *r == reason) {
                Some((_, n)) => *n += 1,
                None => bailouts.push((reason, 1)),
            }
        }
    }

    /// The latest successful reload's report, if any reload ran.
    pub fn last_reload(&self) -> Option<LoadReport> {
        self.last_reload.lock().ok().and_then(|slot| *slot)
    }

    /// Successful reloads per path, in [`LoadPath::ALL`] order.
    pub fn reload_paths(&self) -> [(LoadPath, u64); 3] {
        LoadPath::ALL.map(|p| (p, self.reload_paths[p as usize].load(Ordering::Relaxed)))
    }

    /// Heap bytes of the database now serving.
    pub fn table_bytes(&self) -> u64 {
        self.table_bytes.load(Ordering::Relaxed)
    }

    /// Heap bytes of the tree kept beside the database.
    pub fn tree_bytes(&self) -> u64 {
        self.tree_bytes.load(Ordering::Relaxed)
    }

    /// File texts the delta planner scanned, over every reload.
    pub fn files_scanned(&self) -> u64 {
        self.files_scanned.load(Ordering::Relaxed)
    }

    /// Full-path reloads per refusing delta-path gate.
    pub fn bailouts(&self) -> Vec<(&'static str, u64)> {
        self.bailouts.lock().map(|b| b.clone()).unwrap_or_default()
    }

    /// Offers a finished request to the slow log. The lock-free floor
    /// check runs first, so steady-state traffic pays one atomic load
    /// and no allocation.
    pub fn observe_slow(
        &self,
        verb: &'static str,
        map: &str,
        host: &str,
        latency_ns: u64,
        outcome: &'static str,
    ) {
        if !self.slowlog.would_admit(latency_ns) {
            return;
        }
        self.slowlog.record(SlowEntry {
            unix_ms: unix_ms(),
            map: map.to_string(),
            verb,
            host: host.to_string(),
            latency_ns,
            outcome,
        });
    }
}

/// Renders one slow-log entry as the `SLOWLOG` payload line:
/// whitespace-splittable `key=value` pairs, host `-` when the verb has
/// none.
pub fn render_slow_entry(entry: &SlowEntry) -> String {
    let mut line = String::with_capacity(80);
    let host: &str = if entry.host.is_empty() {
        "-"
    } else {
        &entry.host
    };
    let _ = write!(
        line,
        "ts={} map={} verb={} host={} latency_ns={} outcome={}",
        entry.unix_ms, entry.map, entry.verb, host, entry.latency_ns, entry.outcome
    );
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_slow_keeps_the_worst_requests() {
        let t = MapTelemetry::new();
        for i in 0..(SLOWLOG_CAPACITY as u64 + 10) {
            t.observe_slow("QUERY", "default", "host", 1_000 + i, "ok");
        }
        let snap = t.slowlog.snapshot();
        assert_eq!(snap.len(), SLOWLOG_CAPACITY);
        assert_eq!(snap[0].latency_ns, 1_000 + SLOWLOG_CAPACITY as u64 + 9);
    }

    #[test]
    fn slow_entry_renders_one_splittable_line() {
        let entry = SlowEntry {
            unix_ms: 1_700_000_000_000,
            map: "east".into(),
            verb: "RELOAD",
            host: String::new(),
            latency_ns: 5_000_000,
            outcome: "ok",
        };
        let line = render_slow_entry(&entry);
        assert_eq!(
            line,
            "ts=1700000000000 map=east verb=RELOAD host=- latency_ns=5000000 outcome=ok"
        );
        assert_eq!(line.split_whitespace().count(), 6);
    }

    #[test]
    fn reload_phases_round_trip() {
        let t = MapTelemetry::new();
        assert!(t.last_reload().is_none());
        let mut report = LoadReport {
            bailout: Some("options changed"),
            files_scanned: 2,
            db_bytes: 4096,
            tree_bytes: 2048,
            ..LoadReport::default()
        };
        report.phases.parse = Duration::from_millis(3);
        t.record_reload(&report);
        t.record_reload(&report);
        assert_eq!(
            t.last_reload().unwrap().phases.parse,
            Duration::from_millis(3)
        );
        assert_eq!(t.reload_paths()[2], (LoadPath::Full, 2));
        assert_eq!(t.bailouts(), vec![("options changed", 2)]);
        assert_eq!(t.files_scanned(), 4);
        assert_eq!(t.table_bytes(), 4096);
        assert_eq!(t.tree_bytes(), 2048);
        t.record_load(&LoadReport {
            hierarchy: HierarchyOutcome::Rebuilt,
            ..LoadReport::default()
        });
        assert_eq!((t.table_bytes(), t.tree_bytes()), (0, 0));
        let loads = t.hierarchy_loads();
        assert_eq!(loads[1], (HierarchyOutcome::Rebuilt, 1));
        assert_eq!(loads[4], (HierarchyOutcome::None, 2));
        assert_eq!(t.relabelled.count(), 0, "only delta reloads have a cone");
        t.record_reload(&LoadReport {
            path: LoadPath::Delta,
            relabelled: 3,
            routes_moved: 5,
            shards_rewritten: 1,
            ..LoadReport::default()
        });
        let cone = [&t.relabelled, &t.routes_moved, &t.shards_rewritten];
        assert_eq!(cone.map(|h| (h.count(), h.sum())), [(1, 3), (1, 5), (1, 1)]);
    }
}
