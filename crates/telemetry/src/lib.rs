//! Dependency-free telemetry primitives for the pathalias daemon.
//!
//! The serving stack needs latency distributions, structured logs, and
//! machine-scrapeable exposition, but the build environment is offline:
//! no `tracing`, no `prometheus`, no `hdrhistogram`. This crate
//! implements the minimal, boring versions of each — small enough to
//! audit, fast enough to sit on the resolve hot path:
//!
//! * [`Histogram`] — a lock-free log2-bucketed latency histogram built
//!   from a fixed array of relaxed [`AtomicU64`](core::sync::atomic::AtomicU64)
//!   buckets plus count/sum/max. Recording is a handful of relaxed
//!   atomic adds; p50/p90/p99 are derived from the bucket bounds at
//!   read time.
//! * [`Logger`] — a leveled `key=value` line logger configured by
//!   `PATHALIAS_LOG=error|warn|info|debug|off`, replacing the daemon's
//!   scattered `eprintln!`s. Writes are best-effort (errors ignored) so
//!   a closed stderr never kills the daemon.
//! * [`SlowLog`] — a bounded, lock-guarded worst-N record of the
//!   slowest requests (timestamp, map, verb, host, latency, outcome).
//! * [`PromText`] — a Prometheus text-exposition renderer (`# HELP` /
//!   `# TYPE`, counters, gauges, and cumulative `_bucket`/`_sum`/
//!   `_count` histogram series ending in `+Inf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod log;
mod prom;
mod slowlog;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use log::{Event, Level, Logger};
pub use prom::PromText;
pub use slowlog::{SlowEntry, SlowLog};

/// Milliseconds since the Unix epoch, or 0 if the clock is before it.
///
/// Used to timestamp log lines and slow-query entries; a saturating
/// fallback keeps a badly-set clock from panicking the daemon.
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
