//! The read-mostly serving index: an immutable snapshot per table
//! generation behind an atomic swap, plus the per-map query counters —
//! all generic over [`Resolver`], so the same handle serves an
//! in-memory [`SharedRouteDb`], a page-cache-backed
//! [`MappedDb`](pathalias_mailer::disk::MappedDb), or any future
//! backend. Every lookup goes straight to the snapshot's table: the
//! packed in-memory shards answer an exact name in one probe and a
//! suffix in a few, faster than any cache in front of them could.
//!
//! Queries clone an `Arc` out of a [`SwapCell`] (one brief read-lock,
//! no contention with other readers) and then run entirely against
//! that snapshot: a reload mid-query can never produce a response that
//! mixes the old and new tables. In-flight queries on the old
//! generation finish against the old `Arc`, which frees itself when the
//! last of them drops. A swap hands the displaced `Arc` back to the
//! reloader rather than dropping it under the write lock: freeing a
//! large table takes long enough that every reader would wait on it.

use crate::metrics::{bump, Metrics};
use pathalias_mailer::{Resolution, ResolveError, Resolver, RouteDb, SharedRouteDb};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// One immutable table generation over any [`Resolver`] backend.
#[derive(Debug, Clone)]
pub struct RouteIndex<R = SharedRouteDb> {
    resolver: R,
    generation: u64,
}

impl<R: Resolver> RouteIndex<R> {
    /// Freezes `resolver` as generation `generation`.
    pub fn with_resolver(resolver: R, generation: u64) -> RouteIndex<R> {
        RouteIndex {
            resolver,
            generation,
        }
    }

    /// The table generation (0 = the initial load).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Entries in the table.
    pub fn entries(&self) -> usize {
        self.resolver.entries()
    }

    /// The underlying backend.
    pub fn resolver(&self) -> &R {
        &self.resolver
    }
}

impl RouteIndex<SharedRouteDb> {
    /// Freezes an in-memory `db` as generation `generation`.
    pub fn new(db: RouteDb, generation: u64) -> RouteIndex<SharedRouteDb> {
        RouteIndex {
            resolver: SharedRouteDb::new(db),
            generation,
        }
    }

    /// The underlying shared database handle.
    pub fn db(&self) -> &SharedRouteDb {
        &self.resolver
    }
}

/// The swap point: readers clone the current `Arc`, a reload stores a
/// new one. This is the `arc-swap` idiom on std primitives — the write
/// lock is held only for the pointer store, so readers never block each
/// other and a reload never blocks an in-flight query.
#[derive(Debug)]
pub struct SwapCell<R = SharedRouteDb> {
    pub(crate) current: RwLock<Arc<RouteIndex<R>>>,
}

impl<R: Resolver> SwapCell<R> {
    /// A cell initially serving `index`.
    pub fn new(index: RouteIndex<R>) -> SwapCell<R> {
        SwapCell {
            current: RwLock::new(Arc::new(index)),
        }
    }

    /// The current snapshot. Cheap: a read-lock around one `Arc` clone.
    pub fn load(&self) -> Arc<RouteIndex<R>> {
        // A panic under the lock cannot tear the `Arc` it guards (a
        // store only swaps one in), so the poison is read past.
        let current = self.current.read();
        current.unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Atomically replaces the snapshot and returns the one it
    /// displaced; in-flight readers keep that alive until they finish.
    /// Nothing is freed under the lock.
    #[must_use = "dropping the displaced snapshot here may free a whole table"]
    pub fn store(&self, index: RouteIndex<R>) -> Arc<RouteIndex<R>> {
        let new = Arc::new(index);
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *current, new)
    }
}

/// The serving handle: a generation-stamped snapshot of any
/// [`Resolver`] plus the map's query counters — itself a `Resolver`,
/// so backends and their served form are interchangeable everywhere
/// the trait is accepted.
///
/// A [`replace`](Cached::replace) publishes the next generation; a
/// caller that pinned a [`snapshot`](Cached::snapshot) keeps answering
/// from its own table through [`resolve_at`](Cached::resolve_at).
///
/// # Examples
///
/// ```
/// use pathalias_mailer::{Resolver, RouteDb};
/// use pathalias_server::index::Cached;
/// use pathalias_server::Metrics;
/// use std::sync::Arc;
///
/// let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
/// let served = Cached::new(
///     pathalias_mailer::SharedRouteDb::new(db),
///     0, // ignored
///     0, // ignored
///     Arc::new(Metrics::default()),
/// );
/// assert_eq!(served.resolve("x.mit.edu", "u").unwrap().route, "seismo!x.mit.edu!u");
/// assert_eq!(served.metrics().hits.load(std::sync::atomic::Ordering::Relaxed), 1);
/// ```
pub struct Cached<R> {
    pub(crate) swap: SwapCell<R>,
    metrics: Arc<Metrics>,
    /// The generation the next successful [`Cached::replace`] will
    /// publish.
    next_generation: AtomicU64,
}

impl<R: Resolver> Cached<R> {
    /// Wraps `resolver` as generation 0, counting into `metrics`.
    ///
    /// The two sizes are ignored. They sized a lookup cache that no
    /// longer exists, and stay only so existing callers keep compiling.
    pub fn new(resolver: R, _: usize, _: usize, metrics: Arc<Metrics>) -> Cached<R> {
        Cached {
            swap: SwapCell::new(RouteIndex::with_resolver(resolver, 0)),
            metrics,
            next_generation: AtomicU64::new(1),
        }
    }

    /// The current snapshot, for callers that need to pin one across
    /// several operations (generation and entry counts for `HEALTH`,
    /// a batch that must answer from one table, ...).
    pub fn snapshot(&self) -> Arc<RouteIndex<R>> {
        self.swap.load()
    }

    /// Swaps in a freshly-loaded backend. Returns the generation now
    /// serving and the snapshot it displaced, for the caller to drop
    /// when convenient. In-flight queries pinned to the old snapshot
    /// finish against it.
    #[must_use = "dropping the displaced snapshot here may free a whole table"]
    pub fn replace(&self, resolver: R) -> (u64, Arc<RouteIndex<R>>) {
        let generation = self.next_generation.fetch_add(1, Ordering::SeqCst);
        let index = RouteIndex::with_resolver(resolver, generation);
        (generation, self.swap.store(index))
    }

    /// Resolves against a pinned snapshot and counts the outcome.
    pub fn resolve_at(
        &self,
        index: &RouteIndex<R>,
        host: &str,
        user: &str,
    ) -> Result<Resolution, ResolveError> {
        bump(&self.metrics.queries);
        let result = index.resolver().resolve(host, user);
        bump(match &result {
            Ok(_) => &self.metrics.hits,
            Err(ResolveError::NoRoute) => &self.metrics.misses,
            // Backend failures (disk I/O, corruption).
            Err(_) => &self.metrics.resolve_errors,
        });
        result
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl<R: Resolver> Resolver for Cached<R> {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        let snapshot = self.swap.load();
        self.resolve_at(&snapshot, host, user)
    }

    fn entries(&self) -> usize {
        self.swap.load().entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mailer::ResolvedVia;
    use std::sync::atomic::Ordering;

    fn index(text: &str, generation: u64) -> RouteIndex {
        RouteIndex::new(RouteDb::from_output(text).unwrap(), generation)
    }

    fn cached(text: &str) -> Cached<SharedRouteDb> {
        let db = RouteDb::from_output(text).unwrap();
        Cached::new(SharedRouteDb::new(db), 0, 0, Arc::new(Metrics::default()))
    }

    #[test]
    fn exact_and_suffix_and_miss() {
        let c = cached("seismo\tseismo!%s\n.edu\tseismo!%s\n");
        assert_eq!(c.resolve("seismo", "rick").unwrap().route, "seismo!rick");
        let suffix = c.resolve("caip.rutgers.edu", "pleasant").unwrap();
        assert_eq!(suffix.route, "seismo!caip.rutgers.edu!pleasant");
        assert_eq!(
            suffix.via,
            ResolvedVia::DomainSuffix {
                suffix: ".edu".into()
            }
        );
        assert!(matches!(
            c.resolve("nowhere", "u"),
            Err(ResolveError::NoRoute)
        ));
        let m = c.metrics();
        assert_eq!(m.queries.load(Ordering::Relaxed), 3);
        assert_eq!(m.hits.load(Ordering::Relaxed), 2);
        assert_eq!(m.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn swap_is_atomic_for_readers() {
        let cell = SwapCell::new(index("a\ta!%s\n", 0));
        let old = cell.load();
        let displaced = cell.store(index("a\tb!a!%s\n", 1));
        assert!(Arc::ptr_eq(&old, &displaced));
        // The old snapshot stays valid for readers that grabbed it.
        assert_eq!(old.generation(), 0);
        assert_eq!(old.db().route_to("a", "u").unwrap(), "a!u");
        assert_eq!(cell.load().generation(), 1);
        assert_eq!(cell.load().db().route_to("a", "u").unwrap(), "b!a!u");
    }

    #[test]
    fn replace_does_not_leak_cache_across_generations() {
        let c = cached(".edu\told-gw!%s\n");
        let old = c.snapshot();
        assert_eq!(c.resolve("h.edu", "u").unwrap().route, "old-gw!h.edu!u");

        let new_db = RouteDb::from_output(".edu\tnew-gw!%s\n").unwrap();
        let (generation, _) = c.replace(SharedRouteDb::new(new_db));
        assert_eq!(generation, 1);
        assert_eq!(
            c.resolve("h.edu", "u").unwrap().route,
            "new-gw!h.edu!u",
            "new snapshot must not answer from the old table"
        );
        // And a straggler still holding the old snapshot re-resolves
        // against its own table rather than seeing generation-1 data.
        assert_eq!(
            c.resolve_at(&old, "h.edu", "u").unwrap().route,
            "old-gw!h.edu!u"
        );
    }

    #[test]
    fn cached_over_mapped_db() {
        // The decorator is generic: here it serves a PADB1 file
        // through MappedDb with identical semantics.
        use pathalias_mailer::disk::{write_db, MappedDb};
        let path = std::env::temp_dir().join(format!(
            "pathalias-cached-mapped-{}.padb",
            std::process::id()
        ));
        let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
        write_db(&db, &path).unwrap();
        let c = Cached::new(
            MappedDb::open(&path).unwrap(),
            0,
            0,
            Arc::new(Metrics::default()),
        );
        assert_eq!(
            c.resolve("caip.rutgers.edu", "pleasant").unwrap().route,
            "seismo!caip.rutgers.edu!pleasant"
        );
        assert_eq!(
            c.resolve("caip.rutgers.edu", "honey").unwrap().route,
            "seismo!caip.rutgers.edu!honey"
        );
        assert_eq!(c.metrics().hits.load(Ordering::Relaxed), 2);
        assert_eq!(Resolver::entries(&c), 2);
        std::fs::remove_file(path).unwrap();
    }

    /// A table whose drop blocks until told to finish — a stand-in for
    /// a generation large enough that freeing it takes a while.
    struct SlowToFree(
        std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        std::sync::mpsc::Sender<()>,
    );

    impl Resolver for SlowToFree {
        fn resolve(&self, _: &str, _: &str) -> Result<Resolution, ResolveError> {
            Err(ResolveError::NoRoute)
        }
        fn entries(&self) -> usize {
            0
        }
    }

    impl Drop for SlowToFree {
        fn drop(&mut self) {
            let _ = self.1.send(());
            let _ = self.0.lock().unwrap().recv();
        }
    }

    #[test]
    fn freeing_the_old_generation_does_not_block_readers() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (release, wait) = channel();
        let (entered, dropping) = channel();
        let c = Arc::new(Cached::new(
            SlowToFree(wait.into(), entered),
            0,
            0,
            Arc::new(Metrics::default()),
        ));
        let (idle_release, idle_wait) = channel();
        let (idle_entered, _) = channel();
        let reloader = {
            let c = c.clone();
            std::thread::spawn(move || {
                let (_, old) = c.replace(SlowToFree(idle_wait.into(), idle_entered));
                drop(old);
            })
        };
        dropping
            .recv_timeout(Duration::from_secs(10))
            .expect("the old generation is being freed");
        // The reloader is stuck freeing generation 0; a reader must
        // still get the current snapshot.
        let (got, snapshot) = channel();
        let reader = c.clone();
        std::thread::spawn(move || {
            let _ = got.send(reader.snapshot().generation());
        });
        let seen = snapshot.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        reloader.join().unwrap();
        assert_eq!(seen, Ok(1), "a reader waited on the old table's drop");
        drop(idle_release);
    }
}
