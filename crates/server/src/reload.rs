//! Table sources and hot reload.
//!
//! The daemon can be pointed at any of the four shapes route data
//! takes in this project: a PADB1 disk database (loaded, or served in
//! place), a linear route file (pathalias output), a PAGF1
//! frozen-graph snapshot (`pathalias freeze` output, re-entering the
//! staged pipeline at the frozen stage), or raw map files that get run
//! through the staged parse → build → freeze → map → print pipeline.
//! There is one loader, [`MapSource::load_serving_timed`]: start-up,
//! `RELOAD` and `--watch` all call it, and it returns everything a map
//! serves — resolver, `PATH` engine, phase timings. `RELOAD` re-runs
//! it on the same source and swaps the result in atomically; while the
//! rebuild runs, every query keeps being served from the old snapshot,
//! and a failed rebuild leaves the old table serving untouched.
//!
//! Map-file sources go through the staged API and keep the expensive
//! stages cached: the parsed/built/frozen snapshot is fingerprinted
//! against the input files (path, mtime, size), so a `RELOAD` whose
//! map files have not changed — because only mapping options changed,
//! or because an operator hits reload twice — skips straight to the
//! map stage instead of re-parsing the world, and an edit that is
//! provably local repairs the cached artifacts instead of rebuilding
//! them.

use pathalias_core::{
    compute_routes, map_frozen_readonly, repair_frozen, update_routes, Children, DeltaPlan, EdgeId,
    EdgeShift, Frozen, FrozenGraph, Label, LinkFlags, MapOptions, Mapped, NodeId, Options, Parsed,
    PhaseTimings, ReverseGraph, RouteTable, RowPatch, SnapshotError,
};
use pathalias_mailer::{
    disk::DiskError, disk::MappedDb, BoxedResolver, DbError, RouteDb, SharedRouteDb,
};
use pathalias_router::PointToPoint;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

/// A loaded serving bundle: the resolver, the optional point-to-point
/// engine, and what the load did.
type ServingParts = (BoxedResolver, Option<Arc<PointToPoint>>, LoadReport);

/// How a load produced what it serves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LoadPath {
    /// Nothing the parser can see moved: the cached artifacts serve
    /// on.
    Unchanged,
    /// The delta path repaired the cached artifacts in place.
    Delta,
    /// The source was loaded (map files: the whole pipeline ran).
    #[default]
    Full,
}

impl LoadPath {
    /// Every path, in the order `METRICS` lists them (and of their
    /// discriminants).
    pub const ALL: [LoadPath; 3] = [LoadPath::Unchanged, LoadPath::Delta, LoadPath::Full];

    /// The `path` label value.
    pub fn label(self) -> &'static str {
        match self {
            LoadPath::Unchanged => "unchanged",
            LoadPath::Delta => "delta",
            LoadPath::Full => "full",
        }
    }
}

/// What a load did with the contraction hierarchy the `PATH` fast tier
/// prunes with. Without one, `PATH` runs the bidirectional search:
/// the same answers, more work per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// The snapshot's stored hierarchy passed validation and serves.
    Stored,
    /// The snapshot carried one over another graph than this load's
    /// mapping serves (its back links differ), so it was rebuilt over
    /// the graph served.
    Rebuilt,
    /// The snapshot carried one that does not fit the graph or the
    /// cost model; none serves.
    Rejected,
    /// The engine this load replaced carried one and the new engine
    /// has none: the delta path never keeps a hierarchy across an
    /// edit, since its weights are the edited costs.
    Dropped,
    /// No hierarchy was involved.
    #[default]
    None,
}

impl HierarchyOutcome {
    /// Every outcome, in the order `METRICS` lists them (and of their
    /// discriminants).
    pub const ALL: [HierarchyOutcome; 5] = [
        HierarchyOutcome::Stored,
        HierarchyOutcome::Rebuilt,
        HierarchyOutcome::Rejected,
        HierarchyOutcome::Dropped,
        HierarchyOutcome::None,
    ];

    /// The `outcome` label value, and the log lines' `hierarchy=`.
    pub fn label(self) -> &'static str {
        match self {
            HierarchyOutcome::Stored => "stored",
            HierarchyOutcome::Rebuilt => "rebuilt",
            HierarchyOutcome::Rejected => "rejected",
            HierarchyOutcome::Dropped => "dropped",
            HierarchyOutcome::None => "none",
        }
    }
}

/// What one load did: which path served it, why the delta path
/// declined, what became of the hierarchy, and how long each step
/// took. Steps that did not run report zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Which path served the load.
    pub path: LoadPath,
    /// For a map-file source on the full path: the gate of the delta
    /// path that refused it.
    pub bailout: Option<&'static str>,
    /// Back-link rounds the map stage re-ran from scratch instead of
    /// continuing ([`MapStats::restarted_rounds`](pathalias_core::MapStats));
    /// zero when nothing was mapped.
    pub backlink_restarts: u32,
    /// The pipeline phases. On the delta path `parse` is the re-read
    /// of the changed files, `freeze` the row splice, `map` the tree
    /// repair and `print` the route update; nothing is ever rendered.
    pub phases: PhaseTimings,
    /// Diffing the re-read files against the cached ones.
    pub plan_delta: Duration,
    /// How many whole file texts the delta planner scanned: any file
    /// it had no outline of yet, plus the changed file's old text when
    /// the edit changes what its statements mention (a cost edit scans
    /// only the window around the edit, and counts nothing).
    pub files_scanned: usize,
    /// Building (or patching) the in-memory route database. A full
    /// load builds the database from the printer's traversal, so its
    /// route computation is timed here and `phases.print` stays zero.
    pub routedb: Duration,
    /// Heap bytes of the database served ([`RouteDb::heap_bytes`]);
    /// zero for a `padb-mmap` source, which holds no table.
    pub db_bytes: usize,
    /// Heap bytes of the tree a map-file source keeps for its delta
    /// reloads (`ShortestPathTree::heap_bytes`); zero for the others.
    pub tree_bytes: usize,
    /// Building the point-to-point engine, unless `hierarchy_build`
    /// covers it.
    pub engine: Duration,
    /// On the delta path: building the transpose of the served graph,
    /// which the repair seeds from. The engine keeps it and the next
    /// generation's engine inherits it when the edit moved no edge, so
    /// only the first delta after a full load (or after an edit that
    /// reshaped a row) pays for it.
    pub reverse: Duration,
    /// On the delta path: how many labels the repair moved.
    pub relabelled: usize,
    /// On the delta path: how many routes were recomputed.
    pub routes_moved: usize,
    /// On the delta path: how many of the database's shards were
    /// rewritten; the rest are shared with the last generation.
    pub shards_rewritten: usize,
    /// What became of the contraction hierarchy.
    pub hierarchy: HierarchyOutcome,
    /// Rebuilding the hierarchy, with the engine around it (zero
    /// unless it was rebuilt).
    pub hierarchy_build: Duration,
}

/// When an edit dirties more than this fraction of the world, the
/// incremental remap would approach a full run anyway — fall back.
const DELTA_MAX_DIRTY_FRACTION: f64 = 0.25;

/// A change-detection stamp for one source file.
///
/// Size and mtime alone miss the classic trap: a rewrite that keeps
/// the length and lands within the filesystem's mtime granularity (or
/// a tool that deliberately restores the mtime) is invisible. On unix
/// the stamp adds the inode number and the ctime — the kernel bumps
/// ctime on every write regardless of what userspace sets mtime to,
/// and it costs one `stat`, no file read (which matters for mmap-served
/// tables bigger than memory). Elsewhere the stamp hashes the file
/// contents instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileStamp {
    path: PathBuf,
    size: u64,
    mtime: Option<SystemTime>,
    #[cfg(unix)]
    ino: u64,
    #[cfg(unix)]
    ctime: (i64, i64),
    #[cfg(not(unix))]
    content: u64,
}

/// A change-detection fingerprint for a set of source files.
pub(crate) type Fingerprint = Vec<FileStamp>;

/// Computes the fingerprint of `paths`.
pub(crate) fn fingerprint<'a>(
    paths: impl IntoIterator<Item = &'a PathBuf>,
) -> std::io::Result<Fingerprint> {
    paths.into_iter().map(stamp).collect()
}

#[cfg(unix)]
fn stamp(p: &PathBuf) -> std::io::Result<FileStamp> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(p)?;
    Ok(FileStamp {
        path: p.clone(),
        size: meta.len(),
        mtime: meta.modified().ok(),
        ino: meta.ino(),
        ctime: (meta.ctime(), meta.ctime_nsec()),
    })
}

#[cfg(not(unix))]
fn stamp(p: &PathBuf) -> std::io::Result<FileStamp> {
    let meta = std::fs::metadata(p)?;
    Ok(FileStamp {
        path: p.clone(),
        size: meta.len(),
        mtime: meta.modified().ok(),
        content: pathalias_hash::fold_bytes(&std::fs::read(p)?),
    })
}

/// The cached expensive stages of a map-file source, shared across
/// clones of the [`MapSource`] (the daemon clones its source into
/// connection state).
#[derive(Clone, Default)]
pub struct StageCache {
    slot: Arc<Mutex<Option<CachedStages>>>,
    delta_reloads: Arc<AtomicU64>,
    /// Makes the next delta reload decline after its repair, where the
    /// route update would, and the full path that follows fail.
    #[cfg(test)]
    fail_after_repair: Arc<std::sync::atomic::AtomicBool>,
}

struct CachedStages {
    fingerprint: Fingerprint,
    ignore_case: bool,
    /// The frozen stage. For a map-file source it is over the graph the
    /// cached mapping serves, back links included, so a generation
    /// holds one CSR; the stage a mapping starts from is that graph
    /// without them ([`CachedStages::base`]).
    frozen: Frozen,
    /// The input texts `frozen` was built from (map-file sources only)
    /// — what the next reload diffs against.
    parsed: Option<Parsed>,
    /// The serving artifacts of the last successful load, kept so an
    /// incremental reload can repair them instead of recomputing.
    serving: Option<ServingState>,
}

/// Everything the incremental reload path repairs in place.
struct ServingState {
    options: Options,
    /// The mapping `db` serves the routes of. No route table is kept:
    /// a delta reload re-derives the routes it needs from the trees.
    mapped: Mapped,
    /// `mapped.tree`'s child lists: made by the full load's database
    /// walk, and patched by each delta reload that commits (a delta
    /// that bails leaves them as they were).
    children: Children,
    /// The resolver handle (an `Arc` wrapper — cloning is a refcount
    /// bump, so a reload whose inputs did not change at all serves the
    /// cached table directly).
    db: SharedRouteDb,
    /// The point-to-point engine over `mapped.tree`'s graph.
    engine: Arc<PointToPoint>,
}

/// The stage cache's slot, locked. A panic while it is held (a reload
/// that panics mid-repair) empties the slot as it unwinds, so nothing
/// the panicking reload left half-updated is ever read: the next
/// reload finds the cache empty and runs the full path. The mutex
/// stays poisoned after that, and [`StageCache::lock`] reads past it.
/// (Clearing the poison instead, at the next lock, needs a newer `std`
/// than the workspace's `rust-version`.)
struct Slot<'a>(MutexGuard<'a, Option<CachedStages>>);

impl Deref for Slot<'_> {
    type Target = Option<CachedStages>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Slot<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0 = None;
        }
    }
}

impl CachedStages {
    /// The stage a mapping starts from: the frozen stage without the
    /// back links the cached mapping invented (only those carry
    /// [`LinkFlags::BACK`]). The graph is built only when there are
    /// some.
    fn base(&self) -> Frozen {
        match &self.serving {
            Some(serving) if serving.mapped.tree.stats.invented_links > 0 => {
                let graph = self.frozen.graph().without_back_links();
                self.frozen.with_graph(Arc::new(graph))
            }
            _ => self.frozen.clone(),
        }
    }
}

impl StageCache {
    /// Locks the slot; a panic while it is held empties it ([`Slot`]).
    fn lock(&self) -> Slot<'_> {
        Slot(crate::lock(&self.slot))
    }

    /// The cached frozen snapshot a mapping starts from, if any (used
    /// by tests to observe stage reuse): for a map-file source, the
    /// served graph without its back links, built on the call when it
    /// has any.
    pub fn snapshot(&self) -> Option<Arc<FrozenGraph>> {
        self.lock().as_ref().map(|c| c.base().graph().clone())
    }

    /// Whether the served tree is a cold map of the graph it serves,
    /// label for label, and what the cache keeps beside it is what a
    /// rebuild from that tree makes: its child lists, and the engine's
    /// transpose when it holds one (carried from the last generation,
    /// or built since). True when nothing is cached.
    #[doc(hidden)]
    pub fn kept_state_matches_rebuild(&self) -> bool {
        let slot = self.lock();
        let Some(serving) = slot.as_ref().and_then(|c| c.serving.as_ref()) else {
            return true;
        };
        let tree = &serving.mapped.tree;
        let cold = map_frozen_readonly(tree.frozen(), tree.source, &map_options(&serving.options));
        cold.is_ok_and(|cold| (tree.frozen().node_ids()).all(|v| cold.label(v) == tree.label(v)))
            && serving.children == tree.children()
            && Arc::ptr_eq(serving.engine.graph(), tree.frozen())
            && serving
                .engine
                .built_reverse()
                .map_or(true, |r| **r == ReverseGraph::build(tree.frozen()))
    }

    /// The route table of the mapping the cached serving state
    /// answers from, computed afresh from its tree (used by tests to
    /// compare it with a cold run's).
    pub fn routes(&self) -> Option<RouteTable> {
        let slot = self.lock();
        Some(compute_routes(
            &slot.as_ref()?.serving.as_ref()?.mapped.tree,
        ))
    }

    /// How many reloads were absorbed by the incremental (delta) path
    /// instead of the full pipeline (used by tests to prove the fast
    /// path actually ran).
    pub fn delta_reloads(&self) -> u64 {
        self.delta_reloads.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for StageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.lock().is_some();
        write!(f, "StageCache({})", if filled { "warm" } else { "empty" })
    }
}

/// Where the route table comes from.
#[derive(Debug, Clone)]
pub enum MapSource {
    /// A PADB1 file written by [`pathalias_mailer::disk::write_db`],
    /// loaded fully into memory.
    Padb(PathBuf),
    /// A PADB1 file served *in place* through
    /// [`MappedDb`]: only the index
    /// is loaded; names and routes stay on disk behind the kernel page
    /// cache, so tables larger than memory serve fine. `RELOAD`
    /// re-opens (and re-validates) the file.
    PadbMmap(PathBuf),
    /// A linear route file: pathalias output, `name\troute` lines.
    Routes(PathBuf),
    /// A PAGF1 frozen-graph snapshot written by `pathalias freeze`:
    /// the staged pipeline re-enters at the frozen stage, so a cold
    /// start skips parse/build/freeze entirely and a `RELOAD` whose
    /// snapshot file is unchanged skips even the load.
    FrozenSnapshot {
        /// The `.pagf` file.
        path: PathBuf,
        /// Mapping/printing options (`-l`, ...; the build-stage
        /// options are baked into the snapshot).
        options: Options,
        /// Cached frozen stage, keyed by the file's fingerprint.
        cache: StageCache,
    },
    /// Map files run through the staged pipeline on every (re)load,
    /// with the parse/build/freeze stages cached across reloads.
    Map {
        /// Input map files, parsed in order.
        files: Vec<PathBuf>,
        /// Pipeline options (`-l`, `-i`, ...).
        options: Options,
        /// Cached stages, keyed by the files' fingerprint.
        cache: StageCache,
    },
}

/// Why a (re)load failed. The old table keeps serving afterwards.
#[derive(Debug)]
pub enum LoadError {
    /// Reading a source file failed.
    Io(std::io::Error),
    /// The PADB1 file was corrupt.
    Disk(DiskError),
    /// The PAGF1 snapshot was corrupt.
    Snapshot(SnapshotError),
    /// The linear route file did not parse.
    Db(DbError),
    /// The map pipeline failed (parse or map error).
    Pipeline(pathalias_core::Error),
    /// The rebuilt map has nothing to serve.
    Validation(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o: {e}"),
            LoadError::Disk(e) => write!(f, "{e}"),
            LoadError::Snapshot(e) => write!(f, "{e}"),
            LoadError::Db(e) => write!(f, "route file: {e}"),
            LoadError::Pipeline(e) => write!(f, "pipeline: {e}"),
            LoadError::Validation(why) => write!(f, "validation: {why}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<DiskError> for LoadError {
    fn from(e: DiskError) -> Self {
        LoadError::Disk(e)
    }
}

impl From<SnapshotError> for LoadError {
    fn from(e: SnapshotError) -> Self {
        LoadError::Snapshot(e)
    }
}

impl MapSource {
    /// A map-file source with the default stage cache.
    pub fn map_files(files: Vec<PathBuf>, options: Options) -> MapSource {
        MapSource::Map {
            files,
            options,
            cache: StageCache::default(),
        }
    }

    /// A frozen-snapshot source with the default stage cache.
    pub fn frozen_snapshot(path: PathBuf, options: Options) -> MapSource {
        MapSource::FrozenSnapshot {
            path,
            options,
            cache: StageCache::default(),
        }
    }

    /// A short label for the source shape — what the CLI startup
    /// report and map-set listings show next to each namespace.
    pub fn kind(&self) -> &'static str {
        match self {
            MapSource::Padb(_) => "padb",
            MapSource::PadbMmap(_) => "padb-mmap",
            MapSource::Routes(_) => "routes",
            MapSource::FrozenSnapshot { .. } => "pagf",
            MapSource::Map { .. } => "map",
        }
    }

    /// The files whose modification should trigger a reload (what
    /// `serve --watch` polls).
    pub fn watch_paths(&self) -> Vec<PathBuf> {
        match self {
            MapSource::Padb(p) | MapSource::PadbMmap(p) | MapSource::Routes(p) => vec![p.clone()],
            MapSource::FrozenSnapshot { path, .. } => vec![path.clone()],
            MapSource::Map { files, .. } => files.clone(),
        }
    }

    /// Builds everything the daemon serves from the source: the
    /// resolver (a boxed [`Resolver`](pathalias_mailer::Resolver)), the
    /// point-to-point engine for sources that hold a frozen graph, and
    /// the per-phase timings of the load. Pure with respect to serving
    /// state: the caller decides when (and whether) to swap.
    ///
    /// Pipeline sources (`map`, `pagf`) build a [`PointToPoint`] over
    /// the mapped tree's *augmented* graph — the same snapshot (back
    /// links included) the printed table came from, so `PATH <home>
    /// <x>` and `QUERY <x>` answer byte-identically. When a `.pagf`
    /// snapshot stored its reverse-index section and mapping invented
    /// no back links, the stored transpose is reused instead of
    /// rebuilt. Stages skipped by the fingerprint cache (an unchanged
    /// `.pagf`, a `RELOAD` whose map files did not move) report zero —
    /// the zeros *are* the cache working.
    ///
    /// Table-only sources (`routes`, `padb`, `padb-mmap`) have no graph
    /// and return `None` for the engine (the daemon refuses `PATH` on
    /// them) and their whole ingest as the `parse` phase. Every one but
    /// `padb-mmap` materializes an in-memory table; `padb-mmap` opens
    /// the file for in-place serving without loading the blob at all.
    pub fn load_serving_timed(&self) -> Result<ServingParts, LoadError> {
        match self {
            MapSource::Padb(path) => table_only(|| {
                let entries = MappedDb::open(path)?.read_all()?;
                Ok(in_memory(RouteDb::from_entries(entries)))
            }),
            MapSource::PadbMmap(path) => table_only(|| Ok((Box::new(MappedDb::open(path)?), 0))),
            MapSource::Routes(path) => table_only(|| {
                let text = std::fs::read_to_string(path)?;
                Ok(in_memory(
                    RouteDb::from_output(&text).map_err(LoadError::Db)?,
                ))
            }),
            MapSource::FrozenSnapshot {
                path,
                options,
                cache,
            } => {
                // The snapshot was validated (checksum + structure)
                // when it was frozen and is re-validated on load.
                let (frozen, phases) = snapshot_stage(path, cache)?;
                let mut report = LoadReport {
                    phases,
                    ..LoadReport::default()
                };
                let (db, engine, _, _) = map_print_engine(&frozen, options, &mut report)?;
                Ok((Box::new(db), Some(engine), report))
            }
            MapSource::Map {
                files,
                options,
                cache,
            } => {
                // The incremental path: diff the re-read inputs against
                // the cached ones and repair the serving artifacts in
                // place when the edit is provably safe.
                let (bailout, reread, files_scanned) =
                    match try_delta_reload(files, options, cache)? {
                        Ok(out) => return Ok(out),
                        Err(declined) => declined,
                    };
                let (frozen, phases, built) = frozen_stage(files, options, cache, reread)?;
                #[cfg(test)]
                if cache.fail_after_repair.swap(false, Ordering::SeqCst) {
                    return Err(LoadError::Validation("injected failure".into()));
                }
                let mut report = LoadReport {
                    bailout: Some(bailout),
                    phases,
                    files_scanned,
                    ..LoadReport::default()
                };
                let (db, engine, mapped, children) =
                    map_print_engine(&frozen, options, &mut report)?;
                report.tree_bytes = mapped.tree.heap_bytes();
                has_hosts(frozen.graph())?;
                // Only a load that succeeded replaces what the cache
                // holds: after a failure the old generation serves on,
                // and the next reload diffs against what it serves. The
                // stage keeps the served graph, not a second CSR.
                let frozen = frozen.with_graph(mapped.tree.frozen().clone());
                let serving = Some(ServingState {
                    options: options.clone(),
                    mapped,
                    children,
                    db: db.clone(),
                    engine: engine.clone(),
                });
                let mut slot = cache.lock();
                match (built, slot.as_mut()) {
                    (
                        Some(Reread {
                            fingerprint,
                            parsed,
                            ..
                        }),
                        _,
                    ) => {
                        *slot = Some(CachedStages {
                            fingerprint,
                            ignore_case: options.ignore_case,
                            frozen,
                            parsed: Some(parsed),
                            serving,
                        });
                    }
                    (None, Some(cached)) => (cached.frozen, cached.serving) = (frozen, serving),
                    // A panic emptied the cache meanwhile: the next
                    // reload runs in full.
                    (None, None) => {}
                }
                Ok((Box::new(db), Some(engine), report))
            }
        }
    }
}

/// A table-only load: no graph, hence no engine, and the whole ingest
/// timed as the `parse` phase. `load` returns the resolver and the
/// bytes its table holds.
fn table_only(
    load: impl FnOnce() -> Result<(BoxedResolver, usize), LoadError>,
) -> Result<ServingParts, LoadError> {
    let t0 = Instant::now();
    let (resolver, db_bytes) = load()?;
    let mut report = LoadReport {
        db_bytes,
        ..LoadReport::default()
    };
    report.phases.parse = t0.elapsed();
    Ok((resolver, None, report))
}

/// An in-memory table as [`table_only`] serves it.
fn in_memory(db: RouteDb) -> (BoxedResolver, usize) {
    let bytes = db.heap_bytes();
    (Box::new(SharedRouteDb::new(db)), bytes)
}

/// The map stage, the database served from the mapped tree, the
/// point-to-point engine over its augmented graph, and the tree's
/// child lists the database was walked with. The engine and the
/// database come from the *same* mapping run, so they can never
/// disagree about what the world looks like.
fn map_print_engine(
    frozen: &Frozen,
    options: &Options,
    report: &mut LoadReport,
) -> Result<(SharedRouteDb, Arc<PointToPoint>, Mapped, Children), LoadError> {
    let t0 = Instant::now();
    let mapped = frozen.map(options).map_err(LoadError::Pipeline)?;
    report.phases.map = t0.elapsed();
    report.backlink_restarts = mapped.tree.stats.restarted_rounds;
    let t0 = Instant::now();
    let aug = mapped.tree.frozen().clone();
    let model = options.cost_model;
    // A stored hierarchy serves only the graph it is over: the
    // snapshot's, or the snapshot's plus the back links that mapping
    // from its first host invents (`freeze --ch`). When this mapping
    // serves an equal graph, the engine keeps the stored copy, which
    // the frozen stage holds anyway. Otherwise (a `-l` that invents
    // other back links) the hierarchy, an operator opt-in, is rebuilt
    // over the graph served rather than silently lost.
    let engine = match frozen.hierarchy().zip(frozen.hierarchy_graph()) {
        Some((ch, over)) if Arc::ptr_eq(&aug, over) || *aug == **over => {
            // The stored transpose is the snapshot graph's.
            let reverse = frozen
                .reverse_index()
                .filter(|_| Arc::ptr_eq(over, frozen.graph()))
                .cloned();
            let engine =
                PointToPoint::with_sections(over.clone(), reverse, Some(ch.clone()), model);
            report.hierarchy = match engine.hierarchy() {
                Some(_) => HierarchyOutcome::Stored,
                None => HierarchyOutcome::Rejected,
            };
            engine
        }
        Some(_) => {
            let t1 = Instant::now();
            let engine = PointToPoint::with_fresh_hierarchy(aug, model);
            report.hierarchy_build = t1.elapsed();
            report.hierarchy = HierarchyOutcome::Rebuilt;
            engine
        }
        None => {
            let reverse = frozen
                .reverse_index()
                .filter(|_| Arc::ptr_eq(&aug, frozen.graph()))
                .cloned();
            PointToPoint::with_sections(aug, reverse, None, model)
        }
    };
    report.engine = t0.elapsed() - report.hierarchy_build;
    // The database last: the engine's build scratch is freed by now.
    // It is built straight from the tree; no route table is held.
    let t0 = Instant::now();
    let children = mapped.tree.children();
    let db = RouteDb::from_tree(&mapped.tree, &children);
    report.routedb = t0.elapsed();
    report.db_bytes = db.heap_bytes();
    Ok((SharedRouteDb::new(db), Arc::new(engine), mapped, children))
}

/// The map files as one reload read them: their stamps, and their
/// inputs, with only the files whose stamp moved read from disk.
struct Reread {
    fingerprint: Fingerprint,
    parsed: Parsed,
    took: Duration,
}

impl Reread {
    /// Reads `files`, stamped `fingerprint`. Every file whose stamp
    /// matches `cached`'s is shared with the cached inputs, outline
    /// included, and not read at all. With nothing cached, or when the
    /// file list changed shape, every file is read.
    fn of(
        files: &[PathBuf],
        fingerprint: Fingerprint,
        cached: Option<&CachedStages>,
    ) -> std::io::Result<Reread> {
        let t0 = Instant::now();
        let parsed = match cached {
            Some(CachedStages {
                parsed: Some(parsed),
                fingerprint: old,
                ..
            }) if old.len() == files.len() && parsed.inputs().len() == files.len() => {
                let mut fresh = parsed.clone();
                for (i, path) in files.iter().enumerate() {
                    if old[i] != fingerprint[i] {
                        fresh.replace_file(i, path)?;
                    }
                }
                fresh
            }
            _ => {
                let mut fresh = Parsed::new();
                fresh.push_files(files)?;
                fresh
            }
        };
        Ok(Reread {
            fingerprint,
            parsed,
            took: t0.elapsed(),
        })
    }
}

/// Why the delta path declined a reload: the gate that refused, the
/// inputs it had already re-read (the full pipeline builds from them
/// rather than reading the files again), and the texts it scanned.
type Declined = (&'static str, Option<Reread>, usize);

/// The O(delta) reload path: diff the re-read map files against the
/// cached inputs, patch the served CSR's rows the edit touched
/// ([`pathalias_core::delta`] proves which edits are safe), repair the
/// served shortest-path tree in place from the patched rows outward
/// ([`repair_frozen`], seeded through the served graph's transpose),
/// recompute only the routes whose labels moved ([`update_routes`],
/// over the kept child lists), and rewrite the database's shards that
/// hold them ([`RouteDb::patched`]). Past the one copy of the served
/// CSR, each step reads only the edit's cone; nothing is rendered.
/// Every gate failure returns `Ok(Err(declined))` and the caller
/// falls back to the full pipeline — the full run stays the oracle,
/// the delta path only ever reproduces it faster — with the cached
/// state as it was (the repair's log undoes it).
///
/// One conservative drop on this path, because "stale index answers
/// queries wrongly" beats "reload is slower": the point-to-point
/// engine is rebuilt over the repaired tree's graph without a
/// contraction hierarchy — a CH is cost-dependent and serving
/// yesterday's hierarchy across a cost change would return wrong
/// `PATH` answers (the report says `dropped` when the replaced engine
/// carried one). The transpose is edge-set data and carries over when
/// the edit moved no edge.
fn try_delta_reload(
    files: &[PathBuf],
    options: &Options,
    cache: &StageCache,
) -> Result<Result<ServingParts, Declined>, LoadError> {
    // Only the plain serve configuration repairs: traces print
    // per-relaxation output a repair would truncate.
    if !options.trace.is_empty() {
        return Ok(Err(("trace requested", None, 0)));
    }
    let fp = fingerprint(files)?;
    let mut slot = cache.lock();
    let Some(cached) = slot.as_mut() else {
        return Ok(Err(("stage cache empty", None, 0)));
    };
    if cached.ignore_case != options.ignore_case {
        return Ok(Err(("ignore-case changed", None, 0)));
    }
    let (Some(parsed), Some(serving)) = (&cached.parsed, &cached.serving) else {
        return Ok(Err(("no cached serving state", None, 0)));
    };
    if serving.options != *options {
        return Ok(Err(("options changed", None, 0)));
    }
    let mut report = LoadReport {
        path: LoadPath::Unchanged,
        ..LoadReport::default()
    };
    if cached.fingerprint == fp {
        // Nothing moved at all: serve the cached artifacts as-is.
        return Ok(Ok(commit(cached, cache, None, None, report)));
    }

    let reread = Reread::of(files, fp, Some(cached))?;
    report.phases.parse = reread.took;
    let old_tree = &serving.mapped.tree;
    let served = old_tree.frozen();
    // The planner reads only names, which every graph derived from the
    // parsed one shares.
    let t0 = Instant::now();
    let (plan, scanned) = parsed.plan_delta(&reread.parsed, served);
    report.plan_delta = t0.elapsed();
    report.files_scanned = scanned;
    let patches = match plan {
        DeltaPlan::Unchanged => {
            // An edit the parser cannot see (comments, spacing,
            // continuations): adopt the new bytes, keep serving the
            // unchanged world.
            return Ok(Ok(commit(cached, cache, Some(reread), None, report)));
        }
        DeltaPlan::Fallback(why) => return Ok(Err((why, Some(reread), scanned))),
        DeltaPlan::Patch { patches } => patches,
    };
    report.path = LoadPath::Delta;

    // The served graph's transpose: the engine's, which the first
    // delta after a full load builds.
    let t0 = Instant::now();
    let reverse = if Arc::ptr_eq(serving.engine.graph(), served) {
        serving.engine.reverse().clone()
    } else {
        Arc::new(served.reverse())
    };
    report.reverse = t0.elapsed();

    // Patch the one CSR the generation holds. No build phase on this
    // path: the patches splice straight into it. When the mapping
    // invented back links, the served graph is the declared one plus
    // an invented BACK tail per row, and has to be patched with the
    // same care.
    let t0 = Instant::now();
    let patched = if old_tree.stats.invented_links == 0 {
        Some(served.with_rows_replaced(&patches))
    } else {
        patch_augmented(served, &reverse, &patches)
    };
    let Some((graph, shift)) = patched else {
        return Ok(Err((
            "invented back links depend on the edit",
            Some(reread),
            scanned,
        )));
    };
    let graph = Arc::new(graph);
    report.phases.freeze = t0.elapsed();
    let dirty: Vec<NodeId> = patches.iter().map(|p| p.node).collect();
    let carried = same_transpose(served, &graph, &dirty, &shift);

    // The tree is repaired in place; every gate that declines from here
    // on undoes the repair, which leaves the tree as it was.
    let serving = cached.serving.as_mut().expect("checked above");
    let tree = &mut serving.mapped.tree;
    let t0 = Instant::now();
    let Ok(Some(mut repair)) = repair_frozen(
        tree,
        &serving.children,
        &reverse,
        &graph,
        &dirty,
        &shift,
        &map_options(options),
        DELTA_MAX_DIRTY_FRACTION,
    ) else {
        return Ok(Err(("tree repair declined", Some(reread), scanned)));
    };
    report.phases.map = t0.elapsed();

    // Recompute routes only for nodes whose label moved, among those
    // the repair wrote, reading the old labels off its log. The route
    // update reads the new tree's child lists, and is the last gate:
    // move every re-parented node in the kept lists, and put them back
    // if it declines.
    let t0 = Instant::now();
    let mut changed: Vec<NodeId> = Vec::new();
    let mut moves: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
    for (i, &id) in repair.written().iter().enumerate() {
        let (old, new) = (repair.old_label(i), tree.label(id));
        if same_label(old, new, &shift) {
            continue;
        }
        changed.push(id);
        if let Some(((from, _), (to, _))) = old.and_then(|o| o.pred).zip(new.and_then(|n| n.pred)) {
            if from != to {
                moves.push((id, from, to));
            }
        }
    }
    report.relabelled = changed.len();
    for &(id, from, to) in &moves {
        serving.children.reparent(id, from, to);
    }
    let update = update_routes(tree, &serving.children, &changed);
    #[cfg(test)]
    let update = update.filter(|_| !cache.fail_after_repair.load(Ordering::SeqCst));
    let Some(moved) = update else {
        for &(id, from, to) in moves.iter().rev() {
            serving.children.reparent(id, to, from);
        }
        repair.undo(tree);
        return Ok(Err(("labelled set changed", Some(reread), scanned)));
    };
    report.phases.print = t0.elapsed();
    report.routes_moved = moved.len();

    // The edit moved `moved.len()` routes (none, when it retuned a
    // link the tree does not use): the next database shares every
    // shard but theirs. Only a route that changed its name or its
    // visibility forces a fresh build; the old names and kinds are
    // read with the old labels swapped back in for the call.
    let t0 = Instant::now();
    repair.swap(tree);
    let db = serving.db.patched(tree, &moved);
    repair.swap(tree);
    let db = db.unwrap_or_else(|| RouteDb::from_tree(tree, &serving.children));
    report.routedb = t0.elapsed();
    report.shards_rewritten = db.shards_rewritten_since(&serving.db);
    serving.db = SharedRouteDb::new(db);
    // `PATH` answers read edge costs the tree never looked at, so the
    // engine is rebuilt whatever the edit moved.
    if serving.engine.hierarchy().is_some() {
        report.hierarchy = HierarchyOutcome::Dropped;
    }
    let t0 = Instant::now();
    serving.engine = Arc::new(PointToPoint::with_sections(
        graph.clone(),
        carried.then_some(reverse),
        None,
        options.cost_model,
    ));
    report.engine = t0.elapsed();
    Ok(Ok(commit(cached, cache, Some(reread), Some(graph), report)))
}

/// The mapping options a repair of a tree mapped under `options` runs
/// with (the delta path declines traced reloads before it gets here).
fn map_options(options: &Options) -> MapOptions {
    MapOptions {
        model: options.cost_model,
        trace: Vec::new(),
        exclude_domains: false,
        no_backlinks: options.no_backlinks,
    }
}

/// Whether a node's label is unmoved across a repair: every field
/// matches, its predecessor edge read through the shift (an edge
/// inside a replaced row never matches).
fn same_label(old: Option<Label>, new: Option<Label>, shift: &EdgeShift) -> bool {
    match (old, new) {
        (Some(o), Some(n)) => {
            let moved = o.pred.map(|(p, e)| (p, shift.map(e)));
            Label { pred: None, ..o } == Label { pred: None, ..n }
                && moved == n.pred.map(|(p, e)| (p, Some(e)))
        }
        (o, n) => o.is_none() && n.is_none(),
    }
}

/// Whether `new`, `old` with the `dirty` rows patched as `shift`
/// says, has `old`'s transpose: no surviving edge moved, and every
/// patched row kept its targets in order (a cost edit, whichever
/// graph it patched).
fn same_transpose(
    old: &FrozenGraph,
    new: &FrozenGraph,
    dirty: &[NodeId],
    shift: &EdgeShift,
) -> bool {
    shift.is_identity_outside_rows()
        && dirty.iter().all(|&d| {
            let (a, b) = (old.edge_slice(d).1, new.edge_slice(d).1);
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to() == y.to())
        })
}

/// The delta path's one commit step: adopt what the reload read and
/// built — the new stamps and texts if any file moved, the patched
/// graph if the edit changed the world — count the reload, and serve
/// what the cache now holds.
fn commit(
    cached: &mut CachedStages,
    cache: &StageCache,
    reread: Option<Reread>,
    graph: Option<Arc<FrozenGraph>>,
    report: LoadReport,
) -> ServingParts {
    if let Some(reread) = reread {
        cached.fingerprint = reread.fingerprint;
        cached.parsed = Some(reread.parsed);
    }
    if let Some(graph) = graph {
        cached.frozen = cached.frozen.with_graph(graph);
    }
    let serving = cached.serving.as_ref().expect("the delta path checked");
    cache.delta_reloads.fetch_add(1, Ordering::Relaxed);
    let resolver: BoxedResolver = Box::new(serving.db.clone());
    let report = LoadReport {
        db_bytes: serving.db.heap_bytes(),
        tree_bytes: serving.mapped.tree.heap_bytes(),
        ..report
    };
    (resolver, Some(serving.engine.clone()), report)
}

/// Applies `patches` (planned against the declared graph) to `aug`,
/// the graph a mapping that invented back links serves: each row the
/// declared links, then the invented BACK tail. `reverse` is `aug`'s
/// transpose. Returns the patched graph and its edge shift, or `None`
/// when the edit is not provably safe there:
///
/// * a patch that changes a row's shape (targets, operators or flags,
///   not just costs) could add or remove reachability the invented
///   links were computed from;
/// * an invented link *targeting* a dirty node had its cost derived
///   from that node's row — stale after the edit.
fn patch_augmented(
    aug: &FrozenGraph,
    reverse: &ReverseGraph,
    patches: &[RowPatch],
) -> Option<(FrozenGraph, EdgeShift)> {
    let mut aug_patches = Vec::with_capacity(patches.len());
    for p in patches {
        let (start, row) = aug.edge_slice(p.node);
        // Only invention sets BACK, and it appends.
        let declared = row
            .iter()
            .take_while(|e| !e.flags().contains(LinkFlags::BACK))
            .count();
        // Cost-only: the new row must keep the old shape.
        if declared != p.edges.len() {
            return None;
        }
        for (old, new) in row.iter().zip(&p.edges) {
            if old.to() != new.0 || old.op() != new.2 || old.flags() != new.3 {
                return None;
            }
        }
        if reverse
            .in_edges(p.node)
            .any(|(_, e)| aug.edge_flags(e).contains(LinkFlags::BACK))
        {
            return None;
        }
        // Rebuild the augmented row: the patched declared row, then
        // the invented tail exactly as it stands.
        let mut edges = p.edges.clone();
        for e in start + declared as u32..start + row.len() as u32 {
            let e = EdgeId::from_raw(e);
            edges.push((
                aug.edge_target(e),
                aug.edge_raw_cost(e),
                aug.edge_op(e),
                aug.edge_flags(e),
            ));
        }
        aug_patches.push(RowPatch {
            node: p.node,
            edges,
        });
    }
    Some(aug.with_rows_replaced(&aug_patches))
}

/// The parse/build/freeze stages for a map-file source, reusing the
/// cached stage when the files' fingerprint is unchanged (the "reload
/// with only mapping options changed" fast path). The build reads the
/// inputs the delta path already re-read, when it got that far, and
/// otherwise only the files whose stamp moved. Returns the stage, the
/// timings of the stages that actually ran (all zero on a cache hit),
/// and, when it built one, the re-read whose stamps and inputs the
/// cache is to hold once the load succeeds.
fn frozen_stage(
    files: &[PathBuf],
    options: &Options,
    cache: &StageCache,
    reread: Option<Reread>,
) -> Result<(Frozen, PhaseTimings, Option<Reread>), LoadError> {
    let slot = cache.lock();
    let reread = match reread {
        Some(reread) => reread,
        None => {
            let fp = fingerprint(files)?;
            if let Some(cached) = slot.as_ref() {
                // `ignore_case` is the one option the build stage
                // depends on.
                if cached.fingerprint == fp && cached.ignore_case == options.ignore_case {
                    return Ok((cached.base(), PhaseTimings::default(), None));
                }
            }
            Reread::of(files, fp, slot.as_ref())?
        }
    };
    drop(slot);
    let mut timings = PhaseTimings {
        parse: reread.took,
        ..PhaseTimings::default()
    };
    let built = reread.parsed.build(options).map_err(LoadError::Pipeline)?;
    timings.build = built.build_time;
    let frozen = built.into_frozen();
    timings.freeze = frozen.freeze_time;
    Ok((frozen, timings, Some(reread)))
}

/// The frozen stage for a snapshot source: re-read the `.pagf` file
/// only when its fingerprint changed, so a `RELOAD` with an unchanged
/// snapshot re-enters at the map stage just like the map-file path.
/// A fresh read reports its load time as the `freeze` phase; a cache
/// hit reports zero.
fn snapshot_stage(path: &PathBuf, cache: &StageCache) -> Result<(Frozen, PhaseTimings), LoadError> {
    let fp = fingerprint(std::iter::once(path))?;
    let mut slot = cache.lock();
    if let Some(cached) = slot.as_ref() {
        // `ignore_case` is baked into the snapshot file, so the
        // fingerprint alone decides reuse.
        if cached.fingerprint == fp {
            return Ok((cached.frozen.clone(), PhaseTimings::default()));
        }
    }
    let frozen = Frozen::from_snapshot(path)?;
    let timings = PhaseTimings {
        freeze: frozen.freeze_time,
        ..PhaseTimings::default()
    };
    *slot = Some(CachedStages {
        fingerprint: fp,
        ignore_case: frozen.graph().ignore_case(),
        frozen: frozen.clone(),
        parsed: None,
        serving: None,
    });
    Ok((frozen, timings))
}

/// Refuses a rebuilt map without a single live host (one whose every
/// node is a network or `delete`d): mail originates nowhere in it.
fn has_hosts(frozen: &FrozenGraph) -> Result<(), LoadError> {
    if frozen
        .node_ids()
        .any(|id| frozen.is_mappable(id) && !frozen.is_net(id))
    {
        Ok(())
    } else {
        Err(LoadError::Validation("rebuilt map has no hosts".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_core::ChIndex;
    use pathalias_mailer::disk::write_db;
    use pathalias_router::ch_weights;

    fn temp(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pathalias-reload-{tag}-{}", std::process::id()));
        p
    }

    const MAP: &str = "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
                       phs\tunc(400)\nresearch\tduke(200)\n";

    /// Loads the way the daemon does and hands back what it would
    /// serve queries from.
    fn serve(source: &MapSource) -> BoxedResolver {
        source.load_serving_timed().unwrap().0
    }

    fn route(resolver: &BoxedResolver, host: &str) -> String {
        resolver.resolve(host, "u").unwrap().route
    }

    /// The rendered routes of the mapping the cache is currently
    /// serving (delta tests compare them byte-for-byte against a cold
    /// pipeline).
    fn cached_rendered(cache: &StageCache) -> String {
        let slot = cache.lock();
        let serving = slot.as_ref().and_then(|c| c.serving.as_ref());
        let serving = serving.expect("serving state cached");
        pathalias_core::render_tree(&serving.mapped.tree, &serving.options.print_options())
    }

    #[test]
    fn loads_all_three_source_shapes() {
        // Map pipeline.
        let map_path = temp("map.src");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![map_path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let db = serve(&source);
        assert_eq!(route(&db, "research"), "duke!research!u");

        // Linear route file (the rendered output of the same map).
        let routes_path = temp("map.routes");
        let rendered = cached_rendered(cache);
        std::fs::write(&routes_path, &rendered).unwrap();
        let db2 = serve(&MapSource::Routes(routes_path.clone()));
        assert_eq!(route(&db2, "research"), "duke!research!u");

        // PADB1.
        let padb_path = temp("map.padb");
        write_db(&RouteDb::from_output(&rendered).unwrap(), &padb_path).unwrap();
        let db3 = serve(&MapSource::Padb(padb_path.clone()));
        assert_eq!(route(&db3, "research"), "duke!research!u");

        for p in [map_path, routes_path, padb_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn loads_report_the_bytes_their_database_holds() {
        let map_path = temp("bytes.map");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![map_path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let (_, _, report) = source.load_serving_timed().unwrap();
        let rendered = cached_rendered(cache);
        let db = RouteDb::from_output(&rendered).unwrap();
        assert_eq!(report.db_bytes, db.heap_bytes());
        // The unchanged path serves the cached database, and says so.
        let (_, _, again) = source.load_serving_timed().unwrap();
        assert_eq!(again.path, LoadPath::Unchanged);
        assert_eq!(again.db_bytes, report.db_bytes);

        let routes_path = temp("bytes.routes");
        std::fs::write(&routes_path, &rendered).unwrap();
        let (_, _, report) = MapSource::Routes(routes_path.clone())
            .load_serving_timed()
            .unwrap();
        assert_eq!(report.db_bytes, db.heap_bytes());
        let padb_path = temp("bytes.padb");
        write_db(&db, &padb_path).unwrap();
        let (_, _, report) = MapSource::PadbMmap(padb_path.clone())
            .load_serving_timed()
            .unwrap();
        assert_eq!(report.db_bytes, 0, "served from the page cache");
        for p in [map_path, routes_path, padb_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn unchanged_files_reuse_the_frozen_stage() {
        let path = temp("stage-reuse.map");
        std::fs::write(&path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        assert!(cache.snapshot().is_none(), "cache starts cold");

        let db1 = serve(&source);
        let snap1 = cache.snapshot().expect("cache warm after first load");
        let db2 = serve(&source);
        let snap2 = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap1, &snap2),
            "second load skipped parse/build/freeze"
        );
        assert_eq!(db1.entries(), db2.entries());

        // Touching the file (newer mtime) invalidates the stages.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("{MAP}extra\tunc(50)\n")).unwrap();
        let db3 = serve(&source);
        let snap3 = cache.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&snap1, &snap3), "changed file re-parses");
        assert!(db3.resolve("extra", "u").is_ok());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cached_stage_remaps_with_new_options() {
        let path = temp("stage-remap.map");
        std::fs::write(&path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let db_unc = serve(&source);
        assert_eq!(route(&db_unc, "research"), "duke!research!u");

        // Same files, different local host: the frozen stage is
        // reused, only map/print re-run.
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let snap_before = cache.snapshot().unwrap();
        let mut source2 = source.clone();
        let MapSource::Map { options, .. } = &mut source2 else {
            unreachable!()
        };
        options.local = Some("phs".into());
        let db_phs = serve(&source2);
        assert_eq!(route(&db_phs, "phs"), "u");
        let snap_after = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap_before, &snap_after),
            "option change alone must not re-freeze"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mmap_resolver_serves_without_full_load() {
        let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
        let padb_path = temp("mmap.padb");
        write_db(&db, &padb_path).unwrap();
        let resolver = serve(&MapSource::PadbMmap(padb_path.clone()));
        assert_eq!(resolver.entries(), 2);
        assert_eq!(
            resolver
                .resolve("caip.rutgers.edu", "pleasant")
                .unwrap()
                .route,
            "seismo!caip.rutgers.edu!pleasant"
        );
        // The same file, loaded whole.
        let in_memory = serve(&MapSource::Padb(padb_path.clone()));
        assert_eq!(in_memory.entries(), 2);
        assert_eq!(
            in_memory.resolve("seismo", "rick").unwrap().route,
            "seismo!rick"
        );
        std::fs::remove_file(padb_path).unwrap();
    }

    #[test]
    fn snapshot_source_matches_map_pipeline_byte_for_byte() {
        let map_path = temp("snap-src.map");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };

        // Freeze the world to a .pagf, as `pathalias freeze` would.
        let mut parsed = Parsed::new();
        parsed.push_file(&map_path).unwrap();
        let frozen = parsed.build(&options).unwrap().freeze();
        let pagf_path = temp("snap-src.pagf");
        frozen.write_snapshot(&pagf_path).unwrap();

        let map_source = MapSource::map_files(vec![map_path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &map_source else {
            unreachable!()
        };
        let from_map = serve(&map_source);
        let from_snapshot = serve(&MapSource::frozen_snapshot(pagf_path.clone(), options));
        assert_eq!(from_map.entries(), from_snapshot.entries());
        // Every line the map pipeline printed, asked of both resolvers
        // with `%s` as the user, comes back as printed.
        let rendered = cached_rendered(cache);
        assert_eq!(rendered.lines().count(), from_map.entries());
        for line in rendered.lines() {
            let (name, printed) = line.split_once('\t').unwrap();
            for (kind, resolver) in [("map", &from_map), ("pagf", &from_snapshot)] {
                assert_eq!(
                    resolver.resolve(name, "%s").unwrap().route,
                    printed,
                    "{kind}: route to {name} differs"
                );
            }
        }

        std::fs::remove_file(map_path).unwrap();
        std::fs::remove_file(pagf_path).unwrap();
    }

    #[test]
    fn unchanged_snapshot_reuses_the_frozen_stage() {
        let map_path = temp("snap-reuse.map");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let mut parsed = Parsed::new();
        parsed.push_file(&map_path).unwrap();
        let frozen = parsed.build(&options).unwrap().freeze();
        let pagf_path = temp("snap-reuse.pagf");
        frozen.write_snapshot(&pagf_path).unwrap();

        let source = MapSource::frozen_snapshot(pagf_path.clone(), options);
        let MapSource::FrozenSnapshot { cache, .. } = &source else {
            unreachable!()
        };
        assert!(cache.snapshot().is_none(), "cache starts cold");
        serve(&source);
        let snap1 = cache.snapshot().expect("cache warm after first load");
        serve(&source);
        let snap2 = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap1, &snap2),
            "unchanged .pagf skips the re-read"
        );

        // Rewriting the snapshot (newer mtime) invalidates the cache.
        std::thread::sleep(std::time::Duration::from_millis(20));
        frozen.write_snapshot(&pagf_path).unwrap();
        serve(&source);
        let snap3 = cache.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&snap1, &snap3), "changed file re-loads");

        std::fs::remove_file(map_path).unwrap();
        std::fs::remove_file(pagf_path).unwrap();
    }

    #[test]
    fn corrupt_snapshot_reports_not_panics() {
        let bad = temp("bad.pagf");
        std::fs::write(&bad, "PAGF1\nnot really").unwrap();
        assert!(matches!(
            MapSource::frozen_snapshot(bad.clone(), Options::default()).load_serving_timed(),
            Err(LoadError::Snapshot(_))
        ));
        let missing = MapSource::frozen_snapshot(temp("missing.pagf"), Options::default());
        assert!(matches!(
            missing.load_serving_timed(),
            Err(LoadError::Io(_))
        ));
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn load_failure_reports_not_panics() {
        let missing = MapSource::Routes(temp("definitely-missing"));
        assert!(matches!(
            missing.load_serving_timed(),
            Err(LoadError::Io(_))
        ));

        let bad = temp("bad.routes");
        std::fs::write(&bad, "one-field-only\n").unwrap();
        assert!(matches!(
            MapSource::Routes(bad.clone()).load_serving_timed(),
            Err(LoadError::Db(_))
        ));

        // A PADB1 file cut short: the loader opens and reads in one
        // breath, so the open-time span check catches it (`MappedDb`'s
        // own test covers the cut landing between open and read).
        write_db(&RouteDb::from_output("a\ta!%s\nb\tb!%s\n").unwrap(), &bad).unwrap();
        let len = std::fs::metadata(&bad).unwrap().len();
        let file = std::fs::File::options().write(true).open(&bad).unwrap();
        file.set_len(len - 3).unwrap();
        for source in [
            MapSource::Padb(bad.clone()),
            MapSource::PadbMmap(bad.clone()),
        ] {
            assert!(matches!(
                source.load_serving_timed(),
                Err(LoadError::Disk(DiskError::Corrupt(_)))
            ));
        }
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn validation_skips_deleted_and_network_nodes() {
        // `delete`d hosts and network pseudo-nodes sit in the node
        // pool, and the scan for a live host must look past them: this
        // map is perfectly valid and has to load.
        let path = temp("deleted.map");
        std::fs::write(
            &path,
            "oldhost\thub(100)\nhub\toldhost(100), leaf(50)\nleaf\thub(50)\n\
             NETX = {hub, leaf}(200)\ndelete {oldhost}\n",
        )
        .unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let (db, _, _) = MapSource::map_files(vec![path.clone()], options)
            .load_serving_timed()
            .expect("maps with delete statements are valid");
        assert_eq!(route(&db, "leaf"), "leaf!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn map_without_hosts_is_refused() {
        // Nothing to map from at all: the pipeline refuses.
        let path = temp("empty.map");
        std::fs::write(&path, "# nothing but a comment\n").unwrap();
        let source = MapSource::map_files(vec![path.clone()], Options::default());
        assert!(matches!(
            source.load_serving_timed(),
            Err(LoadError::Pipeline(_))
        ));
        // A network maps, but every host in it was deleted.
        std::fs::write(&path, "NET = {a, b}(5)\ndelete {a, b}\n").unwrap();
        let options = Options {
            local: Some("NET".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        assert!(matches!(
            source.load_serving_timed(),
            Err(LoadError::Validation(why)) if why == "rebuilt map has no hosts"
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn fingerprint_detects_same_size_rewrite_with_pinned_mtime() {
        // The classic trap: rewrite the file to the same length, then
        // restore the mtime. Size+mtime stamps see nothing; the ctime
        // (which userspace cannot pin) gives it away.
        let path = temp("fp-pinned.map");
        std::fs::write(&path, "aaaa\tbbbb(10)\n").unwrap();
        let fp1 = fingerprint(std::iter::once(&path)).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));

        std::fs::write(&path, "aaaa\tbbbb(99)\n").unwrap(); // same length
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(mtime).unwrap();
        drop(f);

        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(
            meta.len(),
            "aaaa\tbbbb(10)\n".len() as u64,
            "rewrite kept the length"
        );
        assert_eq!(meta.modified().unwrap(), mtime, "mtime was pinned back");
        let fp2 = fingerprint(std::iter::once(&path)).unwrap();
        assert_ne!(fp1, fp2, "pinned-mtime same-size rewrite must be detected");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fingerprint_error_is_reported_not_defaulted() {
        // A missing file must surface as Err — the old stamp treated
        // an unreadable mtime as `None`, and `None == None` made two
        // failures look like "unchanged".
        let missing = temp("fp-missing.map");
        assert!(fingerprint(std::iter::once(&missing)).is_err());
    }

    const DELTA_MAP: &str = "hub\ta(10), b(20)\na\tx(30)\nb\tx(5)\nx\ty(5)\n";

    /// A world wide enough that one edit's dirty cone stays under the
    /// 25% fallback budget: sixteen spokes off the hub, two of which
    /// compete for `x`.
    const WIDE_MAP: &str = "hub\tn1(10), n2(10), n3(10), n4(10), \
                            n5(10), n6(10), n7(10), n8(10), \
                            n9(10), n10(10), n11(10), n12(10), \
                            n13(10), n14(10), n15(10), n16(10)\n\
                            n1\tx(30)\nn2\tx(20)\nx\ty(5)\n";

    #[test]
    fn delta_reload_is_byte_identical_and_counted() {
        let path = temp("delta.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 0, "first load is the full pipeline");

        // Raise one cost: `x` must reroute from n2 to n1 — a
        // single-row patch whose cone (x, y) repairs in place.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let edited = WIDE_MAP.replace("n2\tx(20)", "n2\tx(35)");
        std::fs::write(&path, &edited).unwrap();
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "the edit took the delta path");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "n1!x!u");

        // Byte-identical to a cold run over the edited bytes.
        let cold = MapSource::map_files(vec![path.clone()], options);
        let (cold_resolver, cold_engine, _) = cold.load_serving_timed().unwrap();
        let MapSource::Map {
            cache: cold_cache, ..
        } = &cold
        else {
            unreachable!()
        };
        assert_eq!(
            cached_rendered(cache),
            cached_rendered(cold_cache),
            "delta-repaired routes must match the cold pipeline byte for byte"
        );
        for host in ["n1", "n2", "n5", "x", "y"] {
            assert_eq!(
                resolver.resolve(host, "u").unwrap().route,
                cold_resolver.resolve(host, "u").unwrap().route,
                "route to {host} differs"
            );
        }
        let (engine, cold_engine) = (engine.unwrap(), cold_engine.unwrap());
        for (s, d) in [("n1", "x"), ("n2", "y"), ("hub", "y")] {
            assert_eq!(
                engine.route(s, d).unwrap().route,
                cold_engine.route(s, d).unwrap().route,
                "PATH {s} {d} differs"
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A reload that panics while it holds the stage cache leaves the
    /// cache empty, not poisoned for good: the next reload runs the
    /// full path, and the one after it the delta path again.
    #[test]
    fn a_panic_under_the_stage_cache_empties_it() {
        let path = temp("poison.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        let held = cache.clone();
        let panicked = std::thread::spawn(move || {
            let _slot = held.lock();
            panic!("a reload panics mid-repair");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.slot.is_poisoned());

        for (cost, path_taken, bailout) in [
            ("35", LoadPath::Full, Some("stage cache empty")),
            ("36", LoadPath::Delta, None),
        ] {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let edited = WIDE_MAP.replace("n2\tx(20)", &format!("n2\tx({cost})"));
            std::fs::write(&path, edited).unwrap();
            let (resolver, _, report) = source.load_serving_timed().unwrap();
            assert_eq!((report.path, report.bailout), (path_taken, bailout));
            assert_eq!(resolver.resolve("x", "u").unwrap().route, "n1!x!u");
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A delta that gets through its repair and then declines leaves
    /// the kept child lists as they were, and a full path that then
    /// fails leaves the cache with the generation still serving: the
    /// next cost edit takes the delta path again and serves as a cold
    /// run over the bytes on disk.
    #[test]
    fn a_declined_delta_and_a_failed_full_load_keep_the_served_generation() {
        let path = temp("declined.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        let served = cached_rendered(cache);
        let kept = || {
            let slot = cache.lock();
            slot.as_ref()
                .unwrap()
                .serving
                .as_ref()
                .unwrap()
                .mapped
                .tree
                .clone()
        };
        let before = kept();

        // x re-parents under n1: the tree is repaired in place and the
        // kept lists are patched, then both are put back when the route
        // update declines.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let first = WIDE_MAP.replace("n2\tx(20)", "n2\tx(35)");
        std::fs::write(&path, &first).unwrap();
        cache.fail_after_repair.store(true, Ordering::SeqCst);
        assert!(matches!(
            source.load_serving_timed(),
            Err(LoadError::Validation(why)) if why == "injected failure"
        ));
        assert_eq!(cache.delta_reloads(), 0);
        assert!(cache.kept_state_matches_rebuild());
        let after = kept();
        assert!(Arc::ptr_eq(after.frozen(), before.frozen()));
        assert!(after == before, "the kept tree is as it was");
        assert_eq!(
            cached_rendered(cache),
            served,
            "the old generation serves on"
        );

        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, first.replace("n1\tx(30)", "n1\tx(31)")).unwrap();
        let (resolver, _, report) = source.load_serving_timed().unwrap();
        assert_eq!((report.path, report.bailout), (LoadPath::Delta, None));
        assert!(cache.kept_state_matches_rebuild());
        let cold = MapSource::map_files(vec![path.clone()], options);
        let (cold_resolver, _, _) = cold.load_serving_timed().unwrap();
        let MapSource::Map {
            cache: cold_cache, ..
        } = &cold
        else {
            unreachable!()
        };
        assert_eq!(cached_rendered(cache), cached_rendered(cold_cache));
        for host in ["n1", "n2", "x", "y"] {
            assert_eq!(
                resolver.resolve(host, "u").unwrap().route,
                cold_resolver.resolve(host, "u").unwrap().route,
                "route to {host} differs"
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A delta reload whose moved entry turns hidden (a top-level
    /// domain that becomes a subdomain) rebuilds the database rather
    /// than patch it: the kinds the entries had are read off the old
    /// labels, swapped back into the repaired tree for the call.
    #[test]
    fn a_delta_that_hides_an_entry_serves_like_a_cold_load() {
        let path = temp("hides.map");
        // Unreached hosts keep the cone under the dirty budget.
        let filler: String = (0..40).map(|i| format!("f{i}\tf{}(1)\n", i + 1)).collect();
        let text = format!(
            "hub\ta(10), b(1)\na\t.edu(5)\nb\t.rutgers(5)\n.edu = {{.rutgers}}(0)\n{filler}"
        );
        std::fs::write(&path, &text).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let (before, _, _) = source.load_serving_timed().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, text.replace("b(1)", "b(100)")).unwrap();
        let (after, _, report) = source.load_serving_timed().unwrap();
        assert_eq!(report.path, LoadPath::Delta);
        let (cold, _, _) = MapSource::map_files(vec![path.clone()], options)
            .load_serving_timed()
            .unwrap();
        assert_eq!(before.entries(), cold.entries() + 1, ".rutgers was printed");
        assert_eq!(after.entries(), cold.entries());
        assert!(after.resolve(".rutgers", "u").is_err() && cold.resolve(".rutgers", "u").is_err());
        std::fs::remove_file(path).unwrap();
    }

    /// The transpose the repair seeds from is built once and handed
    /// to the next engine across cost edits; an edit that reshapes a
    /// row moves edge ids, and the next engine builds its own.
    #[test]
    fn only_cost_edits_carry_the_transpose() {
        let path = temp("carried.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        let costed = WIDE_MAP.replace("n2\tx(20)", "n2\tx(35)");
        let reshaped = costed.replace("n2\tx(35)", "n2\tx(35), n1(5)");
        for (text, carried) in [(&costed, true), (&reshaped, false)] {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::fs::write(&path, text).unwrap();
            let (_, engine, report) = source.load_serving_timed().unwrap();
            assert_eq!(report.path, LoadPath::Delta);
            assert_eq!(engine.unwrap().built_reverse().is_some(), carried);
            assert!(cache.kept_state_matches_rebuild());
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn non_tree_edge_edit_reuses_the_printed_table() {
        // Raising the cost of the link the tree already rejected
        // (n1->x at 30 loses to n2->x at 20) moves no label: the
        // repair proves it, the served database is carried over
        // without a route being recomputed, and only the PATH engine
        // sees new costs.
        let path = temp("delta-notree.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        let before = cached_rendered(cache);

        std::thread::sleep(std::time::Duration::from_millis(20));
        let edited = WIDE_MAP.replace("n1\tx(30)", "n1\tx(44)");
        std::fs::write(&path, &edited).unwrap();
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "the edit took the delta path");
        assert_eq!(
            cached_rendered(cache),
            before,
            "no label moved, so the served routes are yesterday's"
        );
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "n2!x!u");

        // The engine must see the new cost, not the cached graph's.
        let cold = MapSource::map_files(vec![path.clone()], options);
        let (_, cold_engine, _) = cold.load_serving_timed().unwrap();
        let (engine, cold_engine) = (engine.unwrap(), cold_engine.unwrap());
        for (s, d) in [("n1", "x"), ("n1", "y"), ("hub", "y")] {
            let (a, b) = (
                engine.route(s, d).unwrap(),
                cold_engine.route(s, d).unwrap(),
            );
            assert_eq!((a.route, a.cost), (b.route, b.cost), "PATH {s} {d} differs");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reloads_read_only_the_files_whose_stamp_moved() {
        let (one, two) = (temp("read-one.map"), temp("read-two.map"));
        std::fs::write(&one, DELTA_MAP).unwrap();
        std::fs::write(&two, "y\tz(5)\n").unwrap();
        let mut options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![one.clone(), two.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let second = || {
            let slot = cache.lock();
            let parsed = slot.as_ref().unwrap().parsed.as_ref().unwrap();
            parsed.inputs()[1].clone()
        };
        source.load_serving_timed().unwrap();
        let untouched = second();

        // A new host: the delta path declines, and the full pipeline
        // builds from its re-read, which shares the unmoved file.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&one, format!("{DELTA_MAP}q\thub(1)\n")).unwrap();
        let (_, _, report) = source.load_serving_timed().unwrap();
        assert_eq!(report.bailout, Some("first-mention sequence changed"));
        assert!(Arc::ptr_eq(&untouched, &second()));

        // A gate that declines before reading: the build still reads
        // nothing that did not move.
        options.ignore_case = true;
        let folded = MapSource::Map {
            files: vec![one.clone(), two.clone()],
            options,
            cache: cache.clone(),
        };
        let (_, _, report) = folded.load_serving_timed().unwrap();
        assert_eq!(report.bailout, Some("ignore-case changed"));
        assert!(Arc::ptr_eq(&untouched, &second()));
        std::fs::remove_file(one).unwrap();
        std::fs::remove_file(two).unwrap();
    }

    #[test]
    fn structural_edit_falls_back_to_the_full_pipeline() {
        let path = temp("delta-fallback.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();

        // A brand-new host shifts node ids: not provably safe, so the
        // plan falls back and the full pipeline serves it correctly.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("{DELTA_MAP}z\thub(1)\n")).unwrap();
        let (resolver, _, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 0, "structural edit must not delta");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "b!x!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unchanged_reload_serves_the_cached_artifacts() {
        let path = temp("delta-unchanged.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let (r1, _, _) = source.load_serving_timed().unwrap();
        // Nothing changed: the reload is absorbed entirely by the cache.
        let (r2, engine, report) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1);
        assert_eq!(report.phases.map, std::time::Duration::ZERO, "no remap ran");
        assert!(engine.is_some(), "PATH keeps working across a no-op reload");
        assert_eq!(
            r1.resolve("y", "u").unwrap().route,
            r2.resolve("y", "u").unwrap().route
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn comment_only_edit_is_absorbed_without_remap() {
        let path = temp("delta-comment.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("# a comment\n{DELTA_MAP}")).unwrap();
        let (resolver, _, report) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "comment edit absorbed as a delta");
        assert_eq!(report.phases.map, std::time::Duration::ZERO, "no remap ran");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "b!x!u");
        std::fs::remove_file(path).unwrap();
    }

    /// Freezes `map` to a `.pagf`, with a hierarchy over the cost
    /// model's lower bounds plus `skew` on every edge when `skew` is
    /// given, as `freeze --ch` would (at a skew of 0).
    fn snapshot_with(tag: &str, map: &str, options: &Options, skew: Option<u64>) -> PathBuf {
        let mut parsed = Parsed::new();
        parsed.push_str("map", map);
        let mut frozen = parsed.build(options).unwrap().freeze();
        if let Some(skew) = skew {
            let g = frozen.graph().clone();
            let weights: Vec<_> = ch_weights(&g, &options.cost_model)
                .into_iter()
                .map(|w| w + skew)
                .collect();
            frozen = frozen.with_hierarchy(Arc::new(ChIndex::build(&g, &weights)));
        }
        let path = temp(tag);
        frozen.write_snapshot_all(&path).unwrap();
        path
    }

    #[test]
    fn loads_say_what_became_of_the_hierarchy() {
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        // `stray` reaches unc but nothing reaches `stray`: mapping from
        // unc invents a back link, and the graph is no longer the one
        // the hierarchy was built over.
        let stray = format!("{MAP}stray\tunc(10)\n");
        let cases = [
            ("ch-none.pagf", MAP, None, HierarchyOutcome::None),
            ("ch-stored.pagf", MAP, Some(0), HierarchyOutcome::Stored),
            ("ch-rejected.pagf", MAP, Some(1), HierarchyOutcome::Rejected),
            (
                "ch-rebuilt.pagf",
                &stray,
                Some(0),
                HierarchyOutcome::Rebuilt,
            ),
        ];
        for (tag, map, skew, want) in cases {
            let path = snapshot_with(tag, map, &options, skew);
            let source = MapSource::frozen_snapshot(path.clone(), options.clone());
            let (_, engine, report) = source.load_serving_timed().unwrap();
            assert_eq!(report.hierarchy, want, "{tag}");
            let serves = matches!(want, HierarchyOutcome::Stored | HierarchyOutcome::Rebuilt);
            assert_eq!(engine.unwrap().hierarchy().is_some(), serves, "{tag}");
            assert_eq!(
                report.hierarchy_build.is_zero(),
                want != HierarchyOutcome::Rebuilt,
                "{tag}"
            );
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn a_hierarchy_over_the_first_hosts_back_links_loads_as_stored() {
        // Nothing reaches `stray` or `lone`: mapping from unc, the
        // first host, invents unc -> stray and duke -> lone; from
        // stray, only the second.
        let strays = format!("{MAP}stray\tunc(10)\nlone\tduke(5)\n");
        let mut parsed = Parsed::new();
        parsed.push_str("map", &strays);
        let defaults = Options::default();
        let frozen = parsed.build(&defaults).unwrap().freeze();
        let frozen = frozen.with_served_hierarchy(&defaults);
        let over = frozen.hierarchy_graph().unwrap();
        assert_eq!(over.edge_count(), frozen.graph().edge_count() + 2);
        let path = temp("ch-served.pagf");
        frozen.write_snapshot_all(&path).unwrap();
        // Bits 1 and 2, and no reverse index (bit 0): no load reads
        // the bare graph's transpose.
        let bytes = std::fs::read(&path).unwrap();
        let sections = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        assert_eq!(sections, 0b110);
        assert!(Frozen::from_snapshot(&path)
            .unwrap()
            .reverse_index()
            .is_none());
        let map_path = temp("ch-served.map");
        std::fs::write(&map_path, &strays).unwrap();

        let hosts = ["unc", "duke", "phs", "research", "stray", "lone"];
        for (local, want) in [
            ("unc", HierarchyOutcome::Stored),
            ("stray", HierarchyOutcome::Rebuilt),
        ] {
            let options = Options {
                local: Some(local.into()),
                ..Default::default()
            };
            let source = MapSource::frozen_snapshot(path.clone(), options.clone());
            let (_, engine, report) = source.load_serving_timed().unwrap();
            assert_eq!(report.hierarchy, want, "-l {local}");
            assert_eq!(
                report.hierarchy_build.is_zero(),
                want == HierarchyOutcome::Stored,
                "-l {local}"
            );
            let engine = engine.unwrap();
            assert!(engine.hierarchy().is_some(), "-l {local}");
            let plain = MapSource::map_files(vec![map_path.clone()], options);
            let plain = plain.load_serving_timed().unwrap().1.unwrap();
            for src in hosts {
                for dst in hosts {
                    assert_eq!(
                        format!("{:?}", engine.route(src, dst)),
                        format!("{:?}", plain.route(src, dst)),
                        "-l {local}: PATH {src} {dst}"
                    );
                }
            }
        }

        // A flipped byte in the back-link section, which ends the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            MapSource::frozen_snapshot(path.clone(), Options::default()).load_serving_timed(),
            Err(LoadError::Snapshot(SnapshotError::Corrupt(_)))
        ));
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(map_path).unwrap();
    }

    #[test]
    fn a_delta_reload_reports_the_hierarchy_it_drops() {
        let path = temp("delta-dropped.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let (_, _, report) = source.load_serving_timed().unwrap();
        assert_eq!(report.hierarchy, HierarchyOutcome::None);
        // Map files never carry a hierarchy; hand the cached serving
        // state one, as a source that did would have.
        {
            let mut slot = cache.lock();
            let serving = slot.as_mut().unwrap().serving.as_mut().unwrap();
            let graph = serving.engine.graph().clone();
            serving.engine = Arc::new(PointToPoint::with_fresh_hierarchy(
                graph,
                options.cost_model,
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, WIDE_MAP.replace("n2\tx(20)", "n2\tx(35)")).unwrap();
        let (_, engine, report) = source.load_serving_timed().unwrap();
        assert_eq!(report.path, LoadPath::Delta);
        assert_eq!(report.hierarchy, HierarchyOutcome::Dropped);
        assert!(engine.unwrap().hierarchy().is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn watch_paths_cover_every_shape() {
        let p = PathBuf::from("/tmp/x");
        assert_eq!(MapSource::Padb(p.clone()).watch_paths(), vec![p.clone()]);
        assert_eq!(
            MapSource::PadbMmap(p.clone()).watch_paths(),
            vec![p.clone()]
        );
        assert_eq!(MapSource::Routes(p.clone()).watch_paths(), vec![p.clone()]);
        assert_eq!(
            MapSource::frozen_snapshot(p.clone(), Options::default()).watch_paths(),
            vec![p.clone()]
        );
        let m = MapSource::map_files(vec![p.clone(), p.clone()], Options::default());
        assert_eq!(m.watch_paths().len(), 2);
    }
}
