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
    repair_frozen, update_routes, DeltaPlan, EdgeShift, Frozen, FrozenGraph, MapOptions, Mapped,
    NodeId, Options, Parsed, PhaseTimings, RouteTable, RowPatch, SnapshotError,
};
use pathalias_mailer::{
    disk::DiskError, disk::MappedDb, BoxedResolver, DbError, RouteDb, SharedRouteDb,
};
use pathalias_router::PointToPoint;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// The snapshot carried one, but mapping invented back links, so
    /// it was rebuilt over the augmented graph.
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
    /// How many file texts the delta planner scanned: the changed
    /// file, old and new, plus any file it had no outline of yet.
    pub files_scanned: usize,
    /// Building (or patching) the in-memory route database.
    pub routedb: Duration,
    /// Building the point-to-point engine, unless `hierarchy_build`
    /// covers it.
    pub engine: Duration,
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
}

struct CachedStages {
    fingerprint: Fingerprint,
    ignore_case: bool,
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
    mapped: Mapped,
    /// The route table `db` was built from. Only the reload path reads
    /// it, under the stage-cache lock, so a delta reload rewrites the
    /// entries that moved in place; nothing renders it.
    routes: RouteTable,
    /// The resolver handle served from `routes` (an `Arc` wrapper —
    /// cloning is a refcount bump, so a reload whose inputs did not
    /// change at all serves the cached table directly).
    db: SharedRouteDb,
    /// The point-to-point engine over `mapped.tree`'s graph.
    engine: Arc<PointToPoint>,
}

impl StageCache {
    /// The cached frozen snapshot, if any (used by tests to observe
    /// stage reuse).
    pub fn snapshot(&self) -> Option<Arc<FrozenGraph>> {
        self.slot
            .lock()
            .expect("stage cache poisoned")
            .as_ref()
            .map(|c| c.frozen.graph().clone())
    }

    /// A copy of the route table the cached serving state answers
    /// from (used by tests to compare it with a cold run's).
    pub fn routes(&self) -> Option<RouteTable> {
        let slot = self.slot.lock().expect("stage cache poisoned");
        Some(slot.as_ref()?.serving.as_ref()?.routes.clone())
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
        let filled = self.slot.lock().map(|c| c.is_some()).unwrap_or(false);
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
                Ok(Box::new(SharedRouteDb::new(RouteDb::from_entries(entries))))
            }),
            MapSource::PadbMmap(path) => table_only(|| Ok(Box::new(MappedDb::open(path)?))),
            MapSource::Routes(path) => table_only(|| {
                let text = std::fs::read_to_string(path)?;
                let db = RouteDb::from_output(&text).map_err(LoadError::Db)?;
                Ok(Box::new(SharedRouteDb::new(db)))
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
                let (frozen, phases) = frozen_stage(files, options, cache, reread)?;
                let mut report = LoadReport {
                    bailout: Some(bailout),
                    phases,
                    files_scanned,
                    ..LoadReport::default()
                };
                let (db, engine, mapped, routes) = map_print_engine(&frozen, options, &mut report)?;
                has_hosts(frozen.graph())?;
                // Remember the serving artifacts so the next reload can
                // repair them incrementally.
                if let Some(cached) = cache.slot.lock().expect("stage cache poisoned").as_mut() {
                    cached.serving = Some(ServingState {
                        options: options.clone(),
                        mapped,
                        routes,
                        db: db.clone(),
                        engine: engine.clone(),
                    });
                }
                Ok((Box::new(db), Some(engine), report))
            }
        }
    }
}

/// A table-only load: no graph, hence no engine, and the whole ingest
/// timed as the `parse` phase.
fn table_only(
    load: impl FnOnce() -> Result<BoxedResolver, LoadError>,
) -> Result<ServingParts, LoadError> {
    let t0 = Instant::now();
    let resolver = load()?;
    let mut report = LoadReport::default();
    report.phases.parse = t0.elapsed();
    Ok((resolver, None, report))
}

/// The map stage, the route table (computed, not rendered), the
/// database served from it and the point-to-point engine over the
/// mapped tree's augmented graph. The engine and the table come from
/// the *same* mapping run, so they can never disagree about what the
/// world looks like.
fn map_print_engine(
    frozen: &Frozen,
    options: &Options,
    report: &mut LoadReport,
) -> Result<(SharedRouteDb, Arc<PointToPoint>, Mapped, RouteTable), LoadError> {
    let t0 = Instant::now();
    let mapped = frozen.map(options).map_err(LoadError::Pipeline)?;
    report.phases.map = t0.elapsed();
    report.backlink_restarts = mapped.tree.stats.restarted_rounds;
    let t0 = Instant::now();
    let routes = mapped.routes();
    report.phases.print = t0.elapsed();
    let t0 = Instant::now();
    let aug = mapped.tree.frozen().clone();
    let model = options.cost_model;
    // Back-link invention replaces the snapshot graph; only when the
    // tree still points at the very same graph are the stored sections
    // (transpose, hierarchy) valid. A stage that carried a hierarchy is
    // an operator opt-in (`freeze --ch`), so when back links changed
    // the graph the hierarchy is rebuilt over the augmented snapshot
    // rather than silently lost.
    let stored = frozen.hierarchy();
    let engine = if Arc::ptr_eq(&aug, frozen.graph()) {
        let engine = match frozen.reverse_index() {
            Some(rev) => PointToPoint::with_sections(aug, rev.clone(), stored.cloned(), model),
            None => PointToPoint::new(aug, model),
        };
        report.hierarchy = match (stored, engine.hierarchy()) {
            (None, _) => HierarchyOutcome::None,
            (Some(_), Some(_)) => HierarchyOutcome::Stored,
            (Some(_), None) => HierarchyOutcome::Rejected,
        };
        engine
    } else if stored.is_some() {
        let t1 = Instant::now();
        let engine = PointToPoint::with_fresh_hierarchy(aug, model);
        report.hierarchy_build = t1.elapsed();
        report.hierarchy = HierarchyOutcome::Rebuilt;
        engine
    } else {
        PointToPoint::new(aug, model)
    };
    report.engine = t0.elapsed() - report.hierarchy_build;
    // The database last: the engine's build scratch is freed by now.
    let t0 = Instant::now();
    let db = SharedRouteDb::new(RouteDb::from_table(&routes));
    report.routedb = t0.elapsed();
    Ok((db, Arc::new(engine), mapped, routes))
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
/// cached inputs, patch the frozen CSR rows the edit touched
/// ([`pathalias_core::delta`] proves which edits are safe), repair the
/// shortest-path tree from the patched rows outward
/// ([`repair_frozen`]), rewrite in place only the route-table entries
/// whose labels moved ([`update_routes`]), and patch the database's
/// shards that hold them ([`RouteDb::patched`]). Nothing is rendered
/// and nothing table-sized is copied. Every gate failure returns
/// `Ok(Err(declined))` and the caller falls back to the full pipeline —
/// the full run stays the oracle, the delta path only ever reproduces
/// it faster.
///
/// One conservative drop on this path, because "stale index answers
/// queries wrongly" beats "reload is slower": the point-to-point
/// engine is rebuilt over the repaired tree's graph without a
/// contraction hierarchy — a CH is cost-dependent and serving
/// yesterday's hierarchy across a cost change would return wrong
/// `PATH` answers (the report says `dropped` when the replaced engine
/// carried one).
fn try_delta_reload(
    files: &[PathBuf],
    options: &Options,
    cache: &StageCache,
) -> Result<Result<ServingParts, Declined>, LoadError> {
    // Only the plain serve configuration repairs: traces print
    // per-relaxation output a repair would truncate, and the
    // second-best dual has no incremental form.
    if !options.trace.is_empty() || options.second_best {
        return Ok(Err(("trace or second-best requested", None, 0)));
    }
    let fp = fingerprint(files)?;
    let mut slot = cache.slot.lock().expect("stage cache poisoned");
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
    let t0 = Instant::now();
    let (plan, scanned) = parsed.plan_delta(&reread.parsed, cached.frozen.graph());
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

    // Patch the base snapshot. No build phase on this path: the
    // patches splice straight into the CSR.
    let t0 = Instant::now();
    let (new_frozen, base_shift) = cached.frozen.with_rows_replaced(&patches);
    report.phases.freeze = t0.elapsed();
    let dirty: Vec<NodeId> = patches.iter().map(|p| p.node).collect();
    let map_opts = MapOptions {
        model: options.cost_model,
        trace: Vec::new(),
        exclude_domains: false,
        no_backlinks: options.no_backlinks,
    };

    // Repair the tree over whichever graph it actually runs on. When
    // the previous mapping invented no back links the tree points at
    // the base snapshot itself; otherwise it runs over an augmented
    // snapshot (base plus invented BACK rows) that has to be patched
    // with the same care.
    let old_tree = &serving.mapped.tree;
    let t0 = Instant::now();
    let (graph, shift) = if Arc::ptr_eq(old_tree.frozen(), cached.frozen.graph()) {
        (new_frozen.graph().clone(), base_shift)
    } else {
        let Some(augmented) = patch_augmented(old_tree.frozen(), cached.frozen.graph(), &patches)
        else {
            return Ok(Err((
                "invented back links depend on the edit",
                Some(reread),
                scanned,
            )));
        };
        augmented
    };
    let Ok(Some(new_tree)) = repair_frozen(
        old_tree,
        &old_tree.children(),
        &graph,
        &dirty,
        &shift,
        &map_opts,
        DELTA_MAX_DIRTY_FRACTION,
    ) else {
        return Ok(Err(("tree repair declined", Some(reread), scanned)));
    };
    report.phases.map = t0.elapsed();

    // Recompute routes only for nodes whose label moved. A label is
    // unmoved when every route-relevant field matches and its
    // predecessor is the same physical edge (old edge ids read through
    // the shift; an edge inside a replaced row never matches).
    let t0 = Instant::now();
    let mut changed: Vec<NodeId> = Vec::new();
    for id in new_tree.frozen().node_ids() {
        let same = match (old_tree.label(id), new_tree.label(id)) {
            (None, None) => true,
            (Some(o), Some(n)) => {
                o.cost == n.cost
                    && o.hops == n.hops
                    && o.has_left == n.has_left
                    && o.has_right == n.has_right
                    && o.tainted == n.tainted
                    && o.via_backlink == n.via_backlink
                    && o.ambiguous == n.ambiguous
                    && match (o.pred, n.pred) {
                        (None, None) => true,
                        (Some((op, oe)), Some((np, ne))) => op == np && shift.map(oe) == Some(ne),
                        _ => false,
                    }
            }
            _ => false,
        };
        if !same {
            changed.push(id);
        }
    }
    // `update_routes` checks before it writes, so a refusal leaves the
    // cached table as it was for the full pipeline to replace.
    let serving = cached.serving.as_mut().expect("checked above");
    let Some(replaced) = update_routes(&new_tree, &mut serving.routes, &changed) else {
        return Ok(Err(("route table does not line up", Some(reread), scanned)));
    };
    report.phases.print = t0.elapsed();

    // The edit moved `replaced.len()` routes (none, when it retuned a
    // link the tree does not use): the next database shares every
    // shard but theirs. Only a route that changed its name or its
    // visibility forces a fresh build.
    let t0 = Instant::now();
    let db = serving
        .db
        .patched(&serving.routes, &replaced)
        .unwrap_or_else(|| RouteDb::from_table(&serving.routes));
    serving.db = SharedRouteDb::new(db);
    report.routedb = t0.elapsed();
    // `PATH` answers read edge costs the tree never looked at, so the
    // engine is rebuilt whatever the edit moved.
    if serving.engine.hierarchy().is_some() {
        report.hierarchy = HierarchyOutcome::Dropped;
    }
    let t0 = Instant::now();
    serving.engine = Arc::new(PointToPoint::new(
        new_tree.frozen().clone(),
        options.cost_model,
    ));
    report.engine = t0.elapsed();
    serving.mapped = Mapped {
        tree: new_tree,
        dual: None,
        map_time: report.phases.map,
    };
    Ok(Ok(commit(
        cached,
        cache,
        Some(reread),
        Some(new_frozen),
        report,
    )))
}

/// The delta path's one commit step: adopt what the reload read and
/// built — the new stamps and texts if any file moved, the patched
/// snapshot if the edit changed the world — count the reload, and
/// serve what the cache now holds.
fn commit(
    cached: &mut CachedStages,
    cache: &StageCache,
    reread: Option<Reread>,
    frozen: Option<Frozen>,
    report: LoadReport,
) -> ServingParts {
    if let Some(reread) = reread {
        cached.fingerprint = reread.fingerprint;
        cached.parsed = Some(reread.parsed);
    }
    if let Some(frozen) = frozen {
        cached.frozen = frozen;
    }
    let serving = cached.serving.as_ref().expect("the delta path checked");
    cache.delta_reloads.fetch_add(1, Ordering::Relaxed);
    let resolver: BoxedResolver = Box::new(serving.db.clone());
    (resolver, Some(serving.engine.clone()), report)
}

/// Applies `patches` (planned against the *base* snapshot) to the
/// augmented graph `aug` the previous mapping run produced — base rows
/// plus an invented BACK tail appended per row. Returns the patched
/// augmented graph and its edge shift, or `None` when the edit is not
/// provably safe there:
///
/// * a patch that changes a row's shape (targets, operators or flags,
///   not just costs) could add or remove reachability the invented
///   links were computed from;
/// * an invented link *targeting* a dirty node had its cost derived
///   from that node's row — stale after the edit.
fn patch_augmented(
    aug: &Arc<FrozenGraph>,
    base: &Arc<FrozenGraph>,
    patches: &[RowPatch],
) -> Option<(Arc<FrozenGraph>, EdgeShift)> {
    let is_dirty = |node: NodeId| patches.binary_search_by(|p| p.node.cmp(&node)).is_ok();
    let mut aug_patches = Vec::with_capacity(patches.len());
    for p in patches {
        let (_, base_row) = base.edge_slice(p.node);
        // Cost-only: the new row must keep the old shape.
        if base_row.len() != p.edges.len() {
            return None;
        }
        for (old, new) in base_row.iter().zip(&p.edges) {
            if old.to() != new.0 || old.op() != new.2 || old.flags() != new.3 {
                return None;
            }
        }
        // Rebuild the augmented row: the patched base row, then the
        // invented tail exactly as it stands.
        let mut edges = p.edges.clone();
        for e in aug.out_edges(p.node).skip(base_row.len()) {
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
    // Any invented link pointing *at* a dirty node is stale.
    for id in aug.node_ids() {
        let base_len = base.degree(id);
        for e in aug.out_edges(id).skip(base_len) {
            if is_dirty(aug.edge_target(e)) {
                return None;
            }
        }
    }
    let (patched, shift) = aug.with_rows_replaced(&aug_patches);
    Some((Arc::new(patched), shift))
}

/// The parse/build/freeze stages for a map-file source, reusing the
/// cached snapshot when the files' fingerprint is unchanged (the
/// "reload with only mapping options changed" fast path). The build
/// reads the inputs the delta path already re-read, when it got that
/// far, and otherwise only the files whose stamp moved. The returned
/// timings cover the stages that actually ran — all zero on a cache
/// hit.
fn frozen_stage(
    files: &[PathBuf],
    options: &Options,
    cache: &StageCache,
    reread: Option<Reread>,
) -> Result<(Frozen, PhaseTimings), LoadError> {
    let mut slot = cache.slot.lock().expect("stage cache poisoned");
    let reread = match reread {
        Some(reread) => reread,
        None => {
            let fp = fingerprint(files)?;
            if let Some(cached) = slot.as_ref() {
                // `ignore_case` is the one option the build stage
                // depends on.
                if cached.fingerprint == fp && cached.ignore_case == options.ignore_case {
                    return Ok((cached.frozen.clone(), PhaseTimings::default()));
                }
            }
            Reread::of(files, fp, slot.as_ref())?
        }
    };
    let Reread {
        fingerprint: fp,
        parsed,
        took,
    } = reread;
    let mut timings = PhaseTimings {
        parse: took,
        ..PhaseTimings::default()
    };
    let built = parsed.build(options).map_err(LoadError::Pipeline)?;
    timings.build = built.build_time;
    let frozen = built.freeze();
    timings.freeze = frozen.freeze_time;
    *slot = Some(CachedStages {
        fingerprint: fp,
        ignore_case: options.ignore_case,
        frozen: frozen.clone(),
        parsed: Some(parsed),
        serving: None,
    });
    Ok((frozen, timings))
}

/// The frozen stage for a snapshot source: re-read the `.pagf` file
/// only when its fingerprint changed, so a `RELOAD` with an unchanged
/// snapshot re-enters at the map stage just like the map-file path.
/// A fresh read reports its load time as the `freeze` phase; a cache
/// hit reports zero.
fn snapshot_stage(path: &PathBuf, cache: &StageCache) -> Result<(Frozen, PhaseTimings), LoadError> {
    let fp = fingerprint(std::iter::once(path))?;
    let mut slot = cache.slot.lock().expect("stage cache poisoned");
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

    /// The rendered route text the cache is currently serving (delta
    /// tests compare it byte-for-byte against a cold pipeline).
    fn cached_rendered(cache: &StageCache) -> String {
        let slot = cache.slot.lock().unwrap();
        let serving = slot.as_ref().and_then(|c| c.serving.as_ref());
        let serving = serving.expect("serving state cached");
        pathalias_core::render(&serving.routes, &serving.options.print_options())
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

    #[test]
    fn non_tree_edge_edit_reuses_the_printed_table() {
        // Raising the cost of the link the tree already rejected
        // (n1->x at 30 loses to n2->x at 20) moves no label: the
        // repair proves it, the printed table is carried over without
        // being recomputed, and only the PATH engine sees new costs.
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
            "no label moved, so the printed table is yesterday's"
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
            let slot = cache.slot.lock().unwrap();
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
            let mut slot = cache.slot.lock().unwrap();
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
