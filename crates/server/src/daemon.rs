//! The daemon: listeners, the serving core, and request dispatch.
//!
//! On unix the serving core is a fixed pool of event-loop workers
//! (the `event` module): each worker multiplexes its connections —
//! thousands of mostly-idle mailers, in the C10K shape — over one
//! epoll/kqueue poller, with `SO_REUSEPORT` listener shards spreading
//! the accept load across workers and a UDP endpoint answering
//! single-shot queries. There is no daemon on other platforms:
//! [`Server::start`] reports `Unsupported` there, while the batch
//! program and the client build everywhere.
//!
//! The daemon serves one or more named **maps** (real sites ran many
//! overlapping worlds: the regional UUCP map, the global map, local
//! overrides). Each namespace gets its own [`MapSource`], its own
//! [`Cached<BoxedResolver>`] snapshot + LRU
//! cache, its own counters, its own reload lock. Requests carry an
//! optional `@name` qualifier (protocol v2); unqualified requests go
//! to the configured default map, so a single-map daemon — and any v1
//! session — behaves byte-for-byte as it always has.
//!
//! `RELOAD [@name]` runs on a throwaway thread under that map's lock
//! (one rebuild per map at a time; different maps may rebuild
//! concurrently) while the event loop parks the requesting connection;
//! every other connection keeps answering queries from the old
//! snapshot until the atomic swap, so a reload never drops or delays
//! in-flight traffic — on any map.
//!
//! Each connection starts in protocol v1 and may negotiate v2 with
//! `PROTO 2`, unlocking `MQUERY` (batched queries, one flush per
//! batch), `MAPS`/`@name` (namespaces), and `SHUTDOWN` (drain and
//! exit). A v1 session is byte-for-byte the PR-1 protocol.

use crate::index::{Cached, RouteIndex};
use crate::metrics::{bump, Metrics, ServerMetrics};
use crate::protocol::{Request, Response};
use crate::reload::MapSource;
use crate::telemetry::{duration_ns, render_slow_entry, MapTelemetry};
use pathalias_mailer::{BoxedResolver, ResolveError, Resolver};
use pathalias_router::{PointToPoint, RouteError, SearchStats};
use pathalias_telemetry::{Logger, PromText, SlowEntry};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The namespace a single-source config serves under.
pub const DEFAULT_MAP_NAME: &str = "default";

/// A map name the wire format can carry: `@name` is one token and
/// `maps=a,b,c` is comma-joined, so names must be non-empty and free
/// of whitespace, `,` and `@`.
pub fn valid_map_name(name: &str) -> bool {
    !name.is_empty() && !name.contains(|c: char| c.is_whitespace() || c == ',' || c == '@')
}

/// What to serve and where to listen.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The named maps to serve, in declaration order (shown by
    /// `MAPS`). Names must satisfy [`valid_map_name`] and be unique.
    pub maps: Vec<(String, MapSource)>,
    /// The namespace unqualified requests go to; `None` means the
    /// first entry of `maps`.
    pub default_map: Option<String>,
    /// TCP listen address, e.g. `127.0.0.1:4175` (port 0 = ephemeral).
    /// `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path. `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// UDP listen address for single-shot datagram queries (port 0 =
    /// ephemeral). `None` disables the UDP endpoint.
    pub udp: Option<String>,
    /// Event-loop worker threads. `None` means one per core, capped
    /// at 8.
    pub workers: Option<usize>,
    /// Total entries across one map's lookup-cache shards (each map
    /// gets its own cache of this size).
    pub cache_capacity: usize,
    /// Per-map overrides of [`ServerConfig::cache_capacity`], keyed by
    /// map name (`--map-set NAME=KIND:PATHS:cache=N`). Every name must
    /// be in `maps`; unnamed maps use the shared default.
    pub cache_capacities: Vec<(String, usize)>,
    /// Number of cache shards per map.
    pub cache_shards: usize,
    /// Poll every map's source files at this interval and reload a map
    /// when its fingerprint changes (`serve --watch`). `None` disables
    /// the watcher; `RELOAD` over the wire always works.
    pub watch: Option<Duration>,
    /// Where structured log lines go and above which level they are
    /// dropped. The `ephemeral*` constructors use [`Logger::off`] —
    /// an embedded or test server stays silent; the CLI daemon passes
    /// [`Logger::from_env`], which writes `key=value` lines to stderr
    /// at the `PATHALIAS_LOG` level.
    pub logger: Logger,
}

impl ServerConfig {
    /// A TCP-only config on an ephemeral loopback port with default
    /// cache sizing, serving `source` as the single map
    /// [`DEFAULT_MAP_NAME`] — what tests and examples want.
    pub fn ephemeral(source: MapSource) -> ServerConfig {
        ServerConfig::ephemeral_set(vec![(DEFAULT_MAP_NAME.to_string(), source)])
    }

    /// A TCP-only config on an ephemeral loopback port serving a whole
    /// map set; the first entry is the default namespace.
    pub fn ephemeral_set(maps: Vec<(String, MapSource)>) -> ServerConfig {
        ServerConfig {
            maps,
            default_map: None,
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
            udp: None,
            workers: None,
            cache_capacity: 4096,
            cache_capacities: Vec::new(),
            cache_shards: 8,
            watch: None,
            logger: Logger::off(),
        }
    }
}

/// One served namespace: a source, its serving snapshot + cache, and
/// its counters.
pub(crate) struct MapState {
    name: String,
    source: MapSource,
    cached: Cached<BoxedResolver>,
    metrics: Arc<Metrics>,
    /// Latency histograms, slow-query log, and reload phase timings
    /// for this map (`METRICS` / `SLOWLOG`).
    telemetry: MapTelemetry,
    /// The point-to-point engine (`PATH`), built from the *same*
    /// mapping run as the serving table so `PATH home x` can never
    /// disagree with `QUERY x`. `None` on table-only backends
    /// (`routes`, `padb`, `padb-mmap`), which have no frozen graph.
    /// Swapped together with the snapshot on reload; requests clone
    /// the `Arc` under a brief lock and search lock-free.
    engine: Mutex<Option<Arc<PointToPoint>>>,
    /// Serializes rebuilds of *this* map; queries never take it, and
    /// other maps reload independently.
    reload_lock: Mutex<()>,
}

impl MapState {
    /// The current engine, if this map's backend carries one.
    fn engine(&self) -> Option<Arc<PointToPoint>> {
        self.engine.lock().expect("engine lock poisoned").clone()
    }
}

/// What a reload's swap displaced: the previous table generation and
/// engine. Freeing a large table takes tens of milliseconds, so the
/// caller drops this outside every lock and after the reply is built.
pub(crate) type Displaced = Option<(Arc<RouteIndex<BoxedResolver>>, Option<Arc<PointToPoint>>)>;

/// Shared daemon state.
pub(crate) struct State {
    /// The served maps, in declaration order.
    maps: Vec<Arc<MapState>>,
    /// Index into `maps` of the default namespace.
    default_map: usize,
    pub(crate) server_metrics: Arc<ServerMetrics>,
    /// Structured logger shared by every daemon thread.
    pub(crate) logger: Logger,
    /// Source of per-connection ids for log correlation.
    pub(crate) next_conn_id: AtomicU64,
    shutting_down: AtomicBool,
    /// The event-loop workers' shared handles: per-worker gauges for
    /// `METRICS` and the wake pipes a shutdown pokes (filled in by
    /// `Server::start` before the workers spawn).
    #[cfg(unix)]
    workers: Mutex<Vec<Arc<crate::event::WorkerShared>>>,
}

impl State {
    /// Whether a shutdown or drain has begun.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
    /// The namespace a request targets: the default map when
    /// unqualified, else a lookup by name. The map count is a handful,
    /// so a linear scan beats a hash map here.
    pub(crate) fn map_named(&self, name: Option<&str>) -> Result<&Arc<MapState>, Response> {
        match name {
            None => Ok(&self.maps[self.default_map]),
            Some(n) => self
                .maps
                .iter()
                .find(|m| m.name == n)
                .ok_or_else(|| Response::BadRequest(format!("unknown map `{n}`"))),
        }
    }

    /// Resolves one query against one map to its wire response.
    fn respond_query(&self, map: &MapState, host: &str, user: Option<&str>) -> Response {
        let user = user.unwrap_or("%s");
        match map.cached.resolve(host, user) {
            Ok(resolution) => Response::Route(resolution.route),
            Err(ResolveError::NoRoute) => Response::NoRoute(host.to_string()),
            Err(e) => Response::Failure(format!("resolve failed: {e}")),
        }
    }

    /// Resolves one `PATH` request against one map. `src == "*"` lists
    /// the one-hop predecessors of `dst` from the reverse index;
    /// otherwise it is a point-to-point query, answered from the
    /// source's kept tree or by the search tiers. `wire_name` is echoed
    /// in the response for qualified requests. Also returns the slow
    /// log's outcome tag, which for an answered query names the stage
    /// that answered.
    fn respond_path(
        &self,
        map: &MapState,
        src: &str,
        dst: &str,
        wire_name: Option<String>,
    ) -> (Response, &'static str) {
        let plain = |resp: Response| {
            let outcome = outcome_of(&resp);
            (resp, outcome)
        };
        let Some(engine) = map.engine() else {
            return plain(Response::Failure(format!(
                "PATH unsupported on backend `{}`: no frozen graph",
                map.source.kind()
            )));
        };
        if src == "*" {
            return plain(match engine.via(dst) {
                Ok(entries) => Response::Via {
                    map: wire_name,
                    dst: dst.to_string(),
                    entries: entries
                        .iter()
                        .map(|v| (engine.graph().name(v.node).to_string(), v.cost))
                        .collect(),
                },
                Err(RouteError::UnknownDest(_)) => Response::NoRoute(dst.to_string()),
                Err(e) => Response::Failure(format!("via failed: {e}")),
            });
        }
        match engine.route_with_stats(src, dst) {
            Ok((answer, stats)) => {
                if stats.tried_ch {
                    if stats.ch_certified {
                        bump(&map.metrics.path_ch_certified);
                    } else {
                        bump(&map.metrics.path_ch_fallbacks);
                    }
                }
                match stats.tree_build_us {
                    Some(build_us) => {
                        bump(&map.metrics.path_tree_builds);
                        self.logger
                            .debug("path_tree_built")
                            .field("map", &map.name)
                            .field("source", src)
                            .field("nodes", stats.settled)
                            .field("build_us", build_us)
                            .emit();
                    }
                    None if stats.from_tree => bump(&map.metrics.path_tree_hits),
                    None => {}
                }
                let resp = Response::Path {
                    map: wire_name,
                    cost: answer.cost,
                    hops: answer.hops,
                    route: answer.route,
                };
                (resp, path_outcome(&stats))
            }
            // Matches QUERY: an unreachable or unknown destination is
            // the expected negative answer, not a client error.
            Err(RouteError::NoRoute | RouteError::UnknownDest(_)) => {
                plain(Response::NoRoute(dst.to_string()))
            }
            // A bad *source* is the caller's mistake, not a missing
            // route: 400 with the engine's own message.
            Err(e @ (RouteError::UnknownSource(_) | RouteError::DeletedSource)) => {
                plain(Response::BadRequest(e.to_string()))
            }
        }
    }

    /// Handles one parsed request, producing the ordered response
    /// lines (one for most verbs, N for `MQUERY`). Protocol-level;
    /// transport-agnostic.
    pub(crate) fn respond(self: &Arc<Self>, req: Request) -> Vec<Response> {
        match req {
            Request::Query { map, host, user } => {
                let map = match self.map_named(map.as_deref()) {
                    Ok(m) => m,
                    Err(resp) => return vec![resp],
                };
                let start = Instant::now();
                let resp = self.respond_query(map, &host, user.as_deref());
                let ns = duration_ns(start.elapsed());
                map.telemetry.query.record(ns);
                map.telemetry
                    .observe_slow("QUERY", &map.name, &host, ns, outcome_of(&resp));
                vec![resp]
            }
            Request::MultiQuery { map, queries } => {
                let map = match self.map_named(map.as_deref()) {
                    Ok(m) => m,
                    // The batch contract is one response line per
                    // query token — a client counts on exactly N lines
                    // coming back. An unknown map must therefore fail
                    // every slot, not collapse the batch to one line.
                    Err(resp) => return queries.iter().map(|_| resp.clone()).collect(),
                };
                // Pin one snapshot for the whole batch: a reload
                // mid-batch must not make line 7 answer from a newer
                // table than line 3.
                let batch_start = Instant::now();
                let snapshot = map.cached.snapshot();
                let responses: Vec<Response> = queries
                    .iter()
                    .map(|(host, user)| {
                        let user = user.as_deref().unwrap_or("%s");
                        let start = Instant::now();
                        let resp = match map.cached.resolve_at(&snapshot, host, user) {
                            Ok(resolution) => Response::Route(resolution.route),
                            Err(ResolveError::NoRoute) => Response::NoRoute(host.clone()),
                            Err(e) => Response::Failure(format!("resolve failed: {e}")),
                        };
                        let ns = duration_ns(start.elapsed());
                        map.telemetry.mquery_item.record(ns);
                        map.telemetry.observe_slow(
                            "MQUERY",
                            &map.name,
                            host,
                            ns,
                            outcome_of(&resp),
                        );
                        resp
                    })
                    .collect();
                map.telemetry
                    .mquery_batch
                    .record(duration_ns(batch_start.elapsed()));
                responses
            }
            Request::Path { map, src, dst } => {
                let state = match self.map_named(map.as_deref()) {
                    Ok(m) => m,
                    Err(resp) => return vec![resp],
                };
                let start = Instant::now();
                let (resp, outcome) = self.respond_path(state, &src, &dst, map);
                let ns = duration_ns(start.elapsed());
                state.telemetry.path.record(ns);
                // The slow-log host column carries the whole question:
                // `src>dst` splits nowhere a key=value parser cares.
                let endpoints = format!("{src}>{dst}");
                state
                    .telemetry
                    .observe_slow("PATH", &state.name, &endpoints, ns, outcome);
                vec![resp]
            }
            Request::Proto { version } => vec![Response::Proto { version }],
            Request::Stats { map } => {
                let state = match self.map_named(map.as_deref()) {
                    Ok(m) => m,
                    Err(resp) => return vec![resp],
                };
                let snapshot = state.cached.snapshot();
                let mut body = state.metrics.render(
                    &self.server_metrics,
                    snapshot.generation(),
                    snapshot.entries(),
                );
                body.push(' ');
                body.push_str(&state.cached.cache().render_shard_stats());
                // The qualified `map=<name>` echo renders in Display,
                // shared with Reloaded/Health; unqualified output is
                // byte-identical to the single-map daemon's.
                vec![Response::Stats { map, body }]
            }
            Request::Health { map } => {
                let state = match self.map_named(map.as_deref()) {
                    Ok(m) => m,
                    Err(resp) => return vec![resp],
                };
                let snapshot = state.cached.snapshot();
                vec![Response::Health {
                    map,
                    generation: snapshot.generation(),
                    entries: snapshot.entries(),
                }]
            }
            Request::Reload { map } => {
                // A draining daemon refuses rebuilds: a long rebuild
                // would only hold the drain open for a table the
                // process will never serve.
                if self.shutting_down.load(Ordering::SeqCst) {
                    return vec![Response::Failure(
                        "reload refused: daemon is shutting down".to_string(),
                    )];
                }
                let state = match self.map_named(map.as_deref()) {
                    Ok(m) => m.clone(),
                    Err(resp) => return vec![resp],
                };
                vec![self.reload(&state, map).0]
            }
            Request::Maps => vec![Response::Maps {
                names: self.maps.iter().map(|m| m.name.clone()).collect(),
                default: self.maps[self.default_map].name.clone(),
            }],
            Request::Metrics { map } => {
                let only = match map.as_deref() {
                    None => None,
                    Some(n) => match self.maps.iter().position(|m| m.name == n) {
                        Some(i) => Some(i),
                        None => return vec![Response::BadRequest(format!("unknown map `{n}`"))],
                    },
                };
                let text = self.render_metrics(only);
                let mut responses = vec![Response::MetricsHeader {
                    lines: text.lines().count(),
                }];
                responses.extend(text.lines().map(|l| Response::Payload(l.to_string())));
                responses
            }
            Request::SlowLog { map } => {
                let selected: Vec<&Arc<MapState>> = match map.as_deref() {
                    None => self.maps.iter().collect(),
                    Some(n) => match self.maps.iter().find(|m| m.name == n) {
                        Some(m) => vec![m],
                        None => return vec![Response::BadRequest(format!("unknown map `{n}`"))],
                    },
                };
                // Merge across maps, slowest first — the per-map logs
                // are already worst-N, so this is a small sort.
                let mut entries: Vec<SlowEntry> = selected
                    .iter()
                    .flat_map(|m| m.telemetry.slowlog.snapshot())
                    .collect();
                entries.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
                let mut responses = vec![Response::SlowLogHeader {
                    entries: entries.len(),
                }];
                responses.extend(
                    entries
                        .iter()
                        .map(|e| Response::Payload(render_slow_entry(e))),
                );
                responses
            }
            Request::Shutdown => {
                self.begin_shutdown();
                vec![Response::ShuttingDown]
            }
            Request::Quit => vec![Response::Bye],
        }
    }

    /// Rebuilds one map from its source and swaps its table in. Runs
    /// on the caller's thread (the event loop hands `RELOAD` to a
    /// throwaway one; `--watch` calls it from its poller); every
    /// connection keeps serving the old snapshot throughout, and other
    /// maps are untouched. `wire_name` is echoed in the response for
    /// qualified requests.
    ///
    /// Also returns what the swap displaced, for the caller to drop
    /// once the response is on its way.
    pub(crate) fn reload(
        self: &Arc<Self>,
        map: &MapState,
        wire_name: Option<String>,
    ) -> (Response, Displaced) {
        let _guard = map.reload_lock.lock().expect("reload lock poisoned");
        let start = Instant::now();
        match map.source.load_serving_timed() {
            Ok((resolver, engine, report)) => {
                let entries = resolver.entries();
                let (generation, old_index) = map.cached.replace(resolver);
                // The engine follows the table: swapped only on
                // success, so a failed rebuild keeps PATH and QUERY
                // answering from the same old mapping run.
                let old_engine = std::mem::replace(
                    &mut *map.engine.lock().expect("engine lock poisoned"),
                    engine,
                );
                bump(&map.metrics.reloads);
                let ns = duration_ns(start.elapsed());
                map.telemetry.reload.record(ns);
                map.telemetry.record_reload(&report);
                map.telemetry
                    .observe_slow("RELOAD", &map.name, "", ns, "ok");
                self.logger
                    .info("reload")
                    .field("map", &map.name)
                    .field("generation", generation)
                    .field("entries", entries)
                    .field("duration_ms", ns / 1_000_000)
                    .field("files_scanned", report.files_scanned)
                    .field("hierarchy", report.hierarchy.label())
                    .field("backlink_restarts", report.backlink_restarts)
                    .emit();
                let response = Response::Reloaded {
                    map: wire_name,
                    generation,
                    entries,
                };
                (response, Some((old_index, old_engine)))
            }
            Err(e) => {
                bump(&map.metrics.reload_failures);
                let ns = duration_ns(start.elapsed());
                map.telemetry.reload.record(ns);
                map.telemetry
                    .observe_slow("RELOAD", &map.name, "", ns, "error");
                self.logger
                    .error("reload_failed")
                    .field("map", &map.name)
                    .field("error", &e)
                    .emit();
                (Response::Failure(format!("reload failed: {e}")), None)
            }
        }
    }

    /// Renders the Prometheus text exposition served by `METRICS`.
    /// `only` restricts the per-map families to one namespace
    /// (`METRICS @name`); daemon-wide series always render.
    fn render_metrics(&self, only: Option<usize>) -> String {
        let maps: Vec<&Arc<MapState>> = match only {
            Some(i) => vec![&self.maps[i]],
            None => self.maps.iter().collect(),
        };
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = PromText::new();

        out.family(
            "pathalias_connections_total",
            "counter",
            "Connections accepted over the daemon's lifetime.",
        );
        out.sample(
            "pathalias_connections_total",
            &[],
            load(&self.server_metrics.connections),
        );
        out.family(
            "pathalias_bad_requests_total",
            "counter",
            "Request lines that did not parse.",
        );
        out.sample(
            "pathalias_bad_requests_total",
            &[],
            load(&self.server_metrics.bad_requests),
        );
        out.family(
            "pathalias_active_connections",
            "gauge",
            "Connections currently open.",
        );
        out.sample(
            "pathalias_active_connections",
            &[],
            load(&self.server_metrics.active_connections),
        );
        // Per-worker series from the event-loop core. Absent when no
        // workers run (unit-test states), so the exposition there is
        // unchanged.
        #[cfg(unix)]
        {
            let workers = self.workers.lock().expect("workers lock poisoned").clone();
            if !workers.is_empty() {
                out.family(
                    "pathalias_connections_open",
                    "gauge",
                    "Connections currently owned by each event-loop worker.",
                );
                for (i, w) in workers.iter().enumerate() {
                    let worker = i.to_string();
                    out.sample(
                        "pathalias_connections_open",
                        &[("worker", &worker)],
                        load(&w.open_connections),
                    );
                }
                out.family(
                    "pathalias_worker_pending_events",
                    "gauge",
                    "Readiness events delivered by each worker's most recent poll.",
                );
                for (i, w) in workers.iter().enumerate() {
                    let worker = i.to_string();
                    out.sample(
                        "pathalias_worker_pending_events",
                        &[("worker", &worker)],
                        load(&w.pending_events),
                    );
                }
                out.family(
                    "pathalias_udp_datagrams_total",
                    "counter",
                    "UDP request datagrams answered by each worker.",
                );
                for (i, w) in workers.iter().enumerate() {
                    let worker = i.to_string();
                    out.sample(
                        "pathalias_udp_datagrams_total",
                        &[("worker", &worker)],
                        load(&w.udp_datagrams),
                    );
                }
            }
        }
        out.family(
            "pathalias_uptime_seconds",
            "gauge",
            "Seconds since the daemon started.",
        );
        out.sample_f64(
            "pathalias_uptime_seconds",
            &[],
            self.server_metrics.uptime_ms() as f64 / 1000.0,
        );

        // Per-map counter families, samples grouped under one
        // HELP/TYPE header per family as the exposition format wants.
        type Get = fn(&Metrics) -> u64;
        let counters: [(&str, &str, Get); 11] = [
            (
                "pathalias_queries_total",
                "Queries resolved against this map (QUERY and MQUERY items).",
                |m| m.queries.load(Ordering::Relaxed),
            ),
            ("pathalias_hits_total", "Queries that found a route.", |m| {
                m.hits.load(Ordering::Relaxed)
            }),
            ("pathalias_misses_total", "Queries with no route.", |m| {
                m.misses.load(Ordering::Relaxed)
            }),
            (
                "pathalias_cache_hits_total",
                "Lookups answered from the LRU cache.",
                |m| m.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "pathalias_cache_misses_total",
                "Lookups that went to the backing table.",
                |m| m.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "pathalias_resolve_errors_total",
                "Queries that failed with a backend error.",
                |m| m.resolve_errors.load(Ordering::Relaxed),
            ),
            (
                "pathalias_reload_failures_total",
                "Failed reloads (the old table kept serving).",
                |m| m.reload_failures.load(Ordering::Relaxed),
            ),
            (
                "pathalias_path_ch_certified_total",
                "PATH answers certified by the contraction-hierarchy tier.",
                |m| m.path_ch_certified.load(Ordering::Relaxed),
            ),
            (
                "pathalias_path_ch_fallbacks_total",
                "PATH queries that tried the hierarchy tier but fell back.",
                |m| m.path_ch_fallbacks.load(Ordering::Relaxed),
            ),
            (
                "pathalias_path_tree_hits_total",
                "PATH answers read from a kept source tree (no search ran).",
                |m| m.path_tree_hits.load(Ordering::Relaxed),
            ),
            (
                "pathalias_path_tree_builds_total",
                "PATH queries that built and kept their source's tree.",
                |m| m.path_tree_builds.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, get) in counters {
            out.family(name, "counter", help);
            for m in &maps {
                out.sample(name, &[("map", &m.name)], get(&m.metrics));
            }
        }

        out.family(
            "pathalias_reloads_total",
            "counter",
            "Successful reloads of this map, by how they were served (unchanged: \
             nothing moved; delta: repaired in place; full: the source reloaded).",
        );
        for m in &maps {
            for (path, n) in m.telemetry.reload_paths() {
                out.sample(
                    "pathalias_reloads_total",
                    &[("map", &m.name), ("path", path.label())],
                    n,
                );
            }
        }
        out.family(
            "pathalias_reload_files_scanned_total",
            "counter",
            "Map file texts the delta planner scanned: a one-file edit scans that file, \
             old and new, plus each file it had not outlined yet.",
        );
        for m in &maps {
            out.sample(
                "pathalias_reload_files_scanned_total",
                &[("map", &m.name)],
                m.telemetry.files_scanned(),
            );
        }
        out.family(
            "pathalias_reload_delta_bailouts_total",
            "counter",
            "Full-path reloads of a map-file source, by the delta-path gate that refused them.",
        );
        for m in &maps {
            for (reason, n) in m.telemetry.bailouts() {
                out.sample(
                    "pathalias_reload_delta_bailouts_total",
                    &[("map", &m.name), ("reason", reason)],
                    n,
                );
            }
        }
        out.family(
            "pathalias_hierarchy_loads_total",
            "counter",
            "Loads of this map, start-up included, by what became of the contraction \
             hierarchy (stored: validated and served; rebuilt: over back links; rejected: \
             did not fit; dropped: lost to a delta reload; none).",
        );
        for m in &maps {
            for (outcome, n) in m.telemetry.hierarchy_loads() {
                out.sample(
                    "pathalias_hierarchy_loads_total",
                    &[("map", &m.name), ("outcome", outcome.label())],
                    n,
                );
            }
        }

        out.family(
            "pathalias_generation",
            "gauge",
            "Table generation now serving.",
        );
        for m in &maps {
            out.sample(
                "pathalias_generation",
                &[("map", &m.name)],
                m.cached.snapshot().generation(),
            );
        }
        out.family(
            "pathalias_entries",
            "gauge",
            "Entries in the serving table.",
        );
        for m in &maps {
            out.sample(
                "pathalias_entries",
                &[("map", &m.name)],
                m.cached.snapshot().entries() as u64,
            );
        }

        type ShardGet = fn(&crate::cache::ShardStats) -> u64;
        let shard_families: [(&str, &str, ShardGet); 3] = [
            (
                "pathalias_cache_shard_hits_total",
                "Per-shard LRU cache hits.",
                |s| s.hits,
            ),
            (
                "pathalias_cache_shard_misses_total",
                "Per-shard LRU cache misses.",
                |s| s.misses,
            ),
            (
                "pathalias_cache_shard_evictions_total",
                "Per-shard LRU cache evictions.",
                |s| s.evictions,
            ),
        ];
        for (name, help, get) in shard_families {
            out.family(name, "counter", help);
            for m in &maps {
                for (i, stats) in m.cached.cache().shard_stats().iter().enumerate() {
                    let shard = i.to_string();
                    out.sample(name, &[("map", &m.name), ("shard", &shard)], get(stats));
                }
            }
        }

        out.family(
            "pathalias_request_latency_seconds",
            "histogram",
            "Request latency by verb (mquery_batch is one whole MQUERY line, \
             mquery_item one host within it, reload a table rebuild).",
        );
        for m in &maps {
            let verbs = [
                ("query", &m.telemetry.query),
                ("mquery_batch", &m.telemetry.mquery_batch),
                ("mquery_item", &m.telemetry.mquery_item),
                ("path", &m.telemetry.path),
                ("reload", &m.telemetry.reload),
            ];
            for (verb, histogram) in verbs {
                out.histogram(
                    "pathalias_request_latency_seconds",
                    &[("map", &m.name), ("verb", verb)],
                    &histogram.snapshot(),
                );
            }
        }

        out.family(
            "pathalias_reload_phase_seconds",
            "gauge",
            "Step durations of the latest reload: the pipeline phases, then plan_delta, \
             routedb, engine and the hierarchy build (zero = skipped; absent until the \
             first reload).",
        );
        for m in &maps {
            if let Some(r) = m.telemetry.last_reload() {
                let t = r.phases;
                let phases = [
                    ("parse", t.parse),
                    ("build", t.build),
                    ("freeze", t.freeze),
                    ("map", t.map),
                    ("print", t.print),
                    ("plan_delta", r.plan_delta),
                    ("routedb", r.routedb),
                    ("engine", r.engine),
                    ("hierarchy", r.hierarchy_build),
                ];
                for (phase, duration) in phases {
                    out.sample_f64(
                        "pathalias_reload_phase_seconds",
                        &[("map", &m.name), ("phase", phase)],
                        duration.as_secs_f64(),
                    );
                }
            }
        }

        out.finish()
    }

    /// Flags shutdown and wakes the serving loops so they can observe
    /// it. Idempotent; callable from any serving thread (the
    /// `SHUTDOWN` verb) or from the handle.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            self.logger.info("shutdown").emit();
        }
        #[cfg(unix)]
        for worker in self.workers.lock().expect("workers lock poisoned").iter() {
            worker.wake_up();
        }
    }
}

/// The slow-log outcome tag of an answered `PATH`: `ok` plus the stage
/// that produced the answer, as a second `key=value` token.
fn path_outcome(stats: &SearchStats) -> &'static str {
    if stats.from_tree {
        "ok tier=tree"
    } else if stats.ch_certified {
        "ok tier=ch"
    } else if stats.fell_back {
        "ok tier=forward"
    } else {
        "ok tier=bidir"
    }
}

/// The slow-log outcome tag for a response: `ok` for a route, the
/// expected `no_route` for a 404, `error` for anything else.
fn outcome_of(resp: &Response) -> &'static str {
    match resp {
        Response::Route(_) | Response::Path { .. } | Response::Via { .. } => "ok",
        Response::NoRoute(_) => "no_route",
        _ => "error",
    }
}

/// The daemon entry point.
pub struct Server;

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`ServerHandle::shutdown`] / [`ServerHandle::drain`] (tests)
/// or [`ServerHandle::wait`] (the CLI) explicitly.
pub struct ServerHandle {
    state: Arc<State>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    udp_addr: Option<SocketAddr>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// The serving core is the epoll/kqueue event loop; where there is
    /// none there is no daemon, only the batch program and the client.
    #[cfg(not(unix))]
    pub fn start(_config: ServerConfig) -> Result<ServerHandle, StartError> {
        Err(StartError::Bind(io::ErrorKind::Unsupported.into()))
    }

    /// Loads every map's table (failing fast if any source is broken),
    /// binds the listeners, and starts accepting.
    #[cfg(unix)]
    pub fn start(config: ServerConfig) -> Result<ServerHandle, StartError> {
        use std::net::TcpListener;
        use std::os::unix::net::{UnixListener, UnixStream};

        if config.maps.is_empty() {
            return Err(StartError::Config("no maps configured".to_string()));
        }
        for (name, _) in &config.maps {
            if !valid_map_name(name) {
                return Err(StartError::Config(format!(
                    "invalid map name `{name}` (must be non-empty, without whitespace, `,` or `@`)"
                )));
            }
            if config.maps.iter().filter(|(n, _)| n == name).count() > 1 {
                return Err(StartError::Config(format!("duplicate map name `{name}`")));
            }
        }
        for (name, _) in &config.cache_capacities {
            if !config.maps.iter().any(|(n, _)| n == name) {
                return Err(StartError::Config(format!(
                    "cache capacity names unknown map `{name}`"
                )));
            }
        }
        let default_map = match &config.default_map {
            None => 0,
            Some(name) => config
                .maps
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| {
                    StartError::Config(format!("default map `{name}` is not in the map set"))
                })?,
        };

        // Fingerprint the watched files *before* the initial load: a
        // rewrite racing the (possibly long) load must read as a
        // change afterwards, not be absorbed into the baseline.
        let watch_baselines: Option<Vec<Option<crate::reload::Fingerprint>>> =
            config.watch.map(|_| {
                config
                    .maps
                    .iter()
                    .map(|(_, source)| crate::reload::fingerprint(&source.watch_paths()).ok())
                    .collect()
            });

        let logger = config.logger.clone();
        let server_metrics = Arc::new(ServerMetrics::default());
        let mut maps = Vec::with_capacity(config.maps.len());
        for (name, source) in config.maps {
            let (resolver, engine, report) =
                source
                    .load_serving_timed()
                    .map_err(|error| StartError::Load {
                        map: name.clone(),
                        error,
                    })?;
            logger
                .info("map_loaded")
                .field("map", &name)
                .field("source", source.kind())
                .field("entries", resolver.entries())
                .field("hierarchy", report.hierarchy.label())
                .field("backlink_restarts", report.backlink_restarts)
                .emit();
            let telemetry = MapTelemetry::new();
            telemetry.record_hierarchy(report.hierarchy);
            let metrics = Arc::new(Metrics::default());
            let capacity = config
                .cache_capacities
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(config.cache_capacity, |(_, c)| *c);
            maps.push(Arc::new(MapState {
                name,
                source,
                cached: Cached::new(resolver, capacity, config.cache_shards, metrics.clone()),
                metrics,
                telemetry,
                engine: Mutex::new(engine),
                reload_lock: Mutex::new(()),
            }));
        }

        let state = Arc::new(State {
            maps,
            default_map,
            server_metrics,
            logger,
            next_conn_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });

        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        let mut unix_path = None;
        let mut udp_addr = None;

        let workers_n = config
            .workers
            .unwrap_or_else(crate::event::default_workers)
            .max(1);

        // Serving more connections than the default fd soft limit
        // allows is the whole point; raise it while we can.
        let _ = pathalias_poll::raise_nofile_limit(65536);

        let mut tcp_listeners: Vec<Option<TcpListener>> = Vec::new();
        let mut distribute_tcp = false;
        if let Some(addr) = &config.tcp {
            let (listeners, bound, sharded) =
                crate::event::bind_tcp(addr, workers_n).map_err(StartError::Bind)?;
            tcp_listeners = listeners;
            // Without SO_REUSEPORT shards, worker 0 accepts alone
            // and deals connections round-robin to the pool.
            distribute_tcp = !sharded;
            tcp_addr = Some(bound);
            state
                .logger
                .info("listening")
                .field("transport", "tcp")
                .field("addr", bound)
                .field("shards", if sharded { workers_n } else { 1 })
                .emit();
        }

        let mut udp_socks: Vec<Option<std::net::UdpSocket>> = Vec::new();
        if let Some(addr) = &config.udp {
            let (socks, bound) =
                crate::event::bind_udp(addr, workers_n).map_err(StartError::Bind)?;
            udp_socks = socks;
            udp_addr = Some(bound);
            state
                .logger
                .info("listening")
                .field("transport", "udp")
                .field("addr", bound)
                .emit();
        }

        let mut unix_listener = None;
        if let Some(path) = &config.unix {
            // A previous daemon's socket file would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(StartError::Bind)?;
            unix_path = Some(path.clone());
            state
                .logger
                .info("listening")
                .field("transport", "unix")
                .field("path", path.display())
                .emit();
            unix_listener = Some(listener);
        }

        if tcp_addr.is_none() && unix_path.is_none() && udp_addr.is_none() {
            return Err(StartError::Bind(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listener configured (need tcp, udp and/or unix)",
            )));
        }

        // One self-pipe per worker: shutdown, reload completions,
        // and connection handoffs all wake the loop through it.
        let mut shareds = Vec::with_capacity(workers_n);
        let mut wake_reads = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let (read_end, write_end) = UnixStream::pair().map_err(StartError::Bind)?;
            write_end.set_nonblocking(true).map_err(StartError::Bind)?;
            shareds.push(Arc::new(crate::event::WorkerShared::new(write_end)));
            wake_reads.push(read_end);
        }
        // Registered before any worker runs, so SHUTDOWN handled
        // by the first worker can already wake all of them.
        *state.workers.lock().expect("workers lock poisoned") = shareds.clone();

        for (index, wake_read) in wake_reads.into_iter().enumerate() {
            let setup = crate::event::WorkerSetup {
                index,
                shared: shareds[index].clone(),
                all: shareds.clone(),
                tcp: tcp_listeners.get_mut(index).and_then(Option::take),
                unix: if index == 0 {
                    unix_listener.take()
                } else {
                    None
                },
                udp: udp_socks.get_mut(index).and_then(Option::take),
                wake_read,
                distribute_tcp,
            };
            let state = state.clone();
            accept_threads.push(std::thread::spawn(move || {
                crate::event::run_worker(state, setup)
            }));
        }

        if let Some(interval) = config.watch {
            let state = state.clone();
            let baselines = watch_baselines.unwrap_or_default();
            accept_threads.push(std::thread::spawn(move || {
                watch_sources(state, interval, baselines)
            }));
        }

        Ok(ServerHandle {
            state,
            tcp_addr,
            unix_path,
            udp_addr,
            accept_threads,
        })
    }
}

/// The `--watch` loop: polls every map's fingerprint (size, mtime and,
/// on unix, inode/ctime — see [`crate::reload`]) and runs the ordinary
/// per-map reload path for each map whose fingerprint changed — one
/// map's rewrite never re-parses the others. A fingerprint that cannot
/// be read (a file mid-rewrite, say) skips that map for the tick
/// rather than reloading a half-written source; the next tick sees the
/// settled state. The skip is *logged*, rate-limited per map, so a map
/// whose file vanished for good does not sit silently stale forever.
/// Sleeps in short slices so a drain is never stuck behind a long
/// interval.
fn watch_sources(
    state: Arc<State>,
    interval: Duration,
    baselines: Vec<Option<crate::reload::Fingerprint>>,
) {
    const SLICE: Duration = Duration::from_millis(25);
    // A zero interval would busy-spin; poll no faster than the slice.
    let interval = interval.max(SLICE);
    let paths: Vec<Vec<PathBuf>> = state.maps.iter().map(|m| m.source.watch_paths()).collect();
    let mut last: Vec<Option<crate::reload::Fingerprint>> = (0..state.maps.len())
        .map(|i| baselines.get(i).cloned().flatten())
        .collect();
    // Consecutive fingerprint failures per map, for rate-limiting the
    // failure log: the first failure logs immediately, then every 16th
    // tick while the condition persists.
    let mut fail_streak: Vec<u64> = vec![0; state.maps.len()];
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if state.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let nap = SLICE.min(interval - slept);
            std::thread::sleep(nap);
            slept += nap;
        }
        for (i, map) in state.maps.iter().enumerate() {
            if state.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let current = match crate::reload::fingerprint(&paths[i]) {
                Ok(fp) => {
                    fail_streak[i] = 0;
                    fp
                }
                Err(e) => {
                    fail_streak[i] += 1;
                    if fail_streak[i] == 1 || fail_streak[i] % 16 == 0 {
                        state
                            .logger
                            .warn("watch_fingerprint_failed")
                            .field("map", &map.name)
                            .field("error", e.to_string())
                            .field("streak", fail_streak[i])
                            .emit();
                    }
                    continue;
                }
            };
            if last[i].as_ref() != Some(&current) {
                state
                    .logger
                    .info("watch_reload")
                    .field("map", &map.name)
                    .emit();
                // The ordinary reload path: atomic swap on success, old
                // table keeps serving on failure. Either way the new
                // fingerprint is remembered, so a broken rewrite is
                // retried only when the file changes again.
                let _ = state.reload(map, None);
                last[i] = Some(current);
            }
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum StartError {
    /// The map set itself was malformed (empty, duplicate or invalid
    /// names, unknown default).
    Config(String),
    /// One map's initial table load failed.
    Load {
        /// The map whose source failed.
        map: String,
        /// What went wrong.
        error: crate::reload::LoadError,
    },
    /// Binding a listener failed.
    Bind(io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Config(why) => write!(f, "map set: {why}"),
            StartError::Load { map, error } => {
                write!(f, "loading route table for map `{map}`: {error}")
            }
            StartError::Bind(e) => write!(f, "binding listener: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl ServerHandle {
    /// The bound TCP address (the actual port when 0 was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The bound UDP address (the actual port when 0 was requested).
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// The default map's serving generation and entry count, for
    /// status lines.
    pub fn table_info(&self) -> (u64, usize) {
        let snapshot = self.state.maps[self.state.default_map].cached.snapshot();
        (snapshot.generation(), snapshot.entries())
    }

    /// Every map's (name, source kind, generation, entries), in
    /// declaration order — what the CLI prints on startup.
    pub fn map_infos(&self) -> Vec<(String, &'static str, u64, usize)> {
        self.state
            .maps
            .iter()
            .map(|m| {
                let snapshot = m.cached.snapshot();
                (
                    m.name.clone(),
                    m.source.kind(),
                    snapshot.generation(),
                    snapshot.entries(),
                )
            })
            .collect()
    }

    /// The name of the namespace unqualified requests go to.
    pub fn default_map_name(&self) -> &str {
        &self.state.maps[self.state.default_map].name
    }

    /// Blocks until the daemon stops accepting — forever in daemon
    /// mode, or until a client issues `SHUTDOWN`, after which
    /// connections are drained (with a generous deadline) before
    /// returning.
    pub fn wait(mut self) {
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Accept loops only exit on shutdown; give in-flight
        // connections their drain window.
        self.await_connections(Duration::from_secs(5));
        self.cleanup_socket();
    }

    /// Stops accepting, wakes the accept loops, and joins them.
    /// Established connections finish their current request and close
    /// on their next read. Does not wait for them; see
    /// [`ServerHandle::drain`].
    pub fn shutdown(mut self) {
        self.state.begin_shutdown();
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        self.cleanup_socket();
    }

    /// Graceful shutdown: stops accepting, then lets in-flight
    /// connections finish until `deadline` elapses. Returns `true` if
    /// every connection closed in time, `false` if the deadline struck
    /// with stragglers still open (which are then abandoned to process
    /// exit, as [`shutdown`](ServerHandle::shutdown) would).
    pub fn drain(mut self, deadline: Duration) -> bool {
        self.state.begin_shutdown();
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        let drained = self.await_connections(deadline);
        self.state
            .logger
            .info("drain")
            .field("complete", drained)
            .emit();
        self.cleanup_socket();
        drained
    }

    /// Polls the active-connection gauge until it reaches zero or the
    /// deadline passes.
    fn await_connections(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        loop {
            if self
                .state
                .server_metrics
                .active_connections
                .load(Ordering::Relaxed)
                == 0
            {
                return true;
            }
            if start.elapsed() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn cleanup_socket(&self) {
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtoVersion;

    fn temp_routes(tag: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "pathalias-daemon-test-{tag}-{}-{:?}.routes",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::write(&path, text).unwrap();
        path
    }

    /// One served map from any source kind, with the engine when the
    /// backend carries a frozen graph.
    fn state_from_source(name: &str, source: MapSource) -> Arc<MapState> {
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        let metrics = Arc::new(Metrics::default());
        Arc::new(MapState {
            name: name.to_string(),
            source,
            cached: Cached::new(resolver, 64, 2, metrics.clone()),
            metrics,
            telemetry: MapTelemetry::new(),
            engine: Mutex::new(engine),
            reload_lock: Mutex::new(()),
        })
    }

    fn state_of(maps: Vec<(&str, &str)>, default_map: usize) -> Arc<State> {
        let built = maps
            .into_iter()
            .map(|(name, text)| {
                let source = MapSource::Routes(temp_routes(name, text));
                state_from_source(name, source)
            })
            .collect();
        wrap_states(built, default_map)
    }

    fn wrap_states(built: Vec<Arc<MapState>>, default_map: usize) -> Arc<State> {
        Arc::new(State {
            maps: built,
            default_map,
            server_metrics: Arc::new(ServerMetrics::default()),
            // Captured, not stderr: unit tests stay silent and can
            // assert on (or against) what the daemon would log.
            logger: Logger::capture(pathalias_telemetry::Level::Debug).0,
            next_conn_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            #[cfg(unix)]
            workers: Mutex::new(Vec::new()),
        })
    }

    fn state_for(text: &str) -> Arc<State> {
        state_of(vec![(DEFAULT_MAP_NAME, text)], 0)
    }

    fn one(state: &Arc<State>, req: Request) -> Response {
        let mut responses = state.respond(req);
        assert_eq!(responses.len(), 1);
        responses.pop().unwrap()
    }

    #[test]
    fn respond_covers_every_verb() {
        let state = state_for("seismo\tseismo!%s\n.edu\tseismo!%s\n");
        let q = |host: &str, user: Option<&str>| {
            one(
                &state,
                Request::Query {
                    map: None,
                    host: host.into(),
                    user: user.map(str::to_string),
                },
            )
        };
        assert_eq!(
            q("seismo", Some("rick")),
            Response::Route("seismo!rick".into())
        );
        assert_eq!(
            q("caip.rutgers.edu", Some("pleasant")),
            Response::Route("seismo!caip.rutgers.edu!pleasant".into())
        );
        assert_eq!(q("seismo", None), Response::Route("seismo!%s".into()));
        assert_eq!(q("nowhere", Some("u")), Response::NoRoute("nowhere".into()));
        assert!(matches!(
            one(&state, Request::Stats { map: None }),
            Response::Stats { map: None, .. }
        ));
        assert_eq!(
            one(&state, Request::Health { map: None }),
            Response::Health {
                map: None,
                generation: 0,
                entries: 2
            }
        );
        assert_eq!(
            one(
                &state,
                Request::Proto {
                    version: ProtoVersion::V2
                }
            ),
            Response::Proto {
                version: ProtoVersion::V2
            }
        );
        assert_eq!(
            one(&state, Request::Maps),
            Response::Maps {
                names: vec![DEFAULT_MAP_NAME.to_string()],
                default: DEFAULT_MAP_NAME.to_string()
            }
        );
        assert_eq!(one(&state, Request::Quit), Response::Bye);
        let reloaded = one(&state, Request::Reload { map: None });
        assert_eq!(
            reloaded,
            Response::Reloaded {
                map: None,
                generation: 1,
                entries: 2
            }
        );
    }

    /// A daemon state over the full map pipeline — a source kind whose
    /// snapshot carries a frozen graph, so `PATH` has an engine.
    fn path_state() -> Arc<State> {
        let path = temp_routes(
            "path-map",
            "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
             phs\tunc(400)\nresearch\tduke(200)\n",
        );
        let options = pathalias_core::Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path], options);
        wrap_states(vec![state_from_source(DEFAULT_MAP_NAME, source)], 0)
    }

    #[test]
    fn path_answers_point_to_point_and_via() {
        let state = path_state();
        let p = |src: &str, dst: &str| {
            one(
                &state,
                Request::Path {
                    map: None,
                    src: src.into(),
                    dst: dst.into(),
                },
            )
        };
        // Home-rooted PATH agrees with the mapper's tree: 100 + 200
        // through duke, rendered exactly as QUERY would.
        assert_eq!(
            p("unc", "research"),
            Response::Path {
                map: None,
                cost: 300,
                hops: 2,
                route: "duke!research!%s".into()
            }
        );
        // Off-home source: phs has only the 400 link back to unc.
        assert!(matches!(
            p("phs", "research"),
            Response::Path {
                cost: 700,
                hops: 3,
                ..
            }
        ));
        // `*` lists one-hop predecessors with their link costs.
        assert_eq!(
            p("*", "unc"),
            Response::Via {
                map: None,
                dst: "unc".into(),
                entries: vec![("duke".into(), 100), ("phs".into(), 400)]
            }
        );
    }

    #[test]
    fn path_maps_errors_like_query() {
        let state = path_state();
        let p = |src: &str, dst: &str| {
            one(
                &state,
                Request::Path {
                    map: None,
                    src: src.into(),
                    dst: dst.into(),
                },
            )
        };
        // Unknown destination is the expected negative answer (404),
        // matching QUERY on a host the map has never heard of.
        assert_eq!(p("unc", "nowhere"), Response::NoRoute("nowhere".into()));
        assert_eq!(p("*", "nowhere"), Response::NoRoute("nowhere".into()));
        // Unknown *source* is the caller's mistake (400).
        assert_eq!(
            p("nowhere", "duke"),
            Response::BadRequest("unknown source `nowhere`".into())
        );
    }

    #[test]
    fn path_refuses_table_only_backends() {
        let state = state_for("seismo\tseismo!%s\n");
        assert_eq!(
            one(
                &state,
                Request::Path {
                    map: None,
                    src: "a".into(),
                    dst: "seismo".into(),
                },
            ),
            Response::Failure("PATH unsupported on backend `routes`: no frozen graph".into())
        );
    }

    #[test]
    fn path_records_latency_and_slowlog() {
        let state = path_state();
        let _ = one(
            &state,
            Request::Path {
                map: None,
                src: "unc".into(),
                dst: "research".into(),
            },
        );
        let map = &state.maps[0];
        assert_eq!(map.telemetry.path.snapshot().count, 1);
        let slow = map.telemetry.slowlog.snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].verb, "PATH");
        assert_eq!(slow[0].host, "unc>research");
        // A first sighting on an engine without a hierarchy.
        assert_eq!(slow[0].outcome, "ok tier=bidir");
    }

    #[test]
    fn mquery_answers_in_order() {
        let state = state_for("a\ta!%s\nb\tb!%s\n");
        let responses = state.respond(Request::MultiQuery {
            map: None,
            queries: vec![
                ("b".into(), Some("u".into())),
                ("missing".into(), None),
                ("a".into(), Some("v".into())),
            ],
        });
        assert_eq!(
            responses,
            vec![
                Response::Route("b!u".into()),
                Response::NoRoute("missing".into()),
                Response::Route("a!v".into()),
            ]
        );
    }

    #[test]
    fn qualified_requests_route_to_their_map() {
        let state = state_of(
            vec![("west", "h\twest-gw!h!%s\n"), ("east", "h\teast-gw!h!%s\n")],
            0,
        );
        let q = |map: Option<&str>| {
            one(
                &state,
                Request::Query {
                    map: map.map(str::to_string),
                    host: "h".into(),
                    user: Some("u".into()),
                },
            )
        };
        // Unqualified goes to the default (first) map.
        assert_eq!(q(None), Response::Route("west-gw!h!u".into()));
        assert_eq!(q(Some("west")), Response::Route("west-gw!h!u".into()));
        assert_eq!(q(Some("east")), Response::Route("east-gw!h!u".into()));
        assert_eq!(
            q(Some("nope")),
            Response::BadRequest("unknown map `nope`".into())
        );
        assert_eq!(
            one(&state, Request::Maps),
            Response::Maps {
                names: vec!["west".into(), "east".into()],
                default: "west".into()
            }
        );
        // Per-map counters: two queries hit west (one unqualified),
        // one hit east.
        assert_eq!(
            state.maps[0].metrics.queries.load(Ordering::Relaxed),
            2,
            "west"
        );
        assert_eq!(
            state.maps[1].metrics.queries.load(Ordering::Relaxed),
            1,
            "east"
        );
    }

    #[test]
    fn mquery_on_an_unknown_map_fails_every_slot() {
        // The batch contract is one line per token: an unknown map
        // must produce N error lines, or a batched client waiting for
        // N responses hangs on a half-answered connection.
        let state = state_for("a\ta!%s\n");
        let responses = state.respond(Request::MultiQuery {
            map: Some("nope".into()),
            queries: vec![("a".into(), None), ("b".into(), None), ("c".into(), None)],
        });
        assert_eq!(responses.len(), 3, "one response per query token");
        for resp in responses {
            assert_eq!(resp, Response::BadRequest("unknown map `nope`".into()));
        }
    }

    #[test]
    fn qualified_reload_touches_only_its_map() {
        let state = state_of(vec![("a", "x\ta!x!%s\n"), ("b", "x\tb!x!%s\n")], 0);
        let reloaded = one(
            &state,
            Request::Reload {
                map: Some("b".into()),
            },
        );
        assert_eq!(
            reloaded,
            Response::Reloaded {
                map: Some("b".into()),
                generation: 1,
                entries: 1
            }
        );
        // Map a is untouched at generation 0.
        assert_eq!(state.maps[0].cached.snapshot().generation(), 0);
        assert_eq!(state.maps[1].cached.snapshot().generation(), 1);
        assert_eq!(
            one(
                &state,
                Request::Health {
                    map: Some("a".into())
                }
            ),
            Response::Health {
                map: Some("a".into()),
                generation: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn qualified_stats_lead_with_the_map_name() {
        let state = state_of(vec![("a", "x\ta!x!%s\n"), ("b", "x\tb!x!%s\n")], 1);
        let qualified = one(
            &state,
            Request::Stats {
                map: Some("a".into()),
            },
        );
        assert!(
            matches!(&qualified, Response::Stats { map: Some(m), .. } if m == "a"),
            "{qualified:?}"
        );
        let rendered = qualified.to_string();
        assert!(rendered.starts_with("200 map=a queries="), "{rendered}");
        // Unqualified stats (default map b here) carry no map= prefix:
        // byte-compatible with the single-map daemon.
        let rendered = one(&state, Request::Stats { map: None }).to_string();
        assert!(rendered.starts_with("200 queries="), "{rendered}");
    }

    #[test]
    fn stats_includes_per_shard_counters() {
        let state = state_for("a\ta!%s\n");
        let _ = one(
            &state,
            Request::Query {
                map: None,
                host: "a".into(),
                user: None,
            },
        );
        let Response::Stats { body, .. } = one(&state, Request::Stats { map: None }) else {
            panic!("expected stats");
        };
        assert!(body.contains("cache_shard0_hits="), "{body}");
        assert!(body.contains("cache_shard1_misses="), "{body}");
        assert!(body.contains("resolve_errors=0"), "{body}");
    }

    #[test]
    fn shutdown_request_flags_drain() {
        let state = state_for("a\ta!%s\n");
        assert!(!state.shutting_down.load(Ordering::SeqCst));
        assert_eq!(one(&state, Request::Shutdown), Response::ShuttingDown);
        assert!(state.shutting_down.load(Ordering::SeqCst));
    }

    #[test]
    fn reload_failure_keeps_old_table() {
        let state = state_for("a\ta!%s\n");
        // Sabotage the source file.
        if let MapSource::Routes(path) = &state.maps[0].source {
            std::fs::write(path, "garbage-without-a-route\n").unwrap();
        }
        let resp = one(&state, Request::Reload { map: None });
        assert_eq!(resp.code(), 500);
        // Old table still serves.
        assert_eq!(
            one(
                &state,
                Request::Query {
                    map: None,
                    host: "a".into(),
                    user: Some("u".into())
                }
            ),
            Response::Route("a!u".into())
        );
        let snapshot = state.maps[0].cached.snapshot();
        assert_eq!(snapshot.generation(), 0);
    }

    #[test]
    fn start_rejects_bad_map_sets() {
        let path = temp_routes("cfg", "a\ta!%s\n");
        let source = MapSource::Routes(path.clone());
        let empty = ServerConfig::ephemeral_set(Vec::new());
        assert!(matches!(Server::start(empty), Err(StartError::Config(_))));

        let dup = ServerConfig::ephemeral_set(vec![
            ("m".into(), source.clone()),
            ("m".into(), source.clone()),
        ]);
        assert!(matches!(Server::start(dup), Err(StartError::Config(_))));

        let bad_name = ServerConfig::ephemeral_set(vec![("a b".into(), source.clone())]);
        assert!(matches!(
            Server::start(bad_name),
            Err(StartError::Config(_))
        ));

        let mut unknown_default = ServerConfig::ephemeral_set(vec![("m".into(), source.clone())]);
        unknown_default.default_map = Some("other".into());
        assert!(matches!(
            Server::start(unknown_default),
            Err(StartError::Config(_))
        ));

        // A load failure names the broken map.
        let missing = ServerConfig::ephemeral_set(vec![
            ("ok".into(), source),
            (
                "broken".into(),
                MapSource::Routes(std::env::temp_dir().join("pathalias-definitely-missing")),
            ),
        ]);
        match Server::start(missing) {
            Err(StartError::Load { map, .. }) => assert_eq!(map, "broken"),
            Err(other) => panic!("expected a load error, got {other}"),
            Ok(_) => panic!("expected a load error, got a running daemon"),
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn map_name_validity() {
        assert!(valid_map_name("regional"));
        assert!(valid_map_name("Uucp-1986.west"));
        assert!(!valid_map_name(""));
        assert!(!valid_map_name("two words"));
        assert!(!valid_map_name("a,b"));
        assert!(!valid_map_name("@a"));
    }

    /// Joins a multi-line response (header + payload lines) back into
    /// the text document, checking the header's line count on the way.
    fn payload_text(responses: &[Response]) -> String {
        let Response::MetricsHeader { lines } = responses[0] else {
            panic!("expected a metrics header, got {:?}", responses[0]);
        };
        assert_eq!(lines, responses.len() - 1, "header line count");
        responses[1..]
            .iter()
            .map(|r| {
                let Response::Payload(line) = r else {
                    panic!("expected a payload line, got {r:?}");
                };
                format!("{line}\n")
            })
            .collect()
    }

    /// `(le, cumulative)` pairs of one labelled histogram series.
    fn bucket_series(text: &str, series_prefix: &str) -> Vec<(String, u64)> {
        text.lines()
            .filter(|l| l.starts_with(series_prefix))
            .map(|l| {
                let le_start = l.find("le=\"").unwrap() + 4;
                let le_end = l[le_start..].find('"').unwrap() + le_start;
                let value = l.rsplit(' ').next().unwrap().parse().unwrap();
                (l[le_start..le_end].to_owned(), value)
            })
            .collect()
    }

    #[test]
    fn metrics_exposition_is_valid_prometheus() {
        let state = state_of(vec![("east", "a\ta!%s\n"), ("west", "b\tb!%s\n")], 0);
        for _ in 0..3 {
            let _ = one(
                &state,
                Request::Query {
                    map: Some("east".into()),
                    host: "a".into(),
                    user: None,
                },
            );
        }
        let _ = state.respond(Request::MultiQuery {
            map: Some("west".into()),
            queries: vec![("b".into(), None), ("missing".into(), None)],
        });

        let responses = state.respond(Request::Metrics { map: None });
        let text = payload_text(&responses);

        // HELP/TYPE headers precede their samples.
        assert!(text.contains("# HELP pathalias_queries_total "), "{text}");
        assert!(
            text.contains("# TYPE pathalias_queries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE pathalias_request_latency_seconds histogram"),
            "{text}"
        );
        // Per-map counter series for every served namespace.
        assert!(
            text.contains("pathalias_queries_total{map=\"east\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("pathalias_queries_total{map=\"west\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pathalias_generation{map=\"east\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pathalias_cache_shard_hits_total{map=\"east\",shard=\"0\"}"),
            "{text}"
        );

        // The cumulative bucket series is monotone and ends in +Inf,
        // which equals _count.
        let east_query = bucket_series(
            &text,
            "pathalias_request_latency_seconds_bucket{map=\"east\",verb=\"query\"",
        );
        assert!(!east_query.is_empty());
        assert_eq!(east_query.last().unwrap(), &("+Inf".to_string(), 3));
        let mut prev = 0;
        for (_, v) in &east_query {
            assert!(*v >= prev, "non-monotone buckets:\n{text}");
            prev = *v;
        }
        assert!(
            text.contains("pathalias_request_latency_seconds_count{map=\"east\",verb=\"query\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("pathalias_request_latency_seconds_sum{map=\"east\",verb=\"query\"} "),
            "{text}"
        );
        // MQUERY records per batch and per item.
        assert!(
            text.contains(
                "pathalias_request_latency_seconds_count{map=\"west\",verb=\"mquery_batch\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "pathalias_request_latency_seconds_count{map=\"west\",verb=\"mquery_item\"} 2"
            ),
            "{text}"
        );
    }

    #[test]
    fn queries_counter_matches_histogram_counts() {
        // The cross-signal invariant the CI scrape asserts: the
        // per-map queries counter equals the query + mquery_item
        // histogram counts.
        let state = state_for("a\ta!%s\n");
        for _ in 0..4 {
            let _ = one(
                &state,
                Request::Query {
                    map: None,
                    host: "a".into(),
                    user: None,
                },
            );
        }
        let _ = state.respond(Request::MultiQuery {
            map: None,
            queries: vec![("a".into(), None), ("a".into(), Some("u".into()))],
        });
        let m = &state.maps[0];
        assert_eq!(
            m.metrics.queries.load(Ordering::Relaxed),
            m.telemetry.query.count() + m.telemetry.mquery_item.count(),
        );
    }

    #[test]
    fn qualified_metrics_restrict_to_one_map() {
        let state = state_of(vec![("east", "a\ta!%s\n"), ("west", "b\tb!%s\n")], 0);
        let responses = state.respond(Request::Metrics {
            map: Some("west".into()),
        });
        let text = payload_text(&responses);
        assert!(text.contains("map=\"west\""), "{text}");
        assert!(!text.contains("map=\"east\""), "{text}");
        // Daemon-wide series still render on a qualified scrape.
        assert!(text.contains("pathalias_uptime_seconds"), "{text}");

        let responses = state.respond(Request::Metrics {
            map: Some("nope".into()),
        });
        assert_eq!(
            responses,
            vec![Response::BadRequest("unknown map `nope`".into())]
        );
    }

    #[test]
    fn slowlog_reports_worst_requests() {
        let state = state_of(vec![("east", "a\ta!%s\n"), ("west", "b\tb!%s\n")], 0);
        let _ = one(
            &state,
            Request::Query {
                map: Some("east".into()),
                host: "a".into(),
                user: Some("u".into()),
            },
        );
        let _ = one(
            &state,
            Request::Query {
                map: Some("west".into()),
                host: "missing".into(),
                user: None,
            },
        );
        let responses = state.respond(Request::SlowLog { map: None });
        let Response::SlowLogHeader { entries } = responses[0] else {
            panic!("expected a slowlog header, got {:?}", responses[0]);
        };
        assert_eq!(entries, 2, "both maps merged");
        assert_eq!(entries, responses.len() - 1);
        let lines: Vec<String> = responses[1..].iter().map(|r| r.to_string()).collect();
        assert!(
            lines.iter().any(|l| l.contains("map=east")
                && l.contains("verb=QUERY")
                && l.contains("host=a")
                && l.contains("outcome=ok")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("map=west") && l.contains("outcome=no_route")),
            "{lines:?}"
        );

        // Qualified: only that map's entries.
        let responses = state.respond(Request::SlowLog {
            map: Some("east".into()),
        });
        assert_eq!(
            responses[0],
            Response::SlowLogHeader { entries: 1 },
            "{responses:?}"
        );
        assert_eq!(
            state.respond(Request::SlowLog {
                map: Some("nope".into())
            }),
            vec![Response::BadRequest("unknown map `nope`".into())]
        );
    }

    #[test]
    fn reload_records_duration_and_phases() {
        let state = state_for("a\ta!%s\n");
        assert!(state.maps[0].telemetry.last_reload().is_none());
        let _ = one(&state, Request::Reload { map: None });
        let m = &state.maps[0];
        assert_eq!(m.telemetry.reload.count(), 1);
        assert!(m.telemetry.last_reload().is_some());
        // A failed reload still records its duration.
        if let MapSource::Routes(path) = &m.source {
            std::fs::write(path, "garbage-without-a-route\n").unwrap();
        }
        let resp = one(&state, Request::Reload { map: None });
        assert_eq!(resp.code(), 500);
        assert_eq!(m.telemetry.reload.count(), 2);
        let slow = m.telemetry.slowlog.snapshot();
        assert!(
            slow.iter()
                .any(|e| e.verb == "RELOAD" && e.outcome == "error"),
            "{slow:?}"
        );
    }
}
