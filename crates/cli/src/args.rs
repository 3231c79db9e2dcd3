//! Hand-rolled argument parsing (the original predates getopt_long,
//! and the grammar is small enough not to warrant a dependency).

/// Usage text.
pub const USAGE: &str = "\
usage: pathalias [-l host] [-c] [-i] [-v] [-n] [-t host]... [file ...]
       pathalias mapgen [--hosts N] [--seed N] [--paper-scale]
       pathalias freeze -o out.pagf [-i] [--ch] [file ...]
       pathalias query -d route-file destination [user]
       pathalias serve (--padb F | --routes F | --map F... | --pagf F
                        | --map-set NAME=KIND:PATHS... [--default-map NAME])
                 [--backend B]
                 [--listen addr] [--unix path] [--udp addr] [--workers N]
                 [--watch [--watch-interval-ms N]] [-l host] [-i]
       pathalias serve (--connect addr | --unix path | --udp-connect addr)
                 [--map-name NAME]
                 (--query host... [--user u] | --path src dst | --stats
                  | --reload | --health | --maps | --metrics | --slowlog
                  | --shutdown)

options:
  -l host   local host (mapping source); default: first host in input
  -c        print costs
  -i        ignore case in host names
  -v        verbose statistics on stderr, after the routes; the parse
            timing includes reading the files, the print timing
            writing the routes out
  -n        sort output by name instead of cost
  -t host   trace routing decisions for host (repeatable)
  -h        this help

freeze (write a PAGF1 frozen-graph snapshot):
  -o F      output snapshot file (required)
  -i        ignore case in host names (baked into the snapshot)
  --ch      also build and store the contraction-hierarchy section,
            over the graph that mapping from the default local host
            (the first host declared) serves, back links included, so
            a daemon serving the snapshot gets the PATH fast tier with
            no startup work; a serve -l naming another host whose
            mapping invents other back links rebuilds it at start-up.
            With back links, the reverse index is left out: no daemon
            serves the bare graph it is the transpose of
  file ...  map files (standard input when omitted)

serve (daemon mode; default listen 127.0.0.1:4175):
  --padb F      serve a PADB1 disk database
  --routes F    serve a linear route file (pathalias output)
  --map F...    run the full pipeline on map file(s); RELOAD re-runs it
  --pagf F      cold-start from a PAGF1 snapshot (pathalias freeze
                output): the pipeline re-enters at the frozen stage,
                skipping parse/build/freeze
  --backend B   memory (default: load the table), padb-mmap (serve the
                PADB1 file in place through the page cache; requires
                --padb), or pagf (requires --pagf)
  --listen A    TCP listen address (port 0 = ephemeral, printed on start)
  --unix P      also (or only) listen on a Unix socket
  --udp A       also (or only) answer single-shot datagram queries on
                this UDP address (one request line per datagram)
  --workers N   event-loop worker threads (default: one per core, max 8)
  --watch       poll the source file(s) and hot-reload when they change
                (with --map-set, each map reloads independently)
  --watch-interval-ms N   watch poll interval (default 2000)
  --map-set NAME=KIND:PATHS[:l=HOST]   serve several named maps at
                once (repeatable). KIND is map, routes, padb, padb-mmap
                or pagf; PATHS is one file (comma-separated list for
                KIND=map); a trailing :l=HOST overrides the local host
                for this map's pipeline (KIND=map/pagf; default -l).
                Example:
                  --map-set global=pagf:world.pagf \\
                  --map-set regional=map:east.map,west.map:l=gateway
  --default-map NAME   the map unqualified queries hit (default: the
                first --map-set entry)

serve (client mode):
  --connect A   talk to a daemon over TCP
  --unix P      talk to a daemon over a Unix socket
  --udp-connect A   talk to a daemon's UDP endpoint (one datagram per
                request; only --query/--path/--stats/--health/--maps)
  --query HOST  print the route to HOST (with --user substituted);
                repeatable: several hosts go as one batched round trip
  --path SRC DST  print the cheapest route from SRC to DST (protocol
                v2; needs a map/pagf-backed daemon). SRC `*` lists the
                one-hop predecessors of DST with their link costs
  --map-name N  run the verb against map namespace N (protocol v2)
  --stats | --reload | --health | --shutdown   the other protocol verbs
  --maps        list the map namespaces the daemon serves
  --metrics     scrape latency histograms and counters in Prometheus
                text format (protocol v2)
  --slowlog     print the daemon's worst recent requests, slowest
                first (protocol v2)
";

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// Run the pipeline.
    Run(RunArgs),
    /// Generate a synthetic map.
    Mapgen(MapgenArgs),
    /// Freeze map files into a PAGF1 snapshot.
    Freeze(FreezeArgs),
    /// Query a route database.
    Query(QueryArgs),
    /// Run (or talk to) the route-query daemon.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Arguments for the main pipeline.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RunArgs {
    /// `-l`.
    pub local: Option<String>,
    /// `-c`.
    pub with_costs: bool,
    /// `-i`.
    pub ignore_case: bool,
    /// `-v`.
    pub verbose: bool,
    /// `-n`.
    pub sort_by_name: bool,
    /// `-t`, repeatable.
    pub trace: Vec<String>,
    /// Input files; empty means stdin.
    pub files: Vec<String>,
}

/// Arguments for `mapgen`.
#[derive(Debug, PartialEq, Eq)]
pub struct MapgenArgs {
    /// `--hosts`.
    pub hosts: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--paper-scale`.
    pub paper_scale: bool,
}

impl Default for MapgenArgs {
    fn default() -> Self {
        MapgenArgs {
            hosts: 500,
            seed: 1986,
            paper_scale: false,
        }
    }
}

/// Arguments for `freeze`.
#[derive(Debug, PartialEq, Eq)]
pub struct FreezeArgs {
    /// `-o` output snapshot path.
    pub out: String,
    /// `-i`.
    pub ignore_case: bool,
    /// `--ch`: build and store the contraction-hierarchy section.
    pub ch: bool,
    /// Input map files; empty means stdin.
    pub files: Vec<String>,
}

/// Arguments for `query`.
#[derive(Debug, PartialEq, Eq)]
pub struct QueryArgs {
    /// `-d` route file.
    pub db: String,
    /// Destination host or domain name.
    pub dest: String,
    /// Optional user (default leaves the `%s` marker in place).
    pub user: Option<String>,
}

/// What the `serve` subcommand should do.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeArgs {
    /// Run the daemon.
    Daemon(Box<DaemonArgs>),
    /// Talk to a running daemon.
    Client(Box<ClientArgs>),
}

/// How the daemon holds its table.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
pub enum Backend {
    /// Load the table into memory (every source shape).
    #[default]
    Memory,
    /// Serve the PADB1 file in place through the kernel page cache —
    /// tables larger than memory work; requires `--padb`.
    PadbMmap,
    /// Cold-start from a PAGF1 frozen-graph snapshot, re-entering the
    /// pipeline at the frozen stage; requires `--pagf`.
    Pagf,
}

/// The source shape of one `--map-set` member.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum SourceKind {
    /// `map:` — map files through the full pipeline.
    Map,
    /// `routes:` — a linear route file.
    Routes,
    /// `padb:` — a PADB1 database loaded into memory.
    Padb,
    /// `padb-mmap:` — a PADB1 database served in place.
    PadbMmap,
    /// `pagf:` — a PAGF1 frozen-graph snapshot.
    Pagf,
}

/// One `--map-set NAME=KIND:PATHS` entry.
#[derive(Debug, PartialEq, Eq, Clone)]
pub struct MapSetEntry {
    /// The namespace name (`@name` on the wire).
    pub name: String,
    /// The source shape.
    pub kind: SourceKind,
    /// Source files: exactly one, except `KIND=map` which takes a
    /// comma-separated list.
    pub paths: Vec<String>,
    /// `:l=HOST` suffix: this map's local host (the pipeline's `-l`);
    /// `None` falls back to the daemon-wide `-l`.
    pub local: Option<String>,
}

/// Parses one `NAME=KIND:PATHS[:l=HOST]` map-set spec.
fn parse_map_set_entry(spec: &str) -> Result<MapSetEntry, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("--map-set wants NAME=KIND:PATHS[:l=HOST], got `{spec}`"))?;
    // The server's wire-format rule is the single source of truth for
    // what a namespace may be called.
    if !pathalias_server::valid_map_name(name) {
        return Err(format!(
            "--map-set: map name `{name}` must be non-empty, without whitespace, `,` or `@`"
        ));
    }
    // The `:l=HOST` suffix comes off the tail before the kind split,
    // so a path may still contain `:` (`routes:some:odd:file` keeps
    // working).
    let mut rest = rest;
    let mut local: Option<String> = None;
    while let Some((head, tail)) = rest.rsplit_once(':') {
        let Some(host) = tail.strip_prefix("l=") else {
            break;
        };
        if local.is_some() {
            return Err(format!("--map-set `{name}`: duplicate l= suffix"));
        }
        if host.is_empty() {
            return Err(format!(
                "--map-set `{name}`: l= wants a host name (e.g. :l=gateway)"
            ));
        }
        local = Some(host.to_string());
        rest = head;
    }
    let (kind, arg) = rest
        .split_once(':')
        .ok_or_else(|| format!("--map-set `{name}` wants KIND:PATHS after `=`"))?;
    let kind = match kind {
        "map" => SourceKind::Map,
        "routes" => SourceKind::Routes,
        "padb" => SourceKind::Padb,
        "padb-mmap" => SourceKind::PadbMmap,
        "pagf" => SourceKind::Pagf,
        other => {
            return Err(format!(
                "--map-set `{name}`: unknown kind `{other}` (want map, routes, padb, \
                 padb-mmap or pagf)"
            ))
        }
    };
    let paths: Vec<String> = match kind {
        // Only the map pipeline takes several files.
        SourceKind::Map => arg.split(',').map(str::to_string).collect(),
        _ => vec![arg.to_string()],
    };
    if paths.iter().any(String::is_empty) {
        return Err(format!("--map-set `{name}`: empty path in `{arg}`"));
    }
    // Only the pipeline kinds have a local host to name; on the rest
    // the suffix would be silently dead, which reads like a typo.
    if local.is_some() && !matches!(kind, SourceKind::Map | SourceKind::Pagf) {
        return Err(format!(
            "--map-set `{name}`: l= only applies to map/pagf members \
             (routes/padb tables carry no local host)"
        ));
    }
    Ok(MapSetEntry {
        name: name.to_string(),
        kind,
        paths,
        local,
    })
}

/// Daemon-mode arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct DaemonArgs {
    /// `--padb`: serve a PADB1 disk database.
    pub padb: Option<String>,
    /// `--backend`: how the table is held.
    pub backend: Backend,
    /// `--routes`: serve a linear route file.
    pub routes: Option<String>,
    /// `--pagf`: cold-start from a PAGF1 frozen-graph snapshot.
    pub pagf: Option<String>,
    /// `--map`: map files for the full pipeline (repeatable).
    pub map_files: Vec<String>,
    /// `--map-set`: named maps to serve side by side (repeatable);
    /// exclusive with the single-source flags.
    pub map_set: Vec<MapSetEntry>,
    /// `--default-map`: the namespace unqualified queries hit.
    pub default_map: Option<String>,
    /// `--listen` TCP address; `None` with another listener disables
    /// TCP.
    pub listen: Option<String>,
    /// `--unix` socket path.
    pub unix: Option<String>,
    /// `--udp`: single-shot datagram endpoint address.
    pub udp: Option<String>,
    /// `--workers`: event-loop worker threads; `None` means one per
    /// core, capped at 8.
    pub workers: Option<usize>,
    /// `-l`: local host for the map pipeline.
    pub local: Option<String>,
    /// `-i`: ignore case in the map pipeline.
    pub ignore_case: bool,
    /// `--watch`: poll the source files and reload on change.
    pub watch: bool,
    /// `--watch-interval-ms`: poll interval for `--watch`.
    pub watch_interval_ms: u64,
}

/// Client-mode arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct ClientArgs {
    /// `--connect` TCP address (exclusive with `unix` and `udp`).
    pub connect: Option<String>,
    /// `--unix` socket path.
    pub unix: Option<String>,
    /// `--udp-connect`: the daemon's UDP datagram endpoint. Only the
    /// single-line verbs (`--query`/`--path`/`--stats`/`--health`/
    /// `--maps`) have a datagram shape.
    pub udp: Option<String>,
    /// `--map-name`: run the verb against this namespace (`@name` on
    /// the wire; needs protocol v2 on the daemon).
    pub map_name: Option<String>,
    /// The protocol action to run.
    pub action: ClientAction,
}

/// The one protocol verb a client invocation runs.
#[derive(Debug, PartialEq, Eq)]
pub enum ClientAction {
    /// `--query HOST... [--user U]`; several hosts become one batched
    /// round trip (`MQUERY` against a v2 daemon).
    Query {
        /// Destination hosts, in order.
        hosts: Vec<String>,
        /// `--user`; `None` keeps the `%s` marker.
        user: Option<String>,
    },
    /// `--path SRC DST`: the cheapest point-to-point route (protocol
    /// v2); SRC `*` lists DST's one-hop predecessors instead.
    Path {
        /// The source host, or `*` for the via listing.
        src: String,
        /// The destination host.
        dst: String,
    },
    /// `--stats`.
    Stats,
    /// `--reload`.
    Reload,
    /// `--health`.
    Health,
    /// `--maps`: list the daemon's map namespaces (protocol v2).
    Maps,
    /// `--metrics`: scrape the daemon's Prometheus text exposition
    /// (protocol v2).
    Metrics,
    /// `--slowlog`: print the daemon's worst recent requests, slowest
    /// first (protocol v2).
    Slowlog,
    /// `--shutdown`: ask the daemon to drain and exit (protocol v2).
    Shutdown,
}

/// Parses an argument vector (without `argv[0]`).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    match argv.first().map(String::as_str) {
        Some("mapgen") => parse_mapgen(&argv[1..]),
        Some("freeze") => parse_freeze(&argv[1..]),
        Some("query") => parse_query(&argv[1..]),
        Some("serve") => parse_serve(&argv[1..]),
        Some("-h") | Some("--help") | Some("help") => Ok(Command::Help),
        _ => parse_run(argv),
    }
}

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_run(argv: &[String]) -> Result<Command, String> {
    let mut run = RunArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-l" => run.local = Some(take_value("-l", &mut it)?.clone()),
            "-c" => run.with_costs = true,
            "-i" => run.ignore_case = true,
            "-v" => run.verbose = true,
            "-n" => run.sort_by_name = true,
            "-t" => run.trace.push(take_value("-t", &mut it)?.clone()),
            "-h" | "--help" => return Ok(Command::Help),
            f if f.starts_with('-') && f.len() > 1 => {
                return Err(format!("unknown flag {f}"));
            }
            file => run.files.push(file.to_string()),
        }
    }
    Ok(Command::Run(run))
}

fn parse_mapgen(argv: &[String]) -> Result<Command, String> {
    let mut mg = MapgenArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--hosts" => {
                mg.hosts = take_value("--hosts", &mut it)?
                    .parse()
                    .map_err(|_| "--hosts wants a number".to_string())?;
            }
            "--seed" => {
                mg.seed = take_value("--seed", &mut it)?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?;
            }
            "--paper-scale" => mg.paper_scale = true,
            other => return Err(format!("mapgen: unknown argument {other}")),
        }
    }
    Ok(Command::Mapgen(mg))
}

fn parse_freeze(argv: &[String]) -> Result<Command, String> {
    let mut out: Option<String> = None;
    let mut ignore_case = false;
    let mut ch = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" => out = Some(take_value("-o", &mut it)?.clone()),
            "-i" => ignore_case = true,
            "--ch" => ch = true,
            "-h" | "--help" => return Ok(Command::Help),
            f if f.starts_with('-') && f.len() > 1 => {
                return Err(format!("freeze: unknown flag {f}"));
            }
            file => files.push(file.to_string()),
        }
    }
    let out = out.ok_or_else(|| "freeze requires -o out.pagf".to_string())?;
    Ok(Command::Freeze(FreezeArgs {
        out,
        ignore_case,
        ch,
        files,
    }))
}

fn parse_query(argv: &[String]) -> Result<Command, String> {
    let mut db: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-d" => db = Some(take_value("-d", &mut it)?.clone()),
            other if other.starts_with('-') => {
                return Err(format!("query: unknown flag {other}"));
            }
            p => positional.push(p.to_string()),
        }
    }
    let db = db.ok_or_else(|| "query requires -d route-file".to_string())?;
    let mut pos = positional.into_iter();
    let dest = pos
        .next()
        .ok_or_else(|| "query requires a destination".to_string())?;
    let user = pos.next();
    if pos.next().is_some() {
        return Err("query takes at most destination and user".to_string());
    }
    Ok(Command::Query(QueryArgs { db, dest, user }))
}

fn parse_serve(argv: &[String]) -> Result<Command, String> {
    let mut padb = None;
    let mut backend: Option<Backend> = None;
    let mut routes = None;
    let mut pagf = None;
    let mut map_files = Vec::new();
    let mut map_set: Vec<MapSetEntry> = Vec::new();
    let mut default_map = None;
    let mut map_name = None;
    let mut listen = None;
    let mut unix = None;
    let mut udp = None;
    let mut workers: Option<usize> = None;
    let mut udp_connect = None;
    let mut local = None;
    let mut ignore_case = false;
    let mut watch = false;
    let mut watch_interval_ms: Option<u64> = None;
    let mut connect = None;
    let mut query_hosts: Vec<String> = Vec::new();
    let mut path_args: Option<(String, String)> = None;
    let mut user = None;
    let mut stats = false;
    let mut reload = false;
    let mut health = false;
    let mut maps = false;
    let mut metrics = false;
    let mut slowlog = false;
    let mut shutdown = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--padb" => padb = Some(take_value("--padb", &mut it)?.clone()),
            "--backend" => {
                backend = Some(match take_value("--backend", &mut it)?.as_str() {
                    "memory" => Backend::Memory,
                    "padb-mmap" => Backend::PadbMmap,
                    "pagf" => Backend::Pagf,
                    other => {
                        return Err(format!(
                            "--backend wants memory, padb-mmap or pagf, not {other}"
                        ))
                    }
                });
            }
            "--routes" => routes = Some(take_value("--routes", &mut it)?.clone()),
            "--pagf" => pagf = Some(take_value("--pagf", &mut it)?.clone()),
            "--map" => map_files.push(take_value("--map", &mut it)?.clone()),
            "--map-set" => {
                let entry = parse_map_set_entry(take_value("--map-set", &mut it)?)?;
                if map_set.iter().any(|e| e.name == entry.name) {
                    return Err(format!("--map-set: duplicate map name `{}`", entry.name));
                }
                map_set.push(entry);
            }
            "--default-map" => default_map = Some(take_value("--default-map", &mut it)?.clone()),
            "--map-name" => map_name = Some(take_value("--map-name", &mut it)?.clone()),
            "--listen" => listen = Some(take_value("--listen", &mut it)?.clone()),
            "--unix" => unix = Some(take_value("--unix", &mut it)?.clone()),
            "--udp" => udp = Some(take_value("--udp", &mut it)?.clone()),
            "--workers" => {
                let n: usize = take_value("--workers", &mut it)?
                    .parse()
                    .map_err(|_| "--workers wants a number".to_string())?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                workers = Some(n);
            }
            "--udp-connect" => udp_connect = Some(take_value("--udp-connect", &mut it)?.clone()),
            "-l" => local = Some(take_value("-l", &mut it)?.clone()),
            "-i" => ignore_case = true,
            "--watch" => watch = true,
            "--watch-interval-ms" => {
                let ms: u64 = take_value("--watch-interval-ms", &mut it)?
                    .parse()
                    .map_err(|_| "--watch-interval-ms wants a number".to_string())?;
                if ms == 0 {
                    return Err("--watch-interval-ms must be positive".to_string());
                }
                watch_interval_ms = Some(ms);
            }
            "--connect" => connect = Some(take_value("--connect", &mut it)?.clone()),
            "--query" => query_hosts.push(take_value("--query", &mut it)?.clone()),
            "--path" => {
                let src = take_value("--path", &mut it)?.clone();
                let dst = it
                    .next()
                    .ok_or_else(|| "--path wants two values: SRC DST".to_string())?
                    .clone();
                if path_args.is_some() {
                    return Err("serve: --path given twice".to_string());
                }
                path_args = Some((src, dst));
            }
            "--user" => user = Some(take_value("--user", &mut it)?.clone()),
            "--stats" => stats = true,
            "--reload" => reload = true,
            "--health" => health = true,
            "--maps" => maps = true,
            "--metrics" => metrics = true,
            "--slowlog" => slowlog = true,
            "--shutdown" => shutdown = true,
            other => return Err(format!("serve: unknown argument {other}")),
        }
    }

    let verb_count = usize::from(!query_hosts.is_empty())
        + usize::from(path_args.is_some())
        + usize::from(stats)
        + usize::from(reload)
        + usize::from(health)
        + usize::from(maps)
        + usize::from(metrics)
        + usize::from(slowlog)
        + usize::from(shutdown);
    let client_mode =
        verb_count > 0 || connect.is_some() || udp_connect.is_some() || map_name.is_some();

    if client_mode {
        if verb_count != 1 {
            return Err(
                "serve client mode wants exactly one of --query/--path/--stats/--reload/\
                 --health/--maps/--metrics/--slowlog/--shutdown"
                    .to_string(),
            );
        }
        if padb.is_some()
            || routes.is_some()
            || pagf.is_some()
            || !map_files.is_empty()
            || !map_set.is_empty()
        {
            return Err(
                "serve: client mode (--connect/--query/--stats/...) conflicts with \
                 table sources (--padb/--routes/--map/--pagf/--map-set)"
                    .to_string(),
            );
        }
        // Daemon-only flags must not be silently dropped.
        for (given, flag) in [
            (listen.is_some(), "--listen"),
            (backend.is_some(), "--backend"),
            (local.is_some(), "-l"),
            (ignore_case, "-i"),
            (watch, "--watch"),
            (watch_interval_ms.is_some(), "--watch-interval-ms"),
            (default_map.is_some(), "--default-map"),
            (udp.is_some(), "--udp"),
            (workers.is_some(), "--workers"),
        ] {
            if given {
                return Err(format!("serve: {flag} only makes sense in daemon mode"));
            }
        }
        let transports = usize::from(connect.is_some())
            + usize::from(unix.is_some())
            + usize::from(udp_connect.is_some());
        if transports != 1 {
            return Err(
                "serve client mode wants exactly one of --connect/--unix/--udp-connect".to_string(),
            );
        }
        if map_name.is_some() && (maps || shutdown) {
            return Err(
                "serve: --map-name only makes sense with --query/--path/--stats/--reload/\
                 --health/--metrics/--slowlog"
                    .to_string(),
            );
        }
        let action = if !query_hosts.is_empty() {
            ClientAction::Query {
                hosts: query_hosts,
                user,
            }
        } else if user.is_some() {
            return Err("serve: --user only makes sense with --query".to_string());
        } else if let Some((src, dst)) = path_args {
            ClientAction::Path { src, dst }
        } else if stats {
            ClientAction::Stats
        } else if reload {
            ClientAction::Reload
        } else if maps {
            ClientAction::Maps
        } else if metrics {
            ClientAction::Metrics
        } else if slowlog {
            ClientAction::Slowlog
        } else if shutdown {
            ClientAction::Shutdown
        } else {
            ClientAction::Health
        };
        if udp_connect.is_some() {
            // A datagram carries one request line and one response
            // line; the session and multi-line verbs have no UDP shape
            // (the daemon would refuse them with a 400 anyway).
            let refused = match action {
                ClientAction::Reload => Some("--reload"),
                ClientAction::Metrics => Some("--metrics"),
                ClientAction::Slowlog => Some("--slowlog"),
                ClientAction::Shutdown => Some("--shutdown"),
                _ => None,
            };
            if let Some(flag) = refused {
                return Err(format!(
                    "serve: {flag} has no datagram shape; use --connect or --unix"
                ));
            }
        }
        return Ok(Command::Serve(ServeArgs::Client(Box::new(ClientArgs {
            connect,
            unix,
            udp: udp_connect,
            map_name,
            action,
        }))));
    }

    let sources = usize::from(padb.is_some())
        + usize::from(routes.is_some())
        + usize::from(pagf.is_some())
        + usize::from(!map_files.is_empty());
    if !map_set.is_empty() {
        if sources != 0 {
            return Err("serve: --map-set conflicts with the single-source flags \
                 (--padb/--routes/--map/--pagf)"
                .to_string());
        }
        if backend.is_some() {
            return Err(
                "serve: --backend only applies to a single source; --map-set names \
                 each member's kind (e.g. NAME=padb-mmap:FILE)"
                    .to_string(),
            );
        }
        if let Some(name) = &default_map {
            if !map_set.iter().any(|e| &e.name == name) {
                return Err(format!(
                    "serve: --default-map `{name}` is not in the --map-set"
                ));
            }
        }
        // Same contradiction the single-source form rejects: case
        // folding is baked into a snapshot at freeze time, so -i
        // cannot apply to a pagf member and must not be silently
        // ignored for it.
        if ignore_case {
            if let Some(entry) = map_set.iter().find(|e| e.kind == SourceKind::Pagf) {
                return Err(format!(
                    "serve: -i is baked into the snapshot at freeze time and cannot apply \
                     to map-set member `{}`; refreeze with `pathalias freeze -i`",
                    entry.name
                ));
            }
        }
    } else {
        if default_map.is_some() {
            return Err("serve: --default-map only makes sense with --map-set".to_string());
        }
        if sources != 1 {
            return Err(
                "serve wants exactly one of --padb/--routes/--map/--pagf/--map-set".to_string(),
            );
        }
    }
    // A snapshot source *is* the pagf backend; naming any other
    // backend for it (or the pagf backend without a snapshot) is a
    // contradiction, not something to silently repair.
    let backend = backend.unwrap_or(if pagf.is_some() {
        Backend::Pagf
    } else {
        Backend::Memory
    });
    if backend == Backend::PadbMmap && padb.is_none() {
        return Err("serve: --backend padb-mmap requires --padb".to_string());
    }
    if backend == Backend::Pagf && pagf.is_none() {
        return Err("serve: --backend pagf requires --pagf".to_string());
    }
    if pagf.is_some() && backend != Backend::Pagf {
        return Err("serve: --pagf only serves through --backend pagf".to_string());
    }
    if pagf.is_some() && ignore_case {
        return Err("serve: -i is baked into the snapshot at freeze time; \
             refreeze with `pathalias freeze -i`"
            .to_string());
    }
    if user.is_some() {
        return Err("serve: --user only makes sense with --query".to_string());
    }
    if watch_interval_ms.is_some() && !watch {
        return Err("serve: --watch-interval-ms only makes sense with --watch".to_string());
    }
    // With no listener at all, default to loopback TCP.
    let listen = match (listen, &unix, &udp) {
        (None, None, None) => Some("127.0.0.1:4175".to_string()),
        (listen, _, _) => listen,
    };
    Ok(Command::Serve(ServeArgs::Daemon(Box::new(DaemonArgs {
        padb,
        backend,
        routes,
        pagf,
        map_files,
        map_set,
        default_map,
        listen,
        unix,
        udp,
        workers,
        local,
        ignore_case,
        watch,
        watch_interval_ms: watch_interval_ms.unwrap_or(2000),
    }))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_run() {
        let Command::Run(r) = parse(&v(&[])).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r, RunArgs::default());
    }

    #[test]
    fn full_run_flags() {
        let Command::Run(r) = parse(&v(&[
            "-l",
            "unc",
            "-c",
            "-i",
            "-v",
            "-n",
            "-t",
            "duke",
            "-t",
            "phs",
            "usenet.map",
            "arpa.map",
        ]))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.local.as_deref(), Some("unc"));
        assert!(r.with_costs && r.ignore_case && r.verbose && r.sort_by_name);
        assert_eq!(r.trace, vec!["duke", "phs"]);
        assert_eq!(r.files, vec!["usenet.map", "arpa.map"]);
    }

    #[test]
    fn missing_value() {
        assert!(parse(&v(&["-l"])).is_err());
        assert!(parse(&v(&["-t"])).is_err());
    }

    #[test]
    fn unknown_flag() {
        // `-s` (second-best routes, which nothing printed) is gone:
        // like any unknown flag, a usage error, which exits 2.
        for flag in ["-q", "-s"] {
            assert_eq!(
                parse(&v(&[flag])).unwrap_err(),
                format!("unknown flag {flag}")
            );
        }
    }

    #[test]
    fn mapgen_args() {
        let Command::Mapgen(m) = parse(&v(&["mapgen", "--hosts", "800", "--seed", "7"])).unwrap()
        else {
            panic!("expected mapgen");
        };
        assert_eq!(m.hosts, 800);
        assert_eq!(m.seed, 7);
        assert!(!m.paper_scale);

        let Command::Mapgen(m) = parse(&v(&["mapgen", "--paper-scale"])).unwrap() else {
            panic!("expected mapgen");
        };
        assert!(m.paper_scale);
    }

    #[test]
    fn mapgen_bad_number() {
        assert!(parse(&v(&["mapgen", "--hosts", "many"])).is_err());
    }

    #[test]
    fn freeze_args() {
        let Command::Freeze(fz) =
            parse(&v(&["freeze", "-o", "world.pagf", "-i", "a.map", "b.map"])).unwrap()
        else {
            panic!("expected freeze");
        };
        assert_eq!(fz.out, "world.pagf");
        assert!(fz.ignore_case);
        assert!(!fz.ch);
        assert_eq!(fz.files, vec!["a.map", "b.map"]);

        // Stdin mode: no files.
        let Command::Freeze(fz) = parse(&v(&["freeze", "-o", "w.pagf"])).unwrap() else {
            panic!("expected freeze");
        };
        assert!(fz.files.is_empty());
        assert!(!fz.ignore_case);

        // Opting into the contraction-hierarchy section.
        let Command::Freeze(fz) = parse(&v(&["freeze", "--ch", "-o", "w.pagf", "a.map"])).unwrap()
        else {
            panic!("expected freeze");
        };
        assert!(fz.ch);

        // -o is required; junk flags are rejected.
        assert!(parse(&v(&["freeze", "a.map"])).is_err());
        assert!(parse(&v(&["freeze", "-o"])).is_err());
        assert!(parse(&v(&["freeze", "-o", "w", "--fast"])).is_err());
    }

    #[test]
    fn serve_pagf_source() {
        // --pagf alone implies the pagf backend.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--pagf", "world.pagf", "-l", "home"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.pagf.as_deref(), Some("world.pagf"));
        assert_eq!(d.backend, Backend::Pagf);
        assert_eq!(d.local.as_deref(), Some("home"));

        // Explicitly naming the backend is accepted.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--pagf", "world.pagf", "--backend", "pagf"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.backend, Backend::Pagf);

        // Contradictions are rejected: pagf backend without a
        // snapshot, a snapshot under another backend, two sources,
        // and client mode with a snapshot source.
        assert!(parse(&v(&["serve", "--routes", "r", "--backend", "pagf"])).is_err());
        assert!(parse(&v(&["serve", "--pagf", "w", "--backend", "memory"])).is_err());
        assert!(parse(&v(&["serve", "--pagf", "w", "--backend", "padb-mmap"])).is_err());
        assert!(parse(&v(&["serve", "--pagf", "w", "--padb", "d"])).is_err());
        assert!(parse(&v(&["serve", "--connect", "a:1", "--stats", "--pagf", "w"])).is_err());
        // -i cannot change a snapshot whose case folding is baked in.
        assert!(parse(&v(&["serve", "--pagf", "w", "-i"])).is_err());
    }

    #[test]
    fn query_args() {
        let Command::Query(q) = parse(&v(&[
            "query",
            "-d",
            "routes.txt",
            "caip.rutgers.edu",
            "pleasant",
        ]))
        .unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.db, "routes.txt");
        assert_eq!(q.dest, "caip.rutgers.edu");
        assert_eq!(q.user.as_deref(), Some("pleasant"));
    }

    #[test]
    fn query_requires_db_and_dest() {
        assert!(parse(&v(&["query", "dest"])).is_err());
        assert!(parse(&v(&["query", "-d", "f"])).is_err());
        assert!(parse(&v(&["query", "-d", "f", "a", "b", "c"])).is_err());
    }

    #[test]
    fn serve_daemon_args() {
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--routes",
            "r.txt",
            "--listen",
            "0.0.0.0:9999",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.routes.as_deref(), Some("r.txt"));
        assert_eq!(d.listen.as_deref(), Some("0.0.0.0:9999"));

        // Default listen address when nothing is specified.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--padb", "db.padb"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.listen.as_deref(), Some("127.0.0.1:4175"));

        // Unix-only: no TCP default.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--padb", "db.padb", "--unix", "/tmp/s.sock"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.listen, None);
        assert_eq!(d.unix.as_deref(), Some("/tmp/s.sock"));

        // Repeatable --map with pipeline flags.
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve", "--map", "a.map", "--map", "b.map", "-l", "unc", "-i",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.map_files, vec!["a.map", "b.map"]);
        assert_eq!(d.local.as_deref(), Some("unc"));
        assert!(d.ignore_case);
    }

    #[test]
    fn serve_watch_flags() {
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--routes", "r.txt", "--watch"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert!(d.watch);
        assert_eq!(d.watch_interval_ms, 2000, "default interval");

        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--map",
            "a.map",
            "--watch",
            "--watch-interval-ms",
            "250",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert!(d.watch);
        assert_eq!(d.watch_interval_ms, 250);

        // Off by default; interval alone is rejected; client mode
        // rejects both.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--routes", "r.txt"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert!(!d.watch);
        assert!(parse(&v(&["serve", "--routes", "r", "--watch-interval-ms", "5"])).is_err());
        assert!(parse(&v(&["serve", "--connect", "a:1", "--stats", "--watch"])).is_err());
    }

    #[test]
    fn serve_map_set_args() {
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--map-set",
            "global=pagf:world.pagf",
            "--map-set",
            "regional=map:east.map,west.map",
            "--map-set",
            "local=routes:overrides.txt",
            "--default-map",
            "regional",
            "-l",
            "home",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.map_set.len(), 3);
        assert_eq!(d.map_set[0].name, "global");
        assert_eq!(d.map_set[0].kind, SourceKind::Pagf);
        assert_eq!(d.map_set[0].paths, vec!["world.pagf"]);
        assert_eq!(d.map_set[1].kind, SourceKind::Map);
        assert_eq!(d.map_set[1].paths, vec!["east.map", "west.map"]);
        assert_eq!(d.map_set[2].kind, SourceKind::Routes);
        assert_eq!(d.default_map.as_deref(), Some("regional"));
        assert_eq!(d.local.as_deref(), Some("home"));

        // padb and padb-mmap kinds parse too.
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--map-set",
            "a=padb:a.padb",
            "--map-set",
            "b=padb-mmap:b.padb",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.map_set[0].kind, SourceKind::Padb);
        assert_eq!(d.map_set[1].kind, SourceKind::PadbMmap);
    }

    #[test]
    fn serve_map_set_local_suffix() {
        // :l=HOST names one map's local host and does not leak into
        // the path list.
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--map-set",
            "east=map:east.map:l=gateway",
            "--map-set",
            "west=map:west.map:l=wgw",
            "--map-set",
            "north=routes:north.txt",
            "-l",
            "home",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.map_set[0].local.as_deref(), Some("gateway"));
        assert_eq!(d.map_set[0].paths, vec!["east.map"]);
        assert_eq!(d.map_set[1].local.as_deref(), Some("wgw"));
        assert_eq!(d.map_set[1].paths, vec!["west.map"]);
        assert_eq!(d.map_set[2].local, None, "no suffix, daemon-wide -l");
        assert_eq!(d.local.as_deref(), Some("home"));

        // An empty or duplicated host is an error, not a path.
        let err = parse(&v(&["serve", "--map-set", "a=map:f:l="])).unwrap_err();
        assert!(err.contains("l= wants a host"), "got: {err}");
        let err = parse(&v(&["serve", "--map-set", "a=map:f:l=x:l=y"])).unwrap_err();
        assert!(err.contains("duplicate l="), "got: {err}");
        // Table kinds carry no local host: a dead l= is a typo.
        let err = parse(&v(&["serve", "--map-set", "a=routes:f:l=x"])).unwrap_err();
        assert!(err.contains("only applies to map/pagf"), "got: {err}");
        let err = parse(&v(&["serve", "--map-set", "a=padb:f:l=x"])).unwrap_err();
        assert!(err.contains("only applies to map/pagf"), "got: {err}");
        assert!(parse(&v(&["serve", "--map-set", "a=pagf:w.pagf:l=x"])).is_ok());
    }

    #[test]
    fn serve_udp_and_workers_flags() {
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--routes",
            "r.txt",
            "--listen",
            "127.0.0.1:4175",
            "--udp",
            "127.0.0.1:4176",
            "--workers",
            "4",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.udp.as_deref(), Some("127.0.0.1:4176"));
        assert_eq!(d.workers, Some(4));
        assert_eq!(d.listen.as_deref(), Some("127.0.0.1:4175"));

        // Like --unix, an explicit --udp suppresses the TCP default: a
        // UDP-only daemon binds nothing else.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--routes", "r.txt", "--udp", "127.0.0.1:0"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.listen, None);
        assert_eq!(d.udp.as_deref(), Some("127.0.0.1:0"));

        // Zero or junk worker counts are rejected; both flags are
        // daemon-only.
        assert!(parse(&v(&["serve", "--routes", "r", "--workers", "0"])).is_err());
        assert!(parse(&v(&["serve", "--routes", "r", "--workers", "many"])).is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--stats",
            "--udp",
            "b:2"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--stats",
            "--workers",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn serve_client_udp_connect() {
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--udp-connect",
            "127.0.0.1:4176",
            "--query",
            "seismo",
            "--user",
            "rick",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.udp.as_deref(), Some("127.0.0.1:4176"));
        assert_eq!(c.connect, None);
        assert_eq!(
            c.action,
            ClientAction::Query {
                hosts: vec!["seismo".into()],
                user: Some("rick".into())
            }
        );

        // The other single-line verbs frame over a datagram too, with
        // or without a map qualifier.
        for verb in [&["--path", "a", "b"][..], &["--stats"], &["--health"]] {
            let mut argv = vec!["serve", "--udp-connect", "a:1", "--map-name", "m"];
            argv.extend_from_slice(verb);
            assert!(parse(&v(&argv)).is_ok(), "{verb:?} over udp should parse");
        }
        assert!(parse(&v(&["serve", "--udp-connect", "a:1", "--maps"])).is_ok());

        // Session and multi-line verbs have no datagram shape.
        for verb in ["--reload", "--metrics", "--slowlog", "--shutdown"] {
            let err = parse(&v(&["serve", "--udp-connect", "a:1", verb])).unwrap_err();
            assert!(err.contains("no datagram shape"), "{verb}: {err}");
        }

        // Exactly one transport.
        assert!(parse(&v(&[
            "serve",
            "--udp-connect",
            "a:1",
            "--connect",
            "b:2",
            "--stats"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--udp-connect",
            "a:1",
            "--unix",
            "/tmp/s",
            "--stats"
        ]))
        .is_err());
    }

    #[test]
    fn serve_map_set_rejects_malformed() {
        // Bad spec grammar.
        assert!(parse(&v(&["serve", "--map-set", "noequals"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=nopaths"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=turbo:f"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "=routes:f"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a b=routes:f"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a,b=routes:f"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "@a=routes:f"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=routes:"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=map:x.map,,y.map"])).is_err());
        // Duplicate names.
        assert!(parse(&v(&[
            "serve",
            "--map-set",
            "a=routes:f",
            "--map-set",
            "a=routes:g"
        ]))
        .is_err());
        // Conflicts with single-source flags and --backend.
        assert!(parse(&v(&["serve", "--map-set", "a=routes:f", "--routes", "g"])).is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=routes:f", "--padb", "g"])).is_err());
        assert!(parse(&v(&[
            "serve",
            "--map-set",
            "a=routes:f",
            "--backend",
            "memory"
        ]))
        .is_err());
        // --default-map must name a member, and needs --map-set.
        assert!(parse(&v(&[
            "serve",
            "--map-set",
            "a=routes:f",
            "--default-map",
            "b"
        ]))
        .is_err());
        // -i cannot change a snapshot member's baked-in case folding
        // (mirrors the single-source --pagf check); other kinds accept
        // it.
        assert!(parse(&v(&["serve", "--map-set", "a=pagf:w.pagf", "-i"])).is_err());
        assert!(parse(&v(&[
            "serve",
            "--map-set",
            "a=map:x.map",
            "--map-set",
            "b=pagf:w.pagf",
            "-i"
        ]))
        .is_err());
        assert!(parse(&v(&["serve", "--map-set", "a=map:x.map", "-i"])).is_ok());
        assert!(parse(&v(&["serve", "--routes", "f", "--default-map", "a"])).is_err());
        // Client mode rejects the daemon-side map flags.
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--stats",
            "--map-set",
            "a=routes:f"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--stats",
            "--default-map",
            "a"
        ]))
        .is_err());
    }

    #[test]
    fn serve_client_map_name_and_maps() {
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--map-name",
            "regional",
            "--query",
            "seismo",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.map_name.as_deref(), Some("regional"));

        let Command::Serve(ServeArgs::Client(c)) =
            parse(&v(&["serve", "--connect", "a:1", "--maps"])).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(c.action, ClientAction::Maps);
        assert_eq!(c.map_name, None);

        // --maps is a verb like the others: exclusive; takes no map
        // name; --map-name without a verb defaults to... nothing —
        // it needs a verb that shards.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--maps", "--stats"])).is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--maps",
            "--map-name",
            "a"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--shutdown",
            "--map-name",
            "a"
        ]))
        .is_err());
        // --map-name with --stats/--reload/--health is fine.
        for verb in ["--stats", "--reload", "--health"] {
            let parsed = parse(&v(&["serve", "--connect", "a:1", verb, "--map-name", "m"]));
            assert!(parsed.is_ok(), "{verb} with --map-name should parse");
        }
    }

    #[test]
    fn serve_client_metrics_and_slowlog() {
        let Command::Serve(ServeArgs::Client(c)) =
            parse(&v(&["serve", "--connect", "a:1", "--metrics"])).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(c.action, ClientAction::Metrics);
        assert_eq!(c.map_name, None);

        // Both take --map-name: METRICS @name and SLOWLOG @name are
        // qualified verbs on the wire.
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--metrics",
            "--map-name",
            "east",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.action, ClientAction::Metrics);
        assert_eq!(c.map_name.as_deref(), Some("east"));

        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--unix",
            "/tmp/s.sock",
            "--slowlog",
            "--map-name",
            "west",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.action, ClientAction::Slowlog);
        assert_eq!(c.map_name.as_deref(), Some("west"));

        // Verbs stay exclusive, and daemon mode rejects them.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--metrics", "--stats"])).is_err());
        assert!(parse(&v(&["serve", "--connect", "a:1", "--metrics", "--slowlog"])).is_err());
        assert!(parse(&v(&["serve", "--routes", "r", "--metrics"])).is_err());
        assert!(parse(&v(&["serve", "--routes", "r", "--slowlog"])).is_err());
    }

    #[test]
    fn serve_client_args() {
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "127.0.0.1:4175",
            "--query",
            "seismo",
            "--user",
            "rick",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.connect.as_deref(), Some("127.0.0.1:4175"));
        assert_eq!(
            c.action,
            ClientAction::Query {
                hosts: vec!["seismo".into()],
                user: Some("rick".into())
            }
        );

        let Command::Serve(ServeArgs::Client(c)) =
            parse(&v(&["serve", "--unix", "/tmp/s.sock", "--stats"])).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(c.unix.as_deref(), Some("/tmp/s.sock"));
        assert_eq!(c.action, ClientAction::Stats);
    }

    #[test]
    fn serve_client_batch_and_shutdown() {
        // Repeatable --query batches hosts in order.
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--query",
            "h1",
            "--query",
            "h2",
            "--query",
            "h3",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(
            c.action,
            ClientAction::Query {
                hosts: vec!["h1".into(), "h2".into(), "h3".into()],
                user: None
            }
        );

        let Command::Serve(ServeArgs::Client(c)) =
            parse(&v(&["serve", "--connect", "a:1", "--shutdown"])).unwrap()
        else {
            panic!("expected client");
        };
        assert_eq!(c.action, ClientAction::Shutdown);
        // --shutdown is a verb like the others: exclusive.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--shutdown", "--stats"])).is_err());
    }

    #[test]
    fn serve_client_path() {
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--path",
            "unc",
            "mit-ai",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(
            c.action,
            ClientAction::Path {
                src: "unc".into(),
                dst: "mit-ai".into()
            }
        );

        // `*` source (the via listing) and a map qualifier both frame.
        let Command::Serve(ServeArgs::Client(c)) = parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--map-name",
            "east",
            "--path",
            "*",
            "seismo",
        ]))
        .unwrap() else {
            panic!("expected client");
        };
        assert_eq!(c.map_name.as_deref(), Some("east"));
        assert_eq!(
            c.action,
            ClientAction::Path {
                src: "*".into(),
                dst: "seismo".into()
            }
        );

        // --path wants exactly two values, once, and is exclusive with
        // the other verbs; --user belongs to --query alone.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--path", "unc"])).is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--path",
            "a",
            "b",
            "--path",
            "c",
            "d"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--path",
            "a",
            "b",
            "--stats"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--path",
            "a",
            "b",
            "--user",
            "u"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--path",
            "a",
            "b",
            "--query",
            "h"
        ]))
        .is_err());
    }

    #[test]
    fn serve_backend_flag() {
        let Command::Serve(ServeArgs::Daemon(d)) = parse(&v(&[
            "serve",
            "--padb",
            "db.padb",
            "--backend",
            "padb-mmap",
        ]))
        .unwrap() else {
            panic!("expected daemon");
        };
        assert_eq!(d.backend, Backend::PadbMmap);

        // Default is memory.
        let Command::Serve(ServeArgs::Daemon(d)) =
            parse(&v(&["serve", "--padb", "db.padb"])).unwrap()
        else {
            panic!("expected daemon");
        };
        assert_eq!(d.backend, Backend::Memory);

        // padb-mmap without --padb, or a junk backend name, is an error.
        assert!(parse(&v(&["serve", "--routes", "r", "--backend", "padb-mmap"])).is_err());
        assert!(parse(&v(&["serve", "--padb", "f", "--backend", "turbo"])).is_err());
        // Client mode rejects it rather than silently dropping it.
        assert!(parse(&v(&[
            "serve",
            "--connect",
            "a:1",
            "--query",
            "h",
            "--backend",
            "padb-mmap"
        ]))
        .is_err());
    }

    #[test]
    fn serve_rejects_ambiguity() {
        // No source.
        assert!(parse(&v(&["serve"])).is_err());
        // Two sources.
        assert!(parse(&v(&["serve", "--padb", "a", "--routes", "b"])).is_err());
        // Client mode with a source.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--stats", "--padb", "f"])).is_err());
        // Client mode with no verb.
        assert!(parse(&v(&["serve", "--connect", "a:1"])).is_err());
        // Client mode with two verbs.
        assert!(parse(&v(&["serve", "--connect", "a:1", "--stats", "--reload"])).is_err());
        // Client mode with neither --connect nor --unix.
        assert!(parse(&v(&["serve", "--stats"])).is_err());
        // --user without --query.
        assert!(parse(&v(&["serve", "--routes", "r", "--user", "u"])).is_err());
        assert!(parse(&v(&["serve", "--connect", "a:1", "--stats", "--user", "u"])).is_err());
        // Daemon-only flags are rejected, not silently dropped, in
        // client mode.
        for flag in [&["--listen", "a:2"][..], &["-l", "h"], &["-i"]] {
            let mut argv = vec!["serve", "--connect", "a:1", "--query", "h"];
            argv.extend_from_slice(flag);
            assert!(parse(&v(&argv)).is_err(), "{flag:?} should be rejected");
        }
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&v(&["-h"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn single_dash_is_a_file() {
        // "-" conventionally means stdin; we treat it as a file name
        // and let the caller decide.
        let Command::Run(r) = parse(&v(&["-"])).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.files, vec!["-"]);
    }
}
