//! The `pathalias` command-line tool.
//!
//! Flag-compatible with the original where the paper describes
//! behaviour, plus two modern subcommands:
//!
//! ```text
//! pathalias [-l host] [-c] [-i] [-v] [-n] [-s] [-t host]... [file ...]
//! pathalias mapgen [--hosts N] [--seed N] [--paper-scale]
//! pathalias query -d route-file destination [user]
//! pathalias serve (--padb F | --routes F | --map F...) [--listen addr] [--unix path]
//! pathalias serve (--connect addr | --unix path) (--query host | --stats | ...)
//! ```
//!
//! With no input files, the map is read from standard input. Routes go
//! to standard output; warnings, unreachable hosts and statistics go to
//! standard error.

use pathalias_core::{Options, Parsed, Pathalias, Sort};
use pathalias_mailer::RouteDb;
use pathalias_mapgen::{generate, MapSpec};
use pathalias_server::{Client, Logger, MapSource, Server, ServerConfig, UdpClient};
use std::io::{Read, Write};
use std::process::ExitCode;

mod args;

use args::{
    Backend, ClientAction, ClientArgs, Command, DaemonArgs, FreezeArgs, MapgenArgs, QueryArgs,
    RunArgs, ServeArgs, SourceKind,
};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(Command::Run(run)) => cmd_run(run),
        Ok(Command::Mapgen(mg)) => cmd_mapgen(mg),
        Ok(Command::Freeze(fz)) => cmd_freeze(fz),
        Ok(Command::Query(q)) => cmd_query(q),
        Ok(Command::Serve(ServeArgs::Daemon(d))) => cmd_serve_daemon(*d),
        Ok(Command::Serve(ServeArgs::Client(c))) => cmd_serve_client(*c),
        Ok(Command::Help) => {
            print!("{}", args::USAGE);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("pathalias: {msg}");
            eprint!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}

fn cmd_run(run: RunArgs) -> ExitCode {
    let options = Options {
        local: run.local,
        ignore_case: run.ignore_case,
        with_costs: run.with_costs,
        sort: if run.sort_by_name {
            Sort::ByName
        } else {
            Sort::ByCost
        },
        trace: run.trace,
        second_best: run.second_best,
        ..Options::default()
    };
    let verbose = run.verbose;
    let mut pa = Pathalias::with_options(options);

    if run.files.is_empty() {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("pathalias: reading stdin: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = pa.parse_str("<stdin>", &text) {
            eprintln!("pathalias: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        for f in &run.files {
            if let Err(e) = pa.parse_file(f) {
                eprintln!("pathalias: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match pa.run() {
        Ok(out) => {
            print!("{}", out.rendered);
            for w in &out.warnings {
                eprintln!("pathalias: warning: {w}");
            }
            if !out.tree.trace.is_empty() {
                eprint!(
                    "{}",
                    pathalias_core::format_trace(out.tree.frozen(), &out.tree.trace)
                );
            }
            if !out.unreachable.is_empty() {
                eprintln!(
                    "pathalias: {} unreachable host(s): {}",
                    out.unreachable.len(),
                    out.unreachable.join(", ")
                );
            }
            if verbose {
                let s = out.tree.stats;
                eprintln!(
                    "pathalias: {} nodes, {} links, {} mapped",
                    pa.graph().node_count(),
                    pa.graph().link_count(),
                    s.mapped
                );
                eprintln!(
                    "pathalias: heap: {} pushes, {} pops ({} stale); {} relaxations",
                    s.pushes, s.pops, s.stale_pops, s.relaxations
                );
                eprintln!(
                    "pathalias: penalties: {} gate, {} relay, {} mixed; back links: {} in {} rounds ({} restarted)",
                    s.gate_penalties,
                    s.relay_penalties,
                    s.mixed_penalties,
                    s.invented_links,
                    s.backlink_rounds,
                    s.restarted_rounds
                );
                eprintln!(
                    "pathalias: timings: parse {:?}, freeze {:?}, map {:?}, print {:?}",
                    out.timings.parse, out.timings.freeze, out.timings.map, out.timings.print
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pathalias: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_mapgen(mg: MapgenArgs) -> ExitCode {
    let spec = if mg.paper_scale {
        MapSpec::usenet_1986(mg.seed)
    } else {
        MapSpec::small(mg.hosts, mg.seed)
    };
    let map = generate(&spec);
    print!("{}", map.concatenated());
    eprintln!(
        "mapgen: {} hosts, {} links, {} networks, {} domains; home hub: {}",
        map.stats.hosts, map.stats.links, map.stats.networks, map.stats.domains, map.home
    );
    ExitCode::SUCCESS
}

/// `pathalias freeze`: run parse → build → freeze and write the
/// snapshot, so later runs (and daemons) can cold-start from it.
fn cmd_freeze(fz: FreezeArgs) -> ExitCode {
    let options = Options {
        ignore_case: fz.ignore_case,
        ..Options::default()
    };
    let mut parsed = Parsed::new();
    if fz.files.is_empty() {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("pathalias: reading stdin: {e}");
            return ExitCode::FAILURE;
        }
        parsed.push_str("<stdin>", &text);
    } else {
        for f in &fz.files {
            if let Err(e) = parsed.push_file(f) {
                eprintln!("pathalias: {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let built = match parsed.build(&options) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pathalias: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut frozen = built.freeze();
    for w in frozen.warnings() {
        eprintln!("pathalias: warning: {w}");
    }
    // The snapshot carries the reverse index too, so a daemon serving
    // it answers `PATH * dst` without an O(n+m) transpose on startup.
    // `--ch` additionally stores the contraction hierarchy over the
    // default cost model's lower-bound weights, so the daemon's PATH
    // fast tier needs no freeze-time work either.
    let mut hierarchy = String::new();
    if fz.ch {
        let graph = frozen.graph().clone();
        let weights = pathalias_router::ch_weights(&graph, &pathalias_core::CostModel::default());
        let t0 = std::time::Instant::now();
        let ch = pathalias_core::ChIndex::build(&graph, &weights);
        hierarchy = format!(
            ", hierarchy {:?}, {} shortcuts",
            t0.elapsed(),
            ch.shortcut_count()
        );
        frozen = frozen.with_hierarchy(std::sync::Arc::new(ch));
    }
    if let Err(e) = frozen.write_snapshot_all(&fz.out) {
        eprintln!("pathalias: writing {}: {e}", fz.out);
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(&fz.out).map(|m| m.len()).unwrap_or(0);
    let g = frozen.graph();
    eprintln!(
        "pathalias: froze {} nodes, {} edges into {} ({} bytes; parse {:?}, freeze {:?}{hierarchy})",
        g.node_count(),
        g.edge_count(),
        fz.out,
        bytes,
        built.build_time,
        frozen.freeze_time,
    );
    ExitCode::SUCCESS
}

fn cmd_serve_daemon(d: DaemonArgs) -> ExitCode {
    let options = Options {
        local: d.local.clone(),
        ignore_case: d.ignore_case,
        ..Options::default()
    };
    // Per-map `:cache=N` suffixes become capacity overrides; maps
    // without one share the daemon-wide --cache.
    let cache_capacities: Vec<(String, usize)> = d
        .map_set
        .iter()
        .filter_map(|e| e.cache.map(|c| (e.name.clone(), c)))
        .collect();
    let maps: Vec<(String, MapSource)> = if !d.map_set.is_empty() {
        // Several named maps, each from its own source shape. The
        // pipeline options (-l, -i) apply to every map/pagf member; a
        // `:l=HOST` suffix overrides the local host for that one map.
        d.map_set
            .into_iter()
            .map(|entry| {
                let path = || entry.paths[0].clone().into();
                let entry_options = Options {
                    local: entry.local.clone().or_else(|| options.local.clone()),
                    ..options.clone()
                };
                let source = match entry.kind {
                    SourceKind::Map => MapSource::map_files(
                        entry.paths.iter().map(Into::into).collect(),
                        entry_options,
                    ),
                    SourceKind::Routes => MapSource::Routes(path()),
                    SourceKind::Padb => MapSource::Padb(path()),
                    SourceKind::PadbMmap => MapSource::PadbMmap(path()),
                    SourceKind::Pagf => MapSource::frozen_snapshot(path(), entry_options),
                };
                (entry.name, source)
            })
            .collect()
    } else {
        let source = if let Some(path) = d.padb {
            match d.backend {
                Backend::PadbMmap => MapSource::PadbMmap(path.into()),
                Backend::Memory | Backend::Pagf => MapSource::Padb(path.into()),
            }
        } else if let Some(path) = d.pagf {
            let options = Options {
                local: d.local,
                ..Options::default()
            };
            MapSource::frozen_snapshot(path.into(), options)
        } else if let Some(path) = d.routes {
            MapSource::Routes(path.into())
        } else {
            MapSource::map_files(d.map_files.into_iter().map(Into::into).collect(), options)
        };
        vec![(pathalias_server::DEFAULT_MAP_NAME.to_string(), source)]
    };
    let multi_map = maps.len() > 1;
    let config = ServerConfig {
        maps,
        default_map: d.default_map,
        tcp: d.listen,
        unix: d.unix.map(Into::into),
        udp: d.udp,
        workers: d.workers,
        cache_capacity: d.cache,
        cache_capacities,
        cache_shards: d.shards,
        watch: d
            .watch
            .then(|| std::time::Duration::from_millis(d.watch_interval_ms)),
        // Structured key=value diagnostics on stderr, at the level
        // PATHALIAS_LOG asks for (default info). The announce lines
        // below stay on stdout for scripts to scrape.
        logger: Logger::from_env(),
    };
    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pathalias: serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce lines go out with write errors ignored: a consumer
    // that reads only the address line and closes the pipe (`| head
    // -1`, a test scraping the port) must not panic the daemon out of
    // existence mid-startup.
    let mut stdout = std::io::stdout();
    if let Some(addr) = handle.tcp_addr() {
        let _ = writeln!(stdout, "pathalias-server listening on tcp {addr}");
    }
    if let Some(addr) = handle.udp_addr() {
        let _ = writeln!(stdout, "pathalias-server listening on udp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        let _ = writeln!(
            stdout,
            "pathalias-server listening on unix {}",
            path.display()
        );
    }
    if multi_map {
        let default_name = handle.default_map_name().to_string();
        for (name, kind, generation, entries) in handle.map_infos() {
            let marker = if name == default_name {
                " [default]"
            } else {
                ""
            };
            let _ = writeln!(
                stdout,
                "pathalias-server map {name} ({kind}): {entries} entries \
                 (generation {generation}){marker}"
            );
        }
    }
    let (generation, entries) = handle.table_info();
    let _ = writeln!(
        stdout,
        "pathalias-server serving {entries} entries (generation {generation})"
    );
    // Scripts scrape the ephemeral port from the lines above.
    let _ = stdout.flush();
    handle.wait();
    ExitCode::SUCCESS
}

/// Client verbs over the daemon's UDP endpoint: one datagram per
/// request, output shapes identical to the TCP/Unix path so scripts
/// can switch transports without re-parsing. The argument parser only
/// lets the single-line verbs through; a multi-host `--query` becomes
/// one datagram per host (there is no MQUERY framing in a datagram).
fn cmd_serve_client_udp(c: &ClientArgs, addr: &str) -> ExitCode {
    let mut client = match UdpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pathalias: serve: connecting: {e}");
            return ExitCode::FAILURE;
        }
    };
    let map = c.map_name.as_deref();
    let outcome = match &c.action {
        ClientAction::Query { hosts, user } => {
            let mut missing = false;
            for host in hosts {
                match client.query_on(map, host, user.as_deref()) {
                    Ok(Some(route)) => println!("{route}"),
                    Ok(None) => {
                        eprintln!("pathalias: no route to {host}");
                        missing = true;
                    }
                    Err(e) => {
                        eprintln!("pathalias: serve: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if missing {
                return ExitCode::FAILURE;
            }
            Ok(())
        }
        ClientAction::Path { src, dst } if src == "*" => match client.via_on(map, dst) {
            Ok(Some(entries)) => {
                for (name, cost) in &entries {
                    println!("{name}\t{cost}");
                }
                Ok(())
            }
            Ok(None) => {
                eprintln!("pathalias: no host {dst}");
                return ExitCode::FAILURE;
            }
            Err(e) => Err(e),
        },
        ClientAction::Path { src, dst } => match client.path_on(map, src, dst) {
            Ok(Some(info)) => {
                println!("{}", info.route);
                eprintln!("pathalias: cost {} over {} hop(s)", info.cost, info.hops);
                Ok(())
            }
            Ok(None) => {
                eprintln!("pathalias: no route from {src} to {dst}");
                return ExitCode::FAILURE;
            }
            Err(e) => Err(e),
        },
        ClientAction::Stats => client.stats_on(map).map(|s| println!("{s}")),
        ClientAction::Health => client.health_on(map).map(|s| println!("{s}")),
        ClientAction::Maps => client.maps().map(|info| {
            for name in &info.names {
                if *name == info.default {
                    println!("{name} (default)");
                } else {
                    println!("{name}");
                }
            }
        }),
        // The parser rejects the session and multi-line verbs before
        // we get here.
        _ => unreachable!("parser admits only datagram-shaped verbs over --udp-connect"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pathalias: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve_client(c: ClientArgs) -> ExitCode {
    if let Some(addr) = c.udp.clone() {
        return cmd_serve_client_udp(&c, &addr);
    }
    let client = if let Some(addr) = &c.connect {
        Client::connect(addr.as_str())
    } else {
        #[cfg(unix)]
        {
            Client::connect_unix(c.unix.as_deref().expect("parser enforces --unix"))
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ))
        }
    };
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pathalias: serve: connecting: {e}");
            return ExitCode::FAILURE;
        }
    };
    let map = c.map_name.as_deref();
    let outcome = match &c.action {
        ClientAction::Query { hosts, user } if hosts.len() == 1 => {
            match client.query_on(map, &hosts[0], user.as_deref()) {
                Ok(Some(route)) => {
                    println!("{route}");
                    Ok(())
                }
                Ok(None) => {
                    eprintln!("pathalias: no route to {}", hosts[0]);
                    return ExitCode::FAILURE;
                }
                Err(e) => Err(e),
            }
        }
        // Several --query flags: one batched round trip (MQUERY when
        // the daemon speaks v2, pipelined v1 otherwise). One line per
        // host, in order; missing routes fail the exit code.
        ClientAction::Query { hosts, user } => {
            let queries: Vec<(&str, Option<&str>)> = hosts
                .iter()
                .map(|h| (h.as_str(), user.as_deref()))
                .collect();
            match client.query_batch_on(map, &queries) {
                Ok(results) => {
                    let mut missing = false;
                    for (host, result) in hosts.iter().zip(results) {
                        match result {
                            Some(route) => println!("{route}"),
                            None => {
                                eprintln!("pathalias: no route to {host}");
                                missing = true;
                            }
                        }
                    }
                    if missing {
                        return ExitCode::FAILURE;
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        }
        // `--path * dst` lists dst's one-hop predecessors; otherwise
        // the route goes to stdout (like --query) with cost and hops
        // on stderr for humans.
        ClientAction::Path { src, dst } if src == "*" => match client.via_on(map, dst) {
            Ok(Some(entries)) => {
                for (name, cost) in &entries {
                    println!("{name}\t{cost}");
                }
                Ok(())
            }
            Ok(None) => {
                eprintln!("pathalias: no host {dst}");
                return ExitCode::FAILURE;
            }
            Err(e) => Err(e),
        },
        ClientAction::Path { src, dst } => match client.path_on(map, src, dst) {
            Ok(Some(info)) => {
                println!("{}", info.route);
                eprintln!("pathalias: cost {} over {} hop(s)", info.cost, info.hops);
                Ok(())
            }
            Ok(None) => {
                eprintln!("pathalias: no route from {src} to {dst}");
                return ExitCode::FAILURE;
            }
            Err(e) => Err(e),
        },
        ClientAction::Stats => client.stats_on(map).map(|s| println!("{s}")),
        ClientAction::Reload => client.reload_on(map).map(|s| println!("{s}")),
        ClientAction::Health => client.health_on(map).map(|s| println!("{s}")),
        // The exposition already ends every line with '\n'.
        ClientAction::Metrics => client.metrics_on(map).map(|text| print!("{text}")),
        ClientAction::Slowlog => client.slowlog_on(map).map(|lines| {
            for line in &lines {
                println!("{line}");
            }
        }),
        ClientAction::Maps => client.maps().map(|info| {
            for name in &info.names {
                if *name == info.default {
                    println!("{name} (default)");
                } else {
                    println!("{name}");
                }
            }
        }),
        ClientAction::Shutdown => {
            // shutdown() consumes the client (the server closes the
            // connection after answering).
            return match client.shutdown() {
                Ok(payload) => {
                    println!("{payload}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pathalias: serve: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    };
    match outcome {
        Ok(()) => {
            let _ = client.quit();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pathalias: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(q: QueryArgs) -> ExitCode {
    let text = match std::fs::read_to_string(&q.db) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pathalias: reading {}: {e}", q.db);
            return ExitCode::FAILURE;
        }
    };
    let db = match RouteDb::from_output(&text) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("pathalias: {}: {e}", q.db);
            return ExitCode::FAILURE;
        }
    };
    let user = q.user.as_deref().unwrap_or("%s");
    match db.route_to(&q.dest, user) {
        Some(route) => {
            println!("{route}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("pathalias: no route to {}", q.dest);
            ExitCode::FAILURE
        }
    }
}
