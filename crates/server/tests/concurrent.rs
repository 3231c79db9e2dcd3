//! The acceptance gauntlet: ≥ 100k queries across 8 concurrent
//! clients with a hot reload swapping the table mid-load. Zero errors
//! allowed; no client may observe a dropped connection, and every
//! response must be *entirely* from the old table or *entirely* from
//! the new one — never a mix, never a torn line.

use pathalias_server::{Client, MapSource, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const HOSTS: usize = 200;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 12_500; // 8 × 12,500 = 100,000

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathalias-acc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The serving table, parameterized by relay so the old and new
/// generations give visibly different answers for every host.
fn routes(relay: &str) -> String {
    let mut out = String::new();
    for i in 0..HOSTS {
        out.push_str(&format!("h{i}\t{relay}!h{i}!%s\n"));
    }
    out.push_str(&format!(".edu\t{relay}!edu-gw!%s\n"));
    out
}

#[test]
fn hundred_thousand_queries_with_hot_reload() {
    let path = temp("main.routes");
    std::fs::write(&path, routes("relayA")).unwrap();

    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(path.clone())))
        .expect("server starts");
    let addr = handle.tcp_addr().unwrap();

    let old_seen = Arc::new(AtomicU64::new(0));
    let new_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // 8 query clients, each on one persistent connection.
        for client_id in 0..CLIENTS {
            let old_seen = old_seen.clone();
            let new_seen = new_seen.clone();
            let path = path.clone();
            s.spawn(move || {
                let _ = &path;
                let mut client = Client::connect(addr).expect("client connects");
                for i in 0..QUERIES_PER_CLIENT {
                    let user = format!("u{client_id}");
                    match i % 13 {
                        // A name no table has: must be a clean 404,
                        // before and after the reload.
                        5 => {
                            let got = client
                                .query("no.such.host.example", Some(&user))
                                .expect("connection must not drop");
                            assert_eq!(got, None, "client {client_id} query {i}");
                        }
                        // A domain-suffix query (exercises the cache).
                        7 => {
                            let got = client
                                .query("caip.rutgers.edu", Some(&user))
                                .expect("connection must not drop")
                                .expect("suffix route exists in both tables");
                            let old = format!("relayA!edu-gw!caip.rutgers.edu!{user}");
                            let new = format!("relayB!edu-gw!caip.rutgers.edu!{user}");
                            if got == old {
                                old_seen.fetch_add(1, Ordering::Relaxed);
                            } else if got == new {
                                new_seen.fetch_add(1, Ordering::Relaxed);
                            } else {
                                panic!("torn/mixed suffix response: `{got}`");
                            }
                        }
                        // Exact host queries over the whole table.
                        _ => {
                            let host = format!("h{}", (client_id * 37 + i) % HOSTS);
                            let got = client
                                .query(&host, Some(&user))
                                .expect("connection must not drop")
                                .expect("host exists in both tables");
                            let old = format!("relayA!{host}!{user}");
                            let new = format!("relayB!{host}!{user}");
                            if got == old {
                                old_seen.fetch_add(1, Ordering::Relaxed);
                            } else if got == new {
                                new_seen.fetch_add(1, Ordering::Relaxed);
                            } else {
                                panic!("torn/mixed response: `{got}` (want `{old}` or `{new}`)");
                            }
                        }
                    }
                }
                client.quit().expect("clean quit");
            });
        }

        // The reloader: swap the table while the clients are loading.
        let reload_path = path.clone();
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(80));
            std::fs::write(&reload_path, routes("relayB")).unwrap();
            let mut client = Client::connect(addr).expect("reloader connects");
            let payload = client.reload().expect("reload succeeds");
            assert!(
                payload.contains("generation=1"),
                "first reload publishes generation 1: {payload}"
            );
            client.quit().unwrap();
        });
    });

    // Both generations must actually have served traffic, or the
    // "mid-load" claim is vacuous. The sleep above sits well inside the
    // multi-second query run.
    let old = old_seen.load(Ordering::Relaxed);
    let new = new_seen.load(Ordering::Relaxed);
    assert!(
        old > 0,
        "no queries hit the old table (reload fired too early)"
    );
    assert!(
        new > 0,
        "no queries hit the new table (reload never landed)"
    );

    // The daemon's own accounting: every query arrived, none errored.
    let mut stats_client = Client::connect(addr).unwrap();
    let stats = stats_client.stats().unwrap();
    let field = |k: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{k}=")))
            .unwrap_or_else(|| panic!("missing {k} in `{stats}`"))
            .parse()
            .unwrap()
    };
    assert_eq!(
        field("queries"),
        (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "every query must be accounted for"
    );
    assert_eq!(field("reloads"), 1);
    assert_eq!(field("reload_failures"), 0);
    assert_eq!(field("bad_requests"), 0);
    assert_eq!(field("generation"), 1);
    stats_client.quit().unwrap();

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn batched_queries_across_hot_reload() {
    // The v2 counterpart of the gauntlet above: 8 clients stream
    // MQUERY batches while a reload swaps the table mid-load. Zero
    // errors, every batch answered in order, every answer entirely
    // from one table or the other.
    const BATCH: usize = 32;
    const BATCHES_PER_CLIENT: usize = 400; // 8 × 400 × 32 = 102,400

    let path = temp("batched.routes");
    std::fs::write(&path, routes("relayA")).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(path.clone())))
        .expect("server starts");
    let addr = handle.tcp_addr().unwrap();

    let old_seen = Arc::new(AtomicU64::new(0));
    let new_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for client_id in 0..CLIENTS {
            let old_seen = old_seen.clone();
            let new_seen = new_seen.clone();
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let user = format!("u{client_id}");
                for b in 0..BATCHES_PER_CLIENT {
                    let hosts: Vec<String> = (0..BATCH)
                        .map(|k| format!("h{}", (client_id * 37 + b * BATCH + k) % HOSTS))
                        .collect();
                    let queries: Vec<(&str, Option<&str>)> = hosts
                        .iter()
                        .map(|h| (h.as_str(), Some(user.as_str())))
                        .collect();
                    let results = client
                        .query_batch(&queries)
                        .expect("batch must not error across a reload");
                    assert_eq!(results.len(), BATCH);
                    for (host, got) in hosts.iter().zip(results) {
                        let got = got.expect("host exists in both tables");
                        let old = format!("relayA!{host}!{user}");
                        let new = format!("relayB!{host}!{user}");
                        if got == old {
                            old_seen.fetch_add(1, Ordering::Relaxed);
                        } else if got == new {
                            new_seen.fetch_add(1, Ordering::Relaxed);
                        } else {
                            panic!("torn/mixed batched response: `{got}`");
                        }
                    }
                }
                client.quit().expect("clean quit");
            });
        }

        // The reloader: swap the table while the batches are flowing.
        let reload_path = path.clone();
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(80));
            std::fs::write(&reload_path, routes("relayB")).unwrap();
            let mut client = Client::connect(addr).expect("reloader connects");
            client.reload().expect("reload succeeds");
            client.quit().unwrap();
        });
    });

    assert!(old_seen.load(Ordering::Relaxed) > 0, "old table served");
    assert!(new_seen.load(Ordering::Relaxed) > 0, "new table served");

    let mut stats_client = Client::connect(addr).unwrap();
    let stats = stats_client.stats().unwrap();
    let field = |k: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{k}=")))
            .unwrap_or_else(|| panic!("missing {k} in `{stats}`"))
            .parse()
            .unwrap()
    };
    assert_eq!(
        field("queries"),
        (CLIENTS * BATCHES_PER_CLIENT * BATCH) as u64,
        "every batched query must be accounted for"
    );
    assert_eq!(field("bad_requests"), 0);
    assert_eq!(field("resolve_errors"), 0);
    stats_client.quit().unwrap();

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn mmap_backend_matches_in_memory_backend() {
    // The acceptance bar: the mmap-backed PADB1 serve path answers the
    // full integration-test query load with results identical to the
    // in-memory backend — same hosts, same suffix queries, same
    // misses, byte-for-byte equal responses.
    use pathalias_mailer::disk::write_db;
    use pathalias_mailer::RouteDb;

    let table = {
        let mut t = routes("relayZ");
        t.push_str(".\tsmart-host!%s\n");
        t
    };
    let db = RouteDb::from_output(&table).unwrap();
    let padb_path = temp("parity.padb");
    write_db(&db, &padb_path).unwrap();

    let mem = Server::start(ServerConfig::ephemeral(MapSource::Padb(padb_path.clone())))
        .expect("in-memory server starts");
    let mmap = Server::start(ServerConfig::ephemeral(MapSource::PadbMmap(
        padb_path.clone(),
    )))
    .expect("mmap server starts");
    assert_eq!(mem.table_info().1, mmap.table_info().1, "same entry count");

    let mut mem_client = Client::connect(mem.tcp_addr().unwrap()).unwrap();
    let mut mmap_client = Client::connect(mmap.tcp_addr().unwrap()).unwrap();

    // The same query mix the 100k gauntlet uses: exact hosts over the
    // whole table, suffix queries, default-route fallbacks — compared
    // via raw response lines so codes and text must both match.
    let mut load: Vec<String> = Vec::new();
    for i in 0..HOSTS {
        load.push(format!("QUERY h{i} user{}", i % 7));
    }
    for host in ["caip.rutgers.edu", "x.y.edu", "not-in-table", "a.b.nowhere"] {
        load.push(format!("QUERY {host} someone"));
        load.push(format!("QUERY {host}"));
    }
    for request in &load {
        let a = mem_client.send(request).unwrap();
        let b = mmap_client.send(request).unwrap();
        assert_eq!(a, b, "backends diverge on `{request}`");
    }

    // And the batched path agrees with itself across backends.
    let batch: Vec<(&str, Option<&str>)> = (0..64)
        .map(|i| {
            if i % 9 == 0 {
                ("deep.site.edu", Some("u"))
            } else if i % 13 == 0 {
                ("unknown-host", Some("u"))
            } else {
                ("h7", Some("u"))
            }
        })
        .collect();
    assert_eq!(
        mem_client.query_batch(&batch).unwrap(),
        mmap_client.query_batch(&batch).unwrap(),
    );

    mem_client.quit().unwrap();
    mmap_client.quit().unwrap();
    mem.shutdown();
    mmap.shutdown();
    std::fs::remove_file(padb_path).unwrap();
}

#[test]
fn reload_from_full_map_pipeline() {
    // The daemon pointed at *map input*, not pre-rendered routes: every
    // reload that cannot repair in place re-runs parse → map → print.
    let map_path = temp("pipeline.map");
    std::fs::write(
        &map_path,
        "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
         phs\tunc(400)\nresearch\tduke(200)\n",
    )
    .unwrap();
    let options = pathalias_core::Options {
        local: Some("unc".into()),
        ..Default::default()
    };
    let source = MapSource::map_files(vec![map_path.clone()], options);
    let handle = Server::start(ServerConfig::ephemeral(source)).unwrap();
    let addr = handle.tcp_addr().unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.query("research", Some("honey")).unwrap().unwrap(),
        "duke!research!honey"
    );

    // Cheapen the duke→research link's alternative: route flips after
    // a map edit plus RELOAD.
    std::fs::write(
        &map_path,
        "unc\tduke(100), phs(400), research(150)\nduke\tunc(100), research(200)\n\
         phs\tunc(400)\nresearch\tunc(150), duke(200)\n",
    )
    .unwrap();
    client.reload().unwrap();
    assert_eq!(
        client.query("research", Some("honey")).unwrap().unwrap(),
        "research!honey",
        "reload must re-map the edited graph"
    );

    // A broken map must fail the reload and keep the last good table.
    std::fs::write(&map_path, "this is ( not a map\n").unwrap();
    let err = client.send("RELOAD").unwrap();
    assert!(err.starts_with("500 "), "broken map: {err}");
    assert_eq!(
        client.query("research", Some("honey")).unwrap().unwrap(),
        "research!honey",
        "failed reload must leave the old table serving"
    );

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(map_path).unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport() {
    let routes_path = temp("unix.routes");
    std::fs::write(&routes_path, "seismo\tseismo!%s\n").unwrap();
    let sock = temp("unix.sock");
    let mut config = ServerConfig::ephemeral(MapSource::Routes(routes_path.clone()));
    config.tcp = None;
    config.unix = Some(sock.clone());
    config.cache_capacity = 64;
    config.cache_shards = 2;
    let handle = Server::start(config).unwrap();
    assert!(handle.tcp_addr().is_none());

    let mut client = Client::connect_unix(&sock).unwrap();
    assert_eq!(
        client.query("seismo", Some("rick")).unwrap().unwrap(),
        "seismo!rick"
    );
    assert!(client.health().unwrap().contains("entries=1"));
    client.quit().unwrap();

    handle.shutdown();
    assert!(!sock.exists(), "socket file cleaned up on shutdown");
    std::fs::remove_file(routes_path).unwrap();
}

#[test]
fn protocol_abuse_is_survivable() {
    let routes_path = temp("abuse.routes");
    std::fs::write(&routes_path, "a\ta!%s\n").unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(
        routes_path.clone(),
    )))
    .unwrap();
    let addr = handle.tcp_addr().unwrap();

    // Unknown verbs and malformed lines get 400s, connection survives.
    let mut client = Client::connect(addr).unwrap();
    assert!(client
        .send("EHLO mail.example")
        .unwrap()
        .starts_with("400 "));
    assert!(client.send("QUERY").unwrap().starts_with("400 "));
    assert!(client.send("QUERY a b c").unwrap().starts_with("400 "));
    assert_eq!(client.send("QUERY a rick").unwrap(), "200 a!rick");

    // An over-long line gets a 400 and the connection is dropped —
    // but the server survives for everyone else.
    let long = format!("QUERY {}", "x".repeat(64 * 1024));
    if let Ok(resp) = client.send(&long) {
        assert!(resp.starts_with("400 "), "{resp}");
    } // an Err is fine too: the server may drop mid-write

    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.send("QUERY a rick").unwrap(), "200 a!rick");
    fresh.quit().unwrap();

    handle.shutdown();
    std::fs::remove_file(routes_path).unwrap();
}

/// Two worlds for the PATH/RELOAD race: the cheapest route from home
/// to leaf goes through `mid` before the reload and through the new
/// `direct` link after it — visibly different, never mixable.
fn path_map(with_shortcut: bool) -> String {
    let mut map = String::from("home\tmid(100)\nmid\thome(100), leaf(100)\nleaf\tmid(100)\n");
    if with_shortcut {
        map.push_str("home\tdirect(50)\ndirect\thome(50), leaf(10)\n");
    }
    map
}

#[test]
fn path_stays_consistent_across_hot_reloads() {
    // Hammer PATH from several connections while another connection
    // reloads the map back and forth. Every answer must be a complete
    // route from one generation — `mid!leaf!%s` (no shortcut) or
    // `direct!leaf!%s` (shortcut) — never an error, a torn line, or a
    // phantom mixture.
    let path = temp("path-race.map");
    std::fs::write(&path, path_map(false)).unwrap();

    let handle = Server::start(ServerConfig::ephemeral(MapSource::map_files(
        vec![path.clone()],
        pathalias_core::Options {
            local: Some("home".to_string()),
            ..Default::default()
        },
    )))
    .expect("server starts");
    let addr = handle.tcp_addr().unwrap();

    let old_seen = Arc::new(AtomicU64::new(0));
    let new_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..4 {
            let old_seen = old_seen.clone();
            let new_seen = new_seen.clone();
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for i in 0..1_500 {
                    if i % 7 == 0 {
                        // The via listing races the same swap: leaf's
                        // predecessors are {mid} or {mid, direct}.
                        let entries = client.via("leaf").unwrap().expect("leaf exists");
                        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
                        assert!(
                            names == ["mid"]
                                || names == ["direct", "mid"]
                                || names == ["mid", "direct"],
                            "via listing from a phantom generation: {names:?}"
                        );
                        continue;
                    }
                    let info = client
                        .path("home", "leaf")
                        .expect("PATH must not error across a reload")
                        .expect("leaf is always reachable");
                    match info.route.as_str() {
                        "mid!leaf!%s" => {
                            assert_eq!((info.cost, info.hops), (200, 2), "old-world route");
                            old_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        "direct!leaf!%s" => {
                            assert_eq!((info.cost, info.hops), (60, 2), "new-world route");
                            new_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("route from a phantom generation: {other}"),
                    }
                }
                client.quit().unwrap();
            });
        }

        // The reloader: flip the shortcut in and out while the PATH
        // clients are loading.
        let reload_path = path.clone();
        s.spawn(move || {
            let mut client = Client::connect(addr).expect("reloader connects");
            for round in 0..6 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::fs::write(&reload_path, path_map(round % 2 == 0)).unwrap();
                client.reload().expect("reload succeeds");
            }
            client.quit().unwrap();
        });
    });

    assert!(
        old_seen.load(Ordering::Relaxed) > 0,
        "no PATH hit the shortcut-free world (reloads outran the clients)"
    );
    assert!(
        new_seen.load(Ordering::Relaxed) > 0,
        "no PATH hit the shortcut world (the reloads never landed)"
    );

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}
