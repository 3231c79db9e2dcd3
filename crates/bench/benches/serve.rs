//! Daemon lookup throughput against a 10k-host synthetic map.
//!
//! Altitudes, so a regression can be localized: the bare in-memory
//! resolve path (snapshot + cache + metrics, no socket), the same
//! path with per-request telemetry recording (latency histogram +
//! slow-log probe — the daemon's added cost per QUERY), the same path
//! over a page-cache-backed PADB1 file (`MappedDb`), one client's
//! request/response round trip over loopback TCP (in-memory and mmap
//! backends), the v2 batched `MQUERY` path (64 queries per round
//! trip — the number that must beat single-query by ≥ 3×), and 8
//! concurrent clients hammering the daemon at once. A second group
//! measures the `PATH` verb's point-to-point searches on the
//! paper-scale world: the bidirectional engine against its
//! uni-directional oracle (the acceptance bar: bidirectional wins)
//! and the verb's wire round trip. Numbers are checked in to
//! `BENCH_serve.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathalias_core::{Frozen, Options, Parsed, Pathalias};
use pathalias_mailer::disk::{write_db, MappedDb};
use pathalias_mailer::{Resolver, RouteDb, SharedRouteDb};
use pathalias_server::index::Cached;
use pathalias_server::metrics::Metrics;
use pathalias_server::telemetry::duration_ns;
use pathalias_server::{Client, MapSource, MapTelemetry, Server, ServerConfig};
use std::hint::black_box;
use std::sync::Arc;

/// Queries per `MQUERY` batch in the batched benchmarks.
const BATCH: usize = 64;

/// Routes a 10k-host synthetic map; returns the table and some
/// known-routable destination names.
fn ten_k_table() -> (RouteDb, Vec<String>) {
    let map = generate_map();
    let mut pa = Pathalias::with_options(Options {
        local: Some(map.1.clone()),
        ..Options::default()
    });
    pa.parse_str("bench-map", &map.0).unwrap();
    let out = pa.run().unwrap();
    let db = RouteDb::from_table(&out.routes);
    let mut hosts: Vec<String> = db.iter().map(|e| e.name.clone()).collect();
    hosts.sort();
    hosts.truncate(2_048);
    (db, hosts)
}

fn generate_map() -> (String, String) {
    use pathalias_mapgen::{generate, MapSpec};
    let map = generate(&MapSpec::small(10_000, 1986));
    (map.concatenated(), map.home.clone())
}

fn bench_serve(c: &mut Criterion) {
    let (db, hosts) = ten_k_table();
    let mut group = c.benchmark_group("serve");

    // Altitude 1: the resolve path alone (snapshot + cache + metrics),
    // in-memory backend.
    let cached = Cached::new(
        SharedRouteDb::new(db.clone()),
        4096,
        8,
        Arc::new(Metrics::default()),
    );
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("resolve-in-memory", |b| {
        b.iter(|| {
            let host = &hosts[i % hosts.len()];
            i = i.wrapping_add(1);
            black_box(cached.resolve(host, "user"))
        });
    });

    // Altitude 1c: the identical resolve with telemetry recording
    // around it — exactly what the daemon adds per QUERY: a clock
    // read, a histogram record (three relaxed adds + a fetch_max) and
    // the slow-log admission probe. Gated against the bare
    // resolve-in-memory baseline: recording must stay inside the
    // ordinary bench tolerance, i.e. cost roughly nothing.
    let telemetry = MapTelemetry::new();
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("resolve-in-memory-telemetry", |b| {
        b.iter(|| {
            let host = &hosts[i % hosts.len()];
            i = i.wrapping_add(1);
            let t0 = std::time::Instant::now();
            let out = cached.resolve(host, "user");
            let ns = duration_ns(t0.elapsed());
            telemetry.query.record(ns);
            let outcome = if out.is_ok() { "ok" } else { "no_route" };
            telemetry.observe_slow("QUERY", "bench", host, ns, outcome);
            black_box(out)
        });
    });

    // The same table as a PADB1 file, for the mapped benchmarks.
    let dir = std::env::temp_dir();
    let padb_path = dir.join(format!("pathalias-bench-serve-{}.padb", std::process::id()));
    write_db(&db, &padb_path).unwrap();

    // Altitude 1b: resolve path over the page-cache-backed file —
    // same decorator, disk-backed resolver.
    let mapped = Cached::new(
        MappedDb::open(&padb_path).unwrap(),
        4096,
        8,
        Arc::new(Metrics::default()),
    );
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("resolve-mmap", |b| {
        b.iter(|| {
            let host = &hosts[i % hosts.len()];
            i = i.wrapping_add(1);
            black_box(mapped.resolve(host, "user"))
        });
    });

    // A live daemon for the socket benchmarks, serving the same table.
    let routes_path = dir.join(format!(
        "pathalias-bench-serve-{}.routes",
        std::process::id()
    ));
    let rendered: String = db
        .iter()
        .map(|e| format!("{}\t{}\n", e.name, e.route))
        .collect();
    std::fs::write(&routes_path, rendered).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(
        routes_path.clone(),
    )))
    .expect("bench server starts");
    let addr = handle.tcp_addr().unwrap();

    // Altitude 2: one client, one round trip per query.
    let mut client = Client::connect(addr).unwrap();
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("query-round-trip", |b| {
        b.iter(|| {
            let host = &hosts[i % hosts.len()];
            i = i.wrapping_add(1);
            black_box(client.query(host, Some("user")).unwrap())
        });
    });

    // Altitude 2b: the v2 batched path — BATCH queries per round trip.
    // This is the number the acceptance bar compares against
    // query-round-trip (per-query cost must be ≥ 3× better).
    let mut batch_client = Client::connect(addr).unwrap();
    batch_client.negotiate().unwrap();
    let mut i = 0usize;
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_with_input(
        BenchmarkId::new("query-batched", BATCH),
        &BATCH,
        |b, &batch| {
            b.iter(|| {
                let queries: Vec<(&str, Option<&str>)> = (0..batch)
                    .map(|k| (hosts[(i + k) % hosts.len()].as_str(), Some("user")))
                    .collect();
                i = i.wrapping_add(batch);
                black_box(batch_client.query_batch(&queries).unwrap())
            });
        },
    );

    // Altitude 3: 8 concurrent clients, 200 queries each per iteration.
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 200;
    group.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("query-concurrent", CLIENTS),
        &CLIENTS,
        |b, &clients| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..clients {
                        let hosts = &hosts;
                        s.spawn(move || {
                            let mut c = Client::connect(addr).unwrap();
                            for q in 0..PER_CLIENT {
                                let host = &hosts[(t * 997 + q) % hosts.len()];
                                black_box(c.query(host, Some("user")).unwrap());
                            }
                            c.quit().unwrap();
                        });
                    }
                });
            });
        },
    );

    client.quit().unwrap();
    batch_client.quit().unwrap();
    handle.shutdown();

    // Altitude 2c: the mmap-backed serve path end to end — a daemon
    // whose backend never loads the blob, one query per round trip.
    let mmap_handle = Server::start(ServerConfig::ephemeral(MapSource::PadbMmap(
        padb_path.clone(),
    )))
    .expect("mmap bench server starts");
    let mmap_addr = mmap_handle.tcp_addr().unwrap();
    let mut mmap_client = Client::connect(mmap_addr).unwrap();
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("query-round-trip-mmap", |b| {
        b.iter(|| {
            let host = &hosts[i % hosts.len()];
            i = i.wrapping_add(1);
            black_box(mmap_client.query(host, Some("user")).unwrap())
        });
    });
    mmap_client.quit().unwrap();
    mmap_handle.shutdown();

    // Altitude 2e: sharded multi-map serving — the same table behind
    // three namespaces, batches rotating across them, so every round
    // trip pays the `@name` dispatch on top of the MQUERY path. The
    // number to compare against query-batched: the multi-map layer
    // should cost roughly nothing.
    let multi_handle = Server::start(ServerConfig::ephemeral_set(vec![
        ("west".to_string(), MapSource::Routes(routes_path.clone())),
        ("east".to_string(), MapSource::Routes(routes_path.clone())),
        ("local".to_string(), MapSource::Routes(routes_path.clone())),
    ]))
    .expect("multi-map bench server starts");
    let mut multi_client = Client::connect(multi_handle.tcp_addr().unwrap()).unwrap();
    multi_client.negotiate().unwrap();
    const MAPS: [&str; 3] = ["west", "east", "local"];
    let mut i = 0usize;
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_with_input(
        BenchmarkId::new("multi-map-batched", BATCH),
        &BATCH,
        |b, &batch| {
            b.iter(|| {
                let map = MAPS[i % MAPS.len()];
                let queries: Vec<(&str, Option<&str>)> = (0..batch)
                    .map(|k| (hosts[(i + k) % hosts.len()].as_str(), Some("user")))
                    .collect();
                i = i.wrapping_add(batch);
                black_box(multi_client.query_batch_on(Some(map), &queries).unwrap())
            });
        },
    );
    multi_client.quit().unwrap();
    multi_handle.shutdown();

    group.finish();
    std::fs::remove_file(routes_path).unwrap();
    std::fs::remove_file(padb_path).unwrap();
}

/// Point-to-point searches on the paper-scale world: the bidirectional
/// engine behind `PATH src dst` against its uni-directional oracle on
/// the same src/dst rotation (the acceptance bar: bidirectional wins),
/// plus the verb's full wire round trip for context. Pairs are strided
/// across the id space and pre-filtered to routable ones, so both
/// searches measure successful answers over a near-and-far endpoint
/// mix. The in-memory tiers are asked through `route_ids_uncached`:
/// these lines time the searches, and eight interleaved sources would
/// otherwise time the engine's source-tree cache churning instead.
fn bench_path(c: &mut Criterion) {
    use pathalias_graph::NodeId;
    use pathalias_mapgen::{generate, MapSpec};
    use pathalias_router::PointToPoint;

    let world = generate(&MapSpec::usenet_1986(1986));
    let options = Options {
        local: Some(world.home.clone()),
        ..Options::default()
    };
    let mut parsed = Parsed::new();
    parsed.push_str("world", &world.concatenated());
    let frozen = parsed.build(&options).unwrap().freeze();
    // The serving invariant's construction: the engine answers over the
    // same augmented snapshot the mapper printed routes from.
    let mapped = frozen.map(&options).unwrap();
    let aug = mapped.tree.frozen().clone();
    let engine = PointToPoint::new(aug.clone(), options.cost_model);

    let n = aug.node_count() as u32;
    let home = aug.id_of(&world.home).expect("home survives freezing");
    let mut sources: Vec<NodeId> = vec![home];
    sources.extend(
        (1..8u32)
            .map(|k| NodeId::from_raw(k * n / 8))
            .filter(|&s| aug.is_mappable(s)),
    );
    let per_source: Vec<Vec<(NodeId, NodeId)>> = sources
        .iter()
        .enumerate()
        .map(|(k, &src)| {
            aug.node_ids()
                .skip(k * 19)
                .step_by(101)
                .filter(|&dst| dst != src && engine.route_ids(src, dst).is_ok())
                .map(|dst| (src, dst))
                .take(32)
                .collect()
        })
        .collect();
    // Interleave sources round-robin so a partial rotation round still
    // samples cheap (home-rooted) and expensive pairs evenly.
    let longest = per_source.iter().map(Vec::len).max().unwrap_or(0);
    let pairs: Vec<(NodeId, NodeId)> = (0..longest)
        .flat_map(|j| {
            per_source
                .iter()
                .filter_map(move |list| list.get(j).copied())
        })
        .collect();
    assert!(
        !pairs.is_empty(),
        "no routable pairs on the paper-scale world"
    );

    let mut group = c.benchmark_group("serve");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function("path-in-memory", |b| {
        b.iter(|| {
            let (src, dst) = pairs[i % pairs.len()];
            i = i.wrapping_add(1);
            black_box(engine.route_ids_uncached(src, dst).unwrap())
        });
    });
    let mut i = 0usize;
    group.bench_function("path-unidirectional", |b| {
        b.iter(|| {
            let (src, dst) = pairs[i % pairs.len()];
            i = i.wrapping_add(1);
            black_box(engine.route_ids_unidirectional(src, dst).unwrap())
        });
    });

    // The contraction-hierarchy tier on the same pair rotation (the
    // acceptance bar: CH beats path-in-memory). Built fresh here the
    // way `serve` rebuilds it over an augmented graph; freeze-time
    // sections skip this one-time cost at startup, not per query.
    let ch_engine = PointToPoint::with_fresh_hierarchy(aug.clone(), options.cost_model);
    assert!(
        ch_engine.hierarchy().is_some(),
        "paper-scale world must yield a hierarchy"
    );
    let mut i = 0usize;
    group.bench_function("path-ch", |b| {
        b.iter(|| {
            let (src, dst) = pairs[i % pairs.len()];
            i = i.wrapping_add(1);
            black_box(ch_engine.route_ids_uncached(src, dst).unwrap())
        });
    });

    // The verb over loopback TCP: one `PATH src dst` per round trip,
    // against a daemon serving this same world — socket framing plus
    // name resolution plus the search.
    let map_path =
        std::env::temp_dir().join(format!("pathalias-bench-path-{}.map", std::process::id()));
    std::fs::write(&map_path, world.concatenated()).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::map_files(
        vec![map_path.clone()],
        options.clone(),
    )))
    .expect("path bench server starts");
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    let named: Vec<(String, String)> = pairs
        .iter()
        .map(|&(s, d)| (aug.name(s).to_string(), aug.name(d).to_string()))
        .collect();
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("path-round-trip", |b| {
        b.iter(|| {
            let (src, dst) = &named[i % named.len()];
            i = i.wrapping_add(1);
            black_box(client.path(src, dst).unwrap().unwrap())
        });
    });
    client.quit().unwrap();
    handle.shutdown();

    group.finish();
    std::fs::remove_file(map_path).unwrap();
}

/// Daemon cold start on the paper-scale world: reaching a servable
/// `Frozen` stage through the full parse/build/freeze pipeline vs
/// loading the PAGF1 snapshot (the acceptance bar: the snapshot path
/// must be ≥ 10× faster), plus the snapshot path all the way to a
/// serveable route table for context.
fn bench_cold_start(c: &mut Criterion) {
    use pathalias_mapgen::{generate, MapSpec};

    let world = generate(&MapSpec::usenet_1986(1986));
    let text = world.concatenated();
    let options = Options {
        local: Some(world.home.clone()),
        ..Options::default()
    };

    let pagf_path =
        std::env::temp_dir().join(format!("pathalias-bench-cold-{}.pagf", std::process::id()));
    {
        let mut parsed = Parsed::new();
        parsed.push_str("world", &text);
        let frozen = parsed.build(&options).unwrap().freeze();
        frozen.write_snapshot(&pagf_path).unwrap();
    }

    let mut group = c.benchmark_group("cold-start");
    group.sample_size(10);

    group.bench_function("parse-build-freeze", |b| {
        b.iter(|| {
            let mut parsed = Parsed::new();
            parsed.push_str("world", black_box(&text));
            black_box(parsed.build(&options).unwrap().freeze())
        });
    });

    group.bench_function("pagf-load", |b| {
        b.iter(|| black_box(Frozen::from_snapshot(&pagf_path).unwrap()));
    });

    group.bench_function("pagf-serve-ready", |b| {
        b.iter(|| {
            let frozen = Frozen::from_snapshot(&pagf_path).unwrap();
            let mapped = frozen.map(&options).unwrap();
            black_box(mapped.print(&options))
        });
    });

    group.finish();
    std::fs::remove_file(pagf_path).unwrap();
}

/// C10K-style connection-scaling shape for the event-loop core: open a
/// large herd of mostly-idle connections (default 2048; `C10K_CONNS`
/// overrides, CI smoke uses 512), verify each answers, then measure
/// query latency from a small hot subset while the idle herd stays
/// registered with the pollers. The numbers to watch: accept cost per
/// connection, and hot-path p50/p99 that must not degrade just because
/// thousands of idle fds sit in the readiness sets.
///
/// This bypasses `Bencher` (latency percentiles, not best-batch means)
/// but prints the same `bench <name> <ns> ns/iter` lines so the CI
/// bench gate tracks the numbers like any other.
fn bench_c10k(_c: &mut Criterion) {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let conns: usize = std::env::var("C10K_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 512 } else { 2_048 });
    let samples: usize = if quick { 4_000 } else { 20_000 };
    const HOT: usize = 32;

    // A small table: this benchmark is about the connection layer, not
    // the resolver.
    let mut rendered = String::new();
    for i in 0..200 {
        rendered.push_str(&format!("h{i}\trelay!h{i}!%s\n"));
    }
    let routes_path = std::env::temp_dir().join(format!(
        "pathalias-bench-c10k-{}.routes",
        std::process::id()
    ));
    std::fs::write(&routes_path, rendered).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(
        routes_path.clone(),
    )))
    .expect("c10k bench server starts");
    let addr = handle.tcp_addr().unwrap();

    let report = |label: &str, ns: f64, iters: usize| {
        let label = format!("serve/{label}");
        println!("bench   {label:<44} {ns:>12.0} ns/iter   (#iters {iters})");
    };

    // Accept throughput: connect the whole herd back to back. The
    // kernel completes handshakes from the listen backlog, so this
    // measures how fast the daemon's accept+register path drains it.
    let t0 = std::time::Instant::now();
    let mut herd: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr).expect("idle connection"))
        .collect();
    report(
        "c10k-accept",
        t0.elapsed().as_nanos() as f64 / conns as f64,
        conns,
    );

    // Every herd member must actually be served — one round trip each
    // proves the daemon registered all of them, and leaves the herd
    // idle-but-open for the latency measurement below.
    for (i, conn) in herd.iter_mut().enumerate() {
        let host = format!("h{}", i % 200);
        assert!(conn.query(&host, Some("u")).unwrap().is_some());
    }

    // Hot subset: fresh clients doing sequential queries while the
    // idle herd keeps its fds registered with the event loops.
    let mut hot: Vec<Client> = (0..HOT).map(|_| Client::connect(addr).unwrap()).collect();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(samples);
    for q in 0..samples {
        let client = &mut hot[q % HOT];
        let host = format!("h{}", (q * 7) % 200);
        let t = std::time::Instant::now();
        black_box(client.query(&host, Some("u")).unwrap());
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();
    report("c10k-query-p50", lat_ns[samples / 2] as f64, samples);
    report(
        "c10k-query-p99",
        lat_ns[samples - samples / 100 - 1] as f64,
        samples,
    );

    for c in hot {
        let _ = c.quit();
    }
    drop(herd);
    handle.shutdown();
    std::fs::remove_file(routes_path).unwrap();
}

fn bench_reload(c: &mut Criterion) {
    use pathalias_bench::ReloadWorld;
    use pathalias_mapgen::MapSpec;

    // One link-cost change on the paper-scale world: the incremental
    // path (statement diff -> CSR row patch -> tree repair -> route
    // update) against tearing the whole pipeline down. `ReloadWorld`
    // pre-verified that this exact edit takes the delta path, so
    // `reload-delta` measures repair, not the fallback.
    let world = ReloadWorld::new(&MapSpec::usenet_1986(1986), "serve-bench");
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    let (source, cache) = world.delta_source();
    source.load_serving_timed().unwrap();
    let mut flip = false;
    group.bench_function("reload-delta", |b| {
        b.iter(|| {
            flip = !flip;
            world.toggle(flip);
            black_box(source.load_serving_timed().unwrap());
        });
    });
    assert!(
        cache.delta_reloads() > 0,
        "the timed reloads never took the delta path"
    );

    group.bench_function("reload-full", |b| {
        b.iter(|| {
            flip = !flip;
            world.toggle(flip);
            let (cold, _) = world.delta_source();
            black_box(cold.load_serving_timed().unwrap());
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serve,
    bench_path,
    bench_cold_start,
    bench_c10k,
    bench_reload
);
criterion_main!(benches);
