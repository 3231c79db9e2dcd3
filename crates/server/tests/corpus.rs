//! The golden differential corpus: small crafted maps (duplicate
//! links, `adjust`, `delete`, a `.` default route, layered domain
//! suffixes) with their expected rendered routes checked in next to
//! them. Every backend — the in-memory table, the PADB1 file (loaded
//! and mmap-served), the PAGF1 snapshot, and every map of a multi-map
//! daemon — must answer every probe byte-identically.

use pathalias_core::{Options, Parsed};
use pathalias_mailer::disk::write_db;
use pathalias_mailer::{ResolveError, Resolver, RouteDb};
use pathalias_server::{Client, MapSource, Server, ServerConfig};
use std::path::{Path, PathBuf};

/// The corpus, by file stem; each `NAME.map` routes from local host
/// `home` and has its golden output in `NAME.routes`.
const CORPUS: &[&str] = &["dupes", "adjust", "deleted", "default_route", "domains"];

fn corpus_file(name: &str, ext: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(format!("{name}.{ext}"))
}

fn options() -> Options {
    Options {
        local: Some("home".to_string()),
        ..Options::default()
    }
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathalias-corpus-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The probe set for one golden table: every name in it, synthetic
/// hosts under every domain suffix, and names that must miss (or fall
/// through to a `.` default route).
fn probes(golden: &str) -> Vec<String> {
    let mut probes = Vec::new();
    for line in golden.lines() {
        let name = line.split('\t').next().unwrap();
        probes.push(name.to_string());
        if let Some(suffix) = name.strip_prefix('.') {
            if !suffix.is_empty() {
                probes.push(format!("probe.{suffix}"));
                probes.push(format!("deep.er.{suffix}"));
            }
        }
    }
    probes.push("no.such.host.zzz".to_string());
    probes.push("Upper.Case.Probe".to_string());
    probes
}

#[test]
fn pipeline_output_matches_the_checked_in_goldens() {
    for name in CORPUS {
        let mut parsed = Parsed::new();
        parsed.push_file(corpus_file(name, "map")).unwrap();
        let options = options();
        let rendered = parsed
            .build(&options)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .freeze()
            .map(&options)
            .unwrap()
            .print(&options)
            .rendered
            .clone();
        let golden = std::fs::read_to_string(corpus_file(name, "routes")).unwrap();
        assert_eq!(
            rendered, golden,
            "{name}: pipeline output diverged from the golden corpus \
             (if the change is intentional, regenerate {name}.routes)"
        );
    }
}

#[test]
fn every_backend_answers_the_corpus_byte_identically() {
    for name in CORPUS {
        let map_path = corpus_file(name, "map");
        let golden = std::fs::read_to_string(corpus_file(name, "routes")).unwrap();

        // Ground truth: the in-memory table from the full pipeline.
        let pipeline_source = MapSource::map_files(vec![map_path.clone()], options());
        let (reference, _, _) = pipeline_source.load_serving_timed().unwrap();

        // The same world in every other backend shape.
        let routes_path = temp(&format!("{name}.routes"));
        std::fs::write(&routes_path, &golden).unwrap();
        let padb_path = temp(&format!("{name}.padb"));
        write_db(&RouteDb::from_output(&golden).unwrap(), &padb_path).unwrap();
        let pagf_path = temp(&format!("{name}.pagf"));
        let mut parsed = Parsed::new();
        parsed.push_file(&map_path).unwrap();
        parsed
            .build(&options())
            .unwrap()
            .freeze()
            .write_snapshot(&pagf_path)
            .unwrap();

        let backends: Vec<(&str, MapSource)> = vec![
            ("routes", MapSource::Routes(routes_path.clone())),
            ("padb", MapSource::Padb(padb_path.clone())),
            ("padb-mmap", MapSource::PadbMmap(padb_path.clone())),
            (
                "pagf",
                MapSource::frozen_snapshot(pagf_path.clone(), options()),
            ),
        ];
        for (kind, source) in backends {
            let (resolver, _, _) = source.load_serving_timed().unwrap();
            assert_eq!(
                resolver.entries(),
                reference.entries(),
                "{name}/{kind}: entry count"
            );
            for probe in probes(&golden) {
                let want = reference.resolve(&probe, "mel");
                let got = resolver.resolve(&probe, "mel");
                match (want, got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(g.route, w.route, "{name}/{kind}: route to {probe} diverged")
                    }
                    (Err(ResolveError::NoRoute), Err(ResolveError::NoRoute)) => {}
                    (w, g) => panic!(
                        "{name}/{kind}: {probe} resolved differently: \
                         reference {w:?}, backend {g:?}"
                    ),
                }
            }
        }
        for p in [routes_path, padb_path, pagf_path] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

#[test]
fn path_from_home_matches_query_on_every_graph_backend() {
    // The serving invariant: the PATH engine is built from the same
    // mapping run as the route table, so `PATH home X` must render the
    // same route QUERY prints, byte for byte, on every backend that
    // carries a frozen graph (map pipeline and PAGF snapshot — with
    // and without the stored reverse section). Table-only backends
    // must refuse rather than approximate.
    for name in CORPUS {
        let map_path = corpus_file(name, "map");
        let golden = std::fs::read_to_string(corpus_file(name, "routes")).unwrap();

        let mut parsed = Parsed::new();
        parsed.push_file(&map_path).unwrap();
        let frozen = parsed.build(&options()).unwrap().freeze();
        let pagf_path = temp(&format!("path-{name}.pagf"));
        frozen.write_snapshot(&pagf_path).unwrap();
        let pagf_rev_path = temp(&format!("path-{name}-rev.pagf"));
        frozen.write_snapshot_with_reverse(&pagf_rev_path).unwrap();

        let backends: Vec<(&str, MapSource)> = vec![
            ("map", MapSource::map_files(vec![map_path], options())),
            (
                "pagf",
                MapSource::frozen_snapshot(pagf_path.clone(), options()),
            ),
            (
                "pagf+reverse",
                MapSource::frozen_snapshot(pagf_rev_path.clone(), options()),
            ),
        ];
        for (kind, source) in backends {
            let server = Server::start(ServerConfig::ephemeral(source)).expect("server starts");
            let mut client = Client::connect(server.tcp_addr().unwrap()).unwrap();
            assert_eq!(client.send("PROTO 2").unwrap(), "200 proto=2");
            for line in golden.lines() {
                let host = line.split('\t').next().unwrap();
                let query = client.send(&format!("QUERY {host}")).unwrap();
                let route = query
                    .strip_prefix("200 ")
                    .unwrap_or_else(|| panic!("{name}/{kind}: QUERY {host} said `{query}`"));
                let info = client
                    .path("home", host)
                    .unwrap_or_else(|e| panic!("{name}/{kind}: PATH home {host}: {e}"))
                    .unwrap_or_else(|| panic!("{name}/{kind}: PATH home {host} found no route"));
                assert_eq!(
                    info.route, route,
                    "{name}/{kind}: PATH home {host} diverged from QUERY"
                );
            }
            // An unknown destination is a 404 for PATH exactly as for
            // QUERY, in both spellings.
            assert!(client.path("home", "no.such.host.zzz").unwrap().is_none());
            assert!(client.via("no.such.host.zzz").unwrap().is_none());
            client.quit().unwrap();
            server.shutdown();
        }

        // A table-only backend refuses with a 500, never a wrong path.
        let routes_path = temp(&format!("path-{name}.routes"));
        std::fs::write(&routes_path, &golden).unwrap();
        let server = Server::start(ServerConfig::ephemeral(MapSource::Routes(
            routes_path.clone(),
        )))
        .expect("routes server starts");
        let mut client = Client::connect(server.tcp_addr().unwrap()).unwrap();
        match client.path("home", "anywhere") {
            Err(pathalias_server::ClientError::Server { code: 500, message }) => {
                assert!(
                    message.contains("no frozen graph"),
                    "{name}: unexpected refusal `{message}`"
                );
            }
            other => panic!("{name}: routes backend answered PATH with {other:?}"),
        }
        client.quit().unwrap();
        server.shutdown();

        for p in [pagf_path, pagf_rev_path, routes_path] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

#[test]
fn multi_map_daemon_answers_the_corpus_like_single_map_daemons() {
    // One daemon serving the whole corpus, each namespace through a
    // *different* backend shape, versus one single-map daemon per
    // corpus map serving the full pipeline — raw wire lines must be
    // byte-identical for every probe.
    let mut scratch = Vec::new();
    let members: Vec<(String, MapSource)> = CORPUS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let map_path = corpus_file(name, "map");
            let golden = std::fs::read_to_string(corpus_file(name, "routes")).unwrap();
            let source = match i % 5 {
                0 => MapSource::map_files(vec![map_path], options()),
                1 => {
                    let p = temp(&format!("mm-{name}.routes"));
                    std::fs::write(&p, &golden).unwrap();
                    scratch.push(p.clone());
                    MapSource::Routes(p)
                }
                2 | 3 => {
                    let p = temp(&format!("mm-{name}.padb"));
                    write_db(&RouteDb::from_output(&golden).unwrap(), &p).unwrap();
                    scratch.push(p.clone());
                    if i % 5 == 2 {
                        MapSource::Padb(p)
                    } else {
                        MapSource::PadbMmap(p)
                    }
                }
                _ => {
                    let mut parsed = Parsed::new();
                    parsed.push_file(&map_path).unwrap();
                    let p = temp(&format!("mm-{name}.pagf"));
                    parsed
                        .build(&options())
                        .unwrap()
                        .freeze()
                        .write_snapshot(&p)
                        .unwrap();
                    scratch.push(p.clone());
                    MapSource::frozen_snapshot(p, options())
                }
            };
            (name.to_string(), source)
        })
        .collect();

    let multi = Server::start(ServerConfig::ephemeral_set(members)).expect("multi-map starts");
    let mut multi_client = Client::connect(multi.tcp_addr().unwrap()).unwrap();
    // Raw v2 session so response lines can be compared byte-for-byte.
    assert_eq!(multi_client.send("PROTO 2").unwrap(), "200 proto=2");

    for name in CORPUS {
        let golden = std::fs::read_to_string(corpus_file(name, "routes")).unwrap();
        let single = Server::start(ServerConfig::ephemeral(MapSource::map_files(
            vec![corpus_file(name, "map")],
            options(),
        )))
        .expect("single-map oracle starts");
        let mut oracle = Client::connect(single.tcp_addr().unwrap()).unwrap();

        for probe in probes(&golden) {
            let multi_line = multi_client
                .send(&format!("QUERY @{name} {probe} mel"))
                .unwrap();
            let single_line = oracle.send(&format!("QUERY {probe} mel")).unwrap();
            assert_eq!(
                multi_line, single_line,
                "{name}: wire answer for {probe} diverged"
            );
        }
        // And as one MQUERY batch pinned to the namespace's snapshot.
        let batch: Vec<(&str, Option<&str>)> = golden
            .lines()
            .map(|l| (l.split('\t').next().unwrap(), Some("mel")))
            .filter(|(h, _)| !h.contains(':'))
            .collect();
        let multi_answers = multi_client.query_batch_on(Some(name), &batch).unwrap();
        let single_answers = oracle.query_batch(&batch).unwrap();
        assert_eq!(multi_answers, single_answers, "{name}: MQUERY batch");

        oracle.quit().unwrap();
        single.shutdown();
    }
    multi_client.quit().unwrap();
    multi.shutdown();
    for p in scratch {
        std::fs::remove_file(p).unwrap();
    }
}
