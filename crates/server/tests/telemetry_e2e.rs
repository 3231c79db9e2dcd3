//! Telemetry end to end over real sockets: the `METRICS` and
//! `SLOWLOG` verbs through [`Client`], cross-signal consistency
//! between the `STATS` counters and the latency histograms, the
//! v1-only refusal path, and the "errors-only logging means a silent
//! steady state" guarantee.

use pathalias_server::{
    Client, ClientError, Level, Logger, MapSource, Server, ServerConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathalias-tele-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn start_two_maps(tag: &str) -> (ServerHandle, SocketAddr, PathBuf, PathBuf) {
    let east = temp(&format!("{tag}-east.routes"));
    let west = temp(&format!("{tag}-west.routes"));
    std::fs::write(&east, "a\teast!a!%s\nb\teast!b!%s\n").unwrap();
    std::fs::write(&west, "a\twest!a!%s\n").unwrap();
    let handle = Server::start(ServerConfig::ephemeral_set(vec![
        ("east".to_string(), MapSource::Routes(east.clone())),
        ("west".to_string(), MapSource::Routes(west.clone())),
    ]))
    .unwrap();
    let addr = handle.tcp_addr().unwrap();
    (handle, addr, east, west)
}

#[test]
fn metrics_scrape_over_the_socket_matches_the_load() {
    let (handle, addr, east, west) = start_two_maps("scrape");
    let mut client = Client::connect(addr).unwrap();

    // Known traffic: three single queries (one miss) on east, one
    // 2-item batch on west.
    assert!(client.query_on(Some("east"), "a", Some("u")).is_ok());
    assert!(client.query_on(Some("east"), "b", None).is_ok());
    assert!(client
        .query_on(Some("east"), "missing", None)
        .unwrap()
        .is_none());
    client
        .query_batch_on(Some("west"), &[("a", Some("u")), ("nope", None)])
        .unwrap();

    let text = client.metrics().unwrap();
    // Valid exposition shape: typed families, newline-terminated.
    assert!(text.contains("# TYPE pathalias_queries_total counter"));
    assert!(text.contains("# TYPE pathalias_request_latency_seconds histogram"));
    assert!(text.ends_with('\n'));

    // Cross-signal: the per-map queries counter equals the histogram
    // observation count (singles in verb="query", batch items in
    // verb="mquery_item").
    let value = |needle: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(needle))
            .unwrap_or_else(|| panic!("missing series {needle}"))
            .trim()
            .parse()
            .unwrap()
    };
    assert_eq!(value("pathalias_queries_total{map=\"east\"} "), 3);
    assert_eq!(
        value("pathalias_request_latency_seconds_count{map=\"east\",verb=\"query\"} "),
        3
    );
    assert_eq!(value("pathalias_queries_total{map=\"west\"} "), 2);
    assert_eq!(
        value("pathalias_request_latency_seconds_count{map=\"west\",verb=\"mquery_item\"} "),
        2
    );

    // Qualified scrape: only the named map's series (plus the
    // daemon-wide families).
    let east_only = client.metrics_on(Some("east")).unwrap();
    assert!(east_only.contains("map=\"east\""));
    assert!(!east_only.contains("map=\"west\""));
    assert!(east_only.contains("pathalias_uptime_seconds"));

    // The slow log saw every request, worst first.
    let entries = client.slowlog().unwrap();
    assert_eq!(entries.len(), 5);
    assert!(entries.iter().any(|e| e.contains("map=east")
        && e.contains("verb=QUERY")
        && e.contains("outcome=no_route")));
    assert!(entries
        .iter()
        .any(|e| e.contains("map=west") && e.contains("verb=MQUERY")));
    let east_entries = client.slowlog_on(Some("east")).unwrap();
    assert_eq!(east_entries.len(), 3);

    // Unknown maps are a clean 400, connection intact afterwards.
    match client.metrics_on(Some("bogus")) {
        Err(ClientError::Server { code: 400, message }) => {
            assert!(message.contains("unknown map"), "{message}");
        }
        other => panic!("expected a 400, got {other:?}"),
    }
    assert!(client.query_on(Some("east"), "a", None).is_ok());

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(east).unwrap();
    std::fs::remove_file(west).unwrap();
}

/// A burst of `PATH`s from one source: the first is searched, the
/// second builds the source's tree, the rest are read from it — and
/// the scrape, the slow log and the debug log all say so.
#[test]
fn same_source_path_burst_shows_one_tree_build_then_hits() {
    const BURST: u64 = 6;
    let map = temp("burst.map");
    std::fs::write(&map, "h a(10), b(20)\na c(5)\nb c(1)\nc d(7)\n").unwrap();
    let options = pathalias_core::Options {
        local: Some("h".to_string()),
        ..Default::default()
    };
    let (logger, log) = Logger::capture(Level::Debug);
    let mut config = ServerConfig::ephemeral(MapSource::map_files(vec![map.clone()], options));
    config.logger = logger;
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap()).unwrap();

    for k in 0..BURST {
        let dst = if k % 2 == 0 { "d" } else { "c" };
        assert!(client.path("a", dst).unwrap().is_some());
    }

    let text = client.metrics().unwrap();
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}{{map=\"default\"}} ")))
            .unwrap_or_else(|| panic!("missing series {name}"))
            .trim()
            .parse()
            .unwrap()
    };
    assert_eq!(value("pathalias_path_tree_builds_total"), 1);
    assert_eq!(value("pathalias_path_tree_hits_total"), BURST - 2);

    let slow = client.slowlog().unwrap();
    let tiers = |tag: &str| {
        slow.iter()
            .filter(|e| e.contains("verb=PATH") && e.ends_with(tag))
            .count() as u64
    };
    assert_eq!(tiers("outcome=ok tier=bidir"), 1, "{slow:?}");
    assert_eq!(tiers("outcome=ok tier=tree"), BURST - 1, "{slow:?}");

    let log = log.lock().unwrap().clone();
    let built: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("event=path_tree_built"))
        .collect();
    assert_eq!(built.len(), 1, "{log}");
    assert!(
        built[0]
            .contains("level=debug event=path_tree_built map=default source=a nodes=3 build_us="),
        "{}",
        built[0]
    );

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(map).unwrap();
}

/// A v1-only server: `PROTO` itself is an unknown verb, like the PR-1
/// daemon. One connection, then exit.
fn spawn_v1_only_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            let verb = line.split_whitespace().next().unwrap_or("").to_string();
            writeln!(stream, "400 unknown verb `{}`", verb.to_ascii_uppercase()).unwrap();
            stream.flush().unwrap();
            line.clear();
        }
    });
    addr
}

#[test]
fn metrics_and_slowlog_refuse_v1_only_daemons() {
    let addr = spawn_v1_only_server();
    let mut client = Client::connect(addr).unwrap();
    match client.metrics() {
        Err(ClientError::InvalidQuery(msg)) => {
            assert!(msg.contains("protocol v2"), "{msg}");
        }
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    match client.slowlog() {
        Err(ClientError::InvalidQuery(msg)) => {
            assert!(msg.contains("protocol v2"), "{msg}");
        }
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
}

#[test]
fn errors_only_logging_keeps_a_healthy_daemon_silent() {
    let east = temp("quiet.routes");
    std::fs::write(&east, "a\ta!%s\n").unwrap();
    let (logger, buf) = Logger::capture(Level::Error);
    let mut config = ServerConfig::ephemeral(MapSource::Routes(east.clone()));
    config.logger = logger;
    let handle = Server::start(config).unwrap();
    let addr = handle.tcp_addr().unwrap();

    // A full healthy session: queries (hit and miss), a bad request,
    // a successful reload, a scrape, quit. None of it is an error.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query("a", Some("u")).unwrap().unwrap(), "a!u");
    assert!(client.query("missing", None).unwrap().is_none());
    // A wire-level bad request logs at warn — below the threshold.
    let resp = client.send("EHLO example.org").unwrap();
    assert!(resp.starts_with("400 "), "{resp}");
    client.reload().unwrap();
    client.metrics().unwrap();
    client.quit().unwrap();
    assert_eq!(
        buf.lock().unwrap().as_str(),
        "",
        "a healthy daemon at PATHALIAS_LOG=error must write nothing"
    );

    // A genuinely failed reload is the kind of thing that DOES log.
    std::fs::write(&east, "garbage-without-a-route\n").unwrap();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.reload().is_err());
    client.quit().unwrap();
    let out = buf.lock().unwrap().clone();
    assert!(
        out.contains("level=error event=reload_failed map=default"),
        "{out}"
    );

    handle.shutdown();
    std::fs::remove_file(east).unwrap();
}
