//! Protocol v2 coverage: property/round-trip tests for
//! `parse_request` / `Response` rendering, `MQUERY` ordering and
//! `MAX_LINE` behaviour on a live daemon, v1/v2 negotiation fallback
//! against a v1-only server, byte-identical v1 replay, and the
//! `SHUTDOWN` drain path.

use pathalias_server::protocol::{parse_request, ProtoVersion, Request, Response, MAX_LINE};
use pathalias_server::{Client, ClientError, MapSource, Server, ServerConfig, ServerHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathalias-pv2-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn start_server(routes: &str, tag: &str) -> (ServerHandle, SocketAddr, PathBuf) {
    let path = temp(tag);
    std::fs::write(&path, routes).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::Routes(path.clone()))).unwrap();
    let addr = handle.tcp_addr().unwrap();
    (handle, addr, path)
}

// ---- property tests over the pure protocol layer -------------------

proptest! {
    /// A well-formed QUERY line parses to exactly its parts, at both
    /// protocol versions.
    #[test]
    fn query_parse_round_trip(
        host in "[a-z][a-z0-9.-]{0,30}",
        user in proptest::collection::vec("[a-z][a-z0-9]{0,10}", 0..2),
    ) {
        let user = user.first().cloned();
        let line = match &user {
            Some(u) => format!("QUERY {host} {u}"),
            None => format!("QUERY {host}"),
        };
        for proto in [ProtoVersion::V1, ProtoVersion::V2] {
            let req = parse_request(&line, proto).unwrap();
            prop_assert_eq!(
                req,
                Request::Query { map: None, host: host.clone(), user: user.clone() }
            );
        }
    }

    /// MQUERY preserves the order and the host:user split of every
    /// token — and is rejected wholesale at v1.
    #[test]
    fn mquery_parse_round_trip(
        pairs in proptest::collection::vec(
            ("[a-z][a-z0-9.-]{0,20}", proptest::collection::vec("[a-z][a-z0-9]{0,8}", 0..2)),
            1..12,
        ),
    ) {
        let mut line = String::from("MQUERY");
        let mut expect = Vec::new();
        for (host, user) in &pairs {
            let user = user.first().cloned();
            line.push(' ');
            line.push_str(host);
            if let Some(u) = &user {
                line.push(':');
                line.push_str(u);
            }
            expect.push((host.clone(), user));
        }
        let req = parse_request(&line, ProtoVersion::V2).unwrap();
        prop_assert_eq!(req, Request::MultiQuery { map: None, queries: expect });
        // The same line at v1 is an unknown verb, byte-compatibly.
        prop_assert_eq!(
            parse_request(&line, ProtoVersion::V1).unwrap_err(),
            "unknown verb `MQUERY`".to_string()
        );
    }

    /// Whatever lands in a payload, a rendered response is one line
    /// and starts with its own status code.
    #[test]
    fn responses_render_one_line_with_code(payload in "[ -~\\n\\r]{0,60}") {
        let responses = [
            Response::Route(payload.clone()),
            Response::NoRoute(payload.clone()),
            Response::Stats {
                map: None,
                body: payload.clone(),
            },
            Response::BadRequest(payload.clone()),
            Response::Failure(payload.clone()),
            Response::Proto { version: ProtoVersion::V2 },
            Response::ShuttingDown,
            Response::Bye,
        ];
        for r in responses {
            let line = r.to_string();
            prop_assert!(!line.contains('\n') && !line.contains('\r'));
            prop_assert!(line.starts_with(&format!("{} ", r.code())), "{}", line);
        }
    }

    /// Junk that is not a verb never parses, at either version.
    #[test]
    fn junk_lines_never_panic(line in "[ -~]{0,80}") {
        for proto in [ProtoVersion::V1, ProtoVersion::V2] {
            let _ = parse_request(&line, proto);
        }
    }
}

// ---- live-daemon behaviour -----------------------------------------

#[test]
fn mquery_answers_in_request_order() {
    let (handle, addr, path) = start_server("a\ta!%s\nb\tb!%s\nc\tc!%s\n.edu\tgw!%s\n", "order");
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.negotiate().unwrap(), ProtoVersion::V2);

    // Shuffled hosts, a miss in the middle, repeated names: the
    // response lines must land in token order.
    let results = client
        .query_batch(&[
            ("c", Some("u1")),
            ("missing", None),
            ("a", Some("u2")),
            ("x.edu", Some("u3")),
            ("c", Some("u4")),
        ])
        .unwrap();
    assert_eq!(
        results,
        vec![
            Some("c!u1".to_string()),
            None,
            Some("a!u2".to_string()),
            Some("gw!x.edu!u3".to_string()),
            Some("c!u4".to_string()),
        ]
    );
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn overlong_mquery_gets_400_and_drop() {
    let (handle, addr, path) = start_server("a\ta!%s\n", "overlong");
    let mut client = Client::connect(addr).unwrap();
    client.negotiate().unwrap();

    // One line just over MAX_LINE: the server answers 400 (or drops
    // mid-write) and closes; a fresh connection still works.
    let hosts = "a ".repeat(MAX_LINE / 2 + 16);
    if let Ok(resp) = client.send(&format!("MQUERY {hosts}")) {
        assert!(resp.starts_with("400 "), "{resp}");
    }
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.query("a", Some("u")).unwrap().unwrap(), "a!u");
    fresh.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn server_errors_are_typed_for_clients() {
    let (handle, addr, path) = start_server("a\ta!%s\n", "typed-errors");
    let mut client = Client::connect(addr).unwrap();

    // A 400: a malformed request surfaces as a typed Server error
    // carrying the daemon's own message, not a generic I/O error.
    match client.query("a b", Some("c")) {
        Err(ClientError::Server { code: 400, message }) => {
            assert!(message.contains("trailing argument"), "{message}");
        }
        other => panic!("expected typed 400, got {other:?}"),
    }

    // Sabotage the source so RELOAD yields a 500, and check the typed
    // error carries the server text.
    std::fs::write(&path, "garbage-without-a-route\n").unwrap();
    match client.reload() {
        Err(ClientError::Server { code: 500, message }) => {
            assert!(message.contains("reload failed"), "{message}");
        }
        other => panic!("expected typed 500, got {other:?}"),
    }
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn batch_validation_fails_before_the_wire() {
    let (handle, addr, path) = start_server("a\ta!%s\n", "batch-validate");
    let mut client = Client::connect(addr).unwrap();
    for bad in [
        ("", None),
        ("has space", None),
        ("has:colon", None),
        ("a", Some("")),
        ("a", Some("u ser")),
    ] {
        match client.query_batch(&[bad]) {
            Err(ClientError::InvalidQuery(_)) => {}
            other => panic!("{bad:?} should fail validation, got {other:?}"),
        }
    }
    // Nothing was written, so the connection is still in sync.
    assert_eq!(client.query("a", Some("u")).unwrap().unwrap(), "a!u");
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn mid_batch_server_error_does_not_desync_the_client() {
    // An mmap-backed daemon whose file is truncated after open: one
    // slot of a batch answers 500. The batch must fail with the typed
    // error AND leave the connection in sync — every response line
    // consumed, the next query answers correctly.
    use pathalias_mailer::disk::write_db;
    use pathalias_mailer::RouteDb;

    let padb_path = temp("desync.padb");
    let db = RouteDb::from_output("aa\trelay!aa!%s\nzz\trelay!zz!%s\n").unwrap();
    write_db(&db, &padb_path).unwrap();
    let handle = Server::start(ServerConfig::ephemeral(MapSource::PadbMmap(
        padb_path.clone(),
    )))
    .unwrap();
    let addr = handle.tcp_addr().unwrap();
    let mut client = Client::connect(addr).unwrap();

    // Cut the blob's tail so "zz" (last in sort order) can no longer
    // be read from disk, while "aa" (first) still can.
    assert_eq!(
        client.query("aa", Some("u")).unwrap().unwrap(),
        "relay!aa!u"
    );
    let full = std::fs::read(&padb_path).unwrap();
    std::fs::write(&padb_path, &full[..full.len() - 6]).unwrap();

    match client.query_batch(&[("aa", Some("u")), ("zz", Some("u"))]) {
        Err(ClientError::Server { code: 500, message }) => {
            assert!(message.contains("resolve failed"), "{message}");
        }
        other => panic!("expected a typed 500, got {other:?}"),
    }
    // The regression this guards: before draining, the 500 left the
    // second response line buffered and this query read slot 2's
    // answer instead of its own.
    assert_eq!(
        client.query("aa", Some("v")).unwrap().unwrap(),
        "relay!aa!v"
    );
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(padb_path).unwrap();
}

/// A hand-rolled v1-only server: speaks exactly the PR-1 protocol, so
/// `PROTO` is an unknown verb. One connection, then exit.
fn spawn_v1_only_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let response = match words.as_slice() {
                ["QUERY", host] => format!("200 {host}!%s"),
                ["QUERY", host, user] => format!("200 {host}!{user}"),
                ["QUIT"] => "200 bye".to_string(),
                [verb, ..] => format!("400 unknown verb `{}`", verb.to_ascii_uppercase()),
                [] => continue,
            };
            writeln!(stream, "{response}").unwrap();
            stream.flush().unwrap();
            if words.as_slice() == ["QUIT"] {
                return;
            }
        }
    });
    addr
}

#[test]
fn negotiation_falls_back_to_v1_pipelining() {
    let addr = spawn_v1_only_server();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.negotiate().unwrap(), ProtoVersion::V1);
    // query_batch still answers — as pipelined v1 QUERYs.
    let results = client
        .query_batch(&[("alpha", Some("u")), ("beta", None), ("gamma", Some("w"))])
        .unwrap();
    assert_eq!(
        results,
        vec![
            Some("alpha!u".to_string()),
            Some("beta!%s".to_string()),
            Some("gamma!w".to_string()),
        ]
    );
    client.quit().unwrap();
}

#[test]
fn v1_session_replays_byte_identically() {
    // A session recorded against the PR-1 daemon (one write, responses
    // concatenated). The new daemon must produce these exact bytes.
    let (handle, addr, path) = start_server("seismo\tseismo!%s\n.edu\tseismo!%s\n", "replay");

    let session: &[u8] = b"HEALTH\n\
        QUERY seismo rick\n\
        QUERY caip.rutgers.edu pleasant\n\
        QUERY seismo\n\
        QUERY nowhere u\n\
        QUERY\n\
        QUERY a b c\n\
        ehlo example.org\n\
        STATS now\n\
        QUIT\n";
    let expected: &[u8] = b"200 ok generation=0 entries=2\n\
        200 seismo!rick\n\
        200 seismo!caip.rutgers.edu!pleasant\n\
        200 seismo!%s\n\
        404 no route to nowhere\n\
        400 QUERY needs a host\n\
        400 trailing argument `c`\n\
        400 unknown verb `EHLO`\n\
        400 trailing argument `now`\n\
        200 bye\n";

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(session).unwrap();
    stream.flush().unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(expected),
        "v1 replay must be byte-identical"
    );

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn shutdown_verb_drains_the_daemon() {
    let (handle, addr, path) = start_server("a\ta!%s\n", "shutdown");

    // A bystander connection with a query in flight keeps working.
    let mut bystander = Client::connect(addr).unwrap();
    assert_eq!(bystander.query("a", Some("u")).unwrap().unwrap(), "a!u");

    let shutter = Client::connect(addr).unwrap();
    let payload = shutter.shutdown().unwrap();
    assert_eq!(payload, "shutting down");

    // The daemon drains: accept loops exit, existing connections are
    // released, wait() returns instead of blocking forever.
    assert!(
        handle.drain(Duration::from_secs(5)),
        "all connections drained in time"
    );

    // New connections are refused or immediately closed.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.query("a", None).is_err(), "accept loop must be gone");
        }
    }
    std::fs::remove_file(path).unwrap();
}
