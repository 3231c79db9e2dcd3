//! Event-loop behavior that the byte-identical replay suites can't
//! see: adversarial clients (byte dribblers, slow readers), an idle
//! herd beside hot connections, the UDP datagram endpoint's parity
//! with TCP, and the per-worker gauges.
#![cfg(unix)]

use pathalias_server::{Client, MapSource, Server, ServerConfig, ServerHandle, UdpClient};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathalias-evloop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A single-worker daemon serving one tiny routes table — every
/// connection lands on the same event loop, so anything that blocks
/// the loop visibly blocks the other clients.
fn single_worker(tag: &str, udp: bool) -> (ServerHandle, PathBuf) {
    let path = temp(tag);
    std::fs::write(&path, "seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
    let mut config = ServerConfig::ephemeral(MapSource::Routes(path.clone()));
    config.workers = Some(1);
    if udp {
        config.udp = Some("127.0.0.1:0".to_string());
    }
    let handle = Server::start(config).expect("server starts");
    (handle, path)
}

#[test]
fn dribbled_bytes_frame_correctly() {
    // A client that writes one byte at a time must still get complete,
    // correctly framed responses: the nonblocking read path has to
    // buffer partial lines across many readiness events, and a
    // multi-byte character split across reads must decode whole.
    let (handle, path) = single_worker("dribble.routes", false);
    let addr = handle.tcp_addr().unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let script = "PROTO 2\nQUERY seismo rick\nMQUERY x.mit.edu:minsky nowhere\n\
                  QUERY zürich.üñî.edu häns\n";
    for byte in script.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    let next = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).unwrap();
        line.trim_end().to_string()
    };
    assert_eq!(next(&mut reader, &mut line), "200 proto=2");
    assert_eq!(next(&mut reader, &mut line), "200 seismo!rick");
    assert_eq!(next(&mut reader, &mut line), "200 seismo!x.mit.edu!minsky");
    assert_eq!(next(&mut reader, &mut line), "404 no route to nowhere");
    assert_eq!(
        next(&mut reader, &mut line),
        "200 seismo!zürich.üñî.edu!häns"
    );

    // A final request with no trailing newline, then EOF: the daemon
    // must still serve that last line (legacy parity) and close.
    stream.write_all(b"QUERY seismo honey").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(next(&mut reader, &mut line), "200 seismo!honey");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "clean EOF");

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn slow_reader_mid_metrics_does_not_stall_the_worker() {
    // One connection pipelines hundreds of METRICS requests and then
    // refuses to read. The write buffer must absorb the pile-up (and
    // backpressure must stop further parsing) WITHOUT blocking the
    // worker — a second connection on the same single-worker loop has
    // to keep getting answers. When the slow reader finally drains,
    // every response must still be perfectly framed.
    const PILED: usize = 500;
    let (handle, path) = single_worker("slowread.routes", false);
    let addr = handle.tcp_addr().unwrap();

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut script = String::from("PROTO 2\n");
    for _ in 0..PILED {
        script.push_str("METRICS\n");
    }
    slow.write_all(script.as_bytes()).unwrap();

    // Let the worker chew on the pile until the un-read responses jam
    // its write buffer, then prove the loop is still alive.
    std::thread::sleep(Duration::from_millis(150));
    let mut live = Client::connect(addr).expect("second client connects");
    for i in 0..50 {
        assert_eq!(
            live.query("seismo", Some("rick")).unwrap().unwrap(),
            "seismo!rick",
            "query {i} while the slow reader jams the loop"
        );
    }
    live.quit().unwrap();

    // Now drain: one PROTO ack, then 500 multi-line METRICS responses,
    // each a `200 metrics lines=N` header followed by exactly N lines.
    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "200 proto=2");
    for batch in 0..PILED {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let count: usize = line
            .trim_end()
            .strip_prefix("200 metrics lines=")
            .unwrap_or_else(|| panic!("batch {batch}: bad header `{}`", line.trim_end()))
            .parse()
            .unwrap();
        assert!(count > 0, "batch {batch}: empty exposition");
        for _ in 0..count {
            line.clear();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "batch {batch}: truncated payload"
            );
        }
    }
    slow.write_all(b"QUIT\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "200 bye");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "clean EOF");

    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn idle_herd_does_not_starve_hot_connections() {
    // The C10K shape in miniature: idle connections spread over two
    // workers must cost the hot ones nothing but buffers. Every hot
    // query is answered, every connection is counted, and a drain
    // releases the herd inside its deadline.
    const IDLE: usize = 256;
    const HOT: usize = 8;
    const QUERIES: usize = 200;
    let path = temp("herd.routes");
    std::fs::write(&path, "seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
    let mut config = ServerConfig::ephemeral(MapSource::Routes(path.clone()));
    config.workers = Some(2);
    let handle = Server::start(config).expect("server starts");
    let addr = handle.tcp_addr().unwrap();

    // One round trip each, so a worker owns the connection (and has
    // counted it) before it goes idle.
    let herd: Vec<Client> = (0..IDLE)
        .map(|_| {
            let mut client = Client::connect(addr).expect("herd connects");
            client.health().unwrap();
            client
        })
        .collect();

    // A starved or failed hot connection never sends its client back.
    let (done, finished) = mpsc::channel();
    for id in 0..HOT {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("hot client connects");
            for q in 0..QUERIES {
                let user = format!("u{id}-{q}");
                assert_eq!(
                    client.query("x.mit.edu", Some(&user)).unwrap().unwrap(),
                    format!("seismo!x.mit.edu!{user}")
                );
            }
            done.send(client).unwrap();
        });
    }
    drop(done);
    let mut hot: Vec<Client> = (0..HOT)
        .map(|_| {
            finished
                .recv_timeout(Duration::from_secs(30))
                .expect("a hot connection starved behind the idle herd")
        })
        .collect();

    let text = hot[0].metrics().unwrap();
    let open: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("pathalias_connections_open{worker="))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(open.len(), 2, "one gauge per worker in:\n{text}");
    assert_eq!(open.iter().sum::<u64>(), (IDLE + HOT) as u64, "{open:?}");

    for client in hot {
        client.quit().unwrap();
    }
    assert!(
        handle.drain(Duration::from_secs(5)),
        "drain released the idle herd"
    );
    drop(herd);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn udp_answers_match_tcp_byte_for_byte() {
    let (handle, path) = single_worker("udp-parity.routes", true);
    let tcp_addr = handle.tcp_addr().unwrap();
    let udp_addr = handle.udp_addr().expect("udp endpoint bound");

    let mut tcp = Client::connect(tcp_addr).unwrap();
    assert!(tcp.send("PROTO 2").unwrap().starts_with("200 "));
    let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
    udp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    udp.connect(udp_addr).unwrap();

    // Every single-line verb the datagram endpoint serves, plus parse
    // errors: the reply must equal the TCP reply byte for byte.
    let mut buf = [0u8; 65536];
    for request in [
        "QUERY seismo rick",
        "QUERY caip.rutgers.edu pleasant",
        "QUERY no.such.host",
        "PATH seismo seismo",
        "HEALTH",
        "MAPS",
        "QUERY",
        "QUERY a b c",
        "EHLO mail.example",
    ] {
        let over_tcp = tcp.send(request).unwrap();
        udp.send(format!("{request}\n").as_bytes()).unwrap();
        let n = udp.recv(&mut buf).unwrap();
        let over_udp = String::from_utf8_lossy(&buf[..n]);
        assert_eq!(
            over_udp.strip_suffix('\n').unwrap_or(&over_udp),
            over_tcp,
            "transports diverge on `{request}`"
        );
    }

    // Connection-oriented verbs have no meaning in a datagram.
    for verb in ["RELOAD", "METRICS", "QUIT", "SHUTDOWN"] {
        udp.send(format!("{verb}\n").as_bytes()).unwrap();
        let n = udp.recv(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&buf[..n]),
            format!("400 {verb} unavailable over udp\n")
        );
    }

    // The typed UDP client agrees with the typed TCP client.
    let mut dgram = UdpClient::connect(udp_addr).unwrap();
    assert_eq!(
        dgram.query("x.mit.edu", Some("minsky")).unwrap().unwrap(),
        tcp.query("x.mit.edu", Some("minsky")).unwrap().unwrap(),
    );
    assert_eq!(dgram.query("nowhere", None).unwrap(), None);
    assert!(dgram.health().unwrap().contains("entries=2"));

    tcp.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn metrics_expose_per_worker_gauges() {
    let (handle, path) = single_worker("gauges.routes", true);
    let addr = handle.tcp_addr().unwrap();

    // A UDP datagram first, so the datagram counter has something on it.
    let mut dgram = UdpClient::connect(handle.udp_addr().unwrap()).unwrap();
    assert_eq!(
        dgram.query("seismo", Some("rick")).unwrap().unwrap(),
        "seismo!rick"
    );

    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap();
    let gauge = |name: &str| -> u64 {
        text.lines()
            .filter_map(|l| l.strip_prefix(&format!("{name}{{worker=\"0\"}} ")))
            .map(|v| v.trim().parse::<u64>().unwrap())
            .next()
            .unwrap_or_else(|| panic!("missing {name} worker series in:\n{text}"))
    };
    assert!(
        gauge("pathalias_connections_open") >= 1,
        "the scraping connection itself is open"
    );
    let _ = gauge("pathalias_worker_pending_events");
    assert!(gauge("pathalias_udp_datagrams_total") >= 1);

    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn udp_oversize_response_returns_framed_500() {
    // A pathological route longer than one datagram's payload (65507
    // bytes) cannot be sent over UDP. The endpoint must answer with a
    // framed 500 — not truncate, not drop the reply — and the same
    // query over TCP must serve the full route.
    let path = temp("udp-oversize.routes");
    let long_hop = "x".repeat(70_000);
    std::fs::write(
        &path,
        format!("bighost\t{long_hop}!%s\nseismo\tseismo!%s\n"),
    )
    .unwrap();
    let mut config = ServerConfig::ephemeral(MapSource::Routes(path.clone()));
    config.workers = Some(1);
    config.udp = Some("127.0.0.1:0".to_string());
    let handle = Server::start(config).expect("server starts");

    let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
    udp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    udp.connect(handle.udp_addr().unwrap()).unwrap();
    let mut buf = [0u8; 65536];

    udp.send(b"QUERY bighost u\n").unwrap();
    let n = udp.recv(&mut buf).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&buf[..n]),
        "500 response too large for udp\n"
    );

    // The endpoint is still healthy: small answers keep flowing.
    udp.send(b"QUERY seismo rick\n").unwrap();
    let n = udp.recv(&mut buf).unwrap();
    assert_eq!(String::from_utf8_lossy(&buf[..n]), "200 seismo!rick\n");

    // TCP has no datagram ceiling: the full route comes back intact.
    let mut tcp = Client::connect(handle.tcp_addr().unwrap()).unwrap();
    let served = tcp.query("bighost", Some("u")).unwrap().unwrap();
    assert_eq!(served, format!("{long_hop}!u"));

    tcp.quit().unwrap();
    handle.shutdown();
    std::fs::remove_file(path).unwrap();
}
