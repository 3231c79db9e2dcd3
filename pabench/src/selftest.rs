//! The rig's fast self-test: the `lookup` and `path` phases against an
//! in-process `Server::start` on a 300-host world — no child
//! processes, a few seconds in all. It proves the oracle, the scripts,
//! the phase loops and the failure accounting agree with a real daemon
//! before any long run is spent on them.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::FAILED_NS;
use crate::wire::{closed_loop, Conn, Exchange, Until};
use crate::workloads::{lookup, path, Outcome};
use crate::world::{lookup_script, path_script, Scale, World};
use pathalias_server::{MapSource, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;

/// Requests per phase.
const REQUESTS: usize = 200;

struct Served {
    world: World,
    /// The map files, as written for the daemon.
    files: Vec<String>,
    handle: Option<ServerHandle>,
    dir: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A 300-host world served in-process from its map files.
fn serve(tag: &str, seed: u64) -> Served {
    let world = World::build(Scale::Small(300), seed, None).unwrap();
    let dir = std::env::temp_dir().join(format!("pabench-selftest-{tag}-{}", std::process::id()));
    let files = world.write_files(&dir).unwrap();
    let paths = files.iter().map(PathBuf::from).collect();
    let mut config = ServerConfig::ephemeral(MapSource::map_files(paths, world.options.clone()));
    config.workers = Some(1);
    let handle = Server::start(config).unwrap();
    Served {
        world,
        files,
        handle: Some(handle),
        dir,
    }
}

#[test]
fn lookup_phases_run_clean_against_an_in_process_daemon() {
    let served = serve("lookup", 31);
    let addr = served.handle.as_ref().unwrap().tcp_addr().unwrap();
    let script = lookup_script(&served.world.oracle.db, 31, 640);
    let mut out = Outcome::default();
    let [p50, rate, line] =
        lookup::timed_phases(addr, &script, Until::Count(REQUESTS), &mut out).unwrap();
    assert!(out.correct(), "{:?}", out.broken);
    assert_eq!(out.tally.failed, 0);
    // Three rounds of: 200 round trips, 200 bursts of 32, 200 batches of 64.
    assert_eq!(out.tally.attempted as usize, 3 * REQUESTS * (1 + 32 + 64));
    for round_values in [&p50, &rate, &line] {
        assert_eq!(round_values.len(), 3);
        assert!(round_values.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}

#[test]
fn path_phases_run_clean_against_an_in_process_daemon() {
    let served = serve("path", 32);
    let addr = served.handle.as_ref().unwrap().tcp_addr().unwrap();
    let script = path_script(&served.world, 32, 96).unwrap();
    assert_eq!(script.home_mismatches, 0);
    let mut out = Outcome::default();
    // One daemon plays both tiers: the phases are what is under test.
    let [p50, rate, alt] =
        path::timed_phases(addr, addr, &script, Until::Count(REQUESTS), &mut out).unwrap();
    assert!(out.correct(), "{:?}", out.broken);
    assert_eq!(
        out.tally.attempted as usize,
        3 * REQUESTS * (1 + path::PIPELINE_DEPTH + 1)
    );
    assert!(p50
        .iter()
        .chain(&rate)
        .chain(&alt)
        .all(|v| v.is_finite() && *v > 0.0));
}

#[test]
fn a_corrupted_response_line_is_counted_as_failed() {
    let served = serve("corrupt", 33);
    let addr = served.handle.as_ref().unwrap().tcp_addr().unwrap();
    let mut script = lookup_script(&served.world.oracle.db, 33, 64).singles;
    script.truncate(8);
    // The oracle expects one flipped byte in the third answer: from the
    // rig's side that is exactly a daemon that sent a wrong byte.
    script[2].expect[4] ^= 0x01;
    let mut conn = Conn::tcp(addr).unwrap();
    let mut cursor = 0;
    let phase = closed_loop(&script, &mut cursor, Until::Count(8), |x| {
        conn.roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice())
    });
    assert_eq!((phase.tally.attempted, phase.tally.failed), (8, 1));
    assert_eq!(
        phase.latencies_ns.len(),
        8,
        "the failed operation stays in the sample"
    );
    assert_eq!(phase.latencies_ns[2], FAILED_NS);
    assert!(
        phase.broken.is_none(),
        "a wrong answer does not end the phase"
    );
    let mut out = Outcome::default();
    out.absorb(&phase);
    assert!(!out.correct());
}

#[test]
fn a_daemon_that_dies_mid_phase_is_counted_as_failed() {
    // A peer that answers two requests and then goes away, as a killed
    // child does: the third request fails, is counted, and ends the
    // phase instead of hanging it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            stream.write_all(b"200 ok!%s\n").unwrap();
        }
    });
    let script = vec![Exchange {
        request: b"QUERY ok honey\n".to_vec(),
        expect: b"200 ok!%s".to_vec(),
    }];
    let mut conn = Conn::tcp(addr).unwrap();
    let mut cursor = 0;
    let phase = closed_loop(&script, &mut cursor, Until::Count(50), |x| {
        conn.roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice())
    });
    peer.join().unwrap();
    assert_eq!((phase.tally.attempted, phase.tally.failed), (3, 1));
    assert_eq!(phase.latencies_ns.last(), Some(&FAILED_NS));
    assert!(phase.broken.is_some());
    let mut out = Outcome::default();
    out.absorb(&phase);
    assert!(!out.correct());
}

/// With the `pathalias` binary built next to the test binary's target
/// directory, the same holds for a real child killed mid-run.
#[test]
fn a_killed_child_is_counted_as_failed() {
    let Some(bin) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("pathalias")))
        .filter(|b| b.is_file())
    else {
        eprintln!("skipped: no pathalias binary beside the test binary");
        return;
    };
    let served = serve("killed", 34);
    let args = crate::workloads::map_args(&served.files, &served.world.home);
    let script = lookup_script(&served.world.oracle.db, 34, 64).singles;
    let mut start = crate::workloads::cold_start(
        &bin,
        &args,
        &served.dir.join("daemon.err"),
        &script[0],
        false,
    )
    .unwrap();
    assert!(start.ok);
    let mut conn = Conn::tcp(start.daemon.tcp).unwrap();
    let mut cursor = 0;
    let mut sent = 0;
    let phase = closed_loop(&script, &mut cursor, Until::Count(100), |x| {
        sent += 1;
        if sent == 10 {
            start.daemon.kill();
        }
        conn.roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice())
    });
    assert_eq!(phase.tally.failed, 1);
    assert!(phase.tally.attempted <= 11);
    assert!(phase.broken.is_some());
    assert!(!start.daemon.is_alive());
}

/// Every workload's report carries each end-to-end name exactly once,
/// and the traced report carries only registered per-layer names — the
/// names `BENCHMARK.json` lists (see `metrics::tests`).
#[test]
fn metric_names_are_emitted_exactly_once() {
    let served = serve("names", 35);
    let addr = served.handle.as_ref().unwrap().tcp_addr().unwrap();
    let script = lookup_script(&served.world.oracle.db, 35, 640);
    let mut out = Outcome::default();
    let [p50, rate, line] =
        lookup::timed_phases(addr, &script, Until::Count(50), &mut out).unwrap();
    out.metrics.put1("setup_s", 0.5);
    out.metrics.put1("rss_mb", 10.0);
    out.metrics.put("op_p50_us", &p50);
    out.metrics.put("op_per_s", &rate);
    out.metrics.put("alt_p50_us", &line);
    let line = crate::report::driver_line(&out, END_TO_END, false).unwrap();
    let doc = crate::json::parse(&line).unwrap();
    let reported = doc.get("metrics").unwrap().as_obj().unwrap();
    for d in END_TO_END {
        assert_eq!(
            reported.iter().filter(|(k, _)| k == d.name).count(),
            1,
            "{}",
            d.name
        );
    }
    assert_eq!(reported.len(), END_TO_END.len());
    assert_eq!(WORKLOADS.len(), 4);
    assert!(PER_LAYER.iter().all(|d| d.name.contains('.')));
}
