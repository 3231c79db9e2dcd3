//! Black-box tests of the `pathalias` binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_pathalias");

const PAPER_MAP: &str = "\
unc\tduke(HOURLY), phs(HOURLY*4)
duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
phs\tunc(HOURLY*4), duke(HOURLY)
research\tduke(DEMAND), ucbvax(DEMAND)
ucbvax\tresearch(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
";

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn a_reader_that_closes_early_ends_the_run_quietly() {
    // `pathalias ... | head -1`: the routes run to well over a pipe
    // buffer, and the reader leaves after the first line.
    let dir = std::env::temp_dir();
    let map = dir.join(format!("pa-cli-epipe-{}.map", std::process::id()));
    let gen = Command::new(BIN)
        .args(["mapgen", "--hosts", "3000", "--seed", "1"])
        .output()
        .expect("mapgen runs");
    std::fs::write(&map, &gen.stdout).unwrap();
    let home = String::from_utf8_lossy(&gen.stderr);
    let home = home.split("home hub: ").nth(1).expect("home hub").trim();
    for args in [
        vec!["-l", home, map.to_str().unwrap()],
        vec!["mapgen", "--hosts", "3000", "--seed", "1"],
    ] {
        let mut child = Command::new(BIN)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = child.stdout.take().expect("stdout piped");
        let mut first = [0u8; 64];
        let read = std::io::Read::read(&mut stdout, &mut first).expect("some output");
        assert!(read > 0, "{args:?}");
        drop(stdout);
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
        assert!(!out.status.success(), "{args:?}: the output was cut short");
        assert_ne!(out.status.code(), Some(101), "{args:?}: a panic's status");
    }
    std::fs::remove_file(&map).ok();
}

#[test]
fn paper_example_from_stdin() {
    let (stdout, _, ok) = run_with_stdin(&["-l", "unc", "-c"], PAPER_MAP);
    assert!(ok);
    assert!(stdout.contains("0\tunc\t%s"));
    assert!(stdout.contains("3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai"));
}

#[test]
fn default_output_has_no_costs() {
    let (stdout, _, ok) = run_with_stdin(&["-l", "unc"], PAPER_MAP);
    assert!(ok);
    assert!(stdout.contains("duke\tduke!%s"));
    assert!(!stdout.contains("500\t"));
}

#[test]
fn verbose_stats_on_stderr() {
    let (_, stderr, ok) = run_with_stdin(&["-l", "unc", "-v"], PAPER_MAP);
    assert!(ok);
    assert!(stderr.contains("nodes"), "{stderr}");
    assert!(stderr.contains("heap:"), "{stderr}");
}

#[test]
fn trace_prints_decisions() {
    let (_, stderr, ok) = run_with_stdin(&["-l", "unc", "-t", "phs"], PAPER_MAP);
    assert!(ok);
    assert!(stderr.contains("trace:"), "{stderr}");
    assert!(stderr.contains("phs"), "{stderr}");
}

#[test]
fn stderr_of_a_verbose_traced_run_is_pinned() {
    // A duplicate link (a warning), a host only a back link reaches, a
    // traced host and three unreachable ones: every stderr line the
    // run prints, in order, after the routes.
    let map = "a\tb(10), c(5)\na\tb(20)\nb\tc(1)\nd\tc(4)\nx\ty(3)\nz\tx(2)\n";
    let (stdout, stderr, ok) = run_with_stdin(&["-v", "-t", "c", "-l", "a"], map);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "a\t%s\nc\tc!%s\nb\tb!%s\nd\tc!d!%s\n");
    let (before, timings) = stderr
        .split_once("pathalias: timings: ")
        .expect("a timing line");
    assert_eq!(
        before,
        "pathalias: warning: duplicate link a -> b: keeping cost 10, dropping 20\n\
         trace: a -> c base 5 => candidate 5 (accepted)\n\
         trace: c -> d base 30000004 => candidate 30000009 (accepted)\n\
         pathalias: 3 unreachable host(s): x, y, z\n\
         pathalias: 7 nodes, 6 links, 4 mapped\n\
         pathalias: heap: 7 pushes, 7 pops (0 stale); 8 relaxations\n\
         pathalias: penalties: 0 gate, 0 relay, 0 mixed; back links: 1 in 1 rounds (1 restarted)\n"
    );
    // The timing line is last, and names the four phases in order.
    let phases: Vec<&str> = timings
        .strip_suffix('\n')
        .expect("one line")
        .split(", ")
        .map(|p| p.split_once(' ').expect("phase and time").0)
        .collect();
    assert_eq!(phases, ["parse", "freeze", "map", "print"], "{timings}");
}

#[test]
fn unknown_local_fails() {
    let (_, stderr, ok) = run_with_stdin(&["-l", "nowhere"], PAPER_MAP);
    assert!(!ok);
    assert!(stderr.contains("nowhere"), "{stderr}");
}

#[test]
fn parse_error_reports_location() {
    let (_, stderr, ok) = run_with_stdin(&[], "a $bad\n");
    assert!(!ok);
    assert!(stderr.contains("<stdin>:1:"), "{stderr}");
}

#[test]
fn bad_flag_shows_usage() {
    let (_, stderr, ok) = run_with_stdin(&["-q"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn files_from_disk() {
    let dir = std::env::temp_dir();
    let p1 = dir.join(format!("pa-cli-a-{}.map", std::process::id()));
    let p2 = dir.join(format!("pa-cli-b-{}.map", std::process::id()));
    std::fs::write(&p1, "a b(10)\n").unwrap();
    std::fs::write(&p2, "b c(10)\n").unwrap();
    let out = Command::new(BIN)
        .args(["-l", "a", p1.to_str().unwrap(), p2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("c\tb!c!%s"), "{stdout}");
    std::fs::remove_file(p1).unwrap();
    std::fs::remove_file(p2).unwrap();
}

#[test]
fn mapgen_subcommand_roundtrips() {
    let out = Command::new(BIN)
        .args(["mapgen", "--hosts", "120", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let map_text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(map_text.contains("file {"));

    // Generated output feeds straight back into the router.
    let (stdout, _, ok) = run_with_stdin(&["-l", "uncvax"], &map_text);
    assert!(ok);
    assert!(stdout.lines().count() > 100);
}

#[test]
fn query_subcommand() {
    let dir = std::env::temp_dir();
    let db = dir.join(format!("pa-cli-db-{}.txt", std::process::id()));
    std::fs::write(&db, "seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();

    let out = Command::new(BIN)
        .args([
            "query",
            "-d",
            db.to_str().unwrap(),
            "caip.rutgers.edu",
            "pleasant",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "seismo!caip.rutgers.edu!pleasant"
    );

    let out = Command::new(BIN)
        .args(["query", "-d", db.to_str().unwrap(), "unknownhost"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(db).unwrap();
}

#[test]
fn help_exits_zero() {
    let out = Command::new(BIN).arg("-h").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn serve_daemon_and_client_round_trip() {
    use std::io::BufRead as _;

    let dir = std::env::temp_dir();
    let routes = dir.join(format!("pa-cli-serve-{}.routes", std::process::id()));
    std::fs::write(
        &routes,
        "seismo\tseismo!%s\nduke\tduke!%s\n.edu\tseismo!%s\n",
    )
    .unwrap();

    // Daemon on an ephemeral port; the bound address is announced on
    // stdout for scripts (and this test) to scrape.
    let mut daemon = Command::new(BIN)
        .args([
            "serve",
            "--routes",
            routes.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let stdout = daemon.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("announce line").unwrap();
    let addr = first
        .strip_prefix("pathalias-server listening on tcp ")
        .unwrap_or_else(|| panic!("unexpected announce line `{first}`"))
        .to_string();

    let client = |args: &[&str]| {
        Command::new(BIN)
            .args(["serve", "--connect", &addr])
            .args(args)
            .output()
            .unwrap()
    };

    let out = client(&["--query", "caip.rutgers.edu", "--user", "pleasant"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "seismo!caip.rutgers.edu!pleasant"
    );

    let out = client(&["--query", "unknown.host"]);
    assert!(!out.status.success());

    let out = client(&["--health"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("entries=3"));

    // Hot reload through the CLI: edit the file, --reload, re-query.
    std::fs::write(&routes, "seismo\tnewrelay!seismo!%s\n").unwrap();
    let out = client(&["--reload"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("generation=1"));
    let out = client(&["--query", "seismo", "--user", "rick"]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "newrelay!seismo!rick"
    );

    let out = client(&["--stats"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("queries=3"));

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_file(routes).unwrap();
}

/// Spawns a serve daemon on an ephemeral port and scrapes the bound
/// address from its announce line.
fn spawn_daemon(args: &[&str]) -> (std::process::Child, String) {
    use std::io::BufRead as _;
    let mut daemon = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let stdout = daemon.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("announce line").unwrap();
    let addr = first
        .strip_prefix("pathalias-server listening on tcp ")
        .unwrap_or_else(|| panic!("unexpected announce line `{first}`"))
        .to_string();
    (daemon, addr)
}

/// The snapshot cold-start path end to end: mapgen → freeze → serve
/// --backend pagf must answer byte-for-byte what the full-pipeline
/// backend answers (the CI smoke job runs the same flow at paper
/// scale against the release binary).
#[test]
fn freeze_then_serve_pagf_matches_full_pipeline() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let map_path = dir.join(format!("pa-cli-pagf-{tag}.map"));
    let pagf_path = dir.join(format!("pa-cli-pagf-{tag}.pagf"));

    // A generated world with networks, domains and aliases.
    let gen = Command::new(BIN)
        .args(["mapgen", "--hosts", "300", "--seed", "1986"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&map_path, &gen.stdout).unwrap();
    let gen_err = String::from_utf8_lossy(&gen.stderr).into_owned();
    let home = gen_err
        .split("home hub: ")
        .nth(1)
        .expect("mapgen announces its home hub")
        .trim()
        .to_string();

    // Freeze the world to a PAGF1 snapshot.
    let freeze = Command::new(BIN)
        .args(["freeze", "-o", pagf_path.to_str().unwrap()])
        .arg(&map_path)
        .output()
        .unwrap();
    assert!(freeze.status.success(), "{:?}", freeze);
    let freeze_err = String::from_utf8_lossy(&freeze.stderr).into_owned();
    assert!(freeze_err.contains("froze"), "{freeze_err}");

    // Destinations to compare: a spread of routable hosts from the
    // pipeline's own output, plus suffix/default-route shapes.
    let routes = run_with_stdin(
        &["-l", &home, map_path.to_str().unwrap()],
        "", // input comes from the file argument
    );
    assert!(routes.2, "{}", routes.1);
    let mut dests: Vec<String> = routes
        .0
        .lines()
        .step_by(17)
        .filter_map(|l| l.split('\t').next())
        .map(str::to_string)
        .take(40)
        .collect();
    dests.push(home.clone());
    assert!(dests.len() > 20, "enough destinations to be interesting");

    let (mut full, full_addr) = spawn_daemon(&[
        "serve",
        "--map",
        map_path.to_str().unwrap(),
        "-l",
        &home,
        "--listen",
        "127.0.0.1:0",
    ]);
    let (mut cold, cold_addr) = spawn_daemon(&[
        "serve",
        "--pagf",
        pagf_path.to_str().unwrap(),
        "--backend",
        "pagf",
        "-l",
        &home,
        "--listen",
        "127.0.0.1:0",
    ]);

    // One batched round trip per daemon, all destinations in order;
    // the stdout streams must be byte-identical.
    let ask = |addr: &str| {
        let mut cmd = Command::new(BIN);
        cmd.args(["serve", "--connect", addr, "--user", "mel"]);
        for d in &dests {
            cmd.args(["--query", d]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{:?}", out);
        String::from_utf8(out.stdout).unwrap()
    };
    let via_full = ask(&full_addr);
    let via_cold = ask(&cold_addr);
    assert_eq!(via_full, via_cold, "cold-start answers differ");
    assert_eq!(via_full.lines().count(), dests.len());

    full.kill().unwrap();
    full.wait().unwrap();
    cold.kill().unwrap();
    cold.wait().unwrap();
    std::fs::remove_file(&map_path).unwrap();
    std::fs::remove_file(&pagf_path).unwrap();
}

#[test]
fn serve_refuses_corrupt_snapshot() {
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("pa-cli-bad-{}.pagf", std::process::id()));
    std::fs::write(&bad, "PAGF1\ngarbage").unwrap();
    let out = Command::new(BIN)
        .args([
            "serve",
            "--pagf",
            bad.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt snapshot"),
        "{:?}",
        out
    );
    std::fs::remove_file(bad).unwrap();
}

#[test]
fn freeze_reports_errors() {
    // A parse error in the input must fail the freeze, not write a
    // half-baked snapshot.
    let dir = std::env::temp_dir();
    let out_path = dir.join(format!("pa-cli-freeze-err-{}.pagf", std::process::id()));
    let (_, stderr, ok) = run_with_stdin(
        &["freeze", "-o", out_path.to_str().unwrap()],
        "host1 host2(((\n",
    );
    assert!(!ok);
    assert!(stderr.contains("pathalias:"), "{stderr}");
    assert!(!out_path.exists(), "no snapshot on failure");
}

#[test]
fn an_unreadable_input_is_named() {
    // The batch run and `freeze` read their inputs the same way, one
    // file at a time, parsing each before reading the next: they name
    // the file they could not read, and stop at the first bad file.
    let dir = std::env::temp_dir();
    let missing = dir.join(format!("pa-cli-nosuch-{}.map", std::process::id()));
    let bad = dir.join(format!("pa-cli-bad-{}.map", std::process::id()));
    let snapshot = dir.join(format!("pa-cli-nosuch-{}.pagf", std::process::id()));
    std::fs::write(&bad, "a $bad\n").unwrap();
    let (missing, bad, snapshot) = (
        missing.to_str().unwrap(),
        bad.to_str().unwrap(),
        snapshot.to_str().unwrap(),
    );
    let why = std::fs::read(missing).unwrap_err();
    for freeze in [&[][..], &["freeze", "-o", snapshot]] {
        let run = |files: &[&str]| {
            let out = Command::new(BIN).args(freeze).args(files).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{freeze:?} {files:?}");
            assert!(out.stdout.is_empty());
            String::from_utf8_lossy(&out.stderr).into_owned()
        };
        assert_eq!(run(&[missing]), format!("pathalias: {missing}: {why}\n"));
        let stderr = run(&[bad, missing]);
        assert!(
            stderr.starts_with(&format!("pathalias: parse error: {bad}:1:")),
            "{stderr}"
        );
        assert!(!stderr.contains(missing), "{stderr}");
    }
    assert!(!std::path::Path::new(snapshot).exists());
    std::fs::remove_file(bad).unwrap();
}

#[test]
fn only_the_first_failing_input_is_reported() {
    // The build reads the next file while it declares the last one,
    // yet reports errors in input order: the first input that fails
    // ends the run, and nothing after it is read or reported.
    let dir = std::env::temp_dir();
    let path = |tag: &str| dir.join(format!("pa-cli-order-{tag}-{}.map", std::process::id()));
    let (good, bad, missing) = (path("good"), path("bad"), path("missing"));
    let snapshot = path("snap");
    std::fs::write(&good, "a b(10)\n").unwrap();
    std::fs::write(&bad, "a b(10)\nq $\n").unwrap();
    let [good, bad, missing, snapshot] =
        [&good, &bad, &missing, &snapshot].map(|p| p.to_str().unwrap().to_string());
    let why = std::fs::read(&missing).unwrap_err();
    let parse_error = format!("pathalias: parse error: {bad}:2:3: unexpected character `$`\n");
    let read_error = format!("pathalias: {missing}: {why}\n");
    for (files, want) in [
        ([&bad, &missing], &parse_error),
        ([&missing, &bad], &read_error),
        ([&good, &missing], &read_error),
    ] {
        for cmd in [vec!["-l", "a"], vec!["freeze", "-o", &snapshot]] {
            let out = Command::new(BIN).args(&cmd).args(files).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{cmd:?} {files:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                *want,
                "{cmd:?} {files:?}"
            );
            assert!(out.stdout.is_empty());
        }
    }
    assert!(!std::path::Path::new(&snapshot).exists());
    let (stdout, stderr, ok) = run_with_stdin(&["-l", "a"], "a b(10)\nq $\n");
    assert!(!ok && stdout.is_empty());
    assert_eq!(
        stderr,
        "pathalias: parse error: <stdin>:2:3: unexpected character `$`\n"
    );
    std::fs::remove_file(good).unwrap();
    std::fs::remove_file(bad).unwrap();
}

#[test]
fn serve_map_set_end_to_end() {
    // A daemon serving three namespaces through `--map-set`, driven
    // entirely through the CLI client: `--maps`, `--map-name`
    // qualified queries/stats/reload, and the default-map contract.
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let west = dir.join(format!("pa-cli-ms-west-{tag}.routes"));
    let east = dir.join(format!("pa-cli-ms-east-{tag}.routes"));
    let pipe = dir.join(format!("pa-cli-ms-pipe-{tag}.map"));
    std::fs::write(&west, "h\twest-gw!h!%s\n").unwrap();
    std::fs::write(&east, "h\teast-gw!h!%s\n").unwrap();
    std::fs::write(
        &pipe,
        "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
         phs\tunc(400)\nresearch\tduke(200)\n",
    )
    .unwrap();

    let (mut daemon, addr) = spawn_daemon(&[
        "serve",
        "--map-set",
        &format!("west=routes:{}", west.display()),
        "--map-set",
        &format!("east=routes:{}", east.display()),
        "--map-set",
        &format!("pipe=map:{}", pipe.display()),
        "--default-map",
        "east",
        "-l",
        "unc",
        "--listen",
        "127.0.0.1:0",
    ]);

    let client = |args: &[&str]| -> (String, bool) {
        let mut cmd = Command::new(BIN);
        cmd.args(["serve", "--connect", &addr]);
        cmd.args(args);
        let out = cmd.output().unwrap();
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            out.status.success(),
        )
    };

    let (maps, ok) = client(&["--maps"]);
    assert!(ok);
    assert_eq!(maps, "west\neast (default)\npipe\n");

    let (route, ok) = client(&["--query", "h", "--user", "u"]);
    assert!(ok);
    assert_eq!(route, "east-gw!h!u\n", "unqualified hits the default map");

    let (route, ok) = client(&["--map-name", "west", "--query", "h", "--user", "u"]);
    assert!(ok);
    assert_eq!(route, "west-gw!h!u\n");

    let (route, ok) = client(&["--map-name", "pipe", "--query", "research", "--user", "u"]);
    assert!(ok);
    assert_eq!(route, "duke!research!u\n");

    let (stats, ok) = client(&["--map-name", "pipe", "--stats"]);
    assert!(ok);
    assert!(stats.starts_with("map=pipe queries="), "{stats}");

    let (reloaded, ok) = client(&["--map-name", "west", "--reload"]);
    assert!(ok);
    assert!(
        reloaded.starts_with("reloaded map=west generation=1"),
        "{reloaded}"
    );
    let (health, ok) = client(&["--map-name", "east", "--health"]);
    assert!(ok);
    assert!(health.contains("generation=0"), "east untouched: {health}");

    let (_, ok) = client(&["--map-name", "bogus", "--query", "h"]);
    assert!(!ok, "unknown map must fail the exit code");

    let (_, ok) = client(&["--shutdown"]);
    assert!(ok);
    let _ = daemon.wait();
    for f in [west, east, pipe] {
        std::fs::remove_file(f).unwrap();
    }
}

#[test]
fn serve_map_set_local_override() {
    // Two pipeline namespaces over the SAME map file, telling each a
    // different `:l=` local host: routes must differ accordingly, and
    // a member without the suffix falls back to the daemon-wide -l.
    let dir = std::env::temp_dir();
    let map = dir.join(format!("pa-cli-lo-{}.map", std::process::id()));
    std::fs::write(
        &map,
        "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
         phs\tunc(400)\nresearch\tduke(200)\n",
    )
    .unwrap();

    let (mut daemon, addr) = spawn_daemon(&[
        "serve",
        "--map-set",
        &format!("from-unc=map:{}:l=unc", map.display()),
        "--map-set",
        &format!("from-duke=map:{}:l=duke", map.display()),
        "--map-set",
        &format!("fallback=map:{}", map.display()),
        "-l",
        "phs",
        "--listen",
        "127.0.0.1:0",
    ]);

    let query = |map_name: &str| -> String {
        let out = Command::new(BIN)
            .args([
                "serve",
                "--connect",
                &addr,
                "--map-name",
                map_name,
                "--query",
                "research",
                "--user",
                "u",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{:?}", out);
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };

    assert_eq!(query("from-unc"), "duke!research!u");
    assert_eq!(query("from-duke"), "research!u");
    assert_eq!(
        query("fallback"),
        "unc!duke!research!u",
        "no l= suffix: the daemon-wide -l (phs) applies"
    );

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_file(map).unwrap();
}

#[cfg(unix)]
#[test]
fn serve_udp_endpoint_matches_tcp() {
    use std::io::BufRead as _;
    // One daemon, both transports; the same questions through
    // `--udp-connect` and `--connect` must print identical bytes.
    let dir = std::env::temp_dir();
    let routes = dir.join(format!("pa-cli-udp-{}.routes", std::process::id()));
    std::fs::write(&routes, "seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();

    let mut daemon = Command::new(BIN)
        .args([
            "serve",
            "--routes",
            routes.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--udp",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let stdout = daemon.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let tcp_addr = lines
        .next()
        .expect("tcp announce")
        .unwrap()
        .strip_prefix("pathalias-server listening on tcp ")
        .expect("tcp line first")
        .to_string();
    let udp_addr = lines
        .next()
        .expect("udp announce")
        .unwrap()
        .strip_prefix("pathalias-server listening on udp ")
        .expect("udp line second")
        .to_string();

    let ask = |transport: &str, addr: &str, rest: &[&str]| -> (String, bool) {
        let mut cmd = Command::new(BIN);
        cmd.args(["serve", transport, addr]);
        cmd.args(rest);
        let out = cmd.output().unwrap();
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            out.status.success(),
        )
    };
    for rest in [
        &["--query", "seismo", "--user", "rick"][..],
        &["--query", "caip.rutgers.edu"],
        &["--query", "a.edu", "--query", "b.edu", "--user", "mel"],
        &["--health"],
        &["--maps"],
    ] {
        let (tcp_out, tcp_ok) = ask("--connect", &tcp_addr, rest);
        let (udp_out, udp_ok) = ask("--udp-connect", &udp_addr, rest);
        assert!(tcp_ok && udp_ok, "{rest:?}");
        assert_eq!(tcp_out, udp_out, "transports diverge on {rest:?}");
    }
    // A miss fails the exit code identically on both transports.
    let (_, tcp_ok) = ask("--connect", &tcp_addr, &["--query", "nowhere"]);
    let (_, udp_ok) = ask("--udp-connect", &udp_addr, &["--query", "nowhere"]);
    assert!(!tcp_ok && !udp_ok);

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    std::fs::remove_file(routes).unwrap();
}
