//! `path`: `PATH src dst` on `paper`.
//!
//! Point-to-point routes over the frozen graph at the paper's 1986
//! scale, against two daemons in turn: `serve --map` (the bidirectional
//! tier) and `serve --pagf paper-ch.pagf` frozen with `--ch` (the
//! contraction-hierarchy tier). The map is fixed; the seed draws the
//! pair script: half the requests from 96 hot sources in bursts of
//! eight (the source locality a source-tree cache would exploit), a
//! quarter from the home hub (which must equal `QUERY dst`) and a
//! quarter uniform pairs, all routable.
//! The search takes several times what the socket does, so router and
//! graph changes show here and nowhere else.
//!
//! * op: `PATH` on the `--map` daemon, closed loop, one in flight
//!   (`op_p50_us`); `op_per_s` is the closed loop with
//!   [`PIPELINE_DEPTH`] lines per write, which takes the socket wait
//!   out and leaves the search.
//! * alt: `PATH` on the hierarchy daemon, one in flight.
//! * setup: `freeze --ch`, then both daemons spawn → first correct
//!   `PATH` (the hierarchy daemon's share is the traced run's
//!   `server.cold_start_ch_s`).

use super::{cold_start, map_args, slice_seconds, ColdStart, Ctx, Outcome, ROUNDS};
use crate::child::run_to_file;
use crate::layers;
use crate::stats::{latency_us, median};
use crate::trace::{Tracer, MAX_REQUEST_SPANS};
use crate::wire::{burst_loop, pipelined, rtt_loop, Conn, Exchange, Phase, Until};
use crate::world::{expect_path, path_script, PathClass, PathScript, Scale, World};
use pathalias_router::PointToPoint;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Pairs in the script; the phases cycle through it.
const SCRIPT_LEN: usize = 3072;
/// `PATH` lines per write in the pipelined phase.
pub const PIPELINE_DEPTH: usize = 8;
/// Set-up repetitions: each builds the hierarchy twice (once in
/// `freeze --ch`, once more when the daemon starts), seconds each time.
const SETUP_REPEATS: usize = 2;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.tracer {
        None => end_to_end(ctx),
        Some(tracer) => traced(ctx, tracer),
    }
}

fn connect_v2(addr: SocketAddr) -> Result<Conn, String> {
    let mut conn = Conn::tcp(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    conn.upgrade()?;
    Ok(conn)
}

/// The timed phases against a bidirectional-tier daemon and a
/// hierarchy-tier daemon, [`ROUNDS`] interleaved rounds each. Returns
/// the round values of (rtt p50, pipelined rate, hierarchy rtt p50).
pub(crate) fn timed_phases(
    map_addr: SocketAddr,
    ch_addr: SocketAddr,
    script: &PathScript,
    slice: Until,
    out: &mut Outcome,
) -> Result<[Vec<f64>; 3], String> {
    let bursts = pipelined(&script.requests, PIPELINE_DEPTH);
    let (mut map_conn, mut ch_conn) = (connect_v2(map_addr)?, connect_v2(ch_addr)?);
    let (mut p50, mut rate, mut ch_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c1, mut c2, mut c3) = (0, 0, 0);
    for _ in 0..ROUNDS {
        let mut phase = rtt_loop(&mut map_conn, &script.requests, &mut c1, slice);
        out.absorb(&phase);
        p50.push(latency_us(&mut phase.latencies_ns).0);

        let phase = burst_loop(&mut map_conn, &bursts, &mut c2, slice);
        out.absorb(&phase);
        rate.push(phase.rate());

        let mut phase = rtt_loop(&mut ch_conn, &script.requests, &mut c3, slice);
        out.absorb(&phase);
        ch_p50.push(latency_us(&mut phase.latencies_ns).0);
        if !out.broken.is_empty() {
            return Err(out.broken.join("; "));
        }
    }
    Ok([p50, rate, ch_p50])
}

/// The files and arguments of the two daemons.
struct Daemons {
    map_args: Vec<String>,
    freeze_args: Vec<String>,
    ch_args: Vec<String>,
    err: PathBuf,
}

impl Daemons {
    fn new(ctx: &Ctx, world: &World) -> Result<Daemons, String> {
        let files = world.write_files(ctx.dir)?;
        let pagf = ctx.dir.join("paper-ch.pagf").to_string_lossy().into_owned();
        let mut freeze_args = vec![
            "freeze".to_string(),
            "--ch".to_string(),
            "-o".to_string(),
            pagf.clone(),
        ];
        freeze_args.extend(files.iter().cloned());
        Ok(Daemons {
            map_args: map_args(&files, &world.home),
            freeze_args,
            ch_args: [
                vec!["--pagf".to_string(), pagf],
                world.local_args().to_vec(),
            ]
            .concat(),
            err: ctx.dir.join("daemon.err"),
        })
    }

    /// `freeze --ch`, then the hierarchy daemon to its first `PATH`.
    /// Returns the daemon and (freeze seconds, cold-start seconds).
    fn start_ch(
        &self,
        ctx: &Ctx,
        probe: &Exchange,
        out: &mut Outcome,
    ) -> Result<(ColdStart, f64), String> {
        let frozen = run_to_file(
            ctx.bin,
            &self.freeze_args,
            &ctx.dir.join("freeze.out"),
            &self.err,
        )?;
        out.tally.record(frozen.ok);
        let start = cold_start(ctx.bin, &self.ch_args, &self.err, probe, true)?;
        out.tally.record(start.ok);
        Ok((start, frozen.wall_s))
    }

    fn start_map(
        &self,
        ctx: &Ctx,
        probe: &Exchange,
        out: &mut Outcome,
    ) -> Result<ColdStart, String> {
        let start = cold_start(ctx.bin, &self.map_args, &self.err, probe, true)?;
        out.tally.record(start.ok);
        Ok(start)
    }
}

fn checked_script(world: &World, seed: u64, out: &mut Outcome) -> Result<PathScript, String> {
    let script = path_script(world, seed, SCRIPT_LEN)?;
    for _ in 0..script.home_mismatches {
        out.tally.record(false);
    }
    if script.home_mismatches > 0 {
        out.broken.push(format!(
            "{} home-source PATH routes differ from the printed table",
            script.home_mismatches
        ));
    }
    Ok(script)
}

fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = World::build(Scale::Paper, ctx.seed, None)?;
    let script = checked_script(&world, ctx.seed, &mut out)?;
    let daemons = Daemons::new(ctx, &world)?;
    let probe = &script.requests[0];

    let mut setup = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        drop(running.take());
        let (ch, freeze_s) = daemons.start_ch(ctx, probe, &mut out)?;
        let map = daemons.start_map(ctx, probe, &mut out)?;
        setup.push(freeze_s + ch.secs + map.secs);
        running = Some((map.daemon, ch.daemon));
    }
    let (mut map_daemon, mut ch_daemon) = running.expect("at least one set-up");

    let slice = Until::Elapsed(slice_seconds(ctx.seconds, 3));
    let [p50, rate, ch_p50] =
        timed_phases(map_daemon.tcp, ch_daemon.tcp, &script, slice, &mut out)?;
    if !map_daemon.is_alive() || !ch_daemon.is_alive() {
        out.broken.push("a daemon died during the run".to_string());
    }

    let m = &mut out.metrics;
    m.put("setup_s", &setup);
    let rss = |d: &crate::child::Daemon| d.peak_rss_mb().unwrap_or(0.0);
    m.put1("rss_mb", rss(&map_daemon).max(rss(&ch_daemon)));
    m.put("op_p50_us", &p50);
    m.put("op_per_s", &rate);
    m.put("alt_p50_us", &ch_p50);
    Ok(out)
}

/// One tier's in-process figures.
struct Tier {
    /// Mean microseconds per search.
    us: f64,
    /// Mean of the count `search` returns (nodes settled).
    mean_count: f64,
    /// Searches run: whole passes of the script, so ratios over them
    /// repeat exactly.
    searches: u64,
    /// Searches that failed or disagreed with the scripted answer.
    failed: u64,
}

/// Runs `search` over whole passes of the pair script until `seconds`
/// have gone by (at least one pass), with a span around each of the
/// first thousand.
fn search_tier(
    script: &PathScript,
    seconds: f64,
    tracer: &Tracer,
    name: &'static str,
    mut search: impl FnMut(usize) -> Option<u64>,
) -> Tier {
    let (mut n, mut counted, mut failed) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        for i in 0..script.pairs.len() {
            let hit = if n < MAX_REQUEST_SPANS / 4 {
                tracer.time(name, None, n + 1, || search(i))
            } else {
                search(i)
            };
            match hit {
                Some(c) => counted += c,
                None => failed += 1,
            }
            n += 1;
        }
    }
    Tier {
        us: start.elapsed().as_secs_f64() * 1e6 / n as f64,
        mean_count: counted as f64 / n as f64,
        searches: n,
        failed,
    }
}

fn traced(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.open("pabench.path", None, 0);
    let (world, _, mut m) =
        layers::traced_world(Scale::Paper, ctx.seed, 8 * 1024, ctx.dir, tracer, root)?;
    let script = checked_script(&world, ctx.seed, &mut out)?;

    // The hierarchy, built in-process the way `freeze --ch` and the
    // daemon build it.
    let graph = world.engine.graph().clone();
    let t0 = Instant::now();
    let ch_engine = tracer.time("graph.ch_build", Some(root), 0, || {
        PointToPoint::with_fresh_hierarchy(graph, world.options.cost_model)
    });
    m.put1("graph.ch_build_s", t0.elapsed().as_secs_f64());
    let shortcuts = ch_engine
        .hierarchy()
        .map(|ch| ch.shortcut_count())
        .unwrap_or(0);
    m.put1("graph.ch_shortcuts", shortcuts as f64);
    tracer.close(root);

    // The three tiers in-process over the same pairs. Every tier must
    // give the scripted answer's route.
    let agrees =
        |i: usize, a: &pathalias_router::PathAnswer| expect_path(a) == script.requests[i].expect;
    let per_tier = ctx.seconds / 6.0;
    let mut fell_back = 0u64;
    let bidir = search_tier(&script, per_tier, tracer, "router.bidir", |i| {
        let (s, d) = script.pairs[i];
        let (a, stats) = world.engine.route_ids_with_stats(s, d).ok()?;
        fell_back += stats.fell_back as u64;
        agrees(i, &a).then_some(stats.settled + stats.backward_settled)
    });
    let (mut certified, mut tried) = (0u64, 0u64);
    let ch = search_tier(&script, per_tier, tracer, "router.ch", |i| {
        let (s, d) = script.pairs[i];
        let (a, stats) = ch_engine.route_ids_with_stats(s, d).ok()?;
        tried += stats.tried_ch as u64;
        certified += stats.ch_certified as u64;
        agrees(i, &a).then_some(stats.settled + stats.backward_settled)
    });
    let forward = search_tier(&script, per_tier, tracer, "router.forward", |i| {
        let (s, d) = script.pairs[i];
        let a = world.engine.route_ids_unidirectional(s, d).ok()?;
        agrees(i, &a).then_some(0)
    });
    let bad = bidir.failed + ch.failed + forward.failed;
    for _ in 0..bad {
        out.tally.record(false);
    }
    if bad > 0 {
        out.broken.push(format!(
            "in-process tiers disagree with the scripted answers: {} bidirectional, {} hierarchy, {} forward",
            bidir.failed, ch.failed, forward.failed
        ));
    }
    m.put1("router.bidir_us", bidir.us);
    m.put1("router.bidir_settled", bidir.mean_count);
    m.put1("router.ch_us", ch.us);
    m.put1("router.ch_settled", ch.mean_count);
    m.put1("router.forward_us", forward.us);
    m.put1(
        "router.fallback_ratio",
        fell_back as f64 / bidir.searches as f64,
    );
    m.put1(
        "router.ch_certified_ratio",
        if tried > 0 {
            certified as f64 / tried as f64
        } else {
            0.0
        },
    );
    drop(ch_engine);

    // Over the socket, by class, on the bidirectional-tier daemon; and
    // one hierarchy daemon cold start.
    let daemons = Daemons::new(ctx, &world)?;
    let probe = &script.requests[0];
    let map = daemons.start_map(ctx, probe, &mut out)?;
    let mut conn = connect_v2(map.daemon.tcp)?;
    let mut cursor = 0;
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut by_class: [Vec<u64>; 3] = Default::default();
    while cursor == 0 || start.elapsed().as_secs_f64() < ctx.seconds / 4.0 {
        // Whole passes, so every class is sampled in script proportion.
        for (i, x) in script.requests.iter().enumerate() {
            let span = (cursor as u64) < MAX_REQUEST_SPANS / 4;
            let id = span.then(|| tracer.open("poll.round_trip", None, cursor as u64 + 1));
            let t0 = Instant::now();
            let got = conn
                .roundtrip(&x.request)
                .map(|got| got == x.expect.as_slice());
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(id) = id {
                tracer.close(id);
            }
            cursor += 1;
            match got {
                Ok(ok) => {
                    phase.tally.record(ok);
                    let class = match script.classes[i] {
                        PathClass::Hot => 0,
                        PathClass::Home => 1,
                        PathClass::Uniform => 2,
                    };
                    by_class[class].push(if ok { ns } else { crate::stats::FAILED_NS });
                }
                Err(e) => return Err(format!("PATH over the socket: {e}")),
            }
        }
    }
    out.absorb(&phase);
    let mut all: Vec<u64> = by_class.iter().flatten().copied().collect();
    m.put1("router.path_p99_us", latency_us(&mut all).1);
    let [hot, home, uniform] = &mut by_class;
    m.put1("router.path_hot_p50_us", latency_us(hot).0);
    m.put1("router.path_home_p50_us", latency_us(home).0);
    m.put1("router.path_rand_p50_us", latency_us(uniform).0);
    drop(conn);
    drop(map);

    let span = tracer.open("server.cold_start_ch", None, 0);
    let (ch, _) = daemons.start_ch(ctx, probe, &mut out)?;
    tracer.close(span);
    m.put1("server.cold_start_ch_s", ch.secs);
    out.notes.push(format!(
        "PATH p50 over the socket {:.0} us against {:.0} us for the bidirectional search in-process",
        median(&[latency_us(hot).0, latency_us(home).0, latency_us(uniform).0]),
        bidir.us
    ));
    out.metrics = m;
    Ok(out)
}
