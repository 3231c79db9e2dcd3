//! `lookup`: `QUERY` serving on `big`.
//!
//! A 130k-entry table against the daemon's default 4,096-entry LRU, so
//! domain-suffix lookups overflow the cache while exact hits take the
//! lock-free path. Server, poll and mailer do the work; mapper and
//! router none. The request script (70% exact hosts with cubic-skewed
//! popularity, 20% suffix-only names, 10% misses) runs on one TCP
//! connection against `serve --map ... --workers 1`:
//!
//! * op: `QUERY`, closed loop, one in flight (`op_p50_us`); `op_per_s`
//!   is the closed loop with [`PIPELINE_DEPTH`] `QUERY` lines per
//!   write.
//! * alt: one v2 `MQUERY` line of [`BATCH`] hosts, one in flight;
//!   batched queries per second are `64e6 / alt_p50_us`.
//! * setup: `serve --map` spawn → first correct `QUERY`.

use super::{cold_starts, map_args, slice_seconds, Ctx, Outcome, ROUNDS};
use crate::layers;
use crate::stats::{latency_us, median};
use crate::trace::{Tracer, MAX_REQUEST_SPANS};
use crate::wire::{
    burst_loop, closed_loop, open_loop, prom_value, rtt_loop, Conn, Datagrams, Until,
};
use crate::world::{lookup_script, LookupScript, Scale, World, USER};
use pathalias_mailer::{ResolveError, Resolver, SharedRouteDb};
use pathalias_server::{
    parse_request, Cached, Metrics as ServerCounters, ProtoVersion, Request, Response,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the script; the phases cycle through it.
const SCRIPT_LEN: usize = 32 * 1024;
const SETUP_REPEATS: usize = 3;
/// Arrival rate of the open-loop phase, requests per second.
const OPEN_LOOP_RATE: f64 = 20_000.0;
/// Round trips before the cache counters are scraped: a count, not a
/// duration, so the hit ratio repeats exactly for a seed.
const RATIO_REQUESTS: usize = 20_000;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.tracer {
        None => end_to_end(ctx),
        Some(tracer) => traced(ctx, tracer),
    }
}

/// The three timed phases over one connection to a daemon at `addr`,
/// [`ROUNDS`] interleaved rounds each. Returns the round values of
/// (rtt p50, pipelined rate, `MQUERY` line p50).
pub(crate) fn timed_phases(
    addr: SocketAddr,
    script: &LookupScript,
    slice: Until,
    out: &mut Outcome,
) -> Result<[Vec<f64>; 3], String> {
    let mut conn = Conn::tcp(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    conn.upgrade()?;
    let (mut p50, mut rate, mut line) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c1, mut c2, mut c3) = (0, 0, 0);
    for _ in 0..ROUNDS {
        let mut phase = rtt_loop(&mut conn, &script.singles, &mut c1, slice);
        out.absorb(&phase);
        p50.push(latency_us(&mut phase.latencies_ns).0);

        let phase = burst_loop(&mut conn, &script.pipelined, &mut c2, slice);
        out.absorb(&phase);
        rate.push(phase.rate());

        let mut phase = burst_loop(&mut conn, &script.batched, &mut c3, slice);
        out.absorb(&phase);
        line.push(latency_us(&mut phase.latencies_ns).0);
        if !out.broken.is_empty() {
            return Err(out.broken.join("; "));
        }
    }
    Ok([p50, rate, line])
}

fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = World::build(Scale::Big, ctx.seed, None)?;
    let files = world.write_files(ctx.dir)?;
    let script = lookup_script(&world.oracle.db, ctx.seed, SCRIPT_LEN);
    let args = map_args(&files, &world.home);
    let (mut daemon, setup) = cold_starts(ctx, &args, &script.singles[0], SETUP_REPEATS, &mut out)?;

    let slice = Until::Elapsed(slice_seconds(ctx.seconds, 3));
    let [p50, rate, line] = timed_phases(daemon.tcp, &script, slice, &mut out)?;
    if !daemon.is_alive() {
        out.broken
            .push("the daemon died during the run".to_string());
    }

    let m = &mut out.metrics;
    m.put("setup_s", &setup);
    m.put1("rss_mb", daemon.peak_rss_mb().unwrap_or(0.0));
    m.put("op_p50_us", &p50);
    m.put("op_per_s", &rate);
    m.put("alt_p50_us", &line);
    out.notes.push(format!(
        "MQUERY/{} answers {:.0} queries per second",
        crate::world::BATCH,
        crate::world::BATCH as f64 * 1e6 / median(&line)
    ));
    Ok(out)
}

/// What the daemon does for one `QUERY` between reading the line and
/// writing the answer, replayed in-process with a span per step: parse,
/// resolve through the cache, render. Returns mean nanoseconds per
/// request.
fn replay(world: &World, script: &LookupScript, tracer: &Tracer, parent: u32) -> f64 {
    let shared = SharedRouteDb::new(pathalias_mailer::RouteDb::from_table(
        &world.oracle.printed.routes,
    ));
    let cached = Cached::new(shared, 4096, 8, Arc::new(ServerCounters::default()));
    let n = script.singles.len();
    let t0 = Instant::now();
    for (i, x) in script.singles.iter().enumerate() {
        let line = std::str::from_utf8(&x.request)
            .expect("scripted lines are ASCII")
            .trim_end();
        // Spans for a sample of requests; the rest run bare so the
        // mean is not the tracer's cost.
        let spans = (i as u64) < MAX_REQUEST_SPANS / 4;
        let id = i as u64 + 1;
        let req = if spans {
            tracer.time("server.parse_request", Some(parent), id, || {
                parse_request(line, ProtoVersion::V1)
            })
        } else {
            parse_request(line, ProtoVersion::V1)
        };
        let Ok(Request::Query { host, user, .. }) = req else {
            continue;
        };
        let user = user.as_deref().unwrap_or(USER);
        let resolved = if spans {
            tracer.time("mailer.resolve", Some(parent), id, || {
                cached.resolve(&host, user)
            })
        } else {
            cached.resolve(&host, user)
        };
        let render = || {
            match resolved {
                Ok(r) => Response::Route(r.route),
                Err(ResolveError::NoRoute) => Response::NoRoute(host.clone()),
                Err(e) => Response::Failure(e.to_string()),
            }
            .to_string()
        };
        let rendered = if spans {
            tracer.time("server.render", Some(parent), id, render)
        } else {
            render()
        };
        std::hint::black_box(rendered);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn traced(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.open("pabench.lookup", None, 0);
    let (world, script, mut m) =
        layers::traced_world(Scale::Big, ctx.seed, SCRIPT_LEN, ctx.dir, tracer, root)?;
    let files = world.write_files(ctx.dir)?;
    let inproc_ns = replay(&world, &script, tracer, root);
    tracer.close(root);

    // The daemon from outside, on every transport it offers.
    let mut args = map_args(&files, &world.home);
    args.extend(["--udp".to_string(), "127.0.0.1:0".to_string()]);
    // A socket address holds about a hundred bytes of path. The child
    // inherits this process's directory, so a path relative to it
    // serves both; if even that is too long the transport is skipped.
    let sock = ctx.dir.join("lookup.sock");
    let sock = std::env::current_dir()
        .ok()
        .and_then(|cwd| sock.strip_prefix(cwd).ok().map(std::path::PathBuf::from))
        .unwrap_or(sock);
    let unix = sock.as_os_str().len() < 100;
    if unix {
        args.extend(["--unix".to_string(), sock.to_string_lossy().into_owned()]);
    } else {
        out.notes.push(format!(
            "unix transport skipped: `{}` does not fit a socket address",
            sock.display()
        ));
    }
    let (daemon, _) = cold_starts(ctx, &args, &script.singles[0], 1, &mut out)?;
    let cpu = || daemon.cpu_us().unwrap_or(0) as f64;
    let slice = Until::Elapsed(ctx.seconds / 5.0);
    let mut conn = Conn::tcp(daemon.tcp).map_err(|e| format!("connecting: {e}"))?;
    conn.upgrade()?;

    // A fixed number of round trips, then the cache counters.
    let mut cursor = 0;
    let cpu0 = cpu();
    let mut phase = rtt_loop(
        &mut conn,
        &script.singles,
        &mut cursor,
        Until::Count(RATIO_REQUESTS),
    );
    let rtt_cpu = (cpu() - cpu0) / phase.tally.attempted as f64;
    out.absorb(&phase);
    let scrape = conn.metrics()?;
    let hits = prom_value(&scrape, "pathalias_cache_hits_total", None).unwrap_or(0.0);
    let misses = prom_value(&scrape, "pathalias_cache_misses_total", None).unwrap_or(0.0);
    m.put1(
        "server.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.put1("server.cpu_us_per_query", rtt_cpu);
    let (rtt_p50, rtt_p99) = latency_us(&mut phase.latencies_ns);
    m.put1("server.rtt_p99_us", rtt_p99);
    m.put1("server.wire_us", rtt_p50 - inproc_ns / 1e3);
    out.notes.push(format!(
        "QUERY round trip p50 {rtt_p50:.1} us = {:.2} us in-process (parse + cached resolve + render) + {:.1} us wire",
        inproc_ns / 1e3,
        rtt_p50 - inproc_ns / 1e3
    ));

    // Spans around socket requests: a sample, one per request.
    for i in 0..MAX_REQUEST_SPANS / 4 {
        let x = &script.singles[(cursor + i as usize) % script.singles.len()];
        let id = tracer.open("poll.round_trip", None, i + 1);
        let ok = conn
            .roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice());
        tracer.close(id);
        match ok {
            Ok(ok) => out.tally.record(ok),
            Err(e) => return Err(format!("traced round trip: {e}")),
        }
    }

    let mut c = 0;
    let cpu0 = cpu();
    let phase = burst_loop(&mut conn, &script.batched, &mut c, slice);
    m.put1(
        "server.cpu_us_per_batched_query",
        (cpu() - cpu0) / phase.tally.attempted.max(1) as f64,
    );
    out.absorb(&phase);

    #[cfg(unix)]
    if unix {
        let mut unix =
            Conn::unix(&sock).map_err(|e| format!("connecting to the unix socket: {e}"))?;
        let mut phase = rtt_loop(&mut unix, &script.singles, &mut cursor, slice);
        out.absorb(&phase);
        m.put1(
            "server.rtt_unix_p50_us",
            latency_us(&mut phase.latencies_ns).0,
        );
    }
    let mut udp = Datagrams::connect(daemon.udp.ok_or("daemon announced no udp address")?)
        .map_err(|e| format!("binding a udp socket: {e}"))?;
    let mut phase = closed_loop(&script.singles, &mut cursor, slice, |x| {
        udp.roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice())
    });
    out.absorb(&phase);
    m.put1(
        "server.rtt_udp_p50_us",
        latency_us(&mut phase.latencies_ns).0,
    );

    // Open loop at a fixed arrival rate, latency from the due time.
    let stream = Conn::tcp(daemon.tcp)
        .map_err(|e| format!("connecting: {e}"))?
        .into_tcp()
        .expect("a tcp connection");
    let (mut phase, late_max) = open_loop(
        stream,
        &script.singles,
        &mut cursor,
        OPEN_LOOP_RATE,
        ctx.seconds / 5.0,
    );
    out.absorb(&phase);
    let (p50, p99) = latency_us(&mut phase.latencies_ns);
    m.put1("server.open20k_p50_us", p50);
    m.put1("server.open20k_p99_us", p99);
    m.put1("loadgen.late_max_us", late_max as f64 / 1e3);

    out.metrics = m;
    Ok(out)
}
