//! `batch`: map files in, route file out, on `big`.
//!
//! The paper's own measure — how long pathalias takes to turn the map
//! into a route file — at a scale where it takes over a second, plus
//! what a daemon pays to come up from the same input. Parser, hash,
//! arena, graph, mapper and printer do all the work; server, router and
//! poll none: a mapper or parser change must show here, an event-loop
//! change must not.
//!
//! * op: one `pathalias -l <home> <20 files> > routes` child, spawn to
//!   exit; `op_per_s` is route-table entries produced per second.
//! * alt: `pathalias serve --map ...` spawn → first correct `QUERY`.
//! * setup: `pathalias freeze -o big.pagf` plus `serve --pagf big.pagf`
//!   spawn → first correct `QUERY` (the snapshot cold start: work moved
//!   from the daemon's start into `freeze` stays visible).

use super::{cold_start, map_args, Ctx, Outcome};
use crate::child::run_to_file;
use crate::layers;
use crate::trace::Tracer;
use crate::wire::Exchange;
use crate::world::{lookup_script, pipeline, Scale, World};
use pathalias_core::Pathalias;
use std::time::Instant;

/// Set-up repetitions (the median is reported).
const SETUP_REPEATS: usize = 3;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.tracer {
        None => end_to_end(ctx),
        Some(tracer) => traced(ctx, tracer),
    }
}

/// `pathalias freeze -o big.pagf <files>`, then `serve --pagf big.pagf`
/// to its first correct answer to `probe`. Returns (freeze seconds,
/// cold-start seconds).
fn snapshot_cold_start(
    ctx: &Ctx,
    world: &World,
    files: &[String],
    probe: &Exchange,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let pagf = ctx.dir.join("big.pagf").to_string_lossy().into_owned();
    let err = ctx.dir.join("batch.err");
    let freeze_args = [
        &["freeze".to_string(), "-o".to_string(), pagf.clone()],
        files,
    ]
    .concat();
    let frozen = run_to_file(ctx.bin, &freeze_args, &ctx.dir.join("freeze.out"), &err)?;
    out.tally.record(frozen.ok);
    let serve_args = [&["--pagf".to_string(), pagf][..], &world.local_args()].concat();
    let start = cold_start(ctx.bin, &serve_args, &err, probe, false)?;
    out.tally.record(start.ok);
    Ok((frozen.wall_s, start.secs))
}

fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = World::build(Scale::Big, ctx.seed, None)?;
    let files = world.write_files(ctx.dir)?;
    let probe = lookup_script(&world.oracle.db, ctx.seed, 64)
        .singles
        .swap_remove(0);
    let err = ctx.dir.join("batch.err");
    let entries = world.oracle.db.len() as f64;

    // Set-up: freeze the map, then cold-start a daemon from the
    // snapshot.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (freeze_s, start_s) = snapshot_cold_start(ctx, &world, &files, &probe, &mut out)?;
        setup.push(freeze_s + start_s);
    }

    // The measured window: rounds of two batch runs and one cold start
    // from the map files, until the time is used.
    let batch_args = [&world.local_args()[..], &files].concat();
    let serve_args = map_args(&files, &world.home);
    let routes = ctx.dir.join("routes");
    let (mut walls, mut peaks, mut colds) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds || colds.is_empty() {
        for _ in 0..2 {
            let fin = run_to_file(ctx.bin, &batch_args, &routes, &err)?;
            // Every run must reproduce the in-process route file byte
            // for byte (which also makes the runs identical to each
            // other).
            let same =
                std::fs::read(&routes).map(|got| got == world.oracle.printed.rendered.as_bytes());
            out.tally.record(fin.ok && same.unwrap_or(false));
            walls.push(fin.wall_s);
            peaks.push(fin.peak_rss_mb);
        }
        let start = cold_start(ctx.bin, &serve_args, &err, &probe, false)?;
        out.tally.record(start.ok);
        colds.push(start.secs);
    }

    let us = |s: &[f64]| s.iter().map(|v| v * 1e6).collect::<Vec<f64>>();
    let m = &mut out.metrics;
    m.put("setup_s", &setup);
    m.put("rss_mb", &peaks);
    m.put("op_p50_us", &us(&walls));
    m.put(
        "op_per_s",
        &walls.iter().map(|w| entries / w).collect::<Vec<f64>>(),
    );
    m.put("alt_p50_us", &us(&colds));
    out.notes.push(format!(
        "{} batch runs, {} serve --map cold starts, {} names, {:.1} MB of map text",
        walls.len(),
        colds.len(),
        entries,
        world.bytes() as f64 / 1e6
    ));
    Ok(out)
}

/// The traced run: the pipeline stages in-process, each pass a tree of
/// spans, against an untraced `Pathalias::run` over the same texts.
fn traced(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.open("pabench.batch", None, 0);
    let (world, script, mut m) =
        layers::traced_world(Scale::Big, ctx.seed, 32 * 1024, ctx.dir, tracer, root)?;

    // Further traced passes against untraced reference runs, until the
    // window is used: the stage spans of a pass must add up to what the
    // untraced driver takes for the same work.
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds || traced_s.is_empty() {
        let pass = tracer.open("pabench.batch_pass", Some(root), 0);
        let p = pipeline(&world.files, &world.options, Some((tracer, pass)))?;
        tracer.close(pass);
        out.tally
            .record(p.printed.rendered == world.oracle.printed.rendered);
        traced_s.push(p.times.build_s + p.times.freeze_s + p.times.map_s + p.times.print_s);

        let t0 = Instant::now();
        let mut pa = Pathalias::with_options(world.options.clone());
        for (name, text) in &world.files {
            pa.parse_str(name, text)
                .map_err(|e| format!("reference parse: {e}"))?;
        }
        let reference = pa.run().map_err(|e| format!("reference run: {e}"))?;
        plain_s.push(t0.elapsed().as_secs_f64());
        out.tally
            .record(reference.rendered == world.oracle.printed.rendered);
    }
    tracer.close(root);
    let (traced_med, plain_med) = (
        crate::stats::median(&traced_s),
        crate::stats::median(&plain_s),
    );
    m.put1(
        "pabench.trace_overhead_pct",
        100.0 * (traced_med - plain_med) / plain_med,
    );
    out.notes.push(format!(
        "stage spans sum to {traced_med:.4} s per pass against {plain_med:.4} s for an untraced Pathalias::run ({} passes)",
        traced_s.len()
    ));

    // One snapshot cold start, so the figure folded into `setup_s` has
    // its own line.
    let files = world.write_files(ctx.dir)?;
    let span = tracer.open("server.cold_start_pagf", None, 0);
    let (_, start_s) = snapshot_cold_start(ctx, &world, &files, &script.singles[0], &mut out)?;
    tracer.close(span);
    m.put1("server.cold_start_pagf_s", start_s);

    out.metrics = m;
    Ok(out)
}
