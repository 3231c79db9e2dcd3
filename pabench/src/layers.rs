//! Per-layer measurements every traced run takes: the pipeline stages
//! and the request path, timed in-process by calling each crate's
//! public functions on the workload's own world.

use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::world::{lookup_script, LookupClass, LookupScript, Scale, World, USER};
use pathalias_core::Frozen;
use pathalias_mailer::disk::{write_db, MappedDb};
use pathalias_mailer::{Resolver, SharedRouteDb};
use pathalias_server::{parse_request, Cached, Metrics as ServerCounters, ProtoVersion};
use pathalias_telemetry::Histogram;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The daemon's default lookup-cache size and shard count.
const CACHE_CAPACITY: usize = 4096;
const CACHE_SHARDS: usize = 8;

/// What every traced run starts from: the workload's world, built with
/// a span per pipeline stage under `root`; a lookup script over its
/// table; and the pipeline and request-path metrics measured on them.
pub fn traced_world(
    scale: Scale,
    seed: u64,
    script_len: usize,
    dir: &Path,
    tracer: &Tracer,
    root: u32,
) -> Result<(World, LookupScript, Metrics), String> {
    let world = World::build(scale, seed, Some((tracer, root)))?;
    let script = lookup_script(&world.oracle.db, seed, script_len);
    let mut m = pipeline_layers(&world, dir, tracer, root)?;
    m.extend(request_path_layers(&world, &script, dir, tracer, root)?);
    Ok((world, script, m))
}

/// The stage timings and counts of the world's oracle pipeline, plus
/// the two stages the oracle does not need: the parser alone
/// (`parse_files`) and the snapshot round trip.
fn pipeline_layers(
    world: &World,
    dir: &Path,
    tracer: &Tracer,
    parent: u32,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let inputs: Vec<(&str, &str)> = world
        .files
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let t0 = Instant::now();
    let graph = tracer.time("parser.parse", Some(parent), 0, || {
        pathalias_parser::parse_files(&inputs)
    });
    let parse_s = t0.elapsed().as_secs_f64();
    drop(graph.map_err(|e| format!("parse_files: {e}"))?);
    m.put1("parser.parse_s", parse_s);
    m.put1("parser.mb_per_s", world.bytes() as f64 / 1e6 / parse_s);

    let t = world.oracle.times;
    m.put1("core.parse_build_s", t.build_s);
    m.put1("graph.freeze_s", t.freeze_s);
    m.put1("mapper.map_s", t.map_s);
    m.put1("printer.print_s", t.print_s);
    m.put1("mailer.routedb_build_s", t.routedb_s);
    m.put1("router.engine_build_s", t.engine_s);

    let path = dir.join(format!("{}-layers.pagf", world.scale.label()));
    let t0 = Instant::now();
    tracer
        .time("graph.snapshot_write", Some(parent), 0, || {
            world.oracle.frozen.write_snapshot(&path)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    m.put1("graph.snapshot_write_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let loaded = tracer
        .time("graph.snapshot_load", Some(parent), 0, || {
            Frozen::from_snapshot(&path)
        })
        .map_err(|e| format!("loading {}: {e}", path.display()))?;
    m.put1("graph.snapshot_load_s", t0.elapsed().as_secs_f64());
    if loaded.graph().as_ref() != world.oracle.frozen.graph().as_ref() {
        return Err("a snapshot round trip changed the frozen graph".to_string());
    }
    let bytes = std::fs::metadata(&path).map(|md| md.len()).unwrap_or(0);
    m.put1("graph.snapshot_bytes", bytes as f64);
    let _ = std::fs::remove_file(&path);

    let stats = world.oracle.mapped.tree.stats;
    m.put1("mapper.relaxations", stats.relaxations as f64);
    m.put1("mapper.pops", stats.pops as f64);
    m.put1("mapper.stale_pops", stats.stale_pops as f64);
    m.put1("mapper.invented_links", stats.invented_links as f64);
    m.put1(
        "printer.routes",
        world.oracle.printed.routes.entries.len() as f64,
    );
    m.put1(
        "printer.render_bytes",
        world.oracle.printed.rendered.len() as f64,
    );
    Ok(m)
}

/// Mean nanoseconds per call of `op` over `items`, cycled until at
/// least `MIN_OPS` calls and `MIN_SECONDS` have gone by.
fn ns_per_op<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    const MIN_OPS: usize = 20_000;
    const MIN_SECONDS: f64 = 0.08;
    assert!(!items.is_empty(), "nothing to time");
    let start = Instant::now();
    let mut ops = 0usize;
    loop {
        for item in items {
            op(black_box(item));
        }
        ops += items.len();
        if ops >= MIN_OPS && start.elapsed().as_secs_f64() >= MIN_SECONDS {
            return start.elapsed().as_nanos() as f64 / ops as f64;
        }
    }
}

/// The request path without a socket: parse, resolve (each class, and
/// through the cache warm and thrashing), and the telemetry record.
fn request_path_layers(
    world: &World,
    script: &LookupScript,
    dir: &Path,
    tracer: &Tracer,
    parent: u32,
) -> Result<Metrics, String> {
    let span = tracer.open("pabench.request_path", Some(parent), 0);
    let mut m = Metrics::default();
    let lines: Vec<&str> = script
        .singles
        .iter()
        .take(4096)
        .map(|x| {
            std::str::from_utf8(&x.request)
                .expect("scripted lines are ASCII")
                .trim_end()
        })
        .collect();
    m.put1(
        "server.protocol_parse_ns",
        ns_per_op(&lines, |l| {
            black_box(parse_request(l, ProtoVersion::V1).is_ok());
        }),
    );
    let batches: Vec<&str> = script
        .batched
        .iter()
        .take(256)
        .map(|b| {
            std::str::from_utf8(&b.request)
                .expect("scripted lines are ASCII")
                .trim_end()
        })
        .collect();
    m.put1(
        "server.protocol_parse_mquery64_ns",
        ns_per_op(&batches, |l| {
            black_box(parse_request(l, ProtoVersion::V2).is_ok());
        }),
    );

    let of_class = |class: LookupClass| -> Vec<&str> {
        script
            .hosts
            .iter()
            .zip(&script.classes)
            .filter(|(_, c)| **c == class)
            .map(|(h, _)| h.as_str())
            .collect()
    };
    let (exact, suffix, miss) = (
        of_class(LookupClass::Exact),
        of_class(LookupClass::Suffix),
        of_class(LookupClass::Miss),
    );
    // The generator always makes domains; a script without suffix
    // lookups would leave the cache metrics with nothing to measure.
    if suffix.is_empty() || miss.is_empty() {
        return Err("the lookup script has no suffix or no miss lookups".to_string());
    }
    // `RouteDb` is rebuilt from the printed table: the oracle keeps its
    // own copy, and this one is shared the way the daemon shares it.
    let shared = SharedRouteDb::new(pathalias_mailer::RouteDb::from_table(
        &world.oracle.printed.routes,
    ));
    let resolve = |db: &dyn Resolver, h: &&str| {
        black_box(db.resolve(h, USER).is_ok());
    };
    m.put1(
        "mailer.resolve_exact_ns",
        ns_per_op(&exact, |h| resolve(&shared, h)),
    );
    m.put1(
        "mailer.resolve_suffix_ns",
        ns_per_op(&suffix, |h| resolve(&shared, h)),
    );
    m.put1(
        "mailer.resolve_miss_ns",
        ns_per_op(&miss, |h| resolve(&shared, h)),
    );

    let padb = dir.join(format!("{}-layers.padb", world.scale.label()));
    write_db(&shared, &padb).map_err(|e| format!("writing {}: {e}", padb.display()))?;
    let mapped = MappedDb::open(&padb).map_err(|e| format!("opening {}: {e}", padb.display()))?;
    let all: Vec<&str> = script.hosts.iter().take(8192).map(String::as_str).collect();
    m.put1(
        "mailer.mmap_resolve_ns",
        ns_per_op(&all, |h| resolve(&mapped, h)),
    );
    drop(mapped);
    let _ = std::fs::remove_file(&padb);

    // Through the daemon's cache decorator. Exact hits bypass the LRU,
    // so the cache is measured on suffix lookups: a working set that
    // fits (warm: every lookup a hit) and one that does not (every
    // lookup a miss, an insert and an eviction).
    let cached = Cached::new(
        shared.clone(),
        CACHE_CAPACITY,
        CACHE_SHARDS,
        Arc::new(ServerCounters::default()),
    );
    let mut distinct: Vec<&str> = suffix.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let warm: Vec<&str> = distinct.iter().copied().take(CACHE_CAPACITY / 8).collect();
    for h in &warm {
        let _ = cached.resolve(h, USER);
    }
    m.put1(
        "server.cached_hit_ns",
        ns_per_op(&warm, |h| resolve(&cached, h)),
    );
    if distinct.len() < CACHE_CAPACITY * 5 / 4 {
        // A small test world: fewer distinct names than the cache
        // holds, so shrink the cache instead of the claim.
        let small = Cached::new(shared.clone(), 64, 1, Arc::new(ServerCounters::default()));
        m.put1(
            "server.cached_miss_ns",
            ns_per_op(&distinct, |h| resolve(&small, h)),
        );
    } else {
        m.put1(
            "server.cached_miss_ns",
            ns_per_op(&distinct, |h| resolve(&cached, h)),
        );
    }

    let histogram = Histogram::new();
    let samples: Vec<u64> = (0..1024u64).map(|i| 200 + i * 37).collect();
    m.put1(
        "telemetry.record_ns",
        ns_per_op(&samples, |ns| histogram.record(*ns)),
    );
    black_box(histogram.count());
    tracer.close(span);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_is_measured_on_a_small_world() {
        let tracer = Tracer::new();
        let root = tracer.open("pabench.test", None, 0);
        let world = World::build(Scale::Small(300), 3, Some((&tracer, root))).unwrap();
        let dir = std::env::temp_dir().join(format!("pabench-layers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = pipeline_layers(&world, &dir, &tracer, root).unwrap();
        let script = lookup_script(&world.oracle.db, 3, 4096);
        m.extend(request_path_layers(&world, &script, &dir, &tracer, root).unwrap());
        tracer.close(root);
        for metric in &m.0 {
            assert!(
                crate::metrics::def(metric.name).is_some(),
                "{} is not registered",
                metric.name
            );
            assert!(metric.value() >= 0.0, "{}", metric.name);
        }
        for name in [
            "parser.parse_s",
            "mailer.resolve_exact_ns",
            "server.cached_miss_ns",
            "graph.snapshot_bytes",
        ] {
            assert!(m.get(name).unwrap().value() > 0.0, "{name}");
        }
        assert!(tracer.budget().iter().any(|r| r.layer == "mapper"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
