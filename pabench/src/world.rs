//! Worlds, oracles and request scripts, all made from `--seed`.
//!
//! A world is a generated map (`pathalias_mapgen`) plus the answers the
//! in-process pipeline gives for it. The program under test only ever
//! receives the generated files and the request bytes; everything it
//! sends back is compared with what is computed here.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::wire::{pipelined, Burst, Exchange};
use pathalias_core::{Frozen, Mapped, NodeId, Options, Parsed, Printed};
use pathalias_mailer::RouteDb;
use pathalias_mapgen::{generate, MapSpec};
use pathalias_router::PointToPoint;
use pathalias_server::Response;
use std::path::Path;
use std::time::Instant;

/// The user every scripted request routes mail to.
pub const USER: &str = "honey";

/// Which world to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `MapSpec::usenet_1986`: the paper's 1986 scale (8.7k hosts, 25k
    /// links, 40 files). The contraction hierarchy builds in seconds
    /// here, so this is the world `PATH` is measured on.
    ///
    /// One fixed map ([`PAPER_MAP_SEED`]), whatever `--seed` is: on a
    /// graph this small the cost of a search depends on which hubs the
    /// generator happened to draw — the median `PATH` differs by a
    /// factor of two between map seeds — and that is a property of the
    /// input, not of the program, which no regression bound survives.
    /// The seed varies the pair script instead.
    Paper,
    /// `MapSpec::small(100_000)`: 130k names, 428k links, 8 MB in 20
    /// files. Large enough that the batch run takes over a second and
    /// the route table overflows the daemon's default 4,096-entry
    /// cache thirty times over; a hierarchy over it does not build in
    /// minutes, so this is the ceiling.
    Big,
    /// `MapSpec::small(n)`, for the rig's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Small(usize),
}

/// The map seed of the `paper` world.
pub const PAPER_MAP_SEED: u64 = 1986;

impl Scale {
    fn spec(self, seed: u64) -> MapSpec {
        match self {
            Scale::Paper => MapSpec::usenet_1986(PAPER_MAP_SEED),
            Scale::Big => MapSpec::small(100_000, seed),
            Scale::Small(n) => MapSpec::small(n, seed),
        }
    }

    /// The world's name in reports and file names.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Big => "big",
            Scale::Small(_) => "small",
        }
    }
}

/// Seconds each stage of the in-process pipeline took.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `Parsed::build`: parse every file into a graph and validate it.
    pub build_s: f64,
    /// `Built::freeze`.
    pub freeze_s: f64,
    /// `Frozen::map`.
    pub map_s: f64,
    /// `Mapped::print`.
    pub print_s: f64,
    /// `RouteDb::from_table`.
    pub routedb_s: f64,
    /// `PointToPoint::new` over the mapped tree's graph.
    pub engine_s: f64,
}

/// What the staged pipeline produces for a set of input texts.
#[derive(Debug)]
pub struct Pipeline {
    /// The frozen stage.
    pub frozen: Frozen,
    /// The mapped stage.
    pub mapped: Mapped,
    /// The printed stage.
    pub printed: Printed,
    /// The lookup table over the printed routes.
    pub db: RouteDb,
    /// Stage timings.
    pub times: StageTimes,
}

fn timed<T>(tracer: Option<(&Tracer, u32)>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = match tracer {
        Some((t, parent)) => t.time(name, Some(parent), 0, f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

/// Runs parse → build → freeze → map → print → table over `files`, the
/// cold pipeline every answer is checked against. With a tracer, each
/// stage is a span under `parent`.
pub fn pipeline(
    files: &[(String, String)],
    options: &Options,
    tracer: Option<(&Tracer, u32)>,
) -> Result<Pipeline, String> {
    let mut parsed = Parsed::new();
    for (name, text) in files {
        parsed.push_str(name, text);
    }
    let mut times = StageTimes::default();
    let (built, s) = timed(tracer, "core.parse_build", || parsed.build(options));
    let built = built.map_err(|e| format!("building the oracle graph: {e}"))?;
    times.build_s = s;
    let (frozen, s) = timed(tracer, "graph.freeze", || built.freeze());
    times.freeze_s = s;
    drop(built);
    let (mapped, s) = timed(tracer, "mapper.map", || frozen.map(options));
    let mapped = mapped.map_err(|e| format!("mapping the oracle graph: {e}"))?;
    times.map_s = s;
    let (printed, s) = timed(tracer, "printer.print", || mapped.print(options));
    times.print_s = s;
    let (db, s) = timed(tracer, "mailer.routedb_build", || {
        RouteDb::from_table(&printed.routes)
    });
    times.routedb_s = s;
    Ok(Pipeline {
        frozen,
        mapped,
        printed,
        db,
        times,
    })
}

/// A generated map and its oracle.
#[derive(Debug)]
pub struct World {
    /// Which world this is.
    pub scale: Scale,
    /// The mapping source (`-l`): the generator's home hub.
    pub home: String,
    /// `(file name, text)`, in parse order.
    pub files: Vec<(String, String)>,
    /// The pipeline options every run of this world uses.
    pub options: Options,
    /// The in-process pipeline's results.
    pub oracle: Pipeline,
    /// The point-to-point engine over the mapped tree's graph — the
    /// same construction the daemon serves `PATH` from.
    pub engine: PointToPoint,
}

impl World {
    /// Generates the world for `seed` and computes its oracle.
    pub fn build(scale: Scale, seed: u64, tracer: Option<(&Tracer, u32)>) -> Result<World, String> {
        let map = generate(&scale.spec(seed));
        let options = Options {
            local: Some(map.home.clone()),
            ..Options::default()
        };
        let mut oracle = pipeline(&map.files, &options, tracer)?;
        let graph = oracle.mapped.tree.frozen().clone();
        let (engine, s) = timed(tracer, "router.engine_build", || {
            PointToPoint::new(graph, options.cost_model)
        });
        oracle.times.engine_s = s;
        Ok(World {
            scale,
            home: map.home,
            files: map.files,
            options,
            oracle,
            engine,
        })
    }

    /// Total bytes of map text.
    pub fn bytes(&self) -> usize {
        self.files.iter().map(|(_, t)| t.len()).sum()
    }

    /// Writes the map files under `dir/<label>/` and returns their
    /// paths, in parse order, as the command-line arguments they become.
    pub fn write_files(&self, dir: &Path) -> Result<Vec<String>, String> {
        let dir = dir.join(self.scale.label());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        self.files
            .iter()
            .map(|(name, text)| {
                let path = dir.join(name);
                std::fs::write(&path, text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                Ok(path.to_string_lossy().into_owned())
            })
            .collect()
    }

    /// `serve` / batch arguments naming the home host.
    pub fn local_args(&self) -> [String; 2] {
        ["-l".to_string(), self.home.clone()]
    }
}

/// The response line a daemon serving `db` must give `QUERY host USER`:
/// `200 <route>`, or `404 no route to <host>` — a correct answer for a
/// host the table does not cover, not a failure.
pub fn expect_query(db: &RouteDb, host: &str) -> Vec<u8> {
    match db.route_to(host, USER) {
        Some(route) => Response::Route(route),
        None => Response::NoRoute(host.to_string()),
    }
    .to_string()
    .into_bytes()
}

/// The response line a `PATH` request must get for `answer`.
pub fn expect_path(answer: &pathalias_router::PathAnswer) -> Vec<u8> {
    Response::Path {
        map: None,
        cost: answer.cost,
        hops: answer.hops,
        route: answer.route.clone(),
    }
    .to_string()
    .into_bytes()
}

fn query_line(host: &str) -> Vec<u8> {
    format!("QUERY {host} {USER}\n").into_bytes()
}

/// How a scripted lookup resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupClass {
    /// The host has its own table entry (one lock-free hash probe).
    Exact,
    /// Only a domain suffix of the name has an entry (the multi-probe
    /// walk the daemon's LRU exists for).
    Suffix,
    /// Nothing matches: `404`.
    Miss,
}

/// The `lookup` request script.
#[derive(Debug)]
pub struct LookupScript {
    /// One `QUERY` per exchange.
    pub singles: Vec<Exchange>,
    /// The class of each single.
    pub classes: Vec<LookupClass>,
    /// The host of each single.
    pub hosts: Vec<String>,
    /// The singles in groups of [`PIPELINE_DEPTH`] `QUERY` lines sent
    /// as one write.
    pub pipelined: Vec<Burst>,
    /// The singles in groups of [`BATCH`] as one v2 `MQUERY` line.
    pub batched: Vec<Burst>,
}

/// `QUERY` lines kept in flight in the pipelined phase.
pub const PIPELINE_DEPTH: usize = 32;
/// Hosts per `MQUERY` line in the batched phase.
pub const BATCH: usize = 64;

/// Builds the lookup script: 70% exact hosts with cubic-skewed
/// popularity, 20% names only a top-level-domain suffix matches
/// (`nohostK.deptJ.<tld>`, almost all distinct, so they overflow the
/// daemon's cache), 10% misses. `n` is rounded down to whole batches.
pub fn lookup_script(db: &RouteDb, seed: u64, n: usize) -> LookupScript {
    let mut rng = Rng::new(seed, 1);
    // The table iterates in hash order; sort for a repeatable script.
    let mut names: Vec<&str> = db.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    let mut hosts: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !n.starts_with('.'))
        .collect();
    // A seeded shuffle fixes each host's popularity rank.
    for i in (1..hosts.len()).rev() {
        hosts.swap(i, rng.below(i + 1));
    }
    let tlds: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| n.starts_with('.') && n.len() > 1 && !n[1..].contains('.'))
        .collect();

    let n = (n / BATCH).max(1) * BATCH;
    let mut script = LookupScript {
        singles: Vec::with_capacity(n),
        classes: Vec::with_capacity(n),
        hosts: Vec::with_capacity(n),
        pipelined: Vec::new(),
        batched: Vec::new(),
    };
    for _ in 0..n {
        let roll = rng.below(10);
        let (host, class) = if roll < 7 || (roll < 9 && tlds.is_empty()) {
            (
                hosts[rng.skewed(hosts.len())].to_string(),
                LookupClass::Exact,
            )
        } else if roll < 9 {
            let tld = tlds[rng.below(tlds.len())];
            (
                format!("nohost{}.dept{}{tld}", rng.below(5000), rng.below(40)),
                LookupClass::Suffix,
            )
        } else {
            (
                format!("nosuchhost{}", rng.below(1_000_000)),
                LookupClass::Miss,
            )
        };
        script.singles.push(Exchange {
            request: query_line(&host),
            expect: expect_query(db, &host),
        });
        script.classes.push(class);
        script.hosts.push(host);
    }
    script.pipelined = pipelined(&script.singles, PIPELINE_DEPTH);
    for (g, group) in script.singles.chunks(BATCH).enumerate() {
        let mut line = String::from("MQUERY");
        for host in &script.hosts[g * BATCH..g * BATCH + group.len()] {
            line.push(' ');
            line.push_str(host);
            line.push(':');
            line.push_str(USER);
        }
        line.push('\n');
        script.batched.push(Burst {
            request: line.into_bytes(),
            expect: group.iter().map(|x| x.expect.clone()).collect(),
        });
    }
    script
}

/// Where a scripted `PATH` request's source comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// One of [`HOT_SOURCES`] hot sources, issued in bursts of eight —
    /// the source locality a per-source tree cache would exploit.
    Hot,
    /// The home hub: the answer must equal `QUERY dst`'s route.
    Home,
    /// A uniformly drawn source.
    Uniform,
}

/// The `path` request script.
#[derive(Debug)]
pub struct PathScript {
    /// One `PATH src dst` per exchange, every pair routable.
    pub requests: Vec<Exchange>,
    /// The class of each request.
    pub classes: Vec<PathClass>,
    /// The endpoints of each request, for the in-process replay.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Home-source pairs whose in-process `PATH` route differs from the
    /// printed table's route for the destination (must be 0).
    pub home_mismatches: u64,
}

/// Sources that send half the scripted requests. A search from a leaf
/// and one from a hub differ several times over, so with a handful of
/// hot sources the script's median would be a draw of the dice; with
/// this many it is a property of the map. For the same reason they are
/// drawn from the map alone — the busiest origins of mail do not
/// change with the benchmark seed; destinations, the uniform pairs and
/// the order do.
pub const HOT_SOURCES: usize = 96;

/// Builds the pair script in blocks of 16: eight requests from one hot
/// source, four from the home hub, four uniform pairs. Pairs the
/// in-process engine cannot route are redrawn, so no scripted request
/// fails.
pub fn path_script(world: &World, seed: u64, n: usize) -> Result<PathScript, String> {
    let mut rng = Rng::new(seed, 2);
    let graph = world.engine.graph();
    // Plain hosts whose name resolves back to themselves (a `private`
    // collision makes a name ambiguous on the wire).
    let hosts: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| {
            !graph.is_net(id)
                && !graph.is_domain(id)
                && graph.is_mappable(id)
                && graph.id_of(graph.name(id)) == Some(id)
        })
        .collect();
    let home = graph
        .id_of(&world.home)
        .ok_or_else(|| format!("home `{}` is not in the graph", world.home))?;
    if hosts.len() < HOT_SOURCES {
        return Err("world too small for a pair script".to_string());
    }
    let hot: Vec<NodeId> = (0..HOT_SOURCES)
        .map(|_| hosts[rng.below(hosts.len())])
        .collect();

    let mut script = PathScript {
        requests: Vec::with_capacity(n),
        classes: Vec::with_capacity(n),
        pairs: Vec::with_capacity(n),
        home_mismatches: 0,
    };
    let mut draws = 0usize;
    while script.requests.len() < n {
        let slot = script.requests.len() % 16;
        let block = script.requests.len() / 16;
        let (src, class) = match slot {
            0..=7 => (hot[block % hot.len()], PathClass::Hot),
            8..=11 => (home, PathClass::Home),
            _ => (hosts[rng.below(hosts.len())], PathClass::Uniform),
        };
        let dst = hosts[rng.below(hosts.len())];
        draws += 1;
        if draws > n * 50 {
            return Err("too few routable pairs for a pair script".to_string());
        }
        if src == dst {
            continue;
        }
        let Ok(answer) = world.engine.route_ids(src, dst) else {
            continue;
        };
        if class == PathClass::Home {
            // `PATH <home> <x>` and `QUERY <x>` must give one route.
            let printed = world
                .oracle
                .printed
                .routes
                .entries
                .iter()
                .find(|r| r.node == dst);
            if printed.map(|r| r.route.as_str()) != Some(answer.route.as_str()) {
                script.home_mismatches += 1;
            }
        }
        script.requests.push(Exchange {
            request: format!("PATH {} {}\n", graph.name(src), graph.name(dst)).into_bytes(),
            expect: expect_path(&answer),
        });
        script.classes.push(class);
        script.pairs.push((src, dst));
    }
    Ok(script)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_world_and_scripts() {
        let a = World::build(Scale::Small(300), 11, None).unwrap();
        let b = World::build(Scale::Small(300), 11, None).unwrap();
        let c = World::build(Scale::Small(300), 12, None).unwrap();
        assert_eq!(a.files, b.files);
        assert_ne!(a.files, c.files);
        assert_eq!(a.oracle.printed.rendered, b.oracle.printed.rendered);
        let (sa, sb) = (
            lookup_script(&a.oracle.db, 11, 640),
            lookup_script(&b.oracle.db, 11, 640),
        );
        assert_eq!(sa.singles, sb.singles);
        assert_ne!(sa.singles, lookup_script(&a.oracle.db, 12, 640).singles);
        let (pa, pb) = (
            path_script(&a, 11, 64).unwrap(),
            path_script(&b, 11, 64).unwrap(),
        );
        assert_eq!(pa.requests, pb.requests);
    }

    #[test]
    fn lookup_script_has_the_three_classes_and_matching_groups() {
        let w = World::build(Scale::Small(300), 5, None).unwrap();
        let s = lookup_script(&w.oracle.db, 5, 1000);
        assert_eq!(s.singles.len(), 960, "rounded down to whole MQUERY batches");
        let count = |c| s.classes.iter().filter(|&&k| k == c).count();
        assert!(count(LookupClass::Exact) > 500);
        assert!(count(LookupClass::Suffix) > 100);
        assert!(count(LookupClass::Miss) > 50);
        for (x, c) in s.singles.iter().zip(&s.classes) {
            let got = String::from_utf8_lossy(&x.expect);
            match c {
                LookupClass::Miss => {
                    assert!(got.starts_with("404 no route to nosuchhost"), "{got}")
                }
                _ => assert!(got.starts_with("200 "), "{got}"),
            }
        }
        assert_eq!(s.pipelined.len(), 960 / PIPELINE_DEPTH);
        assert_eq!(s.batched.len(), 960 / BATCH);
        assert_eq!(s.batched[0].expect.len(), BATCH);
        assert_eq!(s.batched[1].expect[0], s.singles[BATCH].expect);
        assert!(s.batched[0].request.len() < pathalias_server::MAX_LINE);
    }

    #[test]
    fn path_script_pairs_are_routable_and_home_agrees_with_query() {
        let w = World::build(Scale::Small(300), 9, None).unwrap();
        let s = path_script(&w, 9, 96).unwrap();
        assert_eq!(s.requests.len(), 96);
        assert_eq!(s.home_mismatches, 0);
        assert_eq!(
            s.classes.iter().filter(|&&c| c == PathClass::Hot).count(),
            48
        );
        assert_eq!(
            s.classes.iter().filter(|&&c| c == PathClass::Home).count(),
            24
        );
        // Hot sources come in runs of eight.
        assert!(s.pairs[..8].iter().all(|p| p.0 == s.pairs[0].0));
        for x in &s.requests {
            assert!(x.expect.starts_with(b"200 cost="));
        }
    }
}
