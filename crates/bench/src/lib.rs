//! Fixtures for the experiments binary, the `legacy` oracle, and the
//! study code the paper's comparisons need but nothing ships with.
//!
//! The README's "Tests and benches" table maps the paper's tables,
//! figures and studies to experiment ids; this crate holds the workload
//! builders those experiments share, the paper's decrease-key [`heap`]
//! and the O(v²) mapper of [`study`] (experiment E7), the lex stand-in
//! scanner [`slow`] (E3), the 1986 pointer-per-object layout [`boxed`]
//! (E4), the route-table [`diff`] (E16), the multi-source fan-out
//! [`parallel`], and the two checks on the map generator and the
//! parser: [`stats`] (shape) and [`unparse`] (round trip).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxed;
pub mod diff;
pub mod heap;
pub mod legacy;
pub mod parallel;
pub mod slow;
pub mod stats;
pub mod study;
pub mod unparse;

use pathalias_graph::{Graph, NodeId, RouteOp};
use pathalias_mapgen::{generate, MapSpec};
use pathalias_parser::{Kind, Statements, Tok};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's worked-example map (OUTPUT section).
pub const PAPER_1981_MAP: &str = "\
unc\tduke(HOURLY), phs(HOURLY*4)
duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
phs\tunc(HOURLY*4), duke(HOURLY)
research\tduke(DEMAND), ucbvax(DEMAND)
ucbvax\tresearch(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
";

/// The PROBLEMS-section motown graph.
pub const MOTOWN_MAP: &str = "\
princeton caip(200), topaz(300)
caip .rutgers.edu(200)
.rutgers.edu motown(25)
topaz motown(200)
";

/// Parses a small synthetic map and returns it with its home hub.
pub fn sparse_world(hosts: usize, seed: u64) -> (Graph, NodeId) {
    let map = generate(&MapSpec::small(hosts, seed));
    let g = map.parse().expect("generated maps parse");
    let home = g.try_node(&map.home).expect("home exists");
    (g, home)
}

/// Generates the concatenated text of a synthetic map (for scanner and
/// parser benchmarks).
pub fn map_text(hosts: usize, seed: u64) -> String {
    generate(&MapSpec::small(hosts, seed)).concatenated()
}

/// A purely random sparse digraph built directly (no parsing), for the
/// Dijkstra scaling experiment: `v` nodes, about `deg * v` edges.
pub fn random_sparse(v: usize, deg: f64, seed: u64) -> (Graph, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..v).map(|i| g.node(&format!("n{i}"))).collect();
    let e = (v as f64 * deg) as usize;
    for _ in 0..e {
        let a = rng.random_range(0..v);
        let b = rng.random_range(0..v);
        if a != b {
            g.add_raw_link(
                ids[a],
                ids[b],
                rng.random_range(1..10_000),
                RouteOp::UUCP,
                pathalias_graph::LinkFlags::empty(),
            );
        }
    }
    // A ring guarantees connectivity so both variants map everything.
    for i in 0..v {
        g.add_raw_link(
            ids[i],
            ids[(i + 1) % v],
            10_000,
            RouteOp::UUCP,
            pathalias_graph::LinkFlags::empty(),
        );
    }
    (g, ids[0])
}

/// An ARPANET-style network with `n` members: either the paper's
/// star representation (one net node, 2n edges) or the naive explicit
/// clique (n² − n edges). Returns the graph and the entry host.
pub fn clique_world(n: usize, star: bool) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let entry = g.node("gatewayhost");
    let members: Vec<NodeId> = (0..n).map(|i| g.node(&format!("m{i}"))).collect();
    if star {
        let net = g.node("BIGNET");
        let pairs: Vec<(NodeId, u64)> = members.iter().map(|&m| (m, 95)).collect();
        g.declare_network(net, &pairs, RouteOp::ARPA);
        g.declare_link(entry, net, 95, RouteOp::ARPA);
    } else {
        for (i, &a) in members.iter().enumerate() {
            for (j, &b) in members.iter().enumerate() {
                if i != j {
                    g.add_raw_link(a, b, 95, RouteOp::ARPA, pathalias_graph::LinkFlags::empty());
                }
            }
        }
        g.declare_link(entry, members[0], 95, RouteOp::ARPA);
    }
    (g, entry)
}

/// Rebuilds a graph's structure into a fresh pooled [`Graph`] — the
/// arena-discipline counterpart of [`boxed::BoxedGraph`]
/// for the allocator experiment (same nodes, names and live links).
pub fn rebuild_pooled(src: &Graph) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = src.node_ids().map(|id| g.node(src.name(id))).collect();
    for from in src.node_ids() {
        for (_, l) in src.links_from(from) {
            if !l.flags.contains(pathalias_graph::LinkFlags::DELETED) {
                g.add_raw_link(ids[from.index()], ids[l.to.index()], l.cost, l.op, l.flags);
            }
        }
    }
    g
}

/// Deterministic host names for the hashing experiments (a mix of
/// real-ish and sequential names, like the UUCP map): the `k`-th
/// disjoint set of `n`.
pub fn host_names(k: usize, n: usize) -> Vec<String> {
    (k * n..(k + 1) * n)
        .map(pathalias_mapgen::HostNamer::name_at)
        .collect()
}

/// A mapgen world written to disk plus one known link-cost edit that
/// the server's incremental reload path absorbs (verified during
/// construction). Experiment E17 needs an edit that is guaranteed to
/// take the delta path so it measures repair, not the full-pipeline
/// fallback.
pub struct ReloadWorld {
    /// Temp directory holding the map files.
    dir: std::path::PathBuf,
    /// The map files, in parse order.
    paths: Vec<std::path::PathBuf>,
    /// Pipeline options (home hub set).
    options: pathalias_core::Options,
    file: usize,
    original: String,
    edited: String,
}

/// The link lists with a parenthesised cost, as the parser cuts them.
fn plain_cost_statements(text: &str) -> Vec<&str> {
    let view = Statements::scan("map", text).expect("generated maps scan");
    view.iter()
        .filter(|st| st.kind == Kind::Links && st.toks.contains(&Tok::LParen))
        .map(|st| &text[st.span])
        .collect()
}

impl ReloadWorld {
    /// Generates `spec`, writes it to a temp dir, and hunts for a
    /// one-cost edit the delta reload path absorbs. Panics if no such
    /// edit exists — every mapgen world has plenty of plain host rows,
    /// so that would mean the delta path itself is broken.
    pub fn new(spec: &MapSpec, tag: &str) -> ReloadWorld {
        let map = generate(spec);
        let dir = std::env::temp_dir().join(format!(
            "pathalias-reload-world-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let paths: Vec<std::path::PathBuf> = map
            .files
            .iter()
            .map(|(name, text)| {
                let p = dir.join(name);
                std::fs::write(&p, text).expect("write map file");
                p
            })
            .collect();
        let options = pathalias_core::Options {
            local: Some(map.home.clone()),
            ..Default::default()
        };

        let mut world = ReloadWorld {
            dir,
            paths,
            options,
            file: 0,
            original: String::new(),
            edited: String::new(),
        };
        let (source, cache) = world.delta_source();
        source.load_serving_timed().expect("warm load");

        let mut tried = 0usize;
        for (i, path) in world.paths.iter().enumerate() {
            let text = std::fs::read_to_string(path).expect("read map file");
            for line in plain_cost_statements(&text) {
                // The home hub's row invalidates most of the tree, so
                // editing it always falls back to the full pipeline —
                // at 1M hosts each such probe costs a full remap.
                if line.starts_with(&map.home) {
                    continue;
                }
                // High-degree rows (backbone and region hubs) parent
                // large subtrees, so a patch there blows the repair's
                // 25% dirty-cone budget and the probe pays two full
                // remaps for nothing. Hunt among leaf-ish rows.
                if line.matches(',').count() >= 8 {
                    continue;
                }
                // Raise the first cost by 3.
                let edited_line = line.replacen(')', "+3)", 1);
                let before = cache.delta_reloads();
                let edited = text.replacen(line, &edited_line, 1);
                std::fs::write(path, &edited).expect("write edit");
                let took_delta =
                    source.load_serving_timed().is_ok() && cache.delta_reloads() > before;
                if took_delta {
                    world.file = i;
                    world.original = text;
                    world.edited = edited;
                    // Leave the world in its original state (that
                    // reload is itself a one-line delta).
                    world.toggle(false);
                    source.load_serving_timed().expect("restore load");
                    return world;
                }
                // Roll the candidate back before trying the next one.
                std::fs::write(path, &text).expect("restore map file");
                source.load_serving_timed().expect("rollback load");
                tried += 1;
                if tried >= 200 {
                    panic!("no one-cost edit took the delta path in 200 tries");
                }
            }
        }
        panic!("no editable plain cost line found in the generated world");
    }

    /// Writes the edited (`true`) or original (`false`) variant of the
    /// chosen file.
    pub fn toggle(&self, edited: bool) {
        let text = if edited { &self.edited } else { &self.original };
        std::fs::write(&self.paths[self.file], text).expect("toggle map file");
    }

    /// A map source over the world's files plus its stage cache, for
    /// checking the delta counter.
    pub fn delta_source(&self) -> (pathalias_server::MapSource, pathalias_server::StageCache) {
        let cache = pathalias_server::StageCache::default();
        let source = pathalias_server::MapSource::Map {
            files: self.paths.clone(),
            options: self.options.clone(),
            cache: cache.clone(),
        };
        (source, cache)
    }
}

impl Drop for ReloadWorld {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (g, home) = sparse_world(120, 1);
        assert!(g.node_count() >= 120);
        assert_eq!(g.name(home), "uncvax");

        let (g, _) = random_sparse(100, 4.0, 2);
        assert!(g.link_count() >= 400);

        let (star, _) = clique_world(50, true);
        let (full, _) = clique_world(50, false);
        assert!(star.link_count() < 120);
        assert_eq!(full.link_count(), 50 * 49 + 1);

        assert_eq!(host_names(0, 3).len(), 3);
        assert!(map_text(100, 3).contains("file {"));
    }

    #[test]
    fn reload_world_finds_a_delta_edit() {
        let world = ReloadWorld::new(&MapSpec::small(120, 5), "libtest");
        let (source, cache) = world.delta_source();
        source.load_serving_timed().unwrap();
        world.toggle(true);
        source.load_serving_timed().unwrap();
        assert_eq!(
            cache.delta_reloads(),
            1,
            "the recorded edit must repair in place"
        );
    }
}
