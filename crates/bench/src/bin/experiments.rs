//! Regenerates the paper's engineering studies next to our measured
//! values (its worked examples are pinned by `tests/paper_examples.rs`).
//! The README's "Tests and benches" table lists the experiment ids.
//!
//! Run with: `cargo run --release -p pathalias-bench --bin experiments`

use pathalias_arena::counting::{snapshot, CountingAlloc};
use pathalias_bench::boxed::BoxedGraph;
use pathalias_bench::dual::map_dual;
use pathalias_bench::study::map_frozen_quadratic_readonly;
use pathalias_bench::PooledGraph;
use pathalias_bench::{clique_world, host_names, random_sparse, sparse_world, MOTOWN_MAP};
use pathalias_graph::{Graph, NodeId, RouteOp};
use pathalias_hash::{GrowthPolicy, HostTable, SecondaryHash, TableConfig, ALPHA_LOW};
use pathalias_mailer::RouteDb;
use pathalias_mapgen::{generate, MapSpec};
use pathalias_mapper::{map, map_frozen_readonly, map_readonly, CostModel, MapOptions};
use pathalias_printer::{compute_routes, render, PrintOptions};
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn header(id: &str, title: &str) {
    println!("\n## {id}: {title}\n");
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1_000.0)
}

fn median(samples: Vec<f64>) -> f64 {
    Spread::of(samples).med
}

/// Repeated measurements of one quantity, shown as `median [min–max]`
/// at the precision the format string asks for.
struct Spread {
    med: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            med: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(3);
        let (med, min, max) = (self.med, self.min, self.max);
        write!(f, "{med:.p$} [{min:.p$}–{max:.p$}]")
    }
}

/// Wall-clock milliseconds over `reps` runs.
fn time_spread<T>(reps: usize, mut f: impl FnMut() -> T) -> Spread {
    Spread::of((0..reps).map(|_| time(&mut f).1).collect())
}

/// Median-of-several wall-clock milliseconds.
fn time_med<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    time_spread(reps, f).med
}

/// Prints whether a study's measured direction is the paper's. A
/// `required` one that fails ends the run (exit 101); the others only
/// report, because this implementation has never reproduced them
/// (README, "Tests and benches").
fn verdict(reproduced: bool, required: bool, claim: &str) {
    let mark = if reproduced { "" } else { "NOT " };
    println!("paper: {claim} — {mark}reproduced here");
    assert!(reproduced || !required, "stopped reproducing: {claim}");
}

fn main() {
    println!("# pathalias reproduction — experiment report");
    println!("# (generated by `cargo run --release -p pathalias-bench --bin experiments`)");

    // Optional experiment ids (case-insensitive, e.g. `experiments E9
    // E7`) restrict the run — CI smoke-checks single experiments this
    // way. No arguments runs everything.
    let only: Vec<String> = std::env::args()
        .skip(1)
        .map(|a| a.to_ascii_lowercase())
        .collect();
    let want = |id: &str| only.is_empty() || only.iter().any(|o| o == id);

    let experiments: &[(&str, fn())] = &[
        ("e3", e3_scanner),
        ("e4", e4_alloc),
        ("e5", e5_secondary_hash),
        ("e6", e6_growth_policies),
        ("e7", e7_dijkstra),
        ("e8", e8_clique),
        ("e9", e9_paper_scale),
        ("e10", e10_mixed_syntax),
        ("e11", e11_motown),
        ("e12", e12_second_best),
        ("e13", e13_probes_at_high_water),
        ("e15", e15_mailer),
        ("e16", e16_heuristic_ablation),
        ("e17", e17_incremental_reload),
    ];
    for (id, run) in experiments {
        if want(id) {
            run();
        }
    }
}

/// E16: ablate each heuristic individually and measure its effect on
/// the routes a 3,000-host world produces.
fn e16_heuristic_ablation() {
    header("E16", "heuristic ablation: what each penalty buys");
    let (g, home) = sparse_world(3_000, 5);

    let baseline_opts = MapOptions {
        no_backlinks: true,
        ..MapOptions::default()
    };
    let baseline_tree = map_readonly(&g, home, &baseline_opts).unwrap();
    let baseline = compute_routes(&baseline_tree);

    let variants: Vec<(&str, CostModel)> = vec![
        (
            "no gate penalty",
            CostModel {
                gate_penalty: 0,
                ..CostModel::paper()
            },
        ),
        (
            "no relay penalty",
            CostModel {
                relay_penalty: 0,
                ..CostModel::paper()
            },
        ),
        (
            "no mixed penalty",
            CostModel {
                mixed_penalty: 0,
                ..CostModel::paper()
            },
        ),
        ("nothing (plain)", CostModel::plain()),
    ];
    println!(
        "{:<18} {:>9} {:>10} {:>12} {:>16}",
        "ablation", "changed", "rerouted", "via-domain", "mixed(!after@)"
    );
    for (label, model) in variants {
        let opts = MapOptions {
            model,
            no_backlinks: true,
            ..MapOptions::default()
        };
        let tree = map_readonly(&g, home, &opts).unwrap();
        let table = compute_routes(&tree);
        let changes = pathalias_bench::diff::diff(&baseline, &table);
        let rerouted = changes
            .iter()
            .filter(|c| matches!(c, pathalias_bench::diff::RouteChange::Rerouted { .. }))
            .count();
        let via_domain = table
            .visible()
            .filter(|r| r.via_domain && !r.name.starts_with('.'))
            .count();
        // Ambiguity-creating mixes: a `!` splice applied after an `@`
        // (tracked on the path labels; the string form cannot show it).
        let bad_mix = table.visible().filter(|r| r.ambiguous).count();
        println!(
            "{label:<18} {:>9} {rerouted:>10} {via_domain:>12} {bad_mix:>16}",
            changes.len()
        );
    }
    println!("(baseline = full paper model; via-domain counts hosts whose mail");
    println!(" would transit a domain; mixed counts !-after-@ ambiguous routes)");
}

fn e3_scanner() {
    header("E3", "hand-built scanner vs lex-style baseline");
    let text = pathalias_bench::map_text(3_000, 7);
    let fast = time_spread(9, || {
        pathalias_parser::scan::tokenize("m", &text).unwrap().len()
    });
    let slow = time_spread(9, || {
        pathalias_bench::slow::tokenize("m", &text).unwrap().len()
    });
    let parse = time_med(9, || pathalias_parser::parse(&text).unwrap().node_count());
    println!(
        "input: {} bytes of generated map; median [min–max] of 9 runs",
        text.len()
    );
    println!("lex-style scan        {slow:.3} ms");
    println!(
        "hand-built scan       {fast:.3} ms   ({:.1}x faster)",
        slow.med / fast.med
    );
    println!("full parse (fast)     {parse:>9.3} ms");
    // The paper: lex took half the total run time; replacing it cut
    // total time 40 %. Reconstruct the equivalent total-time saving.
    let lex_total = slow.med + (parse - fast.med);
    println!(
        "implied total-run-time cut: {:.0}%   (paper: 40%)",
        (1.0 - parse / lex_total) * 100.0
    );
    let claim = "the hand-built scanner beats the generated one";
    verdict(fast.med < slow.med, true, claim);
}

/// One build under the counting allocator: wall-clock ms, allocator
/// calls, bytes requested, bytes still live when the build returns.
fn counted<T>(build: impl FnOnce() -> T) -> [f64; 4] {
    let before = snapshot();
    let (built, ms) = time(build);
    let after = snapshot();
    let churn = after.since(&before);
    let live = after.live() - before.live();
    drop(built);
    [ms, churn.calls as f64, churn.allocated as f64, live as f64]
}

fn e4_alloc() {
    header(
        "E4",
        "pooled (buffered-sbrk) vs boxed (malloc-per-object) graph",
    );
    let (mut flat, mut pooled, mut boxed) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 11..16 {
        let parsed = pathalias_parser::parse(&pathalias_bench::map_text(3_000, seed)).unwrap();
        flat.push(counted(|| pathalias_bench::rebuild_flat(&parsed)));
        pooled.push(counted(|| PooledGraph::from_graph(&parsed)));
        boxed.push(counted(|| BoxedGraph::from_graph(&parsed)));
    }
    let column = |rows: &[[f64; 4]], c: usize| Spread::of(rows.iter().map(|r| r[c]).collect());
    println!(
        "the same graph in three layouts, median [min–max] over 5 generated 3,000-host worlds:"
    );
    println!(
        "{:<20} {:<24} {:<24} {:<32} bytes live",
        "layout", "time ms", "alloc calls", "bytes requested"
    );
    for (label, rows) in [
        ("flat (build graph)", &flat),
        ("pooled (1986 arena)", &pooled),
        ("boxed (per-object)", &boxed),
    ] {
        println!(
            "{label:<20} {:<24} {:<24} {:<32} {:.0}",
            format!("{:.2}", column(rows, 0)),
            format!("{:.0}", column(rows, 1)),
            format!("{:.0}", column(rows, 2)),
            column(rows, 3)
        );
    }
    let ratio = |over: &[[f64; 4]], c| {
        Spread::of(boxed.iter().zip(over).map(|(b, p)| b[c] / p[c]).collect())
    };
    let (calls, live) = (ratio(&pooled, 1), ratio(&pooled, 3));
    println!("boxed / pooled allocator calls: {calls:.1}");
    println!("boxed / pooled live bytes:      {live:.2}");
    println!("boxed / flat allocator calls:   {:.1}", ratio(&flat, 1));
    let claim = "per-object allocation makes more allocator calls";
    verdict(calls.min > 1.0, true, claim);
    // The counting allocator sees the bytes a layout asks for, not the
    // per-object headers a 1986 malloc added to them.
    verdict(live.min > 1.0, false, "and holds more bytes");
}

fn e5_secondary_hash() {
    header("E5", "secondary hash: inverse vs textbook plus-one");
    const SETS: usize = 7;
    println!("median [min–max] over {SETS} disjoint sets of 8,500 host names:");
    println!(
        "{:<12} {:<24} {:<24} rehashes",
        "secondary", "insert probes", "lookup probes"
    );
    let mut lookups: Vec<Spread> = Vec::new();
    for (label, secondary) in [
        ("inverse", SecondaryHash::Inverse),
        ("plus-one", SecondaryHash::PlusOne),
    ] {
        let (mut inserts, mut gets, mut rehashes) = (Vec::new(), Vec::new(), 0);
        for k in 0..SETS {
            let names = host_names(k, 8_500);
            let mut t = HostTable::with_config(TableConfig {
                secondary,
                ..TableConfig::default()
            });
            for (i, n) in names.iter().enumerate() {
                t.insert(n, i);
            }
            inserts.push(t.stats().mean_insert_probes());
            rehashes = t.stats().rehashes;
            t.reset_stats();
            for n in &names {
                t.get(n);
            }
            gets.push(t.stats().mean_lookup_probes());
        }
        let gets = Spread::of(gets);
        println!(
            "{label:<12} {:<24} {:<24} {rehashes}",
            format!("{:.3}", Spread::of(inserts)),
            format!("{gets:.3}")
        );
        lookups.push(gets);
    }
    // With the shift-xor fold and these names the textbook form
    // probes less on every set.
    let claim = "the inverse form needs no more lookup probes than plus-one";
    verdict(lookups[0].med <= lookups[1].med, false, claim);
}

fn e6_growth_policies() {
    header("E6", "table growth schedules (final size for n hosts)");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "policy", "n", "final T", "load", "rehashes", "waste%"
    );
    for n in [3_000usize, 5_700, 8_500] {
        let names = host_names(0, n);
        for (label, growth) in [
            ("fibonacci", GrowthPolicy::FibonacciPrimes),
            ("geometric-2", GrowthPolicy::Geometric(2.0)),
            (
                "arithmetic",
                GrowthPolicy::ArithmeticLowWater {
                    step: 512,
                    alpha_low: ALPHA_LOW,
                },
            ),
        ] {
            let mut t = HostTable::with_config(TableConfig {
                growth,
                ..TableConfig::default()
            });
            for (i, name) in names.iter().enumerate() {
                t.insert(name, i);
            }
            let waste = 100.0 * (t.capacity() - t.len()) as f64 / t.capacity() as f64;
            println!(
                "{label:<14} {n:>8} {:>10} {:>10.3} {:>10} {waste:>8.1}%",
                t.capacity(),
                t.load_factor(),
                t.stats().rehashes
            );
        }
    }
}

fn e7_dijkstra() {
    header(
        "E7",
        "heap Dijkstra (CSR and linked) vs O(v²) Dijkstra on sparse graphs (e ≈ 4v)",
    );
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>8} {:>8}",
        "v", "csr ms", "linked ms", "quadratic ms", "v²/csr", "lnk/csr"
    );
    let opts = MapOptions::default();
    // v²/csr per size, for the direction check below.
    let mut ratios: Vec<(usize, f64)> = Vec::new();
    for v in [500usize, 1_000, 2_000, 4_000, 8_000] {
        let (g, src) = random_sparse(v, 4.0, 42);
        let frozen = Arc::new(g.freeze());
        let csr = time_med(5, || {
            map_frozen_readonly(&frozen, src, &opts)
                .unwrap()
                .mapped_count()
        });
        let linked = time_med(5, || {
            pathalias_bench::legacy::map_linked_readonly(&g, src, &opts).mapped_count()
        });
        let quad = time_med(3, || {
            map_frozen_quadratic_readonly(&frozen, src, &opts)
                .unwrap()
                .mapped_count()
        });
        println!(
            "{v:<8} {csr:>10.3} {linked:>12.3} {quad:>14.3} {:>7.1}x {:>7.2}x",
            quad / csr,
            linked / csr
        );
        ratios.push((v, quad / csr));
    }
    println!("(the v² ratio grows linearly in v: the paper's 'clear winner';");
    println!(" the linked column is the seed implementation before the freeze refactor)");
    // "Both asymptotically and pragmatically, the priority queue
    // variant is a clear winner."
    let at = |v| ratios.iter().find(|r| r.0 == v).expect("size was run").1;
    assert!(
        ratios.iter().all(|&(v, r)| v < 2_000 || r > 1.0),
        "the array scan beat the heap run at some v >= 2000: {ratios:?}"
    );
    assert!(
        at(8_000) > at(2_000),
        "the heap's lead no longer grows with v: {ratios:?}"
    );
}

fn e8_clique() {
    header(
        "E8",
        "clique-as-star vs explicit clique (ARPANET-style net)",
    );
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>14}",
        "members", "star edges", "clique edges", "star map ms", "clique map ms"
    );
    let opts = MapOptions::default();
    for n in [500usize, 1_000, 2_000] {
        let (star, s_src) = clique_world(n, true);
        let (full, f_src) = clique_world(n, false);
        let star_ms = time_med(5, || {
            map_readonly(&star, s_src, &opts).unwrap().mapped_count()
        });
        let full_ms = time_med(3, || {
            map_readonly(&full, f_src, &opts).unwrap().mapped_count()
        });
        println!(
            "{n:<8} {:>12} {:>14} {star_ms:>12.3} {full_ms:>14.3}",
            star.link_count(),
            full.link_count()
        );
    }
    println!("(2,000 members: the paper's 'millions of edges' avoided)");

    // The star only saves anything if declaring it is linear too:
    // checking each member against the net's row by walking it is the
    // n² the representation exists to avoid, one layer down.
    println!("\n{:<8} {:>14}", "members", "star build ms");
    // Only the declaration is timed; each sample gets a fresh graph.
    let build_ms = |n: usize| {
        let sample = |_| {
            let mut g = Graph::new();
            let net = g.node("BIGNET");
            let members: Vec<(NodeId, u64)> =
                (0..n).map(|i| (g.node(&format!("m{i}")), 95)).collect();
            time(|| g.declare_network(net, &members, RouteOp::ARPA)).1
        };
        median((0..5).map(sample).collect())
    };
    let built: Vec<f64> = [2_000usize, 8_000, 32_000]
        .into_iter()
        .map(|n| {
            let ms = build_ms(n);
            println!("{n:<8} {ms:>14.3}");
            ms
        })
        .collect();
    let growth = built[2] / built[1];
    println!("(build(32,000) / build(8,000) = {growth:.1}: linear is 4, quadratic 16)");
    assert!(
        growth <= 10.0,
        "declaring a network is no longer linear in its members"
    );
}

fn e9_paper_scale() {
    header("E9", "full pipeline at 1986 scale (5,700 + 2,800 hosts)");
    let gen = generate(&MapSpec::usenet_1986(1986));
    let text = gen.concatenated();
    println!(
        "input: {} files, {} bytes, {} hosts, {} links declared",
        gen.files.len(),
        gen.byte_size(),
        gen.stats.hosts,
        gen.stats.links
    );
    let parse_ms = time_med(5, || pathalias_parser::parse(&text).unwrap().node_count());
    let g = pathalias_parser::parse(&text).unwrap();
    let home = g.try_node(&gen.home).unwrap();
    let opts = MapOptions::default();
    let freeze_ms = time_med(5, || g.freeze().edge_count());
    let frozen = Arc::new(g.freeze());
    let map_ms = time_med(5, || {
        map_frozen_readonly(&frozen, home, &opts)
            .unwrap()
            .mapped_count()
    });
    let tree = map(&g, home, &opts).unwrap();
    let print_ms = time_med(5, || {
        let table = compute_routes(&tree);
        render(&table, &PrintOptions::default()).len()
    });
    println!("{:<10} {:>10}", "phase", "ms");
    println!("{:<10} {parse_ms:>10.2}", "parse");
    println!("{:<10} {freeze_ms:>10.2}", "freeze");
    println!("{:<10} {map_ms:>10.2}", "map");
    println!("{:<10} {print_ms:>10.2}", "print");
    let s = tree.stats;
    println!(
        "mapped {} nodes; heap {} pushes / {} pops; back links: {} in {} rounds ({} restarted)",
        s.mapped, s.pushes, s.pops, s.invented_links, s.backlink_rounds, s.restarted_rounds
    );
}

fn e10_mixed_syntax() {
    header("E10", "mixed-syntax penalty coverage");
    let (g, home) = sparse_world(3_000, 5);
    for (label, model) in [
        ("paper model", CostModel::paper()),
        (
            "strict mixing",
            CostModel {
                strict_mixed: true,
                ..CostModel::paper()
            },
        ),
        ("no penalty", CostModel::plain()),
    ] {
        let opts = MapOptions {
            model,
            no_backlinks: true,
            ..MapOptions::default()
        };
        let tree = map_readonly(&g, home, &opts).unwrap();
        let table = compute_routes(&tree);
        let total = table.visible().count();
        let mixed = table
            .visible()
            .filter(|r| r.route.contains('!') && r.route.contains('@'))
            .count();
        let ambiguous = table.visible().filter(|r| r.ambiguous).count();
        println!(
            "{label:<14}: {mixed:>5} of {total} routes mix '!'/'@' ({:.2}%); {ambiguous} ambiguous ({:.2}%); {} penalties",
            100.0 * mixed as f64 / total as f64,
            100.0 * ambiguous as f64 / total as f64,
            tree.stats.mixed_penalties
        );
    }
    println!("(paper: the penalty hits 'only a fraction of a percent' of routes)");
}

fn e11_motown() {
    header(
        "E11",
        "the PROBLEMS figure: motown via domain (425+∞) vs topaz (500)",
    );
    for (label, model) in [
        ("with heuristics", CostModel::paper()),
        ("plain weights", CostModel::plain()),
    ] {
        let g = pathalias_parser::parse(MOTOWN_MAP).unwrap();
        let princeton = g.try_node("princeton").unwrap();
        let motown = g.try_node("motown").unwrap();
        let opts = MapOptions {
            model,
            ..MapOptions::default()
        };
        let tree = map(&g, princeton, &opts).unwrap();
        let table = compute_routes(&tree);
        let r = table.entries.iter().find(|r| r.node == motown).unwrap();
        println!("{label:<16}: cost {:>9}  route {}", r.cost, r.route);
    }
    println!("(paper: the domain heuristic must make the right branch win)");
}

fn e12_second_best() {
    header("E12", "second-best (domain-free) path experiment");
    let g = pathalias_parser::parse(MOTOWN_MAP).unwrap();
    let princeton = g.try_node("princeton").unwrap();
    let motown = g.try_node("motown").unwrap();
    let mut opts = MapOptions::default();
    opts.model.relay_penalty = 0; // The pre-heuristic model the section discusses.
    let dual = map_dual(&g, princeton, &opts).unwrap();
    println!(
        "primary route to motown: cost {} (via domain: {})",
        dual.primary.cost(motown).unwrap(),
        dual.via_domain(motown)
    );
    let second = dual.second_best(motown).unwrap();
    println!("second-best (domain-free): cost {}", second.cost);
    println!(
        "preferred label cost: {} (the route a mailer should use)",
        dual.preferred(motown).unwrap().cost
    );
}

fn e13_probes_at_high_water() {
    header("E13", "probes per access at α_H = 0.79");
    println!(
        "{:<10} {:>8} {:>8} {:>16}",
        "hosts", "T", "α", "probes/access"
    );
    let mut measured = Vec::new();
    let mut alpha = 0.0;
    for hosts in [1_000usize, 3_000, 5_700, 8_500, 12_000, 20_000, 40_000] {
        let mut t: HostTable<usize> = HostTable::new();
        // Past `hosts`, keep adding names until the next one would
        // push the table over the high-water mark.
        let mut i = 0;
        while i < hosts || (t.len() as f64 + 1.0) / t.capacity() as f64 <= 0.79 {
            t.insert(&pathalias_mapgen::HostNamer::name_at(i), i);
            i += 1;
        }
        let all: Vec<String> = t.iter().map(|(k, _)| k.to_string()).collect();
        t.reset_stats();
        for n in &all {
            t.get(n);
        }
        alpha = t.load_factor();
        let probes = t.stats().mean_lookup_probes();
        println!(
            "{:<10} {:>8} {alpha:>8.3} {probes:>16.3}",
            t.len(),
            t.capacity()
        );
        measured.push(probes);
    }
    let measured = Spread::of(measured);
    let theory = (1.0 / alpha) * (1.0 / (1.0 - alpha)).ln();
    println!("measured probes/access:  {measured:.3}   (median [min–max] over the tables above)");
    println!("theory (1/α)ln(1/(1-α)): {theory:.3}");
    // The shift-xor fold spreads these names less evenly than the
    // uniform hashing the prediction assumes.
    let claim = "2 probes per access when the table is full";
    verdict(measured.med <= 2.0, false, claim);
}

fn e15_mailer() {
    header(
        "E15",
        "mailer lookup walkthrough (caip.rutgers.edu!pleasant)",
    );
    let db = RouteDb::from_output(
        "seismo\tseismo!%s\n.edu\tseismo!%s\ncaip.rutgers.edu\tseismo!caip.rutgers.edu!%s\n",
    )
    .unwrap();
    println!(
        "exact entry:  {}",
        db.route_to("caip.rutgers.edu", "pleasant").unwrap()
    );
    let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
    println!(
        "via .edu:     {}",
        db.route_to("caip.rutgers.edu", "pleasant").unwrap()
    );
    println!("(paper: both produce seismo!caip.rutgers.edu!pleasant)");
}

fn e17_incremental_reload() {
    use pathalias_bench::ReloadWorld;

    header(
        "E17",
        "incremental reload: one link-cost change vs a full remap",
    );
    println!("(median wall-clock per reload; the edit is pre-verified to take the delta path)");
    e17_world("paper-scale (usenet 1986)", &MapSpec::usenet_1986(1986));

    // The million-host world takes minutes end to end, so it only runs
    // when asked for.
    if std::env::var_os("PATHALIAS_MILLION").is_some() {
        let million = MapSpec {
            seed: 1986,
            uucp_hosts: 800_000,
            net_hosts: 200_000,
            mean_degree: 3.0,
            hub_fraction: 0.05,
            bidir_probability: 0.85,
            networks: 2_000,
            arpa_net_fraction: 0.25,
            domains: 6,
            alias_fraction: 0.05,
            collisions: 8,
            dead_fraction: 0.01,
            files: 200,
        };
        e17_world("1M hosts (200 region files)", &million);
    } else {
        println!("(set PATHALIAS_MILLION=1 to also measure the 1M-host world)");
    }

    fn e17_world(label: &str, spec: &MapSpec) {
        let world = ReloadWorld::new(spec, "e17");
        let (source, cache) = world.delta_source();
        let (_, cold_ms) = time(|| source.load_serving_timed().unwrap());

        let mut flip = false;
        let before = cache.delta_reloads();
        let delta_ms = time_med(5, || {
            flip = !flip;
            world.toggle(flip);
            source.load_serving_timed().unwrap()
        });
        assert!(
            cache.delta_reloads() >= before + 5,
            "a timed reload fell back to the full pipeline"
        );

        let full_ms = time_med(3, || {
            flip = !flip;
            world.toggle(flip);
            let (cold, _) = world.delta_source();
            cold.load_serving_timed().unwrap()
        });

        println!(
            "{label}: cold start {cold_ms:.1} ms, full reload {full_ms:.1} ms, \
delta reload {delta_ms:.2} ms ({:.1}x faster)",
            full_ms / delta_ms
        );
    }
}
