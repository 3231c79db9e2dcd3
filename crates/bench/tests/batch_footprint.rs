//! The batch run's peak heap, counted by the allocator: the driver
//! the `pathalias` CLI calls (`Pathalias::write_routes`) moves the
//! build graph into its snapshot, frees each stage once the next
//! exists and streams its routes, so its peak stays below the build
//! graph plus the route file twice over (once in the render's arena,
//! once written), which running first and writing the rendered text
//! afterwards (`Pathalias::run`) passes by far: it holds the build
//! graph, a copy of its snapshot, the tree and every copy of the
//! routes at once.
//!
//! The counting allocator is process-wide, so this binary holds one
//! test.

use pathalias_arena::counting::{reset_peak, snapshot, CountingAlloc};
use pathalias_core::{Options, Pathalias, Sort};
use pathalias_mapgen::{generate, GeneratedMap, MapSpec};
use std::io::Write;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A driver with every file of `map` parsed.
fn parsed(map: &GeneratedMap, options: &Options) -> Pathalias {
    let mut pa = Pathalias::with_options(options.clone());
    for (name, text) in &map.files {
        pa.parse_str(name, text).unwrap();
    }
    pa
}

/// `map` parsed with `options`, the build graph's live bytes, and the
/// peak heap `run` reaches on the driver, both counted above the bytes
/// live before parsing (the map texts).
fn peak_of<T>(
    map: &GeneratedMap,
    options: &Options,
    run: impl FnOnce(Pathalias) -> T,
) -> (T, usize, usize) {
    let before = snapshot().live();
    let pa = parsed(map, options);
    let graph = snapshot().live() - before;
    reset_peak();
    let out = run(pa);
    (out, graph, snapshot().peak - before)
}

#[test]
fn the_batch_run_peaks_below_the_linked_graph_plus_its_routes_twice() {
    let map = generate(&MapSpec::small(20_000, 1));
    for (with_costs, sort) in [(false, Sort::ByCost), (true, Sort::ByName)] {
        let options = Options {
            local: Some(map.home.clone()),
            with_costs,
            sort,
            ..Options::default()
        };

        let (written, graph, streamed) = peak_of(&map, &options, |pa| {
            let mut out = Vec::new();
            pa.write_routes(&mut out).unwrap();
            out
        });
        // Run, then write the rendered text: the sequence the CLI
        // used before the driver streamed.
        let (rendered, _, whole) = peak_of(&map, &options, |mut pa| {
            let rendered = pa.run().unwrap().rendered;
            let mut out = Vec::new();
            out.write_all(rendered.as_bytes()).unwrap();
            rendered
        });
        assert_eq!(written, rendered.as_bytes(), "-c {with_costs} {sort:?}");

        let bound = graph + 2 * rendered.len();
        let mb = |b: usize| b as f64 / 1e6;
        eprintln!(
            "-c {with_costs} {sort:?}: graph {:.2} MB, routes {:.2} MB; \
             peak streamed {:.2} MB, run then written {:.2} MB",
            mb(graph),
            mb(rendered.len()),
            mb(streamed),
            mb(whole)
        );
        assert!(
            streamed < bound,
            "the batch run peaked at {streamed} B, over the graph's {graph} B \
             plus twice {} B of routes",
            rendered.len()
        );
        assert!(
            whole > bound,
            "the bound is not tight: running then writing peaked at {whole} B"
        );
    }
}
