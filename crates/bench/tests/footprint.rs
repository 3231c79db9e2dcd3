//! What a serving daemon's route database and name index cost in
//! heap, counted by the allocator: the database keeps each entry's name
//! and route once, plus a bounded overhead per entry, and the frozen
//! graph's name index stays a table of node ids.
//!
//! The counting allocator is process-wide, so this binary holds one
//! test.

use pathalias_arena::counting::{snapshot, CountingAlloc};
use pathalias_core::{render_tree, Options, Parsed};
use pathalias_mailer::RouteDb;
use pathalias_mapgen::{generate, MapSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes per entry a database may spend beyond the entry's name
/// and route: its slot, control byte and empty table positions.
const DB_OVERHEAD_PER_ENTRY: usize = 40;
/// Heap bytes per node the name index may take.
const INDEX_BYTES_PER_NAME: usize = 8;
/// Routes per allocation call, at least, that rendering a tree and
/// building a database from one must reach: the walk allocates only
/// when a buffer grows, never per route.
const ROUTES_PER_ALLOCATION: usize = 100;

#[test]
fn the_database_and_name_index_stay_within_their_budgets() {
    let map = generate(&MapSpec::small(20_000, 1));
    let options = Options {
        local: Some(map.home.clone()),
        ..Options::default()
    };
    let mut parsed = Parsed::new();
    for (name, text) in &map.files {
        parsed.push_str(name, text);
    }
    let frozen = parsed.build(&options).unwrap().freeze();
    let tree = frozen.map(&options).unwrap().tree;

    let routes = tree.mapped_count();
    let before = snapshot();
    let rendered = render_tree(&tree, &options.print_options());
    let render_calls = snapshot().since(&before).calls;
    drop(rendered);

    let before = snapshot();
    let db = RouteDb::from_tree(&tree, &tree.children());
    let after = snapshot();
    let db_calls = after.since(&before).calls;
    let held = after.live() - before.live();
    eprintln!("{routes} routes: render {render_calls} calls, database {db_calls} calls");
    for (what, calls) in [("rendering", render_calls), ("the database", db_calls)] {
        assert!(
            calls * ROUTES_PER_ALLOCATION < routes,
            "{what} made {calls} allocation calls for {routes} routes"
        );
    }
    let text: usize = db.iter().map(|e| e.name.len() + e.route.len()).sum();
    assert!(db.len() > 20_000, "{} entries", db.len());
    assert!(
        held <= text + DB_OVERHEAD_PER_ENTRY * db.len(),
        "{held} B held for {} entries of {text} B: {:.1} B of overhead each",
        db.len(),
        (held - text.min(held)) as f64 / db.len() as f64
    );

    let graph = frozen.graph();
    let index = graph.name_index_bytes();
    assert!(
        index <= INDEX_BYTES_PER_NAME * graph.node_count(),
        "{index} B of name index for {} names",
        graph.node_count()
    );
}
