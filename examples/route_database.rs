//! The route database life cycle: generate, index on disk, query.
//!
//! "Output from pathalias is a simple linear file, in the UNIX
//! tradition. If desired, a separate program may be used to convert
//! this file into a format appropriate for rapid database retrieval."
//! This example plays the role of that separate program.
//!
//! Run with: `cargo run --release --example route_database`

use pathalias::mailer::disk::{write_db, MappedDb};
use pathalias::{Pathalias, Resolver, RouteDb};

fn main() {
    let map = "\
home hub(DEMAND), backup(DAILY)
hub seismo(WEEKLY), decvax(HOURLY)
backup decvax(EVENING), seismo(DAILY)
seismo mcvax(DAILY)
decvax newsite(HOURLY)
";

    let mut pa = Pathalias::new();
    pa.options_mut().local = Some("home".into());
    pa.options_mut().with_costs = true;
    pa.parse_str("map", map).unwrap();
    let out = pa.run().unwrap();

    // 1. Build the fast-retrieval database from the output.
    let db = RouteDb::from_output(&out.rendered).unwrap();
    let path = std::env::temp_dir().join(format!("routes-{}.padb", std::process::id()));
    write_db(&db, &path).unwrap();
    let disk = MappedDb::open(&path).unwrap();
    println!(
        "# wrote {} routes to {} ({} bytes)",
        disk.entries(),
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );

    // 2. Mailer-side lookups straight off the disk index.
    for dest in ["mcvax", "newsite", "seismo"] {
        let route = disk.resolve(dest, "user").unwrap().route;
        println!("route to {dest:<8} {route}");
    }

    std::fs::remove_file(path).unwrap();
}
