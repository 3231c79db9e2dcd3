//! The serving handle passes every lookup straight through: `Cached`
//! over the in-memory table and over a PADB1 file answers exactly what
//! the bare `RouteDb` answers, a snapshot pinned before a `replace`
//! answers from its own generation, and every query is counted once.

use pathalias_mailer::disk::{write_db, MappedDb};
use pathalias_mailer::{
    DbEntry, Resolution, ResolveError, ResolvedVia, Resolver, RouteDb, SharedRouteDb,
};
use pathalias_server::{Cached, Metrics};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A host or domain name from a small alphabet, so probes and domains
/// overlap often: one to three labels, with a leading dot for a domain.
fn name_strategy() -> impl Strategy<Value = String> {
    let label = prop_oneof![Just("a"), Just("edu"), Just("rutgers"), Just("caip")];
    (proptest::collection::vec(label, 1..4), any::<bool>()).prop_map(|(labels, domain)| {
        let dot = if domain { "." } else { "" };
        format!("{dot}{}", labels.join("."))
    })
}

/// What a resolver said, in comparable form.
fn outcome(r: Result<Resolution, ResolveError>) -> Option<(String, ResolvedVia)> {
    match r {
        Ok(hit) => Some((hit.route, hit.via)),
        Err(ResolveError::NoRoute) => None,
        Err(e) => panic!("resolver failed: {e}"),
    }
}

/// One table over `names`, each entry's route tagged with `tag`.
fn table(names: &BTreeSet<String>, tag: &str) -> RouteDb {
    RouteDb::from_entries(names.iter().enumerate().map(|(i, name)| DbEntry {
        name: name.clone(),
        route: format!("{tag}{i}!%s"),
    }))
}

/// Every host a mailer might ask about this table: the names
/// themselves, hosts inside each domain, misses, stray dots, empty
/// labels, a lone `.` and upper case.
fn probes(names: &BTreeSet<String>, misses: &[String]) -> Vec<String> {
    let mut probes: Vec<String> = [".", "", "..", "nowhere", "x.nowhere"]
        .iter()
        .map(|p| p.to_string())
        .collect();
    for name in names.iter().chain(misses) {
        let bare = name.trim_start_matches('.');
        probes.extend([
            name.clone(),
            format!("x.{bare}"),
            format!("y.x.{bare}"),
            format!(".{bare}"),
            format!("{bare}."),
            format!("x..{bare}"),
            name.to_ascii_uppercase(),
        ]);
    }
    probes
}

/// Every query was counted, and counted as exactly one outcome.
fn counted_once(metrics: &Metrics, asked: usize) {
    let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let queries = get(&metrics.queries);
    assert_eq!(queries as usize, asked);
    assert_eq!(
        queries,
        get(&metrics.hits) + get(&metrics.misses) + get(&metrics.resolve_errors)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn cached_backends_answer_as_the_bare_table(
        entries in proptest::collection::vec(name_strategy(), 0..10),
        with_default in any::<bool>(),
        misses in proptest::collection::vec(name_strategy(), 0..4),
    ) {
        // No name twice: duplicate names are a separate question.
        let mut names: BTreeSet<String> = entries.into_iter().collect();
        if with_default {
            names.insert(".".to_string());
        }
        let db = table(&names, "r");

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("pathalias-passthrough-{}-{case}.padb", std::process::id()));
        write_db(&db, &path).unwrap();
        let mapped = Cached::new(MappedDb::open(&path).unwrap(), 0, 0, Arc::default());
        let shared = Cached::new(SharedRouteDb::new(db.clone()), 0, 0, Arc::default());
        prop_assert_eq!(Resolver::entries(&shared), db.len());
        prop_assert_eq!(Resolver::entries(&mapped), db.len());

        let probes = probes(&names, &misses);
        let pinned = shared.snapshot();
        for probe in &probes {
            let want = outcome(db.resolve(probe, "u"));
            prop_assert_eq!(&outcome(shared.resolve(probe, "u")), &want, "shared on {:?}", probe);
            prop_assert_eq!(&outcome(mapped.resolve(probe, "u")), &want, "mapped on {:?}", probe);
        }
        counted_once(shared.metrics(), probes.len());
        counted_once(mapped.metrics(), probes.len());

        // A new generation serves new routes; the pinned snapshot keeps
        // answering from the table it was taken on.
        let next = table(&names, "s");
        let (generation, displaced) = shared.replace(SharedRouteDb::new(next.clone()));
        prop_assert_eq!(generation, 1);
        prop_assert!(Arc::ptr_eq(&pinned, &displaced));
        for probe in &probes {
            let old = outcome(shared.resolve_at(&pinned, probe, "u"));
            prop_assert_eq!(&old, &outcome(db.resolve(probe, "u")), "pinned on {:?}", probe);
            let new = outcome(shared.resolve(probe, "u"));
            prop_assert_eq!(&new, &outcome(next.resolve(probe, "u")), "current on {:?}", probe);
        }
        counted_once(shared.metrics(), 3 * probes.len());
        drop(mapped);
        std::fs::remove_file(path).unwrap();
    }
}
