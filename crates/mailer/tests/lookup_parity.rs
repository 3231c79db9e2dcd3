//! Every table answers the paper's lookup the same way: `RouteDb`,
//! `SharedRouteDb` and `MappedDb` share one walk (exact name, then each
//! `.suffix` from the longest, then the `.` entry), driven here over
//! generated tables and probes that lean on its edges.

use pathalias_mailer::disk::{write_db, MappedDb};
use pathalias_mailer::{
    DbEntry, Resolution, ResolveError, ResolvedVia, Resolver, RouteDb, SharedRouteDb,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Labels from a small alphabet (so probes hit entries often) joined by
/// dots, optionally a domain (leading dot) or with a trailing dot. Two
/// empty labels spell the bare `.`, three spell `..`.
fn name_strategy() -> impl Strategy<Value = String> {
    let label = prop_oneof![
        3 => Just("a"),
        3 => Just("edu"),
        2 => Just("rutgers"),
        2 => Just("é"),
        1 => Just("日本"),
        1 => Just(""),
    ];
    let labels = proptest::collection::vec(label, 1..5);
    (labels, any::<bool>(), any::<bool>()).prop_map(|(labels, domain, trailing)| {
        let dot = |on| if on { "." } else { "" };
        format!("{}{}{}", dot(domain), labels.join("."), dot(trailing))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(128))]

    #[test]
    fn every_backend_resolves_alike(
        names in proptest::collection::vec(name_strategy(), 0..12),
        with_default in any::<bool>(),
        probes in proptest::collection::vec(name_strategy(), 1..12),
    ) {
        // The generator can spell `.` itself; whether the table has a
        // default route is `with_default`'s call alone.
        let mut names: HashSet<String> = names.into_iter().filter(|n| n != ".").collect();
        if with_default {
            names.insert(".".to_string());
        }
        let db = RouteDb::from_entries(names.iter().enumerate().map(|(i, name)| DbEntry {
            name: name.clone(),
            route: format!("r{i}!%s"),
        }));
        let shared = SharedRouteDb::new(db.clone());
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("pathalias-lookup-parity-{}-{case}.padb", std::process::id()));
        write_db(&db, &path).unwrap();
        let mapped = MappedDb::open(&path).unwrap();

        let fixed = [".".to_string(), "..".to_string(), String::new()];
        for probe in probes.iter().chain(&names).chain(&fixed) {
            let want = outcome(db.resolve(probe, "u"));
            prop_assert_eq!(&outcome(shared.resolve(probe, "u")), &want, "shared on {:?}", probe);
            prop_assert_eq!(&outcome(mapped.resolve(probe, "u")), &want, "mapped on {:?}", probe);

            // A suffix hit is a real entry, a tail of the probe, and
            // the longest such tail the table holds.
            if let Some((_, ResolvedVia::DomainSuffix { suffix })) = &want {
                prop_assert!(names.contains(suffix) && probe.ends_with(suffix.as_str()));
                prop_assert!(suffix.len() > 1 && !names.contains(probe));
                let longer = probe
                    .char_indices()
                    .filter(|&(i, c)| c == '.' && probe.len() - i > suffix.len())
                    .any(|(i, _)| names.contains(&probe[i..]));
                prop_assert!(!longer, "{:?} has a longer suffix than {:?}", probe, suffix);
            }
        }
        std::fs::remove_file(path).unwrap();
    }
}
