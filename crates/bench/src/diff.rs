//! Route-table diffing.
//!
//! Map administrators of the era re-ran pathalias on every map update
//! and diffed the output to see what moved. Comparing raw text lines
//! works badly when costs jitter; this module compares route tables
//! structurally and classifies every change.

use pathalias_printer::RouteTable;
use std::collections::HashMap;
use std::fmt;

/// One difference between two route tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteChange {
    /// The destination exists only in the new table.
    Added {
        /// Destination name.
        name: String,
        /// Its new route.
        route: String,
    },
    /// The destination exists only in the old table.
    Removed {
        /// Destination name.
        name: String,
        /// Its old route.
        route: String,
    },
    /// The route string changed (mail now travels differently).
    Rerouted {
        /// Destination name.
        name: String,
        /// Old route.
        old: String,
        /// New route.
        new: String,
    },
    /// Same route, different cost (link weights changed).
    Recosted {
        /// Destination name.
        name: String,
        /// Old cost.
        old: u64,
        /// New cost.
        new: u64,
    },
}

impl fmt::Display for RouteChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteChange::Added { name, route } => write!(f, "+ {name}\t{route}"),
            RouteChange::Removed { name, route } => write!(f, "- {name}\t{route}"),
            RouteChange::Rerouted { name, old, new } => {
                write!(f, "~ {name}\t{old} -> {new}")
            }
            RouteChange::Recosted { name, old, new } => {
                write!(f, "$ {name}\tcost {old} -> {new}")
            }
        }
    }
}

/// Compares two route tables (visible entries only), returning changes
/// sorted by destination name.
pub fn diff(old: &RouteTable, new: &RouteTable) -> Vec<RouteChange> {
    let old_map: HashMap<&str, (&str, u64)> = old
        .visible()
        .map(|r| (r.name.as_str(), (r.route.as_str(), r.cost)))
        .collect();
    let new_map: HashMap<&str, (&str, u64)> = new
        .visible()
        .map(|r| (r.name.as_str(), (r.route.as_str(), r.cost)))
        .collect();

    let mut changes = Vec::new();
    for (name, (route, cost)) in &new_map {
        match old_map.get(name) {
            None => changes.push(RouteChange::Added {
                name: name.to_string(),
                route: route.to_string(),
            }),
            Some((old_route, old_cost)) => {
                if old_route != route {
                    changes.push(RouteChange::Rerouted {
                        name: name.to_string(),
                        old: old_route.to_string(),
                        new: route.to_string(),
                    });
                } else if old_cost != cost {
                    changes.push(RouteChange::Recosted {
                        name: name.to_string(),
                        old: *old_cost,
                        new: *cost,
                    });
                }
            }
        }
    }
    for (name, (route, _)) in &old_map {
        if !new_map.contains_key(name) {
            changes.push(RouteChange::Removed {
                name: name.to_string(),
                route: route.to_string(),
            });
        }
    }
    changes.sort_by(|a, b| key_of(a).cmp(key_of(b)));
    changes
}

fn key_of(c: &RouteChange) -> &str {
    match c {
        RouteChange::Added { name, .. }
        | RouteChange::Removed { name, .. }
        | RouteChange::Rerouted { name, .. }
        | RouteChange::Recosted { name, .. } => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mapper::{map, MapOptions};
    use pathalias_parser::parse;
    use pathalias_printer::compute_routes;

    fn table(text: &str, source: &str) -> RouteTable {
        let g = parse(text).unwrap();
        let s = g.try_node(source).unwrap();
        let tree = map(&g, s, &MapOptions::default()).unwrap();
        compute_routes(&tree)
    }

    #[test]
    fn identical_tables_no_changes() {
        let a = table("a b(10)\nb c(10)\n", "a");
        let b = table("a b(10)\nb c(10)\n", "a");
        assert!(diff(&a, &b).is_empty());
    }

    #[test]
    fn classification() {
        let old = table("a b(10)\nb c(10)\na gone(5)\n", "a");
        // c now routed directly; gone disappears; fresh appears; b
        // costs more.
        let new = table("a b(25)\na c(12)\na fresh(7)\n", "a");
        let changes = diff(&old, &new);
        assert!(changes
            .iter()
            .any(|c| matches!(c, RouteChange::Added { name, .. } if name == "fresh")));
        assert!(changes
            .iter()
            .any(|c| matches!(c, RouteChange::Removed { name, .. } if name == "gone")));
        assert!(changes.iter().any(|c| matches!(
            c,
            RouteChange::Rerouted { name, new, .. } if name == "c" && new == "c!%s"
        )));
        assert!(changes.iter().any(|c| matches!(
            c,
            RouteChange::Recosted { name, old: 10, new: 25 } if name == "b"
        )));
    }

    #[test]
    fn sorted_and_displayable() {
        let old = table("a z(10)\n", "a");
        let new = table("a b(10)\n", "a");
        let changes = diff(&old, &new);
        let lines: Vec<String> = changes.iter().map(|c| c.to_string()).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("+ b"), "{lines:?}");
        assert!(lines[1].starts_with("- z"), "{lines:?}");
    }
}
