//! The route database.
//!
//! "Output from pathalias is a simple linear file, in the UNIX
//! tradition. If desired, a separate program may be used to convert
//! this file into a format appropriate for rapid database retrieval."
//! [`RouteDb`] is that separate program as a library: it ingests the
//! linear file (or a [`RouteTable`] directly) and serves the lookup
//! algorithm the paper specifies for mailers, including the
//! domain-suffix search.
//!
//! [`RouteTable`]: pathalias_core::RouteTable

use crate::resolver::{walk, ResolvedVia};
use pathalias_core::{Cost, RouteTable};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

/// A database entry: one visible pathalias output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbEntry {
    /// Host or domain name (domains begin with `.`).
    pub name: String,
    /// The `printf`-style route; `%s` marks the argument position.
    pub route: String,
    /// The path cost, when the output included costs.
    pub cost: Option<Cost>,
}

/// How a lookup matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchKind {
    /// The name matched an entry exactly.
    Exact,
    /// A domain suffix matched (`caip.rutgers.edu` found via `.edu`);
    /// the argument must carry the full destination.
    DomainSuffix(String),
    /// The `.` default-route entry matched (smail's "smart path"
    /// convention: a bare-dot entry catches everything the table does
    /// not know); the argument carries the full destination.
    Default,
}

/// A successful lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup<'a> {
    /// The matching entry.
    pub entry: &'a DbEntry,
    /// How it matched.
    pub kind: MatchKind,
}

/// Errors from loading a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A line was not `name<TAB>route` or `cost<TAB>name<TAB>route`.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A route lacked the `%s` marker.
    NoMarker {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::BadLine { line, text } => write!(f, "line {line}: malformed `{text}`"),
            DbError::NoMarker { line, text } => {
                write!(f, "line {line}: route without %s marker `{text}`")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// An in-memory route database with the paper's lookup semantics.
#[derive(Debug, Clone, Default)]
pub struct RouteDb {
    entries: HashMap<String, DbEntry>,
}

impl RouteDb {
    /// Loads a database from pathalias output text. Lines may be
    /// `name\troute` or `cost\tname\troute`; `#`-prefixed lines (the
    /// printer's hidden-entry debug format) are skipped.
    pub fn from_output(text: &str) -> Result<RouteDb, DbError> {
        let mut entries = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split('\t').collect();
            let (cost, name, route) = match fields.as_slice() {
                [name, route] => (None, *name, *route),
                [cost, name, route] => {
                    let c = cost.parse::<Cost>().map_err(|_| DbError::BadLine {
                        line,
                        text: raw.to_string(),
                    })?;
                    (Some(c), *name, *route)
                }
                _ => {
                    return Err(DbError::BadLine {
                        line,
                        text: raw.to_string(),
                    })
                }
            };
            if !route.contains("%s") {
                return Err(DbError::NoMarker {
                    line,
                    text: raw.to_string(),
                });
            }
            entries.insert(
                name.to_string(),
                DbEntry {
                    name: name.to_string(),
                    route: route.to_string(),
                    cost,
                },
            );
        }
        Ok(RouteDb { entries })
    }

    /// Builds a database from already-parsed entries (used by the disk
    /// reader and the serving layer). Later duplicates win, as in
    /// [`RouteDb::from_output`].
    pub fn from_entries(entries: impl IntoIterator<Item = DbEntry>) -> RouteDb {
        RouteDb {
            entries: entries.into_iter().map(|e| (e.name.clone(), e)).collect(),
        }
    }

    /// Builds a database straight from the printer's route table
    /// (visible entries only, as in the output file).
    pub fn from_table(table: &RouteTable) -> RouteDb {
        let entries = table
            .visible()
            .map(|r| {
                (
                    r.name.clone(),
                    DbEntry {
                        name: r.name.clone(),
                        route: r.route.clone(),
                        cost: Some(r.cost),
                    },
                )
            })
            .collect();
        RouteDb { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact-name fetch.
    pub fn get(&self, name: &str) -> Option<&DbEntry> {
        self.entries.get(name)
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &DbEntry> {
        self.entries.values()
    }

    /// The paper's mailer lookup: exact name first; for dotted names,
    /// progressively broader domain suffixes (`caip.rutgers.edu`, then
    /// `.rutgers.edu`, then `.edu`); finally the `.` default-route
    /// entry, if the table has one.
    pub fn lookup(&self, dest: &str) -> Option<Lookup<'_>> {
        let (entry, via) = self.find(dest)?;
        let kind = match via {
            ResolvedVia::Exact => MatchKind::Exact,
            ResolvedVia::DomainSuffix { suffix } => MatchKind::DomainSuffix(suffix),
            ResolvedVia::DefaultRoute => MatchKind::Default,
        };
        Some(Lookup { entry, kind })
    }

    /// [`RouteDb::lookup`] in the [`Resolver`](crate::Resolver)'s
    /// vocabulary: the shared walk over this table.
    #[inline]
    pub(crate) fn find(&self, dest: &str) -> Option<(&DbEntry, ResolvedVia)> {
        match walk(dest, |name| Ok::<_, Infallible>(self.entries.get(name))) {
            Ok(hit) => hit,
            Err(never) => match never {},
        }
    }

    /// Produces the complete route for mail to `user` at `dest`,
    /// instantiating the format string. For a domain-suffix match "the
    /// argument here is not [the user], it is
    /// `caip.rutgers.edu!pleasant`".
    pub fn route_to(&self, dest: &str, user: &str) -> Option<String> {
        let hit = self.lookup(dest)?;
        let arg = match &hit.kind {
            MatchKind::Exact => user.to_string(),
            MatchKind::DomainSuffix(_) | MatchKind::Default => format!("{dest}!{user}"),
        };
        Some(hit.entry.route.replacen("%s", &arg, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's mailer example: routes as seen from a host whose
    /// route to seismo is `seismo!%s`, with `.edu` gatewayed there.
    fn paper_db() -> RouteDb {
        RouteDb::from_output(
            "seismo\tseismo!%s\n.edu\tseismo!%s\ncaip.rutgers.edu\tseismo!caip.rutgers.edu!%s\n",
        )
        .unwrap()
    }

    #[test]
    fn exact_match_uses_user_argument() {
        let db = paper_db();
        assert_eq!(
            db.route_to("caip.rutgers.edu", "pleasant").unwrap(),
            "seismo!caip.rutgers.edu!pleasant"
        );
    }

    #[test]
    fn suffix_match_carries_full_destination() {
        // Remove the exact entry; the .edu gateway must produce the
        // same final route, per the paper's worked example.
        let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
        let hit = db.lookup("caip.rutgers.edu").unwrap();
        assert_eq!(hit.kind, MatchKind::DomainSuffix(".edu".to_string()));
        assert_eq!(
            db.route_to("caip.rutgers.edu", "pleasant").unwrap(),
            "seismo!caip.rutgers.edu!pleasant"
        );
    }

    #[test]
    fn suffix_search_prefers_longest() {
        let db = RouteDb::from_output(".edu\tgw1!%s\n.rutgers.edu\tgw2!%s\n").unwrap();
        let hit = db.lookup("caip.rutgers.edu").unwrap();
        assert_eq!(hit.kind, MatchKind::DomainSuffix(".rutgers.edu".into()));
        assert_eq!(hit.entry.route, "gw2!%s");
    }

    #[test]
    fn default_route_is_the_last_resort() {
        let db = RouteDb::from_output(".edu\tgw!%s\n.\tsmart!%s\n").unwrap();
        // Suffix still wins for names it covers.
        let hit = db.lookup("x.edu").unwrap();
        assert_eq!(hit.kind, MatchKind::DomainSuffix(".edu".into()));
        // Everything else falls through to the bare-dot entry, with
        // the argument carrying the full destination (as for suffixes).
        let hit = db.lookup("unknown-host").unwrap();
        assert_eq!(hit.kind, MatchKind::Default);
        assert_eq!(
            db.route_to("unknown-host", "u").unwrap(),
            "smart!unknown-host!u"
        );
        assert_eq!(
            db.route_to("deep.x.gov", "u").unwrap(),
            "smart!deep.x.gov!u"
        );
        // A trailing-dot name must not let the default entry pose as a
        // domain suffix.
        let hit = db.lookup("oddname.").unwrap();
        assert_eq!(hit.kind, MatchKind::Default);
    }

    #[test]
    fn unknown_destination() {
        let db = paper_db();
        assert!(db.lookup("nowhere").is_none());
        assert!(db.route_to("nowhere", "u").is_none());
        assert!(db.lookup("x.nowhere.com").is_none());
    }

    #[test]
    fn parses_costed_output() {
        let db = RouteDb::from_output("0\tunc\t%s\n500\tduke\tduke!%s\n").unwrap();
        assert_eq!(db.get("duke").unwrap().cost, Some(500));
        assert_eq!(db.route_to("duke", "fred").unwrap(), "duke!fred");
    }

    #[test]
    fn skips_comments_and_blanks() {
        let db = RouteDb::from_output("# hidden\n\nunc\t%s\n").unwrap();
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn bad_lines_error() {
        let e = RouteDb::from_output("just-one-field\n").unwrap_err();
        assert!(matches!(e, DbError::BadLine { line: 1, .. }));
        let e = RouteDb::from_output("host\tno-marker-here\n").unwrap_err();
        assert!(matches!(e, DbError::NoMarker { .. }));
        let e = RouteDb::from_output("notacost\thost\t%s\n").unwrap_err();
        assert!(matches!(e, DbError::BadLine { .. }));
    }

    #[test]
    fn from_table_matches_rendered_output() {
        use pathalias_core::Pathalias;
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("unc".into());
        pa.parse_str("m", "unc duke(500)\nduke phs(300)\n").unwrap();
        let out = pa.run().unwrap();
        let db1 = RouteDb::from_table(&out.routes);
        let db2 = RouteDb::from_output(&out.rendered).unwrap();
        assert_eq!(db1.len(), db2.len());
        assert_eq!(db1.route_to("phs", "u"), db2.route_to("phs", "u"));
        assert_eq!(db1.route_to("phs", "u").unwrap(), "duke!phs!u");
    }
}
