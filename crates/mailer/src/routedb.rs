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
//! # Layout
//!
//! A database is a vector of hash sets, *shards*, each behind an
//! `Arc`. A name's shard is a cheap fold of its bytes, and there are
//! enough shards that each holds at most `SHARD` (256) entries on
//! average.
//! A shard finds an entry by the entry's own name, so each name is
//! stored once, beside its route. An exact lookup reads what a single
//! table would, plus one shard header that stays in cache.
//!
//! The point is the next generation. A daemon's reload after a cost
//! edit moves a few dozen routes of a hundred thousand;
//! [`RouteDb::patched`] builds the database for the updated table by
//! cloning the shard pointers and copying only the shards that hold a
//! moved route. Both generations then share every untouched shard, and
//! freeing the old one frees only what the edit replaced. (Slots in
//! fixed-size chunks behind a name index share as well, but put a
//! second dependent load on every lookup: `MQUERY` got 5% slower.)
//!
//! [`RouteTable`]: pathalias_core::RouteTable

use crate::resolver::{walk, ResolvedVia};
use pathalias_core::{Cost, Route, RouteTable};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::convert::Infallible;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Entries per shard, at most on average: what one moved route costs a
/// patch to copy.
const SHARD: usize = 256;

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
    /// The entries, split by name into a power-of-two number of shards
    /// by [`shard_of`].
    shards: Vec<Arc<Shard>>,
    /// Distinct names across all shards.
    len: usize,
}

/// An entry and its position in the input it was built from (for a
/// duplicate name, the last position wins, as a map insert would).
/// Hashed and compared by name alone, so that a shard is a set a name
/// looks up: the name is stored once, beside its route.
#[derive(Debug, Clone)]
struct Slot {
    entry: DbEntry,
    at: usize,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Slot) -> bool {
        self.entry.name == other.entry.name
    }
}

impl Eq for Slot {}

impl Hash for Slot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entry.name.hash(state);
    }
}

impl Borrow<str> for Slot {
    fn borrow(&self) -> &str {
        &self.entry.name
    }
}

impl RouteDb {
    /// Loads a database from pathalias output text. Lines may be
    /// `name\troute` or `cost\tname\troute`; `#`-prefixed lines (the
    /// printer's hidden-entry debug format) are skipped.
    pub fn from_output(text: &str) -> Result<RouteDb, DbError> {
        let mut entries = Vec::new();
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
            entries.push(DbEntry {
                name: name.to_string(),
                route: route.to_string(),
                cost,
            });
        }
        Ok(RouteDb::from_entries(entries))
    }

    /// Builds a database from already-parsed entries (used by the disk
    /// reader and the serving layer). Later duplicates win, as in
    /// [`RouteDb::from_output`].
    pub fn from_entries(entries: impl IntoIterator<Item = DbEntry>) -> RouteDb {
        let entries: Vec<DbEntry> = entries.into_iter().collect();
        let shards = sized_shards(entries.iter().map(|e| e.name.as_str()));
        RouteDb::fill(shards, entries.into_iter().enumerate())
    }

    /// Builds a database straight from the printer's route table
    /// (visible entries only, as in the output file). Each entry
    /// remembers its table position for [`RouteDb::patched`].
    pub fn from_table(table: &RouteTable) -> RouteDb {
        let visible = || {
            let entries = table.entries.iter().enumerate();
            entries.filter(|(_, r)| r.kind.is_visible())
        };
        let shards = sized_shards(visible().map(|(_, r)| r.name.as_str()));
        RouteDb::fill(shards, visible().map(|(at, r)| (at, db_entry(r))))
    }

    /// Files each `(position, entry)` in its shard.
    fn fill(mut shards: Vec<Shard>, slots: impl Iterator<Item = (usize, DbEntry)>) -> RouteDb {
        let n = shards.len();
        for (at, entry) in slots {
            shards[shard_of(&entry.name, n)].replace(Slot { entry, at });
        }
        RouteDb {
            len: shards.iter().map(Shard::len).sum(),
            shards: shards.into_iter().map(Arc::new).collect(),
        }
    }

    /// The database for `table` after [`update_routes`] replaced the
    /// entries in `replaced` (each with its position in
    /// `table.entries`), given that `self` was built from the table
    /// before the update by [`RouteDb::from_table`] or an earlier
    /// patch. Every shard without a replaced entry is shared with
    /// `self`; only the shards holding one are copied.
    ///
    /// Returns `None` when a replaced entry changed its name or became
    /// visible or hidden (a re-parented domain member, say). Build
    /// afresh with [`RouteDb::from_table`] then.
    ///
    /// [`update_routes`]: pathalias_core::update_routes
    pub fn patched(&self, table: &RouteTable, replaced: &[(usize, Route)]) -> Option<RouteDb> {
        let mut shards = self.shards.clone();
        for (at, old) in replaced {
            let new = table.entries.get(*at)?;
            if new.name != old.name || new.kind.is_visible() != old.kind.is_visible() {
                return None;
            }
            if !new.kind.is_visible() {
                continue;
            }
            let n = shards.len();
            let shard = Arc::make_mut(&mut shards[shard_of(&new.name, n)]);
            // Otherwise a later entry of the same name shadows this
            // one, before the update and after it.
            if shard.get(new.name.as_str())?.at == *at {
                let entry = db_entry(new);
                shard.replace(Slot { entry, at: *at });
            }
        }
        Some(RouteDb {
            shards,
            len: self.len,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact-name fetch.
    #[inline]
    pub fn get(&self, name: &str) -> Option<&DbEntry> {
        let shard = self.shards.get(shard_of(name, self.shards.len()))?;
        shard.get(name).map(|slot| &slot.entry)
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &DbEntry> {
        self.shards
            .iter()
            .flat_map(|shard| shard.iter().map(|slot| &slot.entry))
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
        match walk(dest, |name| Ok::<_, Infallible>(self.get(name))) {
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

/// Which of `n` shards (a power of two) holds `name`: its length and
/// its first and last eight bytes, multiplied together. Independent of
/// [`NameHasher`], so that the names in one shard still spread over
/// that shard's buckets.
#[inline]
fn shard_of(name: &str, n: usize) -> usize {
    let b = name.as_bytes();
    let (head, tail) = match b.len() {
        0..=7 => (word(b), 0),
        len => (word(&b[..8]), word(&b[len - 8..])),
    };
    let h = (head ^ tail.rotate_left(29) ^ b.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize & (n.max(1) - 1)
}

/// Up to eight bytes as one word.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |w, &x| w << 8 | u64::from(x))
}

/// The shard maps' hasher: a multiply-rotate over eight bytes at a
/// time, several times cheaper than std's SipHash on host names. Its
/// keys come from the map files the operator serves, and lookups never
/// insert, so nothing an outsider sends can crowd a shard.
#[derive(Default)]
struct NameHasher(u64);

impl NameHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.add(word(rest));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One shard: slots, found by name.
type Shard = HashSet<Slot, BuildHasherDefault<NameHasher>>;

/// Empty shards for `names`, about [`SHARD`] to a shard, each sized for
/// exactly the names it will hold: shards that grew by doubling would
/// leave the heap full of the tables they outgrew.
fn sized_shards<'a>(names: impl Iterator<Item = &'a str> + Clone) -> Vec<Shard> {
    let n = names.clone().count().div_ceil(SHARD).next_power_of_two();
    let mut sizes = vec![0; n];
    for name in names {
        sizes[shard_of(name, n)] += 1;
    }
    let sized = |k| Shard::with_capacity_and_hasher(k, Default::default());
    sizes.into_iter().map(sized).collect()
}

/// A route as the database keeps it.
fn db_entry(r: &Route) -> DbEntry {
    DbEntry {
        name: r.name.clone(),
        route: r.route.clone(),
        cost: Some(r.cost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_core::RouteKind;

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

    /// A star of `n` spokes from `hub`, mapped and printed.
    fn star_table(n: usize) -> RouteTable {
        use pathalias_core::Pathalias;
        let spokes: Vec<String> = (0..n).map(|i| format!("s{i}({})", 10 + i % 7)).collect();
        let mut pa = Pathalias::new();
        pa.options_mut().local = Some("hub".into());
        pa.parse_str("m", &format!("hub {}\n", spokes.join(", ")))
            .unwrap();
        pa.run().unwrap().routes
    }

    /// Rewrites the route of each entry in `at` as `update_routes`
    /// would, returning what it replaced.
    fn reroute(table: &mut RouteTable, at: &[usize]) -> Vec<(usize, Route)> {
        let moved = |r: &Route| Route {
            route: format!("relay!{}", r.route),
            cost: r.cost + 1,
            ..r.clone()
        };
        let new: Vec<Route> = at.iter().map(|&i| moved(&table.entries[i])).collect();
        at.iter()
            .zip(new)
            .map(|(&i, r)| (i, std::mem::replace(&mut table.entries[i], r)))
            .collect()
    }

    #[test]
    fn patch_shares_every_untouched_shard() {
        let mut table = star_table(5 * SHARD);
        let old = RouteDb::from_table(&table);
        assert_eq!(old.shards.len(), 8);
        let at = [3, SHARD + 1, SHARD + 2, 4 * SHARD + 9];
        let replaced = reroute(&mut table, &at);
        let new = old.patched(&table, &replaced).expect("names unchanged");
        let copied = (0..old.shards.len())
            .filter(|&s| !Arc::ptr_eq(&old.shards[s], &new.shards[s]))
            .count();
        let touched: std::collections::HashSet<usize> = at
            .iter()
            .map(|&i| shard_of(&table.entries[i].name, old.shards.len()))
            .collect();
        assert_eq!(copied, touched.len());
        assert!(copied <= at.len());

        // Indistinguishable from a database built afresh.
        let fresh = RouteDb::from_table(&table);
        assert_eq!(new.len(), fresh.len());
        let mut a: Vec<&DbEntry> = new.iter().collect();
        let mut b: Vec<&DbEntry> = fresh.iter().collect();
        a.sort_by(|x, y| x.name.cmp(&y.name));
        b.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(a, b);
        for r in table.visible() {
            assert_eq!(new.get(&r.name), fresh.get(&r.name));
        }
        let name = &table.entries[3].name;
        assert_eq!(new.route_to(name, "u").unwrap(), format!("relay!{name}!u"));
        // The old generation still answers as it did.
        assert_eq!(old.route_to(name, "u").unwrap(), format!("{name}!u"));
    }

    #[test]
    fn patch_refuses_a_renamed_or_hidden_entry() {
        let mut table = star_table(10);
        let old = RouteDb::from_table(&table);
        let renamed = Route {
            name: "renamed".into(),
            ..table.entries[4].clone()
        };
        let was = std::mem::replace(&mut table.entries[4], renamed);
        assert!(old.patched(&table, &[(4, was.clone())]).is_none());
        table.entries[4] = Route {
            kind: RouteKind::Private,
            ..was.clone()
        };
        assert!(old.patched(&table, &[(4, was)]).is_none());
    }

    #[test]
    fn a_shadowed_duplicate_stays_shadowed() {
        // Two visible entries named `dup`: the later one is served, and
        // still is after the earlier one moves.
        let mut table = star_table(10);
        for i in [2, 6] {
            table.entries[i].name = "dup".into();
        }
        let old = RouteDb::from_table(&table);
        let served = old.get("dup").cloned();
        let replaced = reroute(&mut table, &[2]);
        let new = old.patched(&table, &replaced).expect("names unchanged");
        assert_eq!(new.get("dup").cloned(), served);
        assert_eq!(new.get("dup"), RouteDb::from_table(&table).get("dup"));
        let replaced = reroute(&mut table, &[6]);
        let new = new.patched(&table, &replaced).expect("names unchanged");
        assert_eq!(new.get("dup"), RouteDb::from_table(&table).get("dup"));
    }
}
