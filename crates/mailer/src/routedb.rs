//! The route database.
//!
//! "Output from pathalias is a simple linear file, in the UNIX
//! tradition. If desired, a separate program may be used to convert
//! this file into a format appropriate for rapid database retrieval."
//! [`RouteDb`] is that separate program as a library: it ingests the
//! linear file, a [`RouteTable`], or the printer's traversal of a
//! shortest-path tree directly, and serves the lookup algorithm the
//! paper specifies for mailers, including the domain-suffix search.
//!
//! # Layout
//!
//! A database keeps what a lookup serves — each entry's name and
//! route — and nothing else: no cost, no kind, no per-entry
//! allocation. It is a vector of *shards*, each behind an `Arc`; a
//! name's shard is picked by the top half of its hash, and there are
//! enough shards that each holds at most `SHARD` (1,024) entries on
//! average. A shard is three allocations, plus its `Arc`:
//!
//! * an arena, one string holding every entry's name and route side
//!   by side, so each name is stored once, beside its route;
//! * a slot per table position, holding the entry's offsets into the
//!   arena and its key (the node id, for a database built from a
//!   tree);
//! * a control byte per slot: a seven-bit fingerprint of the name's
//!   hash, or empty.
//!
//! The table is open addressing with linear probing, two-thirds full,
//! probed eight control bytes at a time: one word compare finds the
//! fingerprints that match, and only those read their slot and the
//! arena, where the route follows the name. A run of held slots ends
//! at an empty byte, so a miss usually reads one group and nothing
//! else. Every table is built once, at its final size: a build hands
//! over its entries twice, once to size each shard's arena and once to
//! fill it, so a shard costs its four allocations whatever it holds,
//! and no entry allocates.
//!
//! The point of the shards is the next generation. A daemon's reload
//! after a cost edit moves a few dozen routes of a hundred thousand;
//! [`RouteDb::patched`] builds the database for the repaired tree by
//! cloning the shard pointers and rewriting only the shards that hold
//! a moved route. Both generations then share every untouched shard,
//! and freeing the old one frees only what the edit replaced. (Slots
//! in fixed-size chunks behind a name index share as well, but put a
//! second dependent load on every lookup: `MQUERY` got 5% slower.)

use crate::resolver::{walk, ResolvedVia};
use pathalias_core::{
    route_kind, route_name, Children, Cost, Route, RouteKind, RouteTable, RouteWalk,
    ShortestPathTree,
};
use std::convert::Infallible;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Entries per shard, at most on average: what one moved route costs a
/// patch to copy (about 100 KB on `big`, a fraction of a millisecond),
/// against four allocations per shard for a build.
const SHARD: usize = 1024;

/// A database entry: one visible pathalias output line, owned (what
/// [`RouteDb::from_entries`] takes and the PADB1 reader returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbEntry {
    /// Host or domain name (domains begin with `.`).
    pub name: String,
    /// The `printf`-style route; `%s` marks the argument position.
    pub route: String,
}

/// A name or a route, borrowed from a [`RouteDb`]. Derefs to `str`;
/// [`Text::as_str`] keeps the database's lifetime, which a deref
/// cannot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text<'a>(&'a str);

impl<'a> Text<'a> {
    /// The text, borrowed from the database rather than from `self`.
    pub fn as_str(self) -> &'a str {
        self.0
    }
}

impl Deref for Text<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Debug for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl PartialEq<str> for Text<'_> {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Text<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Text<'_> {
    fn eq(&self, other: &String) -> bool {
        self.0 == other
    }
}

/// A database entry, borrowed from the shard that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Host or domain name (domains begin with `.`).
    pub name: Text<'a>,
    /// The `printf`-style route; `%s` marks the argument position.
    pub route: Text<'a>,
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
    pub entry: EntryRef<'a>,
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
#[derive(Clone, Default)]
pub struct RouteDb {
    /// The entries, split by name hash into a power-of-two number of
    /// shards by [`shard_of`].
    shards: Vec<Arc<Shard>>,
    /// Distinct names across all shards.
    len: usize,
}

impl fmt::Debug for RouteDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteDb")
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .field("heap_bytes", &self.heap_bytes())
            .finish()
    }
}

impl RouteDb {
    /// Loads a database from pathalias output text. Lines may be
    /// `name\troute` or `cost\tname\troute` (the cost is checked, not
    /// kept); `#`-prefixed lines (the printer's hidden-entry debug
    /// format) are skipped.
    pub fn from_output(text: &str) -> Result<RouteDb, DbError> {
        let mut entries: Vec<(&str, &str)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let bad = || DbError::BadLine {
                line,
                text: raw.to_string(),
            };
            let fields: Vec<&str> = trimmed.split('\t').collect();
            let entry = match fields.as_slice() {
                [name, route] => (*name, *route),
                [cost, name, route] => {
                    cost.parse::<Cost>().map_err(|_| bad())?;
                    (*name, *route)
                }
                _ => return Err(bad()),
            };
            if !entry.1.contains("%s") {
                return Err(DbError::NoMarker {
                    line,
                    text: raw.to_string(),
                });
            }
            entries.push(entry);
        }
        Ok(RouteDb::pack(entries.len(), |each| {
            for (i, &(name, route)) in entries.iter().enumerate() {
                each(name, route, i as u32);
            }
        }))
    }

    /// Builds a database from already-parsed entries (used by the disk
    /// reader and the serving layer). Later duplicates win, as in
    /// [`RouteDb::from_output`].
    pub fn from_entries(entries: impl IntoIterator<Item = DbEntry>) -> RouteDb {
        let entries: Vec<DbEntry> = entries.into_iter().collect();
        RouteDb::pack(entries.len(), |each| {
            for (i, e) in entries.iter().enumerate() {
                each(&e.name, &e.route, i as u32);
            }
        })
    }

    /// Builds a database from the printer's route table (visible
    /// entries only, as in the output file), each keyed by its node
    /// for [`RouteDb::patched`].
    pub fn from_table(table: &RouteTable) -> RouteDb {
        RouteDb::pack(table.visible().count(), |each| {
            for r in table.visible() {
                each(&r.name, &r.route, r.node.raw());
            }
        })
    }

    /// Builds the database [`RouteDb::from_table`] builds from
    /// `compute_routes(tree)` straight from the printer's traversal,
    /// over `children`, the tree's child lists
    /// ([`ShortestPathTree::children`]): no route table is held, and no
    /// route allocates. The tree is walked twice, once to size each
    /// shard's arena and once to copy each visible route's borrowed
    /// name and route into it; holding every route's bytes between the
    /// walks would cost more memory than the second walk costs time.
    pub fn from_tree(tree: &ShortestPathTree, children: &Children) -> RouteDb {
        let visible = tree
            .frozen()
            .node_ids()
            .filter(|&id| route_kind(tree, id).is_some_and(RouteKind::is_visible))
            .count();
        let mut walk = RouteWalk::new(tree, children);
        RouteDb::pack(visible, |each| {
            walk.for_each(|r| {
                if r.kind.is_visible() {
                    each(r.name, r.route, r.node.raw());
                }
            });
        })
    }

    /// Packs the `count` entries that `entries` hands to its argument
    /// as (name, route, key); a larger key wins a duplicate name.
    /// `entries` is called twice and must hand over the same entries
    /// in the same order: the first pass sizes each shard, the second
    /// copies every entry into its shard's arena at its final size. A
    /// shard's arena, control bytes, slots and `Arc` are four
    /// allocations, whatever it holds.
    fn pack(count: usize, mut entries: impl FnMut(&mut dyn FnMut(&str, &str, u32))) -> RouteDb {
        let n = shards_for(count);
        let mut hashes: Vec<u64> = Vec::with_capacity(count);
        // Each shard's entries and bytes.
        let mut sizes = vec![(0usize, 0usize); n];
        entries(&mut |name, route, _| {
            let h = hash(name.as_bytes());
            let size = &mut sizes[shard_of(h, n)];
            size.0 += 1;
            size.1 += name.len() + route.len();
            hashes.push(h);
        });
        let mut texts: Vec<String> = sizes
            .iter()
            .map(|&(_, bytes)| String::with_capacity(bytes))
            .collect();
        // Each shard's run of staged slots, in shard order.
        let mut starts = vec![0usize; n + 1];
        for (s, &(entries, _)) in sizes.iter().enumerate() {
            starts[s + 1] = starts[s] + entries;
        }

        let mut staged = vec![(0u64, VACANT); hashes.len()];
        let mut next = starts[..n].to_vec();
        let mut hashes = hashes.into_iter();
        entries(&mut |name, route, key| {
            let h = hashes
                .next()
                .expect("the second pass hands over what the first did");
            let s = shard_of(h, n);
            let text = &mut texts[s];
            staged[next[s]] = (
                h,
                Slot {
                    key,
                    off: arena_offset(text.len()),
                    name_len: arena_offset(name.len()),
                    route_len: arena_offset(route.len()),
                },
            );
            next[s] += 1;
            text.push_str(name);
            text.push_str(route);
        });

        let largest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut scratch = Scratch::with_capacity(largest);
        let shards: Vec<Arc<Shard>> = texts
            .into_iter()
            .zip(starts.windows(2))
            .map(|(text, w)| Arc::new(scratch.shard(text, &mut staged[w[0]..w[1]])))
            .collect();
        RouteDb {
            len: shards.iter().map(|s| s.len).sum(),
            shards,
        }
    }

    /// The database for `tree`'s routes after [`update_routes`]
    /// returned `moved` for the repair of `old`, given that `self`
    /// serves `old`'s routes (built by [`RouteDb::from_tree`],
    /// [`RouteDb::from_table`] or an earlier patch). Moved entries are
    /// found by name and matched by node id; every shard without one is
    /// shared with `self`, and only the shards holding one are
    /// rewritten.
    ///
    /// Returns `None` when a moved entry changed its name or became
    /// visible or hidden (a re-parented domain member, say): the name
    /// and visibility it had are read off `old`. Build afresh with
    /// [`RouteDb::from_tree`] then.
    ///
    /// [`update_routes`]: pathalias_core::update_routes
    pub fn patched(&self, old: &ShortestPathTree, moved: &[Route]) -> Option<RouteDb> {
        let n = self.shards.len();
        // (shard, slot, route) for each moved entry this database
        // serves, in shard and slot order.
        let mut writes: Vec<(usize, usize, &Route)> = Vec::new();
        for r in moved {
            let was_visible = route_kind(old, r.node)?.is_visible();
            if was_visible != r.kind.is_visible() || route_name(old, r.node)? != r.name {
                return None;
            }
            if !was_visible {
                continue;
            }
            let h = hash(r.name.as_bytes());
            let s = shard_of(h, n);
            let at = self.shards.get(s)?.find(r.name.as_bytes(), h)?;
            // Otherwise a larger node of the same name shadows this
            // one, before the move and after it.
            if self.shards[s].slots[at].key == r.node.raw() {
                writes.push((s, at, r));
            }
        }
        writes.sort_unstable_by_key(|&(s, at, _)| (s, at));
        let mut shards = self.shards.clone();
        let mut rest = &writes[..];
        while let Some(&(s, _, _)) = rest.first() {
            let k = rest.iter().take_while(|w| w.0 == s).count();
            shards[s] = Arc::new(shards[s].rewritten(&rest[..k]));
            rest = &rest[k..];
        }
        Some(RouteDb {
            shards,
            len: self.len,
        })
    }

    /// How many of this database's shards `old` does not share: the
    /// shards a [`patched`](RouteDb::patched) database rewrote, or all
    /// of a fresh one's.
    pub fn shards_rewritten_since(&self, old: &RouteDb) -> usize {
        let shared = |i: usize, s| old.shards.get(i).is_some_and(|o| Arc::ptr_eq(o, s));
        (self.shards.iter().enumerate())
            .filter(|&(i, s)| !shared(i, s))
            .count()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes of the shards: their arenas, slots and control bytes
    /// (what the daemon reports as `db_bytes`).
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }

    /// Exact-name fetch.
    #[inline]
    pub fn get(&self, name: &str) -> Option<EntryRef<'_>> {
        let h = hash(name.as_bytes());
        let shard = self.shards.get(shard_of(h, self.shards.len()))?;
        let at = shard.find(name.as_bytes(), h)?;
        Some(shard.entry(&shard.slots[at]))
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.shards.iter().flat_map(|shard| {
            let shard = &**shard;
            let held = shard.slots.iter().filter(|s| s.key != VACANT.key);
            held.map(move |slot| shard.entry(slot))
        })
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
    pub(crate) fn find(&self, dest: &str) -> Option<(EntryRef<'_>, ResolvedVia)> {
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

/// A name's hash: a multiply-rotate over eight bytes at a time, folded
/// so that both halves depend on every byte — the top half picks the
/// shard, the bottom half the slot and the fingerprint. Several times
/// cheaper than std's SipHash on host names. Its keys come from the
/// map files the operator serves, and lookups never insert, so nothing
/// an outsider sends can crowd a shard.
#[inline]
fn hash(name: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let len = name.len();
    let word = |at: usize| u64::from_le_bytes(name[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| u32::from_le_bytes(name[at..at + 4].try_into().expect("4 bytes"));
    let mut h = (len as u64).wrapping_mul(K);
    // The last word overlaps the one before it rather than being
    // padded: fixed-size reads, no copy.
    let last = match len {
        0 => 0,
        1..=3 => {
            let b = |at: usize| u64::from(name[at]);
            b(0) | (b(len / 2) << 8) | (b(len - 1) << 16)
        }
        4..=8 => u64::from(half(0)) | (u64::from(half(len - 4)) << 32),
        _ => {
            for at in (0..len - 8).step_by(8) {
                h = (h.rotate_left(5) ^ word(at)).wrapping_mul(K);
            }
            word(len - 8)
        }
    };
    h = (h.rotate_left(5) ^ last).wrapping_mul(K);
    let m = u128::from(h) * 0x9e37_79b9_7f4a_7c15;
    (m >> 64) as u64 ^ m as u64
}

/// Which of `n` shards (a power of two) holds the name hashing to `h`.
#[inline]
fn shard_of(h: u64, n: usize) -> usize {
    (h >> 32) as usize & (n.max(1) - 1)
}

/// How many shards hold `count` entries: about [`SHARD`] to a shard.
fn shards_for(count: usize) -> usize {
    count.div_ceil(SHARD).next_power_of_two()
}

/// Control bytes a probe reads at once.
const GROUP: usize = 8;
/// The control byte of an empty slot; a held slot's is its name's
/// seven-bit fingerprint.
const EMPTY: u8 = 0x80;
/// One in every byte of a group word.
const LSB: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte of a group word.
const MSB: u64 = 0x8080_8080_8080_8080;

/// A name's fingerprint: seven hash bits the slot position does not
/// use.
#[inline]
fn fingerprint(h: u64) -> u8 {
    (h & 0x7f) as u8
}

/// A name's home among `homes` positions: the hash's low half scaled.
#[inline]
fn home(h: u64, homes: usize) -> usize {
    (((h & 0xffff_ffff) * homes as u64) >> 32) as usize
}

/// One shard slot: where its entry sits in the arena, and its key.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The entry's key (its node, or its position in the input);
    /// [`VACANT`]'s marks an empty slot.
    key: u32,
    /// Where the entry starts in the arena: its name, then its route.
    off: u32,
    name_len: u32,
    route_len: u32,
}

/// An empty slot.
const VACANT: Slot = Slot {
    key: u32::MAX,
    off: 0,
    name_len: 0,
    route_len: 0,
};

/// One shard: an arena of entries and the table that finds them.
#[derive(Debug, Clone)]
struct Shard {
    /// Every entry's name and route, back to back.
    text: Box<str>,
    /// One control byte per slot, then a group of [`EMPTY`] ones, so
    /// every probe's group read stays in bounds and ends.
    ctrl: Box<[u8]>,
    /// `homes` home positions, then whatever the last run spilled past
    /// them.
    slots: Box<[Slot]>,
    homes: usize,
    /// Held slots.
    len: usize,
}

impl Shard {
    /// The slot holding `name`, whose hash is `h`.
    #[inline]
    fn find(&self, name: &[u8], h: u64) -> Option<usize> {
        let mut at = home(h, self.homes);
        let wanted = LSB * u64::from(fingerprint(h));
        loop {
            let group = &self.ctrl[at..at + GROUP];
            let group = u64::from_le_bytes(group.try_into().expect("a group"));
            // Bytes equal to the fingerprint, and perhaps a few false
            // ones above them (never an empty byte); the names decide.
            let x = group ^ wanted;
            let mut hits = x.wrapping_sub(LSB) & !x & MSB & !group;
            while hits != 0 {
                let i = at + hits.trailing_zeros() as usize / 8;
                let slot = &self.slots[i];
                let off = slot.off as usize;
                if self.text.as_bytes().get(off..off + slot.name_len as usize) == Some(name) {
                    return Some(i);
                }
                hits &= hits - 1;
            }
            if group & MSB != 0 {
                return None;
            }
            at += GROUP;
        }
    }

    /// The whole entry `slot` points at: its name, then its route.
    fn span(&self, slot: &Slot) -> &str {
        let off = slot.off as usize;
        &self.text[off..off + slot.name_len as usize + slot.route_len as usize]
    }

    #[inline]
    fn entry(&self, slot: &Slot) -> EntryRef<'_> {
        let (name, route) = self.span(slot).split_at(slot.name_len as usize);
        EntryRef {
            name: Text(name),
            route: Text(route),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.text.len() + self.ctrl.len() + std::mem::size_of_val(&*self.slots)
    }

    /// This shard with the routes in `writes` (sorted by slot) written
    /// over their slots' entries, in one new arena.
    fn rewritten(&self, writes: &[(usize, usize, &Route)]) -> Shard {
        let size = writes.iter().fold(self.text.len(), |size, &(_, at, r)| {
            size + r.route.len() - self.slots[at].route_len as usize
        });
        let mut text = String::with_capacity(size);
        let mut slots = self.slots.clone();
        let mut writes = writes.iter().peekable();
        for (at, slot) in slots.iter_mut().enumerate() {
            if slot.key == VACANT.key {
                continue;
            }
            let span = self.span(slot);
            slot.off = arena_offset(text.len());
            match writes.next_if(|w| w.1 == at) {
                Some(&(_, _, r)) => {
                    text.push_str(&r.name);
                    text.push_str(&r.route);
                    slot.route_len = arena_offset(r.route.len());
                }
                None => text.push_str(span),
            }
        }
        Shard {
            text: text.into_boxed_str(),
            ctrl: self.ctrl.clone(),
            slots,
            homes: self.homes,
            len: self.len,
        }
    }
}

/// `len` as an arena offset or length.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a shard's arena stays under 4 GiB")
}

/// The buffers a shard is placed in before it is copied out at its
/// final size, reused from one shard to the next.
struct Scratch {
    ctrl: Vec<u8>,
    slots: Vec<Slot>,
}

impl Scratch {
    /// Scratch for shards of up to `entries` entries.
    fn with_capacity(entries: usize) -> Scratch {
        let homes = entries + entries / 2 + 1;
        Scratch {
            ctrl: Vec::with_capacity(homes + GROUP + entries),
            slots: Vec::with_capacity(homes + entries),
        }
    }

    /// The shard holding `staged`'s entries, whose names and routes
    /// are in `text`: keeps the largest key of each name, then places
    /// every slot at or after its home.
    fn shard(&mut self, mut text: String, staged: &mut [(u64, Slot)]) -> Shard {
        let name = |s: &Slot| s.off as usize..s.off as usize + s.name_len as usize;
        staged.sort_unstable_by(|(ha, a), (hb, b)| {
            (ha.cmp(hb))
                .then_with(|| text[name(a)].cmp(&text[name(b)]))
                .then(a.key.cmp(&b.key))
        });
        // Of each run of one name, the last (the largest key) is kept.
        let mut kept = 0;
        for i in 0..staged.len() {
            let (h, slot) = staged[i];
            let same =
                |&(h2, next): &(u64, Slot)| h2 == h && text[name(&next)] == text[name(&slot)];
            if !staged.get(i + 1).is_some_and(same) {
                staged[kept] = staged[i];
                kept += 1;
            }
        }
        let kept = &mut staged[..kept];
        let span = |s: &Slot| s.name_len as usize + s.route_len as usize;
        let live: usize = kept.iter().map(|(_, s)| span(s)).sum();
        if live != text.len() {
            // A duplicate name lost: leave its bytes behind.
            let mut packed = String::with_capacity(live);
            for (_, slot) in kept.iter_mut() {
                let start = slot.off as usize;
                slot.off = arena_offset(packed.len());
                packed.push_str(&text[start..start + span(slot)]);
            }
            text = packed;
        }

        // Two-thirds full: at four-fifths a miss more often reads a
        // second group, and a domain-suffix walk makes two misses
        // before its hit.
        let homes = kept.len() + kept.len() / 2 + 1;
        self.ctrl.clear();
        self.ctrl.resize(homes, EMPTY);
        self.slots.clear();
        self.slots.resize(homes, VACANT);
        for &(h, slot) in kept.iter() {
            let mut at = home(h, homes);
            while self.ctrl.get(at).is_some_and(|&c| c != EMPTY) {
                at += 1;
            }
            if at == self.ctrl.len() {
                self.ctrl.push(EMPTY);
                self.slots.push(VACANT);
            }
            self.ctrl[at] = fingerprint(h);
            self.slots[at] = slot;
        }
        self.ctrl.extend_from_slice(&[EMPTY; GROUP]);
        Shard {
            text: text.into_boxed_str(),
            ctrl: self.ctrl.as_slice().into(),
            slots: self.slots.as_slice().into(),
            homes,
            len: kept.len(),
        }
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
        assert_eq!(db.get("duke").unwrap().route, "duke!%s");
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
        let db1 = RouteDb::from_table(&out.routes());
        let db2 = RouteDb::from_output(&out.rendered).unwrap();
        assert_eq!(db1.len(), db2.len());
        assert_eq!(db1.route_to("phs", "u"), db2.route_to("phs", "u"));
        assert_eq!(db1.route_to("phs", "u").unwrap(), "duke!phs!u");
    }

    /// Maps `text` from `hub`, replaces `node`'s row with UUCP links
    /// to `row`'s (host, cost) pairs and maps again: the old tree, the
    /// new one, and the routes that moved.
    fn edited(
        text: &str,
        node: &str,
        row: &[(&str, Cost)],
    ) -> (ShortestPathTree, ShortestPathTree, Vec<Route>) {
        use pathalias_core::{
            map_frozen_readonly, parse, update_routes, LinkFlags, MapOptions, NodeId, RouteOp,
            RowPatch,
        };
        let frozen = Arc::new(parse(text).unwrap().freeze());
        let id = |name: &str| frozen.id_of(name).unwrap();
        let hub = id("hub");
        let old = map_frozen_readonly(&frozen, hub, &MapOptions::default()).unwrap();
        let edges = row
            .iter()
            .map(|&(to, c)| (id(to), c, RouteOp::UUCP, LinkFlags::empty()));
        let patch = RowPatch {
            node: id(node),
            edges: edges.collect(),
        };
        let (patched, _) = frozen.with_rows_replaced(&[patch]);
        let new = map_frozen_readonly(&Arc::new(patched), hub, &MapOptions::default()).unwrap();
        let changed: Vec<NodeId> = frozen
            .node_ids()
            .filter(|&n| old.label(n) != new.label(n))
            .collect();
        let moved = update_routes(&new, &new.children(), &changed).expect("the chains hold");
        (old, new, moved)
    }

    /// Every name either database holds, answered alike by both.
    fn assert_same(a: &RouteDb, b: &RouteDb) {
        assert_eq!(a.len(), b.len());
        let mut x: Vec<EntryRef> = a.iter().collect();
        let mut y: Vec<EntryRef> = b.iter().collect();
        x.sort_by_key(|e| e.name);
        y.sort_by_key(|e| e.name);
        assert_eq!(x, y);
        for e in x {
            assert_eq!(a.get(&e.name), b.get(&e.name));
        }
    }

    #[test]
    fn from_tree_matches_from_table() {
        let (old, new, _) = edited(
            "hub .edu(10), caip.edu(20), x(5), relay(1)\n.edu = {caip}(0)\nx y(1)\n",
            "relay",
            &[("x", 1)],
        );
        for tree in [&old, &new] {
            let table = pathalias_core::compute_routes(tree);
            assert_same(
                &RouteDb::from_tree(tree, &tree.children()),
                &RouteDb::from_table(&table),
            );
        }
    }

    #[test]
    fn patch_shares_every_untouched_shard() {
        let spokes: Vec<String> = (0..5 * SHARD)
            .map(|i| format!("s{i}({})", 10 + i % 7))
            .collect();
        let text = format!("hub relay(1), {}\n", spokes.join(", "));
        let names: Vec<String> = [3, SHARD + 1, SHARD + 2, 4 * SHARD + 9]
            .iter()
            .map(|i| format!("s{i}"))
            .collect();
        let row: Vec<(&str, Cost)> = names.iter().map(|n| (n.as_str(), 1)).collect();
        let (old_tree, new_tree, moved) = edited(&text, "relay", &row);
        assert_eq!(moved.len(), names.len());

        let old = RouteDb::from_tree(&old_tree, &old_tree.children());
        assert_eq!(old.shards.len(), 8);
        let new = old.patched(&old_tree, &moved).expect("names unchanged");
        let copied = new.shards_rewritten_since(&old);
        let touched: std::collections::HashSet<usize> = names
            .iter()
            .map(|n| shard_of(hash(n.as_bytes()), old.shards.len()))
            .collect();
        assert_eq!(copied, touched.len());

        // Indistinguishable from a database built afresh.
        assert_same(&new, &RouteDb::from_tree(&new_tree, &new_tree.children()));
        let name = &names[0];
        assert_eq!(new.route_to(name, "u").unwrap(), format!("relay!{name}!u"));
        // The old generation still answers as it did.
        assert_eq!(old.route_to(name, "u").unwrap(), format!("{name}!u"));
    }

    #[test]
    fn patch_refuses_a_renamed_or_hidden_entry() {
        // `caip` leaves `.edu` for a direct link: `caip.edu` becomes
        // `caip`.
        let text = "hub .edu(10), caip(100)\n.edu = {caip}(0)\n";
        let (old, new, moved) = edited(text, "hub", &[(".edu", 10), ("caip", 1)]);
        let db = RouteDb::from_tree(&old, &old.children());
        assert!(
            db.get("caip.edu").is_some()
                && RouteDb::from_tree(&new, &new.children())
                    .get("caip")
                    .is_some()
        );
        assert!(db.patched(&old, &moved).is_none());

        // `.rutgers` leaves `.edu` for the hub: a hidden subdomain
        // becomes a printed top-level domain.
        let text = "hub .edu(10), .rutgers(100)\n.edu = {.rutgers}(0)\n";
        let (old, new, moved) = edited(text, "hub", &[(".edu", 10), (".rutgers", 1)]);
        let db = RouteDb::from_tree(&old, &old.children());
        assert!(
            db.get(".rutgers").is_none()
                && RouteDb::from_tree(&new, &new.children())
                    .get(".rutgers")
                    .is_some()
        );
        assert!(db.patched(&old, &moved).is_none());
    }

    #[test]
    fn a_shadowed_duplicate_stays_shadowed() {
        // Two visible entries named `caip.edu`, the host of that name
        // and `.edu`'s member `caip`: the member, the larger node, is
        // served, and still is after either of them moves.
        let text = "hub .edu(10), caip.edu(20), x(5)\n.edu = {caip}(0)\n";
        for moving in ["caip.edu", ".edu"] {
            let (old, new, moved) = edited(text, "x", &[(moving, 1)]);
            assert!(moved.iter().any(|r| r.name == "caip.edu"));
            let db = RouteDb::from_tree(&old, &old.children());
            let patched = db.patched(&old, &moved).expect("names unchanged");
            assert_same(&patched, &RouteDb::from_tree(&new, &new.children()));
            let served = patched.get("caip.edu").unwrap().route;
            let member_moved = moving == ".edu";
            assert_eq!(served.starts_with("x!"), member_moved, "{served}");
        }
    }
}
