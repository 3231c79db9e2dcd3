//! PAGF1: the on-disk frozen-graph snapshot.
//!
//! The paper's pathalias recomputes the whole world from text on every
//! run. [`Graph::freeze`](crate::Graph::freeze) already pays the
//! parse/build/freeze cost once per *process*; this module pays it
//! once per *map edition*: a [`FrozenGraph`] serializes to a single
//! versioned, checksummed file that a daemon can load back in
//! milliseconds — the frozen-graph analogue of the mailer's PADB1
//! route database, for cold starts instead of lookups.
//!
//! Like `MappedDb`, the reader is the safe-std equivalent of mmap: the
//! file is read once, sequentially, and the packed little-endian
//! arrays decode in one linear pass straight into the CSR arrays — no
//! text parsing, no graph construction, no per-edge allocation. Only
//! the name index (which the file does not store) is rebuilt,
//! claiming each name as the build did, so a loaded snapshot is
//! *equal* to the freeze that wrote it (`PartialEq`, which compares
//! the names and not the index — and therefore routes
//! byte-identically).
//!
//! # On-disk layout
//!
//! All integers little-endian; `n` nodes, `m` edges, `rc` sidecar
//! entries.
//!
//! ```text
//! offset size       field
//! 0      6          magic "PAGF1\n"
//! 6      1          ignore_case (0 or 1)
//! 7      1          reserved (0)
//! 8      4          node count n (u32)
//! 12     4          edge count m (u32)
//! 16     8          name blob length (u64)
//! 24     4          raw-cost sidecar count rc (u32)
//! 28     4          section flags (bit 0: reverse index, bit 1:
//!                   hierarchy, bit 2: back links; unknown bits
//!                   reject — see below)
//! 32     8          checksum (see below) of the whole file with this
//!                   field zeroed
//! 40     (n+1)*4    name offsets into the blob (monotone, 0-based)
//! ...    blob       node names, concatenated UTF-8
//! ...    n*2        node flags (u16 bitsets)
//! ...    n*8        adjust biases (i64)
//! ...    (n+1)*4    CSR row starts (monotone, ends at m)
//! ...    m*16       edges: target u32, op char u8, op side u8,
//!                   flags u16, cost u64
//! ...    rc*12      raw-cost sidecar: edge id u32, pre-adjust cost
//!                   u64, ascending by edge id
//! ```
//!
//! With section-flag bit 0 set, the optional **reverse index**
//! section follows the sidecar (see [`ReverseGraph`]):
//!
//! ```text
//! ...    (n+1)*4    reverse CSR row starts by head node (monotone,
//!                   ends at m)
//! ...    m*4        in-edge tail node ids (u32)
//! ...    m*4        in-edge forward edge ids (u32, ascending within
//!                   each row)
//! ```
//!
//! With section-flag bit 1 set, the optional **contraction
//! hierarchy** section follows (after the reverse section when both
//! are present; see [`ChIndex`], written by `pathalias freeze --ch`).
//! Its edge counts live in the section itself, so the reader first
//! bounds-checks the 8-byte count prefix against the file length and
//! only then extends the exact-length equation:
//!
//! ```text
//! ...    4          upward edge count `up` (u32)
//! ...    4          downward edge count `down` (u32)
//! ...    n*4        contraction rank per node (a permutation)
//! ...    (n+1)*4    upward CSR row starts by tail (monotone)
//! ...    up*4       upward edge heads
//! ...    up*8       upward edge weights (lower-bound metric)
//! ...    up*4       upward first child slots
//! ...    up*4       upward second child slots
//! ...    (n+1)*4    downward CSR row starts by head (monotone)
//! ...    down*4     downward edge tails
//! ...    down*8     downward edge weights
//! ...    down*4     downward first child slots
//! ...    down*4     downward second child slots
//! ```
//!
//! With section-flag bit 2 set (only valid beside bit 1), the
//! **back-link** section follows last: the links that mapping from
//! the first declared host invents. The hierarchy is then over the
//! graph with them appended ([`FrozenGraph::with_edges_appended`]),
//! the graph a daemon mapping from that host serves; without the
//! section it is over the graph itself. Its count prefix is
//! bounds-checked the same way:
//!
//! ```text
//! ...    4          back-link count `k` (u32)
//! ...    k*20       back links: tail u32, then an edge record as
//!                   above with the raw (pre-adjust) cost; grouped by
//!                   tail in node order, each tail's in the order
//!                   they were invented
//! ```
//!
//! The section-flags word was reserved-as-zero in the original PAGF1
//! release, which is what makes the extension version-tolerant in both
//! directions: files written before the reverse or hierarchy sections
//! existed carry zero and still load (derived data is rebuilt or
//! skipped), while a file using a section this reader does not know
//! about is rejected as corrupt instead of being silently misparsed.
//! `docs/FORMATS.md` carries the full section-flag registry.
//!
//! # Checksum
//!
//! The paper's shift-xor fold, widened from bytes to 64-bit words so
//! a megabyte-scale file sums in microseconds: starting from `k = 0`,
//! each little-endian u64 word `w` applies `k = (k << 7) ^ (k >> 57)
//! ^ w`. A trailing partial word is zero-padded and followed by one
//! extra word holding the tail length. The checksum covers the whole
//! file with the checksum field itself read as zero.
//!
//! # Hardening
//!
//! Opening is hardened exactly like the PADB1 `Corrupt` path: bad
//! magic, truncation, counts the file cannot hold (checked *before*
//! any allocation, so an absurd header cannot OOM), checksum
//! mismatches, out-of-range offsets/targets, non-monotone tables,
//! unknown flag bits, and non-UTF-8 names all return
//! [`SnapshotError::Corrupt`] — never a panic.
//!
//! # Examples
//!
//! ```
//! use pathalias_graph::{snapshot, Graph, RouteOp};
//!
//! let mut g = Graph::new();
//! let a = g.node("unc");
//! let b = g.node("duke");
//! g.declare_link(a, b, 500, RouteOp::UUCP);
//! let frozen = g.freeze();
//!
//! let path = std::env::temp_dir().join(format!("doc-{}.pagf", std::process::id()));
//! snapshot::write_snapshot(&frozen, &path).unwrap();
//! let loaded = snapshot::read_snapshot(&path).unwrap();
//! assert_eq!(loaded, frozen);
//! std::fs::remove_file(path).unwrap();
//! ```

use crate::ch::ChIndex;
use crate::cost::Cost;
use crate::flags::{LinkFlags, NodeFlags};
use crate::frozen::{AppendedEdge, FrozenEdge, FrozenGraph, Names};
use crate::graph::NodeId;
use crate::reverse::ReverseGraph;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The 6-byte file magic (version is part of the magic, PADB1-style).
pub const MAGIC: &[u8; 6] = b"PAGF1\n";

/// Fixed header length in bytes.
const HEADER_LEN: usize = 40;

/// Byte range of the checksum field within the header.
const CHECKSUM_RANGE: std::ops::Range<usize> = 32..40;

/// Bytes per serialized edge record.
const EDGE_LEN: usize = 16;

/// Bytes per raw-cost sidecar entry.
const RAW_COST_LEN: usize = 12;

/// Section-flag bit: the reverse index section follows the sidecar.
const SECTION_REVERSE: u32 = 1;

/// Section-flag bit: the contraction-hierarchy section follows (after
/// the reverse section when both are present).
const SECTION_CH: u32 = 2;

/// Section-flag bit: the back links the hierarchy's graph appends
/// follow the hierarchy section. Only valid beside [`SECTION_CH`].
const SECTION_BACKLINKS: u32 = 4;

/// Every section flag this reader understands; anything else rejects.
const SECTION_KNOWN: u32 = SECTION_REVERSE | SECTION_CH | SECTION_BACKLINKS;

/// Bytes per serialized back link: the tail, then an edge record.
const BACKLINK_LEN: usize = 4 + EDGE_LEN;

/// A contraction hierarchy as a snapshot stores it, with the graph it
/// was validated against.
#[derive(Debug, PartialEq, Eq)]
pub struct StoredHierarchy {
    /// The hierarchy.
    pub ch: ChIndex,
    /// The graph the hierarchy is over when the file stores back
    /// links: the snapshot's graph with them appended, the graph that
    /// mapping from its first declared host serves. `None` when it is
    /// over the snapshot's graph itself.
    pub augmented: Option<FrozenGraph>,
}

/// Errors from reading or writing a PAGF1 snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a PAGF1 snapshot or is structurally broken.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt<T>(why: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Corrupt(why.into()))
}

/// Serializes the snapshot into its PAGF1 byte image, without any
/// optional sections (section-flags word zero — the original PAGF1
/// wire image, byte for byte).
pub fn to_bytes(g: &FrozenGraph) -> Vec<u8> {
    to_bytes_full(g, None)
}

/// Serializes the snapshot into its PAGF1 byte image, appending the
/// reverse index section when `reverse` is given.
///
/// The caller is responsible for `reverse` actually being the
/// transpose of `g` (debug builds assert it); pass the result of
/// [`FrozenGraph::reverse`].
pub fn to_bytes_full(g: &FrozenGraph, reverse: Option<&ReverseGraph>) -> Vec<u8> {
    to_bytes_all(g, reverse, None, &[])
}

/// Serializes the snapshot with any combination of optional sections:
/// the reverse index and/or the contraction hierarchy, the latter over
/// `g` with `backlinks` appended ([`FrozenGraph::with_edges_appended`];
/// pass none for a hierarchy over `g` itself).
///
/// As with [`to_bytes_full`], the caller vouches that the sections
/// really describe `g` (debug builds assert both).
///
/// # Panics
///
/// If `backlinks` is not empty but `ch` is `None`: back links are
/// stored only as part of the hierarchy's graph.
pub fn to_bytes_all(
    g: &FrozenGraph,
    reverse: Option<&ReverseGraph>,
    ch: Option<&ChIndex>,
    backlinks: &[AppendedEdge],
) -> Vec<u8> {
    let n = g.node_count();
    let m = g.edges.len();
    assert!(
        ch.is_some() || backlinks.is_empty(),
        "back links are stored only beside a hierarchy"
    );
    if let Some(rev) = reverse {
        debug_assert!(rev.validate_against(g), "reverse index must match graph");
    }
    if let Some(ch) = ch {
        debug_assert!(
            ch.validate_against(&g.with_edges_appended(backlinks)),
            "hierarchy must match graph"
        );
    }
    // The sidecar is a hash map in memory; on disk it is sorted by
    // edge id so the reader can verify it with one linear pass.
    let mut raw_cost: Vec<(u32, Cost)> = g.raw_cost.iter().map(|(&e, &c)| (e, c)).collect();
    raw_cost.sort_unstable_by_key(|&(e, _)| e);

    let total = HEADER_LEN
        + (n + 1) * 4
        + g.names.data.len()
        + n * 2
        + n * 8
        + (n + 1) * 4
        + m * EDGE_LEN
        + raw_cost.len() * RAW_COST_LEN
        + if reverse.is_some() {
            (n + 1) * 4 + m * 4 + m * 4
        } else {
            0
        }
        + if backlinks.is_empty() {
            0
        } else {
            4 + backlinks.len() * BACKLINK_LEN
        }
        + ch.map_or(0, |ch| {
            8 + n * 4 + 2 * (n + 1) * 4 + (ch.up_count() + ch.down_count()) * 20
        });
    let mut out = Vec::with_capacity(total);

    out.extend_from_slice(MAGIC);
    out.push(u8::from(g.ignore_case));
    out.push(0);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(m as u32).to_le_bytes());
    out.extend_from_slice(&(g.names.data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(raw_cost.len() as u32).to_le_bytes());
    let mut sections = 0;
    if reverse.is_some() {
        sections |= SECTION_REVERSE;
    }
    if ch.is_some() {
        sections |= SECTION_CH;
    }
    if !backlinks.is_empty() {
        sections |= SECTION_BACKLINKS;
    }
    out.extend_from_slice(&sections.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below

    for &off in &g.names.off {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(g.names.data.as_bytes());
    for &f in &g.flags {
        out.extend_from_slice(&f.bits().to_le_bytes());
    }
    for &a in &g.adjust {
        out.extend_from_slice(&a.to_le_bytes());
    }
    for &r in &g.row_start {
        out.extend_from_slice(&r.to_le_bytes());
    }
    for e in &g.edges {
        put_edge(&mut out, e);
    }
    for &(e, c) in &raw_cost {
        out.extend_from_slice(&e.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    if let Some(rev) = reverse {
        for &r in &rev.row_start {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &t in &rev.from {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for &e in &rev.edge {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    if let Some(ch) = ch {
        out.extend_from_slice(&(ch.up_count() as u32).to_le_bytes());
        out.extend_from_slice(&(ch.down_count() as u32).to_le_bytes());
        for &r in &ch.rank {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &r in &ch.up_row {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &t in &ch.up_to {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for &w in &ch.up_w {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &a in &ch.up_a {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for &b in &ch.up_b {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &r in &ch.down_row {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &f in &ch.down_from {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for &w in &ch.down_w {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &a in &ch.down_a {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for &b in &ch.down_b {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    if !backlinks.is_empty() {
        out.extend_from_slice(&(backlinks.len() as u32).to_le_bytes());
        for &(from, to, cost, op, flags) in backlinks {
            out.extend_from_slice(&from.raw().to_le_bytes());
            put_edge(&mut out, &FrozenEdge::new(to, cost, op, flags));
        }
    }
    debug_assert_eq!(out.len(), total);

    let sum = checksum(&out);
    out[CHECKSUM_RANGE].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Appends one 16-byte edge record.
fn put_edge(out: &mut Vec<u8>, e: &FrozenEdge) {
    out.extend_from_slice(&e.to.to_le_bytes());
    out.push(e.op_ch);
    out.push(e.op_dir);
    out.extend_from_slice(&e.flags.bits().to_le_bytes());
    out.extend_from_slice(&e.cost.to_le_bytes());
}

/// Writes the snapshot to `path` in the PAGF1 format.
///
/// The write is atomic: bytes go to a same-directory temporary file
/// that is renamed over `path`, so an interrupted freeze never leaves
/// a truncated snapshot where a daemon (or `serve --watch`) expects a
/// valid one — the old edition survives until the new one is whole.
pub fn write_snapshot(g: &FrozenGraph, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    write_snapshot_full(g, None, path)
}

/// Writes the snapshot plus the optional reverse index section; same
/// atomic-rename discipline as [`write_snapshot`].
pub fn write_snapshot_full(
    g: &FrozenGraph,
    reverse: Option<&ReverseGraph>,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    write_snapshot_all(g, reverse, None, &[], path)
}

/// Writes the snapshot with any combination of optional sections
/// ([`to_bytes_all`]); same atomic-rename discipline as
/// [`write_snapshot`].
pub fn write_snapshot_all(
    g: &FrozenGraph,
    reverse: Option<&ReverseGraph>,
    ch: Option<&ChIndex>,
    backlinks: &[AppendedEdge],
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, to_bytes_all(g, reverse, ch, backlinks))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Reads a PAGF1 file back into a [`FrozenGraph`], discarding any
/// optional sections.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<FrozenGraph, SnapshotError> {
    from_bytes(&std::fs::read(path)?)
}

/// Reads a PAGF1 file back into a [`FrozenGraph`] plus its reverse
/// index section, when the file carries one. `None` means a legacy
/// file (section flags zero) — callers wanting the transpose rebuild
/// it with [`FrozenGraph::reverse`], an O(n + m) counting sort.
pub fn read_snapshot_full(
    path: impl AsRef<Path>,
) -> Result<(FrozenGraph, Option<ReverseGraph>), SnapshotError> {
    from_bytes_full(&std::fs::read(path)?)
}

/// Reads a PAGF1 file back with every optional section it carries:
/// the reverse index and/or the contraction hierarchy. `None` in a
/// slot means the file does not carry that section.
pub fn read_snapshot_all(
    path: impl AsRef<Path>,
) -> Result<(FrozenGraph, Option<ReverseGraph>, Option<StoredHierarchy>), SnapshotError> {
    from_bytes_all(&std::fs::read(path)?)
}

/// One checksum step: the paper's shift-xor mixing, word-wide.
#[inline]
fn mix(k: u64, w: u64) -> u64 {
    (k << 7) ^ (k >> 57) ^ w
}

/// Folds a byte slice into a running checksum, one little-endian u64
/// word at a time; a trailing partial word is zero-padded and tagged
/// with its length.
fn fold_words(mut k: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        k = mix(k, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        k = mix(k, u64::from_le_bytes(padded));
        k = mix(k, tail.len() as u64);
    }
    k
}

/// The file's checksum: the word-wide fold of every byte with the
/// checksum field itself read as zero. The two slices on either side
/// of the field are both 8-byte-aligned, so the word stream is the
/// same as folding one contiguous zero-patched file.
fn checksum(bytes: &[u8]) -> u64 {
    let k = fold_words(0, &bytes[..CHECKSUM_RANGE.start]);
    let k = mix(k, 0);
    fold_words(k, &bytes[CHECKSUM_RANGE.end..])
}

/// A cursor over the payload. All section lengths were validated
/// against the file length up front, so the `take` calls cannot run
/// past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> &'a [u8] {
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        s
    }
}

#[inline]
fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Deserializes a PAGF1 byte image, validating structure end to end
/// and discarding any optional sections.
pub fn from_bytes(bytes: &[u8]) -> Result<FrozenGraph, SnapshotError> {
    from_bytes_full(bytes).map(|(g, _)| g)
}

/// Deserializes a PAGF1 byte image plus its optional reverse index
/// section, validating structure end to end (the reverse arrays are
/// cross-checked against the decoded forward CSR, so a section that
/// lies is `Corrupt`, not a wrong answer). A contraction-hierarchy
/// section, if present, is validated and discarded.
pub fn from_bytes_full(bytes: &[u8]) -> Result<(FrozenGraph, Option<ReverseGraph>), SnapshotError> {
    from_bytes_all(bytes).map(|(g, rev, _)| (g, rev))
}

/// Deserializes a PAGF1 byte image with every optional section it
/// carries. The reverse section is validated against the decoded
/// forward CSR ([`ReverseGraph::validate_against`]), the hierarchy
/// against it with the stored back links appended
/// ([`ChIndex::validate_against`]): a section that lies is `Corrupt`,
/// not a wrong answer.
pub fn from_bytes_all(
    bytes: &[u8],
) -> Result<(FrozenGraph, Option<ReverseGraph>, Option<StoredHierarchy>), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return corrupt(format!(
            "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        ));
    }
    if &bytes[..6] != MAGIC {
        return corrupt(format!("bad magic {:?}", &bytes[..6]));
    }
    let ignore_case = match bytes[6] {
        0 => false,
        1 => true,
        other => return corrupt(format!("ignore_case byte is {other}, not 0/1")),
    };
    if bytes[7] != 0 {
        return corrupt("reserved header byte is not zero");
    }
    let n = le_u32(&bytes[8..12]) as usize;
    let m = le_u32(&bytes[12..16]) as usize;
    let name_len = le_u64(&bytes[16..24]);
    let rc = le_u32(&bytes[24..28]) as usize;
    let sections = le_u32(&bytes[28..32]);
    if sections & !SECTION_KNOWN != 0 {
        return corrupt(format!(
            "unknown section flags {:#010x}: written by a newer pathalias",
            sections & !SECTION_KNOWN
        ));
    }
    let has_reverse = sections & SECTION_REVERSE != 0;
    let has_ch = sections & SECTION_CH != 0;
    let has_backlinks = sections & SECTION_BACKLINKS != 0;
    if has_backlinks && !has_ch {
        return corrupt("back-link section without a hierarchy");
    }
    let stored_sum = le_u64(&bytes[CHECKSUM_RANGE]);

    // Every section length follows from the four header counts — except
    // the back-link count and the hierarchy's two edge counts, which
    // live at a computable offset inside their own sections and are
    // bounds-checked before being read. The file must match the
    // resulting total *exactly* — a mismatch means truncation, an
    // inflated count (which would otherwise ask for an absurd
    // allocation below), or trailing garbage.
    let base: Option<u64> = (|| {
        let n = n as u64;
        let m = m as u64;
        let rev = if has_reverse {
            // rev_row + from + edge
            n.checked_add(1)?
                .checked_mul(4)?
                .checked_add(m.checked_mul(8)?)?
        } else {
            0
        };
        let mut total = HEADER_LEN as u64;
        for part in [
            n.checked_add(1)?.checked_mul(4)?, // name_off
            name_len,                          // name blob
            n.checked_mul(2)?,                 // flags
            n.checked_mul(8)?,                 // adjust
            n.checked_add(1)?.checked_mul(4)?, // row_start
            m.checked_mul(EDGE_LEN as u64)?,   // edges
            (rc as u64).checked_mul(RAW_COST_LEN as u64)?,
            rev, // reverse section
        ] {
            total = total.checked_add(part)?;
        }
        Some(total)
    })();
    let Some(base) = base else {
        return corrupt("header counts overflow");
    };
    // The hierarchy's count prefix sits right after the sections the
    // header already sized, the back-link count right after the
    // hierarchy; each must fit before anything reads through it.
    let mut ch_counts: Option<(usize, usize)> = None;
    let mut backlink_count: Option<usize> = None;
    let mut expected = Some(base);
    if has_ch {
        let Some(at) = expected.filter(|&at| at.saturating_add(8) <= bytes.len() as u64) else {
            return corrupt("hierarchy section cut off before its counts");
        };
        let at = at as usize;
        let up = le_u32(&bytes[at..at + 4]) as usize;
        let down = le_u32(&bytes[at + 4..at + 8]) as usize;
        ch_counts = Some((up, down));
        expected = (|| {
            let n = n as u64;
            let mut total = (at as u64).checked_add(8)?;
            for part in [
                n.checked_mul(4)?,                 // rank
                n.checked_add(1)?.checked_mul(4)?, // up_row
                (up as u64).checked_mul(20)?,      // up to/w/a/b
                n.checked_add(1)?.checked_mul(4)?, // down_row
                (down as u64).checked_mul(20)?,    // down from/w/a/b
            ] {
                total = total.checked_add(part)?;
            }
            Some(total)
        })();
    }
    if has_backlinks {
        let Some(at) = expected.filter(|&at| at.saturating_add(4) <= bytes.len() as u64) else {
            return corrupt("back-link section cut off before its count");
        };
        let k = le_u32(&bytes[at as usize..at as usize + 4]) as usize;
        backlink_count = Some(k);
        expected = (k as u64)
            .checked_mul(BACKLINK_LEN as u64)
            .and_then(|len| at.checked_add(4 + len));
    }
    match expected {
        Some(want) if want == bytes.len() as u64 => {}
        Some(want) => {
            return corrupt(format!(
                "file is {} bytes but the header promises {want}",
                bytes.len()
            ));
        }
        None => return corrupt("header counts overflow"),
    }

    let sum = checksum(bytes);
    if sum != stored_sum {
        return corrupt(format!(
            "checksum mismatch: stored {stored_sum:#018x}, computed {sum:#018x}"
        ));
    }

    let mut r = Reader {
        bytes,
        pos: HEADER_LEN,
    };
    let name_off_bytes = r.take((n + 1) * 4);
    let name_bytes = r.take(name_len as usize);
    let flag_bytes = r.take(n * 2);
    let adjust_bytes = r.take(n * 8);
    let row_bytes = r.take((n + 1) * 4);
    let edge_bytes = r.take(m * EDGE_LEN);
    let raw_cost_bytes = r.take(rc * RAW_COST_LEN);
    let rev_bytes = if has_reverse {
        Some((r.take((n + 1) * 4), r.take(m * 4), r.take(m * 4)))
    } else {
        None
    };
    let ch_bytes = ch_counts.map(|(up, down)| {
        r.take(8); // the count prefix, already decoded
        (
            r.take(n * 4),       // rank
            r.take((n + 1) * 4), // up_row
            r.take(up * 4),      // up_to
            r.take(up * 8),      // up_w
            r.take(up * 4),      // up_a
            r.take(up * 4),      // up_b
            r.take((n + 1) * 4), // down_row
            r.take(down * 4),    // down_from
            r.take(down * 8),    // down_w
            r.take(down * 4),    // down_a
            r.take(down * 4),    // down_b
        )
    });
    let backlink_bytes = backlink_count.map(|k| {
        r.take(4); // the count prefix, already decoded
        r.take(k * BACKLINK_LEN)
    });
    debug_assert_eq!(r.pos, bytes.len());

    // Name offsets: monotone from 0 to the blob length.
    let mut name_off = Vec::with_capacity(n + 1);
    for (i, c) in name_off_bytes.chunks_exact(4).enumerate() {
        let off = le_u32(c);
        if u64::from(off) > name_len || name_off.last().is_some_and(|&prev| off < prev) {
            return corrupt(format!("name offset {i} out of order or past the blob"));
        }
        name_off.push(off);
    }
    if name_off[0] != 0 || u64::from(name_off[n]) != name_len {
        return corrupt("name offsets do not span the blob exactly");
    }

    let name_data = match std::str::from_utf8(name_bytes) {
        Ok(s) => s.to_string(),
        Err(_) => return corrupt("name blob is not UTF-8"),
    };
    for (i, &off) in name_off.iter().enumerate() {
        if !name_data.is_char_boundary(off as usize) {
            return corrupt(format!("name offset {i} splits a UTF-8 character"));
        }
    }

    let mut flags = Vec::with_capacity(n);
    for (i, c) in flag_bytes.chunks_exact(2).enumerate() {
        match NodeFlags::from_bits(u16::from_le_bytes(c.try_into().expect("2 bytes"))) {
            Some(f) => flags.push(f),
            None => return corrupt(format!("node {i} has unknown flag bits")),
        }
    }

    let adjust: Vec<i64> = adjust_bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();

    let mut row_start = Vec::with_capacity(n + 1);
    for (i, c) in row_bytes.chunks_exact(4).enumerate() {
        let start = le_u32(c);
        if start as usize > m || row_start.last().is_some_and(|&prev| start < prev) {
            return corrupt(format!("row start {i} out of order or past the edges"));
        }
        row_start.push(start);
    }
    if row_start[0] != 0 || row_start[n] as usize != m {
        return corrupt("row starts do not span the edges exactly");
    }

    let mut edges = Vec::with_capacity(m);
    for (i, c) in edge_bytes.chunks_exact(EDGE_LEN).enumerate() {
        edges.push(edge_record(c, n, || format!("edge {i}"))?);
    }

    let mut raw_cost = HashMap::with_capacity(rc);
    let mut prev: Option<u32> = None;
    for (i, c) in raw_cost_bytes.chunks_exact(RAW_COST_LEN).enumerate() {
        let edge = le_u32(&c[0..4]);
        let cost = le_u64(&c[4..12]);
        if edge as usize >= m {
            return corrupt(format!("raw-cost entry {i} names edge {edge}, past {m}"));
        }
        if prev.is_some_and(|p| edge <= p) {
            return corrupt(format!("raw-cost entry {i} out of order"));
        }
        prev = Some(edge);
        raw_cost.insert(edge, cost);
    }

    // The name index is not stored: it is a pure function of the
    // names and flags, rebuilt claiming names as the build did.
    let graph = FrozenGraph {
        ignore_case,
        names: Arc::new(Names::new(name_data, name_off, &flags, ignore_case)),
        flags,
        adjust,
        row_start,
        edges,
        raw_cost,
    };

    // The reverse section is pure derived data, so its validation is
    // simply "is this *the* transpose of the forward CSR we just
    // decoded" — one structural predicate instead of piecemeal range
    // checks.
    let reverse = match rev_bytes {
        None => None,
        Some((rev_row, rev_from, rev_edge)) => {
            let rev = ReverseGraph {
                row_start: rev_row.chunks_exact(4).map(le_u32).collect(),
                from: rev_from.chunks_exact(4).map(le_u32).collect(),
                edge: rev_edge.chunks_exact(4).map(le_u32).collect(),
            };
            if !rev.validate_against(&graph) {
                return corrupt("reverse section is not the transpose of the edges");
            }
            Some(rev)
        }
    };

    // Same treatment for the hierarchy: decode the arrays, then one
    // structural predicate against the forward CSR (see the trust-model
    // notes in [`crate::ch`] for what that does and does not prove).
    let ch = match ch_bytes {
        None => None,
        Some((
            rank,
            up_row,
            up_to,
            up_w,
            up_a,
            up_b,
            down_row,
            down_from,
            down_w,
            down_a,
            down_b,
        )) => {
            let ch = ChIndex {
                rank: rank.chunks_exact(4).map(le_u32).collect(),
                up_row: up_row.chunks_exact(4).map(le_u32).collect(),
                up_to: up_to.chunks_exact(4).map(le_u32).collect(),
                up_w: up_w.chunks_exact(8).map(le_u64).collect(),
                up_a: up_a.chunks_exact(4).map(le_u32).collect(),
                up_b: up_b.chunks_exact(4).map(le_u32).collect(),
                down_row: down_row.chunks_exact(4).map(le_u32).collect(),
                down_from: down_from.chunks_exact(4).map(le_u32).collect(),
                down_w: down_w.chunks_exact(8).map(le_u64).collect(),
                down_a: down_a.chunks_exact(4).map(le_u32).collect(),
                down_b: down_b.chunks_exact(4).map(le_u32).collect(),
            };
            let augmented = match backlink_bytes {
                None => None,
                Some(b) => Some(graph.with_edges_appended(&backlinks(&graph, b)?)),
            };
            if !ch.validate_against(augmented.as_ref().unwrap_or(&graph)) {
                return corrupt("hierarchy section is not a hierarchy over the edges");
            }
            Some(StoredHierarchy { ch, augmented })
        }
    };

    Ok((graph, reverse, ch))
}

/// Decodes one 16-byte edge record of a graph of `n` nodes; `what`
/// names it in the error.
fn edge_record(c: &[u8], n: usize, what: impl Fn() -> String) -> Result<FrozenEdge, SnapshotError> {
    let to = le_u32(&c[0..4]);
    let op_ch = c[4];
    let op_dir = c[5];
    let eflags = u16::from_le_bytes(c[6..8].try_into().expect("2 bytes"));
    let cost = le_u64(&c[8..16]);
    if to as usize >= n {
        return corrupt(format!("{} targets node {to}, past the {n} nodes", what()));
    }
    if !op_ch.is_ascii() {
        return corrupt(format!("{} has a non-ASCII routing operator", what()));
    }
    if op_dir > 1 {
        return corrupt(format!("{} has operator side {op_dir}, not 0/1", what()));
    }
    let Some(flags) = LinkFlags::from_bits(eflags) else {
        return corrupt(format!("{} has unknown flag bits", what()));
    };
    Ok(FrozenEdge {
        to,
        op_ch,
        op_dir,
        flags,
        cost,
    })
}

/// Decodes the back-link section. Each link must be what the back-link
/// pass invents: a `BACK` edge reversing a declared link of the same
/// operator, from the declared link's head to its tail. Anything else
/// is `Corrupt`.
fn backlinks(graph: &FrozenGraph, bytes: &[u8]) -> Result<Vec<AppendedEdge>, SnapshotError> {
    let n = graph.node_count();
    let mut links = Vec::with_capacity(bytes.len() / BACKLINK_LEN);
    for (i, c) in bytes.chunks_exact(BACKLINK_LEN).enumerate() {
        let from = le_u32(&c[0..4]);
        if from as usize >= n {
            return corrupt(format!(
                "back link {i} leaves node {from}, past the {n} nodes"
            ));
        }
        let from = NodeId::from_raw(from);
        let e = edge_record(&c[4..], n, || format!("back link {i}"))?;
        if e.flags() != LinkFlags::BACK {
            return corrupt(format!("back link {i} is not flagged BACK alone"));
        }
        let reverses_a_link = graph.out_edges(e.to()).any(|d| {
            let d = graph.edge(d);
            d.to() == from && d.op() == e.op() && !d.flags().contains(LinkFlags::BACK)
        });
        if !reverses_a_link {
            return corrupt(format!("back link {i} reverses no declared link"));
        }
        links.push((from, e.to(), e.cost(), e.op(), e.flags()));
    }
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::link::RouteOp;

    /// A graph exercising every serialized feature: adjust biases
    /// (raw-cost sidecar), deleted nodes/links, private shadowing,
    /// networks, domains, case folding, and multi-byte names.
    fn rich_graph(ignore_case: bool) -> FrozenGraph {
        let mut g = Graph::with_ignore_case(ignore_case);
        g.begin_file("one");
        let a = g.node("unc");
        let b = g.node("Duke");
        let c = g.node("phs");
        let d = g.node("müñchen"); // multi-byte UTF-8 name
        g.declare_link(a, b, 500, RouteOp::UUCP);
        g.declare_link(b, c, 300, RouteOp::ARPA);
        g.declare_link(c, d, 100, RouteOp::UUCP);
        g.adjust_node(b, 42);
        let net = g.node("NETX");
        g.declare_network(net, &[(a, 50), (c, 75)], RouteOp::UUCP);
        let dom = g.node(".edu");
        g.declare_link(a, dom, 95, RouteOp::UUCP);
        let dead = g.node("gone");
        g.declare_link(a, dead, 10, RouteOp::UUCP);
        g.delete_node(dead);
        g.begin_file("two");
        g.declare_private("unc");
        g.declare_private("wiretap");
        g.freeze()
    }

    fn retamp(mut bytes: Vec<u8>) -> Vec<u8> {
        // Recompute the checksum after deliberate tampering, so the
        // structural validators (not the checksum) are what reject
        // the file.
        let sum = checksum(&bytes);
        bytes[CHECKSUM_RANGE].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trip_is_equal() {
        for ignore_case in [false, true] {
            let frozen = rich_graph(ignore_case);
            let loaded = from_bytes(&to_bytes(&frozen)).unwrap();
            // Derived PartialEq covers every array, the raw-cost
            // sidecar, and the rebuilt name index.
            assert_eq!(loaded, frozen);
        }
    }

    #[test]
    fn round_trip_through_disk() {
        let frozen = rich_graph(true);
        let path = std::env::temp_dir().join(format!("pagf-disk-{}.pagf", std::process::id()));
        write_snapshot(&frozen, &path).unwrap();
        // The atomic-write temporary must not linger.
        let tmp = path.with_file_name(format!("pagf-disk-{0}.pagf.{0}.tmp", std::process::id()));
        assert!(!tmp.exists(), "temporary file renamed away");
        let loaded = read_snapshot(&path).unwrap();
        assert_eq!(loaded, frozen);
        // Spot checks through the public API.
        assert_eq!(loaded.id_of("DUKE"), frozen.id_of("duke"));
        assert_eq!(
            loaded.name_of_id_round_trip(),
            frozen.name_of_id_round_trip()
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let frozen = Graph::new().freeze();
        let loaded = from_bytes(&to_bytes(&frozen)).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.node_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
    }

    #[test]
    fn raw_costs_survive() {
        let frozen = rich_graph(false);
        let loaded = from_bytes(&to_bytes(&frozen)).unwrap();
        let duke = loaded.id_of("Duke").unwrap();
        let e = loaded.out_edges(duke).next().unwrap();
        assert_eq!(loaded.edge_cost(e), 342, "bias folded in");
        assert_eq!(loaded.edge_raw_cost(e), 300, "sidecar preserved");
    }

    #[test]
    fn rejects_bad_magic_and_short_files() {
        assert!(matches!(from_bytes(b""), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(
            from_bytes(b"PAGF1\n"),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut bytes = to_bytes(&rich_graph(false));
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(SnapshotError::Corrupt(_))));
        // A PADB1 file is not a PAGF1 file.
        assert!(matches!(
            from_bytes(b"PADB1\n0\n"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = to_bytes(&rich_graph(true));
        for cut in 1..bytes.len() {
            match from_bytes(&bytes[..cut]) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut to {cut} bytes: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_single_bit_flips() {
        // The checksum (or a structural check in front of it) must
        // catch any single flipped bit. Walk a sample of positions.
        let bytes = to_bytes(&rich_graph(false));
        for pos in (0..bytes.len()).step_by(7) {
            for bit in [0, 3, 7] {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                match from_bytes(&bad) {
                    Err(SnapshotError::Corrupt(_)) => {}
                    Ok(_) => panic!("flip at byte {pos} bit {bit} accepted"),
                    Err(e) => panic!("flip at byte {pos} bit {bit}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_absurd_counts_without_allocating() {
        // node count u32::MAX would ask for tens of gigabytes if the
        // reader allocated before validating.
        let mut bytes = to_bytes(&Graph::new().freeze());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&retamp(bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut bytes = to_bytes(&Graph::new().freeze());
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&retamp(bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&rich_graph(false));
        bytes.extend_from_slice(b"extra");
        assert!(matches!(
            from_bytes(&retamp(bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_structural_lies_behind_a_valid_checksum() {
        let good = to_bytes(&rich_graph(false));
        let n = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        let m = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
        assert!(n > 2 && m > 2, "test graph is non-trivial");

        // Name offsets swapped out of order.
        let mut bad = good.clone();
        let (a, b) = (HEADER_LEN, HEADER_LEN + 4);
        for i in 0..4 {
            bad.swap(a + i, b + i);
        }
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // ignore_case byte outside 0/1.
        let mut bad = good.clone();
        bad[6] = 2;
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // Reserved bytes must stay zero.
        let mut bad = good.clone();
        bad[7] = 9;
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // An edge targeting a node past the pool. The edge section
        // starts after name_off, blob, flags, adjust and row_start.
        let name_len = u64::from_le_bytes(good[16..24].try_into().unwrap()) as usize;
        let edges_at = HEADER_LEN + (n + 1) * 4 + name_len + n * 2 + n * 8 + (n + 1) * 4;
        let mut bad = good.clone();
        bad[edges_at..edges_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // Unknown link-flag bits on the same edge.
        let mut bad = good.clone();
        bad[edges_at + 6..edges_at + 8].copy_from_slice(&0x8000u16.to_le_bytes());
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // Non-ASCII routing operator.
        let mut bad = good.clone();
        bad[edges_at + 4] = 0xC3;
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // Operator side byte outside 0/1.
        let mut bad = good;
        bad[edges_at + 5] = 7;
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn reverse_section_round_trips() {
        for ignore_case in [false, true] {
            let frozen = rich_graph(ignore_case);
            let rev = frozen.reverse();
            let bytes = to_bytes_full(&frozen, Some(&rev));
            let (loaded, loaded_rev) = from_bytes_full(&bytes).unwrap();
            assert_eq!(loaded, frozen);
            assert_eq!(loaded_rev.as_ref(), Some(&rev));
            // The plain reader accepts the extended image too, just
            // without the transpose.
            assert_eq!(from_bytes(&bytes).unwrap(), frozen);
        }
    }

    #[test]
    fn reverse_section_round_trips_through_disk() {
        let frozen = rich_graph(true);
        let rev = frozen.reverse();
        let path = std::env::temp_dir().join(format!("pagf-rev-{}.pagf", std::process::id()));
        write_snapshot_full(&frozen, Some(&rev), &path).unwrap();
        let (loaded, loaded_rev) = read_snapshot_full(&path).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded_rev, Some(rev));
        // And the legacy reader still opens the same file.
        assert_eq!(read_snapshot(&path).unwrap(), frozen);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn legacy_image_loads_with_no_reverse() {
        let frozen = rich_graph(false);
        // `to_bytes` writes section flags zero — the pre-extension
        // wire image. The full reader reports "no reverse stored".
        let (loaded, rev) = from_bytes_full(&to_bytes(&frozen)).unwrap();
        assert_eq!(loaded, frozen);
        assert!(rev.is_none(), "legacy image carries no reverse section");
        // Rebuilding on the fly still works, of course.
        assert!(loaded.reverse().validate_against(&loaded));
    }

    #[test]
    fn rejects_unknown_section_flags() {
        // A section this reader does not know about must reject, not
        // silently misparse whatever follows the sidecar.
        let mut bytes = to_bytes(&rich_graph(false));
        bytes[28..32].copy_from_slice(&0x8000_0002u32.to_le_bytes());
        match from_bytes_full(&retamp(bytes)) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("section flags"), "got: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_tampered_reverse_section() {
        let frozen = rich_graph(false);
        let rev = frozen.reverse();
        let good = to_bytes_full(&frozen, Some(&rev));
        let n = frozen.node_count();
        let m = frozen.edge_count();
        let rev_at = good.len() - ((n + 1) * 4 + m * 4 + m * 4);

        // Every u32 slot in the section, overwritten with a value
        // the transpose check must notice.
        for slot in 0..((n + 1) + m + m) {
            let at = rev_at + slot * 4;
            let mut bad = good.clone();
            let old = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
            bad[at..at + 4].copy_from_slice(&(old ^ 1).to_le_bytes());
            match from_bytes_full(&retamp(bad)) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("tampered slot {slot}: expected Corrupt, got {other:?}"),
            }
        }

        // Claiming the section without providing it is a size lie.
        let mut bad = to_bytes(&frozen);
        bad[28..32].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            from_bytes_full(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_truncated_reverse_section() {
        let frozen = rich_graph(true);
        let bytes = to_bytes_full(&frozen, Some(&frozen.reverse()));
        let plain = to_bytes(&frozen).len();
        for cut in plain..bytes.len() {
            assert!(
                matches!(
                    from_bytes_full(&bytes[..cut]),
                    Err(SnapshotError::Corrupt(_))
                ),
                "cut to {cut} bytes accepted"
            );
        }
    }

    /// A hierarchy over the plain folded edge costs — which weight
    /// metric it is does not matter to the serializer.
    fn ch_for(f: &FrozenGraph) -> ChIndex {
        let w: Vec<Cost> = f.edges.iter().map(|e| e.cost).collect();
        ChIndex::build(f, &w)
    }

    #[test]
    fn ch_section_round_trips() {
        for with_reverse in [false, true] {
            let frozen = rich_graph(with_reverse);
            let rev = frozen.reverse();
            let ch = ch_for(&frozen);
            let bytes = to_bytes_all(&frozen, with_reverse.then_some(&rev), Some(&ch), &[]);
            let (loaded, loaded_rev, loaded_ch) = from_bytes_all(&bytes).unwrap();
            assert_eq!(loaded, frozen);
            assert_eq!(loaded_rev.is_some(), with_reverse);
            let stored = loaded_ch.unwrap();
            assert_eq!(stored.ch, ch);
            assert!(stored.augmented.is_none(), "over the graph itself");
            // Readers that do not want the hierarchy accept the image
            // and simply drop it.
            assert_eq!(from_bytes(&bytes).unwrap(), frozen);
            let (g2, rev2) = from_bytes_full(&bytes).unwrap();
            assert_eq!(g2, frozen);
            assert_eq!(rev2.is_some(), with_reverse);
        }
    }

    #[test]
    fn ch_section_round_trips_through_disk() {
        let frozen = rich_graph(true);
        let rev = frozen.reverse();
        let ch = ch_for(&frozen);
        let path = std::env::temp_dir().join(format!("pagf-ch-{}.pagf", std::process::id()));
        write_snapshot_all(&frozen, Some(&rev), Some(&ch), &[], &path).unwrap();
        let (loaded, loaded_rev, loaded_ch) = read_snapshot_all(&path).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded_rev, Some(rev));
        assert_eq!(loaded_ch.map(|h| h.ch), Some(ch));
        // The reverse-only and legacy readers open the same file.
        assert!(read_snapshot_full(&path).unwrap().1.is_some());
        assert_eq!(read_snapshot(&path).unwrap(), frozen);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_future_section_flags_cleanly() {
        // Bit 3 is the next unassigned section bit: a file from a
        // future pathalias using it must reject with the unknown-flag
        // message — the forward-compat contract a reader compiled
        // without a section relies on.
        let mut bytes = to_bytes(&rich_graph(false));
        bytes[28..32].copy_from_slice(&8u32.to_le_bytes());
        match from_bytes_all(&retamp(bytes)) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("section flags"), "got: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_ch_section_lies() {
        let frozen = rich_graph(false);
        let ch = ch_for(&frozen);
        let good = to_bytes_all(&frozen, None, Some(&ch), &[]);
        let n = frozen.node_count();
        let base = to_bytes(&frozen).len();

        // Claiming the section without providing its bytes.
        let mut bad = to_bytes(&frozen);
        bad[28..32].copy_from_slice(&SECTION_CH.to_le_bytes());
        assert!(matches!(
            from_bytes_all(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // An inflated upward-edge count must fail the length equation
        // before anything allocates.
        let mut bad = good.clone();
        bad[base..base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes_all(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        // Structural lies behind a valid checksum: a duplicated rank,
        // a row overrun, and an out-of-range head must all be caught
        // by the hierarchy validator, not trusted.
        let rank_at = base + 8;
        let mut bad = good.clone();
        let second = u32::from_le_bytes(bad[rank_at + 4..rank_at + 8].try_into().unwrap());
        bad[rank_at..rank_at + 4].copy_from_slice(&second.to_le_bytes());
        assert!(matches!(
            from_bytes_all(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        let up_row_at = rank_at + n * 4;
        let mut bad = good.clone();
        let last = up_row_at + n * 4;
        let old = u32::from_le_bytes(bad[last..last + 4].try_into().unwrap());
        bad[last..last + 4].copy_from_slice(&(old + 1).to_le_bytes());
        assert!(matches!(
            from_bytes_all(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));

        if ch.up_count() > 0 {
            let up_to_at = up_row_at + (n + 1) * 4;
            let mut bad = good.clone();
            bad[up_to_at..up_to_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                from_bytes_all(&retamp(bad)),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn rejects_truncated_ch_section() {
        let frozen = rich_graph(true);
        let ch = ch_for(&frozen);
        let bytes = to_bytes_all(&frozen, Some(&frozen.reverse()), Some(&ch), &[]);
        let plain = to_bytes_full(&frozen, Some(&frozen.reverse())).len();
        for cut in plain..bytes.len() {
            assert!(
                matches!(
                    from_bytes_all(&bytes[..cut]),
                    Err(SnapshotError::Corrupt(_))
                ),
                "cut to {cut} bytes accepted"
            );
        }
    }

    /// `rich_graph`'s graph with the back link `Duke -> unc` that
    /// reverses its `unc -> Duke` link, and a hierarchy over the
    /// graph with it appended.
    fn with_backlink(f: &FrozenGraph) -> (Vec<AppendedEdge>, FrozenGraph, ChIndex) {
        let (unc, duke) = (f.id_of("unc").unwrap(), f.id_of("Duke").unwrap());
        let links = vec![(duke, unc, 700, RouteOp::UUCP, LinkFlags::BACK)];
        let augmented = f.with_edges_appended(&links);
        let ch = ch_for(&augmented);
        (links, augmented, ch)
    }

    #[test]
    fn backlink_section_round_trips() {
        for ignore_case in [false, true] {
            let frozen = rich_graph(ignore_case);
            let (links, augmented, ch) = with_backlink(&frozen);
            let bytes = to_bytes_all(&frozen, Some(&frozen.reverse()), Some(&ch), &links);
            let (loaded, rev, stored) = from_bytes_all(&bytes).unwrap();
            assert_eq!(loaded, frozen, "the graph stays the one frozen");
            assert!(rev.unwrap().validate_against(&frozen));
            let stored = stored.unwrap();
            assert_eq!(stored.ch, ch);
            assert_eq!(stored.augmented.as_ref(), Some(&augmented));
            assert_eq!(augmented.appended_since(&frozen), links);
            // Readers that drop the hierarchy drop the back links too.
            assert_eq!(from_bytes(&bytes).unwrap(), frozen);
        }
    }

    #[test]
    fn rejects_backlink_section_lies() {
        let frozen = rich_graph(false);
        let (links, _, ch) = with_backlink(&frozen);
        let good = to_bytes_all(&frozen, None, Some(&ch), &links);
        let record = good.len() - BACKLINK_LEN;
        let at = record - 4;
        let is_corrupt =
            |bad: Vec<u8>| matches!(from_bytes_all(&bad), Err(SnapshotError::Corrupt(_)));

        // Any flipped bit in the section, checksum left stale.
        for pos in at..record + BACKLINK_LEN {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[pos] ^= 1 << bit;
                assert!(is_corrupt(bad), "flip at byte {pos} bit {bit} accepted");
            }
        }

        // Structural lies behind a valid checksum: the count, the
        // tail, the head, the flags, and an operator no declared link
        // has.
        let n = frozen.node_count() as u32;
        for (offset, value) in [
            (at, u32::MAX.to_le_bytes().to_vec()),
            (at, 0u32.to_le_bytes().to_vec()),
            (record, n.to_le_bytes().to_vec()),
            (record + 4, n.to_le_bytes().to_vec()),
            (
                record + 10,
                LinkFlags::empty().bits().to_le_bytes().to_vec(),
            ),
            (record + 8, vec![b'@']),
        ] {
            let mut bad = good.clone();
            bad[offset..offset + value.len()].copy_from_slice(&value);
            assert!(is_corrupt(retamp(bad)), "{value:?} at {offset} accepted");
        }

        // The same back link named by another declared link's tail: a
        // BACK edge that reverses nothing.
        let phs = frozen.id_of("phs").unwrap().raw();
        let mut bad = good.clone();
        bad[record..record + 4].copy_from_slice(&phs.to_le_bytes());
        assert!(is_corrupt(retamp(bad)));

        // The hierarchy over the plain graph does not cover the back
        // link's graph, nor does the back links' bit stand alone.
        let mut bad = to_bytes_all(&frozen, None, Some(&ch_for(&frozen)), &[]);
        bad[28..32].copy_from_slice(&(SECTION_CH | SECTION_BACKLINKS).to_le_bytes());
        assert!(is_corrupt(retamp(bad)));
        let mut bad = good;
        bad[28..32].copy_from_slice(&SECTION_BACKLINKS.to_le_bytes());
        assert!(is_corrupt(retamp(bad)));
    }

    #[test]
    fn rejects_truncated_backlink_section() {
        let frozen = rich_graph(true);
        let (links, _, ch) = with_backlink(&frozen);
        let bytes = to_bytes_all(&frozen, None, Some(&ch), &links);
        for cut in to_bytes(&frozen).len()..bytes.len() {
            assert!(
                matches!(
                    from_bytes_all(&bytes[..cut]),
                    Err(SnapshotError::Corrupt(_))
                ),
                "cut to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn rejects_non_utf8_names() {
        let mut g = Graph::new();
        g.node("abcd");
        let bytes = to_bytes(&g.freeze());
        let mut bad = bytes.clone();
        // The 4-byte name blob sits right after the two name offsets.
        let blob_at = HEADER_LEN + 2 * 4;
        bad[blob_at] = 0xFF;
        assert!(matches!(
            from_bytes(&retamp(bad)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    impl FrozenGraph {
        /// Test helper: every node's name, via the public accessors.
        fn name_of_id_round_trip(&self) -> Vec<String> {
            self.node_ids()
                .map(|id| self.name(id).to_string())
                .collect()
        }
    }
}
