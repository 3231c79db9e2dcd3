//! The on-disk route database.
//!
//! The paper: "output from pathalias is a simple linear file, in the
//! UNIX tradition. If desired, a separate program may be used to
//! convert this file into a format appropriate for rapid database
//! retrieval." On V7 that program fed dbm; here the same role is played
//! by a small sorted-table file format with binary-search lookups that
//! read only the index and the matching entry:
//!
//! ```text
//! magic  "PADB1\n"
//! count  <n>\n
//! index  n lines of: <name-offset> <name-len> <route-offset> <route-len>\n
//! blob   names then routes, back to back, sorted by name
//! ```
//!
//! Everything is text offsets into one blob, so the file is portable,
//! inspectable with a pager, and immune to endianness.

use crate::resolver::{walk, Resolution, ResolveError, Resolver};
use crate::routedb::{DbEntry, EntryRef, RouteDb};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Seek, Write};
use std::path::Path;

const MAGIC: &str = "PADB1";

/// Errors from reading or writing the disk format.
#[derive(Debug)]
pub enum DiskError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a PADB1 database or is structurally broken.
    Corrupt(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
            DiskError::Corrupt(why) => write!(f, "corrupt route database: {why}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}

/// Writes a [`RouteDb`] to `path` in the PADB1 format.
pub fn write_db(db: &RouteDb, path: impl AsRef<Path>) -> Result<(), DiskError> {
    let mut entries: Vec<EntryRef<'_>> = db.iter().collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));

    let mut index_lines = Vec::with_capacity(entries.len());
    let mut blob = String::new();
    for e in &entries {
        let name_off = blob.len();
        blob.push_str(&e.name);
        let route_off = blob.len();
        blob.push_str(&e.route);
        index_lines.push(format!(
            "{name_off} {} {route_off} {}\n",
            e.name.len(),
            e.route.len()
        ));
    }

    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "{}", entries.len())?;
    for line in &index_lines {
        out.write_all(line.as_bytes())?;
    }
    out.write_all(blob.as_bytes())?;
    out.flush()?;
    Ok(())
}

/// One index entry: (name_off, name_len, route_off, route_len).
type IndexEntry = (u64, u32, u64, u32);

/// The reader over a PADB1 file, shared and read-only: the disk
/// equivalent of mmap, built entirely on safe std.
///
/// The handle has no seek position: `MappedDb` issues *positioned*
/// reads (`pread` on Unix, `seek_read` on Windows) against a shared
/// file handle, so any number of threads can resolve concurrently
/// through one `&MappedDb` with no lock and no full table load. The
/// kernel's page cache plays the role the mapped pages would: only the
/// index (a few numbers per host) is held in memory, the blob pages
/// fault in on demand and stay cached, and a table larger than memory
/// serves fine — exactly the "rapid database retrieval" the paper
/// delegates to "a separate program", grown to serving scale.
///
/// This type is `Send + Sync` and implements [`Resolver`], so the
/// serving layer serves it through the same snapshot handle as the
/// in-memory backends.
///
/// # Examples
///
/// ```
/// use pathalias_mailer::{disk, Resolver, RouteDb};
///
/// let path = std::env::temp_dir().join(format!("mapped-doc-{}.padb", std::process::id()));
/// let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
/// disk::write_db(&db, &path).unwrap();
///
/// let mapped = disk::MappedDb::open(&path).unwrap();
/// assert_eq!(
///     mapped.resolve("caip.rutgers.edu", "pleasant").unwrap().route,
///     "seismo!caip.rutgers.edu!pleasant",
/// );
/// std::fs::remove_file(path).unwrap();
/// ```
#[derive(Debug)]
pub struct MappedDb {
    file: File,
    /// Sorted by name.
    index: Vec<IndexEntry>,
    /// Offset of the blob within the file.
    blob_start: u64,
    /// Length of the blob when the file was opened; every index span
    /// was checked against it.
    blob_len: u64,
}

/// One positioned read, leaving the handle's seek position alone so
/// concurrent readers never race. Unix `pread` / Windows `seek_read`;
/// both are `&File` operations.
fn read_exact_at(file: &File, mut buf: &mut [u8], mut off: u64) -> io::Result<()> {
    while !buf.is_empty() {
        #[cfg(unix)]
        let n = std::os::unix::fs::FileExt::read_at(file, buf, off)?;
        #[cfg(windows)]
        let n = std::os::windows::fs::FileExt::seek_read(file, buf, off)?;
        #[cfg(not(any(unix, windows)))]
        compile_error!("MappedDb needs positioned reads (unix pread / windows seek_read)");
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "blob truncated",
            ));
        }
        buf = &mut buf[n..];
        off += n as u64;
    }
    Ok(())
}

impl MappedDb {
    /// Opens a PADB1 file for shared read-only serving: loads and
    /// validates the index, leaves the blob on disk.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedDb, DiskError> {
        let file = File::open(path)?;
        let mut reader = BufReader::new(file);
        let mut line = String::new();

        reader.read_line(&mut line)?;
        if line.trim_end() != MAGIC {
            return Err(DiskError::Corrupt(format!(
                "bad magic `{}`",
                line.trim_end()
            )));
        }
        line.clear();
        reader.read_line(&mut line)?;
        let count: usize = line
            .trim_end()
            .parse()
            .map_err(|_| DiskError::Corrupt(format!("bad count `{}`", line.trim_end())))?;

        // Each index line is at least 8 bytes ("0 0 0 0\n"), so a count
        // exceeding the file size is corrupt — and would otherwise ask
        // for an absurd allocation below.
        let file_len = reader.get_ref().metadata()?.len();
        if count as u64 > file_len / 8 {
            return Err(DiskError::Corrupt(format!(
                "count {count} impossible for a {file_len}-byte file"
            )));
        }

        let mut index = Vec::with_capacity(count);
        for i in 0..count {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(DiskError::Corrupt(format!("index truncated at {i}")));
            }
            let mut parts = line.split_whitespace();
            let parse_u64 = |p: Option<&str>| -> Result<u64, DiskError> {
                p.and_then(|s| s.parse().ok())
                    .ok_or_else(|| DiskError::Corrupt(format!("bad index line {i}")))
            };
            let name_off = parse_u64(parts.next())?;
            let name_len = parse_u64(parts.next())? as u32;
            let route_off = parse_u64(parts.next())?;
            let route_len = parse_u64(parts.next())? as u32;
            index.push((name_off, name_len, route_off, route_len));
        }
        let blob_start = reader.stream_position()?;

        // Every span the index names must land inside the blob;
        // otherwise lookups would read garbage (or, before this check,
        // fail with a misleading I/O error on a truncated file).
        let blob_len = file_len.saturating_sub(blob_start);
        for (i, &(name_off, name_len, route_off, route_len)) in index.iter().enumerate() {
            let name_end = name_off.checked_add(name_len as u64);
            let route_end = route_off.checked_add(route_len as u64);
            match (name_end, route_end) {
                (Some(n), Some(r)) if n <= blob_len && r <= blob_len => {}
                _ => {
                    return Err(DiskError::Corrupt(format!(
                        "index entry {i} points outside the {blob_len}-byte blob"
                    )));
                }
            }
        }

        Ok(MappedDb {
            file: reader.into_inner(),
            index,
            blob_start,
            blob_len,
        })
    }

    /// One positioned read of `len` blob bytes at `off`.
    fn read_blob(&self, off: u64, len: usize) -> Result<Vec<u8>, DiskError> {
        let mut buf = vec![0u8; len];
        read_exact_at(&self.file, &mut buf, self.blob_start + off).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                // The file shrank after open (open-time validation
                // covered the original length): structural, not
                // environmental.
                DiskError::Corrupt("blob truncated".to_string())
            } else {
                DiskError::Io(e)
            }
        })?;
        Ok(buf)
    }

    fn read_span(&self, off: u64, len: u32) -> Result<String, DiskError> {
        String::from_utf8(self.read_blob(off, len as usize)?)
            .map_err(|_| DiskError::Corrupt("non-UTF-8 entry".to_string()))
    }

    /// Binary-searches for an exact name, returning its route format
    /// string. `&self`: safe to call from many threads at once.
    pub fn get(&self, name: &str) -> Result<Option<String>, DiskError> {
        let mut lo = 0usize;
        let mut hi = self.index.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (off, len, _, _) = self.index[mid];
            let mid_name = self.read_span(off, len)?;
            match mid_name.as_str().cmp(name) {
                std::cmp::Ordering::Equal => {
                    let (_, _, route_off, route_len) = self.index[mid];
                    return Ok(Some(self.read_span(route_off, route_len)?));
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// Reads every entry into memory with one positioned read of the
    /// blob, e.g. to seed an in-memory [`RouteDb`] for a serving
    /// process.
    ///
    /// The read asks for the blob length [`open`](MappedDb::open)
    /// checked every span against, so a file that shrank since is
    /// reported as truncated, and a span that then fails to slice can
    /// only have split a character.
    pub fn read_all(&self) -> Result<Vec<DbEntry>, DiskError> {
        let blob = String::from_utf8(self.read_blob(0, self.blob_len as usize)?)
            .map_err(|_| DiskError::Corrupt("non-UTF-8 blob".to_string()))?;
        let span = |off: u64, len: u32, what: &str| -> Result<String, DiskError> {
            blob.get(off as usize..off as usize + len as usize)
                .map(str::to_string)
                .ok_or_else(|| DiskError::Corrupt(format!("{what} span splits a UTF-8 character")))
        };
        self.index
            .iter()
            .map(|&(name_off, name_len, route_off, route_len)| {
                Ok(DbEntry {
                    name: span(name_off, name_len, "name")?,
                    route: span(route_off, route_len, "route")?,
                })
            })
            .collect()
    }
}

impl Resolver for MappedDb {
    /// The full three-tier lookup — exact, domain suffixes, `.`
    /// default — each tier one binary search over the on-disk table.
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        let hit = walk(host, |name| self.get(name)).map_err(|e| match e {
            DiskError::Io(e) => ResolveError::Io(e),
            DiskError::Corrupt(why) => ResolveError::Corrupt(why),
        })?;
        let (format, via) = hit.ok_or(ResolveError::NoRoute)?;
        Ok(Resolution::render(&format, via, host, user))
    }

    fn entries(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::ResolvedVia;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pathalias-diskdb-{tag}-{}", std::process::id()));
        p
    }

    fn sample_db() -> RouteDb {
        RouteDb::from_output(
            "seismo\tseismo!%s\nduke\tduke!%s\n.edu\tseismo!%s\nmit-ai\ta!%s@mit-ai\n",
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_and_lookup() {
        let path = temp_path("roundtrip");
        write_db(&sample_db(), &path).unwrap();
        let db = MappedDb::open(&path).unwrap();
        assert_eq!(db.entries(), 4);
        assert_eq!(db.get("duke").unwrap().as_deref(), Some("duke!%s"));
        assert_eq!(db.get("seismo").unwrap().as_deref(), Some("seismo!%s"));
        assert_eq!(db.get("mit-ai").unwrap().as_deref(), Some("a!%s@mit-ai"));
        assert_eq!(db.get("absent").unwrap(), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn suffix_lookup_matches_in_memory() {
        let path = temp_path("suffix");
        write_db(&sample_db(), &path).unwrap();
        let db = MappedDb::open(&path).unwrap();
        assert_eq!(
            db.resolve("caip.rutgers.edu", "pleasant").unwrap().route,
            "seismo!caip.rutgers.edu!pleasant"
        );
        assert_eq!(db.resolve("duke", "fred").unwrap().route, "duke!fred");
        assert!(matches!(
            db.resolve("nowhere", "u"),
            Err(ResolveError::NoRoute)
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn every_entry_findable() {
        let mut entries = String::new();
        for i in 0..500 {
            entries.push_str(&format!("host{i:03}\trelay!host{i:03}!%s\n"));
        }
        let db = RouteDb::from_output(&entries).unwrap();
        let path = temp_path("many");
        write_db(&db, &path).unwrap();
        let disk = MappedDb::open(&path).unwrap();
        for i in 0..500 {
            let name = format!("host{i:03}");
            assert_eq!(
                disk.get(&name).unwrap().unwrap(),
                format!("relay!host{i:03}!%s")
            );
        }
        assert!(disk.get("host999").unwrap().is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_db() {
        let path = temp_path("empty");
        write_db(&RouteDb::from_output("").unwrap(), &path).unwrap();
        let db = MappedDb::open(&path).unwrap();
        assert_eq!(db.entries(), 0);
        assert!(db.get("anything").unwrap().is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("magic");
        std::fs::write(&path, "NOTADB\n0\n").unwrap();
        assert!(matches!(MappedDb::open(&path), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_truncated_index() {
        let path = temp_path("trunc");
        std::fs::write(&path, "PADB1\n3\n0 4 4 6\n").unwrap();
        assert!(matches!(MappedDb::open(&path), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_garbage_count() {
        let path = temp_path("count");
        std::fs::write(&path, "PADB1\nmany\n").unwrap();
        assert!(matches!(MappedDb::open(&path), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_absurd_count_without_allocating() {
        let path = temp_path("absurd-count");
        std::fs::write(&path, "PADB1\n18446744073709551615\n").unwrap();
        assert!(matches!(MappedDb::open(&path), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_truncated_blob_at_open() {
        // Write a valid file, then chop bytes off the blob. Every
        // truncation length must yield Corrupt at open — never a panic,
        // a bare I/O error, or a silently short database.
        let path = temp_path("trunc-blob");
        write_db(&sample_db(), &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let blob_len: usize = sample_db()
            .iter()
            .map(|e| e.name.len() + e.route.len())
            .sum();
        for cut in 1..=blob_len {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            match MappedDb::open(&path) {
                Err(DiskError::Corrupt(_)) => {}
                other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_index_pointing_outside_blob() {
        let path = temp_path("oob-index");
        // Offsets far beyond the 8-byte blob ("abcx!%s" + 1).
        std::fs::write(&path, "PADB1\n1\n500 4 504 6\nabcdefgh").unwrap();
        assert!(matches!(MappedDb::open(&path), Err(DiskError::Corrupt(_))));
        // Offset+len overflowing u64 must not wrap around the check.
        let path2 = temp_path("oob-overflow");
        std::fs::write(&path2, "PADB1\n1\n18446744073709551615 4 0 4\nabcdefgh").unwrap();
        assert!(matches!(MappedDb::open(&path2), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(path2).unwrap();
    }

    #[test]
    fn rejects_non_utf8_blob() {
        let path = temp_path("non-utf8");
        let mut bytes = b"PADB1\n1\n0 4 4 6\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc, b'a', b'!', b'%', b's', b'x', b'y']);
        std::fs::write(&path, &bytes).unwrap();
        let db = MappedDb::open(&path).unwrap();
        assert!(matches!(db.get("anything"), Err(DiskError::Corrupt(_))));
        assert!(matches!(db.read_all(), Err(DiskError::Corrupt(_))));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn read_all_round_trips() {
        let path = temp_path("read-all");
        let original = sample_db();
        write_db(&original, &path).unwrap();
        let disk = MappedDb::open(&path).unwrap();
        let entries = disk.read_all().unwrap();
        assert_eq!(entries.len(), original.len());
        let rebuilt = RouteDb::from_entries(entries);
        for e in original.iter() {
            assert_eq!(rebuilt.get(&e.name).unwrap().route, e.route);
        }
        assert_eq!(
            rebuilt.route_to("caip.rutgers.edu", "pleasant").unwrap(),
            "seismo!caip.rutgers.edu!pleasant"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn truncation_after_open_is_reported_as_truncation() {
        // A file that shrinks between open and read (swapped or cut
        // mid-read) must say so, from the bulk read and from a lookup
        // alike — not blame a span for splitting a character.
        let path = temp_path("trunc-after-open");
        write_db(&sample_db(), &path).unwrap();
        let db = MappedDb::open(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let file = File::options().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        for result in [db.read_all().map(drop), db.get("seismo").map(drop)] {
            match result {
                Err(DiskError::Corrupt(why)) => assert_eq!(why, "blob truncated"),
                other => panic!("expected Corrupt(blob truncated), got {other:?}"),
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mapped_db_serves_default_route() {
        let path = temp_path("mapped-default");
        let db = RouteDb::from_output(".edu\tgw!%s\n.\tsmart!%s\nhub\thub!%s\n").unwrap();
        write_db(&db, &path).unwrap();
        let mapped = MappedDb::open(&path).unwrap();
        let hit = mapped.resolve("unknown-host", "u").unwrap();
        assert_eq!(hit.via, ResolvedVia::DefaultRoute);
        assert_eq!(hit.route, "smart!unknown-host!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mapped_db_concurrent_readers() {
        // The whole point of MappedDb: many threads, one handle, no
        // locks, no &mut. 8 threads × 1000 lookups with full parity.
        let mut entries = String::new();
        for i in 0..300 {
            entries.push_str(&format!("host{i:03}\trelay!host{i:03}!%s\n"));
        }
        entries.push_str(".edu\tgw!%s\n");
        let db = RouteDb::from_output(&entries).unwrap();
        let path = temp_path("mapped-concurrent");
        write_db(&db, &path).unwrap();
        let mapped = MappedDb::open(&path).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let mapped = &mapped;
                s.spawn(move || {
                    for i in 0..1_000 {
                        let n = (t * 131 + i) % 300;
                        let host = format!("host{n:03}");
                        let got = mapped.resolve(&host, "u").unwrap();
                        assert_eq!(got.route, format!("relay!host{n:03}!u"));
                        assert_eq!(
                            mapped.resolve("a.b.edu", "u").unwrap().route,
                            "gw!a.b.edu!u"
                        );
                        assert!(matches!(
                            mapped.resolve("missing", "u"),
                            Err(ResolveError::NoRoute)
                        ));
                    }
                });
            }
        });
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn random_garbage_never_panics() {
        // A deterministic splatter of junk files: open() must always
        // return Ok or Err, never panic or over-allocate.
        let path = temp_path("garbage");
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..200 {
            let len = (next() % 200) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if case % 3 == 0 {
                // Bias toward a valid header so the index parser runs.
                let mut with_magic = b"PADB1\n3\n".to_vec();
                with_magic.append(&mut bytes);
                bytes = with_magic;
            }
            std::fs::write(&path, &bytes).unwrap();
            let _ = MappedDb::open(&path);
        }
        std::fs::remove_file(path).unwrap();
    }
}
