//! Chunked bump arena for string data: the 1986 layout's name storage,
//! kept for the allocator experiment (E4).
//!
//! The original pathalias obtained memory from a buffered `sbrk` and
//! never freed it; host names, being the bulk of parse-time data, were
//! laid down end to end in those buffers. [`Bump`] reproduces this:
//! fixed-size chunks are allocated as needed and bytes are bumped into
//! the current chunk. Nothing is ever freed short of dropping the whole
//! arena, and existing data never moves, so [`Span`] handles stay valid
//! for the arena's lifetime.

/// Default chunk size, mirroring the modest buffer the original used on
/// 64 kbyte-segment machines.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// A handle to a byte range stored in a [`Bump`] arena.
///
/// Spans are small, `Copy`, and remain valid for the lifetime of the
/// arena that produced them. Resolving a span from a *different* arena
/// is not memory-unsafe but yields unspecified contents or a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    chunk: u32,
    off: u32,
    len: u32,
}

impl Span {
    /// Length in bytes of the spanned data.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the span is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Allocation statistics for a [`Bump`] arena.
///
/// Used by the allocator experiment (E4) to compare space behaviour with
/// a general-purpose allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BumpStats {
    /// Number of chunks obtained from the system allocator.
    pub chunks: usize,
    /// Total bytes reserved across all chunks.
    pub reserved: usize,
    /// Bytes handed out to callers.
    pub used: usize,
    /// Bytes stranded at chunk tails by oversized requests.
    pub wasted: usize,
    /// Number of allocation requests served.
    pub allocations: usize,
}

/// A chunked bump arena ("buffered sbrk") for bytes and strings.
///
/// # Examples
///
/// ```
/// use pathalias_bench::bump::Bump;
///
/// let mut arena = Bump::new();
/// let a = arena.push_str("ihnp4");
/// let b = arena.push_str("seismo");
/// assert_eq!(arena.str(a), "ihnp4");
/// assert_eq!(arena.str(b), "seismo");
/// assert_eq!(arena.stats().allocations, 2);
/// ```
#[derive(Debug)]
pub struct Bump {
    chunks: Vec<Vec<u8>>,
    chunk_size: usize,
    used: usize,
    wasted: usize,
    allocations: usize,
}

impl Default for Bump {
    fn default() -> Self {
        Self::new()
    }
}

impl Bump {
    /// Creates an arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK)
    }

    /// Creates an arena whose chunks hold `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Bump {
            chunks: Vec::new(),
            chunk_size,
            used: 0,
            wasted: 0,
            allocations: 0,
        }
    }

    /// Copies `bytes` into the arena and returns a handle to the copy.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Span {
        let need = bytes.len();
        // Oversized requests get a dedicated chunk, like an sbrk call
        // larger than the buffering granule.
        let fits_last = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= need);
        if !fits_last {
            if let Some(last) = self.chunks.last() {
                self.wasted += last.capacity() - last.len();
            }
            let cap = need.max(self.chunk_size);
            self.chunks.push(Vec::with_capacity(cap));
        }
        let chunk_idx = self.chunks.len() - 1;
        let chunk = &mut self.chunks[chunk_idx];
        let off = chunk.len();
        chunk.extend_from_slice(bytes);
        self.used += need;
        self.allocations += 1;
        Span {
            chunk: u32::try_from(chunk_idx).expect("too many chunks"),
            off: u32::try_from(off).expect("chunk offset overflow"),
            len: u32::try_from(need).expect("allocation too large"),
        }
    }

    /// Copies `s` into the arena and returns a handle to the copy.
    pub fn push_str(&mut self, s: &str) -> Span {
        self.push_bytes(s.as_bytes())
    }

    /// Resolves a span to its bytes.
    ///
    /// # Panics
    ///
    /// Panics if the span does not belong to this arena.
    #[inline]
    pub fn bytes(&self, span: Span) -> &[u8] {
        let chunk = &self.chunks[span.chunk as usize];
        &chunk[span.off as usize..span.off as usize + span.len as usize]
    }

    /// Resolves a span to a string slice.
    ///
    /// # Panics
    ///
    /// Panics if the span does not belong to this arena or the bytes are
    /// not valid UTF-8 (impossible for spans created by [`push_str`]).
    ///
    /// [`push_str`]: Bump::push_str
    #[inline]
    pub fn str(&self, span: Span) -> &str {
        std::str::from_utf8(self.bytes(span)).expect("span does not hold UTF-8")
    }

    /// Returns allocation statistics.
    pub fn stats(&self) -> BumpStats {
        let reserved: usize = self.chunks.iter().map(|c| c.capacity()).sum();
        BumpStats {
            chunks: self.chunks.len(),
            reserved,
            used: self.used,
            wasted: self.wasted,
            allocations: self.allocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let mut b = Bump::new();
        let s = b.push_str("unc");
        assert_eq!(b.str(s), "unc");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_span() {
        let mut b = Bump::new();
        let s = b.push_str("");
        assert_eq!(b.str(s), "");
        assert!(s.is_empty());
    }

    #[test]
    fn data_survives_chunk_growth() {
        let mut b = Bump::with_chunk_size(8);
        let spans: Vec<(Span, String)> = (0..100)
            .map(|i| {
                let name = format!("host{i}");
                (b.push_str(&name), name)
            })
            .collect();
        for (span, name) in &spans {
            assert_eq!(b.str(*span), name);
        }
        assert!(b.stats().chunks > 1, "growth must have chunked");
    }

    #[test]
    fn oversized_request_gets_own_chunk() {
        let mut b = Bump::with_chunk_size(4);
        let big = "a".repeat(100);
        let s = b.push_str(&big);
        assert_eq!(b.str(s), big);
    }

    #[test]
    fn stats_track_use_and_waste() {
        let mut b = Bump::with_chunk_size(10);
        b.push_str("12345678"); // 8 of 10 used.
        b.push_str("abcdef"); // Needs 6, only 2 left: new chunk, 2 wasted.
        let st = b.stats();
        assert_eq!(st.used, 14);
        assert_eq!(st.wasted, 2);
        assert_eq!(st.chunks, 2);
        assert_eq!(st.allocations, 2);
        assert!(st.reserved >= st.used);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = Bump::with_chunk_size(0);
    }

    #[test]
    fn interleaved_reads_and_writes() {
        let mut b = Bump::with_chunk_size(16);
        let a = b.push_str("first");
        assert_eq!(b.str(a), "first");
        let c = b.push_str("second-name-long-enough-to-spill");
        assert_eq!(b.str(a), "first");
        assert_eq!(b.str(c), "second-name-long-enough-to-spill");
    }

    #[test]
    fn non_utf8_bytes_roundtrip() {
        let mut b = Bump::new();
        let s = b.push_bytes(&[0xff, 0x00, 0x7f]);
        assert_eq!(b.bytes(s), &[0xff, 0x00, 0x7f]);
    }
}
