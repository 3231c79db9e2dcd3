//! The host-name key function.
//!
//! The paper says only that the integer key is computed "using bit-level
//! shifts and exclusive-ors". This is the classic shift-xor fold of that
//! era: each byte is mixed in with a left shift and two xors. The exact
//! constants are not load-bearing for any experiment; what matters is
//! that the function is cheap, deterministic, and spreads real host
//! names well, which the hashing benchmark verifies.

/// Folds a host name into an integer key with shifts and exclusive-ors.
///
/// The function is case-sensitive; callers wanting pathalias's `-i`
/// behaviour fold names to lower case first.
///
/// # Examples
///
/// ```
/// use pathalias_hash::fold;
///
/// assert_eq!(fold("ucbvax"), fold("ucbvax"));
/// assert_ne!(fold("ucbvax"), fold("ucbvas"));
/// ```
#[inline]
pub fn fold(name: &str) -> u64 {
    fold_bytes(name.as_bytes())
}

/// Folds an arbitrary byte string into an integer key with the same
/// shift-xor mixing as [`fold`]. Used where the input is not a host
/// name — e.g. whole-file content fingerprints for change detection.
///
/// # Examples
///
/// ```
/// use pathalias_hash::{fold, fold_bytes};
///
/// assert_eq!(fold_bytes(b"ucbvax"), fold("ucbvax"));
/// assert_ne!(fold_bytes(b"a b(10)\n"), fold_bytes(b"a b(11)\n"));
/// ```
#[inline]
pub fn fold_bytes(bytes: &[u8]) -> u64 {
    let mut k: u64 = 0;
    for &b in bytes {
        // Rotate-style mixing: shift left, fold the high bits back in,
        // then xor the next byte — all "bit-level shifts and
        // exclusive-ors", per the paper.
        k = (k << 5) ^ (k >> 59) ^ u64::from(b);
    }
    k
}

/// The key the graph's name index probes with: the paper's byte-at-a-
/// time fold, each step spread by a multiply, and a shift-xor-multiply
/// finaliser, so the high bits (which pick the slot) depend on every
/// byte. With `fold_case` set, ASCII letters hash as lower case
/// (pathalias `-i`). The build graph and the frozen snapshot share the
/// one index this keys, so they agree on every name by construction.
///
/// # Examples
///
/// ```
/// use pathalias_hash::name_key;
///
/// assert_eq!(name_key("UCBVAX", true), name_key("ucbvax", true));
/// assert_ne!(name_key("UCBVAX", false), name_key("ucbvax", false));
/// ```
#[inline]
pub fn name_key(name: &str, fold_case: bool) -> u64 {
    let mut h: u64 = 0;
    for &b in name.as_bytes() {
        let b = if fold_case { b.to_ascii_lowercase() } else { b };
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h ^ (h >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fold("princeton"), fold("princeton"));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(fold("ab"), fold("ba"));
    }

    #[test]
    fn case_sensitive() {
        assert_ne!(fold("UNC"), fold("unc"));
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(fold(""), 0);
    }

    #[test]
    fn long_names_do_not_collapse() {
        // Names longer than 12 bytes must keep distinguishing early
        // bytes (the >>59 feedback term guarantees this).
        let a = fold("aaaaaaaaaaaaaaaaaaaaaaaaaaaaab");
        let b = fold("baaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        assert_ne!(a, b);
    }

    #[test]
    fn spreads_sequential_names() {
        // Sequentially numbered hosts (common in generated maps) must
        // not all land in the same few buckets of a small prime table.
        let t = 127u64;
        let mut buckets = vec![0usize; t as usize];
        for i in 0..1000 {
            let k = fold(&format!("host{i}"));
            buckets[(k % t) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        // Perfectly uniform would be ~8 per bucket; allow generous slack.
        assert!(max < 40, "bucket skew too high: {max}");
    }
}
