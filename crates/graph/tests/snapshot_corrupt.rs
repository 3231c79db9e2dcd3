//! PAGF1 corruption handling, property-tested.
//!
//! Mirrors the PADB1 corrupt-file tests: whatever damage a snapshot
//! file takes — bit flips, truncation, inflated counts, random
//! garbage — the reader must answer `Ok` or `Corrupt`, never panic,
//! and never allocate from an attacker-sized header. Damage that
//! leaves the checksum stale is caught by the checksum; damage applied
//! *with* a recomputed checksum must be caught by the structural
//! validators instead.

use pathalias_graph::snapshot::{
    from_bytes, from_bytes_all, to_bytes, to_bytes_all, SnapshotError,
};
use pathalias_graph::{ChIndex, Cost, EdgeId, FrozenGraph, Graph, LinkFlags, RouteOp};
use proptest::prelude::*;

/// Builds a deterministic graph from proptest-chosen shape values,
/// exercising adjust biases, deletions, networks and private names.
fn build_graph(hosts: usize, links: &[(usize, usize, u64)], seed: u64) -> Graph {
    let mut g = Graph::with_ignore_case(seed % 2 == 0);
    g.begin_file("gen");
    let ids: Vec<_> = (0..hosts).map(|i| g.node(&format!("host{i}"))).collect();
    for &(from, to, cost) in links {
        let (from, to) = (ids[from % hosts], ids[to % hosts]);
        if from != to {
            g.declare_link(from, to, cost % 40_000, RouteOp::UUCP);
        }
    }
    if hosts > 3 {
        g.adjust_node(ids[1], (seed % 600) as i64 - 300);
        g.delete_node(ids[2]);
        let net = g.node("NETZ");
        g.declare_network(net, &[(ids[0], 50), (ids[3], 90)], RouteOp::UUCP);
        g.begin_file("other");
        g.declare_private("host0");
    }
    g
}

/// Recomputes the documented checksum — the word-wide shift-xor fold
/// `k = (k << 7) ^ (k >> 57) ^ word` over the file with the checksum
/// field read as zero, zero-padding and length-tagging a trailing
/// partial word — from the format spec alone. An independent
/// implementation, so this test also cross-checks the documented
/// algorithm against the writer's.
fn retamp(mut bytes: Vec<u8>) -> Vec<u8> {
    let mut zeroed = bytes.clone();
    zeroed[32..40].fill(0);
    let mut k = 0u64;
    let mut words = zeroed.chunks_exact(8);
    for w in &mut words {
        k = (k << 7) ^ (k >> 57) ^ u64::from_le_bytes(w.try_into().unwrap());
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        k = (k << 7) ^ (k >> 57) ^ u64::from_le_bytes(padded);
        k = (k << 7) ^ (k >> 57) ^ tail.len() as u64;
    }
    bytes[32..40].copy_from_slice(&k.to_le_bytes());
    bytes
}

/// Serializes the graph with every optional section present — the
/// reverse CSR, a back link reversing the first edge (when there is
/// one) and a contraction hierarchy over the folded edge costs with
/// it appended — so the multi-section tests damage the widest layout.
fn all_sections(f: &FrozenGraph) -> Vec<u8> {
    let backlinks: Vec<_> = f
        .node_ids()
        .flat_map(|u| f.out_edges(u).map(move |e| (u, e)))
        .take(1)
        .map(|(u, e)| (f.edge_target(e), u, 9, f.edge_op(e), LinkFlags::BACK))
        .collect();
    let augmented = f.with_edges_appended(&backlinks);
    let weights: Vec<Cost> = (0..augmented.edge_count())
        .map(|e| augmented.edge_cost(EdgeId::from_raw(e as u32)))
        .collect();
    let rev = f.reverse();
    let ch = ChIndex::build(&augmented, &weights);
    to_bytes_all(f, Some(&rev), Some(&ch), &backlinks)
}

proptest! {
    // The CI fuzz job cranks case counts via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(12))]

    /// Any single bit flip anywhere in the file is rejected as
    /// `Corrupt` (the checksum guarantees this), never a panic.
    #[test]
    fn bit_flips_are_corrupt(
        hosts in 4usize..40,
        links in proptest::collection::vec((0usize..40, 0usize..40, 0u64..50_000), 1..80),
        seed in 0u64..1_000,
        positions in proptest::collection::vec((0usize..1_000_000, 0u32..8), 1..40),
    ) {
        let bytes = to_bytes(&build_graph(hosts, &links, seed).freeze());
        for &(pos, bit) in &positions {
            let mut bad = bytes.clone();
            let pos = pos % bad.len();
            bad[pos] ^= 1 << bit;
            match from_bytes(&bad) {
                Err(SnapshotError::Corrupt(_)) => {}
                Ok(_) => panic!("bit flip at byte {pos} bit {bit} accepted"),
                Err(e) => panic!("bit flip at byte {pos} bit {bit}: unexpected {e:?}"),
            }
        }
    }

    /// Every truncation of a valid file is `Corrupt` — even where the
    /// cut lands exactly on a section boundary.
    #[test]
    fn truncations_are_corrupt(
        hosts in 4usize..24,
        links in proptest::collection::vec((0usize..24, 0usize..24, 0u64..50_000), 1..40),
        seed in 0u64..1_000,
        cuts in proptest::collection::vec(0usize..1_000_000, 1..30),
    ) {
        let bytes = to_bytes(&build_graph(hosts, &links, seed).freeze());
        for &cut in &cuts {
            let cut = cut % bytes.len();
            match from_bytes(&bytes[..cut]) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("truncated to {cut} bytes: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Inflating any header count — node, edge, name-blob or sidecar —
    /// behind a *recomputed* checksum is rejected by the size equation
    /// before anything is allocated. (If the reader allocated first, a
    /// forged count of u32::MAX would ask for ~70 GB.)
    #[test]
    fn inflated_counts_are_corrupt_without_allocating(
        hosts in 4usize..24,
        links in proptest::collection::vec((0usize..24, 0usize..24, 0u64..50_000), 1..40),
        seed in 0u64..1_000,
        inflate in 1u64..u32::MAX as u64,
    ) {
        let bytes = to_bytes(&build_graph(hosts, &links, seed).freeze());
        // (field offset, width) of the four header counts.
        for &(at, width) in &[(8usize, 4usize), (12, 4), (16, 8), (24, 4)] {
            let mut bad = bytes.clone();
            let old = if width == 4 {
                u32::from_le_bytes(bad[at..at + 4].try_into().unwrap()) as u64
            } else {
                u64::from_le_bytes(bad[at..at + 8].try_into().unwrap())
            };
            let new = old.saturating_add(inflate);
            if width == 4 {
                bad[at..at + 4].copy_from_slice(&(new.min(u32::MAX as u64) as u32).to_le_bytes());
            } else {
                bad[at..at + 8].copy_from_slice(&new.to_le_bytes());
            }
            match from_bytes(&retamp(bad)) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("count at {at} inflated by {inflate}: got {other:?}"),
            }
        }
    }

    /// Multi-section files (reverse CSR + contraction hierarchy) are
    /// held to the same standard as the core image: any bit flip or
    /// truncation is `Corrupt` for the full reader — and for the
    /// legacy reader, which must reject damage even inside sections
    /// it would otherwise skip, because the checksum covers the whole
    /// file.
    #[test]
    fn multi_section_damage_is_corrupt(
        hosts in 4usize..24,
        links in proptest::collection::vec((0usize..24, 0usize..24, 0u64..50_000), 1..40),
        seed in 0u64..1_000,
        positions in proptest::collection::vec((0usize..1_000_000, 0u32..8), 1..20),
        cuts in proptest::collection::vec(0usize..1_000_000, 1..15),
    ) {
        let bytes = all_sections(&build_graph(hosts, &links, seed).freeze());
        prop_assert!(from_bytes_all(&bytes).is_ok());
        for &(pos, bit) in &positions {
            let mut bad = bytes.clone();
            let pos = pos % bad.len();
            bad[pos] ^= 1 << bit;
            for result in [from_bytes_all(&bad).map(|_| ()), from_bytes(&bad).map(|_| ())] {
                match result {
                    Err(SnapshotError::Corrupt(_)) => {}
                    other => panic!("flip at byte {pos} bit {bit}: got {other:?}"),
                }
            }
        }
        for &cut in &cuts {
            let cut = cut % bytes.len();
            match from_bytes_all(&bytes[..cut]) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("truncated to {cut} bytes: got {other:?}"),
            }
        }
    }

    /// A file claiming a section bit this reader does not implement —
    /// the forward-compat shape a new-format file presents to an old
    /// binary — is a clean unknown-flag `Corrupt`, never a misparse,
    /// no matter which future bit and which sections are present.
    #[test]
    fn future_section_flags_reject_cleanly(
        hosts in 4usize..24,
        links in proptest::collection::vec((0usize..24, 0usize..24, 0u64..50_000), 1..40),
        seed in 0u64..1_000,
        bit in 3u32..32,
        with_known in any::<bool>(),
    ) {
        let f = build_graph(hosts, &links, seed).freeze();
        let mut bytes = if with_known { all_sections(&f) } else { to_bytes(&f) };
        let old = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        bytes[28..32].copy_from_slice(&(old | 1 << bit).to_le_bytes());
        let bytes = retamp(bytes);
        for result in [from_bytes_all(&bytes).map(|_| ()), from_bytes(&bytes).map(|_| ())] {
            match result {
                Err(SnapshotError::Corrupt(why)) => {
                    prop_assert!(why.contains("section flags"), "bit {bit}: got {why:?}")
                }
                other => panic!("future flag bit {bit} accepted: {other:?}"),
            }
        }
    }

    /// Structured tampering of a multi-section file behind a fresh
    /// checksum never panics — the section validators reject or the
    /// damage is semantically harmless, but nothing crashes.
    #[test]
    fn multi_section_tampering_never_panics(
        tampers in proptest::collection::vec((0usize..1_000_000, any::<u8>()), 1..20),
    ) {
        let base = all_sections(
            &build_graph(6, &[(0, 1, 10), (1, 2, 20), (3, 4, 30), (4, 5, 7)], 7).freeze(),
        );
        let mut bad = base.clone();
        for &(pos, byte) in &tampers {
            bad[pos % base.len()] = byte;
        }
        let _ = from_bytes_all(&retamp(bad));
    }

    /// Random garbage — raw, magic-prefixed, or a tampered valid file
    /// with a recomputed checksum — never panics the reader.
    #[test]
    fn garbage_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..400),
        tampers in proptest::collection::vec((0usize..1_000_000, any::<u8>()), 0..20),
    ) {
        let _ = from_bytes(&raw);
        let mut prefixed = b"PAGF1\n".to_vec();
        prefixed.extend_from_slice(&raw);
        let _ = from_bytes(&prefixed);
        // Structured tampering behind a fresh checksum: only the
        // structural validators stand between these bytes and the
        // decoder.
        let base = to_bytes(&build_graph(6, &[(0, 1, 10), (1, 2, 20), (3, 4, 30)], 7).freeze());
        let mut bad = base.clone();
        for &(pos, byte) in &tampers {
            bad[pos % base.len()] = byte;
        }
        let _ = from_bytes(&retamp(bad));
    }
}
