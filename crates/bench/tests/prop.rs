//! Property tests for the bump arena and pools.

use pathalias_bench::bump::Bump;
use pathalias_bench::pool::Pool;
use proptest::prelude::*;

proptest! {
    /// Every pushed string reads back exactly, whatever the chunking.
    #[test]
    fn bump_roundtrip(
        chunk in 1usize..128,
        strings in proptest::collection::vec("[ -~]{0,40}", 0..60),
    ) {
        let mut arena = Bump::with_chunk_size(chunk);
        let spans: Vec<_> = strings.iter().map(|s| arena.push_str(s)).collect();
        for (span, s) in spans.iter().zip(&strings) {
            prop_assert_eq!(arena.str(*span), s.as_str());
        }
        let st = arena.stats();
        prop_assert_eq!(st.allocations, strings.len());
        prop_assert_eq!(st.used, strings.iter().map(|s| s.len()).sum::<usize>());
        prop_assert!(st.reserved >= st.used);
    }

    /// Pool handles stay valid and ordered under interleaved allocation
    /// and mutation.
    #[test]
    fn pool_model(values in proptest::collection::vec(any::<u64>(), 0..100)) {
        let mut pool = Pool::new();
        let handles: Vec<_> = values.iter().map(|&v| pool.alloc(v)).collect();
        prop_assert_eq!(pool.len(), values.len());
        for (h, v) in handles.iter().zip(&values) {
            prop_assert_eq!(pool[*h], *v);
        }
        // Mutate through handles; reads reflect it.
        for h in &handles {
            pool[*h] = pool[*h].wrapping_mul(3);
        }
        for (h, v) in handles.iter().zip(&values) {
            prop_assert_eq!(pool[*h], v.wrapping_mul(3));
        }
        // Iteration order is allocation order.
        let order: Vec<u32> = pool.handles().map(|h| h.raw()).collect();
        let expect: Vec<u32> = (0..values.len() as u32).collect();
        prop_assert_eq!(order, expect);
    }
}
