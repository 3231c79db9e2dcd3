//! Property test: the indexed heap against a sorted-model oracle.

use pathalias_bench::heap::IndexedHeap;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Push(u32, u64),
    DecreaseToHalf(u32),
    Pop,
}

fn op(n: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, 0u64..10_000).prop_map(|(i, k)| Op::Push(i, k)),
        (0..n).prop_map(Op::DecreaseToHalf),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_model(ops in proptest::collection::vec(op(64), 1..400)) {
        let mut heap: IndexedHeap<(u64, u32)> = IndexedHeap::new(64);
        // Model: node -> key.
        let mut model: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Push(node, key) => {
                    model.entry(node).or_insert_with(|| {
                        heap.push(node, (key, node));
                        key
                    });
                }
                Op::DecreaseToHalf(node) => {
                    if let Some(k) = model.get_mut(&node) {
                        *k /= 2;
                        heap.decrease(node, (*k, node));
                    }
                }
                Op::Pop => {
                    let expected = model
                        .iter()
                        .map(|(&n, &k)| (k, n))
                        .min();
                    match expected {
                        None => prop_assert!(heap.pop().is_none()),
                        Some((k, n)) => {
                            prop_assert_eq!(heap.pop(), Some((n, (k, n))));
                            model.remove(&n);
                        }
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            for (&n, &k) in &model {
                prop_assert!(heap.contains(n));
                prop_assert_eq!(heap.key_of(n), Some((k, n)));
            }
        }
    }
}
