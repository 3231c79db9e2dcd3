//! Multi-source mapping on scoped threads.
//!
//! Pathalias maps from one source — the local host. Site administrators
//! of the era ran it once per machine they administered; the benchmark
//! harness, the `mapgen` validation suite and the server's reload
//! validation map from many sources, so this module fans the read-only
//! mapper out over `std::thread::scope`. Every worker traverses the
//! same shared [`FrozenGraph`] — freezing happens exactly once, and the
//! snapshot is immutable, so no synchronization is needed beyond the
//! scope itself. Back links are not invented (use [`crate::map_frozen`]
//! once beforehand if they matter).

use crate::dijkstra::{map_frozen_readonly, MapError, MapOptions};
use crate::tree::ShortestPathTree;
use pathalias_graph::{FrozenGraph, NodeId};
use std::sync::Arc;

/// Maps from every source in `sources` over one shared frozen graph,
/// using up to `threads` worker threads. Results come back in
/// `sources` order.
///
/// # Examples
///
/// ```
/// use pathalias_mapper::{parallel::map_many_frozen, MapOptions};
/// use std::sync::Arc;
///
/// let g = pathalias_parser::parse("a b(10)\nb a(10)\nb c(5)\n").unwrap();
/// let sources = [g.try_node("a").unwrap(), g.try_node("b").unwrap()];
/// let frozen = Arc::new(g.freeze());
/// let trees = map_many_frozen(&frozen, &sources, &MapOptions::default(), 2);
/// assert_eq!(trees.len(), 2);
/// assert_eq!(trees[0].as_ref().unwrap().cost(sources[1]), Some(10));
/// ```
pub fn map_many_frozen(
    f: &Arc<FrozenGraph>,
    sources: &[NodeId],
    opts: &MapOptions,
    threads: usize,
) -> Vec<Result<ShortestPathTree, MapError>> {
    let threads = threads.max(1).min(sources.len().max(1));
    if threads <= 1 || sources.len() <= 1 {
        return sources
            .iter()
            .map(|&s| map_frozen_readonly(f, s, opts))
            .collect();
    }

    let mut results: Vec<Option<Result<ShortestPathTree, MapError>>> =
        (0..sources.len()).map(|_| None).collect();
    let chunk = sources.len().div_ceil(threads);

    std::thread::scope(|scope| {
        let mut rest: &mut [Option<Result<ShortestPathTree, MapError>>] = &mut results;
        let mut offset = 0;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let slice_sources = &sources[offset..offset + take];
            let f = &*f;
            scope.spawn(move || {
                for (slot, &src) in head.iter_mut().zip(slice_sources) {
                    *slot = Some(map_frozen_readonly(f, src, opts));
                }
            });
            rest = tail;
            offset += take;
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::map_readonly;
    use pathalias_graph::Graph;
    use pathalias_parser::parse;

    fn ring(n: usize) -> Graph {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("h{} h{}(10)\n", i, (i + 1) % n));
        }
        parse(&text).unwrap()
    }

    #[test]
    fn matches_sequential() {
        let g = ring(40);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let opts = MapOptions::default();
        let par = map_many_frozen(&Arc::new(g.freeze()), &sources, &opts, 4);
        for (i, &s) in sources.iter().enumerate() {
            let seq = map_readonly(&g, s, &opts).unwrap();
            let p = par[i].as_ref().unwrap();
            for id in g.node_ids() {
                assert_eq!(seq.label(id), p.label(id));
            }
        }
    }

    #[test]
    fn workers_share_one_snapshot() {
        let g = ring(12);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let frozen = Arc::new(g.freeze());
        let trees = map_many_frozen(&frozen, &sources, &MapOptions::default(), 4);
        for t in trees.iter().map(|t| t.as_ref().unwrap()) {
            assert!(Arc::ptr_eq(t.frozen(), &frozen), "no per-source refreeze");
        }
    }

    #[test]
    fn single_thread_fallback() {
        let g = ring(5);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let trees = map_many_frozen(&Arc::new(g.freeze()), &sources, &MapOptions::default(), 1);
        assert_eq!(trees.len(), 5);
        assert!(trees.iter().all(|t| t.is_ok()));
    }

    #[test]
    fn empty_sources() {
        let g = ring(3);
        assert!(map_many_frozen(&Arc::new(g.freeze()), &[], &MapOptions::default(), 4).is_empty());
    }

    #[test]
    fn errors_surface_per_source() {
        let mut g = ring(3);
        let dead = g.try_node("h1").unwrap();
        g.delete_node(dead);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let trees = map_many_frozen(&Arc::new(g.freeze()), &sources, &MapOptions::default(), 2);
        assert!(trees[0].is_ok());
        assert_eq!(trees[1].as_ref().unwrap_err(), &MapError::DeletedSource);
    }
}
