//! The O(v²) array-scan Dijkstra the paper compares its priority queue
//! against ("both asymptotically and pragmatically, the priority queue
//! variant is a clear winner"), for experiment E7.
//!
//! It is written on nothing but `pathalias_mapper::cost_model`'s public
//! kernel — `Tail`, `step`, `settle` — so its labels are the mapper's
//! by construction, and it doubles as the proof that the kernel is
//! enough to write a mapper with.

use pathalias_graph::{FrozenGraph, NodeId};
use pathalias_mapper::cost_model::{
    pack_key, settle, source_label, unpack_label, Key, Tail, LABELLED, MAPPED, NO_PRED,
};
use pathalias_mapper::{Label, MapError, MapOptions, MapStats};

/// What the array-scan run leaves: one label per reached node.
#[derive(Debug, Clone)]
pub struct ScanTree {
    labels: Vec<Option<Label>>,
    /// Counters from the run (`pushes` and `pops` stay 0; `scan_steps`
    /// is the v² part).
    pub stats: MapStats,
}

impl ScanTree {
    /// The label for `node`, if it was reached.
    pub fn label(&self, node: NodeId) -> Option<Label> {
        *self.labels.get(node.index())?
    }

    /// Number of reached nodes.
    pub fn mapped_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }
}

/// Maps with the standard O(v²) array-scan Dijkstra. Produces labels
/// identical to `pathalias_mapper::map_frozen_readonly` (`opts.trace`
/// is not honoured).
pub fn map_frozen_quadratic_readonly(
    f: &FrozenGraph,
    source: NodeId,
    opts: &MapOptions,
) -> Result<ScanTree, MapError> {
    if !f.is_mappable(source) {
        return Err(MapError::DeletedSource);
    }
    if opts.exclude_domains && f.is_domain(source) {
        return Err(MapError::ExcludedSource);
    }
    let n = f.node_count();
    let mut key: Vec<Key> = (0..n as u32).map(|i| pack_key(0, 0, i)).collect();
    let mut pred = vec![NO_PRED; n];
    let mut state = vec![0u8; n];
    let mut stats = MapStats::default();
    let si = source.index();
    (key[si], pred[si], state[si]) = source_label(f, source);
    loop {
        // Select the unmapped labelled node with the smallest key by
        // scanning the whole array — the v² part.
        let mut best: Option<(Key, usize)> = None;
        for (i, (&st, &k)) in state.iter().zip(&key).enumerate() {
            stats.scan_steps += 1;
            if st & (LABELLED | MAPPED) == LABELLED && best.map_or(true, |(b, _)| k < b) {
                best = Some((k, i));
            }
        }
        let Some((_, ui)) = best else { break };
        state[ui] |= MAPPED;
        stats.mapped += 1;
        let u = NodeId::from_raw(ui as u32);
        let tail = Tail::load(f, source, u, (key[ui], pred[ui], state[ui]));
        let (base_edge, row) = f.edge_slice(u);
        stats.relaxations += row.len() as u64;
        for (i, &edge) in row.iter().enumerate() {
            let v = edge.to();
            let vi = v.index();
            if state[vi] & MAPPED != 0 || (opts.exclude_domains && f.is_domain(v)) {
                continue;
            }
            let e_raw = base_edge + i as u32;
            let step = opts.model.step(f, &tail, e_raw, edge);
            settle(
                state[vi] & LABELLED != 0,
                &mut key[vi],
                &mut pred[vi],
                &mut state[vi],
                step.label(&tail, e_raw, v),
            );
        }
    }
    let labels = (0..n)
        .map(|i| unpack_label((key[i], pred[i], state[i])))
        .collect();
    Ok(ScanTree { labels, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mapper::{map_frozen_readonly, map_readonly};
    use pathalias_parser::parse;
    use std::sync::Arc;

    #[test]
    fn quadratic_matches_heap_exactly() {
        let text = "\
a b(10), c(200), @d(40)
b c(20), e(100)
c d(5)
d e(1)
e a(1)
N = {b, d, f}(30)
g h(10)
";
        let g = parse(text).unwrap();
        let a = g.try_node("a").unwrap();
        let opts = MapOptions::default();
        let frozen = Arc::new(g.freeze());
        let t1 = map_frozen_readonly(&frozen, a, &opts).unwrap();
        let t2 = map_frozen_quadratic_readonly(&frozen, a, &opts).unwrap();
        for id in g.node_ids() {
            assert_eq!(t1.label(id), t2.label(id), "node {}", g.name(id));
        }
        assert!(t1.stats.pushes > 0);
        assert_eq!(t2.stats.pushes, 0);
        assert!(t2.stats.scan_steps > 0);
        // Out-of-range ids read as unreached.
        assert_eq!(t1.label(NodeId::from_raw(u32::MAX)), None);
    }

    /// The array scan's half of the mapper's
    /// `determinism_across_variants_and_runs`: three equal-cost preds
    /// for `x`, the smallest node id (`a`) wins in this variant too.
    #[test]
    fn scan_breaks_ties_like_the_heap_run() {
        let g = parse("hub a(10), b(10), c(10)\na x(10)\nb x(10)\nc x(10)\nx y(1)\n").unwrap();
        let hub = g.try_node("hub").unwrap();
        let x = g.try_node("x").unwrap();
        let opts = MapOptions::default();
        let t1 = map_readonly(&g, hub, &opts).unwrap();
        let t3 = map_frozen_quadratic_readonly(&g.freeze(), hub, &opts).unwrap();
        assert_eq!(t1.label(x), t3.label(x));
    }
}
