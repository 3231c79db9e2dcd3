//! The "second-best path" experiment from the PROBLEMS section.
//!
//! "The problem lies with our shortest path computation: we compute a
//! shortest path tree, but the routes we want to generate cannot be
//! represented in a tree. We are currently experimenting with a modified
//! algorithm that maintains the 'second-best' path when the shortest
//! path to a host goes by way of a domain."
//!
//! We realize the experiment as a dual mapping: the *primary* tree is
//! the ordinary run; the *clean* tree re-runs the mapping on the
//! subgraph with every domain node removed, so its label for a host is
//! the best domain-free path. When the primary route to a host goes by
//! way of a domain (its label is tainted), the clean label is exactly
//! the second-best path the paper wants to keep.

use pathalias_graph::{FrozenGraph, Graph, NodeId};
use pathalias_mapper::{
    map_frozen, map_frozen_readonly, Label, MapError, MapOptions, ShortestPathTree,
};
use std::sync::Arc;

/// The result of a dual (primary + domain-free) mapping.
#[derive(Debug, Clone)]
pub struct DualTree {
    /// The ordinary shortest-path tree.
    pub primary: ShortestPathTree,
    /// The best domain-free tree.
    pub clean: ShortestPathTree,
}

impl DualTree {
    /// Whether the primary route to `node` goes by way of a domain.
    pub fn via_domain(&self, node: NodeId) -> bool {
        self.primary.label(node).is_some_and(|l| l.tainted)
    }

    /// The second-best (domain-free) label for `node`, when the primary
    /// route goes by way of a domain and an alternative exists.
    pub fn second_best(&self, node: NodeId) -> Option<Label> {
        if self.via_domain(node) {
            self.clean.label(node)
        } else {
            None
        }
    }

    /// The label a mailer should prefer: the domain-free alternative if
    /// the primary is domain-routed and an alternative exists, else the
    /// primary.
    pub fn preferred(&self, node: NodeId) -> Option<Label> {
        self.second_best(node).or_else(|| self.primary.label(node))
    }
}

/// Runs the dual mapping on a frozen graph: a normal [`map_frozen`]
/// (with back links) plus a domain-free [`map_frozen_readonly`] over
/// the primary run's final snapshot (so the clean pass may use the
/// invented back links, as the original did).
pub fn map_dual_frozen(
    f: &Arc<FrozenGraph>,
    source: NodeId,
    opts: &MapOptions,
) -> Result<DualTree, MapError> {
    let clean_opts = MapOptions {
        exclude_domains: true,
        no_backlinks: true,
        trace: Vec::new(),
        ..opts.clone()
    };
    // Fail on an excluded source before doing the primary work, as the
    // original did.
    if f.is_mappable(source) && f.is_domain(source) {
        return Err(MapError::ExcludedSource);
    }
    let primary = map_frozen(f, source, opts)?;
    let clean = map_frozen_readonly(primary.frozen(), source, &clean_opts)?;
    Ok(DualTree { primary, clean })
}

/// Freezes `g` and runs the dual mapping (see [`map_dual_frozen`]).
pub fn map_dual(g: &Graph, source: NodeId, opts: &MapOptions) -> Result<DualTree, MapError> {
    map_dual_frozen(&Arc::new(g.freeze()), source, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_parser::parse;

    /// The motown graph from the paper's PROBLEMS figure, with the
    /// relay penalty disabled so the domain route wins the primary tree
    /// (as in the pre-heuristic pathalias the section discusses).
    const MOTOWN: &str = "\
princeton caip(200), topaz(300)
caip .rutgers.edu(200)
.rutgers.edu motown(25)
topaz motown(200)
";

    #[test]
    fn second_best_keeps_domain_free_route() {
        let g = parse(MOTOWN).unwrap();
        let princeton = g.try_node("princeton").unwrap();
        let motown = g.try_node("motown").unwrap();
        let topaz = g.try_node("topaz").unwrap();

        let mut opts = MapOptions::default();
        opts.model.relay_penalty = 0; // Pre-heuristic behaviour.
        let dual = map_dual(&g, princeton, &opts).unwrap();

        // Primary: via the domain at 425.
        assert_eq!(dual.primary.cost(motown), Some(425));
        assert!(dual.via_domain(motown));
        // Second best: via topaz at 500, domain-free.
        let second = dual.second_best(motown).expect("alternative exists");
        assert_eq!(second.cost, 500);
        assert_eq!(second.pred.unwrap().0, topaz);
        assert!(!second.tainted);
        // The mailer should prefer the clean route.
        assert_eq!(dual.preferred(motown).unwrap().cost, 500);
    }

    #[test]
    fn hosts_not_via_domain_have_no_second_best() {
        let g = parse(MOTOWN).unwrap();
        let princeton = g.try_node("princeton").unwrap();
        let topaz = g.try_node("topaz").unwrap();
        let dual = map_dual(&g, princeton, &MapOptions::default()).unwrap();
        assert!(!dual.via_domain(topaz));
        assert!(dual.second_best(topaz).is_none());
        assert_eq!(dual.preferred(topaz).unwrap().cost, 300);
    }

    #[test]
    fn unreachable_without_domains_yields_none() {
        // motown reachable *only* via the domain.
        let text = "\
princeton caip(200)
caip .rutgers.edu(200)
.rutgers.edu motown(25)
";
        let g = parse(text).unwrap();
        let princeton = g.try_node("princeton").unwrap();
        let motown = g.try_node("motown").unwrap();
        let mut opts = MapOptions::default();
        opts.model.relay_penalty = 0;
        opts.no_backlinks = true;
        let dual = map_dual(&g, princeton, &opts).unwrap();
        assert!(dual.via_domain(motown));
        assert!(dual.second_best(motown).is_none(), "no clean alternative");
        // preferred() falls back to the primary.
        assert_eq!(dual.preferred(motown).unwrap().cost, 425);
    }

    #[test]
    fn domain_source_is_rejected_for_clean_run() {
        let g = parse(".edu = {caip}(0)\n").unwrap();
        let edu = g.try_node(".edu").unwrap();
        assert_eq!(
            map_dual(&g, edu, &MapOptions::default()).unwrap_err(),
            MapError::ExcludedSource
        );
    }
}
