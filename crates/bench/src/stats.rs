//! Graph statistics: sparsity, degree distribution, connectivity.
//!
//! The paper leans on structural facts about the maps — "the graph
//! described by the USENET data is sparse, i.e., the number of edges e
//! is proportional to v" — and the generator's tests need to verify
//! that the synthetic universe has the same shape. This module computes
//! those facts.

use pathalias_graph::{Graph, LinkFlags, NodeFlags, NodeId};

/// Structural summary of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Mappable nodes (not deleted).
    pub nodes: usize,
    /// Live links (not deleted).
    pub links: usize,
    /// Network placeholder nodes (including domains).
    pub nets: usize,
    /// Domain nodes.
    pub domains: usize,
    /// Private nodes.
    pub private: usize,
    /// Dead nodes.
    pub dead: usize,
    /// Mean out-degree over mappable nodes.
    pub mean_degree: f64,
    /// Largest out-degree.
    pub max_degree: usize,
    /// e / v — the paper's sparsity measure.
    pub sparsity: f64,
    /// Number of weakly connected components.
    pub components: usize,
    /// Size of the largest weakly connected component.
    pub largest_component: usize,
}

/// Computes the summary.
pub fn stats(g: &Graph) -> GraphStats {
    let mut nodes = 0usize;
    let mut links = 0usize;
    let mut nets = 0usize;
    let mut domains = 0usize;
    let mut private = 0usize;
    let mut dead = 0usize;
    let mut max_degree = 0usize;

    let mut dsu = Dsu::new(g.node_count());
    for (id, node) in g.iter_nodes() {
        if !node.is_mappable() {
            continue;
        }
        nodes += 1;
        if node.is_net() {
            nets += 1;
        }
        if node.is_domain() {
            domains += 1;
        }
        if node.flags.contains(NodeFlags::PRIVATE) {
            private += 1;
        }
        if node.flags.contains(NodeFlags::DEAD) {
            dead += 1;
        }
        let mut degree = 0usize;
        for (_, l) in g.links_from(id) {
            if l.flags.contains(LinkFlags::DELETED) || !g.node_ref(l.to).is_mappable() {
                continue;
            }
            degree += 1;
            links += 1;
            dsu.union(id.index(), l.to.index());
        }
        max_degree = max_degree.max(degree);
    }

    let mut components = 0usize;
    let mut largest = 0usize;
    let mut sizes = std::collections::HashMap::new();
    for (id, node) in g.iter_nodes() {
        if node.is_mappable() {
            let root = dsu.find(id.index());
            let c = sizes.entry(root).or_insert(0usize);
            *c += 1;
            largest = largest.max(*c);
        }
    }
    components += sizes.len();

    GraphStats {
        nodes,
        links,
        nets,
        domains,
        private,
        dead,
        mean_degree: if nodes == 0 {
            0.0
        } else {
            links as f64 / nodes as f64
        },
        max_degree,
        sparsity: if nodes == 0 {
            0.0
        } else {
            links as f64 / nodes as f64
        },
        components,
        largest_component: largest,
    }
}

/// Out-degree histogram: `hist[d]` = number of nodes with out-degree
/// `d` (the tail is summed into the last bucket).
pub fn degree_histogram(g: &Graph, buckets: usize) -> Vec<usize> {
    let mut hist = vec![0usize; buckets.max(1)];
    for (id, node) in g.iter_nodes() {
        if !node.is_mappable() {
            continue;
        }
        let d = g
            .links_from(id)
            .filter(|(_, l)| !l.flags.contains(LinkFlags::DELETED))
            .count();
        let slot = d.min(hist.len() - 1);
        hist[slot] += 1;
    }
    hist
}

/// Union-find over dense node indices (weak connectivity).
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            // Path halving.
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }
}

/// Hosts with no live links in either direction (isolated declarations).
pub fn isolated_hosts(g: &Graph) -> Vec<NodeId> {
    let mut touched = vec![false; g.node_count()];
    for (id, node) in g.iter_nodes() {
        if !node.is_mappable() {
            continue;
        }
        for (_, l) in g.links_from(id) {
            if !l.flags.contains(LinkFlags::DELETED) {
                touched[id.index()] = true;
                touched[l.to.index()] = true;
            }
        }
    }
    g.iter_nodes()
        .filter(|(id, n)| n.is_mappable() && !touched[id.index()])
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::{Graph, RouteOp};

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        let _lonely = g.node("lonely");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(b, c, 10, RouteOp::UUCP);
        g.declare_link(b, a, 10, RouteOp::UUCP);
        g
    }

    #[test]
    fn counts_and_degrees() {
        let s = stats(&sample());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.links, 3);
        assert_eq!(s.max_degree, 2);
        assert!((s.mean_degree - 0.75).abs() < 1e-9);
    }

    #[test]
    fn components() {
        let s = stats(&sample());
        assert_eq!(s.components, 2, "abc + lonely");
        assert_eq!(s.largest_component, 3);
    }

    #[test]
    fn deleted_excluded() {
        let mut g = sample();
        let b = g.try_node("b").unwrap();
        g.delete_node(b);
        let s = stats(&g);
        assert_eq!(s.nodes, 3);
        // Every link touched b, so none survive: three singletons.
        assert_eq!(s.links, 0);
        assert_eq!(s.components, 3);
    }

    #[test]
    fn histogram_shapes() {
        let h = degree_histogram(&sample(), 4);
        assert_eq!(h.iter().sum::<usize>(), 4);
        assert_eq!(h[0], 2, "c and lonely have no out-links");
        assert_eq!(h[1], 1, "a has one");
        assert_eq!(h[2], 1, "b has two");
    }

    #[test]
    fn isolated() {
        let g = sample();
        let iso = isolated_hosts(&g);
        assert_eq!(iso.len(), 1);
        assert_eq!(g.name(iso[0]), "lonely");
    }

    #[test]
    fn nets_and_flags_counted() {
        let mut g = Graph::new();
        let n = g.node("NET");
        let d = g.node(".edu");
        let m = g.node("m");
        g.declare_network(n, &[(m, 10)], RouteOp::UUCP);
        g.declare_link(m, d, 10, RouteOp::UUCP);
        g.mark_dead(m);
        let s = stats(&g);
        assert_eq!(s.nets, 2, "NET and .edu");
        assert_eq!(s.domains, 1);
        assert_eq!(s.dead, 1);
    }
}
