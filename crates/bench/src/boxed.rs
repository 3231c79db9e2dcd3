//! A pointer-per-object replica of the 1986 memory layout.
//!
//! The paper's allocator study (experiment E4) contrasts the bump-arena
//! discipline with a general-purpose allocator exercising one allocation
//! per node, per link, and per name — exactly what a straight C
//! translation with `malloc` would do. This module builds that layout
//! (`Box` per link in a singly-linked adjacency list, `Box<str>` per
//! name) so the benchmark can compare both builds under a counting
//! allocator.
//!
//! It is *not* used by the pipeline; [`pathalias_graph::Graph`]'s pooled layout is
//! the real representation.

use pathalias_graph::{Cost, Graph};

/// A link cell in the boxed representation: one heap allocation each,
/// like the original's `link` struct.
#[derive(Debug)]
pub struct BoxedLink {
    /// Index of the destination node in [`BoxedGraph::nodes`].
    pub to: usize,
    /// Link cost.
    pub cost: Cost,
    /// Next cell in the adjacency list.
    pub next: Option<Box<BoxedLink>>,
}

/// A node cell in the boxed representation: owns its name and the head
/// of its adjacency list.
#[derive(Debug)]
pub struct BoxedNode {
    /// Host name (one allocation per name, as with `strcpy` into
    /// `malloc`ed space).
    pub name: Box<str>,
    /// Adjacency list head.
    pub links: Option<Box<BoxedLink>>,
}

/// The whole boxed graph.
#[derive(Debug, Default)]
pub struct BoxedGraph {
    /// All nodes; indices stand in for the original's node pointers.
    pub nodes: Vec<BoxedNode>,
}

impl BoxedGraph {
    /// Builds a boxed replica of `g` (live links only).
    pub fn from_graph(g: &Graph) -> Self {
        let ids: Vec<_> = g.node_ids().collect();
        let mut nodes: Vec<BoxedNode> = ids
            .iter()
            .map(|&id| BoxedNode {
                name: g.name(id).into(),
                links: None,
            })
            .collect();
        for (pos, &id) in ids.iter().enumerate() {
            for (_, l) in g.links_from(id) {
                if l.flags.contains(pathalias_graph::LinkFlags::DELETED) {
                    continue;
                }
                let cell = Box::new(BoxedLink {
                    to: l.to.index(),
                    cost: l.cost,
                    next: nodes[pos].links.take(),
                });
                nodes[pos].links = Some(cell);
            }
        }
        BoxedGraph { nodes }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of link cells (walks every list).
    pub fn link_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                let mut c = 0;
                let mut cur = n.links.as_deref();
                while let Some(l) = cur {
                    c += 1;
                    cur = l.next.as_deref();
                }
                c
            })
            .sum()
    }

    /// Sums link costs by walking all adjacency lists; used by the
    /// benchmark as a traversal workload over the pointer layout.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for n in &self.nodes {
            let mut cur = n.links.as_deref();
            while let Some(l) = cur {
                acc = acc.wrapping_add(l.cost).wrapping_add(l.to as u64);
                cur = l.next.as_deref();
            }
        }
        acc
    }
}

impl Drop for BoxedGraph {
    fn drop(&mut self) {
        // Unlink each adjacency list iteratively: the default recursive
        // drop would overflow the stack on long lists (a real hazard at
        // USENET scale with thousands of links on hub nodes).
        for node in &mut self.nodes {
            let mut cur = node.links.take();
            while let Some(mut cell) = cur {
                cur = cell.next.take();
            }
        }
    }
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
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, c, 20, RouteOp::UUCP);
        g.declare_link(b, c, 30, RouteOp::UUCP);
        g
    }

    #[test]
    fn mirrors_counts() {
        let g = sample();
        let bg = BoxedGraph::from_graph(&g);
        assert_eq!(bg.node_count(), 3);
        assert_eq!(bg.link_count(), 3);
    }

    #[test]
    fn names_copied() {
        let g = sample();
        let bg = BoxedGraph::from_graph(&g);
        let names: Vec<&str> = bg.nodes.iter().map(|n| &*n.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn deleted_links_excluded() {
        let mut g = sample();
        let a = g.try_node("a").unwrap();
        let b = g.try_node("b").unwrap();
        g.delete_link(a, b);
        let bg = BoxedGraph::from_graph(&g);
        assert_eq!(bg.link_count(), 2);
    }

    #[test]
    fn checksum_stable() {
        let g = sample();
        let x = BoxedGraph::from_graph(&g).checksum();
        let y = BoxedGraph::from_graph(&g).checksum();
        assert_eq!(x, y);
        assert_ne!(x, 0);
    }

    #[test]
    fn deep_lists_drop_without_overflow() {
        let mut g = Graph::new();
        let hub = g.node("hub");
        for i in 0..200_000 {
            let to = g.node(&format!("n{i}"));
            g.add_raw_link(
                hub,
                to,
                1,
                RouteOp::UUCP,
                pathalias_graph::LinkFlags::empty(),
            );
        }
        let bg = BoxedGraph::from_graph(&g);
        assert_eq!(bg.link_count(), 200_000);
        drop(bg); // Must not blow the stack.
    }
}
