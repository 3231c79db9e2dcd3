//! Nodes: hosts, networks and domains.

use crate::flags::NodeFlags;

/// A vertex in the connectivity graph — a host, a network placeholder,
/// or a domain — as [`Graph::node_ref`](crate::Graph::node_ref) reads
/// it: its flags and its bias, by value. The graph keeps each field in
/// a vector of its own, the shape the frozen snapshot takes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Flags.
    pub flags: NodeFlags,
    /// Cost bias from an `adjust` declaration, applied to every path
    /// that *transits* this node (edges leaving it). May be negative;
    /// effective link costs clamp at zero.
    pub adjust: i64,
}

impl Node {
    /// Whether the node is a network placeholder (including domains).
    pub fn is_net(&self) -> bool {
        self.flags.intersects(NodeFlags::NET | NodeFlags::DOMAIN)
    }

    /// Whether the node is a domain.
    pub fn is_domain(&self) -> bool {
        self.flags.contains(NodeFlags::DOMAIN)
    }

    /// Whether entering this node requires a gateway. "Because hosts
    /// with domain addresses are by definition ARPANET hosts, domains
    /// and subdomains are assumed to require gateways."
    pub fn is_gated(&self) -> bool {
        self.flags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
    }

    /// Whether the mapping phase should consider this node at all.
    pub fn is_mappable(&self) -> bool {
        !self.flags.contains(NodeFlags::DELETED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> Node {
        Node {
            flags: NodeFlags::empty(),
            adjust: 0,
        }
    }

    #[test]
    fn host_predicates() {
        let n = blank();
        assert!(!n.is_net());
        assert!(!n.is_domain());
        assert!(!n.is_gated());
        assert!(n.is_mappable());
    }

    #[test]
    fn domain_is_gated_net() {
        let mut n = blank();
        n.flags.insert(NodeFlags::DOMAIN);
        assert!(n.is_net());
        assert!(n.is_domain());
        assert!(n.is_gated());
    }

    #[test]
    fn gated_network() {
        let mut n = blank();
        n.flags.insert(NodeFlags::NET | NodeFlags::GATED);
        assert!(n.is_net());
        assert!(!n.is_domain());
        assert!(n.is_gated());
    }

    #[test]
    fn deleted_not_mappable() {
        let mut n = blank();
        n.flags.insert(NodeFlags::DELETED);
        assert!(!n.is_mappable());
    }
}
