//! Writes a graph back out in the pathalias input language.
//!
//! Used for normalizing maps, for generating test fixtures, and to
//! property-test the parser (parse → unparse → parse must converge).

use pathalias_graph::{Dir, Graph, LinkFlags, NodeFlags, NodeId, RouteOp};
use std::fmt::Write as _;

fn op_prefix(op: RouteOp) -> String {
    match op.dir {
        Dir::Right => op.ch.to_string(),
        Dir::Left => String::new(),
    }
}

fn op_suffix(op: RouteOp) -> String {
    match op.dir {
        // The default `!`/Left is left implicit, as in real maps.
        Dir::Left if op == RouteOp::UUCP => String::new(),
        Dir::Left => op.ch.to_string(),
        Dir::Right => String::new(),
    }
}

/// Renders one link target in input syntax, e.g. `duke(500)` or
/// `@mit-ai(95)`.
fn render_target(g: &Graph, to: NodeId, cost: u64, op: RouteOp) -> String {
    format!("{}{}{}({})", op_prefix(op), g.name(to), op_suffix(op), cost)
}

/// Writes the graph as pathalias input text.
///
/// Explicit links are grouped per source host; networks, aliases and the
/// various commands are emitted afterwards. Private nodes cannot be
/// faithfully round-tripped across file boundaries, so each private node
/// is emitted inside its own `file { ... }` section with a `private`
/// declaration.
///
/// # Examples
///
/// ```
/// use pathalias_graph::{Graph, RouteOp};
///
/// let mut g = Graph::new();
/// let a = g.node("unc");
/// let b = g.node("duke");
/// g.declare_link(a, b, 500, RouteOp::UUCP);
/// let text = pathalias_bench::unparse::unparse(&g);
/// assert!(text.contains("unc\tduke(500)"));
/// ```
pub fn unparse(g: &Graph) -> String {
    let mut out = String::new();
    // Nodes that appear anywhere in the emitted text; isolated nodes
    // get a bare declaration at the end so no host is lost.
    let mut mentioned = vec![false; g.node_count()];

    // Deleted nodes and private nodes are handled separately.
    let is_plain = |id: NodeId| {
        let n = g.node_ref(id);
        !n.flags.intersects(NodeFlags::DELETED | NodeFlags::PRIVATE)
    };

    // Explicit links, grouped by source. Sources are emitted sorted by
    // name (so output is stable however the graph was built); each
    // source's targets keep declaration order (the adjacency list is
    // newest-first, so reverse it).
    let mut sorted_ids: Vec<NodeId> = g.node_ids().filter(|&id| is_plain(id)).collect();
    sorted_ids.sort_by(|&a, &b| g.name(a).cmp(g.name(b)));
    for &id in &sorted_ids {
        let targets: Vec<String> = {
            let mut v: Vec<String> = g
                .links_from(id)
                .filter(|(_, l)| {
                    l.flags.is_explicit() && !l.flags.contains(LinkFlags::DELETED) && is_plain(l.to)
                })
                .map(|(_, l)| render_target(g, l.to, l.cost, l.op))
                .collect();
            v.reverse();
            v
        };
        if !targets.is_empty() {
            mentioned[id.index()] = true;
            for (_, l) in g.links_from(id) {
                if l.flags.is_explicit() && !l.flags.contains(LinkFlags::DELETED) {
                    mentioned[l.to.index()] = true;
                }
            }
            let _ = writeln!(out, "{}\t{}", g.name(id), targets.join(", "));
        }
    }

    // Networks: net = op{members}(cost). Entry costs may differ per
    // member after merges; emit one declaration per distinct cost/op,
    // nets sorted by name.
    for &id in &sorted_ids {
        let node = g.node_ref(id);
        if !node.is_net() {
            continue;
        }
        let mut groups: Vec<((u64, RouteOp), Vec<String>)> = Vec::new();
        let mut members: Vec<NodeId> = g
            .links_from(id)
            .filter(|(_, l)| l.flags.contains(LinkFlags::NET_OUT) && is_plain(l.to))
            .map(|(_, l)| l.to)
            .collect();
        members.reverse();
        for m in members {
            // Find the paired entry edge for cost and operator.
            let Some((_, entry)) = g
                .links_from(m)
                .find(|(_, l)| l.to == id && l.flags.contains(LinkFlags::NET_IN))
            else {
                continue;
            };
            let key = (entry.cost, entry.op);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(g.name(m).to_string()),
                None => groups.push((key, vec![g.name(m).to_string()])),
            }
        }
        for ((cost, op), names) in groups {
            mentioned[id.index()] = true;
            let _ = writeln!(
                out,
                "{} = {}{{{}}}({})",
                g.name(id),
                op_prefix(op),
                names.join(", "),
                cost
            );
            let _ = op_suffix(op); // Left-ops inside nets render as default.
        }
        for (_, l) in g.links_from(id) {
            if l.flags.contains(LinkFlags::NET_OUT) {
                mentioned[l.to.index()] = true;
            }
        }
    }

    // Aliases: emit each unordered pair once, sorted by name pair.
    let mut alias_lines: Vec<String> = Vec::new();
    for &id in &sorted_ids {
        for (_, l) in g.links_from(id) {
            if l.flags.contains(LinkFlags::ALIAS) && is_plain(l.to) {
                mentioned[id.index()] = true;
                mentioned[l.to.index()] = true;
                let (a, b) = (g.name(id), g.name(l.to));
                if a < b {
                    alias_lines.push(format!("{a} = {b}"));
                }
            }
        }
    }
    alias_lines.sort();
    alias_lines.dedup();
    for line in alias_lines {
        let _ = writeln!(out, "{line}");
    }

    // Commands.
    let mut dead_hosts = Vec::new();
    let mut gated = Vec::new();
    let mut adjusts = Vec::new();
    for &id in &sorted_ids {
        let node = g.node_ref(id);
        if node.flags.contains(NodeFlags::DEAD) {
            mentioned[id.index()] = true;
            dead_hosts.push(g.name(id).to_string());
        }
        if node.flags.contains(NodeFlags::GATED) {
            mentioned[id.index()] = true;
            gated.push(g.name(id).to_string());
        }
        if node.flags.contains(NodeFlags::ADJUSTED) && node.adjust != 0 {
            mentioned[id.index()] = true;
            adjusts.push(format!("{}({})", g.name(id), node.adjust));
        }
    }
    if !dead_hosts.is_empty() {
        let _ = writeln!(out, "dead {{{}}}", dead_hosts.join(", "));
    }
    if !gated.is_empty() {
        let _ = writeln!(out, "gated {{{}}}", gated.join(", "));
    }
    if !adjusts.is_empty() {
        let _ = writeln!(out, "adjust {{{}}}", adjusts.join(", "));
    }

    // Dead links and gateway links.
    let mut dead_links = Vec::new();
    let mut gateways = Vec::new();
    for &id in &sorted_ids {
        for (_, l) in g.links_from(id) {
            if !is_plain(l.to) || l.flags.contains(LinkFlags::DELETED) {
                continue;
            }
            if l.flags.contains(LinkFlags::DEAD) {
                dead_links.push(format!("{}!{}", g.name(id), g.name(l.to)));
            }
            if l.flags.contains(LinkFlags::GATEWAY) {
                gateways.push(format!("{}!{}", g.name(l.to), g.name(id)));
            }
        }
    }
    if !dead_links.is_empty() {
        dead_links.sort();
        let _ = writeln!(out, "dead {{{}}}", dead_links.join(", "));
    }
    if !gateways.is_empty() {
        gateways.sort();
        gateways.dedup();
        let _ = writeln!(out, "gateway {{{}}}", gateways.join(", "));
    }

    // Private hosts: one file section each, re-creating their links.
    // Sections are numbered sequentially so a re-parse reproduces the
    // same text.
    let mut section = 0usize;
    for (id, node) in g.iter_nodes() {
        if !node.flags.contains(NodeFlags::PRIVATE) || node.flags.contains(NodeFlags::DELETED) {
            continue;
        }
        let _ = writeln!(out, "file {{private-{section}}}");
        section += 1;
        let _ = writeln!(out, "private {{{}}}", g.name(id));
        let targets: Vec<String> = {
            let mut v: Vec<String> = g
                .links_from(id)
                .filter(|(_, l)| l.flags.is_explicit() && !l.flags.contains(LinkFlags::DELETED))
                .map(|(_, l)| render_target(g, l.to, l.cost, l.op))
                .collect();
            v.reverse();
            v
        };
        if !targets.is_empty() {
            let _ = writeln!(out, "{}\t{}", g.name(id), targets.join(", "));
        }
    }

    // Bare declarations for plain hosts that never appeared.
    let mut bare: Vec<&str> = sorted_ids
        .iter()
        .filter(|id| !mentioned[id.index()])
        .map(|&id| g.name(id))
        .collect();
    bare.sort();
    for name in bare {
        let _ = writeln!(out, "{name}");
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_graph::Graph;

    #[test]
    fn simple_links() {
        let mut g = Graph::new();
        let unc = g.node("unc");
        let duke = g.node("duke");
        let phs = g.node("phs");
        g.declare_link(unc, duke, 500, RouteOp::UUCP);
        g.declare_link(unc, phs, 2000, RouteOp::UUCP);
        let text = unparse(&g);
        assert!(text.contains("unc\tduke(500), phs(2000)"), "{text}");
    }

    #[test]
    fn arpa_style_prefix() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 10, RouteOp::ARPA);
        assert!(unparse(&g).contains("a\t@b(10)"));
    }

    #[test]
    fn networks_and_aliases() {
        let mut g = Graph::new();
        let net = g.node("ARPA");
        let m1 = g.node("mit-ai");
        let m2 = g.node("ucbvax");
        g.declare_network(net, &[(m1, 95), (m2, 95)], RouteOp::ARPA);
        let p = g.node("princeton");
        let f = g.node("fun");
        g.declare_alias(p, f);
        let text = unparse(&g);
        assert!(
            text.contains("ARPA = @{mit-ai, ucbvax}(95)"),
            "network line missing in: {text}"
        );
        assert!(text.contains("fun = princeton"), "{text}");
    }

    #[test]
    fn commands_roundtrip_shapes() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let net = g.node("CS");
        g.declare_link(a, b, 10, RouteOp::UUCP);
        g.declare_link(a, net, 10, RouteOp::UUCP);
        g.mark_gated(net);
        g.declare_gateway(net, a);
        g.mark_dead(b);
        g.mark_dead_link(a, b);
        g.adjust_node(a, 250);
        let text = unparse(&g);
        assert!(text.contains("dead {b}"), "{text}");
        assert!(text.contains("gated {CS}"), "{text}");
        assert!(text.contains("adjust {a(250)}"), "{text}");
        assert!(text.contains("dead {a!b}"), "{text}");
        assert!(text.contains("gateway {CS!a}"), "{text}");
    }

    #[test]
    fn private_sections() {
        let mut g = Graph::new();
        g.begin_file("f1");
        let pb = g.declare_private("bilbo");
        let w = g.node("wiretap");
        g.declare_link(pb, w, 10, RouteOp::UUCP);
        let text = unparse(&g);
        assert!(text.contains("private {bilbo}"), "{text}");
        assert!(text.contains("bilbo\twiretap(10)"), "{text}");
    }
}
