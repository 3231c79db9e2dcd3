//! Links: weighted, labelled directed edges.

use crate::flags::LinkFlags;
use crate::graph::NodeId;
use crate::Cost;
use std::fmt;

/// Which side of the routing operator the host name appears on when an
/// address is built across this link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Host on the left: `host!%s` (UUCP convention).
    Left,
    /// Host on the right: `%s@host` (ARPANET convention).
    Right,
}

/// A routing operator: the character used to splice a host into an
/// address, and which side of it the host name goes.
///
/// In the input language the operator is written adjacent to the
/// destination: a *prefix* operator (`@b`) puts the host on the right of
/// the character (`%s@b`), a *suffix* operator (`b!`) puts it on the
/// left (`b!%s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteOp {
    /// Operator character (one of `! @ : %`).
    pub ch: char,
    /// Side the host name appears on.
    pub dir: Dir,
}

impl RouteOp {
    /// The default UUCP operator: `host!%s`.
    pub const UUCP: RouteOp = RouteOp {
        ch: '!',
        dir: Dir::Left,
    };

    /// The ARPANET operator: `%s@host`.
    pub const ARPA: RouteOp = RouteOp {
        ch: '@',
        dir: Dir::Right,
    };

    /// The set of characters accepted as routing operators.
    pub const OPERATOR_CHARS: &'static [char] = &['!', '@', ':', '%'];

    /// Whether `ch` may serve as a routing operator.
    pub fn is_operator_char(ch: char) -> bool {
        Self::OPERATOR_CHARS.contains(&ch)
    }

    /// Splices `host` into the format-string `route` across this
    /// operator: `duke!%s` + `phs` under `!`/Left gives `duke!phs!%s`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathalias_graph::RouteOp;
    ///
    /// assert_eq!(RouteOp::UUCP.splice("%s", "duke"), "duke!%s");
    /// assert_eq!(RouteOp::ARPA.splice("a!%s", "mit-ai"), "a!%s@mit-ai");
    /// ```
    pub fn splice(&self, route: &str, host: &str) -> String {
        let mut out = String::new();
        self.splice_into(route, host, &mut out);
        out
    }

    /// [`RouteOp::splice`] into a caller's buffer, which is cleared
    /// first: the printer's traversal keeps one buffer per tree depth
    /// and writes each child's route from its parent's without
    /// allocating. The first `%s` in `route` takes the insert; a route
    /// without one is copied unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use pathalias_graph::RouteOp;
    ///
    /// let mut out = String::new();
    /// RouteOp::UUCP.splice_into("duke!%s", "phs", &mut out);
    /// assert_eq!(out, "duke!phs!%s");
    /// ```
    pub fn splice_into(&self, route: &str, host: &str, out: &mut String) {
        out.clear();
        let Some(at) = route.find("%s") else {
            out.push_str(route);
            return;
        };
        out.reserve(route.len() + host.len() + 1);
        out.push_str(&route[..at]);
        match self.dir {
            Dir::Left => {
                out.push_str(host);
                out.push(self.ch);
                out.push_str("%s");
            }
            Dir::Right => {
                out.push_str("%s");
                out.push(self.ch);
                out.push_str(host);
            }
        }
        out.push_str(&route[at + 2..]);
    }
}

impl Default for RouteOp {
    fn default() -> Self {
        RouteOp::UUCP
    }
}

impl fmt::Display for RouteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dir {
            Dir::Left => write!(f, "host{}", self.ch),
            Dir::Right => write!(f, "{}host", self.ch),
        }
    }
}

/// A directed edge in the connectivity graph.
///
/// Mirrors the paper's `link` struct: "a pointer to the next link on the
/// list, a pointer to the destination host on the edge it represents, a
/// non-negative cost, and some flags". It also carries its source, so
/// the freeze can sort the graph's links into rows without walking the
/// lists.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Source node: the row the link belongs to.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Link weight.
    pub cost: Cost,
    /// Routing operator used to build addresses across this link.
    pub op: RouteOp,
    /// Flags.
    pub flags: LinkFlags,
    /// The next older link in the source node's row (singly linked, as
    /// in the original), or none.
    pub(crate) next: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_left() {
        assert_eq!(RouteOp::UUCP.splice("%s", "duke"), "duke!%s");
        assert_eq!(RouteOp::UUCP.splice("duke!%s", "phs"), "duke!phs!%s");
    }

    #[test]
    fn splice_right() {
        assert_eq!(RouteOp::ARPA.splice("%s", "mit-ai"), "%s@mit-ai");
        assert_eq!(
            RouteOp::ARPA.splice("duke!research!ucbvax!%s", "mit-ai"),
            "duke!research!ucbvax!%s@mit-ai"
        );
    }

    #[test]
    fn splice_replaces_only_first_marker() {
        // Routes contain exactly one %s, but be defensive about it.
        let op = RouteOp::UUCP;
        assert_eq!(op.splice("%s and %s", "x"), "x!%s and %s");
    }

    #[test]
    fn splice_into_reuses_the_buffer() {
        let mut out = String::from("stale text that is longer than any route here");
        RouteOp::ARPA.splice_into("a!%s", "b", &mut out);
        assert_eq!(out, "a!%s@b");
        // No marker: the route is copied as it is, as `replacen` would.
        RouteOp::UUCP.splice_into("no marker", "x", &mut out);
        assert_eq!(out, "no marker");
        // A `%%s` is a marker too: the first `%s` takes the insert.
        let percent = RouteOp {
            ch: '%',
            dir: Dir::Left,
        };
        assert_eq!(percent.splice("b!%%s", "sun"), "b!%sun%%s");
    }

    #[test]
    fn operator_chars() {
        for ch in ['!', '@', ':', '%'] {
            assert!(RouteOp::is_operator_char(ch));
        }
        assert!(!RouteOp::is_operator_char('$'));
        assert!(!RouteOp::is_operator_char('a'));
    }

    #[test]
    fn display_shows_side() {
        assert_eq!(RouteOp::UUCP.to_string(), "host!");
        assert_eq!(RouteOp::ARPA.to_string(), "@host");
    }
}
