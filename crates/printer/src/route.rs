//! Route records.

use pathalias_graph::{Cost, NodeId};

/// What kind of entry a route is, which controls output visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// An ordinary host (printed).
    Host,
    /// A host reached over an alias edge (printed; same route as its
    /// partner).
    Alias,
    /// A network placeholder (never printed).
    Network,
    /// A top-level domain — tree parent is not a domain (printed).
    TopDomain,
    /// A subdomain (not printed; members carry the full name instead).
    SubDomain,
    /// A private host (not printed, may appear inside routes).
    Private,
}

impl RouteKind {
    /// Whether entries of this kind appear in normal output.
    pub fn is_visible(self) -> bool {
        matches!(
            self,
            RouteKind::Host | RouteKind::Alias | RouteKind::TopDomain
        )
    }
}

/// One computed route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The node this route reaches.
    pub node: NodeId,
    /// Output name: the host name, with domain names appended when the
    /// tree path descends through domains (`caip.rutgers.edu`).
    pub name: String,
    /// Path cost (including heuristic penalties).
    pub cost: Cost,
    /// The printf-style format string; `%s` marks where the user name
    /// (or, for domains, the remaining route) is inserted.
    pub route: String,
    /// Entry kind.
    pub kind: RouteKind,
    /// The path traverses a domain.
    pub via_domain: bool,
    /// The path uses an invented back link.
    pub via_backlink: bool,
    /// The path splices `!` after `@` — the ambiguous form the
    /// mixed-syntax penalty exists to avoid.
    pub ambiguous: bool,
}

impl Route {
    /// Instantiates the format string: "A mail user or delivery agent
    /// combines this route with a user name, producing a complete
    /// route."
    ///
    /// # Examples
    ///
    /// ```
    /// use pathalias_printer::{Route, RouteKind};
    /// # use pathalias_graph::NodeId;
    /// let r = Route {
    ///     node: NodeId::from_raw(0),
    ///     name: "research".into(),
    ///     cost: 3000,
    ///     route: "duke!research!%s".into(),
    ///     kind: RouteKind::Host,
    ///     via_domain: false,
    ///     via_backlink: false,
    ///     ambiguous: false,
    /// };
    /// assert_eq!(r.format("honey"), "duke!research!honey");
    /// ```
    pub fn format(&self, user: &str) -> String {
        self.route.replacen("%s", user, 1)
    }
}

/// One computed route, borrowed from the traversal that made it: what
/// [`for_each_route`](crate::for_each_route) hands out, field for field
/// a [`Route`] whose name and route live in the traversal's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRef<'a> {
    /// The node this route reaches.
    pub node: NodeId,
    /// Output name (see [`Route::name`]).
    pub name: &'a str,
    /// Path cost (including heuristic penalties).
    pub cost: Cost,
    /// The printf-style format string (see [`Route::route`]).
    pub route: &'a str,
    /// Entry kind.
    pub kind: RouteKind,
    /// The path traverses a domain.
    pub via_domain: bool,
    /// The path uses an invented back link.
    pub via_backlink: bool,
    /// The path splices `!` after `@`.
    pub ambiguous: bool,
}

impl RouteRef<'_> {
    /// The owned copy, for a caller that keeps the route.
    pub fn to_route(&self) -> Route {
        Route {
            node: self.node,
            name: self.name.to_string(),
            cost: self.cost,
            route: self.route.to_string(),
            kind: self.kind,
            via_domain: self.via_domain,
            via_backlink: self.via_backlink,
            ambiguous: self.ambiguous,
        }
    }
}

impl Route {
    /// The route, borrowed.
    pub fn view(&self) -> RouteRef<'_> {
        RouteRef {
            node: self.node,
            name: &self.name,
            cost: self.cost,
            route: &self.route,
            kind: self.kind,
            via_domain: self.via_domain,
            via_backlink: self.via_backlink,
            ambiguous: self.ambiguous,
        }
    }
}

/// All routes computed from one shortest-path tree.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// The mapping source.
    pub source: NodeId,
    /// Every labelled node's route, in node order (hidden entries
    /// included; filter with [`RouteTable::visible`]).
    pub entries: Vec<Route>,
}

impl RouteTable {
    /// The printable entries.
    pub fn visible(&self) -> impl Iterator<Item = &Route> {
        self.entries.iter().filter(|r| r.kind.is_visible())
    }

    /// Looks an entry up by output name.
    pub fn find(&self, name: &str) -> Option<&Route> {
        self.entries.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility() {
        assert!(RouteKind::Host.is_visible());
        assert!(RouteKind::Alias.is_visible());
        assert!(RouteKind::TopDomain.is_visible());
        assert!(!RouteKind::Network.is_visible());
        assert!(!RouteKind::SubDomain.is_visible());
        assert!(!RouteKind::Private.is_visible());
    }

    #[test]
    fn format_replaces_marker_once() {
        let r = Route {
            node: NodeId::from_raw(0),
            name: "x".into(),
            cost: 0,
            route: "a!%s@b".into(),
            kind: RouteKind::Host,
            via_domain: false,
            via_backlink: false,
            ambiguous: false,
        };
        assert_eq!(r.format("user"), "a!user@b");
    }
}
