//! One lookup API over every backend.
//!
//! This repo grew three divergent ways to answer "route to host X":
//! [`RouteDb::lookup`] in memory, the PADB1 disk reader, and the
//! server's cached snapshot — each with its own signature and error
//! shape. [`Resolver`] is the one semantics they all implement: exact
//! name first, then progressively broader domain suffixes, then the
//! default route (the `.` entry, smail's "smart path" convention),
//! rendered with the paper's argument rule — an exact hit substitutes
//! the user, while suffix and default hits carry the full destination
//! ("the argument here is not [the user], it is
//! `caip.rutgers.edu!pleasant`").
//!
//! Backends in this crate: [`RouteDb`], [`SharedRouteDb`], and the
//! page-cache-backed [`MappedDb`](crate::disk::MappedDb); the lookup
//! order itself is one function here, `walk`, that the in-memory and
//! the on-disk table both call with their own exact-name probe. The
//! serving layer (`pathalias-server`) wraps any of them in a
//! generation-stamped snapshot that is itself a `Resolver`.

use crate::routedb::RouteDb;
use crate::shared::SharedRouteDb;
use std::fmt;
use std::io;

/// How a resolution matched, in lookup-precedence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedVia {
    /// The host name matched an entry exactly.
    Exact,
    /// A domain suffix matched (`caip.rutgers.edu` found via `.edu`).
    DomainSuffix {
        /// The matching suffix entry name (with its leading dot).
        suffix: String,
    },
    /// The `.` default-route entry matched (nothing else did).
    DefaultRoute,
}

/// A successful resolution: the rendered route plus how it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The complete route with the user argument substituted.
    pub route: String,
    /// How the match was found.
    pub via: ResolvedVia,
}

impl Resolution {
    /// Renders a resolution from a table format string: exact hits
    /// substitute the user; suffix and default hits carry the whole
    /// destination as `host!user`. The first `%s` is replaced, as
    /// `replacen("%s", .., 1)` would, and the route is the one
    /// allocation.
    pub fn render(format: &str, via: ResolvedVia, host: &str, user: &str) -> Resolution {
        let route = match format.split_once("%s") {
            Some((head, tail)) => {
                let mut route = String::with_capacity(format.len() + host.len() + 1 + user.len());
                route.push_str(head);
                if via != ResolvedVia::Exact {
                    route.push_str(host);
                    route.push('!');
                }
                route.push_str(user);
                route.push_str(tail);
                route
            }
            None => format.to_string(),
        };
        Resolution { route, via }
    }
}

/// Why a resolution failed.
#[derive(Debug)]
pub enum ResolveError {
    /// The table has no route to the host — no exact entry, no domain
    /// suffix, no default route. The ordinary negative answer.
    NoRoute,
    /// A disk-backed table could not be read.
    Io(io::Error),
    /// A disk-backed table is structurally broken.
    Corrupt(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NoRoute => write!(f, "no route"),
            ResolveError::Io(e) => write!(f, "i/o error: {e}"),
            ResolveError::Corrupt(why) => write!(f, "corrupt route database: {why}"),
        }
    }
}

impl std::error::Error for ResolveError {}

impl From<io::Error> for ResolveError {
    fn from(e: io::Error) -> Self {
        ResolveError::Io(e)
    }
}

/// The paper's mailer lookup order, written once for every table: the
/// exact name first; then progressively broader domain suffixes
/// (`caip.rutgers.edu` tries `.rutgers.edu`, then `.edu`); finally the
/// `.` default-route entry. A suffix is always at least `.x`, so the
/// bare-dot default entry can never pose as a domain match. `get` is
/// one exact-name probe of the table, and the first probe to answer
/// wins. Always inlined: left a call, an exact `RouteDb` hit measured
/// 7 ns (4%) slower than the hand-written loop this replaced.
#[inline(always)]
pub(crate) fn walk<T, E>(
    host: &str,
    mut get: impl FnMut(&str) -> Result<Option<T>, E>,
) -> Result<Option<(T, ResolvedVia)>, E> {
    if let Some(hit) = get(host)? {
        return Ok(Some((hit, ResolvedVia::Exact)));
    }
    let mut rest = host;
    while let Some(dot) = rest.find('.') {
        let suffix = &rest[dot..];
        if suffix.len() > 1 {
            if let Some(hit) = get(suffix)? {
                let suffix = suffix.to_string();
                return Ok(Some((hit, ResolvedVia::DomainSuffix { suffix })));
            }
        }
        rest = &rest[dot + 1..];
    }
    Ok(get(".")?.map(|hit| (hit, ResolvedVia::DefaultRoute)))
}

/// The one lookup API over every backend.
///
/// # Examples
///
/// ```
/// use pathalias_mailer::{Resolution, ResolvedVia, Resolver, RouteDb};
///
/// let db = RouteDb::from_output(
///     "seismo\tseismo!%s\n.edu\tseismo!%s\n.\tgateway!%s\n",
/// ).unwrap();
///
/// // Exact hit: the argument is the user.
/// let hit = db.resolve("seismo", "rick").unwrap();
/// assert_eq!(hit.route, "seismo!rick");
/// assert_eq!(hit.via, ResolvedVia::Exact);
///
/// // Suffix hit: the argument carries the full destination.
/// let hit = db.resolve("caip.rutgers.edu", "pleasant").unwrap();
/// assert_eq!(hit.route, "seismo!caip.rutgers.edu!pleasant");
/// assert_eq!(hit.via, ResolvedVia::DomainSuffix { suffix: ".edu".into() });
///
/// // Default route: the `.` entry catches everything else.
/// let hit = db.resolve("mystery-host", "u").unwrap();
/// assert_eq!(hit.route, "gateway!mystery-host!u");
/// assert_eq!(hit.via, ResolvedVia::DefaultRoute);
/// ```
pub trait Resolver {
    /// Resolves mail for `user` at `host` to a complete route.
    ///
    /// Pass `"%s"` as `user` to get the format string back in rendered
    /// form (`replacen("%s", "%s", 1)` is the identity for exact hits).
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError>;

    /// Number of entries in the backing table (for health lines).
    fn entries(&self) -> usize;
}

impl<R: Resolver + ?Sized> Resolver for &R {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        (**self).resolve(host, user)
    }
    fn entries(&self) -> usize {
        (**self).entries()
    }
}

impl<R: Resolver + ?Sized> Resolver for Box<R> {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        (**self).resolve(host, user)
    }
    fn entries(&self) -> usize {
        (**self).entries()
    }
}

impl<R: Resolver + ?Sized> Resolver for std::sync::Arc<R> {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        (**self).resolve(host, user)
    }
    fn entries(&self) -> usize {
        (**self).entries()
    }
}

/// A resolver any thread can hold: the type the serving layer boxes
/// its backends into.
pub type BoxedResolver = Box<dyn Resolver + Send + Sync>;

impl Resolver for RouteDb {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        let (entry, via) = self.find(host).ok_or(ResolveError::NoRoute)?;
        Ok(Resolution::render(&entry.route, via, host, user))
    }

    fn entries(&self) -> usize {
        self.len()
    }
}

impl Resolver for SharedRouteDb {
    fn resolve(&self, host: &str, user: &str) -> Result<Resolution, ResolveError> {
        (**self).resolve(host, user)
    }
    fn entries(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> RouteDb {
        RouteDb::from_output(
            "seismo\tseismo!%s\n.edu\tseismo!%s\n\
             caip.rutgers.edu\tseismo!caip.rutgers.edu!%s\n.\tsmart!%s\n",
        )
        .unwrap()
    }

    #[test]
    fn routedb_resolves_all_three_tiers() {
        let db = db();
        let exact = db.resolve("caip.rutgers.edu", "pleasant").unwrap();
        assert_eq!(exact.via, ResolvedVia::Exact);
        assert_eq!(exact.route, "seismo!caip.rutgers.edu!pleasant");

        let suffix = db.resolve("princeton.edu", "honey").unwrap();
        assert_eq!(
            suffix.via,
            ResolvedVia::DomainSuffix {
                suffix: ".edu".into()
            }
        );
        assert_eq!(suffix.route, "seismo!princeton.edu!honey");

        let default = db.resolve("mystery", "u").unwrap();
        assert_eq!(default.via, ResolvedVia::DefaultRoute);
        assert_eq!(default.route, "smart!mystery!u");
    }

    #[test]
    fn no_route_without_default() {
        let db = RouteDb::from_output("a\ta!%s\n").unwrap();
        assert!(matches!(
            db.resolve("nowhere", "u"),
            Err(ResolveError::NoRoute)
        ));
    }

    #[test]
    fn shared_and_boxed_delegate() {
        let shared = SharedRouteDb::new(db());
        assert_eq!(
            shared.resolve("seismo", "rick").unwrap().route,
            "seismo!rick"
        );
        assert_eq!(Resolver::entries(&shared), 4);

        let boxed: BoxedResolver = Box::new(shared.clone());
        assert_eq!(
            boxed.resolve("seismo", "rick").unwrap().route,
            "seismo!rick"
        );
        assert_eq!(boxed.entries(), 4);

        let arced = std::sync::Arc::new(db());
        assert_eq!(
            arced.resolve("seismo", "rick").unwrap().route,
            "seismo!rick"
        );
    }

    #[test]
    fn percent_s_user_round_trips_format() {
        let db = db();
        let hit = db.resolve("seismo", "%s").unwrap();
        assert_eq!(hit.route, "seismo!%s");
    }

    #[test]
    fn render_replaces_the_first_percent_s_only() {
        let render = |format, via, host| Resolution::render(format, via, host, "u").route;
        assert_eq!(render("a!%s!%s", ResolvedVia::Exact, "h"), "a!u!%s");
        assert_eq!(
            render("b%sun%%s", ResolvedVia::DefaultRoute, "h"),
            "bh!uun%%s"
        );
        assert_eq!(render("no-marker", ResolvedVia::Exact, "h"), "no-marker");
        for format in ["%s", "x!%s", "%s@y", "p%sq%sr", "", "%", "s%"] {
            for via in [ResolvedVia::Exact, ResolvedVia::DefaultRoute] {
                let argument = match via {
                    ResolvedVia::Exact => "u".to_string(),
                    _ => "h!u".to_string(),
                };
                let want = format.replacen("%s", &argument, 1);
                assert_eq!(render(format, via, "h"), want, "{format:?}");
            }
        }
    }

    #[test]
    fn resolution_matches_route_to() {
        // The trait must agree with the legacy RouteDb::route_to on
        // every name the old API answers.
        let db = db();
        for dest in ["seismo", "caip.rutgers.edu", "x.y.edu", "plainhost"] {
            let old = db.route_to(dest, "u").unwrap();
            let new = db.resolve(dest, "u").unwrap().route;
            assert_eq!(old, new, "divergence on {dest}");
        }
    }
}
