//! Mailer integration: using pathalias output to route real mail.
//!
//! The paper's INTEGRATING PATHALIAS WITH MAILERS section describes the
//! pieces a site needed around the route database; this crate implements
//! all of them:
//!
//! * [`RouteDb`] — the route database: parses pathalias output ("a
//!   simple linear file, in the UNIX tradition") and implements the
//!   paper's lookup algorithm, including the domain-suffix search where
//!   the argument for a domain gateway "is a route relative to its
//!   gateway" (`caip.rutgers.edu!pleasant` through `.edu`);
//! * [`Address`] — relative-address parsing across syntax styles: UUCP
//!   bang paths, RFC822 `user@host`, the "underground"
//!   `user%host@relay`, and mixed forms under UUCP-first, RFC822-first,
//!   or heuristic precedence;
//! * [`Rewriter`] — the policy choices the paper weighs: first-hop
//!   routing vs searching for "the rightmost host known to its
//!   database", loop-test preservation, and the safe-shortening hazard
//!   of the cbosgd example;
//! * [`Message`] / [`HeaderRewriter`] — header processing following the
//!   paper's six principles (modify only as necessary, never touch the
//!   body, never emit a return path you would reject, ...);
//! * [`Resolver`] — the one lookup API every backend implements:
//!   exact / domain-suffix / default-route resolution over [`RouteDb`],
//!   [`SharedRouteDb`], and the page-cache-backed
//!   [`disk::MappedDb`] (PADB1 served without a full load).
//!
//! # Examples
//!
//! ```
//! use pathalias_mailer::{Policy, RouteDb, Rewriter, SyntaxStyle};
//!
//! let db = RouteDb::from_output("seismo\tseismo!%s\nduke\tduke!%s\n").unwrap();
//! let rw = Rewriter::new(&db)
//!     .policy(Policy::FirstHop)
//!     .style(SyntaxStyle::UucpFirst);
//! assert_eq!(rw.rewrite("seismo!mcvax!piet").unwrap(), "seismo!mcvax!piet");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
pub mod disk;
mod header;
mod resolver;
mod rewrite;
mod routedb;
mod shared;

pub use address::{AddrError, Address, SyntaxStyle};
pub use header::{HeaderRewriter, Message};
pub use resolver::{BoxedResolver, Resolution, ResolveError, ResolvedVia, Resolver};
pub use rewrite::{Policy, RewriteError, Rewriter};
pub use routedb::{DbEntry, DbError, EntryRef, Lookup, MatchKind, RouteDb, Text};
pub use shared::SharedRouteDb;
