//! Synthetic UUCP/ARPANET map generator.
//!
//! The paper's workloads were the real 1986 maps: "USENET maps contain
//! over 5,700 nodes and 20,000 links, while ARPANET, CSNET, and BITNET
//! add another 2,800 nodes and 8,000 links." Those data files are long
//! gone, so this crate generates a synthetic universe with the same
//! scale and shape:
//!
//! * a sparse host graph (e ∝ v) with a hub backbone and power-law-ish
//!   leaf attachment, grouped into regional map files;
//! * fully connected networks represented as cliques-as-stars, a
//!   fraction using ARPANET `@` syntax, some gatewayed;
//! * domain trees with explicit gateway hosts;
//! * aliases, `private` name collisions, dead hosts and links, and
//!   `adjust` entries — every input construct the parser supports;
//! * a deliberate fraction of one-way leaf links, so the back-link pass
//!   has work to do, as it did on the real maps.
//!
//! Output is pathalias *input text*, so generated maps exercise the
//! scanner and parser exactly as the 1986 data did.
//!
//! # Examples
//!
//! ```
//! use pathalias_mapgen::{generate, MapSpec};
//!
//! let map = generate(&MapSpec::small(200, 42));
//! assert!(map.stats.hosts >= 200);
//! let g = map.parse().unwrap();
//! assert!(g.node_count() >= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
mod names;
mod spec;

pub use generate::{generate, GenStats, GeneratedMap};
pub use names::HostNamer;
pub use spec::MapSpec;
