//! Memory substrate for the pathalias reproduction.
//!
//! The 1986 pathalias paper reports that "a buffered `sbrk` scheme for
//! allocation, with no attempt to re-use freed space, gives superior
//! performance in both time and space", because almost all allocation
//! happens during parsing and almost nothing is freed until the program
//! exits. The build graph keeps that discipline without an arena of its
//! own: its names, node fields and links each grow in one vector, in
//! declaration order, and the freeze moves those vectors into the
//! snapshot instead of freeing them piece by piece. What is left here:
//!
//! * [`Handle`] — a typed, `Copy`able 32-bit index, the safe Rust idiom
//!   for the paper's pointer-linked `node` and `link` structures;
//! * [`counting`] — a counting wrapper around the system allocator,
//!   used by the benchmark harness to measure bytes and calls for the
//!   allocator comparison (experiment E4 in the README's "Tests and
//!   benches" table), whose 1986 chunked arena now lives in
//!   `pathalias_bench`.
//!
//! # Examples
//!
//! ```
//! use pathalias_arena::Handle;
//!
//! let names = vec!["princeton", "duke"];
//! let duke: Handle<&str> = Handle::from_raw(1);
//! assert_eq!(names[duke.index()], "duke");
//! assert_eq!(format!("{duke:?}"), "#1");
//! ```

#![deny(unsafe_code)] // Allowed only in `counting`, with SAFETY comments.
#![warn(missing_docs)]

pub mod counting;
mod handle;

pub use handle::Handle;
