//! Memory allocation substrate for the pathalias reproduction.
//!
//! The 1986 pathalias paper reports that "a buffered `sbrk` scheme for
//! allocation, with no attempt to re-use freed space, gives superior
//! performance in both time and space", because almost all allocation
//! happens during parsing and almost nothing is freed until the program
//! exits. This crate reproduces that allocation discipline in safe Rust:
//!
//! * [`Bump`] — a chunked bump arena for byte/string data. Data is
//!   addressed by [`Span`] handles (chunk index + offset), which keeps the
//!   API free of `unsafe` self-referential lifetimes while preserving the
//!   "allocate forward, never free" behaviour of the original.
//! * [`Pool`] — a typed object pool handing out stable, `Copy`able
//!   [`Handle`]s. This is the index-based Rust idiom for the paper's
//!   pointer-linked `node` and `link` structures.
//! * [`counting`] — a counting wrapper around the system allocator, used
//!   by the benchmark harness to measure bytes and calls for the
//!   allocator comparison (experiment E4 in the README's "Tests and
//!   benches" table).
//!
//! # Examples
//!
//! ```
//! use pathalias_arena::{Bump, Pool};
//!
//! let mut names = Bump::new();
//! let span = names.push_str("princeton");
//! assert_eq!(names.str(span), "princeton");
//!
//! let mut pool: Pool<u64> = Pool::new();
//! let h = pool.alloc(42);
//! assert_eq!(pool[h], 42);
//! ```

#![deny(unsafe_code)] // Allowed only in `counting`, with SAFETY comments.
#![warn(missing_docs)]

mod bump;
pub mod counting;
mod pool;

pub use bump::{Bump, BumpStats, Span};
pub use pool::{Handle, Pool};
