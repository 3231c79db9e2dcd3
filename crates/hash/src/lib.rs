//! Host-name hash table reproducing pathalias's design.
//!
//! The paper describes the table precisely: open addressing with double
//! hashing; an integer key computed from the host name "using bit-level
//! shifts and exclusive-ors"; primary hash `k mod T` for prime table
//! size `T`; secondary hash `T-2-(k mod T-2)` (the "inverse" of Knuth's
//! `1+(k mod T-2)`, which the authors found anomalous); rehashing when
//! the load factor exceeds α_H = 0.79 ("a predicted ratio of 2 probes
//! per access when the table is full"); and a table-size schedule that
//! is "a Fibonacci sequence of primes (more or less)", after earlier
//! experiments with a geometric δ=2 schedule and an arithmetic schedule
//! with low-water mark α_L = 0.49.
//!
//! All of those variants are implemented here so the benchmark harness
//! can reproduce the paper's comparisons (experiments E5, E6 and E13 in
//! the README's "Tests and benches" table); the program itself no
//! longer uses [`HostTable`]. What it does use is [`name_key`], the one
//! key function behind the graph's name index, which the build grows
//! and the frozen snapshot keeps.
//!
//! # Examples
//!
//! ```
//! use pathalias_hash::HostTable;
//!
//! let mut t: HostTable<u32> = HostTable::new();
//! t.insert("seismo", 1);
//! t.insert("ihnp4", 2);
//! assert_eq!(t.get("seismo"), Some(&1));
//! assert_eq!(t.get("decvax"), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fold;
pub mod primes;
mod table;

pub use fold::{fold, fold_bytes, name_key};
pub use table::{
    GrowthPolicy, HostTable, ProbeStats, SecondaryHash, TableConfig, ALPHA_HIGH, ALPHA_LOW,
};
