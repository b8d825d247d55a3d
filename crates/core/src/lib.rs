//! # ASCYLIB-RS — Asynchronized Concurrency for search data structures
//!
//! A Rust reproduction of **ASCYLIB**, the concurrent-search-data-structure
//! (CSDS) library from the ASPLOS'15 paper *"Asynchronized Concurrency: The
//! Secret to Scaling Concurrent Search Data Structures"* (David, Guerraoui,
//! Trigonakis).
//!
//! The paper identifies four programming patterns — **ASCY1–4** — that make
//! concurrent search data structures resemble their sequential counterparts
//! in how they access shared memory, and shows that such structures are
//! *portably scalable*: they scale across platforms, workloads and metrics
//! (throughput, latency, energy).
//!
//! This crate provides:
//!
//! * [`list`] — eight linked-list algorithms (sequential/asynchronized,
//!   coupling, pugh, lazy, copy, harris, michael, harris-opt).
//! * [`hashtable`] — hash tables built from those lists plus the
//!   ConcurrentHashMap-style `java` table, RCU-style `urcu` table, TBB-style
//!   reader-writer table, and the paper's new **CLHT** (cache-line hash
//!   table) in lock-based and lock-free variants.
//! * [`skiplist`] — sequential, pugh, herlihy, fraser and fraser-opt skip
//!   lists.
//! * [`bst`] — sequential internal/external trees, the lock-free `ellen` and
//!   `natarajan` external trees, and the paper's new **BST-TK**. The
//!   remaining trees the paper evaluates (`howley`, `drachsler`, `bronson`)
//!   are roadmap items and are not implemented yet; see the [`bst`] module
//!   docs for the gap list.
//! * [`asynchronized`] — the "incorrect asynchronized" baselines used as
//!   performance upper bounds in the paper's evaluation.
//! * [`stats`] — per-thread instrumentation (shared stores, CAS, restarts,
//!   traversal lengths) that feeds the cache-miss and energy models of the
//!   benchmark harness.
//! * [`registry`] — a name → constructor registry over every implementation,
//!   used by the benchmark harness to sweep all algorithms.
//!
//! All structures implement the [`ConcurrentMap`] trait:
//! a set of `u64 → u64` key/value pairs with `search`/`insert`/`remove`, the
//! exact interface of Figure 1 in the paper. The key-sorted families (lists,
//! skip lists, BSTs) additionally implement [`OrderedMap`] —
//! `range_search`/`scan` range queries with documented non-snapshot
//! semantics (see [`ordered`]).
//!
//! # Quick start
//!
//! ```
//! use ascylib::api::ConcurrentMap;
//! use ascylib::hashtable::ClhtLb;
//!
//! let map = ClhtLb::with_capacity(1024);
//! assert!(map.insert(42, 4200));
//! assert_eq!(map.search(42), Some(4200));
//! assert_eq!(map.remove(42), Some(4200));
//! assert_eq!(map.search(42), None);
//! ```
//!
//! # ASCY patterns (paper §5)
//!
//! * **ASCY1** — a search involves no waiting, retries, or stores.
//! * **ASCY2** — the parse phase of an update performs no stores except for
//!   clean-up, and no waiting or retries.
//! * **ASCY3** — an update whose parse is unsuccessful performs no stores.
//! * **ASCY4** — the number and region of stores of a successful update are
//!   close to a sequential implementation's.
//!
//! Each module documents which patterns its algorithms follow or violate.

#![warn(missing_docs)]

pub mod api;
pub mod asynchronized;
pub mod bst;
pub mod hashtable;
pub mod list;
pub mod marked;
pub mod ordered;
mod prefetch;
pub mod registry;
pub mod skiplist;
pub mod stats;
#[doc(hidden)]
pub mod testing;

pub use api::{ConcurrentMap, KEY_MAX, KEY_MIN};
pub use ordered::OrderedMap;
pub use prefetch::prefetch;
