//! # ascylib-shard — a sharded serving layer over the ASCYLIB structures
//!
//! The ASCY paper shows how to make *one* concurrent search data structure
//! scale. A serving system layered on top faces the next bottleneck: a
//! single instance, however scalable, is one coherence domain, one memory
//! footprint, one hot list/tree, and under skewed production traffic a few
//! popular keys dominate every core's cache traffic. The fix is the same
//! asynchronized-concurrency lesson applied one level up — partition the
//! work so no coordination point serializes it:
//!
//! * [`ShardedMap`] routes every key to one of `N` independent
//!   [`ConcurrentMap`](ascylib::api::ConcurrentMap) instances (any of the
//!   ASCYLIB structures, mixed freely via the registry). Per-key operations
//!   stay linearizable because a key always lands on the same linearizable
//!   shard; there is no cross-shard synchronization at all.
//! * [`router::ShardRouter`] is the stateless hash router (Fibonacci
//!   mixing + Lemire reduction, any shard count).
//! * [`stats::ShardStats`] gives each shard a cache-line-padded block of
//!   traffic counters, so observing a hot shard does not create the false
//!   sharing the layer exists to remove.
//! * [`ShardedMap::multi_get`] runs a batch's searches as one interleaved
//!   lookup across shards and returns the answers in input order.
//! * Sharded deployments of *ordered* backings (lists, skip lists, BSTs)
//!   additionally expose the [`ascylib::ordered::OrderedMap`] range-scan
//!   surface: `range_search`/`scan` scatter to every shard and gather the
//!   per-shard sorted results with a k-way merge into one globally
//!   key-ordered answer (with the same non-snapshot semantics as a single
//!   structure).
//! * [`blob::BlobMap`] layers **variable-length byte values** on top: the
//!   sharded index stores 64-bit handles into per-shard ssmem-backed
//!   payload arenas, readers copy payloads out under epoch guards (a
//!   batched read into one [`blob::BatchValues`] buffer), and
//!   overwrites/deletes retire the displaced blob through the same
//!   grace-period machinery that protects the structures' nodes.
//! * [`cache::CacheConfig`] turns the blob map into a **bounded cache**:
//!   per-shard byte budgets enforced by CLOCK eviction on the SET path,
//!   TTL expiry (lazy on read, plus a sweep piggybacked on writes and
//!   scans), with the reference/generation/TTL metadata riding the spare
//!   bits of the 64-bit handle word — the read path pays one relaxed
//!   bit-set and zero extra cache lines.
//! * [`hotkey::HotKeyEngine`] fronts the blob map's hottest keys with
//!   seqlock'd payload copies and writes them through under a per-key
//!   slot lock; `k = 0`
//!   ([`HotKeyConfig::with_k`], [`BlobMap::new`]) runs without one.
//!
//! Pairs with `ascylib_harness::dist::KeyDist` to benchmark any structure
//! under uniform, Zipfian, or hotspot traffic (`fig10_sharding` in the bench
//! crate, `examples/sharded_cache.rs` for an end-to-end demo).
//!
//! ```
//! use ascylib::api::ConcurrentMap;
//! use ascylib::hashtable::ClhtLb;
//! use ascylib_shard::ShardedMap;
//!
//! let map = ShardedMap::new(8, |_| ClhtLb::with_capacity(128));
//! map.insert(7, 700);
//! assert_eq!(map.multi_get(&[7, 8]), vec![Some(700), None]);
//! assert_eq!(map.size(), 1);
//! ```

#![warn(missing_docs)]

pub mod blob;
mod batch;
pub mod cache;
pub mod hotkey;
mod map;
mod range;
pub mod router;
pub mod stats;

pub use blob::{ArenaStatsSnapshot, BatchValues, BlobMap};
pub use cache::{CacheConfig, CacheStatsSnapshot, FakeClock, MsClock, WallClock};
pub use hotkey::{HotKeyConfig, HotKeyEngine, HotKeyStatsSnapshot};
pub use map::ShardedMap;
pub use stats::ShardStatsSnapshot;
