//! The stack under test, built the way `kv_server` builds it, plus the
//! process-level gauges (RSS) read around it.

use std::sync::Arc;

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::{BlobOrderedStore, KvStore};
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig};

use crate::ops::Spec;

/// Shards of every sharded rung and of the served store.
pub const SHARDS: usize = 4;

/// The served map: blob tier over four Fraser skip lists.
pub type Map = BlobMap<FraserOptSkipList>;

/// The workload's cache-tier policy.
pub fn cache_config(spec: &Spec) -> CacheConfig {
    match spec.budget {
        Some(bytes) => CacheConfig::unbounded().with_budget(bytes),
        None => CacheConfig::unbounded(),
    }
}

/// What `kv_server` serves: hot-key engine at its defaults, the workload's
/// cache policy, Fraser skip lists.
pub fn build_map(hot: HotKeyConfig, cache: CacheConfig) -> Arc<Map> {
    Arc::new(BlobMap::with_config(SHARDS, hot, cache, |_| {
        FraserOptSkipList::new()
    }))
}

/// The map behind the interface the server dispatches against.
pub fn as_store(map: &Arc<Map>) -> Arc<dyn KvStore> {
    Arc::new(BlobOrderedStore::new(Arc::clone(map)))
}

/// Live user bytes: 8 per key plus the payload bytes the arenas hold.
pub fn user_bytes(map: &Map) -> u64 {
    map.len() as u64 * 8 + map.total_arena_stats().live_bytes()
}

/// `(VmRSS, VmHWM)` of this process in bytes, from `/proc/self/status`.
pub fn rss_and_peak() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or_else(|| panic!("{name} missing from /proc/self/status"))
            * 1024
    };
    (field("VmRSS:"), field("VmHWM:"))
}
