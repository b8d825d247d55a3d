//! Figure 3: cache misses per operation vs. scalability for linked lists.
//!
//! Paper workload: 4096-element list, 10% updates, 20 threads. The paper
//! uses hardware cache-miss counters; we report the cache-line-transfer
//! estimate derived from the instrumented shared stores / CAS / lock
//! acquisitions (`ascylib_harness::model`), which reproduces the ranking:
//! async lowest, lazy/pugh low, harris/michael middle, copy and coupling
//! highest — and the inverse correlation with scalability.

use ascylib::api::StructureKind;
use ascylib_bench::{algorithms, display_name, run_entry, workload};
use ascylib_harness::max_threads;
use ascylib_harness::report::{f2, Table};

fn main() {
    let threads = max_threads();
    // A smaller list than the paper's 4096 keeps the O(n) traversals fast;
    // the ranking is unaffected.
    let size = 1024;
    let mut table = Table::new(
        "Figure 3 — linked lists: cache-line transfers/op vs scalability",
        &["algorithm", "transfers/op", "atomics/op", "restarts/op", "scalability"],
    );
    for entry in algorithms(StructureKind::LinkedList) {
        let single = run_entry(&entry, workload(size, 10, 1));
        let multi = run_entry(&entry, workload(size, 10, threads));
        let scalability = multi.throughput / single.throughput.max(1.0);
        let per_op = |v: u64| v as f64 / multi.total_ops.max(1) as f64;
        table.row(vec![
            display_name(&entry).to_string(),
            f2(multi.transfers_per_op()),
            f2(per_op(multi.counters.atomic_ops)),
            f2(per_op(multi.counters.restarts)),
            f2(scalability),
        ]);
    }
    table.print();
    let _ = table.write_csv("fig3_cache_misses");
}
