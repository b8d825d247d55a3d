//! Ablation benches for the paper's ASCY patterns and memory reclamation:
//!
//! * ASCY1: `harris` vs `harris-opt` (cleanup in searches or not).
//! * ASCY2: `fraser` vs `fraser-opt`, at 1 024 keys: far below
//!   `fraser-opt`'s hint-table floor, so the pair compares the paper's two
//!   unhinted lists.
//! * Memory reclamation: `urcu` (wait-for-readers) vs `urcu-ssmem`.
//! * SSMEM garbage threshold sweep on CLHT-LB.

use std::sync::Arc;

use ascylib::api::ConcurrentMap;
use ascylib::hashtable::ClhtLb;
use ascylib_bench::{run_entry, run_map, workload};
use ascylib_harness::max_threads;
use ascylib_harness::report::{f2, Table};

fn main() {
    let threads = max_threads();

    let mut table = Table::new(
        "Ablation — ASCY pattern on/off pairs (Mops/s at max threads)",
        &["pair", "without ASCY", "with ASCY", "improvement %"],
    );
    let pairs = [
        ("harris vs harris-opt (list, 1024, 5% upd)", "ll-harris", "ll-harris-opt", 1024usize, 5u32),
        ("fraser vs fraser-opt (skiplist, 1024, 20% upd)", "sl-fraser", "sl-fraser-opt", 1024, 20),
        ("urcu wait vs ssmem (hash, 4096, 20% upd)", "ht-urcu", "ht-urcu-ssmem", 4096, 20),
    ];
    for (label, before, after, size, upd) in pairs {
        let b = run_entry(&ascylib::registry::by_name(before).unwrap(), workload(size, upd, threads));
        let a = run_entry(&ascylib::registry::by_name(after).unwrap(), workload(size, upd, threads));
        let improvement = (a.throughput / b.throughput.max(1.0) - 1.0) * 100.0;
        table.row(vec![label.to_string(), f2(b.mops), f2(a.mops), f2(improvement)]);
    }
    table.print();
    let _ = table.write_csv("ablation_ascy_pairs");

    let mut gc = Table::new(
        "Ablation — SSMEM garbage threshold (CLHT-LB, 4096 elems, 20% upd)",
        &["gc threshold", "Mops/s"],
    );
    for threshold in [64usize, 128, 512, 2048] {
        ascylib_ssmem::set_gc_threshold(threshold);
        let map: Arc<dyn ConcurrentMap> = Arc::new(ClhtLb::with_capacity(8192));
        let r = run_map(map, workload(4096, 20, threads));
        gc.row(vec![threshold.to_string(), f2(r.mops)]);
    }
    ascylib_ssmem::set_gc_threshold(512);
    gc.print();
    let _ = gc.write_csv("ablation_gc_threshold");
}
