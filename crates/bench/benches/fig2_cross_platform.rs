//! Figure 2: cross-platform evaluation of all CSDS algorithms.
//!
//! Paper workloads: average contention (4096 elements, 10% updates, thread
//! sweep), high contention (512 elements, 25% updates) and low contention
//! (16384 elements, 10% updates) at a fixed thread count. For each
//! structure family the histograms report throughput and the scalability
//! ratio versus the single-threaded run.
//!
//! At 16 384 elements (low contention) `fraser-opt` is past its hint-table
//! floor, so that row measures the hinted list; the average- and
//! high-contention rows measure the paper's unhinted one.
//!
//! The measured numbers come from the host machine; the projected columns
//! use the coherence model of `ascylib_harness::model` to estimate the
//! shape on the paper's six platforms.

use ascylib::api::StructureKind;
use ascylib_bench::{algorithms, display_name, run_entry, workload};
use ascylib_harness::report::{f2, Table};
use ascylib_harness::{max_threads, PlatformProfile};

fn main() {
    let families = [
        (StructureKind::LinkedList, 1024usize),
        (StructureKind::HashTable, 4096),
        (StructureKind::SkipList, 4096),
        (StructureKind::Bst, 4096),
    ];
    let contention = [
        ("average", 4096usize, 10u32),
        ("high", 512, 25),
        ("low", 16384, 10),
    ];
    let threads = max_threads();
    let platforms = PlatformProfile::all();

    for (kind, avg_size) in families {
        for (label, size, updates) in contention {
            // Linked lists use a smaller "average"/"low" size to keep
            // runtimes reasonable (their operations are O(n)).
            let size = if kind == StructureKind::LinkedList {
                size.min(avg_size.max(512))
            } else {
                size
            };
            let mut table = Table::new(
                &format!("Figure 2 [{kind}] — {label} contention ({size} elems, {updates}% upd)"),
                &[
                    "algorithm", "1T Mops/s", "nT Mops/s", "threads", "scalability",
                    "Opteron*", "Xeon20*", "Xeon40*", "Tilera*", "T4-4*",
                ],
            );
            for entry in algorithms(kind) {
                let single = run_entry(&entry, workload(size, updates, 1));
                let multi = run_entry(&entry, workload(size, updates, threads));
                let scalability = multi.throughput / single.throughput.max(1.0);
                let mut row = vec![
                    display_name(&entry).to_string(),
                    f2(single.mops),
                    f2(multi.mops),
                    threads.to_string(),
                    f2(scalability),
                ];
                for p in platforms.iter().take(5) {
                    row.push(f2(p.project_mops(&multi, p.hardware_threads.min(20))));
                }
                table.row(row);
            }
            table.print();
            let _ = table.write_csv(&format!(
                "fig2_{}_{}",
                kind.to_string().replace(' ', "_"),
                label
            ));
        }
    }
}
