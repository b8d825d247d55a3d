//! Figure 5: ASCY2 on skip lists (1024 elements, 20% updates).
//!
//! Reports throughput vs threads, power relative to async, mean update
//! latency, and the update-latency distribution, comparing `fraser` against
//! the ASCY1–2 re-engineered `fraser-opt` (plus `pugh` and `herlihy`).
//!
//! At 1 024 elements `fraser-opt` stays far below its hint-table floor
//! (~32 k keys), so this is the paper's unhinted list: no table is
//! allocated and every operation walks (`crates/core/tests/hint.rs` pins
//! that).

use ascylib::api::StructureKind;
use ascylib_bench::{algorithms, display_name, run_entry, workload};
use ascylib_harness::report::{f2, Table};
use ascylib_harness::{max_threads, thread_sweep, EnergyModel};

fn main() {
    let model = EnergyModel::default();
    let threads = max_threads();

    let mut tput = Table::new(
        "Figure 5a — skip list (1024 elems, 20% upd): throughput (Mops/s) vs threads",
        &["algorithm", "threads", "Mops/s"],
    );
    for entry in algorithms(StructureKind::SkipList) {
        for &t in &thread_sweep() {
            let r = run_entry(&entry, workload(1024, 20, t));
            tput.row(vec![display_name(&entry).to_string(), t.to_string(), f2(r.mops)]);
        }
    }
    tput.print();
    let _ = tput.write_csv("fig5a_throughput");

    let entries = algorithms(StructureKind::SkipList);
    let async_entry = entries.iter().find(|e| e.asynchronized).expect("async baseline");
    let baseline = run_entry(async_entry, workload(1024, 20, threads));
    let mut panel = Table::new(
        "Figure 5b-d — relative power and successful-update latency (ns)",
        &["algorithm", "power/async", "restarts/op", "mean", "p1", "p25", "p50", "p75", "p99"],
    );
    for entry in &entries {
        let r = run_entry(entry, workload(1024, 20, threads));
        let lat = r.successful_update_latency;
        let restarts = r.counters.restarts as f64 / r.total_ops.max(1) as f64;
        panel.row(vec![
            display_name(entry).to_string(),
            f2(model.relative_power(&r, &baseline)),
            f2(restarts),
            f2(lat.mean),
            lat.p1.to_string(),
            lat.p25.to_string(),
            lat.p50.to_string(),
            lat.p75.to_string(),
            lat.p99.to_string(),
        ]);
    }
    panel.print();
    let _ = panel.write_csv("fig5bcd_latency_power");
}
