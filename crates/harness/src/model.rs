//! Energy model and platform profiles.
//!
//! The paper measures power with on-board sensors and cache misses with
//! hardware counters on six machines we do not have. In their place, the
//! structures report their shared-memory behaviour through
//! [`ascylib::stats`], and this module converts those counts into
//!
//! * a **relative power estimate** (`P = P_static + c_acc·access_rate +
//!   c_xfer·transfer_rate`), reported as a ratio to the asynchronized
//!   baseline exactly like Figures 4b–7b, and
//! * **projected cross-platform throughput**: each [`PlatformProfile`]
//!   describes a machine's core count and cache-line transfer cost, and the
//!   measured per-operation traffic is used to estimate how the algorithm
//!   would scale there (Figure 2/8/9 shapes).

use crate::runner::BenchmarkResult;

/// A simple linear power model over memory-system activity.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Static (idle) power in arbitrary units.
    pub static_power: f64,
    /// Cost per memory access (loads approximated by traversed nodes).
    pub per_access: f64,
    /// Cost per cache-line transfer (stores / CAS / lock acquisitions).
    pub per_transfer: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Calibrated so that coherence traffic dominates the dynamic part,
        // matching the paper's observation that power differences between
        // algorithms are in the ±1–6% range.
        Self { static_power: 100.0, per_access: 0.002, per_transfer: 0.02 }
    }
}

impl EnergyModel {
    /// Estimated power (arbitrary units) for one benchmark result.
    pub fn power(&self, result: &BenchmarkResult) -> f64 {
        let secs = result.elapsed.as_secs_f64().max(1e-9);
        let access_rate = result.counters.memory_accesses() as f64 / secs / 1e6;
        let transfer_rate = result.counters.cache_line_transfers() as f64 / secs / 1e6;
        self.static_power + self.per_access * access_rate + self.per_transfer * transfer_rate
    }

    /// Power of `result` relative to a baseline (the paper plots the ratio
    /// to the asynchronized execution).
    pub fn relative_power(&self, result: &BenchmarkResult, baseline: &BenchmarkResult) -> f64 {
        self.power(result) / self.power(baseline)
    }

    /// Energy per operation relative to a baseline.
    pub fn relative_energy_per_op(
        &self,
        result: &BenchmarkResult,
        baseline: &BenchmarkResult,
    ) -> f64 {
        let e = self.power(result) / result.throughput.max(1.0);
        let eb = self.power(baseline) / baseline.throughput.max(1.0);
        e / eb
    }
}

/// A coarse description of one of the paper's evaluation platforms.
#[derive(Debug, Clone, Copy)]
pub struct PlatformProfile {
    /// Platform name as used in the paper.
    pub name: &'static str,
    /// Hardware threads available.
    pub hardware_threads: usize,
    /// Number of sockets (cross-socket transfers are slower).
    pub sockets: usize,
    /// Relative single-thread speed (Xeon20 = 1.0).
    pub single_thread_speed: f64,
    /// Average cost (ns) of one cache-line transfer between cores.
    pub transfer_cost_ns: f64,
}

impl PlatformProfile {
    /// The six platforms of §4.
    pub fn all() -> Vec<PlatformProfile> {
        vec![
            PlatformProfile { name: "Opteron", hardware_threads: 48, sockets: 8, single_thread_speed: 0.6, transfer_cost_ns: 110.0 },
            PlatformProfile { name: "Xeon20", hardware_threads: 40, sockets: 2, single_thread_speed: 1.0, transfer_cost_ns: 60.0 },
            PlatformProfile { name: "Xeon40", hardware_threads: 80, sockets: 4, single_thread_speed: 0.75, transfer_cost_ns: 90.0 },
            PlatformProfile { name: "Tilera", hardware_threads: 36, sockets: 1, single_thread_speed: 0.25, transfer_cost_ns: 50.0 },
            PlatformProfile { name: "T4-4", hardware_threads: 256, sockets: 4, single_thread_speed: 0.45, transfer_cost_ns: 80.0 },
            PlatformProfile { name: "Haswell", hardware_threads: 8, sockets: 1, single_thread_speed: 1.1, transfer_cost_ns: 40.0 },
        ]
    }

    /// Projects throughput (Mops/s) on this platform for an algorithm whose
    /// measured behaviour is `result`, when run with `threads` threads.
    ///
    /// The model: each operation costs its measured single-thread CPU time
    /// (scaled by the platform's speed) plus its measured cache-line
    /// transfers, each costing `transfer_cost_ns` (doubled once the thread
    /// count crosses a socket boundary). Throughput = threads / per-op time,
    /// capped by the hardware thread count.
    pub fn project_mops(&self, result: &BenchmarkResult, threads: usize) -> f64 {
        let threads = threads.min(self.hardware_threads);
        let base_ns = 1e9 / (result.throughput.max(1.0) / result.workload.threads as f64);
        let base_ns = base_ns / self.single_thread_speed;
        let transfers = result.transfers_per_op();
        let per_socket = (self.hardware_threads / self.sockets).max(1);
        let cross_socket = if threads > per_socket { 2.0 } else { 1.0 };
        // Transfers only cost when another core actually shares the line:
        // scale by the fraction of "other" threads.
        let sharing = if threads <= 1 { 0.0 } else { 1.0 };
        let per_op_ns = base_ns + sharing * transfers * self.transfer_cost_ns * cross_socket;
        threads as f64 * 1e3 / per_op_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_benchmark;
    use crate::workload::WorkloadBuilder;
    use ascylib::hashtable::ClhtLb;
    use std::sync::Arc;

    fn quick_result() -> BenchmarkResult {
        let w = WorkloadBuilder::new().initial_size(64).threads(1).duration_ms(20).build();
        run_benchmark(Arc::new(ClhtLb::with_capacity(128)), w)
    }

    #[test]
    fn power_is_positive_and_relative_to_self_is_one() {
        let r = quick_result();
        let model = EnergyModel::default();
        assert!(model.power(&r) > 0.0);
        let rel = model.relative_power(&r, &r);
        assert!((rel - 1.0).abs() < 1e-9);
        assert!((model.relative_energy_per_op(&r, &r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn six_platforms_are_described() {
        let platforms = PlatformProfile::all();
        assert_eq!(platforms.len(), 6);
        assert!(platforms.iter().any(|p| p.name == "Tilera"));
        let r = quick_result();
        for p in &platforms {
            let one = p.project_mops(&r, 1);
            let many = p.project_mops(&r, p.hardware_threads);
            assert!(one > 0.0, "{}", p.name);
            assert!(many > 0.0, "{}", p.name);
        }
    }
}
