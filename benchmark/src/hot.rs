//! Where threads run, and keeping every CPU out of the idle state.
//!
//! Two things about this 2-vCPU VM decide a wire workload's numbers before
//! any code of the stack does, and both are taken out of play here for
//! every workload alike.
//!
//! **Placement.** Three threads (load lane, event loop, worker) on two
//! CPUs: left to the scheduler, the same code ran `wire_pipe` at anything
//! from 269 k to 449 k ops/s depending on which two shared a CPU in that
//! run. So load lanes are pinned one per CPU, and a server's threads
//! (which inherit the affinity of the thread that starts them) all to one
//! CPU the run chooses: see `run::serve`.
//!
//! **Idle.** An idle vCPU halts, and waking a halted vCPU goes through the
//! hypervisor: a few to a hundred microseconds, depending on how long the
//! host kept polling for it, which depends on the host's recent history
//! and its other tenants. Every cross-thread hand-off of the wire
//! workloads pays that wake-up; without the spinners the same code
//! measured 97 k to 175 k ops/s on `wire_pipe` within one hour. One
//! `SCHED_IDLE` spinner per CPU removes the halt: the CPU always has
//! something to run, any normal thread preempts the spinner at once, and a
//! wake-up is the guest scheduler's work alone. It is the in-process
//! equivalent of booting with `idle=poll`, the usual setting for latency
//! measurements on virtual machines.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` from `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

/// Words of the affinity masks passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as the kernel numbers them, read once
/// before anything is pinned.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable for the `size_of_val(&mask)` bytes
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|i| rc == 0 && mask[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

/// The CPU of load lane `lane`: lanes are dealt round-robin.
pub fn lane_cpu(lane: usize) -> usize {
    allowed()[lane % allowed().len()]
}

/// Pins the calling thread (and the threads it starts from now on) to
/// `cpu`. A refusal is reported and otherwise ignored: the run is then
/// merely less steady.
pub fn pin(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable for the bytes passed; pid 0 names the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        eprintln!("pin: CPU {cpu} refused");
    }
}

/// The spinners; they stop and are joined when this is dropped.
pub struct KeepHot {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepHot {
    /// Starts one idle-class spinner on every allowed CPU.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = allowed()
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin(cpu);
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a valid `struct sched_param` for the
                    // duration of the call; pid 0 names the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        // A normal-priority spinner would take half a CPU
                        // from the workload: better none.
                        eprintln!("keep-hot: SCHED_IDLE refused, CPU {cpu} may idle");
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepHot { stop, threads }
    }
}

impl Drop for KeepHot {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
