//! A software prefetch hint, for code that knows which line it will read
//! next before it can use it (the interleaved skip-list search, the blob
//! tier's batched copy-out).

/// Asks the CPU to start loading the cache line holding `ptr` into every
/// cache level and returns at once. A hint only: it reads nothing the
/// caller sees and never faults, whatever `ptr` is. A no-op off x86-64.
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 dereferences nothing architecturally visible and
    // does not fault on any address, mapped or not; SSE is part of the
    // x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}
