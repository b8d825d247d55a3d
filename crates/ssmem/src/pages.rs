//! Memory straight from the kernel, and the huge-page advice. The arena
//! advises its chunks with `advise_huge_pages`; a large table that wants
//! to give its pages back while it waits out its grace periods (the lossy
//! hint table of `ascylib`'s `fraser-opt`) maps itself with
//! [`alloc_zeroed`] and returns with [`discard`] and [`dealloc`].
//!
//! On Linux a mapping is fresh zero pages that cost RSS only once written,
//! and leave it the moment they are given back. Through `std::alloc`,
//! glibc serves a table from its heap once a table of that size has been
//! freed (its mmap threshold rises to the largest mapping freed), and
//! `calloc` there touches every page and `free` keeps them: on
//! `embed_read`'s four shards that held 9 MB of RSS beyond the live tables.
//! Other targets get `std::alloc` and no advice.

use std::alloc::Layout;

/// One x86-64 huge page: the arena's chunk, and the size from which
/// [`alloc_zeroed`] aligns a mapping to it.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_void};

    extern "C" {
        pub(super) fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: c_long) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub(super) fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub(super) fn sysconf(name: c_int) -> c_long;
    }
    pub(super) const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    pub(super) const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    pub(super) const MADV_DONTNEED: c_int = 4;
    pub(super) const MADV_HUGEPAGE: c_int = 14;
    pub(super) const SC_PAGESIZE: c_int = 30;
}

/// 64 KiB, a whole number of pages on every Linux page size: the grain the
/// end of an aligned mapping is rounded to.
#[cfg(target_os = "linux")]
const GRAIN: usize = 1 << 16;

/// Bytes mapped for `size`: mappings of [`HUGE_PAGE`] or more end on a
/// [`GRAIN`] boundary, so that the trimmed tail starts on a page.
#[cfg(target_os = "linux")]
fn extent(size: usize) -> usize {
    if size >= HUGE_PAGE {
        size.next_multiple_of(GRAIN)
    } else {
        size
    }
}

/// A fresh anonymous mapping of `len` bytes, or null.
#[cfg(target_os = "linux")]
fn map(len: usize) -> *mut u8 {
    // SAFETY: a fresh anonymous mapping; no existing memory is touched.
    let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ_WRITE, sys::MAP_PRIVATE_ANONYMOUS, -1, 0) };
    if ptr as isize == -1 {
        std::ptr::null_mut()
    } else {
        ptr.cast()
    }
}

/// Zeroed, page-aligned memory for `layout`, or null. From 2 MiB up the
/// memory starts on a huge page and is advised as the arena's chunks are:
/// the mapping is made one huge page longer and trimmed to an aligned
/// start. A smaller one keeps ordinary pages, since rounding it up
/// would make a few hundred KiB of table hold a whole huge page.
#[cfg(target_os = "linux")]
pub fn alloc_zeroed(layout: Layout) -> *mut u8 {
    let len = extent(layout.size());
    if len < HUGE_PAGE {
        return map(len);
    }
    let ptr = map(len + HUGE_PAGE);
    if ptr.is_null() {
        return ptr;
    }
    let start = (ptr as usize).next_multiple_of(HUGE_PAGE);
    let (head, tail) = (start - ptr as usize, HUGE_PAGE - (start - ptr as usize));
    // SAFETY: the head `[ptr, start)` and the tail past `start + len` lie
    // inside the fresh mapping and outside the memory handed out; both
    // start on a page (`ptr` and `start` are page-aligned, `len` is a
    // multiple of `GRAIN`), and an empty one is skipped.
    unsafe {
        if head > 0 {
            sys::munmap(ptr.cast(), head);
        }
        if tail > 0 {
            sys::munmap((start + len) as *mut _, tail);
        }
    }
    let start = start as *mut u8;
    advise_huge_pages(start, len);
    start
}

/// # Safety
///
/// `ptr` came from [`alloc_zeroed`] with `layout` and is not used again.
#[cfg(target_os = "linux")]
pub unsafe fn dealloc(ptr: *mut u8, layout: Layout) {
    // SAFETY: forwarded caller contract: exactly the mapping `alloc_zeroed`
    // kept.
    unsafe { sys::munmap(ptr.cast(), extent(layout.size())) };
}

/// The kernel's page size: what [`discard`] keeps.
#[cfg(target_os = "linux")]
pub fn page_size() -> usize {
    // SAFETY: `sysconf` reads a constant of the running system.
    unsafe { sys::sysconf(sys::SC_PAGESIZE) as usize }
}

/// Hands the pages behind `ptr` back to the kernel now, all but the first
/// one (a table's header line lives there): they read as zeros from here
/// on, and a late write faults in a fresh zero page. The mapping stays in
/// place until [`dealloc`]. Only that page stays resident until then,
/// which for a table retired by a thread that never passes through ssmem
/// again is for good.
///
/// # Safety
///
/// `ptr` came from [`alloc_zeroed`] with `layout`, and nothing past its
/// first page needs its contents any more.
#[cfg(target_os = "linux")]
pub unsafe fn discard(ptr: *mut u8, layout: Layout) {
    let page = page_size();
    if layout.size() > page {
        // SAFETY: forwarded caller contract; `ptr + page` is page aligned.
        unsafe { sys::madvise(ptr.add(page).cast(), layout.size() - page, sys::MADV_DONTNEED) };
    }
}

/// Asks Linux to back `[base, base + len)` with transparent huge pages.
/// Kernels that grant them only on request (`enabled` = `[madvise]`) give
/// none without it; a refusal leaves ordinary pages, which work the same.
/// `base` must be page-aligned and start memory the caller owns; the
/// advice changes only how the kernel backs it, never its contents.
#[cfg(target_os = "linux")]
pub(crate) fn advise_huge_pages(base: *mut u8, len: usize) {
    // SAFETY: the caller owns the range; the advice touches no contents.
    unsafe { sys::madvise(base.cast(), len, sys::MADV_HUGEPAGE) };
}

/// Zeroed memory for `layout`, or null (also for a zero-size layout).
#[cfg(not(target_os = "linux"))]
pub fn alloc_zeroed(layout: Layout) -> *mut u8 {
    if layout.size() == 0 {
        return std::ptr::null_mut();
    }
    // SAFETY: a non-zero layout.
    unsafe { std::alloc::alloc_zeroed(layout) }
}

/// # Safety
///
/// `ptr` came from [`alloc_zeroed`] with `layout` and is not used again.
#[cfg(not(target_os = "linux"))]
pub unsafe fn dealloc(ptr: *mut u8, layout: Layout) {
    // SAFETY: forwarded caller contract.
    unsafe { std::alloc::dealloc(ptr, layout) };
}

/// The page size [`discard`] would keep, were it to give any back.
#[cfg(not(target_os = "linux"))]
pub fn page_size() -> usize {
    4096
}

/// Keeps the memory: only Linux gives pages back early.
///
/// # Safety
///
/// As on Linux: `ptr` came from [`alloc_zeroed`] with `layout`.
#[cfg(not(target_os = "linux"))]
pub unsafe fn discard(_ptr: *mut u8, _layout: Layout) {}

#[cfg(not(target_os = "linux"))]
pub(crate) fn advise_huge_pages(_base: *mut u8, _len: usize) {}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    /// The words of `[ptr, ptr + len)`.
    fn words<'a>(ptr: *mut u8, len: usize) -> &'a mut [u64] {
        // SAFETY: the tests pass live mappings of at least `len` bytes.
        unsafe { std::slice::from_raw_parts_mut(ptr.cast(), len / 8) }
    }

    #[test]
    fn a_mapping_of_a_huge_page_or_more_is_aligned_zeroed_and_discardable() {
        // A hint table's shape: a header line, then whole buckets.
        let layout = Layout::from_size_align(HUGE_PAGE + 64, 64).unwrap();
        for _ in 0..3 {
            let ptr = alloc_zeroed(layout);
            assert!(!ptr.is_null());
            assert_eq!(ptr as usize % HUGE_PAGE, 0, "{ptr:p} is not on a huge page");
            let all = words(ptr, layout.size());
            assert!(all.iter().all(|&w| w == 0), "a fresh mapping reads non-zero");
            all.fill(!0);
            // SAFETY: from `alloc_zeroed` with `layout`; nothing past the
            // first page is needed.
            unsafe { discard(ptr, layout) };
            let (kept, given_back) = words(ptr, layout.size()).split_at(page_size() / 8);
            assert!(kept.iter().all(|&w| w == !0), "discard dropped the header");
            assert!(given_back.iter().all(|&w| w == 0), "discarded words still read non-zero");
            // SAFETY: as above, and not used again.
            unsafe { dealloc(ptr, layout) };
        }
    }

    #[test]
    fn a_mapping_under_a_huge_page_is_zeroed_and_writable() {
        let layout = Layout::from_size_align(4 * GRAIN + 64, 64).unwrap();
        let ptr = alloc_zeroed(layout);
        assert!(!ptr.is_null());
        let all = words(ptr, layout.size());
        assert!(all.iter().all(|&w| w == 0));
        all.fill(7);
        assert!(words(ptr, layout.size()).iter().all(|&w| w == 7));
        // SAFETY: from `alloc_zeroed` with `layout`, not used again.
        unsafe { dealloc(ptr, layout) };
    }
}
