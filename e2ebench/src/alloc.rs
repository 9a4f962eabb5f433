//! A counting global allocator and a peak-RSS reader.
//!
//! Counting is off unless [`set_counting`] turns it on, so untraced runs
//! pay one relaxed load per allocator call and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls while counting is on.
pub struct CountingAlloc;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by this allocator, hence by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocator calls counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Counts the allocator calls `f` makes (on every thread of the process).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    set_counting(true);
    let out = f();
    set_counting(false);
    (out, allocations() - before)
}

/// Runs `f` with counting off, then restores the previous state.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = COUNTING.swap(false, Ordering::Relaxed);
    let out = f();
    COUNTING.store(was, Ordering::Relaxed);
    out
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one malloc arena. By default each
/// thread that allocates gets an arena of its own, and the peak resident
/// set of identical `served3` runs, whose shells start fresh threads,
/// read 36.0 to 38.5 MiB; with one arena it read 41.2 to 41.3 MiB, at the
/// same throughput.
pub fn use_one_arena() {
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before the process starts any other thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        eprintln!("e2ebench: could not limit malloc to one arena");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn counts_allocations_only_while_on() {
        let (_, n) = count(|| std::hint::black_box(vec![1u8; 64]));
        assert!(n >= 1);
        let (_, n) = count(|| uncounted(|| std::hint::black_box(vec![1u8; 64])));
        assert_eq!(n, 0);
    }
}
