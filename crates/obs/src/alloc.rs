//! Allocation profiler: a counting wrapper around the system allocator
//! plus the span-attribution hooks the tracer uses to tag each span with
//! the memory it allocated.
//!
//! The wrapper is opt-in twice over. A binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: plateau_obs::alloc::CountingAllocator =
//!     plateau_obs::alloc::CountingAllocator;
//! ```
//!
//! and the counters only tick once profiling is switched on — via
//! [`set_profiling`] or the `PLATEAU_ALLOC_PROFILE` environment variable
//! (read lazily on the first [`profiling_active`] call, *outside* the
//! allocator: reading the environment allocates, so the allocator itself
//! never touches it). With profiling off the hot path is a single relaxed
//! atomic load followed by the system allocator — no counting, no TLS
//! access, no allocation of its own.
//!
//! Tracked state, all relaxed atomics:
//!
//! - cumulative allocation **count** and **bytes** (process-wide),
//! - **live** bytes (signed, so blocks allocated before profiling was
//!   enabled can be freed without wrapping the counter),
//! - the **peak** of live bytes — the high-water mark footprint,
//! - per-thread cumulative bytes/count (const-initialized thread-locals
//!   with no destructor, so they are safe to touch from inside the
//!   allocator).
//!
//! Span attribution ([`span_start`]/[`SpanAllocStart::finish`]) charges a
//! span with the allocations made *on its own thread* between entry and
//! drop — the natural analogue of the span's wall time — plus a
//! `peak_bytes` delta: how far the process-wide high-water mark rose above
//! the live footprint at span entry. Enabling profiling probes whether a
//! counting allocator is actually installed (a throwaway boxed allocation
//! must move the counter); without one, attribution stays off so span
//! records never carry misleading zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering::Relaxed};

/// Wraps [`System`] with allocation counters. Install with
/// `#[global_allocator]`; see the module docs.
pub struct CountingAllocator;

/// Read on every allocator call; nothing else happens while it is false.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Cumulative number of allocations (alloc + realloc) since process start.
static COUNT: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes requested by those allocations.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes: allocated minus freed. Signed — frees of blocks allocated
/// while counting was off would otherwise wrap.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `LIVE`.
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    if live > 0 {
        PEAK.fetch_max(live as u64, Relaxed);
    }
    THREAD_BYTES.with(|c| c.set(c.get() + size));
    THREAD_COUNT.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(new_size);
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

const UNINIT: u8 = 0xFF;

/// Span-attribution switch: 0 off, 1 on, [`UNINIT`] until the environment
/// has been consulted. Stays 0 unless a counting allocator is installed.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// Proves a counting allocator is routing this process's allocations: a
/// throwaway heap allocation must move the counter.
fn probe_installed() -> bool {
    let before = COUNT.load(Relaxed);
    let v: Vec<u8> = Vec::with_capacity(1);
    std::hint::black_box(&v);
    drop(v);
    COUNT.load(Relaxed) != before
}

/// Switches allocation profiling on or off programmatically (overrides
/// `PLATEAU_ALLOC_PROFILE`). Returns whether profiling is actually active
/// afterwards: enabling only sticks when a [`CountingAllocator`] is
/// installed as the global allocator.
pub fn set_profiling(on: bool) -> bool {
    if !on {
        COUNTING.store(false, Relaxed);
        ACTIVE.store(0, Relaxed);
        return false;
    }
    COUNTING.store(true, Relaxed);
    let installed = probe_installed();
    if !installed {
        COUNTING.store(false, Relaxed);
    }
    ACTIVE.store(installed as u8, Relaxed);
    installed
}

#[cold]
fn init_from_env() -> bool {
    set_profiling(std::env::var("PLATEAU_ALLOC_PROFILE").is_ok_and(|s| crate::store::is_on(&s)))
}

/// Whether span attribution is live: profiling enabled *and* a counting
/// allocator installed. One relaxed load after first use.
#[inline]
pub fn profiling_active() -> bool {
    match ACTIVE.load(Relaxed) {
        0 => false,
        UNINIT => init_from_env(),
        _ => true,
    }
}

/// A point-in-time view of the profiler's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative allocations since counting started.
    pub count: u64,
    /// Cumulative bytes requested.
    pub bytes: u64,
    /// Live bytes (clamped at 0 when frees of pre-profiling blocks
    /// dominate).
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

/// Snapshots the process-wide counters.
pub fn stats() -> AllocStats {
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live_bytes: LIVE.load(Relaxed).max(0) as u64,
        peak_bytes: PEAK.load(Relaxed),
    }
}

/// Cumulative allocation count — the parity probe the overhead gates use.
pub fn allocation_count() -> u64 {
    COUNT.load(Relaxed)
}

/// Cumulative (bytes, count) allocated by the calling thread.
pub fn thread_allocated() -> (u64, u64) {
    (THREAD_BYTES.with(Cell::get), THREAD_COUNT.with(Cell::get))
}

/// Resets the high-water mark to the current live footprint, so a bench
/// can measure its own peak rather than the process's.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed).max(0) as u64, Relaxed);
}

/// Entry-side snapshot for span attribution. Plain `Copy` data — taking
/// one performs no allocation.
#[derive(Debug, Clone, Copy)]
pub struct SpanAllocStart {
    thread_bytes: u64,
    thread_count: u64,
    live: i64,
    peak: u64,
}

/// What a span allocated between entry and drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAllocDelta {
    /// Bytes allocated on the span's thread.
    pub bytes: u64,
    /// Allocations on the span's thread.
    pub count: u64,
    /// How far the process-wide high-water mark rose above the live
    /// footprint at span entry (0 when the peak predates the span).
    pub peak_bytes: u64,
}

/// Takes an attribution snapshot, or `None` when profiling is inactive.
#[inline]
pub fn span_start() -> Option<SpanAllocStart> {
    if !profiling_active() {
        return None;
    }
    Some(SpanAllocStart {
        thread_bytes: THREAD_BYTES.with(Cell::get),
        thread_count: THREAD_COUNT.with(Cell::get),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    })
}

impl SpanAllocStart {
    /// Closes the window and returns the span's allocation deltas.
    pub fn finish(self) -> SpanAllocDelta {
        let peak_now = PEAK.load(Relaxed);
        SpanAllocDelta {
            bytes: THREAD_BYTES.with(Cell::get).saturating_sub(self.thread_bytes),
            count: THREAD_COUNT.with(Cell::get).saturating_sub(self.thread_count),
            peak_bytes: if peak_now > self.peak {
                peak_now.saturating_sub(self.live.max(0) as u64)
            } else {
                0
            },
        }
    }
}

/// Formats a byte count for tables and tooltips (`B`, `KiB`, `MiB`, …).
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run without a counting allocator installed (the obs test
    // binary uses the system allocator), so they pin the *uninstalled*
    // behavior: enabling must fail honestly and attribution must stay off.
    // The installed path is covered end-to-end by the cli crate's
    // `alloc_profile` integration test and the telemetry overhead gate.

    #[test]
    fn enabling_without_installed_allocator_reports_inactive() {
        let _guard = crate::test_lock();
        assert!(!set_profiling(true), "no counting allocator in this binary");
        assert!(!profiling_active());
        assert!(span_start().is_none(), "attribution must stay off");
        set_profiling(false);
    }

    #[test]
    fn stats_are_zero_when_never_counted() {
        let _guard = crate::test_lock();
        set_profiling(false);
        let s = stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.peak_bytes, 0);
    }

    #[test]
    fn span_delta_math_is_saturating() {
        let start = SpanAllocStart {
            thread_bytes: 100,
            thread_count: 10,
            live: 50,
            peak: 200,
        };
        // Peak unchanged since entry → no peak delta, thread counters
        // unchanged → zero deltas.
        let d = start.finish();
        assert_eq!(d.bytes, 0);
        assert_eq!(d.count, 0);
        assert_eq!(d.peak_bytes, 0);
    }

    #[test]
    fn byte_formatting_picks_binary_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(16_384), "16.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
    }
}
