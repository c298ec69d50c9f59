//! Heap-allocation budget of a run and of the simulated memory path,
//! counted by a global allocator wrapper.
//!
//! The count is a thread-local: tests run on parallel threads, and every
//! tile program of a `Soc::run` runs as a coroutine on the calling
//! thread, so a test sees exactly its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmc_soc_sim::addr::{SDRAM_CACHED_BASE, SDRAM_UNCACHED_BASE};
use pmc_soc_sim::{CoreProgram, Cpu, DmaDescriptor, DmaDir, DmaKind, Soc, SocConfig};

/// The system allocator, counting allocations (fresh and resized) per
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its allocations are
    // nobody's test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s guarantees are the wrapper's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one run of four empty tile programs on a `Soc`
/// whose data caches have `sets` sets.
fn empty_run_allocs(sets: u32) -> u64 {
    let mut cfg = SocConfig::small(4);
    cfg.dcache.sets = sets;
    let soc = Soc::new(cfg);
    let programs: Vec<CoreProgram<'_>> = (0..4).map(|_| Box::new(|_: &mut Cpu| {}) as _).collect();
    let before = allocs();
    soc.run(programs);
    allocs() - before
}

/// A run's allocations do not grow with the data cache: each core's
/// cache is two arrays whatever its geometry.
#[test]
fn an_empty_run_allocates_the_same_for_any_cache_size() {
    // The first run on a thread fills its task-stack pool.
    empty_run_allocs(128);
    let (small, large) = (empty_run_allocs(128), empty_run_allocs(1024));
    assert_eq!(
        small, large,
        "an empty 4-tile run allocates {small} times with 128 sets, {large} with 1 024"
    );
}

/// Assert that `op` allocates nothing.
fn allocates_nothing(what: &str, cpu: &mut Cpu, op: impl FnOnce(&mut Cpu)) {
    let before = allocs();
    op(cpu);
    assert_eq!(allocs() - before, 0, "{what} allocated");
}

/// With trace and telemetry off, and every SDRAM page the program
/// touches written once beforehand (a memory page is allocated on its
/// first write), no cached or uncached access allocates — including
/// the write-backs, whose posted traffic walks a route across the mesh
/// from the far corner to the controller on tile 0.
#[test]
fn the_memory_path_allocates_nothing() {
    let soc = Soc::new(SocConfig::small_mesh(3, 3));
    soc.write_sdram(0, &[1; 0x4000]);
    // The default cache: 32-byte lines, 128 sets, 2 ways, so lines
    // 4 KiB apart share a set.
    let cached = |offset: u32| SDRAM_CACHED_BASE + offset;
    let uncached = |offset: u32| SDRAM_UNCACHED_BASE + offset;
    let mut programs: Vec<CoreProgram<'_>> =
        (0..8).map(|_| Box::new(|_: &mut Cpu| {}) as _).collect();
    programs.push(Box::new(|cpu: &mut Cpu| {
        // Once through every operation first, so the engine's queues
        // have grown to their size.
        cpu.write_u32(cached(0x800), 1);
        cpu.read_u32(cached(0x840));
        cpu.flush_dcache_range(cached(0x800), 64);
        cpu.invalidate_dcache_range(cached(0x800), 64);
        cpu.write_u32(uncached(0x900), 1);
        cpu.read_u32(uncached(0x900));

        allocates_nothing("a clean miss", cpu, |cpu| {
            cpu.read_u32(cached(0x100));
        });
        allocates_nothing("a cached hit", cpu, |cpu| {
            cpu.read_u32(cached(0x100));
        });
        cpu.write_u32(cached(0x40), 2);
        cpu.write_u32(cached(0x1040), 3);
        allocates_nothing("a dirty eviction", cpu, |cpu| {
            cpu.read_u32(cached(0x2040));
        });
        for line in 0..4 {
            cpu.write_u32(cached(0x200 + line * 32), line);
        }
        allocates_nothing("a flush of four dirty lines", cpu, |cpu| {
            cpu.flush_dcache_range(cached(0x200), 128);
        });
        cpu.read_u32(cached(0x300));
        cpu.write_u32(cached(0x320), 4);
        allocates_nothing("an invalidation", cpu, |cpu| {
            cpu.invalidate_dcache_range(cached(0x300), 64);
        });
        allocates_nothing("an uncached read", cpu, |cpu| {
            cpu.read_u32(uncached(0x104));
        });
        allocates_nothing("an uncached write", cpu, |cpu| {
            cpu.write_u32(uncached(0x104), 5);
        });
    }));
    let report = soc.run(programs);
    assert_eq!(report.per_core[8].dcache_misses, 12);
    // The eviction and the flush wrote back; the invalidation discarded.
    assert_eq!(soc.read_sdram_u32(0x40), 2, "the dirty victim was written back");
    assert_eq!(soc.read_sdram_u32(0x260), 3, "the flush wrote back");
    assert_eq!(soc.read_sdram_u32(0x320), 0x0101_0101, "the invalidation discarded");
    assert_eq!(soc.read_sdram_u32(0x104), 5);
}

/// A DMA event wait whose completion word has already landed allocates
/// nothing. (A wait that sleeps is not covered: each burst that lands
/// while it sleeps allocates its copy buffer.)
#[test]
fn a_dma_event_wait_on_a_landed_completion_allocates_nothing() {
    let soc = Soc::new(SocConfig::small(4));
    let mut programs: Vec<CoreProgram<'_>> =
        (0..3).map(|_| Box::new(|_: &mut Cpu| {}) as _).collect();
    programs.push(Box::new(|cpu: &mut Cpu| {
        // A 1 KiB get into local memory, completion word at offset 0.
        let desc = DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 0x100, 1024, 64, 0);
        let seq = cpu.dma_issue(0, desc);
        cpu.dma_event_wait(0, seq);
        let before = cpu.now();
        allocates_nothing("a DMA event wait on a landed completion", cpu, |cpu| {
            cpu.dma_event_wait(0, seq);
        });
        assert!(cpu.now() - before < 16, "the landed completion needed no sleep");
    }));
    soc.run(programs);
}
