//! Heap-allocation budget of a run and of the simulated memory path,
//! counted by the thread-local counting allocator in `counting_alloc`.

mod counting_alloc;

use counting_alloc::allocs;
use pmc_soc_sim::addr::{local_base, SDRAM_CACHED_BASE, SDRAM_UNCACHED_BASE};
use pmc_soc_sim::{CoreProgram, Cpu, DmaDescriptor, DmaDir, DmaKind, Soc, SocConfig};

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
/// nothing (`a_sleeping_dma_event_wait_allocates_nothing` covers one
/// that sleeps).
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

/// A DMA event wait that sleeps through a 1 KiB get in 64-byte bursts
/// allocates nothing: each burst that lands while it sleeps copies
/// through the simulator's reused burst buffer. One get first, so the
/// buffer and the in-flight queue have grown to their size.
#[test]
fn a_sleeping_dma_event_wait_allocates_nothing() {
    let soc = Soc::new(SocConfig::small(4));
    let pattern: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
    soc.write_sdram(0, &pattern);
    let mut programs: Vec<CoreProgram<'_>> =
        (0..3).map(|_| Box::new(|_: &mut Cpu| {}) as _).collect();
    programs.push(Box::new(|cpu: &mut Cpu| {
        let desc = DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 0x100, 1024, 64, 0);
        let seq = cpu.dma_issue(0, &desc);
        cpu.dma_event_wait(0, seq);
        let seq = cpu.dma_issue(0, &desc);
        let before = cpu.now();
        allocates_nothing("a DMA event wait that sleeps through 16 bursts", cpu, |cpu| {
            cpu.dma_event_wait(0, seq);
        });
        assert!(cpu.now() - before > 64, "the wait slept until the last burst landed");
    }));
    soc.run(programs);
    let mut landed = vec![0u8; 1024];
    soc.read_local(3, 0x100, &mut landed);
    assert_eq!(landed, pattern);
}

/// Posted NoC writes, versioned writes and a remote test-and-set round
/// trip allocate nothing: a payload comes from the NoC's free list, to
/// which each delivered write returns its buffer. Each counted call
/// follows one delivered call of its kind.
#[test]
fn noc_packets_allocate_nothing() {
    let soc = Soc::new(SocConfig::small(4));
    let mut programs: Vec<CoreProgram<'_>> =
        (0..3).map(|_| Box::new(|_: &mut Cpu| {}) as _).collect();
    programs.push(Box::new(|cpu: &mut Cpu| {
        let mailbox = local_base(3) + 0x40;
        // Sleep past every packet's arrival, then commit (an own local
        // read) so the arrived packets are delivered.
        let settle = |cpu: &mut Cpu| {
            cpu.compute(1000);
            cpu.read_u32(mailbox);
        };
        let tas_round_trip = |cpu: &mut Cpu| {
            cpu.write_u32(mailbox, 0);
            cpu.noc_test_and_set(0, 0x80, 0x40);
            while cpu.read_u32(mailbox) == 0 {
                cpu.compute(8);
            }
        };
        cpu.noc_write(1, 0x100, &[1; 32]);
        settle(cpu);
        allocates_nothing("a NoC write", cpu, |cpu| cpu.noc_write(1, 0x100, &[3; 32]));
        settle(cpu);
        cpu.noc_write_versioned(2, 0x200, 1, &[2; 32]);
        settle(cpu);
        allocates_nothing("a versioned NoC write", cpu, |cpu| {
            cpu.noc_write_versioned(2, 0x200, 2, &[4; 32]);
        });
        settle(cpu);
        tas_round_trip(cpu);
        allocates_nothing("a remote test-and-set round trip", cpu, tas_round_trip);
        assert_eq!(cpu.read_u32(mailbox), 0x0101, "the lock byte was already set");
    }));
    soc.run(programs);
    let mut bytes = [0u8; 36];
    soc.read_local(1, 0x100, &mut bytes[..32]);
    assert_eq!(bytes[..32], [3; 32]);
    soc.read_local(2, 0x200, &mut bytes);
    assert_eq!(bytes[..4], 2u32.to_le_bytes());
    assert_eq!(bytes[4..], [4; 32]);
}
