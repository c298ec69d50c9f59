//! Exact timing pin of the simulated memory path on a 2×2 mesh with two
//! SDRAM controllers (tiles 0 and 3), two DMA channels per tile and
//! telemetry on.
//!
//! Every tile calls every public `Cpu` transaction at least once, on
//! both SDRAM stripes (offsets below and above 4 KiB), so a write-back
//! or atomic on the second stripe and posted traffic over mesh links
//! are timed here even though the digest tables in `tests/engine.rs`
//! run on a ring with one controller. The pinned numbers are literal
//! values: a refactor of the memory path must reproduce them exactly,
//! and a deliberate timing-model change re-pins them from the values
//! the failing assertion prints.

use std::cell::RefCell;
use std::collections::BTreeMap;

use pmc_core::fuzz::SplitMix64;
use pmc_soc_sim::addr::{local_base, SDRAM_CACHED_BASE, SDRAM_UNCACHED_BASE};
use pmc_soc_sim::telemetry::StallClass;
use pmc_soc_sim::{
    CacheConfig, CoreProgram, Counters, Cpu, DmaDescriptor, DmaDir, DmaKind, EventKind, MemTag,
    Soc, SocConfig,
};

/// SDRAM offset of stripe `s` (0: controller on tile 0, 1: controller
/// on tile 3) for tile `t`, `extra` bytes in.
fn stripe(s: u32, t: usize, extra: u32) -> u32 {
    s * 0x1000 + t as u32 * 0x100 + extra
}

fn program(cpu: &mut Cpu, t: usize) {
    let own = local_base(t);
    let next = (t + 1) % 4;
    let across = (t + 2) % 4;

    // Own local memory: word and block access.
    cpu.write_u32(own + 0x100, 0x11 + t as u32);
    assert_eq!(cpu.read_u32(own + 0x100), 0x11 + t as u32);
    cpu.write_block(own + 0x180, &[t as u8; 40]);
    let mut buf = [0u8; 40];
    cpu.read_block(own + 0x180, &mut buf);
    assert_eq!(buf, [t as u8; 40]);

    for s in 0..2 {
        // Uncached window: word and block access on both stripes.
        let unc = SDRAM_UNCACHED_BASE + stripe(s, t, 0x40);
        cpu.write_u32(unc, 0x100 * s + t as u32);
        assert_eq!(cpu.read_u32(unc), 0x100 * s + t as u32);
        cpu.write_block(unc + 0x10, &[s as u8 + 1; 24]);
        let mut blk = [0u8; 24];
        cpu.read_block(unc + 0x10, &mut blk);
        assert_eq!(blk, [s as u8 + 1; 24]);

        // SDRAM atomics: a swap, a failed compare and a fetch-and-add.
        let word = SDRAM_UNCACHED_BASE + stripe(s, t, 0x80);
        assert_eq!(cpu.sdram_cas_u32(word, 0, 7), 0);
        assert_eq!(cpu.sdram_cas_u32(word, 0, 9), 7);
        assert_eq!(cpu.sdram_faa_u32(word, 3), 7);
    }

    // Cached window: two dirty lines on both stripes in one set, then
    // two misses that evict them (a write-back to each stripe), then
    // hits on the filled lines.
    let set = |k: u32| SDRAM_CACHED_BASE + k * 0x1000 + 0xC00 + t as u32 * 0x40;
    cpu.write_u32(set(0), 1);
    cpu.write_u32(set(1), 2);
    assert_eq!(cpu.read_u32(set(2)), 0);
    cpu.write_u32(set(3), 4);
    assert_eq!(cpu.read_u32(set(2) + 4), 0);
    cpu.write_u32(set(3) + 4, 5);

    // Flush dirty lines on both stripes, then invalidate a clean line
    // and an absent one.
    cpu.write_u32(SDRAM_CACHED_BASE + stripe(0, t, 0xC0), 6);
    cpu.write_u32(SDRAM_CACHED_BASE + stripe(1, t, 0xC0), 7);
    cpu.flush_dcache_range(SDRAM_CACHED_BASE + stripe(0, t, 0xC0), 64);
    cpu.flush_dcache_range(SDRAM_CACHED_BASE + stripe(1, t, 0xC0), 32);
    cpu.flush_dcache_range(set(3), 8);
    cpu.invalidate_dcache_range(set(2), 32);
    cpu.invalidate_dcache_range(SDRAM_CACHED_BASE + stripe(1, t, 0xC0), 32);

    // NoC: posted write, versioned write and remote test-and-set, plus
    // the own-tile test-and-set.
    cpu.noc_write(next, 0x400 + t as u32 * 8, &(t as u32).to_le_bytes());
    cpu.noc_write_versioned(across, 0x500 + t as u32 * 16, 1, &[t as u8; 8]);
    cpu.write_u32(own + 0x900, 0);
    cpu.noc_test_and_set(next, 0x800, 0x900);
    assert_eq!(cpu.local_test_and_set(0x880), 0);
    assert_eq!(cpu.local_test_and_set(0x880), 1);
    while cpu.read_u32(own + 0x900) == 0 {
        cpu.compute(5);
    }

    // DMA: get from stripe 0 on channel 0, put to stripe 1 on channel
    // 1, tile-to-tile copy on channel 0, each waited for.
    let get = DmaDescriptor::contiguous(
        DmaKind::Sdram(DmaDir::Get),
        0x2000 + t as u32 * 0x80,
        0x1000,
        96,
        32,
        0xC00,
    );
    let seq = cpu.dma_issue(0, get);
    cpu.dma_event_wait(0xC00, seq);
    let put = DmaDescriptor::contiguous(
        DmaKind::Sdram(DmaDir::Put),
        0x3000 + t as u32 * 0x80,
        0x1000,
        80,
        32,
        0xC04,
    );
    let seq = cpu.dma_issue(1, put);
    cpu.dma_event_wait(0xC04, seq);
    let copy = DmaDescriptor::contiguous(
        DmaKind::Copy { dst_tile: next },
        0x1400 + t as u32 * 0x40,
        0x1000,
        64,
        16,
        0xC00,
    );
    let seq = cpu.dma_issue(0, copy);
    cpu.dma_event_wait(0xC00, seq);
}

fn counter_fields(c: &Counters) -> [u64; 15] {
    [
        c.busy,
        c.stall_priv_read,
        c.stall_shared_read,
        c.stall_write,
        c.stall_icache,
        c.stall_noc,
        c.stall_dma_wait,
        c.instret,
        c.flush_cycles,
        c.dcache_hits,
        c.dcache_misses,
        c.dma_transfers,
        c.dma_bytes,
        c.dma_event_waits,
        c.dma_spurious_wakeups,
    ]
}

fn kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Stall(StallClass::PrivRead) => "stall:priv_read",
        EventKind::Stall(StallClass::SharedRead) => "stall:shared_read",
        EventKind::Stall(StallClass::Write) => "stall:write",
        EventKind::Stall(StallClass::Icache) => "stall:icache",
        EventKind::Stall(StallClass::Noc) => "stall:noc",
        EventKind::Stall(StallClass::Flush) => "stall:flush",
        EventKind::Stall(StallClass::DmaWait) => "stall:dma_wait",
        EventKind::DmaDescriptor { .. } => "dma_descriptor",
        EventKind::DmaBurst { .. } => "dma_burst",
        EventKind::DmaCompletion { .. } => "dma_completion",
        EventKind::LinkBusy { .. } => "link_busy",
        EventKind::SdramPort => "sdram_port",
    }
}

/// Everything the pin compares, gathered from one run.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    makespan: u64,
    counters: Vec<[u64; 15]>,
    /// Per controller: `(busy, bursts)`.
    ports: Vec<(u64, u64)>,
    /// `(total, max)` busy cycles over every physical link.
    links: (u64, u64),
    /// `(events, handoffs, peak_queue)`.
    engine: (u64, u64, usize),
    events: BTreeMap<&'static str, usize>,
    /// FNV-1a over SDRAM and every local memory after the run.
    memory: u64,
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn run_pinned() -> Pinned {
    let mut cfg = SocConfig {
        mem_controllers: vec![0, 3],
        dma_channels: 2,
        telemetry: true,
        ..SocConfig::small_mesh(2, 2)
    };
    // Non-zero local-memory and cache-hit latencies and a few I-cache
    // misses, so their stall arithmetic is pinned too.
    cfg.lat.local_mem = 2;
    cfg.lat.cache_hit = 1;
    cfg.icache_mpki = 40;
    let soc = Soc::new(cfg);
    // One shared range per stripe, so both read-stall classes appear.
    soc.tag_region(0x000, 0x200, MemTag::Shared);
    soc.tag_region(0x1000, 0x1200, MemTag::Shared);
    let report = soc.run(
        (0..4usize)
            .map(|t| -> CoreProgram<'static> { Box::new(move |cpu: &mut Cpu| program(cpu, t)) })
            .collect(),
    );
    let links = soc.link_report();
    let stats = soc.engine_stats().expect("the run completed");
    let mut events = BTreeMap::new();
    let telemetry = soc.take_telemetry();
    assert_eq!(telemetry.dropped, 0);
    for ev in telemetry.per_tile.iter().flatten().chain(&telemetry.system) {
        *events.entry(kind_name(&ev.kind)).or_insert(0) += 1;
    }
    let mut image = vec![0u8; soc.config().sdram_size as usize];
    soc.read_sdram(0, &mut image);
    let mut memory = fnv1a(0xcbf2_9ce4_8422_2325, &image);
    for tile in 0..4 {
        let mut local = vec![0u8; soc.config().local_mem_size as usize];
        soc.read_local(tile, 0, &mut local);
        memory = fnv1a(memory, &local);
    }
    Pinned {
        makespan: report.makespan,
        counters: report.per_core.iter().map(counter_fields).collect(),
        ports: soc.port_report().iter().map(|p| (p.busy, p.bursts)).collect(),
        links: (
            links.iter().map(|l| l.busy).sum(),
            links.iter().map(|l| l.busy).max().unwrap_or(0),
        ),
        engine: (stats.events, stats.handoffs, stats.peak_queue),
        events,
        memory,
    }
}

#[test]
fn memory_path_timing_is_pinned_on_a_two_controller_mesh() {
    let expected = Pinned {
        makespan: 2576,
        counters: vec![
            [113, 69, 1134, 453, 88, 39, 461, 113, 24, 2, 6, 3, 240, 3, 0],
            [119, 111, 1198, 445, 88, 40, 411, 119, 24, 2, 6, 3, 240, 3, 0],
            [113, 1385, 0, 459, 88, 39, 408, 113, 24, 2, 6, 3, 240, 3, 0],
            [173, 1447, 0, 427, 132, 49, 348, 173, 24, 2, 6, 3, 240, 3, 0],
        ],
        ports: vec![(1680, 60), (1768, 64)],
        links: (518, 130),
        engine: (111, 111, 4),
        events: BTreeMap::from([
            ("dma_burst", 40),
            ("dma_completion", 12),
            ("dma_descriptor", 12),
            ("link_busy", 106),
            ("sdram_port", 100),
            ("stall:dma_wait", 12),
            ("stall:flush", 36),
            ("stall:icache", 18),
            ("stall:noc", 71),
            ("stall:priv_read", 28),
            ("stall:shared_read", 20),
            ("stall:write", 36),
        ]),
        memory: 1782033648056109917,
    };
    assert_eq!(run_pinned(), expected);
}

/// One tile's seeded mix of cached reads and writes (widths 1, 2 and 4,
/// aligned, so never across a line), flushes and invalidations of
/// ranges up to three lines long (empty ones included), over a shared
/// footprint three times the cache's capacity. Returns every value
/// read, in order.
fn cached_mix(cpu: &mut Cpu, seed: u64, footprint: u32, line: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut reads = Vec::new();
    for _ in 0..300 {
        let width = [1u32, 2, 4][rng.below(3) as usize];
        let at = SDRAM_CACHED_BASE + rng.below(u64::from(footprint / width)) as u32 * width;
        let range = rng.below(u64::from(3 * line) + 1) as u32;
        match rng.below(10) {
            0..=3 => {
                let mut out = [0u8; 4];
                cpu.read(at, &mut out[..width as usize]);
                reads.push(u32::from_le_bytes(out));
            }
            4..=7 => {
                let value = (rng.next_u64() as u32).to_le_bytes();
                cpu.write(at, &value[..width as usize]);
            }
            8 => cpu.flush_dcache_range(at, range),
            _ => cpu.invalidate_dcache_range(at, range),
        }
    }
    reads
}

/// The cached path on every small cache geometry — ways 1, 2 and 4,
/// lines of 8, 32 and 64 bytes, 1, 2 and 8 sets — with two tiles
/// sharing one footprint, so misses, LRU evictions of dirty lines,
/// flushes and stale reads all occur. One FNV-1a digest over every
/// value read, each tile's counters, the makespan and the final SDRAM
/// bytes of the footprint, captured before the cache kept its lines in
/// one flat array: a change to the cache must reproduce it exactly.
#[test]
fn cached_path_is_pinned_across_geometries() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for ways in [1, 2, 4] {
        for line_size in [8, 32, 64] {
            for sets in [1, 2, 8] {
                let mut cfg = SocConfig::small(2);
                cfg.dcache = CacheConfig { line_size, sets, ways };
                let footprint = 3 * ways * sets * line_size;
                let seed = u64::from(ways << 16 | line_size << 8 | sets);
                let soc = Soc::new(cfg);
                let reads: [RefCell<Vec<u32>>; 2] = Default::default();
                let report = soc.run(
                    (0..2u64)
                        .map(|t| -> CoreProgram<'_> {
                            let reads = &reads[t as usize];
                            Box::new(move |cpu: &mut Cpu| {
                                *reads.borrow_mut() =
                                    cached_mix(cpu, seed * 2 + t, footprint, line_size);
                            })
                        })
                        .collect(),
                );
                for value in reads.iter().flat_map(|r| r.take()) {
                    digest = fnv1a(digest, &value.to_le_bytes());
                }
                for c in &report.per_core {
                    for field in counter_fields(c) {
                        digest = fnv1a(digest, &field.to_le_bytes());
                    }
                }
                digest = fnv1a(digest, &report.makespan.to_le_bytes());
                let mut image = vec![0u8; footprint as usize];
                soc.read_sdram(0, &mut image);
                digest = fnv1a(digest, &image);
            }
        }
    }
    assert_eq!(digest, 0x017b_4b47_63f3_2b9c, "cached-path digest {digest:#x}");
}
