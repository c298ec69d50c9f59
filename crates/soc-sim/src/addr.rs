//! The platform address map.
//!
//! Mirrors the usual MicroBlaze trick of exposing SDRAM through two
//! windows: a *cached* window and an *uncached alias* of the same physical
//! bytes. The paper's "no CC" baseline places shared data in the uncached
//! window and private data in the cached one; the SWCC back-end uses the
//! cached window for everything and manages coherence in software.
//!
//! ```text
//! 0x1000_0000 + tile * 0x0010_0000   per-tile local memory (dual-port BRAM)
//! 0x4000_0000                        SDRAM, cached window
//! 0x8000_0000                        SDRAM, uncached alias (same bytes)
//! ```
//!
//! The local windows end where the cached SDRAM window begins, so the
//! map addresses `MAX_LOCAL_TILES` local memories; [`local_base`]
//! refuses a tile beyond them instead of handing out an address that
//! decodes as SDRAM.

/// Simulated physical/virtual address (32-bit SoC).
pub(crate) type Addr = u32;

pub(crate) const LOCAL_BASE: Addr = 0x1000_0000;
/// Address stride between consecutive tiles' local memories.
pub(crate) const LOCAL_STRIDE: Addr = 0x0010_0000;
pub const SDRAM_CACHED_BASE: Addr = 0x4000_0000;
pub const SDRAM_UNCACHED_BASE: Addr = 0x8000_0000;
/// Local-memory windows that fit below [`SDRAM_CACHED_BASE`]: 768.
pub(crate) const MAX_LOCAL_TILES: usize =
    ((SDRAM_CACHED_BASE - LOCAL_BASE) / LOCAL_STRIDE) as usize;

/// Decoded address region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// Local memory of a tile.
    Local { tile: usize, offset: u32 },
    /// SDRAM through the cached window.
    SdramCached { offset: u32 },
    /// SDRAM through the uncached alias.
    SdramUncached { offset: u32 },
}

/// Decode an address. Panics on addresses outside every window (a bus
/// error on the real platform).
pub(crate) fn decode(addr: Addr) -> Region {
    if addr >= SDRAM_UNCACHED_BASE {
        Region::SdramUncached { offset: addr - SDRAM_UNCACHED_BASE }
    } else if addr >= SDRAM_CACHED_BASE {
        Region::SdramCached { offset: addr - SDRAM_CACHED_BASE }
    } else if addr >= LOCAL_BASE {
        let rel = addr - LOCAL_BASE;
        Region::Local { tile: (rel / LOCAL_STRIDE) as usize, offset: rel % LOCAL_STRIDE }
    } else {
        panic!("bus error: address {addr:#010x} decodes to no device");
    }
}

/// The local-memory base address of a tile. Panics for a tile the
/// address map has no local window for.
pub fn local_base(tile: usize) -> Addr {
    assert!(
        tile < MAX_LOCAL_TILES,
        "tile {tile} has no local-memory window: the address map holds {MAX_LOCAL_TILES} \
         (tiles 0..={}) below the cached SDRAM window at {SDRAM_CACHED_BASE:#010x}",
        MAX_LOCAL_TILES - 1
    );
    LOCAL_BASE + tile as Addr * LOCAL_STRIDE
}

/// The physical SDRAM offset behind either window.
pub(crate) fn sdram_offset(addr: Addr) -> u32 {
    match decode(addr) {
        Region::SdramCached { offset } | Region::SdramUncached { offset } => offset,
        Region::Local { .. } => panic!("{addr:#010x} is not an SDRAM address"),
    }
}

/// The SDRAM interleaving stripe, as a shift: consecutive
/// `1 << CTRL_STRIPE_SHIFT`-byte (4 KiB) blocks of the physical SDRAM
/// offset space rotate round-robin across the memory controllers. A
/// power of two keeps the map a shift-and-mask, and 4 KiB is coarse
/// enough that a DMA burst or cache line never straddles controllers
/// while fine enough that bulk transfers touch every controller.
pub const CTRL_STRIPE_SHIFT: u32 = 12;

/// Which controller (an index into `SocConfig::controllers()`) owns the
/// physical SDRAM offset `offset`, under `n_controllers`-way power-of-two
/// striping. Every offset maps to exactly one controller — the stripes
/// partition the address space — and the map is pure, so repeated
/// lookups are stable.
pub fn controller_for(offset: u32, n_controllers: usize) -> usize {
    debug_assert!(n_controllers > 0, "at least one memory controller");
    (offset >> CTRL_STRIPE_SHIFT) as usize % n_controllers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_roundtrips() {
        assert_eq!(decode(local_base(0)), Region::Local { tile: 0, offset: 0 });
        assert_eq!(decode(local_base(5) + 12), Region::Local { tile: 5, offset: 12 });
        assert_eq!(decode(SDRAM_CACHED_BASE + 100), Region::SdramCached { offset: 100 });
        assert_eq!(decode(SDRAM_UNCACHED_BASE + 4), Region::SdramUncached { offset: 4 });
    }

    /// The last window decodes as local memory; one past it would alias
    /// the cached SDRAM window, so it is refused.
    #[test]
    #[should_panic(expected = "tile 768 has no local-memory window: the address map holds 768")]
    fn local_windows_end_at_the_cached_sdram_window() {
        assert_eq!(decode(local_base(767)), Region::Local { tile: 767, offset: 0 });
        assert_eq!(local_base(767) + LOCAL_STRIDE, SDRAM_CACHED_BASE);
        local_base(768);
    }

    #[test]
    fn aliasing_maps_to_same_offset() {
        assert_eq!(sdram_offset(SDRAM_CACHED_BASE + 0x1234), 0x1234);
        assert_eq!(sdram_offset(SDRAM_UNCACHED_BASE + 0x1234), 0x1234);
    }

    #[test]
    #[should_panic(expected = "bus error")]
    fn low_addresses_fault() {
        decode(0x10);
    }

    #[test]
    fn controller_striping_rotates_on_4k_blocks() {
        // One controller owns everything.
        assert_eq!(controller_for(0, 1), 0);
        assert_eq!(controller_for(u32::MAX, 1), 0);
        // Two controllers alternate on 4 KiB stripes.
        assert_eq!(controller_for(0, 2), 0);
        assert_eq!(controller_for(4095, 2), 0);
        assert_eq!(controller_for(4096, 2), 1);
        assert_eq!(controller_for(8192, 2), 0);
        // Within a stripe the owner never changes (a burst can't
        // straddle controllers unless it crosses a 4 KiB boundary).
        for off in (0..4096).step_by(64) {
            assert_eq!(controller_for(12288 + off, 4), controller_for(12288, 4));
        }
    }
}
