//! Paged byte memories (SDRAM and per-tile local memories), and the
//! SDRAM controller ports that serialise access to them.

use crate::addr;
use crate::counters::PortReport;

/// Bytes per page of a [`ByteMem`].
const PAGE: usize = 4096;

type Page = Box<[u8; PAGE]>;

/// A byte-addressable memory with little-endian accessors, held as a
/// table of 4 KiB pages. A page is allocated, zeroed, on its first
/// write; a page never written reads as zeros. Building a memory costs
/// its page table only, so a run pays for the bytes it writes, not for
/// the memory's size.
///
/// Accesses are bounds-checked against the exact size, which need not
/// be a page multiple. An access inside one page (every aligned word
/// access) takes one lookup; only block copies that cross a page
/// boundary walk the table page by page.
#[derive(Debug, Clone)]
pub(crate) struct ByteMem {
    size: usize,
    pages: Vec<Option<Page>>,
}

/// A zeroed page: the slow path of the first write to it.
#[cold]
#[inline(never)]
fn new_page() -> Page {
    Box::new([0; PAGE])
}

#[cold]
#[inline(never)]
#[track_caller]
fn out_of_bounds(offset: usize, len: usize, size: usize) -> ! {
    panic!("memory access {offset}..{} past the end of a {size}-byte memory", offset + len)
}

impl ByteMem {
    pub(crate) fn new(size: u32) -> Self {
        let size = size as usize;
        ByteMem { size, pages: vec![None; size.div_ceil(PAGE)] }
    }

    /// Panics unless `offset..offset + len` lies inside the memory.
    #[inline(always)]
    #[track_caller]
    fn check(&self, offset: usize, len: usize) {
        if offset + len > self.size {
            out_of_bounds(offset, len, self.size);
        }
    }

    /// The page holding byte `offset` for writing, allocated if new.
    #[inline(always)]
    fn page_mut(&mut self, offset: usize) -> &mut [u8; PAGE] {
        self.pages[offset / PAGE].get_or_insert_with(new_page)
    }

    /// `(page, offset in page, offset in block, length)` of each piece
    /// of a checked block access, in address order.
    fn pieces(offset: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let end = offset + len;
        let mut at = offset;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let i = at % PAGE;
                let n = (PAGE - i).min(end - at);
                let piece = (at / PAGE, i, at - offset, n);
                at += n;
                piece
            })
        })
    }

    #[inline(always)]
    pub(crate) fn read(&self, offset: u32, out: &mut [u8]) {
        let (o, len) = (offset as usize, out.len());
        self.check(o, len);
        let i = o % PAGE;
        // An empty access may sit at the end of the last page.
        if len != 0 && i + len <= PAGE {
            match &self.pages[o / PAGE] {
                Some(page) => out.copy_from_slice(&page[i..i + len]),
                None => out.fill(0),
            }
        } else {
            self.read_pages(o, out);
        }
    }

    #[inline(never)]
    fn read_pages(&self, offset: usize, out: &mut [u8]) {
        for (p, i, b, n) in Self::pieces(offset, out.len()) {
            let dst = &mut out[b..b + n];
            match &self.pages[p] {
                Some(page) => dst.copy_from_slice(&page[i..i + n]),
                None => dst.fill(0),
            }
        }
    }

    #[inline(always)]
    pub(crate) fn write(&mut self, offset: u32, data: &[u8]) {
        let (o, len) = (offset as usize, data.len());
        self.check(o, len);
        let i = o % PAGE;
        if len != 0 && i + len <= PAGE {
            self.page_mut(o)[i..i + len].copy_from_slice(data);
        } else {
            self.write_pages(o, data);
        }
    }

    #[inline(never)]
    fn write_pages(&mut self, offset: usize, data: &[u8]) {
        for (p, i, b, n) in Self::pieces(offset, data.len()) {
            self.page_mut(p * PAGE)[i..i + n].copy_from_slice(&data[b..b + n]);
        }
    }

    #[inline(always)]
    pub(crate) fn read_u8(&self, offset: u32) -> u8 {
        let o = offset as usize;
        self.check(o, 1);
        self.pages[o / PAGE].as_ref().map_or(0, |page| page[o % PAGE])
    }

    #[inline(always)]
    pub(crate) fn write_u8(&mut self, offset: u32, v: u8) {
        let o = offset as usize;
        self.check(o, 1);
        self.page_mut(o)[o % PAGE] = v;
    }

    #[inline(always)]
    pub(crate) fn read_u32(&self, offset: u32) -> u32 {
        let mut word = [0; 4];
        self.read(offset, &mut word);
        u32::from_le_bytes(word)
    }

    #[inline(always)]
    pub(crate) fn write_u32(&mut self, offset: u32, v: u32) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Pages allocated so far (written at least once).
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// The SDRAM controller ports: one busy-until resource per configured
/// controller, with the physical offset space striped across them
/// ([`crate::addr::controller_for`]). Each port serialises its own
/// transactions — with N controllers, N transactions to different
/// stripes proceed in parallel, which is what makes aggregate SDRAM
/// bandwidth scale with the controller count.
///
/// Built once by `Soc::new` from `SocConfig::controllers()`; the
/// single-controller default (`[0]`) behaves exactly like the
/// old scalar `sdram_free` busy-until word.
#[derive(Debug, Clone)]
pub struct SdramPorts {
    /// Controller id → the tile its port is attached to.
    tiles: Vec<usize>,
    /// Controller id → virtual time its port is busy until.
    free: Vec<u64>,
    /// Controller id → cycles spent servicing transactions.
    busy: Vec<u64>,
    /// Controller id → transactions serviced.
    bursts: Vec<u64>,
}

impl SdramPorts {
    pub fn new(tiles: Vec<usize>) -> Self {
        assert!(!tiles.is_empty(), "at least one SDRAM controller");
        let n = tiles.len();
        SdramPorts { tiles, free: vec![0; n], busy: vec![0; n], bursts: vec![0; n] }
    }

    /// The controller id owning a physical SDRAM offset.
    pub(crate) fn owner(&self, offset: u32) -> usize {
        addr::controller_for(offset, self.tiles.len())
    }

    /// The tile whose controller owns a physical SDRAM offset — the NoC
    /// endpoint a transfer touching `offset` must route to or from.
    pub(crate) fn tile_for(&self, offset: u32) -> usize {
        self.tiles[self.owner(offset)]
    }

    /// Serialise a `service`-cycle transaction on the controller owning
    /// `offset`, starting no earlier than `ready`. Returns
    /// `(start, done)` in virtual time.
    pub fn reserve(&mut self, offset: u32, ready: u64, service: u64) -> (u64, u64) {
        let c = self.owner(offset);
        let start = ready.max(self.free[c]);
        let done = start + service;
        self.free[c] = done;
        self.busy[c] += service;
        self.bursts[c] += 1;
        (start, done)
    }

    /// Free every port and clear its statistics.
    pub(crate) fn reset(&mut self) {
        self.free.fill(0);
        self.busy.fill(0);
        self.bursts.fill(0);
    }

    /// Per-controller occupancy, in controller-id order.
    pub(crate) fn report(&self) -> Vec<PortReport> {
        (0..self.tiles.len())
            .map(|c| PortReport {
                ctrl: c,
                tile: self.tiles[c],
                busy: self.busy[c],
                bursts: self.bursts[c],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_core::fuzz::{for_each_case, SplitMix64};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn rw_roundtrip() {
        let mut m = ByteMem::new(64);
        m.write_u32(0, 0xdead_beef);
        assert_eq!(m.read_u32(0), 0xdead_beef);
        m.write_u8(3, 0xff);
        assert_eq!(m.read_u32(0), 0xffad_beef);
        let mut buf = [0u8; 4];
        m.read(0, &mut buf);
        assert_eq!(buf, 0xffad_beefu32.to_le_bytes());
    }

    #[test]
    fn fresh_memory_is_zero() {
        let m = ByteMem::new(16);
        assert!((0..16).step_by(4).all(|o| m.read_u32(o) == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let m = ByteMem::new(4);
        m.read_u32(1);
    }

    /// Reads of untouched pages allocate nothing; a write allocates
    /// exactly the pages it touches, including a partial last page.
    #[test]
    fn pages_are_allocated_on_first_write_only() {
        let p = PAGE as u32;
        let mut m = ByteMem::new(3 * p + 10);
        let mut all = vec![0xffu8; m.size];
        m.read(0, &mut all);
        assert!(all.iter().all(|&b| b == 0));
        assert_eq!((m.read_u32(p), m.read_u8(3 * p + 9)), (0, 0));
        m.write(5, &[]);
        assert_eq!(m.resident_pages(), 0, "reads and empty writes allocate nothing");
        m.write(p - 2, &[1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2, "a write straddling a boundary allocates both pages");
        m.write_u32(3 * p + 4, 7);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!((m.read_u32(p - 2), m.read_u32(3 * p + 4)), (0x0403_0201, 7));
    }

    /// Memory sizes of the oracle comparison: below, at and just past
    /// page multiples.
    const SIZES: [usize; 7] = [1, 100, PAGE, PAGE + 4, 2 * PAGE + 1, 3 * PAGE - 3, 3 * PAGE];

    /// One operation on a memory of `size` bytes, decoded from raw draws:
    /// `pick % 6` chooses one of the six accessors, `pick / 6` an offset
    /// near a random byte, a page boundary or the end of the memory (some
    /// past it), and `b` a block length (mostly short, some spanning
    /// pages).
    fn decode(size: usize, (pick, a, b, val): (u8, u32, u32, u64)) -> Op {
        let back = (val >> 32) as usize % 8;
        let off = match pick / 6 {
            0 => a as usize % (size + 8),
            1 => (a as usize % (size / PAGE + 2) * PAGE).saturating_sub(back),
            _ => (size + (a as usize % 3)).saturating_sub(back),
        };
        let len = if b % 4 == 0 { b as usize % (2 * PAGE + 16) } else { b as usize % 70 };
        Op { kind: pick % 6, off: off as u32, len, val }
    }

    #[derive(Debug)]
    struct Op {
        kind: u8,
        off: u32,
        len: usize,
        val: u64,
    }

    impl Op {
        /// Bytes a block write stores: a deterministic stream from `val`.
        fn data(&self) -> Vec<u8> {
            let mut x = self.val | 1;
            (0..self.len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        }

        /// Apply to the memory under test; returns the bytes read.
        fn on_mem(&self, m: &mut ByteMem) -> Vec<u8> {
            match self.kind {
                0 => {
                    let mut out = vec![0; self.len];
                    m.read(self.off, &mut out);
                    out
                }
                1 => {
                    m.write(self.off, &self.data());
                    Vec::new()
                }
                2 => vec![m.read_u8(self.off)],
                3 => {
                    m.write_u8(self.off, self.val as u8);
                    Vec::new()
                }
                4 => m.read_u32(self.off).to_le_bytes().to_vec(),
                _ => {
                    m.write_u32(self.off, self.val as u32);
                    Vec::new()
                }
            }
        }

        /// Apply to the flat oracle; returns the bytes read.
        fn on_flat(&self, f: &mut [u8]) -> Vec<u8> {
            let o = self.off as usize;
            match self.kind {
                0 => f[o..o + self.len].to_vec(),
                1 => {
                    f[o..o + self.len].copy_from_slice(&self.data());
                    Vec::new()
                }
                2 => vec![f[o]],
                3 => {
                    f[o] = self.val as u8;
                    Vec::new()
                }
                4 => f[o..o + 4].to_vec(),
                _ => {
                    f[o..o + 4].copy_from_slice(&(self.val as u32).to_le_bytes());
                    Vec::new()
                }
            }
        }
    }

    /// Random sequences of the six accessors on a `ByteMem` and on a
    /// plain `Vec<u8>` give the same bytes, panic on the same
    /// operations (past the end) and leave the same contents.
    #[test]
    fn matches_a_flat_oracle() {
        for_each_case("matches_a_flat_oracle", 64, |rng| {
            let size = SIZES[rng.below(SIZES.len() as u64) as usize];
            let mut m = ByteMem::new(size as u32);
            let mut flat = vec![0u8; size];
            let word = |rng: &mut SplitMix64| rng.below(u64::from(u32::MAX)) as u32;
            for _ in 0..1 + rng.below(47) {
                let op =
                    decode(size, (rng.below(18) as u8, word(rng), word(rng), rng.below(u64::MAX)));
                let got = catch_unwind(AssertUnwindSafe(|| op.on_mem(&mut m))).ok();
                let want = catch_unwind(AssertUnwindSafe(|| op.on_flat(&mut flat))).ok();
                assert_eq!(got, want, "{op:?} on {size} bytes");
            }
            let mut all = vec![0u8; size];
            m.read(0, &mut all);
            assert!(all == flat, "contents differ from the oracle ({size} bytes)");
        });
    }

    /// Two controllers: transactions to different stripes overlap in
    /// time, transactions to the same stripe serialise, and the
    /// occupancy report attributes each to its controller.
    #[test]
    fn ports_serialise_per_controller() {
        let mut p = SdramPorts::new(vec![0, 2]);
        assert_eq!((p.tile_for(0), p.tile_for(4096)), (0, 2));
        let (s0, d0) = p.reserve(0, 10, 20); // controller 0
        let (s1, d1) = p.reserve(4096, 10, 20); // controller 1: parallel
        assert_eq!((s0, d0), (10, 30));
        assert_eq!((s1, d1), (10, 30), "different controllers do not queue on each other");
        let (s2, _) = p.reserve(64, 10, 20); // controller 0 again: queued
        assert_eq!(s2, 30, "same controller serialises");
        let rep = p.report();
        assert_eq!((rep[0].tile, rep[0].busy, rep[0].bursts), (0, 40, 2));
        assert_eq!((rep[1].tile, rep[1].busy, rep[1].bursts), (2, 20, 1));
    }

    #[test]
    #[should_panic(expected = "at least one SDRAM controller")]
    fn ports_reject_empty_controller_lists() {
        SdramPorts::new(Vec::new());
    }
}
