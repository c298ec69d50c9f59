//! Flat byte memories (SDRAM and per-tile local memories), and the
//! SDRAM controller ports that serialise access to them.

use crate::addr;
use crate::counters::PortReport;

/// A byte-addressable memory with little-endian accessors.
#[derive(Debug, Clone)]
pub(crate) struct ByteMem {
    bytes: Vec<u8>,
}

impl ByteMem {
    pub(crate) fn new(size: u32) -> Self {
        ByteMem { bytes: vec![0; size as usize] }
    }

    #[inline]
    pub(crate) fn read(&self, offset: u32, out: &mut [u8]) {
        let o = offset as usize;
        out.copy_from_slice(&self.bytes[o..o + out.len()]);
    }

    #[inline]
    pub(crate) fn write(&mut self, offset: u32, data: &[u8]) {
        let o = offset as usize;
        self.bytes[o..o + data.len()].copy_from_slice(data);
    }

    #[inline]
    pub(crate) fn read_u8(&self, offset: u32) -> u8 {
        self.bytes[offset as usize]
    }

    #[inline]
    pub(crate) fn write_u8(&mut self, offset: u32, v: u8) {
        self.bytes[offset as usize] = v;
    }

    #[inline]
    pub(crate) fn read_u32(&self, offset: u32) -> u32 {
        let o = offset as usize;
        u32::from_le_bytes(self.bytes[o..o + 4].try_into().unwrap())
    }

    #[inline]
    pub(crate) fn write_u32(&mut self, offset: u32, v: u32) {
        let o = offset as usize;
        self.bytes[o..o + 4].copy_from_slice(&v.to_le_bytes());
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
