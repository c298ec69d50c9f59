//! The network-on-chip: write-only remote access to other tiles' local
//! memories (paper Fig. 7 and \[16\]), plus a remote test-and-set used by
//! the asymmetric distributed lock (\[15\]; see DESIGN.md substitutions).
//!
//! Writes are *posted*: they complete at the source immediately and are
//! applied to the destination memory at `issue_time + route_latency`.
//! Delivery is in order per (source, destination) pair — route latency is
//! constant per pair, and the scheduler issues packets in global virtual
//! time order, so arrival order per pair equals issue order. Packets to
//! *different* destinations may be observed out of order: the paper's
//! Fig. 1 failure mode.
//!
//! ## Per-link bandwidth accounting
//!
//! All posted traffic occupies every directed link on its route for its
//! serialisation time: each link is a busy-until resource
//! ([`Noc::reserve_path`]), so streams crossing a shared link contend and
//! the per-link counters (`Noc::link_stats`) expose where. This covers
//! bulk DMA bursts *and* ordinary posted writes — remote local-memory
//! stores, uncached SDRAM stores and cache-line write-backs en route to
//! the memory controller — so the contention tables reflect total
//! traffic, not just the engines'.
//!
//! The NoC is **topology-generic**: routes and directed-link ids come
//! from [`Topology::route`] (shortest-arc on the ring, dimension-ordered
//! XY on the mesh; see [`Topology`] for the link numbering), so the same
//! reservation and accounting model serves every interconnect shape.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::config::{SocConfig, Topology};
use crate::mem::SdramPorts;
use crate::telemetry::{EventKind, Recorder};

/// The effect a packet applies when it arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PacketKind {
    /// Write `data` into the destination tile's local memory.
    Write { offset: u32, data: Vec<u8> },
    /// Write `version` (as a u32 header) followed by `data`, but only if
    /// `version` is newer than the u32 currently stored at `offset`.
    /// Models the receiver-side sequence check software DSM protocols use
    /// so that updates from *different* sources cannot roll a replica
    /// back (the paper's lazy lock-handoff transfer achieves the same
    /// ordering; see DESIGN.md).
    VersionedWrite { offset: u32, version: u32, data: Vec<u8> },
    /// Atomic test-and-set of one byte in the destination's local memory;
    /// the old value is posted back into `reply_tile`'s local memory at
    /// `reply_offset` (the requester's mailbox).
    TestAndSet { offset: u32, reply_tile: usize, reply_offset: u32 },
    /// One burst of an asynchronous DMA transfer. The packet's
    /// destination is always the *issuing* tile; the far side is SDRAM
    /// ([`crate::dma::DmaKind::Sdram`]) or another tile's local memory
    /// ([`crate::dma::DmaKind::Copy`]). The copy is performed lazily when
    /// the burst arrives — the engine reads memory while the transfer is
    /// in flight, which is why the runtime monitor flags accesses to a
    /// range with an outstanding transfer. `done` writes the transfer's
    /// per-channel sequence number to the given local-memory offset of
    /// the issuing tile once the final burst lands (the completion word
    /// `dma_wait` polls).
    DmaBurst {
        kind: crate::dma::DmaKind,
        far_offset: u32,
        local_offset: u32,
        len: u32,
        done: Option<(u32, u32)>,
    },
}

/// An in-flight NoC packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packet {
    pub arrive: u64,
    /// Global issue sequence number: ties on `arrive` resolve in issue
    /// order, keeping delivery deterministic.
    pub seq: u64,
    pub src: usize,
    pub dst: usize,
    pub kind: PacketKind,
}

impl Ord for Packet {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.arrive.cmp(&self.arrive).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Packet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Occupancy statistics of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Cycles the link spent serialising burst payloads.
    pub busy: u64,
    /// Bursts routed over the link.
    pub bursts: u64,
}

/// The in-flight packet queue, ordered by arrival time, plus the per-link
/// busy-until state used for bulk (DMA) traffic.
#[derive(Debug, Default)]
pub struct Noc {
    heap: BinaryHeap<Packet>,
    next_seq: u64,
    /// Busy-until time per directed link ([`Topology::link_count`]
    /// entries; empty when constructed without a topology, e.g. in unit
    /// tests).
    link_free: Vec<u64>,
    link_stats: Vec<LinkStat>,
    /// Payload buffers of delivered `Write` / `VersionedWrite` packets,
    /// handed out again by [`Noc::payload`]. A buffer keeps the largest
    /// capacity it was given, so once there are as many as writes were
    /// ever in flight, each grown to the payloads it carries, posting a
    /// write allocates nothing.
    free: Vec<Vec<u8>>,
    /// Interconnect-side telemetry ring (link occupancy, SDRAM-port
    /// service, DMA descriptor lifetimes). Disabled by default — the
    /// instrumented paths then cost one branch; install an enabled
    /// recorder with `Noc::set_recorder`.
    pub telem: Recorder,
}

impl Noc {
    /// A NoC with per-link state for `topology` over `n_tiles` tiles.
    pub fn with_topology(topology: Topology, n_tiles: usize) -> Self {
        let links = topology.link_count(n_tiles);
        Noc {
            link_free: vec![0; links],
            link_stats: vec![LinkStat::default(); links],
            ..Self::default()
        }
    }

    /// Per-link occupancy counters (index: link id as documented in
    /// [`Topology`]).
    pub(crate) fn link_stats(&self) -> &[LinkStat] {
        &self.link_stats
    }

    /// Install a telemetry recorder for interconnect-side events.
    pub(crate) fn set_recorder(&mut self, telem: Recorder) {
        self.telem = telem;
    }

    /// Reserve every link on the route `from → to` for a burst of
    /// `bytes` payload bytes becoming ready at `ready`; returns the
    /// cut-through arrival time at the destination. Each link is held for
    /// the burst's serialisation time (`noc_per_word * words`), modelling
    /// bandwidth; the header adds `noc_per_hop` pipeline latency per hop
    /// and `noc_fixed` once. Contention appears as waiting for a link's
    /// earlier reservation to drain. The route comes from
    /// [`Topology::route`]'s link walk, so the same accounting serves
    /// every topology.
    pub fn reserve_path(
        &mut self,
        cfg: &SocConfig,
        ready: u64,
        from: usize,
        to: usize,
        bytes: u32,
    ) -> u64 {
        let serialise = cfg.lat.noc_per_word * u64::from(bytes.div_ceil(4).max(1));
        if from == to {
            return ready + serialise;
        }
        assert!(
            self.link_free.len() >= cfg.topology.link_count(cfg.n_tiles),
            "Noc::with_topology was not used but bulk traffic needs link state"
        );
        let mut t = ready + cfg.lat.noc_fixed;
        for link in cfg.topology.route_links(cfg.n_tiles, from, to) {
            let start = t.max(self.link_free[link]);
            self.link_free[link] = start + serialise;
            self.link_stats[link].busy += serialise;
            self.link_stats[link].bursts += 1;
            self.telem.span(from, start, start + serialise, EventKind::LinkBusy { link });
            // Cut-through: the head moves on after one hop latency; the
            // tail (serialisation) overlaps across links.
            t = start + cfg.lat.noc_per_hop;
        }
        t + serialise
    }

    /// Seize the SDRAM port owning physical offset `offset` for a
    /// transaction of `bytes` bytes issued by `tile` that is ready at
    /// `ready`: each controller's port is a busy-until resource
    /// ([`crate::mem::SdramPorts`], owned by the caller), queueing is
    /// waiting for that port's previous transaction to drain, and the
    /// service interval lands in the telemetry ring as an
    /// [`EventKind::SdramPort`] span. Returns the completion time.
    pub(crate) fn reserve_sdram(
        &mut self,
        ports: &mut SdramPorts,
        cfg: &SocConfig,
        tile: usize,
        offset: u32,
        ready: u64,
        bytes: u32,
    ) -> u64 {
        let (start, done) = ports.reserve(offset, ready, cfg.sdram_service(bytes));
        self.telem.span(tile, start, done, EventKind::SdramPort);
        done
    }

    /// A posted transaction of `bytes` bytes from `tile` to SDRAM
    /// offset `offset`, ready at `ready`: the payload crosses the links
    /// to the controller owning the offset's stripe, then occupies that
    /// controller's port. Returns `(at_controller, port_done)`. Every
    /// posted SDRAM write takes this path: uncached stores, cache-line
    /// write-backs and DMA puts.
    #[inline]
    pub(crate) fn post_to_sdram(
        &mut self,
        ports: &mut SdramPorts,
        cfg: &SocConfig,
        tile: usize,
        offset: u32,
        ready: u64,
        bytes: u32,
    ) -> (u64, u64) {
        let at_ctrl = self.reserve_path(cfg, ready, tile, ports.tile_for(offset), bytes);
        (at_ctrl, self.reserve_sdram(ports, cfg, tile, offset, at_ctrl, bytes))
    }

    /// Free every link and clear its statistics.
    pub(crate) fn reset_links(&mut self) {
        self.link_free.fill(0);
        self.link_stats.fill(LinkStat::default());
    }

    /// A packet payload holding a copy of `data`, in a buffer from the
    /// free list when one is there.
    pub(crate) fn payload(&mut self, data: &[u8]) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(data);
        buf
    }

    /// Return a delivered packet's payload buffer to the free list.
    pub(crate) fn recycle(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }

    pub(crate) fn send(&mut self, arrive: u64, src: usize, dst: usize, kind: PacketKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Packet { arrive, seq, src, dst, kind });
    }

    /// Pop the next packet if it has arrived by `now`.
    pub(crate) fn pop_arrived(&mut self, now: u64) -> Option<Packet> {
        if self.heap.peek().is_some_and(|p| p.arrive <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Packets still in flight (tests observe bursts through it).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.heap.len()
    }

    /// Earliest in-flight completion-word write for any of `dst`'s
    /// completion words named by `watches` (`(local-memory offset,
    /// awaited sequence)` pairs; only the offsets matter here) — the
    /// event a blocked [`crate::soc::Cpu::dma_event_wait_any`] sleeps
    /// on. `None` when no such write is in flight (every programmed
    /// transfer on those words' channels has already landed). One heap
    /// pass whatever the watch count, which keeps the cost independent
    /// of it on busy interconnects.
    pub(crate) fn next_completion_arrival_any(
        &self,
        dst: usize,
        watches: &[(u32, u32)],
    ) -> Option<u64> {
        self.heap
            .iter()
            .filter(|p| {
                p.dst == dst
                    && matches!(&p.kind,
                        PacketKind::DmaBurst { done: Some((off, _)), .. }
                            if watches.iter().any(|&(o, _)| o == *off))
            })
            .map(|p| p.arrive)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpkt(offset: u32, byte: u8) -> PacketKind {
        PacketKind::Write { offset, data: vec![byte] }
    }

    #[test]
    fn arrival_order_is_by_time_then_seq() {
        let mut noc = Noc::default();
        noc.send(20, 0, 1, wpkt(0, 1));
        noc.send(10, 0, 2, wpkt(0, 2));
        noc.send(10, 1, 2, wpkt(4, 3));
        assert_eq!(noc.in_flight(), 3);
        let a = noc.pop_arrived(100).unwrap();
        let b = noc.pop_arrived(100).unwrap();
        let c = noc.pop_arrived(100).unwrap();
        assert_eq!((a.arrive, a.seq), (10, 1));
        assert_eq!((b.arrive, b.seq), (10, 2));
        assert_eq!((c.arrive, c.seq), (20, 0));
        assert!(noc.pop_arrived(100).is_none());
    }

    #[test]
    fn packets_wait_for_their_time() {
        let mut noc = Noc::default();
        noc.send(50, 0, 1, wpkt(0, 1));
        assert!(noc.pop_arrived(49).is_none());
        assert!(noc.pop_arrived(50).is_some());
    }

    #[test]
    fn reserve_path_accounts_contention_per_link() {
        let cfg = crate::config::SocConfig::small(8);
        let mut noc = Noc::with_topology(Topology::Ring, 8);
        // Two bursts over the same first link (0 → 1): the second waits
        // for the first's serialisation to drain.
        let a = noc.reserve_path(&cfg, 0, 0, 1, 256);
        let b = noc.reserve_path(&cfg, 0, 0, 1, 256);
        assert!(b > a, "second burst must queue behind the first: {a} vs {b}");
        let serialise = cfg.lat.noc_per_word * 64;
        assert_eq!(b - a, serialise, "exactly one serialisation time of queueing");
        assert_eq!(noc.link_stats()[0].bursts, 2);
        assert_eq!(noc.link_stats()[0].busy, 2 * serialise);
        // A disjoint route (5 → 4, counterclockwise link 8+4) is
        // unaffected by the congested link.
        let c = noc.reserve_path(&cfg, 0, 5, 4, 256);
        assert_eq!(c, a, "disjoint links must not contend");
    }

    #[test]
    fn reserve_path_latency_grows_with_distance() {
        let cfg = crate::config::SocConfig::small(8);
        let mut noc = Noc::with_topology(Topology::Ring, 8);
        let near = noc.reserve_path(&cfg, 0, 0, 1, 64);
        let mut noc = Noc::with_topology(Topology::Ring, 8);
        let far = noc.reserve_path(&cfg, 0, 0, 4, 64);
        assert!(far > near);
        assert_eq!(far - near, 3 * cfg.lat.noc_per_hop, "one extra hop latency per link");
    }

    /// Regression guard for the link statistics on routes *sourced at*
    /// the memory tile (the controller→tile direction every DMA get
    /// takes): each link on the route is charged exactly once — the
    /// final hop must not be double-counted — and a source-equals-
    /// destination reservation charges no link at all.
    #[test]
    fn reserve_path_charges_each_link_exactly_once_from_mem_tile() {
        let cfg = crate::config::SocConfig::small(8);
        let mem_tile = cfg.controllers()[0];
        assert_eq!(mem_tile, 0);
        let mut noc = Noc::with_topology(Topology::Ring, 8);
        let serialise = cfg.lat.noc_per_word * 16;
        // mem_tile (0) → 2: clockwise links 0 and 1, once each.
        noc.reserve_path(&cfg, 0, mem_tile, 2, 64);
        for link in [0usize, 1] {
            assert_eq!(noc.link_stats()[link].bursts, 1, "link {link}");
            assert_eq!(noc.link_stats()[link].busy, serialise, "link {link}");
        }
        for (i, s) in noc.link_stats().iter().enumerate() {
            if i != 0 && i != 1 {
                assert_eq!(s.bursts, 0, "off-route link {i} must stay untouched");
            }
        }
        // mem_tile → mem_tile reserves nothing (serialisation only).
        let t = noc.reserve_path(&cfg, 100, mem_tile, mem_tile, 64);
        assert_eq!(t, 100 + serialise);
        assert_eq!(noc.link_stats()[0].bursts, 1, "self-route charges no link");
    }

    /// The mesh twin of the ring charge pin: a reservation from the
    /// memory tile on a 4×4 mesh charges exactly the XY-route links
    /// (east, east, south, south for 0 → 10), once each, and nothing
    /// else — routing changes cannot silently shift traffic.
    #[test]
    fn reserve_path_charges_exactly_the_xy_route_on_a_mesh() {
        let cfg = crate::config::SocConfig::small_mesh(4, 4);
        let mem_tile = cfg.controllers()[0];
        assert_eq!(mem_tile, 0);
        let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
        let serialise = cfg.lat.noc_per_word * 16;
        // mem_tile (0,0) → tile 10 (2,2): east links of tiles 0 and 1,
        // then south links of tiles 2 and 6 (ids 2n+2, 2n+6 with n=16).
        noc.reserve_path(&cfg, 0, mem_tile, 10, 64);
        let expected = [0usize, 1, 34, 38];
        assert_eq!(cfg.topology.route(16, 0, 10), expected.to_vec());
        for link in expected {
            assert_eq!(noc.link_stats()[link].bursts, 1, "link {link}");
            assert_eq!(noc.link_stats()[link].busy, serialise, "link {link}");
        }
        for (i, s) in noc.link_stats().iter().enumerate() {
            if !expected.contains(&i) {
                assert_eq!(s.bursts, 0, "off-route link {i} must stay untouched");
            }
        }
    }

    /// Contention on the mesh behaves like on the ring: two bursts over
    /// a shared first link queue, while a route using disjoint links is
    /// unaffected.
    #[test]
    fn mesh_reservations_contend_per_link() {
        let cfg = crate::config::SocConfig::small_mesh(4, 2);
        let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
        let a = noc.reserve_path(&cfg, 0, 0, 3, 256); // east row 0
        let b = noc.reserve_path(&cfg, 0, 0, 1, 256); // shares link 0
        let serialise = cfg.lat.noc_per_word * 64;
        assert!(b > a, "the shared-link burst must queue: {a} vs {b}");
        assert_eq!(noc.link_stats()[0].bursts, 2);
        assert_eq!(noc.link_stats()[0].busy, 2 * serialise);
        // 7 → 4 runs west along row 1: fully disjoint, no queueing.
        let c = noc.reserve_path(&cfg, 0, 7, 4, 256);
        assert_eq!(c, a, "disjoint mesh links must not contend");
    }

    #[test]
    fn same_pair_delivery_is_fifo_when_latency_constant() {
        let mut noc = Noc::default();
        // Same (src,dst), same latency: arrival order == issue order.
        noc.send(30, 0, 1, wpkt(0, 1));
        noc.send(31, 0, 1, wpkt(0, 2));
        let a = noc.pop_arrived(100).unwrap();
        let b = noc.pop_arrived(100).unwrap();
        match (a.kind, b.kind) {
            (PacketKind::Write { data: d1, .. }, PacketKind::Write { data: d2, .. }) => {
                assert_eq!((d1[0], d2[0]), (1, 2));
            }
            _ => unreachable!(),
        }
    }
}
