//! The SoC simulator: tiles, shared state, and the deterministic
//! virtual-time scheduler.
//!
//! ## Scheduling model
//!
//! *Globally visible* actions (SDRAM traffic, local-memory accesses, NoC
//! packets, cache-line writebacks, trace records) are committed one at a
//! time, in strict `(virtual_time, tile_id)` order. Core-private actions
//! (data-cache hits, compute, clean invalidations) run on a core-local
//! fast path that only advances the core's clock; they are invisible to
//! other tiles, so commit order is unaffected.
//!
//! One loop realises that order ([`crate::engine`]): a single-threaded
//! min-heap of `(virtual_time, tile)` events resumes suspended tile
//! programs one at a time at exactly their next action times — O(log n)
//! scheduling, a handoff is a user-space stack switch on the caller's
//! thread, thousands of tiles are practical. The loop owns the run:
//! each tile's counters, clock and telemetry (or its panic) come back
//! with its last handoff and [`Soc::run`] gets them all as the loop's
//! return value, so a [`Soc`] is its configuration plus one block of
//! simulated state.
//!
//! **The commit-order contract** is the whole interface between the
//! engine and everything above it, and it is checked where it is
//! relied on: every globally visible action passes through
//! `Cpu::turn`, which asserts — in debug and release builds alike —
//! that its `(clock, tile)` is not below the previous commit's
//! (`Global::note_commit`). A scheduler bug therefore stops the run at
//! the first out-of-order action instead of producing a plausible
//! wrong trace.
//!
//! Same configuration + same programs ⇒ bit-identical runs, counters
//! included.
//!
//! ## Memory system semantics
//!
//! * **SDRAM, cached window** — write-back allocate-on-write non-coherent
//!   per-core caches that hold real data; misses and writebacks contend
//!   for the SDRAM port (a busy-until queue).
//! * **SDRAM, uncached alias** — every access is an SDRAM transaction.
//! * **Local memories** — single-cycle for the owning tile; *write-only*
//!   for every other tile via posted NoC packets (paper Fig. 7). Reading
//!   another tile's memory is a bus error.
//! * **NoC** — posted writes and remote atomics delivered at
//!   `issue + route_latency`; in-order per (src, dst) pair, unordered
//!   across destinations (the paper's Fig. 1 failure mode).
//!
//! Each transaction kind is timed in one place:
//!
//! * own local-memory access, per word — `Cpu::local_access`;
//! * uncached SDRAM read — `Cpu::sdram_read`;
//! * posted SDRAM write (uncached store, cache-line write-back, DMA put)
//!   — `Noc::post_to_sdram`, wrapped with the bytes' store by
//!   `Global::post_sdram` for the core's own writes;
//! * SDRAM exclusive pair (CAS, fetch-and-add) — `Cpu::sdram_rmw_u32`;
//! * posted NoC packet (write, versioned write, remote test-and-set) —
//!   `Cpu::noc_post`;
//! * stall class of a read — `Global::read_stall`.
//!
//! A store to another tile's local memory goes through
//! [`Cpu::noc_write`] only: [`Cpu::write`] and `write_block` reject it.

use std::borrow::Borrow;
use std::cell::{RefCell, RefMut};
use std::sync::atomic::Ordering as AtomicOrdering;

use crate::addr::{self, Addr, Region};
use crate::cache::Cache;
use crate::config::SocConfig;
use crate::coro;
use crate::counters::{Counters, LinkReport, MemTag, PortReport, RunReport};
use crate::dma::{DmaDescriptor, DmaDir, DmaEngine, DmaKind};
use crate::engine::{self, EngineStats, TaskPort, TaskYield, TileResult};
use crate::icache::ICache;
use crate::mem::{ByteMem, SdramPorts};
use crate::noc::{LinkStat, Noc, Packet, PacketKind};
use crate::telemetry::{EventKind, Recorder, StallClass, TelemetryEvent, TelemetryReport};
use crate::trace::{self, TraceRecord};

/// State shared by all tiles: everything of a [`Soc`] that changes.
struct Global {
    sdram: ByteMem,
    locals: Vec<ByteMem>,
    noc: Noc,
    /// One DMA engine per tile.
    dma: Vec<DmaEngine>,
    /// `(clock, tile)` of the latest globally visible action: the
    /// commit-order contract's witness (see [`Global::note_commit`]).
    last_commit: (u64, usize),
    /// Per-controller SDRAM ports (queueing model), with the physical
    /// offset space striped across them.
    ports: SdramPorts,
    /// Region tags for stall attribution: sorted, disjoint
    /// `(sdram_start, sdram_end, tag)`.
    tags: Vec<(u32, u32, MemTag)>,
    trace: Vec<TraceRecord>,
    /// Per-tile telemetry streams (events + drop count) of the last
    /// run; interconnect-side events live in `noc.telem`.
    telem_tiles: Vec<(Vec<TelemetryEvent>, u64)>,
    /// Scheduler statistics of the last run (`None` until one completes).
    engine_stats: Option<EngineStats>,
    /// Copy buffer of every landing DMA burst, reused: it grows to the
    /// largest burst once, so a landing allocates nothing after that.
    burst_buf: Vec<u8>,
}

impl Global {
    /// A posted write of `data` from `tile` to SDRAM offset `offset`,
    /// ready at `ready` ([`Noc::post_to_sdram`]): returns when the
    /// controller's port has served it. Uncached stores and cache-line
    /// write-backs take this path.
    #[inline]
    fn post_sdram(
        &mut self,
        cfg: &SocConfig,
        tile: usize,
        offset: u32,
        ready: u64,
        data: &[u8],
    ) -> u64 {
        let bytes = data.len() as u32;
        let (_, done) = self.noc.post_to_sdram(&mut self.ports, cfg, tile, offset, ready, bytes);
        self.sdram.write(offset, data);
        done
    }

    /// The stall class of a read of `sdram_offset`, from its region tag
    /// (paper Fig. 8: shared vs. private data).
    #[inline]
    fn read_stall(&self, sdram_offset: u32) -> StallClass {
        let tag = match self.tags.binary_search_by(|&(start, end, _)| {
            if sdram_offset < start {
                std::cmp::Ordering::Greater
            } else if sdram_offset >= end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.tags[i].2,
            Err(_) => MemTag::Private,
        };
        match tag {
            MemTag::Shared => StallClass::SharedRead,
            MemTag::Private => StallClass::PrivRead,
        }
    }

    /// Start virtual time over for a new run: deliver the packets a
    /// panicked run left in flight, then free every SDRAM port, NoC link
    /// and DMA channel and clear their statistics and the interconnect
    /// telemetry. DMA sequence numbers carry on, because completion
    /// words persist in local memory.
    fn restart(&mut self, cfg: &SocConfig) {
        self.drain_packets(u64::MAX, cfg);
        self.last_commit = (0, 0);
        self.ports.reset();
        self.noc.reset_links();
        self.noc.telem.drain();
        for ch in self.dma.iter_mut().flat_map(|e| e.channels.iter_mut()) {
            ch.free_at = 0;
        }
    }

    /// Apply every packet that has arrived by `now`.
    fn drain_packets(&mut self, now: u64, cfg: &SocConfig) {
        while let Some(p) = self.noc.pop_arrived(now) {
            self.apply_packet(p, cfg);
        }
    }

    fn apply_packet(&mut self, p: Packet, cfg: &SocConfig) {
        match p.kind {
            PacketKind::Write { offset, data } => {
                self.locals[p.dst].write(offset, &data);
                self.noc.recycle(data);
            }
            PacketKind::VersionedWrite { offset, version, data } => {
                let current = self.locals[p.dst].read_u32(offset);
                if version > current {
                    self.locals[p.dst].write_u32(offset, version);
                    self.locals[p.dst].write(offset + 4, &data);
                }
                self.noc.recycle(data);
            }
            PacketKind::TestAndSet { offset, reply_tile, reply_offset } => {
                let old = self.locals[p.dst].read_u8(offset);
                self.locals[p.dst].write_u8(offset, 1);
                // The old value travels back as a posted write into the
                // requester's mailbox; add a reply flag in the high byte
                // scheme: mailbox word = 0x0100 | old (so "no reply yet"
                // = 0 is distinguishable from old == 0).
                let reply = 0x0100u32 | old as u32;
                let arrive = self.noc.reserve_path(cfg, p.arrive, p.dst, reply_tile, 4);
                let data = self.noc.payload(&reply.to_le_bytes());
                self.noc.send(
                    arrive,
                    p.dst,
                    reply_tile,
                    PacketKind::Write { offset: reply_offset, data },
                );
            }
            PacketKind::DmaBurst { kind, far_offset, local_offset, len, done } => {
                if len > 0 {
                    let len = len as usize;
                    if self.burst_buf.len() < len {
                        self.burst_buf.resize(len, 0);
                    }
                    let buf = &mut self.burst_buf[..len];
                    match kind {
                        DmaKind::Sdram(DmaDir::Get) => {
                            self.sdram.read(far_offset, buf);
                            self.locals[p.dst].write(local_offset, buf);
                        }
                        DmaKind::Sdram(DmaDir::Put) => {
                            self.locals[p.dst].read(local_offset, buf);
                            self.sdram.write(far_offset, buf);
                        }
                        DmaKind::Copy { dst_tile } => {
                            // Tile-to-tile: the issuing tile's scratchpad
                            // drains into the destination tile's.
                            self.locals[p.dst].read(local_offset, buf);
                            self.locals[dst_tile].write(far_offset, buf);
                        }
                    }
                }
                if let Some((done_offset, seq)) = done {
                    self.locals[p.dst].write_u32(done_offset, seq);
                    self.noc.telem.instant(p.dst, p.arrive, EventKind::DmaCompletion { seq });
                }
            }
        }
    }

    /// The commit-order contract, checked on every globally visible
    /// action of every run: actions commit in non-decreasing
    /// `(virtual_time, tile)` order. Equal keys are one tile acting
    /// again at an unchanged clock.
    fn note_commit(&mut self, clock: u64, tile: usize) {
        assert!(
            self.last_commit <= (clock, tile),
            "commit order violated: tile {tile} acts at cycle {clock} after tile {} \
             committed at cycle {}",
            self.last_commit.1,
            self.last_commit.0
        );
        self.last_commit = (clock, tile);
    }
}

/// The simulated system-on-chip. Construct, optionally initialise
/// memories and region tags, then [`Soc::run`] one closure per tile.
///
/// One thread at a time owns a `Soc`: it may be moved to another thread
/// between runs, never shared with one.
///
/// ```
/// fn assert_send<T: Send>() {}
/// assert_send::<pmc_soc_sim::Soc>();
/// ```
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<pmc_soc_sim::Soc>();
/// ```
pub struct Soc {
    cfg: SocConfig,
    /// Everything that changes. A run is one thread — the event loop
    /// and every tile program, one at a time — so this is a `RefCell`:
    /// the compiler rejects sharing a `Soc` across threads, and a borrow
    /// held across a handoff panics at the next tile's commit point.
    global: RefCell<Global>,
}

impl Soc {
    pub fn new(cfg: SocConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SocConfig: {e}");
        }
        let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
        noc.set_recorder(Recorder::new(cfg.telemetry));
        let global = Global {
            sdram: ByteMem::new(cfg.sdram_size),
            locals: (0..cfg.n_tiles).map(|_| ByteMem::new(cfg.local_mem_size)).collect(),
            noc,
            dma: vec![DmaEngine::new(cfg.dma_channels); cfg.n_tiles],
            last_commit: (0, 0),
            ports: SdramPorts::new(cfg.controllers()),
            tags: Vec::new(),
            trace: Vec::new(),
            telem_tiles: vec![(Vec::new(), 0); cfg.n_tiles],
            engine_stats: None,
            burst_buf: Vec::new(),
        };
        Soc { cfg, global: RefCell::new(global) }
    }

    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Tag an SDRAM offset range for stall attribution (shared vs.
    /// private data, paper Fig. 8). Ranges must not overlap.
    pub fn tag_region(&self, sdram_start: u32, sdram_end: u32, tag: MemTag) {
        let mut g = self.global.borrow_mut();
        g.tags.push((sdram_start, sdram_end, tag));
        g.tags.sort_unstable_by_key(|&(s, _, _)| s);
        for w in g.tags.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping region tags");
        }
    }

    /// Pre-run (or post-run) direct SDRAM access, bypassing timing.
    pub fn write_sdram(&self, offset: u32, data: &[u8]) {
        self.global.borrow_mut().sdram.write(offset, data);
    }

    pub fn read_sdram(&self, offset: u32, out: &mut [u8]) {
        self.global.borrow().sdram.read(offset, out);
    }

    pub fn read_sdram_u32(&self, offset: u32) -> u32 {
        self.global.borrow().sdram.read_u32(offset)
    }

    /// Pre-run direct local-memory access, bypassing timing.
    pub fn write_local(&self, tile: usize, offset: u32, data: &[u8]) {
        self.global.borrow_mut().locals[tile].write(offset, data);
    }

    pub fn read_local(&self, tile: usize, offset: u32, out: &mut [u8]) {
        self.global.borrow().locals[tile].read(offset, out);
    }

    /// Memory pages allocated so far, over SDRAM and every local memory.
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        let g = self.global.borrow();
        g.sdram.resident_pages() + g.locals.iter().map(ByteMem::resident_pages).sum::<usize>()
    }

    /// The recorded trace (empty unless `cfg.trace`).
    pub fn take_trace(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.global.borrow_mut().trace)
    }

    /// The recorded telemetry of the last run (empty unless
    /// `cfg.telemetry`): per-tile core-side streams plus the
    /// interconnect-side stream, with the total ring-drop count.
    pub fn take_telemetry(&self) -> TelemetryReport {
        let mut g = self.global.borrow_mut();
        let (system, mut dropped) = g.noc.telem.drain();
        let mut per_tile = Vec::with_capacity(self.cfg.n_tiles);
        for slot in g.telem_tiles.iter_mut() {
            let (evs, d) = std::mem::take(slot);
            dropped += d;
            per_tile.push(evs);
        }
        TelemetryReport { per_tile, system, dropped }
    }

    /// Per-directed-link occupancy counters, indexed by raw link id (see
    /// [`crate::config::Topology`] for the numbering; mesh boundary
    /// slots stay zero).
    pub fn link_stats(&self) -> Vec<LinkStat> {
        self.global.borrow().noc.link_stats().to_vec()
    }

    /// Per-link occupancy resolved against the topology: one
    /// [`LinkReport`] per *physical* directed link, with source and
    /// destination tiles — the contention-table view that works the same
    /// on the ring and the mesh.
    pub fn link_report(&self) -> Vec<LinkReport> {
        let topo = self.cfg.topology;
        let n = self.cfg.n_tiles;
        self.link_stats()
            .iter()
            .enumerate()
            .filter(|&(i, _)| topo.is_valid_link(n, i))
            .map(|(i, s)| {
                let (from, to) = topo.link_endpoints(n, i);
                LinkReport { link: i, from, to, busy: s.busy, bursts: s.bursts }
            })
            .collect()
    }

    /// Per-controller SDRAM port occupancy, in controller-id order: one
    /// [`PortReport`] per configured memory controller. With interleaved
    /// multi-controller configurations the spread across entries shows
    /// how well the 4 KiB stripes balanced the load.
    pub fn port_report(&self) -> Vec<PortReport> {
        self.global.borrow().ports.report()
    }

    /// Run one program per tile (programs beyond `n_tiles` are an error;
    /// tiles without a program idle at `done`). Returns per-core counters
    /// and the makespan. Panics propagate from core closures. Memories
    /// persist across runs, so callers can pre-initialise and
    /// post-inspect them, and so do DMA sequence numbers; virtual time,
    /// SDRAM ports, NoC links and DMA channels start over.
    ///
    /// Programs run as stackful coroutines under the one event loop
    /// ([`crate::engine`]) on the calling thread — no OS thread is
    /// spawned. Their stacks come from, and go back to, the calling
    /// thread's pool of task stacks, which also persists across runs (and
    /// across `Soc`s) until the thread exits: a thread maps stacks only for
    /// the most tiles it has run at once.
    pub fn run<'env>(&'env self, programs: Vec<CoreProgram<'env>>) -> RunReport {
        assert!(programs.len() <= self.cfg.n_tiles, "more programs than tiles");
        self.global.borrow_mut().restart(&self.cfg);
        let spawn = |(tile, program): (usize, CoreProgram<'env>)| {
            coro::spawn(move |suspender, first| {
                let mut cpu = Cpu::new(self, tile, TaskPort::new(suspender, first, tile));
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program(&mut cpu)));
                TaskYield::Finished(Box::new(result.map(|()| cpu.finish())))
            })
        };
        let mut tasks: Vec<_> = programs.into_iter().enumerate().map(spawn).collect();
        let outcome = engine::run(&mut tasks);
        // Tiles without a program, or whose program unwound, report zeros.
        let mut results: Vec<TileResult> =
            outcome.results.into_iter().map(Option::unwrap_or_default).collect();
        results.resize_with(self.cfg.n_tiles, TileResult::default);
        {
            let mut g = self.global.borrow_mut();
            g.engine_stats = Some(outcome.stats);
            g.telem_tiles = results.iter_mut().map(|r| std::mem::take(&mut r.telemetry)).collect();
            if outcome.panic.is_none() {
                // Deliver posted writes still in flight when the last
                // program retired (e.g. a final `dsm_commit` broadcast
                // racing program exit), so host-side `read_back` observes
                // the completed run.
                g.drain_packets(u64::MAX, &self.cfg);
            }
        }
        if let Some((tile, payload)) = outcome.panic {
            // Tile programs share the caller's thread, so the panic hook
            // could not say which tile died: name it here.
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            match msg {
                Some(msg) => panic!("tile {tile} panicked: {msg}"),
                None => std::panic::resume_unwind(payload),
            }
        }
        RunReport {
            per_core: results.iter().map(|r| r.counters).collect(),
            makespan: results.iter().map(|r| r.clock).max().unwrap_or(0),
        }
    }

    /// Scheduler statistics of the last [`Soc::run`] (`None` before the
    /// first run completes).
    pub fn engine_stats(&self) -> Option<EngineStats> {
        self.global.borrow().engine_stats
    }
}

/// A per-tile program: receives the tile's CPU handle.
///
/// Every tile program of a run executes on the thread that called
/// [`Soc::run`], interleaved at its yield points (see
/// [`crate::engine`]): state a program keeps in a `thread_local!` or
/// derives from `std::thread::current()` is shared by all tiles, not
/// private to one. For the same reason a program need not be `Send`.
pub type CoreProgram<'env> = Box<dyn FnOnce(&mut Cpu<'_>) + 'env>;

/// The per-core execution context handed to tile programs: the only way
/// application / runtime code touches the simulated machine.
///
/// A `Cpu` is `!Send`: a tile program cannot hand it to another thread,
/// where its yield point would switch the wrong stack.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<pmc_soc_sim::Cpu<'static>>();
/// ```
pub struct Cpu<'a> {
    soc: &'a Soc,
    tile: usize,
    /// Local virtual time.
    clock: u64,
    /// The yield point to the event loop ([`crate::engine::TaskPort`]).
    port: TaskPort<'a>,
    dcache: Cache,
    icache: ICache,
    ctr: Counters,
    /// Core-side telemetry ring (stall spans), private to the tile —
    /// handed back by [`Cpu::finish`].
    telem: Recorder,
}

impl<'a> Cpu<'a> {
    fn new(soc: &'a Soc, tile: usize, port: TaskPort<'a>) -> Self {
        Cpu {
            soc,
            tile,
            clock: 0,
            port,
            dcache: Cache::new(soc.cfg.dcache),
            icache: ICache::new(soc.cfg.icache_mpki),
            ctr: Counters::default(),
            telem: Recorder::new(soc.cfg.telemetry),
        }
    }

    pub fn tile(&self) -> usize {
        self.tile
    }

    pub fn n_tiles(&self) -> usize {
        self.soc.cfg.n_tiles
    }

    /// Current local virtual time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    pub fn config(&self) -> &SocConfig {
        &self.soc.cfg
    }

    // ------------------------------------------------------------------
    // Clock and accounting plumbing.
    // ------------------------------------------------------------------

    fn check_time_limit(&self) {
        if self.clock > self.soc.cfg.time_limit {
            panic!(
                "tile {}: virtual time limit exceeded ({} > {}) — livelock or lost flag?",
                self.tile, self.clock, self.soc.cfg.time_limit
            );
        }
    }

    /// Charge `n` executed instructions (busy cycles) plus their I-cache
    /// misses.
    fn charge_instr(&mut self, n: u64) {
        self.ctr.busy += n;
        self.ctr.instret += n;
        self.clock += n;
        let misses = self.icache.fetch(n);
        if misses > 0 {
            let stall = misses * self.soc.cfg.lat.icache_miss;
            self.ctr.stall_icache += stall;
            self.telem.span(
                self.tile,
                self.clock,
                self.clock + stall,
                EventKind::Stall(StallClass::Icache),
            );
            self.clock += stall;
        }
        self.check_time_limit();
    }

    /// Stall for `cycles`, counted in `class`'s bucket. A flush stall
    /// counts as write stall *and* flush overhead.
    fn charge_stall(&mut self, class: StallClass, cycles: u64) {
        if cycles > 0 {
            self.telem.span(self.tile, self.clock, self.clock + cycles, EventKind::Stall(class));
        }
        match class {
            StallClass::PrivRead => self.ctr.stall_priv_read += cycles,
            StallClass::SharedRead => self.ctr.stall_shared_read += cycles,
            StallClass::Write => self.ctr.stall_write += cycles,
            StallClass::Icache => self.ctr.stall_icache += cycles,
            StallClass::Noc => self.ctr.stall_noc += cycles,
            StallClass::Flush => {
                self.ctr.stall_write += cycles;
                self.ctr.flush_cycles += cycles;
            }
            StallClass::DmaWait => self.ctr.stall_dma_wait += cycles,
        }
        self.clock += cycles;
        self.check_time_limit();
    }

    /// Suspend until this tile holds the global commit turn for an
    /// action at `self.clock` (or keep running below the horizon), then
    /// return the global state — borrowed only between yield points, so
    /// never twice — with the commit order checked and arrived packets
    /// drained. For [`Cpu::turn`]; only an action that must also borrow
    /// `self` holds the guard directly.
    fn commit_point(&mut self) -> RefMut<'a, Global> {
        let soc = self.soc;
        self.port.ensure_turn(self.clock, self.tile);
        let mut g = soc.global.borrow_mut();
        g.note_commit(self.clock, self.tile);
        g.drain_packets(self.clock, &soc.cfg);
        g
    }

    /// Run a globally visible action at the right point in virtual time.
    /// `f` sees the global state at `self.clock` (packets drained) and
    /// returns its result. The action itself does not advance the clock:
    /// any latency must be charged by the caller afterwards via
    /// `charge_stall`. Always inlined: a helper called from several
    /// sites shares one instance per closure type, and an out-of-line
    /// `turn` costs the memory path a call per transaction.
    #[inline(always)]
    fn turn<R>(&mut self, f: impl FnOnce(&mut Global, &SocConfig, u64, usize) -> R) -> R {
        let mut g = self.commit_point();
        f(&mut g, &self.soc.cfg, self.clock, self.tile)
    }

    /// What the tile hands back through its task's last yield.
    fn finish(mut self) -> TileResult {
        TileResult { counters: self.ctr, clock: self.clock, telemetry: self.telem.drain() }
    }

    // ------------------------------------------------------------------
    // Compute.
    // ------------------------------------------------------------------

    /// Execute `instrs` instructions of pure computation.
    pub fn compute(&mut self, instrs: u64) {
        self.charge_instr(instrs);
    }

    // ------------------------------------------------------------------
    // Data access.
    // ------------------------------------------------------------------

    /// Read `out.len()` bytes from `addr`. The access must not cross a
    /// cache-line boundary when cached (split it at a higher layer).
    pub fn read(&mut self, addr: Addr, out: &mut [u8]) {
        // One instruction per 32-bit word on the 32-bit core.
        self.charge_instr((out.len() as u64).div_ceil(4).max(1));
        match addr::decode(addr) {
            Region::Local { tile, offset } => {
                assert_eq!(
                    tile, self.tile,
                    "tile {}: read of tile {tile}'s local memory — the NoC is write-only (paper Fig. 7)",
                    self.tile
                );
                self.local_access(1, |m| m.read(offset, out));
            }
            Region::SdramUncached { offset } => self.sdram_read(offset, out),
            Region::SdramCached { offset } => match self.dcache.lookup(offset) {
                Some(slot) => {
                    self.dcache.read(slot, offset, out);
                    self.ctr.dcache_hits += 1;
                    let hit_lat = self.soc.cfg.lat.cache_hit;
                    if hit_lat > 0 {
                        self.charge_stall(StallClass::PrivRead, hit_lat);
                    }
                }
                None => {
                    let (class, slot, stall) = self.miss_fill(offset);
                    self.dcache.read(slot, offset, out);
                    self.charge_stall(class, stall);
                }
            },
        }
    }

    /// Write `data` to `addr` (same alignment rules as [`Cpu::read`]).
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        self.charge_instr((data.len() as u64).div_ceil(4).max(1));
        match addr::decode(addr) {
            Region::Local { tile, offset } => {
                assert_eq!(tile, self.tile, "use noc_write for remote local memories");
                self.local_access(1, |m| m.write(offset, data));
            }
            Region::SdramUncached { offset } => {
                // Posted: the store buffer absorbs the latency.
                self.sdram_post(offset, data);
                self.charge_stall(StallClass::Write, self.soc.cfg.lat.posted_write);
            }
            Region::SdramCached { offset } => match self.dcache.lookup(offset) {
                Some(slot) => {
                    self.dcache.write(slot, offset, data);
                    self.ctr.dcache_hits += 1;
                }
                None => {
                    // Write-allocate: fill, then write into the cache.
                    let (_, slot, stall) = self.miss_fill(offset);
                    self.dcache.write(slot, offset, data);
                    self.charge_stall(StallClass::Write, stall);
                }
            },
        }
    }

    /// Handle a cached-SDRAM miss: fetch the line (plus victim
    /// write-back) in one commit. Returns the read-stall class of
    /// `offset`, the line's slot and the stall cycles.
    fn miss_fill(&mut self, offset: u32) -> (StallClass, usize, u64) {
        self.ctr.dcache_misses += 1;
        let line = self.dcache.line_of(offset);
        let cfg = &self.soc.cfg;
        let line_size = cfg.dcache.line_size;
        let tile = self.tile;
        let clock = self.clock;
        let mut g = self.commit_point();
        // Line fetch, then victim write-back occupying the SDRAM port.
        let gm = &mut *g;
        let mut done = gm.noc.reserve_sdram(&mut gm.ports, cfg, tile, line, clock, line_size);
        let (slot, victim) = self.dcache.fill(line);
        if let Some(victim) = victim {
            // The victim line is a posted write-back, straight from the
            // slot before the fetched line lands in it.
            done = gm.post_sdram(cfg, tile, victim, done, self.dcache.bytes(slot));
        }
        gm.sdram.read(line, self.dcache.bytes_mut(slot));
        (g.read_stall(offset), slot, done - clock)
    }

    // Convenience width accessors -------------------------------------

    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Host-style peek of an uncached SDRAM word: inspects the current
    /// memory image without advancing virtual time, arbitration, or
    /// counters. For assertions only — a `debug_assert!` built on a
    /// *timed* read would make debug and release builds simulate
    /// different machines.
    pub fn peek_sdram_u32(&self, addr: Addr) -> u32 {
        match addr::decode(addr) {
            Region::SdramUncached { offset } => self.soc.global.borrow().sdram.read_u32(offset),
            _ => panic!("peek_sdram_u32 on non-uncached address {addr:#x}"),
        }
    }

    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.write(addr, &[v]);
    }

    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    // ------------------------------------------------------------------
    // Block transfers (software copy loops, modelled as one transaction).
    // ------------------------------------------------------------------

    /// Bulk read from uncached SDRAM or the own local memory (a word-copy
    /// loop on the real core; one port transaction here). Not available
    /// on the cached window — caches operate line-wise.
    pub fn read_block(&mut self, addr: Addr, out: &mut [u8]) {
        let words = (out.len() as u32).div_ceil(4) as u64;
        self.charge_instr(words.max(1));
        match addr::decode(addr) {
            Region::Local { tile, offset } => {
                assert_eq!(tile, self.tile, "remote local memory is write-only");
                self.local_access(words.max(1), |m| m.read(offset, out));
            }
            Region::SdramUncached { offset } => self.sdram_read(offset, out),
            Region::SdramCached { .. } => panic!("read_block on the cached window"),
        }
    }

    /// Bulk write to uncached SDRAM or the own local memory.
    pub fn write_block(&mut self, addr: Addr, data: &[u8]) {
        let words = (data.len() as u32).div_ceil(4) as u64;
        self.charge_instr(words.max(1));
        match addr::decode(addr) {
            Region::Local { tile, offset } => {
                assert_eq!(tile, self.tile, "use noc_write for remote local memories");
                self.local_access(words.max(1), |m| m.write(offset, data));
            }
            Region::SdramUncached { offset } => {
                self.sdram_post(offset, data);
                self.charge_stall(StallClass::Write, self.soc.cfg.lat.posted_write + words / 4);
            }
            Region::SdramCached { .. } => panic!("write_block on the cached window"),
        }
    }

    // ------------------------------------------------------------------
    // Fences and cache management.
    // ------------------------------------------------------------------

    /// Memory fence. The simulated core is in-order and its store paths
    /// are tracked precisely, so — exactly as the paper's Table II states
    /// for the MicroBlaze — the fence emits no instructions; it exists so
    /// the *runtime* can forward the PMC `fence()` annotation, and so
    /// host-Rust reordering cannot leak simulated state (compiler fence).
    pub fn fence(&mut self) {
        std::sync::atomic::compiler_fence(AtomicOrdering::SeqCst);
    }

    /// Flush-and-invalidate every cache line covering
    /// `[addr, addr + len)` (cached SDRAM window). Dirty lines are
    /// written back; cycles count as flush overhead.
    pub fn flush_dcache_range(&mut self, addr: Addr, len: u32) {
        let offset = addr::sdram_offset(addr);
        for line in self.dcache.lines_covering(offset, len) {
            self.charge_instr(1); // wdc.flush
            self.ctr.flush_cycles += 1;
            let cache_op = self.soc.cfg.lat.cache_op;
            self.charge_stall(StallClass::Flush, cache_op);
            if let Some(slot) = self.dcache.flush_line(line) {
                // Posted write-back, straight from the invalidated slot.
                let (cfg, tile, clock) = (&self.soc.cfg, self.tile, self.clock);
                self.commit_point().post_sdram(cfg, tile, line, clock, self.dcache.bytes(slot));
                self.charge_stall(StallClass::Flush, cfg.lat.posted_write);
            }
        }
    }

    /// Invalidate (without write-back) every cache line covering
    /// `[addr, addr + len)`. Purely core-local.
    pub fn invalidate_dcache_range(&mut self, addr: Addr, len: u32) {
        let offset = addr::sdram_offset(addr);
        for line in self.dcache.lines_covering(offset, len) {
            self.charge_instr(1); // wdc.clear
            self.ctr.flush_cycles += 1;
            let cache_op = self.soc.cfg.lat.cache_op;
            self.charge_stall(StallClass::Flush, cache_op);
            self.dcache.invalidate_line(line);
        }
    }

    // ------------------------------------------------------------------
    // NoC operations.
    // ------------------------------------------------------------------

    /// Posted write into another tile's local memory. The payload
    /// reserves every directed ring link on its route
    /// ([`crate::noc::Noc::reserve_path`]), so CPU stores and DMA bursts
    /// contend for the same links.
    pub fn noc_write(&mut self, dst: usize, offset: u32, data: &[u8]) {
        assert_ne!(dst, self.tile, "use local writes for the own tile");
        self.noc_post(dst, data.len() as u32, |noc| PacketKind::Write {
            offset,
            data: noc.payload(data),
        });
    }

    /// Posted versioned write: applied at the destination only if
    /// `version` exceeds the u32 header currently at `offset` (the
    /// header is updated together with the payload at `offset + 4`).
    pub fn noc_write_versioned(&mut self, dst: usize, offset: u32, version: u32, data: &[u8]) {
        assert_ne!(dst, self.tile, "use local writes for the own tile");
        let bytes = 4 + data.len() as u32;
        self.noc_post(dst, bytes, |noc| PacketKind::VersionedWrite {
            offset,
            version,
            data: noc.payload(data),
        });
    }

    /// Remote test-and-set on one byte of `dst`'s local memory; the old
    /// value arrives in this tile's mailbox word at `mailbox_offset` as
    /// `0x0100 | old` (poll with [`Cpu::read_u32`] on the own local
    /// memory). Clear the mailbox before issuing.
    pub fn noc_test_and_set(&mut self, dst: usize, offset: u32, mailbox_offset: u32) {
        assert_ne!(dst, self.tile, "use local_test_and_set for the own tile");
        let kind =
            PacketKind::TestAndSet { offset, reply_tile: self.tile, reply_offset: mailbox_offset };
        self.noc_post(dst, 4, |_| kind);
    }

    /// A posted NoC packet of `bytes` payload bytes to tile `dst`, made
    /// by `kind` at the commit point (a payload comes from the NoC's
    /// free list): one instruction, the route's links, then the
    /// posted-write stall.
    #[inline(always)]
    fn noc_post(&mut self, dst: usize, bytes: u32, kind: impl FnOnce(&mut Noc) -> PacketKind) {
        self.charge_instr(1);
        self.turn(move |g, cfg, now, me| {
            let arrive = g.noc.reserve_path(cfg, now, me, dst, bytes);
            let kind = kind(&mut g.noc);
            g.noc.send(arrive, me, dst, kind);
        });
        self.charge_stall(StallClass::Noc, self.soc.cfg.lat.posted_write);
    }

    /// Program an asynchronous bulk transfer on channel `chan` of this
    /// tile's DMA engine and return its per-channel sequence number. The
    /// transfer proceeds in the background (channel, SDRAM port and NoC
    /// links are busy-until resources; effects apply as packets at their
    /// arrival times); the engine writes `seq` to the completion word at
    /// `desc.done_offset` in this tile's local memory when the final
    /// burst lands — poll it with [`Cpu::read_u32`] (`done >= seq`;
    /// channels complete independently, so each channel needs its own
    /// completion word).
    ///
    /// The descriptor is read, not kept: pass it by value, or by
    /// reference to reuse one descriptor's segment list across transfers.
    pub fn dma_issue(&mut self, chan: usize, desc: impl Borrow<DmaDescriptor>) -> u32 {
        let desc = desc.borrow();
        // Descriptor writes plus the doorbell on the real engine: two
        // words per scatter/gather element, four for the header.
        self.charge_instr(4 + 2 * desc.segs.len().max(1) as u64);
        desc.check_ranges(&self.soc.cfg, self.tile, chan);
        let bytes = desc.total_bytes();
        let seq = self.turn(move |g, cfg, now, me| {
            let Global { dma, noc, ports, .. } = g;
            dma[me].issue(cfg, noc, ports, now, me, chan, desc)
        });
        self.ctr.dma_transfers += 1;
        self.ctr.dma_bytes += u64::from(bytes);
        self.charge_stall(StallClass::Noc, self.soc.cfg.lat.posted_write);
        seq
    }

    /// Block until this tile's DMA completion word at local-memory
    /// offset `done_offset` reaches `min_seq` — **event-based**: instead
    /// of burning cycles polling the word, the core sleeps until the
    /// engine's in-flight completion write lands (the simulated analogue
    /// of a completion interrupt / condvar wait on the word), charging
    /// the elapsed time as [`Counters::stall_dma_wait`] rather than busy
    /// polling. Wakeups fire on *every* completion write to the word, so
    /// waiting for transfer `n` while `n-1` is still in flight wakes
    /// once per earlier completion; failed re-checks are counted in
    /// [`Counters::dma_spurious_wakeups`].
    ///
    /// Panics when the word is short of `min_seq` and no completion
    /// write is in flight — a lost event would otherwise deadlock
    /// silently.
    pub fn dma_event_wait(&mut self, done_offset: u32, min_seq: u32) {
        self.dma_event_wait_any(&[(done_offset, min_seq)]);
    }

    /// Block until *any* watch `(done_offset, min_seq)` is satisfied;
    /// returns the index of the satisfied watch (lowest index on ties,
    /// keeping callers deterministic). Semantics per watch are those of
    /// [`Cpu::dma_event_wait`]; the core sleeps until the earliest
    /// in-flight completion write across all watched words.
    pub(crate) fn dma_event_wait_any(&mut self, watches: &[(u32, u32)]) -> usize {
        assert!(!watches.is_empty(), "empty DMA event-wait set");
        self.ctr.dma_event_waits += 1;
        let mut woke = false;
        loop {
            // The check: one load per watched completion word.
            self.charge_instr(watches.len() as u64);
            let (hit, next) = self.turn(|g, _cfg, _now, me| {
                let hit = watches.iter().position(|&(off, seq)| g.locals[me].read_u32(off) >= seq);
                // One heap pass across every watched word: the in-flight
                // queue can be large (every posted write and queued
                // burst).
                let next = g.noc.next_completion_arrival_any(me, watches);
                (hit, next)
            });
            if let Some(i) = hit {
                return i;
            }
            if woke {
                self.ctr.dma_spurious_wakeups += 1;
            }
            let Some(arrive) = next else {
                panic!(
                    "tile {}: dma_event_wait with no completion in flight — lost event \
                     (watches {watches:?})",
                    self.tile
                );
            };
            // Sleep until the completion write lands: the parked core
            // retires no instructions; the time is DMA-wait stall.
            let stall = arrive.saturating_sub(self.clock).max(1);
            self.charge_stall(StallClass::DmaWait, stall);
            woke = true;
        }
    }

    /// Atomic test-and-set on the own local memory (the lock-owner fast
    /// path of the asymmetric distributed lock \[15\]).
    pub fn local_test_and_set(&mut self, offset: u32) -> u8 {
        self.charge_instr(1);
        self.local_access(1, |m| {
            let old = m.read_u8(offset);
            m.write_u8(offset, 1);
            old
        })
    }

    /// LWX/SWX-style compare-and-swap on uncached SDRAM. Returns the old
    /// value; the swap happened iff `old == expect`.
    pub fn sdram_cas_u32(&mut self, addr: Addr, expect: u32, new: u32) -> u32 {
        self.sdram_rmw_u32("CAS", addr, |old| (old == expect).then_some(new))
    }

    /// Atomic fetch-and-add on uncached SDRAM (exclusive-pair loop on the
    /// real core; single transaction here).
    pub fn sdram_faa_u32(&mut self, addr: Addr, delta: u32) -> u32 {
        self.sdram_rmw_u32("FAA", addr, |old| Some(old.wrapping_add(delta)))
    }

    /// An exclusive pair (`lwx` + `swx`) on the uncached SDRAM word at
    /// `addr`: a read plus a conditional write transaction on the port
    /// owning the word's stripe, stalled as a read. `update` maps the
    /// old value to the value to store, if any; returns the old value.
    #[inline]
    fn sdram_rmw_u32(
        &mut self,
        op: &str,
        addr: Addr,
        update: impl FnOnce(u32) -> Option<u32>,
    ) -> u32 {
        let offset = match addr::decode(addr) {
            Region::SdramUncached { offset } => offset,
            r => panic!("{op} requires the uncached SDRAM window, got {r:?}"),
        };
        self.charge_instr(2);
        let (class, old, stall) = self.turn(|g, cfg, now, _| {
            let (_, done) =
                g.ports.reserve(offset, now, cfg.sdram_service(4) + cfg.sdram_service(4));
            let old = g.sdram.read_u32(offset);
            if let Some(new) = update(old) {
                g.sdram.write_u32(offset, new);
            }
            (g.read_stall(offset), old, done - now)
        });
        self.charge_stall(class, stall);
        old
    }

    // ------------------------------------------------------------------
    // Memory-path timing: one helper per transaction kind.
    // ------------------------------------------------------------------

    /// An access to the own local memory covering `words` words: one
    /// commit, then the latency beyond a single cycle per word.
    #[inline]
    fn local_access<R>(&mut self, words: u64, f: impl FnOnce(&mut ByteMem) -> R) -> R {
        let r = self.turn(|g, _, _, me| f(&mut g.locals[me]));
        self.charge_stall(StallClass::Noc, self.soc.cfg.lat.local_mem.saturating_sub(1) * words);
        r
    }

    /// A timed uncached SDRAM read at `offset`: one port transaction,
    /// stalled as a read of the offset's region. Holds the commit guard
    /// directly: a `turn` closure shared by two callers is not inlined.
    #[inline(always)]
    fn sdram_read(&mut self, offset: u32, out: &mut [u8]) {
        let (cfg, tile, clock) = (&self.soc.cfg, self.tile, self.clock);
        let (class, done) = {
            let mut guard = self.commit_point();
            let g = &mut *guard;
            let done =
                g.noc.reserve_sdram(&mut g.ports, cfg, tile, offset, clock, out.len() as u32);
            g.sdram.read(offset, out);
            (g.read_stall(offset), done)
        };
        self.charge_stall(class, done - clock);
    }

    /// A posted SDRAM write of `data` at `offset`
    /// ([`Global::post_sdram`]); the caller charges the stall.
    #[inline]
    fn sdram_post(&mut self, offset: u32, data: &[u8]) {
        self.turn(|g, cfg, now, me| {
            g.post_sdram(cfg, me, offset, now, data);
        });
    }

    // ------------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------------

    /// Record a producer-defined trace event at the current virtual time
    /// (no cost). Protocol records (`kind` without
    /// `crate::trace::SPAN_FLAG`) require `cfg.trace`; span records
    /// require `cfg.telemetry` — the two families are gated
    /// independently so enabling telemetry never perturbs the monitor's
    /// protocol trace and vice versa.
    pub fn trace_event(&mut self, kind: u16, addr: u32, len: u32, value: u64) {
        let wanted =
            if kind & trace::SPAN_FLAG != 0 { self.soc.cfg.telemetry } else { self.soc.cfg.trace };
        if !wanted {
            return;
        }
        let tile = self.tile;
        let time = self.clock;
        self.turn(move |g, _, _, _| {
            g.trace.push(TraceRecord { time, tile, kind, addr, len, value });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{local_base, SDRAM_CACHED_BASE, SDRAM_UNCACHED_BASE};
    use crate::dma::DmaSeg;

    fn soc(n: usize) -> Soc {
        Soc::new(SocConfig::small(n))
    }

    /// Building a machine allocates page tables only: a 1 024-tile
    /// mesh with the default memories holds no page until a write.
    #[test]
    fn new_allocates_no_memory_page() {
        let cfg = SocConfig {
            topology: crate::config::Topology::Mesh { cols: 32, rows: 32 },
            n_tiles: 1024,
            ..SocConfig::default()
        };
        let s = Soc::new(cfg);
        assert_eq!(s.resident_pages(), 0);
        s.write_local(1023, 0, &[1]);
        s.write_sdram(0, &[1]);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid SocConfig: mem_controllers entry 9 out of range")]
    fn new_rejects_out_of_range_controller_lists() {
        let mut cfg = SocConfig::small(4);
        cfg.mem_controllers = vec![9];
        let _ = Soc::new(cfg);
    }

    #[test]
    fn interleaved_controllers_preserve_memory_semantics() {
        // The same program with one vs. two controllers on a torus: the
        // bytes land identically (interleaving only changes the timing
        // model), and with two controllers both ports serve bursts.
        let run = |ctrls: Vec<usize>| {
            let mut cfg = SocConfig {
                topology: crate::config::Topology::Torus { cols: 2, rows: 2 },
                ..SocConfig::small(4)
            };
            cfg.mem_controllers = ctrls;
            let s = Soc::new(cfg);
            s.run(vec![Box::new(|cpu: &mut Cpu| {
                for i in 0..32u32 {
                    cpu.write_u32(SDRAM_UNCACHED_BASE + i * 4096, i + 1);
                }
            })]);
            let words: Vec<u32> = (0..32u32).map(|i| s.read_sdram_u32(i * 4096)).collect();
            (words, s.port_report())
        };
        let (single_words, single_ports) = run(Vec::new());
        let (striped_words, striped_ports) = run(vec![0, 3]);
        assert_eq!(single_words, striped_words);
        assert_eq!(single_ports.len(), 1);
        assert_eq!(striped_ports.len(), 2);
        assert!(striped_ports.iter().all(|p| p.bursts > 0), "{striped_ports:?}");
    }

    #[test]
    fn single_core_uncached_rw() {
        let s = soc(1);
        let r = s.run(vec![Box::new(|cpu: &mut Cpu| {
            cpu.write_u32(SDRAM_UNCACHED_BASE + 16, 0xabcd);
            assert_eq!(cpu.read_u32(SDRAM_UNCACHED_BASE + 16), 0xabcd);
        })]);
        assert!(r.makespan > 0);
        assert_eq!(s.read_sdram_u32(16), 0xabcd);
    }

    #[test]
    fn cached_and_uncached_windows_alias() {
        let s = soc(1);
        s.run(vec![Box::new(|cpu: &mut Cpu| {
            cpu.write_u32(SDRAM_CACHED_BASE + 64, 7);
            // Dirty in cache — the uncached alias still sees the old value.
            assert_eq!(cpu.read_u32(SDRAM_UNCACHED_BASE + 64), 0);
            // After a flush the write is visible through the alias.
            cpu.flush_dcache_range(SDRAM_CACHED_BASE + 64, 4);
            assert_eq!(cpu.read_u32(SDRAM_UNCACHED_BASE + 64), 7);
        })]);
        assert_eq!(s.read_sdram_u32(64), 7);
    }

    #[test]
    fn caches_are_incoherent_until_invalidated() {
        let s = soc(2);
        // Pre-set SDRAM.
        s.write_sdram(128, &5u32.to_le_bytes());
        let r = s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                // Tile 0: read (caches line), wait, read again.
                assert_eq!(cpu.read_u32(SDRAM_CACHED_BASE + 128), 5);
                cpu.compute(10_000);
                // Tile 1 has long since updated SDRAM; the stale cached
                // copy is still served.
                assert_eq!(cpu.read_u32(SDRAM_CACHED_BASE + 128), 5);
                cpu.invalidate_dcache_range(SDRAM_CACHED_BASE + 128, 4);
                assert_eq!(cpu.read_u32(SDRAM_CACHED_BASE + 128), 9);
            }),
            Box::new(|cpu: &mut Cpu| {
                // Tile 1: update through the uncached window early.
                cpu.write_u32(SDRAM_UNCACHED_BASE + 128, 9);
            }),
        ]);
        assert!(r.per_core[0].dcache_misses >= 1);
    }

    #[test]
    fn local_memory_is_fast_and_remote_reads_fault() {
        let s = soc(2);
        let r = s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                let base = local_base(0);
                cpu.write_u32(base + 4, 11);
                assert_eq!(cpu.read_u32(base + 4), 11);
            }),
            Box::new(|_cpu: &mut Cpu| {}),
        ]);
        let mut out = [0u8; 4];
        s.read_local(0, 4, &mut out);
        assert_eq!(u32::from_le_bytes(out), 11);
        assert!(r.makespan > 0);
    }

    #[test]
    #[should_panic(expected = "write-only")]
    fn remote_local_read_is_bus_error() {
        let s = soc(2);
        s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                cpu.read_u32(local_base(1));
            }),
            Box::new(|_cpu: &mut Cpu| {}),
        ]);
    }

    /// Stores to another tile's local memory go through `noc_write`
    /// only: `write` rejects them as `write_block` does.
    #[test]
    #[should_panic(expected = "use noc_write for remote local memories")]
    fn remote_local_write_is_rejected() {
        let s = soc(2);
        s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                cpu.write_u32(local_base(1), 1);
            }),
            Box::new(|_cpu: &mut Cpu| {}),
        ]);
    }

    /// A run on a reused `Soc` starts from free SDRAM ports, NoC links
    /// and DMA channels, and reports only its own occupancy: it matches
    /// the same run on a fresh `Soc`.
    #[test]
    fn a_reused_soc_runs_like_a_fresh_one() {
        let run = |s: &Soc| {
            let r = s.run(vec![
                Box::new(|cpu: &mut Cpu| {
                    for i in 0..1000u32 {
                        cpu.read_u32(SDRAM_UNCACHED_BASE + (i % 64) * 4);
                    }
                }),
                Box::new(|cpu: &mut Cpu| {
                    let get = DmaDescriptor::contiguous(
                        DmaKind::Sdram(DmaDir::Get),
                        0x400,
                        0x100,
                        256,
                        64,
                        0,
                    );
                    let seq = cpu.dma_issue(0, get);
                    for i in 0..100u32 {
                        cpu.write_u32(SDRAM_UNCACHED_BASE + 0x800 + i * 4, i);
                    }
                    cpu.dma_event_wait(0, seq);
                }),
            ]);
            (format!("{r:?}"), s.link_report(), s.port_report())
        };
        let fresh = run(&soc(2));
        let reused = soc(2);
        run(&reused);
        assert_eq!(run(&reused), fresh);
    }

    /// An empty cache range covers no line: flushing it writes nothing
    /// back and charges nothing, and invalidating it keeps dirty data.
    #[test]
    fn empty_cache_ranges_touch_no_line() {
        let s = soc(1);
        let r = s.run(vec![Box::new(|cpu: &mut Cpu| {
            cpu.write_u32(SDRAM_CACHED_BASE + 0x44, 7);
            cpu.flush_dcache_range(SDRAM_CACHED_BASE + 0x44, 0);
            cpu.invalidate_dcache_range(SDRAM_CACHED_BASE + 0x44, 0);
            assert_eq!(cpu.read_u32(SDRAM_CACHED_BASE + 0x44), 7);
            assert_eq!(cpu.peek_sdram_u32(SDRAM_UNCACHED_BASE + 0x44), 0);
        })]);
        assert_eq!(r.per_core[0].flush_cycles, 0);
    }

    #[test]
    fn noc_write_is_posted_and_arrives() {
        let s = soc(4);
        s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                cpu.noc_write(2, 8, &42u32.to_le_bytes());
            }),
            Box::new(|_c: &mut Cpu| {}),
            Box::new(|cpu: &mut Cpu| {
                // Poll the own local memory until the value arrives.
                let base = local_base(2);
                let mut spins = 0;
                while cpu.read_u32(base + 8) != 42 {
                    cpu.compute(10);
                    spins += 1;
                    assert!(spins < 10_000, "NoC write never arrived");
                }
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
    }

    #[test]
    fn remote_tas_reaches_mailbox() {
        let s = soc(2);
        s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                let mb = 64;
                cpu.write_u32(local_base(0) + mb, 0);
                cpu.noc_test_and_set(1, 0, mb);
                let mut reply = 0;
                let mut spins = 0;
                while reply & 0x0100 == 0 {
                    reply = cpu.read_u32(local_base(0) + mb);
                    cpu.compute(5);
                    spins += 1;
                    assert!(spins < 10_000, "TAS reply never arrived");
                }
                assert_eq!(reply & 0xff, 0, "lock byte was free");
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
        // The lock byte at tile 1 offset 0 is now set.
        let mut b = [0u8; 1];
        s.read_local(1, 0, &mut b);
        assert_eq!(b[0], 1);
    }

    #[test]
    fn determinism_bit_identical_runs() {
        let run_once = || {
            let s = soc(4);
            s.tag_region(0, 4096, MemTag::Shared);
            let r = s.run(
                (0..4usize)
                    .map(|t| -> CoreProgram<'static> {
                        Box::new(move |cpu: &mut Cpu| {
                            for i in 0..200u32 {
                                let a = SDRAM_UNCACHED_BASE + ((t as u32 * 97 + i * 13) % 1024) * 4;
                                cpu.write_u32(a, i);
                                let _ = cpu.read_u32(a);
                                cpu.compute(7);
                                let c = SDRAM_CACHED_BASE + 4096 + ((i * 29) % 512) * 4;
                                cpu.write_u32(c, i);
                            }
                            cpu.flush_dcache_range(SDRAM_CACHED_BASE + 4096, 2048);
                        })
                    })
                    .collect(),
            );
            (r.makespan, format!("{:?}", r.per_core))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn counters_account_every_cycle() {
        let s = soc(1);
        let r = s.run(vec![Box::new(|cpu: &mut Cpu| {
            cpu.compute(1000);
            for i in 0..64 {
                cpu.write_u32(SDRAM_CACHED_BASE + i * 4, i);
            }
            let mut sum = 0u32;
            for i in 0..64 {
                sum = sum.wrapping_add(cpu.read_u32(SDRAM_CACHED_BASE + i * 4));
            }
            assert_eq!(sum, (0..64).sum::<u32>());
            cpu.flush_dcache_range(SDRAM_CACHED_BASE, 256);
        })]);
        let c = &r.per_core[0];
        assert_eq!(c.total(), r.makespan, "clock must equal the sum of all buckets");
        assert!(c.busy >= 1000 + 128);
        assert!(c.dcache_hits > 0 && c.dcache_misses > 0);
        assert!(c.flush_cycles > 0);
    }

    #[test]
    fn fig1_phenomenon_posted_writes_reorder_across_memories() {
        // Paper Fig. 1, mapped onto the simulated machine: tile 0 posts
        // X=42 to the *far* tile 2 and then raises a flag in SDRAM. The
        // reader on tile 2 observes the flag before X arrives: the two
        // "memories" have different latencies, so the writes are observed
        // out of order. (The PMC runtime exists to prevent exactly this.)
        let s = {
            let mut cfg = SocConfig::small(4);
            cfg.lat.noc_per_hop = 400; // make the far memory very slow
            cfg.lat.noc_fixed = 400;
            Soc::new(cfg)
        };
        let flag = SDRAM_UNCACHED_BASE + 512;
        let stale = std::sync::atomic::AtomicU32::new(u32::MAX);
        let stale_ref = &stale;
        s.run(vec![
            Box::new(move |cpu: &mut Cpu| {
                cpu.noc_write(2, 16, &42u32.to_le_bytes()); // X = 42 (far)
                cpu.write_u32(flag, 1); // flag = 1 (near)
            }),
            Box::new(|_c: &mut Cpu| {}),
            Box::new(move |cpu: &mut Cpu| {
                while cpu.read_u32(flag) != 1 {
                    cpu.compute(5);
                }
                // Immediately read X from the own local memory.
                let x = cpu.read_u32(local_base(2) + 16);
                stale_ref.store(x, AtomicOrdering::SeqCst);
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
        assert_eq!(
            stale.load(AtomicOrdering::SeqCst),
            0,
            "with a slow far memory the reader must observe the stale X — the paper's Fig. 1 bug"
        );
    }

    #[test]
    fn sdram_cas_is_atomic_across_tiles() {
        let s = soc(8);
        let counter = SDRAM_UNCACHED_BASE + 256;
        s.tag_region(256, 260, MemTag::Shared);
        s.run(
            (0..8usize)
                .map(|_| -> CoreProgram<'static> {
                    Box::new(move |cpu: &mut Cpu| {
                        for _ in 0..50 {
                            loop {
                                let old = cpu.read_u32(counter);
                                if cpu.sdram_cas_u32(counter, old, old + 1) == old {
                                    break;
                                }
                                cpu.compute(13);
                            }
                        }
                    })
                })
                .collect(),
        );
        assert_eq!(s.read_sdram_u32(256), 400);
    }

    #[test]
    fn faa_counts_exactly() {
        let s = soc(4);
        let counter = SDRAM_UNCACHED_BASE + 300;
        s.run(
            (0..4usize)
                .map(|_| -> CoreProgram<'static> {
                    Box::new(move |cpu: &mut Cpu| {
                        for _ in 0..25 {
                            cpu.sdram_faa_u32(counter, 2);
                        }
                    })
                })
                .collect(),
        );
        assert_eq!(s.read_sdram_u32(300), 200);
    }

    #[test]
    fn dma_get_transfers_and_completion_word_arrives() {
        let s = soc(4);
        for i in 0..64u32 {
            s.write_sdram(1024 + i * 4, &(i * 3).to_le_bytes());
        }
        let r = s.run(vec![
            Box::new(|_c: &mut Cpu| {}),
            Box::new(|cpu: &mut Cpu| {
                let done = 0u32;
                let seq = cpu.dma_issue(
                    0,
                    DmaDescriptor::contiguous(
                        DmaKind::Sdram(DmaDir::Get),
                        1024,
                        256,
                        256,
                        64,
                        done,
                    ),
                );
                assert_eq!(seq, 1);
                // The engine runs in the background: poll the completion
                // word, then the data is guaranteed in local memory.
                let base = local_base(1);
                let mut spins = 0;
                while cpu.read_u32(base + done) < seq {
                    cpu.compute(20);
                    spins += 1;
                    assert!(spins < 100_000, "completion word never arrived");
                }
                for i in 0..64u32 {
                    assert_eq!(cpu.read_u32(base + 256 + i * 4), i * 3);
                }
            }),
        ]);
        assert_eq!(r.per_core[1].dma_transfers, 1);
        assert_eq!(r.per_core[1].dma_bytes, 256);
        // The route tile 0 (controller) → tile 1 crossed link 0, once per
        // 64-byte burst.
        assert_eq!(s.link_stats()[0].bursts, 4, "link contention counters must record bursts");
    }

    #[test]
    fn dma_put_reaches_sdram_before_completion() {
        let s = soc(2);
        s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                let base = local_base(0);
                for i in 0..32u32 {
                    cpu.write_u32(base + 512 + i * 4, 0xC0DE + i);
                }
                let seq = cpu.dma_issue(
                    0,
                    DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Put), 4096, 512, 128, 32, 0),
                );
                while cpu.read_u32(base) < seq {
                    cpu.compute(20);
                }
                // After completion the data is in SDRAM (uncached view).
                for i in 0..32u32 {
                    assert_eq!(cpu.read_u32(SDRAM_UNCACHED_BASE + 4096 + i * 4), 0xC0DE + i);
                }
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
        assert_eq!(s.read_sdram_u32(4096 + 31 * 4), 0xC0DE + 31);
    }

    #[test]
    fn dma_runs_are_deterministic() {
        let run_once = || {
            let s = soc(4);
            let r = s.run(
                (0..4usize)
                    .map(|t| -> CoreProgram<'static> {
                        Box::new(move |cpu: &mut Cpu| {
                            let base = local_base(t);
                            let seq = cpu.dma_issue(
                                0,
                                DmaDescriptor::contiguous(
                                    DmaKind::Sdram(DmaDir::Get),
                                    8192 + t as u32 * 1024,
                                    1024,
                                    1024,
                                    128,
                                    0,
                                ),
                            );
                            cpu.compute(50 * (t as u64 + 1));
                            while cpu.read_u32(base) < seq {
                                cpu.compute(10);
                            }
                        })
                    })
                    .collect(),
            );
            (r.makespan, format!("{:?}{:?}", r.per_core, s.link_stats()))
        };
        assert_eq!(run_once(), run_once());
    }

    /// Tile-to-tile DMA: tile 1 pushes a buffer from its scratchpad
    /// straight into tile 3's, the completion word lands at the issuer,
    /// and neither the SDRAM port nor the controller-adjacent links are
    /// involved.
    #[test]
    fn dma_tile_to_tile_copy_lands_remotely() {
        let s = soc(8);
        for i in 0..64u32 {
            s.write_local(1, 256 + i * 4, &(0xAA00 + i).to_le_bytes());
        }
        s.run(vec![
            Box::new(|_c: &mut Cpu| {}),
            Box::new(|cpu: &mut Cpu| {
                let seq = cpu.dma_issue(
                    0,
                    DmaDescriptor::contiguous(DmaKind::Copy { dst_tile: 3 }, 512, 256, 256, 64, 0),
                );
                let base = local_base(1);
                let mut spins = 0;
                while cpu.read_u32(base) < seq {
                    cpu.compute(20);
                    spins += 1;
                    assert!(spins < 100_000, "completion word never arrived");
                }
            }),
            Box::new(|_c: &mut Cpu| {}),
            Box::new(|cpu: &mut Cpu| {
                // Destination tile: poll the last copied word locally.
                let base = local_base(3);
                let mut spins = 0;
                while cpu.read_u32(base + 512 + 63 * 4) != 0xAA00 + 63 {
                    cpu.compute(20);
                    spins += 1;
                    assert!(spins < 100_000, "copy never arrived");
                }
            }),
        ]);
        let mut out = [0u8; 4];
        s.read_local(3, 512, &mut out);
        assert_eq!(u32::from_le_bytes(out), 0xAA00);
        // Route 1 → 3 uses clockwise links 1 and 2; the links adjacent to
        // the memory controller (0 and the counterclockwise set) are
        // clean of bulk traffic.
        let stats = s.link_stats();
        assert!(stats[1].bursts >= 4 && stats[2].bursts >= 4, "{stats:?}");
        assert_eq!(stats[0].bursts, 0, "no controller round trip: {stats:?}");
    }

    /// The event-based wait sleeps exactly to the completion write: the
    /// elapsed time lands in `stall_dma_wait`, the data is defined
    /// afterwards, and an already-complete wait returns without
    /// sleeping.
    #[test]
    fn dma_event_wait_sleeps_to_completion() {
        let s = soc(4);
        for i in 0..64u32 {
            s.write_sdram(1024 + i * 4, &(i * 3).to_le_bytes());
        }
        let r = s.run(vec![
            Box::new(|_c: &mut Cpu| {}),
            Box::new(|cpu: &mut Cpu| {
                let done = 0u32;
                let seq = cpu.dma_issue(
                    0,
                    DmaDescriptor::contiguous(
                        DmaKind::Sdram(DmaDir::Get),
                        1024,
                        256,
                        256,
                        64,
                        done,
                    ),
                );
                cpu.dma_event_wait(done, seq);
                let base = local_base(1);
                assert!(cpu.read_u32(base + done) >= seq, "wait returned before completion");
                for i in 0..64u32 {
                    assert_eq!(cpu.read_u32(base + 256 + i * 4), i * 3);
                }
                // Waiting again is free: no sleep, no spurious wakeup.
                cpu.dma_event_wait(done, seq);
            }),
        ]);
        let c = &r.per_core[1];
        assert!(c.stall_dma_wait > 0, "the blocked time must be attributed: {c:?}");
        assert_eq!(c.dma_event_waits, 2);
        assert_eq!(c.dma_spurious_wakeups, 0, "one transfer, one event: {c:?}");
        assert_eq!(c.total(), r.makespan.max(c.total()), "all cycles stay accounted");
    }

    /// Waiting for transfer `n` while `n-1` is still in flight on the
    /// same channel wakes on the earlier completion first — a counted
    /// spurious wakeup — and still returns only once `n` lands.
    #[test]
    fn dma_event_wait_counts_spurious_wakeups() {
        let s = soc(2);
        let r = s.run(vec![
            Box::new(|cpu: &mut Cpu| {
                let d = |far| {
                    DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), far, 512, 1024, 256, 0)
                };
                let _first = cpu.dma_issue(0, d(0));
                let second = cpu.dma_issue(0, d(4096));
                cpu.dma_event_wait(0, second);
                assert!(cpu.read_u32(local_base(0)) >= second);
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
        assert_eq!(r.per_core[0].dma_spurious_wakeups, 1, "{:?}", r.per_core[0]);
    }

    /// `dma_event_wait_any` returns the watch that completes first: a
    /// small tile-to-tile copy on channel 1 beats a large SDRAM get on
    /// channel 0.
    #[test]
    fn dma_event_wait_any_returns_first_completer() {
        let mut cfg = SocConfig::small(4);
        cfg.dma_channels = 2;
        let s = Soc::new(cfg);
        s.run(vec![Box::new(|cpu: &mut Cpu| {
            let big = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 1024, 8192, 256, 0),
            );
            let small = cpu.dma_issue(
                1,
                DmaDescriptor::contiguous(DmaKind::Copy { dst_tile: 1 }, 0, 10240, 64, 64, 4),
            );
            let hit = cpu.dma_event_wait_any(&[(0, big), (4, small)]);
            assert_eq!(hit, 1, "the small copy completes first");
            assert_eq!(cpu.read_u32(local_base(0)), 0, "channel 0 must still be in flight");
            cpu.dma_event_wait(0, big);
        })]);
    }

    /// A wait with nothing in flight is a lost event: fail loudly
    /// instead of deadlocking.
    #[test]
    #[should_panic(expected = "no completion in flight")]
    fn dma_event_wait_rejects_lost_events() {
        let s = soc(1);
        s.run(vec![Box::new(|cpu: &mut Cpu| {
            cpu.dma_event_wait(0, 1);
        })]);
    }

    /// Tile 1 of a 4-tile `small` SoC (64 KiB local memories, 1 MiB
    /// SDRAM) issues `desc` on channel 2.
    fn tile_1_issues(desc: DmaDescriptor) {
        let s = soc(4);
        s.run(vec![
            Box::new(|_c: &mut Cpu| {}),
            Box::new(move |cpu: &mut Cpu| {
                cpu.dma_issue(2, desc);
            }),
        ]);
    }

    /// A descriptor is checked against the memories it names when it is
    /// issued, and the panic names the issuer: here the near side runs
    /// off the end of the issuing tile's local memory …
    #[test]
    #[should_panic(expected = "tile 1: DMA descriptor on channel 2 names bytes \
                               0x1000..0x11000 of tile 1's local memory, which has 0x10000")]
    fn dma_issue_rejects_a_local_overrun() {
        let kind = DmaKind::Sdram(DmaDir::Get);
        tile_1_issues(DmaDescriptor::contiguous(kind, 0, 4096, 65536, 64, 0));
    }

    /// … here the far side of a tile-to-tile copy runs off the end of
    /// the destination tile's …
    #[test]
    #[should_panic(expected = "tile 1: DMA descriptor on channel 2 names bytes \
                               0xff00..0x10100 of tile 3's local memory, which has 0x10000")]
    fn dma_issue_rejects_a_remote_tile_overrun() {
        let kind = DmaKind::Copy { dst_tile: 3 };
        tile_1_issues(DmaDescriptor::contiguous(kind, 0xff00, 256, 512, 64, 0));
    }

    /// … and here the second row of a strided put lies past the end of
    /// SDRAM.
    #[test]
    #[should_panic(expected = "tile 1: DMA descriptor on channel 2 names bytes \
                               0x100000..0x100040 of SDRAM, which has 0x100000")]
    fn dma_issue_rejects_an_sdram_overrun() {
        let segs = vec![
            DmaSeg { far_offset: 0xff000, local_offset: 256, bytes: 64 },
            DmaSeg { far_offset: 0x100000, local_offset: 320, bytes: 64 },
        ];
        let kind = DmaKind::Sdram(DmaDir::Put);
        tile_1_issues(DmaDescriptor { kind, segs, burst: 64, done_offset: 0 });
    }

    /// Multi-channel: the per-channel completion words are independent —
    /// a transfer on channel 1 can complete while channel 0's is still in
    /// flight, and each channel's sequence numbering starts at 1.
    #[test]
    fn dma_channels_complete_independently() {
        let mut cfg = SocConfig::small(4);
        cfg.dma_channels = 2;
        let s = Soc::new(cfg);
        s.run(vec![Box::new(|cpu: &mut Cpu| {
            let big = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 1024, 8192, 256, 0),
            );
            // A small tile-to-tile copy on channel 1: no SDRAM port, so
            // it overtakes the big get queued on channel 0.
            let small = cpu.dma_issue(
                1,
                DmaDescriptor::contiguous(DmaKind::Copy { dst_tile: 1 }, 0, 10240, 64, 64, 4),
            );
            assert_eq!((big, small), (1, 1), "channels number independently");
            let base = local_base(0);
            while cpu.read_u32(base + 4) < small {
                cpu.compute(10);
            }
            // The big channel-0 transfer (queued first but 128× larger)
            // is still outstanding when the small one completes.
            assert_eq!(cpu.read_u32(base), 0, "channel 0 must still be in flight");
            while cpu.read_u32(base) < big {
                cpu.compute(20);
            }
        })]);
    }

    /// A full run on the mesh: posted writes arrive, the run is
    /// deterministic, and `link_report` resolves every charged link to
    /// real mesh endpoints.
    #[test]
    fn mesh_soc_runs_and_reports_links_with_endpoints() {
        let run_once = || {
            let s = Soc::new(SocConfig::small_mesh(2, 2));
            let r = s.run(vec![
                Box::new(|cpu: &mut Cpu| {
                    cpu.noc_write(3, 8, &77u32.to_le_bytes());
                }),
                Box::new(|_c: &mut Cpu| {}),
                Box::new(|_c: &mut Cpu| {}),
                Box::new(|cpu: &mut Cpu| {
                    let base = local_base(3);
                    let mut spins = 0;
                    while cpu.read_u32(base + 8) != 77 {
                        cpu.compute(10);
                        spins += 1;
                        assert!(spins < 10_000, "mesh NoC write never arrived");
                    }
                }),
            ]);
            let report = s.link_report();
            for l in &report {
                assert!(
                    s.config().topology.is_valid_link(4, l.link),
                    "report must only list physical links: {l:?}"
                );
            }
            let charged: Vec<(usize, usize)> =
                report.iter().filter(|l| l.bursts > 0).map(|l| (l.from, l.to)).collect();
            // XY route 0 → 3 on a 2×2 mesh: east 0→1, then south 1→3.
            assert_eq!(charged, vec![(0, 1), (1, 3)]);
            (r.makespan, format!("{report:?}"))
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "invalid SocConfig: mesh topology 2x2")]
    fn soc_new_rejects_mesh_shape_mismatch() {
        let mut cfg = SocConfig::small(6);
        cfg.topology = crate::config::Topology::Mesh { cols: 2, rows: 2 };
        Soc::new(cfg);
    }

    /// The telemetry workload used by the determinism and neutrality
    /// pins: caches, uncached traffic, DMA and cross-tile contention.
    fn telemetry_workload(telemetry_on: bool) -> (RunReport, crate::telemetry::TelemetryReport) {
        let mut cfg = SocConfig::small(4);
        cfg.telemetry = telemetry_on;
        let s = Soc::new(cfg);
        s.tag_region(0, 4096, MemTag::Shared);
        let r = s.run(
            (0..4usize)
                .map(|t| -> CoreProgram<'static> {
                    Box::new(move |cpu: &mut Cpu| {
                        let base = local_base(t);
                        let seq = cpu.dma_issue(
                            0,
                            DmaDescriptor::contiguous(
                                DmaKind::Sdram(DmaDir::Get),
                                4096 + t as u32 * 1024,
                                1024,
                                512,
                                128,
                                0,
                            ),
                        );
                        for i in 0..32u32 {
                            let a = SDRAM_UNCACHED_BASE + ((t as u32 * 97 + i * 13) % 512) * 4;
                            cpu.write_u32(a, i);
                            let _ = cpu.read_u32(a);
                            cpu.write_u32(SDRAM_CACHED_BASE + 8192 + (i % 64) * 4, i);
                        }
                        cpu.flush_dcache_range(SDRAM_CACHED_BASE + 8192, 256);
                        cpu.dma_event_wait(0, seq);
                        assert!(cpu.read_u32(base) >= seq);
                    })
                })
                .collect(),
        );
        (r, s.take_telemetry())
    }

    /// Two identical seeded runs produce byte-identical telemetry
    /// streams — the observability layer inherits the simulator's
    /// bit-identical determinism.
    #[test]
    fn telemetry_streams_are_deterministic() {
        let (r1, t1) = telemetry_workload(true);
        let (r2, t2) = telemetry_workload(true);
        assert_eq!(format!("{:?}", r1.per_core), format!("{:?}", r2.per_core));
        assert_eq!(t1, t2, "telemetry must be bit-identical across runs");
        assert!(!t1.system.is_empty(), "link/port/DMA events must be recorded");
        assert!(t1.per_tile.iter().any(|s| !s.is_empty()), "stall spans must be recorded");
    }

    /// Toggling telemetry changes no counter and no makespan — recording
    /// is strictly observational.
    #[test]
    fn telemetry_is_timing_and_counter_neutral() {
        let (r_off, t_off) = telemetry_workload(false);
        let (r_on, t_on) = telemetry_workload(true);
        assert_eq!(r_off.makespan, r_on.makespan);
        assert_eq!(format!("{:?}", r_off.per_core), format!("{:?}", r_on.per_core));
        assert!(t_off.system.is_empty() && t_off.per_tile.iter().all(Vec::is_empty));
        assert_eq!(t_off.dropped, 0);
        assert!(!t_on.system.is_empty());
    }

    /// The recorded spans are consistent with the counters: per tile,
    /// the summed stall-span lengths equal the stall-cycle buckets.
    #[test]
    fn stall_spans_sum_to_stall_counters() {
        let (r, t) = telemetry_workload(true);
        for (tile, stream) in t.per_tile.iter().enumerate() {
            let span_sum: u64 = stream
                .iter()
                .filter(|e| matches!(e.kind, crate::telemetry::EventKind::Stall(_)))
                .map(|e| e.end - e.start)
                .sum();
            let c = &r.per_core[tile];
            let ctr_sum = c.total() - c.busy;
            assert_eq!(span_sum, ctr_sum, "tile {tile}: spans must cover every stall cycle");
        }
    }

    /// Span trace records require `telemetry`, protocol records
    /// require `trace` — each family is gated independently.
    #[test]
    fn trace_event_gates_span_and_protocol_records_independently() {
        let run_with = |trace_on: bool, telem_on: bool| {
            let mut cfg = SocConfig::small(1);
            cfg.trace = trace_on;
            cfg.telemetry = telem_on;
            let s = Soc::new(cfg);
            s.run(vec![Box::new(|cpu: &mut Cpu| {
                cpu.trace_event(7, 0, 4, 0); // protocol (READ-style)
                cpu.trace_event(crate::trace::span_begin(1), 0, 0, 0);
                cpu.trace_event(crate::trace::span_end(1), 0, 0, 0);
            })]);
            let tr = s.take_trace();
            let spans = tr.iter().filter(|r| r.is_span()).count();
            (tr.len() - spans, spans)
        };
        assert_eq!(run_with(true, false), (1, 0));
        assert_eq!(run_with(false, true), (0, 2));
        assert_eq!(run_with(true, true), (1, 2));
        assert_eq!(run_with(false, false), (0, 0));
    }

    #[test]
    #[should_panic(expected = "virtual time limit")]
    fn watchdog_fires_on_livelock() {
        let mut cfg = SocConfig::small(1);
        cfg.time_limit = 10_000;
        let s = Soc::new(cfg);
        s.run(vec![Box::new(|cpu: &mut Cpu| loop {
            cpu.compute(1000);
        })]);
    }

    /// All tiles may share one thread, so `Soc::run` itself names the
    /// tile whose panic it re-raises — the first one, not a peer's
    /// secondary abort.
    #[test]
    fn a_tile_panic_is_reraised_with_its_tile_id() {
        let s = soc(3);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(vec![
                Box::new(|cpu: &mut Cpu| loop {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 1);
                }),
                Box::new(|cpu: &mut Cpu| loop {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 4, 1);
                }),
                Box::new(|cpu: &mut Cpu| {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 8, 1);
                    panic!("boom at {}", cpu.tile());
                }),
            ])
        }));
        let payload = run.expect_err("the tile's panic propagates");
        let msg = payload.downcast_ref::<String>().expect("a string payload");
        assert_eq!(msg, "tile 2 panicked: boom at 2");
    }

    /// A run whose tiles panicked or were aborted leaves their stacks in
    /// the thread's pool, and a later run on those stacks matches the
    /// same run on a thread whose pool is empty.
    #[test]
    fn a_run_after_an_aborted_one_matches_a_fresh_thread() {
        let run = || {
            let s = soc(3);
            let r = s.run(vec![
                Box::new(|cpu: &mut Cpu| {
                    for i in 0..200u32 {
                        cpu.write_u32(addr::SDRAM_UNCACHED_BASE + (i % 16) * 4, i);
                    }
                }),
                Box::new(|cpu: &mut Cpu| {
                    let sum: u32 = (0..200u32)
                        .map(|i| cpu.read_u32(addr::SDRAM_UNCACHED_BASE + (i % 16) * 4))
                        .sum();
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 0x100, sum);
                }),
                Box::new(|cpu: &mut Cpu| cpu.compute(500)),
            ]);
            format!("{r:?} {}", s.read_sdram_u32(0x100))
        };
        let fresh = std::thread::spawn(run).join().expect("the run on a fresh thread");
        let s = soc(3);
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(vec![
                Box::new(|cpu: &mut Cpu| loop {
                    cpu.compute(10);
                }),
                Box::new(|cpu: &mut Cpu| loop {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 1);
                }),
                Box::new(|cpu: &mut Cpu| {
                    cpu.compute(100);
                    panic!("boom");
                }),
            ])
        }));
        assert!(aborted.is_err());
        assert_eq!(run(), fresh);
    }

    /// The commit-order check fires: after tile 1 committed at cycle 10,
    /// tile 0 committing at cycle 10 is out of `(time, tile)` order.
    #[test]
    #[should_panic(expected = "commit order violated: tile 0 acts at cycle 10 after tile 1")]
    fn out_of_order_commits_are_rejected() {
        let s = soc(2);
        let mut g = s.global.borrow_mut();
        g.note_commit(10, 1);
        g.note_commit(10, 0);
    }
}
