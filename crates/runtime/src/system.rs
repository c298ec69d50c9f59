//! Shared-object registry, memory layout and system construction.
//!
//! A [`System`] owns the simulated SoC plus the metadata the PMC runtime
//! needs: every shared object's canonical SDRAM home, its per-tile DSM
//! replica slot, its lock, and the back-end in use. Applications allocate
//! objects before the run and then execute one closure per tile against a
//! [`crate::ctx::PmcCtx`]; the *same application code* runs unmodified on
//! every back-end (the paper's portability claim, Table II).

use std::marker::PhantomData;

use pmc_soc_sim::{addr, Cpu, MemTag, RunReport, Soc, SocConfig};

use crate::lock::{DistLock, Lock, SdramLock};

/// Which Table II column implements the annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's "no CC" baseline: shared data lives in uncached SDRAM,
    /// annotations map to locking only, cache flushes are nullified.
    Uncached,
    /// Software cache coherency (Table II column 1): shared data is
    /// cached; entry/exit invalidate/flush the object's lines
    /// (BACKER-style).
    Swcc,
    /// Distributed shared memory over the write-only NoC (column 2):
    /// every tile holds a replica in its local memory; writers broadcast.
    Dsm,
    /// Scratch-pad memories (column 3): objects are staged into the local
    /// memory for the duration of a scope and copied back on exit.
    Spm,
}

impl BackendKind {
    pub const ALL: [BackendKind; 4] =
        [BackendKind::Uncached, BackendKind::Swcc, BackendKind::Dsm, BackendKind::Spm];

    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Uncached => "uncached",
            BackendKind::Swcc => "swcc",
            BackendKind::Dsm => "dsm",
            BackendKind::Spm => "spm",
        }
    }
}

/// Which lock implementation objects use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Test-and-test-and-set on uncached SDRAM.
    Sdram,
    /// Asymmetric distributed lock homed round-robin across tiles \[15\].
    Distributed,
}

/// Typed handle to a single shared object.
pub struct Obj<T> {
    pub(crate) id: u32,
    pub(crate) _ph: PhantomData<T>,
}

impl<T> Clone for Obj<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Obj<T> {}

/// A vector of *independently locked* shared objects (one object per
/// element — the paper's Fig. 9 FIFO locks `buf[wp]` and `read_ptr[i]`
/// individually).
pub struct ObjVec<T> {
    pub(crate) first: u32,
    pub(crate) len: u32,
    pub(crate) _ph: PhantomData<T>,
}

impl<T> Clone for ObjVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ObjVec<T> {}

impl<T> ObjVec<T> {
    /// Element count (at least 1: [`System::alloc_vec`] rejects 0).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        self.len
    }
    pub fn at(&self, i: u32) -> Obj<T> {
        assert!(i < self.len, "ObjVec index {i} out of range {}", self.len);
        Obj { id: self.first + i, _ph: PhantomData }
    }
}

/// A single shared object holding `len` packed elements under one lock
/// (for bulk data: scene geometry, volumes, frames).
pub struct Slab<T> {
    pub(crate) id: u32,
    pub(crate) len: u32,
    pub(crate) _ph: PhantomData<T>,
}

impl<T> Clone for Slab<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Slab<T> {}

impl<T> Slab<T> {
    /// Element count (at least 1: [`System::alloc_slab`] rejects 0).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        self.len
    }
    /// The whole slab viewed as one object (for entry/exit annotations).
    pub fn obj(&self) -> Obj<T> {
        Obj { id: self.id, _ph: PhantomData }
    }
}

/// Per-core private data in cached SDRAM (stack/heap stand-in; read
/// stalls on it are attributed to "private read stall" in Fig. 8).
pub struct PrivSlab<T> {
    /// Cached-window address.
    pub(crate) addr: u32,
    pub(crate) len: u32,
    pub(crate) _ph: PhantomData<T>,
}

impl<T> Clone for PrivSlab<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PrivSlab<T> {}

/// Object metadata (runtime-internal).
pub(crate) struct ObjMeta {
    #[allow(dead_code)]
    pub name: String,
    /// Payload size in bytes.
    pub size: u32,
    /// Canonical SDRAM offset (cache-line aligned, padded).
    pub sdram_off: u32,
    /// SDRAM offset of the committed-version word (uncached sidecar).
    pub version_off: u32,
    /// Per-tile local-memory replica offset: u32 version header + data.
    pub dsm_off: u32,
    pub lock: Lock,
}

/// Local-memory layout constants (offsets within every tile's local
/// memory). Lock bytes and mailboxes come first, then the DMA engine's
/// completion words, then the arena used for DSM replicas / SPM staging /
/// FIFO scratch.
pub(crate) const LOCK_BYTES_BASE: u32 = 0;
pub(crate) const MAILBOX_BASE: u32 = 2048; // 8 bytes per lock id
/// Base of the tile's DMA completion-word array: channel `c`'s word
/// lives at `DMA_DONE_OFFSET + 4 * c` (each channel writes the sequence
/// number of its newest completed transfer; `dma_wait` polls locally).
pub(crate) const DMA_DONE_OFFSET: u32 = 12 << 10;
pub(crate) const ARENA_BASE: u32 = 16 << 10;
/// The completion-word array must fit between its base and the arena.
const _: () = assert!(DMA_DONE_OFFSET + 4 * crate::ctx::MAX_DMA_CHANNELS as u32 <= ARENA_BASE);

/// Shared runtime state, immutable during a run.
pub(crate) struct Shared {
    pub(crate) backend: BackendKind,
    pub(crate) objects: Vec<ObjMeta>,
    pub(crate) n_tiles: usize,
    pub(crate) line: u32,
    /// SPM staging arena (per tile): [spm_base, spm_end).
    pub(crate) spm_base: u32,
    pub(crate) spm_end: u32,
    /// DMA burst size in bytes ([`System::set_dma_burst`]).
    pub(crate) dma_burst: u32,
}

impl Shared {
    pub(crate) fn meta(&self, id: u32) -> &ObjMeta {
        &self.objects[id as usize]
    }
}

/// The system under construction / under test.
pub struct System {
    soc: Soc,
    shared: Shared,
    lock_kind: LockKind,
    // Allocation cursors.
    sdram_cursor: u32,
    version_cursor: u32,
    dsm_cursor: u32,
    priv_cursor: u32,
    n_locks: u32,
    shared_region: (u32, u32),
    version_region: (u32, u32),
    finalized: bool,
}

/// SDRAM layout: versions+locks first, then shared objects, then private
/// arenas from the top of SDRAM downwards.
const VERSION_REGION_BASE: u32 = 0;
const SHARED_REGION_BASE: u32 = 256 << 10;

impl System {
    pub fn new(cfg: SocConfig, backend: BackendKind, lock_kind: LockKind) -> Self {
        let n_tiles = cfg.n_tiles;
        let line = cfg.dcache.line_size;
        let local_size = cfg.local_mem_size;
        assert!(
            (1..=crate::ctx::MAX_DMA_CHANNELS).contains(&cfg.dma_channels),
            "DMA channel count must be 1..={}",
            crate::ctx::MAX_DMA_CHANNELS
        );
        let soc = Soc::new(cfg);
        System {
            soc,
            shared: Shared {
                backend,
                objects: Vec::new(),
                n_tiles,
                line,
                spm_base: ARENA_BASE,
                spm_end: local_size,
                dma_burst: 256,
            },
            lock_kind,
            sdram_cursor: SHARED_REGION_BASE,
            version_cursor: VERSION_REGION_BASE,
            dsm_cursor: ARENA_BASE,
            priv_cursor: 0, // set at finalize: grows from top
            n_locks: 0,
            shared_region: (SHARED_REGION_BASE, SHARED_REGION_BASE),
            version_region: (VERSION_REGION_BASE, VERSION_REGION_BASE),
            finalized: false,
        }
    }

    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Set the DMA engines' burst size in bytes (default 256). Larger
    /// bursts amortise the per-burst SDRAM setup cost; smaller ones
    /// interleave more fairly on shared NoC links.
    pub fn set_dma_burst(&mut self, bytes: u32) {
        assert!(bytes >= 4, "bursts are at least one word");
        self.shared.dma_burst = bytes;
    }

    fn align_up(v: u32, a: u32) -> u32 {
        v.div_ceil(a) * a
    }

    fn new_lock(&mut self) -> Lock {
        let id = self.n_locks;
        self.n_locks += 1;
        match self.lock_kind {
            LockKind::Sdram => {
                // Lock words live in the version/lock region.
                let off = self.version_cursor;
                self.version_cursor += 4;
                Lock::Sdram(SdramLock { addr: addr::SDRAM_UNCACHED_BASE + off })
            }
            LockKind::Distributed => {
                // The mailbox region ends where the DMA completion word
                // lives; a mailbox on top of it would corrupt `dma_wait`.
                assert!(
                    MAILBOX_BASE + (id + 1) * 8 <= DMA_DONE_OFFSET,
                    "distributed-lock mailboxes exhausted (lock id {id} would overlap the \
                     DMA completion word)"
                );
                Lock::Dist(DistLock {
                    home: (id as usize) % self.shared.n_tiles,
                    lock_offset: LOCK_BYTES_BASE + id,
                    mailbox_offset: MAILBOX_BASE + id * 8,
                })
            }
        }
    }

    fn alloc_raw(&mut self, name: &str, size: u32) -> u32 {
        assert!(!self.finalized, "allocations must precede the first run");
        let padded = Self::align_up(size.max(1), self.shared.line);
        let sdram_off = self.sdram_cursor;
        self.sdram_cursor += padded;
        let version_off = self.version_cursor;
        self.version_cursor += 4;
        let dsm_off = self.dsm_cursor;
        // Replica: version header word + payload, line-aligned.
        self.dsm_cursor += Self::align_up(4 + size.max(1), self.shared.line);
        let lock = self.new_lock();
        let id = self.shared.objects.len() as u32;
        self.shared.objects.push(ObjMeta {
            name: name.to_string(),
            size: size.max(1),
            sdram_off,
            version_off,
            dsm_off,
            lock,
        });
        id
    }

    /// Allocate one shared object of type `T`.
    pub fn alloc<T: crate::pod::Pod>(&mut self, name: &str) -> Obj<T> {
        let id = self.alloc_raw(name, T::SIZE);
        Obj { id, _ph: PhantomData }
    }

    /// Allocate `len` independently locked objects of type `T`.
    pub fn alloc_vec<T: crate::pod::Pod>(&mut self, name: &str, len: u32) -> ObjVec<T> {
        assert!(len > 0);
        let first = self.alloc_raw(&format!("{name}[0]"), T::SIZE);
        for i in 1..len {
            self.alloc_raw(&format!("{name}[{i}]"), T::SIZE);
        }
        ObjVec { first, len, _ph: PhantomData }
    }

    /// Allocate one shared object holding `len` packed elements of `T`.
    pub fn alloc_slab<T: crate::pod::Pod>(&mut self, name: &str, len: u32) -> Slab<T> {
        assert!(len > 0);
        let id = self.alloc_raw(name, T::SIZE * len);
        Slab { id, len, _ph: PhantomData }
    }

    /// Allocate a per-core private array in cached SDRAM.
    pub fn alloc_private<T: crate::pod::Pod>(&mut self, len: u32) -> PrivSlab<T> {
        assert!(!self.finalized, "allocations must precede the first run");
        let bytes = Self::align_up(T::SIZE * len.max(1), self.shared.line);
        let sdram_size = self.soc.config().sdram_size;
        if self.priv_cursor == 0 {
            self.priv_cursor = sdram_size;
        }
        assert!(self.priv_cursor - bytes > self.sdram_cursor, "SDRAM exhausted");
        self.priv_cursor -= bytes;
        PrivSlab { addr: addr::SDRAM_CACHED_BASE + self.priv_cursor, len, _ph: PhantomData }
    }

    /// Allocate a phase barrier for `n` participants (counter and phase
    /// words in uncached SDRAM).
    pub fn alloc_barrier(&mut self, n: u32) -> crate::barrier::Barrier {
        assert!(!self.finalized, "allocations must precede the first run");
        let count_off = self.version_cursor;
        self.version_cursor += 4;
        let phase_off = self.version_cursor;
        self.version_cursor += 4;
        crate::barrier::Barrier::new(count_off, phase_off, n)
    }

    /// Allocate a fetch-and-add ticket dispenser (for work distribution).
    pub fn alloc_ticket(&mut self) -> crate::queue::Tickets {
        assert!(!self.finalized, "allocations must precede the first run");
        let off = self.version_cursor;
        self.version_cursor += 4;
        crate::queue::Tickets::new(off)
    }

    /// Allocate a multi-reader/multi-writer FIFO (paper Fig. 9) with
    /// `depth` slots and `readers` consumers.
    pub fn alloc_fifo<T: crate::pod::Pod>(
        &mut self,
        name: &str,
        depth: u32,
        readers: u32,
    ) -> crate::fifo::MFifo<T> {
        crate::fifo::MFifo::alloc(self, name, depth, readers)
    }

    /// Set `bytes` of a shared object's initial value at `byte_off`
    /// (canonical home and, for the DSM back-end, every tile's replica).
    fn init_bytes(&mut self, id: u32, byte_off: u32, bytes: &[u8]) {
        let meta = self.shared.meta(id);
        assert!(byte_off as usize + bytes.len() <= meta.size as usize);
        self.soc.write_sdram(meta.sdram_off + byte_off, bytes);
        if self.shared.backend == BackendKind::Dsm {
            for t in 0..self.shared.n_tiles {
                self.soc.write_local(t, meta.dsm_off + 4 + byte_off, bytes);
            }
        }
    }

    /// Set the initial value of an object.
    pub fn init<T: crate::pod::Pod>(&mut self, obj: Obj<T>, value: T) {
        let mut buf = vec![0u8; T::SIZE as usize];
        value.to_bytes(&mut buf);
        self.init_bytes(obj.id, 0, &buf);
    }

    /// Set the initial value of a slab element.
    pub fn init_at<T: crate::pod::Pod>(&mut self, slab: Slab<T>, i: u32, value: T) {
        assert!(i < slab.len);
        let mut buf = vec![0u8; T::SIZE as usize];
        value.to_bytes(&mut buf);
        self.init_bytes(slab.id, i * T::SIZE, &buf);
    }

    /// Bulk-initialise a slab's payload from raw bytes (cheap host-side
    /// fill for large inputs such as volumes and frames).
    pub fn init_slab_bytes<T: crate::pod::Pod>(&mut self, slab: Slab<T>, bytes: &[u8]) {
        self.init_bytes(slab.id, 0, bytes);
    }

    /// Initialise private slab contents (e.g. per-core inputs).
    pub fn init_private<T: crate::pod::Pod>(&mut self, slab: &PrivSlab<T>, i: u32, value: T) {
        assert!(i < slab.len);
        let mut buf = vec![0u8; T::SIZE as usize];
        value.to_bytes(&mut buf);
        let off = slab.addr - addr::SDRAM_CACHED_BASE + i * T::SIZE;
        self.soc.write_sdram(off, &buf);
    }

    /// Read `buf.len()` bytes of a shared object at `byte_off` after a
    /// run (from its canonical home; for DSM the canonical state is tile
    /// 0's replica).
    fn read_back_bytes(&self, id: u32, byte_off: u32, buf: &mut [u8]) {
        let meta = self.shared.meta(id);
        if self.shared.backend == BackendKind::Dsm {
            self.soc.read_local(0, meta.dsm_off + 4 + byte_off, buf);
        } else {
            self.soc.read_sdram(meta.sdram_off + byte_off, buf);
        }
    }

    /// Read back a shared object after a run.
    pub fn read_back<T: crate::pod::Pod>(&self, obj: Obj<T>) -> T {
        let mut buf = vec![0u8; T::SIZE as usize];
        self.read_back_bytes(obj.id, 0, &mut buf);
        T::from_bytes(&buf)
    }

    /// Read back a slab element after a run.
    pub fn read_back_at<T: crate::pod::Pod>(&self, slab: Slab<T>, i: u32) -> T {
        assert!(i < slab.len);
        let mut buf = vec![0u8; T::SIZE as usize];
        self.read_back_bytes(slab.id, i * T::SIZE, &mut buf);
        T::from_bytes(&buf)
    }

    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.shared_region = (SHARED_REGION_BASE, self.sdram_cursor);
        self.version_region = (VERSION_REGION_BASE, self.version_cursor);
        // Stall attribution (paper Fig. 8): lock/version words and shared
        // objects are shared; private arenas private (the default).
        self.soc.tag_region(self.version_region.0, self.version_region.1.max(4), MemTag::Shared);
        self.soc.tag_region(
            self.shared_region.0,
            self.shared_region.1.max(SHARED_REGION_BASE + 4),
            MemTag::Shared,
        );
        if self.shared.backend == BackendKind::Dsm {
            // Replica slots exist only under DSM; other back-ends keep
            // the whole arena for staging.
            assert!(
                self.dsm_cursor <= self.shared.spm_end,
                "local memory arena exhausted by DSM replicas"
            );
            // SPM staging (unused under DSM) starts after the replicas.
            self.shared.spm_base = self.dsm_cursor;
        }
    }

    /// Run one program per tile. Programs receive a [`crate::ctx::PmcCtx`]
    /// bound to their tile. Can be called multiple times; memories persist
    /// between runs.
    pub fn run<'env>(&'env mut self, programs: Vec<crate::Program<'env>>) -> RunReport {
        self.finalize();
        let shared = &self.shared;
        let core_programs: Vec<pmc_soc_sim::CoreProgram<'env>> = programs
            .into_iter()
            .map(|p| -> pmc_soc_sim::CoreProgram<'env> {
                Box::new(move |cpu: &mut Cpu<'_>| {
                    let mut ctx = crate::ctx::PmcCtx::new(cpu, shared);
                    p(&mut ctx);
                    ctx.assert_quiescent();
                })
            })
            .collect();
        self.soc.run(core_programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let mut sys = System::new(SocConfig::small(4), BackendKind::Swcc, LockKind::Sdram);
        let a = sys.alloc::<u32>("a");
        let b = sys.alloc::<u64>("b");
        let v = sys.alloc_vec::<u32>("v", 3);
        let s = sys.alloc_slab::<f32>("s", 100);
        let line = sys.shared.line;
        let ids = [a.id, b.id, v.at(0).id, v.at(1).id, v.at(2).id, s.id];
        for (i, &id) in ids.iter().enumerate() {
            let m = sys.shared.meta(id);
            assert_eq!(m.sdram_off % line, 0, "objects are cache-line aligned");
            for &jd in &ids[i + 1..] {
                let n = sys.shared.meta(jd);
                let m_end = m.sdram_off + m.size.div_ceil(line) * line;
                let n_end = n.sdram_off + n.size.div_ceil(line) * line;
                assert!(m_end <= n.sdram_off || n_end <= m.sdram_off, "objects overlap");
            }
        }
        assert_eq!(sys.shared.meta(s.id).size, 400);
    }

    #[test]
    fn init_and_read_back() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
            let x = sys.alloc::<u32>("x");
            sys.init(x, 77);
            assert_eq!(sys.read_back(x), 77, "{backend:?}");
            let s = sys.alloc_slab::<f32>("s", 4);
            sys.init_at(s, 2, 1.25);
            assert_eq!(sys.read_back_at(s, 2), 1.25, "{backend:?}");
        }
    }

    #[test]
    fn private_slabs_grow_down_and_stay_disjoint() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Uncached, LockKind::Sdram);
        let p1 = sys.alloc_private::<u64>(100);
        let p2 = sys.alloc_private::<u64>(100);
        assert!(p2.addr + 800 <= p1.addr);
        assert_eq!(p1.len, 100);
    }

    #[test]
    fn distributed_locks_home_round_robin() {
        let mut sys = System::new(SocConfig::small(4), BackendKind::Dsm, LockKind::Distributed);
        let v = sys.alloc_vec::<u8>("flags", 8);
        let homes: Vec<usize> = (0..8)
            .map(|i| match sys.shared.meta(v.at(i).id).lock {
                Lock::Dist(d) => d.home,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
