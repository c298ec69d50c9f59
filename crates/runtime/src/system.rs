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
use crate::pod::with_buf;

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

/// Panics unless elements `first..first + n` lie inside a slab of
/// `len` elements (also when the end overflows `u32`).
fn check_elems(what: &str, first: u32, n: usize, len: u32) {
    let end = u32::try_from(n).ok().and_then(|n| first.checked_add(n));
    assert!(
        end.is_some_and(|end| end <= len),
        "{what}: elements {first}..{first}+{n} past the end of a {len}-element slab"
    );
}

/// The little-endian encoding of `values`, back to back.
fn encode<T: crate::pod::Pod>(values: &[T]) -> Vec<u8> {
    let mut buf = vec![0u8; values.len() * T::SIZE as usize];
    for (v, out) in values.iter().zip(buf.chunks_exact_mut(T::SIZE as usize)) {
        v.to_bytes(out);
    }
    buf
}

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

    /// `size` rounded up to a multiple of `a`, or `None` past `u32`.
    fn align_up(size: u32, a: u32) -> Option<u32> {
        size.div_ceil(a).checked_mul(a)
    }

    /// Take `n` bytes of the version/lock region (uncached SDRAM below
    /// the shared objects); returns their offset.
    fn take_version_bytes(&mut self, n: u32) -> u32 {
        let off = self.version_cursor;
        match off.checked_add(n) {
            Some(end) if end <= SHARED_REGION_BASE => self.version_cursor = end,
            _ => panic!(
                "version/lock region exhausted ({SHARED_REGION_BASE} bytes: one word per object, \
                 SDRAM lock, ticket and two per barrier)"
            ),
        }
        off
    }

    fn new_lock(&mut self) -> Lock {
        let id = self.n_locks;
        self.n_locks += 1;
        match self.lock_kind {
            LockKind::Sdram => {
                // Lock words live in the version/lock region.
                let off = self.take_version_bytes(4);
                Lock::Sdram(SdramLock { addr: addr::SDRAM_UNCACHED_BASE + off })
            }
            LockKind::Distributed => {
                // The mailbox region ends where the DMA completion word
                // lives; a mailbox on top of it would corrupt `dma_wait`.
                assert!(
                    id < (DMA_DONE_OFFSET - MAILBOX_BASE) / 8,
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

    /// The lowest SDRAM offset of the private arenas (the top of SDRAM
    /// until the first [`System::alloc_private`]).
    fn private_floor(&self) -> u32 {
        if self.priv_cursor == 0 {
            self.soc.config().sdram_size
        } else {
            self.priv_cursor
        }
    }

    fn alloc_raw(&mut self, name: &str, size: u32) -> u32 {
        assert!(!self.finalized, "allocations must precede the first run");
        let size = size.max(1);
        let line = self.shared.line;
        // Replica: version header word + payload, line-aligned.
        let (Some(padded), Some(replica)) =
            (Self::align_up(size, line), size.checked_add(4).and_then(|r| Self::align_up(r, line)))
        else {
            panic!("shared object {name:?}: size {size} overflows the address space")
        };
        let sdram_off = self.sdram_cursor;
        match sdram_off.checked_add(padded) {
            Some(end) if end <= self.private_floor() => self.sdram_cursor = end,
            _ => panic!(
                "shared-object region exhausted: {name:?} needs {padded} bytes at SDRAM offset \
                 {sdram_off}, below {}",
                self.private_floor()
            ),
        }
        let version_off = self.take_version_bytes(4);
        let dsm_off = self.dsm_cursor;
        // An overflowing replica cursor cannot fit any local memory;
        // `finalize` rejects it under DSM, the only back-end using it.
        self.dsm_cursor = self.dsm_cursor.saturating_add(replica);
        let lock = self.new_lock();
        let id = self.shared.objects.len() as u32;
        self.shared.objects.push(ObjMeta {
            name: name.to_string(),
            size,
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
        let Some(size) = T::SIZE.checked_mul(len) else {
            panic!("slab {name:?}: size of {len} elements of {} bytes overflows u32", T::SIZE)
        };
        let id = self.alloc_raw(name, size);
        Slab { id, len, _ph: PhantomData }
    }

    /// Allocate a per-core private array in cached SDRAM.
    pub fn alloc_private<T: crate::pod::Pod>(&mut self, len: u32) -> PrivSlab<T> {
        assert!(!self.finalized, "allocations must precede the first run");
        let Some(bytes) =
            T::SIZE.checked_mul(len.max(1)).and_then(|b| Self::align_up(b, self.shared.line))
        else {
            panic!("private slab: size of {len} elements of {} bytes overflows u32", T::SIZE)
        };
        match self.private_floor().checked_sub(bytes) {
            Some(base) if base > self.sdram_cursor => self.priv_cursor = base,
            _ => panic!(
                "private region exhausted: {bytes} bytes do not fit between the shared objects \
                 (ending at SDRAM offset {}) and offset {}",
                self.sdram_cursor,
                self.private_floor()
            ),
        }
        PrivSlab { addr: addr::SDRAM_CACHED_BASE + self.priv_cursor, len, _ph: PhantomData }
    }

    /// Allocate a phase barrier for `n` participants (counter and phase
    /// words in uncached SDRAM).
    pub fn alloc_barrier(&mut self, n: u32) -> crate::barrier::Barrier {
        assert!(!self.finalized, "allocations must precede the first run");
        let count_off = self.take_version_bytes(8);
        crate::barrier::Barrier::new(count_off, count_off + 4, n)
    }

    /// Allocate a fetch-and-add ticket dispenser (for work distribution).
    pub fn alloc_ticket(&mut self) -> crate::queue::Tickets {
        assert!(!self.finalized, "allocations must precede the first run");
        let off = self.take_version_bytes(4);
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

    /// Panics unless `byte_off..byte_off + len` lies inside object `id`.
    fn check_bytes(&self, id: u32, byte_off: u32, len: usize) -> &ObjMeta {
        let meta = self.shared.meta(id);
        assert!(
            byte_off as usize + len <= meta.size as usize,
            "bytes {byte_off}..{} past the end of {:?} ({} bytes)",
            byte_off as usize + len,
            meta.name,
            meta.size
        );
        meta
    }

    /// Set `bytes` of a shared object's initial value at `byte_off`
    /// (canonical home and, for the DSM back-end, every tile's replica):
    /// one write per memory, whatever the length.
    fn init_bytes(&mut self, id: u32, byte_off: u32, bytes: &[u8]) {
        let meta = self.check_bytes(id, byte_off, bytes.len());
        self.soc.write_sdram(meta.sdram_off + byte_off, bytes);
        if self.shared.backend == BackendKind::Dsm {
            for t in 0..self.shared.n_tiles {
                self.soc.write_local(t, meta.dsm_off + 4 + byte_off, bytes);
            }
        }
    }

    /// Set the initial value of an object.
    pub fn init<T: crate::pod::Pod>(&mut self, obj: Obj<T>, value: T) {
        self.init_bytes(obj.id, 0, &encode(&[value]));
    }

    /// Set the initial value of a slab element (one-element
    /// [`System::init_slice`]).
    pub fn init_at<T: crate::pod::Pod>(&mut self, slab: Slab<T>, i: u32, value: T) {
        self.init_slice(slab, i, &[value]);
    }

    /// Set the initial values of slab elements `first..first +
    /// values.len()`. The elements are encoded into one buffer and
    /// written with one copy per memory (the home and, under DSM, each
    /// tile's replica), so filling a large input costs its bytes, not a
    /// write per element.
    pub fn init_slice<T: crate::pod::Pod>(&mut self, slab: Slab<T>, first: u32, values: &[T]) {
        check_elems("init_slice", first, values.len(), slab.len);
        self.init_bytes(slab.id, first * T::SIZE, &encode(values));
    }

    /// Set the initial values of private slab elements `first..first +
    /// values.len()` (e.g. per-core inputs), with one SDRAM write.
    pub fn init_private<T: crate::pod::Pod>(
        &mut self,
        slab: &PrivSlab<T>,
        first: u32,
        values: &[T],
    ) {
        check_elems("init_private", first, values.len(), slab.len);
        let off = slab.addr - addr::SDRAM_CACHED_BASE + first * T::SIZE;
        self.soc.write_sdram(off, &encode(values));
    }

    /// Read `buf.len()` bytes of a shared object at `byte_off` after a
    /// run (from its canonical home; for DSM the canonical state is tile
    /// 0's replica).
    fn read_back_bytes(&self, id: u32, byte_off: u32, buf: &mut [u8]) {
        let meta = self.check_bytes(id, byte_off, buf.len());
        if self.shared.backend == BackendKind::Dsm {
            self.soc.read_local(0, meta.dsm_off + 4 + byte_off, buf);
        } else {
            self.soc.read_sdram(meta.sdram_off + byte_off, buf);
        }
    }

    /// Read back a shared object after a run.
    pub fn read_back<T: crate::pod::Pod>(&self, obj: Obj<T>) -> T {
        with_buf(T::SIZE, |buf| {
            self.read_back_bytes(obj.id, 0, buf);
            T::from_bytes(buf)
        })
    }

    /// Read back a slab element after a run.
    pub fn read_back_at<T: crate::pod::Pod>(&self, slab: Slab<T>, i: u32) -> T {
        assert!(i < slab.len);
        with_buf(T::SIZE, |buf| {
            self.read_back_bytes(slab.id, i * T::SIZE, buf);
            T::from_bytes(buf)
        })
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

    /// `init_slice` leaves exactly the bytes an `init_at` loop leaves,
    /// at the home copy and in every tile's replica window, on every
    /// back-end (only DSM fills the replicas).
    #[test]
    fn init_slice_matches_an_init_at_loop() {
        let values: Vec<u16> = (0..37u16).map(|i| i.wrapping_mul(0x0101) ^ 0x5a3c).collect();
        for backend in BackendKind::ALL {
            let build = |slice: bool| {
                let mut sys = System::new(SocConfig::small(3), backend, LockKind::Sdram);
                let s = sys.alloc_slab::<u16>("s", 40);
                if slice {
                    sys.init_slice(s, 2, &values[..10]);
                    sys.init_slice(s, 12, &values[10..]);
                } else {
                    for (i, &v) in (2..).zip(&values) {
                        sys.init_at(s, i, v);
                    }
                }
                (sys, s)
            };
            let ((a, s), (b, _)) = (build(false), build(true));
            let elems = |sys: &System| (0..40).map(|i| sys.read_back_at(s, i)).collect::<Vec<_>>();
            assert_eq!(elems(&a), elems(&b), "{backend:?}");
            assert_eq!(elems(&b)[2..39], values[..], "{backend:?}");
            let meta = a.shared.meta(s.id);
            let home = |sys: &System| {
                let mut buf = [0u8; 80];
                sys.soc.read_sdram(meta.sdram_off, &mut buf);
                buf
            };
            assert_eq!(home(&a), home(&b), "{backend:?} home copy");
            for t in 0..3 {
                let replica = |sys: &System| {
                    let mut buf = [0u8; 80];
                    sys.soc.read_local(t, meta.dsm_off + 4, &mut buf);
                    buf
                };
                assert_eq!(replica(&a), replica(&b), "{backend:?} tile {t}");
                if backend == BackendKind::Dsm {
                    assert_eq!(replica(&b), home(&b), "tile {t}'s replica");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "init_slice: elements 3..3+2 past the end of a 4-element slab")]
    fn init_slice_past_the_end_panics() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Dsm, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 4);
        sys.init_slice(s, 3, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "init_slice: elements 4294967295..4294967295+2 past the end")]
    fn init_slice_range_wrapping_u32_panics() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 4);
        sys.init_slice(s, u32::MAX, &[1, 2]);
    }

    #[test]
    fn init_private_writes_the_slice() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Uncached, LockKind::Sdram);
        let p = sys.alloc_private::<u32>(8);
        sys.init_private(&p, 5, &[7, 8, 9]);
        let mut buf = [0u8; 32];
        sys.soc.read_sdram(p.addr - addr::SDRAM_CACHED_BASE, &mut buf);
        let words: Vec<u32> =
            buf.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0, 0, 0, 0, 0, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "init_private: elements 6..6+3 past the end of a 8-element slab")]
    fn init_private_past_the_end_panics() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Uncached, LockKind::Sdram);
        let p = sys.alloc_private::<u32>(8);
        sys.init_private(&p, 6, &[7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "slab \"big\": size of 536870913 elements of 8 bytes overflows u32")]
    fn slab_size_overflow_panics_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_slab::<u64>("big", 0x2000_0001);
    }

    #[test]
    #[should_panic(
        expected = "shared object \"huge\": size 4294967295 overflows the address space"
    )]
    fn object_padding_overflow_panics_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_slab::<u8>("huge", u32::MAX);
    }

    #[test]
    #[should_panic(expected = "shared-object region exhausted: \"big\" needs 1048576 bytes")]
    fn shared_objects_past_sdram_panic_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_slab::<u8>("big", 1 << 20);
    }

    /// Shared objects allocated after a private slab stop below it.
    #[test]
    #[should_panic(expected = "shared-object region exhausted: \"s\" needs 393216 bytes")]
    fn shared_objects_into_private_arenas_panic_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_private::<u8>(512 << 10);
        sys.alloc_slab::<u8>("s", 384 << 10);
    }

    /// Under SDRAM locks every object takes a version word and a lock
    /// word: 40 000 of them outgrow the 256 KiB region.
    #[test]
    #[should_panic(expected = "version/lock region exhausted")]
    fn version_words_past_their_region_panic_at_allocation() {
        let cfg = SocConfig { sdram_size: 16 << 20, ..SocConfig::small(2) };
        let mut sys = System::new(cfg, BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_vec::<u32>("v", 40_000);
    }

    #[test]
    #[should_panic(expected = "private region exhausted: 2097152 bytes do not fit")]
    fn private_slab_past_sdram_panics_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_private::<u8>(2 << 20);
    }

    #[test]
    #[should_panic(expected = "private slab: size of 536870913 elements of 8 bytes overflows u32")]
    fn private_slab_size_overflow_panics_at_allocation() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        sys.alloc_private::<u64>(0x2000_0001);
    }

    #[test]
    #[should_panic(expected = "bytes 2..6 past the end of \"x\" (4 bytes)")]
    fn read_back_past_an_object_panics() {
        let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
        let x = sys.alloc::<u32>("x");
        sys.alloc::<u64>("next");
        sys.read_back_bytes(x.id, 2, &mut [0; 4]);
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
