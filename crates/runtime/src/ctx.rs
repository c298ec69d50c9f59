//! The PMC annotation API (paper Section V-A), implemented for all four
//! back-ends exactly as the paper's Table II prescribes.
//!
//! Application code is written once against this API and runs unmodified
//! on every memory architecture; the back-end dispatch below is the
//! "compiler setting" the paper promises. Since the scope-guard redesign
//! the annotations are *typed RAII guards* (the paper's Fig. 10 C++
//! classes, in Rust): [`PmcCtx::scope_x`] / [`PmcCtx::scope_ro`] (plus
//! `_stream` variants) return [`crate::scope::XScope`] /
//! [`crate::scope::RoScope`] guards that are the only way to read, write
//! or transfer the guarded object — `Drop` performs the exit, so scopes
//! can no longer be left open or unbalanced, and reads outside a scope
//! no longer compile. (The pre-guard `entry_x`/`exit_x` wrappers and the
//! closure-based free functions kept for one transition release are
//! gone; the monitor's forged-trace tests cover the raw protocol.)
//!
//! | annotation | uncached ("no CC") | SWCC | DSM | SPM | held by |
//! |---|---|---|---|---|---|
//! | `scope_x` open  | lock | lock + invalidate lines | lock + await replica version | lock + copy SDRAM→SPM | `entry` |
//! | `scope_x` close | unlock | flush lines + unlock | broadcast replica + bump version + unlock | copy SPM→SDRAM + unlock | `exit` + `publish` |
//! | `scope_ro` open | lock if >1 byte | lock if >1 byte | lock + await version if >1 byte | (lock while) copy SDRAM→SPM | `entry` |
//! | `scope_ro` close| unlock if locked | flush lines + unlock if locked | unlock if locked | discard SPM copy | `exit` + `publish` |
//! | `fence`    | compiler-only (in-order core) | compiler-only | compiler-only | compiler-only | [`PmcCtx::fence`] |
//! | `flush`    | no-op | flush lines | broadcast replica + bump version | copy SPM→SDRAM | `publish` |
//!
//! Each row is written once: `entry` and `exit` serve both scope kinds,
//! and `publish` pushes a scope's writes home for `flush`, the exits and
//! a `dma_put` whose engine transfer is null (every back-end but SPM).
//! The conditions that vary by back-end (dirty, streaming, object size,
//! SPM's lock only while copying) make the rows code, not step lists.

use std::cell::RefCell;

use pmc_soc_sim::trace::{span_begin, span_end, span_kind};
use pmc_soc_sim::{addr, Cpu, DmaDescriptor, DmaDir, DmaKind, DmaSeg};

use crate::pod::{with_buf, Pod};
use crate::spm::StagingAlloc;
use crate::system::{BackendKind, PrivSlab, Shared, DMA_DONE_OFFSET};

/// Trace-event kinds (recorded when the simulator's `trace` flag is on).
///
/// `ENTRY_X` / `ENTRY_RO` carry flag bits in `value`: bit 0 = the scope
/// holds the object's lock, bit 1 = the scope is *streaming* (no eager
/// staging; the application moves data explicitly with `dma_get` /
/// `dma_put`). The DMA events encode their operands as
/// `addr = object id`, `len = byte length`,
/// `value = byte_offset << 32 | channel << 28 | per-channel sequence
/// number` (`DMA_WAIT`: `value = channel << 28 | sequence number`).
/// Scatter/gather transfers emit one event per contiguous range, all
/// carrying the same channel and sequence number.
pub mod trace_kind {
    pub(crate) const ENTRY_X: u16 = 1;
    pub(crate) const EXIT_X: u16 = 2;
    pub(crate) const ENTRY_RO: u16 = 3;
    pub(crate) const EXIT_RO: u16 = 4;
    pub(crate) const FLUSH: u16 = 5;
    pub(crate) const FENCE: u16 = 6;
    pub(crate) const READ: u16 = 7;
    pub(crate) const WRITE: u16 = 8;
    pub(crate) const DMA_GET: u16 = 9;
    pub(crate) const DMA_PUT: u16 = 10;
    pub(crate) const DMA_WAIT: u16 = 11;
    /// Bulk read via `read_bytes_at`: `addr` = object id, `len` = byte
    /// length, `value` = byte offset. Range-checked by the monitor (no
    /// value tracking — bulk payloads carry no per-chunk history).
    pub(crate) const READ_BLOCK: u16 = 12;
    /// Synchronous word-copy fill of a streaming scope
    /// (`stage_in_words`): same operand encoding as `READ_BLOCK`;
    /// defines the range for the monitor's coverage tracking.
    pub(crate) const STAGE_IN: u16 = 13;
    /// Source half of a local-to-local `dma_copy` (`addr` = source
    /// object id; operands encoded like `DMA_GET`). The engine reads the
    /// range lazily, so writes to it before the wait are hazards.
    pub(crate) const DMA_COPY_SRC: u16 = 14;
    /// Destination half of a local-to-local `dma_copy` (`addr` =
    /// destination object id). The engine writes the range lazily, so
    /// any access before the wait is a hazard; the completed copy
    /// defines the range in a streaming destination scope.
    pub(crate) const DMA_COPY_DST: u16 = 15;
}

/// Transfers' channel/sequence trace encoding: `chan << 28 | seq` in the
/// low word — a 4-bit channel field and 2^28 transfers per channel per
/// run.
pub(crate) const TRACE_SEQ_BITS: u32 = 28;
pub(crate) const TRACE_SEQ_MASK: u32 = (1 << TRACE_SEQ_BITS) - 1;
/// Most channels the runtime protocol supports: as many as the trace
/// encoding's channel field holds. Enforced where the count is
/// configured.
pub(crate) const MAX_DMA_CHANNELS: usize = 1 << (32 - TRACE_SEQ_BITS);

/// The `(object, channel, sequence)` identity of one programmed
/// transfer — the payload of a [`DmaTicket`](crate::scope::DmaTicket).
/// Each engine *channel* completes its transfers in issue order, so
/// waiting on a ticket also completes every earlier transfer issued by
/// the same tile **on the same channel**; transfers on other channels
/// stay in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TicketCore {
    pub(crate) obj: u32,
    pub(crate) chan: u32,
    pub(crate) seq: u32,
}

/// Objects up to this size are read atomically without a lock in
/// read-only scopes. The paper's Table II uses "one byte" (the model's
/// indivisible unit); on the MicroBlaze — and in this simulator, where
/// NoC packets and word accesses apply atomically — naturally aligned
/// words are indivisible too, which is what the paper's Fig. 9 FIFO
/// relies on when it polls its `int` pointers from local memory.
pub(crate) const ATOMIC_ACCESS_SIZE: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScopeKind {
    X,
    Ro,
}

#[derive(Debug, Clone, Copy)]
struct OpenScope {
    obj: u32,
    kind: ScopeKind,
    dirty: bool,
    locked: bool,
    /// Streaming scope: no eager staging; the application transfers data
    /// explicitly with `dma_get` / `dma_put`.
    streaming: bool,
    /// SPM staging offset (SPM back-end only).
    spm_off: u32,
    /// Committed version observed at entry (DSM back-end only).
    version: u32,
}

/// The mutable per-core state behind the [`PmcCtx`] cell: the simulated
/// core plus the runtime's scope/transfer bookkeeping. Everything the
/// guards touch lives here, so any number of open scope guards can share
/// one `&PmcCtx` while each call still gets exclusive access for its
/// duration.
pub(crate) struct CtxInner<'a, 'b> {
    pub(crate) cpu: &'a mut Cpu<'b>,
    scopes: Vec<OpenScope>,
    /// SPM staging arena (non-LIFO; see [`crate::spm::StagingAlloc`]).
    spm: StagingAlloc,
    /// Outstanding transfers per object: `(object id, ticket)`. A
    /// `dma_copy` contributes one entry per endpoint object.
    /// Closing a scope waits for the object's entries before giving
    /// up access; `dma_wait` retires everything its ticket completes.
    pending_dma: Vec<(u32, TicketCore)>,
    /// Round-robin cursor for channel assignment.
    next_chan: u32,
    /// Scratch bytes reused by every DSM commit, SPM staging copy and
    /// synchronous `dma_copy`: it grows to the largest object once, so
    /// those copies stop allocating after the first.
    scratch: Vec<u8>,
    /// Scatter/gather list reused by every transfer's descriptor.
    segs: Vec<DmaSeg>,
}

/// Per-core PMC context: the annotation API plus typed data access.
///
/// The context itself is handed to the tile program as `&mut PmcCtx`;
/// opening a scope ([`PmcCtx::scope_x`], [`PmcCtx::scope_ro`]) borrows
/// it *shared*, so any number of scope guards — and the
/// [`DmaTicket`](crate::scope::DmaTicket)s they issue — can be live at
/// once (the double-buffered prefetch pattern).
pub struct PmcCtx<'a, 'b> {
    pub(crate) shared: &'a Shared,
    pub(crate) inner: RefCell<CtxInner<'a, 'b>>,
}

impl<'a, 'b> PmcCtx<'a, 'b> {
    pub(crate) fn new(cpu: &'a mut Cpu<'b>, shared: &'a Shared) -> Self {
        let spm = StagingAlloc::new(shared.spm_base, shared.spm_end, shared.line);
        PmcCtx {
            shared,
            inner: RefCell::new(CtxInner {
                cpu,
                scopes: Vec::new(),
                spm,
                pending_dma: Vec::new(),
                next_chan: 0,
                scratch: Vec::new(),
                segs: Vec::new(),
            }),
        }
    }

    /// Model computation: `instrs` instructions of pure work.
    pub fn compute(&self, instrs: u64) {
        self.inner.borrow_mut().cpu.compute(instrs);
    }

    /// Run `f` against the simulated core (counters, raw time, atomics —
    /// the escape hatch the ticket dispenser and barrier use). Shared
    /// `&self` access, so it works while scope guards are open.
    pub fn with_cpu<R>(&self, f: impl FnOnce(&mut Cpu<'_>) -> R) -> R {
        f(self.inner.borrow_mut().cpu)
    }

    /// `fence()`: the PMC fence annotation. The simulated core is
    /// in-order (like the MicroBlaze), so no instructions are emitted —
    /// the fence constrains the *compiler*, which here means a Rust
    /// compiler fence (paper Table II, fence row).
    pub fn fence(&self) {
        let inner = &mut *self.inner.borrow_mut();
        inner.cpu.fence();
        inner.cpu.trace_event(trace_kind::FENCE, 0, 0, 0);
    }

    pub(crate) fn assert_quiescent(&self) {
        let inner = self.inner.borrow();
        assert!(
            inner.scopes.is_empty(),
            "tile {} finished with {} open entry/exit scopes",
            inner.cpu.tile(),
            inner.scopes.len()
        );
    }

    // ==================================================================
    // Private (per-core) data: plain cached accesses, no annotations —
    // exactly like stack/heap data on the real platform.
    // ==================================================================

    pub fn priv_read<T: Pod>(&self, slab: &PrivSlab<T>, i: u32) -> T {
        assert!(i < slab.len);
        with_buf(T::SIZE, |buf| {
            let cpu = &mut *self.inner.borrow_mut().cpu;
            chunked_read(cpu, self.shared.line, slab.addr + i * T::SIZE, buf);
            T::from_bytes(buf)
        })
    }
}

/// The `(byte offset, bytes)` range of `count` elements of `elem_size`
/// bytes from element `first`, or `None` unless it lies within
/// `size_bytes`. Checked arithmetic: a request past the end cannot wrap
/// around to a range that passes.
pub(crate) fn checked_range(
    first: u32,
    count: u32,
    elem_size: u32,
    size_bytes: u32,
) -> Option<(u32, u32)> {
    let off = first.checked_mul(elem_size)?;
    let bytes = count.checked_mul(elem_size)?;
    (off.checked_add(bytes)? <= size_bytes).then_some((off, bytes))
}

/// The scatter/gather row list of a strided 2-D transfer: `rows` rows of
/// `row_elems` elements, row `r` starting at element
/// `first + r * stride_elems`, bounds-checked against the object's
/// `size_bytes`.
pub(crate) fn ranges_2d(
    size_bytes: u32,
    elem_size: u32,
    first: u32,
    row_elems: u32,
    rows: u32,
    stride_elems: u32,
) -> impl Iterator<Item = (u32, u32)> + Clone {
    assert!(rows > 0 && row_elems > 0, "empty 2-D transfer");
    assert!(stride_elems >= row_elems, "2-D rows must not overlap");
    let (off, _) = ((rows - 1).checked_mul(stride_elems))
        .and_then(|s| s.checked_add(row_elems))
        .and_then(|span| checked_range(first, span, elem_size, size_bytes))
        .expect("2-D transfer range out of bounds");
    // In bounds, so no row offset below can overflow.
    (0..rows).map(move |r| (off + r * stride_elems * elem_size, row_elems * elem_size))
}

impl<'a, 'b> CtxInner<'a, 'b> {
    fn find_scope(&self, id: u32) -> Option<usize> {
        self.scopes.iter().rposition(|s| s.obj == id)
    }

    // ==================================================================
    // The six annotations (paper Section V-A).
    // ==================================================================

    /// Open a scope of `kind` on object `id` — `entry_x` / `entry_ro`
    /// (Table II rows 1 and 3).
    pub(crate) fn entry(&mut self, sh: &Shared, id: u32, kind: ScopeKind, streaming: bool) {
        assert!(self.find_scope(id).is_none(), "nested scope on one object");
        let exclusive = kind == ScopeKind::X;
        let (span, record) = match kind {
            ScopeKind::X => (span_kind::SCOPE_X, trace_kind::ENTRY_X),
            ScopeKind::Ro => (span_kind::SCOPE_RO, trace_kind::ENTRY_RO),
        };
        // The telemetry span covers the whole scope lifetime, entry cost
        // (lock wait, staging) included — begin before acquisition.
        self.cpu.trace_event(span_begin(span), id, 0, 0);
        let meta = sh.meta(id);
        // "When the size of the object is one byte, [entry_ro] does
        // nothing. Otherwise, it acquires the same lock on the object as
        // entry_x" (Table II). Streaming scopes lock unconditionally
        // (even word-sized objects): the lock pins a stable snapshot for
        // asynchronous gets and keeps the scope visible to the monitor.
        let locked = exclusive || meta.size > ATOMIC_ACCESS_SIZE || streaming;
        if locked {
            meta.lock.acquire(self.cpu, exclusive);
        }
        let mut scope = OpenScope {
            obj: id,
            kind,
            dirty: false,
            locked,
            streaming,
            spm_off: u32::MAX,
            version: 0,
        };
        match sh.backend {
            BackendKind::Uncached => {}
            BackendKind::Swcc => {
                // Ensure the first read misses and refetches the
                // just-released version from SDRAM.
                if exclusive {
                    let base = addr::SDRAM_CACHED_BASE + meta.sdram_off;
                    self.cpu.invalidate_dcache_range(base, meta.size);
                }
            }
            BackendKind::Dsm => {
                if locked {
                    scope.version = self.dsm_await_version(meta.version_off, meta.dsm_off);
                }
            }
            BackendKind::Spm if streaming => scope.spm_off = self.spm.alloc(meta.size),
            BackendKind::Spm => {
                scope.spm_off = self.spm_stage_in(meta.sdram_off, meta.size);
                // "Makes a local copy of the object. If the object is
                // larger than one byte, the object is locked before
                // copying and unlocked afterwards."
                if !exclusive && locked {
                    meta.lock.release(self.cpu, false);
                    scope.locked = false;
                }
            }
        }
        let flags = scope.locked as u64 | (streaming as u64) << 1;
        self.scopes.push(scope);
        self.cpu.trace_event(record, id, 0, flags);
    }

    /// Close the open scope on object `id` — `exit_x` / `exit_ro`
    /// (Table II rows 2 and 4).
    pub(crate) fn exit(&mut self, sh: &Shared, id: u32) {
        let idx = self.find_scope(id).expect("exit without a matching entry");
        // Closing implies completion of outstanding transfers: wait
        // before any write-back, unlock or discard of the local view so
        // the released state is whole.
        self.wait_pending_for(id);
        let scope = self.scopes[idx];
        let exclusive = scope.kind == ScopeKind::X;
        let (span, record) = match scope.kind {
            ScopeKind::X => (span_kind::SCOPE_X, trace_kind::EXIT_X),
            ScopeKind::Ro => (span_kind::SCOPE_RO, trace_kind::EXIT_RO),
        };
        self.cpu.trace_event(record, id, 0, 0);
        let meta = sh.meta(id);
        let publish = match sh.backend {
            BackendKind::Uncached => false,
            // The object never resides in the cache outside a scope:
            // dirty data reaches SDRAM before the lock is released, and
            // two consecutive read-only scopes fetch from background
            // memory twice — the cost the paper's Section VI-A discusses.
            BackendKind::Swcc => true,
            BackendKind::Dsm => scope.dirty,
            // Streaming scopes publish via dma_put (already waited);
            // copying the whole staging area back would clobber
            // untouched ranges with undefined bytes.
            BackendKind::Spm => scope.dirty && !scope.streaming,
        };
        if publish {
            self.publish(sh, idx, [(0, meta.size)]);
        }
        self.scopes.remove(idx);
        if sh.backend == BackendKind::Spm {
            self.spm.free(scope.spm_off, meta.size); // discard the local copy
        }
        if scope.locked {
            meta.lock.release(self.cpu, exclusive);
        }
        self.cpu.trace_event(span_end(span), id, 0, 0);
    }

    pub(crate) fn flush_id(&mut self, sh: &Shared, id: u32) {
        let idx = self.find_scope(id).expect("flush outside any scope");
        let scope = self.scopes[idx];
        assert_eq!(scope.kind, ScopeKind::X, "flush is only allowed inside an exclusive scope");
        // A whole-object flush on a streaming scope would copy the
        // mostly-undefined staging area home on SPM — publish streaming
        // writes with `dma_put` instead (forbidden on every back-end so
        // streaming code stays portable; the monitor flags it too).
        assert!(!scope.streaming, "flush is undefined on streaming scopes — use dma_put");
        // Record before the publish, like `exit`: the back-end work makes
        // the flushed values remotely visible (posted DSM broadcasts can
        // be delivered mid-flush), so the commit record must not postdate
        // any remote read of them.
        self.cpu.trace_event(trace_kind::FLUSH, id, 0, 0);
        self.publish(sh, idx, [(0, sh.meta(id).size)]);
    }

    /// Push the writes of the open scope `idx` in `ranges` (`(byte
    /// offset, bytes)` pairs) to the object's home — the `flush` row, the
    /// exits' write-back and a put without an engine transfer.
    fn publish(&mut self, sh: &Shared, idx: usize, ranges: impl IntoIterator<Item = (u32, u32)>) {
        let scope = self.scopes[idx];
        let meta = sh.meta(scope.obj);
        match sh.backend {
            BackendKind::Uncached => {} // writes are already in SDRAM
            BackendKind::Swcc => {
                for (byte_off, bytes) in ranges {
                    let base = addr::SDRAM_CACHED_BASE + meta.sdram_off;
                    self.cpu.flush_dcache_range(base + byte_off, bytes);
                }
            }
            BackendKind::Dsm => {
                // The replica is committed whole, whatever the ranges.
                let v = scope.version + 1;
                self.dsm_commit(meta.version_off, meta.dsm_off, meta.size, v);
                self.scopes[idx].version = v;
                self.scopes[idx].dirty = false;
            }
            BackendKind::Spm => {
                for (byte_off, bytes) in ranges {
                    let sdram_off = meta.sdram_off + byte_off;
                    self.spm_stage_out(scope.spm_off + byte_off, sdram_off, bytes);
                }
            }
        }
    }

    // ==================================================================
    // Asynchronous bulk transfers (DMA).
    //
    // Ordering semantics come from the annotation model: a transfer may
    // only be issued inside the owning scope (puts need exclusive
    // access), `dma_wait` completes every transfer up to its ticket on
    // this tile's channel, and closing a scope implies completion of the
    // scope's outstanding transfers. `monitor::validate` enforces all of
    // this on traces, including that no in-scope access touches a range
    // with an in-flight transfer.
    // ==================================================================

    /// Round-robin channel assignment for the next transfer.
    fn pick_chan(&mut self) -> u32 {
        let chan = self.next_chan % self.cpu.config().dma_channels as u32;
        self.next_chan = self.next_chan.wrapping_add(1);
        chan
    }

    /// Program a transfer of `kind` with scatter/gather list `segs`
    /// (empty: a null transfer, completion word only) on channel `chan`,
    /// returning its sequence number. The descriptor's list is the reused
    /// `self.segs`, so issuing allocates nothing once it has grown.
    fn issue(
        &mut self,
        sh: &Shared,
        chan: u32,
        kind: DmaKind,
        segs: impl Iterator<Item = DmaSeg>,
    ) -> u32 {
        let mut desc = DmaDescriptor {
            kind,
            segs: std::mem::take(&mut self.segs),
            burst: sh.dma_burst,
            done_offset: DMA_DONE_OFFSET + 4 * chan,
        };
        desc.segs.clear();
        desc.segs.extend(segs);
        let seq = self.cpu.dma_issue(chan as usize, &desc);
        self.segs = desc.segs;
        seq
    }

    fn trace_seq(chan: u32, seq: u32) -> u64 {
        assert!(
            (chan as usize) < MAX_DMA_CHANNELS && seq <= TRACE_SEQ_MASK,
            "trace encoding exhausted"
        );
        u64::from(chan << TRACE_SEQ_BITS | seq)
    }

    /// `ranges` are `(byte_offset, bytes)` pairs within the object — the
    /// scatter/gather element list of one transfer, checked by the guard.
    pub(crate) fn dma_xfer_ranges(
        &mut self,
        sh: &Shared,
        id: u32,
        ranges: impl Iterator<Item = (u32, u32)> + Clone,
        dir: DmaDir,
    ) -> TicketCore {
        let idx = self
            .find_scope(id)
            .expect("DMA transfer of a shared object outside any entry/exit scope");
        if dir == DmaDir::Put {
            assert_eq!(
                self.scopes[idx].kind,
                ScopeKind::X,
                "dma_put requires exclusive access (an XScope)"
            );
        }
        let meta = sh.meta(id);
        // Only SPM stages: elsewhere the transfer is null (completion
        // word only).
        let staged = sh.backend == BackendKind::Spm;
        let spm_off = self.scopes[idx].spm_off;
        let segs = ranges.clone().filter(|_| staged).map(|(byte_off, bytes)| DmaSeg {
            far_offset: meta.sdram_off + byte_off,
            local_offset: spm_off + byte_off,
            bytes,
        });
        let chan = self.pick_chan();
        let seq = self.issue(sh, chan, DmaKind::Sdram(dir), segs);
        let ticket = TicketCore { obj: id, chan, seq };
        self.pending_dma.push((id, ticket));
        let kind = match dir {
            DmaDir::Get => trace_kind::DMA_GET,
            DmaDir::Put => trace_kind::DMA_PUT,
        };
        for (byte_off, bytes) in ranges.clone() {
            self.cpu.trace_event(
                kind,
                id,
                bytes,
                u64::from(byte_off) << 32 | Self::trace_seq(chan, seq),
            );
        }
        // A put is a targeted push towards global visibility: back-ends
        // without a physical bulk path (a null engine transfer) reach the
        // same state the way their `flush` does. Publish *after* the
        // commit records, like `flush` and `exit`: posted DSM broadcasts
        // can be delivered to remote readers mid-publish, and those reads
        // must not predate the commit record. The publish completes
        // before this call returns, so the null transfer the ticket
        // tracks still implies the data is home.
        if dir == DmaDir::Put && sh.backend != BackendKind::Spm {
            self.publish(sh, idx, ranges);
        }
        ticket
    }

    /// Asynchronous local-to-local copy between the open scopes on
    /// `src_id` and `dst_id` (exclusive), without a round trip through
    /// the objects' SDRAM homes. The guard has checked both ranges.
    pub(crate) fn dma_copy_range(
        &mut self,
        sh: &Shared,
        src_id: u32,
        src_off: u32,
        dst_id: u32,
        dst_off: u32,
        bytes: u32,
    ) -> TicketCore {
        assert_ne!(src_id, dst_id, "dma_copy endpoints must be distinct objects");
        let sidx = self.find_scope(src_id).expect("dma_copy source outside any entry/exit scope");
        let didx =
            self.find_scope(dst_id).expect("dma_copy destination outside any entry/exit scope");
        assert_eq!(
            self.scopes[didx].kind,
            ScopeKind::X,
            "dma_copy destination requires exclusive access (an XScope)"
        );
        self.scopes[didx].dirty = true;
        let chan = self.pick_chan();
        let seq = match sh.backend {
            BackendKind::Spm => {
                // Both staging areas live in this tile's local memory:
                // a zero-hop local-to-local engine transfer.
                let seg = DmaSeg {
                    far_offset: self.scopes[didx].spm_off + dst_off,
                    local_offset: self.scopes[sidx].spm_off + src_off,
                    bytes,
                };
                let kind = DmaKind::Copy { dst_tile: self.cpu.tile() };
                self.issue(sh, chan, kind, std::iter::once(seg))
            }
            _ => {
                // No staging copies: move the bytes between the scope
                // views synchronously (performing at issue is one of the
                // placements the floating transfer window allows), then
                // track completion with a null transfer.
                let src_scope = self.scopes[sidx];
                let dst_scope = self.scopes[didx];
                let src_base = self.data_addr(sh, src_id, &src_scope) + src_off;
                let dst_base = self.data_addr(sh, dst_id, &dst_scope) + dst_off;
                let buf = scratch(&mut self.scratch, bytes);
                match sh.backend {
                    BackendKind::Swcc => {
                        chunked_read(self.cpu, sh.line, src_base, buf);
                        chunked_write(self.cpu, sh.line, dst_base, buf);
                    }
                    _ => {
                        self.cpu.read_block(src_base, buf);
                        self.cpu.write_block(dst_base, buf);
                    }
                }
                self.issue(sh, chan, DmaKind::Sdram(DmaDir::Get), std::iter::empty())
            }
        };
        self.pending_dma.push((src_id, TicketCore { obj: src_id, chan, seq }));
        let ticket_dst = TicketCore { obj: dst_id, chan, seq };
        self.pending_dma.push((dst_id, ticket_dst));
        let encoded = |off: u32| u64::from(off) << 32 | Self::trace_seq(chan, seq);
        self.cpu.trace_event(trace_kind::DMA_COPY_SRC, src_id, bytes, encoded(src_off));
        self.cpu.trace_event(trace_kind::DMA_COPY_DST, dst_id, bytes, encoded(dst_off));
        ticket_dst
    }

    /// Block until every transfer up to `ticket` has completed on its
    /// channel (channels are FIFO; other channels are unaffected) — an
    /// *event wait* on the channel's completion word: the core sleeps
    /// until the engine's completion write lands instead of polling
    /// ([`pmc_soc_sim::Cpu::dma_event_wait`]).
    pub(crate) fn dma_wait_core(&mut self, ticket: TicketCore) {
        self.cpu.trace_event(
            trace_kind::DMA_WAIT,
            ticket.obj,
            0,
            Self::trace_seq(ticket.chan, ticket.seq),
        );
        let done = DMA_DONE_OFFSET + 4 * ticket.chan;
        self.cpu.trace_event(span_begin(span_kind::DMA_WAIT), done, 0, 0);
        self.cpu.dma_event_wait(done, ticket.seq);
        self.cpu.trace_event(span_end(span_kind::DMA_WAIT), done, 0, 0);
        self.pending_dma.retain(|(_, t)| t.chan != ticket.chan || t.seq > ticket.seq);
    }

    /// Wait every outstanding transfer touching object `id` (the
    /// close-implies-completion rule).
    fn wait_pending_for(&mut self, id: u32) {
        while let Some(&(_, t)) = self.pending_dma.iter().find(|(o, _)| *o == id) {
            self.dma_wait_core(t);
        }
    }

    /// Synchronous word-at-a-time fill of a streaming scope's local view
    /// — the software copy loop a core without a DMA engine runs (one
    /// load plus one store per word, each a full memory transaction).
    /// The `fig_dma` harness uses it as the baseline DMA bursts are
    /// measured against; on back-ends without a staging copy it is a
    /// no-op, like the null transfer.
    pub(crate) fn stage_in_words_id(&mut self, sh: &Shared, id: u32, byte_off: u32, bytes: u32) {
        let idx =
            self.find_scope(id).expect("staging of a shared object outside any entry/exit scope");
        // The fill defines the range on every back-end (coverage for the
        // monitor), even where no bytes physically move.
        self.cpu.trace_event(trace_kind::STAGE_IN, id, bytes, u64::from(byte_off));
        if sh.backend != BackendKind::Spm {
            return;
        }
        let meta = sh.meta(id);
        let sdram = addr::SDRAM_UNCACHED_BASE + meta.sdram_off + byte_off;
        let local = addr::local_base(self.cpu.tile()) + self.scopes[idx].spm_off + byte_off;
        let mut off = 0u32;
        while off < bytes {
            let n = (bytes - off).min(4) as usize;
            let mut word = [0u8; 4];
            self.cpu.read(sdram + off, &mut word[..n]);
            self.cpu.write(local + off, &word[..n]);
            off += 4;
        }
    }

    // ==================================================================
    // Back-end helpers.
    // ==================================================================

    /// DSM: wait until the own replica has caught up with the committed
    /// version (the write-only NoC delivers it eventually), returning the
    /// version. Local polling only — the DSM property the paper
    /// highlights for the FIFO.
    fn dsm_await_version(&mut self, version_off: u32, dsm_off: u32) -> u32 {
        let committed = self.cpu.read_u32(addr::SDRAM_UNCACHED_BASE + version_off);
        let hdr = addr::local_base(self.cpu.tile()) + dsm_off;
        loop {
            let have = self.cpu.read_u32(hdr);
            if have >= committed {
                return committed.max(have);
            }
            self.cpu.compute(8);
        }
    }

    /// DSM: commit the local replica — stamp the new version locally,
    /// broadcast header+payload to every other tile (posted writes), then
    /// publish the committed version.
    fn dsm_commit(&mut self, version_off: u32, dsm_off: u32, size: u32, new_version: u32) {
        let me = self.cpu.tile();
        let hdr = addr::local_base(me) + dsm_off;
        self.cpu.write_u32(hdr, new_version);
        let buf = scratch(&mut self.scratch, size);
        self.cpu.read_block(hdr + 4, buf);
        let n_tiles = self.cpu.n_tiles();
        for t in 0..n_tiles {
            if t != me {
                // Versioned: a replica never rolls back even when
                // broadcasts from different writers race in the NoC.
                self.cpu.noc_write_versioned(t, dsm_off, new_version, buf);
            }
        }
        self.cpu.write_u32(addr::SDRAM_UNCACHED_BASE + version_off, new_version);
    }

    /// SPM: stage an object into the local scratch-pad; returns the SPM
    /// offset.
    fn spm_stage_in(&mut self, sdram_off: u32, size: u32) -> u32 {
        let spm_off = self.spm.alloc(size);
        let buf = scratch(&mut self.scratch, size);
        self.cpu.read_block(addr::SDRAM_UNCACHED_BASE + sdram_off, buf);
        self.cpu.write_block(addr::local_base(self.cpu.tile()) + spm_off, buf);
        spm_off
    }

    /// SPM: write a staged object back to its SDRAM home.
    fn spm_stage_out(&mut self, spm_off: u32, sdram_off: u32, size: u32) {
        let buf = scratch(&mut self.scratch, size);
        self.cpu.read_block(addr::local_base(self.cpu.tile()) + spm_off, buf);
        self.cpu.write_block(addr::SDRAM_UNCACHED_BASE + sdram_off, buf);
    }

    /// Where object bytes live for this core *right now* (scope-aware).
    fn data_addr(&self, sh: &Shared, id: u32, scope: &OpenScope) -> u32 {
        let meta = sh.meta(id);
        match sh.backend {
            BackendKind::Uncached => addr::SDRAM_UNCACHED_BASE + meta.sdram_off,
            BackendKind::Swcc => addr::SDRAM_CACHED_BASE + meta.sdram_off,
            BackendKind::Dsm => addr::local_base(self.cpu.tile()) + meta.dsm_off + 4,
            BackendKind::Spm => addr::local_base(self.cpu.tile()) + scope.spm_off,
        }
    }

    // ==================================================================
    // Typed data access (must happen inside a scope).
    // ==================================================================

    pub(crate) fn raw_read(&mut self, sh: &Shared, id: u32, byte_off: u32, buf: &mut [u8]) {
        let idx =
            self.find_scope(id).expect("read of a shared object outside any entry/exit scope");
        let scope = self.scopes[idx];
        let base = self.data_addr(sh, id, &scope);
        chunked_read(self.cpu, sh.line, base + byte_off, buf);
        self.trace_access(trace_kind::READ, id, byte_off, buf);
    }

    pub(crate) fn raw_write(&mut self, sh: &Shared, id: u32, byte_off: u32, data: &[u8]) {
        let idx =
            self.find_scope(id).expect("write of a shared object outside any entry/exit scope");
        assert_eq!(
            self.scopes[idx].kind,
            ScopeKind::X,
            "writes require exclusive access (an XScope)"
        );
        let scope = self.scopes[idx];
        let base = self.data_addr(sh, id, &scope);
        chunked_write(self.cpu, sh.line, base + byte_off, data);
        self.scopes[idx].dirty = true;
        self.trace_access(trace_kind::WRITE, id, byte_off, data);
    }

    /// Record a `READ` / `WRITE` of at most 8 bytes with its value
    /// (`len = byte_off << 8 | bytes`); wider accesses carry no value.
    /// The packing holds offsets below 16 MiB: a traced access past that
    /// would alias a lower offset in the monitor, so it panics instead.
    fn trace_access(&mut self, kind: u16, id: u32, byte_off: u32, bytes: &[u8]) {
        if bytes.len() <= 8 && self.cpu.config().trace {
            assert!(
                byte_off < 1 << 24,
                "traced access at byte offset {byte_off:#x} of object {id}: the trace packs word \
                 offsets below 16 MiB (1 << 24)"
            );
            let mut v = [0u8; 8];
            v[..bytes.len()].copy_from_slice(bytes);
            let len = byte_off << 8 | bytes.len() as u32;
            self.cpu.trace_event(kind, id, len, u64::from_le_bytes(v));
        }
    }

    /// Bulk read of `buf.len()` bytes at `byte_off` within the object
    /// (inside a scope). On local-memory and uncached back-ends this is
    /// a single burst transfer; on cached back-ends it is the usual
    /// word-copy loop. Traced as a `READ_BLOCK` event so the monitor
    /// range-checks it against in-flight transfers and streaming-scope
    /// coverage — the bulk path is exactly what streaming kernels read
    /// with.
    pub(crate) fn read_bytes_id(&mut self, sh: &Shared, id: u32, byte_off: u32, buf: &mut [u8]) {
        let idx =
            self.find_scope(id).expect("read of a shared object outside any entry/exit scope");
        let scope = self.scopes[idx];
        let base = self.data_addr(sh, id, &scope) + byte_off;
        match sh.backend {
            BackendKind::Swcc => chunked_read(self.cpu, sh.line, base, buf),
            _ => self.cpu.read_block(base, buf),
        }
        self.cpu.trace_event(trace_kind::READ_BLOCK, id, buf.len() as u32, u64::from(byte_off));
    }
}

/// The first `len` bytes of the reused scratch buffer `buf`, which grows
/// (zero-filled) when shorter. Every caller overwrites them before use.
fn scratch(buf: &mut Vec<u8>, len: u32) -> &mut [u8] {
    let len = len as usize;
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// Split an access at cache-line and word boundaries (the compiler's
/// word-copy loop on the real core).
fn chunked_read(cpu: &mut Cpu, line: u32, addr: u32, buf: &mut [u8]) {
    let mut off = 0usize;
    while off < buf.len() {
        let a = addr + off as u32;
        let to_line = (line - (a % line)) as usize;
        let n = (buf.len() - off).min(8).min(to_line);
        cpu.read(a, &mut buf[off..off + n]);
        off += n;
    }
}

fn chunked_write(cpu: &mut Cpu, line: u32, addr: u32, data: &[u8]) {
    let mut off = 0usize;
    while off < data.len() {
        let a = addr + off as u32;
        let to_line = (line - (a % line)) as usize;
        let n = (data.len() - off).min(8).min(to_line);
        cpu.write(a, &data[off..off + n]);
        off += n;
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;

    /// Streaming get/wait/read and write/put round-trips on every
    /// back-end: the same code, the same results — written against the
    /// scope guards.
    #[test]
    fn dma_stream_roundtrip_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
            let src = sys.alloc_slab::<u32>("src", 64);
            let dst = sys.alloc_slab::<u32>("dst", 64);
            for i in 0..64 {
                sys.init_at(src, i, i * 7 + 1);
            }
            sys.run(vec![
                Box::new(move |ctx| {
                    let s = ctx.scope_ro_stream(src.obj());
                    s.dma_get(0, 64).wait();
                    let d = ctx.scope_x_stream(dst.obj());
                    for i in 0..64 {
                        let v: u32 = s.read_at(i);
                        d.write_at(i, v * 2);
                    }
                    d.dma_put(0, 64).wait();
                    d.close();
                    s.close();
                }),
                Box::new(|_ctx| {}),
            ]);
            for i in 0..64 {
                assert_eq!(sys.read_back_at(dst, i), (i * 7 + 1) * 2, "{backend:?} elem {i}");
            }
        }
    }

    /// Closing a scope implies completion: an unwaited put is finished
    /// before the lock is released, so the next holder observes the data.
    #[test]
    fn close_waits_outstanding_puts() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
            let slab = sys.alloc_slab::<u32>("s", 256);
            sys.run(vec![
                Box::new(move |ctx| {
                    let s = ctx.scope_x_stream(slab.obj());
                    for i in 0..256 {
                        s.write_at(i, 0xBEEF + i);
                    }
                    let _unwaited = s.dma_put(0, 256);
                    s.close(); // no explicit wait: close completes it
                }),
                Box::new(move |ctx| {
                    ctx.compute(50);
                    // Whoever enters second must see a whole state: all
                    // old or all new. Spin until the writer's state.
                    let mut backoff = 32;
                    loop {
                        let s = ctx.scope_x(slab.obj());
                        let v: u32 = s.read_at(255);
                        if v == 0xBEEF + 255 {
                            assert_eq!(s.read_at(0), 0xBEEF, "{backend:?}");
                            break;
                        }
                        assert_eq!(v, 0, "{backend:?}: torn publication");
                        s.close();
                        ctx.compute(backoff);
                        backoff = (backoff * 2).min(512);
                    }
                }),
            ]);
        }
    }

    /// Non-LIFO scope exits (the double-buffered prefetch pattern): the
    /// SPM staging allocator reclaims buried regions once uncovered.
    /// With guards, out-of-order closes are explicit `close()` calls on
    /// independently owned guards.
    #[test]
    fn overlapping_scope_lifetimes_on_spm() {
        let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
        let a = sys.alloc_slab::<u32>("a", 512);
        let b = sys.alloc_slab::<u32>("b", 512);
        let c = sys.alloc_slab::<u32>("c", 512);
        for i in 0..512 {
            sys.init_at(a, i, i);
            sys.init_at(b, i, 1000 + i);
            sys.init_at(c, i, 2000 + i);
        }
        sys.run(vec![Box::new(move |ctx| {
            // Open a, then b; close a (buried free), open c (reuses no
            // space yet), close b and c (everything reclaimed).
            let sa = ctx.scope_ro(a.obj());
            let sb = ctx.scope_ro(b.obj());
            assert_eq!(sa.read_at(3), 3);
            sa.close(); // non-LIFO: b is still open
            let sc = ctx.scope_ro(c.obj());
            assert_eq!(sb.read_at(4), 1004);
            assert_eq!(sc.read_at(5), 2005);
            sc.close();
            sb.close();
            // A fresh scope must start from a fully reclaimed arena:
            // repeat a few times — if regions leaked, the arena asserts.
            for _ in 0..200 {
                let _s = ctx.scope_ro(a.obj());
            }
        })]);
    }

    /// A 20 MiB slab on a 64 MiB SDRAM: element 1 and element
    /// `(1 << 22) + 1` lie 16 MiB apart, one more bit than a traced word
    /// offset holds.
    fn access_past_16_mib(trace: bool) {
        let mut cfg = SocConfig::small(1);
        cfg.sdram_size = 64 << 20;
        cfg.trace = trace;
        let mut sys = System::new(cfg, BackendKind::Uncached, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 5 << 20);
        sys.run(vec![Box::new(move |ctx| {
            let x = ctx.scope_x(s.obj());
            x.write_at(1, 7);
            x.write_at((1 << 22) + 1, 9);
            assert_eq!(x.read_at(1), 7);
        })]);
        assert_eq!(sys.read_back_at(s, (1 << 22) + 1), 9);
    }

    /// Traced, the second write would alias element 1's trace chunk and
    /// the monitor would report a stale read of 7 where 9 was "written":
    /// the access is refused instead.
    #[test]
    #[should_panic(expected = "the trace packs word offsets below 16 MiB (1 << 24)")]
    fn traced_access_past_16_mib_is_refused() {
        access_past_16_mib(true);
    }

    /// Untraced, the same program runs: the limit is the trace's alone.
    #[test]
    fn untraced_access_past_16_mib_runs() {
        access_past_16_mib(false);
    }

    /// Ticket semantics are FIFO per channel: waiting a later ticket
    /// completes earlier transfers of the same channel as well.
    #[test]
    fn waiting_a_later_ticket_completes_earlier_transfers() {
        let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
        let a = sys.alloc_slab::<u8>("a", 1024);
        let b = sys.alloc_slab::<u8>("b", 1024);
        for i in 0..1024 {
            sys.init_at(a, i, (i % 251) as u8);
            sys.init_at(b, i, (i % 127) as u8);
        }
        sys.run(vec![Box::new(move |ctx| {
            let sa = ctx.scope_ro_stream(a.obj());
            let sb = ctx.scope_ro_stream(b.obj());
            let _ta = sa.dma_get(0, 1024);
            let tb = sb.dma_get(0, 1024);
            tb.wait(); // completes ta too (single engine channel)
            assert_eq!(sa.read_at(1000), (1000 % 251) as u8);
            assert_eq!(sb.read_at(1000), (1000 % 127) as u8);
            sb.close();
            sa.close();
        })]);
    }
}
