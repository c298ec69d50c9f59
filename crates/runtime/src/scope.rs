//! Typed RAII scope guards — the paper's Fig. 10 C++ `ScopeX` /
//! `ScopeRO` classes, encoded in Rust's type system.
//!
//! [`PmcCtx::scope_x`] / [`PmcCtx::scope_ro`] (and their `_stream`
//! variants) perform the entry annotation and return a guard that is the
//! *only* way to read, write or DMA-transfer the guarded object. The
//! compiler now proves what the trace monitor used to police at run
//! time:
//!
//! * **balanced scopes** — `Drop` performs the exit, so a scope cannot
//!   be left open or closed twice; [`XScope::close`] /
//!   [`RoScope::close`] exit explicitly (useful on the SPM back-end,
//!   where the exit can block completing outstanding transfers — during
//!   a panic unwind `Drop` skips the exit instead of touching the
//!   aborting simulator);
//! * **no access outside a scope** — `read`/`write`/`read_at`/
//!   `write_at`/DMA methods live on the guards, not the context;
//! * **no writes under read-only access** — the write side exists only
//!   on [`XScope`];
//! * **no lost transfers** — a [`DmaTicket`] is `#[must_use]` (a
//!   silently dropped one is a compiler warning) and borrows the
//!   context, so no handle survives the run. A ticket may *syntactically*
//!   outlive its guard variable (the double-buffered loops move guards
//!   around), which is safe because closing the owning scope first
//!   completes the scope's outstanding transfers before releasing the
//!   lock — waiting such a ticket afterwards is a no-op; the
//!   transfer-vs-scope discipline itself stays dynamically enforced by
//!   the exits and the trace monitor.
//!
//! Guards borrow the context *shared*, so any number may be open at
//! once and may close out of stack order — the double-buffered prefetch
//! idiom:
//!
//! ```
//! use pmc_runtime::{BackendKind, LockKind, System};
//! use pmc_soc_sim::SocConfig;
//!
//! let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
//! let a = sys.alloc_slab::<u32>("a", 16);
//! let b = sys.alloc_slab::<u32>("b", 16);
//! sys.run(vec![Box::new(move |ctx| {
//!     let sa = ctx.scope_ro_stream(a); // task k
//!     let ta = sa.dma_get(0, 16);
//!     let sb = ctx.scope_ro_stream(b); // prefetch task k+1
//!     let tb = sb.dma_get(0, 16);
//!     ta.wait();
//!     let _v: u32 = sa.read_at(3);
//!     sa.close(); // closes before sb: non-LIFO is fine
//!     tb.wait();
//!     let _w: u32 = sb.read_at(5);
//! })]);
//! ```

use crate::ctx::{checked_range, ranges_2d, PmcCtx, ScopeKind, TicketCore};
use crate::pod::{with_buf, Pod};
use crate::system::{Obj, Slab};
use pmc_soc_sim::DmaDir;

impl<T> From<Slab<T>> for Obj<T> {
    /// A slab viewed as one shared object — what the scope annotations
    /// guard (identical to [`Slab::obj`]).
    fn from(s: Slab<T>) -> Self {
        s.obj()
    }
}

/// Handle to an outstanding asynchronous bulk transfer, tied to the
/// context borrow of the scope that issued it — a ticket cannot outlive
/// the run, and the protocol cannot lose track of it: dropping one
/// unwaited is flagged at compile time (`#[must_use]`), and closing the
/// owning scope completes every transfer the ticket tracks (a wait
/// after that close returns immediately — the completion word has
/// already passed the ticket's sequence number).
///
/// Each engine *channel* completes its transfers in issue order, so
/// waiting on a ticket also completes every earlier transfer issued by
/// the same tile **on the same channel**; transfers on other channels
/// stay in flight.
#[must_use = "an unwaited transfer leaves its target range undefined — call wait() or let the \
              owning scope's close complete it"]
pub struct DmaTicket<'s, 'a, 'b> {
    pub(crate) ctx: &'s PmcCtx<'a, 'b>,
    pub(crate) core: TicketCore,
}

impl std::fmt::Debug for DmaTicket<'_, '_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmaTicket")
            .field("obj", &self.core.obj)
            .field("chan", &self.core.chan)
            .field("seq", &self.core.seq)
            .finish()
    }
}

impl DmaTicket<'_, '_, '_> {
    /// Block until every transfer up to this ticket has completed on its
    /// channel, by *sleeping* on the channel's completion word (an event
    /// wait, [`pmc_soc_sim::Cpu::dma_event_wait`] — no busy polling).
    pub fn wait(self) {
        self.ctx.inner.borrow_mut().dma_wait_core(self.core);
    }
}

impl<'a, 'b> PmcCtx<'a, 'b> {
    /// Open an exclusive read/write scope on `obj` (`entry_x`); the
    /// returned guard performs `exit_x` on drop or [`XScope::close`].
    pub fn scope_x<T: Pod>(&self, obj: impl Into<Obj<T>>) -> XScope<'_, 'a, 'b, T> {
        let obj = obj.into();
        self.inner.borrow_mut().entry(self.shared, obj.id, ScopeKind::X, false);
        XScope { ctx: self, obj, open: true }
    }

    /// Streaming variant of [`PmcCtx::scope_x`]: exclusive access
    /// *without* eager staging. On the SPM back-end the staging area is
    /// allocated but not filled — the application moves exactly the
    /// bytes it needs with [`XScope::dma_get`] and publishes its
    /// modifications with [`XScope::dma_put`] (which the close completes
    /// before releasing the lock). Ranges that were neither written nor
    /// covered by a completed get hold undefined bytes; the trace
    /// monitor flags such reads on every back-end, keeping streaming
    /// code portable.
    pub fn scope_x_stream<T: Pod>(&self, obj: impl Into<Obj<T>>) -> XScope<'_, 'a, 'b, T> {
        let obj = obj.into();
        self.inner.borrow_mut().entry(self.shared, obj.id, ScopeKind::X, true);
        XScope { ctx: self, obj, open: true }
    }

    /// Open a non-exclusive read-only scope on `obj` (`entry_ro`); the
    /// returned guard performs `exit_ro` on drop or [`RoScope::close`].
    ///
    /// A temporary guard gives the paper's momentary poll idiom in one
    /// expression: `ctx.scope_ro(flag).read()`.
    pub fn scope_ro<T: Pod>(&self, obj: impl Into<Obj<T>>) -> RoScope<'_, 'a, 'b, T> {
        let obj = obj.into();
        self.inner.borrow_mut().entry(self.shared, obj.id, ScopeKind::Ro, false);
        RoScope { ctx: self, obj, open: true }
    }

    /// Streaming variant of [`PmcCtx::scope_ro`]: no eager staging copy.
    /// On the SPM back-end the staging area is allocated empty and the
    /// shared lock is held for the whole scope, so asynchronous
    /// [`RoScope::dma_get`]s observe a consistent snapshot; reads are
    /// only defined on ranges a completed get covers.
    pub fn scope_ro_stream<T: Pod>(&self, obj: impl Into<Obj<T>>) -> RoScope<'_, 'a, 'b, T> {
        let obj = obj.into();
        self.inner.borrow_mut().entry(self.shared, obj.id, ScopeKind::Ro, true);
        RoScope { ctx: self, obj, open: true }
    }
}

/// Either kind of open scope guard — the source operand of
/// [`XScope::dma_copy_from`] / [`XScope::copy_obj_from`].
pub trait SrcScope<T>: sealed::Sealed {
    #[doc(hidden)]
    fn src_id(&self) -> u32;
    #[doc(hidden)]
    fn src_ctx(&self) -> *const ();
}

mod sealed {
    pub trait Sealed {}
    impl<T: crate::pod::Pod> Sealed for super::RoScope<'_, '_, '_, T> {}
    impl<T: crate::pod::Pod> Sealed for super::XScope<'_, '_, '_, T> {}
}

macro_rules! scope_common {
    ($Guard:ident) => {
        impl<'s, 'a, 'b, T: Pod> $Guard<'s, 'a, 'b, T> {
            /// Element count of the guarded object (1 for plain objects,
            /// the slab length for slabs — never 0).
            #[allow(clippy::len_without_is_empty)]
            pub fn len(&self) -> u32 {
                self.ctx.shared.meta(self.obj.id).size / T::SIZE
            }

            /// The byte range of `count` elements from element `first`;
            /// panics with `msg` unless it lies within the object.
            fn elems(&self, first: u32, count: u32, msg: &str) -> (u32, u32) {
                checked_range(first, count, T::SIZE, self.len() * T::SIZE).expect(msg)
            }

            /// Close the scope explicitly (the exit annotation). On the
            /// SPM back-end this can block: the exit completes the
            /// scope's outstanding transfers before releasing the lock.
            /// Equivalent to dropping the guard, but panic-free cleanup
            /// aside, an explicit close documents *where* the release
            /// happens — which matters for non-LIFO (double-buffered)
            /// scope lifetimes.
            pub fn close(mut self) {
                self.open = false;
                self.ctx.inner.borrow_mut().exit(self.ctx.shared, self.obj.id);
            }

            /// Read the whole value (element 0 for slabs).
            pub fn read(&self) -> T {
                with_buf(T::SIZE, |buf| {
                    self.ctx.inner.borrow_mut().raw_read(self.ctx.shared, self.obj.id, 0, buf);
                    T::from_bytes(buf)
                })
            }

            /// Read element `i`.
            pub fn read_at(&self, i: u32) -> T {
                assert!(i < self.len(), "read_at out of bounds");
                with_buf(T::SIZE, |buf| {
                    self.ctx.inner.borrow_mut().raw_read(
                        self.ctx.shared,
                        self.obj.id,
                        i * T::SIZE,
                        buf,
                    );
                    T::from_bytes(buf)
                })
            }

            /// Bulk read of `buf.len()` bytes at `byte_off`. On
            /// local-memory and uncached back-ends this is a single burst
            /// transfer; on cached back-ends the usual word-copy loop.
            /// Traced as `READ_BLOCK`, so the monitor range-checks it
            /// against in-flight transfers and streaming coverage.
            pub fn read_bytes_at(&self, byte_off: u32, buf: &mut [u8]) {
                let len = u32::try_from(buf.len()).unwrap_or(u32::MAX);
                checked_range(byte_off, len, 1, self.len() * T::SIZE)
                    .expect("bulk read out of bounds");
                self.ctx.inner.borrow_mut().read_bytes_id(
                    self.ctx.shared,
                    self.obj.id,
                    byte_off,
                    buf,
                );
            }

            /// Issue an asynchronous *get*: refresh `count` elements of
            /// the scope's local view, starting at element `first`, from
            /// the object's home. Reads of the range are undefined until
            /// the ticket is waited. On SPM this is a real engine
            /// transfer into the staging area; on back-ends whose scope
            /// view needs no copy it degenerates to a null transfer with
            /// identical ticket semantics (one uniform programming cost,
            /// same protocol).
            pub fn dma_get(&self, first: u32, count: u32) -> DmaTicket<'s, 'a, 'b> {
                let range = self.elems(first, count, "dma_get range out of bounds");
                let core = self.ctx.inner.borrow_mut().dma_xfer_ranges(
                    self.ctx.shared,
                    self.obj.id,
                    std::iter::once(range),
                    DmaDir::Get,
                );
                DmaTicket { ctx: self.ctx, core }
            }

            /// Strided 2-D get: `rows` rows of `row_elems` elements each,
            /// row `r` starting at element `first + r * stride_elems` —
            /// the motion-estimation window / volume-slice shape. One
            /// engine descriptor (a scatter/gather element list), one
            /// ticket.
            pub fn dma_get_2d(
                &self,
                first: u32,
                row_elems: u32,
                rows: u32,
                stride_elems: u32,
            ) -> DmaTicket<'s, 'a, 'b> {
                let ranges =
                    ranges_2d(self.len() * T::SIZE, T::SIZE, first, row_elems, rows, stride_elems);
                let core = self.ctx.inner.borrow_mut().dma_xfer_ranges(
                    self.ctx.shared,
                    self.obj.id,
                    ranges,
                    DmaDir::Get,
                );
                DmaTicket { ctx: self.ctx, core }
            }

            /// Whole-object get.
            pub fn dma_get_all(&self) -> DmaTicket<'s, 'a, 'b> {
                self.dma_get(0, self.len())
            }

            /// Synchronous word-at-a-time fill of a streaming scope's
            /// local view — the software copy loop a core without a DMA
            /// engine runs (the baseline `fig_dma` measures bursts
            /// against). Defines the range for the monitor's coverage
            /// tracking on every back-end.
            pub fn stage_in_words(&self, first: u32, count: u32) {
                let (off, bytes) = self.elems(first, count, "stage_in_words range out of bounds");
                self.ctx.inner.borrow_mut().stage_in_words_id(
                    self.ctx.shared,
                    self.obj.id,
                    off,
                    bytes,
                );
            }
        }

        impl<T: Pod> SrcScope<T> for $Guard<'_, '_, '_, T> {
            fn src_id(&self) -> u32 {
                self.obj.id
            }
            fn src_ctx(&self) -> *const () {
                self.ctx as *const PmcCtx as *const ()
            }
        }

        impl<T: Pod> Drop for $Guard<'_, '_, '_, T> {
            fn drop(&mut self) {
                if !self.open {
                    return;
                }
                // During a panic unwind the simulator is already
                // aborting; performing the exit (which may yield to the
                // scheduler or wait on outstanding transfers) could
                // double-panic.
                // The abort protocol tears the run down regardless.
                if std::thread::panicking() {
                    return;
                }
                self.ctx.inner.borrow_mut().exit(self.ctx.shared, self.obj.id);
            }
        }
    };
}

/// Exclusive read/write access to one shared object: the `entry_x` /
/// `exit_x` pair as a typed RAII guard. Created by [`PmcCtx::scope_x`] /
/// [`PmcCtx::scope_x_stream`]; dropping (or [`XScope::close`]) performs
/// the exit — write-back, broadcast or flush per the back-end, after
/// completing the scope's outstanding transfers.
pub struct XScope<'s, 'a, 'b, T: Pod> {
    ctx: &'s PmcCtx<'a, 'b>,
    obj: Obj<T>,
    open: bool,
}

/// Non-exclusive read-only access to one shared object: the `entry_ro` /
/// `exit_ro` pair as a typed RAII guard. Any number of read-only scopes
/// may overlap across tiles; the guard has no write methods, so
/// "read-only" is a compile-time fact.
pub struct RoScope<'s, 'a, 'b, T: Pod> {
    ctx: &'s PmcCtx<'a, 'b>,
    obj: Obj<T>,
    open: bool,
}

scope_common!(XScope);
scope_common!(RoScope);

impl<'s, 'a, 'b, T: Pod> XScope<'s, 'a, 'b, T> {
    /// Write the whole value (element 0 for slabs).
    pub fn write(&self, value: T) {
        with_buf(T::SIZE, |buf| {
            value.to_bytes(buf);
            self.ctx.inner.borrow_mut().raw_write(self.ctx.shared, self.obj.id, 0, buf);
        });
    }

    /// Write element `i`.
    pub fn write_at(&self, i: u32, value: T) {
        assert!(i < self.len(), "write_at out of bounds");
        with_buf(T::SIZE, |buf| {
            value.to_bytes(buf);
            self.ctx.inner.borrow_mut().raw_write(self.ctx.shared, self.obj.id, i * T::SIZE, buf);
        });
    }

    /// `flush`: force this scope's modifications towards global
    /// visibility (best effort — the paper's Fig. 6 line 8). Undefined
    /// on streaming scopes (publish with [`XScope::dma_put`] instead).
    pub fn flush(&self) {
        self.ctx.inner.borrow_mut().flush_id(self.ctx.shared, self.obj.id);
    }

    /// Issue an asynchronous *put*: push `count` elements of the scope's
    /// local view (starting at `first`) towards the object's home. The
    /// home bytes are defined once the ticket is waited; the scope's
    /// close waits automatically.
    pub fn dma_put(&self, first: u32, count: u32) -> DmaTicket<'s, 'a, 'b> {
        let range = self.elems(first, count, "dma_put range out of bounds");
        let core = self.ctx.inner.borrow_mut().dma_xfer_ranges(
            self.ctx.shared,
            self.obj.id,
            std::iter::once(range),
            DmaDir::Put,
        );
        DmaTicket { ctx: self.ctx, core }
    }

    /// Strided 2-D put (see [`RoScope::dma_get_2d`] for the shape).
    pub fn dma_put_2d(
        &self,
        first: u32,
        row_elems: u32,
        rows: u32,
        stride_elems: u32,
    ) -> DmaTicket<'s, 'a, 'b> {
        let ranges = ranges_2d(self.len() * T::SIZE, T::SIZE, first, row_elems, rows, stride_elems);
        let core = self.ctx.inner.borrow_mut().dma_xfer_ranges(
            self.ctx.shared,
            self.obj.id,
            ranges,
            DmaDir::Put,
        );
        DmaTicket { ctx: self.ctx, core }
    }

    /// Whole-object put.
    pub(crate) fn dma_put_all(&self) -> DmaTicket<'s, 'a, 'b> {
        self.dma_put(0, self.len())
    }

    /// Asynchronous local-to-local copy: move `count` elements from
    /// `src`'s local view (starting at `src_first`) into this scope's
    /// view (starting at `dst_first`), without a round trip through the
    /// objects' SDRAM homes. The source may be either scope kind; the
    /// destination is this exclusive scope. On the SPM back-end this is
    /// an engine transfer between the two staging areas; elsewhere the
    /// views are moved directly and a null transfer carries the ticket.
    /// The destination range is undefined until the ticket is waited;
    /// streaming destination scopes must still publish the copied range
    /// with [`XScope::dma_put`] before closing.
    pub fn dma_copy_from<S: SrcScope<T>>(
        &self,
        src: &S,
        src_first: u32,
        dst_first: u32,
        count: u32,
    ) -> DmaTicket<'s, 'a, 'b> {
        assert!(
            std::ptr::eq(src.src_ctx(), self.ctx as *const PmcCtx as *const ()),
            "dma_copy endpoints must be scopes of the same context"
        );
        let src_size = self.ctx.shared.meta(src.src_id()).size;
        let (src_off, bytes) = checked_range(src_first, count, T::SIZE, src_size)
            .expect("dma_copy source outside the object");
        let (dst_off, _) = self.elems(dst_first, count, "dma_copy destination outside the object");
        let core = self.ctx.inner.borrow_mut().dma_copy_range(
            self.ctx.shared,
            src.src_id(),
            src_off,
            self.obj.id,
            dst_off,
            bytes,
        );
        DmaTicket { ctx: self.ctx, core }
    }

    /// Whole-object local-to-local copy (see [`XScope::dma_copy_from`]).
    pub fn copy_obj_from<S: SrcScope<T>>(&self, src: &S) -> DmaTicket<'s, 'a, 'b> {
        self.dma_copy_from(src, 0, 0, self.len())
    }
}

#[cfg(test)]
mod tests {
    use crate::monitor::validate;
    use crate::system::{BackendKind, LockKind, Slab, System};
    use crate::PmcCtx;
    use pmc_soc_sim::SocConfig;

    fn traced_cfg(n: usize) -> SocConfig {
        let mut cfg = SocConfig::small(n);
        cfg.trace = true;
        cfg
    }

    /// Guard-based message passing (paper Fig. 6) is clean on every
    /// back-end: implicit drops and temporary guards produce exactly the
    /// annotation protocol the monitor demands.
    #[test]
    fn guard_message_passing_validates_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(2), backend, LockKind::Sdram);
            let x = sys.alloc::<u32>("X");
            let f = sys.alloc::<u32>("flag");
            sys.init(x, 0);
            sys.init(f, 0);
            sys.run(vec![
                Box::new(move |ctx| {
                    ctx.scope_x(x).write(42); // temporary guard: write then exit
                    ctx.fence();
                    let fs = ctx.scope_x(f);
                    fs.write(1);
                    fs.flush();
                }),
                Box::new(move |ctx| {
                    let mut backoff = 8;
                    while ctx.scope_ro(f).read() != 1 {
                        ctx.compute(backoff);
                        backoff = (backoff * 2).min(512);
                    }
                    ctx.fence();
                    let r = ctx.scope_x(x).read();
                    assert_eq!(r, 42, "{backend:?}: annotated MP must read 42");
                }),
            ]);
            let trace = sys.soc().take_trace();
            assert!(!trace.is_empty());
            let violations = validate(&trace);
            assert!(violations.is_empty(), "{backend:?}: {violations:#?}");
        }
    }

    /// An implicitly dropped guard exits its scope: the runtime ends the
    /// run quiescent and the trace pairs every entry with an exit.
    #[test]
    fn dropping_a_guard_exits_the_scope() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Spm, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 8);
        sys.run(vec![Box::new(move |ctx| {
            {
                let g = ctx.scope_x(s);
                g.write_at(3, 99);
            } // drop = exit_x
            let v = ctx.scope_ro(s).read_at(3);
            assert_eq!(v, 99);
        })]);
        let trace = sys.soc().take_trace();
        assert!(validate(&trace).is_empty());
        use crate::ctx::trace_kind as k;
        let entries = trace.iter().filter(|r| r.kind == k::ENTRY_X || r.kind == k::ENTRY_RO);
        let exits = trace.iter().filter(|r| r.kind == k::EXIT_X || r.kind == k::EXIT_RO);
        assert_eq!(entries.count(), exits.count(), "every entry is paired by Drop");
    }

    /// Local-to-local copies through guards: the typed source/destination
    /// pair round-trips on every back-end with a clean trace.
    #[test]
    fn guard_copy_roundtrip_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(1), backend, LockKind::Sdram);
            let src = sys.alloc_slab::<u32>("src", 16);
            let dst = sys.alloc_slab::<u32>("dst", 16);
            for i in 0..16 {
                sys.init_at(src, i, 100 + i);
            }
            sys.run(vec![Box::new(move |ctx| {
                let s = ctx.scope_ro_stream(src);
                s.dma_get(0, 16).wait();
                let d = ctx.scope_x_stream(dst);
                d.dma_copy_from(&s, 4, 0, 8).wait();
                d.dma_put(0, 8).wait();
                d.close();
                s.close();
            })]);
            assert!(validate(&sys.soc().take_trace()).is_empty(), "{backend:?}");
            for i in 0..8 {
                assert_eq!(sys.read_back_at(dst, i), 104 + i, "{backend:?} elem {i}");
            }
        }
    }

    /// Runs `f` on one SPM tile with two adjacent 16-element slabs: a
    /// request that names elements past the end of the second one must
    /// panic with its guard's message, not wrap around to the start of
    /// the address space and land in the first.
    fn out_of_range(f: impl FnOnce(&PmcCtx<'_, '_>, Slab<u32>, Slab<u32>)) {
        let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
        let a = sys.alloc_slab::<u32>("a", 16);
        let b = sys.alloc_slab::<u32>("b", 16);
        sys.run(vec![Box::new(move |ctx| f(ctx, a, b))]);
    }

    #[test]
    #[should_panic(expected = "dma_get range out of bounds")]
    fn dma_get_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| ctx.scope_ro_stream(b).dma_get(u32::MAX, 2).wait());
    }

    #[test]
    #[should_panic(expected = "2-D transfer range out of bounds")]
    fn dma_get_2d_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| ctx.scope_ro_stream(b).dma_get_2d(u32::MAX, 1, 1, 1).wait());
    }

    #[test]
    #[should_panic(expected = "stage_in_words range out of bounds")]
    fn stage_in_words_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| ctx.scope_ro_stream(b).stage_in_words(u32::MAX, 2));
    }

    #[test]
    #[should_panic(expected = "bulk read out of bounds")]
    fn read_bytes_at_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| {
            ctx.scope_ro_stream(b).read_bytes_at(u32::MAX - 3, &mut [0u8; 8]);
        });
    }

    #[test]
    #[should_panic(expected = "dma_put range out of bounds")]
    fn dma_put_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| ctx.scope_x_stream(b).dma_put(u32::MAX, 2).wait());
    }

    #[test]
    #[should_panic(expected = "2-D transfer range out of bounds")]
    fn dma_put_2d_rejects_a_wrapping_range() {
        out_of_range(|ctx, _, b| ctx.scope_x_stream(b).dma_put_2d(u32::MAX, 1, 1, 1).wait());
    }

    #[test]
    #[should_panic(expected = "dma_copy source outside the object")]
    fn dma_copy_from_rejects_a_wrapping_range() {
        out_of_range(|ctx, a, b| {
            let src = ctx.scope_ro_stream(b);
            ctx.scope_x_stream(a).dma_copy_from(&src, 1 << 30, 0, 1).wait();
        });
    }

    /// Waiting a later ticket on the *same* channel wakes on the earlier
    /// completion first: the spurious wakeup is counted, never lost.
    #[test]
    fn same_channel_wait_counts_spurious_wakeups() {
        let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
        let a = sys.alloc_slab::<u32>("a", 2048);
        let report = sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(a);
            let _t1 = g.dma_get(0, 1024);
            let t2 = g.dma_get(1024, 1024);
            t2.wait(); // wakes once on t1's completion: spurious
        })]);
        assert!(report.per_core[0].dma_spurious_wakeups >= 1, "{:?}", report.per_core[0]);
    }

    /// The event wait replaces polling: a wait across a long transfer
    /// attributes the blocked time to `stall_dma_wait`, not busy cycles.
    #[test]
    fn waits_sleep_instead_of_polling() {
        let mut sys = System::new(SocConfig::small(1), BackendKind::Spm, LockKind::Sdram);
        let a = sys.alloc_slab::<u32>("a", 8192);
        let report = sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(a);
            g.dma_get(0, 8192).wait();
        })]);
        let c = &report.per_core[0];
        assert!(c.stall_dma_wait > 0, "blocked time must be attributed: {c:?}");
    }
}
