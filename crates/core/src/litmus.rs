//! A small litmus-test DSL for PMC programs.
//!
//! Programs are a fixed set of threads, each a straight-line sequence of
//! instructions over shared locations and thread-local registers. The
//! enumerator ([`crate::interleave`]) explores every interleaving and
//! every read value the PMC model allows, yielding the set of possible
//! outcomes — the model-level ground truth that the simulator back-ends
//! are validated against.

use crate::op::{LocId, Value};

/// Thread-local register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// One instruction of a litmus thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Write an immediate value to a location.
    Write(LocId, Value),
    /// Read a location into a register (branches over all model-allowed
    /// values).
    Read(LocId, Reg),
    /// Acquire the lock of a location (blocks while held).
    Acquire(LocId),
    /// Release the lock of a location.
    Release(LocId),
    /// Issue a fence.
    Fence,
    /// Busy-wait until the location reads the given value, then continue.
    /// Models `while (v != val) sleep();` under the liveness assumption
    /// that flushed writes eventually become visible (paper
    /// Section IV-D). The enumerator treats it as a read constrained to
    /// return `val`, enabled once the model allows that value.
    WaitEq(LocId, Value),
    /// Asynchronous bulk-transfer (DMA) write: hand `value` to the
    /// platform's DMA engine. The write *performs* at a nondeterministic
    /// point between this instruction and the thread's next [`Instr::DmaWait`]
    /// (the enumerator explores every placement). Runtime mapping:
    /// `ctx.write(..)` staged locally + `ctx.dma_put(..)`.
    DmaPut(LocId, Value),
    /// Asynchronous bulk-transfer read into a register; samples the
    /// location at a nondeterministic point between issue and the next
    /// [`Instr::DmaWait`]. Runtime mapping: `ctx.dma_get(..)` + a read of
    /// the staged bytes after the wait.
    DmaGet(LocId, Reg),
    /// Asynchronous local-to-local copy `DmaCopy(src, dst)`: read `src`
    /// and write the sampled value to `dst`, both at one nondeterministic
    /// point between issue and the thread's next [`Instr::DmaWait`] — the
    /// tile-to-tile transfer that skips the memory-controller round trip.
    /// Runtime mapping: `ctx.dma_copy_obj(src, dst)` /
    /// `ctx.dma_copy_local(..)` under scopes on both endpoints.
    DmaCopy(LocId, LocId),
    /// Block until every outstanding DMA transfer of this thread has
    /// performed (the runtime's `dma_wait` on every unwaited ticket —
    /// engine channels complete in issue order per channel).
    DmaWait,
}

impl Instr {
    /// Whether this instruction issues an asynchronous (two-phase)
    /// transfer.
    pub(crate) fn is_dma_transfer(&self) -> bool {
        matches!(self, Instr::DmaPut(..) | Instr::DmaGet(..) | Instr::DmaCopy(..))
    }
}

/// A litmus program: one instruction list per thread plus initial values.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub threads: Vec<Vec<Instr>>,
    pub init: Vec<(LocId, Value)>,
}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_init(mut self, v: LocId, value: Value) -> Self {
        self.init.push((v, value));
        self
    }

    pub fn thread(mut self, instrs: Vec<Instr>) -> Self {
        self.threads.push(instrs);
        self
    }

    /// Number of registers used by a thread (highest index + 1).
    pub fn reg_count(&self, thread: usize) -> usize {
        self.threads[thread]
            .iter()
            .filter_map(|i| match i {
                Instr::Read(_, Reg(r)) | Instr::DmaGet(_, Reg(r)) => Some(*r as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Catalogue of classic litmus programs expressed in PMC, used by tests
/// and by the mapping-soundness harness.
pub mod catalogue {
    use super::*;
    use crate::op::LocId as L;

    pub(crate) const X: L = L(0);
    pub(crate) const Y: L = L(1);
    pub(crate) const FLAG: L = L(2);
    pub(crate) const ACK: L = L(3);

    /// Paper Fig. 1 / Fig. 5 message passing *without* synchronisation:
    /// P0: X=42; flag=1.  P1: wait flag==1; read X.
    /// PMC allows the stale outcome r0 ∈ {0, 42}.
    pub fn mp_unfenced() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(FLAG, 0)
            .thread(vec![Instr::Write(X, 42), Instr::Write(FLAG, 1)])
            .thread(vec![Instr::WaitEq(FLAG, 1), Instr::Read(X, Reg(0))])
    }

    /// Paper Fig. 6: properly annotated message passing. The only
    /// possible outcome is r0 = 42.
    pub fn mp_annotated() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(FLAG, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 42),
                Instr::Fence,
                Instr::Release(X),
                Instr::Acquire(FLAG),
                Instr::Write(FLAG, 1),
                Instr::Release(FLAG),
            ])
            .thread(vec![
                Instr::WaitEq(FLAG, 1),
                Instr::Fence,
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
            ])
    }

    /// Store buffering (SB): P0: X=1; read Y. P1: Y=1; read X.
    /// PMC (like any model without cross-location ordering) allows
    /// r0 = r1 = 0.
    pub(crate) fn store_buffering() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![Instr::Write(X, 1), Instr::Read(Y, Reg(0))])
            .thread(vec![Instr::Write(Y, 1), Instr::Read(X, Reg(0))])
    }

    /// Coherence (CoRR): one writer, one reader reading the same location
    /// twice. Reading (new, old) must be impossible — Definition 12's
    /// monotonicity.
    pub(crate) fn corr() -> Program {
        Program::new()
            .with_init(X, 0)
            .thread(vec![Instr::Acquire(X), Instr::Write(X, 1), Instr::Release(X)])
            .thread(vec![Instr::Read(X, Reg(0)), Instr::Read(X, Reg(1))])
    }

    /// IRIW (independent reads of independent writes): two writers to
    /// different locations, two readers reading both in opposite orders.
    /// PMC allows the readers to disagree (no global write serialisation
    /// across locations).
    pub fn iriw() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![Instr::Write(X, 1)])
            .thread(vec![Instr::Write(Y, 1)])
            .thread(vec![Instr::Read(X, Reg(0)), Instr::Fence, Instr::Read(Y, Reg(1))])
            .thread(vec![Instr::Read(Y, Reg(0)), Instr::Fence, Instr::Read(X, Reg(1))])
    }

    /// Two critical sections per thread on different locks, no fences:
    /// data-race free, yet *not* sequentially consistent under PMC —
    /// the paper's motivation for requiring fences between
    /// acquire/release pairs of different locations (PMC is weaker than
    /// Entry Consistency, Section IV-E).
    pub fn drf_no_fence_cross_locks() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 1),
                Instr::Release(X),
                Instr::Acquire(Y),
                Instr::Read(Y, Reg(0)),
                Instr::Release(Y),
            ])
            .thread(vec![
                Instr::Acquire(Y),
                Instr::Write(Y, 1),
                Instr::Release(Y),
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
            ])
    }

    /// WRC (write-to-read causality): P0 writes X; P1 reads X and then
    /// writes Y; P2 reads Y then X. Even with fences, PMC's plain reads
    /// carry no global ordering (reads order only locally, `≺ℓ`), so the
    /// causal chain does not transfer: P2 may observe Y = 1 yet still
    /// read the stale X = 0.
    pub(crate) fn wrc() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![Instr::Write(X, 1)])
            .thread(vec![Instr::Read(X, Reg(0)), Instr::Fence, Instr::Write(Y, 1)])
            .thread(vec![Instr::Read(Y, Reg(0)), Instr::Fence, Instr::Read(X, Reg(1))])
    }

    /// WRC with every access annotated (locked) and fences between the
    /// critical sections: the acquire chain transfers causality, so
    /// observing Y = 1 after X = 1 was forwarded forbids the stale read
    /// (no outcome with r0 = 1 on both forwarding reads and r1 = 0).
    pub(crate) fn wrc_annotated() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![Instr::Acquire(X), Instr::Write(X, 1), Instr::Release(X)])
            .thread(vec![
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
                Instr::Fence,
                Instr::Acquire(Y),
                Instr::Write(Y, 1),
                Instr::Release(Y),
            ])
            .thread(vec![
                Instr::Acquire(Y),
                Instr::Read(Y, Reg(0)),
                Instr::Release(Y),
                Instr::Fence,
                Instr::Acquire(X),
                Instr::Read(X, Reg(1)),
                Instr::Release(X),
            ])
    }

    /// DMA message passing: the payload travels as an asynchronous bulk
    /// transfer, completed (`DmaWait`) before the lock is released and the
    /// flag is raised. The annotated reader must observe 42 — the
    /// put-completes-before-release guarantee of the DMA extension.
    pub fn dma_mp_put() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(FLAG, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::DmaPut(X, 42),
                Instr::DmaWait,
                Instr::Fence,
                Instr::Release(X),
                Instr::Acquire(FLAG),
                Instr::Write(FLAG, 1),
                Instr::Release(FLAG),
            ])
            .thread(vec![
                Instr::WaitEq(FLAG, 1),
                Instr::Fence,
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
            ])
    }

    /// Put-after-write overlap: inside one exclusive scope, a plain write
    /// is followed by a DMA put of the same location. The put's bulk
    /// write performs at some point before the wait; an unsynchronised
    /// slow reader may observe 0, 1 or 2, but never backwards.
    pub(crate) fn dma_put_after_write() -> Program {
        Program::new()
            .with_init(X, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 1),
                Instr::DmaPut(X, 2),
                Instr::DmaWait,
                Instr::Release(X),
            ])
            .thread(vec![Instr::Read(X, Reg(0)), Instr::Read(X, Reg(1))])
    }

    /// Wait-before-read: a DMA get under the location's lock, waited
    /// before use, returns the committed value — whichever side won the
    /// lock race (0 or 7), never a torn or stale intermediate.
    pub(crate) fn dma_get_fresh() -> Program {
        Program::new()
            .with_init(X, 0)
            .thread(vec![Instr::Acquire(X), Instr::Write(X, 7), Instr::Release(X)])
            .thread(vec![
                Instr::Acquire(X),
                Instr::DmaGet(X, Reg(0)),
                Instr::DmaWait,
                Instr::Release(X),
            ])
    }

    /// Tile-to-tile message passing: the producer computes X under its
    /// lock, copies it *locally* into Y (the consumer's staging object)
    /// with an asynchronous `DmaCopy`, waits the copy, and only then
    /// releases and raises the flag. The synchronised reader must
    /// observe the copied 42 — the copy-completes-before-release
    /// guarantee of the tile-to-tile extension.
    pub(crate) fn dma_t2t_mp() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .with_init(FLAG, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 42),
                Instr::Acquire(Y),
                Instr::DmaCopy(X, Y),
                Instr::DmaWait,
                Instr::Fence,
                Instr::Release(Y),
                Instr::Release(X),
                Instr::Acquire(FLAG),
                Instr::Write(FLAG, 1),
                Instr::Release(FLAG),
            ])
            .thread(vec![
                Instr::WaitEq(FLAG, 1),
                Instr::Fence,
                Instr::Acquire(Y),
                Instr::Read(Y, Reg(0)),
                Instr::Release(Y),
            ])
    }

    /// Scatter/gather shape: one wait completes a *list* of outstanding
    /// gets on different locations (the engine's element lists). Each
    /// get samples its location under the gathering thread's locks, so
    /// only committed values are observable — but the two samples are
    /// independent of the writer's two separately locked stores.
    pub(crate) fn dma_sg_gather() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 1),
                Instr::Release(X),
                Instr::Acquire(Y),
                Instr::Write(Y, 2),
                Instr::Release(Y),
            ])
            .thread(vec![
                Instr::Acquire(X),
                Instr::Acquire(Y),
                Instr::DmaGet(X, Reg(0)),
                Instr::DmaGet(Y, Reg(1)),
                Instr::DmaWait,
                Instr::Release(Y),
                Instr::Release(X),
            ])
    }

    /// Channel overlap: two puts to different locations are both in
    /// flight until the single wait — on a multi-channel engine they sit
    /// on different channels and may perform in either order, so an
    /// unsynchronised observer may see them in any combination (but the
    /// issuing thread's wait still completes both before the release).
    pub(crate) fn dma_chan_overlap() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Acquire(Y),
                Instr::DmaPut(X, 1),
                Instr::DmaPut(Y, 1),
                Instr::DmaWait,
                Instr::Release(Y),
                Instr::Release(X),
            ])
            .thread(vec![Instr::Read(Y, Reg(0)), Instr::Fence, Instr::Read(X, Reg(1))])
    }

    /// Same as [`drf_no_fence_cross_locks`] but with fences between the
    /// critical sections: recovers the SC-forbidden-outcome guarantee.
    pub fn drf_fenced_cross_locks() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 1),
                Instr::Fence,
                Instr::Release(X),
                Instr::Fence,
                Instr::Acquire(Y),
                Instr::Read(Y, Reg(0)),
                Instr::Release(Y),
            ])
            .thread(vec![
                Instr::Acquire(Y),
                Instr::Write(Y, 1),
                Instr::Fence,
                Instr::Release(Y),
                Instr::Fence,
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
            ])
    }

    /// Mailbox request/reply — the serving subsystem's synchronisation
    /// shape, two annotated message passings chained back-to-back. The
    /// client commits a request payload (X), raises the request flag,
    /// then waits for the ack and reads the reply (Y); the server waits
    /// for the flag, reads the request, commits a fixed reply and raises
    /// the ack. Both directions follow the Fig. 6 idiom, so PMC pins the
    /// round trip completely: the server must read the request value and
    /// the client must read the reply value — a single outcome.
    pub(crate) fn mailbox_request_reply() -> Program {
        Program::new()
            .with_init(X, 0)
            .with_init(Y, 0)
            .with_init(FLAG, 0)
            .with_init(ACK, 0)
            .thread(vec![
                // Client: publish the request …
                Instr::Acquire(X),
                Instr::Write(X, 7),
                Instr::Fence,
                Instr::Release(X),
                Instr::Acquire(FLAG),
                Instr::Write(FLAG, 1),
                Instr::Release(FLAG),
                // … and collect the reply.
                Instr::WaitEq(ACK, 1),
                Instr::Fence,
                Instr::Acquire(Y),
                Instr::Read(Y, Reg(0)),
                Instr::Release(Y),
            ])
            .thread(vec![
                // Server: take the request …
                Instr::WaitEq(FLAG, 1),
                Instr::Fence,
                Instr::Acquire(X),
                Instr::Read(X, Reg(0)),
                Instr::Release(X),
                // … and publish the reply.
                Instr::Acquire(Y),
                Instr::Write(Y, 9),
                Instr::Fence,
                Instr::Release(Y),
                Instr::Acquire(ACK),
                Instr::Write(ACK, 1),
                Instr::Release(ACK),
            ])
    }

    /// Fuzzer-promoted (shrunk from `fuzz::generate` seed `0x3042`,
    /// found diverging on the SPM back-end): a scoped DMA get of a
    /// location the *same scope* already wrote must observe the staged
    /// write, not re-fetch the stale home copy over it. The model pins
    /// `r0 = 1`; the racing bare reader may see 0 or 1.
    pub(crate) fn fuzz_get_sees_own_write() -> Program {
        Program::new()
            .with_init(X, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::Write(X, 1),
                Instr::DmaGet(X, Reg(0)),
                Instr::DmaWait,
                Instr::Release(X),
            ])
            .thread(vec![Instr::Read(X, Reg(0))])
    }

    /// Fuzzer-promoted (shrunk from `fuzz::generate` seed `0x303c`,
    /// found diverging on the uncached back-end): a plain write after a
    /// scoped DMA get of the same location waits for the get's floating
    /// perform, so the get samples the *pre-write* value — 0, or the
    /// competing bare put's 2, but never this thread's own later 2.
    pub(crate) fn fuzz_write_after_get_orders() -> Program {
        Program::new()
            .with_init(X, 0)
            .thread(vec![
                Instr::Acquire(X),
                Instr::DmaGet(X, Reg(0)),
                Instr::Write(X, 2),
                Instr::DmaWait,
                Instr::Release(X),
            ])
            .thread(vec![Instr::DmaPut(X, 2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_count_counts_highest() {
        let p = Program::new()
            .thread(vec![Instr::Read(LocId(0), Reg(2)), Instr::Read(LocId(0), Reg(0))]);
        assert_eq!(p.reg_count(0), 3);
        let p = Program::new().thread(vec![Instr::Fence]);
        assert_eq!(p.reg_count(0), 0);
    }

    #[test]
    fn catalogue_programs_are_well_formed() {
        for p in [
            catalogue::mp_unfenced(),
            catalogue::mp_annotated(),
            catalogue::store_buffering(),
            catalogue::corr(),
            catalogue::iriw(),
            catalogue::wrc(),
            catalogue::wrc_annotated(),
            catalogue::dma_mp_put(),
            catalogue::dma_put_after_write(),
            catalogue::dma_get_fresh(),
            catalogue::dma_t2t_mp(),
            catalogue::dma_sg_gather(),
            catalogue::dma_chan_overlap(),
            catalogue::drf_no_fence_cross_locks(),
            catalogue::drf_fenced_cross_locks(),
            catalogue::mailbox_request_reply(),
            catalogue::fuzz_get_sees_own_write(),
            catalogue::fuzz_write_after_get_orders(),
        ] {
            assert!(!p.threads.is_empty());
            // Acquire/Release balance per thread per location.
            for t in &p.threads {
                let mut depth: std::collections::HashMap<LocId, i32> = Default::default();
                for i in t {
                    match i {
                        Instr::Acquire(v) => *depth.entry(*v).or_default() += 1,
                        Instr::Release(v) => {
                            let d = depth.entry(*v).or_default();
                            *d -= 1;
                            assert!(*d >= 0, "release without acquire");
                        }
                        _ => {}
                    }
                }
                assert!(depth.values().all(|&d| d == 0), "unbalanced acquire/release");
            }
        }
    }
}
