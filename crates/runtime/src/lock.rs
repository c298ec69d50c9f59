//! Mutual-exclusion primitives on the simulated machine.
//!
//! Two implementations back the PMC `entry_x`/`exit_x` annotations:
//!
//! * [`SdramLock`] — a test-and-test-and-set lock on a word of uncached
//!   SDRAM using the core's LWX/SWX-style compare-and-swap, with
//!   exponential back-off. Simple, but every poll loads the shared
//!   interconnect.
//! * [`DistLock`] — the *asymmetric distributed lock* in the spirit of the
//!   authors' companion paper \[15\]: the lock byte lives in a *home tile*'s
//!   local memory; the home tile acquires with a single-cycle local
//!   test-and-set, while remote tiles issue a NoC remote test-and-set and
//!   poll their **own** local-memory mailbox for the reply. Waiters
//!   therefore spin without generating interconnect or SDRAM traffic —
//!   the asymmetry the paper exploits.

use pmc_soc_sim::trace::{span_begin, span_end, span_kind};
use pmc_soc_sim::{addr, Cpu};

/// Back-off bounds for lock retry loops (cycles).
const BACKOFF_MIN: u64 = 16;
const BACKOFF_MAX: u64 = 1024;

/// A lock usable from any tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lock {
    Sdram(SdramLock),
    Dist(DistLock),
}

impl Lock {
    /// Identity of this lock in telemetry spans (`addr` field of
    /// [`pmc_soc_sim::trace::span_kind::LOCK_ACQUIRE`] /
    /// [`pmc_soc_sim::trace::span_kind::LOCK_HOLD`] records): the lock
    /// word's address (SDRAM) or home-tile offset (distributed).
    fn trace_id(&self) -> u32 {
        match self {
            Lock::Sdram(l) => l.addr,
            Lock::Dist(l) => l.lock_offset,
        }
    }

    /// Exclusive acquisition.
    pub fn lock(&self, cpu: &mut Cpu) {
        self.acquire(cpu, true);
    }

    /// Release an exclusive acquisition.
    pub fn unlock(&self, cpu: &mut Cpu) {
        self.release(cpu, true);
    }

    /// Exclusive or shared (read-only) acquisition. The paper's Table II
    /// says `entry_ro` "acquires the same lock on the object as
    /// `entry_x`"; since the PMC model explicitly permits read-only
    /// access alongside other read-only access (Section IV-E, relaxation
    /// 1), the SDRAM lock implements the shared acquisition as the shared
    /// mode of a reader-writer lock. The distributed lock has no shared
    /// mode and degrades to exclusive.
    pub(crate) fn acquire(&self, cpu: &mut Cpu, exclusive: bool) {
        let id = self.trace_id();
        cpu.trace_event(span_begin(span_kind::LOCK_ACQUIRE), id, 0, 0);
        match self {
            Lock::Sdram(l) => l.acquire(cpu, exclusive),
            Lock::Dist(l) => l.lock(cpu),
        }
        cpu.trace_event(span_end(span_kind::LOCK_ACQUIRE), id, 0, 0);
        cpu.trace_event(span_begin(span_kind::LOCK_HOLD), id, 0, 0);
    }

    /// Release an acquisition made with the same `exclusive`.
    pub(crate) fn release(&self, cpu: &mut Cpu, exclusive: bool) {
        match self {
            Lock::Sdram(l) => l.release(cpu, exclusive),
            Lock::Dist(l) => l.unlock(cpu),
        }
        cpu.trace_event(span_end(span_kind::LOCK_HOLD), self.trace_id(), 0, 0);
    }
}

/// Reader-writer test-and-test-and-set lock on uncached SDRAM. Word
/// layout: bit 31 = writer held, bits 0..31 = reader count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramLock {
    /// Uncached-window address of the lock word.
    pub addr: u32,
}

const WRITER: u32 = 1 << 31;

impl SdramLock {
    /// Exclusive acquisition waits for a free word; shared acquisition
    /// (the multi-byte `entry_ro` path) only for the writer bit, so it is
    /// concurrent with other readers.
    fn acquire(&self, cpu: &mut Cpu, exclusive: bool) {
        let mut backoff = BACKOFF_MIN;
        loop {
            // Test before test-and-set to avoid hammering exclusive pairs.
            let v = cpu.read_u32(self.addr);
            let (free, new) = if exclusive { (v == 0, WRITER) } else { (v & WRITER == 0, v + 1) };
            if free && cpu.sdram_cas_u32(self.addr, v, new) == v {
                return;
            }
            cpu.compute(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }

    fn release(&self, cpu: &mut Cpu, exclusive: bool) {
        if exclusive {
            // Untimed host peek: a simulated `read_u32` here would advance
            // the clock in debug builds only, making debug and release
            // simulate different schedules.
            debug_assert_eq!(
                cpu.peek_sdram_u32(self.addr),
                WRITER,
                "unlock of a non-write-held lock"
            );
            cpu.write_u32(self.addr, 0);
        } else {
            // Fetch-and-add of -1 on the reader count.
            let old = cpu.sdram_faa_u32(self.addr, u32::MAX);
            debug_assert!(old & !WRITER > 0, "shared release without readers");
        }
    }
}

/// Asymmetric distributed lock (\[15\]-style; see DESIGN.md substitutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistLock {
    /// Tile whose local memory holds the lock byte.
    pub home: usize,
    /// Offset of the lock byte in the home tile's local memory.
    pub lock_offset: u32,
    /// Offset of each tile's private reply mailbox (one u32 per lock) in
    /// its *own* local memory.
    pub mailbox_offset: u32,
}

impl DistLock {
    pub fn lock(&self, cpu: &mut Cpu) {
        let mut backoff = BACKOFF_MIN;
        if cpu.tile() == self.home {
            // Owner fast path: single-cycle local test-and-set.
            while cpu.local_test_and_set(self.lock_offset) != 0 {
                cpu.compute(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
            return;
        }
        let mailbox = addr::local_base(cpu.tile()) + self.mailbox_offset;
        loop {
            // Clear the mailbox, fire the remote TAS, poll locally.
            cpu.write_u32(mailbox, 0);
            cpu.noc_test_and_set(self.home, self.lock_offset, self.mailbox_offset);
            let mut reply;
            loop {
                reply = cpu.read_u32(mailbox);
                if reply & 0x0100 != 0 {
                    break;
                }
                cpu.compute(8);
            }
            if reply & 0xff == 0 {
                return; // we observed 0 -> we hold the lock
            }
            cpu.compute(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }

    pub fn unlock(&self, cpu: &mut Cpu) {
        if cpu.tile() == self.home {
            let base = addr::local_base(self.home);
            cpu.write_u8(base + self.lock_offset, 0);
        } else {
            cpu.noc_write(self.home, self.lock_offset, &[0u8]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_soc_sim::{addr::SDRAM_UNCACHED_BASE, CoreProgram, Soc, SocConfig};

    /// N tiles increment a plain (non-atomic) counter under the lock;
    /// the result is exact iff mutual exclusion held.
    fn hammer(make_lock: impl Fn() -> Lock, n_tiles: usize, iters: u32) -> u32 {
        let soc = Soc::new(SocConfig::small(n_tiles));
        let counter = SDRAM_UNCACHED_BASE + 4096;
        let programs: Vec<CoreProgram<'_>> = (0..n_tiles)
            .map(|_| -> CoreProgram<'_> {
                let lock = make_lock();
                Box::new(move |cpu: &mut Cpu| {
                    for _ in 0..iters {
                        lock.lock(cpu);
                        let v = cpu.read_u32(counter);
                        cpu.compute(20); // widen the race window
                        cpu.write_u32(counter, v + 1);
                        lock.unlock(cpu);
                    }
                })
            })
            .collect();
        soc.run(programs);
        soc.read_sdram_u32(4096)
    }

    #[test]
    fn sdram_lock_mutual_exclusion() {
        let total = hammer(|| Lock::Sdram(SdramLock { addr: SDRAM_UNCACHED_BASE }), 4, 30);
        assert_eq!(total, 120);
    }

    #[test]
    fn dist_lock_mutual_exclusion() {
        let total =
            hammer(|| Lock::Dist(DistLock { home: 1, lock_offset: 0, mailbox_offset: 128 }), 4, 30);
        assert_eq!(total, 120);
    }

    #[test]
    fn dist_lock_home_fast_path_is_cheaper() {
        // Acquire/release from the home tile vs. a remote tile; the home
        // tile must be much cheaper (the asymmetry of [15]).
        let cost = |tile: usize| {
            let soc = Soc::new(SocConfig::small(4));
            let lock = DistLock { home: 0, lock_offset: 0, mailbox_offset: 128 };
            let mut programs: Vec<CoreProgram<'_>> = Vec::new();
            for _t in 0..4 {
                programs.push(Box::new(move |cpu: &mut Cpu| {
                    if cpu.tile() == tile {
                        for _ in 0..50 {
                            lock.lock(cpu);
                            lock.unlock(cpu);
                        }
                    }
                }));
            }
            soc.run(programs).makespan
        };
        let home_cost = cost(0);
        let remote_cost = cost(3);
        assert!(
            home_cost * 3 < remote_cost,
            "home {home_cost} should be ≫ cheaper than remote {remote_cost}"
        );
    }
}
