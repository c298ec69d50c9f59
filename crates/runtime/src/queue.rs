//! Work distribution: a fetch-and-add ticket dispenser over uncached
//! SDRAM. The SPLASH-2-style kernels use it as their task queue (the
//! paper's applications use distributed task queues; a ticket dispenser
//! keeps the sharing pattern — one contended counter — without the
//! queue-management noise).

use pmc_soc_sim::addr;

use crate::ctx::PmcCtx;

/// A monotone ticket counter; `take` returns unique, dense tickets.
#[derive(Debug, Clone, Copy)]
pub struct Tickets {
    counter_addr: u32,
}

impl Tickets {
    pub(crate) fn new(off: u32) -> Self {
        Tickets { counter_addr: addr::SDRAM_UNCACHED_BASE + off }
    }

    /// Take the next ticket; returns `None` once `limit` is reached.
    /// Shared `&PmcCtx` access, so it works while scope guards are open
    /// (the double-buffered prefetch loops dispatch mid-scope).
    pub fn take(&self, ctx: &PmcCtx<'_, '_>, limit: u32) -> Option<u32> {
        let t = ctx.with_cpu(|cpu| cpu.sdram_faa_u32(self.counter_addr, 1));
        if t < limit {
            Some(t)
        } else {
            None
        }
    }

    /// Reset between phases (call from one core, behind a barrier).
    pub fn reset(&self, ctx: &PmcCtx<'_, '_>) {
        ctx.with_cpu(|cpu| cpu.write_u32(self.counter_addr, 0));
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tickets_are_unique_and_dense() {
        let n = 4usize;
        let mut sys = System::new(SocConfig::small(n), BackendKind::Uncached, LockKind::Sdram);
        let tickets = sys.alloc_ticket();
        let taken = AtomicU64::new(0);
        let taken_ref = &taken;
        sys.run(
            (0..n)
                .map(|_| -> crate::Program<'_> {
                    Box::new(move |ctx| {
                        while let Some(t) = tickets.take(ctx, 64) {
                            // Record the ticket as a bit; duplicates would
                            // collide.
                            let bit = 1u64 << t;
                            let prev = taken_ref.fetch_or(bit, Ordering::Relaxed);
                            assert_eq!(prev & bit, 0, "duplicate ticket {t}");
                            ctx.compute(50);
                        }
                    })
                })
                .collect(),
        );
        assert_eq!(taken.load(Ordering::Relaxed), u64::MAX, "all 64 tickets issued");
    }
}
