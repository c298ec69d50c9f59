//! A phase (epoch) barrier over uncached SDRAM, used by the SPLASH-2-style
//! workloads. Arrivals use the core's fetch-and-add; waiters poll the
//! phase word with back-off.

use pmc_soc_sim::addr;
use pmc_soc_sim::trace::{span_begin, span_end, span_kind};

use crate::ctx::PmcCtx;

/// A counting barrier for `n` participants. Allocate via
/// [`crate::system::System::alloc_barrier`]; any number of phases.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    /// Uncached address of the arrival counter.
    pub(crate) count_addr: u32,
    /// Uncached address of the phase word.
    pub(crate) phase_addr: u32,
    pub(crate) n: u32,
}

impl Barrier {
    pub(crate) fn new(count_off: u32, phase_off: u32, n: u32) -> Self {
        Barrier {
            count_addr: addr::SDRAM_UNCACHED_BASE + count_off,
            phase_addr: addr::SDRAM_UNCACHED_BASE + phase_off,
            n,
        }
    }

    /// Wait until all `n` participants arrive.
    pub fn wait(&self, ctx: &PmcCtx<'_, '_>) {
        ctx.with_cpu(|cpu| {
            // The telemetry span is the arrival→release interval; per-tile
            // span lengths give the barrier skew.
            cpu.trace_event(span_begin(span_kind::BARRIER_WAIT), self.count_addr, 0, 0);
            let phase = cpu.read_u32(self.phase_addr);
            let arrived = cpu.sdram_faa_u32(self.count_addr, 1) + 1;
            if arrived == self.n {
                // Last arrival: reset the counter, advance the phase.
                cpu.write_u32(self.count_addr, 0);
                cpu.write_u32(self.phase_addr, phase.wrapping_add(1));
            } else {
                let mut backoff = 32u64;
                while cpu.read_u32(self.phase_addr) == phase {
                    cpu.compute(backoff);
                    backoff = (backoff * 2).min(512);
                }
            }
            cpu.trace_event(span_end(span_kind::BARRIER_WAIT), self.count_addr, 0, 0);
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;

    #[test]
    fn barrier_synchronises_phases() {
        let n = 4usize;
        let mut sys = System::new(SocConfig::small(n), BackendKind::Uncached, LockKind::Sdram);
        let bar = sys.alloc_barrier(n as u32);
        // Each core bumps a per-phase slot; after each barrier, every
        // core must observe all bumps of the phase.
        let slots = sys.alloc_slab::<u32>("slots", n as u32);
        for i in 0..n as u32 {
            sys.init_at(slots, i, 0);
        }
        let phases = 5u32;
        sys.run(
            (0..n)
                .map(|t| -> crate::Program<'_> {
                    Box::new(move |ctx| {
                        for p in 0..phases {
                            {
                                let g = ctx.scope_x(slots);
                                let v = g.read_at(t as u32);
                                g.write_at(t as u32, v + 1);
                            }
                            bar.wait(ctx);
                            // After the barrier, everyone is at phase p+1.
                            let g = ctx.scope_ro(slots);
                            for other in 0..n as u32 {
                                let seen = g.read_at(other);
                                assert!(
                                    seen > p,
                                    "tile {t}: slot {other} at {seen}, expected ≥ {}",
                                    p + 1
                                );
                            }
                            g.close();
                            bar.wait(ctx);
                        }
                    })
                })
                .collect(),
        );
        for i in 0..n as u32 {
            assert_eq!(sys.read_back_at(slots, i), phases);
        }
    }
}
