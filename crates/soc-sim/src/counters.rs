//! Micro-architectural event counters, mirroring the measurement support
//! of the paper's platform ("it contains support to measure
//! micro-architectural events, like counting instructions and cache
//! misses") and the stall categories of Fig. 8.

/// What a read stall is attributed to, decided by the region tag of the
/// accessed address (the runtime's allocator tags shared vs. private
/// data; the paper measures shared-read stalls conservatively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTag {
    Private,
    Shared,
}

/// Per-core cycle and event counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Cycles spent executing instructions (one per instruction; the
    /// "core utilization" numerator of Fig. 8).
    pub busy: u64,
    /// Stall cycles on reads of private data (cache miss refills).
    pub stall_priv_read: u64,
    /// Stall cycles on reads of shared data (uncached reads or misses).
    pub stall_shared_read: u64,
    /// Stall cycles on writes (store buffer / write port).
    pub stall_write: u64,
    /// Stall cycles on instruction-cache misses.
    pub stall_icache: u64,
    /// Stall cycles waiting on NoC/local-memory operations (lock
    /// mailboxes, remote transfers). Reported inside shared-read stall in
    /// the Fig. 8 harness, tracked separately for diagnostics.
    pub stall_noc: u64,
    /// Cycles the core slept in an event-based DMA completion wait
    /// ([`crate::soc::Cpu::dma_event_wait`]): blocked until the engine's
    /// completion-word write landed, retiring no instructions.
    pub stall_dma_wait: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Cycles (busy + stall) spent in cache-management instructions —
    /// the paper's "time spent on executing flush instructions".
    pub flush_cycles: u64,
    /// Data-cache hits/misses.
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    /// DMA transfers programmed on this core's engine (completion events
    /// are observable as the engine's done-word updates; per-link NoC
    /// occupancy lives in [`crate::noc::LinkStat`]).
    pub dma_transfers: u64,
    /// Payload bytes moved by those transfers.
    pub dma_bytes: u64,
    /// Event-based DMA completion waits entered
    /// ([`crate::soc::Cpu::dma_event_wait`] /
    /// `crate::soc::Cpu::dma_event_wait_any`).
    pub dma_event_waits: u64,
    /// Wakeups whose completion check still failed — an *earlier*
    /// transfer's completion write fired the per-channel event (the
    /// condvar-broadcast cost of sharing one completion word per
    /// channel).
    pub dma_spurious_wakeups: u64,
}

impl Counters {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.busy
            + self.stall_priv_read
            + self.stall_shared_read
            + self.stall_write
            + self.stall_icache
            + self.stall_noc
            + self.stall_dma_wait
    }

    /// Core utilization: fraction of cycles doing real work.
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.busy as f64 / t as f64
    }

    pub fn add(&mut self, other: &Counters) {
        self.busy += other.busy;
        self.stall_priv_read += other.stall_priv_read;
        self.stall_shared_read += other.stall_shared_read;
        self.stall_write += other.stall_write;
        self.stall_icache += other.stall_icache;
        self.stall_noc += other.stall_noc;
        self.stall_dma_wait += other.stall_dma_wait;
        self.instret += other.instret;
        self.flush_cycles += other.flush_cycles;
        self.dcache_hits += other.dcache_hits;
        self.dcache_misses += other.dcache_misses;
        self.dma_transfers += other.dma_transfers;
        self.dma_bytes += other.dma_bytes;
        self.dma_event_waits += other.dma_event_waits;
        self.dma_spurious_wakeups += other.dma_spurious_wakeups;
    }
}

/// One directed NoC link's occupancy with its endpoints resolved
/// against the configured topology (built by
/// [`crate::soc::Soc::link_report`]; raw per-id stats live in
/// [`crate::noc::LinkStat`]). Only physical links appear — mesh
/// boundary id slots are filtered out — so iterating a report walks the
/// real interconnect regardless of topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Directed link id (topology-specific numbering, see
    /// [`crate::config::Topology`]).
    pub link: usize,
    /// Source tile of the directed link.
    pub from: usize,
    /// Destination tile of the directed link.
    pub to: usize,
    /// Cycles the link spent serialising payloads.
    pub busy: u64,
    /// Bursts routed over the link.
    pub bursts: u64,
}

/// One SDRAM controller port's occupancy (built by
/// `crate::mem::SdramPorts::report`, surfaced as
/// [`crate::soc::Soc::port_report`]): how many cycles and transactions
/// each controller served, in controller-id order. With interleaved
/// multi-controller configurations the spread across entries shows
/// whether the stripes balanced the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortReport {
    /// Controller id (the index into `SocConfig::controllers()`).
    pub ctrl: usize,
    /// The tile the controller's port is attached to.
    pub tile: usize,
    /// Cycles the port spent servicing transactions.
    pub busy: u64,
    /// Transactions the port serviced.
    pub bursts: u64,
}

/// Aggregate counters over all cores plus the run's makespan.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub per_core: Vec<Counters>,
    /// Virtual time when the last core finished.
    pub makespan: u64,
}

impl RunReport {
    pub fn aggregate(&self) -> Counters {
        let mut total = Counters::default();
        for c in &self.per_core {
            total.add(c);
        }
        total
    }

    /// Fraction of total run time spent executing cache-management
    /// instructions (the paper reports 0.66 % / 0.00 % / 0.01 %).
    pub fn flush_overhead(&self) -> f64 {
        let agg = self.aggregate();
        let t = agg.total();
        if t == 0 {
            return 0.0;
        }
        agg.flush_cycles as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_total() {
        let c =
            Counters { busy: 70, stall_shared_read: 20, stall_icache: 10, ..Default::default() };
        assert_eq!(c.total(), 100);
        assert!((c.utilization() - 0.7).abs() < 1e-12);
        assert_eq!(Counters::default().utilization(), 0.0);
    }

    #[test]
    fn aggregate_adds_up() {
        let mut r = RunReport::default();
        r.per_core.push(Counters { busy: 10, instret: 5, ..Default::default() });
        r.per_core.push(Counters { busy: 20, stall_write: 5, ..Default::default() });
        let agg = r.aggregate();
        assert_eq!(agg.busy, 30);
        assert_eq!(agg.instret, 5);
        assert_eq!(agg.total(), 35);
    }

    /// An empty report (no cores ran) aggregates to all-zero counters
    /// and well-defined ratios — no division by zero anywhere.
    #[test]
    fn empty_report_aggregates_to_zero() {
        let r = RunReport::default();
        let agg = r.aggregate();
        assert_eq!(agg.total(), 0);
        assert_eq!(agg.utilization(), 0.0);
        assert_eq!(r.flush_overhead(), 0.0);
        assert_eq!(r.makespan, 0);
    }

    /// A core that only ever stalled has utilization 0 but a non-zero
    /// total; a report mixing it with an idle core still aggregates.
    #[test]
    fn all_stall_core_has_zero_utilization() {
        let c = Counters {
            stall_priv_read: 10,
            stall_shared_read: 20,
            stall_write: 5,
            stall_icache: 5,
            stall_noc: 3,
            stall_dma_wait: 7,
            ..Default::default()
        };
        assert_eq!(c.busy, 0);
        assert_eq!(c.total(), 50);
        assert_eq!(c.utilization(), 0.0);
        let r = RunReport { per_core: vec![c, Counters::default()], makespan: 50 };
        assert_eq!(r.aggregate().total(), 50);
        assert_eq!(r.aggregate().utilization(), 0.0);
    }

    /// `add` covers every field: adding a fully populated counter twice
    /// doubles each field (a new field missed in `add` breaks this).
    #[test]
    fn add_covers_every_field() {
        let one = Counters {
            busy: 1,
            stall_priv_read: 2,
            stall_shared_read: 3,
            stall_write: 4,
            stall_icache: 5,
            stall_noc: 6,
            stall_dma_wait: 7,
            instret: 8,
            flush_cycles: 9,
            dcache_hits: 10,
            dcache_misses: 11,
            dma_transfers: 12,
            dma_bytes: 13,
            dma_event_waits: 14,
            dma_spurious_wakeups: 15,
        };
        let mut doubled = one;
        doubled.add(&one);
        assert_eq!(format!("{:?}", doubled), {
            let two = Counters {
                busy: 2,
                stall_priv_read: 4,
                stall_shared_read: 6,
                stall_write: 8,
                stall_icache: 10,
                stall_noc: 12,
                stall_dma_wait: 14,
                instret: 16,
                flush_cycles: 18,
                dcache_hits: 20,
                dcache_misses: 22,
                dma_transfers: 24,
                dma_bytes: 26,
                dma_event_waits: 28,
                dma_spurious_wakeups: 30,
            };
            format!("{two:?}")
        });
    }
}
