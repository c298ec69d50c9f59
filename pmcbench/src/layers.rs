//! What the traced pass reads off each layer's public reports.
//!
//! Counts come from `EngineStats`, `Counters`, `LinkReport`,
//! `PortReport`, `TelemetryReport` and the annotation trace; they are
//! summed over the cells of one pass and repeat exactly. Host times come
//! from the benchmark-side [`Spans`] of the same pass.

use pmc_soc_sim::telemetry::pair_spans;
use pmc_soc_sim::trace::span_kind;
use pmc_soc_sim::{
    Counters, EngineStats, LinkReport, PortReport, RunReport, TelemetryReport, TraceRecord,
};

use crate::metrics::{Values, SPAN_SUMS};
use crate::spans::Spans;

/// Output checks of a run: how many were made and how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything one simulator run exposes after `System::run` /
/// `Session::litmus` returns. Reports a run type does not expose (a
/// `LitmusRun` has no link, port or engine report) stay empty.
#[derive(Default)]
pub struct Observed {
    pub links: Vec<LinkReport>,
    pub ports: Vec<PortReport>,
    pub engine: Option<EngineStats>,
    pub telemetry: TelemetryReport,
    pub trace: Vec<TraceRecord>,
}

#[derive(Default)]
pub struct Layers {
    // pmc-core
    pub states: u64,
    pub outcomes: u64,
    pub max_case_states: u64,
    // soc-sim
    engine: EngineStats,
    counters: Counters,
    link_busy_total: u64,
    link_busy_max: u64,
    link_bursts: u64,
    max_link_util: f64,
    port_busy_total: u64,
    port_busy_max: u64,
    port_bursts: u64,
    port_util_max: f64,
    telemetry_events: u64,
    telemetry_dropped: u64,
    trace_records: u64,
    // runtime: simulated cycles inside spans, indexed like `SPAN_SUMS`.
    span_cycles: [u64; SPAN_SUMS.len()],
    pub monitor_records: u64,
    /// Workload-specific exact values, already under their metric names.
    pub extra: Values,
}

impl Layers {
    /// Fold one simulator run into the pass totals.
    pub fn absorb(&mut self, report: &RunReport, seen: &Observed) {
        let makespan = report.makespan.max(1) as f64;
        self.counters.add(&report.aggregate());
        if let Some(e) = seen.engine {
            self.engine.events += e.events;
            self.engine.handoffs += e.handoffs;
            self.engine.peak_queue = self.engine.peak_queue.max(e.peak_queue);
        }
        for l in &seen.links {
            self.link_busy_total += l.busy;
            self.link_busy_max = self.link_busy_max.max(l.busy);
            self.link_bursts += l.bursts;
            self.max_link_util = self.max_link_util.max(l.busy as f64 / makespan);
        }
        for p in &seen.ports {
            self.port_busy_total += p.busy;
            self.port_busy_max = self.port_busy_max.max(p.busy);
            self.port_bursts += p.bursts;
            self.port_util_max = self.port_util_max.max(p.busy as f64 / makespan);
        }
        let t = &seen.telemetry;
        self.telemetry_events +=
            (t.per_tile.iter().map(Vec::len).sum::<usize>() + t.system.len()) as u64;
        self.telemetry_dropped += t.dropped;
        self.trace_records += seen.trace.len() as u64;
        // Spans still open when a program ends are left out, as in
        // `MetricsRegistry::from_trace`.
        if let Ok((spans, _open)) = pair_spans(&seen.trace) {
            for s in spans {
                let slot = match s.kind {
                    span_kind::SCOPE_X => 0,
                    span_kind::SCOPE_RO => 1,
                    span_kind::LOCK_ACQUIRE => 2,
                    span_kind::LOCK_HOLD => 3,
                    span_kind::BARRIER_WAIT => 4,
                    span_kind::FIFO_PUSH | span_kind::FIFO_POP => 5,
                    span_kind::DMA_WAIT => 6,
                    _ => continue,
                };
                self.span_cycles[slot] += s.end - s.start;
            }
        }
    }

    /// The per-layer values of this pass under their declared names.
    /// `spans` is the host-time tree of the same pass.
    pub fn values(&self, spans: &Spans) -> Values {
        let mut v = self.extra.clone();
        let mut set = |name: &str, value: f64| {
            v.insert(name.to_string(), value);
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        set("core.interleave.states", self.states as f64);
        set("core.interleave.outcomes", self.outcomes as f64);
        set("core.interleave.states_per_s", ratio(self.states as f64, spans.total_s("enumerate")));
        set(
            "core.interleave.max_case_share",
            ratio(self.max_case_states as f64, self.states as f64),
        );
        set("core.conformance.lower_s", spans.total_s("lower"));

        let run_s = spans.total_s("run");
        set("soc-sim.engine.events", self.engine.events as f64);
        set("soc-sim.engine.handoffs", self.engine.handoffs as f64);
        set("soc-sim.engine.peak_queue", self.engine.peak_queue as f64);
        set("soc-sim.engine.events_per_s", ratio(self.engine.events as f64, run_s));
        set("soc-sim.engine.ns_per_handoff", ratio(run_s * 1e9, self.engine.handoffs as f64));

        let c = &self.counters;
        set("soc-sim.counters.instret", c.instret as f64);
        set("soc-sim.counters.busy", c.busy as f64);
        set("soc-sim.counters.stall_priv_read", c.stall_priv_read as f64);
        set("soc-sim.counters.stall_shared_read", c.stall_shared_read as f64);
        set("soc-sim.counters.stall_write", c.stall_write as f64);
        set("soc-sim.counters.stall_icache", c.stall_icache as f64);
        set("soc-sim.counters.stall_noc", c.stall_noc as f64);
        set("soc-sim.counters.stall_dma_wait", c.stall_dma_wait as f64);
        set("soc-sim.counters.flush_cycles", c.flush_cycles as f64);
        set("soc-sim.counters.utilization", c.utilization());
        set("soc-sim.cache.hits", c.dcache_hits as f64);
        set("soc-sim.cache.misses", c.dcache_misses as f64);
        set(
            "soc-sim.cache.hit_ratio",
            ratio(c.dcache_hits as f64, (c.dcache_hits + c.dcache_misses) as f64),
        );
        set("soc-sim.dma.transfers", c.dma_transfers as f64);
        set("soc-sim.dma.bytes", c.dma_bytes as f64);
        set("soc-sim.dma.event_waits", c.dma_event_waits as f64);
        set("soc-sim.dma.spurious_wakeups", c.dma_spurious_wakeups as f64);

        set("soc-sim.noc.link_busy_total", self.link_busy_total as f64);
        set("soc-sim.noc.link_busy_max", self.link_busy_max as f64);
        set("soc-sim.noc.bursts", self.link_bursts as f64);
        set("soc-sim.noc.max_link_util", self.max_link_util);
        set("soc-sim.mem.port_busy_total", self.port_busy_total as f64);
        set("soc-sim.mem.port_busy_max", self.port_busy_max as f64);
        set("soc-sim.mem.port_bursts", self.port_bursts as f64);
        set("soc-sim.mem.port_util_max", self.port_util_max);

        set("soc-sim.telemetry.events", self.telemetry_events as f64);
        set("soc-sim.telemetry.dropped", self.telemetry_dropped as f64);
        set(
            "soc-sim.telemetry.drop_ratio",
            ratio(
                self.telemetry_dropped as f64,
                (self.telemetry_events + self.telemetry_dropped) as f64,
            ),
        );
        set("soc-sim.telemetry.trace_records", self.trace_records as f64);
        set("soc-sim.telemetry.export_s", spans.total_s("export"));

        for (name, cycles) in SPAN_SUMS.iter().zip(self.span_cycles) {
            set(&format!("runtime.spans.{name}_cycles"), cycles as f64);
        }
        let validate_s = spans.total_s("validate");
        set("runtime.monitor.records", self.monitor_records as f64);
        set("runtime.monitor.validate_s", validate_s);
        set("runtime.monitor.ns_per_record", ratio(validate_s * 1e9, self.monitor_records as f64));

        set("apps.build_s", spans.total_s("build"));
        set("soc-sim.run_s", run_s);
        set("apps.collect_s", spans.total_s("collect"));
        let pass_self = spans
            .all()
            .iter()
            .position(|s| s.parent.is_none())
            .map_or(0, |root| spans.self_ns(root));
        set("bench.self_s", pass_self as f64 / 1e9);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_keep_the_first_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("passing checks render nothing"));
        for i in 0..10 {
            c.check(false, || format!("bad {i}"));
        }
        assert_eq!((c.attempted, c.failed), (11, 10));
        assert_eq!(c.failures.len(), 8);
        assert_eq!(c.failures[0], "bad 0");
    }

    /// Stall classes partition a core's cycles, so the summed classes of
    /// an absorbed report equal its summed totals — accounted in cycles,
    /// never by adding overlapping counts.
    #[test]
    fn absorbed_counters_partition_total_cycles() {
        let core = Counters { busy: 60, stall_write: 25, stall_noc: 15, ..Counters::default() };
        let report = RunReport { per_core: vec![core, core], makespan: 100 };
        let mut l = Layers::default();
        l.absorb(&report, &Observed::default());
        l.absorb(&report, &Observed::default());
        let v = l.values(&Spans::new());
        let classes: f64 = [
            "busy",
            "stall_priv_read",
            "stall_shared_read",
            "stall_write",
            "stall_icache",
            "stall_noc",
            "stall_dma_wait",
        ]
        .iter()
        .map(|c| v[&format!("soc-sim.counters.{c}")])
        .sum();
        assert_eq!(classes, 4.0 * core.total() as f64);
    }

    #[test]
    fn utilisations_are_busiest_resource_over_its_own_makespan() {
        let mut l = Layers::default();
        let seen = Observed {
            links: vec![LinkReport { link: 0, from: 0, to: 1, busy: 50, bursts: 5 }],
            ports: vec![PortReport { ctrl: 0, tile: 0, busy: 80, bursts: 8 }],
            ..Observed::default()
        };
        l.absorb(&RunReport { per_core: vec![], makespan: 100 }, &seen);
        l.absorb(&RunReport { per_core: vec![], makespan: 1000 }, &seen);
        let v = l.values(&Spans::new());
        assert_eq!(v["soc-sim.noc.max_link_util"], 0.5);
        assert_eq!(v["soc-sim.mem.port_util_max"], 0.8);
        assert_eq!(v["soc-sim.mem.port_busy_total"], 160.0);
        assert_eq!(v["soc-sim.noc.bursts"], 10.0);
    }
}
