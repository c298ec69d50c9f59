//! Every metric the benchmark reports, declared once: name, unit,
//! whether it is host time or simulated, which way is better, and — for
//! the bounded ones — how much worse counts as a regression.
//!
//! `BENCHMARK.json` repeats the `DRIVER` and `PerLayer` groups; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Where a number comes from, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or OS accounting of the simulator/tool itself: noisy,
    /// compared against a bound (or reported as a delta when unbounded).
    Host,
    /// Simulated cycles of the modelled SoC: repeats exactly at a fixed
    /// seed, compared exactly.
    Sim,
    /// A count made by the program: repeats exactly, compared exactly.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }

    pub fn is_exact(self) -> bool {
        self != Kind::Host
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `new` is worse than `old` in this direction.
    pub fn is_worse(self, old: f64, new: f64) -> bool {
        match self {
            Better::Lower => new > old,
            Better::Higher => new < old,
        }
    }
}

/// Which list of `BENCHMARK.json` (or of the issue) a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `BENCHMARK.json` `end_to_end`: reported by every workload, never
    /// zero, bounded — what the PR driver gates on.
    Driver,
    /// The remaining user-visible metrics of the issue's table. Each
    /// applies to some workloads only, so the driver contract (every
    /// workload prints every end-to-end metric, none ever 0) files them
    /// under `per_layer`; `pmcbench run` prints them with the end-to-end
    /// numbers of the workloads they apply to.
    User,
    /// One layer's number, from the traced pass or the probes.
    Layer,
}

#[derive(Debug, Clone)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    /// Share of the old median by which a host metric may get worse
    /// before `pmcbench compare` calls it a regression. Exact metrics
    /// need none; unbounded host metrics are reported as deltas only.
    pub bound: Option<f64>,
    pub group: Group,
}

/// Bound on host-time regressions (`wall_s`, `sim_cycles_per_s`). Wider
/// than the 10 % the issue hoped for: on the box this was sized on, the
/// ten-run median of one unchanged binary drifted by up to 11 % between
/// two sets taken half an hour apart (see the README's noise floor), and
/// a bound inside the drift would reject innocent changes.
pub const HOST_BOUND: f64 = 0.20;
/// Peak memory repeats to within 1 %.
pub const RSS_BOUND: f64 = 0.10;
/// Set-up is a handful of samples per run, so it gets the widest bound
/// the contract allows.
pub const SETUP_BOUND: f64 = 0.25;

pub const BACKENDS: [&str; 4] = ["uncached", "swcc", "dsm", "spm"];
pub const LOCKS: [&str; 2] = ["sdram", "dist"];
/// The `kvserve_open` rate ladder, as mean interarrival gaps in cycles.
pub const LADDER: [u64; 5] = [2400, 1600, 1200, 1000, 800];
/// Runtime span kinds summed by `runtime.spans.*_cycles`.
pub const SPAN_SUMS: [&str; 7] =
    ["scope_x", "scope_ro", "lock_acquire", "lock_hold", "barrier_wait", "fifo", "dma_wait"];

use Better::{Higher, Lower};
use Kind::{Count, Host, Sim};

/// Every declared metric, in report order.
pub fn all() -> Vec<Def> {
    let mut v: Vec<Def> = Vec::new();
    let mut add = |group, name: String, unit, kind, better, bound| {
        v.push(Def { name, unit, kind, better, bound, group });
    };

    // --- BENCHMARK.json end_to_end -----------------------------------
    add(Group::Driver, "wall_s".into(), "s", Host, Lower, Some(HOST_BOUND));
    add(Group::Driver, "setup_s".into(), "s", Host, Lower, Some(SETUP_BOUND));
    add(Group::Driver, "peak_rss_mb".into(), "MiB", Host, Lower, Some(RSS_BOUND));

    // --- the issue's remaining end-to-end table -----------------------
    add(Group::User, "sim_cycles_per_s".into(), "1/s", Host, Higher, Some(HOST_BOUND));
    add(Group::User, "sim_makespan_cycles".into(), "cycles", Sim, Lower, None);
    add(Group::User, "sim_p50_cycles".into(), "cycles", Sim, Lower, None);
    add(Group::User, "sim_p99_cycles".into(), "cycles", Sim, Lower, None);
    add(Group::User, "sim_max_rate_rpkc".into(), "req/kcycle", Sim, Higher, None);
    // Pinned rather than optimised: the paper reports 22 %; the
    // direction only says which way SWCC is meant to win.
    add(Group::User, "sim_swcc_gain_pct".into(), "%", Sim, Higher, None);
    add(Group::User, "sim_bytes_per_kcycle".into(), "B/kcycle", Sim, Higher, None);

    // --- per layer ----------------------------------------------------
    let mut layer = |name: String, unit, kind, better| {
        add(Group::Layer, name, unit, kind, better, None);
    };
    layer("core.interleave.states".into(), "count", Count, Lower);
    layer("core.interleave.outcomes".into(), "count", Count, Lower);
    layer("core.interleave.states_per_s".into(), "1/s", Host, Higher);
    layer("core.interleave.max_case_share".into(), "ratio", Count, Lower);
    layer("core.conformance.lower_s".into(), "s", Host, Lower);
    layer("core.fuzz.generate_s".into(), "s", Host, Lower);
    layer("core.execution.append_ns".into(), "ns", Host, Lower);

    for m in ["events", "handoffs", "peak_queue"] {
        layer(format!("soc-sim.engine.{m}"), "count", Count, Lower);
    }
    layer("soc-sim.engine.events_per_s".into(), "1/s", Host, Higher);
    layer("soc-sim.engine.ns_per_handoff".into(), "ns", Host, Lower);

    for m in ["new_us_per_tile_256", "new_us_per_tile_1024", "run_empty_us_per_tile_1024"] {
        layer(format!("soc-sim.soc.{m}"), "us", Host, Lower);
    }
    for m in ["cached_hit_ns", "uncached_ns", "block_ns_per_kib", "noc_write_ns", "sdram_atomic_ns"]
    {
        layer(format!("soc-sim.soc.{m}"), "ns", Host, Lower);
    }

    layer("soc-sim.counters.instret".into(), "count", Count, Lower);
    for m in [
        "busy",
        "stall_priv_read",
        "stall_shared_read",
        "stall_write",
        "stall_icache",
        "stall_noc",
        "stall_dma_wait",
        "flush_cycles",
    ] {
        layer(format!("soc-sim.counters.{m}"), "cycles", Sim, Lower);
    }
    layer("soc-sim.counters.utilization".into(), "ratio", Sim, Higher);

    layer("soc-sim.cache.hits".into(), "count", Count, Higher);
    layer("soc-sim.cache.misses".into(), "count", Count, Lower);
    layer("soc-sim.cache.hit_ratio".into(), "ratio", Count, Higher);

    layer("soc-sim.noc.link_busy_total".into(), "cycles", Sim, Lower);
    layer("soc-sim.noc.link_busy_max".into(), "cycles", Sim, Lower);
    layer("soc-sim.noc.bursts".into(), "count", Count, Lower);
    layer("soc-sim.noc.max_link_util".into(), "ratio", Sim, Lower);
    layer("soc-sim.noc.reserve_path_ns".into(), "ns", Host, Lower);

    layer("soc-sim.mem.port_busy_total".into(), "cycles", Sim, Lower);
    layer("soc-sim.mem.port_busy_max".into(), "cycles", Sim, Lower);
    layer("soc-sim.mem.port_bursts".into(), "count", Count, Lower);
    layer("soc-sim.mem.port_util_max".into(), "ratio", Sim, Lower);
    layer("soc-sim.mem.reserve_ns".into(), "ns", Host, Lower);

    layer("soc-sim.dma.transfers".into(), "count", Count, Lower);
    layer("soc-sim.dma.bytes".into(), "B", Count, Lower);
    layer("soc-sim.dma.event_waits".into(), "count", Count, Lower);
    layer("soc-sim.dma.spurious_wakeups".into(), "count", Count, Lower);
    layer("soc-sim.dma.issue_wait_ns".into(), "ns", Host, Lower);

    layer("soc-sim.telemetry.events".into(), "count", Count, Lower);
    layer("soc-sim.telemetry.dropped".into(), "count", Count, Lower);
    layer("soc-sim.telemetry.drop_ratio".into(), "ratio", Count, Lower);
    layer("soc-sim.telemetry.trace_records".into(), "count", Count, Lower);
    layer("soc-sim.telemetry.overhead_ratio".into(), "ratio", Host, Lower);
    layer("soc-sim.telemetry.export_s".into(), "s", Host, Lower);

    for (m, unit, kind) in [
        ("x_ns", "ns", Host),
        ("ro_ns", "ns", Host),
        ("x_cycles", "cycles", Sim),
        ("ro_cycles", "cycles", Sim),
    ] {
        for b in BACKENDS {
            layer(format!("runtime.scope.{m}.{b}"), unit, kind, Lower);
        }
    }
    for l in LOCKS {
        layer(format!("runtime.lock.pair_ns.{l}"), "ns", Host, Lower);
    }
    for l in LOCKS {
        layer(format!("runtime.lock.contended_cycles.{l}"), "cycles", Sim, Lower);
    }
    for (m, unit, kind) in [("push_pop_ns", "ns", Host), ("push_pop_cycles", "cycles", Sim)] {
        for b in BACKENDS {
            layer(format!("runtime.fifo.{m}.{b}"), unit, kind, Lower);
        }
    }
    for s in SPAN_SUMS {
        layer(format!("runtime.spans.{s}_cycles"), "cycles", Sim, Lower);
    }
    layer("runtime.monitor.records".into(), "count", Count, Lower);
    layer("runtime.monitor.validate_s".into(), "s", Host, Lower);
    layer("runtime.monitor.ns_per_record".into(), "ns", Host, Lower);
    layer("runtime.litmus_exec.run_us".into(), "us", Host, Lower);

    layer("apps.build_s".into(), "s", Host, Lower);
    layer("soc-sim.run_s".into(), "s", Host, Lower);
    layer("apps.collect_s".into(), "s", Host, Lower);
    layer("apps.loadgen.generate_s".into(), "s", Host, Lower);
    layer("apps.loadgen.inject_late_p99_cycles".into(), "cycles", Sim, Lower);
    for ia in LADDER {
        layer(format!("apps.kvserve.p99_cycles.ia{ia}"), "cycles", Sim, Lower);
    }
    layer("apps.kvserve.migrated_p99_cycles".into(), "cycles", Sim, Lower);
    layer("apps.kvserve.spare_served".into(), "count", Count, Higher);

    layer("bench.self_s".into(), "s", Host, Lower);
    // Provenance, not performance: which CPU the run was pinned to
    // (-1 when pinning failed). The direction is nominal.
    layer("bench.pinned_cpu".into(), "cpu", Count, Higher);
    v
}

/// `BENCHMARK.json`'s `end_to_end` list.
pub fn driver_end_to_end() -> Vec<Def> {
    all().into_iter().filter(|d| d.group == Group::Driver).collect()
}

/// `BENCHMARK.json`'s `per_layer` list: everything that is not gated.
pub fn driver_per_layer() -> Vec<Def> {
    all().into_iter().filter(|d| d.group != Group::Driver).collect()
}

/// Look a metric up by name.
#[cfg(test)]
pub fn find(name: &str) -> Option<Def> {
    all().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let defs = all();
        let mut seen = std::collections::BTreeSet::new();
        for d in &defs {
            assert!(is_name(&d.name), "bad metric name {:?}", d.name);
            assert!(is_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
            assert_eq!(d.bound.is_some(), d.kind == Host && d.group != Group::Layer, "{}", d.name);
        }
        for w in crate::workloads::NAMES {
            assert!(is_name(w), "bad workload name {w:?}");
        }
    }

    #[test]
    fn counts_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&crate::workloads::NAMES.len()));
        assert!((1..=16).contains(&driver_end_to_end().len()));
        assert!((1..=128).contains(&driver_per_layer().len()));
        // The issue's table has eleven end-to-end metrics; `fail_ratio`
        // is the driver's `failed / attempted`.
        let user = all().iter().filter(|d| d.group != Group::Layer).count();
        assert_eq!(user + 1, 11);
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64))
            })
            .collect()
    }

    /// Prints the `BENCHMARK.json` these declarations call for. After
    /// changing a metric or a workload, regenerate the file with
    /// `cargo test -- --ignored --nocapture print_benchmark_json`.
    #[test]
    #[ignore = "a generator, not a check"]
    fn print_benchmark_json() {
        let metric = |d: &Def, with_bound: bool| {
            let mut fields = vec![
                ("name", Json::str(&*d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.label())),
            ];
            if with_bound {
                fields.push(("bound", Json::Num(d.bound.expect("gated metrics are bounded"))));
            }
            Json::obj(fields)
        };
        let doc = Json::obj([
            (
                "command",
                Json::Arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--quiet",
                        "--manifest-path",
                        "pmcbench/Cargo.toml",
                        "--",
                    ]
                    .map(Json::str)
                    .to_vec(),
                ),
            ),
            ("paths", Json::Arr(vec![Json::str("pmcbench")])),
            ("run_seconds", Json::Num(10.0)),
            (
                "workloads",
                Json::Arr(
                    crate::workloads::NAMES
                        .iter()
                        .map(|n| {
                            Json::obj([
                                ("name", Json::str(*n)),
                                ("why", Json::str(crate::workloads::why(n))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(driver_end_to_end().iter().map(|d| metric(d, true)).collect()),
            ),
            ("per_layer", Json::Arr(driver_per_layer().iter().map(|d| metric(d, false)).collect())),
        ]);
        println!("{}", doc.render());
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads the
    /// binary reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let doc = benchmark_json();
        let want = |defs: Vec<Def>, with_bound: bool| -> Vec<_> {
            defs.into_iter()
                .map(|d| {
                    let bound = if with_bound { d.bound } else { None };
                    (d.name, d.unit.to_string(), d.better.label().to_string(), bound)
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(driver_end_to_end(), true));
        assert_eq!(listed(&doc, "per_layer"), want(driver_per_layer(), false));
        for (_, _, _, bound) in listed(&doc, "end_to_end") {
            assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Json::as_str).expect("name");
                let why = w.get("why").and_then(Json::as_str).expect("why");
                assert!(why.len() <= 200 && !why.contains('\n'), "why is one short line");
                assert_eq!(why, crate::workloads::why(name));
                name.to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let keys: Vec<&str> = doc.as_obj().expect("object").iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
