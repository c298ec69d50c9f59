//! Turning measurements into the three things the tool prints: the
//! driver's one-line result, the JSON report `pmcbench compare` reads,
//! and the listing a person reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{self, Def, Group, Kind};
use crate::probes::Samples;
use crate::runner::Measured;
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use crate::workloads;

pub const SCHEMA: &str = "pmcbench/1";

/// The paper's Fig. 8 headline, printed beside `sim_swcc_gain_pct`.
pub const PAPER_SWCC_GAIN_PCT: f64 = 22.0;

/// One metric's value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Reading {
    pub fn exact(value: f64) -> Self {
        Reading { value, q1: value, q3: value, n: 1 }
    }

    /// Median and quartiles of repeated samples.
    pub fn of(samples: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(samples);
        Reading { value: median(samples), q1, q3, n: samples.len() }
    }

    /// Read back what [`readings_json`] wrote.
    pub fn from_json(m: &Json) -> Option<Self> {
        let f = |k| m.get(k).and_then(Json::as_f64);
        Some(Reading { value: f("value")?, q1: f("q1")?, q3: f("q3")?, n: f("n")? as usize })
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

pub type Readings = BTreeMap<String, Reading>;

/// How the run was made — what a later reader needs to trust a number.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub seed: u64,
    pub smoke: bool,
    /// The CPU every host-timed thread ran on; `None` when pinning
    /// failed, in which case no host metric of the run is comparable.
    pub pinned_cpu: Option<usize>,
    pub nproc: usize,
    pub git: String,
}

pub struct WorkloadReport {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub readings: Readings,
    /// Host-time tree of the traced pass.
    pub spans: Option<Spans>,
}

impl WorkloadReport {
    pub fn new(m: Measured, pinned_cpu: Option<usize>) -> Self {
        let mut readings = Readings::new();
        readings.insert("wall_s".into(), Reading::of(&m.wall_s));
        readings.insert("setup_s".into(), Reading::of(&m.setup_s));
        readings.insert("peak_rss_mb".into(), Reading::exact(m.peak_rss_mb));
        if !m.cycles_per_s.is_empty() {
            readings.insert("sim_cycles_per_s".into(), Reading::of(&m.cycles_per_s));
        }
        for (name, v) in &m.sim {
            readings.insert(name.clone(), Reading::exact(*v));
        }
        let spans = m.traced.map(|t| {
            for (name, v) in t.layer {
                readings.insert(name, Reading::exact(v));
            }
            let cpu = pinned_cpu.map_or(-1.0, |c| c as f64);
            readings.insert("bench.pinned_cpu".into(), Reading::exact(cpu));
            t.spans
        });
        WorkloadReport {
            name: m.name,
            attempted: m.checks.attempted,
            failed: m.checks.failed,
            failures: m.checks.failures,
            readings,
            spans,
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output the PR driver reads: every
    /// declared metric of one list, measured or not. A per-layer metric
    /// this workload does not exercise reads 0.
    pub fn driver_line(&self, traced: bool, probes: &Readings) -> String {
        let defs = if traced { metrics::driver_per_layer() } else { metrics::driver_end_to_end() };
        let listed = defs.iter().map(|d| {
            let value =
                self.readings.get(&d.name).or_else(|| probes.get(&d.name)).map_or(0.0, |r| r.value);
            (d.name.clone(), Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(listed)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.as_ref().map_or(Json::Null, |s| {
            Json::Arr(
                s.all()
                    .iter()
                    .map(|sp| {
                        Json::obj([
                            ("name", Json::str(sp.name)),
                            ("start_ns", Json::Num(sp.start_ns as f64)),
                            ("end_ns", Json::Num(sp.end_ns as f64)),
                            ("parent", sp.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ])
                    })
                    .collect(),
            )
        });
        Json::obj([
            ("name", Json::str(&*self.name)),
            ("why", Json::str(workloads::why(&self.name))),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            ("failures", Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("metrics", readings_json(&self.readings)),
            ("layer_shares", shares_json(self.spans.as_ref())),
            ("spans", spans),
        ])
    }
}

pub fn probe_readings(samples: &Samples) -> Readings {
    samples.iter().map(|(name, s)| (name.clone(), Reading::of(s))).collect()
}

fn readings_json(readings: &Readings) -> Json {
    // Declared order, so two reports line up; an undeclared name would be
    // a bug the smoke test catches.
    let listed = metrics::all().into_iter().filter_map(|d| {
        let r = readings.get(&d.name)?;
        let mut fields = vec![
            ("value", Json::Num(r.value)),
            ("unit", Json::str(d.unit)),
            ("kind", Json::str(d.kind.label())),
            ("better", Json::str(d.better.label())),
            ("n", Json::Num(r.n as f64)),
            ("q1", Json::Num(r.q1)),
            ("q3", Json::Num(r.q3)),
        ];
        if let Some(b) = d.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Some((d.name, Json::obj(fields)))
    });
    Json::obj(listed)
}

/// Each span name's share of the traced pass, by self time.
pub fn layer_shares(spans: &Spans) -> Vec<(&'static str, f64)> {
    let by = spans.by_name();
    let total: u64 = by.values().map(|&(_, own)| own).sum();
    let mut shares: Vec<_> =
        by.into_iter().map(|(name, (_, own))| (name, own as f64 / total.max(1) as f64)).collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
    shares
}

fn shares_json(spans: Option<&Spans>) -> Json {
    spans.map_or(Json::Null, |s| {
        Json::obj(layer_shares(s).into_iter().map(|(name, share)| (name, Json::Num(share))))
    })
}

/// Assemble the full report from its parts: each workload's JSON (as
/// printed by its child process) and the probes' readings.
pub fn assemble(provenance: &Provenance, workloads: Vec<Json>, probes: Option<Json>) -> Json {
    let p = provenance;
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        (
            "provenance",
            Json::obj([
                // As a string: a u64 seed need not fit a JSON number.
                ("seed", Json::str(format!("{:#x}", p.seed))),
                ("smoke", Json::Bool(p.smoke)),
                ("pinned", Json::Bool(p.pinned_cpu.is_some())),
                ("pinned_cpu", p.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
                ("nproc", Json::Num(p.nproc as f64)),
                ("git", Json::str(&*p.git)),
                ("paper_swcc_gain_pct", Json::Num(PAPER_SWCC_GAIN_PCT)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
        ("probes", probes.unwrap_or(Json::Null)),
    ])
}

/// The probes section of a report.
pub fn probes_json(readings: &Readings) -> Json {
    Json::obj([("metrics", readings_json(readings))])
}

/// The listing a person reads: every metric by name with its unit,
/// host/sim label and spread, then where each traced pass went.
pub fn render_text(report: &Json) -> String {
    let mut out = String::new();
    let p = |k| report.get("provenance").and_then(|p| p.get(k));
    let text = |k| p(k).and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "pmcbench  seed {}{}  git {}  nproc {}  {}",
        text("seed"),
        if p("smoke").and_then(Json::as_bool) == Some(true) {
            "  SMOKE (numbers not worth quoting)"
        } else {
            ""
        },
        text("git"),
        p("nproc").and_then(Json::as_f64).unwrap_or(0.0),
        match p("pinned_cpu").and_then(Json::as_f64) {
            Some(c) => format!("pinned to cpu {c}"),
            None => "NOT PINNED: every host metric below is unresolved".into(),
        }
    );
    let workloads = report.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let num = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(out, "\n== {name}: {}", workloads::why(name));
        let _ = writeln!(
            out,
            "  checks: {} attempted, {} failed, fail_ratio {}",
            num("attempted"),
            num("failed"),
            num("fail_ratio")
        );
        for f in w.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            let _ = writeln!(out, "    FAILED: {}", f.as_str().unwrap_or("?"));
        }
        let Some(metrics) = w.get("metrics") else { continue };
        let _ = writeln!(out, "  end to end (medians of the timed passes, tracing off)");
        write_readings(&mut out, metrics, |d| d.group != Group::Layer);
        if w.get("layer_shares").and_then(Json::as_obj).is_some() {
            let _ = writeln!(out, "  per layer (traced pass)");
            write_readings(&mut out, metrics, |d| d.group == Group::Layer);
        }
    }
    if let Some(metrics) = report.get("probes").and_then(|p| p.get("metrics")) {
        let _ = writeln!(out, "\n== probes (one public call each, median of repeats)");
        write_readings(&mut out, metrics, |_| true);
    }
    out.push_str(&render_dominance(workloads));
    out
}

/// Which layer dominates which workload, from the measured spans: the
/// "workloads stress different layers" design, in numbers.
fn render_dominance(workloads: &[Json]) -> String {
    let traced: Vec<_> = workloads
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("layer_shares")?.as_obj()?)))
        .collect();
    if traced.is_empty() {
        return String::new();
    }
    let mut out = String::from("\n== share of each traced pass by span (self time)\n");
    let names = [
        "build",
        "run",
        "collect",
        "validate",
        "export",
        "lower",
        "enumerate",
        "cell",
        "case",
        "pass",
    ];
    let _ = write!(out, "  {:<18}", "workload");
    for n in names {
        let _ = write!(out, "{n:>10}");
    }
    out.push('\n');
    for (workload, shares) in traced {
        let _ = write!(out, "  {workload:<18}");
        for n in names {
            match shares.iter().find(|(k, _)| k == n).and_then(|(_, s)| s.as_f64()) {
                Some(s) => {
                    let _ = write!(out, "{:>9.1}%", s * 100.0);
                }
                None => {
                    let _ = write!(out, "{:>10}", "-");
                }
            }
        }
        out.push('\n');
    }
    out.push_str(
        "  (cell/case/pass: benchmark-side time outside any layer call, i.e. the output checks)\n",
    );
    out
}

fn write_readings(out: &mut String, metrics: &Json, keep: impl Fn(&Def) -> bool) {
    for d in metrics::all().into_iter().filter(|d| keep(d)) {
        let Some(r) = metrics.get(&d.name).and_then(Reading::from_json) else { continue };
        let _ = write!(
            out,
            "    {:<44} {:>16} {:<10} {:<5}",
            d.name,
            number(r.value),
            d.unit,
            d.kind.label()
        );
        if r.n > 1 {
            let _ = write!(
                out,
                " n={} q1 {} q3 {} spread {:.1}%",
                r.n,
                number(r.q1),
                number(r.q3),
                r.spread() * 100.0
            );
        }
        if let (Kind::Host, Some(b)) = (d.kind, d.bound) {
            let _ = write!(out, " bound {:.0}%", b * 100.0);
        }
        if d.name == "sim_swcc_gain_pct" {
            let _ = write!(
                out,
                " (paper: {PAPER_SWCC_GAIN_PCT}%; the model is not calibrated to the paper's platform)"
            );
        }
        out.push('\n');
    }
}

/// Counts print whole, measurements with six significant digits.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn readings_summarise_samples() {
        let r = Reading::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((r.value, r.q1, r.q3, r.n), (3.0, 1.5, 4.5, 5));
        assert_eq!(r.spread(), 1.0);
        assert_eq!(Reading::exact(7.0).spread(), 0.0);
        assert_eq!(Reading::exact(0.0).spread(), 0.0);
    }

    fn tiny_report() -> WorkloadReport {
        let mut readings = Readings::new();
        readings.insert("wall_s".into(), Reading::of(&[1.0, 1.1, 1.2]));
        readings.insert("setup_s".into(), Reading::exact(0.5));
        readings.insert("peak_rss_mb".into(), Reading::exact(12.5));
        readings.insert("sim_makespan_cycles".into(), Reading::exact(5_300_000.0));
        WorkloadReport {
            name: "fig8_splash".into(),
            attempted: 10,
            failed: 0,
            failures: vec![],
            readings,
            spans: None,
        }
    }

    /// The driver's line has exactly the four keys, and exactly the
    /// declared metrics of the list asked for, each with value and unit.
    #[test]
    fn driver_line_lists_exactly_the_declared_metrics() {
        let w = tiny_report();
        let mut probes = Readings::new();
        probes.insert("soc-sim.soc.cached_hit_ns".into(), Reading::exact(42.0));
        for (traced, defs) in
            [(false, metrics::driver_end_to_end()), (true, metrics::driver_per_layer())]
        {
            let line = w.driver_line(traced, &probes);
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
            let listed = doc.get("metrics").unwrap().as_obj().unwrap();
            let names: Vec<&str> = listed.iter().map(|(k, _)| &**k).collect();
            let want: Vec<&str> = defs.iter().map(|d| &*d.name).collect();
            assert_eq!(names, want);
            for ((_, m), d) in listed.iter().zip(&defs) {
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit));
            }
        }
        let traced = json::parse(&w.driver_line(true, &probes)).unwrap();
        let value =
            |name| traced.get("metrics").unwrap().get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value("sim_makespan_cycles"), Some(5_300_000.0));
        assert_eq!(value("soc-sim.soc.cached_hit_ns"), Some(42.0), "probes fill in");
        assert_eq!(value("core.interleave.states"), Some(0.0), "not exercised reads 0");
    }

    #[test]
    fn report_is_valid_json_and_labels_host_and_sim() {
        let provenance = Provenance {
            seed: u64::MAX,
            smoke: true,
            pinned_cpu: Some(1),
            nproc: 2,
            git: "deadbeef".into(),
        };
        let report = assemble(&provenance, vec![tiny_report().to_json()], None);
        let text = report.render();
        pmc_soc_sim::telemetry::validate_json(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("provenance").unwrap().get("seed").unwrap().as_str(),
            Some("0xffffffffffffffff")
        );
        let m = doc.get("workloads").unwrap().as_arr().unwrap()[0].get("metrics").unwrap();
        assert_eq!(m.get("wall_s").unwrap().get("kind").unwrap().as_str(), Some("host"));
        assert_eq!(
            m.get("wall_s").unwrap().get("bound").unwrap().as_f64(),
            Some(metrics::HOST_BOUND)
        );
        assert_eq!(
            m.get("sim_makespan_cycles").unwrap().get("kind").unwrap().as_str(),
            Some("sim")
        );
        let listing = render_text(&doc);
        assert!(
            listing.contains("wall_s") && listing.contains("host") && listing.contains("SMOKE")
        );
    }
}
