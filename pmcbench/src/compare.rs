//! `pmcbench compare A.json B.json` — a before/after table from two
//! reports of `pmcbench run`.
//!
//! * Simulated metrics and counts are compared **exactly**: any
//!   difference is shown. A change meant only to speed the simulator up
//!   must leave all of them identical.
//! * Bounded host metrics (`wall_s`, `setup_s`, `peak_rss_mb`,
//!   `sim_cycles_per_s`) are compared against their bound. When either
//!   report's own quartile spread exceeds the bound — or either run was
//!   not pinned — the metric is **unresolved**, not unchanged (a spread
//!   too wide is overruled when the two quartile ranges do not even
//!   overlap in the better direction).
//! * Unbounded host metrics (the per-layer times) are deltas that
//!   explain; they never decide.
//!
//! A *regression* is an end-to-end metric that got worse — beyond its
//! bound for host time, at all for simulated time — or a higher
//! `fail_ratio`. Regressions make the exit status non-zero.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{self, Better, Def, Group};
use crate::report::{Reading, SCHEMA};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    /// Within the bound (host) — not distinguishable from no change.
    Unchanged,
    Improved,
    Regressed,
    /// Spread too wide, or unpinned: the runs cannot tell.
    Unresolved,
    /// An exact per-layer value moved (explains, does not decide).
    Moved,
    /// An unbounded host time: reported as a delta only.
    Delta,
}

pub struct Comparison {
    pub text: String,
    pub regressions: usize,
    /// Exact metrics (simulated or counted) that differ.
    pub exact_changes: usize,
    pub unresolved: usize,
}

/// Relative change of `new` against `old`, positive = worse.
fn worse_by(better: Better, old: f64, new: f64) -> f64 {
    let rel = (new - old) / old.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Whether every quartile-range value of `new` beats every one of `old`.
fn clearly_better(better: Better, old: &Reading, new: &Reading) -> bool {
    match better {
        Better::Lower => new.q3 < old.q1,
        Better::Higher => new.q1 > old.q3,
    }
}

pub fn judge(def: &Def, old: &Reading, new: &Reading, both_pinned: bool) -> Verdict {
    let gated = def.group != Group::Layer;
    if def.kind.is_exact() {
        return if old.value == new.value {
            Verdict::Same
        } else if !gated {
            Verdict::Moved
        } else if def.better.is_worse(old.value, new.value) {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
    }
    let Some(bound) = def.bound else { return Verdict::Delta };
    if !both_pinned {
        return Verdict::Unresolved;
    }
    if old.spread() > bound || new.spread() > bound {
        // Too noisy to call, unless every reading of the new run beats
        // every reading of the old one.
        let sampled = old.n > 1 && new.n > 1;
        return if sampled && clearly_better(def.better, old, new) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = worse_by(def.better, old.value, new.value);
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn pinned(doc: &Json) -> bool {
    doc.get("provenance").and_then(|p| p.get("pinned")).and_then(Json::as_bool).unwrap_or(false)
}

fn check_schema(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(()),
        other => Err(format!("{which} is not a {SCHEMA} report (schema: {other:?})")),
    }
}

/// The metric sections of a report: one per workload, then the probes.
fn sections(doc: &Json) -> Vec<(String, &Json, Option<f64>)> {
    let mut out = Vec::new();
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let fail_ratio = w.get("fail_ratio").and_then(Json::as_f64);
        if let Some(m) = w.get("metrics") {
            out.push((name, m, fail_ratio));
        }
    }
    if let Some(m) = doc.get("probes").and_then(|p| p.get("metrics")) {
        out.push(("probes".to_string(), m, None));
    }
    out
}

pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    check_schema(a, "the first file")?;
    check_schema(b, "the second file")?;
    let both_pinned = pinned(a) && pinned(b);
    let mut c = Comparison { text: String::new(), regressions: 0, exact_changes: 0, unresolved: 0 };
    let out = &mut c.text;
    for (doc, which) in [(a, "first"), (b, "second")] {
        if !pinned(doc) {
            let _ = writeln!(
                out,
                "WARNING: the {which} run was NOT pinned; host metrics are unresolved"
            );
        }
    }
    let seed = |d: &Json| d.get("provenance").and_then(|p| p.get("seed")).cloned();
    if seed(a) != seed(b) {
        let _ = writeln!(
            out,
            "WARNING: seeds differ ({:?} vs {:?}); simulated metrics are not comparable",
            seed(a),
            seed(b)
        );
    }
    let defs = metrics::all();
    let b_sections = sections(b);
    for (section, a_metrics, a_fail) in sections(a) {
        let Some((_, b_metrics, b_fail)) = b_sections.iter().find(|(n, _, _)| *n == section) else {
            let _ = writeln!(out, "\n== {section}: only in the first report");
            continue;
        };
        let _ = writeln!(out, "\n== {section}");
        if let (Some(fa), Some(fb)) = (a_fail, *b_fail) {
            if fb > fa {
                c.regressions += 1;
                let _ = writeln!(out, "  REGRESSED   fail_ratio {fa} -> {fb}");
            } else if fb != 0.0 || fa != 0.0 {
                let _ = writeln!(out, "  fail_ratio {fa} -> {fb}");
            }
        }
        for def in &defs {
            let (ra, rb) = match (a_metrics.get(&def.name), b_metrics.get(&def.name)) {
                (None, None) => continue,
                (Some(_), None) | (None, Some(_)) => {
                    let _ = writeln!(out, "  MISSING     {} is in only one report", def.name);
                    continue;
                }
                (Some(ma), Some(mb)) => match (Reading::from_json(ma), Reading::from_json(mb)) {
                    (Some(ra), Some(rb)) => (ra, rb),
                    _ => return Err(format!("{section}/{}: malformed reading", def.name)),
                },
            };
            let verdict = judge(def, &ra, &rb, both_pinned);
            let tag = match verdict {
                // Identical exact values are the expected, silent case;
                // so is a layer time neither run measured.
                Verdict::Same => continue,
                Verdict::Delta if ra.value == rb.value => continue,
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED",
                Verdict::Moved => "moved",
                Verdict::Delta => "delta",
            };
            match verdict {
                Verdict::Regressed => c.regressions += 1,
                Verdict::Unresolved => c.unresolved += 1,
                _ => {}
            }
            if def.kind.is_exact() {
                c.exact_changes += 1;
            }
            let _ = write!(
                out,
                "  {tag:<11} {:<44} {} -> {} {} ({:+.2}%, {} is better",
                def.name,
                ra.value,
                rb.value,
                def.unit,
                (rb.value - ra.value) / ra.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                def.better.label(),
            );
            if !def.kind.is_exact() {
                let _ = write!(
                    out,
                    "; spread {:.1}% / {:.1}%",
                    ra.spread() * 100.0,
                    rb.spread() * 100.0
                );
                if let Some(bound) = def.bound {
                    let _ = write!(out, ", bound {:.0}%", bound * 100.0);
                }
            }
            out.push_str(")\n");
        }
    }
    let _ = writeln!(
        out,
        "\nsummary: {} regression(s), {} exact metric(s) differ, {} host metric(s) unresolved",
        c.regressions, c.exact_changes, c.unresolved
    );
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn def(name: &str) -> Def {
        metrics::find(name).unwrap()
    }

    fn host(value: f64, spread: f64) -> Reading {
        Reading { value, q1: value * (1.0 - spread / 2.0), q3: value * (1.0 + spread / 2.0), n: 9 }
    }

    #[test]
    fn host_metrics_are_judged_against_their_bound() {
        let wall = def("wall_s");
        assert_eq!(judge(&wall, &host(1.0, 0.02), &host(1.05, 0.02), true), Verdict::Unchanged);
        assert_eq!(judge(&wall, &host(1.0, 0.02), &host(1.3, 0.02), true), Verdict::Regressed);
        assert_eq!(judge(&wall, &host(1.0, 0.02), &host(0.7, 0.02), true), Verdict::Improved);
        let rate = def("sim_cycles_per_s");
        assert_eq!(judge(&rate, &host(1e6, 0.02), &host(0.7e6, 0.02), true), Verdict::Regressed);
        assert_eq!(judge(&rate, &host(1e6, 0.02), &host(1.4e6, 0.02), true), Verdict::Improved);
    }

    /// A spread wider than the bound, or an unpinned run, is unresolved —
    /// never "unchanged" — unless the quartile ranges do not overlap.
    #[test]
    fn noisy_or_unpinned_runs_are_unresolved() {
        let wall = def("wall_s");
        assert_eq!(judge(&wall, &host(1.0, 0.3), &host(1.02, 0.02), true), Verdict::Unresolved);
        assert_eq!(judge(&wall, &host(1.0, 0.02), &host(1.5, 0.3), true), Verdict::Unresolved);
        assert_eq!(judge(&wall, &host(1.0, 0.02), &host(1.0, 0.02), false), Verdict::Unresolved);
        assert_eq!(judge(&wall, &host(1.0, 0.3), &host(0.5, 0.3), true), Verdict::Improved);
        assert_eq!(judge(&wall, &host(1.0, 0.3), &host(0.5, 0.3), false), Verdict::Unresolved);
        // A single reading has no spread to be clearly better with.
        let rss = def("peak_rss_mb");
        let r = Reading::exact;
        assert_eq!(judge(&rss, &r(100.0), &r(99.9), true), Verdict::Unchanged);
        assert_eq!(judge(&rss, &r(100.0), &r(120.0), true), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let p99 = def("sim_p99_cycles");
        let r = Reading::exact;
        assert_eq!(judge(&p99, &r(9000.0), &r(9000.0), false), Verdict::Same);
        assert_eq!(judge(&p99, &r(9000.0), &r(9001.0), true), Verdict::Regressed);
        assert_eq!(judge(&p99, &r(9000.0), &r(8999.0), true), Verdict::Improved);
        assert_eq!(judge(&def("sim_max_rate_rpkc"), &r(1.0), &r(0.8), true), Verdict::Regressed);
        // Layer counts explain; they do not decide.
        assert_eq!(judge(&def("soc-sim.engine.events"), &r(10.0), &r(12.0), true), Verdict::Moved);
        assert_eq!(
            judge(&def("soc-sim.soc.cached_hit_ns"), &r(40.0), &r(80.0), true),
            Verdict::Delta
        );
    }

    fn report(wall: f64, p99: f64, events: f64, fail_ratio: f64, pinned: bool) -> Json {
        let m = |v: f64, spread: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("q1", Json::Num(v * (1.0 - spread / 2.0))),
                ("q3", Json::Num(v * (1.0 + spread / 2.0))),
                ("n", Json::Num(9.0)),
            ])
        };
        json::parse(
            &Json::obj([
                ("schema", Json::str(SCHEMA)),
                (
                    "provenance",
                    Json::obj([("pinned", Json::Bool(pinned)), ("seed", Json::str("0x1"))]),
                ),
                (
                    "workloads",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("kvserve_open")),
                        ("fail_ratio", Json::Num(fail_ratio)),
                        (
                            "metrics",
                            Json::obj([
                                ("wall_s", m(wall, 0.02)),
                                ("sim_p99_cycles", m(p99, 0.0)),
                                ("soc-sim.engine.events", m(events, 0.0)),
                            ]),
                        ),
                    ])]),
                ),
                ("probes", Json::obj([("metrics", Json::obj::<&str>([]))])),
            ])
            .render(),
        )
        .unwrap()
    }

    #[test]
    fn identical_reports_have_nothing_to_say() {
        let a = report(1.0, 9000.0, 500.0, 0.0, true);
        let c = compare(&a, &a).unwrap();
        assert_eq!((c.regressions, c.exact_changes, c.unresolved), (0, 0, 0));
    }

    #[test]
    fn regressions_are_counted_per_cause() {
        let a = report(1.0, 9000.0, 500.0, 0.0, true);
        let slower = compare(&a, &report(1.4, 9000.0, 500.0, 0.0, true)).unwrap();
        assert_eq!((slower.regressions, slower.exact_changes), (1, 0));
        let worse_model = compare(&a, &report(1.0, 9500.0, 600.0, 0.0, true)).unwrap();
        assert_eq!((worse_model.regressions, worse_model.exact_changes), (1, 2));
        let failing = compare(&a, &report(1.0, 9000.0, 500.0, 0.01, true)).unwrap();
        assert_eq!(failing.regressions, 1);
        let unpinned = compare(&a, &report(1.4, 9000.0, 500.0, 0.0, false)).unwrap();
        assert_eq!((unpinned.regressions, unpinned.unresolved), (0, 1));
        assert!(unpinned.text.contains("NOT pinned"));
    }

    #[test]
    fn foreign_documents_are_rejected() {
        let a = report(1.0, 9000.0, 500.0, 0.0, true);
        assert!(compare(&a, &Json::obj([("schema", Json::str("other"))])).is_err());
    }
}
