//! `pmcbench` — the repository's one pinned, layered benchmark.
//!
//! Six workloads, each measured in its own process on one pinned CPU, on
//! the default discrete-event engine: set-up and a warm-up pass, timed
//! passes with tracing off (end-to-end metrics are their medians), then
//! one traced pass that yields the per-layer numbers and must reproduce
//! every simulated value bit for bit. See `README.md` beside this
//! package for the metric glossary and how the layers should move the
//! end-to-end numbers.
//!
//! Layers are measured from outside only: by timing calls into `pub`
//! functions of `pmc-core`, `pmc-soc-sim`, `pmc-runtime` and `pmc-apps`
//! and by reading their public reports.

use std::path::Path;
use std::process::{Command as Process, ExitCode, Stdio};
use std::time::Instant;

mod cli;
mod compare;
mod json;
mod layers;
mod metrics;
mod pin;
mod probes;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use cli::Command;
use json::Json;
use report::{Provenance, Readings, WorkloadReport};
use runner::{Budget, Plan, MIN_PASSES};
use workloads::Size;

/// Timed passes per workload under `pmcbench run`.
const RUN_PASSES: usize = 9;
/// Set-ups per run under the driver protocol; `setup_s` is their median.
const DRIVER_SETUPS: usize = 3;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("pmcbench: {msg}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match execute(command, started) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pmcbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pin this process to one CPU before anything is spawned. A run that
/// cannot be pinned still runs — its simulated metrics are as exact as
/// ever — but says loudly that its host times compare with nothing.
fn pin_loudly() -> Option<usize> {
    match pin::pin_to_last_allowed_cpu() {
        Ok(cpu) => Some(cpu),
        Err(why) => {
            eprintln!(
                "pmcbench: WARNING: NOT PINNED ({why}). Tile programs are parked OS threads; \
                 unpinned, one pass varies 1.4 s to 12 s between repeats. Every host metric of \
                 this run is UNRESOLVED and must not be compared."
            );
            None
        }
    }
}

/// Pin, and record how the run was made.
fn provenance(seed: u64, smoke: bool) -> Provenance {
    // Counted before pinning shrinks the affinity set to one.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Provenance { seed, smoke, pinned_cpu: pin_loudly(), nproc, git: git_head() }
}

fn execute(command: Command, started: Instant) -> Result<ExitCode, String> {
    match command {
        Command::Driver { workload, seed, seconds, trace } => {
            let pinned = pin_loudly();
            // A traced run is sized by its passes, not by `--seconds`:
            // a few timed passes as the tracing-overhead baseline, the
            // traced pass, then the probes.
            let plan = Plan {
                size: Size::Full,
                setups: if trace { 1 } else { DRIVER_SETUPS },
                budget: if trace { Budget::Passes(MIN_PASSES) } else { Budget::Seconds(seconds) },
                traced: trace,
            };
            let measured = runner::measure(&workload, seed, plan, started)?;
            let probes =
                if trace { report::probe_readings(&probes::run_all()) } else { Readings::new() };
            let report = WorkloadReport::new(measured, pinned);
            for failure in &report.failures {
                eprintln!("pmcbench: FAILED: {failure}");
            }
            println!("{}", report.driver_line(trace, &probes));
            Ok(ExitCode::SUCCESS)
        }
        Command::Child { what, seed, smoke } => {
            let pinned = pin_loudly();
            if what == "probes" {
                let readings = report::probe_readings(&probes::run_all());
                println!("{}", report::probes_json(&readings).render());
            } else {
                let plan = Plan {
                    size: if smoke { Size::Smoke } else { Size::Full },
                    setups: 1,
                    budget: Budget::Passes(if smoke { 1 } else { RUN_PASSES }),
                    traced: true,
                };
                let measured = runner::measure(&what, seed, plan, started)?;
                println!("{}", WorkloadReport::new(measured, pinned).to_json().render());
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Run { seed, smoke, only, out } => {
            let provenance = provenance(seed, smoke);
            let names: Vec<&str> = match &only {
                Some(name) => vec![name],
                None => workloads::NAMES.to_vec(),
            };
            let workloads =
                names.iter().map(|name| child(name, seed, smoke)).collect::<Result<Vec<_>, _>>()?;
            let probes = if only.is_none() { Some(child("probes", seed, smoke)?) } else { None };
            let failed = workloads
                .iter()
                .any(|w| w.get("failed").and_then(Json::as_f64).is_some_and(|f| f > 0.0));
            let report = report::assemble(&provenance, workloads, probes);
            print!("{}", report::render_text(&report));
            if let Some(path) = out {
                write_file(&path, &report.render())?;
                eprintln!("pmcbench: wrote {}", path.display());
            }
            Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        Command::Probes => {
            let provenance = provenance(workloads::DEFAULT_SEED, false);
            let readings = report::probe_readings(&probes::run_all());
            let report =
                report::assemble(&provenance, vec![], Some(report::probes_json(&readings)));
            print!("{}", report::render_text(&report));
            Ok(ExitCode::SUCCESS)
        }
        Command::Compare { a, b } => {
            let c = compare::compare(&read_report(&a)?, &read_report(&b)?)?;
            print!("{}", c.text);
            Ok(if c.regressions > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
    }
}

/// Measure one workload (or the probes) in a child process of its own,
/// so its peak memory and warm-up are its own, and wait for it to end.
fn child(what: &str, seed: u64, smoke: bool) -> Result<Json, String> {
    eprintln!("pmcbench: measuring {what} ...");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut process = Process::new(exe);
    process.args(["child", "--workload", what, "--seed", &seed.to_string()]);
    if smoke {
        process.arg("--smoke");
    }
    let output = process
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {what} child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {what} child process failed: {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout)
        .map_err(|_| format!("the {what} child process printed invalid UTF-8"))?;
    let line = stdout.lines().last().ok_or_else(|| format!("the {what} child printed nothing"))?;
    json::parse(line).map_err(|e| format!("the {what} child's report does not parse: {e}"))
}

fn git_head() -> String {
    Process::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn read_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// `run --smoke`, in process: every workload passes its own checks,
    /// the traced pass reproduces the timed ones, every name a workload
    /// or probe emits is declared, together they cover every declared
    /// name, and both driver lines list exactly what `BENCHMARK.json`
    /// (kept equal to the declarations by `metrics::tests`) declares.
    #[test]
    fn smoke_emits_exactly_the_declared_names() {
        let declared: BTreeSet<String> = metrics::all().into_iter().map(|d| d.name).collect();
        let probes = report::probe_readings(&probes::run_all());
        let mut emitted: BTreeSet<String> = probes.keys().cloned().collect();
        let mut reports = Vec::new();
        for name in workloads::NAMES {
            let plan =
                Plan { size: Size::Smoke, setups: 1, budget: Budget::Passes(1), traced: true };
            let measured = runner::measure(name, workloads::DEFAULT_SEED, plan, Instant::now())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = WorkloadReport::new(measured, None);
            assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
            assert!(report.attempted > 0, "{name} checks its outputs");
            assert!(
                report.spans.as_ref().is_some_and(|s| s.all().len() > 2),
                "{name} has a span tree"
            );
            emitted.extend(report.readings.keys().cloned());
            for (traced, defs) in
                [(false, metrics::driver_end_to_end()), (true, metrics::driver_per_layer())]
            {
                let line =
                    json::parse(&report.driver_line(traced, &probes)).expect("one JSON line");
                let listed = line.get("metrics").and_then(Json::as_obj).expect("metrics object");
                let names: Vec<&str> = listed.iter().map(|(k, _)| &**k).collect();
                assert_eq!(names, defs.iter().map(|d| &*d.name).collect::<Vec<_>>(), "{name}");
                if !traced {
                    for (metric, m) in listed {
                        let v = m.get("value").and_then(Json::as_f64).expect("a number");
                        assert!(v > 0.0, "{name}: end-to-end metric {metric} must never be 0");
                    }
                }
            }
            reports.push(report.to_json());
        }
        let undeclared: Vec<_> = emitted.difference(&declared).collect();
        assert!(undeclared.is_empty(), "emitted but not declared: {undeclared:?}");
        let unmeasured: Vec<_> = declared.difference(&emitted).collect();
        assert!(unmeasured.is_empty(), "declared but measured by nothing: {unmeasured:?}");

        let provenance = Provenance {
            seed: workloads::DEFAULT_SEED,
            smoke: true,
            pinned_cpu: None,
            nproc: 1,
            git: "test".into(),
        };
        let report = report::assemble(&provenance, reports, Some(report::probes_json(&probes)));
        let text = report.render();
        pmc_soc_sim::telemetry::validate_json(&text).expect("the report is JSON");
        let same = compare::compare(&report, &json::parse(&text).expect("parses back")).unwrap();
        assert_eq!((same.regressions, same.exact_changes), (0, 0), "{}", same.text);
        // Unpinned, so every bounded host metric is unresolved, not unchanged.
        assert!(same.unresolved >= workloads::NAMES.len() * 3, "{}", same.text);
        let listing = report::render_text(&report);
        assert!(listing.contains("NOT PINNED") && listing.contains("share of each traced pass"));
    }
}
