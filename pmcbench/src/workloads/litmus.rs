//! `litmus_sweep` — the conformance sweep as a workload: the catalogue
//! and the same 32 fuzzed programs as `enum_catalogue`, each run through
//! `Session::litmus` on 4 back-ends × {SDRAM, distributed} lock × {ring,
//! mesh, torus}, every trace through `monitor::validate`, every outcome
//! checked against the model's allowed set.
//!
//! Thousands of 2–4 tile simulations per pass: host time is `Soc::new`,
//! task spawn and teardown, tracing and the monitor — not steady-state
//! events. It uses the same `soc-sim` and `runtime` layers as the big
//! workloads the opposite way, so an optimisation that buys steady-state
//! speed with per-`Soc` set-up cost loses here. It is also the only
//! workload that runs the DSM back-end and the distributed lock.
//! (`Session::litmus` always traces — the monitor needs the trace — so
//! the timed passes include tracing and validation by design.)

use pmc_core::interleave::Limits;
use pmc_runtime::litmus_exec::LitmusRun;
use pmc_runtime::{monitor, BackendKind, LockKind, RunConfig};
use pmc_soc_sim::Topology;

use super::enumerate::{catalogue_entries, fuzz_entries, Entry};
use super::{audit, timed, Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers, Observed};
use crate::metrics::Values;
use crate::spans::Spans;

const LOCKS: [LockKind; 2] = [LockKind::Sdram, LockKind::Distributed];

pub struct LitmusSweep {
    entries: Vec<Entry>,
    /// Every topology or the ring only.
    all_topologies: bool,
    /// Sweeps per pass: one sweep is ~1 200 runs of ~0.2 ms each.
    sweeps: usize,
}

/// The grid shapes `tests/conformance.rs` and `tests/fuzz.rs` use: two
/// columns, enough rows for one tile per thread.
fn topologies(threads: usize, all: bool) -> Vec<Topology> {
    let rows = threads.div_ceil(2).max(2);
    let mut t = vec![Topology::Ring];
    if all {
        t.push(Topology::Mesh { cols: 2, rows });
        t.push(Topology::Torus { cols: 2, rows });
    }
    t
}

impl LitmusSweep {
    pub fn new(seed: u64, size: Size, checks: &mut Checks) -> Self {
        let mut entries = catalogue_entries(Limits::reduced_memoized(), checks);
        if size == Size::Full {
            entries.extend(fuzz_entries(seed, checks));
        }
        let full = size == Size::Full;
        LitmusSweep { entries, all_topologies: full, sweeps: if full { 5 } else { 1 } }
    }
}

impl Workload for LitmusSweep {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let (mut makespan, mut run_s) = (0u64, 0.0);
        let sweeps = (0..self.sweeps).flat_map(|_| &self.entries);
        for e in sweeps {
            for topology in topologies(e.program.threads.len(), self.all_topologies) {
                for backend in BackendKind::ALL {
                    for lock in LOCKS {
                        let label = || {
                            format!("{} {} {lock:?} {}", e.name, backend.name(), topology.name())
                        };
                        let cell = spans.enter("cell");
                        let session = RunConfig::new(backend)
                            .lock(lock)
                            .topology(topology)
                            .telemetry(layers.is_some())
                            .session();
                        let (run, s) = spans.time("run", || timed(|| session.litmus(&e.program)));
                        let LitmusRun { outcome, trace, report, telemetry, cfg } = run;
                        checks.check(e.allowed.contains(&outcome), || {
                            format!("{}: outcome {outcome:?} is outside the model's set", label())
                        });
                        match layers.as_deref_mut() {
                            Some(layers) => {
                                let seen = Observed { trace, telemetry, ..Observed::default() };
                                audit(&label(), &cfg, &report, &seen, spans, layers, checks);
                            }
                            None => {
                                let violations = monitor::validate(&trace);
                                checks.check(violations.is_empty(), || {
                                    format!("{}: monitor violation: {}", label(), violations[0])
                                });
                            }
                        }
                        spans.exit(cell);
                        makespan += report.makespan;
                        run_s += s;
                        digest.mix(report.makespan);
                        for reg in outcome.iter().flatten() {
                            digest.mix(u64::from(*reg));
                        }
                    }
                }
            }
        }
        let mut sim = Values::new();
        sim.insert("sim_makespan_cycles".into(), makespan as f64);
        PassOut { sim, run_s, digest: digest.finish() }
    }
}
