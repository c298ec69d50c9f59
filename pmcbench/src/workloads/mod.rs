//! The six workloads. Each stresses a different layer (see the README's
//! table for why each exists and which optimisation it should *not*
//! reward); all are built from a seed and a size, run on the default
//! discrete-event engine, and check their own outputs.

use std::time::Instant;

use pmc_runtime::{monitor, System};
use pmc_soc_sim::telemetry::{perfetto_json, validate_json};
use pmc_soc_sim::{RunReport, SocConfig};

use crate::layers::{Checks, Layers, Observed};
use crate::metrics::Values;
use crate::spans::Spans;

mod appcell;
mod enumerate;
mod fig8;
mod kvserve;
mod litmus;
mod scale;
mod stream;

/// In `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "enum_catalogue",
    "litmus_sweep",
    "fig8_splash",
    "stream_dma_256t",
    "kvserve_open",
    "scale_1024t",
];

/// The seed `BENCHMARK.json`'s numbers are quoted at.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Held out: never used while a change is written; a claim made at
/// [`DEFAULT_SEED`] must also hold here.
pub const HELD_OUT_SEED: u64 = 0x5EED_1E55;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the numbers are quoted at (a timed pass ≈ 1–1.5 s).
    Full,
    /// Catalogue-only / 8-tile / 200-request cells: every code path of
    /// the benchmark in a few seconds, no number worth quoting.
    Smoke,
}

/// What one pass over a workload's cells produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// The workload's exact metrics (`sim_*` and the exact per-workload
    /// layer values), by declared name.
    pub sim: Values,
    /// Host seconds inside the calls that run the simulator.
    pub run_s: f64,
    /// Fold of every makespan, checksum and outcome of the pass; equal
    /// digests mean bit-identical simulated behaviour.
    pub digest: u64,
}

pub trait Workload {
    /// One pass: every cell plus its output checks.
    ///
    /// Without `layers` this is a timed pass — tracing off, `spans` is
    /// [`Spans::off`]. With `layers` it is the traced pass: telemetry
    /// and tracing on, `monitor::validate` on every trace, a span around
    /// each call into a layer, and every public report folded into
    /// `layers`. Both must produce the same [`PassOut::sim`] and digest.
    fn pass(&self, checks: &mut Checks, spans: &mut Spans, layers: Option<&mut Layers>) -> PassOut;
}

/// Generate a workload's inputs from `seed`, counting the checks made on
/// them. The simulator and the enumerator only ever see what this
/// returns.
pub fn build(name: &str, seed: u64, size: Size, checks: &mut Checks) -> Option<Box<dyn Workload>> {
    Some(match name {
        "enum_catalogue" => Box::new(enumerate::EnumCatalogue::new(seed, size, checks)),
        "litmus_sweep" => Box::new(litmus::LitmusSweep::new(seed, size, checks)),
        "fig8_splash" => Box::new(fig8::Fig8Splash::new(size)),
        "stream_dma_256t" => Box::new(stream::StreamDma::new(size)),
        "kvserve_open" => Box::new(kvserve::KvServeOpen::new(seed, size)),
        "scale_1024t" => Box::new(scale::Scale1024::new(size)),
        _ => return None,
    })
}

/// One line on why the workload is in the set (`BENCHMARK.json` `why`).
pub fn why(name: &str) -> &'static str {
    match name {
        "enum_catalogue" => {
            "model enumerator only (pmc-core): a soc-sim or runtime change must show no change here"
        }
        "litmus_sweep" => {
            "thousands of 2-4 tile runs: per-Soc set-up, teardown, trace and monitor cost, not steady-state events; only DSM and distributed-lock user"
        }
        "fig8_splash" => {
            "the paper's Fig. 8 at 32 tiles: cache hit/miss, uncached SDRAM, scope flush/invalidate, engine handoffs; DMA and telemetry idle"
        }
        "stream_dma_256t" => {
            "transfer-bound DMA stream at 256 tiles: DMA engine, NoC path reservation, SDRAM ports; caches and scopes almost idle"
        }
        "kvserve_open" => {
            "open-loop serving from a seeded schedule: mailboxes, locks, scopes and tile-to-tile DMA under a rate ladder, writes beside reads"
        }
        "scale_1024t" => {
            "1024 tiles with few events per tile: Soc::new per-tile allocation, task spawn/join and memory footprint dominate"
        }
        _ => "",
    }
}

/// FNV-1a fold used for pass digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `k` memory-controller tiles spread evenly over `n_tiles` — the
/// placement every multi-controller figure of the repo uses, so
/// controller counts compare port parallelism rather than placement.
pub fn spread_controllers(n_tiles: usize, k: usize) -> Vec<usize> {
    (0..k).map(|i| i * n_tiles / k).collect()
}

/// Read everything a finished [`System`] run exposes.
pub fn observe(sys: &System, traced: bool) -> Observed {
    let soc = sys.soc();
    Observed {
        links: soc.link_report(),
        ports: soc.port_report(),
        engine: soc.engine_stats(),
        trace: if traced { soc.take_trace() } else { Vec::new() },
        telemetry: soc.take_telemetry(),
    }
}

/// The traced half of a cell, after the run: validate the trace against
/// the consistency monitor, export the Perfetto timeline, and fold the
/// run's reports into the pass totals. Records `validate` and `export`
/// spans under the innermost open span.
pub fn audit(
    label: &str,
    cfg: &SocConfig,
    report: &RunReport,
    seen: &Observed,
    spans: &mut Spans,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let violations = spans.time("validate", || monitor::validate(&seen.trace));
    checks
        .check(violations.is_empty(), || format!("{label}: monitor violation: {}", violations[0]));
    layers.monitor_records += seen.trace.len() as u64;
    let exported = spans.time("export", || perfetto_json(cfg, &seen.telemetry, &seen.trace));
    let parsed = validate_json(&exported);
    checks.check(parsed.is_ok(), || format!("{label}: Perfetto export is not JSON: {parsed:?}"));
    layers.absorb(report, seen);
}
