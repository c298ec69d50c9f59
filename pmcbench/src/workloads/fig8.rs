//! `fig8_splash` — the paper's Fig. 8: RADIOSITY / RAYTRACE / VOLREND
//! on the uncached ("no CC") and SWCC back-ends, 32 tiles on the ring.
//!
//! Six cells, 5.3 M simulated cycles and ~476 k engine handoffs per pass:
//! host time is the cache hit/miss path, uncached SDRAM accesses, scope
//! entry/exit flush+invalidate, SDRAM locks and the engine⇄task
//! rendezvous. DMA and telemetry stay idle. The inputs are the paper's
//! fixed kernels, so the seed changes nothing here.

use pmc_apps::workload::{Workload as App, WorkloadParams};
use pmc_runtime::BackendKind;
use pmc_soc_sim::Topology;

use super::appcell::AppCell;
use super::{Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers};
use crate::metrics::Values;
use crate::spans::Spans;

pub struct Fig8Splash {
    /// `(no CC, SWCC)` per application, in `App::FIG8` order.
    pairs: Vec<(AppCell, AppCell)>,
}

impl Fig8Splash {
    pub fn new(size: Size) -> Self {
        let (params, n_tiles) = match size {
            Size::Full => (WorkloadParams::Full, 32),
            Size::Smoke => (WorkloadParams::Tiny, 8),
        };
        let cell =
            |app, backend| AppCell { app, params, backend, topology: Topology::Ring, n_tiles };
        let pairs = App::FIG8
            .iter()
            .map(|&app| (cell(app, BackendKind::Uncached), cell(app, BackendKind::Swcc)))
            .collect();
        Fig8Splash { pairs }
    }
}

impl Workload for Fig8Splash {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let (mut makespan, mut run_s, mut gain) = (0u64, 0.0, 0.0);
        for (base_cell, swcc_cell) in &self.pairs {
            let base = base_cell.run(checks, spans, layers.as_deref_mut());
            let swcc = swcc_cell.run(checks, spans, layers.as_deref_mut());
            // RADIOSITY redistributes energy chaotically: its sum is
            // conserved, not bit-identical across back-ends.
            if base_cell.app != App::Radiosity {
                checks.check(base.checksum == swcc.checksum, || {
                    format!("{}: output differs between no-CC and SWCC", base_cell.app.name())
                });
            }
            checks.check(swcc.makespan < base.makespan, || {
                format!(
                    "{}: SWCC {} is not faster than no-CC {}",
                    base_cell.app.name(),
                    swcc.makespan,
                    base.makespan
                )
            });
            gain += (1.0 - swcc.makespan as f64 / base.makespan as f64) * 100.0;
            for out in [base, swcc] {
                makespan += out.makespan;
                run_s += out.run_s;
                digest.mix(out.makespan);
                digest.mix(out.checksum);
            }
        }
        let mut sim = Values::new();
        sim.insert("sim_makespan_cycles".into(), makespan as f64);
        sim.insert("sim_swcc_gain_pct".into(), gain / self.pairs.len() as f64);
        PassOut { sim, run_s, digest: digest.finish() }
    }
}
