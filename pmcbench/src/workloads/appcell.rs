//! One (application, back-end, topology) cell of the SPLASH-style
//! kernels, run two ways: fused through `Session::workload` for the
//! timed passes, and staged — `build` → `System::run` → `checksum`, each
//! under its own span — for the traced pass, which must reproduce the
//! fused makespan and checksum bit for bit.

use pmc_apps::motion_est::{MotionEst, MotionEstParams};
use pmc_apps::radiosity::{Radiosity, RadiosityParams};
use pmc_apps::raytrace::{Raytrace, RaytraceParams};
use pmc_apps::volrend::{Volrend, VolrendParams};
use pmc_apps::workload::{SessionWorkload, Workload as App, WorkloadParams};
use pmc_runtime::{BackendKind, PmcCtx, Program, RunConfig, System};
use pmc_soc_sim::Topology;

use super::{audit, observe, timed};
use crate::layers::{Checks, Layers};
use crate::spans::Spans;

#[derive(Debug, Clone, Copy)]
pub struct AppCell {
    pub app: App,
    pub params: WorkloadParams,
    pub backend: BackendKind,
    pub topology: Topology,
    pub n_tiles: usize,
}

/// What a cell's run produced: the two numbers that must not depend on
/// how the cell was driven, plus the host time of the run call.
#[derive(Debug, Clone, Copy)]
pub struct CellOut {
    pub makespan: u64,
    /// Bits of the application checksum.
    pub checksum: u64,
    pub run_s: f64,
}

/// The application under construction, behind one `worker`/`checksum`
/// surface. The size tables mirror `run_workload`'s; the traced pass
/// checks that they still do.
enum Built {
    Radiosity(Radiosity),
    Raytrace(Raytrace),
    Volrend(Volrend),
    MotionEst(MotionEst),
}

impl Built {
    fn build(sys: &mut System, cell: &AppCell) -> Built {
        let tiny = cell.params == WorkloadParams::Tiny;
        match cell.app {
            App::Radiosity => {
                let p = if tiny {
                    RadiosityParams { n_patches: 48, iters: 2, ..Default::default() }
                } else {
                    RadiosityParams::default()
                };
                Built::Radiosity(Radiosity::build(sys, p, cell.n_tiles as u32))
            }
            App::Raytrace => {
                let p = if tiny {
                    RaytraceParams {
                        width: 16,
                        height: 8,
                        n_spheres: 4,
                        rows_per_task: 2,
                        ..Default::default()
                    }
                } else {
                    RaytraceParams::default()
                };
                Built::Raytrace(Raytrace::build(sys, p))
            }
            App::Volrend => {
                let p = if tiny {
                    VolrendParams { dim: 16, img: 16, rows_per_task: 2, ..Default::default() }
                } else {
                    VolrendParams::default()
                };
                Built::Volrend(Volrend::build(sys, p))
            }
            App::MotionEst => {
                let p = if tiny {
                    MotionEstParams { frame: 32, block: 16, range: 4, ..Default::default() }
                } else {
                    MotionEstParams::default()
                };
                Built::MotionEst(MotionEst::build(sys, p))
            }
        }
    }

    fn worker(&self, ctx: &mut PmcCtx<'_, '_>, tile: usize) {
        match self {
            Built::Radiosity(a) => a.worker(ctx, tile == 0),
            Built::Raytrace(a) => a.worker(ctx),
            Built::Volrend(a) => a.worker(ctx),
            Built::MotionEst(a) => a.worker(ctx),
        }
    }

    fn checksum(&self, sys: &System) -> f64 {
        match self {
            Built::Radiosity(a) => a.checksum(sys),
            Built::Raytrace(a) => a.checksum(sys),
            Built::Volrend(a) => a.checksum(sys),
            Built::MotionEst(a) => a.checksum(sys),
        }
    }
}

impl AppCell {
    pub fn label(&self) -> String {
        format!(
            "{} {:?} {} {}x{}",
            self.app.name(),
            self.params,
            self.backend.name(),
            self.topology.name(),
            self.n_tiles
        )
    }

    fn config(&self, traced: bool) -> RunConfig {
        RunConfig::new(self.backend)
            .topology(self.topology)
            .n_tiles(self.n_tiles)
            .telemetry(traced)
            .trace(traced)
    }

    /// Run the cell: fused when timed (`layers` absent), staged when
    /// traced.
    pub fn run(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        layers: Option<&mut Layers>,
    ) -> CellOut {
        match layers {
            None => self.fused(),
            Some(layers) => self.staged(spans, layers, checks),
        }
    }

    /// The timed path: one call into the library's own driver.
    fn fused(&self) -> CellOut {
        let (r, run_s) = timed(|| self.config(false).session().workload(self.app, self.params));
        CellOut { makespan: r.report.makespan, checksum: r.checksum.to_bits(), run_s }
    }

    /// The traced path: the same run driven stage by stage, telemetry
    /// and tracing on, every stage under its own span.
    fn staged(&self, spans: &mut Spans, layers: &mut Layers, checks: &mut Checks) -> CellOut {
        let cell = spans.enter("cell");
        let session = self.config(true).session();
        let mut cfg = session.soc_config(self.n_tiles);
        cfg.icache_mpki = self.app.icache_mpki();
        let (mut sys, built) = spans.time("build", || {
            let mut sys = System::new(cfg.clone(), session.backend(), session.lock());
            let built = Built::build(&mut sys, self);
            (sys, built)
        });
        let built_ref = &built;
        let programs: Vec<Program<'_>> = (0..self.n_tiles)
            .map(|t| -> Program<'_> { Box::new(move |ctx| built_ref.worker(ctx, t)) })
            .collect();
        let (report, run_s) = spans.time("run", || timed(|| sys.run(programs)));
        let (checksum, seen) =
            spans.time("collect", || (built.checksum(&sys), observe(&sys, true)));
        audit(&self.label(), &cfg, &report, &seen, spans, layers, checks);
        spans.exit(cell);
        CellOut { makespan: report.makespan, checksum: checksum.to_bits(), run_s }
    }
}
