//! `stream_dma_256t` — a transfer-bound, double-buffered DMA stream
//! (SPM back-end, 1 KiB bursts, 2 channels, 4 KiB tasks, 2 tasks per
//! tile) on the 16×16 mesh and torus with 1, 2 and 4 interleaved SDRAM
//! controllers, each cell twice per pass.
//!
//! Host time is the DMA engine, `Noc::reserve_path`, `SdramPorts`, the
//! packet drain and `Soc::new` at 256 tiles; caches and scope flushes do
//! almost nothing. The library has no fused driver for this kernel, so
//! timed and traced passes share one staged path and differ only in the
//! telemetry switch. Fixed inputs; the seed changes nothing here.
//!
//! Stays at 256 tiles: the same stream at 32×32 panics with "read_block
//! on the cached window" (see the README's known limits).

use pmc_apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc_runtime::{BackendKind, Program, RunConfig, System};
use pmc_soc_sim::Topology;

use super::{audit, observe, spread_controllers, timed, Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers};
use crate::metrics::Values;
use crate::spans::Spans;

struct Cell {
    topology: Topology,
    n_tiles: usize,
    controllers: usize,
}

pub struct StreamDma {
    cells: Vec<Cell>,
    repeats: usize,
    /// Whether the cells are big enough for the controller-scaling claim
    /// (a handful of tiles cannot saturate one SDRAM port).
    check_scaling: bool,
}

struct CellOut {
    makespan: u64,
    checksum: u64,
    dma_bytes: u64,
    run_s: f64,
}

impl StreamDma {
    pub fn new(size: Size) -> Self {
        let (cols, rows, repeats) = match size {
            Size::Full => (16, 16, 2),
            Size::Smoke => (4, 2, 1),
        };
        let mut cells = Vec::new();
        for topology in [Topology::Mesh { cols, rows }, Topology::Torus { cols, rows }] {
            for controllers in [1, 2, 4] {
                cells.push(Cell { topology, n_tiles: cols * rows, controllers });
            }
        }
        StreamDma { cells, repeats, check_scaling: size == Size::Full }
    }

    fn cell(
        &self,
        c: &Cell,
        checks: &mut Checks,
        spans: &mut Spans,
        layers: Option<&mut Layers>,
    ) -> CellOut {
        let label = format!("stream {}{} x{}ctrl", c.topology.name(), c.n_tiles, c.controllers);
        let traced = layers.is_some();
        let session = RunConfig::new(BackendKind::Spm)
            .topology(c.topology)
            .mem_controllers(spread_controllers(c.n_tiles, c.controllers))
            .dma_channels(2)
            .telemetry(traced)
            .trace(traced)
            .session();
        let cfg = session.soc_config(c.n_tiles);
        let cell = spans.enter("cell");
        let (mut sys, app) = spans.time("build", || {
            let mut sys = System::new(cfg.clone(), session.backend(), session.lock());
            sys.set_dma_burst(1024);
            let params = StreamCopyParams {
                n_tasks: 2 * c.n_tiles as u32,
                task_bytes: 4096,
                compute_per_word: 0,
            };
            let app = StreamCopy::build(&mut sys, params);
            (sys, app)
        });
        let app_ref = &app;
        let programs: Vec<Program<'_>> = (0..c.n_tiles)
            .map(|_| -> Program<'_> {
                Box::new(move |ctx| app_ref.worker(ctx, StreamMode::DmaDouble))
            })
            .collect();
        let (report, run_s) = spans.time("run", || timed(|| sys.run(programs)));
        // `StreamCopy::checksum` itself asserts every task's reduction
        // against the host-side ground truth.
        let (checksum, seen) =
            spans.time("collect", || (app.checksum(&sys), observe(&sys, traced)));
        let busy_ports = seen.ports.iter().filter(|p| p.busy > 0).count();
        checks.check(busy_ports == c.controllers, || {
            format!("{label}: {busy_ports} of {} configured SDRAM ports saw traffic", c.controllers)
        });
        if let Some(layers) = layers {
            audit(&label, &cfg, &report, &seen, spans, layers, checks);
        }
        spans.exit(cell);
        CellOut {
            makespan: report.makespan,
            checksum,
            dma_bytes: report.aggregate().dma_bytes,
            run_s,
        }
    }
}

impl Workload for StreamDma {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let (mut makespan, mut run_s) = (0u64, 0.0);
        let mut sim = Values::new();
        for _ in 0..self.repeats {
            // Payload bytes per kilocycle, per topology, by controller count.
            let mut bandwidth: Vec<(Topology, Vec<f64>)> = Vec::new();
            for c in &self.cells {
                let out = self.cell(c, checks, spans, layers.as_deref_mut());
                let bw = out.dma_bytes as f64 * 1000.0 / out.makespan as f64;
                match bandwidth.iter_mut().find(|(t, _)| *t == c.topology) {
                    Some((_, v)) => v.push(bw),
                    None => bandwidth.push((c.topology, vec![bw])),
                }
                if matches!(c.topology, Topology::Mesh { .. }) && c.controllers == 4 {
                    sim.insert("sim_bytes_per_kcycle".into(), bw);
                }
                makespan += out.makespan;
                run_s += out.run_s;
                digest.mix(out.makespan);
                digest.mix(out.checksum);
            }
            if self.check_scaling {
                for (topology, bw) in &bandwidth {
                    checks.check(bw.last() > bw.first(), || {
                        format!(
                            "{}: bandwidth does not grow with controllers: {bw:?}",
                            topology.name()
                        )
                    });
                }
            }
        }
        sim.insert("sim_makespan_cycles".into(), makespan as f64);
        PassOut { sim, run_s, digest: digest.finish() }
    }
}
