//! `scale_1024t` — MOTION-EST {Tiny, Full} × {SWCC, SPM} on a 32×32
//! mesh, each cell twice per pass.
//!
//! 1 024 tiles share a few dozen block-matching tasks, so there are few
//! events per tile: host time is `Soc::new`'s per-tile allocation and
//! 1 024 task spawns and joins, and peak memory is thread stacks plus
//! tile memories. This is the MemPool-class design point (arXiv:
//! 2303.17742) and the test bed for "per-tile allocation in `Soc::new`"
//! and "tile programs as parked OS threads". Fixed inputs; the seed
//! changes nothing here.

use pmc_apps::workload::{Workload as App, WorkloadParams};
use pmc_runtime::BackendKind;
use pmc_soc_sim::Topology;

use super::appcell::AppCell;
use super::{Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers};
use crate::metrics::Values;
use crate::spans::Spans;

pub struct Scale1024 {
    cells: Vec<AppCell>,
    repeats: usize,
}

impl Scale1024 {
    pub fn new(size: Size) -> Self {
        let (cols, rows, sizes, repeats): (_, _, &[WorkloadParams], _) = match size {
            Size::Full => (32, 32, &[WorkloadParams::Tiny, WorkloadParams::Full], 2),
            Size::Smoke => (4, 2, &[WorkloadParams::Tiny], 1),
        };
        let mut cells = Vec::new();
        for &params in sizes {
            for backend in [BackendKind::Swcc, BackendKind::Spm] {
                cells.push(AppCell {
                    app: App::MotionEst,
                    params,
                    backend,
                    topology: Topology::Mesh { cols, rows },
                    n_tiles: cols * rows,
                });
            }
        }
        Scale1024 { cells, repeats }
    }
}

impl Workload for Scale1024 {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let (mut makespan, mut run_s) = (0u64, 0.0);
        for _ in 0..self.repeats {
            // MOTION-EST's vectors are bit-identical across back-ends.
            let mut by_size: Vec<(WorkloadParams, u64)> = Vec::new();
            for c in &self.cells {
                let out = c.run(checks, spans, layers.as_deref_mut());
                checks.check(out.makespan > 0, || format!("{}: empty run", c.label()));
                match by_size.iter().find(|(p, _)| *p == c.params) {
                    Some(&(_, first)) => checks.check(out.checksum == first, || {
                        format!("{}: motion vectors differ between back-ends", c.label())
                    }),
                    None => by_size.push((c.params, out.checksum)),
                }
                makespan += out.makespan;
                run_s += out.run_s;
                digest.mix(out.makespan);
                digest.mix(out.checksum);
            }
        }
        let mut sim = Values::new();
        sim.insert("sim_makespan_cycles".into(), makespan as f64);
        PassOut { sim, run_s, digest: digest.finish() }
    }
}
