//! RADIOSITY-style kernel.
//!
//! Hierarchical radiosity iteratively shoots energy between scene patches
//! along a sparse interaction graph. What matters for the paper's Fig. 8
//! is the *sharing pattern*: small shared records (a patch's residual and
//! accumulated energy) updated in a scattered, data-dependent order —
//! "the design of the application, which addresses and updates the memory
//! in a chaotic way". Each task grabs one patch exclusively, absorbs half
//! its residual, and scatters the other half to its graph neighbours,
//! each under its own short exclusive scope.

use pmc_runtime::{Obj, PmcCtx, System};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy)]
pub struct RadiosityParams {
    pub n_patches: u32,
    /// Shooting iterations (each is a barrier-separated phase).
    pub iters: u32,
    /// Out-degree of the interaction graph.
    pub fanout: u32,
    /// Form-factor math per interaction, in instructions.
    pub work_per_interaction: u64,
    pub seed: u64,
}

impl Default for RadiosityParams {
    fn default() -> Self {
        RadiosityParams {
            n_patches: 384,
            iters: 3,
            fanout: 4,
            work_per_interaction: 300,
            seed: 0x5EED_0001,
        }
    }
}

/// A patch record, one cache line: `[residual, gathered, area, nx, ny,
/// nz, reflectance, pad]` — like the original's patch structs, several
/// fields are read per interaction (energy plus geometry for the form
/// factor), giving modest in-scope reuse.
type Patch = [f32; 8];

pub struct Radiosity {
    pub params: RadiosityParams,
    patches: pmc_runtime::ObjVec<Patch>,
    /// Interaction graph, host-precomputed from the seed (static scene
    /// geometry; in SPLASH-2 this is the patch BSP, read-only).
    edges: Vec<Vec<u32>>,
    tickets: pmc_runtime::queue::Tickets,
    barrier: pmc_runtime::barrier::Barrier,
}

impl Radiosity {
    /// Build the shared state in `sys`.
    pub fn build(sys: &mut System, params: RadiosityParams, n_workers: u32) -> Self {
        let patches = sys.alloc_vec::<Patch>("radiosity.patch", params.n_patches);
        let mut rng = StdRng::seed_from_u64(params.seed);
        for i in 0..params.n_patches {
            let initial = if i % 7 == 0 { 100.0 } else { 0.0 };
            let gi = i as f32;
            sys.init(
                patches.at(i),
                [initial, 0.0, 1.0 + (gi % 5.0), gi.sin(), gi.cos(), 0.5, 0.7, 0.0],
            );
        }
        let edges = (0..params.n_patches)
            .map(|i| {
                (0..params.fanout)
                    .map(|_| {
                        let mut j = rng.random_range(0..params.n_patches);
                        if j == i {
                            j = (j + 1) % params.n_patches;
                        }
                        j
                    })
                    .collect()
            })
            .collect();
        let tickets = sys.alloc_ticket();
        let barrier = sys.alloc_barrier(n_workers);
        Radiosity { params, patches, edges, tickets, barrier }
    }

    /// The per-core worker. `is_leader` resets the ticket dispenser
    /// between iterations.
    pub fn worker(&self, ctx: &mut PmcCtx<'_, '_>, is_leader: bool) {
        let p = self.params;
        let ctx = &*ctx;
        for _iter in 0..p.iters {
            while let Some(t) = self.tickets.take(ctx, p.n_patches) {
                let patch: Obj<Patch> = self.patches.at(t);
                // Absorb half the residual, shoot the other half. The
                // whole record is read (energy + geometry for the form
                // factor), then updated.
                let residual = {
                    let s = ctx.scope_x(patch);
                    let mut rec = s.read();
                    let residual = rec[0];
                    rec[0] = 0.0;
                    rec[1] += residual * 0.5;
                    s.write(rec);
                    residual
                };
                let share = residual * 0.5 / p.fanout as f32;
                if residual > 1e-6 {
                    for &j in &self.edges[t as usize] {
                        // Form-factor evaluation (visibility, geometry).
                        ctx.compute(p.work_per_interaction);
                        let s = ctx.scope_x(self.patches.at(j));
                        let mut nrec = s.read();
                        nrec[0] += share * nrec[6]; // reflected share
                        nrec[1] += share * (1.0 - nrec[6]); // absorbed
                        s.write(nrec);
                    }
                } else {
                    ctx.compute(p.work_per_interaction / 4);
                }
            }
            self.barrier.wait(ctx);
            if is_leader {
                self.tickets.reset(ctx);
            }
            self.barrier.wait(ctx);
        }
    }

    /// Total energy in the system (conserved by construction; the
    /// cross-backend determinism check of the workload driver).
    pub fn checksum(&self, sys: &System) -> f64 {
        let mut total = 0.0f64;
        for i in 0..self.params.n_patches {
            let rec: Patch = sys.read_back(self.patches.at(i));
            total += (rec[0] + rec[1]) as f64;
        }
        total
    }

    /// The initial total energy (for conservation assertions).
    #[cfg(test)]
    pub(crate) fn initial_energy(&self) -> f64 {
        (0..self.params.n_patches).filter(|i| i % 7 == 0).count() as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{BackendKind, LockKind};
    use pmc_soc_sim::SocConfig;

    #[test]
    fn energy_is_conserved_on_all_backends() {
        for backend in BackendKind::ALL {
            let n = 4usize;
            let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
            let params = RadiosityParams {
                n_patches: 32,
                iters: 2,
                fanout: 3,
                work_per_interaction: 10,
                seed: 7,
            };
            let app = Radiosity::build(&mut sys, params, n as u32);
            let app_ref = &app;
            sys.run(
                (0..n)
                    .map(|t| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker(ctx, t == 0))
                    })
                    .collect(),
            );
            let total = app.checksum(&sys);
            let expect = app.initial_energy();
            assert!(
                (total - expect).abs() < 1e-3 * expect.max(1.0),
                "{backend:?}: energy {total} != {expect}"
            );
        }
    }
}
