//! RAYTRACE-style kernel.
//!
//! A small but genuine Whitted-style ray tracer: perspective camera,
//! sphere scene with a ground plane, one point light, hard shadows and
//! one reflection bounce. The scene is a *read-mostly shared object* with
//! very high reuse inside a work block — under software cache coherency
//! the scene is fetched once per block and then hits the cache, while the
//! "no CC" baseline pays an SDRAM round-trip for every scene read. That
//! contrast is exactly the RAYTRACE bar of the paper's Fig. 8 (shared
//! read stalls almost vanish under SWCC).

use pmc_runtime::{PmcCtx, PrivSlab, RoScope, Slab, System};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy)]
pub struct RaytraceParams {
    pub width: u32,
    pub height: u32,
    pub n_spheres: u32,
    /// Image rows per work ticket.
    pub rows_per_task: u32,
    pub seed: u64,
}

impl Default for RaytraceParams {
    fn default() -> Self {
        RaytraceParams { width: 48, height: 36, n_spheres: 10, rows_per_task: 2, seed: 0x5EED_0002 }
    }
}

/// Floats per sphere in the scene slab: cx, cy, cz, r, cr, cg, cb, refl.
const SPHERE_STRIDE: u32 = 8;

pub struct Raytrace {
    pub params: RaytraceParams,
    scene: Slab<f32>,
    /// One framebuffer chunk per task, each under its own lock.
    fb: Vec<Slab<u32>>,
    /// Per-core tone-map LUT (private data: real private-read traffic).
    lut: PrivSlab<f32>,
    tickets: pmc_runtime::queue::Tickets,
    n_tasks: u32,
}

impl Raytrace {
    pub fn build(sys: &mut System, params: RaytraceParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let scene = sys.alloc_slab::<f32>("raytrace.scene", params.n_spheres * SPHERE_STRIDE);
        let spheres: Vec<f32> = (0..params.n_spheres)
            .flat_map(|i| {
                [
                    rng.random_range(-3.0f32..3.0),     // cx
                    rng.random_range(-0.5f32..2.0),     // cy
                    rng.random_range(3.0f32..9.0),      // cz
                    rng.random_range(0.4f32..1.1),      // r
                    rng.random_range(0.2f32..1.0),      // cr
                    rng.random_range(0.2f32..1.0),      // cg
                    rng.random_range(0.2f32..1.0),      // cb
                    if i % 3 == 0 { 0.4 } else { 0.0 }, // refl
                ]
            })
            .collect();
        sys.init_slice(scene, 0, &spheres);
        assert_eq!(params.height % params.rows_per_task, 0);
        let n_tasks = params.height / params.rows_per_task;
        let fb = (0..n_tasks)
            .map(|t| {
                sys.alloc_slab::<u32>(
                    &format!("raytrace.fb[{t}]"),
                    params.width * params.rows_per_task,
                )
            })
            .collect();
        let lut = sys.alloc_private::<f32>(256);
        let tone: Vec<f32> = (0..256).map(|i| 1.0 - (-(i as f32) / 96.0).exp()).collect();
        sys.init_private(&lut, 0, &tone);
        let tickets = sys.alloc_ticket();
        Raytrace { params, scene, fb, lut, tickets, n_tasks }
    }

    fn sphere(&self, scene: &RoScope<'_, '_, '_, f32>, i: u32, field: u32) -> f32 {
        scene.read_at(i * SPHERE_STRIDE + field)
    }

    /// Nearest intersection of the ray with the scene; returns
    /// `(t, sphere_index)` where index == n_spheres means the ground
    /// plane (y = -1) and `t == f32::INFINITY` means a miss.
    fn intersect(
        &self,
        ctx: &PmcCtx<'_, '_>,
        scene: &RoScope<'_, '_, '_, f32>,
        o: [f32; 3],
        d: [f32; 3],
    ) -> (f32, u32) {
        let mut best = (f32::INFINITY, u32::MAX);
        for i in 0..self.params.n_spheres {
            // Each sphere test reads 4 shared floats and does ~25 FLOPs.
            let cx = self.sphere(scene, i, 0);
            let cy = self.sphere(scene, i, 1);
            let cz = self.sphere(scene, i, 2);
            let r = self.sphere(scene, i, 3);
            ctx.compute(110); // soft-FPU dot products + sqrt
            let oc = [o[0] - cx, o[1] - cy, o[2] - cz];
            let b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2];
            let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - r * r;
            let disc = b * b - c;
            if disc > 0.0 {
                let t = -b - disc.sqrt();
                if t > 1e-3 && t < best.0 {
                    best = (t, i);
                }
            }
        }
        // Ground plane y = -1.
        if d[1] < -1e-6 {
            let t = (-1.0 - o[1]) / d[1];
            ctx.compute(30);
            if t > 1e-3 && t < best.0 {
                best = (t, self.params.n_spheres);
            }
        }
        best
    }

    /// Shade a ray, with at most `depth` reflection bounces.
    fn trace(
        &self,
        ctx: &PmcCtx<'_, '_>,
        scene: &RoScope<'_, '_, '_, f32>,
        o: [f32; 3],
        d: [f32; 3],
        depth: u32,
    ) -> [f32; 3] {
        let (t, idx) = self.intersect(ctx, scene, o, d);
        if t == f32::INFINITY {
            let sky = 0.15 + 0.25 * d[1].max(0.0);
            return [sky, sky, 0.3 + 0.3 * d[1].max(0.0)];
        }
        let hit = [o[0] + t * d[0], o[1] + t * d[1], o[2] + t * d[2]];
        let (n, albedo, refl) = if idx == self.params.n_spheres {
            let check = ((hit[0].floor() as i64 + hit[2].floor() as i64) & 1) as f32;
            ([0.0, 1.0, 0.0], [0.3 + 0.5 * check; 3], 0.0)
        } else {
            let cx = self.sphere(scene, idx, 0);
            let cy = self.sphere(scene, idx, 1);
            let cz = self.sphere(scene, idx, 2);
            let r = self.sphere(scene, idx, 3);
            let col = [
                self.sphere(scene, idx, 4),
                self.sphere(scene, idx, 5),
                self.sphere(scene, idx, 6),
            ];
            let refl = self.sphere(scene, idx, 7);
            ([(hit[0] - cx) / r, (hit[1] - cy) / r, (hit[2] - cz) / r], col, refl)
        };
        ctx.compute(220); // shading arithmetic (soft-FPU)
        let light = [4.0f32, 6.0, 0.0];
        let lv = [light[0] - hit[0], light[1] - hit[1], light[2] - hit[2]];
        let llen = (lv[0] * lv[0] + lv[1] * lv[1] + lv[2] * lv[2]).sqrt();
        let ld = [lv[0] / llen, lv[1] / llen, lv[2] / llen];
        // Hard shadow: one occlusion ray.
        let (ts, _) = self.intersect(ctx, scene, hit, ld);
        let lit = if ts < llen { 0.0 } else { 1.0 };
        let ndl = (n[0] * ld[0] + n[1] * ld[1] + n[2] * ld[2]).max(0.0);
        let diff = 0.1 + 0.9 * ndl * lit;
        let mut color = [albedo[0] * diff, albedo[1] * diff, albedo[2] * diff];
        if refl > 0.0 && depth > 0 {
            let ddn = d[0] * n[0] + d[1] * n[1] + d[2] * n[2];
            let rd = [d[0] - 2.0 * ddn * n[0], d[1] - 2.0 * ddn * n[1], d[2] - 2.0 * ddn * n[2]];
            let rc = self.trace(ctx, scene, hit, rd, depth - 1);
            for k in 0..3 {
                color[k] = color[k] * (1.0 - refl) + rc[k] * refl;
            }
        }
        color
    }

    pub fn worker(&self, ctx: &mut PmcCtx<'_, '_>) {
        let p = self.params;
        let ctx = &*ctx;
        while let Some(task) = self.tickets.take(ctx, self.n_tasks) {
            // The scene is read many times per block: one read-only scope
            // per task (high in-scope reuse).
            let scene = ctx.scope_ro(self.scene);
            let fb = ctx.scope_x(self.fb[task as usize]);
            for row in 0..p.rows_per_task {
                let y = task * p.rows_per_task + row;
                for x in 0..p.width {
                    let u = (x as f32 + 0.5) / p.width as f32 * 2.0 - 1.0;
                    let v = 1.0 - (y as f32 + 0.5) / p.height as f32 * 2.0;
                    let aspect = p.width as f32 / p.height as f32;
                    let d = [u * aspect, v, 1.5];
                    let len = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    let d = [d[0] / len, d[1] / len, d[2] / len];
                    let c = self.trace(ctx, &scene, [0.0, 1.0, -3.0], d, 1);
                    // Tone-map through the private LUT (private reads).
                    let mut px = 0u32;
                    for (k, &ch) in c.iter().enumerate() {
                        let q = (ch.clamp(0.0, 1.0) * 255.0) as u32;
                        let mapped = ctx.priv_read(&self.lut, q.min(255));
                        px |= (((mapped * 255.0) as u32) & 0xff) << (8 * k);
                    }
                    ctx.compute(45);
                    fb.write_at(row * p.width + x, px);
                }
            }
            fb.close();
            scene.close();
        }
    }

    /// Read one framebuffer pixel back after a run.
    pub fn pixel(&self, sys: &System, task: u32, idx: u32) -> u32 {
        sys.read_back_at(self.fb[task as usize], idx)
    }

    /// Deterministic image checksum (bit-exact across back-ends: the
    /// per-pixel computation never depends on scheduling).
    pub fn checksum(&self, sys: &System) -> f64 {
        let mut acc = 0u64;
        for (t, fb) in self.fb.iter().enumerate() {
            for i in 0..fb.len() {
                let px = sys.read_back_at(*fb, i) as u64;
                acc = acc.wrapping_mul(31).wrapping_add(px ^ t as u64);
            }
        }
        acc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{BackendKind, LockKind};
    use pmc_soc_sim::SocConfig;

    #[test]
    fn image_is_bit_identical_across_backends() {
        let params =
            RaytraceParams { width: 16, height: 8, n_spheres: 4, rows_per_task: 2, seed: 42 };
        let mut sums = Vec::new();
        // SPM staging of the whole scene works too, but the interesting
        // comparison is uncached vs SWCC vs DSM.
        for backend in [BackendKind::Uncached, BackendKind::Swcc, BackendKind::Dsm] {
            let n = 2usize;
            let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
            let app = Raytrace::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..n)
                    .map(|_| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker(ctx))
                    })
                    .collect(),
            );
            sums.push(app.checksum(&sys));
        }
        assert_eq!(sums[0], sums[1], "uncached vs swcc");
        assert_eq!(sums[0], sums[2], "uncached vs dsm");
        assert_ne!(sums[0], 0.0);
    }
}
