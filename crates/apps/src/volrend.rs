//! VOLREND-style kernel.
//!
//! Volume rendering by ray casting: orthographic rays step through a
//! shared 3-D density volume, map density through a transfer function,
//! and composite front-to-back with early termination. Like SPLASH-2's
//! VOLREND, an octree-style min-max pyramid lets rays skip empty spans —
//! both structures are read-mostly shared data with high in-block reuse
//! (the Fig. 8 pattern where SWCC eliminates nearly all shared-read
//! stalls).

use pmc_runtime::{PmcCtx, RoScope, Slab, System};

#[derive(Debug, Clone, Copy)]
pub struct VolrendParams {
    /// Volume dimension (cubic, `dim^3` voxels).
    pub dim: u32,
    /// Output image is `img x img` rays.
    pub img: u32,
    /// Image rows per ticket.
    pub rows_per_task: u32,
    /// Use the min-max pyramid to skip empty spans (the SPLASH-2
    /// "hierarchical opacity enumeration"; ablation knob).
    pub use_pyramid: bool,
    /// Stream the framebuffer out row by row with asynchronous DMA puts
    /// (each row's transfer overlaps the next row's ray casting) instead
    /// of writing back the whole tile at `exit_x`.
    pub use_dma: bool,
    /// Gather only the volume rows this task's rays traverse, with one
    /// strided scatter/gather descriptor per task (one row-range per
    /// z-plane), instead of staging the whole volume eagerly — the
    /// strided-rows input mode.
    pub use_gather: bool,
    pub seed: u64,
}

impl Default for VolrendParams {
    fn default() -> Self {
        VolrendParams {
            dim: 40,
            img: 40,
            rows_per_task: 2,
            use_pyramid: true,
            use_dma: false,
            use_gather: false,
            seed: 0x5EED_0003,
        }
    }
}

/// Pyramid cell edge in voxels.
const CELL: u32 = 8;

pub struct Volrend {
    pub params: VolrendParams,
    volume: Slab<u8>,
    /// Max density per `CELL^3` cell (the skip structure).
    pyramid: Slab<u8>,
    fb: Vec<Slab<u32>>,
    tickets: pmc_runtime::queue::Tickets,
    n_tasks: u32,
}

fn density(p: &VolrendParams, x: u32, y: u32, z: u32) -> u8 {
    // A procedural "head": two nested blobs plus a wavy shell, giving
    // both empty space (pyramid skips) and dense regions.
    let d = p.dim as f32;
    let (fx, fy, fz) = (x as f32 / d - 0.5, y as f32 / d - 0.5, z as f32 / d - 0.5);
    let r2 = fx * fx + fy * fy + fz * fz;
    let shell = ((r2.sqrt() * 18.0 + (p.seed % 7) as f32).sin() * 0.5 + 0.5) * 40.0;
    let blob = if r2 < 0.09 { 200.0 * (1.0 - r2 / 0.09) } else { 0.0 };
    let core = if r2 < 0.015 { 255.0 } else { 0.0 };
    (shell + blob + core).min(255.0) as u8
}

impl Volrend {
    pub fn build(sys: &mut System, params: VolrendParams) -> Self {
        let p = params;
        let n_vox = p.dim * p.dim * p.dim;
        let volume = sys.alloc_slab::<u8>("volrend.volume", n_vox);
        let mut bytes = vec![0u8; n_vox as usize];
        for z in 0..p.dim {
            for y in 0..p.dim {
                for x in 0..p.dim {
                    bytes[((z * p.dim + y) * p.dim + x) as usize] = density(&p, x, y, z);
                }
            }
        }
        sys.init_slice(volume, 0, &bytes);
        let pd = p.dim.div_ceil(CELL);
        let pyramid = sys.alloc_slab::<u8>("volrend.pyramid", pd * pd * pd);
        let mut pyr = vec![0u8; (pd * pd * pd) as usize];
        for z in 0..p.dim {
            for y in 0..p.dim {
                for x in 0..p.dim {
                    let c = ((z / CELL * pd + y / CELL) * pd + x / CELL) as usize;
                    pyr[c] = pyr[c].max(bytes[((z * p.dim + y) * p.dim + x) as usize]);
                }
            }
        }
        sys.init_slice(pyramid, 0, &pyr);
        assert_eq!(p.img % p.rows_per_task, 0);
        let n_tasks = p.img / p.rows_per_task;
        let fb = (0..n_tasks)
            .map(|t| sys.alloc_slab::<u32>(&format!("volrend.fb[{t}]"), p.img * p.rows_per_task))
            .collect();
        let tickets = sys.alloc_ticket();
        Volrend { params, volume, pyramid, fb, tickets, n_tasks }
    }

    fn voxel(&self, volume: &RoScope<'_, '_, '_, u8>, x: u32, y: u32, z: u32) -> u8 {
        let p = self.params;
        volume.read_at((z * p.dim + y) * p.dim + x)
    }

    /// Cast one ray along +z; front-to-back compositing.
    fn cast(
        &self,
        ctx: &PmcCtx<'_, '_>,
        volume: &RoScope<'_, '_, '_, u8>,
        pyramid: &RoScope<'_, '_, '_, u8>,
        x: u32,
        y: u32,
    ) -> u32 {
        let p = self.params;
        let pd = p.dim.div_ceil(CELL);
        let mut transmittance = 1.0f32;
        let mut lum = 0.0f32;
        let mut z = 0u32;
        while z < p.dim {
            if p.use_pyramid && z.is_multiple_of(CELL) {
                let cell = pyramid.read_at((z / CELL * pd + y / CELL) * pd + x / CELL);
                ctx.compute(18);
                if cell < 8 {
                    z += CELL; // empty span: skip
                    continue;
                }
            }
            let d = self.voxel(volume, x, y, z);
            ctx.compute(60); // transfer function + compositing (soft-FPU)
            if d >= 8 {
                // Transfer function: opacity and emission grow with
                // density.
                let alpha = (d as f32 / 255.0) * 0.22;
                lum += transmittance * alpha * (40.0 + d as f32);
                transmittance *= 1.0 - alpha;
                if transmittance < 0.05 {
                    break; // early ray termination
                }
            }
            z += 1;
        }
        (lum.min(255.0) as u32) << 8 | ((transmittance * 255.0) as u32)
    }

    /// Volume-row span `[lo, hi]` a task's image rows sample.
    fn vrow_span(&self, task: u32) -> (u32, u32) {
        let p = self.params;
        let lo = task * p.rows_per_task * p.dim / p.img;
        let hi = ((task + 1) * p.rows_per_task - 1) * p.dim / p.img;
        (lo, hi)
    }

    pub fn worker(&self, ctx: &mut PmcCtx<'_, '_>) {
        let p = self.params;
        let ctx = &*ctx;
        while let Some(task) = self.tickets.take(ctx, self.n_tasks) {
            let volume = if p.use_gather {
                // Strided rows: one scatter/gather element per z-plane,
                // covering exactly the y-rows this task's rays step
                // through — the rest of the volume never moves.
                let volume = ctx.scope_ro_stream(self.volume);
                let (lo, hi) = self.vrow_span(task);
                volume.dma_get_2d(lo * p.dim, (hi - lo + 1) * p.dim, p.dim, p.dim * p.dim).wait();
                volume
            } else {
                ctx.scope_ro(self.volume)
            };
            let pyramid = ctx.scope_ro(self.pyramid);
            let fb = if p.use_dma {
                ctx.scope_x_stream(self.fb[task as usize])
            } else {
                ctx.scope_x(self.fb[task as usize])
            };
            for row in 0..p.rows_per_task {
                let y = task * p.rows_per_task + row;
                for x in 0..p.img {
                    // Map image coords to volume coords (1:1 here).
                    let px =
                        self.cast(ctx, &volume, &pyramid, x * p.dim / p.img, y * p.dim / p.img);
                    fb.write_at(row * p.img + x, px);
                }
                if p.use_dma {
                    // Stream the finished row towards SDRAM while the
                    // next row casts; the scope's close completes the
                    // final put, so the ticket is deliberately released.
                    let _streamed = fb.dma_put(row * p.img, p.img);
                }
            }
            fb.close();
            pyramid.close();
            volume.close();
        }
    }

    pub fn checksum(&self, sys: &System) -> f64 {
        let mut acc = 0u64;
        for fb in &self.fb {
            for i in 0..fb.len() {
                acc = acc.wrapping_mul(33).wrapping_add(sys.read_back_at(*fb, i) as u64);
            }
        }
        acc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;

    fn run(backend: BackendKind, use_pyramid: bool) -> f64 {
        run_modes(backend, use_pyramid, false, false)
    }

    fn run_dma(backend: BackendKind, use_pyramid: bool, use_dma: bool) -> f64 {
        run_modes(backend, use_pyramid, use_dma, false)
    }

    fn run_modes(backend: BackendKind, use_pyramid: bool, use_dma: bool, use_gather: bool) -> f64 {
        let params = VolrendParams {
            dim: 16,
            img: 16,
            rows_per_task: 4,
            use_pyramid,
            use_dma,
            use_gather,
            seed: 3,
        };
        let n = 2usize;
        let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
        let app = Volrend::build(&mut sys, params);
        let app_ref = &app;
        sys.run(
            (0..n)
                .map(|_| -> pmc_runtime::Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
                .collect(),
        );
        app.checksum(&sys)
    }

    #[test]
    fn image_identical_across_backends() {
        let a = run(BackendKind::Uncached, true);
        let b = run(BackendKind::Swcc, true);
        let c = run(BackendKind::Dsm, true);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn pyramid_is_conservative() {
        // Skipping empty space must not change the image.
        assert_eq!(run(BackendKind::Swcc, true), run(BackendKind::Swcc, false));
    }

    /// Streaming the framebuffer out with row-level DMA puts changes the
    /// timing, never the image — on every back-end.
    #[test]
    fn dma_streamed_image_is_identical() {
        let reference = run_dma(BackendKind::Uncached, true, false);
        for backend in BackendKind::ALL {
            assert_eq!(run_dma(backend, true, true), reference, "{backend:?}");
        }
    }

    /// The gather's row-span scaling agrees with the ray mapping when
    /// the image and volume resolutions differ (image rows scale to
    /// volume rows before both the gather and the cast): pixels are
    /// identical and the SPM trace is clean.
    #[test]
    fn strided_gather_handles_dim_not_equal_img() {
        let run = |use_gather: bool| {
            let params = VolrendParams {
                dim: 32,
                img: 16,
                rows_per_task: 2,
                use_pyramid: true,
                use_dma: false,
                use_gather,
                seed: 3,
            };
            let mut cfg = SocConfig::small(2);
            cfg.trace = true;
            let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
            let app = Volrend::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..2)
                    .map(|_| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker(ctx))
                    })
                    .collect(),
            );
            let v = pmc_runtime::monitor::validate(&sys.soc().take_trace());
            assert!(v.is_empty(), "gather={use_gather}: {v:#?}");
            app.checksum(&sys)
        };
        assert_eq!(run(false), run(true));
    }

    /// Gathering only the task's volume rows (strided scatter/gather
    /// input) combined with streamed row puts is still pixel-identical,
    /// and the traces validate: the gathered element lists cover every
    /// voxel the rays touch.
    #[test]
    fn strided_gather_image_is_identical_and_validates() {
        let reference = run_modes(BackendKind::Uncached, true, false, false);
        for backend in BackendKind::ALL {
            assert_eq!(run_modes(backend, true, true, true), reference, "{backend:?}");
        }
        // Traced monitor check on SPM, where the gather physically moves.
        let params = VolrendParams {
            dim: 16,
            img: 16,
            rows_per_task: 4,
            use_pyramid: true,
            use_dma: true,
            use_gather: true,
            seed: 3,
        };
        let n = 2usize;
        let mut cfg = SocConfig::small(n);
        cfg.trace = true;
        cfg.dma_channels = 2;
        let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
        let app = Volrend::build(&mut sys, params);
        let app_ref = &app;
        sys.run(
            (0..n)
                .map(|_| -> pmc_runtime::Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
                .collect(),
        );
        let v = pmc_runtime::monitor::validate(&sys.soc().take_trace());
        assert!(v.is_empty(), "{v:#?}");
    }
}
