//! Motion estimation — the paper's Fig. 10 scratch-pad case study.
//!
//! Full-search block matching: every 16×16 block of the current frame is
//! matched against a search window in the reference frame; the best
//! displacement (minimum SAD) becomes the motion vector. Window and block
//! are read many times per task, which is why staging them into a
//! scratch-pad pays off (paper: "experiments show a significant
//! performance increase when this application is using SPMs, compared to
//! the software cache coherency setup").
//!
//! The work loop mirrors the paper's Fig. 10 `worker()`: per work packet,
//! a read-only scope on the window, a read-only scope on the block, and
//! an exclusive scope on the output vector.

use pmc_runtime::{DmaTicket, ObjVec, PmcCtx, RoScope, Slab, System, Vec2};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy)]
pub struct MotionEstParams {
    /// Frame edge (pixels); must be a multiple of `block`.
    pub frame: u32,
    /// Block edge (pixels).
    pub block: u32,
    /// Search range in pixels (window edge = block + 2 * range).
    pub range: u32,
    pub seed: u64,
}

impl Default for MotionEstParams {
    fn default() -> Self {
        MotionEstParams { frame: 96, block: 16, range: 8, seed: 0x5EED_0004 }
    }
}

pub struct MotionEst {
    pub params: MotionEstParams,
    /// Per-task search window from the reference frame.
    windows: Vec<Slab<u8>>,
    /// Per-task current-frame block.
    blocks: Vec<Slab<u8>>,
    /// The whole extended reference frame (`ext × ext`, row-major) as one
    /// shared object — the 2-D prefetch worker gathers each task's search
    /// window from it with a strided descriptor instead of per-task
    /// window slabs.
    frame: Slab<u8>,
    /// Extended-frame edge (`frame + 2 * range`).
    ext: u32,
    /// Output motion vectors.
    vectors: ObjVec<Vec2>,
    tickets: pmc_runtime::queue::Tickets,
    n_tasks: u32,
}

impl MotionEst {
    pub(crate) fn window_edge(p: &MotionEstParams) -> u32 {
        p.block + 2 * p.range
    }

    pub fn build(sys: &mut System, params: MotionEstParams) -> Self {
        let p = params;
        assert_eq!(p.frame % p.block, 0);
        let blocks_per_edge = p.frame / p.block;
        let n_tasks = blocks_per_edge * blocks_per_edge;
        let we = Self::window_edge(&p);
        // Procedural reference frame; the current frame is the reference
        // shifted by a known per-block displacement (so the expected
        // vectors are known).
        let mut rng = StdRng::seed_from_u64(p.seed);
        let margin = p.range;
        let ext = p.frame + 2 * margin;
        let reference: Vec<u8> = (0..ext * ext)
            .map(|i| {
                let (x, y) = (i % ext, i / ext);
                ((x * 7 + y * 13) % 251) as u8 ^ (rng.random_range(0..8u32) as u8)
            })
            .collect();
        let frame_slab = sys.alloc_slab::<u8>("me.frame", ext * ext);
        sys.init_slice(frame_slab, 0, &reference);
        let mut windows = Vec::new();
        let mut blocks = Vec::new();
        for by in 0..blocks_per_edge {
            for bx in 0..blocks_per_edge {
                let t = (by * blocks_per_edge + bx) as usize;
                // True displacement for this block (deterministic).
                let dx = (t as i32 * 5 % (2 * p.range as i32 + 1)) - p.range as i32;
                let dy = (t as i32 * 3 % (2 * p.range as i32 + 1)) - p.range as i32;
                // Window: reference area around the block position.
                let wslab = sys.alloc_slab::<u8>(&format!("me.win[{t}]"), we * we);
                let mut wbytes = vec![0u8; (we * we) as usize];
                for wy in 0..we {
                    for wx in 0..we {
                        let gx = bx * p.block + wx; // margin-compensated
                        let gy = by * p.block + wy;
                        wbytes[(wy * we + wx) as usize] = reference[(gy * ext + gx) as usize];
                    }
                }
                sys.init_slice(wslab, 0, &wbytes);
                // Current block: the reference block shifted by (dx, dy).
                let bslab = sys.alloc_slab::<u8>(&format!("me.blk[{t}]"), p.block * p.block);
                let mut bbytes = vec![0u8; (p.block * p.block) as usize];
                for yy in 0..p.block {
                    for xx in 0..p.block {
                        let gx = (bx * p.block + margin + xx).wrapping_add_signed(dx);
                        let gy = (by * p.block + margin + yy).wrapping_add_signed(dy);
                        bbytes[(yy * p.block + xx) as usize] = reference[(gy * ext + gx) as usize];
                    }
                }
                sys.init_slice(bslab, 0, &bbytes);
                windows.push(wslab);
                blocks.push(bslab);
            }
        }
        let vectors = sys.alloc_vec::<Vec2>("me.vector", n_tasks);
        let tickets = sys.alloc_ticket();
        MotionEst { params: p, windows, blocks, frame: frame_slab, ext, vectors, tickets, n_tasks }
    }

    /// Full-search block matching for one task (the paper's
    /// `motion_est(window, mblock)`). The search window lives in
    /// `window`; `row_off(r)` maps window-row index `r` to the byte
    /// offset of that row's first pixel (identity-ish for per-task
    /// window slabs, strided frame coordinates for the 2-D gather).
    fn search_rows(
        &self,
        ctx: &PmcCtx<'_, '_>,
        window: &RoScope<'_, '_, '_, u8>,
        block: &RoScope<'_, '_, '_, u8>,
        row_off: impl Fn(u32) -> u32,
    ) -> Vec2 {
        let p = self.params;
        let we = Self::window_edge(&p);
        // Read the block once into host scratch (the ScopeRO "local
        // copy" reference of Fig. 10).
        let mut blk = vec![0u8; (p.block * p.block) as usize];
        block.read_bytes_at(0, &mut blk);
        let mut best = (u32::MAX, Vec2::default());
        let mut wrow = vec![0u8; we as usize];
        // Per-dx SAD sums of the current dy. A local, not a thread-local:
        // `ctx.compute` below can yield to another tile's search on the
        // same OS thread.
        let mut acc = vec![0u32; (2 * p.range + 1) as usize];
        for dy in 0..=2 * p.range {
            for row in 0..p.block {
                // One window row serves all dx candidates of this (dy, row).
                window.read_bytes_at(row_off(dy + row), &mut wrow);
                for dx in 0..=2 * p.range {
                    let mut sad = 0u32;
                    for xx in 0..p.block {
                        let a = wrow[(dx + xx) as usize] as i32;
                        let b = blk[(row * p.block + xx) as usize] as i32;
                        sad += a.abs_diff(b);
                    }
                    // Unrolled SAD: ~1 instr/pixel. Per-(dx) sums
                    // accumulate across rows in `acc` and fold into
                    // `best` after the last row.
                    ctx.compute(p.block as u64);
                    self.fold(&mut acc, &mut best, row, dx, dy, sad);
                }
            }
        }
        best.1
    }

    /// Search against a per-task window scope (row `r` at offset
    /// `r * window_edge`).
    fn search(
        &self,
        ctx: &PmcCtx<'_, '_>,
        window: &RoScope<'_, '_, '_, u8>,
        block: &RoScope<'_, '_, '_, u8>,
    ) -> Vec2 {
        let we = Self::window_edge(&self.params);
        self.search_rows(ctx, window, block, |r| r * we)
    }

    /// Window origin of a task in extended-frame coordinates.
    fn window_origin(&self, task: u32) -> (u32, u32) {
        let bpe = self.params.frame / self.params.block;
        (task % bpe * self.params.block, task / bpe * self.params.block)
    }

    /// Per-candidate accumulation: `acc` is the caller's table indexed by
    /// dx (reset at row 0, folded into `best` at the last row).
    fn fold(&self, acc: &mut [u32], best: &mut (u32, Vec2), row: u32, dx: u32, dy: u32, sad: u32) {
        let p = self.params;
        if row == 0 {
            acc[dx as usize] = 0;
        }
        acc[dx as usize] += sad;
        if row == p.block - 1 {
            let total = acc[dx as usize];
            let v = Vec2 { x: dx as i32 - p.range as i32, y: dy as i32 - p.range as i32 };
            if total < best.0 {
                *best = (total, v);
            }
        }
    }

    pub fn worker(&self, ctx: &mut PmcCtx<'_, '_>) {
        let ctx = &*ctx;
        while let Some(task) = self.tickets.take(ctx, self.n_tasks) {
            // Fig. 10: ScopeRO(window), ScopeRO(mblock), ScopeX(vector).
            let window = ctx.scope_ro(self.windows[task as usize]);
            let block = ctx.scope_ro(self.blocks[task as usize]);
            let vector = ctx.scope_x(self.vectors.at(task));
            let v = self.search(ctx, &window, &block);
            vector.write(v);
            vector.close();
            block.close();
            window.close();
        }
    }

    /// Open streaming scopes for a task's window and block and start
    /// their bulk transfers; returns both guards and both tickets (the
    /// transfers rotate over engine channels, so each must be waited —
    /// relying on same-channel FIFO order would silently break on
    /// multi-channel configurations).
    #[allow(clippy::type_complexity)]
    fn prefetch<'s, 'a, 'b>(
        &self,
        ctx: &'s PmcCtx<'a, 'b>,
        task: u32,
    ) -> (
        RoScope<'s, 'a, 'b, u8>,
        RoScope<'s, 'a, 'b, u8>,
        DmaTicket<'s, 'a, 'b>,
        DmaTicket<'s, 'a, 'b>,
    ) {
        let window = ctx.scope_ro_stream(self.windows[task as usize]);
        let tw = window.dma_get_all();
        let block = ctx.scope_ro_stream(self.blocks[task as usize]);
        let tb = block.dma_get_all();
        (window, block, tw, tb)
    }

    /// Double-buffered DMA streaming variant of [`MotionEst::worker`]:
    /// the next task's window and block stream in while the current
    /// task's full search runs, so on the SPM back-end the staging copy
    /// disappears behind compute instead of stalling the core. The
    /// current task's scopes close before the prefetched ones (non-LIFO;
    /// the runtime's staging allocator handles the buried regions).
    pub fn worker_dma(&self, ctx: &mut PmcCtx<'_, '_>) {
        let ctx = &*ctx;
        let Some(mut task) = self.tickets.take(ctx, self.n_tasks) else {
            return;
        };
        let (mut window, mut block, mut tw, mut tb) = self.prefetch(ctx, task);
        loop {
            let next = self.tickets.take(ctx, self.n_tasks);
            let mut staged = next.map(|n| self.prefetch(ctx, n));
            tw.wait();
            tb.wait();
            let vector = ctx.scope_x(self.vectors.at(task));
            let v = self.search(ctx, &window, &block);
            vector.write(v);
            vector.close();
            block.close();
            window.close();
            match staged.take() {
                Some((w, b, t1, t2)) => {
                    task = next.expect("staged prefetch implies a next task");
                    window = w;
                    block = b;
                    tw = t1;
                    tb = t2;
                }
                None => break,
            }
        }
    }

    /// Open a streaming scope on a task's block and start its transfer.
    fn prefetch_block<'s, 'a, 'b>(
        &self,
        ctx: &'s PmcCtx<'a, 'b>,
        task: u32,
    ) -> (RoScope<'s, 'a, 'b, u8>, DmaTicket<'s, 'a, 'b>) {
        let block = ctx.scope_ro_stream(self.blocks[task as usize]);
        let tb = block.dma_get_all();
        (block, tb)
    }

    /// 2-D streaming variant of [`MotionEst::worker_dma`]: one long-lived
    /// *shared* streaming scope on the reference frame, with each task's
    /// search window gathered *in place* by a strided 2-D descriptor —
    /// only the window rows move; the rest of the frame is never staged,
    /// and no per-task window slabs exist at all. The per-task block
    /// streams double-buffered behind the previous task's search; the
    /// window gather itself is waited at task start, because adjacent
    /// tasks' windows overlap in the frame and an in-flight gather over
    /// rows the current search still reads would be a range hazard (the
    /// monitor flags exactly that).
    pub fn worker_dma2d(&self, ctx: &mut PmcCtx<'_, '_>) {
        let ctx = &*ctx;
        let Some(mut task) = self.tickets.take(ctx, self.n_tasks) else {
            return;
        };
        let frame = ctx.scope_ro_stream(self.frame);
        let we = Self::window_edge(&self.params);
        let ext = self.ext;
        let (mut block, mut tb) = self.prefetch_block(ctx, task);
        loop {
            let (wx0, wy0) = self.window_origin(task);
            frame.dma_get_2d(wy0 * ext + wx0, we, we, ext).wait();
            tb.wait();
            let next = self.tickets.take(ctx, self.n_tasks);
            let mut staged = next.map(|n| self.prefetch_block(ctx, n));
            let vector = ctx.scope_x(self.vectors.at(task));
            let v = self.search_rows(ctx, &frame, &block, |r| (wy0 + r) * ext + wx0);
            vector.write(v);
            vector.close();
            block.close();
            match staged.take() {
                Some((b, t)) => {
                    task = next.expect("staged prefetch implies a next task");
                    block = b;
                    tb = t;
                }
                None => break,
            }
        }
        frame.close();
    }

    /// The expected (ground-truth) vector for a task.
    pub fn expected(&self, task: u32) -> Vec2 {
        let p = self.params;
        Vec2 {
            x: (task as i32 * 5 % (2 * p.range as i32 + 1)) - p.range as i32,
            y: (task as i32 * 3 % (2 * p.range as i32 + 1)) - p.range as i32,
        }
    }

    /// Fraction of exactly recovered vectors plus a checksum.
    pub fn checksum(&self, sys: &System) -> f64 {
        let mut acc = 0i64;
        for t in 0..self.n_tasks {
            let v = sys.read_back(self.vectors.at(t));
            acc = acc.wrapping_mul(37).wrapping_add((v.x * 1000 + v.y) as i64);
        }
        acc as f64
    }

    pub fn accuracy(&self, sys: &System) -> f64 {
        let mut hit = 0;
        for t in 0..self.n_tasks {
            if sys.read_back(self.vectors.at(t)) == self.expected(t) {
                hit += 1;
            }
        }
        hit as f64 / self.n_tasks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{BackendKind, LockKind};
    use pmc_soc_sim::SocConfig;

    #[test]
    fn recovers_true_motion_on_all_backends() {
        let params = MotionEstParams { frame: 32, block: 16, range: 4, seed: 5 };
        let mut sums = Vec::new();
        for backend in BackendKind::ALL {
            let n = 2usize;
            let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
            let app = MotionEst::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..n)
                    .map(|_| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker(ctx))
                    })
                    .collect(),
            );
            assert_eq!(app.accuracy(&sys), 1.0, "{backend:?}: all vectors recovered");
            sums.push(app.checksum(&sys));
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "bit-identical across backends");
    }

    /// The 2-D gather worker (strided window prefetch from the shared
    /// frame) recovers the same vectors on every back-end, and its trace
    /// passes the monitor — the strided element list covers exactly the
    /// rows the search reads.
    #[test]
    fn dma2d_worker_matches_and_validates() {
        let params = MotionEstParams { frame: 32, block: 16, range: 4, seed: 5 };
        let mut sums = Vec::new();
        for backend in BackendKind::ALL {
            let n = 2usize;
            let mut cfg = SocConfig::small(n);
            cfg.trace = true;
            cfg.dma_channels = 2;
            let mut sys = System::new(cfg, backend, LockKind::Sdram);
            let app = MotionEst::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..n)
                    .map(|_| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker_dma2d(ctx))
                    })
                    .collect(),
            );
            assert_eq!(app.accuracy(&sys), 1.0, "{backend:?}: all vectors recovered via 2-D DMA");
            sums.push(app.checksum(&sys));
            let violations = pmc_runtime::monitor::validate(&sys.soc().take_trace());
            assert!(violations.is_empty(), "{backend:?}: {violations:#?}");
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "bit-identical across backends");
    }

    /// The double-buffered DMA worker recovers the same vectors on every
    /// back-end — streaming changes the timing, not the output.
    #[test]
    fn dma_worker_matches_plain_worker() {
        let params = MotionEstParams { frame: 32, block: 16, range: 4, seed: 5 };
        let mut sums = Vec::new();
        for backend in BackendKind::ALL {
            let n = 2usize;
            let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
            let app = MotionEst::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..n)
                    .map(|_| -> pmc_runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker_dma(ctx))
                    })
                    .collect(),
            );
            assert_eq!(app.accuracy(&sys), 1.0, "{backend:?}: all vectors recovered via DMA");
            sums.push(app.checksum(&sys));
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "bit-identical across backends");
    }
}
