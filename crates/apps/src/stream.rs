//! Bulk-transfer streaming kernel: the `fig_dma` microworkload.
//!
//! Each task stages one shared input slab into the scope's local view,
//! reduces it (word sum plus a configurable amount of compute), and
//! publishes the result — the skeleton of every tiled
//! stage-process-writeback loop on a software-managed memory hierarchy.
//! Three fill strategies share the identical annotated structure, so
//! their cycle counts are directly comparable:
//!
//! * [`StreamMode::WordCopy`] — the software copy loop a core without a
//!   DMA engine runs: one load + one store per word, every load a full
//!   SDRAM transaction ([`RoScope::stage_in_words`]);
//! * [`StreamMode::Dma`] — one asynchronous burst transfer per task,
//!   waited before use;
//! * [`StreamMode::DmaDouble`] — double-buffered: the next task's
//!   transfer is issued before the current task is processed, hiding the
//!   transfer behind compute (scopes overlap, closing out of stack
//!   order).

use pmc_runtime::{DmaTicket, ObjVec, PmcCtx, RoScope, Slab, System};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    WordCopy,
    Dma,
    DmaDouble,
}

impl StreamMode {
    pub const ALL: [StreamMode; 3] = [StreamMode::WordCopy, StreamMode::Dma, StreamMode::DmaDouble];

    pub fn name(self) -> &'static str {
        match self {
            StreamMode::WordCopy => "word-copy",
            StreamMode::Dma => "dma",
            StreamMode::DmaDouble => "dma-double",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StreamCopyParams {
    /// Number of input slabs (work items).
    pub n_tasks: u32,
    /// Bytes per slab (multiple of 4).
    pub task_bytes: u32,
    /// Extra compute charged per staged word (0 = pure copy bound).
    pub compute_per_word: u64,
}

impl Default for StreamCopyParams {
    fn default() -> Self {
        StreamCopyParams { n_tasks: 64, task_bytes: 4096, compute_per_word: 2 }
    }
}

pub struct StreamCopy {
    pub params: StreamCopyParams,
    inputs: Vec<Slab<u32>>,
    results: ObjVec<u32>,
    tickets: pmc_runtime::queue::Tickets,
}

impl StreamCopy {
    pub fn build(sys: &mut System, params: StreamCopyParams) -> Self {
        let p = params;
        assert_eq!(p.task_bytes % 4, 0);
        let words = p.task_bytes / 4;
        let inputs: Vec<Slab<u32>> = (0..p.n_tasks)
            .map(|t| {
                let slab = sys.alloc_slab::<u32>(&format!("stream.in[{t}]"), words);
                let values: Vec<u32> =
                    (0..words).map(|i| t.wrapping_mul(2654435761).wrapping_add(i * 97)).collect();
                sys.init_slice(slab, 0, &values);
                slab
            })
            .collect();
        let results = sys.alloc_vec::<u32>("stream.out", p.n_tasks);
        let tickets = sys.alloc_ticket();
        StreamCopy { params: p, inputs, results, tickets }
    }

    /// Host-side ground truth for one task's reduction.
    pub(crate) fn expected(&self, task: u32) -> u32 {
        let words = self.params.task_bytes / 4;
        (0..words).fold(0u32, |acc, i| {
            acc.wrapping_add(task.wrapping_mul(2654435761).wrapping_add(i * 97))
        })
    }

    /// Open the streaming scope for `task` and start its fill; returns
    /// the guard plus the ticket to wait on (`None` for the synchronous
    /// word copy).
    #[allow(clippy::type_complexity)]
    fn fetch<'s, 'a, 'b>(
        &self,
        ctx: &'s PmcCtx<'a, 'b>,
        task: u32,
        mode: StreamMode,
    ) -> (RoScope<'s, 'a, 'b, u32>, Option<DmaTicket<'s, 'a, 'b>>) {
        let input = ctx.scope_ro_stream(self.inputs[task as usize]);
        let ticket = match mode {
            StreamMode::WordCopy => {
                input.stage_in_words(0, input.len());
                None
            }
            StreamMode::Dma | StreamMode::DmaDouble => Some(input.dma_get_all()),
        };
        (input, ticket)
    }

    /// Reduce the staged words and publish the task's result; consumes
    /// (closes) the input scope.
    fn process(&self, ctx: &PmcCtx<'_, '_>, input: RoScope<'_, '_, '_, u32>, task: u32) {
        let p = self.params;
        let words = p.task_bytes / 4;
        let mut buf = vec![0u8; p.task_bytes as usize];
        input.read_bytes_at(0, &mut buf);
        let mut acc = 0u32;
        for w in buf.chunks_exact(4) {
            acc = acc.wrapping_add(u32::from_le_bytes(w.try_into().unwrap()));
        }
        ctx.compute(p.compute_per_word * u64::from(words));
        input.close();
        ctx.scope_x(self.results.at(task)).write(acc);
    }

    /// Ticket-dispatched worker in the given fill mode.
    pub fn worker(&self, ctx: &mut PmcCtx<'_, '_>, mode: StreamMode) {
        let ctx = &*ctx;
        if mode != StreamMode::DmaDouble {
            while let Some(task) = self.tickets.take(ctx, self.params.n_tasks) {
                let (input, ticket) = self.fetch(ctx, task, mode);
                if let Some(t) = ticket {
                    t.wait();
                }
                self.process(ctx, input, task);
            }
            return;
        }
        // Double buffering: overlap task k+1's transfer with task k's
        // compute.
        let Some(mut cur) = self.tickets.take(ctx, self.params.n_tasks) else {
            return;
        };
        let (mut input, mut ticket) = self.fetch(ctx, cur, mode);
        loop {
            let next = self.tickets.take(ctx, self.params.n_tasks);
            let mut staged = next.map(|n| self.fetch(ctx, n, mode));
            if let Some(t) = ticket.take() {
                t.wait();
            }
            self.process(ctx, input, cur);
            match staged.take() {
                Some((i, t)) => {
                    cur = next.expect("staged fetch implies a next task");
                    input = i;
                    ticket = t;
                }
                None => break,
            }
        }
    }

    /// Verify every task's result and fold a checksum.
    pub fn checksum(&self, sys: &System) -> u64 {
        let mut acc = 0u64;
        for t in 0..self.params.n_tasks {
            let got = sys.read_back(self.results.at(t));
            assert_eq!(got, self.expected(t), "task {t} reduced wrongly");
            acc = acc.wrapping_mul(31).wrapping_add(u64::from(got));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{BackendKind, LockKind};
    use pmc_soc_sim::SocConfig;

    fn run(backend: BackendKind, mode: StreamMode, burst: u32) -> (u64, u64) {
        let params = StreamCopyParams { n_tasks: 8, task_bytes: 1024, compute_per_word: 2 };
        let n = 2usize;
        let mut sys = System::new(SocConfig::small(n), backend, LockKind::Sdram);
        sys.set_dma_burst(burst);
        let app = StreamCopy::build(&mut sys, params);
        let app_ref = &app;
        let report = sys.run(
            (0..n)
                .map(|_| -> pmc_runtime::Program<'_> {
                    Box::new(move |ctx| app_ref.worker(ctx, mode))
                })
                .collect(),
        );
        (app.checksum(&sys), report.makespan)
    }

    /// All three modes produce identical results on every back-end.
    #[test]
    fn modes_agree_on_all_backends() {
        for backend in BackendKind::ALL {
            let word = run(backend, StreamMode::WordCopy, 256).0;
            let dma = run(backend, StreamMode::Dma, 256).0;
            let double = run(backend, StreamMode::DmaDouble, 256).0;
            assert_eq!(word, dma, "{backend:?}");
            assert_eq!(word, double, "{backend:?}");
        }
    }

    /// The headline: on the SPM back-end, DMA bursts beat the
    /// word-at-a-time copy loop, and double buffering beats waiting.
    #[test]
    fn dma_bursts_beat_word_copy_on_spm() {
        let (_, word) = run(BackendKind::Spm, StreamMode::WordCopy, 256);
        let (_, dma) = run(BackendKind::Spm, StreamMode::Dma, 1024);
        let (_, double) = run(BackendKind::Spm, StreamMode::DmaDouble, 1024);
        assert!(dma < word, "DMA bursts must beat the word copy: {dma} vs {word}");
        // Allow a sliver of slack: contention reordering can cost a
        // fraction of a percent at small task sizes.
        assert!(double * 100 <= dma * 102, "double buffering must not lose: {double} vs {dma}");
    }
}
