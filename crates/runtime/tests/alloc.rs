//! Whole-run heap-allocation budget of the annotation runtime: after
//! set-up, no simulated operation allocates. A tile program doing `2N`
//! iterations of every runtime operation below must allocate exactly as
//! much as the same program doing `N`, on every back-end.
//!
//! Counted by the thread-local counting allocator shared with
//! `crates/soc-sim/tests/alloc.rs`.

#[path = "../../soc-sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::SocConfig;

/// Allocations of one `System` set up and run, on two tiles with the
/// distributed lock, where tile 1 does `iters` iterations of:
///
/// * an exclusive scope with `write`, `write_at`, `read` and `read_at`,
///   whose exit is a DSM commit on DSM and a staging copy out on SPM
///   (its entry stages in);
/// * a `priv_read`;
/// * a streaming exclusive scope with a 1 KiB DMA get and put in 64-byte
///   bursts, each waited on before it lands.
///
/// The object's lock is homed on tile 0 (locks home round-robin in
/// allocation order), so each scope takes it with a remote test-and-set
/// and its reply and releases it with a NoC write.
fn run_allocs(backend: BackendKind, iters: u64) -> u64 {
    let before = allocs();
    let mut sys = System::new(SocConfig::small(2), backend, LockKind::Distributed);
    sys.set_dma_burst(64);
    let obj = sys.alloc_slab::<u64>("obj", 4);
    let stream = sys.alloc_slab::<u32>("stream", 256);
    let private = sys.alloc_private::<u32>(4);
    sys.init_private(&private, 0, &[7]);
    let mut sum = 0;
    sys.run(vec![
        Box::new(|_| {}),
        Box::new(|ctx| {
            for i in 0..iters {
                let s = ctx.scope_x(obj);
                s.write(i);
                s.write_at(1, i + 1);
                sum += s.read() + s.read_at(1);
                s.close();
                sum += u64::from(ctx.priv_read(&private, 0));
                let s = ctx.scope_x_stream(stream);
                s.dma_get(0, 256).wait();
                s.dma_put(0, 256).wait();
                s.close();
            }
        }),
    ]);
    assert_eq!(sum, iters * iters + iters * 7, "{backend:?}: the program read what it wrote");
    allocs() - before
}

#[test]
fn a_run_allocates_only_while_it_sets_up() {
    let extra: Vec<(BackendKind, u64)> = BackendKind::ALL
        .into_iter()
        .map(|backend| {
            // The first run on a thread fills its task-stack pool.
            run_allocs(backend, 1);
            let (n, n2) = (run_allocs(backend, 4), run_allocs(backend, 8));
            (backend, n2.saturating_sub(n).max(n.saturating_sub(n2)))
        })
        .collect();
    assert!(
        extra.iter().all(|&(_, e)| e == 0),
        "extra allocations of 8 iterations over 4, per back-end: {extra:?}"
    );
}
