//! Exact timing pin of the Table II lowering: one annotation sequence
//! that opens every kind of scope the paper's Table II distinguishes, on
//! each back-end with the SDRAM lock and on one back-end with the
//! distributed lock (which has no shared mode), with trace and telemetry
//! on.
//!
//! The sequence on tile 0 (tile 1 stays idle):
//!
//! 1. `scope_ro` on a `u32` — word-sized, so unlocked;
//! 2. `scope_ro` on a `[u32; 4]` — locked (SPM locks only while copying);
//! 3. `scope_ro_stream` on a `u32` — streaming always locks — then a
//!    `dma_get` and its wait;
//! 4. `scope_x` with a write, a `flush`, a second write and the close (a
//!    dirty exit);
//! 5. `scope_x` with a read only (a clean exit);
//! 6. `scope_x_stream` with a write, a `dma_put` and its wait.
//!
//! The pinned numbers are literal values: the simulated cycle after each
//! step and the flag word of every `ENTRY_X` / `ENTRY_RO` trace record
//! (bit 0 = the scope holds the lock, bit 1 = streaming). A refactor of
//! the runtime must reproduce them exactly; a deliberate change of a
//! lowering re-pins them from the values the failing assertion prints.

use std::cell::RefCell;

use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::SocConfig;

/// `pmc_runtime::ctx::trace_kind::ENTRY_X` / `ENTRY_RO`.
const ENTRY_X: u16 = 1;
const ENTRY_RO: u16 = 3;

#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// Tile 0's clock after each of the six steps (tile 1 is idle, so
    /// the last one is also the makespan).
    steps: [u64; 6],
    /// `value` of the `ENTRY_RO`, `ENTRY_RO`, `ENTRY_RO`, `ENTRY_X`,
    /// `ENTRY_X`, `ENTRY_X` records, in trace order.
    flags: [u64; 6],
}

fn run_pinned(backend: BackendKind, lock: LockKind) -> Pinned {
    let cfg = SocConfig { trace: true, telemetry: true, ..SocConfig::small(2) };
    let mut sys = System::new(cfg, backend, lock);
    let word = sys.alloc::<u32>("word");
    let quad = sys.alloc::<[u32; 4]>("quad");
    let stream = sys.alloc::<u32>("stream");
    let dirty = sys.alloc::<u32>("dirty");
    let clean = sys.alloc::<u32>("clean");
    let out = sys.alloc::<u32>("out");
    sys.init(word, 7);
    sys.init(quad, [1, 2, 3, 4]);
    sys.init(stream, 9);
    sys.init(clean, 5);
    let steps = RefCell::new(Vec::new());
    let report = sys.run(vec![
        Box::new(|ctx| {
            let step = || steps.borrow_mut().push(ctx.with_cpu(|cpu| cpu.now()));
            assert_eq!(ctx.scope_ro(word).read(), 7);
            step();
            assert_eq!(ctx.scope_ro(quad).read(), [1, 2, 3, 4]);
            step();
            let s = ctx.scope_ro_stream(stream);
            s.dma_get(0, 1).wait();
            assert_eq!(s.read(), 9);
            s.close();
            step();
            let x = ctx.scope_x(dirty);
            x.write(1);
            x.flush();
            x.write(2);
            x.close();
            step();
            assert_eq!(ctx.scope_x(clean).read(), 5);
            step();
            let p = ctx.scope_x_stream(out);
            p.write(3);
            p.dma_put(0, 1).wait();
            p.close();
            step();
        }),
        Box::new(|_ctx| {}),
    ]);
    assert_eq!(sys.read_back(dirty), 2);
    assert_eq!(sys.read_back(out), 3);
    let entries: Vec<_> = sys
        .soc()
        .take_trace()
        .into_iter()
        .filter(|r| r.kind == ENTRY_X || r.kind == ENTRY_RO)
        .collect();
    let kinds: Vec<u16> = entries.iter().map(|r| r.kind).collect();
    assert_eq!(kinds, [ENTRY_RO, ENTRY_RO, ENTRY_RO, ENTRY_X, ENTRY_X, ENTRY_X]);
    let steps: [u64; 6] = steps.into_inner().try_into().expect("six steps");
    assert_eq!(report.makespan, steps[5]);
    Pinned { steps, flags: std::array::from_fn(|i| entries[i].value) }
}

#[test]
fn table2_lowering_is_pinned() {
    // The locked [u32; 4] scope reports flag 1 except on SPM, where the
    // lock covers only the stage-in copy and is gone when the scope
    // opens.
    let cases = [
        (BackendKind::Uncached, LockKind::Sdram, [17, 142, 267, 327, 438, 532], [0, 1, 3, 1, 1, 3]),
        (BackendKind::Swcc, LockKind::Sdram, [34, 156, 298, 462, 601, 729], [0, 1, 3, 1, 1, 3]),
        (BackendKind::Dsm, LockKind::Sdram, [1, 108, 235, 325, 432, 542], [0, 1, 3, 1, 1, 3]),
        (BackendKind::Spm, LockKind::Sdram, [19, 138, 264, 346, 457, 566], [0, 0, 3, 1, 1, 3]),
        (BackendKind::Spm, LockKind::Distributed, [19, 79, 122, 176, 218, 285], [0, 0, 3, 1, 1, 3]),
    ];
    for (backend, lock, steps, flags) in cases {
        assert_eq!(
            run_pinned(backend, lock),
            Pinned { steps, flags },
            "{backend:?} with {lock:?} locks"
        );
    }
}
