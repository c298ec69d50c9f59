//! The execution engine, verified end to end: the single-threaded
//! discrete-event core must be (a) deterministic down to the byte,
//! (b) indistinguishable from the thread-per-tile turnstile it
//! replaced, (c) true to its contract — globally visible actions
//! commit in `(virtual time, tile)` order — and (d) as orderly when a
//! tile program panics (`mod abort`).
//!
//! The turnstile is gone; its answers are not. (b) is a strict gate:
//! not just outcome-set membership (the conformance sweep's gate) but
//! digests of the outcomes, traces, counters and makespans the
//! turnstile produced, pinned while it still ran and was asserted
//! equal to this engine field by field. (c) is asserted inside the
//! simulator on every action; here its observable side is checked on
//! the global trace.

mod common;

use common::{commit_order_violation, digest};
use pmc::apps::kvserve::{run_serve_session, KvServe, KvServeParams};
use pmc::apps::loadgen::LoadGenParams;
use pmc::apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc::model::conformance;
use pmc::runtime::litmus_exec::LitmusRun;
use pmc::runtime::monitor::validate;
use pmc::runtime::{BackendKind, LockKind, RunConfig};
use pmc::sim::telemetry::perfetto_json;
use pmc::sim::Topology;

fn litmus(
    program: &pmc::model::litmus::Program,
    backend: BackendKind,
    lock: LockKind,
    telemetry: bool,
) -> LitmusRun {
    RunConfig::new(backend).lock(lock).telemetry(telemetry).session().litmus(program)
}

/// Same seed (there is only one: the config), same session ⇒
/// byte-identical telemetry export and trace across two runs.
#[test]
fn des_runs_are_byte_identical() {
    let cases = ["mp_annotated", "dma_mp_put"];
    for name in cases {
        let case = conformance::cases().into_iter().find(|c| c.name == name).unwrap();
        let run = |_: usize| litmus(&case.program, BackendKind::Spm, LockKind::Sdram, true);
        let (a, b) = (run(0), run(1));
        assert_eq!(a.outcome, b.outcome, "{name}");
        assert_eq!(a.trace, b.trace, "{name}: traces must be byte-identical");
        assert_eq!(
            perfetto_json(&a.cfg, &a.telemetry, &a.trace),
            perfetto_json(&b.cfg, &b.telemetry, &b.trace),
            "{name}: telemetry export must be byte-identical"
        );
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report), "{name}");
    }
}

/// The thread-per-tile turnstile's answers over the litmus catalogue:
/// per case, the [`digest`] of (outcome, trace, `Debug` of the report)
/// on SWCC/Sdram and on DSM/Distributed. Captured while the turnstile
/// still ran and was asserted equal to the event heap field by field
/// (the commit before its deletion). A change that moves the timing
/// model on purpose re-pins these (the failing assertion prints the new
/// rows) and says so in CHANGES.md.
const CATALOGUE_REFERENCE: &[(&str, [u64; 2])] = &[
    ("mp_unfenced", [0x055cd5fc89906701, 0xa012bdb05c0d33ca]),
    ("mp_annotated", [0x6a45fb898de94023, 0xc00a693b40b4de06]),
    ("store_buffering", [0x6ce690fb75c4ff87, 0xe81b6524dec99a76]),
    ("corr", [0x3054d2d493a8aa11, 0x07e011475da8bb20]),
    ("iriw", [0x4f225916949c739d, 0x5e799c252c3297ed]),
    ("wrc", [0x64e45cfb585bc41e, 0xf3b3740306ee247c]),
    ("wrc_annotated", [0xa9c400bee9d687ab, 0xf2fbbe96f7763041]),
    ("dma_mp_put", [0x8006a90c750523e7, 0x0915ad17059753d9]),
    ("dma_put_after_write", [0xe11d190cb478f98f, 0x7ae891db17e0500e]),
    ("dma_get_fresh", [0xde76cbb305f3737e, 0xf0e29bf1a5eda8da]),
    ("dma_t2t_mp", [0x25dd8434e154fc4a, 0x6c6b81aacbad10e6]),
    ("dma_sg_gather", [0xeb4c7cd67c25b051, 0x4831b1b82fd2a16a]),
    ("dma_chan_overlap", [0x26a2d8e8851fdb07, 0x9a741d5118f9faee]),
    ("drf_no_fence_cross_locks", [0xc05cb12666f4fb93, 0x4e8ddc3c7b6e3f28]),
    ("drf_fenced_cross_locks", [0x32e66f2356dc9db5, 0x2d1601a29bd5733d]),
    ("mailbox_request_reply", [0x2ce4195f21d98a2b, 0x3f199557f49f3f61]),
    ("fuzz_get_sees_own_write", [0x10b6b710cceaac93, 0xffaf5a1e7af5d438]),
    ("fuzz_write_after_get_orders", [0x3d6de7c29298b7fc, 0xd46bea7cd86d3279]),
];

/// The turnstile's answers for [`workloads_are_engine_independent`]:
/// [`digest`] of (checksum bits, makespan, per-core counters).
const WORKLOAD_REFERENCE: [(Workload, u64); 2] =
    [(Workload::Raytrace, 0xdb3b632978de1a3d), (Workload::MotionEst, 0x6a97afad56e7727c)];

/// The differential cross-check over the whole litmus catalogue,
/// against the frozen reference: the event heap produces the *same*
/// outcome, trace, counters and makespan as the turnstile did on every
/// case, for representative back-end/lock pairs. A mismatch means the
/// engine now commits actions in a different order (or the timing model
/// moved).
#[test]
fn des_matches_the_pinned_reference() {
    let configs = [(BackendKind::Swcc, LockKind::Sdram), (BackendKind::Dsm, LockKind::Distributed)];
    let mut rows = Vec::new();
    for case in conformance::cases() {
        let cell = configs.map(|(backend, lock)| {
            let d = litmus(&case.program, backend, lock, false);
            assert!(validate(&d.trace).is_empty(), "{}/{}/{lock:?}", case.name, backend.name());
            digest(&[&d.outcome, &d.trace, &d.report])
        });
        rows.push((case.name, cell));
    }
    let render = |rows: &[(&str, [u64; 2])]| -> String {
        rows.iter()
            .map(|(name, [a, b])| format!("    ({name:?}, [{a:#018x}, {b:#018x}]),\n"))
            .collect()
    };
    assert!(
        rows.as_slice() == CATALOGUE_REFERENCE,
        "the catalogue no longer matches the pinned reference; it now digests to\n{}",
        render(&rows)
    );
}

/// The same equivalence at application scale: a full workload produces
/// the checksum, makespan and per-core counters it produced on the
/// turnstile, and reports scheduler statistics. MOTION-EST is the case
/// with host-side scratch state per search: all tiles interleave on one
/// thread, so state that is not the tile's own would mix between
/// searches — and miss the value pinned from one thread per tile.
#[test]
fn workloads_are_engine_independent() {
    for (workload, pinned) in WORKLOAD_REFERENCE {
        let d = RunConfig::new(BackendKind::Swcc)
            .n_tiles(4)
            .session()
            .workload(workload, WorkloadParams::Tiny);
        let name = workload.name();
        let stats = d.engine_stats.expect("runs report scheduler stats");
        assert!(stats.events > 0 && stats.handoffs > 0 && stats.peak_queue >= 1, "{stats:?}");
        assert!(
            stats.handoffs <= stats.events,
            "a handoff only happens when the heap schedules a task: {stats:?}"
        );
        let now = digest(&[&d.checksum.to_bits(), &d.report.makespan, &d.report.per_core]);
        assert!(now == pinned, "{name} no longer matches the pinned reference: now {now:#018x}");
    }
}

/// The observable side of the commit-order contract, over everything
/// that writes the global trace: the catalogue on every back-end and
/// both locks with telemetry on (so runtime span records are in it),
/// plus one serving run per back-end.
#[test]
fn global_trace_is_sorted_by_time_then_tile() {
    for case in conformance::cases() {
        for backend in BackendKind::ALL {
            for lock in [LockKind::Sdram, LockKind::Distributed] {
                let run = litmus(&case.program, backend, lock, true);
                let order = commit_order_violation(&run.trace);
                assert_eq!(order, None, "{}/{}/{lock:?}", case.name, backend.name());
            }
        }
    }
    let load = LoadGenParams { n_requests: 32, n_shards: 4, ..Default::default() };
    let params = KvServeParams { load, mailbox_depth: 8, migrate_at: None };
    for backend in BackendKind::ALL {
        let session = RunConfig::new(backend)
            .n_tiles(KvServe::tiles_needed(&params))
            .telemetry(true)
            .session();
        let run = run_serve_session(&session, &params);
        assert!(!run.trace.is_empty());
        assert_eq!(commit_order_violation(&run.trace), None, "kvserve/{}", backend.name());
    }
}

/// A run spawns no OS thread: every tile program, before and after
/// yielding to its peers, is on the thread that called `Soc::run`.
#[test]
fn des_tile_programs_run_on_the_callers_thread() {
    use pmc::sim::{addr, CoreProgram, Soc, SocConfig};
    use std::sync::Mutex;

    let n = 8;
    let soc = Soc::new(SocConfig::small(n));
    let seen = Mutex::new(Vec::new());
    let programs: Vec<CoreProgram<'_>> = (0..n)
        .map(|tile| {
            let seen = &seen;
            Box::new(move |cpu: &mut pmc::sim::Cpu<'_>| {
                seen.lock().unwrap().push(std::thread::current().id());
                // Globally visible actions: each one is a yield point.
                for i in 0..4 {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 4 * tile as u32, i);
                    cpu.compute(10);
                }
                seen.lock().unwrap().push(std::thread::current().id());
            }) as CoreProgram<'_>
        })
        .collect();
    let report = soc.run(programs);
    assert!(report.makespan > 0);
    assert!(soc.engine_stats().expect("a completed run").handoffs >= n as u64);
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 2 * n);
    let me = std::thread::current().id();
    assert!(seen.iter().all(|&id| id == me), "a tile program ran on another thread");
}

/// Pure compute is core-local: how a tile slices it into `compute`
/// calls schedules nothing. Tile 0 computes 500 000 cycles in one call,
/// then in 50, before one store; tile 1 stores every 1 000 cycles
/// meanwhile. Both runs take the same events, handoffs and makespan.
#[test]
fn compute_chunking_adds_no_engine_events() {
    use pmc::sim::{addr, CoreProgram, Cpu, Soc, SocConfig};

    let run = |chunks: u64| {
        let soc = Soc::new(SocConfig::small(2));
        let report = soc.run(vec![
            Box::new(move |cpu: &mut Cpu| {
                for _ in 0..chunks {
                    cpu.compute(500_000 / chunks);
                }
                cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 1);
            }) as CoreProgram<'_>,
            Box::new(|cpu: &mut Cpu| {
                for i in 0..600 {
                    cpu.compute(1000);
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 4, i);
                }
            }),
        ]);
        (soc.engine_stats().expect("a completed run"), report.makespan)
    };
    assert_eq!(run(1), run(50));
}

/// The scale the one-thread engine is for: MOTION-EST on a 64×64 mesh —
/// 4096 tile programs, no thread each — finishes with the motion vectors
/// of the 32×32 run (same `Tiny` frames; the tile count only changes who
/// searches which block).
#[test]
fn motion_est_scales_to_4096_tiles() {
    let run = |edge: usize| {
        RunConfig::new(BackendKind::Spm)
            .topology(Topology::Mesh { cols: edge, rows: edge })
            .n_tiles(edge * edge)
            .session()
            .workload(Workload::MotionEst, WorkloadParams::Tiny)
    };
    let (small, large) = (run(32), run(64));
    assert_eq!(large.report.per_core.len(), 4096);
    assert!(large.report.makespan > 0);
    assert_eq!(small.checksum, large.checksum);
}

/// (d) The abort protocol of the run loop, through the public API:
/// which panic `Soc::run` re-raises, what happens to the parked peers
/// and what a reused `Soc` reports afterwards — plus the idle-tile and
/// too-many-programs edges of `Soc::run`.
mod abort {
    use pmc::sim::{addr, CoreProgram, Cpu, EngineStats, Soc, SocConfig};

    fn soc(n: usize) -> Soc {
        Soc::new(SocConfig::small(n))
    }

    /// Run `programs`, which must panic, and hand back the payload.
    fn run_panics(s: &Soc, programs: Vec<CoreProgram<'_>>) -> Box<dyn std::any::Any + Send> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run(programs)))
            .expect_err("the tile's panic propagates")
    }

    /// A tile that stores after `at` cycles of compute, then panics.
    fn store_then_panic<'a>(at: u64, msg: &'static str) -> CoreProgram<'a> {
        Box::new(move |cpu: &mut Cpu| {
            cpu.compute(at);
            cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 4 * cpu.tile() as u32, 1);
            panic!("{msg}");
        })
    }

    /// Virtual time, not the tile id, picks the panic that is re-raised:
    /// tile 1 is still parked before its own when tile 3's fires.
    #[test]
    fn the_earliest_panic_in_virtual_time_is_reraised() {
        let s = soc(4);
        let idle = || -> CoreProgram<'_> { Box::new(|_: &mut Cpu| ()) };
        let programs =
            vec![idle(), store_then_panic(50, "late"), idle(), store_then_panic(10, "early")];
        let payload = run_panics(&s, programs);
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "tile 3 panicked: early");
    }

    /// A payload that is not a message is resumed as it is.
    #[test]
    fn a_non_string_panic_payload_is_resumed_unchanged() {
        let s = soc(1);
        let payload = run_panics(&s, vec![Box::new(|_: &mut Cpu| std::panic::panic_any(7u32))]);
        assert_eq!(payload.downcast_ref::<u32>(), Some(&7));
    }

    /// The abort unwinds a parked peer: what its frames own is dropped.
    #[test]
    fn an_abort_runs_the_destructors_of_parked_peers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Guard<'a>(&'a AtomicBool);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = AtomicBool::new(false);
        let s = soc(2);
        run_panics(
            &s,
            vec![
                Box::new(|cpu: &mut Cpu| {
                    let _held = Guard(&dropped);
                    loop {
                        cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 1);
                    }
                }),
                store_then_panic(100, "boom"),
            ],
        );
        assert!(dropped.load(Ordering::SeqCst));
    }

    /// Tiles without a program report zeros and an empty telemetry
    /// stream, and never enter the event heap.
    #[test]
    fn tiles_without_a_program_idle() {
        let mut cfg = SocConfig::small(4);
        cfg.telemetry = true;
        let s = Soc::new(cfg);
        let store = || -> CoreProgram<'_> {
            Box::new(|cpu: &mut Cpu| {
                for _ in 0..8 {
                    cpu.write_u32(addr::SDRAM_UNCACHED_BASE + 4 * cpu.tile() as u32, 1);
                }
            })
        };
        let report = s.run(vec![store(), store()]);
        assert_eq!(report.per_core.len(), 4);
        assert!(report.per_core[..2].iter().all(|c| c.total() > 0));
        assert!(report.per_core[2..].iter().all(|c| c.total() == 0));
        let telemetry = s.take_telemetry();
        assert_eq!(telemetry.per_tile.len(), 4);
        assert!(telemetry.per_tile[..2].iter().all(|t| !t.is_empty()));
        assert!(telemetry.per_tile[2..].iter().all(Vec::is_empty));
        assert_eq!(s.engine_stats().unwrap().peak_queue, 2);
    }

    #[test]
    #[should_panic(expected = "more programs than tiles")]
    fn more_programs_than_tiles_is_an_error() {
        soc(1).run(vec![Box::new(|_: &mut Cpu| ()), Box::new(|_: &mut Cpu| ())]);
    }

    /// The scheduler statistics are those of the last run, whether it
    /// panicked or not.
    #[test]
    fn engine_stats_survive_a_panic_and_are_replaced_by_the_next_run() {
        let s = soc(2);
        assert_eq!(s.engine_stats(), None);
        run_panics(&s, vec![store_then_panic(10, "boom"), store_then_panic(20, "boom")]);
        // Tile 0's store, then tile 1's answered with the abort.
        assert_eq!(s.engine_stats(), Some(EngineStats { events: 2, handoffs: 1, peak_queue: 2 }));
        s.run(vec![Box::new(|cpu: &mut Cpu| cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 1))]);
        assert_eq!(s.engine_stats(), Some(EngineStats { events: 1, handoffs: 1, peak_queue: 1 }));
    }
}
