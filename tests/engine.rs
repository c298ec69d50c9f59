//! The engine axis, verified end to end: the single-threaded
//! discrete-event core must be (a) deterministic down to the byte and
//! (b) indistinguishable from the thread-per-tile turnstile it
//! replaced.
//!
//! Both engines commit actions in the same `(virtual time, tile)` order
//! and drain in-flight NoC packets at the same commit points, so the
//! equivalence gate here is strict: not just outcome-set membership
//! (the conformance sweep's gate) but bit-identical traces, counters
//! and makespans per configuration.

use pmc::apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc::model::conformance;
use pmc::runtime::litmus_exec::LitmusRun;
use pmc::runtime::monitor::validate;
use pmc::runtime::{BackendKind, LockKind, RunConfig};
use pmc::sim::telemetry::perfetto_json;
use pmc::sim::{EngineKind, Topology};

fn litmus(
    program: &pmc::model::litmus::Program,
    backend: BackendKind,
    lock: LockKind,
    engine: EngineKind,
    telemetry: bool,
) -> LitmusRun {
    RunConfig::new(backend).lock(lock).engine(engine).telemetry(telemetry).session().litmus(program)
}

/// Same seed (there is only one: the config), same session ⇒
/// byte-identical telemetry export and trace across two discrete-event
/// runs — the determinism half of the tentpole's acceptance.
#[test]
fn des_runs_are_byte_identical() {
    let cases = ["mp_annotated", "dma_mp_put"];
    for name in cases {
        let case = conformance::cases().into_iter().find(|c| c.name == name).unwrap();
        let run = |_: usize| {
            litmus(
                &case.program,
                BackendKind::Spm,
                LockKind::Sdram,
                EngineKind::DiscreteEvent,
                true,
            )
        };
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

/// The differential cross-check over the whole litmus catalogue: the
/// turnstile and the event heap produce the *same* outcome, trace,
/// counters and makespan on every case, for representative
/// back-end/lock pairs. A mismatch anywhere means one engine commits
/// actions in a different order than the other — exactly the bug class
/// the threaded engine is kept alive to catch.
#[test]
fn threaded_and_des_are_bit_identical_over_the_catalogue() {
    let configs = [(BackendKind::Swcc, LockKind::Sdram), (BackendKind::Dsm, LockKind::Distributed)];
    for case in conformance::cases() {
        for (backend, lock) in configs {
            let t = litmus(&case.program, backend, lock, EngineKind::Threaded, false);
            let d = litmus(&case.program, backend, lock, EngineKind::DiscreteEvent, false);
            let label = format!("{}/{}/{lock:?}", case.name, backend.name());
            assert_eq!(t.outcome, d.outcome, "{label}: outcomes differ");
            assert_eq!(t.trace, d.trace, "{label}: traces differ");
            assert_eq!(
                format!("{:?}", t.report),
                format!("{:?}", d.report),
                "{label}: counters differ"
            );
            assert!(validate(&d.trace).is_empty(), "{label}");
        }
    }
}

/// The same equivalence at application scale: a full workload produces
/// the same checksum, makespan and per-core counters on both engines,
/// and only the discrete-event run reports scheduler statistics.
/// MOTION-EST is the case with host-side scratch state per search: on
/// the discrete-event engine all tiles interleave on one thread, so
/// state that is not the tile's own would mix between searches.
#[test]
fn workloads_are_engine_independent() {
    for workload in [Workload::Raytrace, Workload::MotionEst] {
        let run = |engine| {
            RunConfig::new(BackendKind::Swcc)
                .n_tiles(4)
                .engine(engine)
                .session()
                .workload(workload, WorkloadParams::Tiny)
        };
        let t = run(EngineKind::Threaded);
        let d = run(EngineKind::DiscreteEvent);
        let name = workload.name();
        assert_eq!(t.checksum, d.checksum, "{name}");
        assert_eq!(t.report.makespan, d.report.makespan, "{name}");
        assert_eq!(
            format!("{:?}", t.report.per_core),
            format!("{:?}", d.report.per_core),
            "{name}"
        );
        assert!(t.engine_stats.is_none(), "turnstile runs carry no event-heap stats");
        let stats = d.engine_stats.expect("discrete-event runs report scheduler stats");
        assert!(stats.events > 0 && stats.handoffs > 0 && stats.peak_queue >= 1, "{stats:?}");
        assert!(
            stats.handoffs <= stats.events,
            "a handoff only happens when the heap schedules a task: {stats:?}"
        );
    }
}

/// With stack switching a discrete-event run spawns no OS thread: every
/// tile program, before and after yielding to its peers, is on the
/// thread that called `Soc::run`.
#[cfg(all(target_arch = "x86_64", unix))]
#[test]
fn des_tile_programs_run_on_the_callers_thread() {
    use pmc::sim::{addr, CoreProgram, Soc, SocConfig};
    use std::sync::Mutex;

    let n = 8;
    let soc = Soc::new(SocConfig::small(n));
    assert_eq!(soc.config().engine, EngineKind::DiscreteEvent);
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
    assert!(soc.engine_stats().expect("discrete-event run").handoffs >= n as u64);
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 2 * n);
    let me = std::thread::current().id();
    assert!(seen.iter().all(|&id| id == me), "a tile program ran on another thread");
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
