//! Micro-probes: the host cost (and, for the runtime primitives, the
//! simulated cost) of one public call of each layer.
//!
//! Each probe loops one call inside a 1–4 tile `Soc::run` /
//! `System::run`, or on a bare `Noc` / `SdramPorts` / `Execution`, and
//! divides by the loop count. Every probe is repeated [`REPEATS`] times;
//! the report takes the median and shows the quartiles. `_cycles` probes
//! are simulated time and read the same on every repeat.
//!
//! The loops are timed from *inside* the tile program, so `Soc::new`,
//! task spawn and teardown are not in the per-call numbers — those have
//! probes of their own (`soc-sim.soc.new_us_per_tile_*`,
//! `run_empty_us_per_tile_1024`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use pmc_apps::loadgen::{self, LoadGenParams};
use pmc_core::execution::{EdgeMode, Execution};
use pmc_core::fuzz::{self, GenConfig};
use pmc_core::litmus::catalogue;
use pmc_core::op::{LocId, ProcId};
use pmc_runtime::lock::{DistLock, Lock, SdramLock};
use pmc_runtime::{BackendKind, LockKind, PmcCtx, Program, RunConfig, System};
use pmc_soc_sim::addr::{SDRAM_CACHED_BASE, SDRAM_UNCACHED_BASE};
use pmc_soc_sim::noc::Noc;
use pmc_soc_sim::{
    CoreProgram, Cpu, DmaDescriptor, DmaDir, DmaKind, SdramPorts, Soc, SocConfig, Topology,
};

use crate::metrics::BACKENDS;
use crate::workloads::{spread_controllers, timed, DEFAULT_SEED};

/// Repeats of every probe (the issue asks for at least five).
pub const REPEATS: usize = 5;

/// Every sample of every probe, by metric name.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Run every probe [`REPEATS`] times.
pub fn run_all() -> Samples {
    let mut out = Samples::new();
    for _ in 0..REPEATS {
        let mut put = |name: String, v: f64| out.entry(name).or_default().push(v);
        put("core.execution.append_ns".into(), execution_append_ns());
        put("core.fuzz.generate_s".into(), fuzz_generate_s());
        put("apps.loadgen.generate_s".into(), loadgen_generate_s());
        put("soc-sim.soc.new_us_per_tile_256".into(), soc_new_us_per_tile(16));
        put("soc-sim.soc.new_us_per_tile_1024".into(), soc_new_us_per_tile(32));
        put("soc-sim.soc.run_empty_us_per_tile_1024".into(), run_empty_us_per_tile(32));
        for (name, ns) in cpu_op_ns() {
            put(format!("soc-sim.soc.{name}"), ns);
        }
        put("soc-sim.noc.reserve_path_ns".into(), reserve_path_ns());
        put("soc-sim.mem.reserve_ns".into(), port_reserve_ns());
        put("soc-sim.dma.issue_wait_ns".into(), dma_issue_wait_ns());
        for (backend, name) in BackendKind::ALL.into_iter().zip(BACKENDS) {
            let s = scope_probe(backend);
            put(format!("runtime.scope.x_ns.{name}"), s.x_ns);
            put(format!("runtime.scope.ro_ns.{name}"), s.ro_ns);
            put(format!("runtime.scope.x_cycles.{name}"), s.x_cycles);
            put(format!("runtime.scope.ro_cycles.{name}"), s.ro_cycles);
            let (ns, cycles) = fifo_probe(backend);
            put(format!("runtime.fifo.push_pop_ns.{name}"), ns);
            put(format!("runtime.fifo.push_pop_cycles.{name}"), cycles);
        }
        for (lock, name) in [(sdram_lock(), "sdram"), (dist_lock(), "dist")] {
            put(format!("runtime.lock.pair_ns.{name}"), lock_pair_ns(lock));
            put(format!("runtime.lock.contended_cycles.{name}"), lock_contended_cycles(lock));
        }
        put("runtime.litmus_exec.run_us".into(), litmus_run_us());
    }
    out
}

/// Nanoseconds per call of `op`, looped `n` times.
fn per_call_ns(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Run `body` as the program of tile `tile` of a fresh SoC (lower tiles
/// get empty programs, higher ones idle) and hand back its result.
fn on_tile<R: Send>(cfg: SocConfig, tile: usize, body: impl FnOnce(&mut Cpu<'_>) -> R + Send) -> R {
    let soc = Soc::new(cfg);
    let out = Mutex::new(None);
    let mut programs: Vec<CoreProgram<'_>> =
        (0..tile).map(|_| -> CoreProgram<'_> { Box::new(|_: &mut Cpu<'_>| {}) }).collect();
    programs.push(Box::new(|cpu: &mut Cpu<'_>| {
        *out.lock().expect("the probe body does not panic") = Some(body(cpu));
    }));
    soc.run(programs);
    out.into_inner().expect("the probe body does not panic").expect("the program ran")
}

// --- pmc-core ---------------------------------------------------------

/// Appending one operation to a litmus-sized `Execution` in `Full` edge
/// mode (the mode the enumerator uses): two processes taking turns at
/// acquire / write / read / release windows over two locations.
fn execution_append_ns() -> f64 {
    const OPS: usize = 64;
    per_call_ns(200, |_| {
        let mut e = Execution::new(EdgeMode::Full);
        for i in 0..OPS / 4 {
            let (p, v) = (ProcId((i % 2) as u16), LocId((i / 2 % 2) as u32));
            e.acquire(p, v);
            e.write(p, v, i as u32);
            e.read(p, v, i as u32);
            e.release(p, v);
        }
        black_box(&e);
    }) / OPS as f64
}

/// Generating the fuzzed half of the litmus inputs (32 programs).
fn fuzz_generate_s() -> f64 {
    let cfg = GenConfig::default();
    timed(|| {
        for i in 0..32 {
            black_box(fuzz::generate(DEFAULT_SEED + i, &cfg));
        }
    })
    .1
}

/// Generating one `kvserve_open` schedule (1 200 requests).
fn loadgen_generate_s() -> f64 {
    let p = LoadGenParams { n_requests: 1200, seed: DEFAULT_SEED, ..LoadGenParams::default() };
    timed(|| black_box(loadgen::generate(&p))).1
}

// --- soc-sim ----------------------------------------------------------

fn mesh_config(side: usize) -> SocConfig {
    SocConfig {
        n_tiles: side * side,
        topology: Topology::Mesh { cols: side, rows: side },
        ..SocConfig::default()
    }
}

/// `Soc::new` on a `side × side` mesh, per tile. The drop is not timed.
fn soc_new_us_per_tile(side: usize) -> f64 {
    let (soc, s) = timed(|| Soc::new(mesh_config(side)));
    drop(soc);
    s * 1e6 / (side * side) as f64
}

/// `Soc::run` of one empty program per tile: task spawn, one rendezvous
/// each, join.
fn run_empty_us_per_tile(side: usize) -> f64 {
    let soc = Soc::new(mesh_config(side));
    let programs: Vec<CoreProgram<'_>> =
        (0..side * side).map(|_| -> CoreProgram<'_> { Box::new(|_: &mut Cpu<'_>| {}) }).collect();
    let (_, s) = timed(|| soc.run(programs));
    s * 1e6 / (side * side) as f64
}

/// One `Cpu` memory operation each, on a two-tile ring (tile 1 only
/// receives the posted writes).
fn cpu_op_ns() -> [(&'static str, f64); 5] {
    const N: usize = 4000;
    on_tile(SocConfig::small(2), 0, |cpu| {
        let cached = SDRAM_CACHED_BASE + 0x100;
        black_box(cpu.read_u32(cached)); // fill the line
        let cached_hit = per_call_ns(N, |_| {
            black_box(cpu.read_u32(cached));
        });
        let uncached = per_call_ns(N, |_| {
            black_box(cpu.read_u32(SDRAM_UNCACHED_BASE + 0x200));
        });
        let mut kib = [0u8; 1024];
        let block = per_call_ns(N / 4, |_| {
            cpu.read_block(SDRAM_UNCACHED_BASE + 0x2000, &mut kib);
            black_box(&kib);
        });
        let noc_write = per_call_ns(N, |i| cpu.noc_write(1, 4096, &(i as u32).to_le_bytes()));
        let atomic = per_call_ns(N, |_| {
            black_box(cpu.sdram_faa_u32(SDRAM_UNCACHED_BASE + 0x40, 1));
        });
        [
            ("cached_hit_ns", cached_hit),
            ("uncached_ns", uncached),
            ("block_ns_per_kib", block),
            ("noc_write_ns", noc_write),
            ("sdram_atomic_ns", atomic),
        ]
    })
}

/// `Noc::reserve_path` for 1 KiB bursts between scattered tile pairs of
/// a bare 16×16 mesh (average route ≈ 10 links).
fn reserve_path_ns() -> f64 {
    let cfg = mesh_config(16);
    let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
    per_call_ns(20_000, |i| {
        let (from, to) = ((i * 97) % 256, (i * 61 + 13) % 256);
        black_box(noc.reserve_path(&cfg, i as u64 * 10, from, to, 1024));
    })
}

/// `SdramPorts::reserve` over four interleaved controllers.
fn port_reserve_ns() -> f64 {
    let mut ports = SdramPorts::new(spread_controllers(256, 4));
    per_call_ns(200_000, |i| {
        black_box(ports.reserve((i as u32).wrapping_mul(4096) % (16 << 20), i as u64 * 10, 40));
    })
}

/// One 256-byte SDRAM→local DMA get: `dma_issue` + `dma_event_wait`.
fn dma_issue_wait_ns() -> f64 {
    on_tile(SocConfig::small(1), 0, |cpu| {
        per_call_ns(2000, |_| {
            let get = DmaKind::Sdram(DmaDir::Get);
            let seq = cpu.dma_issue(0, DmaDescriptor::contiguous(get, 0x1000, 4096, 256, 256, 0));
            cpu.dma_event_wait(0, seq);
        })
    })
}

// --- runtime ----------------------------------------------------------

struct ScopeCost {
    x_ns: f64,
    ro_ns: f64,
    x_cycles: f64,
    ro_cycles: f64,
}

/// Open a scope, touch one 64-byte object, close — exclusive (write) and
/// read-only (read), on a two-tile system so DSM has a replica to
/// broadcast to.
fn scope_probe(backend: BackendKind) -> ScopeCost {
    const N: usize = 1000;
    let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
    let obj = sys.alloc::<[u32; 16]>("probe");
    sys.init(obj, [0; 16]);
    let out = Mutex::new(None);
    let now = |ctx: &PmcCtx<'_, '_>| ctx.with_cpu(|c| c.now());
    let program: Program<'_> = Box::new(|ctx| {
        let ctx = &*ctx;
        let t0 = now(ctx);
        let x_ns = per_call_ns(N, |i| {
            let s = ctx.scope_x(obj);
            s.write([i as u32; 16]);
            s.close();
        });
        let t1 = now(ctx);
        let ro_ns = per_call_ns(N, |_| {
            let s = ctx.scope_ro(obj);
            black_box(s.read());
            s.close();
        });
        let t2 = now(ctx);
        *out.lock().expect("the probe body does not panic") = Some(ScopeCost {
            x_ns,
            ro_ns,
            x_cycles: (t1 - t0) as f64 / N as f64,
            ro_cycles: (t2 - t1) as f64 / N as f64,
        });
    });
    sys.run(vec![program]);
    out.into_inner().expect("the probe body does not panic").expect("the program ran")
}

/// One element through an `MFifo` of depth 8 with one writer and two
/// readers: `(host ns, simulated cycles)` per element, whole run.
fn fifo_probe(backend: BackendKind) -> (f64, f64) {
    const N: u32 = 200;
    let mut sys = System::new(SocConfig::small(3), backend, LockKind::Sdram);
    let fifo = sys.alloc_fifo::<u32>("probe", 8, 2);
    let fifo = &fifo;
    let mut programs: Vec<Program<'_>> = vec![Box::new(move |ctx| {
        for i in 0..N {
            fifo.push(ctx, i);
        }
    })];
    for reader in 0..2 {
        programs.push(Box::new(move |ctx| {
            for i in 0..N {
                assert_eq!(fifo.pop(ctx, reader), i, "FIFO order");
            }
        }));
    }
    let (report, s) = timed(|| sys.run(programs));
    (s * 1e9 / f64::from(N), report.makespan as f64 / f64::from(N))
}

fn sdram_lock() -> Lock {
    Lock::Sdram(SdramLock { addr: SDRAM_UNCACHED_BASE })
}

/// Homed on tile 0; offsets follow the runtime's local-memory layout
/// (lock bytes from 0, reply mailboxes from 2 KiB).
fn dist_lock() -> Lock {
    Lock::Dist(DistLock { home: 0, lock_offset: 0, mailbox_offset: 2048 })
}

/// An uncontended lock + unlock from tile 1 (the remote path of the
/// distributed lock).
fn lock_pair_ns(lock: Lock) -> f64 {
    on_tile(SocConfig::small(2), 1, |cpu| {
        per_call_ns(2000, |_| {
            lock.lock(cpu);
            lock.unlock(cpu);
        })
    })
}

/// Makespan of 4 tiles × 25 lock / 50-cycle critical section / unlock.
fn lock_contended_cycles(lock: Lock) -> f64 {
    let soc = Soc::new(SocConfig::small(4));
    let programs: Vec<CoreProgram<'_>> = (0..4)
        .map(|_| -> CoreProgram<'_> {
            Box::new(move |cpu: &mut Cpu<'_>| {
                for _ in 0..25 {
                    lock.lock(cpu);
                    cpu.compute(50);
                    lock.unlock(cpu);
                    cpu.compute(20);
                }
            })
        })
        .collect();
    soc.run(programs).makespan as f64
}

/// One whole `Session::litmus` run of `mp_annotated` on SWCC over the
/// ring: build, run, trace collection.
fn litmus_run_us() -> f64 {
    let session = RunConfig::new(BackendKind::Swcc).session();
    let program = catalogue::mp_annotated();
    per_call_ns(20, |_| {
        black_box(session.litmus(&program).outcome);
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated-cycle probes are exact: the same on every repeat.
    #[test]
    fn cycle_probes_repeat_exactly() {
        for backend in [BackendKind::Swcc, BackendKind::Dsm] {
            let (a, b) = (scope_probe(backend), scope_probe(backend));
            assert_eq!((a.x_cycles, a.ro_cycles), (b.x_cycles, b.ro_cycles));
            assert!(a.x_cycles > 0.0 && a.ro_cycles > 0.0 && a.x_ns > 0.0);
            assert_eq!(fifo_probe(backend).1, fifo_probe(backend).1);
        }
        for lock in [sdram_lock(), dist_lock()] {
            let c = lock_contended_cycles(lock);
            assert_eq!(c, lock_contended_cycles(lock));
            // 100 critical sections of 50 cycles cannot overlap.
            assert!(c >= 100.0 * 50.0, "{lock:?}: makespan {c} shorter than the serial part");
        }
    }
}
