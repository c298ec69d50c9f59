//! Extension experiment (the paper's reference \[15\]): the asymmetric
//! distributed lock vs the SDRAM test-and-set lock, under varying
//! contention and varying distance between requester and the lock's home
//! tile. The distributed lock's claims: (a) the home tile acquires in a
//! few cycles; (b) waiters poll their own local memory, keeping the
//! interconnect and SDRAM free.
//!
//! Usage: `ablation_locks [--tiles N] [--iters I]`

use pmc_bench::{Args, Takes};
use pmc_runtime::lock::{DistLock, Lock, SdramLock};
use pmc_soc_sim::{addr, CoreProgram, Cpu, Soc, SocConfig};

fn contended(lock_for: impl Fn(usize) -> Lock, n_tiles: usize, iters: u32) -> (u64, u64) {
    let soc = Soc::new(SocConfig::small(n_tiles));
    let counter = addr::SDRAM_UNCACHED_BASE + 8192;
    let programs: Vec<CoreProgram<'_>> = (0..n_tiles)
        .map(|t| -> CoreProgram<'_> {
            let lock = lock_for(t);
            Box::new(move |cpu: &mut Cpu| {
                for _ in 0..iters {
                    lock.lock(cpu);
                    let v = cpu.read_u32(counter);
                    cpu.compute(40); // critical section work
                    cpu.write_u32(counter, v + 1);
                    lock.unlock(cpu);
                    cpu.compute(100); // think time
                }
            })
        })
        .collect();
    let report = soc.run(programs);
    let agg = report.aggregate();
    assert_eq!(soc.read_sdram_u32(8192), n_tiles as u32 * iters);
    (report.makespan, agg.stall_shared_read)
}

fn main() {
    let args = Args::from_env(&[("--tiles", Takes::U32), ("--iters", Takes::U32)]);
    let tiles = args.u32("--tiles", 8) as usize;
    let iters = args.u32("--iters", 60);
    println!("Lock ablation — {tiles} tiles x {iters} lock/unlock+CS each\n");
    println!("{:<28} {:>12} {:>20}", "lock", "makespan", "SDRAM-read stalls");
    let (m, s) =
        contended(|_| Lock::Sdram(SdramLock { addr: addr::SDRAM_UNCACHED_BASE }), tiles, iters);
    println!("{:<28} {m:>12} {s:>20}", "SDRAM test-and-set");
    let (m, s) = contended(
        |_| Lock::Dist(DistLock { home: 0, lock_offset: 0, mailbox_offset: 128 }),
        tiles,
        iters,
    );
    println!("{:<28} {m:>12} {s:>20}", "distributed (home=0)");

    println!("\nUncontended acquire+release cost vs distance to home tile (distributed lock):");
    println!("{:<10} {:>14}", "distance", "cycles/op");
    for dist in [0usize, 1, 2, 4, 8, 15] {
        if dist >= tiles.max(16) {
            continue;
        }
        let soc = Soc::new(SocConfig::small(16));
        let lock = DistLock { home: 0, lock_offset: 0, mailbox_offset: 128 };
        let reps = 40u64;
        let mut programs: Vec<CoreProgram<'_>> = Vec::new();
        for _t in 0..16usize {
            programs.push(Box::new(move |cpu: &mut Cpu| {
                if cpu.tile() == dist {
                    for _ in 0..reps {
                        lock.lock(cpu);
                        lock.unlock(cpu);
                    }
                }
            }));
        }
        let report = soc.run(programs);
        println!("{dist:<10} {:>14.0}", report.makespan as f64 / reps as f64);
    }
}
