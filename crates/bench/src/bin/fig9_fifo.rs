//! Regenerates the paper's **Fig. 9** case study (Section VI-B): the
//! multiple-reader, multiple-writer FIFO on the distributed-shared-memory
//! architecture — and, to demonstrate portability, on every other
//! back-end ("the FIFO behaves also correctly on all of the other
//! architectures").
//!
//! Reports throughput (cycles per element) per back-end and, for DSM, the
//! share of stall time spent on local-memory polling vs SDRAM — the
//! paper's point that the pointers "are only polled from local memory,
//! which is fast and does not influence the execution of other
//! processors".
//!
//! Usage: `fig9_fifo [--items N] [--depth D] [--readers R]`

use pmc_bench::{Args, Takes};
use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::SocConfig;

fn main() {
    let args = Args::from_env(&[
        ("--items", Takes::U32),
        ("--depth", Takes::U32),
        ("--readers", Takes::U32),
    ]);
    let items = args.u32("--items", 200);
    let depth = args.u32("--depth", 8);
    let readers = args.u32("--readers", 2);
    println!("Fig. 9 — MFifo: {items} items, depth {depth}, 1 writer, {readers} readers\n");
    println!(
        "{:<10} {:>12} {:>16} {:>14} {:>12}",
        "backend", "makespan", "cycles/element", "shared-read%", "noc%"
    );
    for backend in BackendKind::ALL {
        let n_tiles = 1 + readers as usize;
        let mut sys = System::new(SocConfig::small(n_tiles), backend, LockKind::Sdram);
        let fifo = sys.alloc_fifo::<u32>("fifo", depth, readers);
        let mut programs: Vec<pmc_runtime::Program<'_>> = Vec::new();
        programs.push(Box::new(move |ctx| {
            for i in 0..items {
                fifo.push(ctx, i * 7 + 1);
            }
        }));
        for r in 0..readers {
            programs.push(Box::new(move |ctx| {
                let mut expect_prev = 0;
                for _ in 0..items {
                    let v = fifo.pop(ctx, r);
                    assert!(v > expect_prev, "FIFO order violated");
                    expect_prev = v;
                }
            }));
        }
        let report = sys.run(programs);
        let agg = report.aggregate();
        let total = agg.total().max(1) as f64;
        println!(
            "{:<10} {:>12} {:>16.0} {:>13.1}% {:>11.1}%",
            backend.name(),
            report.makespan,
            report.makespan as f64 / items as f64,
            agg.stall_shared_read as f64 / total * 100.0,
            agg.stall_noc as f64 / total * 100.0,
        );
    }

    println!("\nDepth sweep on DSM (cycles per element):");
    print!("{:<10}", "depth");
    for d in [2u32, 4, 8, 16, 32] {
        print!(" {d:>10}");
    }
    println!();
    print!("{:<10}", "cyc/elem");
    for d in [2u32, 4, 8, 16, 32] {
        let mut sys = System::new(SocConfig::small(3), BackendKind::Dsm, LockKind::Sdram);
        let fifo = sys.alloc_fifo::<u32>("fifo", d, 2);
        let n = 120u32;
        let report = sys.run(vec![
            Box::new(move |ctx| {
                for i in 0..n {
                    fifo.push(ctx, i + 1);
                }
            }),
            Box::new(move |ctx| {
                for _ in 0..n {
                    fifo.pop(ctx, 0);
                }
            }),
            Box::new(move |ctx| {
                for _ in 0..n {
                    fifo.pop(ctx, 1);
                }
            }),
        ]);
        print!(" {:>10.0}", report.makespan as f64 / n as f64);
    }
    println!();
}
