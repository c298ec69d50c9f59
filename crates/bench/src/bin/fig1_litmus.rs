//! Regenerates the paper's **Fig. 1** phenomenon and its PMC resolution.
//!
//! 1. *Model level*: enumerate the outcomes PMC allows for unsynchronised
//!    message passing (stale read allowed) and for the annotated Fig. 6
//!    program (always 42).
//! 2. *Hardware level*: run raw message passing on the simulated SoC with
//!    one near memory (SDRAM flag) and one far memory (remote tile X over
//!    the NoC) — the reader observes the flag before the data, exactly as
//!    in Fig. 1 — then run the annotated program on every back-end and
//!    observe only 42.
//!
//! Usage: `fig1_litmus` (it takes no flags).

use pmc_bench::Args;
use pmc_core::interleave::outcomes;
use pmc_core::litmus::catalogue;
use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::{addr, Cpu, Soc, SocConfig};
use std::sync::atomic::{AtomicU32, Ordering};

fn main() {
    Args::from_env(&[]);
    println!("== Fig. 1 — model level ==");
    let outs = outcomes(&catalogue::mp_unfenced()).expect("enumeration");
    let stale = outs.iter().any(|o| o[1][0] == 0);
    println!(
        "unfenced MP outcomes for r(X): {:?}",
        outs.iter().map(|o| o[1][0]).collect::<Vec<_>>()
    );
    println!("  stale read allowed by the model: {stale}");
    let outs = outcomes(&catalogue::mp_annotated()).expect("enumeration");
    println!(
        "annotated MP (Fig. 6) outcomes for r(X): {:?}",
        outs.iter().map(|o| o[1][0]).collect::<Vec<_>>()
    );

    println!("\n== Fig. 1 — hardware level (far memory over the NoC) ==");
    for (hop_lat, label) in [(2u64, "near-far symmetric-ish"), (400, "far memory 200x slower")] {
        let mut cfg = SocConfig::small(4);
        cfg.lat.noc_per_hop = hop_lat;
        cfg.lat.noc_fixed = hop_lat;
        let soc = Soc::new(cfg);
        let flag = addr::SDRAM_UNCACHED_BASE + 512;
        let seen = AtomicU32::new(u32::MAX);
        let seen_ref = &seen;
        soc.run(vec![
            Box::new(move |cpu: &mut Cpu| {
                cpu.noc_write(2, 16, &42u32.to_le_bytes());
                cpu.write_u32(flag, 1);
            }),
            Box::new(|_c: &mut Cpu| {}),
            Box::new(move |cpu: &mut Cpu| {
                while cpu.read_u32(flag) != 1 {
                    cpu.compute(5);
                }
                seen_ref.store(cpu.read_u32(addr::local_base(2) + 16), Ordering::SeqCst);
            }),
            Box::new(|_c: &mut Cpu| {}),
        ]);
        println!("  {label:<28} reader saw X = {}", seen.load(Ordering::SeqCst));
    }

    println!("\n== Fig. 6 — annotated program on every back-end ==");
    for backend in BackendKind::ALL {
        let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
        let x = sys.alloc::<u32>("X");
        let f = sys.alloc::<u32>("flag");
        let seen = AtomicU32::new(u32::MAX);
        let seen_ref = &seen;
        sys.run(vec![
            Box::new(move |ctx| {
                {
                    let xs = ctx.scope_x(x);
                    xs.write(42);
                    ctx.fence();
                }
                let fs = ctx.scope_x(f);
                fs.write(1);
                fs.flush();
            }),
            Box::new(move |ctx| {
                while ctx.scope_ro(f).read() != 1 {
                    ctx.compute(16);
                }
                ctx.fence();
                seen_ref.store(ctx.scope_x(x).read(), Ordering::SeqCst);
            }),
        ]);
        println!("  {:<10} reader saw X = {}", backend.name(), seen.load(Ordering::SeqCst));
    }
}
