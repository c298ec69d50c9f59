//! Regenerates the paper's **Fig. 10** case study (Section VI-C): motion
//! estimation using scratch-pad memories, compared against the software
//! cache coherency setup — the paper reports "a significant performance
//! increase when this application is using SPMs, compared to the software
//! cache coherency setup", noting it "depends on many architectural
//! parameters". A cache-size sweep exposes that dependence.
//!
//! Usage: `fig10_spm [--tiles N] [--frame F] [--range R]`

use pmc_apps::motion_est::{MotionEst, MotionEstParams};
use pmc_bench::{Args, Takes};
use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::SocConfig;

fn run(
    backend: BackendKind,
    tiles: usize,
    params: MotionEstParams,
    cache_sets: u32,
) -> (u64, f64, f64) {
    let mut cfg = SocConfig { n_tiles: tiles, ..SocConfig::default() };
    cfg.icache_mpki = 1;
    cfg.dcache.sets = cache_sets;
    let mut sys = System::new(cfg, backend, LockKind::Sdram);
    let app = MotionEst::build(&mut sys, params);
    let app_ref = &app;
    let report = sys.run(
        (0..tiles)
            .map(|_| -> pmc_runtime::Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
            .collect(),
    );
    let acc = app.accuracy(&sys);
    (report.makespan, acc, app.checksum(&sys))
}

fn main() {
    let args = Args::from_env(&[
        ("--tiles", Takes::U32),
        ("--frame", Takes::U32),
        ("--range", Takes::U32),
    ]);
    let tiles = args.u32("--tiles", 8) as usize;
    let frame = args.u32("--frame", 96);
    let range = args.u32("--range", 8);
    let params = MotionEstParams { frame, block: 16, range, seed: 0x5EED_0004 };
    println!(
        "Fig. 10 — motion estimation ({frame}x{frame}, 16x16 blocks, ±{range}), {tiles} cores\n"
    );
    println!("{:<10} {:>12} {:>10} {:>10}", "backend", "makespan", "accuracy", "vs SWCC");
    let (swcc_t, _, swcc_sum) = run(BackendKind::Swcc, tiles, params, 128);
    for backend in [BackendKind::Uncached, BackendKind::Swcc, BackendKind::Spm, BackendKind::Dsm] {
        let (t, acc, sum) = run(backend, tiles, params, 128);
        assert_eq!(sum, swcc_sum, "{backend:?}: vectors differ");
        println!(
            "{:<10} {:>12} {:>9.0}% {:>9.2}x",
            backend.name(),
            t,
            acc * 100.0,
            swcc_t as f64 / t as f64
        );
    }

    println!("\nCache-size sweep (SWCC makespan / SPM makespan — ‘depends on many architectural parameters’):");
    print!("{:<22}", "d-cache size");
    for sets in [4u32, 8, 16, 64, 128] {
        print!(" {:>9}", format!("{}KiB", sets * 2 * 32 / 1024));
    }
    println!();
    print!("{:<22}", "SWCC/SPM speedup");
    let (spm_t, _, _) = run(BackendKind::Spm, tiles, params, 128);
    let _ = spm_t;
    for sets in [4u32, 8, 16, 64, 128] {
        let (swcc_t, _, _) = run(BackendKind::Swcc, tiles, params, sets);
        let (spm_t, _, _) = run(BackendKind::Spm, tiles, params, sets);
        print!(" {:>9.2}", swcc_t as f64 / spm_t as f64);
    }
    println!();
}
