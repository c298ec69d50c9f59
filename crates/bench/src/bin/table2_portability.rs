//! Regenerates the paper's **Table II** claim: the *same annotated
//! application code* maps onto all architectures — software cache
//! coherency, DSM over a write-only interconnect, scratch-pad memories —
//! plus the no-CC baseline. Every workload runs unmodified on every
//! back-end; outputs must agree.
//!
//! Usage: `table2_portability [--tiles N]`

use pmc_apps::workload::{run_workload, Workload, WorkloadParams};
use pmc_bench::{Args, Takes};
use pmc_runtime::BackendKind;

fn main() {
    let tiles = Args::from_env(&[("--tiles", Takes::U32)]).u32("--tiles", 8) as usize;
    println!("Table II — one annotated program, four memory architectures ({tiles} cores)\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}   output",
        "workload", "uncached", "swcc", "dsm", "spm"
    );
    for w in [Workload::Raytrace, Workload::Volrend, Workload::MotionEst, Workload::Radiosity] {
        let mut spans = Vec::new();
        let mut sums = Vec::new();
        for backend in BackendKind::ALL {
            let r = run_workload(w, backend, tiles, WorkloadParams::Tiny);
            spans.push(r.report.makespan);
            sums.push(r.checksum);
        }
        // Radiosity is f32-accumulation-order dependent; the others are
        // bit-exact across back-ends.
        let agree = if w == Workload::Radiosity {
            let e = sums[0];
            sums.iter().all(|s| (s - e).abs() < 1e-3 * e.abs().max(1.0))
        } else {
            sums.iter().all(|&s| s == sums[0])
        };
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}   {}",
            w.name(),
            spans[0],
            spans[1],
            spans[2],
            spans[3],
            if agree { "identical" } else { "MISMATCH!" }
        );
        assert!(agree, "{w:?} outputs disagree across back-ends");
    }
    println!("\nall workloads produced consistent results on every back-end");
}
