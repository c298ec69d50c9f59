//! Regenerates the paper's **Fig. 8**: execution time and processor
//! utilisation of the three SPLASH-2-style applications under no cache
//! coherency (shared data uncached) vs software cache coherency, on the
//! 32-core simulated MicroBlaze system.
//!
//! The paper reports: SWCC improves total execution time by 22 % on
//! average (26 % for RADIOSITY, whose utilisation rises from 38 % to
//! ~70 %); RAYTRACE and VOLREND lose almost all shared-read stalls; time
//! spent in flush instructions is 0.66 % / 0.00 % / 0.01 %.
//!
//! Usage: `fig8 [--tiles N] [--topology ring|mesh|torus] [--tiny]
//! [--json]`
//! (`--json` = machine-readable output on stdout instead of the tables.)
//!
//! `--topology` selects the interconnect every run routes over (posted
//! writes and write-backs to the memory controller cross its links); a
//! ring-vs-mesh-vs-torus contention table at the end runs one workload
//! on all three and checks the outputs agree — Fig. 8 is
//! interconnect-portable.

use pmc_apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc_bench::{
    breakdown_header, breakdown_json, breakdown_row, mesh_dims, top_links, top_links_json,
    topology_named, Args, Takes,
};
use pmc_runtime::{BackendKind, RunConfig};
use pmc_soc_sim::telemetry::json;
use pmc_soc_sim::Topology;

fn main() {
    let args = Args::from_env(&[
        ("--tiles", Takes::U32),
        ("--topology", Takes::Str),
        ("--tiny", Takes::Switch),
        ("--json", Takes::Switch),
    ]);
    let emit_json = args.flag("--json");
    let tiles = args.u32("--tiles", 32) as usize;
    let topology = args.topology(tiles);
    let run = |w: Workload, backend: BackendKind, topo: Topology, params: WorkloadParams| {
        RunConfig::new(backend).n_tiles(tiles).topology(topo).session().workload(w, params)
    };
    let params = if args.flag("--tiny") { WorkloadParams::Tiny } else { WorkloadParams::Full };
    // All assertions run in both modes; `--json` only swaps the tables
    // on stdout for one JSON document.
    macro_rules! say { ($($t:tt)*) => { if !emit_json { println!($($t)*); } } }
    say!("Fig. 8 — noCC vs SWCC, {tiles} cores ({params:?}, {} NoC)\n", topology.name());
    say!("{}", breakdown_header());
    let mut improvements = Vec::new();
    let mut workload_rows = Vec::new();
    for w in Workload::FIG8 {
        let base = run(w, BackendKind::Uncached, topology, params);
        let swcc = run(w, BackendKind::Swcc, topology, params);
        let bb = base.breakdown();
        let sb = swcc.breakdown();
        say!("{}", breakdown_row(&format!("{} (no CC)", w.name()), &bb));
        say!("{}", breakdown_row(&format!("{} (SWCC)", w.name()), &sb));
        let rel = sb.makespan as f64 / bb.makespan as f64;
        let improvement = (1.0 - rel) * 100.0;
        improvements.push(improvement);
        say!(
            "{:<24} exec time {:.1}% of no-CC (improvement {improvement:.1}%), \
             utilization {:.0}% -> {:.0}%, flush overhead {:.2}%\n",
            "  =>",
            rel * 100.0,
            bb.utilization * 100.0,
            sb.utilization * 100.0,
            sb.flush_overhead * 100.0,
        );
        if base.workload != Workload::Radiosity {
            assert_eq!(base.checksum, swcc.checksum, "output mismatch for {w:?}");
        }
        workload_rows.push(json::obj(&[
            ("name", json::str(w.name())),
            ("uncached", breakdown_json(&bb)),
            ("swcc", breakdown_json(&sb)),
            ("improvement_pct", json::num(improvement)),
        ]));
    }
    let mean = improvements.iter().sum::<f64>() / improvements.len() as f64;
    say!("mean execution-time improvement: {mean:.1}%  (paper: 22%)");

    // Topology contention: the same SWCC workload on the ring, the mesh
    // and the torus produces the same output; the busiest links shift
    // from the controller-adjacent ring arcs to the XY funnel of the
    // mesh, and the torus's wraparound links shorten the far-half
    // routes.
    let (cols, rows) = mesh_dims(tiles);
    say!("\nRing vs mesh vs torus — VOLREND (SWCC), {tiles} cores (grid {cols}x{rows}):");
    say!("{:<6} {:>12} {:>14} {:>14}  busiest links", "topo", "makespan", "total busy", "max busy");
    let mut checksums = Vec::new();
    let mut topo_rows = Vec::new();
    for name in ["ring", "mesh", "torus"] {
        let topo = topology_named(name, tiles).expect("a known topology name");
        let r = run(Workload::Volrend, BackendKind::Swcc, topo, params);
        let total: u64 = r.links.iter().map(|l| l.busy).sum();
        let max = r.links.iter().map(|l| l.busy).max().unwrap_or(0);
        assert!(total > 0, "write-backs must be NoC-accounted on the {}", topo.name());
        let tops: Vec<String> = top_links(&r.links, 3)
            .iter()
            .map(|l| format!("{}->{}:{}", l.from, l.to, l.busy))
            .collect();
        say!(
            "{:<6} {:>12} {:>14} {:>14}  {}",
            topo.name(),
            r.report.makespan,
            total,
            max,
            tops.join("  ")
        );
        checksums.push(r.checksum);
        topo_rows.push(json::obj(&[
            ("topology", json::str(topo.name())),
            ("makespan", r.report.makespan.to_string()),
            ("total_busy", total.to_string()),
            ("max_link_busy", max.to_string()),
            ("top_links", top_links_json(&r.links, 3)),
        ]));
    }
    assert!(
        checksums.iter().all(|c| *c == checksums[0]),
        "Fig. 8 output must not depend on the topology"
    );

    if emit_json {
        println!(
            "{}",
            json::obj(&[
                ("figure", json::str("fig8")),
                ("tiles", tiles.to_string()),
                ("topology", json::str(topology.name())),
                ("params", json::str(&format!("{params:?}"))),
                ("workloads", json::arr(&workload_rows)),
                ("mean_improvement_pct", json::num(mean)),
                ("ring_vs_mesh", json::arr(&topo_rows)),
            ])
        );
    }
}
