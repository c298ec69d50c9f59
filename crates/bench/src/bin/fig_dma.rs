//! **fig_dma** — the DMA subsystem's headline numbers: bulk scratchpad
//! transfers vs the word-at-a-time software copy loop, channel scaling,
//! tile-to-tile transfers vs the SDRAM round trip, and per-link NoC
//! contention (which, since posted writes route through the same link
//! model, reflects *total* interconnect traffic).
//!
//! Experiments on the SPM back-end (the architecture whose scopes
//! physically stage data, i.e. where the paper's Fig. 10 case study
//! lives):
//!
//! 1. the streaming-copy kernel ([`pmc_apps::stream`]) in word-copy /
//!    single-buffered DMA / double-buffered DMA modes, sweeping the
//!    engine burst size;
//! 2. a channel-scaling table: the double-buffered kernel with 1/2/4
//!    engine channels at 1/2/4 tiles — 2+ channels hide each transfer's
//!    delivery tail until the shared SDRAM port saturates;
//! 3. tile-to-tile bandwidth: a scratchpad-to-scratchpad copy vs the
//!    same payload staged out to SDRAM and fetched back;
//! 4. per-directed-link busy cycles for the most contended links — bulk
//!    traffic funnels towards the SDRAM controller at tile 0;
//! 5. a **topology contention table**: the same stream on the ring, the
//!    mesh and the torus, same checksum, different link profile — and a
//!    posted-only (word-copy) row proving ordinary posted writes are
//!    NoC-accounted on each;
//! 6. a **memory-controller scaling table**: the same stream with 1/2/4
//!    interleaved SDRAM controllers — stripes spread the port queueing,
//!    so aggregate SDRAM bandwidth grows with the controller count;
//! 7. motion estimation (Fig. 10) with the plain staging worker vs the
//!    double-buffered DMA worker vs the strided 2-D gather worker.
//!
//! Usage: `fig_dma [--tiles N] [--tasks K] [--kbytes S]
//! [--topology ring|mesh|torus] [--json]`
//!
//! `--topology` selects the interconnect for every experiment
//! (mesh/torus = most nearly square factorisation of the tile count);
//! the topology table always runs all three. `--json` swaps the tables
//! on stdout for one machine-readable document; every assertion still
//! runs.

use pmc_apps::motion_est::{MotionEst, MotionEstParams};
use pmc_apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc_bench::{
    mesh_dims, spread_controllers, top_links, top_links_json, topology_named, Args, Takes,
};
use pmc_runtime::{BackendKind, LockKind, System};
use pmc_soc_sim::telemetry::json;
use pmc_soc_sim::{
    addr, CoreProgram, Cpu, DmaDescriptor, DmaDir, DmaKind, LinkReport, PortReport, Soc, SocConfig,
    Topology,
};

struct Run {
    makespan: u64,
    checksum: u64,
    dma_bytes: u64,
    burst: u32,
    links: Vec<LinkReport>,
    ports: Vec<PortReport>,
}

fn run_stream(
    tiles: usize,
    params: StreamCopyParams,
    mode: StreamMode,
    burst: u32,
    channels: usize,
    topology: Topology,
    mem_controllers: &[usize],
) -> Run {
    let n_tiles = tiles.max(2);
    // Re-shape for `n_tiles` (the channel-scaling table runs systems
    // smaller than `--tiles`, and a mesh or torus must cover exactly the
    // tile count).
    let topology = topology_named(topology.name(), n_tiles).expect("a topology's own name");
    let mut cfg = SocConfig { n_tiles, topology, ..SocConfig::default() };
    cfg.icache_mpki = 1;
    cfg.dma_channels = channels;
    cfg.mem_controllers = mem_controllers.to_vec();
    let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
    sys.set_dma_burst(burst);
    let app = StreamCopy::build(&mut sys, params);
    let app_ref = &app;
    let report = sys.run(
        (0..tiles)
            .map(|_| -> pmc_runtime::Program<'_> { Box::new(move |ctx| app_ref.worker(ctx, mode)) })
            .collect(),
    );
    let checksum = app.checksum(&sys);
    let dma_bytes = report.aggregate().dma_bytes;
    let links = sys.soc().link_report();
    let ports = sys.soc().port_report();
    Run { makespan: report.makespan, checksum, dma_bytes, burst, links, ports }
}

/// Tile-to-tile copy vs SDRAM round trip for one payload; returns
/// `(t2t_makespan, via_sdram_makespan)`. The payload buffers live at
/// local offset 4096 so they cannot overlap the completion word
/// (offset 0) or the ready flag (offset 64).
fn t2t_vs_sdram(bytes: u32, topology: Topology) -> (u64, u64) {
    const BUF: u32 = 4096;
    let (src, dst) = (2usize, 5usize);
    let topology = topology_named(topology.name(), 8).expect("a topology's own name");
    let cfg = move || {
        let small = SocConfig::small(8);
        // The payload sits at `BUF`: the largest cell needs more local
        // memory than `small` has.
        SocConfig { topology, local_mem_size: small.local_mem_size.max(BUF + bytes), ..small }
    };
    let idle = |n: usize| -> Vec<CoreProgram<'_>> {
        (0..n).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect()
    };
    let t2t = {
        let soc = Soc::new(cfg());
        let mut programs = idle(8);
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(
                    DmaKind::Copy { dst_tile: dst },
                    BUF,
                    BUF,
                    bytes,
                    1024,
                    0,
                ),
            );
            while cpu.read_u32(addr::local_base(src)) < seq {
                cpu.compute(20);
            }
        });
        soc.run(programs).makespan
    };
    let via_sdram = {
        let soc = Soc::new(cfg());
        let mut programs = idle(8);
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Put), 65536, BUF, bytes, 1024, 0),
            );
            while cpu.read_u32(addr::local_base(src)) < seq {
                cpu.compute(20);
            }
            cpu.noc_write(dst, 64, &1u32.to_le_bytes());
        });
        programs[dst] = Box::new(move |cpu: &mut Cpu| {
            let base = addr::local_base(dst);
            while cpu.read_u32(base + 64) != 1 {
                cpu.compute(20);
            }
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 65536, BUF, bytes, 1024, 0),
            );
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        soc.run(programs).makespan
    };
    (t2t, via_sdram)
}

/// Print the `n` busiest links of a report, with endpoints.
fn print_top_links(links: &[LinkReport], n: usize) {
    for l in top_links(links, n) {
        println!(
            "  link {:>3}  tile {:>2} -> tile {:>2}  {:>10} busy cycles  {:>7} bursts",
            l.link, l.from, l.to, l.busy, l.bursts
        );
    }
}

fn main() {
    let args = Args::from_env(&[
        ("--tiles", Takes::U32),
        ("--tasks", Takes::U32),
        ("--kbytes", Takes::U32),
        ("--topology", Takes::Str),
        ("--json", Takes::Switch),
    ]);
    let emit_json = args.flag("--json");
    let tiles = (args.u32("--tiles", 8) as usize).max(2);
    let topology = args.topology(tiles);
    let tasks = args.u32("--tasks", 64);
    let kbytes = args.u32("--kbytes", 4);
    let params =
        StreamCopyParams { n_tasks: tasks, task_bytes: kbytes * 1024, compute_per_word: 2 };
    // All assertions run in both modes; `--json` only swaps the tables
    // on stdout for one JSON document.
    macro_rules! say { ($($t:tt)*) => { if !emit_json { println!($($t)*); } } }
    say!(
        "fig_dma — bulk scratchpad transfers on the SPM back-end \
         ({tasks} tasks x {kbytes} KiB, {tiles} tiles, {} NoC, controller at tile 0)\n",
        topology.name()
    );

    say!("{:<12} {:>6} {:>12} {:>9} {:>12}", "mode", "burst", "makespan", "vs word", "dma-bytes");
    let word = run_stream(tiles, params, StreamMode::WordCopy, 256, 1, topology, &[]);
    say!(
        "{:<12} {:>6} {:>12} {:>8.2}x {:>12}",
        StreamMode::WordCopy.name(),
        "-",
        word.makespan,
        1.0,
        word.dma_bytes
    );
    let mut stream_rows = vec![json::obj(&[
        ("mode", json::str(StreamMode::WordCopy.name())),
        ("burst", "null".into()),
        ("makespan", word.makespan.to_string()),
        ("speedup", json::num(1.0)),
        ("dma_bytes", word.dma_bytes.to_string()),
    ])];
    let bursts: &[u32] = &[16, 64, 256, 1024, 4096];
    let mut best: Option<Run> = None;
    let mut best_mode = StreamMode::Dma;
    for &burst in bursts {
        for mode in [StreamMode::Dma, StreamMode::DmaDouble] {
            let r = run_stream(tiles, params, mode, burst, 1, topology, &[]);
            assert_eq!(r.checksum, word.checksum, "modes must agree");
            say!(
                "{:<12} {:>6} {:>12} {:>8.2}x {:>12}",
                mode.name(),
                burst,
                r.makespan,
                word.makespan as f64 / r.makespan as f64,
                r.dma_bytes
            );
            stream_rows.push(json::obj(&[
                ("mode", json::str(mode.name())),
                ("burst", burst.to_string()),
                ("makespan", r.makespan.to_string()),
                ("speedup", json::num(word.makespan as f64 / r.makespan as f64)),
                ("dma_bytes", r.dma_bytes.to_string()),
            ]));
            if best.as_ref().is_none_or(|b| r.makespan < b.makespan) {
                best = Some(r);
                best_mode = mode;
            }
        }
    }
    let best = best.expect("at least one DMA run");
    assert!(best.makespan < word.makespan, "DMA burst streaming must beat the word-at-a-time copy");
    let best_burst = best.burst;

    say!(
        "\nChannel scaling — double-buffered stream, single 4 KiB bursts, \
         no extra compute (transfer-bound):"
    );
    say!("{:<8} {:>12} {:>12} {:>12} {:>10}", "tiles", "1 chan", "2 chan", "4 chan", "2ch gain");
    let chan_params = StreamCopyParams { n_tasks: 16, task_bytes: 4096, compute_per_word: 0 };
    let chan_tiles: &[usize] = &[1, 2, 4];
    let mut chan_rows = Vec::new();
    for &t in chan_tiles {
        let c1 = run_stream(t, chan_params, StreamMode::DmaDouble, 4096, 1, topology, &[]).makespan;
        let c2 = run_stream(t, chan_params, StreamMode::DmaDouble, 4096, 2, topology, &[]).makespan;
        let c4 = run_stream(t, chan_params, StreamMode::DmaDouble, 4096, 4, topology, &[]).makespan;
        say!("{t:<8} {c1:>12} {c2:>12} {c4:>12} {:>9.2}x", c1 as f64 / c2 as f64);
        if t == 1 {
            assert!(c2 < c1, "2 channels must beat 1 at one tile: {c2} vs {c1}");
        }
        chan_rows.push(json::obj(&[
            ("tiles", t.to_string()),
            ("chan1", c1.to_string()),
            ("chan2", c2.to_string()),
            ("chan4", c4.to_string()),
        ]));
    }
    say!("  (beyond ~2 streaming tiles the shared SDRAM port saturates: channels tie)");

    say!("\nTile-to-tile vs SDRAM round trip (tile 2 -> tile 5, {} NoC):", topology.name());
    say!(
        "{:<10} {:>12} {:>14} {:>12} {:>14} {:>8}",
        "payload",
        "t2t cycles",
        "bytes/kcycle",
        "via SDRAM",
        "bytes/kcycle",
        "gain"
    );
    let payloads: &[u32] = &[4 << 10, 16 << 10, 64 << 10];
    let mut t2t_rows = Vec::new();
    for &bytes in payloads {
        let (t2t, sdram) = t2t_vs_sdram(bytes, topology);
        assert!(t2t < sdram, "tile-to-tile must sustain higher bandwidth");
        say!(
            "{:<10} {:>12} {:>14.0} {:>12} {:>14.0} {:>7.2}x",
            format!("{}KiB", bytes >> 10),
            t2t,
            bytes as f64 * 1000.0 / t2t as f64,
            sdram,
            bytes as f64 * 1000.0 / sdram as f64,
            sdram as f64 / t2t as f64
        );
        t2t_rows.push(json::obj(&[
            ("bytes", bytes.to_string()),
            ("t2t_cycles", t2t.to_string()),
            ("via_sdram_cycles", sdram.to_string()),
        ]));
    }

    say!("\nPer-link NoC busy cycles (best DMA run; links sorted by occupancy —");
    say!("posted writes share the link model, so this is total interconnect traffic):");
    if !emit_json {
        print_top_links(&best.links, 8);
    }

    // The differential contention table: identical workload and output
    // on the ring, the mesh and the torus, different per-link traffic
    // shape.
    let (cols, rows) = mesh_dims(tiles);
    say!(
        "\nRing vs mesh vs torus — double-buffered stream (burst {best_burst}), {tiles} tiles \
         (grid {cols}x{rows}):"
    );
    say!(
        "{:<6} {:>12} {:>14} {:>14} {:>12} {:>14}",
        "topo",
        "makespan",
        "total busy",
        "max link busy",
        "posted-only",
        "posted busy"
    );
    let mut topo_rows = Vec::new();
    for name in ["ring", "mesh", "torus"] {
        let topo = topology_named(name, tiles).expect("a known topology name");
        let r = run_stream(tiles, params, StreamMode::DmaDouble, best_burst, 1, topo, &[]);
        assert_eq!(
            r.checksum, word.checksum,
            "the stream's output must be identical on every topology"
        );
        // Posted-only traffic (no DMA at all): the word-copy loop's
        // result write-outs still cross the NoC, so the link counters
        // must account for them on both topologies. On the topology the
        // baseline already ran on, reuse it instead of re-simulating.
        let rerun;
        let posted = if topo.name() == topology.name() {
            &word
        } else {
            rerun = run_stream(tiles, params, StreamMode::WordCopy, 256, 1, topo, &[]);
            &rerun
        };
        let posted_busy: u64 = posted.links.iter().map(|l| l.busy).sum();
        assert!(posted_busy > 0, "posted writes must be NoC-accounted on the {}", topo.name());
        assert_eq!(posted.dma_bytes, 0, "the word copy moves no DMA bytes");
        let total: u64 = r.links.iter().map(|l| l.busy).sum();
        let max = r.links.iter().map(|l| l.busy).max().unwrap_or(0);
        say!(
            "{:<6} {:>12} {:>14} {:>14} {:>12} {:>14}",
            topo.name(),
            r.makespan,
            total,
            max,
            posted.makespan,
            posted_busy
        );
        topo_rows.push(json::obj(&[
            ("topology", json::str(topo.name())),
            ("makespan", r.makespan.to_string()),
            ("total_busy", total.to_string()),
            ("max_link_busy", max.to_string()),
            ("posted_makespan", posted.makespan.to_string()),
            ("posted_busy", posted_busy.to_string()),
            ("top_links", top_links_json(&r.links, 4)),
        ]));
        if !emit_json {
            print_top_links(&r.links, 4);
        }
    }
    say!("  (XY routing spreads controller-bound bursts over both mesh dimensions)");

    // Memory-controller scaling: the same stream with the SDRAM offset
    // space interleaved over 1/2/4 controllers. Extra ports split the
    // queueing, so aggregate bandwidth (bytes per makespan cycle) grows
    // until the NoC, not the port, is the bottleneck.
    say!(
        "\nMemory-controller scaling — double-buffered stream (burst {best_burst}), \
         {tiles} tiles, {} NoC:",
        topology.name()
    );
    say!(
        "{:<6} {:>14} {:>12} {:>14} {:>14}",
        "ctrls",
        "tiles",
        "makespan",
        "bytes/kcycle",
        "port busy"
    );
    let mut ctrl_rows = Vec::new();
    for k in [1usize, 2, 4] {
        let ctrls = spread_controllers(tiles.max(2), k);
        let r = run_stream(tiles, params, StreamMode::DmaDouble, best_burst, 1, topology, &ctrls);
        assert_eq!(r.checksum, word.checksum, "interleaving must not change the output");
        let served: Vec<u64> = r.ports.iter().map(|p| p.busy).collect();
        assert_eq!(served.len(), k, "one port per configured controller");
        if k > 1 {
            assert!(
                served.iter().filter(|&&b| b > 0).count() > 1,
                "4 KiB stripes must spread traffic over the controllers: {served:?}"
            );
        }
        let bw = r.dma_bytes as f64 * 1000.0 / r.makespan as f64;
        say!(
            "{:<6} {:>14} {:>12} {:>14.0} {:>14}",
            k,
            format!("{ctrls:?}"),
            r.makespan,
            bw,
            format!("{served:?}")
        );
        ctrl_rows.push(json::obj(&[
            ("controllers", k.to_string()),
            ("tiles", json::arr(&ctrls.iter().map(|t| t.to_string()).collect::<Vec<_>>())),
            ("makespan", r.makespan.to_string()),
            ("bytes_per_kcycle", json::num(bw)),
            ("port_busy", json::arr(&served.iter().map(|b| b.to_string()).collect::<Vec<_>>())),
        ]));
    }
    say!("  (gains grow with the streaming tile count; pmcbench's stream_dma_256t runs 256 tiles)");

    say!("\nFig. 10 revisited — motion estimation staging strategies (SPM):");
    let me_params = MotionEstParams { frame: 96, block: 16, range: 8, seed: 0x5EED_0004 };
    let mut makespans = Vec::new();
    let mut me_rows = Vec::new();
    for variant in 0..3usize {
        let mut cfg = SocConfig { n_tiles: tiles, topology, ..SocConfig::default() };
        cfg.icache_mpki = 1;
        cfg.dma_channels = 2;
        let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
        sys.set_dma_burst(1024);
        let app = MotionEst::build(&mut sys, me_params);
        let app_ref = &app;
        let report = sys.run(
            (0..tiles)
                .map(|_| -> pmc_runtime::Program<'_> {
                    Box::new(move |ctx| match variant {
                        0 => app_ref.worker(ctx),
                        1 => app_ref.worker_dma(ctx),
                        _ => app_ref.worker_dma2d(ctx),
                    })
                })
                .collect(),
        );
        assert_eq!(app.accuracy(&sys), 1.0);
        let label = match variant {
            0 => "staging (entry copy)",
            1 => "double-buffered DMA",
            _ => "2-D gather (frame rows)",
        };
        say!("  {label:<24} makespan {:>12}", report.makespan);
        makespans.push(report.makespan);
        me_rows.push(json::obj(&[
            ("variant", json::str(label)),
            ("makespan", report.makespan.to_string()),
        ]));
    }
    say!(
        "  overlap gain: {:.2}x (transfer hidden behind the full search)",
        makespans[0] as f64 / makespans[1] as f64
    );

    if emit_json {
        println!(
            "{}",
            json::obj(&[
                ("figure", json::str("fig_dma")),
                ("tiles", tiles.to_string()),
                ("topology", json::str(topology.name())),
                ("tasks", tasks.to_string()),
                ("task_bytes", (kbytes * 1024).to_string()),
                ("stream", json::arr(&stream_rows)),
                (
                    "best",
                    json::obj(&[
                        ("mode", json::str(best_mode.name())),
                        ("burst", best_burst.to_string()),
                        ("makespan", best.makespan.to_string()),
                        ("top_links", top_links_json(&best.links, 8)),
                    ]),
                ),
                ("channel_scaling", json::arr(&chan_rows)),
                ("controller_scaling", json::arr(&ctrl_rows)),
                ("t2t_vs_sdram", json::arr(&t2t_rows)),
                ("ring_vs_mesh", json::arr(&topo_rows)),
                ("motion_est", json::arr(&me_rows)),
                ("overlap_gain", json::num(makespans[0] as f64 / makespans[1] as f64),),
            ])
        );
    }
}
