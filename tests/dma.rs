//! Workspace-level acceptance tests for the DMA subsystem: the
//! `fig_dma` headlines (bursts beat the word-copy loop, tile-to-tile
//! transfers beat the SDRAM round trip, 2+ channels beat 1 on the
//! double-buffered stream), portability of the streaming kernels, and
//! the monitor's DMA-protocol rejection — the checks the conformance
//! sweep (`tests/conformance.rs`, which also runs the DMA litmus cases)
//! does not cover.

use pmc::apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc::runtime::monitor::validate;
use pmc::runtime::{BackendKind, LockKind, System};
use pmc::sim::{CoreProgram, Cpu, DmaDescriptor, DmaDir, DmaKind, Soc, SocConfig, Topology};

/// What one streaming run reports.
struct StreamRun {
    checksum: u64,
    makespan: u64,
    dma_bytes: u64,
    link_busy: Vec<u64>,
    /// Transactions each SDRAM controller port served, in controller order.
    port_bursts: Vec<u64>,
}

/// The ring, single-controller stream with a little compute per word.
fn run_stream(mode: StreamMode, burst: u32, channels: usize, tiles: usize) -> (u64, u64, Vec<u64>) {
    let r = run_stream_compute(mode, burst, channels, tiles, 2, Topology::Ring, &[]);
    (r.checksum, r.makespan, r.link_busy)
}

/// `tiles` workers stream `max(16, 2 * tiles)` 4 KiB tasks on the SPM
/// back-end over `topology`, SDRAM striped over `controllers` (empty =
/// the single controller at tile 0).
fn run_stream_compute(
    mode: StreamMode,
    burst: u32,
    channels: usize,
    tiles: usize,
    compute_per_word: u64,
    topology: Topology,
    controllers: &[usize],
) -> StreamRun {
    let cfg = SocConfig {
        n_tiles: tiles.max(2),
        topology,
        dma_channels: channels,
        mem_controllers: controllers.to_vec(),
        ..SocConfig::default()
    };
    let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
    sys.set_dma_burst(burst);
    let n_tasks = 16.max(2 * tiles as u32);
    let params = StreamCopyParams { n_tasks, task_bytes: 4096, compute_per_word };
    let app = StreamCopy::build(&mut sys, params);
    let app_ref = &app;
    let report = sys.run(
        (0..tiles)
            .map(|_| -> pmc::runtime::Program<'_> {
                Box::new(move |ctx| app_ref.worker(ctx, mode))
            })
            .collect(),
    );
    StreamRun {
        checksum: app.checksum(&sys),
        makespan: report.makespan,
        dma_bytes: report.aggregate().dma_bytes,
        link_busy: sys.soc().link_stats().iter().map(|l| l.busy).collect(),
        port_bursts: sys.soc().port_report().iter().map(|p| p.bursts).collect(),
    }
}

/// The fig_dma acceptance: DMA burst streaming beats the word-at-a-time
/// SPM copy at large burst sizes, larger bursts amortise better, and
/// the per-link NoC contention counters report the bulk traffic.
#[test]
fn dma_bursts_beat_word_copy_and_links_report_contention() {
    let (word_sum, word, word_links) = run_stream(StreamMode::WordCopy, 256, 1, 4);
    let (small_sum, small, _) = run_stream(StreamMode::Dma, 16, 1, 4);
    let (large_sum, large, links) = run_stream(StreamMode::Dma, 1024, 1, 4);
    let (double_sum, double, _) = run_stream(StreamMode::DmaDouble, 1024, 1, 4);
    assert_eq!(word_sum, small_sum);
    assert_eq!(word_sum, large_sum);
    assert_eq!(word_sum, double_sum);
    assert!(large < word, "large bursts must beat the word copy: {large} vs {word}");
    assert!(large < small, "large bursts must beat small ones: {large} vs {small}");
    // Double buffering hides transfer behind compute; under heavy link
    // contention the reordering can cost a fraction of a percent, so
    // allow 2% slack.
    assert!(double * 100 <= large * 102, "double buffering must not lose: {double} vs {large}");
    // Every tile's bursts route to the controller at ring position 0:
    // the links adjacent to it carry traffic. The word-copy run's links
    // carry only its posted result writes (the link model accounts CPU
    // stores too since they share the ring), so the DMA run's total link
    // occupancy must dominate it.
    assert!(links.iter().any(|&b| b > 0), "link counters must report contention: {links:?}");
    assert!(links[0] > 0 && links[0] * 2 >= links.iter().copied().max().unwrap(), "{links:?}");
    let word_total: u64 = word_links.iter().sum();
    let dma_total: u64 = links.iter().sum();
    assert!(
        dma_total > 2 * word_total,
        "bulk traffic must dominate the link counters: {dma_total} vs {word_total}"
    );
}

/// Channel scaling: on the double-buffered stream kernel, 2 channels
/// beat 1 at one tile (the second transfer's port/link legs overlap the
/// first channel's in-flight delivery tail instead of queueing behind
/// it), and more channels never lose. With the event-based completion
/// wait the cores sleep to the exact completion cycle — no poll-loop
/// overshoot remains to hide — so already at two tiles the shared SDRAM
/// port saturates and extra channels can only tie, which `fig_dma`'s
/// channel table shows.
#[test]
fn two_channels_beat_one_on_double_buffered_stream() {
    // Transfer-bound configuration (no extra per-word compute): the
    // single channel's serialisation on each transfer's delivery tail is
    // what the second channel hides.
    for tiles in [1usize, 2] {
        let run = |channels| {
            let r = run_stream_compute(
                StreamMode::DmaDouble,
                4096,
                channels,
                tiles,
                0,
                Topology::Ring,
                &[],
            );
            (r.checksum, r.makespan)
        };
        let ((s1, c1), (s2, c2), (s4, c4)) = (run(1), run(2), run(4));
        assert_eq!(s1, s2);
        assert_eq!(s1, s4);
        if tiles == 1 {
            assert!(c2 < c1, "{tiles} tiles: 2 channels must beat 1: {c2} vs {c1}");
        } else {
            assert!(c2 <= c1, "{tiles} tiles: 2 channels must not lose to 1: {c2} vs {c1}");
        }
        assert!(c4 <= c2, "{tiles} tiles: 4 channels must not lose to 2: {c4} vs {c2}");
    }
}

/// Controller scaling at 64 tiles: on an 8×8 mesh and an 8×8 torus the
/// transfer-bound double-buffered stream moves more payload bytes per
/// kilocycle of makespan with four spread controllers than with one,
/// and every configured port serves bursts — the single shared port is
/// the bottleneck the interleaving exists to remove. Below ~64 tiles the
/// one port is not yet saturated, so this is the smallest grid that
/// fails if interleaving stops helping.
#[test]
fn four_controllers_beat_one_at_64_tiles() {
    for topology in [Topology::Mesh { cols: 8, rows: 8 }, Topology::Torus { cols: 8, rows: 8 }] {
        let run = |controllers: &[usize]| {
            let r =
                run_stream_compute(StreamMode::DmaDouble, 1024, 2, 64, 0, topology, controllers);
            assert!(
                r.port_bursts.iter().all(|&b| b > 0),
                "{topology:?}: every configured controller must serve bursts: {:?}",
                r.port_bursts
            );
            (r.checksum, r.dma_bytes * 1000 / r.makespan, r.port_bursts.len())
        };
        let (sum1, bw1, ports1) = run(&[]);
        let (sum4, bw4, ports4) = run(&[0, 16, 32, 48]);
        assert_eq!((ports1, ports4), (1, 4));
        assert_eq!(sum1, sum4, "{topology:?}: the placement must not change the result");
        assert!(
            bw4 > bw1,
            "{topology:?}: SDRAM bytes per kilocycle must grow with the controller count: \
             {bw4} (4 controllers) vs {bw1} (1)"
        );
    }
}

/// Tile-to-tile transfers sustain higher bandwidth than the equivalent
/// put+get through SDRAM: the copy reserves only the ring links between
/// the two scratchpads — no memory-controller port, no double traversal.
#[test]
fn tile_to_tile_beats_sdram_roundtrip() {
    const BYTES: u32 = 16 << 10;
    let (src, dst) = (2usize, 5usize);
    let init = |soc: &Soc| {
        for i in 0..BYTES / 4 {
            soc.write_local(src, 4096 + i * 4, &(0xD0D0 + i).to_le_bytes());
        }
    };
    let check = |soc: &Soc| {
        let mut out = [0u8; 4];
        soc.read_local(dst, 4096 + (BYTES - 4), &mut out);
        assert_eq!(u32::from_le_bytes(out), 0xD0D0 + BYTES / 4 - 1);
    };

    // Direct tile-to-tile copy.
    let t2t = {
        let soc = Soc::new(SocConfig::small(8));
        init(&soc);
        let mut programs: Vec<CoreProgram<'_>> =
            (0..8).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect();
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(
                    DmaKind::Copy { dst_tile: dst },
                    4096,
                    4096,
                    BYTES,
                    1024,
                    0,
                ),
            );
            let base = pmc::sim::addr::local_base(src);
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        let report = soc.run(programs);
        check(&soc);
        // No SDRAM-port or controller-link involvement at all.
        assert_eq!(soc.link_stats()[0].bursts, 0, "no controller round trip");
        report.makespan
    };

    // The same payload staged out to SDRAM by the producer and fetched
    // back by the consumer (flag handshake in between).
    let via_sdram = {
        let soc = Soc::new(SocConfig::small(8));
        init(&soc);
        let mut programs: Vec<CoreProgram<'_>> =
            (0..8).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect();
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Put), 65536, 4096, BYTES, 1024, 0),
            );
            let base = pmc::sim::addr::local_base(src);
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
            cpu.noc_write(dst, 64, &1u32.to_le_bytes()); // data-ready flag
        });
        programs[dst] = Box::new(move |cpu: &mut Cpu| {
            let base = pmc::sim::addr::local_base(dst);
            while cpu.read_u32(base + 64) != 1 {
                cpu.compute(20);
            }
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 65536, 4096, BYTES, 1024, 0),
            );
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        let report = soc.run(programs);
        check(&soc);
        report.makespan
    };

    assert!(
        t2t * 2 < via_sdram,
        "tile-to-tile must sustain at least 2x the SDRAM round trip's bandwidth: \
         {t2t} vs {via_sdram} cycles for {BYTES} bytes"
    );
}

/// Tile-to-tile copies on a 4×4 mesh: the reserved link set is exactly
/// the XY path between the two scratchpads (nothing else carries a
/// single burst), and the direct copy still beats the same payload
/// staged through SDRAM — the t2t advantage is not a ring artefact.
#[test]
fn mesh_tile_to_tile_reserves_exactly_the_xy_path_and_beats_sdram() {
    const BYTES: u32 = 16 << 10;
    let topo = Topology::Mesh { cols: 4, rows: 4 };
    let (src, dst) = (5usize, 10usize); // (1,1) → (2,2)
    let mk_soc = || Soc::new(SocConfig::small_mesh(4, 4));
    let init = |soc: &Soc| {
        for i in 0..BYTES / 4 {
            soc.write_local(src, 4096 + i * 4, &(0xBEEF + i).to_le_bytes());
        }
    };
    let t2t = {
        let soc = mk_soc();
        init(&soc);
        let mut programs: Vec<CoreProgram<'_>> =
            (0..16).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect();
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(
                    DmaKind::Copy { dst_tile: dst },
                    4096,
                    4096,
                    BYTES,
                    1024,
                    0,
                ),
            );
            let base = pmc::sim::addr::local_base(src);
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        let report = soc.run(programs);
        let mut out = [0u8; 4];
        soc.read_local(dst, 4096 + (BYTES - 4), &mut out);
        assert_eq!(u32::from_le_bytes(out), 0xBEEF + BYTES / 4 - 1);
        // The copy reserved exactly the XY route src → dst: east of
        // (1,1) then south of (2,1) — and every burst of the transfer
        // crossed each of those links exactly once.
        let route = topo.route(16, src, dst);
        assert_eq!(route, vec![5, 2 * 16 + 6]);
        let n_bursts = u64::from(BYTES / 1024);
        for (i, s) in soc.link_stats().iter().enumerate() {
            if route.contains(&i) {
                assert_eq!(s.bursts, n_bursts, "XY-route link {i}");
            } else {
                assert_eq!(s.bursts, 0, "off-route link {i} must stay idle");
            }
        }
        report.makespan
    };
    let via_sdram = {
        let soc = mk_soc();
        init(&soc);
        let mut programs: Vec<CoreProgram<'_>> =
            (0..16).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect();
        programs[src] = Box::new(move |cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Put), 65536, 4096, BYTES, 1024, 0),
            );
            let base = pmc::sim::addr::local_base(src);
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
            cpu.noc_write(dst, 64, &1u32.to_le_bytes());
        });
        programs[dst] = Box::new(move |cpu: &mut Cpu| {
            let base = pmc::sim::addr::local_base(dst);
            while cpu.read_u32(base + 64) != 1 {
                cpu.compute(20);
            }
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 65536, 4096, BYTES, 1024, 0),
            );
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        soc.run(programs).makespan
    };
    assert!(
        t2t * 2 < via_sdram,
        "mesh tile-to-tile must sustain at least 2x the SDRAM round trip: {t2t} vs {via_sdram}"
    );
}

/// Mesh twin of the ring per-link charge pin, at the engine level: a
/// DMA get issued from tile 10 on a 4×4 mesh charges each link of the
/// controller→tile XY route once per burst with the exact serialisation
/// busy time, and nothing else — so a routing change cannot silently
/// shift traffic without failing here.
#[test]
fn mesh_mem_tile_per_link_charges_are_pinned() {
    let soc = Soc::new(SocConfig::small_mesh(4, 4));
    soc.run({
        let mut programs: Vec<CoreProgram<'_>> =
            (0..16).map(|_| -> CoreProgram<'_> { Box::new(|_c: &mut Cpu| {}) }).collect();
        programs[10] = Box::new(|cpu: &mut Cpu| {
            let seq = cpu.dma_issue(
                0,
                DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 1024, 256, 64, 0),
            );
            let base = pmc::sim::addr::local_base(10);
            while cpu.read_u32(base) < seq {
                cpu.compute(20);
            }
        });
        programs
    });
    // 256 B in 64 B bursts = 4 bursts over controller tile 0 → 10: east of
    // (0,0) and (1,0), then south of (2,0) and (2,1): ids 0, 1, 34, 38.
    // Each burst serialises 16 words at noc_per_word = 1.
    let expected = [0usize, 1, 34, 38];
    for (i, s) in soc.link_stats().iter().enumerate() {
        if expected.contains(&i) {
            assert_eq!(s.bursts, 4, "route link {i}");
            assert_eq!(s.busy, 64, "route link {i}");
        } else {
            assert_eq!(s.bursts, 0, "off-route link {i}");
        }
    }
}

/// `dma_copy_local` through the runtime on a mesh: the SPM engine copy
/// round-trips with a clean trace exactly as on the ring (the protocol
/// — tickets, waits, ownership — never sees the topology).
#[test]
fn dma_copy_roundtrips_on_mesh() {
    for backend in [BackendKind::Spm, BackendKind::Uncached] {
        let mut cfg = SocConfig::small_mesh(2, 2);
        cfg.trace = true;
        cfg.dma_channels = 2;
        let mut sys = System::new(cfg, backend, LockKind::Distributed);
        let src = sys.alloc_slab::<u32>("src", 16);
        let dst = sys.alloc_slab::<u32>("dst", 16);
        for i in 0..16 {
            sys.init_at(src, i, 500 + i * 7);
        }
        sys.run(vec![
            Box::new(move |ctx| {
                let s = ctx.scope_ro_stream(src);
                s.dma_get(0, 16).wait();
                let d = ctx.scope_x_stream(dst);
                d.dma_copy_from(&s, 4, 0, 8).wait();
                d.dma_put(0, 8).wait();
                d.close();
                s.close();
            }),
            Box::new(|_ctx| {}),
            Box::new(|_ctx| {}),
            Box::new(|_ctx| {}),
        ]);
        for i in 0..8 {
            assert_eq!(sys.read_back_at(dst, i), 500 + (i + 4) * 7, "{backend:?} elem {i}");
        }
        let v = validate(&sys.soc().take_trace());
        assert!(v.is_empty(), "{backend:?}: {v:#?}");
    }
}

/// Monitor rejection at the workspace level: a read of DMA-target
/// memory before `dma_wait` is flagged on every back-end and lock kind —
/// the DMA subsystem's rejection acceptance test.
#[test]
fn monitor_rejects_read_before_dma_wait_everywhere() {
    for backend in BackendKind::ALL {
        for lock in [LockKind::Sdram, LockKind::Distributed] {
            let mut cfg = SocConfig::small(1);
            cfg.trace = true;
            let mut sys = System::new(cfg, backend, lock);
            let s = sys.alloc_slab::<u32>("s", 32);
            sys.run(vec![Box::new(move |ctx| {
                let g = ctx.scope_ro_stream(s);
                let t = g.dma_get(0, 32);
                let _racy: u32 = g.read_at(1); // protocol violation
                t.wait();
                let _fine: u32 = g.read_at(1);
            })]);
            let v = validate(&sys.soc().take_trace());
            assert!(
                v.iter().any(|v| v.message.contains("before dma_wait")),
                "{backend:?}/{lock:?}: {v:#?}"
            );
            // The racy read breaks two rules (in-flight target + range
            // not yet defined in the streaming scope) — and nothing else
            // in the run is flagged.
            assert_eq!(v.len(), 2, "{backend:?}/{lock:?}: only the racy read: {v:#?}");
            assert_eq!(v[0].time, v[1].time, "{backend:?}/{lock:?}: {v:#?}");
        }
    }
}

/// Scatter/gather range tracking: the monitor knows each element of a
/// strided 2-D get — gathered rows become defined, the gaps between
/// them stay undefined, and reading a row while the gather is in flight
/// is flagged.
#[test]
fn monitor_tracks_strided_element_lists() {
    for backend in BackendKind::ALL {
        let mut cfg = SocConfig::small(1);
        cfg.trace = true;
        cfg.dma_channels = 2;
        let mut sys = System::new(cfg, backend, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("grid", 64); // 8 x 8
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(s);
            // Gather a 4-wide, 3-row tile starting at element 8 (row 1),
            // stride 8 (one grid row).
            let t = g.dma_get_2d(8, 4, 3, 8);
            let _racy: u32 = g.read_at(16); // row 2: in flight
            t.wait();
            let _ok0: u32 = g.read_at(8); // row 1: gathered
            let _ok1: u32 = g.read_at(24); // row 3: gathered
            let _gap: u32 = g.read_at(12); // row 1 gap: never defined
            let _below: u32 = g.read_at(0); // row 0: never defined
        })]);
        let v = validate(&sys.soc().take_trace());
        let racy = v.iter().filter(|v| v.message.contains("before dma_wait")).count();
        let undefined = v.iter().filter(|v| v.message.contains("never defined")).count();
        assert_eq!(racy, 1, "{backend:?}: {v:#?}");
        // The racy read also counts as undefined (not yet covered).
        assert_eq!(undefined, 3, "{backend:?}: {v:#?}");
        assert_eq!(v.len(), 4, "{backend:?}: {v:#?}");
    }
}

/// Strided 2-D puts publish exactly their element lists: a streaming
/// writer fills a 2-D tile of a grid and publishes it with one
/// `dma_put_2d`; the home holds the tile, the gaps stay untouched, and
/// the trace is clean on every back-end.
#[test]
fn dma_put_2d_publishes_exactly_its_rows() {
    for backend in BackendKind::ALL {
        let mut cfg = SocConfig::small(1);
        cfg.trace = true;
        cfg.dma_channels = 2;
        let mut sys = System::new(cfg, backend, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("grid", 64); // 8 x 8
        for i in 0..64 {
            sys.init_at(s, i, 1000 + i);
        }
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_x_stream(s);
            // Write a 4-wide, 3-row tile at element 8 (row 1), stride 8.
            for r in 0..3 {
                for c in 0..4 {
                    g.write_at(8 + r * 8 + c, 7000 + r * 10 + c);
                }
            }
            g.dma_put_2d(8, 4, 3, 8).wait();
        })]);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(
                    sys.read_back_at(s, 8 + r * 8 + c),
                    7000 + r * 10 + c,
                    "{backend:?}: tile element"
                );
            }
        }
        for i in [0u32, 7, 12, 15, 20, 32, 63] {
            assert_eq!(sys.read_back_at(s, i), 1000 + i, "{backend:?}: gap element {i}");
        }
        let v = validate(&sys.soc().take_trace());
        assert!(v.is_empty(), "{backend:?}: {v:#?}");
    }
}

/// Local-to-local copies round-trip on every back-end × lock kind, with
/// clean traces: source staged by a get, copied into an exclusively held
/// destination, published, and read back.
#[test]
fn dma_copy_roundtrips_on_all_backends() {
    for backend in BackendKind::ALL {
        for lock in [LockKind::Sdram, LockKind::Distributed] {
            let mut cfg = SocConfig::small(2);
            cfg.trace = true;
            cfg.dma_channels = 2;
            let mut sys = System::new(cfg, backend, lock);
            let src = sys.alloc_slab::<u32>("src", 16);
            let dst = sys.alloc_slab::<u32>("dst", 16);
            for i in 0..16 {
                sys.init_at(src, i, 100 + i * 3);
            }
            sys.run(vec![
                Box::new(move |ctx| {
                    let s = ctx.scope_ro_stream(src);
                    s.dma_get(0, 16).wait();
                    let d = ctx.scope_x_stream(dst);
                    d.dma_copy_from(&s, 4, 0, 8).wait();
                    d.dma_put(0, 8).wait();
                    d.close();
                    s.close();
                }),
                Box::new(|_ctx| {}),
            ]);
            for i in 0..8 {
                assert_eq!(
                    sys.read_back_at(dst, i),
                    100 + (i + 4) * 3,
                    "{backend:?}/{lock:?} elem {i}"
                );
            }
            let v = validate(&sys.soc().take_trace());
            assert!(v.is_empty(), "{backend:?}/{lock:?}: {v:#?}");
        }
    }
}

/// Copy-protocol rejection: reading the copy destination before the
/// wait is flagged on every back-end (the engine writes it lazily), and
/// the eager-exclusive destination path needs no explicit put.
#[test]
fn monitor_rejects_read_of_copy_destination_before_wait() {
    for backend in BackendKind::ALL {
        let mut cfg = SocConfig::small(1);
        cfg.trace = true;
        let mut sys = System::new(cfg, backend, LockKind::Sdram);
        let src = sys.alloc::<u32>("src");
        let dst = sys.alloc::<u32>("dst");
        sys.init(src, 7);
        sys.run(vec![Box::new(move |ctx| {
            let gs = ctx.scope_x(src);
            gs.write(9);
            let gd = ctx.scope_x(dst);
            let t = gd.copy_obj_from(&gs);
            let _racy = gd.read(); // before the wait!
            t.wait();
            let fresh = gd.read(); // defined now
            assert_eq!(fresh, 9, "{backend:?}");
            gd.close();
            gs.close();
        })]);
        let v = validate(&sys.soc().take_trace());
        assert!(
            v.iter().any(|v| v.message.contains("before dma_wait")),
            "{backend:?}: racy destination read must be flagged: {v:#?}"
        );
        assert_eq!(v.len(), 1, "{backend:?}: only the racy read: {v:#?}");
    }
}

/// The streaming kernel is portable: all modes, all back-ends, one
/// result.
#[test]
fn stream_modes_agree_across_backends() {
    let mut sums = Vec::new();
    for backend in BackendKind::ALL {
        for mode in StreamMode::ALL {
            let mut sys = System::new(SocConfig::small(2), backend, LockKind::Sdram);
            let params = StreamCopyParams { n_tasks: 6, task_bytes: 512, compute_per_word: 1 };
            let app = StreamCopy::build(&mut sys, params);
            let app_ref = &app;
            sys.run(
                (0..2)
                    .map(|_| -> pmc::runtime::Program<'_> {
                        Box::new(move |ctx| app_ref.worker(ctx, mode))
                    })
                    .collect(),
            );
            sums.push(app.checksum(&sys));
        }
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "all runs agree: {sums:?}");
}
