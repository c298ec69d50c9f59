//! Property-based tests of the simulator substrates.

use pmc_core::fuzz::{for_each_case, SplitMix64};
use pmc_soc_sim::cache::Cache;
use pmc_soc_sim::{addr, CacheConfig, Cpu, Soc, SocConfig, Topology};
use std::collections::{HashMap, HashSet};

/// Reference model: a flat backing store plus a perfect record of which
/// bytes the cache *should* return.
#[derive(Default)]
struct RefModel {
    backing: HashMap<u32, u8>,
    cached: HashMap<u32, u8>, // line base -> first byte (we track 1 byte/line)
    dirty: HashMap<u32, bool>,
}

fn cache_ops(rng: &mut SplitMix64) -> Vec<(u8, u8, u8)> {
    // (op, line_idx, value): op 0 = read, 1 = write, 2 = flush,
    // 3 = invalidate.
    let len = 1 + rng.below(59);
    (0..len).map(|_| (rng.below(4) as u8, rng.below(12) as u8, rng.below(256) as u8)).collect()
}

/// The write-back cache agrees with a reference model under arbitrary
/// fill/write/flush/invalidate sequences (tiny cache to force
/// evictions).
#[test]
fn cache_matches_reference() {
    for_each_case("cache_matches_reference", 128, |rng| {
        let ops = cache_ops(rng);
        let cfg = CacheConfig { line_size: 8, sets: 2, ways: 2 };
        let mut cache = Cache::new(cfg);
        let mut model = RefModel::default();
        for &(op, line_idx, value) in &ops {
            let line = line_idx as u32 * 8;
            match op {
                0 => {
                    // Read through the cache, filling on miss.
                    let slot =
                        cache.lookup(line).unwrap_or_else(|| fill(&mut cache, &mut model, line));
                    let mut out = [0u8; 1];
                    cache.read(slot, line, &mut out);
                    let expect = model.cached[&line];
                    assert_eq!(out[0], expect, "stale/fresh mismatch at {}", line);
                }
                1 => {
                    let slot =
                        cache.lookup(line).unwrap_or_else(|| fill(&mut cache, &mut model, line));
                    cache.write(slot, line, &[value]);
                    model.cached.insert(line, value);
                    model.dirty.insert(line, true);
                }
                2 => {
                    let wb = cache.flush_line(line);
                    if model.dirty.remove(&line).unwrap_or(false) {
                        let v = model.cached[&line];
                        model.backing.insert(line, v);
                        assert_eq!(wb.map(|slot| cache.bytes(slot)[0]), Some(v));
                    } else {
                        assert!(wb.is_none());
                    }
                    model.cached.remove(&line);
                }
                _ => {
                    cache.invalidate_line(line);
                    model.cached.remove(&line);
                    model.dirty.remove(&line);
                }
            }
        }
        // A final flush of every line the ops touch must land exactly the
        // dirty reference state in backing.
        for line in (0..12).map(|i| i * 8) {
            if let Some(slot) = cache.flush_line(line) {
                model.backing.insert(line, cache.bytes(slot)[0]);
            }
        }
        for (line, dirty) in model.dirty {
            if dirty {
                assert_eq!(model.backing[&line], model.cached[&line]);
            }
        }
    });
}

/// Miss on `line`: install it from the model's backing store, writing a
/// dirty victim back first, as `Cpu`'s miss path does. Returns the slot.
fn fill(cache: &mut Cache, model: &mut RefModel, line: u32) -> usize {
    let (slot, victim) = cache.fill(line);
    if let Some(offset) = victim {
        model.backing.insert(offset, cache.bytes(slot)[0]);
        model.cached.remove(&offset);
        model.dirty.remove(&offset);
    }
    let byte = *model.backing.get(&line).unwrap_or(&0);
    let data = cache.bytes_mut(slot);
    data.fill(0);
    data[0] = byte;
    model.cached.insert(line, byte);
    model.dirty.insert(line, false);
    slot
}

/// Mesh XY routes are deterministic, cycle-free, exactly Manhattan-
/// distance long, and made of valid links that chain from source to
/// destination (the satellite properties of the topology refactor).
#[test]
fn mesh_xy_routes_are_minimal_acyclic_and_valid() {
    for_each_case("mesh_xy_routes_are_minimal_acyclic_and_valid", 128, |rng| {
        let (cols, rows, a, b) = (
            1 + rng.below(5) as u8,
            1 + rng.below(5) as u8,
            rng.below(4096) as u16,
            rng.below(4096) as u16,
        );
        let (cols, rows) = (cols as usize, rows as usize);
        let n = cols * rows;
        let topo = Topology::Mesh { cols, rows };
        let (from, to) = (a as usize % n, b as usize % n);
        let route = topo.route(n, from, to);
        // Deterministic: routing twice yields the identical link list.
        assert_eq!(&route, &topo.route(n, from, to));
        // Minimal: length equals the Manhattan distance (and `hops`).
        let manhattan = (from % cols).abs_diff(to % cols) + (from / cols).abs_diff(to / cols);
        assert_eq!(route.len(), manhattan);
        assert_eq!(route.len() as u64, topo.hops(n, from, to));
        // Valid and cycle-free: every link exists on the mesh, links
        // chain tile-to-tile from `from` to `to`, no tile is visited
        // twice.
        let mut visited = HashSet::new();
        let mut at = from;
        visited.insert(at);
        for &link in &route {
            assert!(topo.is_valid_link(n, link), "invalid link {}", link);
            assert!(link < topo.link_count(n));
            let (lf, lt) = topo.link_endpoints(n, link);
            assert_eq!(lf, at, "links must chain");
            assert!(visited.insert(lt), "cycle through tile {}", lt);
            at = lt;
        }
        assert_eq!(at, to);
    });
}

/// Torus routes are deterministic, cycle-free, made of valid links
/// that chain from source to destination, and minimal: exactly the
/// wrap-aware Manhattan distance (the shorter way around each
/// dimension), never longer than the mesh route on the same grid.
#[test]
fn torus_routes_wrap_minimally_and_chain() {
    for_each_case("torus_routes_wrap_minimally_and_chain", 128, |rng| {
        let (cols, rows, a, b) = (
            1 + rng.below(5) as u8,
            1 + rng.below(5) as u8,
            rng.below(4096) as u16,
            rng.below(4096) as u16,
        );
        let (cols, rows) = (cols as usize, rows as usize);
        let n = cols * rows;
        let topo = Topology::Torus { cols, rows };
        let (from, to) = (a as usize % n, b as usize % n);
        let route = topo.route(n, from, to);
        // Deterministic: routing twice yields the identical link list.
        assert_eq!(&route, &topo.route(n, from, to));
        // Minimal: each dimension goes the shorter way around.
        let dx = (from % cols).abs_diff(to % cols);
        let dy = (from / cols).abs_diff(to / cols);
        let wrap_dist = dx.min(cols - dx) + dy.min(rows - dy);
        assert_eq!(route.len(), wrap_dist);
        assert_eq!(route.len() as u64, topo.hops(n, from, to));
        let mesh = Topology::Mesh { cols, rows };
        assert!(topo.hops(n, from, to) <= mesh.hops(n, from, to));
        // Valid and cycle-free: every link exists on the torus, links
        // chain tile-to-tile from `from` to `to`, no tile is visited
        // twice.
        let mut visited = HashSet::new();
        let mut at = from;
        visited.insert(at);
        for &link in &route {
            assert!(topo.is_valid_link(n, link), "invalid link {}", link);
            assert!(link < topo.link_count(n));
            let (lf, lt) = topo.link_endpoints(n, link);
            assert_eq!(lf, at, "links must chain");
            assert!(visited.insert(lt), "cycle through tile {}", lt);
            at = lt;
        }
        assert_eq!(at, to);
    });
}

/// Controller interleaving partitions the SDRAM offset space: every
/// offset maps to exactly one in-range controller, the map is stable
/// on repeated lookups, offsets within one 4 KiB stripe share an
/// owner, and with `k` controllers `k` consecutive stripes cover all
/// `k` owners (round-robin from controller 0: stripe `s` is owned by
/// controller `s mod k`).
#[test]
fn interleaving_partitions_the_address_space() {
    for_each_case("interleaving_partitions_the_address_space", 128, |rng| {
        let (offset, k) = (rng.below(u64::from(u32::MAX)) as u32, 1 + rng.below(8) as usize);
        let c = addr::controller_for(offset, k);
        assert!(c < k, "owner {} out of range for {} controllers", c, k);
        // Pure: the same offset always resolves to the same controller.
        assert_eq!(c, addr::controller_for(offset, k));
        // Stripe-aligned: the stripe base shares the owner.
        let stripe = 1u32 << addr::CTRL_STRIPE_SHIFT;
        assert_eq!(addr::controller_for(offset & !(stripe - 1), k), c);
        // Round-robin: k consecutive stripes hit every controller once
        // (clamped below the top of the offset space so the window
        // doesn't wrap).
        let base = offset.min(u32::MAX - 16 * stripe) & !(stripe - 1);
        let mut owners = HashSet::new();
        for i in 0..k as u32 {
            let owner = addr::controller_for(base + i * stripe, k);
            assert_eq!(owner, ((base >> addr::CTRL_STRIPE_SHIFT) + i) as usize % k);
            owners.insert(owner);
        }
        assert_eq!(owners.len(), k, "k consecutive stripes must cover all k controllers");
    });
}

/// Ring routes never exceed `n_tiles / 2` links (the shortest arc),
/// are made of valid link ids, chain from source to destination,
/// and match `hops`.
#[test]
fn ring_routes_take_the_shortest_arc() {
    for_each_case("ring_routes_take_the_shortest_arc", 128, |rng| {
        let (n, a, b) = (1 + rng.below(32) as u8, rng.below(4096) as u16, rng.below(4096) as u16);
        let n = n as usize;
        let topo = Topology::Ring;
        let (from, to) = (a as usize % n, b as usize % n);
        let route = topo.route(n, from, to);
        assert!(route.len() <= n / 2, "route of {} links on a {}-ring", route.len(), n);
        assert_eq!(route.len() as u64, topo.hops(n, from, to));
        let mut at = from;
        for &link in &route {
            assert!(topo.is_valid_link(n, link), "invalid link {}", link);
            let (lf, lt) = topo.link_endpoints(n, link);
            assert_eq!(lf, at, "links must chain");
            at = lt;
        }
        assert_eq!(at, to);
    });
}

/// Uncached SDRAM is a plain memory regardless of access interleaving
/// by a single core: last write wins.
#[test]
fn uncached_sdram_last_write_wins() {
    for_each_case("uncached_sdram_last_write_wins", 128, |rng| {
        let writes = (0..1 + rng.below(39))
            .map(|_| (rng.below(64) as u32, rng.below(1000) as u32))
            .collect::<Vec<_>>();
        let soc = Soc::new(SocConfig::small(1));
        let writes_ref = &writes;
        soc.run(vec![Box::new(move |cpu: &mut Cpu| {
            for &(slot, val) in writes_ref {
                cpu.write_u32(addr::SDRAM_UNCACHED_BASE + slot * 4, val);
            }
        })]);
        let mut expect: HashMap<u32, u32> = HashMap::new();
        for &(slot, val) in &writes {
            expect.insert(slot, val);
        }
        for (slot, val) in expect {
            assert_eq!(soc.read_sdram_u32(slot * 4), val);
        }
    });
}

/// Determinism fuzz: random mixed workloads produce bit-identical
/// counters on repeat runs.
#[test]
fn determinism_over_random_workloads() {
    for seed in 0..5u32 {
        let run = |seed: u32| {
            let soc = Soc::new(SocConfig::small(3));
            let r = soc.run(
                (0..3usize)
                    .map(|t| -> pmc_soc_sim::CoreProgram<'static> {
                        Box::new(move |cpu: &mut Cpu| {
                            let mut s = seed as u64 * 77 + t as u64 + 1;
                            for i in 0..400u32 {
                                s ^= s << 13;
                                s ^= s >> 7;
                                s ^= s << 17;
                                match s % 5 {
                                    0 => cpu.write_u32(
                                        addr::SDRAM_UNCACHED_BASE + (s % 512) as u32 * 4,
                                        i,
                                    ),
                                    1 => {
                                        cpu.read_u32(
                                            addr::SDRAM_CACHED_BASE + 4096 + (s % 512) as u32 * 4,
                                        );
                                    }
                                    2 => cpu.write_u32(
                                        addr::SDRAM_CACHED_BASE + 4096 + (s % 512) as u32 * 4,
                                        i,
                                    ),
                                    3 => cpu.compute(1 + (s % 50)),
                                    _ => {
                                        if t != 2 {
                                            cpu.noc_write(
                                                2,
                                                (s % 128) as u32 * 4,
                                                &i.to_le_bytes(),
                                            );
                                        } else {
                                            cpu.compute(5);
                                        }
                                    }
                                }
                            }
                            cpu.flush_dcache_range(addr::SDRAM_CACHED_BASE + 4096, 2048);
                        })
                    })
                    .collect(),
            );
            (r.makespan, format!("{:?}", r.per_core))
        };
        assert_eq!(run(seed), run(seed), "seed {seed} not deterministic");
    }
}
