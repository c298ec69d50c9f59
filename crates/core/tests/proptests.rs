//! Property-based tests of the PMC model's core invariants.

use pmc_core::execution::{EdgeMode, Execution};
use pmc_core::fuzz::{for_each_case, SplitMix64};
use pmc_core::interleave::{outcomes_with, Limits};
use pmc_core::litmus::{Instr, Program, Reg};
use pmc_core::models::trace::MemEvent;
use pmc_core::models::{check_cc, check_slow};
use pmc_core::op::{LocId, ProcId};

/// A random sequence of model operations for 2–3 processes over 2
/// locations, with lock discipline handled by construction (acquire and
/// release are always paired immediately around a write).
fn op_seq(rng: &mut SplitMix64) -> Vec<(u8, u8, u8)> {
    // (action, proc, loc): action 0 = read, 1 = locked write, 2 = fence.
    let len = 1 + rng.below(24);
    (0..len).map(|_| (rng.below(3) as u8, rng.below(3) as u8, rng.below(2) as u8)).collect()
}

/// Last-writes (Definition 11) is never empty once a location is
/// initialised, and it and every readable write (Definition 12) are
/// writes to the right location.
#[test]
fn last_writes_nonempty_and_readable_consistent() {
    for_each_case("last_writes_nonempty_and_readable_consistent", 64, |rng| {
        let mut e = Execution::new(EdgeMode::Full);
        let mut reads = Vec::new();
        for (action, p, v) in op_seq(rng) {
            let (p, v) = (ProcId(p as u16), LocId(v as u32));
            match action {
                0 => reads.push(e.read(p, v, 0)),
                1 => {
                    e.acquire(p, v);
                    e.write(p, v, 1);
                    e.release(p, v);
                }
                _ => {
                    e.fence(p);
                }
            }
        }
        for r in reads {
            let loc = e.op(r).loc;
            let lw = e.last_writes(r);
            assert!(!lw.is_empty(), "W is never empty (init op exists)");
            for w in lw.into_iter().chain(e.readable_writes(r)) {
                assert_eq!(e.op(w).loc, loc);
                assert!(e.op(w).kind.is_write_like());
            }
        }
    });
}

/// Lock-protected writes to one location are totally ordered in the
/// global view (the paper's GDO): no write-write races.
#[test]
fn locked_writes_are_race_free() {
    for_each_case("locked_writes_are_race_free", 64, |rng| {
        let mut e = Execution::new(EdgeMode::Full);
        for (action, p, v) in op_seq(rng) {
            let (p, v) = (ProcId(p as u16), LocId(v as u32));
            if action == 1 {
                e.acquire(p, v);
                e.write(p, v, 1);
                e.release(p, v);
            }
        }
        assert!(e.write_write_races().is_empty());
    });
}

/// Random small litmus programs: every PMC-allowed behaviour satisfies
/// Slow Consistency on its plain reads/writes ("the orderings and
/// behavior of the read and write operations of PMC is identical to Slow
/// Consistency", Section IV-E) — and Cache Consistency when all writes
/// are lock-protected.
#[test]
fn pmc_behaviours_are_slow_and_locked_ones_cache_consistent() {
    // Deterministic mini-fuzzer (prop-style but hand-rolled so the trace
    // reconstruction stays simple: one read per thread per location).
    let mut seed = 0xD1CEu64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for case in 0..40 {
        let locked = case % 2 == 0;
        let x = LocId(0);
        let y = LocId(1);
        // Thread 0 writes both locations (locked or not), thread 1 reads
        // both (each exactly once, so traces are reconstructible from the
        // outcome registers).
        let mut t0 = Vec::new();
        for (loc, val) in [(x, 1 + (next() % 2) as u32), (y, 10)] {
            if locked {
                t0.push(Instr::Acquire(loc));
                t0.push(Instr::Write(loc, val));
                t0.push(Instr::Release(loc));
            } else {
                t0.push(Instr::Write(loc, val));
            }
            if next() % 2 == 0 {
                t0.push(Instr::Fence);
            }
        }
        let t1 = vec![Instr::Read(x, Reg(0)), Instr::Read(y, Reg(1))];
        let program = Program { threads: vec![t0.clone(), t1], init: vec![(x, 0), (y, 0)] };
        let outs = outcomes_with(&program, Limits::default()).expect("enumeration in budget");
        assert!(!outs.is_empty());
        for o in &outs {
            let writes: Vec<MemEvent> = t0
                .iter()
                .filter_map(|i| match i {
                    Instr::Write(l, v) => Some(MemEvent::write(*l, *v)),
                    _ => None,
                })
                .collect();
            let traces = vec![writes, vec![MemEvent::read(x, o[1][0]), MemEvent::read(y, o[1][1])]];
            assert!(check_slow(&traces), "case {case}: behaviour below Slow: {o:?}");
            if locked {
                assert!(check_cc(&traces), "case {case}: locked writes not CC: {o:?}");
            }
        }
    }
}
