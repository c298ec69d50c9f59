//! The model checkers themselves: SC, PC, PRAM, CC, Slow.
//!
//! All take value traces (unique write values per location; see
//! `super::trace::validate`) and answer whether the observed behaviour
//! is explainable under the model.

use std::collections::HashMap;

use crate::op::{LocId, Value};

use super::serial::{for_each_coherence_order, serializable, CoherenceOrder};
use super::trace::{locations, project_loc, validate, ThreadTrace, INIT_VALUE};

/// Sequential Consistency: one total order of *all* operations respecting
/// every program order, reads see the latest write (Lamport).
pub fn check_sc(traces: &[ThreadTrace]) -> bool {
    validate(traces).expect("malformed trace");
    serializable(traces, None)
}

/// Cache Consistency (coherence): sequential consistency per location.
pub fn check_cc(traces: &[ThreadTrace]) -> bool {
    validate(traces).expect("malformed trace");
    locations(traces).into_iter().all(|v| serializable(&project_loc(traces, v), None))
}

/// The per-process streams used by PRAM and PC for process `i`: process
/// `i`'s full trace plus every other process's writes (in their program
/// order).
fn pram_streams(traces: &[ThreadTrace], i: usize) -> Vec<ThreadTrace> {
    traces
        .iter()
        .enumerate()
        .map(
            |(j, t)| {
                if j == i {
                    t.clone()
                } else {
                    t.iter().copied().filter(|e| e.is_write).collect()
                }
            },
        )
        .collect()
}

/// PRAM (pipelined RAM): for every process there is a serialisation of
/// its own operations and all writes, respecting each process's write
/// program order — with *no* cross-process agreement.
pub fn check_pram(traces: &[ThreadTrace]) -> bool {
    validate(traces).expect("malformed trace");
    (0..traces.len()).all(|i| serializable(&pram_streams(traces, i), None))
}

/// Processor Consistency: PRAM plus a globally agreed per-location write
/// order (the paper's GPO + GDO decomposition, Section IV-E). Exact
/// check: enumerate every coherence order consistent with the threads'
/// per-location write program orders and test whether one satisfies all
/// per-process serialisations.
pub fn check_pc(traces: &[ThreadTrace]) -> bool {
    validate(traces).expect("malformed trace");
    let mut writes_per_loc: HashMap<LocId, Vec<Vec<Value>>> = HashMap::new();
    for trace in traces.iter() {
        let mut per_loc: HashMap<LocId, Vec<Value>> = HashMap::new();
        for ev in trace {
            if ev.is_write {
                per_loc.entry(ev.loc).or_default().push(ev.value);
            }
        }
        for (loc, writes) in per_loc {
            writes_per_loc.entry(loc).or_default().push(writes);
        }
    }
    if writes_per_loc.is_empty() {
        return true;
    }
    for_each_coherence_order(&writes_per_loc, &mut |co: &CoherenceOrder| {
        (0..traces.len()).all(|i| serializable(&pram_streams(traces, i), Some(co)))
    })
}

/// Slow Consistency (Hutto & Ahamad): each process's reads of a location
/// observe each *writer's* writes to it in that writer's program order
/// (monotonically), and a process's own writes are immediately visible to
/// itself. This is the model PMC's plain reads and writes guarantee
/// (paper Section IV-C: "reads, writes, local and program order … are
/// equivalent to Slow Consistency").
pub fn check_slow(traces: &[ThreadTrace]) -> bool {
    let writes = validate(traces).expect("malformed trace");
    for (p, trace) in traces.iter().enumerate() {
        // floor[(loc, writer)] = index of the last observed write of that
        // writer to loc; reads may never observe a smaller index.
        let mut floor: HashMap<(LocId, usize), usize> = HashMap::new();
        let mut my_widx = 0usize;
        for ev in trace {
            if ev.is_write {
                floor.insert((ev.loc, p), my_widx);
                my_widx += 1;
                continue;
            }
            if ev.value == INIT_VALUE {
                // Reading the initial value: only legal while no
                // same-writer floor forbids it — i.e. the reader has not
                // yet observed any write to this loc (any floor on this
                // loc forbids going back to init? No: floors are
                // per-writer; init is "before" every writer's first
                // write. Having observed writer q's write #k means init
                // is no longer observable).
                let seen_any = floor.keys().any(|&(l, _)| l == ev.loc);
                if seen_any {
                    return false;
                }
                continue;
            }
            let &(writer, widx) = match writes.get(&(ev.loc, ev.value)) {
                Some(w) => w,
                None => return false,
            };
            if let Some(&f) = floor.get(&(ev.loc, writer)) {
                if widx < f {
                    return false;
                }
            }
            // Out-of-thin-air: a process cannot read its *own* write
            // before issuing it (local program order, Definition 6).
            if writer == p && widx >= my_widx {
                return false;
            }
            floor.insert((ev.loc, writer), widx);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::trace::MemEvent;
    use super::*;
    use crate::op::LocId as L;

    fn w(loc: u32, v: Value) -> MemEvent {
        MemEvent::write(L(loc), v)
    }
    fn r(loc: u32, v: Value) -> MemEvent {
        MemEvent::read(L(loc), v)
    }

    /// Message passing with the stale read: allowed by Slow/CC/PRAM…
    /// forbidden by PC and SC (writes of one process are ordered under
    /// both, GPO).
    #[test]
    fn mp_stale_read_classification() {
        let traces = vec![vec![w(0, 42), w(1, 1)], vec![r(1, 1), r(0, 0)]];
        assert!(check_slow(&traces));
        assert!(check_cc(&traces));
        assert!(!check_pram(&traces), "PRAM orders one process's writes");
        assert!(!check_pc(&traces));
        assert!(!check_sc(&traces));
    }

    /// Store buffering both-zero: allowed by everything except SC.
    #[test]
    fn sb_classification() {
        let traces = vec![vec![w(0, 1), r(1, 0)], vec![w(1, 2), r(0, 0)]];
        assert!(check_slow(&traces));
        assert!(check_cc(&traces));
        assert!(check_pram(&traces));
        assert!(check_pc(&traces));
        assert!(!check_sc(&traces));
    }

    /// Coherence violation (read new then old): rejected by every model
    /// in the hierarchy including Slow.
    #[test]
    fn corr_violation_rejected_everywhere() {
        let traces = vec![vec![w(0, 1), w(0, 2)], vec![r(0, 2), r(0, 1)]];
        assert!(!check_slow(&traces));
        assert!(!check_cc(&traces));
        assert!(!check_pram(&traces));
        assert!(!check_pc(&traces));
        assert!(!check_sc(&traces));
    }

    /// Two writers, readers disagree on the order (IRIW-style with
    /// per-location disagreement): distinguishes CC (needs per-location
    /// agreement) from Slow (per-writer only).
    #[test]
    fn per_location_disagreement() {
        // Writers: w1=1 (thread 0), w1=2 (thread 1) to the same location.
        // Reader A sees 1 then 2; reader B sees 2 then 1.
        let traces =
            vec![vec![w(0, 1)], vec![w(0, 2)], vec![r(0, 1), r(0, 2)], vec![r(0, 2), r(0, 1)]];
        assert!(check_slow(&traces), "different writers are unordered in slow memory");
        assert!(!check_cc(&traces), "CC requires per-location agreement");
        assert!(!check_pc(&traces));
        assert!(!check_sc(&traces));
    }

    /// IRIW with fences maps to: readers disagree across two locations —
    /// PC allows it (no cross-location write agreement), SC does not.
    #[test]
    fn iriw_classification() {
        let traces =
            vec![vec![w(0, 1)], vec![w(1, 2)], vec![r(0, 1), r(1, 0)], vec![r(1, 2), r(0, 0)]];
        assert!(check_pram(&traces));
        assert!(check_pc(&traces));
        assert!(!check_sc(&traces));
    }

    /// Fully sequential behaviour passes everything.
    #[test]
    fn sequential_passes_all() {
        let traces = vec![vec![w(0, 1), w(1, 2)], vec![r(1, 2), r(0, 1)]];
        for (name, ok) in [
            ("slow", check_slow(&traces)),
            ("cc", check_cc(&traces)),
            ("pram", check_pram(&traces)),
            ("pc", check_pc(&traces)),
            ("sc", check_sc(&traces)),
        ] {
            assert!(ok, "{name} rejected a sequential behaviour");
        }
    }

    /// Reading back the initial value after observing a write: rejected
    /// by slow (per-writer monotonicity includes init).
    #[test]
    fn init_after_write_rejected_by_slow() {
        let traces = vec![vec![w(0, 1)], vec![r(0, 1), r(0, 0)]];
        assert!(!check_slow(&traces));
    }

    /// The model hierarchy on a batch of random traces:
    /// SC ⊆ PC ⊆ PRAM ⊆ Slow and PC ⊆ CC ⊆ Slow.
    #[test]
    fn hierarchy_holds_on_random_traces() {
        // Small deterministic pseudo-random trace generator.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..200 {
            let nthreads = 2 + (next() % 2) as usize;
            let mut traces: Vec<ThreadTrace> = vec![Vec::new(); nthreads];
            let mut written: Vec<Vec<Value>> = vec![vec![], vec![]];
            let mut value = 1;
            for t in traces.iter_mut() {
                let len = 1 + (next() % 3) as usize;
                for _ in 0..len {
                    let loc = (next() % 2) as u32;
                    if next() % 2 == 0 {
                        t.push(w(loc, value));
                        written[loc as usize].push(value);
                        value += 1;
                    } else {
                        let opts = &written[loc as usize];
                        let v = if opts.is_empty() || next() % 3 == 0 {
                            0
                        } else {
                            opts[(next() % opts.len() as u64) as usize]
                        };
                        t.push(r(loc, v));
                    }
                }
            }
            let sc = check_sc(&traces);
            let pc = check_pc(&traces);
            let pram = check_pram(&traces);
            let cc = check_cc(&traces);
            let slow = check_slow(&traces);
            assert!(!sc || pc, "SC ⊆ PC violated: {traces:?}");
            assert!(!pc || pram, "PC ⊆ PRAM violated: {traces:?}");
            assert!(!pram || slow, "PRAM ⊆ Slow violated: {traces:?}");
            assert!(!pc || cc, "PC ⊆ CC violated: {traces:?}");
            assert!(!cc || slow, "CC ⊆ Slow violated: {traces:?}");
        }
    }
}
