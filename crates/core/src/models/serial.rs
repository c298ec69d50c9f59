//! Generic serialisation search: does a legal total order of the given
//! event streams exist?
//!
//! The search is a memoised DFS over scheduling states. A state is the
//! per-stream position vector *plus* the current memory contents: two
//! different schedules can reach the same positions with different
//! last-writers per location, so memory must be part of the memo key.
//!
//! The same engine implements:
//! * SC — one search over the full traces;
//! * PRAM — per process: that process's full trace + every other
//!   process's writes only;
//! * PC — like PRAM but constrained by a shared per-location write order
//!   (coherence order);
//! * CC — SC on per-location projections.

use std::collections::{HashMap, HashSet};

use crate::op::{LocId, Value};

use super::trace::{MemEvent, ThreadTrace, INIT_VALUE};

/// A fixed per-location total order of write values that a serialisation
/// must respect (used by the PC checker's GDO requirement).
#[derive(Debug, Clone, Default)]
pub(crate) struct CoherenceOrder {
    /// For each location: position of each written value in the agreed
    /// order.
    pos: HashMap<(LocId, Value), usize>,
}

impl CoherenceOrder {
    pub(crate) fn new(orders: &HashMap<LocId, Vec<Value>>) -> Self {
        let mut pos = HashMap::new();
        for (&loc, values) in orders {
            for (i, &v) in values.iter().enumerate() {
                pos.insert((loc, v), i);
            }
        }
        CoherenceOrder { pos }
    }

    fn position(&self, loc: LocId, value: Value) -> usize {
        self.pos.get(&(loc, value)).copied().unwrap_or(usize::MAX)
    }
}

/// Search for a legal serialisation of `streams`.
///
/// Rules:
/// * events of each stream appear in order;
/// * a read is legal only when the location currently holds its value
///   (reads-see-latest-write, with every location initially
///   [`INIT_VALUE`]);
/// * with `coherence`, writes to a location must be scheduled in the
///   agreed order.
pub(crate) fn serializable(streams: &[ThreadTrace], coherence: Option<&CoherenceOrder>) -> bool {
    let mut memo: SerialMemo = HashSet::new();
    let mut mem: HashMap<LocId, Value> = HashMap::new();
    // Progress of the coherence order per location (next write position
    // that may be scheduled).
    let mut co_next: HashMap<LocId, usize> = HashMap::new();
    let mut pos = vec![0usize; streams.len()];
    dfs(streams, coherence, &mut pos, &mut mem, &mut co_next, &mut memo)
}

/// Memo key: thread positions plus the memory snapshot.
type SerialMemo = HashSet<(Vec<usize>, Vec<(LocId, Value)>)>;

fn dfs(
    streams: &[ThreadTrace],
    coherence: Option<&CoherenceOrder>,
    pos: &mut Vec<usize>,
    mem: &mut HashMap<LocId, Value>,
    co_next: &mut HashMap<LocId, usize>,
    memo: &mut SerialMemo,
) -> bool {
    if pos.iter().zip(streams).all(|(&p, s)| p >= s.len()) {
        return true;
    }
    // Two schedules can reach equal positions with different last-writers,
    // so the memo key is positions plus the memory snapshot.
    let mut mem_key: Vec<(LocId, Value)> = mem.iter().map(|(&l, &v)| (l, v)).collect();
    mem_key.sort_unstable_by_key(|&(l, _)| l);
    if !memo.insert((pos.clone(), mem_key)) {
        return false;
    }
    for i in 0..streams.len() {
        if pos[i] >= streams[i].len() {
            continue;
        }
        let ev: MemEvent = streams[i][pos[i]];
        if ev.is_write {
            if let Some(co) = coherence {
                let want = co.position(ev.loc, ev.value);
                let next = co_next.get(&ev.loc).copied().unwrap_or(0);
                if want != next {
                    continue; // out of coherence order — not schedulable yet
                }
            }
            let prev = mem.insert(ev.loc, ev.value);
            let prev_co = if coherence.is_some() {
                Some(*co_next.entry(ev.loc).and_modify(|n| *n += 1).or_insert(1))
            } else {
                None
            };
            pos[i] += 1;
            if dfs(streams, coherence, pos, mem, co_next, memo) {
                return true;
            }
            pos[i] -= 1;
            if let Some(n) = prev_co {
                co_next.insert(ev.loc, n - 1);
            }
            match prev {
                Some(v) => {
                    mem.insert(ev.loc, v);
                }
                None => {
                    mem.remove(&ev.loc);
                }
            }
        } else {
            let current = mem.get(&ev.loc).copied().unwrap_or(INIT_VALUE);
            if current != ev.value {
                continue; // read not currently satisfiable
            }
            pos[i] += 1;
            if dfs(streams, coherence, pos, mem, co_next, memo) {
                return true;
            }
            pos[i] -= 1;
        }
    }
    false
}

/// Enumerate all linear extensions of the per-location write orders that
/// respect each thread's program order of writes to that location,
/// calling `f` for each complete assignment. Returns `true` as soon as
/// `f` does.
pub(crate) fn for_each_coherence_order(
    writes_per_loc: &HashMap<LocId, Vec<Vec<Value>>>,
    f: &mut dyn FnMut(&CoherenceOrder) -> bool,
) -> bool {
    let locs: Vec<LocId> = {
        let mut l: Vec<LocId> = writes_per_loc.keys().copied().collect();
        l.sort_unstable();
        l
    };
    let mut orders: HashMap<LocId, Vec<Value>> = HashMap::new();
    extend_loc(&locs, 0, writes_per_loc, &mut orders, f)
}

fn extend_loc(
    locs: &[LocId],
    i: usize,
    writes_per_loc: &HashMap<LocId, Vec<Vec<Value>>>,
    orders: &mut HashMap<LocId, Vec<Value>>,
    f: &mut dyn FnMut(&CoherenceOrder) -> bool,
) -> bool {
    if i == locs.len() {
        return f(&CoherenceOrder::new(orders));
    }
    let loc = locs[i];
    let streams = &writes_per_loc[&loc];
    let mut current = Vec::new();
    let mut pos = vec![0usize; streams.len()];
    merge(streams, &mut pos, &mut current, &mut |order: &Vec<Value>| {
        orders.insert(loc, order.clone());
        let done = extend_loc(locs, i + 1, writes_per_loc, orders, f);
        orders.remove(&loc);
        done
    })
}

/// Enumerate all interleavings (linear extensions) of the given ordered
/// streams of values; calls `f` per complete merge, early-exiting on
/// `true`.
fn merge(
    streams: &[Vec<Value>],
    pos: &mut Vec<usize>,
    current: &mut Vec<Value>,
    f: &mut dyn FnMut(&Vec<Value>) -> bool,
) -> bool {
    if pos.iter().zip(streams).all(|(&p, s)| p >= s.len()) {
        return f(current);
    }
    for i in 0..streams.len() {
        if pos[i] >= streams[i].len() {
            continue;
        }
        current.push(streams[i][pos[i]]);
        pos[i] += 1;
        if merge(streams, pos, current, f) {
            return true;
        }
        pos[i] -= 1;
        current.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::LocId as L;

    #[test]
    fn trivially_serializable() {
        let traces = vec![vec![MemEvent::write(L(0), 1)], vec![MemEvent::read(L(0), 1)]];
        assert!(serializable(&traces, None));
    }

    #[test]
    fn unsatisfiable_read_rejected() {
        // Reader sees 1 then 0 again: impossible in a single total order
        // with a single write of 1.
        let traces = vec![
            vec![MemEvent::write(L(0), 1)],
            vec![MemEvent::read(L(0), 1), MemEvent::read(L(0), 0)],
        ];
        assert!(!serializable(&traces, None));
    }

    #[test]
    fn coherence_order_constrains_writes() {
        let traces = vec![
            vec![MemEvent::write(L(0), 1)],
            vec![MemEvent::write(L(0), 2)],
            vec![MemEvent::read(L(0), 2), MemEvent::read(L(0), 1)],
        ];
        // Reader needs 2 before 1.
        let co12 = CoherenceOrder::new(&HashMap::from([(L(0), vec![1, 2])]));
        let co21 = CoherenceOrder::new(&HashMap::from([(L(0), vec![2, 1])]));
        assert!(!serializable(&traces, Some(&co12)));
        assert!(serializable(&traces, Some(&co21)));
    }

    #[test]
    fn coherence_enumeration_counts_interleavings() {
        // Two single-write streams on one location: 2 orders.
        let wpl = HashMap::from([(L(0), vec![vec![1], vec![2]])]);
        let mut count = 0;
        for_each_coherence_order(&wpl, &mut |_| {
            count += 1;
            false
        });
        assert_eq!(count, 2);
        // Two locations with 2 single-write streams each: 4 combinations.
        let wpl = HashMap::from([(L(0), vec![vec![1], vec![2]]), (L(1), vec![vec![3], vec![4]])]);
        let mut count = 0;
        for_each_coherence_order(&wpl, &mut |_| {
            count += 1;
            false
        });
        assert_eq!(count, 4);
    }

    #[test]
    fn store_buffering_is_serializable_only_with_a_hit() {
        // SB with both-zero: not serializable (that's the SC check).
        let traces = vec![
            vec![MemEvent::write(L(0), 1), MemEvent::read(L(1), 0)],
            vec![MemEvent::write(L(1), 1), MemEvent::read(L(0), 0)],
        ];
        assert!(!serializable(&traces, None));
        // SB where one thread sees the other's write: fine.
        let traces = vec![
            vec![MemEvent::write(L(0), 1), MemEvent::read(L(1), 0)],
            vec![MemEvent::write(L(1), 1), MemEvent::read(L(0), 1)],
        ];
        assert!(serializable(&traces, None));
    }
}
