//! Operational executor for the PMC model.
//!
//! [`Execution`] is deliberately permissive: it records any sequence of
//! operations and applies Table I. This module adds the *operational*
//! constraints a real platform provides:
//!
//! * **mutual exclusion** — an acquire only executes when the location's
//!   lock is free, and must be released by the same process (paper
//!   Section IV-B);
//! * **read monotonicity** — the second clause of Definition 12: when two
//!   reads `o ⪯p o'` return values of writes `w` and `w'`, then `w ⪯p w'`
//!   (a process can never observe a location moving backwards).
//!
//! The executor is the building block of the litmus-test enumerator
//! ([`crate::interleave`]); it is cloneable so the enumerator can branch.

use std::collections::HashMap;

use crate::execution::{EdgeMode, Execution};
use crate::op::{LocId, OpId, OpKind, ProcId, Value, PROC_ALL};
use crate::order::OrderKind;

/// Errors for operations the platform would never let happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ModelError {
    /// Acquire on a location whose lock is currently held.
    AlreadyLocked { loc: LocId, holder: ProcId },
    /// Release by a process that does not hold the lock.
    NotLockHolder { loc: LocId, holder: Option<ProcId> },
    /// Read committed against a write that Definition 12 does not allow.
    IllegalRead { loc: LocId, from: OpId },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::AlreadyLocked { loc, holder } => {
                write!(f, "acquire of v{} while held by p{}", loc.0, holder.0)
            }
            ModelError::NotLockHolder { loc, holder } => {
                write!(f, "release of v{} by non-holder (holder: {holder:?})", loc.0)
            }
            ModelError::IllegalRead { loc, from } => {
                write!(f, "illegal read of v{} from op {}", loc.0, from.0)
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Executor state: an execution under construction plus lock table and
/// per-(process, location) read floors.
#[derive(Debug, Clone)]
pub(crate) struct ModelState {
    exec: Execution,
    locks: HashMap<LocId, ProcId>,
    /// Monotonicity floor: the write each (process, location) pair last
    /// read from. Subsequent reads must return that write or one
    /// `⪯p`-after it.
    floor: HashMap<(ProcId, LocId), OpId>,
}

impl Default for ModelState {
    fn default() -> Self {
        Self::new(EdgeMode::Full)
    }
}

impl ModelState {
    pub(crate) fn new(mode: EdgeMode) -> Self {
        ModelState { exec: Execution::new(mode), locks: HashMap::new(), floor: HashMap::new() }
    }

    /// Set the initial value of a location (Definition 3's initial
    /// write-and-release). Must be called before the location is used to
    /// take effect; later calls are ignored.
    pub(crate) fn init(&mut self, v: LocId, value: Value) -> OpId {
        self.exec.ensure_init(v, value)
    }

    pub(crate) fn can_acquire(&self, v: LocId) -> bool {
        !self.locks.contains_key(&v)
    }

    pub(crate) fn acquire(&mut self, p: ProcId, v: LocId) -> Result<OpId, ModelError> {
        if let Some(&holder) = self.locks.get(&v) {
            return Err(ModelError::AlreadyLocked { loc: v, holder });
        }
        self.locks.insert(v, p);
        Ok(self.exec.acquire(p, v))
    }

    pub(crate) fn release(&mut self, p: ProcId, v: LocId) -> Result<OpId, ModelError> {
        match self.locks.get(&v) {
            Some(&holder) if holder == p => {
                self.locks.remove(&v);
                Ok(self.exec.release(p, v))
            }
            holder => Err(ModelError::NotLockHolder { loc: v, holder: holder.copied() }),
        }
    }

    pub(crate) fn write(&mut self, p: ProcId, v: LocId, value: Value) -> OpId {
        let id = self.exec.write(p, v, value);
        // A process reads its own writes: they become the new floor.
        self.floor.insert((p, v), id);
        id
    }

    pub(crate) fn fence(&mut self, p: ProcId) -> OpId {
        self.exec.fence(p)
    }

    /// Mark the hand-off of an asynchronous bulk transfer on `v` (the DMA
    /// extension; the data movement itself is modelled by plain
    /// reads/writes floating between issue and complete).
    pub(crate) fn dma_issue(&mut self, p: ProcId, v: LocId) -> OpId {
        self.exec.ensure_init(v, 0);
        self.exec.dma_issue(p, v)
    }

    /// Mark the observed completion of outstanding transfers on `v`.
    pub(crate) fn dma_complete(&mut self, p: ProcId, v: LocId) -> OpId {
        self.exec.ensure_init(v, 0);
        self.exec.dma_complete(p, v)
    }

    /// A canonical fingerprint of the executor state, independent of the
    /// *global* append order: operations are identified by (process,
    /// per-process issue index) — within one process, append order is the
    /// process's own issue order — and initial operations by their
    /// location. Two states reached along different interleavings of the
    /// same per-process histories therefore produce identical keys, which
    /// is what makes the litmus enumerator's opt-in memoization sound:
    /// equal keys ⇒ isomorphic executions (respecting per-process order)
    /// with equal lock tables and read floors ⇒ identical future
    /// behaviour.
    pub(crate) fn canonical_key(&self) -> Vec<u64> {
        let kind_code = |k: OpKind| -> u64 {
            match k {
                OpKind::Read => 0,
                OpKind::Write => 1,
                OpKind::Acquire => 2,
                OpKind::Release => 3,
                OpKind::Fence => 4,
                OpKind::Init => 5,
                OpKind::DmaIssue => 6,
                OpKind::DmaComplete => 7,
            }
        };
        let order_code = |k: OrderKind| -> u64 {
            match k {
                OrderKind::Local => 0,
                OrderKind::Program => 1,
                OrderKind::Sync => 2,
                OrderKind::Fence => 3,
            }
        };
        // Canonical id per op, in append order.
        let mut per_proc: HashMap<ProcId, u64> = HashMap::new();
        let canon: Vec<u64> = self
            .exec
            .ops()
            .map(|(_, op)| {
                if op.proc == PROC_ALL {
                    (u64::from(u16::MAX) << 32) | u64::from(op.loc.0)
                } else {
                    let c = per_proc.entry(op.proc).or_insert(0);
                    let cid = (u64::from(op.proc.0) << 32) | *c;
                    *c += 1;
                    cid
                }
            })
            .collect();
        // Ops: (cid, kind, loc, value), canonically sorted.
        let mut ops: Vec<[u64; 4]> = self
            .exec
            .ops()
            .map(|(id, op)| {
                [canon[id.index()], kind_code(op.kind), u64::from(op.loc.0), u64::from(op.value)]
            })
            .collect();
        ops.sort_unstable();
        // Edges: (canon from, canon to, order kind), canonically sorted.
        let mut edges: Vec<[u64; 3]> = self
            .exec
            .edges()
            .map(|e| [canon[e.from.index()], canon[e.to.index()], order_code(e.kind)])
            .collect();
        edges.sort_unstable();
        // Lock table and read floors, canonically sorted.
        let mut locks: Vec<[u64; 2]> =
            self.locks.iter().map(|(v, p)| [u64::from(v.0), u64::from(p.0)]).collect();
        locks.sort_unstable();
        let mut floors: Vec<[u64; 3]> = self
            .floor
            .iter()
            .map(|(&(p, v), w)| [u64::from(p.0), u64::from(v.0), canon[w.index()]])
            .collect();
        floors.sort_unstable();

        let mut key = Vec::with_capacity(
            4 + ops.len() * 4 + edges.len() * 3 + locks.len() * 2 + floors.len() * 3,
        );
        for (section, rows) in [
            (0u64, ops.iter().map(|r| r.as_slice()).collect::<Vec<_>>()),
            (1, edges.iter().map(|r| r.as_slice()).collect()),
            (2, locks.iter().map(|r| r.as_slice()).collect()),
            (3, floors.iter().map(|r| r.as_slice()).collect()),
        ] {
            key.push(section << 56 | rows.len() as u64);
            for row in rows {
                key.extend_from_slice(row);
            }
        }
        key
    }

    /// The writes a read by `p` of `v` may legally return *now*:
    /// Definition 12 (last write or anything `⪯p`-after it) filtered by
    /// the monotonicity floor.
    pub(crate) fn read_candidates(&mut self, p: ProcId, v: LocId) -> Vec<(OpId, Value)> {
        self.exec.ensure_init(v, 0);
        // Stage the read to let `Execution` compute its past cone, then
        // discard the staged state by working on a clone. Executions are
        // litmus-sized here, so the clone is cheap.
        let mut staged = self.exec.clone();
        let o = staged.read(p, v, 0);
        let mut cands = staged.readable_writes(o);
        if let Some(&floor) = self.floor.get(&(p, v)) {
            use crate::order::View;
            cands.retain(|&w| staged.reaches(floor, w, View::Proc(p)));
        }
        cands.into_iter().map(|w| (w, staged.op(w).value)).collect()
    }

    /// Commit a read by `p` of `v` returning the value of write `from`.
    /// `from` must be one of [`Self::read_candidates`].
    pub(crate) fn read_from(
        &mut self,
        p: ProcId,
        v: LocId,
        from: OpId,
    ) -> Result<OpId, ModelError> {
        let legal = self.read_candidates(p, v).iter().any(|&(w, _)| w == from);
        if !legal {
            return Err(ModelError::IllegalRead { loc: v, from });
        }
        let value = self.exec.op(from).value;
        let id = self.exec.read(p, v, value);
        self.floor.insert((p, v), from);
        Ok(id)
    }

    /// Convenience: commit a read returning any candidate with the given
    /// value (used by tests and the `WaitEq` litmus instruction).
    pub(crate) fn read_value(
        &mut self,
        p: ProcId,
        v: LocId,
        value: Value,
    ) -> Result<OpId, ModelError> {
        let cand = self.read_candidates(p, v).into_iter().find(|&(_, val)| val == value);
        match cand {
            Some((w, _)) => self.read_from(p, v, w),
            None => Err(ModelError::IllegalRead { loc: v, from: OpId(u32::MAX) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);
    const X: LocId = LocId(0);
    const F: LocId = LocId(1);

    #[test]
    fn lock_discipline_enforced() {
        let mut m = ModelState::default();
        m.acquire(P0, X).unwrap();
        assert_eq!(m.acquire(P1, X), Err(ModelError::AlreadyLocked { loc: X, holder: P0 }));
        assert_eq!(m.release(P1, X), Err(ModelError::NotLockHolder { loc: X, holder: Some(P0) }));
        m.release(P0, X).unwrap();
        m.acquire(P1, X).unwrap();
        m.release(P1, X).unwrap();
        assert_eq!(m.release(P1, X), Err(ModelError::NotLockHolder { loc: X, holder: None }));
    }

    /// Slow reads: a write by another process may or may not be visible,
    /// but once seen, the location never goes backwards (Definition 12).
    #[test]
    fn read_monotonicity() {
        let mut m = ModelState::default();
        m.init(X, 0);
        m.write(P1, X, 7);
        // P0 may read 0 (initial) or 7 (propagated).
        let vals: Vec<Value> = m.read_candidates(P0, X).iter().map(|&(_, v)| v).collect();
        assert!(vals.contains(&0) && vals.contains(&7));
        // Commit the read of 7 — afterwards 0 is no longer readable.
        m.read_value(P0, X, 7).unwrap();
        let vals: Vec<Value> = m.read_candidates(P0, X).iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![7]);
        assert!(m.read_value(P0, X, 0).is_err());
    }

    /// A process always reads its own writes (never older values).
    #[test]
    fn own_writes_are_floor() {
        let mut m = ModelState::default();
        m.init(X, 0);
        m.write(P0, X, 1);
        let vals: Vec<Value> = m.read_candidates(P0, X).iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1]);
    }

    /// The message-passing guarantee of Fig. 5/6 holds operationally:
    /// after acquiring X (which the fences force to happen after process
    /// 1's critical section), the read can only return 42.
    #[test]
    fn fig5_read_is_42() {
        let mut m = ModelState::default();
        m.init(X, 0);
        m.init(F, 0);
        // Process 1.
        m.acquire(P0, X).unwrap();
        m.write(P0, X, 42);
        m.fence(P0);
        m.release(P0, X).unwrap();
        m.acquire(P0, F).unwrap();
        m.write(P0, F, 1);
        m.release(P0, F).unwrap();
        // Process 2 observes the flag.
        m.read_value(P1, F, 1).unwrap();
        m.fence(P1);
        m.acquire(P1, X).unwrap();
        let vals: Vec<Value> = m.read_candidates(P1, X).iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![42]);
    }

    /// Without synchronisation, process 2 can read X before the flag's
    /// value arrives — the Fig. 1 failure is a *model-allowed* outcome.
    #[test]
    fn unfenced_message_passing_can_read_stale() {
        let mut m = ModelState::default();
        m.init(X, 0);
        m.init(F, 0);
        m.write(P0, X, 42);
        m.write(P0, F, 1);
        // P1 sees flag == 1 ...
        m.read_value(P1, F, 1).unwrap();
        // ... yet may still read X == 0: no chain orders X=42 before it.
        let vals: Vec<Value> = m.read_candidates(P1, X).iter().map(|&(_, v)| v).collect();
        assert!(vals.contains(&0), "stale read must be allowed, got {vals:?}");
        assert!(vals.contains(&42));
    }
}
