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
//! ([`crate::interleave`]), which explores every branch on one state: it
//! takes a `ModelState::mark` before a step and returns to it with
//! `ModelState::undo` once the step's subtree is explored.
//!
//! # Canonical form
//!
//! The enumerator's visited-state memoization keys a state by
//! `ModelState::write_key`. Every op has a *stable name*: an initial op
//! is named by its location, a process op by its process and its index
//! in that process's issue order (`Execution::name`). A name never
//! mentions the global append order, and an op's incoming edges are all
//! added when it is appended, so its record — kind, location, value,
//! edge count, then each edge as its source's name and its order kind,
//! sorted — is fixed at that point. `Execution::push` writes the record
//! into its process's *fragment*, one buffer per process, and `undo`
//! cuts the fragment back. The key is then the initial ops (`loc, value`
//! by location), the process count and each process's op count, each
//! fragment copied whole, the lock table and the read floors (a floor
//! names its write), both sorted. Every section, process and op carries
//! its count, so a key parses back into exactly one state.
//!
//! Equal keys mean isomorphic states. Two states with equal keys have the
//! same initialised locations and the same number of ops per process, so
//! mapping the op with name `n` in one to the op with name `n` in the
//! other is a bijection. It preserves each op's kind, location, value,
//! issuing process and position in that process's issue order, every
//! edge with its kind, the lock table and the floors. Everything Table I
//! and Definition 12 compute from a state depends only on those, so the
//! two states have the same futures. Two interleavings of the same
//! per-process histories that build the same graph give equal keys.
//!
//! The keys prune exactly where rank-named keys did, which named an op
//! by its rank among the initial ops by location and then each
//! process's ops in issue order. Given the initial ops and the op count
//! of each process — which both keys state — ranks and stable names are
//! in bijection, and the bijection keeps their order (initial ops by
//! location first, then process by process, each in issue order). So it
//! keeps every sorted edge list sorted, and two states have equal keys
//! in one naming exactly when they have equal keys in the other; a
//! state whose initial ops or op counts differ differs in both.
//!
//! A name is `slot << 20 | index` in 30 bits, so that an edge fits one
//! `u32` word as `name << 2 | order kind`: slot 0 with the location as
//! index for an initial op, slot `p + 1` with the issue index for an op
//! of process `p`. Appending an op asserts the bounds this sets: at most
//! 1 023 processes, fewer than 2^20 ops per process, and initial ops on
//! locations below 2^20.

use crate::execution::{count, find, EdgeMode, Execution};
use crate::op::{LocId, OpId, ProcId, Value};
use crate::order::View;

/// Errors for operations the platform would never let happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ModelError {
    /// Acquire on a location whose lock is currently held.
    AlreadyLocked { loc: LocId, holder: ProcId },
    /// Release by a process that does not hold the lock.
    NotLockHolder { loc: LocId, holder: Option<ProcId> },
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
        }
    }
}

impl std::error::Error for ModelError {}

/// Executor state: an execution under construction plus lock table and
/// per-(process, location) read floors.
#[derive(Debug, Clone)]
pub(crate) struct ModelState {
    exec: Execution,
    /// Lock holder per held location, sorted by location.
    locks: Vec<(LocId, ProcId)>,
    /// Monotonicity floor: the write each (process, location) pair last
    /// read from, sorted by the pair. Subsequent reads must return that
    /// write or one `⪯p`-after it.
    floor: Vec<((ProcId, LocId), OpId)>,
    /// The inverse of every lock and floor change since the root, newest
    /// last; [`Self::undo`] replays it backwards.
    log: Vec<Undo>,
}

/// The inverse of one change to the lock table or the floors.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A lock was added at this index.
    LockAdded(usize),
    /// This lock was removed from this index.
    LockRemoved(usize, (LocId, ProcId)),
    /// A floor was added at this index.
    FloorAdded(usize),
    /// The floor at this index held this write.
    FloorSet(usize, OpId),
}

/// A point to return to with [`ModelState::undo`]: the execution's
/// [`Execution::mark`] and the undo log's length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    exec: (usize, usize),
    log: usize,
}

impl Default for ModelState {
    fn default() -> Self {
        Self::new(EdgeMode::Full)
    }
}

impl ModelState {
    pub(crate) fn new(mode: EdgeMode) -> Self {
        ModelState {
            exec: Execution::new(mode),
            locks: Vec::new(),
            floor: Vec::new(),
            log: Vec::new(),
        }
    }

    pub(crate) fn mark(&self) -> Mark {
        Mark { exec: self.exec.mark(), log: self.log.len() }
    }

    /// Return to the state `mark` was taken in: undo every lock and floor
    /// change since, newest first, then pop the ops appended since.
    pub(crate) fn undo(&mut self, mark: Mark) {
        for undo in self.log.drain(mark.log..).rev() {
            match undo {
                Undo::LockAdded(i) => {
                    self.locks.remove(i);
                }
                Undo::LockRemoved(i, lock) => self.locks.insert(i, lock),
                Undo::FloorAdded(i) => {
                    self.floor.remove(i);
                }
                Undo::FloorSet(i, w) => self.floor[i].1 = w,
            }
        }
        self.exec.truncate(mark.exec);
    }

    /// Set the initial value of a location (Definition 3's initial
    /// write-and-release). Must be called before the location is used to
    /// take effect; later calls are ignored.
    pub(crate) fn init(&mut self, v: LocId, value: Value) -> OpId {
        self.exec.ensure_init(v, value)
    }

    pub(crate) fn can_acquire(&self, v: LocId) -> bool {
        find(&self.locks, v).is_err()
    }

    pub(crate) fn acquire(&mut self, p: ProcId, v: LocId) -> Result<OpId, ModelError> {
        match find(&self.locks, v) {
            Ok(i) => Err(ModelError::AlreadyLocked { loc: v, holder: self.locks[i].1 }),
            Err(i) => {
                self.locks.insert(i, (v, p));
                self.log.push(Undo::LockAdded(i));
                Ok(self.exec.acquire(p, v))
            }
        }
    }

    pub(crate) fn release(&mut self, p: ProcId, v: LocId) -> Result<OpId, ModelError> {
        match find(&self.locks, v) {
            Ok(i) if self.locks[i].1 == p => {
                let lock = self.locks.remove(i);
                self.log.push(Undo::LockRemoved(i, lock));
                Ok(self.exec.release(p, v))
            }
            found => Err(ModelError::NotLockHolder {
                loc: v,
                holder: found.ok().map(|i| self.locks[i].1),
            }),
        }
    }

    pub(crate) fn write(&mut self, p: ProcId, v: LocId, value: Value) -> OpId {
        let id = self.exec.write(p, v, value);
        // A process reads its own writes: they become the new floor.
        self.set_floor(p, v, id);
        id
    }

    fn set_floor(&mut self, p: ProcId, v: LocId, w: OpId) {
        let undo = match find(&self.floor, (p, v)) {
            Ok(i) => Undo::FloorSet(i, std::mem::replace(&mut self.floor[i].1, w)),
            Err(i) => {
                self.floor.insert(i, ((p, v), w));
                Undo::FloorAdded(i)
            }
        };
        self.log.push(undo);
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

    /// Append the state's canonical form (see the module docs) to `key`:
    /// the execution's, then `n_locks` and `loc, holder` per held lock,
    /// then `n_floors` and `proc, loc, name of the write` per floor.
    pub(crate) fn write_key(&self, key: &mut Vec<u32>) {
        self.exec.write_key(key);
        key.push(count(self.locks.len()));
        for &(v, p) in &self.locks {
            key.extend([v.0, u32::from(p.0)]);
        }
        key.push(count(self.floor.len()));
        for &((p, v), w) in &self.floor {
            key.extend([u32::from(p.0), v.0, self.exec.name(w)]);
        }
    }

    /// Push onto `out`, oldest first, the writes a read by `p` of `v` may
    /// legally return *now* with their values: Definition 12 (last write
    /// or anything `⪯p`-after it) filtered by the monotonicity floor.
    pub(crate) fn push_read_candidates(
        &mut self,
        p: ProcId,
        v: LocId,
        out: &mut Vec<(OpId, Value)>,
    ) {
        self.exec.ensure_init(v, 0);
        let floor = find(&self.floor, (p, v)).ok().map(|i| self.floor[i].1);
        let exec = &self.exec;
        exec.readable_by_new_read(p, v, |w| {
            if floor.is_none_or(|floor| exec.reaches(floor, w, View::Proc(p))) {
                out.push((w, exec.op(w).value));
            }
        });
    }

    /// [`Self::push_read_candidates`] into a fresh list.
    #[cfg(test)]
    pub(crate) fn read_candidates(&mut self, p: ProcId, v: LocId) -> Vec<(OpId, Value)> {
        let mut cands = Vec::new();
        self.push_read_candidates(p, v, &mut cands);
        cands
    }

    /// Commit a read by `p` of `v` returning `value` from the write
    /// `from`, one of its [`Self::read_candidates`]; the read's floor
    /// becomes that write.
    pub(crate) fn read_from(&mut self, p: ProcId, v: LocId, from: OpId, value: Value) -> OpId {
        let id = self.exec.read(p, v, value);
        self.set_floor(p, v, from);
        id
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fuzz::SplitMix64;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);
    const X: LocId = LocId(0);
    const F: LocId = LocId(1);

    impl ModelState {
        /// Commit a read by `p` of `v` returning `value`, from the first
        /// (oldest) candidate write holding it, or `None` if Definition 12
        /// allows no such read.
        fn read_value(&mut self, p: ProcId, v: LocId, value: Value) -> Option<OpId> {
            let (from, _) =
                self.read_candidates(p, v).into_iter().find(|&(_, val)| val == value)?;
            Some(self.read_from(p, v, from, value))
        }
    }

    /// The sort-based canonical key [`ModelState::write_key`] replaced,
    /// kept as its oracle: ops named `(process, issue index)` or by
    /// location, then the ops, the edges, the lock table and the floors,
    /// each as sorted rows behind a section tag and row count.
    pub(crate) fn sorted_key(m: &ModelState) -> Vec<u64> {
        use crate::op::PROC_ALL;
        let mut per_proc: std::collections::HashMap<ProcId, u64> = Default::default();
        let canon: Vec<u64> = m
            .exec
            .ops()
            .map(|(_, op)| {
                if op.proc == PROC_ALL {
                    (u64::from(u16::MAX) << 32) | u64::from(op.loc.0)
                } else {
                    let c = per_proc.entry(op.proc).or_insert(0);
                    *c += 1;
                    (u64::from(op.proc.0) << 32) | (*c - 1)
                }
            })
            .collect();
        let mut ops: Vec<Vec<u64>> = m
            .exec
            .ops()
            .map(|(id, op)| {
                vec![canon[id.index()], op.kind as u64, op.loc.0.into(), op.value.into()]
            })
            .collect();
        let mut edges: Vec<Vec<u64>> = m
            .exec
            .edges()
            .map(|e| vec![canon[e.from.index()], canon[e.to.index()], e.kind as u64])
            .collect();
        let mut locks: Vec<Vec<u64>> =
            m.locks.iter().map(|&(v, p)| vec![v.0.into(), p.0.into()]).collect();
        let mut floors: Vec<Vec<u64>> = m
            .floor
            .iter()
            .map(|&((p, v), w)| vec![p.0.into(), v.0.into(), canon[w.index()]])
            .collect();
        let mut key = Vec::new();
        for (section, rows) in
            [&mut ops, &mut edges, &mut locks, &mut floors].into_iter().enumerate()
        {
            rows.sort_unstable();
            key.push((section as u64) << 56 | rows.len() as u64);
            key.extend(rows.iter().flatten());
        }
        key
    }

    /// The staged read computation [`ModelState::read_candidates`]
    /// replaced, kept as its oracle: append the read to a copy of the
    /// execution and ask Definition 12 about it.
    fn staged_candidates(m: &ModelState, p: ProcId, v: LocId) -> Vec<(OpId, Value)> {
        let mut staged = m.exec.clone();
        staged.ensure_init(v, 0);
        let o = staged.read(p, v, 0);
        let mut cands = staged.readable_writes(o);
        if let Ok(i) = find(&m.floor, (p, v)) {
            cands.retain(|&w| staged.reaches(m.floor[i].1, w, View::Proc(p)));
        }
        cands.into_iter().map(|w| (w, staged.op(w).value)).collect()
    }

    /// A state to run random op sequences on: empty, or with one of the
    /// three locations initialised to 5 (the others initialise lazily).
    fn random_start(rng: &mut SplitMix64) -> ModelState {
        let mut m = ModelState::default();
        if rng.chance(50) {
            m.init(X, 5);
        }
        m
    }

    /// Apply one random, lock-disciplined op by one of three processes to
    /// one of three locations; return whether an op was applied.
    fn random_op(rng: &mut SplitMix64, m: &mut ModelState) -> bool {
        let p = ProcId(rng.below(3) as u16);
        let v = LocId(rng.below(3) as u32);
        match rng.below(7) {
            0 => {
                m.write(p, v, rng.below(4) as Value);
            }
            1 => {
                let cands = m.read_candidates(p, v);
                let (_, value) = cands[rng.below(cands.len() as u64) as usize];
                m.read_value(p, v, value).unwrap();
            }
            2 if m.can_acquire(v) => {
                m.acquire(p, v).unwrap();
            }
            3 if m.locks.contains(&(v, p)) => {
                m.release(p, v).unwrap();
            }
            4 => {
                m.fence(p);
            }
            5 => {
                m.dma_issue(p, v);
            }
            6 => {
                m.dma_complete(p, v);
            }
            _ => return false,
        }
        true
    }

    /// Unstaged read candidates equal the staged ones after every prefix
    /// of random, lock-disciplined op sequences over three processes and
    /// three locations, for every (process, location) pair — including
    /// locations not yet initialised.
    #[test]
    fn unstaged_read_candidates_match_staged() {
        for seed in 0..300 {
            let mut rng = SplitMix64::new(seed);
            let mut m = random_start(&mut rng);
            for _ in 0..24 {
                if !random_op(&mut rng, &mut m) {
                    continue;
                }
                for q in 0..3 {
                    for l in 0..4 {
                        let (q, l) = (ProcId(q), LocId(l));
                        assert_eq!(
                            m.clone().read_candidates(q, l),
                            staged_candidates(&m, q, l),
                            "seed {seed}: p{} reading v{} after {:?}",
                            q.0,
                            l.0,
                            m.exec
                        );
                    }
                }
            }
        }
    }

    /// `undo` returns to the marked state: after a random prefix, a
    /// mark, a random suffix and the undo, the state has the marked
    /// state's memo key, and every (process, location) pair — a location
    /// only the suffix initialised included — has its read candidates.
    #[test]
    fn undo_restores_the_state() {
        crate::fuzz::for_each_case("undo_restores_the_state", 256, |rng| {
            let mut m = random_start(rng);
            for _ in 0..rng.below(16) {
                random_op(rng, &mut m);
            }
            let mark = m.mark();
            let marked = m.clone();
            for _ in 0..rng.below(16) {
                random_op(rng, &mut m);
            }
            m.undo(mark);
            let key = |m: &ModelState| {
                let mut key = Vec::new();
                m.write_key(&mut key);
                key
            };
            assert_eq!(key(&m), key(&marked), "memo key after undo");
            for q in 0..3 {
                for l in 0..4 {
                    let (q, l) = (ProcId(q), LocId(l));
                    assert_eq!(
                        m.clone().read_candidates(q, l),
                        marked.clone().read_candidates(q, l),
                        "p{} reading v{} after undo",
                        q.0,
                        l.0
                    );
                }
            }
        });
    }

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
        assert!(m.read_value(P0, X, 0).is_none());
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
