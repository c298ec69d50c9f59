//! Executions of the PMC model (paper Definitions 1–4) and the derived
//! queries: last writes (Definition 11), readable values (Definition 12)
//! and data races.
//!
//! An [`Execution`] is the dependency graph the paper describes: operations
//! are appended one at a time and every append adds the ordering edges of
//! Table I from matching *existing* operations to the new one. The graph is
//! therefore append-only and edges always point from older to newer
//! operations — which makes it acyclic by construction.

use std::collections::HashMap;

use crate::op::{LocId, Op, OpId, OpKind, ProcId, PROC_ALL};
use crate::order::{OrderKind, View};
use crate::table1::{rules_for_existing, RuleScope};

/// How Table I is applied on each append. There is one way — `Full`:
/// edges are added from **every** matching existing operation, exactly
/// as Definition 4 states (quadratic; executions are litmus-sized).
///
/// The enum, and the parameter of [`Execution::new`] and
/// `ModelState::new`, survive the `Reduced` (latest-match-only) mode
/// they once selected only because the frozen benchmark
/// (`pmcbench/src/probes.rs`) and `table1` spell
/// `Execution::new(EdgeMode::Full)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    Full,
}

/// An ordering edge `from ≺ to` with its kind. `from` always precedes `to`
/// in append order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Edge {
    pub from: OpId,
    pub to: OpId,
    pub kind: OrderKind,
}

/// Bits of an op's stable name: a memo key packs `name << 2 | order
/// kind` into one `u32`.
const NAME_BITS: u32 = 30;
/// The low bits of a name: an initial op's location, or a process op's
/// index in its process's issue order. The bits above hold the slot: 0
/// for the initial ops, `p + 1` for process `p`.
const INDEX_BITS: u32 = 20;
/// Processes a memo key can name (`ProcId`s `0..MAX_PROCS`).
const MAX_PROCS: usize = (1 << (NAME_BITS - INDEX_BITS)) - 1;
/// Ops per process a memo key can name, and the bound on the location
/// of an initial op.
const MAX_INDEX: u32 = 1 << INDEX_BITS;

/// An execution `E = (P, V, O, ≺)` under construction (paper
/// Definition 1). `P` and `V` grow implicitly as operations mention new
/// processes/locations; every location receives its initial
/// write-and-release operation on first use (Definition 3).
#[derive(Debug, Clone, Default)]
pub struct Execution {
    ops: Vec<Op>,
    /// Per op: its stable name, and where its edges and its key record
    /// start.
    meta: Vec<Meta>,
    /// The incoming edges (from older ops only) of every op, op after op
    /// in append order; each op's edges in the order Table I added them.
    /// The DOT export prints edges in this order.
    preds: Vec<(OpId, OrderKind)>,
    /// Each process's op count and key fragment, indexed by `ProcId`.
    /// Entries at and above `live` are empty and kept for their buffers.
    procs: Vec<Fragment>,
    /// One more than the highest process with an op (0 if none): the
    /// process count the memo key states.
    live: usize,
    /// Initial op per location, sorted by location (created lazily).
    init: Vec<(LocId, OpId)>,
}

/// What an op keeps beside its [`Op`].
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// The op's name in the memo key ([`Execution::name`]).
    name: u32,
    /// Where its incoming edges start in `Execution::preds`.
    preds: u32,
    /// Where its record starts in its process's fragment (0 for an
    /// initial op, which has no record).
    record: u32,
}

/// One process's share of the memo key ([`Execution::write_key`]).
#[derive(Debug, Clone, Default)]
struct Fragment {
    /// The process's op count: the issue index of its next op.
    ops: u32,
    /// Per op in issue order: `kind, loc, value, n_preds`, then its
    /// incoming edges as `name << 2 | order kind`, sorted.
    words: Vec<u32>,
}

impl Execution {
    pub fn new(_mode: EdgeMode) -> Self {
        Execution::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    pub(crate) fn ops(&self) -> impl Iterator<Item = (OpId, &Op)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpId(i as u32), o))
    }

    /// Incoming edges of `id` (sources are strictly older operations).
    pub(crate) fn preds(&self, id: OpId) -> &[(OpId, OrderKind)] {
        let start = self.meta[id.index()].preds as usize;
        let end = self.meta.get(id.index() + 1).map_or(self.preds.len(), |m| m.preds as usize);
        &self.preds[start..end]
    }

    pub(crate) fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.ops.len()).map(|i| OpId(i as u32)).flat_map(move |to| {
            self.preds(to).iter().map(move |&(from, kind)| Edge { from, to, kind })
        })
    }

    /// The initial operation of a location, if the location has been used.
    #[cfg(test)]
    pub(crate) fn init_op(&self, v: LocId) -> Option<OpId> {
        find(&self.init, v).ok().map(|i| self.init[i].1)
    }

    /// Ensure the initial write-and-release op of Definition 3 exists for
    /// location `v`, with the given initial value.
    pub fn ensure_init(&mut self, v: LocId, value: u32) -> OpId {
        match find(&self.init, v) {
            Ok(i) => self.init[i].1,
            Err(i) => {
                let id = self.push(Op::init(v, value), self.preds.len());
                self.init.insert(i, (v, id));
                id
            }
        }
    }

    /// The point to return to with [`Self::truncate`]: the op count and
    /// the live process count.
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.ops.len(), self.live)
    }

    /// Pop every op appended since `mark` was taken. The graph is
    /// append-only, so this restores it exactly — each process's op
    /// count and fragment, and the live process count the memo key
    /// states, included.
    pub(crate) fn truncate(&mut self, (ops, live): (usize, usize)) {
        if let Some(meta) = self.meta.get(ops) {
            self.preds.truncate(meta.preds as usize);
        }
        while self.ops.len() > ops {
            let op = self.ops.pop().expect("above the mark");
            let meta = self.meta.pop().expect("one per op");
            if op.proc == PROC_ALL {
                let i = find(&self.init, op.loc).expect("init op");
                self.init.remove(i);
            } else {
                let fragment = &mut self.procs[usize::from(op.proc.0)];
                fragment.ops -= 1;
                fragment.words.truncate(meta.record as usize);
            }
        }
        self.live = live;
    }

    /// Append `op`, whose incoming edges are `preds[first..]`: name it
    /// and write its record into its process's fragment.
    fn push(&mut self, op: Op, first: usize) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let (name, record) = if op.proc == PROC_ALL {
            assert!(
                op.loc.0 < MAX_INDEX,
                "a memo key names initial ops of locations below {MAX_INDEX}"
            );
            (op.loc.0, 0)
        } else {
            let p = usize::from(op.proc.0);
            assert!(p < MAX_PROCS, "a memo key names at most {MAX_PROCS} processes");
            if self.procs.len() <= p {
                self.procs.resize_with(p + 1, Fragment::default);
            }
            self.live = self.live.max(p + 1);
            let fragment = &mut self.procs[p];
            let index = fragment.ops;
            assert!(index < MAX_INDEX, "a memo key names at most {MAX_INDEX} ops per process");
            fragment.ops += 1;
            let record = fragment.words.len();
            let preds = &self.preds[first..];
            fragment.words.extend([op.kind as u32, op.loc.0, op.value, count(preds.len())]);
            let edges = fragment.words.len();
            let meta = &self.meta;
            fragment.words.extend(
                preds.iter().map(|&(from, kind)| meta[from.index()].name << 2 | kind as u32),
            );
            fragment.words[edges..].sort_unstable();
            ((p as u32 + 1) << INDEX_BITS | index, count(record))
        };
        self.ops.push(op);
        self.meta.push(Meta { name, preds: count(first), record });
        id
    }

    /// Execute an operation: append it and apply the ordering rules of
    /// Table I against all matching existing operations (Definition 4).
    /// Locations touched for the first time get their initial operation
    /// first (with initial value 0).
    pub(crate) fn execute(&mut self, op: Op) -> OpId {
        if op.kind != OpKind::Fence {
            self.ensure_init(op.loc, 0);
        }
        let mut preds = std::mem::take(&mut self.preds);
        let first = preds.len();
        self.rule_edges(&op, |from, kind| preds.push((from, kind)));
        self.preds = preds;
        self.push(op, first)
    }

    /// Convenience wrappers mirroring the model's five operations.
    pub fn read(&mut self, p: ProcId, v: LocId, value_read: u32) -> OpId {
        self.execute(Op { value: value_read, ..Op::read(p, v) })
    }
    pub fn write(&mut self, p: ProcId, v: LocId, value: u32) -> OpId {
        self.execute(Op::write(p, v, value))
    }
    pub fn acquire(&mut self, p: ProcId, v: LocId) -> OpId {
        self.execute(Op::acquire(p, v))
    }
    pub fn release(&mut self, p: ProcId, v: LocId) -> OpId {
        self.execute(Op::release(p, v))
    }
    pub fn fence(&mut self, p: ProcId) -> OpId {
        self.execute(Op::fence(p))
    }
    /// DMA-window markers (extension; see [`crate::table1::dma_rule`]).
    pub(crate) fn dma_issue(&mut self, p: ProcId, v: LocId) -> OpId {
        self.execute(Op::dma_issue(p, v))
    }
    pub(crate) fn dma_complete(&mut self, p: ProcId, v: LocId) -> OpId {
        self.execute(Op::dma_complete(p, v))
    }

    /// The Table I edges (Definition 4) operation `n` receives when it is
    /// appended now, passed to `edge` in append order of their sources.
    /// Executions are litmus-sized, so every existing op is matched
    /// against the table. Each source matches at most one rule per edge
    /// kind, so no edge repeats.
    fn rule_edges(&self, n: &Op, mut edge: impl FnMut(OpId, OrderKind)) {
        for (id, e) in self.ops() {
            // Every scope needs the same process or the same location.
            if !e.issued_by(n.proc) && !e.on_loc(n.loc) {
                continue;
            }
            for rule in rules_for_existing(e.kind, n.kind) {
                let matches = match rule.scope {
                    // A new fence spans every location of its process
                    // (Definition 8): the same-location requirement of
                    // the read/write/acquire/release rows is satisfied
                    // for any existing location.
                    RuleScope::SameProcSameLoc => {
                        e.issued_by(n.proc) && (n.kind == OpKind::Fence || e.on_loc(n.loc))
                    }
                    RuleScope::AnyProcSameLoc => e.on_loc(n.loc),
                    RuleScope::SameProcAnyLoc => e.issued_by(n.proc),
                };
                if matches {
                    edge(id, rule.kind);
                }
            }
        }
    }

    /// Append the canonical form of the graph to `key` (see
    /// `crate::exec_state`'s `# Canonical form`). Layout, every section
    /// led by its count:
    ///
    /// * `n_init`, then `loc, value` per initial op, by location;
    /// * `n_procs` (the live process count), then each process's op
    ///   count;
    /// * each process's fragment, copied whole: per op in issue order,
    ///   `kind, loc, value, n_preds`, then its incoming edges as
    ///   `name << 2 | order kind` ([`Self::name`]), sorted.
    ///
    /// Initial ops have no incoming edges and carry no op record. Each
    /// record was written when its op was appended: an op's edges and
    /// its sources' names never change afterwards.
    pub(crate) fn write_key(&self, key: &mut Vec<u32>) {
        key.push(count(self.init.len()));
        for &(v, id) in &self.init {
            key.extend([v.0, self.ops[id.index()].value]);
        }
        let procs = &self.procs[..self.live];
        key.push(count(procs.len()));
        key.extend(procs.iter().map(|f| f.ops));
        for fragment in procs {
            key.extend_from_slice(&fragment.words);
        }
    }

    /// The stable name of `id` in the memo key: an initial op is named by
    /// its location, the op with issue index `i` of process `p` by
    /// `(p + 1) << 20 | i`. Names never depend on the global append
    /// order, so they are fixed when the op is appended.
    pub(crate) fn name(&self, id: OpId) -> u32 {
        self.meta[id.index()].name
    }

    /// Does `a ⪯ b` hold in the given view? (Reflexive; `a ≺ b` for
    /// strict precedence with `a != b`.) One sweep from `b` down to `a`
    /// over the edges visible in `view`: edges point forward in append
    /// order, so an op's successors are swept before it.
    pub(crate) fn reaches(&self, a: OpId, b: OpId, view: View) -> bool {
        if a == b {
            return true;
        }
        if a.0 > b.0 {
            return false; // edges only point forward in append order
        }
        let mut set = OpSet::new(b.index() + 1);
        set.insert(b);
        for cur in (a.0 + 1..=b.0).rev().map(OpId) {
            if !set.contains(cur) {
                continue;
            }
            for &(from, kind) in self.preds(cur) {
                if from.0 < a.0 || !view.sees(kind, self.owner(from, cur)) {
                    continue;
                }
                if from == a {
                    return true;
                }
                set.insert(from);
            }
        }
        false
    }

    /// The process owning edge `from → to`. Local edges connect two ops of
    /// one process; for init ops (pseudo-process) the owner is the
    /// target's process.
    fn owner(&self, from: OpId, to: OpId) -> ProcId {
        match self.ops[from.index()].proc {
            PROC_ALL => self.ops[to.index()].proc,
            p => p,
        }
    }

    /// Strict precedence `a ≺ b` in the given view.
    pub fn precedes(&self, a: OpId, b: OpId, view: View) -> bool {
        a != b && self.reaches(a, b, view)
    }

    /// Is `id` a write (or initial op) to `v`?
    fn writes_to(&self, id: OpId, v: LocId) -> bool {
        let op = &self.ops[id.index()];
        op.kind.is_write_like() && op.on_loc(v)
    }

    /// Grow `set` into its past cone in `view`: every op `x` with
    /// `x ⪯ r` for some `r` in it.
    fn cone(&self, set: &mut OpSet, view: View) {
        for cur in (0..self.ops.len() as u32).rev().map(OpId) {
            if set.contains(cur) {
                for &(from, kind) in self.preds(cur) {
                    if view.sees(kind, self.owner(from, cur)) {
                        set.insert(from);
                    }
                }
            }
        }
    }

    /// The writes to `v` in `cone` (a past cone) that no other of them
    /// precedes in `view`. One sweep downwards marks every op strictly
    /// below a write of the cone; the writes left unmarked are maximal.
    fn maximal_writes(&self, cone: &OpSet, v: LocId, view: View) -> OpSet {
        let mut below = OpSet::new(self.ops.len());
        let mut last = OpSet::new(self.ops.len());
        for cur in (0..self.ops.len() as u32).rev().map(OpId) {
            let write = cone.contains(cur) && self.writes_to(cur, v);
            if write && !below.contains(cur) {
                last.insert(cur);
            }
            if write || below.contains(cur) {
                for &(from, kind) in self.preds(cur) {
                    if view.sees(kind, self.owner(from, cur)) {
                        below.insert(from);
                    }
                }
            }
        }
        last
    }

    /// Pass to `each`, in append order, the writes to `v` that some write
    /// of `last` reaches in `view`: Definition 12's readable set given the
    /// last writes. One sweep upwards grows the set reached from `last`.
    fn writes_after(&self, mut last: OpSet, v: LocId, view: View, mut each: impl FnMut(OpId)) {
        for cur in (0..self.ops.len() as u32).map(OpId) {
            let reached = last.contains(cur)
                || self.preds(cur).iter().any(|&(from, kind)| {
                    last.contains(from) && view.sees(kind, self.owner(from, cur))
                });
            if reached {
                last.insert(cur);
                if self.writes_to(cur, v) {
                    each(cur);
                }
            }
        }
    }

    /// The past cone of `o` in its process's view, without `o`.
    fn cone_before(&self, o: OpId) -> OpSet {
        let mut cone = OpSet::new(self.ops.len());
        cone.insert(o);
        self.cone(&mut cone, View::Proc(self.ops[o.index()].proc));
        cone.remove(o);
        cone
    }

    /// The *last writes* `W_o` before operation `o` (paper Definition 11):
    /// writes `a` to `loc(o)` with `a ≺ o` and no write `b` with
    /// `a ≺ b ≺ o`, in append order. Precedence is taken in the view of
    /// `o`'s process (the paper's `⪯p` shorthand; local orderings of the
    /// reader count).
    ///
    /// Never empty once the location is initialised: the initial operation
    /// is a write. `W` with more than one element signals a data race.
    pub fn last_writes(&self, o: OpId) -> Vec<OpId> {
        let op = self.ops[o.index()];
        let last = self.maximal_writes(&self.cone_before(o), op.loc, View::Proc(op.proc));
        self.ops().map(|(id, _)| id).filter(|&id| last.contains(id)).collect()
    }

    /// The set of writes whose value operation `o` may return (paper
    /// Definition 12), ignoring the cross-read monotonicity constraint
    /// (which depends on the reader's history and is enforced by
    /// `crate::exec_state::ModelState`): the last write(s), or any write
    /// to the same location ordered after a last write in the view of
    /// `o`'s process.
    pub fn readable_writes(&self, o: OpId) -> Vec<OpId> {
        let op = self.ops[o.index()];
        let view = View::Proc(op.proc);
        let last = self.maximal_writes(&self.cone_before(o), op.loc, view);
        let mut out = Vec::new();
        self.writes_after(last, op.loc, view, |w| out.push(w));
        out.retain(|&w| w != o);
        out
    }

    /// [`Self::readable_writes`] for a read by `p` of `v` appended now,
    /// computed without appending it and passed to `each` in append
    /// order. Every Table I edge into a read comes from an op issued by
    /// its process (or an initial op), so the read's past cone is that of
    /// its [`Self::rule_edges`] sources.
    pub(crate) fn readable_by_new_read(&self, p: ProcId, v: LocId, each: impl FnMut(OpId)) {
        let mut cone = OpSet::new(self.ops.len());
        self.rule_edges(&Op::read(p, v), |from, _| cone.insert(from));
        let view = View::Proc(p);
        self.cone(&mut cone, view);
        let last = self.maximal_writes(&cone, v, view);
        self.writes_after(last, v, view, each);
    }

    /// All pairs of globally-unordered writes to the same location
    /// (potential data races, cf. Definition 11's discussion: for a
    /// deterministic application all writes to a single location must be
    /// in total order).
    pub fn write_write_races(&self) -> Vec<(OpId, OpId)> {
        let mut races = Vec::new();
        let mut by_loc: HashMap<LocId, Vec<OpId>> = HashMap::new();
        for (id, op) in self.ops() {
            if op.kind == OpKind::Write {
                by_loc.entry(op.loc).or_default().push(id);
            }
        }
        for (_v, writes) in by_loc {
            for i in 0..writes.len() {
                for j in (i + 1)..writes.len() {
                    let (a, b) = (writes[i], writes[j]);
                    if !self.reaches(a, b, View::Global) && !self.reaches(b, a, View::Global) {
                        races.push((a, b));
                    }
                }
            }
        }
        races
    }
}

/// A set of ops as a bitset: on the stack for executions of up to 512
/// ops, so that the queries above allocate nothing on litmus-sized
/// executions, and on the heap beyond.
struct OpSet {
    inline: [u64; 8],
    spilled: Vec<u64>,
}

impl OpSet {
    /// The empty set over ops `0..len`.
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        let spilled = if words > 8 { vec![0; words] } else { Vec::new() };
        OpSet { inline: [0; 8], spilled }
    }

    fn words(&self) -> &[u64] {
        if self.spilled.is_empty() {
            &self.inline
        } else {
            &self.spilled
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.spilled.is_empty() {
            &mut self.inline
        } else {
            &mut self.spilled
        }
    }

    fn contains(&self, id: OpId) -> bool {
        self.words()[id.index() / 64] >> (id.0 % 64) & 1 != 0
    }

    fn insert(&mut self, id: OpId) {
        self.words_mut()[id.index() / 64] |= 1 << (id.0 % 64);
    }

    fn remove(&mut self, id: OpId) {
        self.words_mut()[id.index() / 64] &= !(1 << (id.0 % 64));
    }
}

/// Where `k` is, or would go, in the sorted map `map`.
pub(crate) fn find<K: Ord + Copy, V>(map: &[(K, V)], k: K) -> Result<usize, usize> {
    map.binary_search_by_key(&k, |&(key, _)| key)
}

/// A memo-key field: a count or offset, which must fit in 32 bits.
pub(crate) fn count(n: usize) -> u32 {
    u32::try_from(n).expect("memo key field exceeds 32 bits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{LocId as L, ProcId as P};

    const P0: P = P(0);
    const P1: P = P(1);
    const X: L = L(0);

    /// Paper Fig. 2: two writes by one process to one location are in
    /// program order (and ordered after the initial write).
    #[test]
    fn fig2_program_order_of_two_writes() {
        let mut e = Execution::new(EdgeMode::Full);
        let w1 = e.write(P0, X, 1);
        let w2 = e.write(P0, X, 2);
        let init = e.init_op(X).unwrap();
        assert!(e.precedes(init, w1, View::Global));
        assert!(e.precedes(w1, w2, View::Global));
        // The direct edge is ≺P.
        assert!(e.preds(w2).contains(&(w1, OrderKind::Program)));
        assert!(e.preds(w2).contains(&(init, OrderKind::Program)));
    }

    /// Paper Fig. 3: a read between two writes is ordered locally
    /// (`X=1 ≺ℓ X? ≺ℓ X=2`), and the two writes in program order.
    #[test]
    fn fig3_local_order_of_a_read() {
        let mut e = Execution::new(EdgeMode::Full);
        let w1 = e.write(P0, X, 1);
        let r = e.read(P0, X, 1);
        let w2 = e.write(P0, X, 2);
        assert!(e.preds(r).contains(&(w1, OrderKind::Local)));
        assert!(e.preds(w2).contains(&(r, OrderKind::Local)));
        assert!(e.preds(w2).contains(&(w1, OrderKind::Program)));
        // The read edges are invisible globally...
        assert!(!e.precedes(r, w2, View::Global));
        assert!(!e.precedes(w1, r, View::Global));
        // ...but visible to the executing process.
        assert!(e.precedes(r, w2, View::Proc(P0)));
        assert!(e.precedes(w1, r, View::Proc(P0)));
        // Another process does not observe the read's position.
        assert!(!e.precedes(r, w2, View::Proc(P1)));
    }

    /// Paper Fig. 4: exclusive access with two processes; the release of
    /// process 2 is `≺S`-ordered before the acquire of process 1.
    #[test]
    fn fig4_exclusive_access_interleaving() {
        let mut e = Execution::new(EdgeMode::Full);
        e.ensure_init(X, 0);
        // Process 2 gets the lock first (the interleaving depicted).
        let a2 = e.acquire(P1, X);
        let w1 = e.write(P1, X, 1);
        let w2 = e.write(P1, X, 2);
        let r2 = e.release(P1, X);
        let a1 = e.acquire(P0, X);
        let rd = e.read(P0, X, 2);
        let r1 = e.release(P0, X);

        let init = e.init_op(X).unwrap();
        // ≺S from the initial (release-like) op to the first acquire and
        // from process 2's release to process 1's acquire.
        assert!(e.preds(a2).contains(&(init, OrderKind::Sync)));
        assert!(e.preds(a1).contains(&(r2, OrderKind::Sync)));
        // Program order inside the critical sections.
        assert!(e.preds(w1).contains(&(a2, OrderKind::Program)));
        assert!(e.preds(w2).contains(&(w1, OrderKind::Program)));
        assert!(e.preds(r2).contains(&(w2, OrderKind::Program)));
        // Local order of the read.
        assert!(e.preds(rd).contains(&(a1, OrderKind::Local)));
        assert!(e.preds(r1).contains(&(rd, OrderKind::Local)));
        // Every observer agrees the critical sections are ordered.
        assert!(e.precedes(w2, a1, View::Global));
        assert!(e.precedes(a2, r1, View::Global));
        // The read can only return the last write: W = {w2}.
        assert_eq!(e.last_writes(rd), vec![w2]);
        // Definition 12: readable values = {2} (nothing written after w2).
        assert_eq!(e.readable_writes(rd), vec![w2]);
    }

    /// Paper Fig. 5 / Fig. 6: the message-passing pattern. The chain
    /// `A(X) ≺F F ≺F A(f) ≺P w(f)=1` is global; after process 2 observes
    /// the flag, a fence and the acquire of X guarantee it reads 42.
    #[test]
    fn fig5_message_passing_chain() {
        let mut e = Execution::new(EdgeMode::Full);
        e.ensure_init(X, 0);
        let f = L(1);
        e.ensure_init(f, 0);
        // Process 1: acquire X; X=42; fence; release X; acquire f; f=1; release f.
        let ax = e.acquire(P0, X);
        let wx = e.write(P0, X, 42);
        let f1 = e.fence(P0);
        let rx = e.release(P0, X);
        let af = e.acquire(P0, f);
        let wf = e.write(P0, f, 1);
        let _rf = e.release(P0, f);
        // Process 2: polls f (reads 1), fence, acquire X, read X, release X.
        let rdf = e.read(P1, f, 1);
        let f2 = e.fence(P1);
        let ax2 = e.acquire(P1, X);
        let rdx = e.read(P1, X, 42);
        let rx2 = e.release(P1, X);

        // Process 1 edges (cf. the figure):
        assert!(e.preds(wx).contains(&(ax, OrderKind::Program)));
        assert!(e.preds(f1).contains(&(wx, OrderKind::Local)));
        assert!(e.preds(f1).contains(&(ax, OrderKind::Fence)));
        // Table I's fence row has no release column: no direct edge f1→rx.
        assert!(!e.preds(rx).iter().any(|&(from, _)| from == f1));
        assert!(e.preds(af).contains(&(f1, OrderKind::Fence)));
        assert!(e.preds(wf).contains(&(af, OrderKind::Program)));
        // Process 2 edges:
        assert!(e.preds(f2).contains(&(rdf, OrderKind::Local)));
        assert!(e.preds(ax2).contains(&(f2, OrderKind::Fence)));
        assert!(e.preds(ax2).contains(&(rx, OrderKind::Sync)));
        assert!(e.preds(rdx).contains(&(ax2, OrderKind::Local)));
        assert!(e.preds(rx2).contains(&(ax2, OrderKind::Program)));

        // The global guarantee: X=42 precedes process 2's read cone, so
        // the read of X can only return 42.
        assert_eq!(e.last_writes(rdx), vec![wx]);
        assert_eq!(e.readable_writes(rdx), vec![wx]);
        // And the flag write is globally after the acquire of X by p1.
        assert!(e.precedes(ax, wf, View::Global));
    }

    /// Oops-check for the fence→release cell: Table I's fence row has no
    /// entry in the release column, so the assertion above must have used
    /// a different path. Make the absence explicit.
    #[test]
    fn fence_row_has_no_release_column() {
        let mut e = Execution::new(EdgeMode::Full);
        e.ensure_init(X, 0);
        let a = e.acquire(P0, X);
        let f = e.fence(P0);
        let r = e.release(P0, X);
        // No direct fence→release edge...
        assert!(!e.preds(r).iter().any(|&(from, _)| from == f));
        // ...but the release is still globally after the acquire (≺P).
        assert!(e.precedes(a, r, View::Global));
        let _ = f;
    }

    /// Writes of one process to *different* locations are unordered
    /// globally (the crux of Fig. 1's broken program).
    #[test]
    fn writes_to_different_locations_unordered() {
        let mut e = Execution::new(EdgeMode::Full);
        let y = L(1);
        let wx = e.write(P0, X, 42);
        let wy = e.write(P0, y, 1);
        assert!(!e.precedes(wx, wy, View::Global));
        assert!(!e.precedes(wy, wx, View::Global));
        // Not even locally: Table I only orders same-location accesses,
        // and no fence was issued.
        assert!(!e.precedes(wx, wy, View::Proc(P0)));
    }

    /// ... but a fence between them creates the cross-location chain the
    /// annotated program of Fig. 6 relies on (via acquire/release).
    #[test]
    fn fence_orders_across_locations_via_sync_ops() {
        let mut e = Execution::new(EdgeMode::Full);
        let y = L(1);
        e.ensure_init(X, 0);
        e.ensure_init(y, 0);
        let ax = e.acquire(P0, X);
        let _wx = e.write(P0, X, 42);
        let fence = e.fence(P0);
        let _rx = e.release(P0, X);
        let _ay = e.acquire(P0, y);
        let wy = e.write(P0, y, 1);
        // acquire(X) ≺F fence ≺F acquire(y) ≺P write(y): global chain.
        assert!(e.precedes(ax, wy, View::Global));
        let _ = fence;
    }

    /// Unsynchronised concurrent writes to one location are flagged as a
    /// race; properly locked writes are not.
    #[test]
    fn race_detection() {
        let mut e = Execution::new(EdgeMode::Full);
        e.write(P0, X, 1);
        e.write(P1, X, 2);
        assert_eq!(e.write_write_races().len(), 1);

        let mut e = Execution::new(EdgeMode::Full);
        e.acquire(P0, X);
        e.write(P0, X, 1);
        e.release(P0, X);
        e.acquire(P1, X);
        e.write(P1, X, 2);
        e.release(P1, X);
        assert!(e.write_write_races().is_empty());
    }

    /// A read with no synchronisation towards concurrent writes falls
    /// back to the initial write as its unique last-write, yet may return
    /// either racy value per Definition 12 (slow propagation).
    #[test]
    fn unsynced_read_falls_back_to_init() {
        let mut e = Execution::new(EdgeMode::Full);
        let w0 = e.write(P0, X, 1);
        let w1 = e.write(P1, X, 2);
        // A third process reads; both writes are unordered before it...
        // (no sync at all: actually neither write precedes the read in
        // p2's view, so W falls back to the initial write).
        let r = e.read(P(2), X, 0);
        let lw = e.last_writes(r);
        assert_eq!(lw, vec![e.init_op(X).unwrap()]);
        // Definition 12: the read may nevertheless return either racy
        // write (they are ordered after the initial write).
        let readable = e.readable_writes(r);
        assert!(readable.contains(&w0) && readable.contains(&w1));
    }
}
