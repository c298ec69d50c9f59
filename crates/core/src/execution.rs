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

use crate::op::{LocId, Op, OpId, OpKind, ProcId};
use crate::order::{OrderKind, View};
use crate::table1::{rules_for_existing, Rule, RuleScope};

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

/// An execution `E = (P, V, O, ≺)` under construction (paper
/// Definition 1). `P` and `V` grow implicitly as operations mention new
/// processes/locations; every location receives its initial
/// write-and-release operation on first use (Definition 3).
#[derive(Debug, Clone)]
pub struct Execution {
    ops: Vec<Op>,
    /// Incoming edges per op (from older ops only).
    preds: Vec<Vec<(OpId, OrderKind)>>,
    /// Outgoing edges per op (to newer ops only).
    succs: Vec<Vec<(OpId, OrderKind)>>,
    /// Initial op per location (created lazily).
    init: HashMap<LocId, OpId>,
    /// All ops per location (rule matching); fences are not included
    /// here.
    by_loc: HashMap<LocId, Vec<OpId>>,
    /// All fences per process (rule matching).
    fences_by_proc: HashMap<ProcId, Vec<OpId>>,
}

impl Default for Execution {
    fn default() -> Self {
        Self::new(EdgeMode::Full)
    }
}

impl Execution {
    pub fn new(_mode: EdgeMode) -> Self {
        Execution {
            ops: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            init: HashMap::new(),
            by_loc: HashMap::new(),
            fences_by_proc: HashMap::new(),
        }
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
    #[cfg(test)]
    pub(crate) fn preds(&self, id: OpId) -> &[(OpId, OrderKind)] {
        &self.preds[id.index()]
    }

    /// Outgoing edges of `id` (targets are strictly newer operations).
    pub(crate) fn succs(&self, id: OpId) -> &[(OpId, OrderKind)] {
        &self.succs[id.index()]
    }

    pub(crate) fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.preds.iter().enumerate().flat_map(|(to, preds)| {
            preds.iter().map(move |&(from, kind)| Edge { from, to: OpId(to as u32), kind })
        })
    }

    /// The initial operation of a location, if the location has been used.
    #[cfg(test)]
    pub(crate) fn init_op(&self, v: LocId) -> Option<OpId> {
        self.init.get(&v).copied()
    }

    /// Ensure the initial write-and-release op of Definition 3 exists for
    /// location `v`, with the given initial value.
    pub fn ensure_init(&mut self, v: LocId, value: u32) -> OpId {
        if let Some(&id) = self.init.get(&v) {
            return id;
        }
        let id = self.push_raw(Op::init(v, value));
        self.init.insert(v, id);
        id
    }

    fn push_raw(&mut self, op: Op) -> OpId {
        let id = OpId(self.ops.len() as u32);
        if op.kind == OpKind::Fence {
            self.fences_by_proc.entry(op.proc).or_default().push(id);
        } else {
            self.by_loc.entry(op.loc).or_default().push(id);
        }
        self.ops.push(op);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    fn add_edge(&mut self, from: OpId, to: OpId, kind: OrderKind) {
        debug_assert!(from.0 < to.0, "edges must point from older to newer ops");
        if self.preds[to.index()].iter().any(|&(f, k)| f == from && k == kind) {
            return;
        }
        self.preds[to.index()].push((from, kind));
        self.succs[from.index()].push((to, kind));
    }

    /// Execute an operation: append it and apply the ordering rules of
    /// Table I against all matching existing operations (Definition 4).
    /// Locations touched for the first time get their initial operation
    /// first (with initial value 0).
    pub(crate) fn execute(&mut self, op: Op) -> OpId {
        if op.kind != OpKind::Fence {
            self.ensure_init(op.loc, 0);
        }
        let id = self.push_raw(op);
        self.apply_rules_full(id);
        id
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

    fn apply_rule_if_matching(&mut self, existing: OpId, new: OpId) {
        let e = self.ops[existing.index()];
        let n = self.ops[new.index()];
        // A new fence spans every location of its process (Definition 8):
        // the same-location requirement of the read/write/acquire/release
        // rows is satisfied for any existing location.
        let new_is_fence = n.kind == OpKind::Fence;
        let rules: Vec<Rule> = rules_for_existing(e.kind, n.kind).collect();
        for rule in rules {
            let matches = match rule.scope {
                RuleScope::SameProcSameLoc => {
                    e.issued_by(n.proc) && (new_is_fence || e.on_loc(n.loc))
                }
                RuleScope::AnyProcSameLoc => e.on_loc(n.loc),
                RuleScope::SameProcAnyLoc => e.issued_by(n.proc),
            };
            if matches {
                self.add_edge(existing, new, rule.kind);
            }
        }
    }

    fn apply_rules_full(&mut self, new: OpId) {
        let n = self.ops[new.index()];
        // Candidate existing ops: everything on the same location, plus
        // fences of the same process. For a new fence, everything by the
        // same process (all locations) plus its earlier fences.
        let mut candidates: Vec<OpId> = Vec::new();
        if n.kind == OpKind::Fence {
            for (v, ids) in &self.by_loc {
                let _ = v;
                candidates.extend(
                    ids.iter()
                        .copied()
                        .filter(|id| *id != new && self.ops[id.index()].issued_by(n.proc)),
                );
            }
        } else {
            if let Some(ids) = self.by_loc.get(&n.loc) {
                candidates.extend(ids.iter().copied().filter(|id| *id != new));
            }
        }
        if let Some(fences) = self.fences_by_proc.get(&n.proc) {
            candidates.extend(fences.iter().copied().filter(|id| *id != new));
        }
        // Init ops are issued by PROC_ALL and already included via by_loc.
        candidates.sort_unstable_by_key(|id| id.0);
        candidates.dedup();
        for existing in candidates {
            self.apply_rule_if_matching(existing, new);
        }
    }

    /// Does `a ⪯ b` hold in the given view? (Reflexive; `a ≺ b` for
    /// strict precedence with `a != b`.) Implemented as a backward BFS
    /// from `b` over edges visible in `view`.
    pub(crate) fn reaches(&self, a: OpId, b: OpId, view: View) -> bool {
        if a == b {
            return true;
        }
        if a.0 > b.0 {
            return false; // edges only point forward in append order
        }
        let mut seen = vec![false; b.index() + 1];
        let mut stack = vec![b];
        seen[b.index()] = true;
        while let Some(cur) = stack.pop() {
            for &(from, kind) in &self.preds[cur.index()] {
                let owner = self.ops[from.index()].proc;
                // Local edges connect two ops of one process; for init ops
                // (pseudo-process) the owner is the target's process.
                let owner =
                    if owner == crate::op::PROC_ALL { self.ops[cur.index()].proc } else { owner };
                if !view.sees(kind, owner) {
                    continue;
                }
                if from == a {
                    return true;
                }
                if from.0 > a.0 && !seen[from.index()] {
                    seen[from.index()] = true;
                    stack.push(from);
                }
            }
        }
        false
    }

    /// Strict precedence `a ≺ b` in the given view.
    pub fn precedes(&self, a: OpId, b: OpId, view: View) -> bool {
        a != b && self.reaches(a, b, view)
    }

    /// All operations `x` with `x ⪯ b` in `view` (the past cone of `b`),
    /// including `b` itself.
    pub(crate) fn past_cone(&self, b: OpId, view: View) -> Vec<OpId> {
        let mut seen = vec![false; b.index() + 1];
        let mut stack = vec![b];
        let mut out = vec![b];
        seen[b.index()] = true;
        while let Some(cur) = stack.pop() {
            for &(from, kind) in &self.preds[cur.index()] {
                let owner = self.ops[from.index()].proc;
                let owner =
                    if owner == crate::op::PROC_ALL { self.ops[cur.index()].proc } else { owner };
                if !view.sees(kind, owner) || seen[from.index()] {
                    continue;
                }
                seen[from.index()] = true;
                out.push(from);
                stack.push(from);
            }
        }
        out
    }

    /// The *last writes* `W_o` before operation `o` (paper Definition 11):
    /// writes `a` to `loc(o)` with `a ≺ o` and no write `b` with
    /// `a ≺ b ≺ o`. Precedence is taken in the view of `o`'s process
    /// (the paper's `⪯p` shorthand; local orderings of the reader count).
    ///
    /// Never empty once the location is initialised: the initial operation
    /// is a write. `W` with more than one element signals a data race.
    pub fn last_writes(&self, o: OpId) -> Vec<OpId> {
        let op = self.ops[o.index()];
        let view = View::Proc(op.proc);
        let cone = self.past_cone(o, view);
        let writes: Vec<OpId> = cone
            .into_iter()
            .filter(|&x| {
                x != o
                    && self.ops[x.index()].kind.is_write_like()
                    && self.ops[x.index()].on_loc(op.loc)
            })
            .collect();
        // Maximal elements: no other write in the set strictly after them.
        writes
            .iter()
            .copied()
            .filter(|&a| !writes.iter().any(|&b| b != a && self.precedes(a, b, view)))
            .collect()
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
        let last = self.last_writes(o);
        let mut out: Vec<OpId> = Vec::new();
        for (id, cand) in self.ops() {
            if id == o || !cand.kind.is_write_like() || !cand.on_loc(op.loc) {
                continue;
            }
            if last.iter().any(|&a| self.reaches(a, id, view)) {
                out.push(id);
            }
        }
        out.sort_unstable_by_key(|id| id.0);
        out.dedup();
        out
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
