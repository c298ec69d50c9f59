//! Bounded-exhaustive enumeration of litmus-program outcomes under PMC.
//!
//! The enumerator explores
//!
//! 1. **out-of-order issue within each thread** — the platform (compiler,
//!    out-of-order core, interconnect) may execute a process's operations
//!    in any order that respects the intra-process dependencies Table I
//!    creates. This is the heart of the PMC approach: a later acquire on a
//!    *different* location may overtake a polling loop unless a fence
//!    intervenes (exactly the reordering the paper's Fig. 5 fence at
//!    line 11 exists to prevent);
//! 2. **all interleavings across threads**;
//! 3. **every read value Definition 12 allows** at each read.
//!
//! The result is the exact set of outcomes the PMC model permits — used to
//! reproduce the paper's reasoning (Figs. 1–6) and to validate that the
//! simulated architectures never produce an outcome outside this set.

use std::collections::BTreeSet;

use crate::exec_state::ModelState;
use crate::execution::{count, EdgeMode};
use crate::litmus::{Instr, Program, Reg};
use crate::op::{LocId, OpId, OpKind, ProcId, Value};
use crate::table1;

/// An outcome: for each thread, the final value of each of its registers.
pub type Outcome = Vec<Vec<Value>>;

/// Enumeration limits, to keep racy programs tractable.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of explored states (DFS nodes). Exceeding it is a
    /// hard error: a truncated outcome set would silently weaken the
    /// soundness harness.
    pub max_states: usize,
    /// Opt-in visited-state memoization: prune DFS nodes whose canonical
    /// state (`crate::exec_state::ModelState::write_key` plus program
    /// position and registers) has already been explored. Two
    /// interleavings of independent steps converge on one canonical
    /// state, so the pruned subtree's outcomes are exactly the ones the
    /// first visit produces — the outcome set is unchanged (see the
    /// `memoization_preserves_outcome_sets` test) while the explored
    /// state count can drop by orders of magnitude on wide programs.
    pub memoize: bool,
    /// Opt-in partial-order reduction via location-disjoint ample sets.
    ///
    /// At each DFS node the enumerator looks for a *safe* step: one whose
    /// touched locations are disjoint from every remaining instruction of
    /// every other thread, and whose order-sensitive same-thread
    /// neighbours are all gated by a text-order Table I dependency. Such
    /// a step commutes with everything that could run before it — the
    /// only cross-process couplings in PMC are same-location (the ≺S
    /// release→acquire rule, the lock table, read candidacy), and fences
    /// are per-process — so exploring *only* that step (a singleton
    /// persistent set; the state space of a straight-line litmus program
    /// is acyclic, so the ignoring problem cannot arise) preserves the
    /// set of completed-run outcomes. Safety is checked in both rule
    /// directions because Table I is asymmetric: a release may overtake
    /// an earlier fence (the `(F, R)` cell is empty) and an acquire may
    /// overtake plain accesses of its location, so a candidate is unsafe
    /// whenever a remaining neighbour could still legally run on either
    /// side of it. Outcome preservation over the whole conformance
    /// catalogue is pinned by `por_preserves_outcome_sets` and
    /// differentially re-checked per fuzzed program by `tests/fuzz.rs`.
    ///
    /// Composes with [`Limits::memoize`]: the ample choice is a pure
    /// function of the node, so the reduced transition relation is
    /// state-deterministic and visited-state pruning stays sound (unlike
    /// sleep sets, whose per-path sleep state is notoriously unsound to
    /// combine with naive state caching).
    pub por: bool,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 20_000_000, memoize: false, por: false }
    }
}

impl Limits {
    /// Default limits with memoization enabled.
    pub fn memoized() -> Self {
        Limits { memoize: true, ..Limits::default() }
    }

    /// Default limits with both partial-order reduction and memoization —
    /// the cheapest sound configuration for sweep-sized programs.
    pub fn reduced_memoized() -> Self {
        Limits { por: true, memoize: true, ..Limits::default() }
    }
}

/// Error returned when the enumeration exceeds its state budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted;

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("litmus enumeration exceeded its state budget")
    }
}

impl std::error::Error for Exhausted {}

/// The operation signatures an instruction issues (fences and DMA waits
/// have no location). DMA transfers report the kind of their floating
/// data-movement operation: a put behaves like a write, a get like a
/// read, for intra-thread dependency purposes. A `DmaCopy` carries *two*
/// signatures — a read of the source and a write of the destination.
/// Allocation-free (this runs in the DFS's ready-check hot path): at
/// most two signatures, returned as a fixed array plus a length.
type Sigs = ([(OpKind, Option<LocId>); 2], usize);

fn instr_sigs(i: &Instr) -> Sigs {
    let one = |k, l| ([(k, l), (OpKind::Fence, None)], 1);
    match i {
        Instr::Write(v, _) => one(OpKind::Write, Some(*v)),
        Instr::Read(v, _) => one(OpKind::Read, Some(*v)),
        Instr::WaitEq(v, _) => one(OpKind::Read, Some(*v)),
        Instr::Acquire(v) => one(OpKind::Acquire, Some(*v)),
        Instr::Release(v) => one(OpKind::Release, Some(*v)),
        Instr::Fence => one(OpKind::Fence, None),
        Instr::DmaPut(v, _) => one(OpKind::Write, Some(*v)),
        Instr::DmaGet(v, _) => one(OpKind::Read, Some(*v)),
        Instr::DmaCopy(s, d) => ([(OpKind::Read, Some(*s)), (OpKind::Write, Some(*d))], 2),
        Instr::DmaWait => one(OpKind::DmaComplete, None),
    }
}

/// Would Table I order instruction `a` before instruction `b` when both
/// are issued (in program-text order) by the same process? If so, the
/// platform must not reorder them; otherwise it may.
///
/// DMA extension: a transfer depends on earlier same-location accesses
/// (its issue point is program-ordered) and later same-location accesses
/// depend on it — where "on it" means on its *perform* step, which floats
/// until the thread's next [`Instr::DmaWait`]; the wait itself depends on
/// every outstanding transfer (and chains with fences and other waits).
pub(crate) fn intra_thread_dep(a: &Instr, b: &Instr) -> bool {
    // DmaWait rows/columns: the wait orders after every earlier DMA
    // transfer of the thread (any location), chains with earlier waits,
    // and fences order both ways. Later transfers start after the wait
    // (per-tile engines are FIFO).
    if matches!(b, Instr::DmaWait) {
        return a.is_dma_transfer() || matches!(a, Instr::Fence | Instr::DmaWait);
    }
    if matches!(a, Instr::DmaWait) {
        return b.is_dma_transfer() || matches!(b, Instr::Fence);
    }
    // Any signature pair triggering a Table I rule orders the pair (a
    // `DmaCopy` contributes a read of its source *and* a write of its
    // destination).
    let (sigs_a, na) = instr_sigs(a);
    let (sigs_b, nb) = instr_sigs(b);
    for &(ka, la) in &sigs_a[..na] {
        for &(kb, lb) in &sigs_b[..nb] {
            let dep = match table1::rule(ka, kb) {
                None => false,
                Some(rule) => match rule.scope {
                    // Same-process rows require the same location — except
                    // when the *new* op is a fence, which spans all
                    // locations.
                    table1::RuleScope::SameProcSameLoc => kb == OpKind::Fence || la == lb,
                    // release → acquire (≺S): same location.
                    table1::RuleScope::AnyProcSameLoc => la == lb,
                    // fence rows span all locations.
                    table1::RuleScope::SameProcAnyLoc => true,
                },
            };
            if dep {
                return true;
            }
        }
    }
    false
}

/// Every location instruction `idx` of `thread` can touch across both of
/// its phases: its signature locations, plus — for a [`Instr::DmaWait`],
/// whose signature is location-free but whose execution marks the
/// completion of every open transfer — the locations those transfers
/// touch, sorted and without repeats: the locations the wait completes.
///
/// The transfers a wait completes are every DMA transfer instruction
/// after the previous wait (static — waits issue in program order thanks
/// to the wait-chains-with-wait dependency).
fn instr_locs(thread: &[Instr], idx: usize) -> Vec<LocId> {
    let sig_locs = |i: usize| {
        let (sigs, n) = instr_sigs(&thread[i]);
        sigs.into_iter().take(n).filter_map(|(_, l)| l)
    };
    match thread[idx] {
        Instr::DmaWait => {
            let prev_wait = thread[..idx]
                .iter()
                .rposition(|i| matches!(i, Instr::DmaWait))
                .map_or(0, |p| p + 1);
            let mut locs: Vec<LocId> = (prev_wait..idx)
                .filter(|&j| thread[j].is_dma_transfer())
                .flat_map(sig_locs)
                .collect();
            locs.sort_unstable();
            locs.dedup();
            locs
        }
        _ => sig_locs(idx).collect(),
    }
}

/// Can the relative execution order of two instructions of one thread
/// matter? Either a Table I dependency exists in *some* direction (the
/// table is asymmetric: `release → fence` orders but `fence → release`
/// does not, so a release may overtake an earlier fence and the two
/// orders build different graphs), or the instructions share a location
/// (reads of one location interact through the monotonicity floor and
/// DMA markers even where the table has no cell).
fn order_sensitive(thread: &[Instr], i: usize, j: usize) -> bool {
    intra_thread_dep(&thread[i], &thread[j]) || intra_thread_dep(&thread[j], &thread[i]) || {
        let a = instr_locs(thread, i);
        instr_locs(thread, j).iter().any(|l| a.contains(l))
    }
}

/// Which of an instruction's two phases a DFS step executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Issue in (possibly reordered) program order.
    Issue,
    /// The floating data movement of an issued DMA transfer.
    Perform,
}

/// The partial-order-reduction decision at a node.
enum PorChoice {
    /// A safe, enabled step was found: explore only it.
    Step(usize, usize, Phase),
    /// A safe step exists but is permanently disabled (its locations are
    /// private to its thread and its dependencies are met, so nothing can
    /// ever enable it): the thread can never complete, hence no completed
    /// run — and no outcome — exists below this node.
    Stuck,
    /// No safe step: fall back to full branching.
    Full,
}

struct Search<'p> {
    program: &'p Program,
    limits: Limits,
    states: usize,
    outcomes: BTreeSet<Outcome>,
    /// Canonical states already explored (memoization, opt-in).
    seen: Option<MemoSet>,
    /// Scratch buffer the memo key of each node is written into.
    key: Vec<u32>,
    /// Memo keys in the sort-based form, checked to agree with `seen`.
    #[cfg(test)]
    key_oracle: Option<std::collections::HashSet<Vec<u64>>>,
    /// The read candidates of every [`Search::explore_reads`] on the DFS
    /// path, each level's above its caller's.
    cands: Vec<(OpId, Value)>,
    /// Static per-instruction footprints (`instr_locs`) — they depend
    /// only on program text. The POR safety check reads them on every DFS
    /// node, and a `DmaWait` issues a completion for each of its
    /// locations.
    locs: Vec<Vec<Vec<LocId>>>,
    /// Static per-thread order-sensitivity matrices (`sensitive[t][i *
    /// len + j]`), precomputed for the same reason.
    sensitive: Vec<Vec<bool>>,
}

/// The DFS state. The search keeps exactly one: a step applies one
/// instruction to it, explores the subtree, and undoes what it did
/// ([`Search::step`]).
struct Node {
    model: ModelState,
    /// Issued-instruction flags, per thread.
    issued: Vec<Vec<bool>>,
    /// Perform flags: for DMA transfers, whether the floating data
    /// movement has executed; for every other instruction, equal to
    /// `issued` (single-phase).
    performed: Vec<Vec<bool>>,
    regs: Vec<Vec<Value>>,
}

impl Node {
    /// Instruction `idx` of thread `t` is ready to *issue* when every
    /// earlier instruction it depends on (per Table I) has completed —
    /// for DMA transfers, completion means the perform step, not just the
    /// issue.
    fn ready(&self, program: &Program, t: usize, idx: usize) -> bool {
        if self.issued[t][idx] {
            return false;
        }
        let thread = &program.threads[t];
        (0..idx).all(|j| self.performed[t][j] || !intra_thread_dep(&thread[j], &thread[idx]))
    }

    /// Append the canonical memoization key to `key`: model state +
    /// program position + registers.
    fn write_key(&self, key: &mut Vec<u32>) {
        self.model.write_key(key);
        for flags in [&self.issued, &self.performed] {
            for thread in flags {
                // Pack into as many words as the thread needs — thread
                // lengths are fixed per program, so the key layout is
                // stable and long (≥ 32-instruction) threads cannot
                // alias.
                for chunk in thread.chunks(32) {
                    key.push(chunk.iter().enumerate().fold(0, |w, (i, &b)| w | u32::from(b) << i));
                }
            }
        }
        for regs in &self.regs {
            key.extend_from_slice(regs);
        }
    }
}

/// Enumerate every outcome of `program` that the PMC model allows.
pub fn outcomes(program: &Program) -> Result<BTreeSet<Outcome>, Exhausted> {
    outcomes_with(program, Limits::default())
}

/// As [`outcomes`], with explicit limits.
pub fn outcomes_with(program: &Program, limits: Limits) -> Result<BTreeSet<Outcome>, Exhausted> {
    outcomes_counted(program, limits).map(|(outs, _)| outs)
}

/// As [`outcomes_with`], additionally returning the number of DFS states
/// explored (memoization-pruned nodes count once).
pub fn outcomes_counted(
    program: &Program,
    limits: Limits,
) -> Result<(BTreeSet<Outcome>, usize), Exhausted> {
    Search::new(program, limits).run()
}

impl<'p> Search<'p> {
    fn new(program: &'p Program, limits: Limits) -> Self {
        let locs = program
            .threads
            .iter()
            .map(|t| (0..t.len()).map(|i| instr_locs(t, i)).collect())
            .collect();
        let sensitive = if limits.por {
            program
                .threads
                .iter()
                .map(|t| {
                    let n = t.len();
                    let mut m = vec![false; n * n];
                    for i in 0..n {
                        for j in 0..n {
                            m[i * n + j] = order_sensitive(t, i, j);
                        }
                    }
                    m
                })
                .collect()
        } else {
            Vec::new()
        };
        Search {
            program,
            limits,
            states: 0,
            outcomes: BTreeSet::new(),
            seen: limits.memoize.then(MemoSet::new),
            key: Vec::new(),
            #[cfg(test)]
            key_oracle: None,
            cands: Vec::new(),
            locs,
            sensitive,
        }
    }

    /// Explore from the program's initial state; return the outcomes and
    /// the number of states explored.
    fn run(mut self) -> Result<(BTreeSet<Outcome>, usize), Exhausted> {
        let program = self.program;
        let mut model = ModelState::new(EdgeMode::Full);
        for &(v, value) in &program.init {
            model.init(v, value);
        }
        let regs = (0..program.threads.len()).map(|t| vec![0; program.reg_count(t)]).collect();
        let issued: Vec<Vec<bool>> = program.threads.iter().map(|t| vec![false; t.len()]).collect();
        self.dfs(&mut Node { model, performed: issued.clone(), issued, regs })?;
        Ok((self.outcomes, self.states))
    }

    /// Explore every run below `node` and leave `node` as it was (unless
    /// the state budget runs out, which ends the search).
    fn dfs(&mut self, node: &mut Node) -> Result<(), Exhausted> {
        self.states += 1;
        if self.states > self.limits.max_states {
            return Err(Exhausted);
        }
        if let Some(seen) = &mut self.seen {
            self.key.clear();
            node.write_key(&mut self.key);
            let fresh = seen.insert(&self.key);
            #[cfg(test)]
            if let Some(oracle) = &mut self.key_oracle {
                assert_eq!(fresh, oracle.insert(node.sorted_key()), "memo keys disagree");
            }
            if !fresh {
                // Already explored from an equivalent state: the pruned
                // subtree's outcomes are exactly the first visit's.
                return Ok(());
            }
        }
        if self.limits.por {
            match self.por_choice(node) {
                PorChoice::Step(t, idx, Phase::Perform) => {
                    self.explore_perform(node, t, idx)?;
                    return Ok(());
                }
                PorChoice::Step(t, idx, Phase::Issue) => {
                    self.explore_issue(node, t, idx)?;
                    return Ok(());
                }
                PorChoice::Stuck => return Ok(()),
                PorChoice::Full => {}
            }
        }
        let mut any_step = false;
        for t in 0..self.program.threads.len() {
            let thread = &self.program.threads[t];
            // Perform steps: issued-but-unperformed DMA transfers may
            // execute their floating data movement at any point.
            for idx in 0..thread.len() {
                if node.issued[t][idx] && !node.performed[t][idx] {
                    any_step |= self.explore_perform(node, t, idx)?;
                }
            }
            for idx in 0..thread.len() {
                if node.ready(self.program, t, idx) {
                    any_step |= self.explore_issue(node, t, idx)?;
                }
            }
        }
        if !any_step {
            // Either all threads finished, or the remaining instructions
            // are permanently blocked (deadlock / unsatisfied wait) —
            // record only completed runs. Perform steps stay enabled
            // until taken, so a reachable leaf always has every transfer
            // performed too.
            let complete = node.issued.iter().all(|flags| flags.iter().all(|&done| done));
            if complete && !self.outcomes.contains(&node.regs) {
                self.outcomes.insert(node.regs.clone());
            }
        }
        Ok(())
    }

    /// Find the ample step at `node`, if any: the first candidate step (in
    /// thread, then perform-before-issue, then index order — a pure
    /// function of the node, which keeps memoization sound) that is
    /// *safe*: location-disjoint from every other thread's remaining
    /// instructions and dependency-gated against its own thread's
    /// order-sensitive neighbours.
    fn por_choice(&self, node: &Node) -> PorChoice {
        for t in 0..self.program.threads.len() {
            let thread = &self.program.threads[t];
            for idx in 0..thread.len() {
                let phase = if node.issued[t][idx] {
                    if node.performed[t][idx] {
                        continue;
                    }
                    Phase::Perform
                } else if node.ready(self.program, t, idx) {
                    Phase::Issue
                } else {
                    continue;
                };
                if !self.safe(node, t, idx) {
                    continue;
                }
                // A safe step's enabledness can never change again:
                // nothing outside this thread touches its locations, and
                // every in-thread enabler is dependency-ordered after it.
                // So a disabled safe step means the thread is permanently
                // blocked. The only disabledness that needs checking here
                // is a held lock — a read-shaped step with no candidates
                // simply explores zero branches below, which prunes the
                // same way. (A safe acquire's lock is in fact never held
                // on lock-balanced programs: a holder's future release
                // would share the location and break safety. The check
                // stays for robustness on unbalanced inputs.)
                return match &self.program.threads[t][idx] {
                    Instr::Acquire(v) if !node.model.can_acquire(*v) => PorChoice::Stuck,
                    _ => PorChoice::Step(t, idx, phase),
                };
            }
        }
        PorChoice::Full
    }

    /// Is the step at `(t, idx)` independent of everything that could run
    /// before it?
    fn safe(&self, node: &Node, t: usize, idx: usize) -> bool {
        let thread = &self.program.threads[t];
        let fp = &self.locs[t][idx];
        // Cross-thread: every coupling between processes in PMC is
        // same-location (≺S, the lock table, read candidacy; fences are
        // per-process), so location-disjointness from every remaining
        // instruction of every other thread is independence.
        for (u, other) in self.locs.iter().enumerate() {
            if u == t {
                continue;
            }
            for (j, other_fp) in other.iter().enumerate() {
                if !node.performed[u][j] && other_fp.iter().any(|l| fp.contains(l)) {
                    return false;
                }
            }
        }
        // Own thread: every remaining order-sensitive neighbour must be
        // gated by a text-order dependency — behind the step it must
        // already have performed for the step to be ready, ahead of it it
        // cannot issue until the step completes. An ungated sensitive
        // neighbour could legally run on either side, and the two orders
        // are not guaranteed to commute.
        let n = thread.len();
        for j in 0..n {
            if j == idx || node.performed[t][j] || !self.sensitive[t][idx * n + j] {
                continue;
            }
            let gated = if j < idx {
                intra_thread_dep(&thread[j], &thread[idx])
            } else {
                intra_thread_dep(&thread[idx], &thread[j])
            };
            if !gated {
                return false;
            }
        }
        true
    }

    /// Execute the floating data movement of the issued DMA transfer at
    /// `(t, idx)`, branching over every model-allowed sample. Returns
    /// whether any branch was taken.
    fn explore_perform(
        &mut self,
        node: &mut Node,
        t: usize,
        idx: usize,
    ) -> Result<bool, Exhausted> {
        let p = ProcId(t as u16);
        match self.program.threads[t][idx] {
            Instr::DmaPut(v, value) => self.step(node, t, idx, None, |n, _| {
                n.model.write(p, v, value);
                n.performed[t][idx] = true;
            }),
            // Sample the source (branching over every model-allowed
            // value) and write the destination at one floating point.
            Instr::DmaCopy(s, d) => self.explore_reads(node, t, idx, s, |n, value| {
                n.model.write(p, d, value);
                n.performed[t][idx] = true;
            }),
            // Like a plain read: branch over every model-allowed value at
            // the sample point.
            Instr::DmaGet(v, reg) => self.explore_reads(node, t, idx, v, |n, value| {
                n.regs[t][usize::from(reg.0)] = value;
                n.performed[t][idx] = true;
            }),
            ref other => unreachable!("{other:?} is single-phase"),
        }
    }

    /// Issue the instruction at `(t, idx)` (the caller has checked
    /// [`Node::ready`]), branching over read values where the model
    /// allows several. Returns whether any branch was taken.
    fn explore_issue(&mut self, node: &mut Node, t: usize, idx: usize) -> Result<bool, Exhausted> {
        let thread = &self.program.threads[t];
        let p = ProcId(t as u16);
        let done = move |n: &mut Node| {
            n.issued[t][idx] = true;
            n.performed[t][idx] = true;
        };
        match thread[idx] {
            Instr::Write(v, value) => self.step(node, t, idx, None, |n, _| {
                n.model.write(p, v, value);
                done(n);
            }),
            Instr::Fence => self.step(node, t, idx, None, |n, _| {
                n.model.fence(p);
                done(n);
            }),
            Instr::Acquire(v) if !node.model.can_acquire(v) => Ok(false),
            Instr::Acquire(v) => self.step(node, t, idx, None, |n, _| {
                n.model.acquire(p, v).expect("checked can_acquire");
                done(n);
            }),
            Instr::Release(v) => self.step(node, t, idx, None, |n, _| {
                n.model.release(p, v).expect("litmus programs are lock-balanced");
                done(n);
            }),
            // Branch over every model-allowed value (distinct writes of
            // equal values give one outcome).
            Instr::Read(v, reg) => self.explore_reads(node, t, idx, v, |n, value| {
                n.regs[t][usize::from(reg.0)] = value;
                done(n);
            }),
            // Enabled only when the awaited value is readable; eventual
            // visibility (liveness) is assumed, so paths where it is not
            // yet readable simply do not take this step.
            Instr::WaitEq(v, _) => self.explore_reads(node, t, idx, v, |n, _| done(n)),
            // Issue step only: the data movement floats as a separate
            // perform step (loop above).
            Instr::DmaPut(v, _) | Instr::DmaGet(v, _) => self.step(node, t, idx, None, |n, _| {
                n.model.dma_issue(p, v);
                n.issued[t][idx] = true;
            }),
            // Issue markers on both endpoints; the combined read/write
            // floats as one perform step.
            Instr::DmaCopy(s, d) => self.step(node, t, idx, None, |n, _| {
                n.model.dma_issue(p, s);
                n.model.dma_issue(p, d);
                n.issued[t][idx] = true;
            }),
            // Ready only once every outstanding transfer has performed
            // (intra-thread dependency); mark the completion of each
            // waited location.
            Instr::DmaWait => self.step(node, t, idx, None, |n, search| {
                for &v in &search.locs[t][idx] {
                    n.model.dma_complete(p, v);
                }
                done(n);
            }),
        }
    }

    /// Explore the successor `apply` makes of `node` by a step of
    /// instruction `idx` of thread `t`, then undo the step. `apply` may
    /// change the model, that instruction's issued and performed flags,
    /// and register `reg` of thread `t` — nothing else, since nothing
    /// else is restored — and may read the search's static tables.
    fn step(
        &mut self,
        node: &mut Node,
        t: usize,
        idx: usize,
        reg: Option<Reg>,
        apply: impl FnOnce(&mut Node, &Self),
    ) -> Result<bool, Exhausted> {
        let mark = node.model.mark();
        let flags = (node.issued[t][idx], node.performed[t][idx]);
        let reg = reg.map(|r| (usize::from(r.0), node.regs[t][usize::from(r.0)]));
        apply(node, self);
        self.dfs(node)?;
        node.model.undo(mark);
        (node.issued[t][idx], node.performed[t][idx]) = flags;
        if let Some((r, value)) = reg {
            node.regs[t][r] = value;
        }
        Ok(true)
    }

    /// Branch over every distinct value a read by thread `t` of `v` may
    /// return now (for a wait, only the awaited value), in ascending
    /// order: commit the read from the oldest candidate write holding the
    /// value, let `finish` complete instruction `idx`, and explore the
    /// result. Returns whether any branch was taken.
    fn explore_reads(
        &mut self,
        node: &mut Node,
        t: usize,
        idx: usize,
        v: LocId,
        finish: impl Fn(&mut Node, Value),
    ) -> Result<bool, Exhausted> {
        let p = ProcId(t as u16);
        // The register a read writes; the value a wait accepts.
        let (reg, only) = match self.program.threads[t][idx] {
            Instr::Read(_, reg) | Instr::DmaGet(_, reg) => (Some(reg), None),
            Instr::WaitEq(_, value) => (None, Some(value)),
            _ => (None, None),
        };
        // Computing candidates initialises `v`, which every branch's read
        // would do anyway; the mark undoes it once all branches are done.
        let mark = node.model.mark();
        // This level's candidates go on the shared stack above its
        // callers'; the levels below push theirs above these and pop
        // them before returning.
        let base = self.cands.len();
        node.model.push_read_candidates(p, v, &mut self.cands);
        // By value, then oldest first; keep the oldest write of each
        // value the instruction accepts.
        self.cands[base..].sort_unstable_by_key(|&(w, val)| (val, w));
        let mut end = base;
        for i in base..self.cands.len() {
            let value = self.cands[i].1;
            let first = i == base || self.cands[i - 1].1 != value;
            if first && only.is_none_or(|o| o == value) {
                self.cands[end] = self.cands[i];
                end += 1;
            }
        }
        self.cands.truncate(end);
        for i in base..end {
            let (from, value) = self.cands[i];
            self.step(node, t, idx, reg, |n, _| {
                n.model.read_from(p, v, from, value);
                finish(n, value);
            })?;
        }
        self.cands.truncate(base);
        node.model.undo(mark);
        Ok(end > base)
    }
}

/// Words per chunk of [`MemoSet`]'s key store (64 KiB).
const CHUNK: usize = 1 << 14;

/// No key: the end of a bucket's chain.
const NONE: u32 = u32::MAX;

/// An exact set of memo keys. Each key's words are appended to the last
/// of a list of fixed-size chunks, so a key is never moved or copied
/// once stored and the store's slack is at most one chunk plus each
/// chunk's unused tail. Keys are found through a table of buckets
/// indexed by a seedless 64-bit hash, each bucket chaining the keys that
/// land in it. A hash match always compares the full key, so two keys
/// are one member only when they are equal.
struct MemoSet {
    /// The stored keys' words.
    chunks: Vec<Vec<u32>>,
    /// One entry per stored key.
    keys: Vec<MemoKey>,
    /// Per bucket, its newest key (an index into `keys`), or [`NONE`].
    /// The bucket count is a power of two, at least the key count.
    buckets: Vec<u32>,
    /// The hash bits kept, so that a test can force collisions.
    #[cfg(test)]
    hash_mask: u64,
}

/// Where a stored key lives, and the next key of its bucket.
struct MemoKey {
    hash: u64,
    chunk: u32,
    start: u32,
    len: u32,
    next: u32,
}

impl MemoSet {
    fn new() -> Self {
        MemoSet {
            chunks: Vec::new(),
            keys: Vec::new(),
            buckets: vec![NONE; 64],
            #[cfg(test)]
            hash_mask: u64::MAX,
        }
    }

    /// The stored words of `key`.
    fn words(&self, key: &MemoKey) -> &[u32] {
        let start = key.start as usize;
        &self.chunks[key.chunk as usize][start..start + key.len as usize]
    }

    /// Add `key`; return whether it was new.
    fn insert(&mut self, key: &[u32]) -> bool {
        let hash = memo_hash(key);
        #[cfg(test)]
        let hash = hash & self.hash_mask;
        let bucket = hash as usize & (self.buckets.len() - 1);
        let mut i = self.buckets[bucket];
        while i != NONE {
            let stored = &self.keys[i as usize];
            if stored.hash == hash && self.words(stored) == key {
                return false;
            }
            i = stored.next;
        }
        let fits = self.chunks.last().is_some_and(|c| c.capacity() - c.len() >= key.len());
        if !fits {
            self.chunks.push(Vec::with_capacity(CHUNK.max(key.len())));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        let start = chunk.len();
        chunk.extend_from_slice(key);
        let index = u32::try_from(self.keys.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("fewer than 2^32 - 1 memo keys");
        self.keys.push(MemoKey {
            hash,
            chunk: count(self.chunks.len() - 1),
            start: count(start),
            len: count(key.len()),
            next: self.buckets[bucket],
        });
        self.buckets[bucket] = index;
        if self.keys.len() > self.buckets.len() {
            self.grow();
        }
        true
    }

    /// Double the buckets and chain every key into its new bucket, from
    /// its stored hash.
    fn grow(&mut self) {
        let mask = self.buckets.len() * 2 - 1;
        self.buckets.clear();
        self.buckets.resize(mask + 1, NONE);
        for (i, key) in self.keys.iter_mut().enumerate() {
            let bucket = key.hash as usize & mask;
            key.next = self.buckets[bucket];
            self.buckets[bucket] = i as u32;
        }
    }
}

/// A seedless 64-bit hash of a memo key: four lanes of xor, multiply and
/// rotate over the key's words two at a time, folded with the length and
/// finished with MurmurHash3's 64-bit mix so that the low bits, which
/// pick a bucket, depend on every word.
fn memo_hash(key: &[u32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    // One or two words as one lane input.
    let word = |w: &[u32]| w.iter().rev().fold(0, |x, &w| x << 32 | u64::from(w));
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = key.chunks_exact(8);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            *lane = (*lane ^ word(w)).wrapping_mul(K).rotate_left(31);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
        *lane = (*lane ^ word(w)).wrapping_mul(K).rotate_left(31);
    }
    let mut h = key.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(27);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::litmus::catalogue;
    use crate::litmus::Instr::*;
    use crate::op::LocId as L;

    fn regs_of(outs: &BTreeSet<Outcome>) -> Vec<Outcome> {
        outs.iter().cloned().collect()
    }

    impl Node {
        /// The sort-based memo key [`Node::write_key`] replaced, kept as
        /// its oracle.
        pub(super) fn sorted_key(&self) -> Vec<u64> {
            let mut key = crate::exec_state::tests::sorted_key(&self.model);
            for flags in [&self.issued, &self.performed] {
                for thread in flags {
                    for chunk in thread.chunks(64) {
                        key.push(
                            chunk.iter().enumerate().fold(0, |w, (i, &b)| w | u64::from(b) << i),
                        );
                    }
                }
            }
            key.extend(self.regs.iter().flatten().map(|&v| u64::from(v)));
            key
        }
    }

    /// The one-walk memo key prunes exactly where the sort-based key it
    /// replaced would: at every node the memoized enumerator visits,
    /// pruned revisits included, a state's key is new in one form iff it
    /// is new in the other. Runs over the lowered conformance catalogue
    /// and the programs of the default fuzz tier (`tests/fuzz.rs`: 16
    /// seeds from `0xC0FFEE`, lowered). Each enumeration stops at 10 000
    /// states, which keeps the test to a few seconds; the deep property
    /// run (`PMC_PROPTEST_CASES` above the default 64, nightly in CI)
    /// uses the fuzz tier's 200 000.
    #[test]
    fn memo_key_agrees_with_sorted_key() {
        let deep = crate::fuzz::case_count(64) > 64;
        let max_states = if deep { 200_000 } else { 10_000 };
        let catalogue = crate::conformance::cases().into_iter().map(|c| c.program);
        let fuzzed = (0..16).map(|i| crate::fuzz::generate(0xC0FFEE + i, &Default::default()));
        // Two unsynchronised writers of one value: interleavings that
        // build alike graphs can leave the reader's floor on different
        // writes. (Lowering would order the writes through their lock.)
        let same_value = Program::new()
            .thread(vec![Write(L(0), 1)])
            .thread(vec![Write(L(0), 1)])
            .thread(vec![Read(L(0), Reg(0)), Read(L(0), Reg(1))]);
        // Each program also without its init list, so that locations
        // are initialised lazily, at first touch, in every order.
        for p in catalogue
            .chain(fuzzed)
            .flat_map(|p| {
                let p = crate::conformance::lower(&p);
                [Program { init: Vec::new(), ..p.clone() }, p]
            })
            .chain([same_value])
        {
            let mut search = Search::new(&p, Limits { max_states, ..Limits::memoized() });
            search.key_oracle = Some(HashSet::new());
            // Over budget is fine: every node visited so far was checked.
            let _ = search.run();
        }
    }

    /// The memo set answers every insert as a `HashSet` does, with its
    /// hash cut to at most three bits so that most keys share a hash and
    /// only the full comparison tells them apart. Keys are random, or an
    /// earlier key again, a prefix of one, or an equal-length near-twin
    /// (one word changed); a few are longer than a chunk.
    #[test]
    fn memo_set_agrees_with_a_hash_set() {
        crate::fuzz::for_each_case("memo_set_agrees_with_a_hash_set", 64, |rng| {
            let mut set = MemoSet::new();
            set.hash_mask = (1 << rng.below(4)) - 1;
            let mut oracle: HashSet<Vec<u32>> = HashSet::new();
            let mut keys: Vec<Vec<u32>> = Vec::new();
            for _ in 0..rng.below(600) {
                let earlier = |rng: &mut crate::fuzz::SplitMix64| {
                    keys[rng.below(keys.len() as u64) as usize].clone()
                };
                let key = match rng.below(5) {
                    0 if !keys.is_empty() => earlier(rng),
                    1 if !keys.is_empty() => {
                        let mut key = earlier(rng);
                        key.truncate(rng.below(key.len() as u64 + 1) as usize);
                        key
                    }
                    2 if !keys.is_empty() => {
                        let mut key = earlier(rng);
                        if let Some(len) = std::num::NonZeroUsize::new(key.len()) {
                            let i = rng.below(len.get() as u64) as usize;
                            key[i] ^= 1 << rng.below(32);
                        }
                        key
                    }
                    _ => {
                        let len = if rng.chance(2) {
                            CHUNK / 2 + rng.below(CHUNK as u64) as usize
                        } else {
                            rng.below(40) as usize
                        };
                        (0..len).map(|_| rng.below(4) as u32).collect()
                    }
                };
                assert_eq!(
                    set.insert(&key),
                    oracle.insert(key.clone()),
                    "insert of a {}-word key into {} keys, hash mask {:#x}",
                    key.len(),
                    oracle.len(),
                    set.hash_mask
                );
                keys.push(key);
            }
        });
    }

    /// Intra-thread dependencies reflect Table I.
    #[test]
    fn dependency_rules() {
        let x = L(0);
        let y = L(1);
        // Same location: ordered.
        assert!(intra_thread_dep(&Write(x, 1), &Read(x, Reg(0))));
        assert!(intra_thread_dep(&Write(x, 1), &Write(x, 2)));
        assert!(intra_thread_dep(&Write(x, 1), &Release(x)));
        assert!(intra_thread_dep(&Acquire(x), &Write(x, 1)));
        assert!(intra_thread_dep(&Release(x), &Acquire(x)));
        // Different locations: unordered...
        assert!(!intra_thread_dep(&Write(x, 1), &Write(y, 2)));
        assert!(!intra_thread_dep(&Write(x, 1), &Read(y, Reg(0))));
        assert!(!intra_thread_dep(&Release(x), &Acquire(y)));
        assert!(!intra_thread_dep(&WaitEq(x, 1), &Acquire(y)));
        // ...unless a fence intervenes (both directions).
        assert!(intra_thread_dep(&Write(x, 1), &Fence));
        assert!(intra_thread_dep(&Acquire(x), &Fence));
        assert!(intra_thread_dep(&Fence, &Write(y, 2)));
        assert!(intra_thread_dep(&Fence, &Acquire(y)));
        assert!(intra_thread_dep(&Fence, &Read(y, Reg(0))));
        // An acquire may overtake a plain read/write of its own location
        // (Table I's empty acquire column).
        assert!(!intra_thread_dep(&Read(x, Reg(0)), &Acquire(x)));
        assert!(!intra_thread_dep(&Write(x, 1), &Acquire(x)));
    }

    /// Paper Figs. 1/5: without annotations the reader may see the stale
    /// X even after observing the flag.
    #[test]
    fn mp_unfenced_allows_stale_read() {
        let outs = outcomes(&catalogue::mp_unfenced()).unwrap();
        let r0s: BTreeSet<Value> = outs.iter().map(|o| o[1][0]).collect();
        assert!(r0s.contains(&0), "stale outcome must be allowed: {outs:?}");
        assert!(r0s.contains(&42));
    }

    /// Paper Fig. 6: the annotated program always reads 42.
    #[test]
    fn mp_annotated_always_reads_42() {
        let outs = outcomes(&catalogue::mp_annotated()).unwrap();
        assert!(!outs.is_empty());
        for o in &outs {
            assert_eq!(o[1][0], 42, "annotated MP must read 42, outcomes: {outs:?}");
        }
    }

    /// Dropping only the *fences* from the annotated MP re-opens the
    /// stale read: the acquire of X may overtake the polling loop —
    /// exactly the compiler reordering the paper's fence at line 11
    /// prevents.
    #[test]
    fn mp_locked_but_unfenced_is_broken() {
        let p = Program::new()
            .with_init(L(0), 0)
            .with_init(L(2), 0)
            .thread(vec![
                Acquire(L(0)),
                Write(L(0), 42),
                Release(L(0)),
                Acquire(L(2)),
                Write(L(2), 1),
                Release(L(2)),
            ])
            .thread(vec![WaitEq(L(2), 1), Acquire(L(0)), Read(L(0), Reg(0)), Release(L(0))]);
        let outs = outcomes(&p).unwrap();
        let r0s: BTreeSet<Value> = outs.iter().map(|o| o[1][0]).collect();
        assert!(r0s.contains(&0), "without fences the acquire may overtake the poll: {outs:?}");
    }

    /// Store buffering: both-zero is allowed (no cross-location order).
    #[test]
    fn sb_allows_both_zero() {
        let outs = outcomes(&catalogue::store_buffering()).unwrap();
        assert!(regs_of(&outs).iter().any(|o| o[0][0] == 0 && o[1][0] == 0));
        // And outcomes where at least one thread sees the other's write.
        assert!(regs_of(&outs).iter().any(|o| o[0][0] == 1 || o[1][0] == 1));
    }

    /// Coherence: (r0, r1) = (1, 0) is forbidden by read monotonicity.
    #[test]
    fn corr_forbids_backwards_reads() {
        let outs = outcomes(&catalogue::corr()).unwrap();
        for o in &outs {
            assert!(!(o[1][0] == 1 && o[1][1] == 0), "monotonicity violation allowed: {outs:?}");
        }
        // All three legal combinations appear: (0,0), (0,1), (1,1).
        let pairs: BTreeSet<(Value, Value)> = outs.iter().map(|o| (o[1][0], o[1][1])).collect();
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 1)));
    }

    /// IRIW: readers may disagree on the order of independent writes
    /// (allowed by PMC even with fences — fences are per-process, GPO,
    /// and create no global write serialisation).
    #[test]
    fn iriw_allows_disagreement() {
        let outs = outcomes(&catalogue::iriw()).unwrap();
        let disagree = outs.iter().any(|o| o[2] == vec![1, 0] && o[3] == vec![1, 0]);
        assert!(disagree, "IRIW disagreement must be allowed: {outs:?}");
    }

    /// DRF but unfenced cross-lock program: the SC-forbidden (0,0)
    /// outcome is allowed — PMC is weaker than Entry Consistency (the
    /// second critical section may overtake the first).
    #[test]
    fn drf_unfenced_allows_non_sc() {
        let outs = outcomes(&catalogue::drf_no_fence_cross_locks()).unwrap();
        assert!(
            outs.iter().any(|o| o[0][0] == 0 && o[1][0] == 0),
            "non-SC outcome must be allowed without fences: {outs:?}"
        );
    }

    /// With fences between the critical sections, (0,0) disappears.
    #[test]
    fn drf_fenced_forbids_non_sc() {
        let outs = outcomes(&catalogue::drf_fenced_cross_locks()).unwrap();
        assert!(
            !outs.iter().any(|o| o[0][0] == 0 && o[1][0] == 0),
            "fenced program must not allow (0,0): {outs:?}"
        );
    }

    /// Deadlocked paths produce no outcome (and don't hang): two threads
    /// acquiring two locks in opposite order.
    #[test]
    fn deadlock_paths_are_dropped() {
        let p = Program::new()
            .thread(vec![Acquire(L(0)), Acquire(L(1)), Release(L(1)), Release(L(0))])
            .thread(vec![Acquire(L(1)), Acquire(L(0)), Release(L(0)), Release(L(1))]);
        let outs = outcomes(&p).unwrap();
        // Non-deadlocking interleavings exist, so outcomes is non-empty;
        // the deadlocked ones are silently pruned.
        assert_eq!(outs.len(), 1);
    }

    /// The state budget aborts rather than truncates.
    #[test]
    fn exhausted_budget_is_an_error() {
        let outs = outcomes_with(
            &catalogue::drf_no_fence_cross_locks(),
            Limits { max_states: 10, ..Limits::default() },
        );
        assert_eq!(outs, Err(Exhausted));
    }

    /// DMA message passing: with the put waited before the release, the
    /// annotated reader can only observe 42.
    #[test]
    fn dma_mp_put_always_reads_42() {
        let outs = outcomes(&catalogue::dma_mp_put()).unwrap();
        assert!(!outs.is_empty());
        for o in &outs {
            assert_eq!(o[1][0], 42, "DMA MP must read 42, outcomes: {outs:?}");
        }
    }

    /// Put-after-write: the plain write and the bulk write stay ordered
    /// (1 before 2), so a slow reader observes a monotone sub-sequence of
    /// 0, 1, 2 — never 2 then 1.
    #[test]
    fn dma_put_after_write_is_ordered_for_readers() {
        let outs = outcomes(&catalogue::dma_put_after_write()).unwrap();
        let pairs: BTreeSet<(Value, Value)> = outs.iter().map(|o| (o[1][0], o[1][1])).collect();
        for &(a, b) in &pairs {
            assert!(a <= b, "backwards read allowed: {pairs:?}");
        }
        // The overlap window is real: both the intermediate and the final
        // value are observable.
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 2)));
    }

    /// Wait-before-read: the locked get returns only a committed value.
    #[test]
    fn dma_get_fresh_returns_committed_values() {
        let outs = outcomes(&catalogue::dma_get_fresh()).unwrap();
        let vals: BTreeSet<Value> = outs.iter().map(|o| o[1][0]).collect();
        assert_eq!(vals, BTreeSet::from([0, 7]));
    }

    /// Without the wait, the put's bulk write may float past the release:
    /// the reader under the lock may still see the old value — the race
    /// `dma_wait` exists to close.
    #[test]
    fn unwaited_put_can_escape_the_scope() {
        let p = Program::new()
            .with_init(L(0), 0)
            .thread(vec![Acquire(L(0)), DmaPut(L(0), 1), Release(L(0))])
            .thread(vec![Acquire(L(0)), Read(L(0), Reg(0)), Release(L(0))]);
        let outs = outcomes(&p).unwrap();
        let vals: BTreeSet<Value> = outs.iter().map(|o| o[1][0]).collect();
        assert!(vals.contains(&0), "unwaited put must be able to miss the reader: {outs:?}");
        assert!(vals.contains(&1));
    }

    /// WRC: the causal chain does not transfer through plain reads, even
    /// fenced — (1, then stale 0) stays allowed.
    #[test]
    fn wrc_allows_non_causal_read() {
        let outs = outcomes(&catalogue::wrc()).unwrap();
        assert!(
            outs.iter().any(|o| o[1][0] == 1 && o[2][0] == 1 && o[2][1] == 0),
            "WRC non-causal outcome must be allowed: {outs:?}"
        );
    }

    /// Annotated WRC: locks + fences transfer causality; once both
    /// forwarding reads saw 1, the final read cannot be stale.
    #[test]
    fn wrc_annotated_forbids_non_causal_read() {
        let outs = outcomes(&catalogue::wrc_annotated()).unwrap();
        assert!(
            !outs.iter().any(|o| o[1][0] == 1 && o[2][0] == 1 && o[2][1] == 0),
            "annotated WRC must forbid the stale read: {outs:?}"
        );
    }

    /// Memoization is outcome-preserving on the whole catalogue and
    /// explores no more states than plain DFS.
    #[test]
    fn memoization_preserves_outcome_sets() {
        for p in [
            catalogue::mp_unfenced(),
            catalogue::mp_annotated(),
            catalogue::store_buffering(),
            catalogue::corr(),
            catalogue::wrc(),
            catalogue::dma_put_after_write(),
            catalogue::dma_get_fresh(),
            catalogue::drf_no_fence_cross_locks(),
        ] {
            let (plain, plain_states) = outcomes_counted(&p, Limits::default()).unwrap();
            let (memo, memo_states) = outcomes_counted(&p, Limits::memoized()).unwrap();
            assert_eq!(plain, memo, "outcome sets must be identical");
            assert!(memo_states <= plain_states, "{memo_states} > {plain_states}");
        }
    }

    /// On a wide program (IRIW: four threads, many independent steps)
    /// memoization collapses the state space by a large factor.
    #[test]
    fn memoization_prunes_iriw_substantially() {
        let p = catalogue::iriw();
        let (plain, plain_states) = outcomes_counted(&p, Limits::default()).unwrap();
        let (memo, memo_states) = outcomes_counted(&p, Limits::memoized()).unwrap();
        assert_eq!(plain, memo);
        assert!(
            memo_states * 2 < plain_states,
            "expected substantial pruning: {memo_states} vs {plain_states}"
        );
    }

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Fold one enumeration into a digest: its mode tag, then its state
    /// count, outcome count and every outcome's registers — or, over
    /// budget, `u64::MAX`.
    fn fold_run(h: u64, mode: u8, run: &Result<(BTreeSet<Outcome>, usize), Exhausted>) -> u64 {
        let h = fnv1a(h, &[mode]);
        let Ok((outs, states)) = run else { return fnv1a(h, &u64::MAX.to_le_bytes()) };
        let mut h = fnv1a(h, &(*states as u64).to_le_bytes());
        h = fnv1a(h, &(outs.len() as u64).to_le_bytes());
        for regs in outs.iter().flatten() {
            h = fnv1a(h, &(regs.len() as u64).to_le_bytes());
            for v in regs {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        h
    }

    /// The differential proof obligation for partial-order reduction: on
    /// the *entire* conformance catalogue (lowered exactly as the sweep
    /// runs it), POR — alone and composed with memoization — produces
    /// bit-identical outcome sets while never exploring more states, and
    /// strictly fewer in aggregate.
    ///
    /// It also pins the enumerator exactly: every run's state count and
    /// outcome set (`fold_run`) goes into one digest — the four modes on
    /// the lowered catalogue, then the raw catalogue and the default fuzz
    /// tier's programs (`tests/fuzz.rs`: 16 seeds from `0xC0FFEE`,
    /// lowered) in both memoized modes at the fuzz tier's 200 000 states.
    #[test]
    fn por_preserves_outcome_sets() {
        let modes = [
            Limits::default(),
            Limits { por: true, ..Limits::default() },
            Limits::memoized(),
            Limits::reduced_memoized(),
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325;
        let mut total_plain = 0usize;
        let mut total_por = 0usize;
        let mut total_memo = 0usize;
        let mut total_both = 0usize;
        for case in crate::conformance::cases() {
            let p = crate::conformance::lower(&case.program);
            let runs = modes.map(|limits| outcomes_counted(&p, limits));
            digest = runs.iter().zip(0..).fold(digest, |h, (run, mode)| fold_run(h, mode, run));
            let [(plain, plain_states), (por, por_states), (memo, memo_states), (both, both_states)] =
                runs.map(Result::unwrap);
            assert_eq!(plain, por, "{}: POR changed the outcome set", case.name);
            assert_eq!(plain, both, "{}: POR+memo changed the outcome set", case.name);
            assert_eq!(plain, memo, "{}: memoization changed the outcome set", case.name);
            assert!(por_states <= plain_states, "{}: {por_states} > {plain_states}", case.name);
            assert!(both_states <= memo_states, "{}: {both_states} > {memo_states}", case.name);
            total_plain += plain_states;
            total_por += por_states;
            total_memo += memo_states;
            total_both += both_states;
        }
        assert!(total_por < total_plain, "POR must strictly reduce: {total_por} vs {total_plain}");
        assert!(
            total_both < total_memo,
            "POR+memo must strictly reduce: {total_both} vs {total_memo}"
        );
        let fuzzed = (0..16).map(|i| {
            crate::conformance::lower(&crate::fuzz::generate(0xC0FFEE + i, &Default::default()))
        });
        for p in crate::conformance::cases().into_iter().map(|c| c.program).chain(fuzzed) {
            for mode in [2, 3] {
                let limits = Limits { max_states: 200_000, ..modes[usize::from(mode)] };
                digest = fold_run(digest, mode, &outcomes_counted(&p, limits));
            }
        }
        assert_eq!(
            digest, 0x8562_7a0d_bf3d_64dc,
            "the enumerator's state counts or outcome sets changed"
        );
    }

    /// POR leaves a deadlocking program's (empty) outcome set empty: a
    /// safe-but-disabled step is a permanently stuck thread, and the
    /// pruned subtree holds no completed runs.
    #[test]
    fn por_agrees_on_deadlock() {
        // Two threads acquiring x/y in opposite orders: some interleavings
        // deadlock (pruned), some complete. Both modes must agree.
        let p = Program {
            threads: vec![
                vec![Acquire(L(0)), Acquire(L(1)), Release(L(1)), Release(L(0))],
                vec![Acquire(L(1)), Acquire(L(0)), Release(L(0)), Release(L(1))],
            ],
            init: vec![],
        };
        let plain = outcomes(&p).unwrap();
        let por = outcomes_with(&p, Limits { por: true, ..Limits::default() }).unwrap();
        assert_eq!(plain, por);
        assert!(!plain.is_empty(), "the non-deadlocking interleavings complete");
    }
}
