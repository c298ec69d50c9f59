//! Seeded litmus-program fuzzing: a deterministic random program
//! generator plus a delta-debugging shrinker.
//!
//! The hand-written [`crate::litmus::catalogue`] covers the paper's
//! figures, but hand-picked tests cannot cover the interaction space of
//! scopes, locks, DMA and topologies. This module mines that space
//! automatically: [`generate`] produces bounded, well-formed programs
//! from a 64-bit seed (pure splitmix64 — no OS entropy, so every finding
//! reproduces from its printed seed), and [`shrink`] minimizes a failing
//! program while preserving the failure, so a divergence lands on a
//! human-sized counterexample instead of a 20-op tangle.
//!
//! Generated programs are **deadlock-free by construction** on both the
//! model and the simulator:
//!
//! * every lock acquisition — an explicit [`Instr::Acquire`] *or* the
//!   momentary window [`crate::conformance::lower`] (and the runtime
//!   executor) wraps around a bare write or bare DMA transfer — targets a
//!   location strictly greater than every currently held one, so all
//!   threads respect one global lock order and no acquisition cycle can
//!   form;
//! * scopes nest LIFO and every thread releases everything it acquires;
//! * a thread with open scoped DMA transfers issues [`Instr::DmaWait`]
//!   before releasing or terminating (a bare transfer needs no standing
//!   wait: its lowering drains every outstanding transfer on the spot);
//! * [`Instr::WaitEq`] is never generated — a random await has no
//!   liveness guarantee and would trip the simulator watchdog.
//!
//! Plain reads stay unrestricted: read-only scopes on word-sized objects
//! take no lock (Table II).

use crate::litmus::{Instr, Program, Reg};
use crate::op::{LocId, Value};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic splitmix64 stream — the de-facto standard seeder: every
/// output is one add-xor-shift-multiply scramble of a Weyl sequence, so
/// nearby seeds diverge immediately and the stream is stateless to
/// reproduce.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Run the property `check` on `default` cases of the suite `name` (or
/// as many as `PMC_PROPTEST_CASES` says). Case `i` draws from its own
/// [`SplitMix64`], seeded from `name` and `i`, so a failing case replays
/// alone from its seed. A failing case prints the suite, its index and
/// its seed, and then unwinds with the failure's own message.
pub fn for_each_case(name: &str, default: u32, mut check: impl FnMut(&mut SplitMix64)) {
    for case in 0..case_count(default) {
        let seed = case_seed(name, case);
        if let Err(failure) = catch_unwind(AssertUnwindSafe(|| check(&mut SplitMix64::new(seed)))) {
            eprintln!("{}", case_report(name, case, seed));
            resume_unwind(failure);
        }
    }
}

/// Cases a property suite runs: `default`, or exactly `PMC_PROPTEST_CASES`
/// when that is set (to lower or raise every suite's count; 0 runs one).
pub(crate) fn case_count(default: u32) -> u32 {
    parse_case_count(std::env::var("PMC_PROPTEST_CASES").ok().as_deref(), default)
}

fn parse_case_count(value: Option<&str>, default: u32) -> u32 {
    let Some(v) = value else { return default };
    v.parse::<u32>().unwrap_or_else(|_| panic!("PMC_PROPTEST_CASES={v:?} is not a u32")).max(1)
}

/// FNV-1a over the suite name, then the case index.
fn case_seed(name: &str, case: u32) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    name.bytes().chain(case.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, fnv)
}

fn case_report(name: &str, case: u32, seed: u64) -> String {
    format!("property case {case} of {name} failed; replay it with SplitMix64::new({seed:#x})")
}

/// Budgets for [`generate`]. The defaults keep enumeration cheap (a
/// handful of threads over a handful of locations) while still reaching
/// every instruction shape the runtime lowers differently.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Threads per program (2..=max_threads).
    pub max_threads: usize,
    /// Shared locations (2..=max_locs).
    pub max_locs: u32,
    /// Menu draws per thread (1..=max_ops); the cost budget below may cut
    /// a thread shorter.
    pub max_ops: usize,
    /// Per-thread budget in *lowered* instructions ([`super::conformance::lower`]
    /// expands a bare write to 3 instructions and a bare DMA transfer to
    /// 4–6), epilogue included. The enumerator's state space is
    /// exponential in lowered size — floating DMA performs especially —
    /// so this is the knob that keeps a fuzz case inside a few thousand
    /// DFS states instead of a few million.
    pub max_cost: usize,
    /// Whether to generate DMA instructions at all.
    pub dma: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_threads: 3, max_locs: 3, max_ops: 5, max_cost: 6, dma: true }
    }
}

/// Per-thread generator state: the held-lock stack (ascending by the
/// global order), whether a scoped DMA transfer is outstanding, the next
/// free register, and the lowered-cost spend so far.
struct ThreadGen {
    held: Vec<u32>,
    open_dma: bool,
    next_reg: u8,
    instrs: Vec<Instr>,
    /// Lowered instructions appended so far (each bare op charged at its
    /// post-[`super::conformance::lower`] size).
    spent: usize,
}

impl ThreadGen {
    fn max_held(&self) -> Option<u32> {
        self.held.last().copied()
    }

    /// Locations a momentary window (or explicit acquire) may target:
    /// strictly above every held lock, to respect the global order.
    fn acquirable(&self, n_locs: u32) -> Vec<u32> {
        let floor = self.max_held().map_or(0, |m| m + 1);
        (floor..n_locs).collect()
    }

    /// Lowered instructions the epilogue still owes: one release per held
    /// lock plus a wait for open scoped transfers.
    fn reserved(&self) -> usize {
        self.held.len() + self.open_dma as usize
    }

    /// Whether an op of lowered cost `c` that changes the epilogue debt
    /// by `dr` fits in the thread's budget.
    fn fits(&self, max_cost: usize, c: usize, dr: isize) -> bool {
        let reserve = (self.reserved() as isize + dr).max(0) as usize;
        self.spent + c + reserve <= max_cost
    }
}

/// Generate one well-formed, deadlock-free litmus program from `seed`.
/// Deterministic: the same seed and config always yield the same program.
pub fn generate(seed: u64, cfg: &GenConfig) -> Program {
    let mut rng = SplitMix64::new(seed);
    let n_threads = 2 + rng.below(cfg.max_threads.max(2) as u64 - 1) as usize;
    let n_locs = 2 + rng.below(cfg.max_locs.max(2) as u64 - 1) as u32;
    let mut program = Program::new();
    for l in 0..n_locs {
        program = program.with_init(LocId(l), 0);
    }
    for _ in 0..n_threads {
        let n_ops = 1 + rng.below(cfg.max_ops.max(1) as u64) as usize;
        let mut t = ThreadGen {
            held: Vec::new(),
            open_dma: false,
            next_reg: 0,
            instrs: Vec::new(),
            spent: 0,
        };
        for _ in 0..n_ops {
            gen_op(&mut rng, cfg, n_locs, &mut t);
        }
        // Epilogue: drain outstanding transfers, then unwind the stack
        // (the budget reserved room for exactly this).
        if t.open_dma {
            t.instrs.push(Instr::DmaWait);
        }
        while let Some(l) = t.held.pop() {
            t.instrs.push(Instr::Release(LocId(l)));
        }
        program = program.thread(t.instrs);
    }
    debug_assert_eq!(well_formed(&program), Ok(()));
    program
}

/// Append one random instruction to `t`, respecting every invariant in
/// the module docs and the thread's lowered-cost budget.
fn gen_op(rng: &mut SplitMix64, cfg: &GenConfig, n_locs: u32, t: &mut ThreadGen) {
    let max_cost = cfg.max_cost.max(2);
    let value = |rng: &mut SplitMix64| 1 + rng.below(3) as Value;
    let any_loc = |rng: &mut SplitMix64| LocId(rng.below(n_locs as u64) as u32);
    // Weighted menu; an entry is skipped when its preconditions fail (or
    // its lowered cost no longer fits) and the draw falls through to a
    // plain read, the cheapest op.
    for _ in 0..4 {
        match rng.below(10) {
            // Explicit critical section start (reserves its release).
            0 | 1 if t.held.len() < 2 && t.fits(max_cost, 1, 1) => {
                let cands = t.acquirable(n_locs);
                if cands.is_empty() {
                    continue;
                }
                let l = cands[rng.below(cands.len() as u64) as usize];
                t.held.push(l);
                t.spent += 1;
                t.instrs.push(Instr::Acquire(LocId(l)));
                return;
            }
            // Close the innermost section (transfers drained first) —
            // spends reserved budget, so it always fits.
            2 if !t.held.is_empty() => {
                if t.open_dma {
                    t.instrs.push(Instr::DmaWait);
                    t.spent += 1;
                    t.open_dma = false;
                }
                let l = t.held.pop().unwrap();
                t.spent += 1;
                t.instrs.push(Instr::Release(LocId(l)));
                return;
            }
            3 if t.fits(max_cost, 1, 0) => {
                t.spent += 1;
                t.instrs.push(Instr::Fence);
                return;
            }
            // DMA put/get: scoped when the location is held (the transfer
            // floats until a wait, reserving one), bare otherwise (the
            // 4-instruction lowering drains every outstanding transfer,
            // so the open flag — and its reserve — clears).
            4 | 5 if cfg.dma => {
                let pool: Vec<(u32, bool)> = t
                    .held
                    .iter()
                    .map(|&l| (l, true))
                    .filter(|_| t.fits(max_cost, 1, if t.open_dma { 0 } else { 1 }))
                    .chain(
                        t.acquirable(n_locs)
                            .into_iter()
                            .map(|l| (l, false))
                            .filter(|_| t.fits(max_cost, 4, -(t.open_dma as isize))),
                    )
                    .collect();
                if pool.is_empty() {
                    continue;
                }
                let (l, scoped) = pool[rng.below(pool.len() as u64) as usize];
                let instr = if rng.chance(50) {
                    Instr::DmaPut(LocId(l), value(rng))
                } else {
                    let r = Reg(t.next_reg);
                    t.next_reg += 1;
                    Instr::DmaGet(LocId(l), r)
                };
                t.spent += if scoped { 1 } else { 4 };
                t.instrs.push(instr);
                t.open_dma = scoped;
                return;
            }
            // DMA copy between two distinct locations, each endpoint held
            // or momentarily acquirable.
            6 if cfg.dma => {
                let ok = |l: u32| t.held.contains(&l) || t.max_held().is_none_or(|m| l > m);
                let cands: Vec<u32> = (0..n_locs).filter(|&l| ok(l)).collect();
                if cands.len() < 2 {
                    continue;
                }
                let s = cands[rng.below(cands.len() as u64) as usize];
                let d = loop {
                    let d = cands[rng.below(cands.len() as u64) as usize];
                    if d != s {
                        break d;
                    }
                };
                // Lowered cost: the copy itself, plus a wait and paired
                // momentary windows when any endpoint is bare.
                let scoped = t.held.contains(&s) && t.held.contains(&d);
                let bare = [s, d].iter().filter(|l| !t.held.contains(l)).count();
                let (c, dr) = if scoped {
                    (1, if t.open_dma { 0 } else { 1 })
                } else {
                    (2 + 2 * bare, -(t.open_dma as isize))
                };
                if !t.fits(max_cost, c, dr) {
                    continue;
                }
                t.spent += c;
                t.instrs.push(Instr::DmaCopy(LocId(s), LocId(d)));
                t.open_dma = scoped;
                return;
            }
            // Drain outstanding transfers mid-stream (spends the
            // reserve).
            7 if t.open_dma => {
                t.spent += 1;
                t.instrs.push(Instr::DmaWait);
                t.open_dma = false;
                return;
            }
            // Plain write: through the held scope, or a momentary window
            // (which must respect the global lock order).
            8 => {
                let l = any_loc(rng);
                let held = t.held.contains(&l.0);
                let c = if held { 1 } else { 3 };
                if (held || t.max_held().is_none_or(|m| l.0 > m)) && t.fits(max_cost, c, 0) {
                    t.spent += c;
                    t.instrs.push(Instr::Write(l, value(rng)));
                    return;
                }
                continue;
            }
            // Plain read: lock-free, always allowed.
            _ if t.fits(max_cost, 1, 0) => {
                let r = Reg(t.next_reg);
                t.next_reg += 1;
                t.spent += 1;
                t.instrs.push(Instr::Read(any_loc(rng), r));
                return;
            }
            _ => continue,
        }
    }
    // Every weighted draw failed its precondition: fall back to a read if
    // the budget still has room.
    if t.fits(max_cost, 1, 0) {
        let r = Reg(t.next_reg);
        t.next_reg += 1;
        t.spent += 1;
        t.instrs.push(Instr::Read(any_loc(rng), r));
    }
}

/// Check every generator invariant on `p`. Used as the gate for shrink
/// candidates (a transformation must keep the program runnable) and as a
/// regression oracle on the generator itself.
pub fn well_formed(p: &Program) -> Result<(), String> {
    if p.threads.is_empty() {
        return Err("no threads".into());
    }
    let n_locs = crate::conformance::loc_count(p);
    for l in 0..n_locs {
        if !p.init.iter().any(|&(LocId(i), _)| i == l) {
            return Err(format!("location {l} has no initial value"));
        }
    }
    for (ti, thread) in p.threads.iter().enumerate() {
        let mut held: Vec<u32> = Vec::new();
        let mut open_dma = false;
        let err = |msg: String| Err(format!("thread {ti}: {msg}"));
        // A momentary window acquires `locs` (ascending) around a bare op.
        let order_ok = |held: &[u32], l: u32| held.contains(&l) || held.iter().all(|&h| l > h);
        for (ii, i) in thread.iter().enumerate() {
            match i {
                Instr::Acquire(LocId(l)) => {
                    if held.contains(l) {
                        return err(format!("op {ii}: re-acquire of held {l}"));
                    }
                    if !held.iter().all(|&h| *l > h) {
                        return err(format!("op {ii}: acquire of {l} breaks the lock order"));
                    }
                    held.push(*l);
                }
                Instr::Release(LocId(l)) => {
                    if open_dma {
                        return err(format!("op {ii}: release with open scoped transfers"));
                    }
                    if held.pop() != Some(*l) {
                        return err(format!("op {ii}: non-LIFO release of {l}"));
                    }
                }
                Instr::Write(LocId(l), _) => {
                    if !order_ok(&held, *l) {
                        return err(format!("op {ii}: bare write window on {l} breaks order"));
                    }
                }
                Instr::Read(..) | Instr::Fence => {}
                Instr::WaitEq(..) => return err(format!("op {ii}: WaitEq is not generated")),
                Instr::DmaPut(LocId(l), _) | Instr::DmaGet(LocId(l), _) => {
                    if held.contains(l) {
                        open_dma = true;
                    } else if held.iter().all(|&h| *l > h) {
                        open_dma = false; // bare lowering drains everything
                    } else {
                        return err(format!("op {ii}: bare DMA window on {l} breaks order"));
                    }
                }
                Instr::DmaCopy(LocId(s), LocId(d)) => {
                    if s == d {
                        return err(format!("op {ii}: copy with equal endpoints"));
                    }
                    if !order_ok(&held, *s) || !order_ok(&held, *d) {
                        return err(format!("op {ii}: bare copy window breaks order"));
                    }
                    open_dma = held.contains(s) && held.contains(d);
                }
                Instr::DmaWait => open_dma = false,
            }
        }
        if open_dma {
            return err("thread ends with open scoped transfers".into());
        }
        if !held.is_empty() {
            return err(format!("thread ends holding {held:?}"));
        }
    }
    Ok(())
}

/// Render a program in a compact, reproducible textual form — what the
/// fuzz harness prints alongside the seed when a divergence survives
/// shrinking.
pub fn render_program(p: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let inits: Vec<String> = p.init.iter().map(|(LocId(l), v)| format!("x{l}={v}")).collect();
    let _ = writeln!(out, "init: {}", inits.join(" "));
    for (t, thread) in p.threads.iter().enumerate() {
        let ops: Vec<String> = thread
            .iter()
            .map(|i| match i {
                Instr::Write(LocId(l), v) => format!("W x{l}={v}"),
                Instr::Read(LocId(l), Reg(r)) => format!("R x{l}->r{r}"),
                Instr::Acquire(LocId(l)) => format!("acq x{l}"),
                Instr::Release(LocId(l)) => format!("rel x{l}"),
                Instr::Fence => "fence".into(),
                Instr::WaitEq(LocId(l), v) => format!("wait x{l}=={v}"),
                Instr::DmaPut(LocId(l), v) => format!("dput x{l}={v}"),
                Instr::DmaGet(LocId(l), Reg(r)) => format!("dget x{l}->r{r}"),
                Instr::DmaCopy(LocId(s), LocId(d)) => format!("dcopy x{s}->x{d}"),
                Instr::DmaWait => "dwait".into(),
            })
            .collect();
        let _ = writeln!(out, "T{t}: {}", ops.join("; "));
    }
    out
}

/// Delta-debugging shrinker: greedily minimize `p` while `failing` keeps
/// returning true (and the candidate stays [`well_formed`]). Passes, to a
/// fixpoint or until `max_checks` predicate calls are spent:
///
/// 1. drop a whole thread;
/// 2. merge two threads into one (the second's registers renumbered past
///    the first's);
/// 3. drop a single instruction — acquire/release pairs are dropped
///    together with any [`Instr::DmaWait`] the scope's transfers need;
/// 4. merge locations (rewrite every use of the higher one onto the
///    lower and renumber the survivors densely).
///
/// If `p` itself does not satisfy `failing`, it is returned unchanged.
pub fn shrink(
    p: &Program,
    max_checks: usize,
    mut failing: impl FnMut(&Program) -> bool,
) -> Program {
    let mut checks = 0usize;
    let mut check = |checks: &mut usize, cand: &Program| -> bool {
        if *checks >= max_checks || well_formed(cand).is_err() {
            return false;
        }
        *checks += 1;
        failing(cand)
    };
    if !check(&mut checks, p) {
        return p.clone();
    }
    let mut best = p.clone();
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if weight(&cand) < weight(&best) && check(&mut checks, &cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved || checks >= max_checks {
            return best;
        }
    }
}

/// Shrink objective: fewer instructions first, then fewer threads, then
/// fewer distinct locations.
fn weight(p: &Program) -> (usize, usize, u32) {
    let ops: usize = p.threads.iter().map(Vec::len).sum();
    (ops, p.threads.len(), crate::conformance::loc_count(p))
}

/// All one-step shrink candidates of `p`, smallest-effect transformations
/// last so whole-thread drops are tried first.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    // 1. Drop a thread.
    for t in 0..p.threads.len() {
        if p.threads.len() > 1 {
            let mut c = p.clone();
            c.threads.remove(t);
            out.push(c);
        }
    }
    // 2. Merge thread pairs (b appended to a, registers renumbered).
    for a in 0..p.threads.len() {
        for b in 0..p.threads.len() {
            if a == b {
                continue;
            }
            let offset = p.reg_count(a) as u8;
            let mut merged = p.threads[a].clone();
            merged.extend(p.threads[b].iter().map(|i| match i {
                Instr::Read(l, Reg(r)) => Instr::Read(*l, Reg(r + offset)),
                Instr::DmaGet(l, Reg(r)) => Instr::DmaGet(*l, Reg(r + offset)),
                other => other.clone(),
            }));
            let mut c = p.clone();
            c.threads[a] = merged;
            c.threads.remove(b);
            out.push(c);
        }
    }
    // 3. Drop single instructions (acquire with its matching release).
    for t in 0..p.threads.len() {
        for i in 0..p.threads[t].len() {
            let mut c = p.clone();
            match &c.threads[t][i] {
                Instr::Acquire(l) => {
                    // The matching release is the next one of this
                    // location at the same nesting depth.
                    let l = *l;
                    let mut depth = 0usize;
                    let mut matched = None;
                    for (j, op) in c.threads[t].iter().enumerate().skip(i + 1) {
                        match op {
                            Instr::Acquire(_) => depth += 1,
                            Instr::Release(r) if *r == l && depth == 0 => {
                                matched = Some(j);
                                break;
                            }
                            Instr::Release(_) => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                    }
                    if let Some(j) = matched {
                        c.threads[t].remove(j);
                        c.threads[t].remove(i);
                        out.push(c);
                    }
                }
                Instr::Release(_) => {} // handled with its acquire
                _ => {
                    c.threads[t].remove(i);
                    out.push(c);
                }
            }
        }
    }
    // 4. Merge a location downward: every use of `hi` becomes `lo`, and
    // locations above `hi` shift down one so the space stays dense.
    let n_locs = crate::conformance::loc_count(p);
    for hi in 1..n_locs {
        for lo in 0..hi {
            let rename = |l: &LocId| {
                if l.0 == hi {
                    LocId(lo)
                } else if l.0 > hi {
                    LocId(l.0 - 1)
                } else {
                    *l
                }
            };
            let mut c = p.clone();
            for t in &mut c.threads {
                for i in t.iter_mut() {
                    *i = match i {
                        Instr::Write(l, v) => Instr::Write(rename(l), *v),
                        Instr::Read(l, r) => Instr::Read(rename(l), *r),
                        Instr::Acquire(l) => Instr::Acquire(rename(l)),
                        Instr::Release(l) => Instr::Release(rename(l)),
                        Instr::WaitEq(l, v) => Instr::WaitEq(rename(l), *v),
                        Instr::DmaPut(l, v) => Instr::DmaPut(rename(l), *v),
                        Instr::DmaGet(l, r) => Instr::DmaGet(rename(l), *r),
                        Instr::DmaCopy(s, d) => Instr::DmaCopy(rename(s), rename(d)),
                        Instr::Fence => Instr::Fence,
                        Instr::DmaWait => Instr::DmaWait,
                    };
                }
            }
            c.init.retain(|(l, _)| l.0 != hi);
            for (l, _) in c.init.iter_mut() {
                if l.0 > hi {
                    l.0 -= 1;
                }
            }
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{outcomes_with, Limits};

    #[test]
    fn each_case_draws_the_stream_of_its_suite_and_index() {
        let first = |name: &str, case| SplitMix64::new(case_seed(name, case)).next_u64();
        assert_eq!(first("a", 3), first("a", 3));
        assert_ne!(first("a", 3), first("a", 4));
        assert_ne!(first("a", 3), first("b", 3));
        let mut seen = Vec::new();
        for_each_case("a", 5, |rng| seen.push(rng.next_u64()));
        let want: Vec<u64> = (0..case_count(5)).map(|case| first("a", case)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn a_failing_case_is_reported_and_replays_from_its_seed() {
        // Fails on case 2 (or the last case, if fewer run).
        let failing = case_count(64).min(3) - 1;
        let mut case = 0;
        let mut check = |rng: &mut SplitMix64| {
            let draw = rng.next_u64();
            case += 1;
            assert!(case <= failing, "case drew {draw:#x}");
        };
        let failure =
            catch_unwind(AssertUnwindSafe(|| for_each_case("demo", 64, &mut check))).unwrap_err();
        let seed = case_seed("demo", failing);
        let replay = SplitMix64::new(seed).next_u64();
        assert_eq!(failure.downcast_ref::<String>(), Some(&format!("case drew {replay:#x}")));
        let report = case_report("demo", failing, seed);
        assert!(report.contains(&format!("case {failing} of demo")), "{report}");
        assert!(report.contains(&format!("{seed:#x}")), "{report}");
    }

    #[test]
    fn the_case_count_variable_is_exact_and_checked() {
        assert_eq!(parse_case_count(None, 64), 64);
        assert_eq!(parse_case_count(Some("8"), 64), 8);
        assert_eq!(parse_case_count(Some("256"), 64), 256);
        assert_eq!(parse_case_count(Some("0"), 64), 1);
        for bad in ["abc", "", "256x"] {
            let failure = catch_unwind(|| parse_case_count(Some(bad), 64)).unwrap_err();
            let msg = failure.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains(&format!("PMC_PROPTEST_CASES={bad:?}")), "{msg}");
        }
    }

    /// The generator is a pure function of its seed.
    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..32 {
            assert_eq!(generate(seed, &cfg).threads, generate(seed, &cfg).threads);
        }
    }

    /// Enumeration limits for fuzz-sized programs: POR + memoization with
    /// a modest state cap, so the occasional DMA-heavy outlier is skipped
    /// (as `Exhausted`) instead of ground through.
    fn fuzz_limits() -> Limits {
        Limits { max_states: 50_000, ..Limits::reduced_memoized() }
    }

    /// Every generated program passes its own well-formedness oracle and
    /// the model enumerator finds at least one completed run (the
    /// lock-order discipline really is deadlock-free).
    #[test]
    fn generated_programs_are_well_formed_and_live() {
        let cfg = GenConfig::default();
        let mut exhausted = 0;
        for seed in 0..64 {
            let p = generate(seed, &cfg);
            well_formed(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let lowered = crate::conformance::lower(&p);
            let Ok(outs) = outcomes_with(&lowered, fuzz_limits()) else {
                exhausted += 1;
                continue;
            };
            assert!(!outs.is_empty(), "seed {seed}: no completed run\n{}", render_program(&p));
        }
        assert!(exhausted <= 16, "too many state-budget outliers: {exhausted}/64");
    }

    /// The seed stream reaches every instruction shape — the generator
    /// is not silently skipping a menu entry.
    #[test]
    fn generator_covers_all_shapes() {
        let cfg = GenConfig::default();
        let mut seen = [false; 9];
        for seed in 0..256 {
            for t in &generate(seed, &cfg).threads {
                for i in t {
                    seen[match i {
                        Instr::Write(..) => 0,
                        Instr::Read(..) => 1,
                        Instr::Acquire(..) => 2,
                        Instr::Release(..) => 3,
                        Instr::Fence => 4,
                        Instr::DmaPut(..) => 5,
                        Instr::DmaGet(..) => 6,
                        Instr::DmaCopy(..) => 7,
                        Instr::DmaWait => 8,
                        Instr::WaitEq(..) => unreachable!("WaitEq must not be generated"),
                    }] = true;
                }
            }
        }
        assert_eq!(seen, [true; 9], "some instruction shape never generated");
    }

    /// A program whose failure predicate never fires shrinks to itself.
    #[test]
    fn shrink_keeps_a_healthy_program() {
        let p = generate(7, &GenConfig::default());
        let out = shrink(&p, 1000, |_| false);
        assert_eq!(out.threads, p.threads);
        assert_eq!(out.init, p.init);
    }

    /// An artificially-broken checker (flagging any program whose model
    /// outcome set contains a zero register) shrinks to a minimal
    /// counterexample of at most 4 ops.
    #[test]
    fn shrink_minimizes_against_a_broken_checker() {
        let cfg = GenConfig::default();
        let broken = |p: &Program| {
            let lowered = crate::conformance::lower(p);
            outcomes_with(&lowered, fuzz_limits())
                .map(|outs| outs.iter().any(|o| o.iter().any(|t| t.contains(&0))))
                .unwrap_or(false)
        };
        let mut shrunk_one = false;
        for seed in 0..8 {
            let p = generate(seed, &cfg);
            if !broken(&p) {
                continue;
            }
            let small = shrink(&p, 2000, broken);
            assert!(broken(&small), "seed {seed}: shrink lost the failure");
            well_formed(&small).unwrap();
            let ops: usize = small.threads.iter().map(Vec::len).sum();
            assert!(
                ops <= 4,
                "seed {seed}: expected a <=4-op counterexample, got {ops}:\n{}",
                render_program(&small)
            );
            shrunk_one = true;
        }
        assert!(shrunk_one, "no seed tripped the broken checker");
    }

    /// Shrinking a genuinely structured failure keeps the structure: a
    /// predicate requiring a DMA put stays satisfied and minimal.
    #[test]
    fn shrink_preserves_required_instruction() {
        let cfg = GenConfig::default();
        let has_put =
            |p: &Program| p.threads.iter().flatten().any(|i| matches!(i, Instr::DmaPut(..)));
        for seed in 0..64 {
            let p = generate(seed, &cfg);
            if !has_put(&p) {
                continue;
            }
            let small = shrink(&p, 2000, has_put);
            assert!(has_put(&small));
            well_formed(&small).unwrap();
            let ops: usize = small.threads.iter().map(Vec::len).sum();
            assert!(ops <= 2, "seed {seed}: a lone bare put suffices, got {ops} ops");
            return;
        }
        panic!("no seed generated a DmaPut");
    }
}
