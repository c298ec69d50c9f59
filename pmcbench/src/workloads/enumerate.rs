//! `enum_catalogue` — the model enumerator alone: every conformance
//! case plus 32 seeded fuzz programs (a fixed mix of sizes), lowered and enumerated with
//! `Limits::reduced_memoized()` (the fuzzing default), four sweeps per
//! pass.
//!
//! Only `pmc-core` runs, so any `soc-sim` or `runtime` change must show
//! *no change* here. The plain and memoized-only modes are left out of
//! the timed work (they are oracles, and plain alone takes ~28 s); the
//! memoized mode is used once, in set-up, as the independent reference
//! every timed enumeration is checked against.

use std::collections::BTreeSet;

use pmc_core::conformance::{self, render_outcomes};
use pmc_core::fuzz::{self, GenConfig, SplitMix64};
use pmc_core::interleave::{outcomes_counted, outcomes_with, Limits, Outcome};
use pmc_core::litmus::Program;

use super::{timed, Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers};
use crate::metrics::Values;
use crate::spans::Spans;

/// The fuzzed programs beside the catalogue, by size class: how many
/// programs to take with fewer than this many POR+memoized states (and
/// at least the previous class's limit). 32 programs in all.
///
/// The generator's state counts are heavy-tailed (a 48-program stretch
/// of one seed holds programs of 6 and of 180 000 states), so "the first
/// 32 programs" would make a pass at one seed several times the work of
/// a pass at another. Filling fixed size classes gives every seed the
/// same mix of small and large programs: different programs, the same
/// amount of work to within a few percent.
const FUZZ_CLASSES: [(usize, usize); 3] = [(32, 10), (128, 11), (512, 11)];
/// State budget of the memoized reference enumeration of a fuzzed
/// program; a program whose reference does not fit is passed over.
const FUZZ_MAX_MEMO_STATES: usize = 20_000;

/// One litmus program with the outcome set the model allows for its
/// lowered form.
pub struct Entry {
    pub name: String,
    /// As written (bare writes not yet wrapped in windows).
    pub program: Program,
    /// Reference outcome set of `lower(program)`.
    pub allowed: BTreeSet<Outcome>,
}

/// The size class of a program with `states` POR+memoized states.
fn size_class(states: usize) -> Option<usize> {
    FUZZ_CLASSES.iter().position(|&(limit, _)| states < limit)
}

/// The fuzzed programs of `seed`: walk a stream of generated programs
/// and take each one whose size class still has room, until every class
/// is full. Each comes with its memoized (reference) outcome set,
/// checked equal to the POR+memoized one. A pure function of `seed`.
///
/// The stream's case seeds are drawn from `SplitMix64::new(seed)` rather
/// than counted up from `seed`, so that neighbouring benchmark seeds do
/// not share all but one of their programs.
pub fn fuzz_entries(seed: u64, checks: &mut Checks) -> Vec<Entry> {
    let cfg = GenConfig::default();
    let largest = FUZZ_CLASSES[FUZZ_CLASSES.len() - 1].0;
    let reduced = Limits { max_states: largest, ..Limits::reduced_memoized() };
    let memo = Limits { max_states: FUZZ_MAX_MEMO_STATES, ..Limits::memoized() };
    let mut room: Vec<usize> = FUZZ_CLASSES.iter().map(|&(_, n)| n).collect();
    let mut out = Vec::new();
    let mut case_seeds = SplitMix64::new(seed);
    while room.iter().any(|&r| r > 0) {
        let case_seed = case_seeds.next_u64();
        let program = fuzz::generate(case_seed, &cfg);
        let lowered = conformance::lower(&program);
        let Ok((por, states)) = outcomes_counted(&lowered, reduced) else { continue };
        let Some(class) = size_class(states).filter(|&c| room[c] > 0) else { continue };
        let Ok(allowed) = outcomes_with(&lowered, memo) else { continue };
        room[class] -= 1;
        checks.check(allowed == por && !allowed.is_empty(), || {
            format!("fuzz {case_seed:#x}: POR changed the outcome set")
        });
        out.push(Entry { name: format!("fuzz_{case_seed:x}"), program, allowed });
    }
    out
}

/// The conformance catalogue with each case's allowed set computed in
/// `limits` mode, after checking the case's own program against its
/// committed golden snapshot in the mode under test.
pub fn catalogue_entries(limits: Limits, checks: &mut Checks) -> Vec<Entry> {
    conformance::cases()
        .into_iter()
        .map(|case| {
            let golden: String = case.golden.split_whitespace().map(|l| format!("{l}\n")).collect();
            let got = outcomes_with(&case.program, Limits::reduced_memoized())
                .map(|o| render_outcomes(&o))
                .unwrap_or_default();
            checks.check(got == golden, || format!("{}: golden outcome set drifted", case.name));
            let allowed = outcomes_with(&conformance::lower(&case.program), limits)
                .expect("catalogue programs fit the default state budget");
            Entry { name: case.name.to_string(), program: case.program, allowed }
        })
        .collect()
}

pub struct EnumCatalogue {
    entries: Vec<Entry>,
    sweeps: usize,
}

impl EnumCatalogue {
    pub fn new(seed: u64, size: Size, checks: &mut Checks) -> Self {
        let mut entries = catalogue_entries(Limits::memoized(), checks);
        let sweeps = match size {
            Size::Full => {
                entries.extend(fuzz_entries(seed, checks));
                4
            }
            Size::Smoke => 1,
        };
        EnumCatalogue { entries, sweeps }
    }
}

impl Workload for EnumCatalogue {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let mut run_s = 0.0;
        for _ in 0..self.sweeps {
            for e in &self.entries {
                let case = spans.enter("case");
                let lowered = spans.time("lower", || conformance::lower(&e.program));
                let (result, s) = spans.time("enumerate", || {
                    timed(|| outcomes_counted(&lowered, Limits::reduced_memoized()))
                });
                spans.exit(case);
                run_s += s;
                let (outs, states) = result.expect("set-up already enumerated this program");
                checks.check(outs == e.allowed, || {
                    format!("{}: outcome set differs from the memoized reference", e.name)
                });
                digest.mix(states as u64);
                digest.mix(outs.len() as u64);
                if let Some(layers) = layers.as_deref_mut() {
                    layers.states += states as u64;
                    layers.outcomes += outs.len() as u64;
                    layers.max_case_states = layers.max_case_states.max(states as u64);
                }
            }
        }
        // No simulated cycles: `sim_*` metrics do not apply here.
        PassOut { sim: Values::new(), run_s, digest: digest.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--seed` drives the fuzzed programs, and nothing else does.
    #[test]
    fn fuzz_entries_are_a_function_of_the_seed() {
        let mut checks = Checks::default();
        let names = |seed| -> Vec<String> {
            fuzz_entries(seed, &mut Checks::default()).into_iter().map(|e| e.name).collect()
        };
        assert_eq!(names(11), names(11));
        assert_ne!(names(11), names(12));
        let entries = fuzz_entries(11, &mut checks);
        assert_eq!(entries.len(), 32);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        // Every seed gets the same mix of sizes.
        let mut per_class = [0usize; 3];
        for e in &entries {
            fuzz::well_formed(&e.program).unwrap();
            let lowered = conformance::lower(&e.program);
            let (_, states) = outcomes_counted(&lowered, Limits::reduced_memoized()).unwrap();
            per_class[size_class(states).expect("inside the largest class")] += 1;
        }
        assert_eq!(per_class, [10, 11, 11]);
    }
}
