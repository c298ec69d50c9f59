//! Heap-allocation budget of the model enumerator, counted by the
//! thread-local counting allocator shared with the simulator's gates.

#[path = "../../soc-sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use pmc_core::conformance::{cases, lower};
use pmc_core::interleave::{outcomes_counted, Limits};

/// Enumerating the lowered conformance catalogue under POR and
/// memoization allocates less than once per four explored states: a
/// state's memo key goes into a chunk of the memo set, its read
/// candidates onto a stack shared by the DFS levels, its queries run on
/// bitsets, and its ops into buffers kept across undo, so what is left
/// is each enumeration's set-up and the growth of its buffers.
#[test]
fn the_enumerator_allocates_less_than_once_per_four_states() {
    let programs: Vec<_> = cases().iter().map(|case| lower(&case.program)).collect();
    let before = allocs();
    let mut states = 0;
    for program in &programs {
        let (_, n) = outcomes_counted(program, Limits::reduced_memoized())
            .expect("catalogue programs fit the default state budget");
        states += n as u64;
    }
    let allocs = allocs() - before;
    assert!(
        4 * allocs < states,
        "{allocs} allocations for {states} explored states ({:.2} per state)",
        allocs as f64 / states as f64
    );
}
