//! The `PMC_*` sweep axes shared by the differential harnesses
//! (`tests/conformance.rs`, `tests/fuzz.rs`):
//!
//! * `PMC_TOPOLOGY` — `ring` / `mesh` / `torus` restricts the topology
//!   axis; unset sweeps all three.
//! * `PMC_MEM_CONTROLLERS` — `<k>` interleaves the SDRAM offset space
//!   over k controllers; unset (or `1`) keeps the single-controller
//!   default.
//!
//! A variable that is set to anything else panics with the accepted
//! spellings: a typo in a CI matrix cell must not run the default sweep
//! green. Each parser takes the variable's value as an argument so the
//! rejection is testable without touching the process environment.
//!
//! Also home to [`digest`], the pinned-reference hash of
//! `tests/engine.rs` and `tests/serve.rs`, and to
//! [`commit_order_violation`], the observable side of the simulator's
//! commit-order contract, which every harness checks per run.

// Every test binary includes this module and uses a subset of it.
#![allow(dead_code)]

use pmc::sim::{Topology, TraceRecord};

/// 64-bit FNV-1a over the `Debug` rendering of `fields`, in order: one
/// number standing for exactly the fields a differential test used to
/// compare with `assert_eq!`.
pub fn digest(fields: &[&dyn std::fmt::Debug]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for field in fields {
        for byte in format!("{field:?};").bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The global trace is the commit log of the run's `trace_event`
/// actions, so the simulator's commit-order contract shows in it:
/// records (span records included) are sorted by `(time, tile)`.
/// Returns the first adjacent pair that is not, rendered.
pub fn commit_order_violation(trace: &[TraceRecord]) -> Option<String> {
    let w = trace.windows(2).find(|w| (w[0].time, w[0].tile) > (w[1].time, w[1].tile))?;
    Some(format!("trace out of (time, tile) order: {:?} precedes {:?}", w[0], w[1]))
}

/// The entries of `all` that `var`'s `value` selects: every entry when
/// unset, the one it names when set.
fn select<T>(
    var: &str,
    value: Option<&str>,
    all: Vec<(&'static str, T)>,
) -> Vec<(&'static str, T)> {
    let Some(value) = value else { return all };
    let accepted: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
    let picked: Vec<_> = all.into_iter().filter(|(name, _)| *name == value).collect();
    assert!(
        !picked.is_empty(),
        "{var}={value:?} is not recognised: accepted values are {accepted:?} (unset sweeps all)"
    );
    picked
}

/// Meshes and tori for a litmus run are two columns by at least two
/// rows, so every XY route can exercise both dimensions (and, on the
/// torus, the wraparound links) while surplus tiles idle.
fn parse_topologies(value: Option<&str>, threads: usize) -> Vec<(&'static str, Topology)> {
    let (cols, rows) = (2, threads.div_ceil(2).max(2));
    let all = vec![
        ("ring", Topology::Ring),
        ("mesh", Topology::Mesh { cols, rows }),
        ("torus", Topology::Torus { cols, rows }),
    ];
    select("PMC_TOPOLOGY", value, all)
}

fn parse_controllers(value: Option<&str>, threads: usize) -> Vec<usize> {
    let Some(value) = value else { return Vec::new() };
    match value.parse::<usize>() {
        Ok(k) if k >= 2 => (0..k.min(threads.max(1))).collect(),
        Ok(1) => Vec::new(),
        _ => panic!(
            "PMC_MEM_CONTROLLERS={value:?} is not recognised: accepted values are a controller \
             count >= 1 (unset or 1 keeps the single controller)"
        ),
    }
}

/// The topologies to sweep for a `threads`-thread program, honouring
/// `PMC_TOPOLOGY`.
pub fn topologies_for(threads: usize) -> Vec<(&'static str, Topology)> {
    parse_topologies(std::env::var("PMC_TOPOLOGY").ok().as_deref(), threads)
}

/// The memory-controller list to sweep with, honouring
/// `PMC_MEM_CONTROLLERS=<k>`: tiles `0..k` (clamped to the smallest
/// machine the case can run on, so they are in range on every topology)
/// with the SDRAM offset space interleaved across them. Empty is the
/// single-controller default.
pub fn controllers_for(threads: usize) -> Vec<usize> {
    parse_controllers(std::env::var("PMC_MEM_CONTROLLERS").ok().as_deref(), threads)
}

#[test]
fn axis_values_select_their_cells() {
    assert_eq!(parse_topologies(None, 3).len(), 3);
    assert_eq!(
        parse_topologies(Some("torus"), 3),
        vec![("torus", Topology::Torus { cols: 2, rows: 2 })]
    );
    assert_eq!(parse_controllers(None, 4), Vec::<usize>::new());
    assert_eq!(parse_controllers(Some("1"), 4), Vec::<usize>::new());
    assert_eq!(parse_controllers(Some("2"), 4), vec![0, 1]);
    assert_eq!(parse_controllers(Some("8"), 3), vec![0, 1, 2]);
}

#[test]
#[should_panic(expected = "PMC_TOPOLOGY=\"meshh\" is not recognised")]
fn bad_topology_value_panics() {
    parse_topologies(Some("meshh"), 2);
}

#[test]
#[should_panic(expected = "PMC_MEM_CONTROLLERS=\"two\" is not recognised")]
fn bad_controller_count_panics() {
    parse_controllers(Some("two"), 2);
}
