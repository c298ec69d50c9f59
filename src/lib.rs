//! # pmc — Portable Memory Consistency for software-managed distributed memory
//!
//! Facade crate of the PMC reproduction (Rutgers, Bekooij, Smit — IPPS
//! 2013). Re-exports the workspace crates:
//!
//! * [`model`] (`pmc-core`) — the formal PMC memory model: operations,
//!   the Table I ordering rules, executions, litmus enumeration and
//!   reference checkers for SC/PC/PRAM/CC/Slow consistency.
//! * [`sim`] (`pmc-soc-sim`) — a deterministic many-core SoC simulator
//!   with non-coherent caches, per-tile local memories, a write-only NoC
//!   and SDRAM (the paper's 32-core MicroBlaze platform, simulated).
//! * [`runtime`] (`pmc-runtime`) — the PMC approach: the annotation API
//!   as typed RAII scope guards (`scope_x`/`scope_ro` returning
//!   `XScope`/`RoScope`, plus `fence`/`flush` and `#[must_use]` DMA
//!   tickets), typed shared objects, locks, barriers, the
//!   multi-reader/multi-writer FIFO and the four architecture back-ends
//!   (uncached, SWCC, DSM, SPM).
//! * [`apps`] (`pmc-apps`) — SPLASH-2-style workloads (radiosity,
//!   raytrace, volrend), motion estimation and litmus programs.
//!
//! See the repository's `README.md` for a tour and `EXPERIMENTS.md` for
//! the paper-figure reproductions. The differential conformance harness
//! (litmus catalogue × back-ends × lock kinds, validated against the
//! model) lives in `tests/conformance.rs` on top of
//! [`model::conformance`](pmc_core::conformance) and
//! [`runtime::litmus_exec`].
//!
//! ## Quick example
//!
//! Guard-based message passing (the paper's Fig. 6) through the facade
//! paths: each scope guard performs the exit annotation when it drops,
//! and a temporary guard gives the momentary poll/write idiom in one
//! expression.
//!
//! ```
//! use pmc::runtime::{BackendKind, LockKind, System};
//! use pmc::sim::SocConfig;
//!
//! let mut sys = System::new(SocConfig::small(2), BackendKind::Dsm, LockKind::Distributed);
//! let x = sys.alloc::<u32>("x");
//! let flag = sys.alloc::<u32>("flag");
//! sys.run(vec![
//!     Box::new(move |ctx| {
//!         ctx.scope_x(x).write(7); // momentary exclusive scope
//!         ctx.fence();
//!         let f = ctx.scope_x(flag);
//!         f.write(1);
//!         f.flush(); // push the flag towards visibility; drop exits
//!     }),
//!     Box::new(move |ctx| {
//!         while ctx.scope_ro(flag).read() != 1 {
//!             ctx.compute(16);
//!         }
//!         ctx.fence();
//!         assert_eq!(ctx.scope_x(x).read(), 7);
//!     }),
//! ]);
//! assert_eq!(sys.read_back(x), 7);
//! ```

#![forbid(unsafe_code)]

pub use pmc_apps as apps;
pub use pmc_core as model;
pub use pmc_runtime as runtime;
pub use pmc_soc_sim as sim;
