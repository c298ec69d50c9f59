//! # pmc-core — the Portable Memory Consistency (PMC) formal model
//!
//! This crate implements the memory consistency model of
//!
//! > J.H. Rutgers, M.J.G. Bekooij and G.J.M. Smit, *"Portable Memory
//! > Consistency for Software Managed Distributed Memory in Many-Core
//! > SoC"*, IPPS 2013.
//!
//! PMC is a weak, *synchronized* memory model with five operations —
//! `read`, `write`, `acquire`, `release`, `fence` — and four ordering
//! relations — local `≺ℓ`, program `≺P`, synchronization `≺S` and fence
//! `≺F` — introduced pairwise by the rules of the paper's Table I
//! ([`table1`]). Plain reads and writes behave like Slow Consistency;
//! acquire/release add a globally agreed per-location order (GDO), and
//! fences add a per-process cross-location order (GPO). Together these are
//! strong enough to recover Processor Consistency — and hence simulate
//! Sequential Consistency for data-race-free programs — while staying an
//! intersection of all common hardware memory models.
//!
//! ## Crate layout
//!
//! * [`op`] — operations, processes, locations, patterns (Defs. 1–3).
//! * [`order`] — the four ordering kinds and observation views (Defs. 5–10).
//! * [`table1`] — the ordering-rule matrix (paper Table I) as data.
//! * [`execution`] — executions as append-only dependency graphs
//!   (Def. 4), last-write and readable-value queries (Defs. 11–12) and
//!   race detection.
//! * [`exec_state`] — an operational executor enforcing lock discipline
//!   and read monotonicity (Def. 12's second clause).
//! * [`litmus`] — a small program DSL for litmus tests.
//! * [`interleave`] — bounded-exhaustive enumeration of every outcome the
//!   PMC model allows for a litmus program.
//! * [`fuzz`] — seeded random litmus-program generation plus a
//!   delta-debugging shrinker, for the adversarial conformance harness.
//! * [`models`] — reference checkers for Sequential, Processor, Cache and
//!   Slow Consistency, used to reproduce the paper's Section IV-E
//!   comparisons.
//! * [`dot`] — Graphviz export in the style of the paper's figures.
//!
//! ## Quick example
//!
//! ```
//! use pmc_core::execution::{EdgeMode, Execution};
//! use pmc_core::op::{LocId, ProcId};
//! use pmc_core::order::View;
//!
//! let (p0, x) = (ProcId(0), LocId(0));
//! let mut e = Execution::new(EdgeMode::Full);
//! let w1 = e.write(p0, x, 1);
//! let w2 = e.write(p0, x, 2);
//! // Two writes by one process to one location are in program order
//! // (paper Fig. 2) — and everyone agrees:
//! assert!(e.precedes(w1, w2, View::Global));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod conformance;
pub mod dot;
pub mod exec_state;
pub mod execution;
pub mod fuzz;
pub mod interleave;
pub mod litmus;
pub mod models;
pub mod op;
pub mod order;
pub mod table1;
