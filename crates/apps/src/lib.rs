//! # pmc-apps — workloads for the PMC reproduction
//!
//! The applications of the paper's case study (Section VI), written once
//! against the PMC annotation API and runnable unmodified on every
//! back-end:
//!
//! * [`radiosity`] — RADIOSITY-style kernel: iterative energy
//!   redistribution over a patch graph with chaotic scattered
//!   read-write sharing (the paper: "addresses and updates the memory in
//!   a chaotic way").
//! * [`raytrace`] — RAYTRACE-style kernel: a recursive sphere/plane ray
//!   tracer with a read-mostly shared scene and high in-scope reuse.
//! * [`volrend`] — VOLREND-style kernel: volume ray casting over a shared
//!   3-D density grid with a transfer function.
//! * [`motion_est`] — the paper's Fig. 10 scratch-pad case study:
//!   full-search block-matching motion estimation.
//! * [`workload`] — the common driver: build, run, checksum and report a
//!   workload on a chosen back-end (the Fig. 8 harness).
//! * [`kvserve`] + [`loadgen`] — the serving subsystem: a sharded
//!   in-scratchpad key-value service fed by an open-loop, seeded load
//!   generator, measured in per-request latency percentiles.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod kvserve;
pub mod loadgen;
pub mod motion_est;
pub mod radiosity;
pub mod raytrace;
pub mod stream;
pub mod volrend;
pub mod workload;
