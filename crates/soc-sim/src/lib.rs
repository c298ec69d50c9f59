//! # pmc-soc-sim — a deterministic many-core SoC simulator
//!
//! The hardware substrate for the PMC reproduction (Rutgers et al.,
//! IPPS 2013): a simulated 32-core MicroBlaze-style system with
//!
//! * per-core, **non-coherent**, data-holding write-back caches;
//! * SDRAM exposed through a cached window and an uncached alias;
//! * per-tile local memories, readable locally, **write-only** remotely
//!   via a posted-write NoC (paper Fig. 7);
//! * a remote test-and-set NoC atomic (the substrate of the asymmetric
//!   distributed lock \[15\]);
//! * per-core cycle accounting in the stall categories of the paper's
//!   Fig. 8, and a deterministic synthetic I-cache;
//! * a single-threaded discrete-event scheduler that commits globally
//!   visible actions in `(virtual_time, tile)` order: bit-identical
//!   runs for identical configurations.
//!
//! Application code runs as one Rust closure per tile against [`soc::Cpu`]
//! — the only interface to the simulated machine.
//!
//! ```
//! use pmc_soc_sim::{addr, Soc, SocConfig};
//!
//! let soc = Soc::new(SocConfig::small(2));
//! let report = soc.run(vec![
//!     Box::new(|cpu: &mut pmc_soc_sim::Cpu| {
//!         cpu.write_u32(addr::SDRAM_UNCACHED_BASE, 42);
//!     }),
//!     Box::new(|cpu: &mut pmc_soc_sim::Cpu| {
//!         while cpu.read_u32(addr::SDRAM_UNCACHED_BASE) != 42 {
//!             cpu.compute(10);
//!         }
//!     }),
//! ]);
//! assert!(report.makespan > 0);
//! ```

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

pub mod addr;
pub mod cache;
pub mod config;
#[allow(unsafe_code)] // the context switch: the only `unsafe` of the library crates
mod coro;
pub mod counters;
pub mod dma;
pub mod engine;
pub mod icache;
pub mod mem;
pub mod noc;
pub mod soc;
pub mod telemetry;
pub mod trace;

pub use config::{CacheConfig, SocConfig, Topology};
pub use counters::{Counters, LinkReport, MemTag, PortReport, RunReport};
pub use dma::{DmaDescriptor, DmaDir, DmaKind, DmaSeg};
pub use engine::EngineStats;
pub use mem::SdramPorts;
pub use soc::{CoreProgram, Cpu, Soc};
pub use telemetry::{EventKind, TelemetryReport};
pub use trace::TraceRecord;
