//! # pmc-runtime — the PMC approach
//!
//! The portable-memory-consistency runtime of Rutgers et al. (IPPS 2013):
//! source-level annotations over typed shared objects — as **typed RAII
//! scope guards** ([`PmcCtx::scope_x`] / [`PmcCtx::scope_ro`], paper
//! Section V-A and Fig. 10) — plus one back-end per memory architecture
//! of the paper's Table II:
//!
//! * **uncached** — the "no CC" baseline (shared data in uncached SDRAM);
//! * **swcc** — software cache coherency (BACKER-style flush/invalidate);
//! * **dsm** — distributed shared memory over the write-only NoC;
//! * **spm** — scratch-pad staging.
//!
//! The same application code runs on every back-end — the paper's
//! portability claim — and with tracing enabled, [`monitor::validate`]
//! checks each run against the PMC model's guarantees. The guards encode
//! the annotation discipline in the type system: a scope cannot be left
//! open ([`scope::XScope`] exits on drop), reads and writes only exist
//! on the guard of an open scope, writes only on exclusive guards, and
//! asynchronous transfers hand back `#[must_use]` [`DmaTicket`]s whose
//! completion the owning scope's close enforces.
//!
//! After set-up a run allocates nothing on the host per simulated
//! operation: typed accesses marshal through a stack buffer
//! ([`pod`]), and DSM commits, SPM staging, synchronous copies and DMA
//! descriptors reuse per-tile buffers (`tests/alloc.rs` gates this on
//! all four back-ends).
//!
//! Guard-based message passing (the paper's Fig. 6):
//!
//! ```
//! use pmc_runtime::system::{BackendKind, LockKind, System};
//! use pmc_soc_sim::SocConfig;
//!
//! let mut sys = System::new(SocConfig::small(2), BackendKind::Swcc, LockKind::Sdram);
//! let x = sys.alloc::<u32>("x");
//! let flag = sys.alloc::<u32>("flag");
//! sys.run(vec![
//!     Box::new(move |ctx| {
//!         ctx.scope_x(x).write(42); // momentary exclusive scope
//!         ctx.fence();
//!         let f = ctx.scope_x(flag);
//!         f.write(1);
//!         f.flush(); // make the flag visible soon; drop exits
//!     }),
//!     Box::new(move |ctx| {
//!         let mut backoff = 8;
//!         while ctx.scope_ro(flag).read() != 1 {
//!             ctx.compute(backoff);
//!             backoff = (backoff * 2).min(256);
//!         }
//!         ctx.fence();
//!         assert_eq!(ctx.scope_x(x).read(), 42);
//!     }),
//! ]);
//! assert_eq!(sys.read_back(x), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod barrier;
pub mod ctx;
pub mod fifo;
pub mod litmus_exec;
pub mod lock;
pub mod monitor;
pub mod pod;
pub mod queue;
pub mod run;
pub mod scope;
pub mod spm;
pub mod system;

pub use ctx::PmcCtx;
pub use fifo::MFifo;
pub use pod::{Pod, Vec2};
pub use run::{RunConfig, Session};
pub use scope::{DmaTicket, RoScope};
pub use system::{BackendKind, LockKind, Obj, ObjVec, PrivSlab, Slab, System};

/// The per-tile program type accepted by [`System::run`].
pub type Program<'env> = Box<dyn FnOnce(&mut PmcCtx<'_, '_>) + 'env>;
