//! The unified run entry point: a [`RunConfig`] builder frozen into a
//! [`Session`].
//!
//! Every axis of the reproduction — back-end (Table II column), lock
//! implementation, interconnect topology, tile count, telemetry —
//! used to pick a different `run_*` free function
//! (`run_litmus` / `run_litmus_on` / `run_litmus_telemetry`, and the
//! same sprawl again for workloads). A [`RunConfig`] names each axis
//! once, and the [`Session`] it freezes into is the single surface the
//! litmus executor, the workload driver (via
//! `pmc_apps::workload::SessionWorkload`), the bench binaries and the
//! integration tests all share:
//!
//! ```
//! use pmc_core::litmus::catalogue;
//! use pmc_runtime::{BackendKind, LockKind, RunConfig};
//!
//! let session = RunConfig::new(BackendKind::Swcc)
//!     .lock(LockKind::Sdram)
//!     .session();
//! let run = session.litmus(&catalogue::mp_annotated());
//! assert_eq!(run.outcome, vec![vec![], vec![42]]);
//! ```
//!
//! How the simulator advances virtual time is not an axis: one
//! discrete-event engine drives every tile from a single-threaded event
//! heap and commits globally visible actions in `(virtual time, tile)`
//! order, a contract `pmc_soc_sim` asserts on every action.

use pmc_core::litmus::Program as LitmusProgram;
use pmc_soc_sim::{SocConfig, Topology};

use crate::litmus_exec::LitmusRun;
use crate::system::{BackendKind, LockKind};

/// Builder over every run axis. Construct with [`RunConfig::new`], chain
/// the axes that differ from the defaults, then [`RunConfig::session`]
/// to freeze. Defaults: SDRAM lock, ring topology, tile count derived
/// from the work, telemetry off, tracing follows telemetry,
/// simulator-default DMA channel count.
#[derive(Debug, Clone)]
pub struct RunConfig {
    backend: BackendKind,
    lock: LockKind,
    topology: Topology,
    n_tiles: Option<usize>,
    telemetry: bool,
    trace: Option<bool>,
    dma_channels: Option<usize>,
    mem_controllers: Option<Vec<usize>>,
}

impl RunConfig {
    pub fn new(backend: BackendKind) -> RunConfig {
        RunConfig {
            backend,
            lock: LockKind::Sdram,
            topology: Topology::Ring,
            n_tiles: None,
            telemetry: false,
            trace: None,
            dma_channels: None,
            mem_controllers: None,
        }
    }

    /// Lock implementation shared objects use.
    pub fn lock(mut self, lock: LockKind) -> Self {
        self.lock = lock;
        self
    }

    /// Interconnect topology. A mesh or torus fixes the tile count to
    /// `cols × rows` unless [`RunConfig::n_tiles`] names it explicitly
    /// (in which case the two must agree).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Explicit tile count. When absent, litmus runs size the machine to
    /// the program's thread count and workload runs require a mesh (whose
    /// area is the count) or an explicit value.
    pub fn n_tiles(mut self, n: usize) -> Self {
        self.n_tiles = Some(n);
        self
    }

    /// Record cycle-level telemetry streams (and, unless overridden by
    /// [`RunConfig::trace`], the annotation trace).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Force annotation tracing on or off independently of telemetry.
    /// Litmus runs are always traced — the conformance monitor needs the
    /// trace — so a `trace(false)` there is ignored.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Per-tile DMA engine channel count override.
    pub fn dma_channels(mut self, n: usize) -> Self {
        self.dma_channels = Some(n);
        self
    }

    /// Memory-controller tiles, with the SDRAM offset space interleaved
    /// across them in 4 KiB stripes (`pmc_soc_sim::addr::controller_for`).
    /// Unset (or an empty list) keeps the simulator's single-controller
    /// default; entries must be distinct, in-range tiles
    /// (`SocConfig::validate` checks when the simulator is built).
    pub fn mem_controllers(mut self, tiles: Vec<usize>) -> Self {
        self.mem_controllers = Some(tiles);
        self
    }

    /// Freeze the builder into a [`Session`]. Panics on axis combinations
    /// that can never run (a mesh whose area contradicts an explicit tile
    /// count); per-run limits are checked by `SocConfig::validate` when
    /// the simulator is built.
    pub fn session(self) -> Session {
        if let (Some(n), Topology::Mesh { cols, rows } | Topology::Torus { cols, rows }) =
            (self.n_tiles, self.topology)
        {
            assert_eq!(
                cols * rows,
                n,
                "{} {cols}x{rows} topology fixes the tile count to {}, not {n}",
                self.topology.name(),
                cols * rows
            );
        }
        Session { cfg: self }
    }
}

/// A frozen, validated run configuration — the handle every executor
/// runs through. Create with [`RunConfig::session`]; each run method
/// builds a fresh simulator, so one session can drive any number of
/// independent, deterministic runs.
pub struct Session {
    cfg: RunConfig,
}

impl Session {
    pub fn backend(&self) -> BackendKind {
        self.cfg.backend
    }
    pub fn lock(&self) -> LockKind {
        self.cfg.lock
    }

    /// The explicit tile count, if the config named one; otherwise the
    /// mesh/torus area, if the topology fixes one.
    pub fn n_tiles(&self) -> Option<usize> {
        self.cfg.n_tiles.or(match self.cfg.topology {
            Topology::Ring => None,
            Topology::Mesh { cols, rows } | Topology::Torus { cols, rows } => Some(cols * rows),
        })
    }

    /// Resolve the tile count for a run that needs at least `need`
    /// workers: an explicit count (or mesh area) wins but must cover the
    /// need; a bare ring sizes itself to the need.
    pub fn tiles_for(&self, need: usize) -> usize {
        let need = need.max(1);
        match self.n_tiles() {
            Some(n) => {
                assert!(n >= need, "{} tiles cannot host {need} workers", n);
                n
            }
            None => need,
        }
    }

    /// Apply the session's axes to a base simulator configuration.
    fn apply(&self, mut cfg: SocConfig) -> SocConfig {
        cfg.topology = self.cfg.topology;
        cfg.telemetry = self.cfg.telemetry;
        cfg.trace = self.cfg.trace.unwrap_or(self.cfg.telemetry);
        if let Some(n) = self.cfg.dma_channels {
            cfg.dma_channels = n;
        }
        if let Some(ctrls) = &self.cfg.mem_controllers {
            cfg.mem_controllers = ctrls.clone();
        }
        cfg
    }

    /// The resolved simulator configuration for an `n_tiles`-tile run on
    /// the full-size machine (workload scale).
    pub fn soc_config(&self, n_tiles: usize) -> SocConfig {
        self.apply(SocConfig { n_tiles, ..SocConfig::default() })
    }

    /// The resolved configuration for a litmus run: the small test
    /// machine (small memories, generous watchdog), always traced, and —
    /// unless the config names a channel count — two DMA channels, so
    /// the conformance sweep also validates the multi-channel completion
    /// protocol against the model.
    pub(crate) fn litmus_soc_config(&self, n_tiles: usize) -> SocConfig {
        let mut cfg = self.apply(SocConfig::small(n_tiles));
        if self.cfg.dma_channels.is_none() {
            cfg.dma_channels = 2;
        }
        cfg.trace = true;
        cfg
    }

    /// Execute a model-level litmus program through the annotation API
    /// and return the observed outcome, trace, counters and telemetry.
    /// The machine sizes itself to the program ([`Session::tiles_for`]
    /// its thread count); surplus tiles idle. Tracing is always on —
    /// the conformance monitor consumes the trace.
    ///
    /// Panics if the program deadlocks on the simulator (the SoC
    /// watchdog fires) or holds a lock across a `WaitEq`.
    pub fn litmus(&self, program: &LitmusProgram) -> LitmusRun {
        crate::litmus_exec::run_litmus_session(self, program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Axis defaults and overrides land in the resolved `SocConfig`.
    #[test]
    fn builder_axes_reach_the_soc_config() {
        let s = RunConfig::new(BackendKind::Dsm)
            .lock(LockKind::Distributed)
            .topology(Topology::Mesh { cols: 2, rows: 2 })
            .telemetry(true)
            .dma_channels(3)
            .session();
        assert_eq!(s.n_tiles(), Some(4), "mesh area fixes the tile count");
        let cfg = s.soc_config(4);
        assert_eq!(cfg.topology, Topology::Mesh { cols: 2, rows: 2 });
        assert!(cfg.telemetry);
        assert!(cfg.trace, "tracing follows telemetry unless overridden");
        assert_eq!(cfg.dma_channels, 3);
        assert!(!RunConfig::new(BackendKind::Swcc).session().soc_config(2).telemetry);
    }

    /// Tile resolution: explicit count wins, bare ring follows the need.
    #[test]
    fn tiles_resolve_from_topology_and_need() {
        let ring = RunConfig::new(BackendKind::Swcc).session();
        assert_eq!(ring.n_tiles(), None);
        assert_eq!(ring.tiles_for(3), 3);
        let fixed = RunConfig::new(BackendKind::Swcc).n_tiles(8).session();
        assert_eq!(fixed.tiles_for(3), 8);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn too_small_an_explicit_tile_count_panics() {
        RunConfig::new(BackendKind::Swcc).n_tiles(2).session().tiles_for(4);
    }

    #[test]
    #[should_panic(expected = "fixes the tile count")]
    fn mesh_area_must_agree_with_explicit_tiles() {
        let _ = RunConfig::new(BackendKind::Swcc)
            .topology(Topology::Mesh { cols: 2, rows: 2 })
            .n_tiles(5)
            .session();
    }

    /// The scale-out axes reach the resolved `SocConfig`: a torus fixes
    /// the tile count like a mesh, and the controller list lands intact.
    #[test]
    fn torus_and_controllers_reach_the_soc_config() {
        let s = RunConfig::new(BackendKind::Swcc)
            .topology(Topology::Torus { cols: 2, rows: 2 })
            .mem_controllers(vec![0, 2])
            .session();
        assert_eq!(s.n_tiles(), Some(4), "torus area fixes the tile count");
        let cfg = s.soc_config(4);
        assert_eq!(cfg.topology, Topology::Torus { cols: 2, rows: 2 });
        assert_eq!(cfg.mem_controllers, vec![0, 2]);
        assert_eq!(cfg.controllers(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "torus 2x2 topology fixes the tile count")]
    fn torus_area_must_agree_with_explicit_tiles() {
        let _ = RunConfig::new(BackendKind::Swcc)
            .topology(Topology::Torus { cols: 2, rows: 2 })
            .n_tiles(5)
            .session();
    }
}
