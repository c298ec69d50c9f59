//! `kvserve_open` — the sharded KV service under open-loop load from a
//! seeded `loadgen` schedule: 1 200 requests (so the p99 has 12 samples
//! beyond it), 4 shards, 70/25/5 GET/PUT/COPY, exponential arrivals.
//!
//! Seven cells per pass: SWCC on the mesh with 2 controllers at the rate
//! ladder `mean_interarrival` ∈ {2400, 1600, 1200, 1000, 800} cycles
//! (saturation is ≈ 1.12 requests per kilocycle; 1600 is the reference
//! rate, 800 is deliberately overloaded so a growing backlog is
//! visible), SPM on the torus at 1600, and one write-heavy cell (60 %
//! PUT, 15 % COPY, Zipf 2.0, hot shard migrated half way) — writes
//! beside reads, `XScope` publish and whole-shard DMA copy beside
//! `RoScope` lookups, so a gain for GETs that costs PUTs shows.
//!
//! Latency is open loop: from each request's *intended* injection time,
//! so a stalled frontend is charged to the requests behind it.

use pmc_apps::kvserve::{run_serve_session, KvServe, KvServeParams};
use pmc_apps::loadgen::{ArrivalDist, LoadGenParams};
use pmc_runtime::{BackendKind, PmcCtx, Program, RunConfig, System};
use pmc_soc_sim::telemetry::pair_spans;
use pmc_soc_sim::trace::span_kind;
use pmc_soc_sim::{Topology, TraceRecord};

use super::{audit, observe, spread_controllers, timed, Digest, PassOut, Size, Workload};
use crate::layers::{Checks, Layers};
use crate::metrics::{Values, LADDER};
use crate::spans::Spans;
use crate::stats::percentile_u64;

/// The latency limit the rate ladder is judged against (cycles, on p99).
const P99_LIMIT: u64 = 20_000;
/// The ladder rung the headline p50/p99 are quoted at.
const REFERENCE_IA: u64 = 1600;
/// Tiles of every cell: frontend + 4 shards + the migration spare.
const N_TILES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A rung of the rate ladder (its mean interarrival gap).
    Ladder(u64),
    /// The same service on the SPM back-end over the torus.
    SpmTorus,
    /// PUT/COPY-heavy, skewed, with a mid-run shard migration.
    WriteHeavy,
}

struct Cell {
    role: Role,
    backend: BackendKind,
    topology: Topology,
    params: KvServeParams,
}

struct CellOut {
    makespan: u64,
    checksum: u64,
    latencies: Vec<u64>,
    served: Vec<u32>,
    run_s: f64,
}

pub struct KvServeOpen {
    cells: Vec<Cell>,
}

impl KvServeOpen {
    pub fn new(seed: u64, size: Size) -> Self {
        let n_requests = match size {
            Size::Full => 1200,
            Size::Smoke => 200,
        };
        let load = |mean_interarrival| LoadGenParams {
            n_requests,
            mean_interarrival,
            arrival: ArrivalDist::Exponential,
            mean_service: 80,
            put_fraction: 0.25,
            copy_fraction: 0.05,
            n_shards: 4,
            seed,
            ..LoadGenParams::default()
        };
        let plain = |ia| KvServeParams { load: load(ia), mailbox_depth: 8, migrate_at: None };
        let (mesh, torus) =
            (Topology::Mesh { cols: 2, rows: 3 }, Topology::Torus { cols: 2, rows: 3 });
        let mut cells: Vec<Cell> = LADDER
            .iter()
            .map(|&ia| Cell {
                role: Role::Ladder(ia),
                backend: BackendKind::Swcc,
                topology: mesh,
                params: plain(ia),
            })
            .collect();
        cells.push(Cell {
            role: Role::SpmTorus,
            backend: BackendKind::Spm,
            topology: torus,
            params: plain(REFERENCE_IA),
        });
        cells.push(Cell {
            role: Role::WriteHeavy,
            backend: BackendKind::Swcc,
            topology: mesh,
            params: KvServeParams {
                load: LoadGenParams {
                    put_fraction: 0.6,
                    copy_fraction: 0.15,
                    zipf_s: 2.0,
                    ..load(REFERENCE_IA)
                },
                mailbox_depth: 8,
                migrate_at: Some(n_requests / 2),
            },
        });
        KvServeOpen { cells }
    }
}

impl Workload for KvServeOpen {
    fn pass(
        &self,
        checks: &mut Checks,
        spans: &mut Spans,
        mut layers: Option<&mut Layers>,
    ) -> PassOut {
        let mut digest = Digest::new();
        let (mut makespan, mut run_s) = (0u64, 0.0);
        let mut sim = Values::new();
        let mut max_rate = 0.0f64;
        for c in &self.cells {
            let out = match layers.as_deref_mut() {
                None => c.fused(),
                Some(layers) => c.staged(spans, layers, checks),
            };
            let n = c.params.load.n_requests;
            let served: u32 = out.served.iter().sum();
            checks.check(served == n, || format!("{}: served {served} of {n}", c.label()));
            // A request that was never measured reads back as latency 0.
            let unmeasured = out.latencies.iter().filter(|&&l| l == 0).count();
            checks.check(unmeasured == 0, || {
                format!("{}: {unmeasured} requests without a latency", c.label())
            });
            let p99 = percentile_u64(&out.latencies, 99.0);
            match c.role {
                Role::Ladder(ia) => {
                    sim.insert(format!("apps.kvserve.p99_cycles.ia{ia}"), p99 as f64);
                    if ia == REFERENCE_IA {
                        let p50 = percentile_u64(&out.latencies, 50.0);
                        sim.insert("sim_p50_cycles".into(), p50 as f64);
                        sim.insert("sim_p99_cycles".into(), p99 as f64);
                    }
                    if p99 <= P99_LIMIT && !backlog_grows(&out.latencies) {
                        max_rate = max_rate.max(1000.0 / ia as f64);
                    }
                }
                Role::SpmTorus => {}
                Role::WriteHeavy => {
                    sim.insert("apps.kvserve.migrated_p99_cycles".into(), p99 as f64);
                    let spare = out.served.last().copied().unwrap_or(0);
                    sim.insert("apps.kvserve.spare_served".into(), f64::from(spare));
                    checks.check(spare > 0, || format!("{}: the spare served nothing", c.label()));
                }
            }
            makespan += out.makespan;
            run_s += out.run_s;
            digest.mix(out.makespan);
            digest.mix(out.checksum);
        }
        sim.insert("sim_makespan_cycles".into(), makespan as f64);
        sim.insert("sim_max_rate_rpkc".into(), max_rate);
        PassOut { sim, run_s, digest: digest.finish() }
    }
}

/// A backlog is growing when the last quarter of the requests (by
/// injection order) waits more than twice as long as the first quarter.
fn backlog_grows(latencies: &[u64]) -> bool {
    let q = latencies.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&latencies[latencies.len() - q..]) > 2.0 * mean(&latencies[..q])
}

/// How late the simulated frontend injected each request: the start of
/// its mailbox push (the frontend's `FIFO_PUSH` spans on tile 0, in
/// order) minus the schedule's intended time. Only meaningful for cells
/// without migration, whose first `n` pushes are exactly the `n` jobs.
fn injection_lateness_p99(trace: &[TraceRecord], intended: &[u64]) -> Option<u64> {
    let (spans, _) = pair_spans(trace).ok()?;
    let mut pushes: Vec<u64> = spans
        .iter()
        .filter(|s| s.tile == 0 && s.kind == span_kind::FIFO_PUSH)
        .map(|s| s.start)
        .collect();
    pushes.sort_unstable();
    if pushes.len() < intended.len() {
        return None;
    }
    let late: Vec<u64> = pushes.iter().zip(intended).map(|(p, i)| p.saturating_sub(*i)).collect();
    Some(percentile_u64(&late, 99.0))
}

impl Cell {
    fn label(&self) -> String {
        format!("kvserve {:?} {} {}", self.role, self.backend.name(), self.topology.name())
    }

    fn config(&self, traced: bool) -> RunConfig {
        RunConfig::new(self.backend)
            .topology(self.topology)
            .mem_controllers(spread_controllers(N_TILES, 2))
            .telemetry(traced)
            .trace(traced)
    }

    fn fused(&self) -> CellOut {
        let (r, run_s) = timed(|| run_serve_session(&self.config(false).session(), &self.params));
        CellOut {
            makespan: r.report.makespan,
            checksum: r.checksum,
            latencies: r.latencies,
            served: r.served,
            run_s,
        }
    }

    fn staged(&self, spans: &mut Spans, layers: &mut Layers, checks: &mut Checks) -> CellOut {
        let cell = spans.enter("cell");
        let session = self.config(true).session();
        let cfg = session.soc_config(N_TILES);
        let (mut sys, app) = spans.time("build", || {
            let mut sys = System::new(cfg.clone(), session.backend(), session.lock());
            let app = KvServe::build(&mut sys, self.params.clone());
            (sys, app)
        });
        let app_ref = &app;
        let mut programs: Vec<Program<'_>> =
            vec![Box::new(move |ctx: &mut PmcCtx<'_, '_>| app_ref.frontend(ctx))];
        for w in 0..app.n_servers() {
            programs.push(Box::new(move |ctx: &mut PmcCtx<'_, '_>| app_ref.worker(ctx, w)));
        }
        let (report, run_s) = spans.time("run", || timed(|| sys.run(programs)));
        let (out, seen) = spans.time("collect", || {
            let out = CellOut {
                makespan: report.makespan,
                checksum: app.checksum(&sys),
                latencies: app.latencies(&sys),
                served: app.served_counts(&sys),
                run_s,
            };
            (out, observe(&sys, true))
        });
        if self.role == Role::Ladder(REFERENCE_IA) {
            let intended: Vec<u64> = app.jobs().iter().map(|j| j.start_time).collect();
            let late = injection_lateness_p99(&seen.trace, &intended);
            checks.check(late.is_some(), || {
                format!("{}: frontend pushes missing from the trace", self.label())
            });
            layers
                .extra
                .insert("apps.loadgen.inject_late_p99_cycles".into(), late.unwrap_or(0) as f64);
        }
        audit(&self.label(), &cfg, &report, &seen, spans, layers, checks);
        spans.exit(cell);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_growth_compares_last_quarter_to_first() {
        assert!(!backlog_grows(&[100, 100, 100, 100, 100, 100, 100, 100]));
        assert!(!backlog_grows(&[100, 100, 150, 150, 150, 150, 200, 200]));
        assert!(backlog_grows(&[100, 100, 150, 300, 400, 500, 600, 700]));
        assert!(!backlog_grows(&[5, 5000]));
    }

    /// The schedule is a pure function of the seed, and only the ladder's
    /// rate differs between rungs.
    #[test]
    fn cells_follow_the_seed() {
        let a = KvServeOpen::new(7, Size::Smoke);
        let b = KvServeOpen::new(8, Size::Smoke);
        assert_eq!(a.cells.len(), 7);
        assert!(a.cells.iter().all(|c| c.params.load.seed == 7));
        assert!(b.cells.iter().all(|c| c.params.load.seed == 8));
        let rungs: Vec<u64> =
            a.cells[..5].iter().map(|c| c.params.load.mean_interarrival).collect();
        assert_eq!(rungs, LADDER);
        assert_eq!(a.cells[6].params.migrate_at, Some(100));
    }
}
