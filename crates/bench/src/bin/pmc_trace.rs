//! **pmc-trace** — run any litmus case or application workload with
//! cycle-level telemetry and export the timeline as Chrome-trace-event
//! JSON (the format Perfetto and `chrome://tracing` open directly),
//! plus a latency-histogram text summary on stdout.
//!
//! Usage:
//!
//! ```text
//! pmc-trace --litmus NAME [--backend uncached|swcc|dsm|spm]
//!           [--lock sdram|dist] [--topology ring|mesh] [--out PATH]
//! pmc-trace --app radiosity|raytrace|volrend|motion-est
//!           [--backend ...] [--tiles N] [--full]
//!           [--topology ring|mesh|torus] [--out PATH]
//! pmc-trace --list    # print the litmus catalogue names
//! pmc-trace --smoke   # CI check: export two fixed traces, validate them
//! ```
//!
//! Every export is checked before it is written: the JSON must pass
//! [`pmc_soc_sim::telemetry::validate_json`] and every runtime span must
//! pair up ([`pmc_soc_sim::telemetry::pair_spans`] with zero dangling
//! begins), so a malformed trace fails the run instead of producing an
//! artifact Perfetto rejects.

use pmc_apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc_bench::{Args, Takes};
use pmc_core::conformance;
use pmc_runtime::{BackendKind, LockKind, RunConfig};
use pmc_soc_sim::telemetry::{pair_spans, perfetto_json, validate_json, MetricsRegistry};
use pmc_soc_sim::{SocConfig, TelemetryReport, Topology, TraceRecord};

const FLAGS: &[(&str, Takes)] = &[
    ("--litmus", Takes::Str),
    ("--app", Takes::Str),
    ("--backend", Takes::Str),
    ("--lock", Takes::Str),
    ("--topology", Takes::Str),
    ("--tiles", Takes::U32),
    ("--full", Takes::Switch),
    ("--out", Takes::Str),
    ("--list", Takes::Switch),
    ("--smoke", Takes::Switch),
];

fn backend_arg(args: &Args) -> BackendKind {
    let name = args.str("--backend", "spm");
    BackendKind::ALL.into_iter().find(|b| b.name() == name).unwrap_or_else(|| {
        args.fail(&format!("--backend must be uncached|swcc|dsm|spm, got `{name}`"))
    })
}

fn lock_arg(args: &Args) -> LockKind {
    match args.str("--lock", "sdram").as_str() {
        "sdram" => LockKind::Sdram,
        "dist" | "distributed" => LockKind::Distributed,
        other => args.fail(&format!("--lock must be `sdram` or `dist`, got `{other}`")),
    }
}

/// Mesh shape for a litmus run (same policy as `tests/conformance.rs`):
/// two columns, at least two rows, surplus tiles idle.
fn litmus_topology(args: &Args, threads: usize) -> Topology {
    match args.str("--topology", "ring").as_str() {
        "ring" => Topology::Ring,
        "mesh" => Topology::Mesh { cols: 2, rows: threads.div_ceil(2).max(2) },
        other => args
            .fail(&format!("--topology must be `ring` or `mesh` for a litmus run, got `{other}`")),
    }
}

/// Validate, write and summarise one telemetry run. The returned string
/// is a one-line description for the smoke log.
fn export(
    label: &str,
    cfg: &SocConfig,
    telemetry: &TelemetryReport,
    trace: &[TraceRecord],
    out: &str,
) -> String {
    let json = perfetto_json(cfg, telemetry, trace);
    validate_json(&json).unwrap_or_else(|e| panic!("{label}: exported JSON is malformed: {e}"));
    let (spans, dangling) =
        pair_spans(trace).unwrap_or_else(|e| panic!("{label}: span pairing failed: {e}"));
    assert_eq!(dangling, 0, "{label}: {dangling} span begin(s) never ended");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    let events: usize =
        telemetry.per_tile.iter().map(Vec::len).sum::<usize>() + telemetry.system.len();
    println!("{}", MetricsRegistry::from_trace(trace).summary());
    let line = format!(
        "{label}: wrote {out} ({} bytes, {} paired spans, {events} telemetry events, \
         {} dropped)",
        json.len(),
        spans.len(),
        telemetry.dropped
    );
    println!("{line}");
    line
}

fn run_litmus_export(args: &Args, name: &str, backend: BackendKind, lock: LockKind, out: &str) {
    let case = conformance::cases()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown litmus case `{name}` (try --list)"));
    let topo = litmus_topology(args, case.program.threads.len().max(1));
    let run = RunConfig::new(backend)
        .lock(lock)
        .topology(topo)
        .telemetry(true)
        .session()
        .litmus(&case.program);
    export(
        &format!("litmus {name} on {}", backend.name()),
        &run.cfg,
        &run.telemetry,
        &run.trace,
        out,
    );
}

fn run_app_export(args: &Args, name: &str, backend: BackendKind, out: &str) {
    let workload = match name {
        "radiosity" => Workload::Radiosity,
        "raytrace" => Workload::Raytrace,
        "volrend" => Workload::Volrend,
        "motion-est" => Workload::MotionEst,
        other => panic!("--app must be radiosity|raytrace|volrend|motion-est, got `{other}`"),
    };
    let tiles = args.u32("--tiles", 8) as usize;
    let params = if args.flag("--full") { WorkloadParams::Full } else { WorkloadParams::Tiny };
    let r = RunConfig::new(backend)
        .n_tiles(tiles)
        .topology(args.topology(tiles))
        .telemetry(true)
        .session()
        .workload(workload, params);
    export(&format!("app {name} on {}", backend.name()), &r.cfg, &r.telemetry, &r.trace, out);
}

/// The CI smoke tier: one annotated litmus (scope/lock spans), one DMA
/// litmus (descriptor lifetimes + dma-wait spans) and one tiny app run
/// (barrier/FIFO traffic), each exported into `target/` and validated.
fn smoke(args: &Args) {
    std::fs::create_dir_all("target").expect("create target/");
    run_litmus_export(
        args,
        "mp_annotated",
        BackendKind::Spm,
        LockKind::Sdram,
        "target/mp_annotated.trace.json",
    );
    run_litmus_export(
        args,
        "dma_mp_put",
        BackendKind::Spm,
        LockKind::Sdram,
        "target/dma_mp_put.trace.json",
    );
    run_app_export(args, "motion-est", BackendKind::Spm, "target/motion_est.trace.json");
    println!("pmc-trace smoke OK");
}

fn main() {
    let args = Args::from_env(FLAGS);
    if args.flag("--list") {
        for case in conformance::cases() {
            println!("{}", case.name);
        }
        return;
    }
    if args.flag("--smoke") {
        smoke(&args);
        return;
    }
    let backend = backend_arg(&args);
    let app = args.str("--app", "");
    if !app.is_empty() {
        let out = args.str("--out", &format!("{app}.trace.json"));
        run_app_export(&args, &app, backend, &out);
        return;
    }
    let name = args.str("--litmus", "mp_annotated");
    let out = args.str("--out", &format!("{name}.trace.json"));
    run_litmus_export(&args, &name, backend, lock_arg(&args), &out);
}
