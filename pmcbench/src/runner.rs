//! The measuring protocol of one workload, in one process:
//!
//! 1. **set-up** — generate the inputs from the seed (programs, schedules,
//!    reference outcome sets) and run one untimed warm-up pass; repeated
//!    `setups` times, `setup_s` is the median;
//! 2. **timed passes** — tracing off, until the pass count or the time
//!    budget is reached; end-to-end metrics are medians over these;
//! 3. **traced pass** (optional) — telemetry and tracing on, monitor on
//!    every trace, benchmark-side spans; it yields the per-layer numbers
//!    and must reproduce every simulated value of the timed passes bit
//!    for bit.

use std::time::Instant;

use crate::layers::{Checks, Layers};
use crate::metrics::Values;
use crate::pin;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{self, timed, PassOut, Size};

#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Passes(usize),
    /// Keep passing until this many seconds have been measured (and at
    /// least [`MIN_PASSES`] passes made).
    Seconds(f64),
}

/// Fewest timed passes a time budget may end on: a median of fewer is
/// one reading.
pub const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub size: Size,
    pub setups: usize,
    pub budget: Budget,
    pub traced: bool,
}

pub struct Traced {
    /// Per-layer values of the pass, by declared name.
    pub layer: Values,
    pub spans: Spans,
}

pub struct Measured {
    pub name: String,
    pub checks: Checks,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    /// Simulated cycles per host second inside the run calls, per timed
    /// pass; empty for a workload that simulates nothing.
    pub cycles_per_s: Vec<f64>,
    /// The workload's exact values, identical on every pass.
    pub sim: Values,
    pub peak_rss_mb: f64,
    pub traced: Option<Traced>,
}

/// Measure workload `name`. `started` is when the process began, so the
/// first set-up sample covers everything a fresh process pays before its
/// first timed pass.
pub fn measure(name: &str, seed: u64, plan: Plan, started: Instant) -> Result<Measured, String> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut current: Option<(Box<dyn workloads::Workload>, PassOut)> = None;
    for k in 0..plan.setups.max(1) {
        // Never hold two input sets: peak memory is one workload's.
        let previous = current.take().map(|(_, warm)| warm);
        let t = if k == 0 { started } else { Instant::now() };
        let w = workloads::build(name, seed, plan.size, &mut checks)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let warm = w.pass(&mut checks, &mut Spans::off(), None);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = previous {
            same_behaviour(&previous, &warm, "a repeated set-up", &mut checks);
        }
        current = Some((w, warm));
    }
    let (workload, reference) = current.expect("at least one set-up ran");

    let (mut wall_s, mut cycles_per_s) = (Vec::new(), Vec::new());
    let measuring = Instant::now();
    loop {
        let (out, wall) = timed(|| workload.pass(&mut checks, &mut Spans::off(), None));
        wall_s.push(wall);
        if let Some(cycles) = out.sim.get("sim_makespan_cycles") {
            cycles_per_s.push(cycles / out.run_s);
        }
        same_behaviour(&reference, &out, "a timed pass", &mut checks);
        let done = match plan.budget {
            Budget::Passes(n) => wall_s.len() >= n.max(1),
            Budget::Seconds(s) => {
                wall_s.len() >= MIN_PASSES && measuring.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
    }

    // Before the traced pass: end-to-end memory is the tracing-off
    // footprint, not the trace and telemetry buffers'.
    let peak_rss_mb = pin::peak_rss_mb()?;

    let traced = plan.traced.then(|| {
        let (mut spans, mut layers) = (Spans::new(), Layers::default());
        let root = spans.enter("pass");
        let (out, wall) = timed(|| workload.pass(&mut checks, &mut spans, Some(&mut layers)));
        spans.exit(root);
        same_behaviour(&reference, &out, "the traced pass", &mut checks);
        let mut layer = layers.values(&spans);
        layer.insert("soc-sim.telemetry.overhead_ratio".into(), wall / median(&wall_s));
        Traced { layer, spans }
    });

    Ok(Measured {
        name: name.to_string(),
        checks,
        setup_s,
        wall_s,
        cycles_per_s,
        sim: reference.sim,
        peak_rss_mb,
        traced,
    })
}

/// Every pass of a workload must behave identically in simulated terms:
/// same exact metrics, same digest of makespans, checksums and outcomes.
/// Tracing in particular must have no simulated observer effect.
fn same_behaviour(reference: &PassOut, got: &PassOut, what: &str, checks: &mut Checks) {
    checks.check(reference.sim == got.sim && reference.digest == got.digest, || {
        format!(
            "{what} changed the simulated results: {:?} / {:#x} became {:?} / {:#x}",
            reference.sim, reference.digest, got.sim, got.digest
        )
    });
}
