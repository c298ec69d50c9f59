//! Open-loop load generation for the serving subsystem.
//!
//! The generator materialises the whole request schedule up front as a
//! list of [`Job`]s — the `Job`/`Sim` pattern: every job carries an
//! *intended* `start_time` (virtual cycles) drawn from a seeded
//! interarrival distribution and a `service_time` for the synthetic
//! work the shard performs. The frontend injects each job no earlier
//! than its `start_time` and never waits for replies, so offered load
//! is controlled by the schedule alone (open loop): if the system backs
//! up, latency grows — the generator does not slow down.
//!
//! Everything is derived from [`rand::rngs::StdRng`] seeded with
//! [`LoadGenParams::seed`]; the same parameters always produce the same
//! schedule, byte for byte, which is what lets `fig_serve --json` be
//! compared across runs and across execution engines.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Interarrival-time distribution shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalDist {
    /// Gaps uniform in `[mean/2, 3*mean/2]`.
    Uniform,
    /// Memoryless gaps with the given mean (inverse-CDF sampling) — the
    /// classic open-loop Poisson arrival process.
    Exponential,
    /// On/off traffic: short gaps (`mean/4`) inside bursts, long gaps
    /// (`4*mean`) between them, with a 1-in-8 chance of ending a burst
    /// after each request. Same mean rate order as the others, much
    /// heavier tail.
    Bursty,
}

impl ArrivalDist {
    pub const ALL: [ArrivalDist; 3] =
        [ArrivalDist::Uniform, ArrivalDist::Exponential, ArrivalDist::Bursty];
}

/// What a request asks its shard to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp {
    /// Lookup `key` (served under an `RoScope`).
    Get,
    /// Update `key` to `val` (served under an `XScope`).
    Put,
    /// Cross-shard op: pull `key` from `src_shard`'s slab into this
    /// shard's slab with a local-to-local DMA copy.
    Copy,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Request id, dense `0..n_requests` in injection order.
    pub id: u32,
    /// Intended injection time (virtual cycles).
    pub start_time: u64,
    /// Synthetic per-request work the shard executes (cycles).
    pub service_time: u64,
    pub op: ReqOp,
    /// Destination shard (Zipf-skewed).
    pub shard: u32,
    /// Key index inside the shard.
    pub key: u32,
    /// Value for [`ReqOp::Put`].
    pub val: u32,
    /// Source shard for [`ReqOp::Copy`].
    pub src_shard: u32,
}

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenParams {
    pub n_requests: u32,
    /// Mean interarrival gap in cycles — offered load is `1/mean`.
    pub mean_interarrival: u64,
    pub arrival: ArrivalDist,
    /// Mean synthetic service time in cycles (uniform in
    /// `[mean/2, 3*mean/2]`).
    pub mean_service: u64,
    /// Fraction of requests that are PUTs (of the non-copy remainder,
    /// the rest are GETs).
    pub put_fraction: f32,
    /// Fraction of requests that are cross-shard copies.
    pub copy_fraction: f32,
    /// Zipf skew exponent over shards: 0 ⇒ uniform; larger ⇒ shard 0
    /// (the *hot shard*) receives an ever-larger share of the traffic.
    pub zipf_s: f32,
    pub n_shards: u32,
    pub keys_per_shard: u32,
    pub seed: u64,
}

impl Default for LoadGenParams {
    fn default() -> Self {
        LoadGenParams {
            n_requests: 64,
            mean_interarrival: 600,
            arrival: ArrivalDist::Exponential,
            mean_service: 100,
            put_fraction: 0.25,
            copy_fraction: 0.05,
            zipf_s: 0.9,
            n_shards: 4,
            keys_per_shard: 32,
            seed: 0xC0FFEE,
        }
    }
}

/// Normalised Zipf weights over `n` ranks: `w[i] ∝ 1/(i+1)^s`. Rank 0
/// is the hot shard. Exposed so tests can compute the expected hot
/// fraction for a given skew.
pub(crate) fn zipf_weights(n: u32, s: f32) -> Vec<f32> {
    let raw: Vec<f32> = (0..n).map(|i| 1.0f32 / ((i + 1) as f32).powf(s)).collect();
    let total: f32 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

fn sample_index(cdf: &[f32], u: f32) -> u32 {
    for (i, &c) in cdf.iter().enumerate() {
        if u < c {
            return i as u32;
        }
    }
    (cdf.len() - 1) as u32
}

/// Materialise the request schedule: `n_requests` jobs with
/// nondecreasing `start_time`, deterministic in `seed`.
pub fn generate(p: &LoadGenParams) -> Vec<Job> {
    assert!(p.n_shards > 0 && p.keys_per_shard > 0 && p.n_requests > 0);
    let mut rng = StdRng::seed_from_u64(p.seed);
    let weights = zipf_weights(p.n_shards, p.zipf_s);
    let cdf: Vec<f32> = weights
        .iter()
        .scan(0.0f32, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();

    let mut jobs = Vec::with_capacity(p.n_requests as usize);
    // Leave a short boot gap so start_time is never 0 (a zero begin
    // timestamp could not ride in a trace record's value operand).
    let mut t: u64 = 64;
    let mut in_burst = true;
    for id in 0..p.n_requests {
        let mean = p.mean_interarrival.max(1);
        let gap = match p.arrival {
            ArrivalDist::Uniform => rng.random_range(mean / 2..mean + mean / 2 + 1),
            ArrivalDist::Exponential => {
                let u = rng.random_range(0.0f32..1.0);
                // Inverse CDF; clamp the tail so one unlucky draw cannot
                // stretch the schedule unboundedly.
                let g = -(1.0 - u).max(1e-6).ln() * mean as f32;
                (g as u64).clamp(1, mean * 8)
            }
            ArrivalDist::Bursty => {
                if in_burst {
                    if rng.random_range(0u32..8) == 0 {
                        in_burst = false;
                    }
                    (mean / 4).max(1)
                } else {
                    in_burst = true;
                    mean * 4
                }
            }
        };
        t += gap;

        let shard = sample_index(&cdf, rng.random_range(0.0f32..1.0));
        let key = rng.random_range(0..p.keys_per_shard);
        let service = {
            let m = p.mean_service.max(2);
            rng.random_range(m / 2..m + m / 2 + 1)
        };
        let kind = rng.random_range(0.0f32..1.0);
        let (op, src_shard) = if p.n_shards > 1 && kind < p.copy_fraction {
            // Copy from the next-ranked shard (wraps), never from self.
            ((ReqOp::Copy), (shard + 1) % p.n_shards)
        } else if kind < p.copy_fraction + p.put_fraction {
            (ReqOp::Put, shard)
        } else {
            (ReqOp::Get, shard)
        };
        let val = rng.random_range(1u32..1 << 30);
        jobs.push(Job { id, start_time: t, service_time: service, op, shard, key, val, src_shard });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_in_seed() {
        let p = LoadGenParams::default();
        assert_eq!(generate(&p), generate(&p));
        let other = LoadGenParams { seed: p.seed + 1, ..p };
        assert_ne!(generate(&p), generate(&other));
    }

    #[test]
    fn start_times_are_nondecreasing_and_positive() {
        for arrival in ArrivalDist::ALL {
            let p = LoadGenParams { arrival, n_requests: 200, ..Default::default() };
            let jobs = generate(&p);
            assert!(jobs[0].start_time > 0);
            for w in jobs.windows(2) {
                assert!(w[0].start_time <= w[1].start_time, "{arrival:?}");
            }
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_shard_zero() {
        let p = LoadGenParams { zipf_s: 2.0, n_requests: 2000, ..Default::default() };
        let jobs = generate(&p);
        let hot = jobs.iter().filter(|j| j.shard == 0).count() as f32 / jobs.len() as f32;
        let expect = zipf_weights(p.n_shards, p.zipf_s)[0];
        assert!((hot - expect).abs() < 0.05, "hot fraction {hot} vs expected {expect}");
        // And the flat knob really is flat.
        let flat = LoadGenParams { zipf_s: 0.0, n_requests: 2000, ..Default::default() };
        let jobs = generate(&flat);
        let hot = jobs.iter().filter(|j| j.shard == 0).count() as f32 / jobs.len() as f32;
        assert!((hot - 0.25).abs() < 0.05, "flat hot fraction {hot}");
    }
}
