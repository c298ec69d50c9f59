//! Synthetic instruction-cache model.
//!
//! Application kernels run as Rust closures, so there is no instruction
//! stream to simulate; instead the per-core I-cache charges a
//! deterministic miss budget of `mpki` misses per 1000 instructions with
//! Bresenham-style error accumulation. This reproduces the roughly
//! constant I-cache-stall slice of the paper's Fig. 8 without an ISA
//! simulator (see DESIGN.md, substitution table).

/// Deterministic miss accounting: `misses(n)` over consecutive calls
/// distributes exactly `round(total * mpki / 1000)` misses, independent of
/// call granularity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ICache {
    mpki: u64,
    /// Accumulated "miss debt" in millis (1/1000 instruction units).
    acc: u64,
}

impl ICache {
    pub(crate) fn new(mpki: u32) -> Self {
        ICache { mpki: mpki as u64, acc: 0 }
    }

    /// Account `instrs` fetched instructions; returns how many I-cache
    /// misses they incur.
    pub(crate) fn fetch(&mut self, instrs: u64) -> u64 {
        self.acc += instrs * self.mpki;
        let misses = self.acc / 1000;
        self.acc %= 1000;
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_long_run_rate() {
        let mut ic = ICache::new(4);
        let mut misses = 0;
        for _ in 0..1000 {
            misses += ic.fetch(1000);
        }
        assert_eq!(misses, 4_000);
    }

    #[test]
    fn granularity_independent() {
        let mut a = ICache::new(7);
        let mut b = ICache::new(7);
        let mut ma = 0;
        let mut mb = 0;
        for _ in 0..700 {
            ma += a.fetch(13);
        }
        mb += b.fetch(700 * 13);
        assert_eq!(ma, mb);
    }

    #[test]
    fn zero_rate_never_misses() {
        let mut ic = ICache::new(0);
        assert_eq!(ic.fetch(1_000_000), 0);
    }
}
