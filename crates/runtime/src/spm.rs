//! The non-LIFO SPM staging allocator.
//!
//! Scratch-pad scopes stage objects into a per-tile arena. Scopes mostly
//! nest, so a bump allocator fits — but streaming prefetch overlaps
//! lifetimes (the double-buffered pattern opens task *k+1*'s scope before
//! closing task *k*'s), so regions may be freed out of stack order. A
//! freed-but-buried region parks on a dead list and is reclaimed, along
//! with everything dead beneath it, once nothing live remains above —
//! the arena always returns to `base` when all scopes are closed.

/// Bump allocator with out-of-order free and dead-region reclamation.
/// Offsets are arena-relative; sizes are padded to `line` internally, so
/// callers pass the same raw size to [`StagingAlloc::alloc`] and
/// [`StagingAlloc::free`].
#[derive(Debug, Clone)]
pub(crate) struct StagingAlloc {
    end: u32,
    line: u32,
    top: u32,
    /// Freed-but-buried regions `(offset, padded_size)`, reclaimed once
    /// everything above them is freed.
    dead: Vec<(u32, u32)>,
}

impl StagingAlloc {
    pub(crate) fn new(base: u32, end: u32, line: u32) -> Self {
        assert!(line > 0 && base <= end);
        StagingAlloc { end, line, top: base, dead: Vec::new() }
    }

    fn padded(&self, size: u32) -> u32 {
        size.div_ceil(self.line) * self.line
    }

    /// Reserve a staging region of `size` bytes (line-padded); returns
    /// its offset. Panics when the arena is exhausted.
    pub(crate) fn alloc(&mut self, size: u32) -> u32 {
        let off = self.top;
        let padded = self.padded(size);
        assert!(off + padded <= self.end, "SPM arena exhausted");
        self.top += padded;
        off
    }

    /// Release the region previously returned for (`off`, `size`).
    /// Regions freed out of stack order are buried until uncovered.
    pub(crate) fn free(&mut self, off: u32, size: u32) {
        let padded = self.padded(size);
        if off + padded == self.top {
            self.top = off;
            while let Some(pos) = self.dead.iter().position(|&(o, s)| o + s == self.top) {
                self.top = self.dead.swap_remove(pos).0;
            }
        } else {
            self.dead.push((off, padded));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_core::fuzz::for_each_case;

    /// Whether every region has been freed *and* reclaimed — the arena
    /// is back at `base`, its pristine state.
    fn fully_reclaimed(a: &StagingAlloc, base: u32) -> bool {
        a.top == base && a.dead.is_empty()
    }

    #[test]
    fn lifo_free_reclaims_immediately() {
        let mut a = StagingAlloc::new(64, 4096, 32);
        let x = a.alloc(100);
        let y = a.alloc(10);
        assert_eq!(x, 64);
        assert_eq!(y, 64 + 128);
        a.free(y, 10);
        a.free(x, 100);
        assert!(fully_reclaimed(&a, 64));
    }

    #[test]
    fn buried_free_is_reclaimed_when_uncovered() {
        let mut a = StagingAlloc::new(0, 4096, 32);
        let x = a.alloc(32);
        let y = a.alloc(32);
        let z = a.alloc(32);
        a.free(x, 32); // buried under y and z
        a.free(z, 32); // pops z, x stays buried under y
        assert_eq!(a.top, 64);
        a.free(y, 32); // uncovers x: everything reclaimed
        assert!(fully_reclaimed(&a, 0));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = StagingAlloc::new(0, 64, 32);
        a.alloc(32);
        a.alloc(33);
    }

    /// Interleaved alloc/free of prefetch-style scopes: live regions
    /// never overlap each other (nor the line padding of another),
    /// every region stays inside the arena, and once everything is
    /// freed — in an arbitrary, generally non-LIFO order — the arena
    /// is fully reclaimed.
    #[test]
    fn interleaved_scopes_never_overlap_and_always_reclaim() {
        for_each_case("interleaved_scopes_never_overlap_and_always_reclaim", 256, |rng| {
            let ops = (0..1 + rng.below(59))
                .map(|_| (rng.below(3) as u32, 1 + rng.below(599) as u32, rng.below(8) as u32))
                .collect::<Vec<_>>();
            let (base, end, line) = (128u32, 32 << 10, 32u32);
            let mut a = StagingAlloc::new(base, end, line);
            // Live regions as (offset, raw_size).
            let mut live: Vec<(u32, u32)> = Vec::new();
            let padded = |s: u32| s.div_ceil(line) * line;
            for (op, size, pick) in ops {
                // op 0/1: alloc (biased towards allocating), op 2: free a
                // pseudo-random live region (non-LIFO in general).
                if op < 2 || live.is_empty() {
                    // Guard on the bump pointer (live *plus* buried dead
                    // bytes) — exactly the allocator's own exhaustion
                    // condition, which is tested separately.
                    if a.top + padded(size) > end {
                        continue;
                    }
                    let off = a.alloc(size);
                    assert!(
                        off >= base && off + padded(size) <= end,
                        "region [{off}, +{size}) escapes the arena"
                    );
                    for &(o, s) in &live {
                        let (a0, a1) = (off, off + padded(size));
                        let (b0, b1) = (o, o + padded(s));
                        assert!(a1 <= b0 || b1 <= a0, "overlap: [{a0},{a1}) vs live [{b0},{b1})");
                    }
                    live.push((off, size));
                } else {
                    let (off, size) = live.swap_remove(pick as usize % live.len());
                    a.free(off, size);
                }
            }
            // Drain the remainder in a scrambled order.
            while !live.is_empty() {
                let (off, size) = live.swap_remove((off_seed(&live)) % live.len());
                a.free(off, size);
            }
            assert!(fully_reclaimed(&a, base), "dead regions leaked: top {} base {base}", a.top);
        });
    }

    /// The bump pointer never exceeds the sum of padded live+dead
    /// regions above base (no phantom growth from reclamation).
    #[test]
    fn top_is_bounded_by_outstanding_bytes() {
        for_each_case("top_is_bounded_by_outstanding_bytes", 256, |rng| {
            let sizes =
                (0..1 + rng.below(39)).map(|_| 1 + rng.below(511) as u32).collect::<Vec<_>>();
            let line = 32u32;
            let mut a = StagingAlloc::new(0, 1 << 20, line);
            let mut regions: Vec<(u32, u32)> = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                regions.push((a.alloc(s), s));
                // Free every other allocation immediately (non-LIFO churn).
                if i % 2 == 1 {
                    let (off, size) = regions.remove(regions.len() / 2);
                    a.free(off, size);
                }
            }
            let outstanding: u32 = regions.iter().map(|&(_, s)| s.div_ceil(line) * line).sum();
            // Dead bytes below top are bounded by what was freed, which
            // is itself bounded by everything ever allocated.
            let ever: u32 = sizes.iter().map(|&s| s.div_ceil(line) * line).sum();
            assert!(a.top >= outstanding.min(ever));
            assert!(a.top <= ever);
        });
    }

    /// Deterministic pseudo-random pick derived from the live set (keeps
    /// the drain order scrambled without an RNG in scope).
    fn off_seed(live: &[(u32, u32)]) -> usize {
        live.iter().fold(7usize, |h, &(o, s)| {
            h.wrapping_mul(31).wrapping_add(o as usize ^ (s as usize) << 3)
        })
    }
}
