//! Per-core, non-coherent, write-back data cache.
//!
//! The cache holds *real data copies*, not just tags: after another core
//! updates SDRAM, a core that has not invalidated its line keeps reading
//! the stale bytes — precisely the behaviour software cache coherency has
//! to manage (paper Section V-B). Like the MicroBlaze, the cache can
//! either invalidate a line or flush-and-invalidate it; there is no way to
//! reconcile a dirty line in place.

use crate::config::CacheConfig;

/// A dirty line evicted or flushed: must be written back to SDRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Writeback {
    /// SDRAM offset of the line.
    pub offset: u32,
    pub data: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    stamp: u64,
    data: Vec<u8>,
}

/// Set-associative write-back cache indexed by SDRAM offset.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways, row-major by set
    tick: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_size.is_power_of_two() && cfg.sets.is_power_of_two());
        let line = Line {
            tag: 0,
            valid: false,
            dirty: false,
            stamp: 0,
            data: vec![0; cfg.line_size as usize],
        };
        Cache { cfg, lines: vec![line; (cfg.sets * cfg.ways) as usize], tick: 0 }
    }

    /// The line-aligned base of an SDRAM offset.
    #[inline]
    pub(crate) fn line_of(&self, offset: u32) -> u32 {
        offset & !(self.cfg.line_size - 1)
    }

    #[inline]
    fn set_of(&self, line: u32) -> u32 {
        (line / self.cfg.line_size) & (self.cfg.sets - 1)
    }

    fn slot(&mut self, line: u32) -> Option<usize> {
        let set = self.set_of(line);
        let base = (set * self.cfg.ways) as usize;
        (base..base + self.cfg.ways as usize)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == line)
    }

    /// Whether the line containing `offset` is present.
    pub fn contains(&mut self, offset: u32) -> bool {
        let line = self.line_of(offset);
        self.slot(line).is_some()
    }

    /// Read within a present line. Panics if absent.
    pub fn read_hit(&mut self, offset: u32, out: &mut [u8]) {
        let line = self.line_of(offset);
        let i = self.slot(line).expect("read_hit on absent line");
        self.tick += 1;
        self.lines[i].stamp = self.tick;
        let within = (offset - line) as usize;
        out.copy_from_slice(&self.lines[i].data[within..within + out.len()]);
    }

    /// Write within a present line (write-back: marks dirty). Panics if
    /// absent.
    pub fn write_hit(&mut self, offset: u32, data: &[u8]) {
        let line = self.line_of(offset);
        let i = self.slot(line).expect("write_hit on absent line");
        self.tick += 1;
        self.lines[i].stamp = self.tick;
        self.lines[i].dirty = true;
        let within = (offset - line) as usize;
        self.lines[i].data[within..within + data.len()].copy_from_slice(data);
    }

    /// Install a line (allocate-on-miss, both reads and writes). Returns
    /// the dirty victim to write back, if any.
    pub fn fill(&mut self, line: u32, data: &[u8]) -> Option<Writeback> {
        debug_assert_eq!(line, self.line_of(line));
        debug_assert_eq!(data.len(), self.cfg.line_size as usize);
        let set = self.set_of(line);
        let base = (set * self.cfg.ways) as usize;
        let end = base + self.cfg.ways as usize;
        // Prefer an invalid way; otherwise evict LRU.
        let victim = (base..end).find(|&i| !self.lines[i].valid).unwrap_or_else(|| {
            (base..end).min_by_key(|&i| self.lines[i].stamp).expect("ways >= 1")
        });
        let evicted = {
            let l = &self.lines[victim];
            if l.valid && l.dirty {
                Some(Writeback { offset: l.tag, data: l.data.clone() })
            } else {
                None
            }
        };
        self.tick += 1;
        let l = &mut self.lines[victim];
        l.tag = line;
        l.valid = true;
        l.dirty = false;
        l.stamp = self.tick;
        l.data.copy_from_slice(data);
        evicted
    }

    /// Flush-and-invalidate the line containing `offset`: returns the
    /// write-back if it was present and dirty. The line never stays in
    /// the cache (the MicroBlaze cannot reconcile in place).
    pub fn flush_line(&mut self, offset: u32) -> Option<Writeback> {
        let line = self.line_of(offset);
        let i = self.slot(line)?;
        let l = &mut self.lines[i];
        l.valid = false;
        if l.dirty {
            l.dirty = false;
            Some(Writeback { offset: l.tag, data: l.data.clone() })
        } else {
            None
        }
    }

    /// Invalidate without write-back (discard local modifications).
    /// Returns whether the line was present.
    pub fn invalidate_line(&mut self, offset: u32) -> bool {
        let line = self.line_of(offset);
        match self.slot(line) {
            Some(i) => {
                self.lines[i].valid = false;
                self.lines[i].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Iterate the line-aligned offsets covering `[offset, offset+len)`;
    /// an empty range covers no line.
    pub(crate) fn lines_covering(&self, offset: u32, len: u32) -> impl Iterator<Item = u32> {
        let ls = self.cfg.line_size;
        let first = if len == 0 { offset } else { offset & !(ls - 1) };
        (first..offset + len).step_by(ls as usize)
    }

    /// Flush-and-invalidate every valid line (returns all dirty victims).
    pub fn flush_all(&mut self) -> Vec<Writeback> {
        let mut out = Vec::new();
        for l in &mut self.lines {
            if l.valid {
                if l.dirty {
                    out.push(Writeback { offset: l.tag, data: l.data.clone() });
                }
                l.valid = false;
                l.dirty = false;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 8-byte lines = 32 bytes.
        Cache::new(CacheConfig { line_size: 8, sets: 2, ways: 2 })
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert!(!c.contains(0));
        assert!(c.fill(0, &[1, 2, 3, 4, 5, 6, 7, 8]).is_none());
        assert!(c.contains(0));
        assert!(c.contains(7));
        assert!(!c.contains(8));
        let mut b = [0u8; 2];
        c.read_hit(2, &mut b);
        assert_eq!(b, [3, 4]);
    }

    #[test]
    fn write_makes_dirty_and_flush_returns_it() {
        let mut c = tiny();
        assert!(c.fill(8, &[0; 8]).is_none());
        c.write_hit(12, &[9, 9]);
        let wb = c.flush_line(8).expect("dirty line must write back");
        assert_eq!(wb.offset, 8);
        assert_eq!(wb.data[4..6], [9, 9]);
        assert!(!c.contains(8), "flush always invalidates");
        // Flushing again: nothing.
        assert!(c.flush_line(8).is_none());
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let mut c = tiny();
        c.fill(0, &[0; 8]);
        c.write_hit(0, &[7]);
        assert!(c.invalidate_line(0));
        assert!(!c.contains(0));
        // Re-fill sees backing data, not the discarded write.
        c.fill(0, &[1; 8]);
        let mut b = [0u8; 1];
        c.read_hit(0, &mut b);
        assert_eq!(b, [1]);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_victim() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 16 (line/8 mod 2 == 0).
        c.fill(0, &[0; 8]);
        c.write_hit(0, &[42]);
        c.fill(16, &[0; 8]);
        // Touch 16 so line 0 is LRU.
        let mut b = [0u8; 1];
        c.read_hit(16, &mut b);
        // Fill 32 (same set): evicts line 0, which is dirty.
        let wb = c.fill(32, &[0; 8]).expect("dirty LRU victim");
        assert_eq!(wb.offset, 0);
        assert_eq!(wb.data[0], 42);
        assert!(c.contains(16) && c.contains(32) && !c.contains(0));
    }

    #[test]
    fn lines_covering_spans() {
        let c = tiny();
        let lines: Vec<u32> = c.lines_covering(6, 4).collect();
        assert_eq!(lines, vec![0, 8]);
        let lines: Vec<u32> = c.lines_covering(8, 8).collect();
        assert_eq!(lines, vec![8]);
        let lines: Vec<u32> = c.lines_covering(0, 0).collect();
        assert_eq!(lines, Vec::<u32>::new());
        let lines: Vec<u32> = c.lines_covering(6, 0).collect();
        assert_eq!(lines, Vec::<u32>::new());
    }

    #[test]
    fn flush_all_returns_only_dirty() {
        let mut c = tiny();
        c.fill(0, &[0; 8]);
        c.fill(8, &[0; 8]);
        c.write_hit(8, &[5]);
        let wbs = c.flush_all();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].offset, 8);
        assert!(!c.contains(0) && !c.contains(8));
    }

    #[test]
    fn stale_data_is_served_until_invalidated() {
        // The whole point of the simulator: caches are incoherent.
        let mut c = tiny();
        c.fill(0, &[1; 8]);
        // Backing store changes (another core wrote SDRAM) — cache still
        // serves the old bytes.
        let mut b = [0u8; 1];
        c.read_hit(0, &mut b);
        assert_eq!(b, [1]);
    }
}
