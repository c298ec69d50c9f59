//! Per-core, non-coherent, write-back data cache.
//!
//! The cache holds *real data copies*, not just tags: after another core
//! updates SDRAM, a core that has not invalidated its line keeps reading
//! the stale bytes — precisely the behaviour software cache coherency has
//! to manage (paper Section V-B). Like the MicroBlaze, the cache can
//! either invalidate a line or flush-and-invalidate it; there is no way to
//! reconcile a dirty line in place.
//!
//! Storage is two flat arrays whatever the geometry: one `Line` of
//! metadata per slot and one byte array holding every slot's data, slot
//! `i` at bytes `i * line_size..(i + 1) * line_size`. Fills, write-backs
//! and flushes move bytes between a slot and SDRAM in place
//! ([`Cache::bytes`], [`Cache::bytes_mut`]); nothing on the access path
//! allocates.

use crate::config::CacheConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Set-associative write-back cache indexed by SDRAM offset. A *slot* is
/// the index of one way of one set (`set * ways + way`).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways, row-major by set
    data: Vec<u8>,    // line_size bytes per slot, in slot order
    tick: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_size.is_power_of_two() && cfg.sets.is_power_of_two());
        let slots = (cfg.sets * cfg.ways) as usize;
        Cache {
            cfg,
            lines: vec![Line::default(); slots],
            data: vec![0; slots * cfg.line_size as usize],
            tick: 0,
        }
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

    /// The slot holding the line containing `offset`, if present.
    #[inline]
    pub fn lookup(&self, offset: u32) -> Option<usize> {
        let line = self.line_of(offset);
        let base = (self.set_of(line) * self.cfg.ways) as usize;
        (base..base + self.cfg.ways as usize)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == line)
    }

    /// The bytes of `slot`'s line.
    #[inline]
    pub fn bytes(&self, slot: usize) -> &[u8] {
        let ls = self.cfg.line_size as usize;
        &self.data[slot * ls..(slot + 1) * ls]
    }

    /// The bytes of `slot`'s line, for filling it from memory.
    #[inline]
    pub fn bytes_mut(&mut self, slot: usize) -> &mut [u8] {
        let ls = self.cfg.line_size as usize;
        &mut self.data[slot * ls..(slot + 1) * ls]
    }

    /// Mark `slot` most recently used and return the byte range of
    /// `len` bytes at `offset` within it.
    #[inline]
    fn touch(&mut self, slot: usize, offset: u32, len: usize) -> std::ops::Range<usize> {
        debug_assert!(self.lines[slot].valid && self.lines[slot].tag == self.line_of(offset));
        self.tick += 1;
        self.lines[slot].stamp = self.tick;
        let start = slot * self.cfg.line_size as usize + (offset - self.lines[slot].tag) as usize;
        start..start + len
    }

    /// Read `out.len()` bytes at `offset` from the line in `slot` (a
    /// [`Cache::lookup`] or [`Cache::fill`] of that offset).
    #[inline]
    pub fn read(&mut self, slot: usize, offset: u32, out: &mut [u8]) {
        let range = self.touch(slot, offset, out.len());
        out.copy_from_slice(&self.data[range]);
    }

    /// Write `data` at `offset` into the line in `slot` (write-back:
    /// marks it dirty).
    #[inline]
    pub fn write(&mut self, slot: usize, offset: u32, data: &[u8]) {
        let range = self.touch(slot, offset, data.len());
        self.lines[slot].dirty = true;
        self.data[range].copy_from_slice(data);
    }

    /// Install the absent line `line` (allocate-on-miss, both reads and
    /// writes) and return its slot, plus the SDRAM offset of the dirty
    /// victim it evicts, if any. The slot still holds the victim's bytes:
    /// write them back from [`Cache::bytes`], then fill the line through
    /// [`Cache::bytes_mut`].
    pub fn fill(&mut self, line: u32) -> (usize, Option<u32>) {
        debug_assert_eq!(line, self.line_of(line));
        let base = (self.set_of(line) * self.cfg.ways) as usize;
        let end = base + self.cfg.ways as usize;
        // Prefer an invalid way; otherwise evict LRU.
        let victim = (base..end).find(|&i| !self.lines[i].valid).unwrap_or_else(|| {
            (base..end).min_by_key(|&i| self.lines[i].stamp).expect("ways >= 1")
        });
        self.tick += 1;
        let l = &mut self.lines[victim];
        let evicted = (l.valid && l.dirty).then_some(l.tag);
        *l = Line { tag: line, valid: true, dirty: false, stamp: self.tick };
        (victim, evicted)
    }

    /// Flush-and-invalidate the line containing `offset`: returns its
    /// slot if it was present and dirty, whose [`Cache::bytes`] must then
    /// be written back (they stay until the slot is filled again). The
    /// line never stays in the cache (the MicroBlaze cannot reconcile in
    /// place).
    pub fn flush_line(&mut self, offset: u32) -> Option<usize> {
        let slot = self.lookup(offset)?;
        let l = &mut self.lines[slot];
        let dirty = l.dirty;
        l.valid = false;
        l.dirty = false;
        dirty.then_some(slot)
    }

    /// Invalidate without write-back (discard local modifications).
    /// Returns whether the line was present.
    pub fn invalidate_line(&mut self, offset: u32) -> bool {
        match self.lookup(offset) {
            Some(slot) => {
                self.lines[slot].valid = false;
                self.lines[slot].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Iterate the line-aligned offsets covering `[offset, offset+len)`;
    /// an empty range covers no line. The iterator does not borrow the
    /// cache, so a walk can flush or invalidate as it goes.
    pub(crate) fn lines_covering(&self, offset: u32, len: u32) -> impl Iterator<Item = u32> {
        let ls = self.cfg.line_size;
        let first = if len == 0 { offset } else { offset & !(ls - 1) };
        (first..offset + len).step_by(ls as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 8-byte lines = 32 bytes.
        Cache::new(CacheConfig { line_size: 8, sets: 2, ways: 2 })
    }

    /// Install `line` with `bytes` as a miss does: returns the dirty
    /// victim's offset and bytes.
    fn fill_with(c: &mut Cache, line: u32, bytes: &[u8]) -> Option<(u32, Vec<u8>)> {
        let (slot, victim) = c.fill(line);
        let evicted = victim.map(|offset| (offset, c.bytes(slot).to_vec()));
        c.bytes_mut(slot).copy_from_slice(bytes);
        evicted
    }

    fn read_hit(c: &mut Cache, offset: u32, out: &mut [u8]) {
        let slot = c.lookup(offset).expect("read of an absent line");
        c.read(slot, offset, out);
    }

    fn write_hit(c: &mut Cache, offset: u32, data: &[u8]) {
        let slot = c.lookup(offset).expect("write of an absent line");
        c.write(slot, offset, data);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(0).is_none());
        assert!(fill_with(&mut c, 0, &[1, 2, 3, 4, 5, 6, 7, 8]).is_none());
        assert!(c.lookup(0).is_some());
        assert!(c.lookup(7).is_some());
        assert!(c.lookup(8).is_none());
        let mut b = [0u8; 2];
        read_hit(&mut c, 2, &mut b);
        assert_eq!(b, [3, 4]);
    }

    #[test]
    fn write_makes_dirty_and_flush_returns_it() {
        let mut c = tiny();
        assert!(fill_with(&mut c, 8, &[0; 8]).is_none());
        write_hit(&mut c, 12, &[9, 9]);
        let slot = c.flush_line(8).expect("dirty line must write back");
        assert_eq!(c.bytes(slot)[4..6], [9, 9]);
        assert!(c.lookup(8).is_none(), "flush always invalidates");
        // Flushing again: nothing.
        assert!(c.flush_line(8).is_none());
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let mut c = tiny();
        fill_with(&mut c, 0, &[0; 8]);
        write_hit(&mut c, 0, &[7]);
        assert!(c.invalidate_line(0));
        assert!(c.lookup(0).is_none());
        // Re-fill sees backing data, not the discarded write, and has no
        // dirty victim to write back.
        assert!(fill_with(&mut c, 0, &[1; 8]).is_none());
        let mut b = [0u8; 1];
        read_hit(&mut c, 0, &mut b);
        assert_eq!(b, [1]);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_victim() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 16 (line/8 mod 2 == 0).
        fill_with(&mut c, 0, &[0; 8]);
        write_hit(&mut c, 0, &[42]);
        fill_with(&mut c, 16, &[0; 8]);
        // Touch 16 so line 0 is LRU.
        let mut b = [0u8; 1];
        read_hit(&mut c, 16, &mut b);
        // Fill 32 (same set): evicts line 0, which is dirty.
        let (offset, data) = fill_with(&mut c, 32, &[0; 8]).expect("dirty LRU victim");
        assert_eq!(offset, 0);
        assert_eq!(data[0], 42);
        assert!(c.lookup(16).is_some() && c.lookup(32).is_some() && c.lookup(0).is_none());
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
    fn stale_data_is_served_until_invalidated() {
        // The whole point of the simulator: caches are incoherent.
        let mut c = tiny();
        fill_with(&mut c, 0, &[1; 8]);
        // Backing store changes (another core wrote SDRAM) — cache still
        // serves the old bytes.
        let mut b = [0u8; 1];
        read_hit(&mut c, 0, &mut b);
        assert_eq!(b, [1]);
    }
}
