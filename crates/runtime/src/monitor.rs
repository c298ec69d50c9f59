//! Post-run validation of a back-end against the PMC model.
//!
//! With tracing enabled, the runtime records every annotation and every
//! shared read/write in *global virtual-time order* (the simulator
//! serialises commits). This checker replays the trace one record at a
//! time and verifies the guarantees the PMC model grants an annotated
//! program. Each record is checked against these rules, in this order:
//!
//! 1. **ranges** — a record's byte range `[start, start + len)` within
//!    its object ends at or below `u32::MAX`; a range past it is a
//!    violation of its own, and the record is checked no further;
//! 2. **mutual exclusion** — an `entry_x` scope on an object never
//!    overlaps any other scope on it; locked `entry_ro` scopes are
//!    *shared* and may overlap each other (the model's read-only-
//!    alongside-read-only relaxation) but never an exclusive scope;
//! 3. **exits** — only the holder exits an `entry_x`, no scope exits
//!    with outstanding transfers, and a *streaming* `entry_x` publishes
//!    every write with a put before exiting;
//! 4. **flush** — never inside a streaming scope;
//! 5. **DMA issue** — puts and `dma_copy` destinations need exclusive
//!    access, gets never race another tile's scope, and `dma_copy`
//!    sources lie in an owning scope over a defined range;
//! 6. **DMA wait** — retires the tile's transfers on one channel up to a
//!    sequence number; completed gets and copies define their ranges;
//! 7. **reads** — no read (word or bulk) of a range an in-flight get or
//!    copy destination of the same tile targets, streaming scopes read
//!    only ranges a completed get, a word-copy fill or an own write
//!    defines, and:
//!    * **freshness under exclusive access** — a word read inside an
//!      `entry_x` (or locked `entry_ro`) scope returns exactly the bytes
//!      of the last committed write (Definition 11/12: the acquire
//!      synchronises with every previous release);
//!    * **slow-read monotonicity** — an unlocked read-only access may be
//!      stale, but per reader each location never moves backwards
//!      through the committed-write history (Definition 12's second
//!      clause), and never returns a value nobody committed;
//! 8. **writes** — only under exclusive access, and never into a range
//!    with an in-flight transfer of the same tile;
//! 9. **kinds** — a record of an unknown kind is a violation.
//!
//! Any back-end bug — a missing invalidate, a lost broadcast, a flush
//! after the unlock, a transfer outliving its scope — shows up as a
//! violation.

use std::collections::HashMap;

use pmc_soc_sim::trace::span_kind_name;
use pmc_soc_sim::TraceRecord;

use crate::ctx::trace_kind as k;

/// How many trailing trace records of the offending tile each
/// [`Violation`] carries as context.
const CONTEXT_EVENTS: usize = 8;

/// A protocol violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub time: u64,
    pub tile: usize,
    pub message: String,
    /// The offending tile's last few trace records (protocol *and*
    /// telemetry spans, when recorded) up to the violation time — the
    /// local history that led here, attached to the report.
    pub context: Vec<TraceRecord>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={} tile={}: {}", self.time, self.tile, self.message)?;
        for r in &self.context {
            if r.is_span() {
                let marker = if r.is_span_end() { "end" } else { "begin" };
                write!(
                    f,
                    "\n    | t={} span {} {} addr={}",
                    r.time,
                    span_kind_name(r.span_kind()),
                    marker,
                    r.addr
                )?;
            } else {
                write!(
                    f,
                    "\n    | t={} kind={} addr={} len={} value={:#x}",
                    r.time, r.kind, r.addr, r.len, r.value
                )?;
            }
        }
        Ok(())
    }
}

#[derive(Default)]
struct ObjState {
    /// Who currently holds exclusive access, if anyone.
    x_holder: Option<usize>,
    /// Whether the exclusive scope is a streaming one (no eager staging).
    x_streaming: bool,
    /// Locked read-only holders — shared access, so any number of tiles
    /// may hold it concurrently (the PMC model's read-only-alongside-
    /// read-only relaxation): tile → streaming flag.
    ro_holders: HashMap<usize, bool>,
    /// Per-tile byte ranges of a holding streaming scope whose local view
    /// is defined: own writes plus completed gets/copies.
    covered: HashMap<usize, Vec<(u32, u32)>>, // tile -> (start, end)
    /// Committed value history per chunk (offset, len) — index 0 is the
    /// initial value, seeded lazily from the first read.
    history: HashMap<(u32, u32), Vec<u64>>,
    /// Chunks whose first commit happened before any read observed the
    /// initial value: the unknown initial value conceptually precedes
    /// `history[chunk][0]`, and the first slow read that matches no
    /// committed value materialises it (see the `k::READ` slow path).
    init_open: std::collections::HashSet<(u32, u32)>,
    /// Uncommitted writes of the current X scope (chunk -> value).
    pending: HashMap<(u32, u32), u64>,
}

impl ObjState {
    /// Commit the scope's pending writes to the value history (exit,
    /// flush, or a DMA put — which publishes the staged state).
    fn commit_pending(&mut self) {
        self.commit_pending_range(0, u32::MAX);
    }

    /// Commit only the pending chunks overlapping `[start, end)` — a DMA
    /// put publishes exactly its byte range, so writes outside it stay
    /// pending and a streaming `exit_x` can flag them as never
    /// published (on SPM they would be silently lost).
    fn commit_pending_range(&mut self, start: u32, end: u32) {
        let keys: Vec<(u32, u32)> = self
            .pending
            .keys()
            .copied()
            .filter(|&(off, len)| off < end && off + len > start)
            .collect();
        for chunk in keys {
            let val = self.pending.remove(&chunk).expect("key just listed");
            let hist = self.history.entry(chunk).or_default();
            if hist.is_empty() {
                // First commit before any read: the (unknown) initial
                // value still precedes this one.
                self.init_open.insert(chunk);
            }
            if hist.last() != Some(&val) {
                hist.push(val);
            }
        }
    }

    /// The chunk values staged in `[start, end)` — pending writes, else
    /// the last committed value — keyed by offset relative to `start`.
    /// Only word-traced chunks have values; bulk-staged bytes have no
    /// per-chunk history to carry.
    fn staged(&self, start: u32, end: u32) -> Vec<((u32, u32), u64)> {
        let inside = |&(off, len): &(u32, u32)| off >= start && off + len <= end;
        let pending = self.pending.iter().map(|(c, &v)| (c, v));
        let committed = self
            .history
            .iter()
            .filter(|(c, _)| !self.pending.contains_key(c))
            .filter_map(|(c, hist)| Some((c, *hist.last()?)));
        pending
            .chain(committed)
            .filter(|(c, _)| inside(c))
            .map(|(&(off, len), v)| ((off - start, len), v))
            .collect()
    }

    /// Does `tile` hold any scope (exclusive or locked read-only)?
    fn held_by(&self, tile: usize) -> bool {
        self.x_holder == Some(tile) || self.ro_holders.contains_key(&tile)
    }

    /// Does `tile` hold a *streaming* scope? (Implies [`Self::held_by`].)
    fn streaming_for(&self, tile: usize) -> bool {
        if self.x_holder == Some(tile) {
            self.x_streaming
        } else {
            self.ro_holders.get(&tile).copied().unwrap_or(false)
        }
    }

    /// Is anything held at all?
    fn any_holder(&self) -> bool {
        self.x_holder.is_some() || !self.ro_holders.is_empty()
    }

    /// Is `[start, end)` undefined in `tile`'s streaming scope: covered
    /// by no completed get or copy, word-copy fill or own write?
    fn undefined_for(&self, tile: usize, start: u32, end: u32) -> bool {
        self.streaming_for(tile)
            && !covers(self.covered.get(&tile).map_or(&[], |v| v.as_slice()), start, end)
    }

    /// Mark `[start, end)` defined in `tile`'s streaming scope.
    fn cover(&mut self, tile: usize, start: u32, end: u32) {
        add_covered(self.covered.entry(tile).or_default(), start, end);
    }
}

/// Which role an in-flight DMA range plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XferKind {
    /// Get target: the engine writes the range lazily — reads *and*
    /// writes before the wait are hazards.
    Get,
    /// Put source: the engine reads the range lazily — writes before the
    /// wait are hazards; reads are fine.
    Put,
    /// `dma_copy` source: read lazily, like a put source.
    CopySrc,
    /// `dma_copy` destination: written lazily, like a get target. The
    /// completed copy defines the range and carries the source's staged
    /// values into the destination's pending set.
    CopyDst,
}

impl XferKind {
    /// Does a CPU read of an overlapping range race the engine?
    fn hazards_reads(self) -> bool {
        matches!(self, XferKind::Get | XferKind::CopyDst)
    }
}

/// An in-flight DMA transfer range (scatter/gather transfers contribute
/// one entry per contiguous range, sharing a channel/sequence pair).
struct Outstanding {
    tile: usize,
    obj: u32,
    start: u32,
    end: u32,
    chan: u32,
    seq: u32,
    kind: XferKind,
}

/// Split the low word of a DMA trace `value` into `(chan, seq)` (see
/// [`crate::ctx::trace_kind`] for the encoding).
fn chan_seq(value: u64) -> (u32, u32) {
    let low = value as u32;
    (low >> crate::ctx::TRACE_SEQ_BITS, low & crate::ctx::TRACE_SEQ_MASK)
}

/// Does an in-flight transfer of `r`'s tile on `r`'s object overlap
/// `range` (`None`: anywhere in the object)? With `reads`, only
/// transfers that race a CPU read count.
fn in_flight_over(
    xfers: &[Outstanding],
    r: &TraceRecord,
    range: Option<(u32, u32)>,
    reads: bool,
) -> bool {
    xfers.iter().any(|o| {
        o.tile == r.tile
            && o.obj == r.addr
            && (!reads || o.kind.hazards_reads())
            && range.is_none_or(|(start, end)| start < o.end && end > o.start)
    })
}

/// Insert `[start, end)` into a sorted, disjoint interval list, merging
/// overlaps/adjacencies — contiguous writes collapse to one entry, so
/// coverage queries stay cheap on big streaming scopes.
fn add_covered(ranges: &mut Vec<(u32, u32)>, start: u32, end: u32) {
    if start >= end {
        return;
    }
    let i = ranges.partition_point(|&(s, _)| s < start);
    ranges.insert(i, (start, end));
    let mut i = i.saturating_sub(1);
    while i + 1 < ranges.len() {
        if ranges[i].1 >= ranges[i + 1].0 {
            ranges[i].1 = ranges[i].1.max(ranges[i + 1].1);
            ranges.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

/// Does `[start, end)` lie entirely inside the union of `ranges`?
/// (`ranges` is sorted and disjoint — maintained by [`add_covered`] —
/// so a containing interval must be the last one starting at or before
/// `start`.)
fn covers(ranges: &[(u32, u32)], start: u32, end: u32) -> bool {
    if start >= end {
        return true;
    }
    let i = ranges.partition_point(|&(s, _)| s <= start);
    i > 0 && ranges[i - 1].1 >= end
}

/// Validate a trace; returns all violations (empty = clean).
pub fn validate(trace: &[TraceRecord]) -> Vec<Violation> {
    let mut monitor = Monitor::default();
    // Telemetry span markers share the trace channel but are not
    // protocol events — they carry no consistency semantics.
    for r in trace.iter().filter(|r| !r.is_span()) {
        monitor.observe(r);
    }
    // Attach the offending tile's trailing records (spans included) to
    // each violation so the report shows what that tile was doing.
    let mut out = monitor.violations;
    for v in &mut out {
        let mut ctx: Vec<TraceRecord> = trace
            .iter()
            .rev()
            .filter(|r| r.tile == v.tile && r.time <= v.time)
            .take(CONTEXT_EVENTS)
            .copied()
            .collect();
        ctx.reverse();
        v.context = ctx;
    }
    out
}

/// What the replay carries from one protocol record to the next.
#[derive(Default)]
struct Monitor {
    objs: HashMap<u32, ObjState>,
    /// Per (tile, obj, chunk): minimum history index the reader may see.
    floor: HashMap<(usize, u32, (u32, u32)), usize>,
    /// In-flight DMA transfers across all tiles.
    in_flight: Vec<Outstanding>,
    violations: Vec<Violation>,
}

impl Monitor {
    /// Check one protocol record against the rules (module doc, in
    /// order) and apply it to the state.
    fn observe(&mut self, r: &TraceRecord) {
        let Monitor { objs, floor, in_flight, violations } = self;
        let mut flag = |message: String| {
            violations.push(Violation { time: r.time, tile: r.tile, message, context: Vec::new() });
        };
        // Every ranged record's `[start, end)`, decoded here only: a word
        // access packs `offset << 8 | bytes` into `len`; the others carry
        // the byte offset in `value` (DMA records in its high word).
        let (start, len) = match r.kind {
            k::READ | k::WRITE => (r.len >> 8, r.len & 0xff),
            k::READ_BLOCK | k::STAGE_IN => (r.value as u32, r.len),
            k::DMA_GET | k::DMA_PUT | k::DMA_COPY_SRC | k::DMA_COPY_DST => {
                ((r.value >> 32) as u32, r.len)
            }
            _ => (0, 0),
        };
        let Some(end) = start.checked_add(len) else {
            return flag(format!(
                "trace kind {} on obj {}: range {start:#x} + {len:#x} ends past u32::MAX",
                r.kind, r.addr
            ));
        };
        let chunk = (start, len);
        let st = objs.entry(r.addr).or_default();
        match r.kind {
            k::ENTRY_X | k::ENTRY_RO => {
                let (x, streaming) = (r.kind == k::ENTRY_X, r.value & 2 != 0);
                if !x && r.value & 1 == 0 {
                    return; // unlocked read-only scopes take no part
                }
                let entry = if x { "entry_x" } else { "locked entry_ro" };
                if let Some(t) = st.x_holder {
                    flag(format!("{entry}(obj {}) while tile {t} holds it", r.addr));
                } else if let Some(t) = st.ro_holders.keys().filter(|_| x).min() {
                    flag(format!("entry_x(obj {}) while tile {t} holds it read-only", r.addr));
                }
                if x {
                    (st.x_holder, st.x_streaming) = (Some(r.tile), streaming);
                    st.pending.clear();
                } else {
                    st.ro_holders.insert(r.tile, streaming);
                }
                st.covered.remove(&r.tile);
            }
            k::EXIT_X | k::EXIT_RO => {
                let x = r.kind == k::EXIT_X;
                if x && st.x_holder != Some(r.tile) {
                    flag(format!(
                        "exit_x(obj {}) by non-holder (holder {:?})",
                        r.addr, st.x_holder
                    ));
                }
                if in_flight_over(in_flight, r, None, false) {
                    let exit = if x { "exit_x" } else { "exit_ro" };
                    flag(format!("{exit}(obj {}) with outstanding DMA transfers", r.addr));
                }
                if x {
                    if st.x_streaming && !st.pending.is_empty() {
                        flag(format!(
                            "streaming exit_x(obj {}) with writes never published by dma_put",
                            r.addr
                        ));
                    }
                    // Commit the scope's writes to history.
                    st.commit_pending();
                    (st.x_holder, st.x_streaming) = (None, false);
                } else {
                    st.ro_holders.remove(&r.tile);
                }
                st.covered.remove(&r.tile);
            }
            k::FLUSH => {
                // Flush commits pending writes early (visibility push).
                // On a streaming scope it is undefined (a whole-object
                // stage-out would publish undefined staging bytes on
                // SPM): the runtime refuses it, so a trace showing one
                // is a broken back-end or a forged trace.
                if st.streaming_for(r.tile) {
                    flag(format!("flush(obj {}) inside a streaming scope", r.addr));
                }
                st.commit_pending();
            }
            k::DMA_GET | k::DMA_PUT | k::DMA_COPY_SRC | k::DMA_COPY_DST => {
                let kind = match r.kind {
                    k::DMA_GET => XferKind::Get,
                    k::DMA_PUT => XferKind::Put,
                    k::DMA_COPY_SRC => XferKind::CopySrc,
                    _ => XferKind::CopyDst,
                };
                let (obj, holder, held) = (r.addr, st.x_holder, st.held_by(r.tile));
                let exclusive = holder == Some(r.tile);
                match kind {
                    XferKind::Put if !exclusive => {
                        flag(format!("dma_put(obj {obj}) without exclusive access ({holder:?})"));
                    }
                    XferKind::CopyDst if !exclusive => flag(format!(
                        "dma_copy destination (obj {obj}) without exclusive access ({holder:?})"
                    )),
                    XferKind::Get if !held && st.any_holder() => {
                        flag(format!("dma_get(obj {obj}) while another tile holds it"));
                    }
                    XferKind::CopySrc if !held => {
                        flag(format!("dma_copy source (obj {obj}) outside an owning scope"));
                    }
                    // The engine samples the source lazily: a streaming
                    // source scope must have defined the range already.
                    XferKind::CopySrc if st.undefined_for(r.tile, start, end) => flag(format!(
                        "dma_copy source range of obj {obj} never defined in this streaming scope"
                    )),
                    _ => {}
                }
                if kind == XferKind::Put {
                    // The put publishes the staged state of its range
                    // (like a range-limited flush); writes outside the
                    // range stay pending so a streaming exit can flag
                    // them as never published.
                    st.commit_pending_range(start, end);
                }
                let (chan, seq) = chan_seq(r.value);
                in_flight.push(Outstanding { tile: r.tile, obj, start, end, chan, seq, kind });
            }
            k::DMA_WAIT => {
                let (chan, waited) = chan_seq(r.value);
                // Engine channels complete in issue order: the wait
                // retires every transfer of this tile *on this channel*
                // up to the sequence number; completed gets and copies
                // define their target ranges.
                let retired: Vec<Outstanding> = in_flight
                    .extract_if(.., |o| o.tile == r.tile && o.chan == chan && o.seq <= waited)
                    .collect();
                for o in &retired {
                    match o.kind {
                        XferKind::Get => {
                            let st = objs.entry(o.obj).or_default();
                            if st.held_by(o.tile) {
                                st.cover(o.tile, o.start, o.end);
                            }
                        }
                        XferKind::CopyDst => {
                            // The completed copy defines the destination
                            // range and lands the *source's* staged
                            // values in the destination as pending
                            // writes (to be published / committed like
                            // the tile's own writes).
                            let src = retired.iter().find(|s| {
                                s.kind == XferKind::CopySrc && s.seq == o.seq && s.chan == o.chan
                            });
                            let moved = src.map_or(Vec::new(), |s| {
                                objs.entry(s.obj).or_default().staged(s.start, s.end)
                            });
                            let st = objs.entry(o.obj).or_default();
                            if st.x_holder == Some(o.tile) {
                                st.cover(o.tile, o.start, o.end);
                                for ((rel, len), v) in moved {
                                    st.pending.insert((o.start + rel, len), v);
                                }
                            }
                        }
                        XferKind::Put | XferKind::CopySrc => {}
                    }
                }
            }
            k::STAGE_IN => {
                // Synchronous word-copy fill: defines the range in the
                // streaming scope's coverage.
                if st.streaming_for(r.tile) {
                    st.cover(r.tile, start, end);
                }
            }
            k::READ | k::READ_BLOCK => {
                // A bulk read is range-checked only: its payload is not
                // traced, so it has no value history.
                let word = r.kind == k::READ;
                let read = if word { "read" } else { "bulk read" };
                if in_flight_over(in_flight, r, Some((start, end)), true) {
                    flag(format!("{read} of obj {} DMA-target memory before dma_wait", r.addr));
                }
                if !(word && st.pending.contains_key(&chunk))
                    && st.undefined_for(r.tile, start, end)
                {
                    flag(format!(
                        "{read} of obj {} range never defined in this streaming scope \
                         (no completed dma_get or own write covers it)",
                        r.addr
                    ));
                }
                if !word {
                    return;
                }
                let held = st.held_by(r.tile);
                let hist = st.history.entry(chunk).or_default();
                if hist.is_empty() {
                    // Seed with the initial value on first observation.
                    hist.push(r.value);
                }
                if held {
                    // Fresh view required: pending write of this scope, or
                    // the latest committed value.
                    let expect =
                        st.pending.get(&chunk).copied().unwrap_or_else(|| *hist.last().unwrap());
                    if r.value != expect {
                        flag(format!(
                            "stale read under lock: obj {} chunk {chunk:?} read {:#x}, expected {expect:#x}",
                            r.addr, r.value
                        ));
                    }
                    floor.insert((r.tile, r.addr, chunk), hist.len() - 1);
                    return;
                }
                // Slow read: any committed value at or after the reader's
                // floor. Only a reader that has observed *nothing yet* (no
                // floor entry — a floor of 0 already pins index 0) may
                // still see the initial value after commits happened:
                // materialise it at index 0, shifting every previously
                // recorded floor up by one.
                let never_read = !floor.contains_key(&(r.tile, r.addr, chunk));
                if never_read && !hist.contains(&r.value) && st.init_open.remove(&chunk) {
                    hist.insert(0, r.value);
                    for ((_, o, c), f) in floor.iter_mut() {
                        if *o == r.addr && *c == chunk {
                            *f += 1;
                        }
                    }
                }
                let fl = floor.get(&(r.tile, r.addr, chunk)).copied().unwrap_or(0);
                match hist.iter().rposition(|&v| v == r.value) {
                    Some(idx) if idx >= fl => {
                        floor.insert((r.tile, r.addr, chunk), idx);
                    }
                    Some(idx) => flag(format!(
                        "monotonicity violation: obj {} chunk {chunk:?} read {:#x} (index {idx} < floor {fl})",
                        r.addr, r.value
                    )),
                    None => flag(format!(
                        "out-of-thin-air read: obj {} chunk {chunk:?} value {:#x} never committed",
                        r.addr, r.value
                    )),
                }
            }
            k::WRITE => {
                if st.x_holder != Some(r.tile) {
                    flag(format!(
                        "write to obj {} without exclusive access ({:?})",
                        r.addr, st.x_holder
                    ));
                }
                if in_flight_over(in_flight, r, Some((start, end)), false) {
                    flag(format!(
                        "write to obj {} range with an in-flight DMA transfer (before dma_wait)",
                        r.addr
                    ));
                }
                if st.x_streaming {
                    st.cover(r.tile, start, end);
                }
                st.pending.insert(chunk, r.value);
            }
            k::FENCE => {}
            other => flag(format!("unknown trace kind {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{BackendKind, LockKind, System};
    use pmc_soc_sim::SocConfig;

    fn traced_cfg(n: usize) -> SocConfig {
        let mut cfg = SocConfig::small(n);
        cfg.trace = true;
        cfg
    }

    /// Paper Fig. 6 (annotated message passing) on every back-end: the
    /// trace must validate, and the reader must observe 42.
    #[test]
    fn fig6_clean_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(2), backend, LockKind::Sdram);
            let x = sys.alloc::<u32>("X");
            let f = sys.alloc::<u32>("flag");
            sys.init(x, 0);
            sys.init(f, 0);
            sys.run(vec![
                Box::new(move |ctx| {
                    // Process 1 (Fig. 6 lines 1–9).
                    {
                        let xs = ctx.scope_x(x);
                        xs.write(42);
                        ctx.fence();
                    }
                    let fs = ctx.scope_x(f);
                    fs.write(1);
                    fs.flush();
                }),
                Box::new(move |ctx| {
                    // Process 2 (lines 10–18).
                    let mut backoff = 8;
                    while ctx.scope_ro(f).read() != 1 {
                        ctx.compute(backoff);
                        backoff = (backoff * 2).min(512);
                    }
                    ctx.fence();
                    let r = ctx.scope_x(x).read();
                    assert_eq!(r, 42, "{backend:?}: annotated MP must read 42");
                }),
            ]);
            let trace = sys.soc().take_trace();
            assert!(!trace.is_empty());
            let violations = validate(&trace);
            assert!(violations.is_empty(), "{backend:?}: {:#?}", violations);
        }
    }

    /// Heavier cross-backend churn: several writers bump several
    /// objects; traces must stay clean.
    #[test]
    fn churn_traces_validate_on_all_backends() {
        for backend in BackendKind::ALL {
            let n = 3usize;
            let mut sys = System::new(traced_cfg(n), backend, LockKind::Sdram);
            let objs = sys.alloc_vec::<u32>("o", 4);
            sys.run(
                (0..n)
                    .map(|t| -> crate::Program<'_> {
                        Box::new(move |ctx| {
                            for i in 0..12u32 {
                                let o = objs.at((t as u32 + i) % objs.len());
                                {
                                    let s = ctx.scope_x(o);
                                    let v = s.read();
                                    s.write(v + 1);
                                }
                                ctx.compute(30);
                            }
                        })
                    })
                    .collect(),
            );
            let trace = sys.soc().take_trace();
            let violations = validate(&trace);
            assert!(violations.is_empty(), "{backend:?}: {violations:#?}");
            // All increments must be present: 3 tiles * 12.
            let total: u32 = (0..4).map(|i| sys.read_back(objs.at(i))).sum();
            assert_eq!(total, 36, "{backend:?}");
        }
    }

    /// The monitor actually catches corruption: a hand-made bad trace.
    #[test]
    fn monitor_flags_overlapping_exclusive_scopes() {
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, value| TraceRecord { time, tile, kind, addr, len: 0, value };
        let trace = vec![
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 7, 0),
            t(5, 1, crate::ctx::trace_kind::ENTRY_X, 7, 0),
        ];
        let v = validate(&trace);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("entry_x"));
    }

    /// A commit landing before any read must not turn a later stale read
    /// of the initial value into an out-of-thin-air violation: slow
    /// readers with an empty observation floor may still see the value
    /// that preceded the first commit.
    #[test]
    fn initial_value_readable_after_early_commit() {
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, len, value| TraceRecord { time, tile, kind, addr, len, value };
        let chunk_len = 4u32; // (offset 0, len 4) chunk encoding
        let trace = vec![
            // Tile 0 commits 1 before anyone reads.
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 0, 0, 0),
            t(1, 0, crate::ctx::trace_kind::WRITE, 0, chunk_len, 1),
            t(2, 0, crate::ctx::trace_kind::EXIT_X, 0, 0, 0),
            // Tile 1's first slow read still sees the initial 0 — legal.
            t(3, 1, crate::ctx::trace_kind::ENTRY_RO, 0, 0, 0),
            t(4, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 0),
            t(5, 1, crate::ctx::trace_kind::EXIT_RO, 0, 0, 0),
            // Then it catches up to the committed 1…
            t(6, 1, crate::ctx::trace_kind::ENTRY_RO, 0, 0, 0),
            t(7, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 1),
            t(8, 1, crate::ctx::trace_kind::EXIT_RO, 0, 0, 0),
            // …after which going back to 0 violates monotonicity.
            t(9, 1, crate::ctx::trace_kind::ENTRY_RO, 0, 0, 0),
            t(10, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 0),
            t(11, 1, crate::ctx::trace_kind::EXIT_RO, 0, 0, 0),
        ];
        let v = validate(&trace);
        assert_eq!(v.len(), 1, "exactly the backwards read is flagged: {v:#?}");
        assert!(v[0].message.contains("monotonicity"), "{v:#?}");
        assert_eq!(v[0].time, 10);
        // A value that was never the initial nor committed stays an error.
        let forged = vec![
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 0, 0, 0),
            t(1, 0, crate::ctx::trace_kind::WRITE, 0, chunk_len, 1),
            t(2, 0, crate::ctx::trace_kind::EXIT_X, 0, 0, 0),
            t(3, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 7),
            t(4, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 9),
        ];
        let v = validate(&forged);
        assert_eq!(v.len(), 1, "only one unknown init slot exists: {v:#?}");
        assert!(v[0].message.contains("out-of-thin-air"), "{v:#?}");
        // A reader that already observed a committed value may NOT fall
        // back to the (never-materialised) initial value: its floor entry
        // of 0 pins history index 0, it does not mean "nothing seen".
        let backwards = vec![
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 0, 0, 0),
            t(1, 0, crate::ctx::trace_kind::WRITE, 0, chunk_len, 1),
            t(2, 0, crate::ctx::trace_kind::EXIT_X, 0, 0, 0),
            t(3, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 1), // sees the commit
            t(4, 1, crate::ctx::trace_kind::READ, 0, chunk_len, 0), // goes backwards
        ];
        let v = validate(&backwards);
        assert_eq!(v.len(), 1, "backwards read past an observed commit: {v:#?}");
        assert_eq!(v[0].time, 4);
    }

    /// A real program that reads its DMA-target range before `dma_wait`
    /// is rejected: the violation is structural (an in-flight get covers
    /// the range), so it is flagged on *every* back-end — including the
    /// ones where the early read happens to return correct bytes. This is
    /// what keeps streaming code portable to SPM.
    #[test]
    fn monitor_rejects_read_of_dma_target_before_wait() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(1), backend, LockKind::Sdram);
            let s = sys.alloc_slab::<u32>("s", 64);
            sys.run(vec![Box::new(move |ctx| {
                let g = ctx.scope_ro_stream(s);
                let t = g.dma_get(0, 64);
                let _racy: u32 = g.read_at(0); // before the wait!
                t.wait();
            })]);
            let v = validate(&sys.soc().take_trace());
            assert!(
                v.iter().any(|v| v.message.contains("before dma_wait")),
                "{backend:?}: racy read must be flagged, got {v:#?}"
            );
        }
    }

    /// A put publishes only its byte range: a streaming scope that
    /// writes two elements but puts just one exits with an unpublished
    /// write — on SPM that second element is silently lost, so the
    /// monitor must flag it on *every* back-end.
    #[test]
    fn monitor_rejects_partial_put_losing_a_write() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(1), backend, LockKind::Sdram);
            let s = sys.alloc_slab::<u32>("s", 2);
            sys.run(vec![Box::new(move |ctx| {
                let g = ctx.scope_x_stream(s);
                g.write_at(0, 111);
                g.write_at(1, 222);
                g.dma_put(0, 1).wait(); // element 1 never published
            })]);
            let v = validate(&sys.soc().take_trace());
            assert!(
                v.iter().any(|v| v.message.contains("never published")),
                "{backend:?}: the unpublished element must be flagged: {v:#?}"
            );
        }
    }

    /// Bulk reads (`read_bytes_at`) are range-checked too: reading the
    /// target of an in-flight get, or an undefined streaming range, is
    /// flagged exactly like the word-sized path.
    #[test]
    fn monitor_checks_bulk_reads() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Uncached, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 64);
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(s);
            let t = g.dma_get(0, 32);
            let mut buf = [0u8; 16];
            g.read_bytes_at(0, &mut buf); // in-flight target
            t.wait();
            g.read_bytes_at(0, &mut buf); // now defined: clean
            g.read_bytes_at(32 * 4, &mut buf); // never transferred
        })]);
        let v = validate(&sys.soc().take_trace());
        assert_eq!(v.len(), 3, "{v:#?}"); // racy read breaks 2 rules + undefined read
        assert!(v[0].message.contains("before dma_wait"), "{v:#?}");
        assert!(v[2].message.contains("never defined"), "{v:#?}");
    }

    /// A streaming scope reading a range nothing defined (no completed
    /// get, no own write) is flagged even though no transfer is in
    /// flight — on SPM those bytes are garbage.
    #[test]
    fn monitor_rejects_undefined_streaming_read() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Uncached, LockKind::Sdram);
        let s = sys.alloc_slab::<u32>("s", 64);
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(s);
            g.dma_get(0, 16).wait(); // covers elements 0..16 only
            let _ok: u32 = g.read_at(3);
            let _bad: u32 = g.read_at(40); // never transferred
        })]);
        let v = validate(&sys.soc().take_trace());
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("never defined"), "{v:#?}");
    }

    /// Forged traces: an exit with an outstanding put (the runtime always
    /// waits, so this only appears if a back-end lost the wait) and a put
    /// outside exclusive access are both flagged.
    #[test]
    fn monitor_rejects_forged_dma_protocol_breaks() {
        use crate::ctx::trace_kind as k;
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, len, value| TraceRecord { time, tile, kind, addr, len, value };
        // exit_x with an unwaited put.
        let trace = vec![
            t(0, 0, k::ENTRY_X, 1, 0, 1),
            t(1, 0, k::DMA_PUT, 1, 64, 1),
            t(2, 0, k::EXIT_X, 1, 0, 0),
        ];
        let v = validate(&trace);
        assert!(v.iter().any(|v| v.message.contains("outstanding DMA")), "{v:#?}");
        // dma_put without exclusive access.
        let trace = vec![t(0, 0, k::DMA_PUT, 1, 64, 1)];
        let v = validate(&trace);
        assert!(v.iter().any(|v| v.message.contains("without exclusive access")), "{v:#?}");
        // A streaming scope whose writes were never published.
        let chunk = 4u32;
        let trace = vec![
            t(0, 0, k::ENTRY_X, 1, 0, 1 | 2),
            t(1, 0, k::WRITE, 1, chunk, 9),
            t(2, 0, k::EXIT_X, 1, 0, 0),
        ];
        let v = validate(&trace);
        assert!(v.iter().any(|v| v.message.contains("never published")), "{v:#?}");
    }

    /// `flush` inside a streaming scope is refused by the runtime (it
    /// would publish undefined staging bytes on SPM) and flagged by the
    /// monitor on forged traces.
    #[test]
    #[should_panic(expected = "flush is undefined on streaming scopes")]
    fn flush_on_streaming_scope_is_refused() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Spm, LockKind::Sdram);
        let s = sys.alloc::<u32>("s");
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_x_stream(s);
            g.write(1);
            g.flush(); // must panic
        })]);
    }

    #[test]
    fn monitor_flags_forged_streaming_flush() {
        use crate::ctx::trace_kind as k;
        use pmc_soc_sim::TraceRecord;
        let t = |time, kind, value| TraceRecord { time, tile: 0, kind, addr: 1, len: 0, value };
        let trace = vec![t(0, k::ENTRY_X, 1 | 2), t(1, k::FLUSH, 0)];
        let v = validate(&trace);
        assert!(v.iter().any(|v| v.message.contains("streaming scope")), "{v:#?}");
    }

    /// The word-copy baseline (`stage_in_words`) defines its range: a
    /// traced WordCopy-style scope validates clean, and un-staged ranges
    /// are still flagged.
    #[test]
    fn stage_in_words_counts_as_coverage() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(1), backend, LockKind::Sdram);
            let s = sys.alloc_slab::<u32>("s", 16);
            sys.run(vec![Box::new(move |ctx| {
                let g = ctx.scope_ro_stream(s);
                g.stage_in_words(0, 8);
                let mut buf = [0u8; 32];
                g.read_bytes_at(0, &mut buf); // staged: clean
                let _w: u32 = g.read_at(3); // staged: clean
                let _bad: u32 = g.read_at(12); // never staged
            })]);
            let v = validate(&sys.soc().take_trace());
            assert_eq!(v.len(), 1, "{backend:?}: {v:#?}");
            assert!(v[0].message.contains("never defined"), "{backend:?}: {v:#?}");
        }
    }

    /// Word-sized streaming scopes are monitor-visible too (they take
    /// the shared lock): an un-got read of a 4-byte object is flagged.
    #[test]
    fn word_sized_streaming_scope_is_checked() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Spm, LockKind::Sdram);
        let s = sys.alloc::<u32>("s");
        sys.init(s, 7);
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_ro_stream(s);
            let _garbage = g.read(); // no get: undefined on SPM
        })]);
        let v = validate(&sys.soc().take_trace());
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("never defined"), "{v:#?}");
    }

    /// Interval bookkeeping: merged coverage answers containment across
    /// adjacent and overlapping inserts.
    #[test]
    fn coverage_intervals_merge() {
        let mut c = Vec::new();
        super::add_covered(&mut c, 8, 16);
        super::add_covered(&mut c, 0, 8); // adjacent: merges
        super::add_covered(&mut c, 32, 48);
        super::add_covered(&mut c, 12, 36); // bridges the gap
        assert_eq!(c, vec![(0, 48)]);
        assert!(super::covers(&c, 0, 48));
        assert!(super::covers(&c, 10, 40));
        assert!(!super::covers(&c, 0, 49));
        super::add_covered(&mut c, 100, 104);
        assert!(!super::covers(&c, 40, 101));
        assert!(super::covers(&c, 100, 104));
    }

    /// Clean DMA traces validate on every back-end (the positive side of
    /// the new checks).
    #[test]
    fn clean_dma_traces_validate_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut sys = System::new(traced_cfg(2), backend, LockKind::Sdram);
            let s = sys.alloc_slab::<u32>("s", 32);
            sys.run(vec![
                Box::new(move |ctx| {
                    let g = ctx.scope_x_stream(s);
                    for i in 0..32 {
                        g.write_at(i, i + 1);
                    }
                    g.dma_put(0, 32).wait();
                }),
                Box::new(move |ctx| {
                    ctx.compute(200);
                    let g = ctx.scope_ro_stream(s);
                    g.dma_get(0, 32).wait();
                    let _v: u32 = g.read_at(7);
                }),
            ]);
            let v = validate(&sys.soc().take_trace());
            assert!(v.is_empty(), "{backend:?}: {v:#?}");
        }
    }

    // ==================================================================
    // Raw-protocol regressions: the scope guards enforce the annotation
    // protocol statically, but the dynamic gate (runtime asserts plus
    // the monitor replaying raw trace records) must hold on its own —
    // these descend from the deleted wrapper-API tests, rewritten
    // against the guards and forged traces.
    // ==================================================================

    /// Opening a second scope on one object while the first guard is
    /// alive is still caught at run time.
    #[test]
    #[should_panic(expected = "nested scope on one object")]
    fn double_scope_on_one_object_panics() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Uncached, LockKind::Sdram);
        let x = sys.alloc::<u32>("x");
        sys.run(vec![Box::new(move |ctx| {
            let _a = ctx.scope_x(x);
            let _b = ctx.scope_x(x); // must panic
        })]);
    }

    /// A scope whose guard never runs its exit (leaked with
    /// `std::mem::forget`) is still caught by the end-of-program
    /// quiescence check.
    #[test]
    #[should_panic(expected = "open entry/exit scopes")]
    fn leaked_scope_guard_still_panics() {
        let mut sys = System::new(traced_cfg(1), BackendKind::Uncached, LockKind::Sdram);
        let x = sys.alloc::<u32>("x");
        sys.run(vec![Box::new(move |ctx| {
            let g = ctx.scope_x(x);
            std::mem::forget(g); // exit never runs
        })]);
    }

    /// A forged raw trace reading its DMA-target range before `dma_wait`
    /// is flagged — the dynamic range-hazard check did not move into the
    /// type system; the monitor still replays raw protocol records.
    #[test]
    fn forged_read_before_wait_still_flagged() {
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, len, value| TraceRecord { time, tile, kind, addr, len, value };
        let chunk = 4u32; // (offset 0, len 4)
        let trace = vec![
            t(0, 0, k::ENTRY_RO, 1, 0, 1 | 2), // locked + streaming
            t(1, 0, k::DMA_GET, 1, 64, 0),     // chan 0, seq 0, off 0
            t(2, 0, k::READ, 1, chunk, 0),     // overlaps the in-flight get
            t(3, 0, k::DMA_WAIT, 1, 0, 0),
            t(4, 0, k::EXIT_RO, 1, 0, 0),
        ];
        let v = validate(&trace);
        assert!(
            v.iter().any(|v| v.message.contains("before dma_wait")),
            "forged racy read must stay flagged, got {v:#?}"
        );
    }

    /// Telemetry span records share the trace channel but are not
    /// protocol events: the monitor skips them (no "unknown trace kind"
    /// violations), and a violation's report attaches the offending
    /// tile's trailing records — spans included.
    #[test]
    fn spans_are_skipped_and_attached_as_context() {
        use pmc_soc_sim::trace::{span_begin, span_end, span_kind};
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, value| TraceRecord { time, tile, kind, addr, len: 0, value };
        // A clean scope wrapped in span markers validates clean.
        let clean = vec![
            t(0, 0, span_begin(span_kind::SCOPE_X), 3, 0),
            t(1, 0, k::ENTRY_X, 3, 1),
            t(2, 0, k::EXIT_X, 3, 0),
            t(3, 0, span_end(span_kind::SCOPE_X), 3, 0),
        ];
        assert!(validate(&clean).is_empty(), "{:#?}", validate(&clean));
        // A violating trace carries the tile's history in the report.
        let bad = vec![
            t(0, 0, span_begin(span_kind::SCOPE_X), 3, 0),
            t(1, 0, k::ENTRY_X, 3, 1),
            t(2, 1, k::ENTRY_X, 3, 1), // overlap: tile 1 violates
        ];
        let v = validate(&bad);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].context, vec![t(2, 1, k::ENTRY_X, 3, 1)]);
        let shown = v[0].to_string();
        assert!(shown.contains("entry_x"), "{shown}");
        assert!(shown.contains("kind=1"), "context records rendered: {shown}");
    }

    /// Forged overlapping exclusive scopes — same tile (double entry)
    /// and across tiles — are still monitor violations.
    #[test]
    fn monitor_still_rejects_forged_scope_overlaps() {
        use pmc_soc_sim::TraceRecord;
        let t =
            |time, tile, kind, addr, value| TraceRecord { time, tile, kind, addr, len: 0, value };
        // Same tile enters the same object twice without an exit.
        let double_entry = vec![
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 3, 1),
            t(1, 0, crate::ctx::trace_kind::ENTRY_X, 3, 1),
        ];
        let v = validate(&double_entry);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("entry_x"), "{v:#?}");
        // A locked read-only scope overlapping an exclusive one.
        let ro_overlap = vec![
            t(0, 0, crate::ctx::trace_kind::ENTRY_X, 3, 1),
            t(1, 1, crate::ctx::trace_kind::ENTRY_RO, 3, 1),
        ];
        let v = validate(&ro_overlap);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("entry_ro"), "{v:#?}");
    }

    /// A forged trace record at time = its index.
    fn rec(i: usize, tile: usize, kind: u16, addr: u32, len: u32, value: u64) -> TraceRecord {
        TraceRecord { time: i as u64, tile, kind, addr, len, value }
    }

    /// A DMA record's `value`: byte offset, channel, sequence number.
    fn dma(off: u32, chan: u32, seq: u32) -> u64 {
        u64::from(off) << 32 | u64::from(chan << crate::ctx::TRACE_SEQ_BITS | seq)
    }

    /// One minimal forged trace per violation site, with the exact full
    /// message it must raise and nothing else. A few rows carry extra
    /// records that must stay clean: the read of a put source in flight
    /// (puts do not hazard reads) and a wait on another channel (it
    /// retires nothing of channel 1).
    #[test]
    fn every_violation_site_has_its_exact_message() {
        type Row = (&'static str, Vec<(usize, u16, u32, u32, u64)>);
        let rows: Vec<Row> = vec![
            (
                "entry_x(obj 1) while tile 0 holds it",
                vec![(0, k::ENTRY_X, 1, 0, 1), (1, k::ENTRY_X, 1, 0, 1)],
            ),
            (
                "entry_x(obj 1) while tile 0 holds it read-only",
                vec![(0, k::ENTRY_RO, 1, 0, 1), (1, k::ENTRY_X, 1, 0, 1)],
            ),
            (
                "exit_x(obj 1) by non-holder (holder Some(0))",
                vec![(0, k::ENTRY_X, 1, 0, 1), (1, k::EXIT_X, 1, 0, 0)],
            ),
            (
                "exit_x(obj 1) with outstanding DMA transfers",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::DMA_PUT, 1, 4, dma(0, 0, 0)),
                    (0, k::EXIT_X, 1, 0, 0),
                ],
            ),
            (
                "streaming exit_x(obj 1) with writes never published by dma_put",
                vec![(0, k::ENTRY_X, 1, 0, 3), (0, k::WRITE, 1, 4, 9), (0, k::EXIT_X, 1, 0, 0)],
            ),
            (
                "locked entry_ro(obj 1) while tile 0 holds it",
                vec![(0, k::ENTRY_X, 1, 0, 1), (1, k::ENTRY_RO, 1, 0, 1)],
            ),
            (
                "exit_ro(obj 1) with outstanding DMA transfers",
                vec![
                    (0, k::ENTRY_RO, 1, 0, 3),
                    (0, k::DMA_GET, 1, 4, dma(0, 0, 0)),
                    (0, k::EXIT_RO, 1, 0, 0),
                ],
            ),
            (
                "flush(obj 1) inside a streaming scope",
                vec![(0, k::ENTRY_X, 1, 0, 3), (0, k::FLUSH, 1, 0, 0)],
            ),
            (
                "dma_put(obj 1) without exclusive access (None)",
                vec![(0, k::DMA_PUT, 1, 4, dma(0, 0, 0))],
            ),
            (
                "dma_get(obj 1) while another tile holds it",
                vec![(0, k::ENTRY_X, 1, 0, 1), (1, k::DMA_GET, 1, 4, dma(0, 0, 0))],
            ),
            (
                "dma_copy destination (obj 2) without exclusive access (None)",
                vec![
                    (0, k::ENTRY_RO, 1, 0, 1),
                    (0, k::DMA_COPY_SRC, 1, 4, dma(0, 0, 0)),
                    (0, k::DMA_COPY_DST, 2, 4, dma(0, 0, 0)),
                ],
            ),
            (
                "dma_copy source (obj 1) outside an owning scope",
                vec![
                    (0, k::ENTRY_X, 2, 0, 1),
                    (0, k::DMA_COPY_SRC, 1, 4, dma(0, 0, 0)),
                    (0, k::DMA_COPY_DST, 2, 4, dma(0, 0, 0)),
                ],
            ),
            (
                "dma_copy source range of obj 1 never defined in this streaming scope",
                vec![
                    (0, k::ENTRY_RO, 1, 0, 3),
                    (0, k::ENTRY_X, 2, 0, 1),
                    (0, k::DMA_COPY_SRC, 1, 4, dma(0, 0, 0)),
                    (0, k::DMA_COPY_DST, 2, 4, dma(0, 0, 0)),
                ],
            ),
            (
                "bulk read of obj 1 DMA-target memory before dma_wait",
                vec![
                    (0, k::ENTRY_RO, 1, 0, 1),
                    (0, k::DMA_GET, 1, 8, dma(0, 0, 0)),
                    (0, k::READ_BLOCK, 1, 4, 0),
                ],
            ),
            (
                "bulk read of obj 1 range never defined in this streaming scope \
                 (no completed dma_get or own write covers it)",
                vec![(0, k::ENTRY_RO, 1, 0, 3), (0, k::READ_BLOCK, 1, 4, 0)],
            ),
            ("write to obj 1 without exclusive access (None)", vec![(0, k::WRITE, 1, 4, 9)]),
            (
                "write to obj 1 range with an in-flight DMA transfer (before dma_wait)",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::DMA_PUT, 1, 4, dma(0, 0, 0)),
                    (0, k::WRITE, 1, 4, 9),
                ],
            ),
            (
                "read of obj 1 DMA-target memory before dma_wait",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::DMA_PUT, 1, 4, dma(4, 0, 0)),
                    (0, k::DMA_GET, 1, 4, dma(0, 1, 0)),
                    (0, k::READ, 1, 4 << 8 | 4, 5), // put source: clean
                    (0, k::DMA_WAIT, 1, 0, dma(0, 0, 0)), // retires the put only
                    (0, k::READ, 1, 4, 0),          // the get on channel 1 is in flight
                ],
            ),
            (
                "read of obj 1 range never defined in this streaming scope \
                 (no completed dma_get or own write covers it)",
                vec![(0, k::ENTRY_RO, 1, 0, 3), (0, k::READ, 1, 4, 0)],
            ),
            (
                "stale read under lock: obj 1 chunk (0, 4) read 0x7, expected 0x9",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::WRITE, 1, 4, 9),
                    (0, k::EXIT_X, 1, 0, 0),
                    (1, k::ENTRY_X, 1, 0, 1),
                    (1, k::READ, 1, 4, 7),
                ],
            ),
            (
                "monotonicity violation: obj 1 chunk (0, 4) read 0x0 (index 0 < floor 1)",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::WRITE, 1, 4, 1),
                    (0, k::EXIT_X, 1, 0, 0),
                    (1, k::READ, 1, 4, 0),
                    (1, k::READ, 1, 4, 1),
                    (1, k::READ, 1, 4, 0),
                ],
            ),
            (
                "out-of-thin-air read: obj 1 chunk (0, 4) value 0x7 never committed",
                vec![
                    (0, k::ENTRY_X, 1, 0, 1),
                    (0, k::WRITE, 1, 4, 1),
                    (0, k::EXIT_X, 1, 0, 0),
                    (1, k::READ, 1, 4, 1),
                    (1, k::READ, 1, 4, 7),
                ],
            ),
            ("unknown trace kind 99", vec![(0, 99, 1, 0, 0)]),
        ];
        for (expected, records) in rows {
            let trace: Vec<TraceRecord> = records
                .into_iter()
                .enumerate()
                .map(|(i, (tile, kind, addr, len, value))| rec(i, tile, kind, addr, len, value))
                .collect();
            let v = validate(&trace);
            let messages: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
            assert_eq!(messages, [expected], "{trace:#?}");
        }
    }

    /// A byte range whose end passes `u32::MAX` is a violation of its
    /// own, on every ranged record kind, and the record is checked no
    /// further (a wrapped end would hide every overlap and coverage gap).
    #[test]
    fn ranges_past_u32_max_are_violations() {
        let (off, len) = (0xffff_ff00_u32, 0x200);
        let expect = |kind| {
            format!("trace kind {kind} on obj 1: range 0xffffff00 + 0x200 ends past u32::MAX")
        };
        let by_value = [k::READ_BLOCK, k::STAGE_IN].map(|kind| (kind, u64::from(off)));
        let by_dma = [k::DMA_GET, k::DMA_PUT, k::DMA_COPY_SRC, k::DMA_COPY_DST]
            .map(|kind| (kind, dma(off, 0, 0)));
        for (kind, value) in by_value.into_iter().chain(by_dma) {
            let trace = vec![
                rec(0, 0, k::ENTRY_X, 1, 0, 1),
                rec(1, 0, kind, 1, len, value),
                rec(2, 0, k::EXIT_X, 1, 0, 0), // no transfer was issued
            ];
            let v = validate(&trace);
            let messages: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
            assert_eq!(messages, [expect(kind)], "{trace:#?}");
        }
        // Inside a locked streaming read-only scope, the bulk read is not
        // also an undefined read.
        let trace =
            vec![rec(0, 0, k::ENTRY_RO, 1, 0, 3), rec(1, 0, k::READ_BLOCK, 1, len, u64::from(off))];
        let v = validate(&trace);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].message, expect(k::READ_BLOCK));
    }

    /// Apply one seeded mutation to `trace`: drop a record, swap two
    /// neighbours, move a record to the other tile, flip a value bit or
    /// shift a DMA offset by up to 64 bytes (never below 0).
    fn mutate(trace: &mut Vec<TraceRecord>, rng: &mut pmc_core::fuzz::SplitMix64) {
        let i = rng.below(trace.len() as u64) as usize;
        match rng.below(5) {
            0 => {
                trace.remove(i);
            }
            1 => {
                let j = (i + 1).min(trace.len() - 1);
                trace.swap(i, j);
            }
            2 => trace[i].tile ^= 1,
            3 => trace[i].value ^= 1 << rng.below(64),
            _ => {
                let transfers: Vec<usize> = (0..trace.len())
                    .filter(|&j| {
                        [k::DMA_GET, k::DMA_PUT, k::DMA_COPY_SRC, k::DMA_COPY_DST]
                            .contains(&trace[j].kind)
                    })
                    .collect();
                if transfers.is_empty() {
                    return;
                }
                let r = &mut trace[transfers[rng.below(transfers.len() as u64) as usize]];
                let off = (r.value >> 32) as u32;
                let d = 4 * (1 + rng.below(16) as u32);
                let off = if rng.below(2) == 0 { off.saturating_sub(d) } else { off + d };
                r.value = u64::from(off) << 32 | (r.value & 0xffff_ffff);
            }
        }
    }

    /// The monitor's behaviour in one number: every conformance program
    /// on every back-end and lock kind (ring), its trace clean and under
    /// 32 seeded single mutations, each violation (time, tile, message,
    /// context) folded into one FNV-1a digest.
    #[test]
    fn violations_on_the_mutated_conformance_corpus_are_pinned() {
        use crate::{BackendKind, LockKind, RunConfig};
        let fnv = |h: u64, bytes: &[u8]| {
            bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        };
        let mut rng = pmc_core::fuzz::SplitMix64::new(0x6d6f_6e69_746f_7221);
        let (mut h, mut traces, mut violations) = (0xcbf2_9ce4_8422_2325_u64, 0, 0);
        for case in pmc_core::conformance::cases() {
            for backend in BackendKind::ALL {
                for lock in [LockKind::Sdram, LockKind::Distributed] {
                    let clean =
                        RunConfig::new(backend).lock(lock).session().litmus(&case.program).trace;
                    for mutant in 0..=32 {
                        let mut trace = clean.clone();
                        if mutant > 0 {
                            mutate(&mut trace, &mut rng);
                        }
                        let v = validate(&trace);
                        assert!(mutant > 0 || v.is_empty(), "{}: {v:#?}", case.name);
                        h = fnv(h, &(v.len() as u64).to_le_bytes());
                        for v in &v {
                            h = fnv(
                                h,
                                format!("{}|{}|{}|{:?};", v.time, v.tile, v.message, v.context)
                                    .as_bytes(),
                            );
                        }
                        traces += 1;
                        violations += v.len();
                    }
                }
            }
        }
        assert_eq!((traces, violations, h), (4752, 1628, 0x83a6_582e_0f7c_074d));
    }
}
