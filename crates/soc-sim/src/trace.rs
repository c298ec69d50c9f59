//! Annotation-level event trace, recorded in global virtual-time order.
//!
//! The runtime layer (pmc-runtime) logs its annotation activity through
//! [`crate::soc::Cpu::trace_event`]; records land in one globally ordered
//! vector (the scheduler serialises all global operations by virtual
//! time), so a post-run checker can validate the back-end against the PMC
//! model without any further sorting.
//!
//! Two record families share the channel, distinguished by the high bits
//! of `kind`:
//!
//! * **Protocol records** (`kind & SPAN_FLAG == 0`): the producer-defined
//!   consistency-model events the monitor validates. Recorded only with
//!   `SocConfig::trace`.
//! * **Span records** (`kind & SPAN_FLAG != 0`): typed begin/end markers
//!   for runtime-level intervals — scope lifetimes, lock acquire/hold,
//!   barrier waits, FIFO blocking, DMA waits. Recorded only with
//!   `SocConfig::telemetry`; the monitor skips them. Pair them
//!   with [`crate::telemetry::pair_spans`], summarise with
//!   [`crate::telemetry::MetricsRegistry`], or export timelines with
//!   [`crate::telemetry::perfetto_json`].

/// A generic trace record. `kind` is defined by the producer (the runtime
/// crate exports constants); the simulator only guarantees global
/// ordering and timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the event committed.
    pub time: u64,
    /// Issuing tile.
    pub tile: usize,
    /// Producer-defined event kind.
    pub kind: u16,
    /// Producer-defined operands.
    pub addr: u32,
    pub len: u32,
    pub value: u64,
}

/// Set on `kind` for span (telemetry) records; clear for protocol
/// records.
pub(crate) const SPAN_FLAG: u16 = 0x8000;
/// Set (together with [`SPAN_FLAG`]) on the end marker of a span.
pub(crate) const SPAN_END: u16 = 0x4000;

/// Span kinds for runtime-level intervals. The `addr` field of a span
/// record identifies the object/resource (object id, lock address,
/// barrier address, FIFO id, DMA channel), so concurrent spans of one
/// kind on one tile pair up unambiguously.
pub mod span_kind {
    /// An exclusive (`XScope`) lifetime; `addr` = object id.
    pub const SCOPE_X: u16 = 1;
    /// A read-only (`RoScope`) lifetime; `addr` = object id.
    pub const SCOPE_RO: u16 = 2;
    /// Lock request → ownership; `addr` = lock id.
    pub const LOCK_ACQUIRE: u16 = 3;
    /// Lock ownership → release; `addr` = lock id.
    pub const LOCK_HOLD: u16 = 4;
    /// Barrier arrival → release; `addr` = barrier id.
    pub const BARRIER_WAIT: u16 = 5;
    /// Blocking portion of a FIFO push; `addr` = FIFO id.
    pub const FIFO_PUSH: u16 = 6;
    /// Blocking portion of a FIFO pop; `addr` = FIFO id.
    pub const FIFO_POP: u16 = 7;
    /// `DmaTicket::wait` sleep; `addr` = completion offset.
    pub const DMA_WAIT: u16 = 8;
    /// One serving request, intended injection → reply committed;
    /// `addr` = request id. Begin records may carry a begin time earlier
    /// than the record's commit time (open-loop arrivals): the `value`
    /// operand, when non-zero, overrides the begin timestamp.
    pub const REQUEST: u16 = 9;
}

/// The `kind` value opening a span of kind `k` (a [`span_kind`]
/// constant).
pub const fn span_begin(k: u16) -> u16 {
    SPAN_FLAG | k
}

/// The `kind` value closing a span of kind `k`.
pub const fn span_end(k: u16) -> u16 {
    SPAN_FLAG | SPAN_END | k
}

/// Human-readable name of a [`span_kind`] constant.
pub fn span_kind_name(k: u16) -> &'static str {
    match k {
        span_kind::SCOPE_X => "scope_x",
        span_kind::SCOPE_RO => "scope_ro",
        span_kind::LOCK_ACQUIRE => "lock_acquire",
        span_kind::LOCK_HOLD => "lock_hold",
        span_kind::BARRIER_WAIT => "barrier_wait",
        span_kind::FIFO_PUSH => "fifo_push",
        span_kind::FIFO_POP => "fifo_pop",
        span_kind::DMA_WAIT => "dma_wait",
        span_kind::REQUEST => "request",
        _ => "span",
    }
}

impl TraceRecord {
    /// Whether this is a span (telemetry) record rather than a protocol
    /// record.
    pub fn is_span(&self) -> bool {
        self.kind & SPAN_FLAG != 0
    }

    /// Whether this span record closes its interval.
    pub fn is_span_end(&self) -> bool {
        self.kind & SPAN_END != 0
    }

    /// The [`span_kind`] constant of a span record.
    pub fn span_kind(&self) -> u16 {
        self.kind & !(SPAN_FLAG | SPAN_END)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_encoding_roundtrips() {
        let b = TraceRecord {
            time: 1,
            tile: 0,
            kind: span_begin(span_kind::LOCK_HOLD),
            addr: 0,
            len: 0,
            value: 0,
        };
        let e = TraceRecord { kind: span_end(span_kind::LOCK_HOLD), ..b };
        assert!(b.is_span() && !b.is_span_end());
        assert!(e.is_span() && e.is_span_end());
        assert_eq!(b.span_kind(), span_kind::LOCK_HOLD);
        assert_eq!(e.span_kind(), span_kind::LOCK_HOLD);
        assert_eq!(span_kind_name(b.span_kind()), "lock_hold");
    }

    #[test]
    fn protocol_kinds_are_not_spans() {
        let r = TraceRecord { time: 0, tile: 0, kind: 7, addr: 0, len: 4, value: 0 };
        assert!(!r.is_span());
    }
}
