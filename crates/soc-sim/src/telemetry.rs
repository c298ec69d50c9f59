//! Cycle-accurate telemetry: bounded per-tile span/instant recorders,
//! fixed-bucket latency histograms, and a Chrome-trace-event (Perfetto)
//! JSON exporter.
//!
//! The simulator records *where cycles go inside a run* — core stall
//! intervals per [`crate::counters::Counters`] class, DMA descriptor
//! lifetimes (issue → bursts → completion write), per-link NoC occupancy
//! and SDRAM-port service intervals — into bounded ring buffers that are
//! zero-cost when [`crate::config::SocConfig::telemetry`] is off (every recording
//! site is a single branch on a `bool`). Timestamps are virtual time, so
//! two identical runs produce byte-identical telemetry streams.
//!
//! The runtime layer (pmc-runtime) adds annotation-level spans (scope
//! lifetimes, lock acquire/hold, barrier waits, FIFO push/pop, DMA
//! waits) through the existing [`crate::soc::Cpu::trace_event`] channel
//! using the span encoding in [`crate::trace`]; [`MetricsRegistry`]
//! pairs those begin/end records into latency histograms, and
//! [`perfetto_json`] merges both layers into one timeline that opens
//! directly in [ui.perfetto.dev](https://ui.perfetto.dev).

use std::collections::VecDeque;

use crate::config::SocConfig;
use crate::trace::{self, TraceRecord};

/// Events each recorder keeps (one recorder per tile plus one shared
/// interconnect recorder). The oldest events are dropped first; drops
/// are counted in [`TelemetryReport::dropped`].
pub(crate) const RING_CAPACITY: usize = 4096;

/// Stall attribution class of a core stall span — the telemetry mirror
/// of the [`crate::counters::Counters`] stall buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallClass {
    PrivRead,
    SharedRead,
    Write,
    Icache,
    Noc,
    Flush,
    DmaWait,
}

impl StallClass {
    pub(crate) fn name(self) -> &'static str {
        match self {
            StallClass::PrivRead => "stall:priv_read",
            StallClass::SharedRead => "stall:shared_read",
            StallClass::Write => "stall:write",
            StallClass::Icache => "stall:icache",
            StallClass::Noc => "stall:noc",
            StallClass::Flush => "stall:flush",
            StallClass::DmaWait => "stall:dma_wait",
        }
    }
}

/// What a telemetry event describes. Spans carry `start < end`;
/// instants have `start == end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A core stall interval, attributed like the cycle counters.
    Stall(StallClass),
    /// A DMA descriptor's lifetime on one engine channel: from issue
    /// (doorbell) to the arrival of its completion write.
    DmaDescriptor { chan: usize, seq: u32 },
    /// One burst of a DMA transfer: engine occupancy from burst start
    /// to the burst's arrival at its destination.
    DmaBurst { len: u32 },
    /// Instant: a DMA completion write landed in the issuing tile's
    /// local memory (sequence number `seq`).
    DmaCompletion { seq: u32 },
    /// A directed NoC link serialising one payload.
    LinkBusy { link: usize },
    /// The SDRAM port servicing one transaction.
    SdramPort,
}

/// One recorded event: a span (`start..end`) or instant
/// (`start == end`) on a tile's timeline, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// The tile the event is attributed to (for link/port events: the
    /// tile that initiated the transaction).
    pub tile: usize,
    pub start: u64,
    pub end: u64,
    pub kind: EventKind,
}

/// A bounded ring-buffer recorder. `Default` is a disabled recorder:
/// every `Recorder::record` is then a single branch, so instrumented
/// hot paths cost nothing when telemetry is off.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    events: VecDeque<TelemetryEvent>,
    dropped: u64,
}

impl Recorder {
    pub(crate) fn new(enabled: bool) -> Self {
        Recorder { enabled, events: VecDeque::new(), dropped: 0 }
    }

    /// Record one event; drops the oldest event once the ring is full.
    #[inline]
    pub(crate) fn record(&mut self, ev: TelemetryEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Record a span `[start, end)` (no-op when disabled).
    #[inline]
    pub(crate) fn span(&mut self, tile: usize, start: u64, end: u64, kind: EventKind) {
        if self.enabled {
            self.record(TelemetryEvent { tile, start, end, kind });
        }
    }

    /// Record an instant at `at` (no-op when disabled).
    #[inline]
    pub(crate) fn instant(&mut self, tile: usize, at: u64, kind: EventKind) {
        if self.enabled {
            self.record(TelemetryEvent { tile, start: at, end: at, kind });
        }
    }

    /// Take the recorded events and the drop count, leaving the
    /// recorder empty (still enabled).
    pub(crate) fn drain(&mut self) -> (Vec<TelemetryEvent>, u64) {
        let evs = std::mem::take(&mut self.events).into();
        (evs, std::mem::take(&mut self.dropped))
    }
}

/// Everything the simulator recorded in one run, assembled by
/// [`crate::soc::Soc::take_telemetry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Core-side events (stall spans), one stream per tile, each in
    /// that tile's local time order.
    pub per_tile: Vec<Vec<TelemetryEvent>>,
    /// Interconnect-side events (DMA descriptor/burst/completion, link
    /// occupancy, SDRAM port), in global virtual-time issue order.
    pub system: Vec<TelemetryEvent>,
    /// Events lost to ring-buffer wraparound across all recorders.
    pub dropped: u64,
}

// ---------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------

const HIST_BUCKETS: usize = 33;

/// A fixed-bucket latency histogram with power-of-two bucket bounds:
/// bucket 0 holds the value 0, bucket `i` holds values whose bit length
/// is `i` (range `[2^(i-1), 2^i - 1]`), and the last bucket absorbs
/// everything ≥ 2^31. Percentiles are resolved to the upper bound of
/// the containing bucket (clamped to the observed maximum), so they are
/// deterministic and never underestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket containing the rank-`ceil(p * count)` sample, clamped to
    /// the observed maximum. Returns 0 on an empty histogram.
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == 0 {
                    return 0;
                }
                if i == HIST_BUCKETS - 1 {
                    // The overflow bucket has no meaningful upper bound.
                    return self.max;
                }
                return ((1u64 << i) - 1).min(self.max);
            }
        }
        self.max
    }

    pub(crate) fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub(crate) fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    pub(crate) fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

// ---------------------------------------------------------------------
// Span pairing and the metrics registry.
// ---------------------------------------------------------------------

/// A runtime-level span reconstructed from a begin/end record pair
/// (see [`crate::trace`] for the encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairedSpan {
    pub tile: usize,
    /// [`crate::trace::span_kind`] constant.
    pub kind: u16,
    /// Producer-defined object/resource id distinguishing concurrent
    /// spans of the same kind on one tile.
    pub addr: u32,
    pub start: u64,
    pub end: u64,
}

/// Pair span begin/end trace records into [`PairedSpan`]s, keyed by
/// `(tile, span kind, addr)`. Returns the pairs in end-time order plus
/// the number of begins left open at the end of the trace. Errors on a
/// span end with no matching begin — the "spans nest correctly" check
/// used by `pmc-trace --smoke`.
pub fn pair_spans(records: &[TraceRecord]) -> Result<(Vec<PairedSpan>, usize), String> {
    use std::collections::HashMap;
    let mut open: HashMap<(usize, u16, u32), Vec<TraceRecord>> = HashMap::new();
    let mut out = Vec::new();
    for r in records {
        if !r.is_span() {
            continue;
        }
        let key = (r.tile, r.span_kind(), r.addr);
        if r.is_span_end() {
            let Some(begin) = open.get_mut(&key).and_then(Vec::pop) else {
                return Err(format!(
                    "span end without begin: t={} tile={} kind={} addr={:#x}",
                    r.time,
                    r.tile,
                    trace::span_kind_name(r.span_kind()),
                    r.addr
                ));
            };
            // Open-loop REQUEST begins carry the *intended* injection
            // time in `value`; honouring it charges frontend queueing
            // delay to the request even though the begin record could
            // only commit once the frontend got around to it.
            let start = if r.span_kind() == trace::span_kind::REQUEST && begin.value != 0 {
                begin.value.min(begin.time)
            } else {
                begin.time
            };
            out.push(PairedSpan {
                tile: r.tile,
                kind: r.span_kind(),
                addr: r.addr,
                start,
                end: r.time,
            });
        } else {
            open.entry(key).or_default().push(*r);
        }
    }
    let dangling = open.values().map(Vec::len).sum();
    Ok((out, dangling))
}

/// Latency histograms over the runtime-level spans of one run,
/// reported beside [`crate::counters::RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// `DmaTicket::wait` blocked time.
    pub dma_wait: Histogram,
    /// Lock acquisition latency (request → owned).
    pub lock_acquire: Histogram,
    /// Lock hold time (owned → released).
    pub lock_hold: Histogram,
    /// Barrier wait time per participant — the distribution's spread is
    /// the barrier skew.
    pub barrier_wait: Histogram,
    /// Scope hold time (`XScope`/`RoScope` lifetime).
    pub scope_hold: Histogram,
    /// Serving-request latency (intended injection → reply committed;
    /// open-loop: queueing ahead of injection is included via the begin
    /// record's timestamp override).
    pub request: Histogram,
}

impl MetricsRegistry {
    /// Build the registry by pairing the span records of a trace.
    /// Unpaired spans are ignored (a program that ends inside a scope
    /// still yields histograms for everything that closed).
    pub fn from_trace(records: &[TraceRecord]) -> Self {
        let mut m = MetricsRegistry::default();
        let Ok((spans, _open)) = pair_spans(records) else {
            return m;
        };
        for s in &spans {
            let d = s.end - s.start;
            match s.kind {
                trace::span_kind::DMA_WAIT => m.dma_wait.record(d),
                trace::span_kind::LOCK_ACQUIRE => m.lock_acquire.record(d),
                trace::span_kind::LOCK_HOLD => m.lock_hold.record(d),
                trace::span_kind::BARRIER_WAIT => m.barrier_wait.record(d),
                trace::span_kind::SCOPE_X | trace::span_kind::SCOPE_RO => m.scope_hold.record(d),
                trace::span_kind::REQUEST => m.request.record(d),
                _ => {}
            }
        }
        m
    }

    fn rows(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("dma_wait", &self.dma_wait),
            ("lock_acquire", &self.lock_acquire),
            ("lock_hold", &self.lock_hold),
            ("barrier_wait", &self.barrier_wait),
            ("scope_hold", &self.scope_hold),
            ("request", &self.request),
        ]
    }

    /// A fixed-width text table (cycles): count, mean, p50/p90/p99, max.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "metric          count       mean        p50        p90        p99        max\n",
        );
        for (name, h) in self.rows() {
            out.push_str(&format!(
                "{name:<14} {:>6} {:>10.1} {:>10} {:>10} {:>10} {:>10}\n",
                h.count(),
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Chrome-trace-event (Perfetto) export.
// ---------------------------------------------------------------------

/// Thread-track ids inside each tile's Perfetto "process".
const TID_CORE: usize = 0;
const TID_DMA: usize = 1;
const TID_RUNTIME_BASE: usize = 2;

/// Export one run as Chrome-trace-event JSON (the format Perfetto and
/// `chrome://tracing` open directly): one "process" per tile with
/// `core` (stall spans), `dma` (descriptor/burst lifetimes) and
/// per-span-kind runtime tracks, plus an `interconnect` pseudo-process
/// carrying SDRAM-port spans and per-link occupancy counter tracks.
/// Timestamps are virtual cycles reported as microseconds.
pub fn perfetto_json(cfg: &SocConfig, report: &TelemetryReport, records: &[TraceRecord]) -> String {
    let n = cfg.n_tiles;
    let inter_pid = n; // pseudo-process for links + SDRAM port
    let mut ev: Vec<String> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    let mut named_threads: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();

    for pid in 0..n {
        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"tile {pid}\"}}}}"
        ));
    }
    meta.push(format!(
        "{{\"ph\":\"M\",\"pid\":{inter_pid},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"interconnect\"}}}}"
    ));

    let mut thread_name = |pid: usize, tid: usize, name: &str, meta: &mut Vec<String>| {
        if named_threads.insert((pid, tid)) {
            meta.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json::str(name)
            ));
        }
    };

    let mut push_sim_event = |e: &TelemetryEvent, ev: &mut Vec<String>, meta: &mut Vec<String>| {
        let dur = e.end - e.start;
        match e.kind {
            EventKind::Stall(class) => {
                thread_name(e.tile, TID_CORE, "core", meta);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{TID_CORE},\"ts\":{},\"dur\":{dur},\
                     \"name\":\"{}\"}}",
                    e.tile,
                    e.start,
                    class.name()
                ));
            }
            EventKind::DmaDescriptor { chan, seq } => {
                thread_name(e.tile, TID_DMA, "dma", meta);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{TID_DMA},\"ts\":{},\"dur\":{dur},\
                     \"name\":\"dma:descriptor\",\"args\":{{\"chan\":{chan},\"seq\":{seq}}}}}",
                    e.tile, e.start
                ));
            }
            EventKind::DmaBurst { len } => {
                thread_name(e.tile, TID_DMA, "dma", meta);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{TID_DMA},\"ts\":{},\"dur\":{dur},\
                     \"name\":\"dma:burst\",\"args\":{{\"len\":{len}}}}}",
                    e.tile, e.start
                ));
            }
            EventKind::DmaCompletion { seq } => {
                thread_name(e.tile, TID_DMA, "dma", meta);
                ev.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{TID_DMA},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"dma:completion\",\"args\":{{\"seq\":{seq}}}}}",
                    e.tile, e.start
                ));
            }
            EventKind::LinkBusy { link } => {
                let (from, to) = cfg.topology.link_endpoints(n, link);
                let name = format!("link {from}->{to}");
                // A counter track: occupancy rises to 1 at span start
                // and falls back to 0 at span end.
                ev.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{inter_pid},\"ts\":{},\"name\":\"{name}\",\
                     \"args\":{{\"busy\":1}}}}",
                    e.start
                ));
                ev.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{inter_pid},\"ts\":{},\"name\":\"{name}\",\
                     \"args\":{{\"busy\":0}}}}",
                    e.end
                ));
            }
            EventKind::SdramPort => {
                thread_name(inter_pid, TID_CORE, "sdram port", meta);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{inter_pid},\"tid\":{TID_CORE},\"ts\":{},\
                     \"dur\":{dur},\"name\":\"sdram:service\",\
                     \"args\":{{\"tile\":{}}}}}",
                    e.start, e.tile
                ));
            }
        }
    };

    for stream in &report.per_tile {
        for e in stream {
            push_sim_event(e, &mut ev, &mut meta);
        }
    }
    for e in &report.system {
        push_sim_event(e, &mut ev, &mut meta);
    }

    // Runtime-level spans: paired begin/end records rendered as
    // complete events, one track per span kind so concurrent scopes on
    // different objects never fight over one track's nesting.
    if let Ok((spans, _open)) = pair_spans(records) {
        for s in &spans {
            let tid = TID_RUNTIME_BASE + s.kind as usize;
            thread_name(s.tile, tid, trace::span_kind_name(s.kind), &mut meta);
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"args\":{{\"addr\":{}}}}}",
                s.tile,
                s.start,
                s.end - s.start,
                trace::span_kind_name(s.kind),
                s.addr
            ));
        }
    }

    meta.extend(ev);
    format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}", meta.join(","))
}

// ---------------------------------------------------------------------
// Minimal JSON emission and syntax validation (no serde, no external
// parser dependency).
// ---------------------------------------------------------------------

/// Minimal JSON emission: the one emitter behind the exporters here and
/// the figure binaries' `--json` mode (the workspace carries no serde;
/// the documents are assembled by hand and checked against
/// [`validate_json`] in tests).
pub mod json {
    /// A JSON string literal, quoted and escaped.
    pub fn str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A JSON number. JSON has no NaN/Infinity; those become `null`.
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        }
    }

    /// A JSON object from rendered `(key, value)` pairs.
    pub fn obj(pairs: &[(&str, String)]) -> String {
        let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}:{v}", str(k))).collect();
        format!("{{{}}}", body.join(","))
    }

    /// A JSON array from rendered values.
    pub fn arr(items: &[String]) -> String {
        format!("[{}]", items.join(","))
    }
}

/// Check that `s` is one syntactically well-formed JSON value. Used by
/// `pmc-trace --smoke` and the golden trace test to validate exporter
/// output without a JSON parser dependency.
pub fn validate_json(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err(&self, msg: &str) -> String {
            format!("{msg} at byte {}", self.i)
        }
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", c as char)))
            }
        }
        fn lit(&mut self, s: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(s.as_bytes()) {
                self.i += s.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected '{s}'")))
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        let e = self.peek().ok_or_else(|| self.err("bad escape"))?;
                        self.i += 1;
                        if e == b'u' {
                            for _ in 0..4 {
                                let h = self.peek().ok_or_else(|| self.err("bad \\u"))?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(self.err("bad \\u digit"));
                                }
                                self.i += 1;
                            }
                        } else if !br#""\/bfnrt"#.contains(&e) {
                            return Err(self.err("bad escape char"));
                        }
                    }
                    c if c < 0x20 => return Err(self.err("raw control char in string")),
                    _ => {}
                }
            }
            Err(self.err("unterminated string"))
        }
        fn number(&mut self) -> Result<(), String> {
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            let mut digits = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                digits += 1;
            }
            if digits == 0 {
                return Err(self.err("expected digits"));
            }
            if self.peek() == Some(b'.') {
                self.i += 1;
                let mut frac = 0;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                    frac += 1;
                }
                if frac == 0 {
                    return Err(self.err("expected fraction digits"));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                let mut exp = 0;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                    exp += 1;
                }
                if exp == 0 {
                    return Err(self.err("expected exponent digits"));
                }
            }
            Ok(())
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.peek() {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.ws();
                        self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        self.value()?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(self.err("expected ',' or '}'")),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.value()?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(_) => self.number(),
                None => Err(self.err("unexpected end of input")),
            }
        }
    }
    let mut p = P { b: s.as_bytes(), i: 0 };
    p.value()?;
    p.ws();
    if p.i != s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{span_begin, span_end, span_kind};

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::default();
        r.span(0, 1, 5, EventKind::SdramPort);
        r.instant(0, 3, EventKind::DmaCompletion { seq: 1 });
        let (evs, dropped) = r.drain();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = Recorder::new(true);
        for t in 0..RING_CAPACITY as u64 + 3 {
            r.instant(0, t, EventKind::SdramPort);
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 3);
        assert_eq!(evs.len(), RING_CAPACITY);
        assert_eq!(evs[0].start, 3);
    }

    /// An empty histogram answers every query with a defined zero —
    /// no division, no underflow, no bogus bucket bound.
    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0, "p={p}");
        }
    }

    /// One sample pins every percentile: the rank clamps to 1 even at
    /// `p = 0.0`, and the bucket upper bound clamps to the observed
    /// maximum, so every quantile is the sample itself.
    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::default();
        h.record(100);
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 100, "p={p}");
        }
        assert_eq!((h.count(), h.max()), (1, 100));
    }

    /// Samples at or beyond 2^31 saturate into the last bucket, which
    /// has no meaningful upper bound: percentiles resolve to the
    /// observed maximum instead.
    #[test]
    fn saturated_last_bucket_reports_the_observed_max() {
        let mut h = Histogram::default();
        for v in [1u64 << 31, (1 << 40) + 5, u64::MAX] {
            h.record(v);
        }
        for p in [0.01, 0.5, 1.0] {
            assert_eq!(h.percentile(p), u64::MAX, "p={p}");
        }
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        // Rank ceil(0.5*6)=3 → value 3 lives in bucket [2,3] → upper 3.
        assert_eq!(h.p50(), 3);
        // p99 → rank 6 → bucket [512,1023] upper 1023, clamped to max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(Histogram::default().p50(), 0);
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    fn rec(tile: usize, time: u64, kind: u16, addr: u32) -> TraceRecord {
        TraceRecord { time, tile, kind, addr, len: 0, value: 0 }
    }

    #[test]
    fn pair_spans_matches_begin_end_and_reports_dangling() {
        let t = vec![
            rec(0, 10, span_begin(span_kind::SCOPE_X), 1),
            rec(0, 12, span_begin(span_kind::SCOPE_X), 2),
            rec(0, 20, span_end(span_kind::SCOPE_X), 1),
            rec(1, 30, span_begin(span_kind::BARRIER_WAIT), 7),
        ];
        let (spans, open) = pair_spans(&t).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end, spans[0].addr), (10, 20, 1));
        assert_eq!(open, 2);
    }

    #[test]
    fn pair_spans_rejects_end_without_begin() {
        let t = vec![rec(0, 5, span_end(span_kind::LOCK_HOLD), 3)];
        let err = pair_spans(&t).unwrap_err();
        assert!(err.contains("without begin"), "{err}");
    }

    #[test]
    fn metrics_registry_routes_kinds_to_histograms() {
        let t = vec![
            rec(0, 0, span_begin(span_kind::DMA_WAIT), 0),
            rec(0, 64, span_end(span_kind::DMA_WAIT), 0),
            rec(1, 10, span_begin(span_kind::LOCK_ACQUIRE), 4),
            rec(1, 14, span_end(span_kind::LOCK_ACQUIRE), 4),
            rec(1, 14, span_begin(span_kind::LOCK_HOLD), 4),
            rec(1, 50, span_end(span_kind::LOCK_HOLD), 4),
            rec(2, 0, span_begin(span_kind::SCOPE_RO), 9),
            rec(2, 30, span_end(span_kind::SCOPE_RO), 9),
        ];
        let m = MetricsRegistry::from_trace(&t);
        assert_eq!(m.dma_wait.count(), 1);
        assert_eq!(m.lock_acquire.count(), 1);
        assert_eq!(m.lock_hold.count(), 1);
        assert_eq!(m.scope_hold.count(), 1);
        assert_eq!(m.barrier_wait.count(), 0);
        let s = m.summary();
        assert!(s.contains("dma_wait") && s.contains("scope_hold"), "{s}");
    }

    #[test]
    fn perfetto_export_is_valid_json_with_all_track_types() {
        let cfg = SocConfig::small(2);
        let report = TelemetryReport {
            per_tile: vec![
                vec![TelemetryEvent {
                    tile: 0,
                    start: 5,
                    end: 9,
                    kind: EventKind::Stall(StallClass::SharedRead),
                }],
                vec![],
            ],
            system: vec![
                TelemetryEvent { tile: 0, start: 2, end: 6, kind: EventKind::LinkBusy { link: 0 } },
                TelemetryEvent { tile: 1, start: 3, end: 8, kind: EventKind::SdramPort },
                TelemetryEvent {
                    tile: 1,
                    start: 1,
                    end: 20,
                    kind: EventKind::DmaDescriptor { chan: 0, seq: 1 },
                },
                TelemetryEvent {
                    tile: 1,
                    start: 20,
                    end: 20,
                    kind: EventKind::DmaCompletion { seq: 1 },
                },
            ],
            dropped: 0,
        };
        let trace = vec![
            rec(0, 10, span_begin(span_kind::SCOPE_X), 1),
            rec(0, 20, span_end(span_kind::SCOPE_X), 1),
        ];
        let json = perfetto_json(&cfg, &report, &trace);
        validate_json(&json).unwrap();
        for needle in [
            "\"tile 0\"",
            "\"interconnect\"",
            "stall:shared_read",
            "link 0->1",
            "sdram:service",
            "dma:descriptor",
            "dma:completion",
            "scope_x",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}").unwrap();
        validate_json("  [ ]  ").unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{}extra").is_err());
    }

    #[test]
    fn json_emitter_escapes_and_validates() {
        assert_eq!(json::str("plain"), "\"plain\"");
        assert_eq!(json::str("a\"b"), r#""a\"b""#);
        assert_eq!(json::str("a\\b"), r#""a\\b""#);
        assert_eq!(json::str("a\nb"), r#""a\nb""#);
        assert_eq!(json::str("\t\u{1}\u{1f}"), r#""\u0009\u0001\u001f""#);
        assert_eq!(json::num(1.5), "1.5");
        assert_eq!(json::num(f64::NAN), "null");
        assert_eq!(json::num(f64::INFINITY), "null");

        let nasty = "q\"b\\n\nc\u{7}";
        let doc = json::obj(&[
            (nasty, json::str(nasty)),
            ("nums", json::arr(&[json::num(-3.25), json::num(f64::NAN), 7.to_string()])),
            ("empty", json::arr(&[])),
            ("nested", json::obj(&[])),
        ]);
        validate_json(&doc).unwrap();
        assert!(doc.starts_with(r#"{"q\"b\\n\nc\u0007":"q\"b\\n\nc\u0007","nums":[-3.25,null,7]"#));
    }
}
