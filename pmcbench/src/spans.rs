//! Benchmark-side spans: the host-time tree of one traced pass.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (`pass → cell → {build, run, collect, validate, export}` for the
//! simulator workloads, `pass → case → {lower, enumerate}` for the
//! enumerator), kept in memory and written out with the report. A
//! layer's *self* time is its span minus the part its children cover, so
//! the shares of one pass add up to the pass.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    recording: bool,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), recording: true }
    }

    /// A recorder that records nothing: what the timed passes hand to
    /// code paths they share with the traced pass.
    pub fn off() -> Self {
        Spans { recording: false, ..Spans::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.recording {
            return 0;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as a leaf span under the innermost open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns() - children
    }

    /// Per span name: `(total ns, self ns)` over every span of that name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        // One pass for the children sums keeps this linear in the span
        // count (the litmus sweep records tens of thousands of spans).
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_ns();
            e.1 += s.duration_ns() - c;
        }
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64
            / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans { spans, ..Spans::new() }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let s = fixed(vec![
            span("pass", 0, 100, None),
            span("cell", 10, 90, Some(0)),
            span("build", 10, 30, Some(1)),
            span("run", 30, 80, Some(1)),
        ]);
        assert_eq!(s.self_ns(0), 20, "grandchildren are the child's business");
        assert_eq!(s.self_ns(1), 10);
        assert_eq!(s.self_ns(3), 50);
        let by = s.by_name();
        assert_eq!(by["cell"], (80, 10));
        assert_eq!(by["run"], (50, 50));
        // Self times partition the root span.
        assert_eq!(by.values().map(|&(_, own)| own).sum::<u64>(), 100);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut s = Spans::new();
        let pass = s.enter("pass");
        let cell = s.enter("cell");
        s.time("run", || ());
        s.exit(cell);
        s.time("check", || ());
        s.exit(pass);
        let parents: Vec<_> = s.all().iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            parents,
            vec![("pass", None), ("cell", Some(0)), ("run", Some(1)), ("check", Some(0))]
        );
        assert!(s.all().iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut s = Spans::off();
        let a = s.enter("a");
        assert_eq!(s.time("b", || 7), 7);
        s.exit(a);
        assert!(s.all().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let _b = s.enter("b");
        s.exit(a);
    }
}
