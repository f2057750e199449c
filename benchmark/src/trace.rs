//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's clock
//! origin), an optional parent span and the id of the request it belongs
//! to. A layer's self time is its span's duration minus the time its child
//! spans cover.
//!
//! A run may replay hundreds of thousands of requests, so the log keeps
//! the spans of the first requests only (up to [`SPAN_LIMIT`] spans); the
//! spans of later requests are folded into per-layer self times as each
//! request ends, so every request still counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `query.parse`.
    pub name: &'static str,
    /// Start, ns since the clock origin.
    pub start: u64,
    /// End, ns since the clock origin.
    pub end: u64,
    /// Index of the parent span in the same [`Trace`].
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// Spans kept in a log before later requests are folded.
pub const SPAN_LIMIT: usize = 50_000;

/// A span log sharing one clock origin.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    /// The kept spans, in the order they were opened.
    pub spans: Vec<Span>,
    /// Self times (µs) of the spans of folded requests, by name.
    folded: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// An empty log timed from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            folded: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span over `[start, end]`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.ns(Instant::now());
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        out
    }

    /// Mark the end of a request whose spans start at index `first`: past
    /// [`SPAN_LIMIT`], fold them into self times and drop them.
    pub fn end_request(&mut self, first: usize) {
        if self.spans.len() <= SPAN_LIMIT {
            return;
        }
        let own = self_times(&self.spans[first..], first);
        self.spans.truncate(first);
        for (name, mut v) in own {
            self.folded.entry(name).or_default().append(&mut v);
        }
    }

    /// Append another log (with the same origin), re-basing its parents.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, mut v) in other.folded {
            self.folded.entry(name).or_default().append(&mut v);
        }
    }

    /// Self time of every span in µs, grouped by span name. A child's
    /// duration counts against its parent even when the child was timed
    /// apart from it, so a self time can come out slightly negative when
    /// the parent's work is within timing noise of its children's.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out = self_times(&self.spans, 0);
        for (name, v) in &self.folded {
            out.entry(name).or_default().extend_from_slice(v);
        }
        out
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    /// File-system failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Self times of `spans`, whose first element has index `base` in its log
/// (parents outside the slice are ignored).
fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut covered = vec![0i128; spans.len()];
    for s in spans {
        if let Some(i) = s.parent.and_then(|p| p.checked_sub(base)) {
            covered[i] += i128::from(s.end) - i128::from(s.start);
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let own = i128::from(s.end) - i128::from(s.start) - c;
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut t = Trace::new(t0);
        let root = t.record("root", at(0), at(100), None, 1);
        t.record("a", at(10), at(30), Some(root), 1);
        t.record("b", at(40), at(90), Some(root), 1);
        let st = t.self_times_us();
        assert_eq!(st["root"], [30.0]);
        assert_eq!(st["a"], [20.0]);
        assert_eq!(st["b"], [50.0]);
    }
}
