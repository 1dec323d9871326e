//! Harness-side spans: one record per call into a layer, kept in memory and
//! written out as JSON lines when the traced run ends.
//!
//! The spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions — nothing inside the crates changes.
//! Spans of one batch share its batch id; a span's self time is its duration
//! minus the part of that interval its direct children cover.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Index of the span in the tracer's list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.stream_increment`.
    pub name: &'static str,
    /// The shared identifier of all spans of one batch.
    pub batch: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by the harness threads. Disabled, every call is a
/// branch and a return, so the untraced passes run the same code.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<SpanRec>>>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer { epoch: Instant::now(), spans: None }
    }

    pub fn enabled() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Some(Mutex::new(Vec::new())) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its id (0 when
    /// disabled — callers only ever pass it back as a parent).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        batch: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let Some(spans) = &self.spans else { return 0 };
        let mut spans = spans.lock().expect("tracer lock poisoned by a panicking harness thread");
        let id = spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        spans.push(SpanRec { id, parent, name, batch, start_ns, end_ns });
        id
    }

    /// Open a span whose children are recorded before it closes: reserves
    /// the id now, so children can name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<usize>, batch: u64) -> OpenSpan {
        let start = Instant::now();
        let id = self.record(name, parent, batch, start, start);
        OpenSpan { id, start }
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, open: OpenSpan) {
        if let Some(spans) = &self.spans {
            let end = self.ns(Instant::now());
            spans.lock().expect("tracer lock poisoned by a panicking harness thread")[open.id]
                .end_ns = end;
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        match &self.spans {
            Some(s) => {
                s.lock().expect("tracer lock poisoned by a panicking harness thread").clone()
            }
            None => Vec::new(),
        }
    }
}

/// A span that is still running (see [`Tracer::open`]).
pub struct OpenSpan {
    pub id: usize,
    pub start: Instant,
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals, clipped to the span.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of the self times of every span called `name`.
pub fn self_time_of(spans: &[SpanRec], name: &str) -> u64 {
    let selfs = self_times(spans);
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
}

/// Sum of the durations of every span called `name`.
pub fn total_of(spans: &[SpanRec], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(SpanRec::dur_ns).sum()
}

/// Durations, in microseconds, of every span called `name`.
pub fn durations_us(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Write the spans as JSON lines: name, start, end, parent, batch id and
/// self time.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> io::Result<()> {
    let selfs = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"batch\": {}, \
             \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
            s.id,
            s.name,
            s.batch,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, name: "t", batch: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1: the union 10..50 counts once.
            span(2, Some(0), 20, 50),
            span(3, Some(0), 70, 80),
            // A grandchild shortens its own parent only.
            span(4, Some(2), 25, 45),
            // Sticks out past the parent: clipped to 90..100.
            span(5, Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10 - 10, 20, 10, 10, 20, 40]);
    }

    #[test]
    fn childless_span_keeps_its_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 9)]), vec![4]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn open_spans_parent_their_children() {
        let t = Tracer::enabled();
        let pass = t.open("pass", None, 0);
        let now = Instant::now();
        let child = t.record("child", Some(pass.id), 7, now, now);
        t.close(pass);
        let spans = t.spans();
        assert_eq!(spans[child].parent, Some(0));
        assert_eq!(spans[child].batch, 7);
        assert!(spans[0].end_ns >= spans[child].end_ns);
        assert!(Tracer::disabled().spans().is_empty());
    }
}
