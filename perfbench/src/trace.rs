//! In-memory spans, written out when the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer. Spans of one operation share `op`;
/// `parent` indexes the span that caused this one.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a span that has already happened.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            op,
            name,
            parent,
            start: start - self.origin,
            end: end - self.origin,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(op, name, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Run `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, name, parent, start, end);
        (out, end - start)
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
