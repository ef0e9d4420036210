//! In-memory spans recorded by the traced run around its calls into each
//! layer, written out once when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Spans of one event share this id.
    event: Option<usize>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// A single-threaded span recorder; a span opened while another is open
/// becomes its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; returns its id.
    pub fn begin(&mut self, name: impl Into<String>, event: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            event,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any child left open); returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
        now - self.spans[id].start
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        event: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, event);
        let value = f();
        self.end(id);
        value
    }

    /// Records an already finished span from instants taken elsewhere, as
    /// a child of the innermost open span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        event: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name: name.into(),
            event,
            parent: self.open.last().copied(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes one JSON object per span: id, name, event, parent, start and
    /// end in nanoseconds from the run's first span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"event\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.event),
                opt(s.parent),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
