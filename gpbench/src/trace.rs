//! Spans the benchmark records around its own calls into the program.
//!
//! Spans live in memory per load thread and are written out once, after
//! the run.  A span's `parent` is the span that caused it (0 for a root);
//! the spans of one burst share its root.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// One thread's span buffer.  Ids are unique across threads: the thread
/// index sits in the high bits.
#[derive(Debug)]
pub struct Tracer {
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(thread: usize) -> Self {
        Self {
            next: ((thread as u64) << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }
}

/// Median duration, in µs, of the spans called `name`.
pub fn median_micros(spans: &[Span], name: &str) -> Option<f64> {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect();
    (!values.is_empty()).then(|| crate::stats::median(&values))
}

/// Write spans as JSON lines, times in µs since `epoch`.
pub fn write_jsonl(path: &Path, epoch: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let since = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","start_us":{:.3},"end_us":{:.3}}}"#,
            s.id,
            s.parent,
            s.name,
            since(s.start),
            since(s.end)
        )?;
    }
    out.flush()
}
