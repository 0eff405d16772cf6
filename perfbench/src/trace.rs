//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every call is timed (the op and `run_to_completion` timers feed the
//! end-to-end metrics), but a span is only *kept* when the tracer is
//! armed. Spans live in memory and are written out once, at the end of
//! the run.

use std::time::{Duration, Instant};

/// One recorded span: a layer entry point, its interval, the span that
/// caused it, and the op it served (`None` during set-up).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: Option<u32>,
}

pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            armed: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Sets the op id later spans are attributed to.
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    /// Times `f` and, when armed, records it as a span named `name`
    /// nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let slot = self.armed.then(|| {
            self.spans.push(Span {
                name,
                start: Duration::ZERO,
                end: Duration::ZERO,
                parent: self.open.last().copied(),
                op: self.op,
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start = t0 - self.epoch;
            self.spans[i].end = t1 - self.epoch;
        }
        (out, t1 - t0)
    }

    /// Opens a span that closes with [`Tracer::close`]; for intervals
    /// that enclose several calls (an op, a set-up).
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.armed {
            return None;
        }
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        Some(i)
    }

    pub fn close(&mut self, slot: Option<usize>) {
        if let Some(i) = slot {
            self.spans[i].end = self.epoch.elapsed();
            self.open.pop();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: `(calls, total time, self time)`. A span's self
/// time is its duration minus the time its child spans cover.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, u64, Duration, Duration)> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out: Vec<(&'static str, u64, Duration, Duration)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let own = dur.saturating_sub(child[i]);
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur;
                e.3 += own;
            }
            None => out.push((s.name, 1, dur, own)),
        }
    }
    out
}

/// Writes spans as JSON lines: one header line, then one line per span.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op.map_or("null".to_string(), |o| o.to_string()),
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span {
                name: "bench.op",
                start: ms(0),
                end: ms(10),
                parent: None,
                op: Some(0),
            },
            Span {
                name: "core.spawn",
                start: ms(1),
                end: ms(3),
                parent: Some(0),
                op: Some(0),
            },
            Span {
                name: "core.run",
                start: ms(3),
                end: ms(9),
                parent: Some(0),
                op: Some(0),
            },
        ];
        let t = totals(&spans);
        let op = t.iter().find(|e| e.0 == "bench.op").unwrap();
        assert_eq!((op.1, op.2, op.3), (1, ms(10), ms(2)));
        let run = t.iter().find(|e| e.0 == "core.run").unwrap();
        assert_eq!(run.3, ms(6));
    }

    #[test]
    fn unarmed_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(Instant::now());
        let (v, d) = t.span("core.run", || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.open("bench.op").is_none());
        assert!(t.spans().is_empty());
    }
}
