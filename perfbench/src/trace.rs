//! In-memory spans recorded around calls into each layer, written out
//! as JSON lines when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! epoch), the thread that recorded it, and a request id shared by every
//! span of one request. Each span wraps one call the benchmark makes into
//! a layer, so none has a parent. A disabled tracer records nothing, so
//! the same loop serves the untraced and the traced run.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
    pub thread: usize,
}

/// Spans of one thread. Ids index into this buffer.
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return 0;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            start,
            end: start,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    pub fn rename(&mut self, id: usize, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id).filter(|_| self.on) {
            span.name = name;
        }
    }
}

/// The run's tracer: hands out per-thread span buffers and collects
/// them when the threads finish.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn local(&self, thread: usize) -> Spans {
        Spans {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&self, local: Spans) {
        self.done
            .lock()
            .expect("no thread panics holding the span list")
            .extend(local.spans);
    }

    /// Durations in nanoseconds of every finished span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let done = self
            .done
            .lock()
            .expect("no thread panics holding the span list");
        done.iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes at most `limit` spans as JSON lines; returns how many were
    /// written and how many exist.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        limit: usize,
    ) -> std::io::Result<(usize, usize)> {
        let done = self
            .done
            .lock()
            .expect("no thread panics holding the span list");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = done.len().min(limit);
        for (id, s) in done.iter().take(limit).enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.thread, s.start, s.end
            )?;
        }
        out.flush()?;
        Ok((written, done.len()))
    }
}
