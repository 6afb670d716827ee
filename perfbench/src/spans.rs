//! In-memory spans for the traced run. Spans are recorded around the
//! benchmark's own calls into each layer; nothing inside the program is
//! instrumented. Spans of one request or session share a `req` id, and
//! each names its parent. They are written out as JSON lines when the
//! run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub req: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    pub id: u64,
    pub req: u64,
    parent: Option<u64>,
    name: &'static str,
    pub start: Instant,
}

pub struct Spans {
    t0: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span. `req == 0` starts a new request whose id is the
    /// span's own.
    pub fn open(&self, name: &'static str, req: u64, parent: Option<u64>) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            req: if req == 0 { id } else { req },
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&self, o: Open) {
        self.record(o.name, o.id, o.req, o.parent, o.start, Instant::now());
    }

    /// Records an interval that was timed elsewhere.
    pub fn interval(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.record(
            name,
            id,
            if req == 0 { id } else { req },
            parent,
            start,
            end,
        );
        id
    }

    fn record(
        &self,
        name: &'static str,
        id: u64,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            id,
            req,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.done
            .lock()
            .expect("span list poisoned by a panicking client")
            .push(span);
    }

    /// Durations, in seconds, of every span with this name, in the
    /// order they ended.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        let done = self
            .done
            .lock()
            .expect("span list poisoned by a panicking client");
        done.iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        let done = self
            .done
            .lock()
            .expect("span list poisoned by a panicking client");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in done.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"req\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
