//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! into a layer's public API, made from the benchmark's own code. Spans
//! stay in memory and are written out once, when the run ends.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span collector; disabled tracers record nothing and cost one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; `parent` 0 is a root. `None` when disabled.
    pub fn open(&self, name: &'static str, parent: u64, request: u64) -> Option<Open> {
        self.enabled.then(|| Open {
            // Relaxed: the counter only hands out unique ids.
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start: Instant::now(),
        })
    }

    pub fn close(&self, open: Option<Open>) {
        let Some(o) = open else { return };
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id: o.id,
            parent: o.parent,
            request: o.request,
            name: o.name,
            start_ns: ns(o.start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, || 5), 5);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_by_parent_and_share_the_request() {
        let t = Tracer::new(true);
        let root = t.open("request", 0, 9);
        let root_id = root.as_ref().unwrap().id();
        t.span("net.query", root_id, 9, || ());
        t.close(root);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "net.query").unwrap();
        let parent = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.request, 9);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }
}
