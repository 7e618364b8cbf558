//! In-memory spans recorded around every call the benchmark makes into a
//! layer of the program. Spans carry a name, start, end, parent and the id
//! of the instance or request they belong to; they are written out as
//! Chrome trace-event JSON when the run ends, never during it.

use mrls_obs::chrome::ChromeTrace;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total duration per span name in milliseconds.
    pub fn total_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (load it in Perfetto or
    /// `chrome://tracing`); the request id and parent ride along as args.
    pub fn write_chrome(&self, path: &Path, process: &str) -> std::io::Result<()> {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, process);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            trace.complete_with_args(
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                1,
                1,
                s.start_ns / 1_000,
                ((s.end_ns - s.start_ns) / 1_000).max(1),
                &[("request", s.request.to_string()), ("parent", parent)],
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, trace.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", 1);
        t.time("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let own = t.self_ms();
        let total = t.total_ms();
        assert!(total["root"] >= total["leaf"]);
        assert!((own["root"] + own["leaf"] - total["root"]).abs() < 1e-9);
        assert!(own["leaf"] >= 5.0);
    }
}
