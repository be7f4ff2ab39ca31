//! In-memory span recorder for the harness's own boundaries: every process
//! it spawns and every call it makes into a layer crate. Spans are kept in
//! memory and written to `trace_<workload>.json` when the benchmark ends.

use crate::json::{number, quote};
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_us) * 1e-6
    }

    /// Runs `f` inside a leaf span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"schema\": \"dtp-benchmark-trace-v1\", \"workload\": {}, \"unit\": \"us\", \"spans\": [\n",
            quote(workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"id\": {id}, \"parent\": {}, \"name\": {}, \"workload\": {}, \"start\": {}, \"end\": {}}}{}\n",
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                quote(&s.name),
                quote(workload),
                number(s.start_us),
                number(s.end_us),
                if id + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
