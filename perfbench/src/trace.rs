//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.call`), the span that caused it,
//! and start/end offsets from the tracer's creation. Spans stay in
//! memory and are written out once, with the mode's report. A disabled
//! tracer runs the wrapped call and records nothing.

use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span { name, parent: self.open.last().copied(), start, end: start });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        r
    }

    /// `[[name, parent index or -1, start_s, end_s], ...]`.
    pub fn render(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[{},{},{},{}]",
                    crate::quote(s.name),
                    s.parent.map_or(-1, |p| p as i64),
                    crate::number(s.start),
                    crate::number(s.end)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}
