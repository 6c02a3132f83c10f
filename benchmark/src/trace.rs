//! The harness's own spans: recorded in memory around its calls into the
//! program (`workload` ⊃ `generate`, `setup`, `run`, `drain`, one span per
//! layer loop), each with the id of the span that caused it, and written
//! out as Chrome trace JSON when the benchmark ends.

use std::fmt::Write;
use std::time::Instant;

struct Span {
    name: String,
    parent: u64,
    start_us: f64,
    /// `None` while the span is open.
    end_us: Option<f64>,
}

/// Span ids are 1-based indices into the recorder; 0 means "no parent".
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &str, parent: u64) -> u64 {
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us: None,
        });
        self.spans.len() as u64
    }

    pub fn end(&mut self, id: u64) {
        let now = self.us(Instant::now());
        self.spans[id as usize - 1].end_us = Some(now);
    }

    /// A span whose boundaries were observed elsewhere (the watcher's
    /// first/last-op instants).
    pub fn record(&mut self, name: &str, parent: u64, start: Instant, end: Instant) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us: Some(end_us),
        });
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev):
    /// complete events on one track, span id and parent id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let closed = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.end_us.map(|end| (i + 1, s, end)));
        for (n, (id, s, end)) in closed.enumerate() {
            if n > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{}}}}}",
                s.name,
                s.start_us,
                end - s.start_us,
                s.parent
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}
