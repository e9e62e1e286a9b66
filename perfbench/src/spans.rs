//! In-memory spans around the benchmark's calls into each layer, and
//! their chrome://tracing export.
//!
//! The traced run opens a span around every public layer call it makes
//! (trial generation, one heuristic, one model build, one LP solve, one
//! engine apply). Spans stay in memory until the run ends, then
//! [`Tracer::write_chrome_trace`] writes them as `"ph":"X"` complete
//! events that chrome://tracing and Perfetto load directly.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
struct SpanRecord {
    name: String,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

/// Handle of an open span, returned by [`Tracer::start`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// The span buffer of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty buffer whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` in `layer`; the innermost open span is
    /// its parent.
    pub fn start(&mut self, name: impl Into<String>, layer: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.into(),
            layer,
            start_us: 0.0,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is not timed.
        self.spans[id].start_us = 1e6 * self.epoch.elapsed().as_secs_f64();
        SpanId(id)
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn stop(&mut self, span: SpanId) -> f64 {
        let end_us = 1e6 * self.epoch.elapsed().as_secs_f64();
        let record = &mut self.spans[span.0];
        record.dur_us = end_us - record.start_us;
        if let Some(pos) = self.open.iter().rposition(|&i| i == span.0) {
            self.open.remove(pos);
        }
        record.dur_us / 1e6
    }

    /// Renames a span, for spans whose name is known only after the
    /// call (an engine apply is named after the rung that answered).
    pub fn rename(&mut self, span: SpanId, name: impl Into<String>) {
        self.spans[span.0].name = name.into();
    }

    /// Renders every span as a chrome://tracing document.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + 128 * self.spans.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                span.start_us, span.dur_us, span.name, span.layer
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes [`chrome_trace_json`](Self::chrome_trace_json) to `path`,
    /// creating its directory.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tracer = Tracer::new();
        let outer = tracer.start("exp.trial", "perfbench");
        let inner = tracer.start("lp.solve", "rp-lp");
        let inner_s = tracer.stop(inner);
        let outer_s = tracer.stop(outer);
        assert!(outer_s >= inner_s);
        let json = tracer.chrome_trace_json();
        assert!(json.contains("\"name\":\"lp.solve\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":-1"));
    }
}
