//! The benchmark's own span recorder: spans around each call into a
//! layer's public functions, kept in memory and written out as one Chrome
//! `trace_event` file when the traced run ends.
//!
//! A disabled recorder (the end-to-end runs) records nothing and never
//! reads the clock.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: u32,
    detail: String,
    start_ns: u64,
    end_ns: u64,
}

/// Span id; 0 is "no span" (the root, or a disabled recorder).
pub type SpanId = u32;

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (a traced run's untraced baseline).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under `parent`; `detail` is only built when recording.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: SpanId,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            detail: detail(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.spans.len() as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != 0 {
            let now = self.t0.elapsed().as_nanos() as u64;
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        detail: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, detail);
        let r = f();
        self.end(id);
        r
    }

    /// Total and self time per span name, in seconds, sorted by name.
    /// Self time is a span's duration minus the time its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// The recorded spans as a Chrome `trace_event` document, with the
    /// host context in its metadata.
    pub fn chrome_json(&self, context: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                cenju4_serve::proto::esc(&s.detail),
            ));
        }
        out.push_str("],\"metadata\":{");
        for (i, (k, v)) in context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":\"{}\"", cenju4_serve::proto::esc(v)));
        }
        out.push_str("}}");
        out
    }
}
