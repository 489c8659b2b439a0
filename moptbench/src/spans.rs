//! Client-side spans for the traced run.
//!
//! Each timed call into a layer becomes a span — name, start, end, parent
//! and request id — kept in memory and written out as JSON lines when the
//! run ends. Phases opened with [`Tracer::begin`] nest, and every span
//! recorded while a phase is open gets the innermost one as its parent. A
//! disabled tracer records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index); `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    request: u64,
    start: Instant,
    end: Option<Instant>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Open phases, innermost last.
    open: Vec<usize>,
}

/// An in-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Option<Mutex<State>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), state: enabled.then(Mutex::default) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn push(&self, name: &str, request: u64, start: Instant, end: Option<Instant>) -> SpanId {
        let mut state = self.state.as_ref()?.lock().expect("span recorder poisoned by a panic");
        let parent = state.open.last().copied();
        state.spans.push(Span { name: name.into(), parent, request, start, end });
        Some(state.spans.len() - 1)
    }

    /// Open a phase now; close it with [`end`](Self::end). Phases are
    /// opened and closed by one thread, innermost first.
    pub fn begin(&self, name: &str) -> SpanId {
        let id = self.push(name, 0, Instant::now(), None)?;
        let mut state = self.state.as_ref()?.lock().expect("span recorder poisoned by a panic");
        state.open.push(id);
        Some(id)
    }

    /// Close the innermost phase, opened as `id`.
    pub fn end(&self, id: SpanId) {
        if let (Some(state), Some(id)) = (&self.state, id) {
            let mut state = state.lock().expect("span recorder poisoned by a panic");
            state.spans[id].end = Some(Instant::now());
            if state.open.last() == Some(&id) {
                state.open.pop();
            }
        }
    }

    /// Record an interval that was timed elsewhere.
    pub fn record(&self, name: &str, request: u64, start: Instant, end: Instant) {
        self.push(name, request, start, Some(end));
    }

    /// Run `f`, returning its value and wall time in seconds; records a span
    /// when enabled.
    pub fn time<T>(&self, name: &str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, request, start, end);
        (value, (end - start).as_secs_f64())
    }

    /// Write every span as one JSON object per line (times in microseconds
    /// from the tracer's creation). Returns the number of spans written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let Some(state) = &self.state else { return Ok(0) };
        let state = state.lock().expect("span recorder poisoned by a panic");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let micros = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, span) in state.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let end = span.end.map_or(-1.0, micros);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"parent\":{parent},\"request\":{},\"start_us\":{:.1},\"end_us\":{end:.1}}}",
                serde_json::to_string(&span.name).expect("a string always serializes"),
                span.request,
                micros(span.start),
            )?;
        }
        out.flush()?;
        Ok(state.spans.len())
    }
}
