//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public API. Each span keeps its name (the per-layer metric
//! prefix), start and end relative to the recorder's epoch, its parent
//! span, the request it belongs to, and — for flash operations — the cells
//! of the segment it touched. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.verify` or `nor.partial_erase`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or, during set-up, chip) the span belongs to.
    pub request_id: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Cells of the segment a flash operation touched (0 otherwise).
    pub cells: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing,
/// so the untraced path can run the same replay code at no cost.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer whose epoch is now.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            request_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `request_id`.
    pub fn set_request(&mut self, request_id: u64) {
        self.request_id = request_id;
    }

    /// Opens a span nested in the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request_id: self.request_id,
            start_ns,
            end_ns: start_ns,
            cells: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// When spans are closed out of order (a bug in the benchmark).
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` that touched `cells` cells.
    pub fn leaf<T>(&mut self, name: &'static str, cells: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        if let Some(span) = self.spans.get_mut(id) {
            span.cells = cells;
        }
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (all spans must be closed).
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "clearing with open spans");
        self.spans.clear();
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span never overlap (the replay is
/// serial), so their coverage is the sum of their durations.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.duration_ns());
        }
    }
    out
}

/// Renders spans as JSON lines, one object per span, tagged with `phase`.
#[must_use]
pub fn to_jsonl(phase: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 112);
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"phase\":\"{phase}\",\"id\":{id},\"parent\":{parent},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cells\":{}}}",
            s.request_id, s.name, s.start_ns, s.end_ns, s.cells
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "a",
                parent: None,
                request_id: 0,
                start_ns: 0,
                end_ns: 100,
                cells: 0,
            },
            Span {
                name: "b",
                parent: Some(0),
                request_id: 0,
                start_ns: 10,
                end_ns: 40,
                cells: 0,
            },
            Span {
                name: "c",
                parent: Some(1),
                request_id: 0,
                start_ns: 20,
                end_ns: 30,
                cells: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("x");
        t.leaf("y", 8, || ());
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::enabled();
        t.set_request(7);
        let outer = t.enter("outer");
        t.leaf("inner", 4096, || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cells, 4096);
        assert_eq!(spans[1].request_id, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
