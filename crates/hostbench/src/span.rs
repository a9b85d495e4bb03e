//! The harness's own spans: one around every call into a crate's public
//! function, kept in memory and written as Chrome JSON at exit.
//!
//! Spans exist only in a traced run; a measured run calls straight
//! through, so the end-to-end numbers carry no recording cost.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public function (or harness phase) the span wraps.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by every span of one operation (one cell execution).
    pub op_id: u64,
    /// The cell the operation belongs to.
    pub cell: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    op_id: u64,
    cell: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            op_id: 0,
            cell: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation on `cell`: later spans carry a fresh id.
    pub fn begin_op(&mut self, cell: usize) {
        self.op_id += 1;
        self.cell = cell;
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            cell: self.cell,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Fastest `name` span recorded on `cell`.
    pub fn best_ns(&self, cell: usize, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.cell == cell && s.name == name)
            .map(Span::dur_ns)
            .min()
    }

    /// Chrome `trace_event` JSON: complete (`X`) events on one track,
    /// nesting by time; `args` carries the parent index and operation id.
    pub fn chrome_json(&self, cell_names: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let cell = cell_names.get(s.cell).map_or("", String::as_str);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{},\"cell\":\"{cell}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new(true);
        t.begin_op(3);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op_id, t.spans[1].op_id);
        assert!(t.spans[0].dur_ns() >= t.spans[1].dur_ns());
        assert!(t.best_ns(3, "inner").is_some());
        assert!(t.best_ns(2, "inner").is_none());
        let json = t.chrome_json(&["a".into(), "b".into(), "c".into(), "d".into()]);
        hera_integration::minijson::parse(&json).expect("loadable");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
