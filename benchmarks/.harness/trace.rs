//! In-memory spans around calls into each layer's public functions.
//!
//! A span is `name, item, start, end, parent`: `item` tells apart spans of
//! one name (arm index, target index, seed). Spans nest by call structure;
//! a span's self time is its duration minus its direct children's. Spans
//! are kept in memory and written out once, when the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span. The parent is whichever span is open on
    /// this tracer when `f` starts.
    pub fn span<R>(&self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                item,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let span = &mut self.spans.borrow_mut()[idx];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Takes every finished span, leaving the tracer empty. Must not be
    /// called from inside a span.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "take() inside an open span");
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// [`Tracer::span`] when tracing, plain `f()` when not: for code that runs
/// the same calls either way.
pub fn span_if<R>(t: Option<&Tracer>, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, item, f),
        None => f(),
    }
}

/// Self time per span: duration minus the durations of its direct children.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Sum of the durations of every span called `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// One JSON object per line: `{"name":..,"item":..,"start":..,"end":..,"parent":..}`
/// (`parent` is the line index of the enclosing span, or null; times in ns
/// since the tracer was created).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"item\":{},\"start\":{},\"end\":{},\"parent\":{}}}",
            s.name, s.item, s.start_ns, s.end_ns, parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            item: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("grandchild", 15, 25, Some(1)),
            span("child", 50, 70, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 20]);
        assert_eq!(total_ns(&spans, "child"), 50);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let t = Tracer::default();
        let v = t.span("outer", 1, || {
            t.span("inner", 2, || ());
            t.span("inner", 3, || 7)
        });
        assert_eq!(v, 7);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].item, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(t.take().is_empty());
    }
}
