//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder was
//! created), the span that caused it and the id of the run it belongs to.
//! Spans stay in memory while the workload runs and are written out once,
//! at the end. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
    /// Units of work the span covered (rows, events, queries, ...).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    run: u32,
}

impl Recorder {
    pub fn new(run: u32) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run,
        }
    }

    /// Tags the spans opened from now on with another run id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            items: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and any span left open inside it), crediting `items`.
    pub fn exit(&mut self, id: SpanId, items: u64) {
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == id {
                break;
            }
        }
        self.spans[id].items += items;
    }

    /// Runs `body` inside a span named `name`; the closure returns its
    /// result and the number of items it processed.
    pub fn time<T>(&mut self, name: &'static str, body: impl FnOnce() -> (T, u64)) -> T {
        let id = self.enter(name);
        let (value, items) = body();
        self.exit(id, items);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and items of every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        totals(&self.spans, name)
    }

    /// One JSON object per span, one per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"items\":{}}}",
                span.name, span.start_ns, span.end_ns, span.run, span.items
            );
        }
        out
    }
}

pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|span| span.name == name)
        .fold((0, 0), |(ns, items), span| {
            (ns + span.duration_ns(), items + span.items)
        })
}

/// The part of span `id`'s interval not covered by any of its direct
/// children, clipped to the parent interval. Overlapping children (spans
/// from parallel work) are counted once.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| span.parent == Some(id))
        .map(|span| {
            (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            )
        })
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in children {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union 10..40 is covered, not 20 + 20.
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild does not count against the root again.
            span("d", 61, 69, Some(3)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10 - 8);
        assert_eq!(self_time_ns(&spans, 4), 8);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", 50, 100, None), span("late", 90, 150, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 40);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut recorder = Recorder::new(7);
        let outer = recorder.enter("outer");
        recorder.time("inner", || ((), 5));
        recorder.time("inner", || ((), 3));
        recorder.exit(outer, 1);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans.iter().all(|span| span.run == 7));
        assert_eq!(recorder.totals("inner").1, 8);
        assert!(self_time_ns(spans, outer) <= spans[outer].duration_ns());
        assert_eq!(recorder.to_json_lines().lines().count(), 3);
    }
}
