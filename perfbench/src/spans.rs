//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began (its parent), and an id shared by every span of one walk call or
//! service ticket. A disabled tracer records nothing, so the untraced
//! passes pay one branch per boundary.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, such as `congest.phase1` or `service.pump`.
    pub name: &'static str,
    /// Id of the call or ticket the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if one was open.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation.
    pub end: Duration,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes `open` (and anything opened inside it and left open).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open else { return };
        let now = self.epoch.elapsed();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Records a span whose interval was measured elsewhere, such as a
    /// ticket's life from `submit` to the `drain` that returned it,
    /// which overlaps other tickets and so cannot nest.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent: None,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"index\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}{}",
                s.name,
                s.id,
                s.start.as_micros(),
                s.end.as_micros(),
                self_time(&self.spans, i).as_micros(),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once, and any
/// part of a child outside the parent is ignored).
pub fn self_time(spans: &[Span], idx: usize) -> Duration {
    let parent = &spans[idx];
    let mut children: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort();
    let mut covered = Duration::ZERO;
    let mut reach = parent.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("call", None, 0, 100),
            span("bfs", Some(0), 10, 30),
            span("phase1", Some(0), 20, 50), // overlaps bfs: counted once
            span("tail", Some(0), 70, 80),
            span("inner", Some(2), 25, 45), // a grandchild: not subtracted from call
            span("late", Some(0), 95, 120), // clipped to the parent's end
        ];
        assert_eq!(
            self_time(&spans, 0),
            Duration::from_millis(100 - 40 - 10 - 5)
        );
        assert_eq!(self_time(&spans, 2), Duration::from_millis(30 - 20));
        assert_eq!(self_time(&spans, 3), Duration::from_millis(10));
    }

    #[test]
    fn nested_spans_share_the_stack() {
        let mut t = Tracer::new(true);
        let outer = t.begin("probe", 7);
        let inner = t.begin("congest.bfs", 7);
        t.end(inner);
        let left_open = t.begin("congest.phase1", 7);
        t.end(outer); // closes the child left open too
        assert!(left_open.is_some());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7 && s.end >= s.start));
        assert!(spans[2].end <= spans[0].end);
        assert!(t.to_json().contains("\"name\": \"congest.bfs\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("walk.call", 1);
        t.end(open);
        t.record("ticket", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert!(t.seconds("walk.call").is_empty());
    }
}
