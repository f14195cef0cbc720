//! In-memory timing spans recorded around the benchmark's calls into
//! each layer.
//!
//! A span has a name, a start and end on one monotonic clock, the span
//! that caused it, and the workload-run (rep) it belongs to. Spans stay
//! in memory while the benchmark runs and are written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] log.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span log.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now; it stays open (zero length) until [`close`].
    ///
    /// [`close`]: Spans::close
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        })
    }

    /// Close span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 * 1e-9
    }

    /// Append a finished span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Forget every span recorded so far.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span, index-aligned with the log: its duration
    /// minus the part of its interval that its children cover (children
    /// that overlap each other are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// The log as JSON lines, one span per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = Spans::new();
        let root = log.push(span("rep", 0, 100, None));
        let setup = log.push(span("setup.new", 10, 30, Some(root)));
        log.push(span("inner", 12, 20, Some(setup)));
        log.push(span("system.slice", 40, 90, Some(root)));
        // rep: 100 - (20 + 50); setup.new: 20 - 8; the leaves keep all.
        assert_eq!(log.self_times_ns(), vec![30, 12, 8, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let mut log = Spans::new();
        let root = log.push(span("rep", 100, 200, None));
        log.push(span("a", 90, 130, Some(root))); // starts before its parent
        log.push(span("b", 120, 150, Some(root))); // overlaps a
        log.push(span("c", 190, 220, Some(root))); // ends after its parent
                                                   // Covered: [100, 150) + [190, 200) = 60.
        assert_eq!(log.self_times_ns()[0], 40);
    }

    #[test]
    fn open_and_close_measure_real_time() {
        let mut log = Spans::new();
        let id = log.open("rep", None, 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = log.close(id);
        assert!(secs >= 0.002, "{secs}");
        assert_eq!(log.durations_s("rep"), vec![secs]);
        let line = log.to_jsonl();
        assert!(line.starts_with("{\"id\": 0, \"run\": 3, \"name\": \"rep\", \"parent\": null"));
    }
}
