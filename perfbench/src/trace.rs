//! In-memory span recorder for the traced run, and self-time arithmetic.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry points. Work a library call does *internally*
//! (the index builds inside `load_shards`, candidate generation inside an
//! engine run) cannot be wrapped from outside, so the traced run re-executes
//! it on identical inputs right after the real call and records it as an
//! **attributed** child: a span that did not run inside its parent's
//! interval on the clock, but whose duration the parent paid internally.
//! A parent's self time is its duration minus the part of its interval its
//! live children cover, minus the durations of its attributed children.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// True when the span ran outside its parent's interval (a replay) or
    /// was reported by the library rather than clocked here (an engine's
    /// own `wall`); its duration is attributed to the parent.
    pub attributed: bool,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("no thread panics while holding the span list");
        spans.push(span);
        spans.len() - 1
    }

    /// Time `f` as a live span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        attributed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(Span { name, start, end, parent, request, attributed }))
    }

    /// Record a duration the library measured itself (an engine's `wall`)
    /// as an attributed child of `parent`.
    pub fn reported(&self, name: &'static str, parent: SpanId, request: u64, nanos: u64) -> SpanId {
        let start =
            self.spans.lock().expect("no thread panics while holding the span list")[parent].start;
        self.record(Span {
            name,
            start,
            end: start + nanos,
            parent: Some(parent),
            request,
            attributed: true,
        })
    }

    /// Make `child` a child of `parent`, for replays that ran before the
    /// span they are attributed to.
    pub fn adopt(&self, child: SpanId, parent: SpanId) {
        self.spans.lock().expect("no thread panics while holding the span list")[child].parent =
            Some(parent);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panics while holding the span list").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"attributed\":{}}}",
                s.name, s.start, s.end, s.request, s.attributed
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a live root span when tracing, plainly otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Option<SpanId>) {
    match tracer {
        None => (f(), None),
        Some(tr) => {
            let (out, id) = tr.span(name, None, request, false, f);
            (out, Some(id))
        }
    }
}

/// Self time of every span: its duration, minus the union of its live
/// children's intervals clipped to its own, minus its attributed children's
/// durations. Attributed work that exceeds the parent (noise in a replay)
/// yields a negative self time rather than being hidden by a clamp.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut live: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    let mut attributed = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.attributed {
                attributed[p] += s.duration();
            } else {
                let parent = &spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    live.entry(p).or_default().push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let covered = live.get_mut(&id).map_or(0, |iv| union_len(iv));
            s.duration() as i64 - covered as i64 - attributed[id] as i64
        })
        .collect()
}

fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        attributed: bool,
    ) -> Span {
        Span { name, start, end, parent, request: 0, attributed }
    }

    #[test]
    fn self_time_subtracts_the_union_of_live_children() {
        let spans = vec![
            span("root", 0, 100, None, false),
            // Overlapping children (parallel work) cover [10, 40) once.
            span("a", 10, 30, Some(0), false),
            span("b", 20, 40, Some(0), false),
            // Disjoint child covers [60, 70).
            span("c", 60, 70, Some(0), false),
            // A grandchild counts against its own parent only.
            span("a1", 12, 18, Some(1), false),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 10, 6]);
    }

    #[test]
    fn live_children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 50, 100, None, false), span("late", 90, 130, Some(0), false)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn attributed_children_subtract_their_duration_and_may_go_negative() {
        let spans = vec![
            span("load", 0, 100, None, false),
            // Replayed after the parent ended: its duration still counts.
            span("build", 200, 270, Some(0), true),
            span("wall", 0, 20, Some(0), true),
            span("noisy", 0, 50, None, false),
            span("replay", 500, 560, Some(3), true),
        ];
        assert_eq!(self_times(&spans), vec![10, 70, 20, -10, 60]);
    }

    #[test]
    fn reported_spans_attach_to_the_parent_start() {
        let t = Tracer::default();
        let (_, parent) = t.span("run", None, 7, false, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let child = t.reported("wall", parent, 7, 1_000);
        let spans = t.spans();
        assert_eq!(spans[child].start, spans[parent].start);
        assert_eq!(spans[child].duration(), 1_000);
        assert!(spans[child].attributed);
        assert_eq!(self_times(&spans)[parent], spans[parent].duration() as i64 - 1_000);
    }
}
