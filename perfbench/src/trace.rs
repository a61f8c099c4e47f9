//! In-memory span recorder.
//!
//! Every timing the harness takes goes through [`Tracer::time`] (or the
//! explicit [`Tracer::begin`] / [`OpenSpan::end`] pair), so the numbers in
//! the ledger and the spans in the NDJSON dump come from the same clock
//! reads. With recording off the call still times its closure — it just
//! keeps no span — which is what makes the untraced pass the baseline the
//! traced pass's overhead is measured against.

use crate::stats::self_time_ns;
use grasp_core::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; spans of one
/// repetition share `rep`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub rep: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts taken at the same boundary (edges, records, bytes, ...).
    pub counts: Vec<(&'static str, u64)>,
}

/// Span recorder for one (workload, pass).
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has begun; [`OpenSpan::end`] closes it and returns its
/// duration in seconds.
#[derive(Debug)]
pub struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    rep: u32,
    name: String,
    start: Instant,
    counts: Vec<(&'static str, u64)>,
}

impl OpenSpan<'_> {
    /// The id children name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The instant the span began.
    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Attaches a work count to the span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        self.counts.push((key, value));
    }

    /// Closes the span; returns its duration in seconds.
    pub fn end(self) -> f64 {
        let end = Instant::now();
        let tracer = self.tracer;
        if tracer.recording.load(Ordering::Relaxed) {
            tracer.push(Span {
                id: self.id,
                parent: self.parent,
                rep: self.rep,
                name: self.name,
                start_ns: tracer.ns(self.start),
                end_ns: tracer.ns(end),
                counts: self.counts,
            });
        }
        end.duration_since(self.start).as_secs_f64()
    }
}

impl Tracer {
    /// A recorder for `workload`; `recording` is the initial state (see
    /// [`Tracer::set_recording`]).
    pub fn new(workload: &str, recording: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            origin: Instant::now(),
            recording: AtomicBool::new(recording),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns span keeping on or off (timing is unaffected).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list not poisoned")
            .push(span);
    }

    /// Opens a span now.
    pub fn begin(&self, parent: Option<u64>, rep: u32, name: &str) -> OpenSpan<'_> {
        OpenSpan {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            rep,
            name: name.to_owned(),
            start: Instant::now(),
            counts: Vec::new(),
        }
    }

    /// Times `f` under a span; returns its value and duration in seconds.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        rep: u32,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(parent, rep, name);
        let value = std::hint::black_box(f());
        (value, span.end())
    }

    /// Records an instant (a zero-length child span), e.g. one cell's
    /// completion inside an operation.
    pub fn event(&self, parent: Option<u64>, rep: u32, name: &str, at: Instant) {
        if self.recording.load(Ordering::Relaxed) {
            let at = self.ns(at);
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                rep,
                name: name.to_owned(),
                start_ns: at,
                end_ns: at,
                counts: Vec::new(),
            });
        }
    }

    /// Median self time (seconds) per span name: each span's duration minus
    /// what its children cover.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span list not poisoned");
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(self_ns_of(&spans)) {
            if span.end_ns > span.start_ns {
                by_name
                    .entry(span.name.clone())
                    .or_default()
                    .push(self_ns as f64 / 1e9);
            }
        }
        by_name
            .into_iter()
            .map(|(name, samples)| (name, crate::stats::median(&samples)))
            .collect()
    }

    /// Appends every span as one NDJSON line to `out`; returns how many.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list not poisoned");
        for (span, self_ns) in spans.iter().zip(self_ns_of(&spans)) {
            let counts: BTreeMap<String, Json> = span
                .counts
                .iter()
                .map(|&(key, value)| (key.to_owned(), Json::integer(value)))
                .collect();
            let line = Json::object([
                ("id", Json::integer(span.id)),
                ("parent", span.parent.map_or(Json::Null, Json::integer)),
                ("workload", Json::string(self.workload.clone())),
                ("rep", Json::integer(u64::from(span.rep))),
                ("name", Json::string(span.name.clone())),
                ("start_ns", Json::integer(span.start_ns)),
                ("end_ns", Json::integer(span.end_ns)),
                ("self_ns", Json::integer(self_ns)),
                ("counts", Json::Object(counts)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(spans.len())
    }
}

/// Self time of each span, in `spans` order.
fn self_ns_of(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
            self_time_ns(span.start_ns, span.end_ns, kids)
        })
        .collect()
}

/// Appends a tracer's spans to the NDJSON file at `path`.
pub fn append_ndjson(path: &Path, tracer: &Tracer) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    let written = tracer.write_ndjson(&mut out)?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tracer = Tracer::new("w", false);
        let (value, secs) = tracer.time(None, 0, "work", || 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        let mut out = Vec::new();
        assert_eq!(tracer.write_ndjson(&mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn spans_carry_parent_counts_and_self_time() {
        let tracer = Tracer::new("w", true);
        let mut op = tracer.begin(None, 3, "op");
        op.count("cells", 10);
        let parent = Some(op.id());
        tracer.time(parent, 3, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.event(parent, 3, "cell", Instant::now());
        op.end();

        let mut out = Vec::new();
        assert_eq!(tracer.write_ndjson(&mut out).unwrap(), 3);
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| grasp_core::json::parse(line).expect("valid NDJSON line"))
            .collect();
        let op_line = lines
            .iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some("op"))
            .expect("op span written");
        let child_line = lines
            .iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some("child"))
            .expect("child span written");
        assert_eq!(child_line.get("parent"), op_line.get("id"));
        assert_eq!(op_line.get("parent"), Some(&Json::Null));
        assert_eq!(op_line.get("rep").and_then(Json::as_u64), Some(3));
        assert_eq!(
            op_line
                .get("counts")
                .and_then(|c| c.get("cells"))
                .and_then(Json::as_u64),
            Some(10)
        );
        let ns = |line: &Json, key: &str| line.get(key).and_then(Json::as_u64).unwrap();
        let op_duration = ns(op_line, "end_ns") - ns(op_line, "start_ns");
        let child_duration = ns(child_line, "end_ns") - ns(child_line, "start_ns");
        assert_eq!(ns(op_line, "self_ns"), op_duration - child_duration);
        assert!(tracer.self_times().contains_key("op"));
    }
}
