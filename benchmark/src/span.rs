//! Spans recorded by the benchmark around its calls into the stack.
//!
//! Spans live in memory (a preallocated vector per lane) and are written
//! to `benchmark/out/trace-<workload>.jsonl` when the run ends. Spans
//! inside the program are a later issue; these sit at the boundary the
//! workload drives.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the time base of
/// every span and every latency sample.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval. `parent` is the `id` of the span that caused it
/// (0 = none); spans of one request share `request_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

/// Most spans one lane keeps; later ones are counted, not stored, so a
/// long run cannot grow the trace without bound.
pub const LANE_CAP: usize = 50_000;

/// One lane's span buffer. Ids are unique across lanes.
pub struct Recorder {
    spans: Vec<Span>,
    base: u32,
    pub dropped: u64,
}

impl Recorder {
    pub fn new(lane: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(LANE_CAP),
            base: (lane as u32) << 24,
            dropped: 0,
        }
    }

    /// Records a span; returns its id for children to name as parent
    /// (0 once the buffer is full).
    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        if self.spans.len() == LANE_CAP {
            self.dropped += 1;
            return 0;
        }
        let id = self.base + self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover (children may overlap each other and stick out of the
/// parent; only the covered part of the parent's interval counts).
pub fn self_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = p0;
    for &(c0, c1) in children.iter() {
        let start = c0.max(reach);
        let end = c1.min(p1);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (p1.saturating_sub(p0)).saturating_sub(covered)
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect()
}

/// Self times of every span called `name`, its children found by `parent`.
/// Relies on children being recorded right after their parent, as every
/// recorder in this benchmark does.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut kids: Vec<(u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        kids.clear();
        kids.extend(
            spans[i + 1..]
                .iter()
                .take_while(|c| c.parent == s.id)
                .map(|c| (c.start_ns, c.end_ns)),
        );
        out.push(self_ns((s.start_ns, s.end_ns), &mut kids));
    }
    out
}

/// Writes spans as JSON lines (`id, name, start_ns, end_ns, parent,
/// request_id`), creating the directory if needed.
pub fn write_jsonl<'a>(path: &Path, lanes: impl Iterator<Item = &'a [Span]>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for spans in lanes {
        for s in spans {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request_id
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_parent_minus_what_children_cover() {
        // Disjoint children.
        assert_eq!(self_ns((100, 200), &mut [(110, 120), (150, 170)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_ns((100, 200), &mut [(110, 150), (140, 160)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_ns((100, 200), &mut [(110, 190), (120, 130)]), 20);
        // Parts of children outside the parent do not count.
        assert_eq!(self_ns((100, 200), &mut [(50, 120), (180, 300)]), 60);
        // Order of recording does not matter.
        assert_eq!(self_ns((100, 200), &mut [(150, 170), (110, 120)]), 70);
        // No children: all self. Full cover: none.
        assert_eq!(self_ns((100, 200), &mut []), 100);
        assert_eq!(self_ns((100, 200), &mut [(100, 200)]), 0);
    }

    #[test]
    fn recorder_links_children_and_stops_at_its_cap() {
        let mut r = Recorder::new(1);
        let req = r.push("request", 0, 100, 0, 9);
        assert_ne!(req, 0);
        r.push("client.encode", 0, 10, req, 9);
        r.push("client.wait", 20, 90, req, 9);
        let other = r.push("request", 200, 260, 0, 10);
        r.push("client.wait", 210, 250, other, 10);
        assert_eq!(self_times(&r.spans, "request"), vec![20, 20]);
        assert_eq!(durations(&r.spans, "client.wait"), vec![70, 40]);
        assert!(
            Recorder::new(0).push("x", 0, 1, 0, 0) != req,
            "ids differ across lanes"
        );
        for _ in 0..LANE_CAP {
            r.push("filler", 0, 1, 0, 0);
        }
        assert_eq!(r.spans.len(), LANE_CAP);
        assert_eq!(r.dropped, 5);
    }
}
