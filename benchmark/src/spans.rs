//! Harness-side spans: name, start, end, the span that caused it and the
//! request it belongs to. They are recorded around the benchmark's calls
//! into the layers (spans inside the crates are a later change), kept in
//! memory, and written as JSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based; 0 stands for "no parent".
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the request in its stream, shared by the spans of one request.
    pub request: Option<u32>,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn us_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    pub fn now_us(&self) -> u64 {
        self.us_since_origin(Instant::now())
    }

    pub fn add(
        &mut self,
        parent: u32,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        request: Option<u32>,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, name, start_us, end_us: end_us.max(start_us), request });
        id
    }

    /// Run `f` inside a span.
    pub fn timed<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let out = f();
        self.add(parent, name, start, self.now_us(), None);
        out
    }

    /// Stretch span `id` so that it ends at `end_us`.
    pub fn close(&mut self, id: u32, end_us: u64) {
        self.spans[id as usize - 1].end_us = end_us;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: how many, their total duration, and their total self
    /// time: the duration minus the part of it that child spans cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let duration = s.end_us - s.start_us;
            let covered =
                children.get_mut(&s.id).map_or(0, |c| covered_within(c, s.start_us, s.end_us));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += duration;
            e.2 += duration - covered;
        }
        out
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"unit\": \"us\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"request\": {request}}}{}",
                s.id,
                s.parent,
                s.name,
                s.start_us,
                s.end_us,
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut log = SpanLog::new();
        let root = log.add(0, "request", 100, 200, Some(7));
        log.add(root, "issue", 100, 120, Some(7));
        log.add(root, "issue", 110, 130, Some(7)); // overlaps the first
        log.add(root, "issue", 190, 250, Some(7)); // sticks out of the parent
        let by = log.by_name();
        assert_eq!(by["request"], (1, 100, 100 - 30 - 10));
        assert_eq!(by["issue"], (3, 20 + 20 + 60, 100));
    }

    #[test]
    fn timed_and_close() {
        let mut log = SpanLog::new();
        let parent = log.add(0, "probes", 0, 0, None);
        assert_eq!(log.timed(parent, "probe", || 42), 42);
        log.close(parent, 1_000_000);
        assert_eq!(log.len(), 2);
        assert_eq!(log.by_name()["probes"].1, 1_000_000);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let mut log = SpanLog::new();
        let root = log.add(0, "run", 0, 10, None);
        log.add(root, "request", 1, 5, Some(3));
        let dir = crate::cluster::DataDir::create("spans-test").unwrap();
        let path = dir.path().join("spans.json");
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("{\"id\": 2, \"parent\": 1, \"name\": \"request\", \"start\": 1, \"end\": 5, \"request\": 3}"));
        assert!(text.contains("\"request\": null},"));
        assert_eq!(text.matches("\"id\"").count(), 2);
    }
}
