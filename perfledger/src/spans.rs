//! In-memory spans recorded by the benchmark's own code around the public
//! calls it makes into each layer, written out as Chrome trace events when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::json_str;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index in the recorder).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request (statement) the span belongs to.
    pub request: usize,
    /// Layer (crate) the call went into: `storage`, `json`, `engine`,
    /// `maxson`, `server`, or `bench` for the benchmark's own grouping.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end.
    pub end: Duration,
}

/// Single-threaded span recorder (the traced run is serial).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Recorder {
    /// Start attributing spans to request `request`.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    /// Run `f` inside a span; nested calls become its children. Returns
    /// `f`'s result and the span's duration.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            layer,
            name: name.into(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end - s.start).saturating_sub(child_time[s.id]);
            *out.entry(s.layer).or_default() += own;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}{}",
                json_str(&s.name),
                json_str(s.layer),
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        r.span("bench", "outer", |r| {
            r.span("storage", "inner", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(5));
        });
        let by_layer = r.self_time_by_layer();
        assert!(by_layer["storage"] >= Duration::from_millis(20));
        assert!(by_layer["bench"] >= Duration::from_millis(5));
        assert!(by_layer["bench"] < Duration::from_millis(20));
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.to_chrome_json().contains("\"cat\": \"storage\""));
    }
}
