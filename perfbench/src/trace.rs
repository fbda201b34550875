//! Host-time spans recorded around the benchmark's calls into each
//! layer. Nothing inside the program is instrumented: a span starts
//! before a public library call and ends when it returns.
//!
//! Spans stay in memory and are written out once, when the run ends, as
//! Chrome trace-event JSON (load it in Perfetto or `chrome://tracing`).

use std::time::Instant;

/// One timed interval: a root (`setup`, `day`, `probe`) or a layer call
/// inside one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or root name.
    pub name: &'static str,
    /// Index of the enclosing span; `None` for roots.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A count recorded at a layer boundary, attributed to a root span.
#[derive(Debug, Clone, PartialEq)]
struct Count {
    /// Metric name.
    pub name: &'static str,
    /// Root span the count belongs to.
    pub root: usize,
    /// Amount added.
    pub value: f64,
}

/// In-memory span and count recorder. A disabled tracer records
/// nothing and reads no clock, so the untraced set-up path pays for
/// nothing but a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open_root: Option<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open_root: None,
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a root span named `name` and returns its result
    /// with the root's index (or `None` when disabled).
    pub fn root<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let index = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            parent: None,
            start_s,
            end_s: start_s,
        });
        let outer = self.open_root.replace(index);
        let out = f(self);
        self.open_root = outer;
        let end_s = self.now_s();
        self.spans[index].end_s = end_s;
        (out, Some(index))
    }

    /// Runs `f` inside a layer span named `name`, a child of the open
    /// root.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_s = self.now_s();
        let out = f();
        let end_s = self.now_s();
        self.spans.push(Span {
            name,
            parent: self.open_root,
            start_s,
            end_s,
        });
        out
    }

    /// Adds `value` to the count `name` of the open root.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some(root)) = (self.enabled, self.open_root) {
            self.counts.push(Count { name, root, value });
        }
    }

    /// Every span recorded so far, in completion order of layers.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in layer spans called `name` under root `root`.
    pub fn layer_s(&self, root: usize, name: &str) -> f64 {
        let mut total = 0.0;
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == name)
        {
            total += s.duration_s();
        }
        total
    }

    /// Sum of the counts called `name` under root `root`.
    pub fn count_of(&self, root: usize, name: &str) -> f64 {
        let mut total = 0.0;
        for c in self
            .counts
            .iter()
            .filter(|c| c.root == root && c.name == name)
        {
            total += c.value;
        }
        total
    }

    /// Share of root `root`'s wall time that its layer spans cover.
    /// Layer spans never overlap (each ends before the next begins), so
    /// their durations add.
    pub fn coverage(&self, root: usize) -> f64 {
        let wall = self.spans[root].duration_s();
        let mut covered = 0.0;
        for s in self.spans.iter().filter(|s| s.parent == Some(root)) {
            covered += s.duration_s();
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event
    /// per span, microseconds, roots on thread 0 and layers on thread 1.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                    s.name,
                    u8::from(s.parent.is_some()),
                    s.start_s * 1e6,
                    s.duration_s() * 1e6
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_nest_under_the_open_root() {
        let mut t = Tracer::new(true);
        let (value, root) = t.root("day", |t| {
            t.count("frames", 2.0);
            let a = t.layer("render", || 1);
            t.count("frames", 3.0);
            a + t.layer("render", || 2)
        });
        let root = root.expect("enabled tracer names its root");
        assert_eq!(value, 3);
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans().iter().skip(1).all(|s| s.parent == Some(root)));
        assert_eq!(t.count_of(root, "frames"), 5.0);
        assert!(t.layer_s(root, "render") <= t.spans()[root].duration_s());
        assert!((0.0..=1.0).contains(&t.coverage(root)));
        assert!(t.to_chrome_json().contains("\"name\": \"render\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, root) = t.root("day", |t| {
            t.count("frames", 1.0);
            t.layer("render", || 7)
        });
        assert_eq!((v, root), (7, None));
        assert!(t.spans().is_empty());
    }
}
