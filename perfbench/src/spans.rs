//! The benchmark's own spans: name, start, end and parent of each call it
//! makes into the program (child runs, calibration loops). Kept in memory
//! and written once, at the end, as Chrome `trace_event` JSON.

use std::time::Instant;

/// One recorded span (host time since the log was created).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON: one complete (`X`) event per span, with
    /// its index and its parent's index as args.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                    s.name.replace('"', "'"),
                    self.depth(i),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    fn depth(&self, mut i: usize) -> usize {
        let mut d = 0;
        while let Some(p) = self.spans[i].parent {
            d += 1;
            i = p;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut log = SpanLog::default();
        let v = log.within("outer", |log| {
            log.within("a", |_| ());
            log.within("b", |_| 7)
        });
        assert_eq!(v, 7);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let json = log.to_chrome_json();
        assert!(json.contains("\"name\":\"b\"") && json.contains("\"parent\":0"));
    }
}
