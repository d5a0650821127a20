//! Span recording around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! With tracing off, [`Tracer::close`] still returns the span's duration
//! (the benchmark needs the layer times either way) but records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A span that has been opened but not yet closed.
pub struct Open {
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> usize {
        self.id
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

struct Span {
    id: usize,
    parent: Option<usize>,
    case: usize,
    layer: &'static str,
    start: f64,
    end: f64,
    counters: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    next_id: usize,
    cases: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            enabled,
            workload,
            epoch: Instant::now(),
            next_id: 0,
            cases: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Names the case-run the following spans belong to.
    pub fn begin_case(&mut self, name: String) {
        if self.enabled {
            self.cases.push(name);
        }
    }

    pub fn open(&mut self, layer: &'static str, parent: Option<&Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent: parent.map(Open::id),
            layer,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        self.close_with(open, Vec::new)
    }

    /// Closes `open`, attaching counters read at the same boundary (read only
    /// when tracing is on).
    pub fn close_with(
        &mut self,
        open: Open,
        counters: impl FnOnce() -> Vec<(&'static str, f64)>,
    ) -> f64 {
        let end = Instant::now();
        let seconds = (end - open.start).as_secs_f64();
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                case: self.cases.len().saturating_sub(1),
                layer: open.layer,
                start: (open.start - self.epoch).as_secs_f64(),
                end: (end - self.epoch).as_secs_f64(),
                counters: counters(),
            });
        }
        seconds
    }

    /// Number of case-runs traced so far.
    pub fn traced_cases(&self) -> usize {
        self.cases.len()
    }

    /// Total self time per layer: each span's duration minus the time its
    /// child spans cover (children of one span never overlap here: the
    /// benchmark calls the layers one after another on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time: BTreeMap<usize, f64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_time.entry(parent).or_default() += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            let own = span.end - span.start - child_time.get(&span.id).copied().unwrap_or(0.0);
            *out.entry(span.layer).or_default() += own;
        }
        out
    }

    /// The recorded spans as JSONL, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"workload\":\"{}\",\"case\":\"{}\",\"layer\":\"{}\",\"id\":{},\"parent\":{},\
                 \"start_s\":{},\"end_s\":{},\"counters\":{{",
                self.workload,
                self.cases[span.case],
                span.layer,
                span.id,
                parent,
                span.start,
                span.end
            );
            for (i, (name, value)) in span.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{name}\":{value}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new("test", true);
        tracer.begin_case("c".to_string());
        let root = tracer.open("case", None);
        let child = tracer.open("child", Some(&root));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let child_s = tracer.close(child);
        let root_s = tracer.close(root);
        let self_times = tracer.self_times();
        assert!((self_times["child"] - child_s).abs() < 1e-9);
        assert!((self_times["case"] - (root_s - child_s)).abs() < 1e-9);
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut tracer = Tracer::new("test", false);
        tracer.begin_case("c".to_string());
        let span = tracer.open("case", None);
        assert!(tracer.close(span) >= 0.0);
        assert_eq!(tracer.traced_cases(), 0);
        assert!(tracer.to_jsonl().is_empty());
    }
}
