//! The benchmark's own span recorder: one span per call into a layer,
//! kept in memory and handed over when the traced run ends.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each crate; from outside, a page load is one opaque call, so
//! true per-layer self time needs spans inside the program (a later
//! issue). `self_ns` here is a span's duration minus its children's.

use std::time::Instant;

use crate::json::{self, Value};

pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: String::new(),
        }
    }

    /// Label subsequent spans with the workload they belong to
    /// (`"probes"` for the layer probes).
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            workload: self.workload.clone(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the time its direct children
    /// cover. Index-parallel with [`Recorder::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON object per span: `{id, parent, name, layer, workload,
    /// start_ns, end_ns, self_ns}` (`parent` is `null` at the root).
    pub fn to_values(&self) -> Vec<Value> {
        let own = self.self_ns();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json::obj(vec![
                    ("id", Value::Int(i as i64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("name", Value::Str(s.name.clone())),
                    ("layer", Value::Str(s.layer.to_string())),
                    ("workload", Value::Str(s.workload.clone())),
                    ("start_ns", Value::Int(s.start_ns as i64)),
                    ("end_ns", Value::Int(s.end_ns as i64)),
                    ("self_ns", Value::Int(own[i] as i64)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new();
        rec.set_workload("w");
        rec.span("outer", "core", |rec| {
            rec.span("inner", "mm-sim", |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = rec.self_ns();
        assert_eq!(
            own[0],
            (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns)
        );
        assert_eq!(rec.to_values().len(), 2);
    }
}
