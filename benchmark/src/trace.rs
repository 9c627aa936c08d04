//! In-memory spans, recorded from the benchmark around public calls into
//! each layer and written out when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// One id per spreadsheet operation; its probes share it.
    pub op_id: u32,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded while replaying the operation's layers after it returned,
    /// outside its wall time.
    pub probe: bool,
}

/// Where a new span hangs: under `parent` (0 for a root), as part of
/// operation `op_id`, inside its wall time or as a probe after it.
#[derive(Debug, Clone, Copy)]
pub struct SpanAt {
    pub parent: u32,
    pub op_id: u32,
    pub probe: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    pub fn next_op_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that began at `start_ns` and lasted `len`; returns its id.
    pub fn record(
        &mut self,
        at: SpanAt,
        layer: &'static str,
        name: impl Into<String>,
        start_ns: u64,
        len: Duration,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: at.parent,
            op_id: at.op_id,
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns + len.as_nanos() as u64,
            probe: at.probe,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total length of the spans `id` caused within its own interval
    /// (probes replay afterwards and are not part of it).
    pub fn children_ns(&self, id: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == id && !s.probe)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's self time: its length minus the part its children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize - 1];
        (span.end_ns - span.start_ns).saturating_sub(self.children_ns(id))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("probe", Json::Bool(s.probe)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.next_op_id();
        let at = |parent, probe| SpanAt {
            parent,
            op_id: op,
            probe,
        };
        let root = t.record(
            at(0, false),
            "core::spreadsheet",
            "op",
            100,
            Duration::from_nanos(1000),
        );
        t.record(
            at(root, false),
            "core",
            "core.trees",
            100,
            Duration::from_nanos(900),
        );
        t.record(
            at(root, true),
            "sketch",
            "summarize",
            2000,
            Duration::from_nanos(500),
        );
        assert_eq!(t.self_ns(root), 100);
        assert_eq!(t.to_json().as_arr().len(), 3);
    }
}
