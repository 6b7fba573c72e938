//! In-memory spans recorded *around* the calls into each layer's public
//! functions, and their Chrome trace-event export.
//!
//! The program itself is not instrumented by this benchmark: a span is
//! what the generator saw from outside a call. Every span belongs to one
//! operation (`op`) and, except the operation's own span, has that
//! operation's span as its parent.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// What a span covers. The variant name doubles as the layer it is
/// charged to in the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole update: due time → region acked. Parent of the rest.
    OpUpdate,
    /// A whole query: due time → refined answer. Parent of the rest.
    OpQuery,
    /// Due time → the moment a driver picked the op up.
    QueueWait,
    /// `ShardedAnonymizer::update_location`.
    ShardedUpdate,
    /// `DurableAnonymizer::try_update_location`.
    DurabilityCommit,
    /// `ReplicatedAnonymizer::try_update_location`.
    ReplicationCommit,
    /// `AnonymizerService::cloak`.
    GridCloak,
    /// `NetworkClient::push_updates` for one window of updates.
    NetUpdateWindow,
    /// `NetworkClient::query_nn`.
    NetQuery,
    /// `CasperClient::refine_nn_entries`.
    ClientRefine,
}

impl SpanKind {
    /// The span's name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::OpUpdate => "op.update",
            SpanKind::OpQuery => "op.query",
            SpanKind::QueueWait => "loadgen.queue_wait",
            SpanKind::ShardedUpdate => "sharded.update_location",
            SpanKind::DurabilityCommit => "durability.try_update_location",
            SpanKind::ReplicationCommit => "replication.try_update_location",
            SpanKind::GridCloak => "grid.cloak",
            SpanKind::NetUpdateWindow => "net.push_updates",
            SpanKind::NetQuery => "net.query_nn",
            SpanKind::ClientRefine => "client.refine_nn_entries",
        }
    }

    fn is_op(self) -> bool {
        matches!(self, SpanKind::OpUpdate | SpanKind::OpQuery)
    }
}

/// One recorded span. Times are nanoseconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, ns since phase start.
    pub start_ns: u64,
    /// End, ns since phase start.
    pub end_ns: u64,
    /// The operation this span belongs to (index into the driver's
    /// stream). A window of updates records its shared spans under the
    /// first op of the window and `ops` tells how many ops it served.
    pub op: u32,
    /// Number of operations that waited for this span (1 except for the
    /// per-window spans of a batch of updates).
    pub ops: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-driver span buffer. Disabled recorders drop spans at the cost
/// of one branch, so untraced phases pay nothing for the calls.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or drops them.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Keeps one span.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, op: u32, ops: u32) {
        if self.enabled {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                op,
                ops,
            });
        }
    }

    /// The spans kept, in recording order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes the spans of every driver as a Chrome trace-event JSON array
/// (`chrome://tracing`, Perfetto). Each driver is one thread lane; each
/// span carries its operation id and its parent's name. Only the spans
/// of the first `max_ops` operations per driver are written, so the
/// file stays small enough to open.
pub fn write_chrome_trace(
    path: &Path,
    per_driver: &[&[Span]],
    max_ops: u32,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(b"[")?;
    let mut first = true;
    let mut line = String::new();
    for (driver, spans) in per_driver.iter().enumerate() {
        for s in spans.iter().filter(|s| s.op < max_ops) {
            line.clear();
            if !first {
                line.push(',');
            }
            first = false;
            let parent = if s.kind.is_op() {
                "\"\"".to_string()
            } else {
                format!("\"op#{}\"", s.op)
            };
            let _ = write!(
                line,
                "\n{{\"name\":\"{}\",\"cat\":\"casper\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"ops\":{},\"parent\":{}}}}}",
                s.kind.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                driver,
                s.op,
                s.ops,
                parent,
            );
            out.write_all(line.as_bytes())?;
        }
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false, 8);
        r.record(SpanKind::GridCloak, 1, 2, 0, 1);
        assert!(r.into_spans().is_empty());
        let mut r = Recorder::new(true, 8);
        r.record(SpanKind::GridCloak, 1, 5, 0, 1);
        assert_eq!(r.into_spans()[0].dur_ns(), 4);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let spans = [
            Span {
                kind: SpanKind::OpQuery,
                start_ns: 0,
                end_ns: 9000,
                op: 0,
                ops: 1,
            },
            Span {
                kind: SpanKind::NetQuery,
                start_ns: 1000,
                end_ns: 8000,
                op: 0,
                ops: 1,
            },
            Span {
                kind: SpanKind::OpQuery,
                start_ns: 9000,
                end_ns: 9500,
                op: 7,
                ops: 1,
            },
        ];
        let dir = crate::scratch::ScratchDir::create("spans-test").unwrap();
        let path = dir.path().join("t.json");
        write_chrome_trace(&path, &[&spans], 5).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 2, "op 7 is past the cap");
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("net.query_nn")
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("op#0")
        );
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(7.0));
    }
}
