//! Trace sinks: the receivers of a run's record stream.
//!
//! A [`TraceSink`] receives the run's records as the engine commits them:
//! a header with the geometry and cost model, the trace events
//! (send/recv/compute), span boundaries, and a per-node footer carrying
//! the final clock and blocked time (so a reader need not re-derive them
//! from the events) and the one quantity no event stream can reconstruct:
//! the receive-queue high-water mark (enqueue-time state). Every attached
//! sink receives the same records.
//!
//! [`Trace`](crate::sim::Trace) keeps the events in memory for the
//! analyzers. [`StreamingSink`] serializes each record straight into
//! any `io::Write` — a buffered (optionally gzipped) file via
//! [`StreamingSink::create`], or an in-memory `Vec<u8>` — so heap usage
//! stays O(1) in the trace length; [`super::replay::run_to_json`] renders
//! a buffered observation through the same sink. The run file is a single
//! JSON document (schema in DESIGN.md §6) parsed back by
//! [`super::replay`]. Records appear in emission order, which the round
//! barrier fixes: (round, node id, program order) — so both engines write
//! the same bytes (pinned by `tests/obs_invariants.rs`), and each node's
//! own records stay in program order, which is all replay needs. When it
//! finishes, it folds the number of records it wrote into the process's
//! metric totals ([`super::metrics`]), if they are installed.

use super::gz::GzEncoder;
use super::json::{json_object, write_member, write_trace_event, JsonValue};
use super::{metrics, NodeObservation};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::sim::{LinkModel, TraceEvent};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Per-node closing record of a run file: the state a replay cannot
/// rebuild from the event stream alone. One entry per participating
/// node, in ascending address order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSummary {
    /// The node's address.
    pub node: NodeId,
    /// Final virtual clock, µs.
    pub clock: f64,
    /// Virtual µs spent waiting in `recv` (see `NodeMetrics::blocked_us`).
    pub blocked_us: f64,
    /// Receive-queue high-water mark (see `NodeMetrics::inbox_peak`).
    pub inbox_peak: u64,
}

json_object!(NodeSummary {
    node,
    clock,
    blocked_us,
    inbox_peak,
});

impl NodeSummary {
    /// The footer entry of an observed node.
    pub fn of(node: &NodeObservation) -> NodeSummary {
        NodeSummary {
            node: node.node,
            clock: node.clock,
            blocked_us: node.metrics.blocked_us,
            inbox_peak: node.metrics.inbox_peak,
        }
    }
}

/// Receiver of a run's record stream. Engines call the methods in strict
/// order — `begin`, then any number of `event`/`span`, then `finish`
/// exactly once — holding a lock, so implementations see records in
/// emission order. A sink instance captures one run; reuse is an error.
pub trait TraceSink: Send {
    /// Starts a run over a `dim`-cube under `cost` and `link_model`.
    fn begin(&mut self, dim: usize, cost: &CostModel, link_model: LinkModel);
    /// One trace event (send/recv/compute), as the engine stamps it.
    fn event(&mut self, event: &TraceEvent);
    /// A span boundary on `node` at virtual time `time`: `Some(phase)`
    /// enters a span, `None` exits the innermost open one.
    fn span(&mut self, node: NodeId, phase: Option<u16>, time: f64);
    /// Ends the run with the per-node summaries.
    fn finish(&mut self, nodes: &[NodeSummary]);
}

fn render_header(
    out: &mut String,
    dim: usize,
    cost: &CostModel,
    link_model: LinkModel,
    key_type: &Option<String>,
) {
    out.push('{');
    write_member(out, "version", &2u64);
    write_member(out, "dim", &dim);
    write_member(out, "cost", cost);
    write_member(out, "link_model", &link_model);
    write_member(out, "key_type", key_type);
    out.push_str(",\"events\":[");
}

fn render_span(out: &mut String, node: NodeId, phase: Option<u16>, time: f64) {
    match phase {
        Some(p) => {
            let _ = write!(
                out,
                "{{\"t\":{time},\"node\":{},\"kind\":\"enter\",\"phase\":{p}}}",
                node.raw()
            );
        }
        None => {
            let _ = write!(
                out,
                "{{\"t\":{time},\"node\":{},\"kind\":\"exit\"}}",
                node.raw()
            );
        }
    }
}

fn render_footer(out: &mut String, nodes: &[NodeSummary]) {
    out.push_str("\n],\"nodes\":[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        n.write(out);
    }
    out.push_str("\n]}\n");
}

/// A writer a [`StreamingSink`] ends once the footer is written: flushed,
/// and a gzip member closed by its trailer, whose write error would be
/// lost in a `Drop`.
pub trait EndWrite: Write {
    /// Writes out everything buffered and ends the stream.
    fn end(&mut self) -> io::Result<()> {
        self.flush()
    }
}

impl EndWrite for Vec<u8> {}
impl EndWrite for BufWriter<File> {}

impl<W: Write> EndWrite for GzEncoder<W> {
    fn end(&mut self) -> io::Result<()> {
        self.finish_stream()
    }
}

impl EndWrite for Box<dyn EndWrite + Send> {
    fn end(&mut self) -> io::Result<()> {
        (**self).end()
    }
}

/// Incremental sink: each record is serialized and handed to the writer
/// immediately, so memory stays O(1) in the trace length; the writer is
/// ended on `finish`. Engines have no error channel mid-run, so the first
/// I/O error is kept, nothing is written after it, and the sink's owner
/// takes it ([`take_error`](Self::take_error)) once the run is over.
pub struct StreamingSink<W: EndWrite + Send> {
    writer: W,
    buf: String,
    /// Events and span boundaries written so far.
    records: u64,
    began: bool,
    key_type: Option<String>,
    /// The first write error.
    error: Option<io::Error>,
}

impl<W: EndWrite + Send> StreamingSink<W> {
    /// Wraps a writer. Callers streaming to disk should hand in a
    /// buffered writer (or use [`StreamingSink::create`]).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            buf: String::with_capacity(256),
            records: 0,
            began: false,
            key_type: None,
            error: None,
        }
    }

    /// Records the run's element key type in the file header; must be
    /// called before [`TraceSink::begin`] (the header is streamed out
    /// immediately). Presentation metadata only.
    pub fn set_key_type(&mut self, key_type: impl Into<String>) {
        assert!(
            !self.began,
            "set_key_type after begin: header already written"
        );
        self.key_type = Some(key_type.into());
    }

    /// Flushes and returns the underlying writer, or the first write
    /// error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.take_error().map_or(Ok(()), Err)?;
        self.writer.flush()?;
        Ok(self.writer)
    }

    /// The first error writing the run, if any, taken out of the sink.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Starts the next record: records live one per line, comma-joined.
    fn next_record(&mut self) {
        if self.records > 0 {
            self.buf.push(',');
        }
        self.buf.push('\n');
        self.records += 1;
    }

    fn emit(&mut self) {
        if self.error.is_none() {
            self.error = self.writer.write_all(self.buf.as_bytes()).err();
        }
        self.buf.clear();
    }
}

impl StreamingSink<Box<dyn EndWrite + Send>> {
    /// Streams to a freshly created file at `path`. A path ending in
    /// `.gz` is gzip-compressed on the fly, its member ended by `finish`;
    /// replay sniffs the magic bytes, so compressed and plain run files
    /// are interchangeable.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let gz = path
            .as_ref()
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("gz"));
        let file = BufWriter::new(File::create(path)?);
        let writer: Box<dyn EndWrite + Send> = if gz {
            Box::new(GzEncoder::new(file)?)
        } else {
            Box::new(file)
        };
        Ok(Self::new(writer))
    }
}

impl<W: EndWrite + Send> TraceSink for StreamingSink<W> {
    fn begin(&mut self, dim: usize, cost: &CostModel, link_model: LinkModel) {
        assert!(!self.began, "TraceSink reused across runs");
        self.began = true;
        render_header(&mut self.buf, dim, cost, link_model, &self.key_type);
        self.emit();
    }

    fn event(&mut self, event: &TraceEvent) {
        self.next_record();
        write_trace_event(&mut self.buf, event);
        self.emit();
    }

    fn span(&mut self, node: NodeId, phase: Option<u16>, time: f64) {
        self.next_record();
        render_span(&mut self.buf, node, phase, time);
        self.emit();
    }

    fn finish(&mut self, nodes: &[NodeSummary]) {
        assert!(self.began, "TraceSink finished before begin");
        render_footer(&mut self.buf, nodes);
        self.emit();
        if self.error.is_none() {
            self.error = self.writer.end().err();
        }
        metrics::fold(|t| t.sink_events += self.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Tag, TraceKind};
    use std::io::Read;

    fn sample_stream(sink: &mut dyn TraceSink) {
        sink.begin(2, &CostModel::default(), LinkModel::Contended);
        sink.span(NodeId::new(0), Some(1), 0.0);
        sink.event(&TraceEvent {
            time: 1.5,
            node: NodeId::new(0),
            tag: Tag::new(u64::MAX),
            kind: TraceKind::Send {
                to: NodeId::new(1),
                elements: 4,
                hops: 1,
            },
        });
        sink.event(&TraceEvent {
            time: 2.5,
            node: NodeId::new(1),
            tag: Tag::new(u64::MAX),
            kind: TraceKind::Recv {
                from: NodeId::new(0),
                elements: 4,
                wait: 0.75,
            },
        });
        sink.span(NodeId::new(0), None, 3.0);
        sink.finish(&[
            NodeSummary {
                node: NodeId::new(0),
                clock: 3.0,
                blocked_us: 0.0,
                inbox_peak: 0,
            },
            NodeSummary {
                node: NodeId::new(1),
                clock: 2.5,
                blocked_us: 1.0,
                inbox_peak: 1,
            },
        ]);
    }

    #[test]
    fn empty_run_serializes_cleanly() {
        let mut sink = StreamingSink::new(Vec::new());
        sink.begin(0, &CostModel::paper_form(), LinkModel::Uncontended);
        sink.finish(&[]);
        let json = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let doc = super::super::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            doc.get("link_model").and_then(|v| v.as_str()),
            Some("uncontended")
        );
        assert_eq!(
            doc.get("events").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(0)
        );
    }

    /// A device with room for `room` more bytes.
    struct Device {
        room: usize,
    }

    impl Write for Device {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.room = self
                .room
                .checked_sub(buf.len())
                .ok_or(io::ErrorKind::StorageFull)?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl EndWrite for Device {}

    #[test]
    fn write_errors_are_kept_for_the_owner() {
        // a plain file: the header does not fit, and nothing panics after
        let mut sink = StreamingSink::new(Device { room: 10 });
        sample_stream(&mut sink);
        let err = sink.take_error().expect("the header did not fit");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // a gzip member whose last byte does not fit: `finish` writes the
        // trailer, so its error reaches the sink, not the encoder's `Drop`
        let mut whole = StreamingSink::new(GzEncoder::new(Vec::new()).unwrap());
        sample_stream(&mut whole);
        let len = whole.into_inner().unwrap().finish().unwrap().len();
        for (room, fits) in [(len, true), (len - 1, false)] {
            let mut sink = StreamingSink::new(GzEncoder::new(Device { room }).unwrap());
            sample_stream(&mut sink);
            assert_eq!(
                sink.take_error().is_none(),
                fits,
                "room for {room} of {len} bytes"
            );
        }
    }

    #[test]
    fn gz_run_files_decompress_to_the_plain_bytes() {
        let dir = std::env::temp_dir().join(format!("sink_gz_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.json.gz");
        {
            let mut sink = StreamingSink::create(&path).expect("create");
            sample_stream(&mut sink);
        }
        let mut plain = StreamingSink::new(Vec::new());
        sample_stream(&mut plain);
        let expect = plain.into_inner().unwrap();
        let text = std::str::from_utf8(&expect).expect("UTF-8");
        super::super::json::Json::parse(text).expect("one well-formed JSON document");
        let packed = std::fs::read(&path).expect("read");
        assert!(super::super::gz::is_gzip(&packed));
        assert!(packed.len() < expect.len());
        let mut inflated = Vec::new();
        super::super::gz::GzDecoder::new(&packed[..])
            .read_to_end(&mut inflated)
            .expect("inflates");
        assert_eq!(inflated, expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}
