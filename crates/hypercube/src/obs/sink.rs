//! Streaming trace sinks: incremental capture of a run's record stream.
//!
//! The buffered observability pipeline holds every trace event in memory
//! until the run completes, which caps tracing at small cubes and
//! moderate message counts. A [`TraceSink`] instead receives the run's
//! records *as the engines emit them*: a header with the geometry and
//! cost model, the trace events (send/recv/compute), span boundaries,
//! and a per-node footer carrying the final clock and blocked time (so a
//! reader need not re-derive them from the events) and the one quantity
//! no event stream can reconstruct: the receive-queue high-water mark
//! (enqueue-time state). Two implementations ship:
//!
//! * [`BufferedSink`] accumulates records in memory and serializes on
//!   demand — the pre-existing buffered behavior, now behind the trait;
//! * [`StreamingSink`] serializes each record straight into any
//!   `io::Write` (a buffered file via [`StreamingSink::create`]), so
//!   heap usage stays O(1) in the trace length.
//!
//! Both funnel through the same record serializer, so for one record
//! stream their outputs are byte-identical — the equivalence pinned by
//! `tests/obs_invariants.rs`. The run file is a single JSON document
//! (schema in DESIGN.md §6) parsed back by [`super::replay`]. Records
//! appear in emission order, which the round barrier fixes: (round,
//! node id, program order) — so both engines write the same bytes, and
//! each node's own records stay in program order, which is all replay
//! needs.

use super::gz::GzEncoder;
use super::json::{json_object, write_member, write_trace_event, JsonValue};
use super::metrics::{self, Counter};
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

/// Separator before a record: records live one per line, comma-joined.
fn render_separator(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
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

enum Record {
    Event(TraceEvent),
    Span {
        node: NodeId,
        phase: Option<u16>,
        time: f64,
    },
}

/// In-memory sink: keeps the record stream and serializes it whole on
/// [`BufferedSink::to_json`]. Memory grows with the trace — use
/// [`StreamingSink`] for large runs.
#[derive(Default)]
pub struct BufferedSink {
    header: Option<(usize, CostModel, LinkModel)>,
    key_type: Option<String>,
    records: Vec<Record>,
    nodes: Vec<NodeSummary>,
    finished: bool,
    events_metric: Option<Counter>,
}

impl BufferedSink {
    /// An empty sink, ready to capture one run. Resolves the
    /// `ftsort_sink_events_total` counter if the process-global metrics
    /// registry is installed.
    pub fn new() -> Self {
        BufferedSink {
            events_metric: metrics::global().map(|g| g.run.sink.events.clone()),
            ..Self::default()
        }
    }

    /// Records the run's element key type in the file header (e.g.
    /// `"pair"`), so offline replay can reproduce a keyed
    /// [`RunReport`](super::RunReport) byte-for-byte. Call before
    /// [`TraceSink::begin`]; presentation metadata only — the simulation
    /// never reads it.
    pub fn set_key_type(&mut self, key_type: impl Into<String>) {
        self.key_type = Some(key_type.into());
    }

    /// Serializes the captured run; byte-identical to what a
    /// [`StreamingSink`] fed the same record stream writes out.
    pub fn to_json(&self) -> String {
        let (dim, cost, link_model) = self.header.expect("BufferedSink::to_json before begin");
        let mut out = String::with_capacity(96 * self.records.len() + 256);
        render_header(&mut out, dim, &cost, link_model, &self.key_type);
        let mut first = true;
        for rec in &self.records {
            render_separator(&mut out, &mut first);
            match rec {
                Record::Event(e) => write_trace_event(&mut out, e),
                Record::Span { node, phase, time } => render_span(&mut out, *node, *phase, *time),
            }
        }
        render_footer(&mut out, &self.nodes);
        out
    }
}

impl TraceSink for BufferedSink {
    fn begin(&mut self, dim: usize, cost: &CostModel, link_model: LinkModel) {
        assert!(self.header.is_none(), "TraceSink reused across runs");
        self.header = Some((dim, *cost, link_model));
    }

    fn event(&mut self, event: &TraceEvent) {
        if let Some(c) = &self.events_metric {
            c.inc();
        }
        self.records.push(Record::Event(*event));
    }

    fn span(&mut self, node: NodeId, phase: Option<u16>, time: f64) {
        if let Some(c) = &self.events_metric {
            c.inc();
        }
        self.records.push(Record::Span { node, phase, time });
    }

    fn finish(&mut self, nodes: &[NodeSummary]) {
        assert!(!self.finished, "TraceSink finished twice");
        self.finished = true;
        self.nodes = nodes.to_vec();
    }
}

/// Incremental sink: each record is serialized and handed to the writer
/// immediately, so memory stays O(1) in the trace length. I/O errors
/// panic (engines have no error channel mid-run); the writer is flushed
/// on `finish`.
pub struct StreamingSink<W: Write + Send> {
    writer: W,
    buf: String,
    first: bool,
    began: bool,
    key_type: Option<String>,
    events_metric: Option<Counter>,
}

impl<W: Write + Send> StreamingSink<W> {
    /// Wraps a writer. Callers streaming to disk should hand in a
    /// buffered writer (or use [`StreamingSink::create`]). Resolves the
    /// `ftsort_sink_events_total` counter if the process-global metrics
    /// registry is installed.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            buf: String::with_capacity(256),
            first: true,
            began: false,
            key_type: None,
            events_metric: metrics::global().map(|g| g.run.sink.events.clone()),
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

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn emit(&mut self) {
        self.writer
            .write_all(self.buf.as_bytes())
            .expect("trace sink write failed");
        self.buf.clear();
    }
}

impl StreamingSink<Box<dyn Write + Send>> {
    /// Streams to a freshly created file at `path`. A path ending in
    /// `.gz` is gzip-compressed on the fly (the [`super::gz`] encoder
    /// finalizes its stream when the sink is dropped); replay sniffs the
    /// magic bytes, so compressed and plain run files are interchangeable.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let gz = path
            .as_ref()
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("gz"));
        let file = BufWriter::new(File::create(path)?);
        let writer: Box<dyn Write + Send> = if gz {
            Box::new(GzEncoder::new(file)?)
        } else {
            Box::new(file)
        };
        Ok(Self::new(writer))
    }
}

impl<W: Write + Send> TraceSink for StreamingSink<W> {
    fn begin(&mut self, dim: usize, cost: &CostModel, link_model: LinkModel) {
        assert!(!self.began, "TraceSink reused across runs");
        self.began = true;
        render_header(&mut self.buf, dim, cost, link_model, &self.key_type);
        self.emit();
    }

    fn event(&mut self, event: &TraceEvent) {
        if let Some(c) = &self.events_metric {
            c.inc();
        }
        render_separator(&mut self.buf, &mut self.first);
        write_trace_event(&mut self.buf, event);
        self.emit();
    }

    fn span(&mut self, node: NodeId, phase: Option<u16>, time: f64) {
        if let Some(c) = &self.events_metric {
            c.inc();
        }
        render_separator(&mut self.buf, &mut self.first);
        render_span(&mut self.buf, node, phase, time);
        self.emit();
    }

    fn finish(&mut self, nodes: &[NodeSummary]) {
        assert!(self.began, "TraceSink finished before begin");
        render_footer(&mut self.buf, nodes);
        self.emit();
        self.writer.flush().expect("trace sink flush failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Tag, TraceKind};

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
    fn buffered_and_streaming_agree_bytewise() {
        let mut buffered = BufferedSink::new();
        sample_stream(&mut buffered);
        let mut streaming = StreamingSink::new(Vec::new());
        sample_stream(&mut streaming);
        let streamed = String::from_utf8(streaming.into_inner().unwrap()).unwrap();
        assert_eq!(buffered.to_json(), streamed);
        // and the result is one well-formed JSON document
        super::super::json::Json::parse(&streamed).expect("valid JSON");
    }

    #[test]
    fn empty_run_serializes_cleanly() {
        let mut sink = BufferedSink::new();
        sink.begin(0, &CostModel::paper_form(), LinkModel::Uncontended);
        sink.finish(&[]);
        let doc = super::super::json::Json::parse(&sink.to_json()).expect("valid JSON");
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
        let packed = std::fs::read(&path).expect("read");
        assert!(super::super::gz::is_gzip(&packed));
        assert!(packed.len() < expect.len());
        assert_eq!(super::super::gz::gunzip(&packed).expect("gunzip"), expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}
