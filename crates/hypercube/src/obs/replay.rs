//! Trace-driven replay: rebuild a [`RunObservation`] from a saved run
//! file, so the report, Perfetto export and critical-path analyzers run
//! offline on files instead of live engine state.
//!
//! Replay feeds the file's records through the *same* accumulation code
//! the engines use — [`RunStats::record_message`] /
//! [`RunStats::record_comparisons`] for counters, [`NodeMetrics::on_send`]
//! for link attribution, [`SpanLog`] for spans, and
//! [`Trace::from_events`] for the global event order — so a replayed
//! observation is equal to the live one field for field (float bits
//! included), and every downstream analyzer is byte-identical on live
//! and replayed inputs.
//!
//! A schema-v3 file records the schedule, not the clocks (see
//! [`super::sink`]), and the reader recomputes every time in its
//! file-order pass with the engines' own arithmetic, one clock per
//! participant:
//!
//! * a send advances its node by `transfer(elements, min(hops, 1))` and
//!   leaves at the new clock; its arrival is `sent_at + transfer(elements,
//!   hops)`, or under [`LinkModel::Contended`] what the link ledger gives
//!   it there — the file is in commit order, so the ledger prices the
//!   sends in the order the engine's barrier did;
//! * a receive takes its message FIFO per `(src, dst, tag)` and jumps to
//!   its arrival; the jump adds to the blocked time and the message's wait
//!   to the link wait, as in `NodeCtx::recv`;
//! * a compute advances its node by `compare(comparisons)`;
//! * a span boundary takes the clock at its position, and the final clock
//!   is the clock after the node's last record.
//!
//! Only the receive-queue peak, which no record implies, comes from the
//! footer. The pending-message table holds only the messages in flight,
//! and the contended ledger only the links the sends cross. Version 1 and
//! 2 files carry each event's time and a receive's wait in its record, and
//! the final clock and blocked time in the footer; they are read as
//! written.
//!
//! Reading is one streaming pass (see [`observation_from_json`]): the file
//! is inflated and tokenized as it is read, through buffers of tens of
//! KiB, and each record is decoded straight into the trace's event list.
//! Replay holds neither the file nor its text, only the decoded events
//! (and the stable sort's scratch while it orders them).

use super::gz::{is_gzip, GzDecoder};
use super::json::{json_object, read_member, EventFields, Json, Positional, Token, Tokenizer};
use super::schedule::{commit_order, LinkLedger, Record};
use super::sink::{EndWrite, NodeSummary, StreamingSink, TraceSink, COMPUTE, ENTER, RECV, SEND};
use super::{NodeMetrics, NodeObservation, RunObservation, SpanLog};
use crate::address::{NodeId, MAX_RUN_DIM};
use crate::cost::CostModel;
use crate::sim::{LinkModel, Tag, Trace, TraceEvent, TraceKind};
use crate::stats::RunStats;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader};

/// Streams `obs` into `sink` as a run file (see [`run_to_json`]).
fn write_run<W: EndWrite + Send>(obs: &RunObservation, sink: &mut StreamingSink<W>) {
    if let Some(kt) = &obs.key_type {
        sink.set_key_type(kt.clone());
    }
    sink.begin(obs.dim, &obs.cost, obs.link_model);
    for record in commit_order(obs) {
        match record {
            Record::Event(e) => sink.event(e),
            Record::Span(node, phase) => sink.span(node, phase),
        }
    }
    let summaries: Vec<NodeSummary> = obs.nodes.iter().map(NodeSummary::of).collect();
    sink.finish(&summaries);
}

/// Serializes a buffered [`RunObservation`] into the run-file schema: the
/// document a live [`StreamingSink`] writes for the run. The records go in
/// commit order, which the round planner of [`super::schedule`]
/// re-derives from each node's program order and the message matching,
/// each node's span boundaries at their program-order positions
/// ([`NodeObservation::span_at`]); spans without positions follow the
/// node's events. The observation must carry a trace (tracing enabled)
/// for the file to replay with full counters and clocks.
pub fn run_to_json(obs: &RunObservation) -> String {
    let mut sink = StreamingSink::new(Vec::new());
    write_run(obs, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the sink renders UTF-8")
}

/// Writes `obs` as a run file at `path` — gzip-compressed when the path
/// ends in `.gz`, plain otherwise — holding none of it in memory: the
/// records of [`run_to_json`] stream through [`StreamingSink::create`],
/// the writer `sort --run-out` uses, and the first write error, the gzip
/// trailer's included, is returned once the file is ended. The write-side
/// counterpart of [`observation_from_file`].
pub fn write_run_file(obs: &RunObservation, path: &str) -> io::Result<()> {
    let mut sink = StreamingSink::create(path)?;
    write_run(obs, &mut sink);
    sink.take_error().map_or(Ok(()), Err)
}

/// Reads a run file from disk — gzip-compressed (written by
/// `sort --run-out foo.jsonl.gz`) or plain text, sniffed by magic bytes —
/// as it is decoded, holding neither the file nor its text; see
/// [`observation_from_json`].
pub fn observation_from_file(path: &str) -> Result<RunObservation, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let head = reader
        .fill_buf()
        .map_err(|e| format!("reading {path}: {e}"))?;
    let read = if is_gzip(head) {
        read_observation(Tokenizer::from_reader(&mut GzDecoder::new(reader)))
    } else {
        read_observation(Tokenizer::from_reader(&mut reader))
    };
    read.map_err(|e| format!("{path}: {e}"))
}

/// A footer entry of a version 1 or 2 file, which also recorded the
/// node's final clock and blocked time.
struct RecordedSummary {
    node: NodeId,
    clock: f64,
    blocked_us: f64,
    inbox_peak: u64,
}

json_object!(RecordedSummary {
    node,
    clock,
    blocked_us,
    inbox_peak,
});

/// A span boundary read from the `events` array: the record's position
/// there, its node and time (`NaN` in a v3 file until the timing pass),
/// and the phase it enters (`None`: an exit).
struct Bound {
    at: usize,
    node: usize,
    phase: Option<u16>,
    t: f64,
}

/// The first `events` entry that failed to decode: its index, its node
/// when that much decoded, and the error.
type BadRecord = (usize, Option<usize>, String);

/// Run-wide sums of the [`RunStats`] counters the records add to, kept
/// with checked arithmetic. Every per-node counter, per-dimension link
/// count and report total is a partial sum of one of these, so once they
/// fit in a `u64` no accumulation downstream can overflow.
#[derive(Default)]
struct Totals {
    elements: u64,
    element_hops: u64,
    message_hops: u64,
    comparisons: u64,
}

impl Totals {
    fn send(&mut self, elements: usize, hops: u32) -> Option<()> {
        let elements = elements as u64;
        self.elements = self.elements.checked_add(elements)?;
        let element_hops = elements.checked_mul(u64::from(hops))?;
        self.element_hops = self.element_hops.checked_add(element_hops)?;
        self.message_hops = self.message_hops.checked_add(u64::from(hops))?;
        Some(())
    }

    fn compute(&mut self, comparisons: usize) -> Option<()> {
        self.comparisons = self.comparisons.checked_add(comparisons as u64)?;
        Some(())
    }
}

/// The `events` entries before the first bad one, decoded but not yet
/// attributed (the footer that says which nodes took part comes after the
/// events in the file): the trace events in file order, the span
/// boundaries beside them, and the bad entry. Version 3 records are
/// arrays and older ones objects; the first decoded record of each shape
/// is kept, so a record of the wrong shape for the header's version is an
/// error wherever the header stands.
#[derive(Default)]
struct Records {
    events: Vec<TraceEvent>,
    bounds: Vec<Bound>,
    bad: Option<BadRecord>,
    first_array: Option<usize>,
    first_object: Option<usize>,
}

/// The fields of each v3 record kind, by kind code, and its name.
const KINDS: [(usize, &str); 5] = [
    (6, "send"),
    (5, "recv"),
    (3, "compute"),
    (3, "enter"),
    (2, "exit"),
];

impl Records {
    /// Decodes object entry `i` into the events or the bounds.
    fn push(&mut self, i: usize, f: &EventFields) -> Result<(), (Option<usize>, String)> {
        let node =
            f.node
                .uint()
                .ok_or_else(|| (None, format!("event {i}: missing 'node'")))? as usize;
        let bad = |e: String| (Some(node), e);
        let phase = match f.kind.str() {
            Some("enter") => Some(
                f.phase
                    .uint()
                    .and_then(|p| u16::try_from(p).ok())
                    .ok_or_else(|| bad(format!("event {i}: bad 'phase'")))?,
            ),
            Some("exit") => None,
            _ => {
                self.events.push(f.trace_event(i).map_err(bad)?);
                return Ok(());
            }
        };
        let t =
            f.t.num()
                .ok_or_else(|| bad(format!("event {i}: bad 't'")))?;
        self.bounds.push(Bound {
            at: i,
            node,
            phase,
            t,
        });
        Ok(())
    }

    /// Decodes positional entry `i` into the events or the bounds; event
    /// and boundary times are `NaN` until the timing pass.
    fn push_positional(&mut self, i: usize, r: &Positional) -> Result<(), (Option<usize>, String)> {
        let field = |k: usize, name: &str| {
            r.get(k).map_err(|short| {
                let what = if short { "missing" } else { "bad" };
                format!("event {i}: {what} '{name}'")
            })
        };
        let node = field(0, "node").map_err(|e| (None, e))?;
        let bad = |e: String| (Some(node as usize), e);
        let uint = |k: usize, name: &str| field(k, name).map_err(bad);
        // addresses and hop counts are u32 in memory, phases u16: out of
        // range is an error, not a truncation
        let narrow = |k: usize, name: &str, max: u64| match uint(k, name)? {
            v if v <= max => Ok(v),
            _ => Err(bad(format!("event {i}: bad '{name}'"))),
        };
        let int32 = |k: usize, name: &str| narrow(k, name, u32::MAX.into()).map(|v| v as u32);
        let kind = uint(1, "kind")?;
        let &(width, name) = KINDS
            .get(kind as usize)
            .ok_or_else(|| bad(format!("event {i}: unknown kind {kind}")))?;
        if r.len() != width {
            return Err(bad(format!(
                "event {i}: a {name} record has {width} fields, not {}",
                r.len()
            )));
        }
        let (tag, kind) = match kind {
            SEND => (
                uint(2, "tag")?,
                TraceKind::Send {
                    to: NodeId::new(int32(3, "to")?),
                    elements: uint(4, "elements")? as usize,
                    hops: int32(5, "hops")?,
                },
            ),
            RECV => (
                uint(2, "tag")?,
                TraceKind::Recv {
                    from: NodeId::new(int32(3, "from")?),
                    elements: uint(4, "elements")? as usize,
                    wait: 0.0,
                },
            ),
            COMPUTE => (
                0,
                TraceKind::Compute {
                    comparisons: uint(2, "comparisons")? as usize,
                },
            ),
            _ => {
                let phase = match kind {
                    ENTER => Some(narrow(2, "phase", u16::MAX.into())? as u16),
                    _ => None,
                };
                self.bounds.push(Bound {
                    at: i,
                    node: node as usize,
                    phase,
                    t: f64::NAN,
                });
                return Ok(());
            }
        };
        self.events.push(TraceEvent {
            time: f64::NAN,
            node: NodeId::new(int32(0, "node")?),
            tag: Tag::new(tag),
            kind,
        });
        Ok(())
    }
}

/// Reads the `events` array whose `[` the tokenizer just returned. Entries
/// after the first bad one are still checked for syntax, not decoded.
fn read_events(tok: &mut Tokenizer<'_>) -> Result<Records, String> {
    let mut records = Records::default();
    let mut fields = EventFields::default();
    let mut positional = Positional::default();
    for i in 0.. {
        let array = match tok.expect_token()? {
            Token::EndArray => break,
            Token::BeginArray => {
                positional.read(tok)?;
                true
            }
            Token::BeginObject => {
                fields.read(tok)?;
                false
            }
            other => {
                // not a record: no members, so it fails on 'node'
                tok.skip(other)?;
                fields.clear();
                false
            }
        };
        if records.bad.is_none() {
            let (pushed, first) = match array {
                true => (
                    records.push_positional(i, &positional),
                    &mut records.first_array,
                ),
                false => (records.push(i, &fields), &mut records.first_object),
            };
            match pushed {
                Ok(()) => _ = first.get_or_insert(i),
                Err((node, e)) => records.bad = Some((i, node, e)),
            }
        }
    }
    Ok(records)
}

/// A run file split in one pass: every top-level member except `events`
/// as a [`Json`] value (the header and the footer, both small), and the
/// first `events` array, if it is one, decoded into records.
fn read_run_file(mut tok: Tokenizer<'_>) -> Result<(Json, Option<Records>), String> {
    let first = tok.expect_token()?;
    if first != Token::BeginObject {
        let doc = Json::build(&mut tok, first)?;
        tok.finish()?;
        return Ok((doc, None));
    }
    let mut members = Vec::new();
    let mut events = None;
    let mut seen_events = false;
    // anything but a key here is the closing `}`
    while let Token::Key = tok.expect_token()? {
        let key = tok.text().to_string();
        let value = tok.expect_token()?;
        if key == "events" {
            // like Json::get, the first member of a name wins
            if seen_events {
                tok.skip(value)?;
                continue;
            }
            seen_events = true;
            if value == Token::BeginArray {
                events = Some(read_events(&mut tok)?);
                continue;
            }
        }
        members.push((key, Json::build(&mut tok, value)?));
    }
    tok.finish()?;
    Ok((Json::Obj(members), events))
}

/// A message sent and not yet received: its arrival and link wait.
type Message = (f64, f64);

/// The messages in flight while a v3 file is read, FIFO per `(src, dst,
/// tag)` as a node's inbox delivers them. A key leaves the table with its
/// last message, so the table holds only messages sent and not yet
/// received.
#[derive(Default)]
struct InFlight(HashMap<(NodeId, NodeId, Tag), VecDeque<Message>>);

impl InFlight {
    fn send(&mut self, key: (NodeId, NodeId, Tag), message: Message) {
        self.0.entry(key).or_default().push_back(message);
    }

    /// The oldest message in flight on `key`, if any.
    fn receive(&mut self, key: (NodeId, NodeId, Tag)) -> Option<Message> {
        let queue = self.0.get_mut(&key)?;
        let message = queue.pop_front();
        if queue.is_empty() {
            self.0.remove(&key);
        }
        message
    }
}

/// Parses a run file (schema version 1, 2 or 3, the last written by the
/// sinks in [`super::sink`]) back into a full [`RunObservation`]. A
/// version 3 file records the schedule, and the reader recomputes every
/// time from it (see the module docs). Version 1 files predate link
/// models: they parse with `wait = 0` on every receive and
/// [`LinkModel::Uncontended`] — exactly the semantics they were recorded
/// under, so v1 replays stay byte-identical. Version 2 and 3 files carry
/// the link model in the header, plus an optional `key_type` (stamped by
/// CLIs that know the element type; absent from library-written files)
/// that flows back into [`RunObservation::report`]. Errors name the
/// offending record.
///
/// The reader makes one pass over the text without building a tree of the
/// events: the JSON tokenizer of [`super::json`] decodes each record
/// straight into the trace's event list (span boundaries go to a side
/// list that keeps their file positions), and the records are attributed
/// to nodes, and timed, once the footer (which follows them) is known —
/// both lists walked together in file order, through the same
/// accumulation code and with the same errors as a record-by-record walk.
/// The events are then sorted in place into the [`Trace`]. Members may
/// come in any order, unknown members are ignored, and nesting deeper
/// than [`MAX_DEPTH`](super::json::MAX_DEPTH) is an error.
///
/// Records are also checked against what an engine can write: send and
/// receive addresses lie inside the header's cube, a send crosses at most
/// `2·(2^dim − 1)` links (the adaptive router's depth-first walk, which
/// visits every node at most once and backtracks at most once per node,
/// is the longest route any engine charges), and no counter sum overflows
/// a `u64`. A receive with no earlier matching send, which only a
/// truncated or hand-edited file holds, leaves its node's clock where it
/// is.
pub fn observation_from_json(text: &str) -> Result<RunObservation, String> {
    read_observation(Tokenizer::from_reader(&mut text.as_bytes()))
}

/// [`observation_from_json`] over any tokenizer.
fn read_observation(tok: Tokenizer<'_>) -> Result<RunObservation, String> {
    let (doc, records) = read_run_file(tok)?;
    let version: u64 = read_member(&doc, "version")?;
    if !(1..=3).contains(&version) {
        return Err(format!("unsupported run-file version {version}"));
    }
    let link_model = match version {
        1 => LinkModel::Uncontended,
        _ => read_member(&doc, "link_model")?,
    };
    let key_type: Option<String> = read_member(&doc, "key_type")?;
    let dim: usize = read_member(&doc, "dim")?;
    if dim > MAX_RUN_DIM {
        return Err(format!("implausible dimension {dim}"));
    }
    let cost: CostModel = read_member(&doc, "cost")?;
    // Each entry with the final clock and blocked time an older footer
    // records; a v3 reader recomputes both.
    let footer: Vec<(NodeSummary, Option<(f64, f64)>)> = if version == 3 {
        let footer: Vec<NodeSummary> = read_member(&doc, "nodes")?;
        footer.into_iter().map(|s| (s, None)).collect()
    } else {
        let footer: Vec<RecordedSummary> = read_member(&doc, "nodes")?;
        footer
            .into_iter()
            .map(|s| {
                let summary = NodeSummary {
                    node: s.node,
                    inbox_peak: s.inbox_peak,
                };
                (summary, Some((s.clock, s.blocked_us)))
            })
            .collect()
    };

    // Footer first: it names the participants every event must belong to.
    // Their accumulators are kept in address order, one per footer entry.
    let len = 1usize << dim;
    let mut order: Vec<usize> = (0..footer.len()).collect();
    order.sort_by_key(|&i| footer[i].0.node);
    // The first entry in file order that lies outside the cube or repeats
    // an earlier one's address (the stable sort keeps repeats in file order).
    let first_bad = order
        .windows(2)
        .filter(|w| footer[w[0]].0.node == footer[w[1]].0.node)
        .map(|w| w[1])
        .chain(footer.iter().position(|s| s.0.node.index() >= len))
        .min();
    if let Some(i) = first_bad {
        let idx = footer[i].0.node.index();
        return Err(if idx >= len {
            format!("node record {i}: address {idx} outside the {dim}-cube")
        } else {
            format!("node record {i}: duplicate address {idx}")
        });
    }
    struct Acc {
        summary: NodeSummary,
        /// An older footer's final clock and blocked time.
        recorded: Option<(f64, f64)>,
        /// The clock a v3 file's records advance.
        clock: f64,
        stats: RunStats,
        metrics: NodeMetrics,
        spans: SpanLog,
    }
    let mut accs: Vec<Acc> = order
        .into_iter()
        .map(|i| Acc {
            summary: footer[i].0,
            recorded: footer[i].1,
            clock: 0.0,
            stats: RunStats::new(),
            metrics: NodeMetrics::new(dim),
            spans: SpanLog::new(true),
        })
        .collect();
    let find = |accs: &[Acc], node: usize| {
        accs.binary_search_by_key(&node, |a| a.summary.node.index())
            .ok()
    };

    // Records, in file order — which preserves each node's emission order,
    // the invariant the span stack and the stable trace sort rely on: the
    // bounds interleave with the events at their positions. One node's
    // records mostly arrive together, so the last hit is tried first.
    let Records {
        mut events,
        bounds,
        bad,
        first_array,
        first_object,
    } = records.ok_or("missing 'events'")?;
    let misshapen = match version {
        3 => first_object.map(|i| (i, "an object")),
        _ => first_array.map(|i| (i, "an array")),
    };
    if let Some((i, shape)) = misshapen {
        return Err(format!(
            "event {i}: {shape}, not a version {version} record"
        ));
    }
    let timed = version == 3;
    let not_in_footer = |i: usize, node: usize| format!("event {i}: node {node} not in the footer");
    let outside = |i: usize, k: &str, p: NodeId| {
        format!("event {i}: '{k}' address {p} outside the {dim}-cube")
    };
    let max_hops = 2 * (len as u64 - 1);
    let mut totals = Totals::default();
    let mut in_flight = InFlight::default();
    let mut ledger = LinkLedger::sparse(dim);
    let entries = events.len() + bounds.len();
    let mut bounds = bounds.iter().peekable();
    let mut next_event = events.iter_mut();
    let mut hit = 0;
    let mut slot = |accs: &[Acc], i: usize, node: usize| {
        if accs.get(hit).is_none_or(|a| a.summary.node.index() != node) {
            hit = find(accs, node).ok_or_else(|| not_in_footer(i, node))?;
        }
        Ok::<_, String>(hit)
    };
    for i in 0..entries {
        if let Some(b) = bounds.next_if(|b| b.at == i) {
            let at = slot(&accs, i, b.node)?;
            let acc = &mut accs[at];
            let t = if timed { acc.clock } else { b.t };
            match b.phase {
                Some(phase) => acc.spans.enter(phase, t),
                None => acc.spans.exit(t),
            }
            continue;
        }
        let ev = next_event
            .next()
            .expect("every entry before the bad one decoded");
        let at = slot(&accs, i, ev.node.index())?;
        let acc = &mut accs[at];
        let overflow = || format!("event {i}: counters overflow a u64");
        acc.spans.event();
        match ev.kind {
            TraceKind::Send { to, elements, hops } => {
                if to.index() >= len {
                    return Err(outside(i, "to", to));
                }
                if u64::from(hops) > max_hops {
                    return Err(format!(
                        "event {i}: {hops} hops, longer than any route in the {dim}-cube"
                    ));
                }
                totals.send(elements, hops).ok_or_else(overflow)?;
                acc.stats.record_message(elements, hops);
                acc.metrics.on_send(ev.node, to, elements, hops, &cost);
                if timed {
                    // the sender's port pushes the elements onto its first
                    // link, and the message leaves at the new clock
                    acc.clock += cost.transfer(elements, hops.min(1));
                    ev.time = acc.clock;
                    let message = match link_model {
                        LinkModel::Contended => {
                            ledger.acquire(ev.node, to, elements, hops, ev.time, &cost)
                        }
                        LinkModel::Uncontended => (ev.time + cost.transfer(elements, hops), 0.0),
                    };
                    in_flight.send((ev.node, to, ev.tag), message);
                }
            }
            TraceKind::Recv {
                from, ref mut wait, ..
            } => {
                if from.index() >= len {
                    return Err(outside(i, "from", from));
                }
                if timed {
                    let before = acc.clock;
                    if let Some((arrival, message_wait)) =
                        in_flight.receive((from, ev.node, ev.tag))
                    {
                        acc.clock = acc.clock.max(arrival);
                        *wait = message_wait;
                    }
                    acc.metrics.blocked_us += acc.clock - before;
                    ev.time = acc.clock;
                }
                acc.metrics.msgs_received += 1;
                acc.metrics.link_wait_us += *wait;
            }
            TraceKind::Compute { comparisons } => {
                totals.compute(comparisons).ok_or_else(overflow)?;
                acc.stats.record_comparisons(comparisons);
                if timed {
                    acc.clock += cost.compare(comparisons);
                    ev.time = acc.clock;
                }
            }
        }
    }
    if let Some((i, node, err)) = bad {
        if let Some(node) = node.filter(|&n| find(&accs, n).is_none()) {
            return Err(not_in_footer(i, node));
        }
        return Err(err);
    }

    let nodes = accs
        .into_iter()
        .map(|acc| {
            let mut metrics = acc.metrics;
            let clock = match acc.recorded {
                Some((clock, blocked_us)) => {
                    metrics.blocked_us = blocked_us;
                    clock
                }
                None => acc.clock,
            };
            metrics.inbox_peak = acc.summary.inbox_peak;
            let (spans, span_at) = acc.spans.finish(clock);
            NodeObservation {
                node: acc.summary.node,
                clock,
                stats: acc.stats,
                spans,
                span_at,
                metrics,
            }
        })
        .collect();

    Ok(RunObservation {
        dim,
        cost,
        link_model,
        trace: Trace::from_events(events),
        nodes,
        key_type,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_run_files() {
        for (text, needle) in [
            ("{}", "version"),
            ("{\"version\":4}", "version 4"),
            ("{\"version\":2,\"dim\":1}", "link_model"),
            ("{\"version\":3,\"dim\":1}", "link_model"),
            (
                "{\"version\":2,\"dim\":1,\"link_model\":\"congested\"}",
                "link_model",
            ),
            (
                "{\"version\":1,\"dim\":1,\"cost\":{\"t_sr\":1,\"t_c\":1,\"t_startup\":0},\"events\":[],\"nodes\":[{\"node\":5,\"clock\":0,\"blocked_us\":0,\"inbox_peak\":0}]}",
                "outside",
            ),
            (
                "{\"version\":1,\"dim\":1,\"cost\":{\"t_sr\":1,\"t_c\":1,\"t_startup\":0},\"events\":[{\"t\":0,\"node\":0,\"kind\":\"exit\"}],\"nodes\":[]}",
                "not in the footer",
            ),
            (
                "{\"version\":1,\"dim\":1,\"cost\":{\"t_sr\":1,\"t_c\":1,\"t_startup\":0},\"events\":[{\"t\":\"x\",\"node\":1,\"kind\":\"exit\"}],\"nodes\":[]}",
                "event 0: node 1 not in the footer",
            ),
            (
                "{\"nodes\":[{\"node\":0,\"clock\":0,\"blocked_us\":0,\"inbox_peak\":0}],\"events\":[{\"kind\":\"exit\",\"node\":0,\"t\":0},[]],\"cost\":{\"t_sr\":1,\"t_c\":1,\"t_startup\":0},\"dim\":1,\"version\":1}",
                "event 1: missing 'node'",
            ),
        ] {
            let err = observation_from_json(text).expect_err(text);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        for (events, needle) in [
            ("[0,5]", "event 0: unknown kind 5"),
            ("[0,0,7,1,4]", "event 0: a send record has 6 fields, not 5"),
            ("[0,2,3,4]", "event 0: a compute record has 3 fields, not 4"),
            ("[0,0,7,1,-4,1]", "event 0: bad 'elements'"),
            ("[0,3,70000]", "event 0: bad 'phase'"),
            (
                "[0,0,7,2,4,1]",
                "event 0: 'to' address 2 outside the 1-cube",
            ),
            ("[0,4],[1,4]", "event 1: node 1 not in the footer"),
        ] {
            let text = v3(&format!("[{events}]"), "[{\"node\":0,\"inbox_peak\":0}]");
            let err = observation_from_json(&text).expect_err(&text);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// A version 3 run file of a 1-cube with `t_sr` 1, `t_c` 1 and no
    /// startup, uncontended.
    fn v3(events: &str, nodes: &str) -> String {
        format!(
            "{{\"version\":3,\"dim\":1,\"cost\":{{\"t_sr\":1,\"t_c\":1,\"t_startup\":0}},\"link_model\":\"uncontended\",\"events\":{events},\"nodes\":{nodes}}}"
        )
    }

    #[test]
    fn v3_times_follow_from_the_schedule() {
        // node 0 sorts (3 µs) and sends 4 elements (4 µs on its port, 4
        // on the link); node 1 receives them at 11 µs, then a receive with
        // no earlier send leaves its clock there, then it computes 2 µs
        let text = v3(
            "[[0,3,1],[0,2,3],[0,0,7,1,4,1],[0,4],[1,1,7,0,4],[1,1,8,0,1],[1,2,2]]",
            "[{\"node\":0,\"inbox_peak\":0},{\"node\":1,\"inbox_peak\":1}]",
        );
        let obs = observation_from_json(&text).expect("replays");
        let times: Vec<(u32, f64)> = obs
            .trace
            .events()
            .iter()
            .map(|e| (e.node.raw(), e.time))
            .collect();
        assert_eq!(
            times,
            [(0, 3.0), (0, 7.0), (1, 11.0), (1, 11.0), (1, 13.0)],
            "events in time order"
        );
        let (zero, one) = (&obs.nodes[0], &obs.nodes[1]);
        assert_eq!((zero.clock, one.clock), (7.0, 13.0));
        assert_eq!(
            (zero.metrics.blocked_us, one.metrics.blocked_us),
            (0.0, 11.0)
        );
        assert_eq!(one.metrics.msgs_received, 2);
        assert_eq!(one.metrics.inbox_peak, 1);
        assert_eq!(zero.spans.len(), 1);
        assert_eq!((zero.spans[0].begin, zero.spans[0].end), (0.0, 7.0));
    }
}
