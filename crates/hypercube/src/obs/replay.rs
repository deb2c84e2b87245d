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
//! and replayed inputs. The only quantities not recomputed are the ones
//! the event stream cannot express: final clocks, blocked time and inbox
//! peaks, which come from the file's footer.
//!
//! Reading is one streaming pass (see [`observation_from_json`]): the file
//! is inflated and tokenized as it is read, through buffers of tens of
//! KiB, and each record is decoded straight into the trace's event list.
//! Replay holds neither the file nor its text, only the decoded events
//! (and the stable sort's scratch while it orders them), and costs about
//! what inflating and tokenizing the file costs.

use super::gz::{is_gzip, GzDecoder};
use super::json::{read_member, EventFields, Json, Token, Tokenizer};
use super::sink::{EndWrite, NodeSummary, StreamingSink, TraceSink};
use super::{NodeMetrics, NodeObservation, RunObservation, SpanLog};
use crate::address::{NodeId, MAX_RUN_DIM};
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};
use crate::stats::RunStats;
use std::fs::File;
use std::io::{self, BufRead, BufReader};

/// Streams `obs` into `sink` as a run file (see [`run_to_json`]).
fn write_run<W: EndWrite + Send>(obs: &RunObservation, sink: &mut StreamingSink<W>) {
    if let Some(kt) = &obs.key_type {
        sink.set_key_type(kt.clone());
    }
    sink.begin(obs.dim, &obs.cost, obs.link_model);
    // Per participant, in `obs.nodes` order: its positioned boundaries,
    // last position first, and the records written so far — the position
    // of the next one.
    let mut bounds: Vec<Vec<(usize, Option<u16>, f64)>> = obs
        .nodes
        .iter()
        .map(|n| {
            let mut b: Vec<_> = n
                .spans
                .iter()
                .zip(&n.span_at)
                .flat_map(|(s, &(begin_at, end_at))| {
                    [(begin_at, Some(s.phase), s.begin), (end_at, None, s.end)]
                })
                .collect();
            b.sort_unstable_by_key(|&(at, ..)| std::cmp::Reverse(at));
            b
        })
        .collect();
    let mut written = vec![0usize; obs.nodes.len()];
    for e in obs.trace.events() {
        if let Ok(p) = obs.nodes.binary_search_by_key(&e.node, |n| n.node) {
            while let Some((_, phase, t)) = bounds[p].pop_if(|&mut (at, ..)| at <= written[p]) {
                sink.span(e.node, phase, t);
                written[p] += 1;
            }
            written[p] += 1;
        }
        sink.event(e);
    }
    for (n, b) in obs.nodes.iter().zip(&bounds) {
        for &(_, phase, t) in b.iter().rev() {
            sink.span(n.node, phase, t);
        }
        for s in n.spans.iter().skip(n.span_at.len()) {
            sink.span(n.node, Some(s.phase), s.begin);
            sink.span(n.node, None, s.end);
        }
    }
    let summaries: Vec<NodeSummary> = obs.nodes.iter().map(NodeSummary::of).collect();
    sink.finish(&summaries);
}

/// Serializes a buffered [`RunObservation`] into the run-file schema (the
/// exact document a live [`StreamingSink`] would have written, modulo the
/// interleaving of different nodes' records). Each node's span boundaries
/// go back at their program-order positions ([`NodeObservation::span_at`]),
/// so the file replays to the same spans; spans without positions follow
/// the node's events. The observation must carry a trace (tracing enabled)
/// for the file to replay with full counters.
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

/// A span boundary read from the `events` array: the record's position
/// there, its node and time, and the phase it enters (`None`: an exit).
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
/// boundaries beside them, and the bad entry.
#[derive(Default)]
struct Records {
    events: Vec<TraceEvent>,
    bounds: Vec<Bound>,
    bad: Option<BadRecord>,
}

impl Records {
    /// Decodes entry `i` into the events or the bounds.
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
}

/// Reads the `events` array whose `[` the tokenizer just returned. Entries
/// after the first bad one are still checked for syntax, not decoded.
fn read_events(tok: &mut Tokenizer<'_>) -> Result<Records, String> {
    let mut records = Records::default();
    let mut fields = EventFields::default();
    for i in 0.. {
        match tok.expect_token()? {
            Token::EndArray => break,
            Token::BeginObject => fields.read(tok)?,
            other => {
                // not an object: no members, so it fails on 'node'
                tok.skip(other)?;
                fields.clear();
            }
        }
        if records.bad.is_none() {
            if let Err((node, e)) = records.push(i, &fields) {
                records.bad = Some((i, node, e));
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

/// Parses a run file (schema version 1 or 2, written by the sinks in
/// [`super::sink`]) back into a full [`RunObservation`]. Version 1 files
/// predate link models: they parse with `wait = 0` on every receive and
/// [`LinkModel::Uncontended`] — exactly the semantics they were recorded
/// under, so v1 replays stay byte-identical. Version 2 files carry the
/// link model in the header, plus an optional `key_type` (stamped by
/// CLIs that know the element type; absent from library-written files)
/// that flows back into [`RunObservation::report`]. Errors name the
/// offending record.
///
/// The reader makes one pass over the text without building a tree of the
/// events: the JSON tokenizer of [`super::json`] decodes each record
/// straight into the trace's event list (span boundaries go to a side
/// list that keeps their file positions), and the records are attributed
/// to nodes once the footer (which follows them) is known — both lists
/// walked together in file order, through the same accumulation code and
/// with the same errors as a record-by-record walk. The events are then
/// sorted in place into the [`Trace`]. Members may come in any order,
/// unknown members are ignored, and nesting deeper than
/// [`MAX_DEPTH`](super::json::MAX_DEPTH) is an error.
///
/// Records are also checked against what an engine can write: send and
/// receive addresses lie inside the header's cube, a send crosses at most
/// `2·(2^dim − 1)` links (the adaptive router's depth-first walk, which
/// visits every node at most once and backtracks at most once per node,
/// is the longest route any engine charges), and no counter sum overflows
/// a `u64`.
pub fn observation_from_json(text: &str) -> Result<RunObservation, String> {
    read_observation(Tokenizer::from_reader(&mut text.as_bytes()))
}

/// [`observation_from_json`] over any tokenizer.
fn read_observation(tok: Tokenizer<'_>) -> Result<RunObservation, String> {
    let (doc, records) = read_run_file(tok)?;
    let version: u64 = read_member(&doc, "version")?;
    if !(1..=2).contains(&version) {
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
    let footer: Vec<NodeSummary> = read_member(&doc, "nodes")?;

    // Footer first: it names the participants every event must belong to.
    // Their accumulators are kept in address order, one per footer entry.
    let len = 1usize << dim;
    let mut order: Vec<usize> = (0..footer.len()).collect();
    order.sort_by_key(|&i| footer[i].node);
    // The first entry in file order that lies outside the cube or repeats
    // an earlier one's address (the stable sort keeps repeats in file order).
    let first_bad = order
        .windows(2)
        .filter(|w| footer[w[0]].node == footer[w[1]].node)
        .map(|w| w[1])
        .chain(footer.iter().position(|s| s.node.index() >= len))
        .min();
    if let Some(i) = first_bad {
        let idx = footer[i].node.index();
        return Err(if idx >= len {
            format!("node record {i}: address {idx} outside the {dim}-cube")
        } else {
            format!("node record {i}: duplicate address {idx}")
        });
    }
    struct Acc {
        summary: NodeSummary,
        stats: RunStats,
        metrics: NodeMetrics,
        spans: SpanLog,
    }
    let mut accs: Vec<Acc> = order
        .into_iter()
        .map(|i| Acc {
            summary: footer[i],
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
        events,
        bounds,
        bad,
    } = records.ok_or("missing 'events'")?;
    let not_in_footer = |i: usize, node: usize| format!("event {i}: node {node} not in the footer");
    let outside = |i: usize, k: &str, p: NodeId| {
        format!("event {i}: '{k}' address {p} outside the {dim}-cube")
    };
    let max_hops = 2 * (len as u64 - 1);
    let mut totals = Totals::default();
    let entries = events.len() + bounds.len();
    let mut bounds = bounds.iter().peekable();
    let mut next_event = events.iter();
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
            match b.phase {
                Some(phase) => acc.spans.enter(phase, b.t),
                None => acc.spans.exit(b.t),
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
            }
            TraceKind::Recv { from, wait, .. } => {
                if from.index() >= len {
                    return Err(outside(i, "from", from));
                }
                acc.metrics.msgs_received += 1;
                acc.metrics.link_wait_us += wait;
            }
            TraceKind::Compute { comparisons } => {
                totals.compute(comparisons).ok_or_else(overflow)?;
                acc.stats.record_comparisons(comparisons);
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
            metrics.blocked_us = acc.summary.blocked_us;
            metrics.inbox_peak = acc.summary.inbox_peak;
            let (spans, span_at) = acc.spans.finish(acc.summary.clock);
            NodeObservation {
                node: acc.summary.node,
                clock: acc.summary.clock,
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
            ("{\"version\":3}", "version 3"),
            ("{\"version\":2,\"dim\":1}", "link_model"),
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
    }
}
