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
//! Reading is one pass that builds no JSON tree of the events (see
//! [`observation_from_json`]): replay costs about what inflating and
//! tokenizing the file costs, and holds compact decoded records rather
//! than a document tree.

use super::json::{read_member, EventFields, Field, Json, Token, Tokenizer};
use super::sink::{NodeSummary, StreamingSink, TraceSink};
use super::{NodeMetrics, NodeObservation, RunObservation, SpanLog};
use crate::address::{NodeId, MAX_RUN_DIM};
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};
use crate::stats::RunStats;

/// Serializes a buffered [`RunObservation`] into the run-file schema (the
/// exact document a live [`StreamingSink`] would have written, modulo the
/// interleaving of different nodes' records). Each node's span boundaries
/// go back at their program-order positions
/// ([`NodeObservation::span_at`]), so the file replays to the same spans;
/// spans without positions follow the node's events. The observation
/// must carry a trace (tracing enabled) for the file to replay with full
/// counters.
pub fn run_to_json(obs: &RunObservation) -> String {
    let mut sink = StreamingSink::new(Vec::new());
    if let Some(kt) = &obs.key_type {
        sink.set_key_type(kt.clone());
    }
    sink.begin(obs.dim, &obs.cost, obs.link_model);
    // Per address: the node's positioned boundaries, last position first,
    // and the records written so far — the position of the next one.
    let len = 1usize << obs.dim;
    let mut bounds: Vec<Vec<(usize, Option<u16>, f64)>> = vec![Vec::new(); len];
    for n in &obs.nodes {
        let b = &mut bounds[n.node.index()];
        b.extend(
            n.spans
                .iter()
                .zip(&n.span_at)
                .flat_map(|(s, &(begin_at, end_at))| {
                    [(begin_at, Some(s.phase), s.begin), (end_at, None, s.end)]
                }),
        );
        b.sort_unstable_by_key(|&(at, ..)| std::cmp::Reverse(at));
    }
    let mut written = vec![0usize; len];
    for e in obs.trace.events() {
        let n = e.node.index();
        if let Some(b) = bounds.get_mut(n) {
            while let Some((_, phase, t)) = b.pop_if(|&mut (at, ..)| at <= written[n]) {
                sink.span(e.node, phase, t);
                written[n] += 1;
            }
            written[n] += 1;
        }
        sink.event(e);
    }
    for n in &obs.nodes {
        for &(_, phase, t) in bounds[n.node.index()].iter().rev() {
            sink.span(n.node, phase, t);
        }
        for s in n.spans.iter().skip(n.span_at.len()) {
            sink.span(n.node, Some(s.phase), s.begin);
            sink.span(n.node, None, s.end);
        }
    }
    let summaries: Vec<NodeSummary> = obs.nodes.iter().map(NodeSummary::of).collect();
    sink.finish(&summaries);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the sink renders UTF-8")
}

/// Writes `obs` as a run file at `path` — gzip-compressed when the path
/// ends in `.gz`, plain otherwise. The write-side counterpart of
/// [`observation_from_file`].
pub fn write_run_file(obs: &RunObservation, path: &str) -> std::io::Result<()> {
    let json = run_to_json(obs);
    if path.ends_with(".gz") {
        let file = std::fs::File::create(path)?;
        let mut enc = super::gz::GzEncoder::new(file)?;
        std::io::Write::write_all(&mut enc, json.as_bytes())?;
        enc.finish().map(|_| ())
    } else {
        std::fs::write(path, json)
    }
}

/// Reads a run file from disk — gzip-compressed (written by
/// `sort --run-out foo.jsonl.gz`) or plain text, sniffed by magic bytes —
/// and rebuilds the observation via [`observation_from_json`].
pub fn observation_from_file(path: &str) -> Result<RunObservation, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bytes = if super::gz::is_gzip(&bytes) {
        super::gz::gunzip(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        bytes
    };
    let text = String::from_utf8(bytes).map_err(|e| format!("{path}: not UTF-8: {e}"))?;
    observation_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// One `events` entry, decoded but not yet attributed: the footer that
/// says which nodes took part comes after the events in the file.
struct Record {
    node: usize,
    body: Body,
}

enum Body {
    Enter { phase: u16, t: f64 },
    Exit { t: f64 },
    Event(TraceEvent),
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

/// The decoded `events` entries before the first bad one, and that one.
type Events = (Vec<Record>, Option<BadRecord>);

fn decode_record(i: usize, f: &EventFields<'_>) -> Result<Record, (Option<usize>, String)> {
    let node = f
        .node
        .uint()
        .ok_or_else(|| (None, format!("event {i}: missing 'node'")))? as usize;
    let time = |t: &Field<'_>| t.num().ok_or_else(|| format!("event {i}: bad 't'"));
    let body = match f.kind.str() {
        Some("enter") => f
            .phase
            .uint()
            .and_then(|p| u16::try_from(p).ok())
            .ok_or_else(|| format!("event {i}: bad 'phase'"))
            .and_then(|phase| {
                Ok(Body::Enter {
                    phase,
                    t: time(&f.t)?,
                })
            }),
        Some("exit") => time(&f.t).map(|t| Body::Exit { t }),
        _ => f.trace_event(i).map(Body::Event),
    };
    body.map(|body| Record { node, body })
        .map_err(|e| (Some(node), e))
}

/// Reads the `events` array whose `[` the tokenizer just returned. Entries
/// after the first bad one are still checked for syntax, not decoded.
fn read_events(tok: &mut Tokenizer<'_>) -> Result<Events, String> {
    let mut records = Vec::new();
    let mut bad = None;
    let mut i = 0;
    loop {
        let fields = match tok.expect_token()? {
            Token::EndArray => return Ok((records, bad)),
            Token::BeginObject => EventFields::read(tok)?,
            other => {
                // not an object: no members, so it fails on 'node'
                tok.skip(&other)?;
                EventFields::default()
            }
        };
        if bad.is_none() {
            match decode_record(i, &fields) {
                Ok(record) => records.push(record),
                Err((node, e)) => bad = Some((i, node, e)),
            }
        }
        i += 1;
    }
}

/// A run file split in one pass: every top-level member except `events`
/// as a [`Json`] value (the header and the footer, both small), and the
/// first `events` array, if it is one, streamed into records.
fn read_run_file(text: &str) -> Result<(Json, Option<Events>), String> {
    let mut tok = Tokenizer::new(text);
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
    while let Token::Key(key) = tok.expect_token()? {
        let value = tok.expect_token()?;
        if key == "events" {
            // like Json::get, the first member of a name wins
            if seen_events {
                tok.skip(&value)?;
                continue;
            }
            seen_events = true;
            if value == Token::BeginArray {
                events = Some(read_events(&mut tok)?);
                continue;
            }
        }
        members.push((key.into_owned(), Json::build(&mut tok, value)?));
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
/// events: the JSON tokenizer of [`super::json`] streams each record into a compact
/// decoded form, and the records are attributed to nodes once the footer
/// (which follows them) is known — in file order, through the same
/// accumulation code and with the same errors as a record-by-record walk.
/// Members may come in any order, unknown members are ignored, and
/// nesting deeper than [`MAX_DEPTH`](super::json::MAX_DEPTH) is an error.
///
/// Records are also checked against what an engine can write: send and
/// receive addresses lie inside the header's cube, a send crosses at most
/// `2·(2^dim − 1)` links (the adaptive router's depth-first walk, which
/// visits every node at most once and backtracks at most once per node,
/// is the longest route any engine charges), and no counter sum overflows
/// a `u64`.
pub fn observation_from_json(text: &str) -> Result<RunObservation, String> {
    let (doc, events) = read_run_file(text)?;
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
    // the invariant the span stack and the stable trace sort rely on. One
    // node's records mostly arrive together, so the last hit is tried first.
    let (records, bad) = events.ok_or("missing 'events'")?;
    let not_in_footer = |i: usize, node: usize| format!("event {i}: node {node} not in the footer");
    let outside = |i: usize, k: &str, p: NodeId| {
        format!("event {i}: '{k}' address {p} outside the {dim}-cube")
    };
    let max_hops = 2 * (len as u64 - 1);
    let mut totals = Totals::default();
    let mut events = Vec::with_capacity(records.len());
    let mut hit = 0;
    for (i, Record { node, body }) in records.into_iter().enumerate() {
        if accs.get(hit).is_none_or(|a| a.summary.node.index() != node) {
            hit = find(&accs, node).ok_or_else(|| not_in_footer(i, node))?;
        }
        let acc = &mut accs[hit];
        let overflow = || format!("event {i}: counters overflow a u64");
        match body {
            Body::Enter { phase, t } => acc.spans.enter(phase, t),
            Body::Exit { t } => acc.spans.exit(t),
            Body::Event(ev) => {
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
                events.push(ev);
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
