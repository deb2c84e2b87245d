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

use super::json::{EventFields, Field, Json, Token, Tokenizer};
use super::sink::{BufferedSink, NodeSummary, TraceSink};
use super::{NodeMetrics, NodeObservation, RunObservation, SpanLog, SpanRecord};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};
use crate::stats::RunStats;

/// Serializes a buffered [`RunObservation`] into the run-file schema (the
/// exact document a live [`super::sink::StreamingSink`] would have
/// written, modulo record interleaving). The observation must carry a
/// trace (tracing enabled) for the file to replay with full counters.
pub fn run_to_json(obs: &RunObservation) -> String {
    let mut sink = BufferedSink::new();
    if let Some(kt) = &obs.key_type {
        sink.set_key_type(kt.clone());
    }
    sink.begin(obs.dim, &obs.cost, obs.link_model);
    for e in obs.trace.events() {
        sink.event(e);
    }
    for n in obs.participants() {
        for s in &n.spans {
            sink.span(n.node, Some(s.phase), s.begin);
            sink.span(n.node, None, s.end);
        }
    }
    let summaries: Vec<NodeSummary> = obs
        .participants()
        .map(|n| NodeSummary {
            node: n.node,
            clock: n.clock,
            blocked_us: n.metrics.blocked_us,
            inbox_peak: n.metrics.inbox_peak,
        })
        .collect();
    sink.finish(&summaries);
    sink.to_json()
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
            .filter(|p| *p <= u16::MAX as u64)
            .ok_or_else(|| format!("event {i}: bad 'phase'"))
            .and_then(|phase| {
                Ok(Body::Enter {
                    phase: phase as u16,
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
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing 'version'")?;
    if !(1..=2).contains(&version) {
        return Err(format!("unsupported run-file version {version}"));
    }
    let link_model = match version {
        1 => LinkModel::Uncontended,
        _ => doc
            .get("link_model")
            .and_then(Json::as_str)
            .and_then(LinkModel::parse)
            .ok_or("missing or invalid 'link_model'")?,
    };
    let key_type = doc
        .get("key_type")
        .and_then(Json::as_str)
        .map(str::to_owned);
    let dim = doc
        .get("dim")
        .and_then(Json::as_u64)
        .ok_or("missing 'dim'")? as usize;
    if dim > 24 {
        return Err(format!("implausible dimension {dim}"));
    }
    let cost_json = doc.get("cost").ok_or("missing 'cost'")?;
    let costf = |k: &str| {
        cost_json
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cost: missing '{k}'"))
    };
    let cost = CostModel {
        t_sr: costf("t_sr")?,
        t_c: costf("t_c")?,
        t_startup: costf("t_startup")?,
    };

    // Footer first: it defines the participants every event must belong to.
    struct Acc {
        clock: f64,
        blocked_us: f64,
        inbox_peak: u64,
        stats: RunStats,
        metrics: NodeMetrics,
        spans: SpanLog,
    }
    let len = 1usize << dim;
    let mut accs: Vec<Option<Acc>> = (0..len).map(|_| None).collect();
    let footer = doc
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or("missing 'nodes'")?;
    for (i, n) in footer.iter().enumerate() {
        let idx = n
            .get("node")
            .and_then(Json::as_u64)
            .ok_or(format!("node record {i}: missing 'node'"))? as usize;
        if idx >= len {
            return Err(format!(
                "node record {i}: address {idx} outside the {dim}-cube"
            ));
        }
        if accs[idx].is_some() {
            return Err(format!("node record {i}: duplicate address {idx}"));
        }
        let num = |k: &str| {
            n.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("node record {i}: missing '{k}'"))
        };
        accs[idx] = Some(Acc {
            clock: num("clock")?,
            blocked_us: num("blocked_us")?,
            inbox_peak: n
                .get("inbox_peak")
                .and_then(Json::as_u64)
                .ok_or(format!("node record {i}: missing 'inbox_peak'"))?,
            stats: RunStats::new(),
            metrics: NodeMetrics::new(dim),
            spans: SpanLog::new(),
        });
    }

    // Records, in file order — which preserves each node's emission order,
    // the invariant the span stack and the stable trace sort rely on.
    let (records, bad) = events.ok_or("missing 'events'")?;
    let not_in_footer = |i: usize, node: usize| format!("event {i}: node {node} not in the footer");
    let outside = |i: usize, k: &str, p: NodeId| {
        format!("event {i}: '{k}' address {p} outside the {dim}-cube")
    };
    let max_hops = 2 * (len as u64 - 1);
    let mut totals = Totals::default();
    let mut events = Vec::with_capacity(records.len());
    for (i, Record { node, body }) in records.into_iter().enumerate() {
        let acc = accs
            .get_mut(node)
            .and_then(Option::as_mut)
            .ok_or_else(|| not_in_footer(i, node))?;
        let overflow = || format!("event {i}: counters overflow a u64");
        match body {
            Body::Enter { phase, t } => acc.spans.enter(phase, t),
            Body::Exit { t } => acc.spans.exit(t),
            Body::Event(ev) => {
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
        if let Some(node) = node.filter(|&n| accs.get(n).is_none_or(Option::is_none)) {
            return Err(not_in_footer(i, node));
        }
        return Err(err);
    }

    let nodes = accs
        .into_iter()
        .enumerate()
        .map(|(idx, acc)| {
            acc.map(|acc| {
                let mut metrics = acc.metrics;
                metrics.blocked_us = acc.blocked_us;
                metrics.inbox_peak = acc.inbox_peak;
                NodeObservation {
                    node: NodeId::new(idx as u32),
                    clock: acc.clock,
                    stats: acc.stats,
                    spans: acc.spans.finish(acc.clock),
                    metrics,
                }
            })
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

/// Re-prices a traced run under a different [`CostModel`]: the recorded
/// schedule (who sends what to whom, in which order, over how many hops)
/// is replayed through the same clock algebra the engines charge —
/// `send` advances the sender's port by `transfer(elements, min(hops,1))`,
/// `recv` jumps the receiver to `max(local, sent_at + transfer(elements,
/// hops))`, `compute` advances by `compare(count)` — with every quantity
/// recomputed under `new_cost`.
///
/// The algorithms simulated here are data-oblivious, so the communication
/// schedule is itself cost-independent: recosting a saved run produces
/// **exactly** the observation a live run under `new_cost` would have
/// (the differential test in `tests/obs_invariants.rs` pins this byte for
/// byte). Clock advances the event stream cannot express (a raw
/// `charge_compute`, which no event records) are carried into the new
/// timeline verbatim as per-node residuals.
///
/// Counters and link attributions are schedule properties and carry over
/// unchanged; `blocked_us` is recomputed from the new receive jumps;
/// `inbox_peak` is a property of the frontier schedule, which does not
/// depend on the cost model, and carries over.
///
/// Errors if the observation has no trace events (the run was not traced
/// — there is no schedule to re-price).
///
/// The run's [`LinkModel`] is preserved: re-pricing a contended run routes
/// through the schedule replayer ([`super::schedule::reprice`], which also
/// handles cross-model re-pricing); the uncontended fast path below is
/// kept verbatim.
pub fn recost(obs: &RunObservation, new_cost: CostModel) -> Result<RunObservation, String> {
    if obs.link_model == LinkModel::Contended {
        return super::schedule::reprice(obs, new_cost, LinkModel::Contended);
    }
    if obs.trace.is_empty() {
        return Err("run has no trace events — was the sort traced?".into());
    }
    let events = obs.trace.events();
    // recv event index -> send event index (FIFO per (src, dst, tag) —
    // the channel order every engine preserves)
    let mut send_of = vec![usize::MAX; events.len()];
    for (s, r) in super::perfetto::match_messages(&obs.trace) {
        send_of[r] = s;
    }

    let len = obs.nodes.len();
    // Per-node clock tracks: the recorded (old) timeline as derived from
    // the events, and the re-priced (new) one.
    let mut old_clock = vec![0.0f64; len];
    let mut new_clock = vec![0.0f64; len];
    let mut blocked = vec![0.0f64; len];
    let mut dim_busy: Vec<Vec<f64>> = vec![vec![0.0; obs.dim]; len];
    let mut new_time = vec![0.0f64; events.len()];
    // Per-node (old event time, new event time) checkpoints, in program
    // order — the piecewise map span boundaries are translated through.
    let mut checkpoints: Vec<Vec<(f64, f64)>> = vec![Vec::new(); len];

    for (i, e) in events.iter().enumerate() {
        let n = e.node.index();
        // Where the recorded time disagrees with the clock this event's
        // charge alone would predict, the gap is an un-evented advance (a
        // raw `charge_compute`); carry it verbatim. The comparison is
        // bitwise-clean: when every advance is evented (all the sorts in
        // this workspace), `predicted` reproduces the engine's exact float
        // operations, the residual is exactly zero and the branch never
        // perturbs the new timeline.
        match e.kind {
            TraceKind::Send { to, elements, hops } => {
                let predicted = old_clock[n] + obs.cost.transfer(elements, hops.min(1));
                if e.time != predicted {
                    new_clock[n] += e.time - predicted;
                }
                new_clock[n] += new_cost.transfer(elements, hops.min(1));
                let direct = e.node.raw() ^ to.raw();
                for (d, busy) in dim_busy[n].iter_mut().enumerate() {
                    if direct >> d & 1 == 1 {
                        *busy += new_cost.transfer(elements, 1);
                    }
                }
            }
            TraceKind::Recv { elements, .. } => {
                let before = new_clock[n];
                let s = send_of[i];
                if s == usize::MAX {
                    // No matching send in the file (truncated run):
                    // preserve the recorded forward jump.
                    new_clock[n] += (e.time - old_clock[n]).max(0.0);
                } else {
                    let hops = match events[s].kind {
                        TraceKind::Send { hops, .. } => hops,
                        _ => unreachable!("matched send is a Send event"),
                    };
                    let arrival = new_time[s] + new_cost.transfer(elements, hops);
                    new_clock[n] = new_clock[n].max(arrival);
                }
                blocked[n] += new_clock[n] - before;
            }
            TraceKind::Compute { comparisons } => {
                let predicted = old_clock[n] + obs.cost.compare(comparisons);
                if e.time != predicted {
                    new_clock[n] += e.time - predicted;
                }
                new_clock[n] += new_cost.compare(comparisons);
            }
        }
        old_clock[n] = e.time;
        new_time[i] = new_clock[n];
        checkpoints[n].push((e.time, new_clock[n]));
    }

    // Translate an old-timeline instant at node `n` into the new timeline:
    // new time of the last checkpoint at or before it, plus the residual.
    let map_time = |n: usize, t: f64| -> f64 {
        let cps = &checkpoints[n];
        match cps.partition_point(|&(old, _)| old <= t) {
            0 => t, // before the node's first charge the timelines agree
            p => {
                let (old, new) = cps[p - 1];
                new + (t - old)
            }
        }
    };

    let new_events: Vec<_> = events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = *e;
            e.time = new_time[i];
            e
        })
        .collect();

    let nodes = obs
        .nodes
        .iter()
        .enumerate()
        .map(|(n, slot)| {
            slot.as_ref().map(|node| {
                let clock = map_time(n, node.clock);
                let mut metrics = node.metrics.clone();
                metrics.blocked_us = blocked[n];
                metrics.dim_busy_us = dim_busy[n].clone();
                NodeObservation {
                    node: node.node,
                    clock,
                    stats: node.stats,
                    spans: node
                        .spans
                        .iter()
                        .map(|s| SpanRecord {
                            phase: s.phase,
                            begin: map_time(n, s.begin),
                            end: map_time(n, s.end),
                        })
                        .collect(),
                    metrics,
                }
            })
        })
        .collect();

    Ok(RunObservation {
        dim: obs.dim,
        cost: new_cost,
        link_model: LinkModel::Uncontended,
        trace: Trace::from_events(new_events),
        nodes,
        key_type: obs.key_type.clone(),
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
