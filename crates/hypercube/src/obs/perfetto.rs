//! Chrome-trace-event / Perfetto JSON export.
//!
//! Emits the classic `{"traceEvents":[...]}` schema that
//! <https://ui.perfetto.dev> (and `chrome://tracing`) load directly:
//!
//! * one track per node (`pid` 0, `tid` = node address, named via `M`
//!   metadata events),
//! * phase spans as `X` complete events (`ts`/`dur` in µs — the virtual
//!   clock's native unit),
//! * messages as flow events: an `s` (flow start) on the sender at send
//!   time and an `f` (flow finish) on the receiver at receive time,
//!   sharing a numeric `id`, so the UI draws arrows along the
//!   happens-before edges,
//! * counter (`C`) tracks per node: instantaneous inbox depth (messages
//!   sent but not yet received) and cumulative element·hops sent, so
//!   queue buildup and traffic skew render as time series next to the
//!   span tracks,
//! * under [`LinkModel::Contended`] only: per-dimension link occupancy
//!   and queue-depth counter tracks recovered from the ledger replay,
//!   and each flow start carries the message's link `wait` in its args.
//!   Uncontended exports are byte-identical to pre-contention builds.
//!
//! Send↔receive matching is FIFO per `(src, dst, tag)` channel — exactly
//! the engines' delivery discipline — computed over the whole trace before
//! any pairing, because a global time sort can place a receive *before*
//! its own send when both carry equal timestamps and the receiver has the
//! smaller node address.

use super::json::{write_str, Json, Token, Tokenizer};
use super::RunObservation;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};
use std::collections::HashMap;
use std::io::{self, Read, Write};

/// Writes the separator before every `traceEvents` entry but the first.
fn sep(w: &mut impl Write, first: &mut bool) -> io::Result<()> {
    if !*first {
        w.write_all(b",")?;
    }
    *first = false;
    Ok(())
}

/// Pairs each receive event with its send. Returns `(send_index,
/// recv_index)` pairs into `trace.events()`, in receive order. Receives
/// with no matching send (malformed traces) are skipped.
pub fn match_messages(trace: &Trace) -> Vec<(usize, usize)> {
    // channel key: (src, dst, tag) -> FIFO of send event indices
    let mut queues: HashMap<(u32, u32, u64), std::collections::VecDeque<usize>> = HashMap::new();
    for (i, e) in trace.events().iter().enumerate() {
        if let TraceKind::Send { to, .. } = e.kind {
            queues
                .entry((e.node.raw(), to.raw(), e.tag.0))
                .or_default()
                .push_back(i);
        }
    }
    let mut pairs = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        if let TraceKind::Recv { from, .. } = e.kind {
            if let Some(queue) = queues.get_mut(&(from.raw(), e.node.raw(), e.tag.0)) {
                if let Some(send_idx) = queue.pop_front() {
                    pairs.push((send_idx, i));
                }
            }
        }
    }
    pairs
}

/// Streams a run observation to `w` as Chrome-trace-event JSON, naming
/// span phases through `namer` (unknown ids become `phase-<id>`), then
/// flushes `w`. Every trace event must belong to a node of `obs.nodes`,
/// as in any observation an engine or the run-file reader builds; the
/// per-node tables are sized by those participants, not by the cube.
pub fn write_perfetto(
    obs: &RunObservation,
    namer: &dyn Fn(u16) -> Option<&'static str>,
    w: &mut impl Write,
) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;

    // Track naming metadata, one per participating node.
    for node in &obs.nodes {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"node {}\"}}}}",
            node.node.raw(),
            node.node.raw()
        )?;
    }

    // Phase spans as complete (X) events.
    for node in &obs.nodes {
        for span in &node.spans {
            sep(w, &mut first)?;
            let mut name = String::new();
            match namer(span.phase) {
                Some(s) => write_str(&mut name, s),
                None => write_str(&mut name, &format!("phase-{}", span.phase)),
            }
            write!(
                w,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":{name},\"cat\":\"phase\",\"ts\":{},\"dur\":{}}}",
                node.node.raw(),
                span.begin,
                span.duration()
            )?;
        }
    }

    // Messages as flow start/finish pairs along happens-before edges.
    let contended = obs.link_model == LinkModel::Contended;
    let events = obs.trace.events();
    let pairs = match_messages(&obs.trace);
    for (flow_id, &(send_idx, recv_idx)) in pairs.iter().enumerate() {
        let s = &events[send_idx];
        let f = &events[recv_idx];
        let elements = match s.kind {
            TraceKind::Send { elements, .. } => elements,
            _ => 0,
        };
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"id\":{},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{},\"args\":{{\"tag\":\"{}\",\"elements\":{}",
            s.node.raw(),
            flow_id,
            s.time,
            s.tag.0,
            elements
        )?;
        if contended {
            let wait = match f.kind {
                TraceKind::Recv { wait, .. } => wait,
                _ => 0.0,
            };
            write!(w, ",\"wait\":{wait}")?;
        }
        w.write_all(b"}}")?;
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"id\":{},\"name\":\"msg\",\"cat\":\"msg\",\"ts\":{}}}",
            f.node.raw(),
            flow_id,
            f.time
        )?;
    }

    // Per-participant tables, indexed by the node's position in the
    // address-sorted `obs.nodes`: every event belongs to a participant.
    let participant = |e: &TraceEvent| {
        obs.nodes
            .binary_search_by_key(&e.node, |n| n.node)
            .expect("trace events belong to participants")
    };

    // Inbox-depth counters, one track per destination node: +1 at each
    // matched send, -1 at its receive.
    let mut inbox: Vec<Vec<(f64, i64)>> = vec![Vec::new(); obs.nodes.len()];
    for &(s, r) in &pairs {
        let dst = participant(&events[r]);
        inbox[dst].push((events[s].time, 1));
        inbox[dst].push((events[r].time, -1));
    }
    for (node, deltas) in obs.nodes.iter().zip(&mut inbox) {
        counter_track(
            w,
            &mut first,
            0,
            &format!("inbox P{}", node.node.raw()),
            "messages",
            deltas,
        )?;
    }

    // Cumulative element·hops counters, one track per sender, sampled at
    // each send. Monotone by construction — `trace-check` verifies it.
    let mut cum_hops: Vec<u64> = vec![0; obs.nodes.len()];
    for e in events {
        if let TraceKind::Send { elements, hops, .. } = e.kind {
            let cum = &mut cum_hops[participant(e)];
            *cum += elements as u64 * hops as u64;
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"ph\":\"C\",\"pid\":0,\"name\":\"element-hops P{}\",\"ts\":{},\"args\":{{\"element_hops\":{}}}}}",
                e.node.raw(),
                e.time,
                cum
            )?;
        }
    }

    // Link occupancy and queue depth, one counter pair per hypercube
    // dimension, recovered by replaying the recorded schedule through
    // the link ledger: a dim-d link is held over [start, end) and a
    // message queues for it over [queued_at, start).
    if contended {
        let ct = super::schedule::contended_times(obs);
        let mut busy: Vec<Vec<(f64, i64)>> = vec![Vec::new(); obs.dim];
        let mut queue: Vec<Vec<(f64, i64)>> = vec![Vec::new(); obs.dim];
        for l in &ct.links {
            busy[l.dim].push((l.start, 1));
            busy[l.dim].push((l.end, -1));
            queue[l.dim].push((l.queued_at, 1));
            queue[l.dim].push((l.start, -1));
        }
        for (d, deltas) in busy.iter_mut().enumerate() {
            counter_track(
                w,
                &mut first,
                0,
                &format!("link dim {d} busy"),
                "links",
                deltas,
            )?;
        }
        for (d, deltas) in queue.iter_mut().enumerate() {
            counter_track(
                w,
                &mut first,
                0,
                &format!("link dim {d} queue"),
                "messages",
                deltas,
            )?;
        }
    }

    w.write_all(b"],\"displayTimeUnit\":\"ms\"}")?;
    w.flush()
}

/// Emits one counter track from `(timestamp, delta)` pairs: sorts by
/// timestamp, collapses all deltas sharing a timestamp into one sample
/// (increments ordered before decrements at ties, so zero-duration
/// acquisitions never dip the series negative), and writes the running
/// sum — per-track timestamps come out non-decreasing by construction.
/// Renders the inbox-depth and link busy/queue tracks here, and the
/// scheduler-profiler export's runnable tracks ([`super::sched`]), which
/// emit under their own `pid`.
pub(crate) fn counter_track(
    w: &mut impl Write,
    first: &mut bool,
    pid: u32,
    name: &str,
    series: &str,
    deltas: &mut [(f64, i64)],
) -> io::Result<()> {
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let (mut depth, mut k) = (0i64, 0);
    while k < deltas.len() {
        let t = deltas[k].0;
        while k < deltas.len() && deltas[k].0.to_bits() == t.to_bits() {
            depth += deltas[k].1;
            k += 1;
        }
        sep(w, first)?;
        write!(
            w,
            "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"{name}\",\"ts\":{t},\"args\":{{\"{series}\":{depth}}}}}"
        )?;
    }
    Ok(())
}

/// Summary counts from a validated Chrome-trace document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total `traceEvents` entries.
    pub events: usize,
    /// `X` complete (span) events.
    pub spans: u64,
    /// Completed flow start/finish pairs.
    pub flows: u64,
    /// Counter (`C`) samples.
    pub counters: u64,
}

/// Structurally validates a Chrome-trace export read from `source`: every
/// flow start carries an integer `id` and a `ts`, every finish pairs with
/// an earlier start and respects happens-before, counter samples carry
/// exactly one non-negative numeric series with per-track non-decreasing
/// timestamps, and cumulative `element-hops` tracks never decrease.
/// Scheduler-profiler extensions (see [`super::sched`]): `X` spans with
/// `cat` `"sched"` must sit on a previously declared `worker <i>` thread
/// track and keep per-track timestamps non-decreasing (node-track phase
/// spans are emitted in close order, so the rule is scoped to worker
/// tracks), and `"steal"` flow endpoints must resolve to declared worker
/// tracks. Malformed input returns an error naming the offending event
/// index (bad JSON, its byte offset) — it never panics — so the CLI's
/// `trace-check` can report *which* event is broken.
///
/// It is one streaming pass of the [`super::json`] tokenizer, which checks
/// the whole document's syntax. The first top-level `traceEvents` member
/// is the trace; each entry is built into one small [`Json`] and checked
/// as it is read, so memory follows the longest entry and the tracks the
/// events declare, not the file.
pub fn validate_chrome_trace(mut source: impl Read) -> Result<TraceCheck, String> {
    let mut tok = Tokenizer::from_reader(&mut source);
    let first = tok.expect_token()?;
    let mut check = None;
    if first == Token::BeginObject {
        let mut seen = false;
        // anything but a key here is the object's closing `}`
        while let Token::Key = tok.expect_token()? {
            // like `Json::get`, the first member of a name wins
            let events = !seen && tok.text() == "traceEvents";
            seen |= events;
            match tok.expect_token()? {
                Token::BeginArray if events => check = Some(check_events(&mut tok)?),
                value => tok.skip(value)?,
            }
        }
    } else {
        tok.skip(first)?;
    }
    tok.finish()?;
    check.ok_or_else(|| "missing 'traceEvents' array".into())
}

/// Checks the entries of the `traceEvents` array whose `[` the tokenizer
/// just returned, through its `]`.
fn check_events(tok: &mut Tokenizer<'_>) -> Result<TraceCheck, String> {
    let mut open: HashMap<u64, f64> = HashMap::new();
    let mut last_sample: HashMap<String, (f64, f64)> = HashMap::new();
    // thread tracks declared so far by "M"/"thread_name" metadata
    let mut track_names: HashMap<(u64, u64), String> = HashMap::new();
    // per worker track: last "sched" span timestamp
    let mut sched_last: HashMap<(u64, u64), f64> = HashMap::new();
    let (mut events, mut spans, mut flows, mut counters) = (0, 0u64, 0u64, 0u64);
    loop {
        let first = tok.expect_token()?;
        if first == Token::EndArray {
            break;
        }
        let (i, e) = (events, &Json::build(tok, first)?);
        events += 1;
        let ts_of = |what: &str| {
            e.get("ts")
                .and_then(Json::as_f64)
                .ok_or(format!("event {i}: {what} without 'ts'"))
        };
        let track_of = |what: &str| {
            let pid = e.get("pid").and_then(Json::as_u64);
            let tid = e.get("tid").and_then(Json::as_u64);
            match (pid, tid) {
                (Some(pid), Some(tid)) => Ok((pid, tid)),
                _ => Err(format!("event {i}: {what} without 'pid'/'tid'")),
            }
        };
        let cat = e.get("cat").and_then(Json::as_str);
        let worker_track_of = |what: &str, track_names: &HashMap<(u64, u64), String>| {
            let track = track_of(what)?;
            match track_names.get(&track) {
                Some(name) if name.starts_with("worker ") => Ok(track),
                Some(name) => Err(format!(
                    "event {i}: {what} on track '{name}', not a worker track"
                )),
                None => Err(format!(
                    "event {i}: {what} on undeclared track pid {} tid {}",
                    track.0, track.1
                )),
            }
        };
        match e.get("ph").and_then(Json::as_str) {
            Some("M") if e.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let track = track_of("thread_name metadata")?;
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: thread_name metadata without a name"))?;
                track_names.insert(track, name.to_string());
            }
            Some("X") => {
                if cat == Some("sched") {
                    let track = worker_track_of("sched span", &track_names)?;
                    let ts = ts_of("sched span")?;
                    if let Some(&prev) = sched_last.get(&track) {
                        if ts < prev {
                            return Err(format!(
                                "event {i}: sched span timestamps go backward on worker track tid {} ({ts} < {prev})",
                                track.1
                            ));
                        }
                    }
                    sched_last.insert(track, ts);
                }
                spans += 1;
            }
            Some("s") => {
                if cat == Some("steal") {
                    worker_track_of("steal flow start", &track_names)?;
                }
                let id = e
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or(format!("event {i}: flow start without integer 'id'"))?;
                let ts = ts_of("flow start")?;
                if open.insert(id, ts).is_some() {
                    return Err(format!("event {i}: duplicate flow id {id}"));
                }
            }
            Some("f") => {
                if cat == Some("steal") {
                    worker_track_of("steal flow finish", &track_names)?;
                }
                let id = e
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or(format!("event {i}: flow finish without integer 'id'"))?;
                let ts = ts_of("flow finish")?;
                let sent = open
                    .remove(&id)
                    .ok_or(format!("event {i}: flow {id} finishes before it starts"))?;
                if ts < sent {
                    return Err(format!(
                        "event {i}: flow {id} violates happens-before ({ts} < {sent})"
                    ));
                }
                flows += 1;
            }
            Some("C") => {
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: counter without 'name'"))?;
                let ts = ts_of("counter")?;
                let value = match e.get("args") {
                    Some(Json::Obj(fields)) if fields.len() == 1 => fields[0].1.as_f64(),
                    _ => None,
                }
                .ok_or(format!(
                    "event {i}: counter '{name}' needs exactly one numeric series in 'args'"
                ))?;
                if value < 0.0 {
                    return Err(format!(
                        "event {i}: counter '{name}' went negative ({value})"
                    ));
                }
                if let Some(&(prev_ts, prev_val)) = last_sample.get(name) {
                    if ts < prev_ts {
                        return Err(format!(
                            "event {i}: counter '{name}' timestamps go backward ({ts} < {prev_ts})"
                        ));
                    }
                    if name.starts_with("element-hops") && value < prev_val {
                        return Err(format!(
                            "event {i}: cumulative counter '{name}' decreased ({value} < {prev_val})"
                        ));
                    }
                }
                last_sample.insert(name.to_string(), (ts, value));
                counters += 1;
            }
            _ => {}
        }
    }
    if !open.is_empty() {
        let mut ids: Vec<u64> = open.keys().copied().collect();
        ids.sort_unstable();
        return Err(format!(
            "{} flow(s) never finished (ids {ids:?})",
            ids.len()
        ));
    }
    Ok(TraceCheck {
        events,
        spans,
        flows,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::NodeId;
    use crate::cost::CostModel;
    use crate::sim::{Tag, TraceEvent};

    /// The export as text, rendered into a `Vec<u8>`.
    fn render(obs: &RunObservation, namer: &dyn Fn(u16) -> Option<&'static str>) -> String {
        let mut buf = Vec::new();
        write_perfetto(obs, namer, &mut buf).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("the export is UTF-8")
    }

    fn two_node_trace() -> Trace {
        let tag = Tag::phase(7, 0, 0);
        Trace::from_events(vec![
            TraceEvent {
                time: 1.0,
                node: NodeId::new(0),
                tag,
                kind: TraceKind::Send {
                    to: NodeId::new(1),
                    elements: 4,
                    hops: 1,
                },
            },
            TraceEvent {
                time: 2.0,
                node: NodeId::new(1),
                tag,
                kind: TraceKind::Recv {
                    from: NodeId::new(0),
                    elements: 4,
                    wait: 0.0,
                },
            },
            // reply on the same tag
            TraceEvent {
                time: 3.0,
                node: NodeId::new(1),
                tag,
                kind: TraceKind::Send {
                    to: NodeId::new(0),
                    elements: 4,
                    hops: 1,
                },
            },
            TraceEvent {
                time: 4.0,
                node: NodeId::new(0),
                tag,
                kind: TraceKind::Recv {
                    from: NodeId::new(1),
                    elements: 4,
                    wait: 0.0,
                },
            },
        ])
    }

    #[test]
    fn matches_sends_to_recvs_per_channel() {
        let trace = two_node_trace();
        let pairs = match_messages(&trace);
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn matches_equal_time_recv_before_send_in_sort_order() {
        // With a zero-hop transfer the recv can carry the same timestamp
        // as the send; the global sort then orders the *receiver* first if
        // its address is smaller. Matching must still pair them.
        let tag = Tag::new(9);
        let trace = Trace::from_events(vec![
            TraceEvent {
                time: 5.0,
                node: NodeId::new(0),
                tag,
                kind: TraceKind::Recv {
                    from: NodeId::new(1),
                    elements: 2,
                    wait: 0.0,
                },
            },
            TraceEvent {
                time: 5.0,
                node: NodeId::new(1),
                tag,
                kind: TraceKind::Send {
                    to: NodeId::new(0),
                    elements: 2,
                    hops: 0,
                },
            },
        ]);
        // sorted order: recv (node 0) first, send (node 1) second
        assert!(matches!(trace.events()[0].kind, TraceKind::Recv { .. }));
        assert_eq!(match_messages(&trace), vec![(1, 0)]);
    }

    #[test]
    fn export_is_valid_json_with_paired_flows() {
        let obs = RunObservation {
            key_type: None,
            dim: 1,
            cost: CostModel::default(),
            link_model: LinkModel::Uncontended,
            trace: two_node_trace(),
            nodes: vec![
                crate::obs::NodeObservation {
                    node: NodeId::new(0),
                    clock: 4.0,
                    stats: crate::stats::RunStats::new(),
                    spans: vec![crate::obs::SpanRecord {
                        phase: 7,
                        begin: 0.0,
                        end: 4.0,
                    }],
                    span_at: Vec::new(),
                    metrics: crate::obs::NodeMetrics::new(1),
                },
                crate::obs::NodeObservation {
                    node: NodeId::new(1),
                    clock: 3.0,
                    stats: crate::stats::RunStats::new(),
                    spans: Vec::new(),
                    span_at: Vec::new(),
                    metrics: crate::obs::NodeMetrics::new(1),
                },
            ],
        };
        let text = render(&obs, &|p| if p == 7 { Some("exchange") } else { None });
        let check = validate(&text).expect("structurally valid");
        // 2 metadata + 1 span + 2 flows × 2 events + 6 counter samples
        // (2 inbox samples per node, 1 element-hops sample per send)
        assert_eq!(check.events, 2 + 1 + 4 + 6);
        assert_eq!(check.spans, 1);
        assert_eq!(check.flows, 2);
        assert_eq!(check.counters, 6);
        // the span got its name from the namer
        assert!(text.contains("\"exchange\""));
    }

    #[test]
    fn counters_track_inbox_depth_and_cumulative_hops() {
        let obs = RunObservation {
            key_type: None,
            dim: 1,
            cost: CostModel::default(),
            link_model: LinkModel::Uncontended,
            trace: two_node_trace(),
            nodes: vec![
                crate::obs::NodeObservation {
                    node: NodeId::new(0),
                    clock: 4.0,
                    stats: crate::stats::RunStats::new(),
                    spans: Vec::new(),
                    span_at: Vec::new(),
                    metrics: crate::obs::NodeMetrics::new(1),
                },
                crate::obs::NodeObservation {
                    node: NodeId::new(1),
                    clock: 3.0,
                    stats: crate::stats::RunStats::new(),
                    spans: Vec::new(),
                    span_at: Vec::new(),
                    metrics: crate::obs::NodeMetrics::new(1),
                },
            ],
        };
        let text = render(&obs, &|_| None);
        // node 1's inbox holds the first message over [1.0, 2.0)
        assert!(text.contains("\"name\":\"inbox P1\",\"ts\":1,\"args\":{\"messages\":1}"));
        assert!(text.contains("\"name\":\"inbox P1\",\"ts\":2,\"args\":{\"messages\":0}"));
        // each node sent 4 elements over 1 hop once
        assert!(
            text.contains("\"name\":\"element-hops P0\",\"ts\":1,\"args\":{\"element_hops\":4}")
        );
        assert!(
            text.contains("\"name\":\"element-hops P1\",\"ts\":3,\"args\":{\"element_hops\":4}")
        );
    }

    /// [`validate_chrome_trace`] over a document in memory.
    fn validate(doc: &str) -> Result<TraceCheck, String> {
        validate_chrome_trace(doc.as_bytes())
    }

    #[test]
    fn validator_names_the_offending_event() {
        // flow start without an id at index 1
        let err = validate(
            r#"{"traceEvents":[{"ph":"X","ts":0,"dur":1},{"ph":"s","ts":0,"id":"nope"}]}"#,
        )
        .expect_err("missing id");
        assert!(err.contains("event 1"), "{err}");
        assert!(err.contains("id"), "{err}");

        // finish before start
        let err = validate(r#"{"traceEvents":[{"ph":"f","ts":0,"id":3}]}"#)
            .expect_err("unmatched finish");
        assert!(err.contains("event 0") && err.contains("flow 3"), "{err}");

        // dangling start
        let err =
            validate(r#"{"traceEvents":[{"ph":"s","ts":0,"id":7}]}"#).expect_err("dangling start");
        assert!(err.contains("never finished"), "{err}");

        // negative counter
        let err = validate(
            r#"{"traceEvents":[{"ph":"C","name":"inbox P0","ts":0,"args":{"messages":-1}}]}"#,
        )
        .expect_err("negative counter");
        assert!(err.contains("event 0") && err.contains("negative"), "{err}");

        // cumulative counter decreasing
        let err = validate(
            r#"{"traceEvents":[{"ph":"C","name":"element-hops P0","ts":0,"args":{"element_hops":5}},{"ph":"C","name":"element-hops P0","ts":1,"args":{"element_hops":4}}]}"#,
        )
        .expect_err("non-monotone cumulative");
        assert!(
            err.contains("event 1") && err.contains("decreased"),
            "{err}"
        );
    }

    #[test]
    fn validator_reads_the_first_trace_events_member() {
        // other members, before and after, are read for syntax only
        let check = validate(
            r#"{"displayTimeUnit":"ms","traceEvents":[{"ph":"X","ts":0,"dur":1}],"x":[{"ph":"f"}],"traceEvents":[{"ph":"f","ts":0,"id":3}]}"#,
        )
        .expect("the first traceEvents member is the trace");
        assert_eq!((check.events, check.spans), (1, 1));
        for doc in [
            "[]",
            "{}",
            r#"{"traceEvents":{}}"#,
            r#"{"traceEvents":1,"traceEvents":[]}"#,
        ] {
            let err = validate(doc).expect_err(doc);
            assert!(err.contains("missing 'traceEvents' array"), "{doc}: {err}");
        }
        // a syntax error past the trace still fails it, naming its byte
        let err = validate(r#"{"traceEvents":[],"x":tru}"#).expect_err("bad literal");
        assert!(err.contains("bad literal at byte 22"), "{err}");
    }

    #[test]
    fn validator_checks_worker_tracks() {
        let worker0 =
            r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"worker 0"}}"#;

        // a well-formed sched track passes
        let doc = format!(
            r#"{{"traceEvents":[{worker0},{{"ph":"X","pid":1,"tid":0,"name":"poll","cat":"sched","ts":1,"dur":2}},{{"ph":"X","pid":1,"tid":0,"name":"barrier","cat":"sched","ts":3,"dur":1}}]}}"#
        );
        assert_eq!(validate(&doc).expect("valid").spans, 2);

        // sched span on an undeclared track
        let err = validate(
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":9,"name":"poll","cat":"sched","ts":0,"dur":1}]}"#,
        )
        .expect_err("undeclared track");
        assert!(err.contains("undeclared track"), "{err}");

        // sched span timestamps must be per-track monotonic
        let doc = format!(
            r#"{{"traceEvents":[{worker0},{{"ph":"X","pid":1,"tid":0,"name":"poll","cat":"sched","ts":5,"dur":1}},{{"ph":"X","pid":1,"tid":0,"name":"poll","cat":"sched","ts":4,"dur":1}}]}}"#
        );
        let err = validate(&doc).expect_err("backward sched ts");
        assert!(err.contains("go backward"), "{err}");

        // ...but node-track (cat "phase") spans stay exempt
        assert!(validate(
            r#"{"traceEvents":[{"ph":"X","pid":0,"tid":0,"name":"a","cat":"phase","ts":5,"dur":1},{"ph":"X","pid":0,"tid":0,"name":"b","cat":"phase","ts":4,"dur":1}]}"#,
        )
        .is_ok());

        // steal flows must resolve to declared worker tracks
        let doc = format!(
            r#"{{"traceEvents":[{worker0},{{"ph":"s","pid":1,"tid":3,"id":0,"cat":"steal","ts":1}},{{"ph":"f","pid":1,"tid":0,"id":0,"cat":"steal","ts":1}}]}}"#
        );
        let err = validate(&doc).expect_err("steal from undeclared tid");
        assert!(err.contains("steal flow start"), "{err}");

        // a steal flow endpoint on a non-worker track is rejected
        let node = r#"{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"node 3"}}"#;
        let doc = format!(
            r#"{{"traceEvents":[{worker0},{node},{{"ph":"s","pid":1,"tid":3,"id":0,"cat":"steal","ts":1}},{{"ph":"f","pid":1,"tid":0,"id":0,"cat":"steal","ts":1}}]}}"#
        );
        let err = validate(&doc).expect_err("steal from non-worker track");
        assert!(err.contains("not a worker track"), "{err}");
    }
}
