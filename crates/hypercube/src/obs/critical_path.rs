//! Critical-path extraction over a completed run's happens-before graph.
//!
//! The graph has one edge class per node (program order: each traced
//! event happens after the previous one on the same node) plus one per
//! message (a receive happens after its send, delayed by the transfer
//! cost). The *critical path* is the chain of edges that produced the
//! run's makespan: walking it tells you which phases actually gated the
//! finish time, which is exactly the attribution question behind the
//! paper's Table 1/2 overhead columns.
//!
//! The walk runs **backward** from the node with the largest final clock.
//! At each receive we recompute the message's arrival time
//! `send_event.time + cost.transfer(elements, hops)` — reproducible
//! exactly because the engines stamp `sent_at` with the sender's clock
//! *after* the send (the send event's own timestamp) and
//! `VirtualClock::receive` takes `max(local, arrival)` with no further
//! arithmetic. If the receive's timestamp equals the arrival, the message
//! edge was binding (ties prefer the transfer edge — a wait of zero still
//! means the node had nothing else to do) and the walk jumps to the
//! sender; otherwise local work was binding and the walk continues on the
//! same node. Segments are contiguous over `[0, makespan]` by
//! construction, so per-phase attribution sums to the makespan (up to
//! float dust from telescoping differences).
//!
//! Requires the event trace: attach a [`Trace`](crate::sim::Trace) sink
//! (a sort's `FtConfig::tracing` does), or replay a run file.

use super::{RunObservation, SpanRecord};
use crate::address::NodeId;
use crate::sim::{LinkModel, TraceKind};
use std::fmt::Write as _;

/// Why a stretch of the critical path took the time it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// The node itself was computing (or locally bound across a receive).
    Local,
    /// A message transfer gated progress: the receiver sat waiting.
    Transfer,
    /// The binding message sat queued behind busy links before its
    /// transfer began — only produced under [`LinkModel::Contended`].
    Wait,
}

/// One contiguous stretch of the critical path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathSegment {
    /// The node whose clock this stretch ran on (the *receiver* for
    /// transfer segments).
    pub node: NodeId,
    /// The sending node, for transfer segments.
    pub from: Option<NodeId>,
    /// Virtual start, µs.
    pub begin: f64,
    /// Virtual end, µs (`>= begin`).
    pub end: f64,
    /// Local work or message transfer.
    pub kind: SegmentKind,
}

impl PathSegment {
    /// Segment length in µs.
    pub fn duration(&self) -> f64 {
        self.end - self.begin
    }
}

/// The extracted critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// The run's makespan (the path's total extent), µs.
    pub makespan: f64,
    /// The node that finished last — where the backward walk started.
    pub end_node: NodeId,
    /// Contiguous segments in forward time order, covering
    /// `[0, makespan]`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Extracts the critical path from a traced run. Returns `None` when
    /// the observation has no trace (tracing was off) or no participants.
    pub fn compute(obs: &RunObservation) -> Option<CriticalPath> {
        let end = obs.nodes.iter().max_by(|a, b| {
            a.clock
                .total_cmp(&b.clock)
                .then(b.node.raw().cmp(&a.node.raw()))
        })?;
        if obs.trace.is_empty() {
            return None;
        }
        let events = obs.trace.events();

        // Per-address ascending lists of global event indices.
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); 1 << obs.dim];
        for (i, e) in events.iter().enumerate() {
            per_node[e.node.index()].push(i);
        }
        // recv event index -> send event index
        let mut send_of = vec![usize::MAX; events.len()];
        for (s, r) in super::perfetto::match_messages(&obs.trace) {
            send_of[r] = s;
        }
        // Under contention, arrivals come from replaying the schedule
        // through the shared link ledger — bit-identical to the live
        // engine's values. The uncontended closed form stays inline so
        // that path's floats are untouched.
        let contended =
            (obs.link_model == LinkModel::Contended).then(|| super::schedule::contended_times(obs));

        let mut segments: Vec<PathSegment> = Vec::new();
        let mut node = end.node;
        let mut cursor = end.clock;
        // iterate this node's events at local positions < bound
        let mut bound = per_node[node.index()].len();
        loop {
            let list = &per_node[node.index()];
            let mut jumped = false;
            while bound > 0 {
                bound -= 1;
                let idx = list[bound];
                let e = &events[idx];
                if let TraceKind::Recv { .. } = e.kind {
                    let s_idx = send_of[idx];
                    if s_idx != usize::MAX {
                        let s = &events[s_idx];
                        let (elements, hops) = match s.kind {
                            TraceKind::Send { elements, hops, .. } => (elements, hops),
                            _ => unreachable!("matched send is a Send event"),
                        };
                        let (arrival, wait) = match &contended {
                            Some(ct) => (ct.arrival[idx], ct.wait[idx]),
                            None => (s.time + obs.cost.transfer(elements, hops), 0.0),
                        };
                        if arrival == e.time {
                            // The transfer edge was binding: close the
                            // local stretch after the receive, record the
                            // transfer (split off the link-queue wait,
                            // front-aligned, if any), jump to the sender.
                            if cursor > e.time {
                                segments.push(PathSegment {
                                    node,
                                    from: None,
                                    begin: e.time,
                                    end: cursor,
                                    kind: SegmentKind::Local,
                                });
                            }
                            segments.push(PathSegment {
                                node,
                                from: Some(s.node),
                                begin: if wait > 0.0 { s.time + wait } else { s.time },
                                end: e.time,
                                kind: SegmentKind::Transfer,
                            });
                            if wait > 0.0 {
                                segments.push(PathSegment {
                                    node,
                                    from: Some(s.node),
                                    begin: s.time,
                                    end: s.time + wait,
                                    kind: SegmentKind::Wait,
                                });
                            }
                            cursor = s.time;
                            node = s.node;
                            // resume on the sender strictly before its send
                            let s_list = &per_node[node.index()];
                            bound = s_list.iter().position(|&g| g == s_idx).unwrap();
                            jumped = true;
                            break;
                        }
                    }
                }
            }
            if !jumped {
                // Program start reached: everything left is local.
                if cursor > 0.0 {
                    segments.push(PathSegment {
                        node,
                        from: None,
                        begin: 0.0,
                        end: cursor,
                        kind: SegmentKind::Local,
                    });
                }
                break;
            }
        }
        segments.reverse();
        Some(CriticalPath {
            makespan: end.clock,
            end_node: end.node,
            segments,
        })
    }

    /// Attributes the path's time to phases: each segment is charged to
    /// the innermost span (smallest duration, ties to the latest begin)
    /// covering its midpoint on its node; time outside any span is
    /// charged to `(unattributed)`. Rows come back in first-occurrence
    /// order along the path and sum to the makespan (up to float dust).
    pub fn attribute(
        &self,
        obs: &RunObservation,
        namer: &dyn Fn(u16) -> Option<&'static str>,
    ) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = Vec::new();
        for seg in &self.segments {
            let name = match covering_span(obs, seg.node, (seg.begin + seg.end) / 2.0) {
                Some(span) => match namer(span.phase) {
                    Some(s) => s.to_string(),
                    None => format!("phase-{}", span.phase),
                },
                None => "(unattributed)".to_string(),
            };
            match rows.iter_mut().find(|(n, _)| *n == name) {
                Some((_, us)) => *us += seg.duration(),
                None => rows.push((name, seg.duration())),
            }
        }
        rows
    }
}

/// The innermost span on `node` covering virtual time `t`.
pub(crate) fn covering_span(obs: &RunObservation, node: NodeId, t: f64) -> Option<SpanRecord> {
    obs.node(node)?
        .spans
        .iter()
        .filter(|s| s.contains(t))
        .min_by(|a, b| {
            a.duration()
                .total_cmp(&b.duration())
                .then(b.begin.total_cmp(&a.begin))
        })
        .copied()
}

/// Renders the standard critical-path report body: makespan and transfer
/// share, the per-phase on-path attribution table, and the gantt chart.
/// This is the shared renderer behind the `critical_path` bench binary
/// and `ftsort-cli replay --critical-path`, so a live run and its replay
/// can be compared byte for byte.
pub fn render_report(
    obs: &RunObservation,
    path: &CriticalPath,
    namer: &dyn Fn(u16) -> Option<&'static str>,
    width: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "makespan {:.1} us, path of {} segments ending at node {}",
        path.makespan,
        path.segments.len(),
        path.end_node.raw()
    );
    let transfer_us: f64 = path
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Transfer)
        .map(|s| s.duration())
        .sum();
    let wait_us: f64 = path
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Wait)
        .map(|s| s.duration())
        .sum();
    if wait_us > 0.0 {
        let _ = writeln!(
            out,
            "gated by message transfers for {:.1} us ({:.1}% of the path)",
            transfer_us,
            100.0 * transfer_us / path.makespan
        );
        let _ = writeln!(
            out,
            "queued behind busy links for {:.1} us ({:.1}% of the path)\n",
            wait_us,
            100.0 * wait_us / path.makespan
        );
    } else {
        let _ = writeln!(
            out,
            "gated by message transfers for {:.1} us ({:.1}% of the path)\n",
            transfer_us,
            100.0 * transfer_us / path.makespan
        );
    }
    let _ = writeln!(out, "{:<16} {:>12} {:>7}", "phase", "on-path us", "share");
    let _ = writeln!(out, "{}", "-".repeat(37));
    let rows = path.attribute(obs, namer);
    let mut sum = 0.0;
    for (name, us) in &rows {
        sum += us;
        let _ = writeln!(
            out,
            "{name:<16} {us:>12.1} {:>6.1}%",
            100.0 * us / path.makespan
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(37));
    let _ = writeln!(
        out,
        "{:<16} {sum:>12.1} {:>6.1}%\n",
        "total",
        100.0 * sum / path.makespan
    );
    debug_assert!((sum - path.makespan).abs() <= 1e-6 * path.makespan.max(1.0));
    out.push_str(&gantt(obs, path, namer, width));
    out
}

/// Renders an ASCII gantt chart of the run: one row per node, one column
/// per time slice, letters keyed to phase names (legend below), with the
/// critical path capitalized (`*` where it crosses uninstrumented time).
/// `·` is instrumentation-free time, space is time after the node's final
/// clock.
pub fn gantt(
    obs: &RunObservation,
    path: &CriticalPath,
    namer: &dyn Fn(u16) -> Option<&'static str>,
    width: usize,
) -> String {
    let width = width.max(10);
    let makespan = path.makespan.max(f64::MIN_POSITIVE);
    let mut legend: Vec<String> = Vec::new();
    let letter = |i: usize| (b'a' + (i % 26) as u8) as char;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt: {} cols x {:.1} us/col, makespan {:.1} us, critical path ends at node {}",
        width,
        makespan / width as f64,
        makespan,
        path.end_node.raw()
    );
    for n in &obs.nodes {
        let mut row = String::with_capacity(width);
        for col in 0..width {
            let t = (col as f64 + 0.5) * makespan / width as f64;
            let on_path = path
                .segments
                .iter()
                .any(|s| s.node == n.node && s.begin <= t && t <= s.end);
            let ch = if t > n.clock {
                ' '
            } else {
                match covering_span(obs, n.node, t) {
                    Some(span) => {
                        let name = match namer(span.phase) {
                            Some(s) => s.to_string(),
                            None => format!("phase-{}", span.phase),
                        };
                        let idx = match legend.iter().position(|l| *l == name) {
                            Some(i) => i,
                            None => {
                                legend.push(name);
                                legend.len() - 1
                            }
                        };
                        let c = letter(idx);
                        if on_path {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    }
                    None if on_path => '*',
                    None => '·',
                }
            };
            row.push(ch);
        }
        let mut spans_us: Vec<(f64, f64)> = n.spans.iter().map(|s| (s.begin, s.end)).collect();
        let busy = super::union_us(&mut spans_us);
        let _ = writeln!(
            out,
            "P{:<3} |{row}| busy {:>5.1}% blocked {:>5.1}% idle {:>5.1}%",
            n.node.raw(),
            100.0 * busy / makespan,
            100.0 * n.metrics.blocked_us / makespan,
            100.0 * (n.clock - busy).max(0.0) / makespan,
        );
    }
    if !legend.is_empty() {
        out.push_str("legend:");
        for (i, name) in legend.iter().enumerate() {
            let _ = write!(out, " {}={}", letter(i), name);
        }
        out.push('\n');
    }
    out.push_str("(uppercase/'*' = on the critical path, '·' = outside any span)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::obs::{NodeMetrics, NodeObservation};
    use crate::sim::{Tag, Trace, TraceEvent};
    use crate::stats::RunStats;

    /// Hand-built two-node run: node 1 computes 10us, sends 4 elements
    /// 1 hop to node 0, which was waiting since t=2. Transfer cost under
    /// `paper_form` (startup-free): 3.2 * 4 * 1 = 12.8us on the wire, and
    /// the sender charges itself the same for the port. Send event time =
    /// 22.8, arrival at node 0 = 22.8 + 12.8 = 35.6 (binding: node 0's
    /// local clock was 2).
    fn two_node_obs() -> RunObservation {
        let cost = CostModel::paper_form();
        let tag = Tag::phase(3, 0, 0);
        let send_time = 10.0 + cost.transfer(4, 1);
        let arrival = send_time + cost.transfer(4, 1);
        let trace = Trace::from_events(vec![
            TraceEvent {
                time: 2.0,
                node: NodeId::new(0),
                tag: Tag::new(0),
                kind: TraceKind::Compute { comparisons: 1 },
            },
            TraceEvent {
                time: 10.0,
                node: NodeId::new(1),
                tag: Tag::new(0),
                kind: TraceKind::Compute { comparisons: 5 },
            },
            TraceEvent {
                time: send_time,
                node: NodeId::new(1),
                tag,
                kind: TraceKind::Send {
                    to: NodeId::new(0),
                    elements: 4,
                    hops: 1,
                },
            },
            TraceEvent {
                time: arrival,
                node: NodeId::new(0),
                tag,
                kind: TraceKind::Recv {
                    from: NodeId::new(1),
                    elements: 4,
                    wait: 0.0,
                },
            },
        ]);
        let node = |id: u32, clock: f64, spans: Vec<SpanRecord>| NodeObservation {
            node: NodeId::new(id),
            clock,
            stats: RunStats::new(),
            spans,
            span_at: Vec::new(),
            metrics: NodeMetrics::new(1),
        };
        RunObservation {
            key_type: None,
            dim: 1,
            cost,
            link_model: LinkModel::Uncontended,
            trace,
            nodes: vec![
                node(
                    0,
                    arrival + 1.0,
                    vec![SpanRecord {
                        phase: 3,
                        begin: 0.0,
                        end: arrival + 1.0,
                    }],
                ),
                node(
                    1,
                    send_time,
                    vec![SpanRecord {
                        phase: 9,
                        begin: 0.0,
                        end: send_time,
                    }],
                ),
            ],
        }
    }

    #[test]
    fn walks_across_the_binding_transfer() {
        let obs = two_node_obs();
        let cp = CriticalPath::compute(&obs).expect("path");
        assert_eq!(cp.end_node, NodeId::new(0));
        let makespan = obs.makespan();
        assert_eq!(cp.makespan, makespan);
        // forward order: node 1 local, transfer 1->0, node 0 local tail
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.segments[0].node, NodeId::new(1));
        assert_eq!(cp.segments[0].kind, SegmentKind::Local);
        assert_eq!(cp.segments[0].begin, 0.0);
        assert_eq!(cp.segments[1].kind, SegmentKind::Transfer);
        assert_eq!(cp.segments[1].from, Some(NodeId::new(1)));
        assert_eq!(cp.segments[1].node, NodeId::new(0));
        assert_eq!(cp.segments[2].kind, SegmentKind::Local);
        assert_eq!(cp.segments[2].end, makespan);
        // contiguous
        assert_eq!(cp.segments[0].end, cp.segments[1].begin);
        assert_eq!(cp.segments[1].end, cp.segments[2].begin);
        // attribution sums to the makespan
        let namer = |p: u16| match p {
            3 => Some("recv-side"),
            9 => Some("send-side"),
            _ => None,
        };
        let rows = cp.attribute(&obs, &namer);
        let total: f64 = rows.iter().map(|(_, us)| us).sum();
        assert!((total - makespan).abs() < 1e-9 * makespan.max(1.0));
        assert_eq!(rows[0].0, "send-side");
        // transfer + tail both land on node 0's span
        assert_eq!(rows[1].0, "recv-side");
    }

    #[test]
    fn local_bound_receive_stays_on_the_node() {
        // Same trace, but pretend the receiver's clock was already past
        // the arrival: bump the recv event time so arrival != recv time.
        let mut obs = two_node_obs();
        let mut events = obs.trace.events().to_vec();
        for e in &mut events {
            if matches!(e.kind, TraceKind::Recv { .. }) {
                e.time += 5.0; // now local-bound (arrival < recv time)
            }
        }
        let clock = events.iter().map(|e| e.time).fold(0.0, f64::max) + 1.0;
        obs.trace = Trace::from_events(events);
        obs.nodes[0].clock = clock;
        let cp = CriticalPath::compute(&obs).expect("path");
        // the walk never leaves node 0
        assert!(cp.segments.iter().all(|s| s.node == NodeId::new(0)));
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].kind, SegmentKind::Local);
        assert_eq!(cp.segments[0].begin, 0.0);
        assert_eq!(cp.segments[0].end, clock);
    }

    #[test]
    fn no_trace_means_no_path() {
        let mut obs = two_node_obs();
        obs.trace = Trace::default();
        assert!(CriticalPath::compute(&obs).is_none());
    }

    #[test]
    fn gantt_renders_all_nodes_and_legend() {
        let obs = two_node_obs();
        let cp = CriticalPath::compute(&obs).expect("path");
        let namer = |p: u16| match p {
            3 => Some("recv-side"),
            9 => Some("send-side"),
            _ => None,
        };
        let chart = gantt(&obs, &cp, &namer, 40);
        assert!(chart.contains("P0"));
        assert!(chart.contains("P1"));
        assert!(chart.contains("legend:"));
        assert!(chart.contains("recv-side"));
        assert!(chart.contains("send-side"));
        // node 1's span is on the critical path -> uppercase letters
        assert!(chart.contains('B') || chart.contains('A'));
    }
}
