//! Deterministic link-schedule replay — the pricing core behind
//! [`LinkModel::Contended`].
//!
//! Under the contended model every *directed link* (one per `(node,
//! dimension)` pair) carries one message at a time: a message walks its
//! e-cube route in ascending dimension order, waiting for each link's
//! `busy_until` clock before its transfer starts. Arbitration happens at
//! the round barrier, in (round, node-id, program-order) order — exactly
//! the order the executor's serial flush already delivers sends in — so
//! contended virtual time is as deterministic as uncontended time: a pure
//! function of the input, identical on every engine.
//!
//! The same property makes the schedule *replayable*. The algorithms in
//! this workspace are data-oblivious, so the round structure (who runs
//! when, which receive blocks on which send) is a function of the program
//! alone, reconstructible from a trace: `plan_rounds` re-derives each
//! record's round from the per-node record order plus FIFO message
//! matching, mirroring the frontier scheduler's wake rule, and with it the
//! commit order (round, node id, program order) in which the barrier
//! flushes records. On top of that, `commit_order` gives the run-file
//! writer ([`super::replay::run_to_json`]) a buffered observation's
//! records in the order a live sink receives them, [`reprice`] re-prices
//! a traced run under any `(CostModel, LinkModel)` pair, and
//! `contended_times` recovers per-message arrival/wait splits and
//! per-link busy intervals for the analyzers. Their tables are indexed by
//! the nodes holding records, not by the cube.
//!
//! Float arithmetic is not associative, so there is no closed-form
//! "arrival = sent_at + wait + transfer" identity to lean on. Bit-exact
//! agreement between live runs and replays instead comes from sharing
//! *code*: `LinkLedger::acquire` is the one routine that advances link
//! clocks, and every consumer — the live commit barrier, the run-file
//! reader, the repricer, the critical-path analyzer, the Perfetto
//! exporter — executes its float operations in the same order on the same
//! inputs. The engine keeps a clock for every directed link; the offline
//! consumers keep one only for the links their messages cross.
//!
//! [`LinkModel::Contended`]: crate::sim::LinkModel::Contended

use super::perfetto::match_messages;
use super::{NodeObservation, RunObservation, SpanRecord};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};
use std::collections::HashMap;

/// Where a [`LinkLedger`] keeps its busy-until clocks, looked up by link
/// index `node · dim + dimension`; a link never acquired is idle (0).
pub(crate) trait LinkClocks {
    /// The busy-until clock of `link`.
    fn busy(&mut self, link: usize) -> &mut f64;
}

/// One clock per directed link of the cube: the engine's ledger.
impl LinkClocks for Vec<f64> {
    #[inline]
    fn busy(&mut self, link: usize) -> &mut f64 {
        &mut self[link]
    }
}

/// Clocks only for the links acquired so far: the offline ledgers, whose
/// size follows the messages they price, not the cube.
impl LinkClocks for HashMap<usize, f64> {
    fn busy(&mut self, link: usize) -> &mut f64 {
        self.entry(link).or_insert(0.0)
    }
}

/// Busy-until clocks for the directed links of the cube.
///
/// Links are acquired in the deterministic commit order; bit-exact
/// live/replay agreement relies on both sides calling this exact routine
/// with the same inputs in the same order.
pub(crate) struct LinkLedger<C: LinkClocks = Vec<f64>> {
    dim: usize,
    busy: C,
}

/// A [`LinkLedger`] that keeps clocks only for the links its messages
/// cross: what the run-file reader and the offline analyzers price with.
pub(crate) type SparseLedger = LinkLedger<HashMap<usize, f64>>;

impl LinkLedger {
    /// All links idle at time zero for a `dim`-cube of `nodes` addresses.
    pub(crate) fn new(dim: usize, nodes: usize) -> Self {
        LinkLedger {
            dim,
            busy: vec![0.0; dim * nodes],
        }
    }
}

impl SparseLedger {
    /// All links of a `dim`-cube idle at time zero, none yet kept.
    pub(crate) fn sparse(dim: usize) -> Self {
        LinkLedger {
            dim,
            busy: HashMap::new(),
        }
    }
}

impl<C: LinkClocks> LinkLedger<C> {
    /// Routes one message along its e-cube links (ascending set bits of
    /// `src ^ dst`), serializing on each link's busy clock. Detour hops
    /// beyond the Hamming distance are charged as an uncontended serial
    /// tail — fault detours take per-route links the dimension walk cannot
    /// name. Returns `(arrival, wait)` where `wait` is the total time the
    /// message spent queued behind busy links.
    pub(crate) fn acquire(
        &mut self,
        src: NodeId,
        dst: NodeId,
        elements: usize,
        hops: u32,
        sent_at: f64,
        cost: &CostModel,
    ) -> (f64, f64) {
        self.acquire_with(src, dst, elements, hops, sent_at, cost, |_, _, _, _, _| ())
    }

    /// [`acquire`](Self::acquire), reporting each link hop to `visit` as
    /// `(hop source node index, dimension, queued_at, start, end)` — the
    /// Perfetto exporter builds its occupancy and queue-depth counter
    /// tracks from these.
    #[allow(clippy::too_many_arguments)] // one message's full addressing + pricing context
    pub(crate) fn acquire_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        elements: usize,
        hops: u32,
        sent_at: f64,
        cost: &CostModel,
        mut visit: impl FnMut(usize, usize, f64, f64, f64),
    ) -> (f64, f64) {
        let mut t = sent_at;
        let mut wait = 0.0;
        let mut cur = src.raw();
        let direct = src.raw() ^ dst.raw();
        let mut crossed = 0u32;
        for d in 0..self.dim {
            if direct >> d & 1 == 1 {
                let busy = self.busy.busy(cur as usize * self.dim + d);
                let start = if *busy > t {
                    wait += *busy - t;
                    *busy
                } else {
                    t
                };
                let end = start + cost.transfer(elements, 1);
                visit(cur as usize, d, t, start, end);
                *busy = end;
                t = end;
                cur ^= 1 << d;
                crossed += 1;
            }
        }
        if hops > crossed {
            t += cost.transfer(elements, hops - crossed);
        }
        (t, wait)
    }
}

/// Re-derives each item's frontier round from per-node program order.
///
/// `per_node[n]` lists node `n`'s items in program order as `(id,
/// awaits)`: `awaits = Some(s)` marks a receive that blocks until item
/// `s` (its matched send) has been *delivered* — assigned to a strictly
/// earlier round. This mirrors the engines' scheduler exactly: every
/// participant starts in round 0, runs until a receive whose message has
/// not been delivered, and wakes in the round after the barrier that
/// delivers it. Nodes are listed in ascending address order. Returns the
/// round of every id, and the ids in the order they were assigned —
/// round by round, node by node, each node's items in program order:
/// the commit order in which the barrier flushes records and acquires
/// links.
fn plan_rounds(per_node: &[Vec<(usize, Option<usize>)>], total: usize) -> (Vec<u32>, Vec<usize>) {
    let mut rounds = vec![0u32; total];
    let mut assigned = vec![false; total];
    let mut order = Vec::with_capacity(total);
    let mut p = vec![0usize; per_node.len()];
    let mut forced = vec![false; per_node.len()];
    let mut parked: Vec<(usize, usize)> = Vec::new();
    let mut frontier: Vec<usize> = (0..per_node.len())
        .filter(|&n| !per_node[n].is_empty())
        .collect();
    let mut r: u32 = 0;
    while !frontier.is_empty() {
        for &n in &frontier {
            while let Some(&(id, awaits)) = per_node[n].get(p[n]) {
                if let Some(s) = awaits {
                    let delivered = assigned[s] && rounds[s] < r;
                    if !delivered && !forced[n] {
                        parked.push((n, s));
                        break;
                    }
                    forced[n] = false;
                }
                rounds[id] = r;
                assigned[id] = true;
                order.push(id);
                p[n] += 1;
            }
        }
        frontier.clear();
        parked.retain(|&(n, s)| {
            if assigned[s] && rounds[s] <= r {
                frontier.push(n);
                false
            } else {
                true
            }
        });
        if frontier.is_empty() && !parked.is_empty() {
            // A truncated or hand-edited file can await a send that never
            // runs; force the blocked receives through deterministically
            // rather than spinning.
            for &(n, _) in &parked {
                forced[n] = true;
                frontier.push(n);
            }
            parked.clear();
        }
        frontier.sort_unstable();
        r += 1;
    }
    (rounds, order)
}

/// An observation's schedule, re-derived from per-node record order and
/// FIFO message matching. Records are numbered trace events first (by
/// index), then span boundaries, if planned.
struct Plan {
    /// The nodes holding records, ascending: the participants and any
    /// other node the trace names.
    nodes: Vec<NodeId>,
    /// Per record: its round.
    rounds: Vec<u32>,
    /// Record ids in commit order: (round, node id, program order).
    order: Vec<usize>,
    /// Per event: a receive's matched send (`usize::MAX` for other events
    /// and for receives the trace holds no send for).
    send_of: Vec<usize>,
    /// Per span boundary, record id `events + k`: its node and the phase
    /// it enters (`None`: an exit).
    bounds: Vec<(NodeId, Option<u16>)>,
}

impl Plan {
    /// The slot of `node` in [`nodes`](Self::nodes).
    fn slot(&self, node: NodeId) -> usize {
        self.nodes
            .binary_search(&node)
            .expect("every record's node is planned")
    }
}

/// Plans `obs`'s trace events and, with `spans`, its span boundaries at
/// their program-order positions ([`NodeObservation::span_at`]); spans
/// without positions follow their node's other records. Tables are
/// indexed by the nodes holding records, not by the cube.
fn plan(obs: &RunObservation, spans: bool) -> Plan {
    let events = obs.trace.events();
    let mut send_of = vec![usize::MAX; events.len()];
    for (s, r) in match_messages(&obs.trace) {
        send_of[r] = s;
    }
    let mut nodes: Vec<NodeId> = obs
        .nodes
        .iter()
        .map(|n| n.node)
        .chain(events.iter().map(|e| e.node))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut plan = Plan {
        nodes,
        rounds: Vec::new(),
        order: Vec::new(),
        send_of,
        bounds: Vec::new(),
    };
    let mut per_node: Vec<Vec<(usize, Option<usize>)>> = vec![Vec::new(); plan.nodes.len()];
    for (i, e) in events.iter().enumerate() {
        let s = plan.send_of[i];
        let awaits = (matches!(e.kind, TraceKind::Recv { .. }) && s != usize::MAX).then_some(s);
        per_node[plan.slot(e.node)].push((i, awaits));
    }
    if spans {
        for n in &obs.nodes {
            let mut marks: Vec<(usize, Option<u16>)> = n
                .spans
                .iter()
                .zip(&n.span_at)
                .flat_map(|(s, &(begin_at, end_at))| [(begin_at, Some(s.phase)), (end_at, None)])
                .collect();
            marks.sort_unstable_by_key(|&(at, _)| at);
            let unplaced = n
                .spans
                .iter()
                .skip(n.span_at.len())
                .flat_map(|s| [Some(s.phase), None]);
            let items = &mut per_node[plan.slot(n.node)];
            let mut merged = Vec::with_capacity(items.len() + marks.len());
            let mut marks = marks.into_iter().peekable();
            let mut bound = |merged: &mut Vec<_>, phase| {
                merged.push((events.len() + plan.bounds.len(), None));
                plan.bounds.push((n.node, phase));
            };
            for &item in items.iter() {
                while let Some((_, phase)) = marks.next_if(|&(at, _)| at <= merged.len()) {
                    bound(&mut merged, phase);
                }
                merged.push(item);
            }
            for phase in marks.map(|(_, phase)| phase).chain(unplaced) {
                bound(&mut merged, phase);
            }
            *items = merged;
        }
    }
    (plan.rounds, plan.order) = plan_rounds(&per_node, events.len() + plan.bounds.len());
    plan
}

/// One record of a run, as a run file holds it.
pub(crate) enum Record<'a> {
    /// A trace event.
    Event(&'a TraceEvent),
    /// A span boundary on a node: `Some(phase)` enters a span, `None`
    /// exits the innermost open one.
    Span(NodeId, Option<u16>),
}

/// `obs`'s records — trace events and span boundaries — in the order a
/// live run's sinks receive them: the commit order (round, node id,
/// program order), each boundary in the round its node ran it in. A run
/// file written in this order prices contended links and matches
/// messages in the order the engine did.
pub(crate) fn commit_order(obs: &RunObservation) -> impl Iterator<Item = Record<'_>> {
    let events = obs.trace.events();
    let Plan { order, bounds, .. } = plan(obs, true);
    order.into_iter().map(move |id| match events.get(id) {
        Some(e) => Record::Event(e),
        None => {
            let (node, phase) = bounds[id - events.len()];
            Record::Span(node, phase)
        }
    })
}

/// One link acquisition: the message reached the link's queue at
/// `queued_at`, held it from `start` to `end`.
pub(crate) struct LinkSpan {
    pub(crate) dim: usize,
    pub(crate) queued_at: f64,
    pub(crate) start: f64,
    pub(crate) end: f64,
}

/// Per-message arrival/wait splits and the full link-busy timeline of a
/// contended run, recovered by replaying the recorded schedule through
/// [`LinkLedger`] in commit order. For an observation produced live under
/// [`LinkModel::Contended`] the recovered values are bit-identical to the
/// ones the engine computed.
pub(crate) struct ContendedTimes {
    /// Per event index: a receive's message arrival (its send carries the
    /// same value); `NaN` for computes and unmatched receives.
    pub(crate) arrival: Vec<f64>,
    /// Per event index: the message's total link wait (send and receive
    /// sides carry the same value); `0.0` elsewhere.
    pub(crate) wait: Vec<f64>,
    /// Every link acquisition, in commit order.
    pub(crate) links: Vec<LinkSpan>,
}

/// Replays `obs`'s schedule under its own cost model and the contended
/// link model. See [`ContendedTimes`].
pub(crate) fn contended_times(obs: &RunObservation) -> ContendedTimes {
    let events = obs.trace.events();
    let Plan { order, send_of, .. } = plan(obs, false);
    let mut arrival = vec![f64::NAN; events.len()];
    let mut wait = vec![0.0f64; events.len()];
    let mut links = Vec::new();
    let mut ledger = LinkLedger::sparse(obs.dim);
    for &i in &order {
        if let TraceKind::Send { to, elements, hops } = events[i].kind {
            let (a, w) = ledger.acquire_with(
                events[i].node,
                to,
                elements,
                hops,
                events[i].time,
                &obs.cost,
                |_, d, queued_at, start, end| {
                    links.push(LinkSpan {
                        dim: d,
                        queued_at,
                        start,
                        end,
                    });
                },
            );
            arrival[i] = a;
            wait[i] = w;
        }
    }
    for (i, e) in events.iter().enumerate() {
        if matches!(e.kind, TraceKind::Recv { .. }) && send_of[i] != usize::MAX {
            arrival[i] = arrival[send_of[i]];
            wait[i] = wait[send_of[i]];
        }
    }
    ContendedTimes {
        arrival,
        wait,
        links,
    }
}

/// Translates an old-timeline instant on one node into the new timeline
/// through the last of the node's first `events` `(old, new)` event
/// checkpoints (program order), carrying the un-evented residual verbatim.
fn shift(cps: &[(f64, f64)], events: usize, t: f64) -> f64 {
    match cps[..events.min(cps.len())].last() {
        None => t,
        Some(&(old, new)) => new + (t - old),
    }
}

/// Re-prices a traced run under a new `(CostModel, LinkModel)` pair.
///
/// The recorded schedule — rounds, message matching, per-node program
/// order — is cost- and contention-independent (round scheduling blocks
/// on *delivery rounds*, never on clock values), so it is replayed as-is
/// with every charge recomputed: sends advance the port by
/// `transfer(elements, min(hops,1))`, barriers price each round's sends
/// through `LinkLedger` (or the uncontended closed form), and receives
/// jump to `max(local, arrival)`. A clock advance no event accounts for
/// is carried into the new timeline verbatim as a residual; the engines
/// record an event for every advance, so residuals arise only from edited
/// or truncated run files. A span boundary maps through the last node
/// event before its program-order position
/// ([`NodeObservation::span_at`]). Events, clocks, span boundaries,
/// counters and metrics are bit-identical to a live run under the target
/// model (pinned on every instance of `tests/engine_diff.rs`). Re-pricing
/// to the run's own model and a new [`CostModel`] is the what-if
/// re-costing of `ftsort-cli replay --recost`.
///
/// Errors if the observation carries no trace events — without the event
/// stream there is no schedule to re-price — or spans without positions.
pub fn reprice(
    obs: &RunObservation,
    new_cost: CostModel,
    new_model: LinkModel,
) -> Result<RunObservation, String> {
    if obs.trace.is_empty() {
        return Err("run has no trace events — was the sort traced?".into());
    }
    if obs.nodes.iter().any(|n| n.span_at.len() != n.spans.len()) {
        return Err("spans carry no program positions".into());
    }
    let events = obs.trace.events();
    let plan = plan(obs, false);
    let (rounds, order, send_of) = (&plan.rounds, &plan.order, &plan.send_of);
    let len = plan.nodes.len();

    let mut old_clock = vec![0.0f64; len];
    let mut new_clock = vec![0.0f64; len];
    let mut blocked = vec![0.0f64; len];
    let mut link_wait = vec![0.0f64; len];
    let mut dim_busy: Vec<Vec<f64>> = vec![vec![0.0; obs.dim]; len];
    let mut new_time = vec![0.0f64; events.len()];
    // Per *send* index: the message's arrival and wait under the new
    // model, filled at its round's barrier.
    let mut arrival = vec![f64::NAN; events.len()];
    let mut waits = vec![0.0f64; events.len()];
    let mut checkpoints: Vec<Vec<(f64, f64)>> = vec![Vec::new(); len];
    let mut ledger = LinkLedger::sparse(obs.dim);
    let mut pending_sends: Vec<usize> = Vec::new();
    let mut cur_round = 0u32;

    let mut idx = 0;
    loop {
        let boundary = idx == order.len() || rounds[order[idx]] != cur_round;
        if boundary {
            // The round's barrier: price its sends in commit order.
            for &s in &pending_sends {
                let (to, elements, hops) = match events[s].kind {
                    TraceKind::Send { to, elements, hops } => (to, elements, hops),
                    _ => unreachable!("pending_sends holds sends"),
                };
                let sent_at = new_time[s];
                let (a, w) = match new_model {
                    LinkModel::Contended => {
                        ledger.acquire(events[s].node, to, elements, hops, sent_at, &new_cost)
                    }
                    LinkModel::Uncontended => (sent_at + new_cost.transfer(elements, hops), 0.0),
                };
                arrival[s] = a;
                waits[s] = w;
            }
            pending_sends.clear();
            if idx == order.len() {
                break;
            }
            cur_round = rounds[order[idx]];
            continue;
        }
        let i = order[idx];
        idx += 1;
        let e = &events[i];
        let n = plan.slot(e.node);
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
                pending_sends.push(i);
            }
            TraceKind::Recv { .. } => {
                let before = new_clock[n];
                let s = send_of[i];
                if s == usize::MAX {
                    // No matching send in the file (truncated run):
                    // preserve the recorded forward jump.
                    new_clock[n] += (e.time - old_clock[n]).max(0.0);
                } else {
                    new_clock[n] = new_clock[n].max(arrival[s]);
                    link_wait[n] += waits[s];
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

    let new_events: Vec<TraceEvent> = events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = *e;
            e.time = new_time[i];
            if let TraceKind::Recv { ref mut wait, .. } = e.kind {
                let s = send_of[i];
                *wait = if s == usize::MAX { 0.0 } else { waits[s] };
            }
            e
        })
        .collect();

    let nodes = obs
        .nodes
        .iter()
        .map(|node| {
            let n = plan.slot(node.node);
            let mut metrics = node.metrics.clone();
            metrics.blocked_us = blocked[n];
            metrics.link_wait_us = link_wait[n];
            metrics.dim_busy_us = dim_busy[n].clone();
            let cps = &checkpoints[n];
            // The node events before a boundary: the records before
            // its position, less the boundaries among them.
            let mut bounds: Vec<usize> = node.span_at.iter().flat_map(|&(b, e)| [b, e]).collect();
            bounds.sort_unstable();
            let at = |pos: usize, t: f64| {
                let events = pos.saturating_sub(bounds.partition_point(|&b| b < pos));
                shift(cps, events, t)
            };
            NodeObservation {
                node: node.node,
                clock: shift(cps, cps.len(), node.clock),
                stats: node.stats,
                spans: node
                    .spans
                    .iter()
                    .zip(&node.span_at)
                    .map(|(s, &(begin_at, end_at))| SpanRecord {
                        begin: at(begin_at, s.begin),
                        end: at(end_at, s.end),
                        ..*s
                    })
                    .collect(),
                span_at: node.span_at.clone(),
                metrics,
            }
        })
        .collect();

    Ok(RunObservation {
        dim: obs.dim,
        cost: new_cost,
        link_model: new_model,
        trace: Trace::from_events(new_events),
        nodes,
        key_type: obs.key_type.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_serializes_a_shared_link() {
        let cost = CostModel {
            t_sr: 1.0,
            t_c: 1.0,
            t_startup: 0.0,
        };
        let mut ledger = LinkLedger::new(2, 4);
        // Two messages from node 0 across dimension 0, back to back.
        let (a1, w1) = ledger.acquire(NodeId::new(0), NodeId::new(1), 10, 1, 0.0, &cost);
        assert_eq!((a1, w1), (10.0, 0.0));
        let (a2, w2) = ledger.acquire(NodeId::new(0), NodeId::new(1), 10, 1, 2.0, &cost);
        assert_eq!(a2, 20.0, "second transfer starts when the link frees");
        assert_eq!(w2, 8.0);
        // The reverse direction is a different directed link.
        let (a3, w3) = ledger.acquire(NodeId::new(1), NodeId::new(0), 10, 1, 0.0, &cost);
        assert_eq!((a3, w3), (10.0, 0.0));
    }

    #[test]
    fn ledger_charges_detours_as_serial_tail() {
        let cost = CostModel {
            t_sr: 1.0,
            t_c: 1.0,
            t_startup: 5.0,
        };
        let mut ledger = LinkLedger::new(3, 8);
        // Hamming distance 1, but 3 hops charged (fault detour).
        let (a, w) = ledger.acquire(NodeId::new(0), NodeId::new(1), 4, 3, 0.0, &cost);
        assert_eq!(w, 0.0);
        assert_eq!(a, cost.transfer(4, 1) + cost.transfer(4, 2));
        // Self-send crosses no link.
        let (a, w) = ledger.acquire(NodeId::new(2), NodeId::new(2), 4, 0, 7.0, &cost);
        assert_eq!((a, w), (7.0, 0.0));
    }

    #[test]
    fn plan_rounds_mirrors_the_frontier_wake_rule() {
        // Node 0: send(id 0), recv awaiting id 3 (id 1).
        // Node 1: recv awaiting id 0 (id 2), send (id 3).
        let per_node = vec![vec![(0, None), (1, Some(3))], vec![(2, Some(0)), (3, None)]];
        let (rounds, order) = plan_rounds(&per_node, 4);
        // Round 0: node 0 sends then parks; node 1 parks immediately.
        // Round 1: node 1 wakes (send 0 delivered at barrier 0), recvs and
        // sends. Round 2: node 0 wakes (send 3 delivered at barrier 1).
        assert_eq!(rounds, vec![0, 2, 1, 1]);
        assert_eq!(order, vec![0, 2, 3, 1], "commit order");
    }
}
