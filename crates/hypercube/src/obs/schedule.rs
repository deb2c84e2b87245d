//! Deterministic link-schedule replay — the pricing core behind
//! [`LinkModel::Contended`].
//!
//! Under the contended model every *directed link* (one per `(node,
//! dimension)` pair) carries one message at a time: a message walks its
//! e-cube route in ascending dimension order, waiting for each link's
//! `busy_until` clock before its transfer starts. Arbitration happens at
//! the round barrier, in (round, node-id, program-order) order — exactly
//! the order [`RoundCommitter`] already delivers sends in — so contended
//! virtual time is as deterministic as uncontended time: a pure function
//! of the input, identical on every engine.
//!
//! The same property makes the schedule *replayable*. The algorithms in
//! this workspace are data-oblivious, so the round structure (who runs
//! when, which receive blocks on which send) is a function of the program
//! alone, reconstructible from a run file: `plan_rounds` re-derives each
//! event's round from the per-node record order plus FIFO message
//! matching, mirroring the frontier scheduler's wake rule. On top of that,
//! [`reprice`] re-prices a traced run under any `(CostModel, LinkModel)`
//! pair and `contended_times` recovers per-message arrival/wait splits
//! and per-link busy intervals for the analyzers.
//!
//! Float arithmetic is not associative, so there is no closed-form
//! "arrival = sent_at + wait + transfer" identity to lean on. Bit-exact
//! agreement between live runs and replays instead comes from sharing
//! *code*: `LinkLedger::acquire` is the one routine that advances link
//! clocks, and every consumer — the live commit barrier, the repricer,
//! the critical-path analyzer, the Perfetto exporter — executes its float
//! operations in the same order on the same inputs.
//!
//! [`LinkModel::Contended`]: crate::sim::LinkModel::Contended
//! [`RoundCommitter`]: crate::sim

use super::perfetto::match_messages;
use super::{NodeObservation, RunObservation, SpanRecord};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace, TraceEvent, TraceKind};

/// Busy-until clocks for every directed link of the cube.
///
/// Links are acquired in the deterministic commit order; bit-exact
/// live/replay agreement relies on both sides calling this exact routine
/// with the same inputs in the same order.
pub(crate) struct LinkLedger {
    dim: usize,
    busy: Vec<f64>,
}

impl LinkLedger {
    /// All links idle at time zero for a `dim`-cube of `nodes` addresses.
    pub(crate) fn new(dim: usize, nodes: usize) -> Self {
        LinkLedger {
            dim,
            busy: vec![0.0; dim * nodes],
        }
    }

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
                let link = cur as usize * self.dim + d;
                let start = if self.busy[link] > t {
                    wait += self.busy[link] - t;
                    self.busy[link]
                } else {
                    t
                };
                let end = start + cost.transfer(elements, 1);
                visit(cur as usize, d, t, start, end);
                self.busy[link] = end;
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
/// delivers it. Returns the round of every id.
fn plan_rounds(per_node: &[Vec<(usize, Option<usize>)>], total: usize) -> Vec<u32> {
    let mut rounds = vec![0u32; total];
    let mut assigned = vec![false; total];
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
    rounds
}

/// Rounds plus FIFO send matching for an observation's trace: for each
/// event its round, and for each receive the index of its matched send
/// (`usize::MAX` when the file holds no matching send).
fn plan_event_rounds(obs: &RunObservation) -> (Vec<u32>, Vec<usize>) {
    let events = obs.trace.events();
    let mut send_of = vec![usize::MAX; events.len()];
    for (s, r) in match_messages(&obs.trace) {
        send_of[r] = s;
    }
    let node_count = obs.nodes.len();
    let mut per_node: Vec<Vec<(usize, Option<usize>)>> = vec![Vec::new(); node_count];
    for (i, e) in events.iter().enumerate() {
        let awaits = match e.kind {
            TraceKind::Recv { .. } if send_of[i] != usize::MAX => Some(send_of[i]),
            _ => None,
        };
        per_node[e.node.index().min(node_count - 1)].push((i, awaits));
    }
    (plan_rounds(&per_node, events.len()), send_of)
}

/// Event indices in canonical commit order: (round, node id, per-node
/// program order) — the order the barrier flushes records and acquires
/// links in. The sort is stable, so within one `(round, node)` group the
/// trace's per-node program order is preserved.
fn canonical_order(events: &[TraceEvent], rounds: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (rounds[i], events[i].node.raw()));
    order
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
    let (rounds, send_of) = if events.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        plan_event_rounds(obs)
    };
    let mut arrival = vec![f64::NAN; events.len()];
    let mut wait = vec![0.0f64; events.len()];
    let mut links = Vec::new();
    let mut ledger = LinkLedger::new(obs.dim, obs.nodes.len());
    for &i in &canonical_order(events, &rounds) {
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

/// Translates an old-timeline instant on one node into the new timeline:
/// piecewise through the node's `(old, new)` event checkpoints (program
/// order), carrying un-evented residuals verbatim.
///
/// Exact for clocks, not always for span boundaries: a boundary that
/// shares its timestamp with the next phase's first receive maps through
/// that receive's checkpoint, so when the re-priced receive waits, the
/// boundary lands after the wait instead of before it.
fn map_checkpoint(cps: &[(f64, f64)], t: f64) -> f64 {
    match cps.partition_point(|&(old, _)| old <= t) {
        0 => t,
        p => {
            let (old, new) = cps[p - 1];
            new + (t - old)
        }
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
/// or truncated run files. Events,
/// clocks, counters and metrics are bit-identical to a live run under the
/// target model (pinned on every instance of `tests/engine_diff.rs`);
/// span boundaries can drift — see `map_checkpoint`. Re-pricing to the
/// run's own model and a new [`CostModel`] is the what-if re-costing of
/// `ftsort-cli replay --recost`.
///
/// Errors if the observation carries no trace events — without the event
/// stream there is no schedule to re-price.
pub fn reprice(
    obs: &RunObservation,
    new_cost: CostModel,
    new_model: LinkModel,
) -> Result<RunObservation, String> {
    if obs.trace.is_empty() {
        return Err("run has no trace events — was the sort traced?".into());
    }
    let events = obs.trace.events();
    let len = obs.nodes.len();
    let (rounds, send_of) = plan_event_rounds(obs);
    let order = canonical_order(events, &rounds);

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
    let mut ledger = LinkLedger::new(obs.dim, len);
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
        let n = e.node.index();
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
        .enumerate()
        .map(|(n, slot)| {
            slot.as_ref().map(|node| {
                let mut metrics = node.metrics.clone();
                metrics.blocked_us = blocked[n];
                metrics.link_wait_us = link_wait[n];
                metrics.dim_busy_us = dim_busy[n].clone();
                NodeObservation {
                    node: node.node,
                    clock: map_checkpoint(&checkpoints[n], node.clock),
                    stats: node.stats,
                    spans: node
                        .spans
                        .iter()
                        .map(|s| SpanRecord {
                            phase: s.phase,
                            begin: map_checkpoint(&checkpoints[n], s.begin),
                            end: map_checkpoint(&checkpoints[n], s.end),
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
        let rounds = plan_rounds(&per_node, 4);
        // Round 0: node 0 sends then parks; node 1 parks immediately.
        // Round 1: node 1 wakes (send 0 delivered at barrier 0), recvs and
        // sends. Round 2: node 0 wakes (send 3 delivered at barrier 1).
        assert_eq!(rounds, vec![0, 2, 1, 1]);
    }
}
