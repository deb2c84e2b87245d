//! Event traces of simulated runs.
//!
//! Every send, receive and local computation is a [`TraceEvent`] stamped
//! with its node's virtual clock, handed to the run's [`TraceSink`]s. A
//! [`Trace`] is the sink that keeps them in memory: a space-time view of
//! the algorithm (see the `message_trace` example for a textual
//! rendering).

use crate::address::NodeId;
use crate::cost::CostModel;
use crate::obs::sink::{NodeSummary, TraceSink};
use crate::sim::{LinkModel, Tag};

/// What happened.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceKind {
    /// A message left this node.
    Send {
        /// Destination.
        to: NodeId,
        /// Keys carried.
        elements: usize,
        /// Links crossed.
        hops: u32,
    },
    /// A message was consumed by this node.
    Recv {
        /// Origin.
        from: NodeId,
        /// Keys carried.
        elements: usize,
        /// Time the message spent queued behind busy links, µs — always
        /// `0.0` under [`super::LinkModel::Uncontended`].
        wait: f64,
    },
    /// Local comparisons were charged.
    Compute {
        /// Number of key comparisons.
        comparisons: usize,
    },
}

/// One traced event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// The node's virtual clock *after* the event, µs.
    pub time: f64,
    /// The node the event happened on.
    pub node: NodeId,
    /// The message tag (zero tag for compute events).
    pub tag: Tag,
    /// The event itself.
    pub kind: TraceKind,
}

/// A completed run's trace, ordered by time (ties by node address).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from an event list — the entry point for
    /// deserializers (see `obs::replay::observation_from_json`). Events
    /// are sorted as the live sink sorts them at [`TraceSink::finish`].
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let mut trace = Trace { events };
        trace.sort();
        trace
    }

    /// The stable `(time, node)` sort: events with equal keys come from
    /// one node, so they keep that node's program order.
    fn sort(&mut self) {
        self.events.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.node.raw().cmp(&b.node.raw()))
        });
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (not recorded, or nothing happened).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The in-memory sink: keeps the events and sorts them when the run
/// finishes; each node's outcome already carries its spans and footer.
impl TraceSink for Trace {
    fn begin(&mut self, _dim: usize, _cost: &CostModel, _link_model: LinkModel) {}

    fn event(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn span(&mut self, _node: NodeId, _phase: Option<u16>, _time: f64) {}

    fn finish(&mut self, _nodes: &[NodeSummary]) {
        self.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_orders_by_time_then_node_then_program_order() {
        let mk = |time, node, comparisons| TraceEvent {
            time,
            node: NodeId::new(node),
            tag: Tag::new(0),
            kind: TraceKind::Compute { comparisons },
        };
        // Commit order: round 1 flushes node 0, then node 1; round 2
        // flushes them again. Each node's clock only moves forward, but
        // node 1 runs behind node 0, and at t = 1 its two events tie with
        // each other and with node 0's.
        let committed = [
            mk(1.0, 0, 1),
            mk(0.5, 1, 2),
            mk(1.0, 1, 3),
            mk(1.0, 1, 4),
            mk(2.0, 0, 5),
            mk(1.5, 1, 6),
        ];
        let mut trace = Trace::default();
        trace.begin(1, &CostModel::default(), LinkModel::Uncontended);
        trace.span(NodeId::new(0), Some(1), 0.0);
        for e in &committed {
            trace.event(e);
        }
        trace.span(NodeId::new(0), None, 2.0);
        trace.finish(&[]);
        let order: Vec<(f64, u32, usize)> = trace
            .events()
            .iter()
            .map(|e| match e.kind {
                TraceKind::Compute { comparisons } => (e.time, e.node.raw(), comparisons),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (0.5, 1, 2),
                (1.0, 0, 1),
                (1.0, 1, 3),
                (1.0, 1, 4),
                (1.5, 1, 6),
                (2.0, 0, 5),
            ]
        );
        assert_eq!(trace.len(), 6);
        assert!(!trace.is_empty());
        assert_eq!(
            Trace::from_events(committed.to_vec()).events(),
            trace.events()
        );
    }
}
