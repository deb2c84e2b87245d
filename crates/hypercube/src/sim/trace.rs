//! Event tracing for simulated runs.
//!
//! When enabled on the [`super::Engine`], every send, receive and local
//! computation is recorded with its virtual timestamp, giving a space-time
//! view of the algorithm (see the `message_trace` example for a textual
//! rendering). Tracing is off by default — it allocates per event.

use crate::address::NodeId;
use crate::sim::Tag;

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
    /// Builds a trace from per-node event lists.
    pub(crate) fn assemble(per_node: Vec<Vec<TraceEvent>>) -> Self {
        Trace::from_events(per_node.into_iter().flatten().collect())
    }

    /// Builds a trace from an already time-ordered event list — the entry
    /// point for deserializers (see `obs::json::trace_from_json`). Events
    /// are re-sorted defensively so downstream invariants hold even if the
    /// input was shuffled.
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.node.raw().cmp(&b.node.raw()))
        });
        Trace { events }
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (tracing disabled or nothing happened).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events involving one node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.node == node)
    }

    /// The send events, in time order.
    pub fn sends(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Send { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_orders_by_time_then_node() {
        let mk = |time, node| TraceEvent {
            time,
            node: NodeId::new(node),
            tag: Tag::new(0),
            kind: TraceKind::Compute { comparisons: 1 },
        };
        let trace = Trace::assemble(vec![
            vec![mk(3.0, 1), mk(1.0, 1)],
            vec![mk(1.0, 0), mk(2.0, 0)],
        ]);
        let order: Vec<(f64, u32)> = trace
            .events()
            .iter()
            .map(|e| (e.time, e.node.raw()))
            .collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)]);
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
        assert_eq!(trace.for_node(NodeId::new(0)).count(), 2);
    }
}
