//! The simulated message-passing multicomputer.
//!
//! Algorithms are written SPMD-style: the same *node program* runs on every
//! normal processor, communicating through the [`Comm`] handle. Node
//! programs are `async`: a blocked receive suspends the node, which lets
//! one executor schedule all of them cooperatively on a single thread
//! (`sequential::run`, the default) and another share the ready frontier
//! across a fixed worker pool ([`par`]). Both run the same round/frontier
//! core and hand nodes the same [`NodeCtx`] — same program, identical
//! simulated results. [`Engine`] is the one machine type: its
//! [`Engine::run`] picks the executor by [`EngineKind`].
//!
//! ## Deterministic virtual time
//!
//! Every node carries a [`crate::cost::VirtualClock`]. Local computation
//! advances only the local clock; a message stamps the sender's clock at send
//! time and the receiver synchronizes to `max(local, sent_at + transfer)`.
//! Because the algorithms' communication patterns are data-independent, the
//! resulting virtual times are a deterministic function of the inputs — they
//! do not depend on OS scheduling *or on the executor* — so simulated
//! "execution times" (Figure 7) are exactly reproducible, and both engines
//! produce byte-identical outputs, clocks, statistics and traces (asserted
//! by `tests/engine_diff.rs` in the workspace root, which also checks the
//! shared clock algebra against the independent offline re-pricer in
//! [`crate::obs::schedule`]).

pub mod engine;
mod frontier;
pub mod par;
pub mod pool;
mod sequential;
pub mod trace;
mod ws;

pub use engine::{Engine, NodeCtx, NodeOutcome, RouterKind, RunOutcome};
pub use pool::{BufferPool, PoolCounters, PoolHandle, PoolStats};
pub use trace::{Trace, TraceEvent, TraceKind};

use crate::address::NodeId;
use crate::cost::CostModel;
use crate::fault::FaultSet;
use crate::topology::Hypercube;

/// Which executor runs the node programs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EngineKind {
    /// Single-threaded run-to-completion cooperative scheduler
    /// (`sequential::run`): the ready frontier of node programs is
    /// polled round by round, with sends delivered at a deterministic
    /// barrier between rounds. No OS threads, no contended synchronization
    /// on the hot path — the default.
    #[default]
    Seq,
    /// Work-stealing worker pool ([`par`]): the same
    /// frontier/barrier schedule as [`EngineKind::Seq`], with each round's
    /// runnable nodes sharded and claimed from per-worker Chase–Lev deques
    /// by `available_parallelism` workers (override with
    /// [`engine::Engine::with_workers`]), and delivery fanned out by
    /// destination shard. Byte-identical to `Seq` — results, reports, run
    /// files and critical paths — by construction.
    Par,
}

impl EngineKind {
    /// Parses the CLI spelling (`seq` | `par`).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "seq" | "sequential" => Some(EngineKind::Seq),
            "par" | "parallel" => Some(EngineKind::Par),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Seq => write!(f, "seq"),
            EngineKind::Par => write!(f, "par"),
        }
    }
}

/// How messages are charged for the links they cross.
///
/// The default reproduces the paper's closed-form analysis: every link has
/// infinite capacity, so a message's arrival is `sent_at + transfer` no
/// matter what else is in flight. [`LinkModel::Contended`] instead serializes
/// the messages of each *directed link* (one per `(node, dimension)` pair):
/// a message must wait for the link's `busy_until` clock before its transfer
/// starts, and the wait is accounted separately from the transfer in every
/// trace record, report and Perfetto export.
///
/// Contended arbitration is deterministic: links are acquired at the round
/// barrier in (round, node-id, program-order) order — the same order the
/// [`frontier`](self) core already commits sends in — so virtual time remains
/// a pure function of the input on every engine (see DESIGN §6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LinkModel {
    /// Infinite link capacity: arrival = `sent_at + transfer`. The paper's
    /// model and the default — all baselines are priced under it.
    #[default]
    Uncontended,
    /// One message at a time per directed link; queueing waits are recorded
    /// per message and surfaced as `wait` in traces, reports and run files.
    Contended,
}

impl LinkModel {
    /// Parses the CLI spelling (`uncontended` | `contended`).
    pub fn parse(s: &str) -> Option<LinkModel> {
        match s {
            "uncontended" | "none" => Some(LinkModel::Uncontended),
            "contended" | "queued" => Some(LinkModel::Contended),
            _ => None,
        }
    }
}

impl std::fmt::Display for LinkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkModel::Uncontended => write!(f, "uncontended"),
            LinkModel::Contended => write!(f, "contended"),
        }
    }
}

/// A message tag disambiguating algorithm phases.
///
/// Receives are addressed by `(source, tag)`; messages from the same source
/// with different tags can arrive in any order and are buffered until asked
/// for. Build tags with [`Tag::new`] or [`Tag::phase`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Tag(pub u64);

impl Tag {
    /// A tag from a raw value.
    pub const fn new(v: u64) -> Self {
        Tag(v)
    }

    /// A structured tag from a phase id and up to two loop indices —
    /// convenient for the bitonic double loop.
    pub const fn phase(phase: u16, i: u16, j: u16) -> Self {
        Tag(((phase as u64) << 32) | ((i as u64) << 16) | j as u64)
    }
}

/// The communication and accounting interface a node program runs against.
///
/// All sorting algorithms in the `ftsort` crate are generic over this trait,
/// so they run unmodified on either engine. `recv` (and anything built on
/// it) is `async`: a receive whose message has not been delivered suspends
/// the node program, and the engine resumes it after the round barrier
/// that delivers the message.
#[allow(async_fn_in_trait)] // simulator-internal trait; no Send futures needed
pub trait Comm<K> {
    /// This processor's physical address.
    fn me(&self) -> NodeId;

    /// The topology being simulated.
    fn cube(&self) -> Hypercube;

    /// The fault set in force (processors this program must not address).
    fn faults(&self) -> &FaultSet;

    /// The cost model used for accounting.
    fn cost_model(&self) -> CostModel;

    /// Sends `data` to `dst` (non-blocking); the router charges
    /// `hops(me, dst)` links per element. Ownership of the payload moves to
    /// the receiver — on the sequential engine this is a pointer handoff,
    /// no copy.
    fn send(&mut self, dst: NodeId, tag: Tag, data: Vec<K>);

    /// Receives the message with tag `tag` from `src`, suspending until it
    /// arrives. Messages with other `(src, tag)` pairs are buffered.
    async fn recv(&mut self, src: NodeId, tag: Tag) -> Vec<K>;

    /// Full-duplex exchange with a partner: send ours, receive theirs.
    async fn exchange(&mut self, partner: NodeId, tag: Tag, data: Vec<K>) -> Vec<K> {
        self.send(partner, tag, data);
        self.recv(partner, tag).await
    }

    /// Opens an observability span for `phase` (the [`Tag::phase`] `u16`
    /// namespace) at the current virtual clock. Spans nest; close with
    /// [`span_exit`](Comm::span_exit). Free when the engine records no
    /// observations; see [`crate::obs`].
    fn span_enter(&mut self, phase: u16);

    /// Closes the innermost open span at the current virtual clock.
    fn span_exit(&mut self);

    /// Charges `count` key comparisons to the local clock and statistics,
    /// recording a compute event when the run is observed — the only way
    /// a node advances its clock without a message.
    fn charge_comparisons(&mut self, count: usize);

    /// The local virtual clock, µs.
    fn clock(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_phase_packs_fields_disjointly() {
        let a = Tag::phase(1, 2, 3);
        let b = Tag::phase(1, 3, 2);
        let c = Tag::phase(2, 2, 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(Tag::phase(0, 0, 0), Tag::new(0));
        assert_eq!(Tag::phase(0, 0, 5), Tag::new(5));
        assert_eq!(Tag::phase(0, 1, 0), Tag::new(1 << 16));
    }

    #[test]
    fn distinct_phase_triples_never_alias() {
        // Collision safety over the index ranges the algorithms actually
        // use: phases 0..=20 plus the step-8 namespaces around 100 and 612,
        // loop indices up to 16, and the u16::MAX marker reverse_windows
        // uses. Any alias would let one substage consume another's message.
        let mut seen = std::collections::HashMap::new();
        let phases: Vec<u16> = (0..=20)
            .chain(100..=116)
            .chain(612..=628)
            .chain([500, 501, u16::MAX])
            .collect();
        let idxs: Vec<u16> = (0..=16).chain([u16::MAX]).collect();
        for &p in &phases {
            for &i in &idxs {
                for &j in &idxs {
                    let tag = Tag::phase(p, i, j);
                    if let Some(prev) = seen.insert(tag, (p, i, j)) {
                        panic!("{:?} aliases {:?} at {tag:?}", (p, i, j), prev);
                    }
                }
            }
        }
    }

    #[test]
    fn phase_tags_leave_protocol_round_bits_clear() {
        // compare_split_remote reserves the top two tag bits for its rounds
        let t = Tag::phase(u16::MAX, u16::MAX, u16::MAX);
        assert_eq!(t.0 >> 62, 0);
    }

    #[test]
    fn link_model_parses_cli_spellings() {
        assert_eq!(LinkModel::parse("contended"), Some(LinkModel::Contended));
        assert_eq!(LinkModel::parse("queued"), Some(LinkModel::Contended));
        assert_eq!(
            LinkModel::parse("uncontended"),
            Some(LinkModel::Uncontended)
        );
        assert_eq!(LinkModel::parse("none"), Some(LinkModel::Uncontended));
        assert_eq!(LinkModel::parse("infinite"), None);
        assert_eq!(LinkModel::Contended.to_string(), "contended");
        assert_eq!(LinkModel::Uncontended.to_string(), "uncontended");
        assert_eq!(LinkModel::default(), LinkModel::Uncontended);
    }

    #[test]
    fn engine_kind_parses_cli_spellings() {
        assert_eq!(EngineKind::parse("threaded"), None);
        assert_eq!(EngineKind::parse("seq"), Some(EngineKind::Seq));
        assert_eq!(EngineKind::parse("sequential"), Some(EngineKind::Seq));
        assert_eq!(EngineKind::parse("par"), Some(EngineKind::Par));
        assert_eq!(EngineKind::parse("parallel"), Some(EngineKind::Par));
        assert_eq!(EngineKind::parse("fast"), None);
        assert_eq!(EngineKind::Seq.to_string(), "seq");
        assert_eq!(EngineKind::Par.to_string(), "par");
        assert_eq!(EngineKind::default(), EngineKind::Seq);
    }
}
