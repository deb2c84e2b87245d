//! # hypercube — a simulated hypercube multicomputer
//!
//! This crate is the *substrate* for reproducing
//! *"Fault-Tolerant Sorting Algorithm on Hypercube Multicomputers"*
//! (Sheu, Chen & Chang, ICPP 1992): everything the paper's NCUBE/7 testbed
//! provided, rebuilt in software.
//!
//! * [`topology`] / [`address`] / [`subcube`] — the `Q_n` interconnect and
//!   its address algebra (bit operations, Gray codes, subcube splits).
//! * [`fault`] — permanent-fault sets under the *partial* and *total* fault
//!   models of the paper's §4.
//! * [`routing`] — e-cube (VERTEX-style) routing, plus shortest fault-avoiding
//!   detours for the total-fault model.
//! * [`sim`] — the simulated machine ([`sim::Engine`]), which runs async
//!   SPMD node programs, each against its [`sim::NodeCtx`], on one
//!   round/frontier executor: one worker on the calling thread (the
//!   default) or a work-stealing pool, with identical deterministic
//!   virtual-time accounting under the paper's cost model ([`cost`]) and
//!   operation counters ([`stats`]).
//! * [`obs`] — what a run observed ([`obs::RunObservation`]: one record
//!   per participating node), its reports, run files and analyzers.
//! * [`diagnosis`] — a PMC-style off-line diagnosis stand-in for the fault
//!   identification step the paper assumes.
//! * [`embedding`] — the Gray-code ring embedding.
//!
//! ## Quick example
//!
//! ```
//! use hypercube::prelude::*;
//!
//! // A 3-cube with one faulty processor, NCUBE-like cost model.
//! let cube = Hypercube::new(3);
//! let faults = FaultSet::from_raw(cube, &[5]);
//! let engine = Engine::new(faults, CostModel::default());
//!
//! // Give every normal node its own address as data and run a max-reduction
//! // over the fault-free subcube {0,1,2,3} (dimension sweep on Q2).
//! let inputs: Vec<Option<Vec<u32>>> = (0..8)
//!     .map(|i| if i < 4 { Some(vec![i]) } else { None })
//!     .collect();
//! let (results, obs) = engine.run(inputs, async |ctx, data| {
//!     let mut acc = data[0];
//!     for d in 0..2 {
//!         let got = ctx
//!             .exchange(ctx.me().neighbor(d), Tag::new(d as u64), vec![acc])
//!             .await;
//!         acc = acc.max(got[0]);
//!     }
//!     acc
//! });
//! // one result per participant, in ascending address order
//! assert_eq!(results, vec![3; 4]);
//! assert_eq!(obs.nodes.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod address;
pub mod collectives;
pub mod cost;
pub mod diagnosis;
pub mod embedding;
pub mod fault;
pub mod obs;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod subcube;
pub mod topology;

/// The commonly-used names in one import.
pub mod prelude {
    pub use crate::address::NodeId;
    pub use crate::collectives::Participants;
    pub use crate::cost::CostModel;
    pub use crate::fault::{FaultModel, FaultSet, Link};
    pub use crate::obs::{RunObservation, RunReport};
    pub use crate::sim::{Engine, EngineKind, LinkModel, NodeCtx, RouterKind, Tag};
    pub use crate::stats::RunStats;
    pub use crate::subcube::Subcube;
    pub use crate::topology::Hypercube;
}
