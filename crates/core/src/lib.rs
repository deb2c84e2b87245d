//! # ftsort — fault-tolerant sorting on hypercube multicomputers
//!
//! A faithful implementation of
//! *"Fault-Tolerant Sorting Algorithm on Hypercube Multicomputers"*
//! (Jang-Ping Sheu, Yuh-Shyan Chen, Chih-Yung Chang — ICPP 1992) on the
//! simulated multicomputer provided by the [`hypercube`] crate.
//!
//! * [`seq`] — local heapsort and merge kernels with comparison counting.
//! * [`bitonic`] — compare-split protocols, the distributed bitonic sort,
//!   and the single-fault variant of §2.1.
//! * [`partition`] — the §2.2 partition algorithm: *mincut* and the cutting
//!   set `Ψ` over the cutting-dimension tree, and the resulting
//!   single-fault subcube structure `F_n^m`.
//! * [`select`] — the §3 heuristics: cutting-sequence selection by the
//!   minmax extra-communication formula, and dangling-processor placement.
//! * [`ftsort`] — the full fault-tolerant sorting algorithm (§3 steps 1–8),
//!   tolerating up to `n − 1` faulty processors.
//! * [`mffs`] — the maximum-dimensional fault-free subcube baseline the
//!   paper compares against.
//! * [`cost_model`] — the paper's closed-form worst-case time `T`.
//! * [`distribute`] — host scatter/gather with `∞` dummy-key padding.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod bitonic;
pub mod cost_model;
pub mod distribute;
pub mod ftsort;
pub mod mffs;
pub mod partition;
pub mod select;
pub mod seq;

/// The commonly-used names in one import.
pub mod prelude {
    pub use crate::baselines::{
        hyperquicksort, hyperquicksort_with_engine, odd_even_ring_sort,
        odd_even_ring_sort_with_engine,
    };
    pub use crate::bitonic::{
        bitonic_sort, bitonic_sort_with_engine, single_fault_bitonic_sort, Protocol, SortOutcome,
    };
    pub use crate::ftsort::{
        fault_tolerant_sort, phase_name, Attach, FtConfig, FtError, FtPlan, PhaseBreakdown,
        Step8Strategy,
    };
    pub use crate::mffs::{max_fault_free_subcube, mffs_sort, mffs_sort_with_engine};
    pub use crate::partition::{partition, PartitionResult, SingleFaultStructure};
    pub use crate::select::{select_cutting_sequence, Selection};
    pub use crate::seq::{Direction, LocalSort};
    pub use hypercube::prelude::*;
}
