//! Bitonic sorting on hypercubes.
//!
//! * [`protocol`] — the pairwise *compare-split* kernels: given two sorted
//!   runs on two processors, leave the `k` smallest on one and the `k`
//!   largest on the other. Two wire protocols are provided: a provably
//!   simple full exchange, and the paper's traffic-splitting half exchange.
//! * [`distributed`] — the block bitonic sort across `2^s` processors with
//!   an optional dead processor at (reindexed) address 0 — the paper's §2.1
//!   observation that bitonic sort tolerates one fault.
//! * [`sort`] — end-to-end entry points on a simulated machine: distribute,
//!   sort, gather.

pub mod distributed;
pub mod protocol;
pub mod sort;

pub use distributed::{distributed_bitonic_merge, distributed_bitonic_sort, reverse_windows};
pub use protocol::{compare_split_local, compare_split_remote, KeepHalf, Protocol};
pub use sort::{bitonic_sort, bitonic_sort_with_engine, single_fault_bitonic_sort, SortOutcome};
