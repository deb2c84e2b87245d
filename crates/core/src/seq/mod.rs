//! Sequential sorting kernels used inside each processor.
//!
//! The paper's step 3 sorts each processor's local elements with **heapsort**;
//! later steps merge sorted runs. Both are implemented from scratch here with
//! exact comparison counting so the simulation can charge `t_c` for the work
//! actually done.
//!
//! The merge kernels exist in two tiers: the scalar reference in `merge`
//! over any `K: Ord`, and the branchless/cache-blocked kernels in
//! `branchless` over [`Key`] types — same outputs, same comparison
//! counts, shaped for conditional moves instead of data-dependent branches.
//! The compare-split hot path dispatches through the `_auto_` forms.

mod branchless;
mod heapsort;
mod key;
mod merge;
mod quicksort;

pub use branchless::{
    charged_merge_comparisons, merge_keep_high_branchless_into, merge_keep_low_branchless_into,
    merge_runs_auto, merge_runs_auto_into, merge_runs_blocked_into, merge_runs_branchless_into,
    BLOCK_BYTES, MERGE_CHUNK,
};
pub use heapsort::heapsort;
pub use key::{Key, KeyPair, KeyType};
pub use merge::{
    merge_keep_high, merge_keep_high_into, merge_keep_low, merge_keep_low_into, merge_runs,
    merge_runs_into, sort_bitonic_run,
};
pub use quicksort::{mergesort, quicksort};

/// The local sorting algorithm used in step 3. The paper prescribes
/// [`LocalSort::Heapsort`]; the alternatives exist for the local-sort
/// ablation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LocalSort {
    /// Heapsort, as in the paper (worst-case `O(k log k)`, no extra space).
    #[default]
    Heapsort,
    /// Median-of-three quicksort with insertion-sort cutoff.
    Quicksort,
    /// Stable bottom-up merge sort.
    Mergesort,
}

impl LocalSort {
    /// Sorts `data` in the given direction, returning the comparison count.
    pub fn sort<K: Ord>(self, data: &mut Vec<K>, dir: Direction) -> u64 {
        match self {
            LocalSort::Heapsort => heapsort(data, dir),
            LocalSort::Quicksort => quicksort(data, dir),
            LocalSort::Mergesort => mergesort(data, dir),
        }
    }
}

/// Sort direction. The paper directs each processor's run *ascending* when
/// its (reindexed) address is even and *descending* when odd; internally we
/// store runs ascending and use `Direction` for the distributed-order
/// bookkeeping at subcube granularity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Smallest first.
    Ascending,
    /// Largest first.
    Descending,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Ascending => Direction::Descending,
            Direction::Descending => Direction::Ascending,
        }
    }

    /// The paper's parity rule: ascending for even addresses, descending for
    /// odd.
    #[inline]
    pub fn from_parity(address: u32) -> Direction {
        if address & 1 == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        }
    }
}

/// Checks that `run` is sorted ascending.
pub fn is_sorted<K: Ord>(run: &[K]) -> bool {
    run.windows(2).all(|w| w[0] <= w[1])
}

/// Checks that `run` is sorted in the given direction.
pub fn is_sorted_dir<K: Ord>(run: &[K], dir: Direction) -> bool {
    match dir {
        Direction::Ascending => is_sorted(run),
        Direction::Descending => run.windows(2).all(|w| w[0] >= w[1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flip_and_parity() {
        assert_eq!(Direction::Ascending.flip(), Direction::Descending);
        assert_eq!(Direction::Descending.flip(), Direction::Ascending);
        assert_eq!(Direction::from_parity(0), Direction::Ascending);
        assert_eq!(Direction::from_parity(7), Direction::Descending);
        assert_eq!(Direction::from_parity(6), Direction::Ascending);
    }

    #[test]
    fn sortedness_checks() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
        assert!(is_sorted_dir(&[3, 2, 2, 1], Direction::Descending));
        assert!(!is_sorted_dir(&[1, 2], Direction::Descending));
    }
}
