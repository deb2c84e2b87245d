//! Subcube algebra.
//!
//! A *subcube* of `Q_n` is obtained by fixing some address bits and leaving
//! the rest free. We represent it as a pair `(fixed_mask, pattern)`:
//! bit `d` of `fixed_mask` is 1 when dimension `d` is fixed, and `pattern`
//! holds the fixed bit values (bits outside `fixed_mask` are zero).
//!
//! The paper's partition algorithm repeatedly splits `Q_n` along *cutting
//! dimensions*; every node of its checking tree is a subcube in this
//! representation.

use crate::address::NodeId;
use std::fmt;

/// A subcube of an `n`-dimensional hypercube, i.e. a sub-hypercube obtained
/// by fixing a subset of address bits.
///
/// ```
/// use hypercube::prelude::*;
///
/// let (lo, hi) = Hypercube::new(4).bisect(1); // split Q4 along dimension 1
/// assert_eq!(lo.len(), 8);
/// assert!(lo.contains(NodeId::new(0b0101)) ^ hi.contains(NodeId::new(0b0101)));
/// // local ↔ global address algebra
/// let w = lo.local_address(NodeId::new(0b0101));
/// assert_eq!(lo.global_address(w), NodeId::new(0b0101));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subcube {
    /// Dimension of the enclosing hypercube.
    n: u8,
    /// Bit `d` set ⇔ dimension `d` is fixed.
    fixed_mask: u32,
    /// Values of the fixed bits (zero outside `fixed_mask`).
    pattern: u32,
}

impl Subcube {
    /// The full hypercube `Q_n` viewed as a subcube of itself.
    pub fn whole(n: usize) -> Self {
        assert!(n <= crate::address::MAX_DIM);
        Subcube {
            n: n as u8,
            fixed_mask: 0,
            pattern: 0,
        }
    }

    /// Builds a subcube from an explicit mask/pattern pair.
    ///
    /// # Panics
    /// If `pattern` has bits outside `fixed_mask`, or mask bits outside the
    /// `n`-bit address space.
    pub fn new(n: usize, fixed_mask: u32, pattern: u32) -> Self {
        assert!(n <= crate::address::MAX_DIM);
        let space = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        assert_eq!(fixed_mask & !space, 0, "mask outside address space");
        assert_eq!(pattern & !fixed_mask, 0, "pattern outside fixed mask");
        Subcube {
            n: n as u8,
            fixed_mask,
            pattern,
        }
    }

    /// Dimension of the enclosing hypercube.
    #[inline]
    pub fn ambient_dim(&self) -> usize {
        self.n as usize
    }

    /// Dimension of the subcube itself (number of free dimensions).
    #[inline]
    pub fn dim(&self) -> usize {
        self.n as usize - self.fixed_mask.count_ones() as usize
    }

    /// Number of processors in the subcube.
    #[inline]
    pub fn len(&self) -> usize {
        1usize << self.dim()
    }

    /// A subcube is never empty (it always contains at least one node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The mask of fixed dimensions.
    #[inline]
    pub fn fixed_mask(&self) -> u32 {
        self.fixed_mask
    }

    /// The fixed bit values.
    #[inline]
    pub fn pattern(&self) -> u32 {
        self.pattern
    }

    /// Free dimensions in ascending order.
    pub fn free_dims(&self) -> Vec<usize> {
        (0..self.ambient_dim())
            .filter(|&d| self.fixed_mask >> d & 1 == 0)
            .collect()
    }

    /// Fixed dimensions in ascending order.
    pub fn fixed_dims(&self) -> Vec<usize> {
        (0..self.ambient_dim())
            .filter(|&d| self.fixed_mask >> d & 1 == 1)
            .collect()
    }

    /// Whether `node` lies inside this subcube.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.raw() & self.fixed_mask == self.pattern
    }

    /// Splits along dimension `d`, returning the `(u_d = 0, u_d = 1)` halves.
    ///
    /// This is one edge of the paper's checking tree: the left child gets the
    /// faulty processors whose bit `d` is 0, the right child those with 1.
    ///
    /// # Panics
    /// If `d` is already fixed.
    pub fn split(&self, d: usize) -> (Subcube, Subcube) {
        assert!(d < self.ambient_dim(), "dimension out of range");
        assert_eq!(self.fixed_mask >> d & 1, 0, "dimension already fixed");
        let mask = self.fixed_mask | (1 << d);
        (
            Subcube {
                n: self.n,
                fixed_mask: mask,
                pattern: self.pattern,
            },
            Subcube {
                n: self.n,
                fixed_mask: mask,
                pattern: self.pattern | (1 << d),
            },
        )
    }

    /// The free dimensions as a mask: the `n`-bit address space minus
    /// `fixed_mask`.
    #[inline]
    fn free_mask(&self) -> u32 {
        ((1u64 << self.n) - 1) as u32 & !self.fixed_mask
    }

    /// Iterates over all node addresses in the subcube in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let free = self.free_mask();
        let pattern = self.pattern;
        (0..self.len() as u32).map(move |i| NodeId::new(pattern | deposit(i, free)))
    }

    /// The *local address* of `node` within the subcube: its free-dimension
    /// bits packed into `dim()` bits (LSB = lowest free dimension).
    /// O(`dim()`) and allocation-free.
    ///
    /// # Panics
    /// If the node is not contained in the subcube.
    #[inline]
    pub fn local_address(&self, node: NodeId) -> u32 {
        assert!(self.contains(node), "node outside subcube");
        extract(node.raw(), self.free_mask())
    }

    /// Inverse of [`Subcube::local_address`]. O(`dim()`) and
    /// allocation-free: the fault-tolerant sort calls it per substage on
    /// every node to find its compare-split partner.
    ///
    /// # Panics
    /// If `local` has bits at or above `dim()`.
    #[inline]
    pub fn global_address(&self, local: u32) -> NodeId {
        assert!(
            (local as u64) < (1u64 << self.dim()),
            "local address out of range"
        );
        NodeId::new(self.pattern | deposit(local, self.free_mask()))
    }

    /// Whether the two subcubes are disjoint.
    pub fn is_disjoint(&self, other: &Subcube) -> bool {
        let common = self.fixed_mask & other.fixed_mask;
        (self.pattern ^ other.pattern) & common != 0
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains_subcube(&self, other: &Subcube) -> bool {
        // every dimension fixed in self must be fixed to the same value in other
        self.fixed_mask & other.fixed_mask == self.fixed_mask
            && (self.pattern ^ other.pattern) & self.fixed_mask == 0
    }

    /// Enumerates every subcube of `Q_n` with exactly `k` free dimensions.
    ///
    /// There are `C(n,k) · 2^(n-k)` of them. Used by the maximum
    /// fault-free-subcube baseline, which scans dimensions from `n-1`
    /// downward.
    pub fn enumerate(n: usize, k: usize) -> Vec<Subcube> {
        assert!(k <= n);
        let mut out = Vec::new();
        // choose the set of FIXED dimensions (n - k of them)
        let fixed_count = n - k;
        let mut choice: Vec<usize> = (0..fixed_count).collect();
        loop {
            let mut fixed_mask = 0u32;
            for &d in &choice {
                fixed_mask |= 1 << d;
            }
            // all patterns over the fixed dims
            let fixed_dims: Vec<usize> = choice.clone();
            for p in 0..(1u32 << fixed_count) {
                let pattern = crate::address::scatter_bits(p, &fixed_dims);
                out.push(Subcube::new(n, fixed_mask, pattern));
            }
            // next combination
            if fixed_count == 0 {
                break;
            }
            let mut i = fixed_count;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if choice[i] != i + n - fixed_count {
                    choice[i] += 1;
                    for j in i + 1..fixed_count {
                        choice[j] = choice[j - 1] + 1;
                    }
                    break;
                }
            }
        }
        out
    }
}

/// Scatters the low bits of `packed` to the set bits of `mask`, lowest
/// first: [`crate::address::scatter_bits`] with the positions given as a
/// mask. One iteration per set bit of `mask`.
#[inline]
fn deposit(mut packed: u32, mut mask: u32) -> u32 {
    let mut out = 0;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        out |= (packed & 1).wrapping_neg() & low;
        packed >>= 1;
        mask ^= low;
    }
    out
}

/// Inverse of [`deposit`]: packs the bits of `value` at the set bits of
/// `mask`, lowest first ([`crate::address::extract_bits`] with a mask).
#[inline]
fn extract(value: u32, mut mask: u32) -> u32 {
    let mut out = 0;
    let mut bit = 1u32;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if value & low != 0 {
            out |= bit;
        }
        bit <<= 1;
        mask ^= low;
    }
    out
}

impl fmt::Debug for Subcube {
    /// Prints the address-space form used in the paper, e.g. `{u3 u2 0 u0}`
    /// rendered as `**0*` (MSB first, `*` = free bit).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.ambient_dim();
        let s: String = (0..n)
            .rev()
            .map(|d| {
                if self.fixed_mask >> d & 1 == 0 {
                    '*'
                } else if self.pattern >> d & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect();
        write!(f, "Q{}[{}]", self.dim(), s)
    }
}

impl fmt::Display for Subcube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_cube_contains_everything() {
        let q = Subcube::whole(4);
        assert_eq!(q.dim(), 4);
        assert_eq!(q.len(), 16);
        for u in 0..16u32 {
            assert!(q.contains(NodeId::new(u)));
        }
    }

    #[test]
    fn split_partitions_nodes() {
        let q = Subcube::whole(4);
        let (lo, hi) = q.split(1);
        assert_eq!(lo.dim(), 3);
        assert_eq!(hi.dim(), 3);
        let mut seen = [false; 16];
        for node in lo.nodes().chain(hi.nodes()) {
            assert!(!seen[node.index()], "split halves overlap");
            seen[node.index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "split halves do not cover Q4");
        // membership matches bit 1
        for u in 0..16u32 {
            let node = NodeId::new(u);
            assert_eq!(lo.contains(node), node.bit(1) == 0);
            assert_eq!(hi.contains(node), node.bit(1) == 1);
        }
    }

    #[test]
    fn paper_fig3_partition_of_q4() {
        // Q4 with faults {0, 6, 9}; D = (1, 3) yields F_4^2 (Fig. 3/4).
        let q = Subcube::whole(4);
        let (l, r) = q.split(1);
        let (ll, lr) = l.split(3);
        let (rl, rr) = r.split(3);
        let faults = [NodeId::new(0), NodeId::new(6), NodeId::new(9)];
        let quads = [ll, lr, rl, rr];
        for sc in &quads {
            let count = faults.iter().filter(|f| sc.contains(**f)).count();
            assert!(count <= 1, "{sc:?} has {count} faults");
        }
        // address spaces: {u3 u2 0 u0} split again on u3
        assert_eq!(format!("{ll:?}"), "Q2[0*0*]");
        assert_eq!(format!("{lr:?}"), "Q2[1*0*]");
        assert_eq!(format!("{rl:?}"), "Q2[0*1*]");
        assert_eq!(format!("{rr:?}"), "Q2[1*1*]");
    }

    #[test]
    fn local_and_global_addresses_roundtrip() {
        let sc = Subcube::new(5, 0b01011, 0b01001); // fixed dims {0,1,3}, pattern u3=1,u1=0,u0=1
        assert_eq!(sc.dim(), 2);
        assert_eq!(sc.free_dims(), vec![2, 4]);
        for local in 0..4u32 {
            let g = sc.global_address(local);
            assert!(sc.contains(g));
            assert_eq!(sc.local_address(g), local);
        }
        // Every subcube of Q_n, n ≤ 6: the mask-based bit loops agree with
        // scatter/extract over the free-dimension list, and round-trip.
        use crate::address::{extract_bits, scatter_bits};
        for n in 0..=6 {
            for k in 0..=n {
                for sc in Subcube::enumerate(n, k) {
                    let free = sc.free_dims();
                    for local in 0..sc.len() as u32 {
                        let g = sc.global_address(local);
                        assert_eq!(g.raw(), sc.pattern() | scatter_bits(local, &free), "{sc:?}");
                        assert!(sc.contains(g), "{sc:?}");
                        assert_eq!(sc.local_address(g), local, "{sc:?}");
                    }
                    for node in (0..1u32 << n).map(NodeId::new).filter(|&p| sc.contains(p)) {
                        assert_eq!(sc.local_address(node), extract_bits(node.raw(), &free));
                    }
                    let nodes: Vec<NodeId> = sc.nodes().collect();
                    let by_address: Vec<NodeId> =
                        (0..sc.len() as u32).map(|w| sc.global_address(w)).collect();
                    assert_eq!(nodes, by_address, "{sc:?}");
                }
            }
        }
        // The widest cube: all 32 dimensions free, and all fixed.
        let whole = Subcube::whole(32);
        for raw in [0, 1, 0x8000_0000, 0xdead_beef, u32::MAX] {
            assert_eq!(whole.global_address(raw).raw(), raw);
            assert_eq!(whole.local_address(NodeId::new(raw)), raw);
        }
        let point = Subcube::new(32, u32::MAX, 0xdead_beef);
        assert_eq!(point.global_address(0).raw(), 0xdead_beef);
        assert_eq!(point.local_address(NodeId::new(0xdead_beef)), 0);
    }

    #[test]
    #[should_panic(expected = "local address out of range")]
    fn global_address_out_of_range_panics() {
        let (a, _) = Subcube::whole(3).split(0);
        a.global_address(4);
    }

    #[test]
    fn nodes_enumeration_is_sorted_and_complete() {
        let sc = Subcube::new(4, 0b0101, 0b0001);
        let nodes: Vec<u32> = sc.nodes().map(|p| p.raw()).collect();
        assert_eq!(nodes, vec![0b0001, 0b0011, 0b1001, 0b1011]);
    }

    #[test]
    fn disjointness_and_containment() {
        let q = Subcube::whole(3);
        let (a, b) = q.split(0);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&a));
        assert!(q.contains_subcube(&a));
        assert!(q.contains_subcube(&b));
        assert!(!a.contains_subcube(&q));
        let (aa, _) = a.split(2);
        assert!(a.contains_subcube(&aa));
        assert!(b.is_disjoint(&aa));
    }

    #[test]
    fn enumerate_counts_match_combinatorics() {
        // C(n,k) * 2^(n-k)
        fn c(n: usize, k: usize) -> usize {
            if k > n {
                return 0;
            }
            let mut r = 1usize;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        for n in 0..=6 {
            for k in 0..=n {
                let subs = Subcube::enumerate(n, k);
                assert_eq!(subs.len(), c(n, k) << (n - k), "n={n} k={k}");
                // all distinct
                let mut set = std::collections::HashSet::new();
                for s in &subs {
                    assert_eq!(s.dim(), k);
                    assert!(set.insert((s.fixed_mask(), s.pattern())));
                }
            }
        }
    }

    #[test]
    fn enumerate_full_and_zero_dim() {
        assert_eq!(Subcube::enumerate(4, 4).len(), 1);
        assert_eq!(Subcube::enumerate(4, 0).len(), 16);
    }

    #[test]
    #[should_panic(expected = "already fixed")]
    fn split_twice_along_same_dim_panics() {
        let (a, _) = Subcube::whole(3).split(1);
        let _ = a.split(1);
    }

    #[test]
    #[should_panic(expected = "node outside subcube")]
    fn local_address_of_outsider_panics() {
        let (a, _) = Subcube::whole(3).split(0);
        a.local_address(NodeId::new(1));
    }
}
