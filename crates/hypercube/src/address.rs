//! Node addresses and bit-level utilities for hypercube topologies.
//!
//! A node of an `n`-dimensional hypercube `Q_n` is addressed by an `n`-bit
//! binary string `u_{n-1} u_{n-2} … u_0`; two nodes are neighbors exactly when
//! their addresses differ in a single bit. The paper indexes dimensions from
//! the least significant bit (`dimension 0` flips `u_0`).

use std::fmt;

/// Maximum supported hypercube dimension.
///
/// Addresses are stored in a `u32`, so up to `Q_32` is representable; in
/// practice simulation sizes stay far below this (the paper's machine is
/// `Q_6` — an NCUBE/7 with 64 processors).
pub const MAX_DIM: usize = 32;

/// Address of one processor in a hypercube.
///
/// `NodeId` is a thin wrapper over the binary address. It is meaningful only
/// relative to a dimension `n` (carried by [`crate::topology::Hypercube`] or
/// passed explicitly); the wrapper itself does not store `n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node address from its integer value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw integer address.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The address as an index into per-node arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The neighbor of this node along dimension `d` (flip bit `d`).
    #[inline]
    pub const fn neighbor(self, d: usize) -> Self {
        NodeId(self.0 ^ (1 << d))
    }

    /// Value of address bit `d` (`0` or `1`).
    #[inline]
    pub const fn bit(self, d: usize) -> u32 {
        (self.0 >> d) & 1
    }

    /// Returns `self` with bit `d` set to `v` (`v` must be 0 or 1).
    #[inline]
    pub const fn with_bit(self, d: usize, v: u32) -> Self {
        NodeId((self.0 & !(1 << d)) | ((v & 1) << d))
    }

    /// Hamming distance between two addresses: the length of a shortest
    /// routing path between the nodes in a fault-free hypercube.
    #[inline]
    pub const fn hamming(self, other: Self) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// XOR-translation of this address by `mask`.
    ///
    /// XOR by a fixed mask is an automorphism of the hypercube (it preserves
    /// adjacency), which is what makes the paper's *reindex* operation sound:
    /// relabeling every node `u` as `u ⊕ f` moves the faulty node `f` to
    /// logical address 0 without changing the communication structure.
    #[inline]
    pub const fn xor(self, mask: u32) -> Self {
        NodeId(self.0 ^ mask)
    }

    /// Formats the address as an `n`-bit binary string `u_{n-1}…u_0`.
    pub fn to_bits(self, n: usize) -> String {
        debug_assert!(n <= MAX_DIM);
        (0..n)
            .rev()
            .map(|d| if self.bit(d) == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<usize> for NodeId {
    fn from(raw: usize) -> Self {
        NodeId(raw as u32)
    }
}

/// Returns the bits of `value` extracted at the positions listed in `dims`,
/// packed into a new integer: bit `i` of the result is bit `dims[i]` of
/// `value`.
///
/// This is the paper's address split: for a cutting dimension sequence
/// `D = (d₁, …, d_m)` the *subcube address* of node `u` is
/// `v_{m-1}…v_0 = u_{d_m} … u_{d_1}` (so `dims` is in ascending order and
/// `v_i = u_{d_{i+1}}`).
#[inline]
pub fn extract_bits(value: u32, dims: &[usize]) -> u32 {
    let mut out = 0u32;
    for (i, &d) in dims.iter().enumerate() {
        out |= ((value >> d) & 1) << i;
    }
    out
}

/// Inverse of [`extract_bits`]: scatters bit `i` of `packed` to position
/// `dims[i]` of the result. Bits outside `dims` are zero.
#[inline]
pub fn scatter_bits(packed: u32, dims: &[usize]) -> u32 {
    let mut out = 0u32;
    for (i, &d) in dims.iter().enumerate() {
        out |= ((packed >> i) & 1) << d;
    }
    out
}

/// The dimensions of `Q_n` *not* present in `dims`, in ascending order.
///
/// For a cutting sequence `D` these are the `s = n − m` dimensions that form
/// the local (within-subcube) address space `w_{s-1}…w_0`.
pub fn complement_dims(n: usize, dims: &[usize]) -> Vec<usize> {
    (0..n).filter(|d| !dims.contains(d)).collect()
}

/// Reflected binary Gray code of `i`: consecutive values differ in one bit.
///
/// Gray sequences give Hamiltonian paths/cycles in hypercubes and are used by
/// the ring embedding in [`crate::embedding`].
#[inline]
pub const fn gray(i: u32) -> u32 {
    i ^ (i >> 1)
}

/// Inverse Gray code: `gray_inverse(gray(i)) == i`.
#[inline]
pub const fn gray_inverse(mut g: u32) -> u32 {
    let mut i = g;
    loop {
        g >>= 1;
        if g == 0 {
            return i;
        }
        i ^= g;
    }
}

/// Position of the single set bit of `x`; panics unless `x` is a power of
/// two. Useful to recover the dimension along which two neighbors differ.
#[inline]
pub fn single_bit_dim(x: u32) -> usize {
    assert_eq!(x.count_ones(), 1, "addresses are not hypercube neighbors");
    x.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_flips_exactly_one_bit() {
        let p = NodeId::new(0b01011);
        for d in 0..5 {
            let q = p.neighbor(d);
            assert_eq!(p.hamming(q), 1);
            assert_eq!(single_bit_dim(p.raw() ^ q.raw()), d);
            assert_eq!(q.neighbor(d), p, "neighbor is an involution");
        }
    }

    #[test]
    fn bit_accessors_roundtrip() {
        let p = NodeId::new(0b10110);
        assert_eq!(p.bit(0), 0);
        assert_eq!(p.bit(1), 1);
        assert_eq!(p.bit(2), 1);
        assert_eq!(p.bit(3), 0);
        assert_eq!(p.bit(4), 1);
        assert_eq!(p.with_bit(0, 1), NodeId::new(0b10111));
        assert_eq!(p.with_bit(4, 0), NodeId::new(0b00110));
        assert_eq!(p.with_bit(2, 1), p);
    }

    #[test]
    fn hamming_distance_examples_from_paper() {
        // Example 2 of the paper: HD(01,10)=2, HD(00,01)=1, HD(10,10)=0.
        assert_eq!(NodeId::new(0b01).hamming(NodeId::new(0b10)), 2);
        assert_eq!(NodeId::new(0b00).hamming(NodeId::new(0b01)), 1);
        assert_eq!(NodeId::new(0b10).hamming(NodeId::new(0b10)), 0);
    }

    #[test]
    fn xor_reindex_moves_fault_to_zero_and_preserves_adjacency() {
        let fault = NodeId::new(0b01101);
        assert_eq!(fault.xor(fault.raw()), NodeId::new(0));
        // adjacency preserved for every pair of neighbors
        for u in 0..32u32 {
            for d in 0..5 {
                let a = NodeId::new(u).xor(fault.raw());
                let b = NodeId::new(u).neighbor(d).xor(fault.raw());
                assert_eq!(a.hamming(b), 1);
            }
        }
    }

    #[test]
    fn to_bits_formats_msb_first() {
        assert_eq!(NodeId::new(0b00011).to_bits(5), "00011");
        assert_eq!(NodeId::new(0b11000).to_bits(5), "11000");
        assert_eq!(NodeId::new(0).to_bits(3), "000");
    }

    #[test]
    fn extract_and_scatter_are_inverse() {
        // The paper's Q5 example: D = (0,1,3) so subcube bits are u3 u1 u0
        // and local bits are u4 u2.
        let dims = [0usize, 1, 3];
        let local = [2usize, 4];
        // FP2 = 00101: v = u3 u1 u0 = 0,0,1 = 001; w = u4 u2 = 0,1 = 01.
        let fp2 = 0b00101;
        assert_eq!(extract_bits(fp2, &dims), 0b001);
        assert_eq!(extract_bits(fp2, &local), 0b01);
        assert_eq!(scatter_bits(0b001, &dims) | scatter_bits(0b01, &local), fp2);
        // FP3 = 10000: v = 000, w = 10.
        let fp3 = 0b10000;
        assert_eq!(extract_bits(fp3, &dims), 0b000);
        assert_eq!(extract_bits(fp3, &local), 0b10);
    }

    #[test]
    fn complement_dims_partitions_dimensions() {
        assert_eq!(complement_dims(5, &[0, 1, 3]), vec![2, 4]);
        assert_eq!(complement_dims(4, &[1, 3]), vec![0, 2]);
        assert_eq!(complement_dims(3, &[]), vec![0, 1, 2]);
        assert_eq!(complement_dims(3, &[0, 1, 2]), Vec::<usize>::new());
    }

    #[test]
    fn gray_code_adjacent_values_differ_by_one_bit() {
        for i in 0..255u32 {
            assert_eq!((gray(i) ^ gray(i + 1)).count_ones(), 1);
        }
    }

    #[test]
    fn gray_inverse_roundtrips() {
        for i in 0..1024u32 {
            assert_eq!(gray_inverse(gray(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "not hypercube neighbors")]
    fn single_bit_dim_rejects_non_neighbors() {
        single_bit_dim(0b101);
    }
}
