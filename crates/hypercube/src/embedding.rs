//! Gray-code ring embedding into the hypercube.
//!
//! The hypercube's popularity (paper §1) came partly from how cheaply other
//! topologies embed into it: a ring of `2^n` nodes maps into `Q_n` with
//! dilation 1 via the reflected Gray code. The sort itself does not use
//! the ring; the odd-even transposition baseline (`ftsort::baselines`)
//! runs over it, and it doubles as a Hamiltonian-cycle generator for tests.

use crate::address::{gray, gray_inverse, NodeId};
use crate::topology::Hypercube;

/// A ring of `2^n` nodes embedded in `Q_n` with dilation 1 (a Hamiltonian
/// cycle), via the reflected Gray code.
#[derive(Clone, Debug)]
pub struct RingEmbedding {
    cube: Hypercube,
}

impl RingEmbedding {
    /// Embeds the ring of `2^n` virtual nodes into `Q_n`.
    ///
    /// # Panics
    /// For `n == 0` (no cycle exists on one node).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "no ring on Q0");
        RingEmbedding { cube }
    }

    /// The physical node hosting ring position `i`.
    pub fn node_at(&self, i: usize) -> NodeId {
        assert!(i < self.cube.len());
        NodeId::new(gray(i as u32))
    }

    /// The ring position hosted by physical node `p`.
    pub fn position_of(&self, p: NodeId) -> usize {
        assert!(self.cube.contains(p));
        gray_inverse(p.raw()) as usize
    }

    /// Successor of ring position `i` (wraps around).
    pub fn next(&self, i: usize) -> usize {
        (i + 1) % self.cube.len()
    }

    /// The full cycle as physical addresses.
    pub fn cycle(&self) -> Vec<NodeId> {
        (0..self.cube.len()).map(|i| self.node_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_a_hamiltonian_cycle() {
        for n in 1..=8 {
            let cube = Hypercube::new(n);
            let ring = RingEmbedding::new(cube);
            let cycle = ring.cycle();
            assert_eq!(cycle.len(), cube.len());
            // every node appears exactly once
            let mut seen = vec![false; cube.len()];
            for p in &cycle {
                assert!(!seen[p.index()]);
                seen[p.index()] = true;
            }
            // consecutive positions (and the wrap edge) are hypercube links
            for i in 0..cycle.len() {
                let j = ring.next(i);
                assert!(
                    cube.adjacent(cycle[i], cycle[j]),
                    "n={n}: positions {i}->{j} not adjacent"
                );
            }
        }
    }

    #[test]
    fn ring_position_roundtrip() {
        let ring = RingEmbedding::new(Hypercube::new(5));
        for i in 0..32 {
            assert_eq!(ring.position_of(ring.node_at(i)), i);
        }
    }
}
