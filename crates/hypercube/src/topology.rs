//! The hypercube interconnection topology `Q_n`.
//!
//! `Q_n` has `N = 2^n` processors; processor `u` is linked to the `n`
//! processors whose addresses differ from `u` in exactly one bit. Diameter
//! and node degree are both `n = log₂ N` — the low-diameter, high-connectivity
//! properties that made hypercube multicomputers (Cosmic Cube, NCUBE, iPSC)
//! attractive.

use crate::address::NodeId;
use crate::subcube::Subcube;

/// An `n`-dimensional binary hypercube topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hypercube {
    n: u8,
}

impl Hypercube {
    /// Creates `Q_n`.
    ///
    /// # Panics
    /// If `n` exceeds [`crate::address::MAX_DIM`].
    pub fn new(n: usize) -> Self {
        assert!(
            n <= crate::address::MAX_DIM,
            "hypercube dimension {n} exceeds MAX_DIM"
        );
        Hypercube { n: n as u8 }
    }

    /// The dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n as usize
    }

    /// The number of processors `N = 2^n`.
    #[inline]
    pub fn len(&self) -> usize {
        1usize << self.n
    }

    /// A hypercube always has at least one node (`Q_0` is a single node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` is a valid address in this hypercube.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        (node.raw() as u64) < (1u64 << self.n)
    }

    /// All node addresses in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId::new)
    }

    /// The `n` neighbors of `node`, ordered by dimension.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(self.contains(node));
        (0..self.dim()).map(move |d| node.neighbor(d))
    }

    /// Whether `a` and `b` are joined by a link.
    #[inline]
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        a.hamming(b) == 1
    }

    /// Graph distance between `a` and `b` (Hamming distance).
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        a.hamming(b)
    }

    /// The topology diameter, `n`.
    #[inline]
    pub fn diameter(&self) -> usize {
        self.dim()
    }

    /// The whole cube as a [`Subcube`].
    #[inline]
    pub fn as_subcube(&self) -> Subcube {
        Subcube::whole(self.dim())
    }

    /// The canonical bisection of `Q_n` along dimension `d` used by bitonic
    /// sorting: `(u_d = 0, u_d = 1)` halves.
    pub fn bisect(&self, d: usize) -> (Subcube, Subcube) {
        self.as_subcube().split(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q6_is_ncube7_sized() {
        // The paper's testbed: NCUBE/7 with 64 processors.
        let q6 = Hypercube::new(6);
        assert_eq!(q6.len(), 64);
        assert_eq!(q6.diameter(), 6);
    }

    #[test]
    fn q0_is_a_single_node() {
        let q0 = Hypercube::new(0);
        assert_eq!(q0.len(), 1);
        assert_eq!(q0.nodes().count(), 1);
    }

    #[test]
    fn every_node_has_n_distinct_neighbors() {
        let q = Hypercube::new(5);
        for u in q.nodes() {
            let nbrs: Vec<NodeId> = q.neighbors(u).collect();
            assert_eq!(nbrs.len(), 5);
            for (d, &v) in nbrs.iter().enumerate() {
                assert!(q.adjacent(u, v));
                assert_eq!(u.raw() ^ v.raw(), 1 << d);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let q = Hypercube::new(4);
        for a in q.nodes() {
            assert!(!q.adjacent(a, a));
            for b in q.nodes() {
                assert_eq!(q.adjacent(a, b), q.adjacent(b, a));
            }
        }
    }

    #[test]
    fn distance_equals_shortest_path_length() {
        // BFS-verified on Q4.
        let q = Hypercube::new(4);
        for s in q.nodes() {
            let mut dist = vec![u32::MAX; q.len()];
            dist[s.index()] = 0;
            let mut frontier = std::collections::VecDeque::from([s]);
            while let Some(u) = frontier.pop_front() {
                for v in q.neighbors(u) {
                    if dist[v.index()] == u32::MAX {
                        dist[v.index()] = dist[u.index()] + 1;
                        frontier.push_back(v);
                    }
                }
            }
            for t in q.nodes() {
                assert_eq!(q.distance(s, t), dist[t.index()]);
            }
        }
    }

    #[test]
    fn bisect_gives_two_half_cubes() {
        let q = Hypercube::new(6);
        for d in 0..6 {
            let (lo, hi) = q.bisect(d);
            assert_eq!(lo.len(), 32);
            assert_eq!(hi.len(), 32);
            assert!(lo.is_disjoint(&hi));
        }
    }
}
