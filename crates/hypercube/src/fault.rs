//! Fault sets and fault models.
//!
//! The paper assumes *permanent* processor faults whose locations are known
//! before the sorting algorithm runs (identified off-line by a diagnosis
//! algorithm — see [`crate::diagnosis`]). Two severities are distinguished in
//! its §4, following Hastad, Leighton & Newman:
//!
//! * **Partial fault** — only the computational part of the processor is
//!   dead; its communication hardware and incident links still relay
//!   messages. This is what the NCUBE/7 VERTEX runtime gives you for free and
//!   what the paper's measurements use.
//! * **Total fault** — the processor and *all incident links* are dead;
//!   routes must detour around it, which costs extra hops.

use crate::address::NodeId;
use crate::topology::Hypercube;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Severity of processor faults (paper §4, after Hastad et al.).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultModel {
    /// Computation dead, communication alive: faulty nodes still relay
    /// messages (the NCUBE/VERTEX situation the paper simulates).
    #[default]
    Partial,
    /// Node and all incident links dead: routing must avoid faulty nodes.
    Total,
}

/// A (bidirectional) hypercube link, identified by its lower endpoint and
/// the dimension it spans.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Link {
    /// The endpoint with the lower address (bit `dim` = 0).
    pub lo: NodeId,
    /// The dimension the link spans.
    pub dim: usize,
}

impl Link {
    /// The link incident to `node` along dimension `d` (normalized to the
    /// lower endpoint).
    pub fn new(node: NodeId, d: usize) -> Self {
        Link {
            lo: node.with_bit(d, 0),
            dim: d,
        }
    }

    /// The link joining two neighboring nodes.
    ///
    /// # Panics
    /// If the nodes are not hypercube neighbors.
    pub fn between(a: NodeId, b: NodeId) -> Self {
        let d = crate::address::single_bit_dim(a.raw() ^ b.raw());
        Link::new(a, d)
    }

    /// The two endpoints, lower first.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.lo.neighbor(self.dim))
    }
}

/// An immutable set of faulty processors (and, optionally, faulty links) in
/// a hypercube.
#[derive(Clone, PartialEq, Eq)]
pub struct FaultSet {
    cube: Hypercube,
    faulty: BTreeSet<NodeId>,
    faulty_links: BTreeSet<Link>,
    model: FaultModel,
}

impl FaultSet {
    /// Creates a fault set over `cube` with the given faulty nodes.
    ///
    /// # Panics
    /// If any address is out of range or listed twice.
    pub fn new(cube: Hypercube, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut faulty = BTreeSet::new();
        for p in nodes {
            assert!(
                cube.contains(p),
                "faulty node {p:?} outside Q{}",
                cube.dim()
            );
            assert!(faulty.insert(p), "duplicate faulty node {p:?}");
        }
        FaultSet {
            cube,
            faulty,
            faulty_links: BTreeSet::new(),
            model: FaultModel::default(),
        }
    }

    /// An empty (fault-free) fault set.
    pub fn none(cube: Hypercube) -> Self {
        FaultSet::new(cube, [])
    }

    /// Convenience constructor from raw addresses.
    pub fn from_raw(cube: Hypercube, raw: &[u32]) -> Self {
        FaultSet::new(cube, raw.iter().copied().map(NodeId::new))
    }

    /// Sets the fault model (builder style).
    pub fn with_model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }

    /// Adds faulty links (builder style). Link faults are physical — routes
    /// must detour around them under *both* fault models; they do not kill
    /// the endpoint processors.
    ///
    /// # Panics
    /// If a link is out of range or listed twice.
    pub fn with_faulty_links(mut self, links: impl IntoIterator<Item = Link>) -> Self {
        for l in links {
            assert!(
                self.cube.contains(l.lo) && l.dim < self.cube.dim(),
                "faulty link {l:?} outside Q{}",
                self.cube.dim()
            );
            assert!(self.faulty_links.insert(l), "duplicate faulty link {l:?}");
        }
        self
    }

    /// The faulty links, in order.
    pub fn faulty_links(&self) -> impl Iterator<Item = Link> + '_ {
        self.faulty_links.iter().copied()
    }

    /// Number of faulty links.
    pub fn link_fault_count(&self) -> usize {
        self.faulty_links.len()
    }

    /// Whether the link between two neighboring nodes is faulty.
    pub fn is_link_faulty(&self, a: NodeId, b: NodeId) -> bool {
        !self.faulty_links.is_empty() && self.faulty_links.contains(&Link::between(a, b))
    }

    /// Degrades every link fault into a processor fault on one endpoint
    /// (preferring an endpoint that is already faulty, else the lower one) —
    /// the classic reduction that lets processor-fault-only algorithms such
    /// as the paper's partition scheme absorb link failures at the price of
    /// idling one healthy processor per broken link.
    pub fn absorb_link_faults(&self) -> FaultSet {
        let mut faulty = self.faulty.clone();
        for l in &self.faulty_links {
            let (a, b) = l.endpoints();
            if !faulty.contains(&a) && !faulty.contains(&b) {
                faulty.insert(a);
            }
        }
        FaultSet {
            cube: self.cube,
            faulty,
            faulty_links: BTreeSet::new(),
            model: self.model,
        }
    }

    /// Whether every pair of normal processors can still reach each other
    /// (honoring the fault model and faulty links).
    pub fn is_connected(&self) -> bool {
        let normals: Vec<NodeId> = self.normal_nodes().collect();
        let Some(&start) = normals.first() else {
            return true;
        };
        let passable = |p: NodeId| match self.model {
            FaultModel::Partial => true,
            FaultModel::Total => self.is_normal(p),
        };
        let mut seen = vec![false; self.cube.len()];
        seen[start.index()] = true;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for v in self.cube.neighbors(u) {
                if !seen[v.index()] && passable(v) && !self.is_link_faulty(u, v) {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        normals.iter().all(|p| seen[p.index()])
    }

    /// Draws `r` distinct faulty processors uniformly at random, as in the
    /// paper's experiments ("the addresses of faulty processors are randomly
    /// generated on each of 10000 simulations").
    pub fn random<R: Rng + ?Sized>(cube: Hypercube, r: usize, rng: &mut R) -> Self {
        assert!(r <= cube.len(), "more faults than processors");
        // For the small cubes of the paper a shuffle-prefix draw is exact and
        // cheap; for large cubes fall back to rejection sampling.
        if cube.len() <= 1 << 16 {
            let mut all: Vec<u32> = (0..cube.len() as u32).collect();
            all.shuffle(rng);
            FaultSet::new(cube, all[..r].iter().copied().map(NodeId::new))
        } else {
            let mut set = BTreeSet::new();
            while set.len() < r {
                set.insert(NodeId::new(rng.random_range(0..cube.len() as u32)));
            }
            FaultSet {
                cube,
                faulty: set,
                faulty_links: BTreeSet::new(),
                model: FaultModel::default(),
            }
        }
    }

    /// The underlying topology.
    #[inline]
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The fault model in force.
    #[inline]
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// Number of faulty processors `r`.
    #[inline]
    pub fn count(&self) -> usize {
        self.faulty.len()
    }

    /// Whether there are no faults.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faulty.is_empty()
    }

    /// Whether `node` is faulty.
    #[inline]
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.faulty.contains(&node)
    }

    /// Whether `node` is a normal (non-faulty) processor.
    #[inline]
    pub fn is_normal(&self, node: NodeId) -> bool {
        !self.is_faulty(node)
    }

    /// Faulty addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faulty.iter().copied()
    }

    /// Faulty addresses as a vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.faulty.iter().copied().collect()
    }

    /// Normal processors in ascending address order.
    pub fn normal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cube.nodes().filter(move |p| self.is_normal(*p))
    }

    /// Number of normal processors, `N − r`.
    #[inline]
    pub fn normal_count(&self) -> usize {
        self.cube.len() - self.count()
    }

    /// Whether some normal processor is *isolated* (all `n` neighbors
    /// faulty). Impossible when `r ≤ n − 1`; the partition algorithm remains
    /// applicable for `r ≥ n` as long as this returns `false` (paper §2.2).
    pub fn isolates_a_normal_node(&self) -> bool {
        if self.cube.dim() == 0 {
            return false;
        }
        self.normal_nodes()
            .any(|p| self.cube.neighbors(p).all(|q| self.is_faulty(q)))
    }

    /// Count of faulty processors inside a subcube.
    pub fn count_in(&self, sc: &crate::subcube::Subcube) -> usize {
        self.faulty.iter().filter(|p| sc.contains(**p)).count()
    }
}

impl fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultSet(Q{}, {:?}, {:?})",
            self.cube.dim(),
            self.to_vec(),
            self.model
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(n: usize) -> Hypercube {
        Hypercube::new(n)
    }

    #[test]
    fn basic_membership() {
        let fs = FaultSet::from_raw(q(5), &[3, 5, 16, 24]); // the paper's Example 1
        assert_eq!(fs.count(), 4);
        assert_eq!(fs.normal_count(), 28);
        assert!(fs.is_faulty(NodeId::new(3)));
        assert!(fs.is_normal(NodeId::new(4)));
        assert_eq!(
            fs.to_vec(),
            vec![3u32.into(), 5u32.into(), 16u32.into(), 24u32.into()]
        );
    }

    #[test]
    fn isolation_detection() {
        // In Q2 node 0's neighbors are 1 and 2; killing both isolates it.
        let fs = FaultSet::from_raw(q(2), &[1, 2]);
        assert!(fs.isolates_a_normal_node());
        let fs = FaultSet::from_raw(q(3), &[1, 2]);
        assert!(!fs.isolates_a_normal_node()); // neighbor 4 survives
    }

    #[test]
    fn random_draw_has_exact_count_and_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in 1..=6 {
            for r in 0..n {
                let fs = FaultSet::random(q(n), r, &mut rng);
                assert_eq!(fs.count(), r);
                assert!(fs.iter().all(|p| q(n).contains(p)));
            }
        }
    }

    #[test]
    fn random_draw_is_reproducible_by_seed() {
        let a = FaultSet::random(q(6), 5, &mut StdRng::seed_from_u64(7));
        let b = FaultSet::random(q(6), 5, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn random_draw_is_roughly_uniform() {
        // Each node should be picked with probability r/N.
        let mut rng = StdRng::seed_from_u64(123);
        let trials = 20_000;
        let mut hits = [0u32; 16];
        for _ in 0..trials {
            for p in FaultSet::random(q(4), 3, &mut rng).iter() {
                hits[p.index()] += 1;
            }
        }
        let expected = trials as f64 * 3.0 / 16.0;
        for (i, &h) in hits.iter().enumerate() {
            let dev = (h as f64 - expected).abs() / expected;
            assert!(dev < 0.10, "node {i}: {h} hits vs {expected} expected");
        }
    }

    #[test]
    fn count_in_subcubes() {
        let fs = FaultSet::from_raw(q(4), &[0, 6, 9]); // paper Fig. 3
        let (lo, hi) = q(4).bisect(1);
        assert_eq!(fs.count_in(&lo), 2); // {0, 9}
        assert_eq!(fs.count_in(&hi), 1); // {6}
    }

    #[test]
    fn normal_nodes_complement_faults() {
        let fs = FaultSet::from_raw(q(3), &[2, 5]);
        let normals: Vec<u32> = fs.normal_nodes().map(|p| p.raw()).collect();
        assert_eq!(normals, vec![0, 1, 3, 4, 6, 7]);
    }

    #[test]
    fn link_normalization_and_endpoints() {
        let l1 = Link::new(NodeId::new(0b101), 1);
        let l2 = Link::new(NodeId::new(0b111), 1);
        assert_eq!(l1, l2, "links normalize to the lower endpoint");
        assert_eq!(l1.endpoints(), (NodeId::new(0b101), NodeId::new(0b111)));
        assert_eq!(Link::between(NodeId::new(0b111), NodeId::new(0b101)), l1);
    }

    #[test]
    fn link_fault_membership() {
        let fs = FaultSet::none(q(3)).with_faulty_links([Link::new(NodeId::new(0), 2)]);
        assert_eq!(fs.link_fault_count(), 1);
        assert!(fs.is_link_faulty(NodeId::new(0), NodeId::new(4)));
        assert!(fs.is_link_faulty(NodeId::new(4), NodeId::new(0)));
        assert!(!fs.is_link_faulty(NodeId::new(0), NodeId::new(1)));
        assert_eq!(fs.normal_count(), 8, "link faults kill no processor");
    }

    #[test]
    fn absorb_link_faults_degrades_to_node_faults() {
        let fs = FaultSet::from_raw(q(3), &[5])
            .with_faulty_links([Link::new(NodeId::new(5), 1), Link::new(NodeId::new(0), 0)]);
        let absorbed = fs.absorb_link_faults();
        assert_eq!(absorbed.link_fault_count(), 0);
        // link (5,7): endpoint 5 already faulty → no extra fault
        // link (0,1): lower endpoint 0 marked faulty
        assert_eq!(absorbed.to_vec(), vec![NodeId::new(0), NodeId::new(5)]);
    }

    #[test]
    fn connectivity_with_link_faults() {
        // cutting all 3 links of node 0 disconnects it
        let all = [0usize, 1, 2].map(|d| Link::new(NodeId::new(0), d));
        let fs = FaultSet::none(q(3)).with_faulty_links(all);
        assert!(!fs.is_connected());
        // cutting two of them leaves a path
        let fs = FaultSet::none(q(3)).with_faulty_links(all[..2].to_vec());
        assert!(fs.is_connected());
    }

    #[test]
    fn connectivity_honours_fault_model() {
        // node 1 and 2 faulty in Q2: remaining normals 0, 3 connect only
        // through the faulty relays — fine under Partial, broken under Total
        let fs = FaultSet::from_raw(q(2), &[1, 2]);
        assert!(fs.clone().with_model(FaultModel::Partial).is_connected());
        assert!(!fs.with_model(FaultModel::Total).is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate faulty link")]
    fn duplicate_link_faults_rejected() {
        let _ = FaultSet::none(q(3))
            .with_faulty_links([Link::new(NodeId::new(0), 1), Link::new(NodeId::new(2), 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_faults_rejected() {
        let _ = FaultSet::from_raw(q(3), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_fault_rejected() {
        let _ = FaultSet::from_raw(q(3), &[8]);
    }
}
