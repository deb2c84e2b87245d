//! The single-fault subcube structure `F_n^m` (paper Definition 1) with the
//! paper's addressing: cutting `Q_n` along `D = (d₁, …, d_m)` yields `2^m`
//! subcubes addressed by `v_{m-1}…v_0 = u_{d_m}…u_{d_1}`; the remaining
//! `s = n − m` bits form each subcube's local address space `w_{s-1}…w_0`.

use hypercube::address::{complement_dims, extract_bits, scatter_bits, NodeId};
use hypercube::fault::FaultSet;
use hypercube::subcube::Subcube;
use hypercube::topology::Hypercube;

/// Why a processor is dead (holds no data) inside its subcube.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeadKind {
    /// An actual faulty processor.
    Faulty,
    /// A normal processor designated *dangling* to balance the workload
    /// (paper §3: one per fault-free subcube).
    Dangling,
}

/// One subcube of the structure.
#[derive(Clone, Debug)]
pub struct SubcubeInfo {
    /// The subcube address `v` (packed `u_{d_m}…u_{d_1}`).
    pub v: u32,
    /// The subcube as a region of the original cube.
    pub subcube: Subcube,
    /// Local address (`w` bits) of the dead processor, with its kind;
    /// `None` when the subcube is fault-free and no dangling processor has
    /// been designated (only possible before [`SingleFaultStructure::with_danglings`]).
    pub dead_local: Option<(u32, DeadKind)>,
}

impl SubcubeInfo {
    /// The reindex mask: XOR-ing local addresses with it moves the dead
    /// processor to local 0. Zero when no dead processor exists.
    pub fn reindex_mask(&self) -> u32 {
        self.dead_local.map(|(w, _)| w).unwrap_or(0)
    }
}

/// The partitioned hypercube `F_n^m` for a chosen cutting sequence.
#[derive(Clone, Debug)]
pub struct SingleFaultStructure {
    cube: Hypercube,
    dims: Vec<usize>,
    local_dims: Vec<usize>,
    subcubes: Vec<SubcubeInfo>,
}

impl SingleFaultStructure {
    /// Builds the structure for `faults` under the (feasible, ascending)
    /// cutting sequence `dims`. Fault-free subcubes have no dead processor
    /// yet; call [`SingleFaultStructure::with_danglings`] to designate them.
    ///
    /// # Panics
    /// If `dims` is not ascending, contains duplicates, or does not separate
    /// the faults (some subcube would get two faults).
    pub fn new(faults: &FaultSet, dims: &[usize]) -> Self {
        let cube = faults.cube();
        let n = cube.dim();
        assert!(
            dims.windows(2).all(|w| w[0] < w[1]),
            "cutting sequence must be strictly ascending"
        );
        assert!(
            dims.iter().all(|&d| d < n),
            "cutting dimension out of range"
        );
        let m = dims.len();
        let local_dims = complement_dims(n, dims);
        let fixed_mask: u32 = dims.iter().fold(0, |acc, &d| acc | (1 << d));

        let mut subcubes: Vec<SubcubeInfo> = (0..(1u32 << m))
            .map(|v| {
                let pattern = scatter_bits(v, dims);
                SubcubeInfo {
                    v,
                    subcube: Subcube::new(n, fixed_mask, pattern),
                    dead_local: None,
                }
            })
            .collect();

        for fault in faults.iter() {
            let v = extract_bits(fault.raw(), dims) as usize;
            let w = extract_bits(fault.raw(), &local_dims);
            assert!(
                subcubes[v].dead_local.is_none(),
                "cutting sequence {dims:?} does not separate the faults"
            );
            subcubes[v].dead_local = Some((w, DeadKind::Faulty));
        }

        SingleFaultStructure {
            cube,
            dims: dims.to_vec(),
            local_dims,
            subcubes,
        }
    }

    /// Designates the processor with local address `w` as dangling in every
    /// fault-free subcube (the paper balances all subcubes to the same live
    /// count; the heuristic choice of `w` lives in [`crate::select`]).
    ///
    /// # Panics
    /// If `w` is out of range. No-op on subcubes that already have a fault.
    pub fn with_danglings(mut self, w: u32) -> Self {
        assert!(
            (w as u64) < (1u64 << self.s()),
            "dangling address out of range"
        );
        for info in &mut self.subcubes {
            if info.dead_local.is_none() {
                info.dead_local = Some((w, DeadKind::Dangling));
            }
        }
        self
    }

    /// The original hypercube.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The cutting sequence `D` (ascending).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The local (non-cut) dimensions, ascending.
    pub fn local_dims(&self) -> &[usize] {
        &self.local_dims
    }

    /// `m`, the number of cutting dimensions.
    pub fn m(&self) -> usize {
        self.dims.len()
    }

    /// `s = n − m`, the dimension of each subcube.
    pub fn s(&self) -> usize {
        self.cube.dim() - self.m()
    }

    /// The subcubes, indexed by subcube address `v`.
    pub fn subcubes(&self) -> &[SubcubeInfo] {
        &self.subcubes
    }

    /// The subcube with address `v`.
    pub fn subcube(&self, v: u32) -> &SubcubeInfo {
        &self.subcubes[v as usize]
    }

    /// Number of live (data-holding) processors:
    /// `N' = 2^n − (dead per subcube)`.
    pub fn live_count(&self) -> usize {
        self.cube.len()
            - self
                .subcubes
                .iter()
                .filter(|i| i.dead_local.is_some())
                .count()
    }

    /// Number of dangling processors currently designated.
    pub fn dangling_count(&self) -> usize {
        self.subcubes
            .iter()
            .filter(|i| matches!(i.dead_local, Some((_, DeadKind::Dangling))))
            .count()
    }

    /// The physical address of the processor of subcube `v` whose
    /// **reindexed** local address is `w` (the dead processor, if any, has
    /// `w = 0`). O(s) and allocation-free: step 7 looks up its partner in
    /// the neighbouring subcube with it on every substage.
    ///
    /// # Panics
    /// If `v` or `w` is out of range.
    #[inline]
    pub fn member(&self, v: u32, w: u32) -> NodeId {
        let info = self.subcube(v);
        info.subcube.global_address(w ^ info.reindex_mask())
    }

    /// The physical addresses of subcube `v`'s processors indexed by
    /// reindexed local address: entry `w` is [`Self::member`]`(v, w)`. This
    /// is the member map handed to the distributed bitonic sort.
    pub fn members(&self, v: u32) -> Vec<NodeId> {
        (0..(1u32 << self.s())).map(|w| self.member(v, w)).collect()
    }

    /// Decomposes a physical address into `(v, reindexed local address)`.
    pub fn locate(&self, p: NodeId) -> (u32, u32) {
        let v = extract_bits(p.raw(), &self.dims);
        let w = extract_bits(p.raw(), &self.local_dims);
        (v, w ^ self.subcube(v).reindex_mask())
    }

    /// The physical address of the dangling/faulty (dead) processor of
    /// subcube `v`, if designated.
    pub fn dead_physical(&self, v: u32) -> Option<NodeId> {
        let info = self.subcube(v);
        info.dead_local.map(|(w, _)| info.subcube.global_address(w))
    }

    /// All live processors' physical addresses in `(v, reindexed w)` order —
    /// the gather order of the fault-tolerant sort.
    pub fn live_in_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.live_count());
        for v in 0..(1u32 << self.m()) {
            let members = self.members(v);
            let dead = self.subcube(v).dead_local.is_some();
            for (w, &p) in members.iter().enumerate() {
                if dead && w == 0 {
                    continue;
                }
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> (FaultSet, SingleFaultStructure) {
        // Example 1/2: Q5, faults 00011, 00101, 10000, 11000, D₁ = (0,1,3)
        let faults = FaultSet::from_raw(Hypercube::new(5), &[0b00011, 0b00101, 0b10000, 0b11000]);
        let st = SingleFaultStructure::new(&faults, &[0, 1, 3]);
        (faults, st)
    }

    #[test]
    fn paper_example_subcube_addresses() {
        let (_, st) = paper_example();
        assert_eq!(st.m(), 3);
        assert_eq!(st.s(), 2);
        assert_eq!(st.local_dims(), &[2, 4]);
        // FP1..FP4 land in subcubes 011, 001, 000, 100 with local addresses
        // 00, 01, 10, 10 (paper Example 2 / Fig. 5)
        let expect = [
            (0b011u32, 0b00u32),
            (0b001, 0b01),
            (0b000, 0b10),
            (0b100, 0b10),
        ];
        for (fp, (v, w)) in [0b00011u32, 0b00101, 0b10000, 0b11000].iter().zip(expect) {
            let sub = st.subcube(v);
            assert_eq!(
                sub.dead_local,
                Some((w, DeadKind::Faulty)),
                "fault {fp:#07b}"
            );
            assert!(sub.subcube.contains(NodeId::new(*fp)));
        }
    }

    #[test]
    fn paper_example_dangling_addresses() {
        // Example 2: with dangling local address w = 10, the dangling
        // processors are 18, 25, 26, 27.
        let (_, st) = paper_example();
        let st = st.with_danglings(0b10);
        assert_eq!(st.dangling_count(), 4);
        let mut dangling: Vec<u32> = (0..8u32)
            .filter_map(|v| {
                let info = st.subcube(v);
                match info.dead_local {
                    Some((w, DeadKind::Dangling)) => Some(info.subcube.global_address(w).raw()),
                    _ => None,
                }
            })
            .collect();
        dangling.sort_unstable();
        assert_eq!(dangling, vec![18, 25, 26, 27]);
    }

    #[test]
    fn live_count_matches_formula() {
        let (_, st) = paper_example();
        let st = st.with_danglings(0b10);
        // N' = 2^n − 2^m = 32 − 8 = 24
        assert_eq!(st.live_count(), 24);
        assert_eq!(st.live_in_order().len(), 24);
    }

    #[test]
    fn members_put_dead_processor_at_zero() {
        let (faults, st) = paper_example();
        let st = st.with_danglings(0b10);
        for v in 0..8u32 {
            let members = st.members(v);
            assert_eq!(members.len(), 4);
            // entry 0 is the dead processor
            let dead = st.dead_physical(v).unwrap();
            assert_eq!(members[0], dead);
            // entry 0 of a faulty subcube is the fault itself
            if matches!(st.subcube(v).dead_local, Some((_, DeadKind::Faulty))) {
                assert!(faults.is_faulty(dead));
            }
            // all members belong to the subcube and are distinct
            let mut seen = std::collections::HashSet::new();
            for &p in &members {
                assert!(st.subcube(v).subcube.contains(p));
                assert!(seen.insert(p));
            }
        }
    }

    /// `member` agrees with the `members` map and inverts `locate`.
    fn assert_member_roundtrips(st: &SingleFaultStructure) {
        for v in 0..(1u32 << st.m()) {
            for (w, &p) in st.members(v).iter().enumerate() {
                let w = w as u32;
                assert_eq!(st.member(v, w), p, "v={v} w={w}");
                assert_eq!(st.locate(p), (v, w), "v={v} w={w}");
            }
        }
    }

    #[test]
    fn locate_roundtrips_members() {
        let (_, st) = paper_example();
        assert_member_roundtrips(&st.with_danglings(0b10));
        // Seeded random fault sets, every cutting sequence of Ψ, danglings
        // designated at a random local address.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ab_cabe);
        for n in 2..=7 {
            for _ in 0..20 {
                let r = rng.random_range(0..=n);
                let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
                let psi = crate::partition::partition(&faults).unwrap().cutting_set;
                for dims in &psi {
                    let st = SingleFaultStructure::new(&faults, dims);
                    let w = rng.random_range(0..1u32 << st.s());
                    assert_member_roundtrips(&st.with_danglings(w));
                }
            }
        }
    }

    #[test]
    fn live_in_order_excludes_dead_and_covers_everyone_else() {
        let (faults, st) = paper_example();
        let st = st.with_danglings(0b10);
        let live = st.live_in_order();
        let mut seen = std::collections::HashSet::new();
        for &p in &live {
            assert!(faults.is_normal(p));
            assert!(seen.insert(p));
        }
        assert_eq!(live.len(), 24);
    }

    #[test]
    fn empty_cut_single_fault() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[5]);
        let st = SingleFaultStructure::new(&faults, &[]);
        assert_eq!(st.m(), 0);
        assert_eq!(st.s(), 3);
        assert_eq!(st.live_count(), 7);
        let members = st.members(0);
        assert_eq!(members[0], NodeId::new(5), "fault reindexed to 0");
        assert_eq!(members[1], NodeId::new(4)); // 1 ^ 5
    }

    #[test]
    fn empty_cut_no_faults() {
        let faults = FaultSet::none(Hypercube::new(3));
        let st = SingleFaultStructure::new(&faults, &[]);
        assert_eq!(st.live_count(), 8);
        assert_eq!(st.dead_physical(0), None);
        assert_eq!(
            st.members(0),
            (0..8u32).map(NodeId::new).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "does not separate")]
    fn rejects_infeasible_sequence() {
        let faults = FaultSet::from_raw(Hypercube::new(4), &[0, 1]);
        let _ = SingleFaultStructure::new(&faults, &[1]); // 0 and 1 differ in bit 0
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_sequence() {
        let faults = FaultSet::from_raw(Hypercube::new(4), &[0, 6]);
        let _ = SingleFaultStructure::new(&faults, &[3, 1]);
    }
}
