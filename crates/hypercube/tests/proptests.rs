//! Randomized property tests of the substrate's algebraic invariants.
//!
//! Each property is exercised over a deterministic seeded sample of the
//! input space (a lightweight stand-in for a property-testing framework,
//! which the offline build environment cannot provide); failures print the
//! offending case, which is reproducible from the fixed seed.

use hypercube::address::{complement_dims, extract_bits, gray, gray_inverse, scatter_bits, NodeId};
use hypercube::fault::{FaultModel, FaultSet, Link};
use hypercube::routing::{ecube_route, hop_count, route};
use hypercube::subcube::Subcube;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

/// A random `(dim, node)` pair with `1 ≤ dim ≤ max_n`.
fn dim_and_node(rng: &mut StdRng, max_n: usize) -> (usize, u32) {
    let n = rng.random_range(1..=max_n);
    (n, rng.random_range(0u32..(1u32 << n)))
}

#[test]
fn xor_is_an_automorphism() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..CASES {
        let (n, mask) = dim_and_node(&mut rng, 8);
        let a = NodeId::new(rng.random::<u32>() % (1 << n));
        let d = rng.random_range(0..n);
        let b = a.neighbor(d);
        assert_eq!(a.xor(mask).hamming(b.xor(mask)), 1);
    }
}

#[test]
fn extract_scatter_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for _ in 0..CASES {
        let (n, v) = dim_and_node(&mut rng, 8);
        let mask = rng.random::<u32>();
        let dims: Vec<usize> = (0..n).filter(|&d| mask >> d & 1 == 1).collect();
        let rest = complement_dims(n, &dims);
        let hi = extract_bits(v, &dims);
        let lo = extract_bits(v, &rest);
        assert_eq!(scatter_bits(hi, &dims) | scatter_bits(lo, &rest), v);
        // and the parts are disjoint
        assert_eq!(scatter_bits(hi, &dims) & scatter_bits(lo, &rest), 0);
    }
}

#[test]
fn gray_code_bijective_and_unit_step() {
    for i in 0u32..65535 {
        assert_eq!(gray_inverse(gray(i)), i);
        assert_eq!((gray(i) ^ gray(i + 1)).count_ones(), 1);
    }
}

#[test]
fn subcube_split_partitions() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for _ in 0..CASES {
        let (n, seed) = dim_and_node(&mut rng, 8);
        let d = rng.random_range(0..n);
        let q = Subcube::whole(n);
        let (lo, hi) = q.split(d);
        let node = NodeId::new(seed);
        assert!(lo.contains(node) ^ hi.contains(node));
        assert_eq!(lo.len() + hi.len(), q.len());
        assert!(lo.is_disjoint(&hi));
        assert!(q.contains_subcube(&lo) && q.contains_subcube(&hi));
    }
}

#[test]
fn subcube_local_global_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for _ in 0..CASES {
        let (n, v) = dim_and_node(&mut rng, 8);
        let space = (1u32 << n) - 1;
        let mask = rng.random::<u32>() & space;
        let pat = rng.random::<u32>() & mask;
        let sc = Subcube::new(n, mask, pat);
        let local = extract_bits(v & space, &sc.free_dims());
        let g = sc.global_address(local);
        assert!(sc.contains(g));
        assert_eq!(sc.local_address(g), local);
    }
}

#[test]
fn ecube_route_valid_and_minimal() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for _ in 0..CASES {
        let (n, a) = dim_and_node(&mut rng, 8);
        let cube = Hypercube::new(n);
        let a = NodeId::new(a);
        let b = NodeId::new(rng.random::<u32>() % (1 << n));
        let r = ecube_route(a, b);
        assert!(r.is_valid(&cube));
        assert_eq!(r.hops(), a.hamming(b));
        assert_eq!(r.source(), a);
        assert_eq!(r.destination(), b);
    }
}

#[test]
fn total_routes_avoid_faults_and_stay_short() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    let mut checked = 0;
    while checked < CASES {
        let n = rng.random_range(3usize..=6);
        let cube = Hypercube::new(n);
        let faults = FaultSet::random(cube, n - 1, &mut rng).with_model(FaultModel::Total);
        let a = NodeId::new(rng.random_range(0u32..(1u32 << n)));
        let b = NodeId::new(rng.random_range(0u32..(1u32 << n)));
        if !(faults.is_normal(a) && faults.is_normal(b)) {
            continue;
        }
        checked += 1;
        let r = route(&faults, a, b).expect("connected under r ≤ n−1");
        assert!(r.is_valid(&cube));
        assert!(r.path().iter().all(|p| faults.is_normal(*p)));
        assert!(r.hops() >= a.hamming(b));
        assert_eq!(r.hops() % 2, a.hamming(b) % 2, "bipartite parity");
        // detours are bounded: BFS is shortest, so ≤ diameter + slack
        assert!(r.hops() <= (2 * n) as u32);
    }
}

#[test]
fn link_fault_routes_avoid_broken_links() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    for _ in 0..CASES {
        let n = rng.random_range(2usize..=5);
        let cube = Hypercube::new(n);
        let d1 = rng.random_range(0..n);
        let link = Link::new(NodeId::new(rng.random::<u32>() % (1 << n)), d1);
        let faults = FaultSet::none(cube).with_faulty_links([link]);
        let a = NodeId::new(rng.random_range(0u32..(1u32 << n)));
        let b = NodeId::new(rng.random_range(0u32..(1u32 << n)));
        match route(&faults, a, b) {
            Some(r) => {
                assert!(r.is_valid(&cube));
                assert!(r
                    .path()
                    .windows(2)
                    .all(|w| !faults.is_link_faulty(w[0], w[1])));
            }
            // a single broken link can never disconnect Q_n for n ≥ 2
            None => panic!("single link fault disconnected the cube"),
        }
    }
}

#[test]
fn collectives_roundtrip_arbitrary_participant_sets() {
    use hypercube::collectives::{gather, scatter, Participants};
    use hypercube::cost::CostModel;
    use hypercube::sim::{Engine, EngineKind, Tag};
    let mut rng = StdRng::seed_from_u64(0x5eed_0008);
    for case in 0..64 {
        let n = rng.random_range(2usize..=4);
        let cube = Hypercube::new(n);
        let live_mask = rng.random_range(1u32..(1u32 << cube.len()));
        let k = rng.random_range(1usize..4);
        let live: Vec<NodeId> = (0..cube.len() as u32)
            .filter(|i| live_mask >> i & 1 == 1)
            .map(NodeId::new)
            .collect();
        let root = live[rng.random::<u32>() as usize % live.len()];
        let parts = Participants::new(cube.len(), root, &live);
        // alternate executors so the property covers both
        let kind = if case % 2 == 0 {
            EngineKind::Seq
        } else {
            EngineKind::Par
        };
        let engine = Engine::fault_free(cube, CostModel::paper_form()).with_engine(kind);
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; cube.len()];
        for p in &live {
            inputs[p.index()] = Some(vec![]);
        }
        let parts_ref = &parts;
        let (results, _) = engine.run(inputs, async move |ctx, _| {
            let rank = parts_ref.rank(ctx.me()).unwrap();
            let bundle = (rank == 0).then(|| {
                (0..parts_ref.len())
                    .flat_map(|r| (0..k).map(move |j| (r * 10 + j) as u32))
                    .collect::<Vec<u32>>()
            });
            let mine = scatter(ctx, parts_ref, Tag::new(1), bundle, k).await;
            assert_eq!(mine.len(), k);
            assert_eq!(mine[0], (rank * 10) as u32);
            let back = gather(ctx, parts_ref, Tag::new(2), mine, k).await;
            if rank == 0 {
                let bundle = back.unwrap();
                assert_eq!(bundle.len(), parts_ref.len() * k);
                for (r, p) in bundle.chunks(k).enumerate() {
                    assert_eq!(p[0], (r * 10) as u32);
                }
            } else {
                assert!(back.is_none());
            }
        });
        assert_eq!(results.len(), live.len());
    }
}

#[test]
fn hop_count_symmetric_under_total_faults() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0009);
    let mut checked = 0;
    while checked < CASES {
        let cube = Hypercube::new(5);
        let faults = FaultSet::random(cube, 4, &mut rng).with_model(FaultModel::Total);
        let a = NodeId::new(rng.random_range(0u32..32));
        let b = NodeId::new(rng.random_range(0u32..32));
        if !(faults.is_normal(a) && faults.is_normal(b)) {
            continue;
        }
        checked += 1;
        assert_eq!(hop_count(&faults, a, b), hop_count(&faults, b, a));
    }
}
