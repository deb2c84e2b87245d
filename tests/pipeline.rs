//! Integration test: the complete operational pipeline the paper assumes —
//! off-line diagnosis identifies the faults, the partition algorithm plans,
//! the fault-tolerant sort runs — across fault models and protocols.

use ftsort::bitonic::Protocol;
use ftsort::bitonic::SortOutcome;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtError, FtPlan, Step8Strategy};
use ftsort::seq::Key;
use hypercube::cost::CostModel;
use hypercube::diagnosis::Syndrome;
use hypercube::fault::{FaultModel, FaultSet};
use hypercube::topology::Hypercube;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Plans for `faults`, then sorts with the given cost model and protocol.
fn plan_and_sort<K: Key>(
    faults: &FaultSet,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
) -> Result<SortOutcome<K>, FtError> {
    let plan = FtPlan::new(faults)?;
    let config = FtConfig {
        cost,
        protocol,
        ..FtConfig::default()
    };
    Ok(fault_tolerant_sort(&plan, &config, data, Attach::default()).0)
}

#[test]
fn diagnose_then_sort_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2024);
    for n in 3..=5 {
        let cube = Hypercube::new(n);
        let truth = FaultSet::random(cube, n - 1, &mut rng);
        // 1. off-line diagnosis recovers the fault set from the syndrome
        let syndrome = Syndrome::collect(&truth, &mut rng);
        let diagnosed = syndrome.diagnose(n - 1).expect("diagnosable");
        assert_eq!(diagnosed.to_vec(), truth.to_vec());
        // 2. plan and sort on the diagnosed fault set
        let data: Vec<u64> = (0..5_000).map(|_| rng.random()).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let out = plan_and_sort(
            &diagnosed,
            CostModel::default(),
            data,
            Protocol::HalfExchange,
        )
        .expect("tolerable");
        assert_eq!(out.sorted, expect, "n={n}");
    }
}

#[test]
fn total_fault_model_costs_at_least_partial() {
    // §4: "The execution time will be more than the partial fault if the
    // cube has the fault total property."
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<u32> = (0..8_000).map(|_| rng.random()).collect();
    let faults = [3u32, 5, 16, 24];
    let partial = FaultSet::from_raw(Hypercube::new(5), &faults).with_model(FaultModel::Partial);
    let total = FaultSet::from_raw(Hypercube::new(5), &faults).with_model(FaultModel::Total);
    let t_partial = plan_and_sort(
        &partial,
        CostModel::default(),
        data.clone(),
        Protocol::HalfExchange,
    )
    .unwrap();
    let t_total =
        plan_and_sort(&total, CostModel::default(), data, Protocol::HalfExchange).unwrap();
    assert_eq!(t_partial.sorted, t_total.sorted);
    assert!(
        t_total.time_us >= t_partial.time_us,
        "total {} < partial {}",
        t_total.time_us,
        t_partial.time_us
    );
    assert!(t_total.stats.element_hops >= t_partial.stats.element_hops);
}

#[test]
fn step8_strategies_agree_on_results() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..5 {
        let faults = FaultSet::random(Hypercube::new(5), 4, &mut rng);
        let plan = FtPlan::new(&faults).unwrap();
        let data: Vec<u32> = (0..3_000).map(|_| rng.random()).collect();
        let merge = fault_tolerant_sort(
            &plan,
            &FtConfig {
                step8: Step8Strategy::BitonicMerge,
                ..FtConfig::default()
            },
            data.clone(),
            Attach::default(),
        )
        .0;
        let full = fault_tolerant_sort(
            &plan,
            &FtConfig {
                step8: Step8Strategy::FullSort,
                ..FtConfig::default()
            },
            data,
            Attach::default(),
        )
        .0;
        assert_eq!(merge.sorted, full.sorted);
        // the merge strategy must be strictly cheaper in time and hops
        assert!(
            merge.time_us < full.time_us,
            "merge {} vs full {}",
            merge.time_us,
            full.time_us
        );
        assert!(merge.stats.element_hops < full.stats.element_hops);
    }
}

#[test]
fn link_faults_are_routed_around() {
    use hypercube::address::NodeId;
    use hypercube::fault::Link;
    let mut rng = StdRng::seed_from_u64(23);
    let data: Vec<u32> = (0..4_000).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let clean = FaultSet::from_raw(Hypercube::new(4), &[6, 9]);
    let broken = clean
        .clone()
        .with_faulty_links([Link::new(NodeId::new(0), 0), Link::new(NodeId::new(5), 2)]);
    assert!(broken.is_connected());
    let out_clean = plan_and_sort(
        &clean,
        CostModel::default(),
        data.clone(),
        Protocol::HalfExchange,
    )
    .unwrap();
    let out_broken =
        plan_and_sort(&broken, CostModel::default(), data, Protocol::HalfExchange).unwrap();
    assert_eq!(out_clean.sorted, expect);
    assert_eq!(out_broken.sorted, expect);
    // broken links force detours: strictly more element·hops, never less time
    assert!(out_broken.stats.element_hops > out_clean.stats.element_hops);
    assert!(out_broken.time_us >= out_clean.time_us);
}

#[test]
fn absorbing_link_faults_also_works() {
    use hypercube::address::NodeId;
    use hypercube::fault::Link;
    let mut rng = StdRng::seed_from_u64(29);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let faults = FaultSet::from_raw(Hypercube::new(4), &[3])
        .with_faulty_links([Link::new(NodeId::new(8), 1)]);
    let absorbed = faults.absorb_link_faults();
    assert_eq!(absorbed.count(), 2);
    let out = plan_and_sort(
        &absorbed,
        CostModel::default(),
        data,
        Protocol::HalfExchange,
    )
    .unwrap();
    assert_eq!(out.sorted, expect);
}

#[test]
fn adaptive_router_costs_at_least_the_oracle() {
    use hypercube::sim::RouterKind;
    let mut rng = StdRng::seed_from_u64(31);
    let faults =
        FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]).with_model(FaultModel::Total);
    let plan = FtPlan::new(&faults).unwrap();
    let data: Vec<u32> = (0..4_000).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let oracle = fault_tolerant_sort(
        &plan,
        &FtConfig {
            router: RouterKind::Oracle,
            ..FtConfig::default()
        },
        data.clone(),
        Attach::default(),
    )
    .0;
    let adaptive = fault_tolerant_sort(
        &plan,
        &FtConfig {
            router: RouterKind::Adaptive,
            ..FtConfig::default()
        },
        data,
        Attach::default(),
    )
    .0;
    assert_eq!(oracle.sorted, expect);
    assert_eq!(adaptive.sorted, expect);
    assert!(adaptive.stats.element_hops >= oracle.stats.element_hops);
    assert!(adaptive.time_us >= oracle.time_us);
}

#[test]
fn sorts_structs_not_just_integers() {
    // the API is generic over Key types: any Ord + Copy record works
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Record {
        key: u32,
        payload: [u8; 8],
    }
    impl ftsort::seq::Key for Record {}
    let mut rng = StdRng::seed_from_u64(13);
    let data: Vec<Record> = (0..500)
        .map(|_| Record {
            key: rng.random_range(0..100),
            payload: rng.random(),
        })
        .collect();
    let mut expect = data.clone();
    expect.sort();
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let out = plan_and_sort(&faults, CostModel::default(), data, Protocol::FullExchange).unwrap();
    assert_eq!(out.sorted, expect);
}

#[test]
fn bitonic_communication_is_data_oblivious() {
    // identical message counts / element·hops for any input of the same
    // size; only comparison counts may differ
    let faults = FaultSet::from_raw(Hypercube::new(4), &[6, 9]);
    let m = 1_600usize;
    let inputs: Vec<Vec<u32>> = vec![
        (0..m as u32).collect(),
        (0..m as u32).rev().collect(),
        vec![7; m],
        (0..m as u32).map(|i| i % 3).collect(),
    ];
    let mut baseline: Option<(u64, u64)> = None;
    for data in inputs {
        let out =
            plan_and_sort(&faults, CostModel::default(), data, Protocol::HalfExchange).unwrap();
        let key = (out.stats.messages, out.stats.element_hops);
        match &baseline {
            None => baseline = Some(key),
            Some(b) => assert_eq!(&key, b, "communication varied with data"),
        }
    }
}

#[test]
fn scales_to_q7_with_128_processors() {
    // double the NCUBE/7: 128 node threads, r = n − 1 = 6 faults
    let mut rng = StdRng::seed_from_u64(64);
    let faults = FaultSet::random(Hypercube::new(7), 6, &mut rng);
    let data: Vec<u32> = (0..20_000).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();
    let out = plan_and_sort(&faults, CostModel::default(), data, Protocol::HalfExchange)
        .expect("tolerable");
    assert_eq!(out.sorted, expect);
    assert!(out.processors_used >= 112, "at least 2^7 − 2^4 live");
}

#[test]
fn stats_are_internally_consistent() {
    let mut rng = StdRng::seed_from_u64(17);
    let faults = FaultSet::from_raw(Hypercube::new(4), &[1, 6, 12]);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let out = plan_and_sort(&faults, CostModel::default(), data, Protocol::HalfExchange).unwrap();
    let s = out.stats;
    assert!(s.messages > 0);
    assert!(
        s.element_hops >= s.elements_sent,
        "every element moves ≥1 hop"
    );
    assert!(s.max_hops >= 1);
    assert!(s.comparisons > 0);
    assert!(s.max_message_elements > 0);
    assert!(out.time_us > 0.0);
}
