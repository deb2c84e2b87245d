//! The `Key::INF` contract: real keys equal to the `∞` padding still sort
//! exactly on every entry point, with the engines agreeing bit for bit,
//! and a key type whose `INF` is not its greatest value is caught when the
//! host gathers the output.

use ftsort::prelude::*;
use ftsort::seq::{Key, KeyPair};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Sorts `data` with all six entry points on seq and par@2, under both
/// link models, and again with host I/O charged wherever the runs keep
/// their length (all but hyperquicksort). Checks each output against the
/// sorted input, and each par@2 run's time and counts against seq's.
fn sorts_everywhere<K: Key>(data: Vec<K>) {
    let mut expect = data.clone();
    expect.sort();
    let m = data.len();
    let cube = Hypercube::new(5);
    let faults = FaultSet::from_raw(cube, &[3, 17, 22]);
    let single = FaultSet::from_raw(cube, &[3]);
    let plan = FtPlan::new(&faults).expect("Q5 tolerates three faults");
    let mffs = max_fault_free_subcube(&faults).expect("a fault-free subcube");
    for procs in [plan.live_count(), mffs.len(), cube.len() - 1, cube.len()] {
        assert_ne!(m % procs, 0, "{procs} processors divide M: no padding");
    }
    for link_model in [LinkModel::Uncontended, LinkModel::Contended] {
        for include_host_io in [false, true] {
            let run = |engine: EngineKind| {
                let config = FtConfig {
                    engine,
                    threads: Some(2),
                    link_model,
                    include_host_io,
                    ..FtConfig::default()
                };
                let mut runs = vec![
                    (
                        "fault-tolerant",
                        fault_tolerant_sort(&plan, &config, data.clone(), Attach::default()).0,
                    ),
                    (
                        "mffs",
                        mffs_sort(&faults, &config, data.clone(), Attach::default()).0,
                    ),
                    (
                        "single fault",
                        single_fault_bitonic_sort(
                            &single,
                            &config,
                            data.clone(),
                            Attach::default(),
                        )
                        .0,
                    ),
                    (
                        "bitonic",
                        bitonic_sort(cube, &config, data.clone(), Attach::default()).0,
                    ),
                    (
                        "odd-even ring",
                        odd_even_ring_sort(cube, &config, data.clone(), Attach::default()).0,
                    ),
                ];
                // hyperquicksort's run lengths follow its pivots, and the
                // host gather takes equal pieces only
                if !include_host_io {
                    runs.push((
                        "hyperquicksort",
                        hyperquicksort(cube, &config, data.clone(), Attach::default()).0,
                    ));
                }
                runs
            };
            let [seq, par] = [EngineKind::Seq, EngineKind::Par].map(run);
            assert_eq!(seq.len(), par.len());
            for ((name, s), (_, p)) in seq.iter().zip(&par) {
                let case = format!("{name}, {link_model:?}, host I/O {include_host_io}");
                assert_eq!(s.sorted, expect, "{case} (seq) did not sort");
                assert_eq!(p.sorted, expect, "{case} (par) did not sort");
                assert_eq!(s.time_us.to_bits(), p.time_us.to_bits(), "{case}: time");
                assert_eq!(s.stats, p.stats, "{case}: stats");
            }
        }
    }
}

#[test]
fn real_keys_equal_to_inf_sort_exactly() {
    let mut rng = StdRng::seed_from_u64(21);
    for percent in [1, 10, 100] {
        let data: Vec<u32> = (0..1001)
            .map(|_| {
                if rng.random_range(0..100) < percent {
                    u32::MAX
                } else {
                    rng.random_range(0..1000)
                }
            })
            .collect();
        sorts_everywhere(data);
    }
    let pairs: Vec<KeyPair> = (0..1001)
        .map(|_| match rng.random_range(0..10) {
            0 => KeyPair::INF,
            1 => KeyPair::new(u64::MAX, rng.random_range(0..u64::MAX)),
            _ => KeyPair::new(rng.random_range(0..100), rng.random()),
        })
        .collect();
    sorts_everywhere(pairs);
}

#[test]
#[should_panic(expected = "Key::INF")]
fn an_inf_below_a_real_key_is_caught() {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Capped(u32);
    impl Key for Capped {
        // wrong: keys above 1000 exist
        const INF: Self = Capped(1000);
    }
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("Q4 tolerates two faults");
    // 101 keys on 14 live processors leave 11 padding slots
    let data: Vec<Capped> = (0..101).map(|i| Capped(i * 20)).collect();
    let _ = fault_tolerant_sort(&plan, &FtConfig::default(), data, Attach::default());
}
