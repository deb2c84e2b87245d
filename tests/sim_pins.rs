//! Pins what the simulated machine computes for every sort entry point and
//! every CLI key type: the sorted output, the virtual time to the bit, and
//! the comparison, element·hop and message counts.
//!
//! The key count divides none of the machines' processor counts, so the
//! last runs of every sort carry `∞` padding. No input contains its key
//! type's greatest value, so how the padding is represented must not move
//! a single number. The constants were captured by running this file,
//! unchanged, against the sorts as they were before the padding became a
//! value of the key type (a separate dummy variant wrapped every key).

use ftsort::prelude::*;
use ftsort::seq::{Key, KeyPair};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Keys per sort: a multiple of none of the processor counts
/// (`run_all` checks each machine's).
const M: usize = 2001;
/// The fault set on Q6; the single-fault sort takes its first fault.
const FAULTS: [u32; 3] = [9, 22, 51];

/// `(time_us.to_bits(), comparisons, element_hops, messages)`.
type Pin = (u64, u64, u64, u64);

/// Runs every entry point on `data`, checks each output against the
/// sorted input, and returns each run's pin in a fixed order.
fn run_all<K: Key>(data: Vec<K>) -> Vec<(&'static str, Pin)> {
    let mut expect = data.clone();
    expect.sort();
    let cube = Hypercube::new(6);
    let faults = FaultSet::from_raw(cube, &FAULTS);
    let plan = FtPlan::new(&faults).expect("Q6 tolerates three faults");
    let mffs = max_fault_free_subcube(&faults).expect("a fault-free subcube");
    for procs in [plan.live_count(), mffs.len(), cube.len() - 1, cube.len()] {
        assert_ne!(M % procs, 0, "{procs} processors divide M: no padding");
    }
    let config = FtConfig::default();
    let ft =
        |config: FtConfig| fault_tolerant_sort(&plan, &config, data.clone(), Attach::default()).0;
    let runs = [
        ("ft default", ft(FtConfig::default())),
        (
            "ft full exchange",
            ft(FtConfig {
                protocol: Protocol::FullExchange,
                ..FtConfig::default()
            }),
        ),
        (
            "ft host io",
            ft(FtConfig {
                include_host_io: true,
                ..FtConfig::default()
            }),
        ),
        (
            "ft par@2",
            ft(FtConfig {
                engine: EngineKind::Par,
                threads: Some(2),
                ..FtConfig::default()
            }),
        ),
        (
            "ft contended",
            ft(FtConfig {
                link_model: LinkModel::Contended,
                ..FtConfig::default()
            }),
        ),
        (
            "mffs",
            mffs_sort(&faults, &config, data.clone(), Attach::default()).0,
        ),
        (
            "single fault",
            single_fault_bitonic_sort(
                &FaultSet::from_raw(cube, &FAULTS[..1]),
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
        (
            "hyperquicksort",
            hyperquicksort(cube, &config, data, Attach::default()).0,
        ),
    ];
    runs.into_iter()
        .map(|(name, out)| {
            assert_eq!(out.sorted, expect, "{name} did not sort");
            let s = out.stats;
            let pin = (
                out.time_us.to_bits(),
                s.comparisons,
                s.element_hops,
                s.messages,
            );
            (name, pin)
        })
        .collect()
}

/// Asserts `got == want`; on a mismatch prints `got` as a constant table.
fn check(got: Vec<(&str, Pin)>, want: &[(&str, Pin)]) {
    let table: String = got
        .iter()
        .map(|(name, (t, c, h, m))| format!("    ({name:?}, ({t:#x}, {c}, {h}, {m})),\n"))
        .collect();
    assert!(got == want, "pins moved; this run gives:\n{table}");
}

fn keys<K>(seed: u64, key: impl Fn(&mut StdRng) -> K) -> Vec<K> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..M).map(|_| key(&mut rng)).collect()
}

#[test]
fn u32_keys_with_duplicates() {
    let data = keys(32, |r| r.random_range(0..1000u32));
    check(run_all(data), U32);
}

#[test]
fn u64_keys() {
    let data = keys(64, |r| r.random_range(0..u64::MAX));
    check(run_all(data), U64);
}

#[test]
fn i64_keys_with_negatives() {
    let data = keys(65, |r| r.random_range(-1_000_000..1_000_000i64));
    check(run_all(data), I64);
}

#[test]
fn pair_keys_tied_on_key() {
    let data = keys(128, |r| KeyPair::new(r.random_range(0..100), r.random()));
    check(run_all(data), PAIR);
}

const U32: &[(&str, Pin)] = &[
    ("ft default", (0x40e6ef8000000008, 61580, 65144, 2908)),
    ("ft full exchange", (0x40dd26bffffffffa, 62511, 65144, 1496)),
    ("ft host io", (0x40f8098333333334, 61580, 88400, 3026)),
    ("ft par@2", (0x40e6ef8000000008, 61580, 65144, 2908)),
    ("ft contended", (0x40e8702000000011, 61580, 65144, 2908)),
    ("mffs", (0x40dc25fffffffffa, 43970, 20160, 320)),
    ("single fault", (0x40dfd1733333333f, 55533, 41664, 2604)),
    ("bitonic", (0x40dfc2733333333f, 56919, 43008, 2688)),
    ("odd-even ring", (0x40f84befffffffe1, 141878, 129024, 8064)),
    ("hyperquicksort", (0x40cb7a199999999a, 27490, 6329, 705)),
];
const U64: &[(&str, Pin)] = &[
    ("ft default", (0x40e6e20000000009, 60980, 65144, 2908)),
    ("ft full exchange", (0x40dd283ffffffffa, 62455, 65144, 1496)),
    ("ft host io", (0x40f807a333333334, 60980, 88400, 3026)),
    ("ft par@2", (0x40e6e20000000009, 60980, 65144, 2908)),
    ("ft contended", (0x40e87f39999999ab, 60980, 65144, 2908)),
    ("mffs", (0x40dc3dfffffffffa, 43918, 20160, 320)),
    ("single fault", (0x40dfcff33333333f, 55683, 41664, 2604)),
    ("bitonic", (0x40dfbaf33333333f, 56714, 43008, 2688)),
    ("odd-even ring", (0x40f85d2fffffffe1, 139728, 129024, 8064)),
    ("hyperquicksort", (0x40cbb1b333333335, 27491, 6315, 705)),
];
const I64: &[(&str, Pin)] = &[
    ("ft default", (0x40e6d12000000009, 61068, 65144, 2908)),
    ("ft full exchange", (0x40dd253ffffffffa, 62538, 65144, 1496)),
    ("ft host io", (0x40f8062333333334, 61068, 88400, 3026)),
    ("ft par@2", (0x40e6d12000000009, 61068, 65144, 2908)),
    ("ft contended", (0x40e86e59999999ab, 61068, 65144, 2908)),
    ("mffs", (0x40dc4e7ffffffffa, 44014, 20160, 320)),
    ("single fault", (0x40dfe1333333333f, 55744, 41664, 2604)),
    ("bitonic", (0x40dfc6f33333333f, 56954, 43008, 2688)),
    ("odd-even ring", (0x40f8620fffffffe1, 140749, 129024, 8064)),
    ("hyperquicksort", (0x40cb378000000002, 27552, 6396, 705)),
];
const PAIR: &[(&str, Pin)] = &[
    ("ft default", (0x40e6d96000000009, 61275, 65144, 2908)),
    ("ft full exchange", (0x40dd283ffffffffa, 62483, 65144, 1496)),
    ("ft host io", (0x40f8041333333334, 61275, 88400, 3026)),
    ("ft par@2", (0x40e6d96000000009, 61275, 65144, 2908)),
    ("ft contended", (0x40e86559999999ab, 61275, 65144, 2908)),
    ("mffs", (0x40dc55fffffffffa, 43937, 20160, 320)),
    ("single fault", (0x40dfc0333333333f, 55616, 41664, 2604)),
    ("bitonic", (0x40dfbeb33333333f, 56977, 43008, 2688)),
    ("odd-even ring", (0x40f8518fffffffe1, 140108, 129024, 8064)),
    ("hyperquicksort", (0x40ca466666666666, 27551, 6296, 705)),
];
