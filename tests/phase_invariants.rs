//! White-box verification of the fault-tolerant sort's phase invariants:
//! after step 3 and after every step-8 re-sort, each subcube must hold a
//! sorted distributed run in exactly the direction the schedule prescribes,
//! and the global key multiset must be preserved.
//!
//! The engine is deterministic, so running successively longer prefixes of
//! the algorithm reproduces every intermediate machine state.

use ftsort::bitonic::{compare_split_remote, distributed_bitonic_sort, KeepHalf, Protocol};
use ftsort::distribute::scatter;
use ftsort::ftsort::FtPlan;
use ftsort::seq::{heapsort, Direction};
use hypercube::cost::CostModel;
use hypercube::prelude::*;
use hypercube::sim::BufferPool;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The direction a subcube must hold after step 8 of substage `(i, j)`
/// (ascending iff `v_{j-1} == mask`, `v_{-1} ≡ 0`).
fn scheduled_direction(v: u32, i: usize, j: usize) -> Direction {
    let mask = (v >> (i + 1)) & 1;
    let v_jm1 = if j == 0 { 0 } else { (v >> (j - 1)) & 1 };
    if v_jm1 == mask {
        Direction::Ascending
    } else {
        Direction::Descending
    }
}

/// Runs the algorithm up to (and including) the `upto`-th (i, j) substage
/// (0 = just step 3) and returns each node's run.
fn run_prefix(plan: &FtPlan, inputs: &[Option<Vec<u32>>], upto: usize) -> Vec<Option<Vec<u32>>> {
    let st = plan.structure().clone();
    let engine = Engine::new(plan.faults().clone(), CostModel::paper_form());
    let st_ref = &st;
    let pool = &BufferPool::new();
    let (runs, obs) = engine.run(inputs.to_vec(), async move |ctx, mut chunk| {
        let (v, w) = st_ref.locate(ctx.me());
        let members = st_ref.members(v);
        let dead = st_ref.subcube(v).dead_local.map(|_| 0usize);
        let mut scratch = pool.handle();
        let c = heapsort(&mut chunk, Direction::Ascending);
        ctx.charge_comparisons(c as usize);
        let mut run = distributed_bitonic_sort(
            ctx,
            &members,
            w as usize,
            dead,
            Direction::from_parity(v),
            chunk,
            2,
            Protocol::HalfExchange,
            &mut scratch,
        )
        .await;
        let mut done = 0usize;
        for i in 0..st_ref.m() {
            let mask = (v >> (i + 1)) & 1;
            for j in (0..=i).rev() {
                if done == upto {
                    return run;
                }
                done += 1;
                let partner = st_ref.member(v ^ (1 << j), w);
                let keep = if (v >> j) & 1 == mask {
                    KeepHalf::Low
                } else {
                    KeepHalf::High
                };
                run = compare_split_remote(
                    ctx,
                    partner,
                    Tag::phase(3, i as u16, j as u16),
                    run,
                    keep,
                    Protocol::HalfExchange,
                    &mut scratch,
                )
                .await;
                run = distributed_bitonic_sort(
                    ctx,
                    &members,
                    w as usize,
                    dead,
                    scheduled_direction(v, i, j),
                    run,
                    100 + (i * 16 + j) as u16,
                    Protocol::HalfExchange,
                    &mut scratch,
                )
                .await;
            }
        }
        run
    });
    let mut state: Vec<Option<Vec<u32>>> = vec![None; plan.faults().cube().len()];
    for (node, run) in obs.nodes.iter().zip(runs) {
        state[node.node.index()] = Some(run);
    }
    state
}

#[test]
fn every_intermediate_state_respects_the_schedule() {
    let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
    let plan = FtPlan::new(&faults).unwrap();
    let st = plan.structure();
    let m = st.m();

    let mut rng = StdRng::seed_from_u64(1992);
    let data: Vec<u32> = (0..96).map(|_| rng.random_range(0..1000)).collect();
    let mut multiset = data.clone();
    multiset.sort_unstable();

    let live = st.live_in_order();
    let chunks = scatter(data, live.len());
    let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 32];
    for (&p, c) in live.iter().zip(chunks) {
        inputs[p.index()] = Some(c);
    }

    // enumerate the (i, j) schedule
    let mut schedule = vec![None]; // prefix 0 = after step 3 only
    for i in 0..m {
        for j in (0..=i).rev() {
            schedule.push(Some((i, j)));
        }
    }

    for (upto, stage) in schedule.iter().enumerate() {
        let state = run_prefix(&plan, &inputs, upto);
        // multiset preservation (the keys are below u32::MAX, the padding)
        let mut all: Vec<u32> = state
            .iter()
            .flatten()
            .flatten()
            .copied()
            .filter(|&x| x != u32::MAX)
            .collect();
        all.sort_unstable();
        assert_eq!(all, multiset, "keys corrupted at prefix {upto}");
        // per-subcube order
        for v in 0..(1u32 << m) {
            let members = st.members(v);
            let mut flat: Vec<u32> = Vec::new();
            for (w, &p) in members.iter().enumerate() {
                match &state[p.index()] {
                    Some(run) => {
                        assert!(
                            run.windows(2).all(|x| x[0] <= x[1]),
                            "local run unsorted at prefix {upto}, v={v}, w={w}"
                        );
                        flat.extend(run.iter().copied());
                    }
                    None => assert_eq!(w, 0, "only the dead node may be absent"),
                }
            }
            let dir = match stage {
                None => Direction::from_parity(v),
                Some((i, j)) => scheduled_direction(v, *i, *j),
            };
            let ok = match dir {
                Direction::Ascending => flat.windows(2).all(|x| x[0] <= x[1]),
                // descending window order with ascending local runs: check
                // at window granularity (every key of window t+1 ≤ every
                // key of window t) — equivalently the flattened sequence
                // reversed window-by-window is ascending. Simplest check:
                // chunk comparison.
                Direction::Descending => {
                    let k = state[members[1].index()].as_ref().unwrap().len();
                    flat.chunks(k)
                        .collect::<Vec<_>>()
                        .windows(2)
                        .all(|w| w[1].last().unwrap() <= w[0].first().unwrap())
                }
            };
            assert!(
                ok,
                "subcube v={v:03b} not in scheduled {dir:?} order at prefix {upto}: {flat:?}"
            );
        }
    }
}
