//! A Figure-6-style walkthrough: the paper's Q5 example with 4 faults
//! sorting 47 elements, showing the data layout after each algorithm phase.
//!
//! The paper's Figure 6 traces 47 unsorted elements through step 3 (local
//! sort + subcube bitonic sort) and every (i, j) iteration of steps 7/8.
//! Here we reproduce the same machine state transitions, printing each
//! subcube's contents per step by instrumenting the public building blocks.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```

use ftsort::bitonic::{compare_split_remote, distributed_bitonic_sort, KeepHalf, Protocol};
use ftsort::distribute::{chunk_len, scatter};
use ftsort::ftsort::FtPlan;
use ftsort::seq::{heapsort, Direction};
use hypercube::cost::CostModel;
use hypercube::prelude::*;
use hypercube::sim::BufferPool;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// Pretty-prints the machine state grouped by subcube.
fn print_state(plan: &FtPlan, label: &str, state: &[Option<Vec<u32>>]) {
    println!("--- {label} ---");
    let st = plan.structure();
    for v in 0..(1u32 << st.m()) {
        let members = st.members(v);
        print!("  v={v:03b}:");
        for (w, &p) in members.iter().enumerate() {
            match &state[p.index()] {
                Some(run) => {
                    let keys: Vec<String> = run
                        .iter()
                        .map(|&k| match k {
                            u32::MAX => "∞".into(),
                            x => x.to_string(),
                        })
                        .collect();
                    print!("  w{}=[{}]", w, keys.join(","));
                }
                None => print!("  w{w}=dead"),
            }
        }
        println!();
    }
}

fn main() {
    let cube = Hypercube::new(5);
    let faults = FaultSet::from_raw(cube, &[3, 5, 16, 24]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let st = plan.structure().clone();
    println!(
        "Q5, faults {:?}; D_β = {:?}; N' = {} live processors; 47 elements → {} each\n",
        faults.to_vec(),
        plan.selection().dims,
        plan.live_count(),
        chunk_len(47, plan.live_count())
    );

    // 47 shuffled keys, like the paper's Figure 6(a).
    let mut rng = StdRng::seed_from_u64(1992);
    let mut data: Vec<u32> = (1..=47).collect();
    data.shuffle(&mut rng);

    let live = st.live_in_order();
    let chunks = scatter(data, live.len());
    let mut inputs: Vec<Option<Vec<u32>>> = vec![None; cube.len()];
    for (&p, c) in live.iter().zip(chunks) {
        inputs[p.index()] = Some(c);
    }
    print_state(&plan, "Fig 6(a): initial distribution", &inputs);

    // Run the algorithm phase by phase on the engine, collecting the state
    // after each phase by running the program up to that phase. The engine
    // is deterministic, so re-running a longer prefix reproduces the same
    // intermediate states.
    let m = st.m();
    let mut phase_plans: Vec<(String, usize)> = vec![("Fig 6(b): after step 3".into(), 0)];
    let mut count = 0usize;
    for i in 0..m {
        for j in (0..=i).rev() {
            count += 1;
            phase_plans.push((format!("after steps 7+8 with i={i}, j={j}"), count));
        }
    }

    for (label, upto) in phase_plans {
        let engine = Engine::new(faults.clone(), CostModel::default());
        let st_ref = &st;
        let pool = &BufferPool::new();
        let out = engine.run(inputs.clone(), async move |ctx, mut chunk| {
            let (v, w) = st_ref.locate(ctx.me());
            let members = st_ref.members(v);
            let dead = st_ref.subcube(v).dead_local.map(|_| 0usize);
            let mut scratch = pool.handle();
            let cmp = heapsort(&mut chunk, Direction::Ascending);
            ctx.charge_comparisons(cmp as usize);
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
                    let dir = if (if j == 0 { 0 } else { (v >> (j - 1)) & 1 }) == mask {
                        Direction::Ascending
                    } else {
                        Direction::Descending
                    };
                    run = distributed_bitonic_sort(
                        ctx,
                        &members,
                        w as usize,
                        dead,
                        dir,
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
        let mut state: Vec<Option<Vec<u32>>> = vec![None; cube.len()];
        for (node, run) in out.into_results() {
            state[node.index()] = Some(run);
        }
        print_state(&plan, &label, &state);
    }

    println!("\nFinal state is globally sorted in subcube-address order (Fig 6(i)).");
}
