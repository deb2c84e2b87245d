//! Fault-tolerant selection of the `k` largest keys.
//!
//! The paper's group previously studied "Selection of the First k Largest
//! Processes in Hypercubes" (their reference \[17\]); this module provides the
//! natural companion operation on the *faulty* machine: every live processor
//! contributes its local top-`k`, and a binomial combining tree (over the
//! same live set the fault-tolerant sort uses) merges and truncates on the
//! way up — `O(k log N')` work and traffic instead of a full sort.

use crate::bitonic::sort::SortOutcome;
use crate::distribute::{gather as degather, scatter, Padded};
use crate::ftsort::{FtError, FtPlan};
use crate::seq::{heapsort, merge_runs, Direction, Key};
use hypercube::collectives::{combine, Participants};
use hypercube::cost::CostModel;
use hypercube::sim::{Comm, Engine, Tag};

/// Returns the `k` largest keys of `data` (descending), computed on the
/// faulty hypercube: local sort + tree combine over the live processors.
///
/// # Errors
/// [`FtError`] when the fault set cannot be tolerated.
pub fn fault_tolerant_top_k<K>(
    plan: &FtPlan,
    cost: CostModel,
    data: Vec<K>,
    k: usize,
) -> SortOutcome<K>
where
    K: Key,
{
    let st = plan.structure();
    let cube = st.cube();
    let live = st.live_in_order();
    let m_total = data.len();
    let chunks = scatter(data, live.len());

    let mut inputs: Vec<Option<Vec<Padded<K>>>> = (0..cube.len()).map(|_| None).collect();
    for (&p, chunk) in live.iter().zip(chunks) {
        inputs[p.index()] = Some(chunk);
    }
    let root = *live.iter().min().expect("live processor exists");
    let parts = Participants::new(cube.len(), root, &live);
    let parts_ref = &parts;

    let engine = Engine::new(plan.faults().clone(), cost);
    let out = engine.run(inputs, async move |ctx, mut chunk| {
        // local: drop the ∞ padding (it would outrank every real key!),
        // sort ascending, keep my top k (as an ascending run)
        chunk.retain(|p| p.is_real());
        let comparisons = heapsort(&mut chunk, Direction::Ascending);
        ctx.charge_comparisons(comparisons as usize);
        let start = chunk.len().saturating_sub(k);
        let mine = chunk.split_off(start);
        // tree combine: merge two ascending runs, keep the top k
        combine(ctx, parts_ref, Tag::phase(20, 0, 0), mine, |a, b| {
            let total = a.len() + b.len();
            let (mut merged, _) = merge_runs(a, b);
            let start = total.saturating_sub(k);
            merged.split_off(start.min(merged.len()))
        })
        .await
    });

    let time_us = out.turnaround();
    let stats = out.total_stats();
    let top = out
        .node(root)
        .and_then(|o| o.result.clone())
        .expect("root holds the combined top-k");
    // descending order, dummies stripped (dummies are +∞ and must never
    // appear: they only exist when k exceeds the real keys on some node)
    let mut top: Vec<K> = degather([top]);
    top.reverse();
    top.truncate(k.min(m_total));
    SortOutcome {
        sorted: top,
        time_us,
        stats,
        processors_used: live.len(),
    }
}

/// Plan-and-run convenience.
///
/// ```
/// use ftsort::prelude::*;
///
/// let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
/// let out = top_k_on_faulty_cube(
///     &faults,
///     CostModel::default(),
///     (0..1000u32).collect(),
///     3,
/// ).unwrap();
/// assert_eq!(out.sorted, vec![999, 998, 997]); // descending
/// ```
///
/// # Errors
/// [`FtError`] when the fault set cannot be tolerated.
pub fn top_k_on_faulty_cube<K>(
    faults: &hypercube::fault::FaultSet,
    cost: CostModel,
    data: Vec<K>,
    k: usize,
) -> Result<SortOutcome<K>, FtError>
where
    K: Key,
{
    let plan = FtPlan::new(faults)?;
    Ok(fault_tolerant_top_k(&plan, cost, data, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::fault::FaultSet;
    use hypercube::topology::Hypercube;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check(faults: &FaultSet, data: Vec<u32>, k: usize) {
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k);
        let out =
            top_k_on_faulty_cube(faults, CostModel::paper_form(), data, k).expect("tolerable");
        assert_eq!(out.sorted, expect, "k={k} faults={:?}", faults.to_vec());
    }

    #[test]
    fn selects_top_k_on_the_paper_machine() {
        let mut rng = StdRng::seed_from_u64(1);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        for k in [1usize, 5, 10, 47] {
            let data: Vec<u32> = (0..500).map(|_| rng.random_range(0..10_000)).collect();
            check(&faults, data, k);
        }
    }

    #[test]
    fn k_larger_than_data() {
        let faults = FaultSet::from_raw(Hypercube::new(4), &[6]);
        check(&faults, vec![3, 1, 2], 10);
        check(&faults, vec![], 4);
    }

    #[test]
    fn handles_duplicates() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[2, 5]);
        check(&faults, vec![7; 50], 5);
        check(&faults, (0..60).map(|i| i % 3).collect(), 7);
    }

    #[test]
    fn cheaper_than_a_full_sort_for_small_k() {
        let mut rng = StdRng::seed_from_u64(2);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let plan = FtPlan::new(&faults).unwrap();
        let data: Vec<u32> = (0..24_000).map(|_| rng.random()).collect();
        let topk = fault_tolerant_top_k(&plan, CostModel::paper_form(), data.clone(), 10);
        let config = crate::ftsort::FtConfig {
            cost: CostModel::paper_form(),
            ..Default::default()
        };
        let (sort, _, _) =
            crate::ftsort::fault_tolerant_sort(&plan, &config, data, Default::default());
        assert!(
            topk.time_us < sort.time_us / 2.0,
            "top-k {} vs full sort {}",
            topk.time_us,
            sort.time_us
        );
        assert!(topk.stats.elements_sent < sort.stats.elements_sent / 10);
    }

    #[test]
    fn random_sweep() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in 3..=5 {
            for r in 0..n {
                let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
                let m = rng.random_range(0..300);
                let k = rng.random_range(1..40);
                let data: Vec<u32> = (0..m).map(|_| rng.random_range(0..1000)).collect();
                check(&faults, data, k);
            }
        }
    }
}
