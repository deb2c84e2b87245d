//! The paper's closed-form worst-case cost `T` (§3).
//!
//! With `k = ⌈M/N'⌉` keys per live processor, `m` cutting dimensions,
//! `s = n − m`, the paper derives
//!
//! ```text
//! T = [(k − 1)·log k + 1]·t_c                       — step-3 heapsort
//!   + s(s+3)/2 · [ k·t_sr + (⌈3k/2⌉ − 1)·t_c ]      — step-3 subcube sort
//!   + m(m+3)/2 · { (s+1)·k·t_sr + (⌈k/2⌉ − 1)·t_c   — step 7(a,b)
//!                 + (k − 1)·t_c                      — step 7(c) merge
//!                 + s(s+3)/2·[ k·t_sr + (⌈3k/2⌉ − 1)·t_c ] }  — step 8
//! ```
//!
//! (The paper writes the subcube-sort loop count as `s(s+3)/2`; the sort has
//! `s(s+1)/2` compare-split substages, the extra `s` accounting for the
//! heavier final-merge loops in Seidel & Ziegler's accounting. We follow the
//! paper's expression verbatim.)
//!
//! This module exists for comparing the *analytic* prediction against the
//! *simulated* time (see `EXPERIMENTS.md`); the simulation itself charges
//! actual operation counts instead.

use hypercube::cost::CostModel;

/// Inputs of the closed-form estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostInputs {
    /// Cube dimension `n`.
    pub n: usize,
    /// Cutting dimensions `m` (0 for the fault-free / single-fault cases).
    pub m: usize,
    /// Total number of keys `M`.
    pub m_total: usize,
}

impl CostInputs {
    /// Live processors `N' = 2^n − 2^m`; for `m = 0` the whole cube is
    /// counted (the one dead node of the single-fault case changes `k`
    /// only marginally).
    pub fn live_count(&self) -> usize {
        if self.m == 0 {
            1 << self.n
        } else {
            (1 << self.n) - (1 << self.m)
        }
    }

    /// Keys per processor `k = ⌈M/N'⌉` over an explicit live count.
    pub fn keys_per_processor(&self, live: usize) -> usize {
        self.m_total.div_ceil(live).max(1)
    }
}

/// Evaluates the paper's worst-case `T` (µs) for the fault-tolerant sort.
pub fn predicted_time(cost: &CostModel, inputs: &CostInputs) -> f64 {
    let n = inputs.n;
    let m = inputs.m;
    let s = n - m;
    let live = inputs.live_count();
    let k = inputs.keys_per_processor(live) as f64;
    let t_sr = cost.t_sr;
    let t_c = cost.t_c;

    let heapsort = if k > 1.0 {
        ((k - 1.0) * k.log2().ceil() + 1.0) * t_c
    } else {
        t_c
    };
    let subcube_sort_loops = (s * (s + 3)) as f64 / 2.0;
    let subcube_loop_cost = k * t_sr + ((1.5 * k).ceil() - 1.0) * t_c;
    let step3 = heapsort + subcube_sort_loops * subcube_loop_cost;

    let merge_loops = (m * (m + 3)) as f64 / 2.0;
    let step7ab = (s as f64 + 1.0) * k * t_sr + ((k / 2.0).ceil() - 1.0) * t_c;
    let step7c = (k - 1.0) * t_c;
    let step8 = subcube_sort_loops * subcube_loop_cost;

    step3 + merge_loops * (step7ab + step7c + step8)
}

/// Closed-form prediction of **this implementation's** simulated time
/// (merge-based step 8, half-exchange protocol), as opposed to
/// [`predicted_time`] which transcribes the paper's formula.
///
/// Per-node charges, with `k = ⌈M/N'⌉`:
/// * heapsort ≈ `2k·log₂k · t_c` (build + extract, measured constant);
/// * a neighbor compare-split substage ≈ `2k·t_sr` latency (two half-runs
///   each way, pipelined sender/receiver) + `≈2.5k·t_c` (scan + piece
///   merges + final merge);
/// * an inter-subcube substage pays `(s+1)` hops: `k(2+s)·t_sr`;
/// * step 8 = `s` neighbor substages, plus an expected half of a window
///   reversal (`k(1+s)/2·t_sr` when it fires, probability ≈ ½).
///
/// Substage counts: step 3 has `s(s+1)/2`, the merge loop runs `m(m+1)/2`
/// iterations of (step 7 + step 8).
pub fn predicted_time_implementation(cost: &CostModel, inputs: &CostInputs) -> f64 {
    let n = inputs.n;
    let m = inputs.m;
    let s = n - m;
    let live = inputs.live_count();
    let k = inputs.keys_per_processor(live) as f64;
    let t_sr = cost.t_sr;
    let t_c = cost.t_c;

    let heapsort = if k > 1.0 {
        2.0 * k * k.log2() * t_c
    } else {
        t_c
    };
    let neighbor_substage = 2.0 * k * t_sr + 2.5 * k * t_c;
    let step3 = (s * (s + 1)) as f64 / 2.0 * neighbor_substage;
    let step7 = k * (2.0 + s as f64) * t_sr + 2.5 * k * t_c;
    let step8 = s as f64 * neighbor_substage + 0.25 * k * (1.0 + s as f64) * t_sr;
    let merge_loop = (m * (m + 1)) as f64 / 2.0 * (step7 + step8);
    heapsort + step3 + merge_loop
}

/// The asymptotic regime the paper reports: for `M >> N` the cost approaches
/// `O(k·log k)` — this returns the dominant heapsort term for comparison.
pub fn dominant_term(cost: &CostModel, inputs: &CostInputs) -> f64 {
    let live = inputs.live_count();
    let k = inputs.keys_per_processor(live) as f64;
    if k > 1.0 {
        (k - 1.0) * k.log2().ceil() * cost.t_c
    } else {
        cost.t_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cost() -> CostModel {
        CostModel::paper_form()
    }

    #[test]
    fn fault_free_case_reduces_to_bitonic_terms() {
        // m = 0: no inter-subcube stage at all
        let t = predicted_time(
            &paper_cost(),
            &CostInputs {
                n: 5,
                m: 0,
                m_total: 3200,
            },
        );
        assert!(t > 0.0);
        // the m-dependent part vanishes: doubling t_sr only scales the
        // subcube-sort communication
        let inputs = CostInputs {
            n: 5,
            m: 0,
            m_total: 3200,
        };
        let mut expensive = paper_cost();
        expensive.t_sr *= 2.0;
        let t2 = predicted_time(&expensive, &inputs);
        assert!(t2 > t);
    }

    #[test]
    fn time_grows_with_m_total() {
        let c = paper_cost();
        let t1 = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 3,
                m_total: 3_200,
            },
        );
        let t2 = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 3,
                m_total: 32_000,
            },
        );
        let t3 = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 3,
                m_total: 320_000,
            },
        );
        assert!(t1 < t2 && t2 < t3);
        // superlinear growth in M is bounded by the k log k regime: ratio
        // t3/t2 should be a bit above 10 but below 20
        let ratio = t3 / t2;
        assert!(ratio > 9.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn more_cuts_cost_more_for_same_data() {
        // same n and M: a finer partition (larger m) has fewer live
        // processors and more inter-subcube stages
        let c = paper_cost();
        let t_m1 = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 1,
                m_total: 64_000,
            },
        );
        let t_m3 = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 3,
                m_total: 64_000,
            },
        );
        assert!(t_m1 < t_m3);
    }

    #[test]
    fn paper_formula_contradicts_figure_7_for_r_2() {
        // Reproduction finding (see EXPERIMENTS.md): the paper's *formula*,
        // which charges a FULL bitonic re-sort in step 8 on every substage,
        // predicts that the fault-tolerant sort on Q6 with m = 1 (two
        // faults) is SLOWER than plain bitonic on the fault-free Q5 — the
        // opposite of the paper's measured Figure 7(a). The measured curves
        // are reproduced by the merge-based step 8
        // ([`crate::ftsort::Step8Strategy::BitonicMerge`]); this test pins
        // the formula's (contradictory) prediction so the discrepancy stays
        // documented.
        let c = paper_cost();
        let m_total = 320_000;
        let ours = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 1,
                m_total,
            },
        );
        let fallback = predicted_time(
            &c,
            &CostInputs {
                n: 5,
                m: 0,
                m_total,
            },
        );
        assert!(
            ours > fallback,
            "formula prediction flipped: ours {ours} vs Q5 fallback {fallback}"
        );
    }

    #[test]
    fn single_fault_prediction_beats_halved_cube() {
        // For r = 1 (m = 0, N' = 2^n in the formula's live count — the one
        // dead node changes k only marginally) the formula does agree with
        // Figure 7: staying on the big cube wins.
        let c = paper_cost();
        let m_total = 320_000;
        let ours = predicted_time(
            &c,
            &CostInputs {
                n: 6,
                m: 0,
                m_total,
            },
        );
        let fallback = predicted_time(
            &c,
            &CostInputs {
                n: 5,
                m: 0,
                m_total,
            },
        );
        assert!(ours < fallback, "ours {ours} vs fallback {fallback}");
    }

    #[test]
    fn implementation_model_tracks_simulation() {
        use crate::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
        use hypercube::fault::FaultSet;
        use hypercube::topology::Hypercube;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        let cost = CostModel::paper_form();
        for (n, faults) in [
            (5usize, vec![3u32, 5, 16, 24]), // m = 3
            (5, vec![9, 22]),                // m = 1
            (6, vec![17]),                   // m = 0
            (6, vec![1, 12, 33, 62]),        // m = 2 or 3
        ] {
            let fs = FaultSet::from_raw(Hypercube::new(n), &faults);
            let plan = FtPlan::new(&fs).unwrap();
            let config = FtConfig {
                cost,
                ..FtConfig::default()
            };
            let m = plan.partition().mincut;
            for m_total in [32_000usize, 320_000] {
                let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
                let sim = fault_tolerant_sort(&plan, &config, data, Attach::default())
                    .0
                    .time_us;
                let pred = predicted_time_implementation(&cost, &CostInputs { n, m, m_total });
                // the model is deliberately a (slight) over-estimate: the
                // worst-case hop count s+1 and the full scan bound rarely
                // bind, so predictions land consistently ~1.2–1.4× above
                // the simulation across all configurations
                let ratio = pred / sim;
                assert!(
                    (1.0..1.6).contains(&ratio),
                    "n={n} m={m} M={m_total}: predicted {pred:.0} vs simulated {sim:.0} (ratio {ratio:.2})"
                );
            }
        }
    }

    #[test]
    fn dominant_term_share_grows_with_m() {
        // In the M >> N regime the k·log k heapsort term takes over; its
        // share of the total must grow monotonically with M.
        let c = paper_cost();
        let share = |m_total: usize| {
            let inputs = CostInputs {
                n: 4,
                m: 1,
                m_total,
            };
            dominant_term(&c, &inputs) / predicted_time(&c, &inputs)
        };
        let s1 = share(10_000);
        let s2 = share(1_000_000);
        let s3 = share(100_000_000);
        assert!(s1 < s2 && s2 < s3, "shares {s1} {s2} {s3}");
    }
}
