//! The paper's cost model and per-node virtual clocks.
//!
//! §3 of the paper estimates running time with two constants:
//!
//! * `t_{s/r}` — cost of sending or receiving **one element** between two
//!   *neighboring* processors (an element crossing `h` links costs
//!   `h · t_{s/r}`);
//! * `t_c` — cost of comparing a pair of elements.
//!
//! We add an optional per-message startup latency `t_startup` (real
//! multicomputers pay it; the paper's closed-form analysis folds it into
//! `t_{s/r}`, so it defaults to a small value and can be zeroed to match the
//! formulas exactly).
//!
//! Default constants are calibrated to first-generation NCUBE hardware
//! ratios — per-element communication roughly an order of magnitude more
//! expensive than a comparison — which is what shapes the paper's Figure 7.

use crate::obs::json::json_object;

/// Cost constants, in microseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostModel {
    /// Cost of moving one element across one link (`t_{s/r}`), µs.
    pub t_sr: f64,
    /// Cost of one key comparison (`t_c`), µs.
    pub t_c: f64,
    /// Fixed per-message startup latency, µs (0 to match the paper's
    /// closed-form analysis exactly).
    pub t_startup: f64,
}

json_object!(CostModel {
    t_sr,
    t_c,
    t_startup,
});

impl Default for CostModel {
    /// NCUBE-era calibration: a 4-byte key over a ~1.25 MB/s (10 Mbit/s)
    /// DMA channel is ≈ 3.2 µs/element/hop; a compare-and-move step inside
    /// a sort loop on a ~0.5 MIPS processor ≈ 3 µs; message startup
    /// ≈ 300 µs on first-generation hypercubes. First-generation hypercube
    /// CPUs were slow relative to their DMA links (`t_sr/t_c ≈ 1`), which
    /// is the regime that shapes the paper's Figure 7 crossovers (see
    /// `EXPERIMENTS.md` for the sensitivity discussion).
    fn default() -> Self {
        CostModel {
            t_sr: 3.2,
            t_c: 3.0,
            t_startup: 300.0,
        }
    }
}

impl CostModel {
    /// A model with zero startup cost, matching the paper's closed-form `T`.
    pub fn paper_form() -> Self {
        CostModel {
            t_startup: 0.0,
            ..CostModel::default()
        }
    }

    /// Cost of one message carrying `elements` keys across `hops` links.
    #[inline]
    pub fn transfer(&self, elements: usize, hops: u32) -> f64 {
        if hops == 0 {
            // local hand-off is free: same processor
            return 0.0;
        }
        self.t_startup * hops as f64 + self.t_sr * elements as f64 * hops as f64
    }

    /// Cost of `count` key comparisons.
    #[inline]
    pub fn compare(&self, count: usize) -> f64 {
        self.t_c * count as f64
    }

    /// Worst-case heapsort cost for `k` elements, as charged in the paper's
    /// step-3 analysis: `[(k − 1)·log₂⌈k⌉ + 1] · t_c`.
    pub fn heapsort(&self, k: usize) -> f64 {
        if k <= 1 {
            return self.t_c;
        }
        let log = (k as f64).log2().ceil();
        ((k as f64 - 1.0) * log + 1.0) * self.t_c
    }

    /// Cost of merging two sorted runs of total length `k`
    /// (paper step 7(c): `(k − 1) · t_c`).
    #[inline]
    pub fn merge(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.t_c * (k as f64 - 1.0)
        }
    }
}

/// A per-processor virtual clock for deterministic timing simulation.
///
/// Each node's clock advances when it computes; message passing synchronizes
/// clocks: the receive completes at
/// `max(receiver_now, sender_send_time + transfer_cost)`.
/// The turnaround time of a run is the maximum clock over all nodes.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current local time, µs.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances by a (non-negative) computation cost.
    #[inline]
    pub fn advance(&mut self, cost: f64) {
        debug_assert!(cost >= 0.0, "negative cost");
        self.now += cost;
    }

    /// Synchronizes on a message that left the sender at `sent_at` and costs
    /// `transfer` to arrive; local time becomes the arrival time if later.
    #[inline]
    pub fn receive(&mut self, sent_at: f64, transfer: f64) {
        self.now = self.now.max(sent_at + transfer);
    }

    /// Synchronizes on a message with a precomputed arrival time — used when
    /// the link scheduler (not `sent_at + transfer`) decides when a message
    /// lands, as under [`crate::sim::LinkModel::Contended`].
    #[inline]
    pub fn receive_at(&mut self, arrival: f64) {
        self.now = self.now.max(arrival);
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_elements_and_hops() {
        let m = CostModel {
            t_sr: 2.0,
            t_c: 1.0,
            t_startup: 10.0,
        };
        assert_eq!(m.transfer(5, 1), 10.0 + 10.0);
        assert_eq!(m.transfer(5, 3), 30.0 + 30.0);
        assert_eq!(m.transfer(0, 2), 20.0, "startup still paid");
        assert_eq!(m.transfer(100, 0), 0.0, "self-transfer is free");
    }

    #[test]
    fn paper_form_has_no_startup() {
        let m = CostModel::paper_form();
        assert_eq!(m.t_startup, 0.0);
        assert_eq!(m.transfer(10, 2), m.t_sr * 20.0);
    }

    #[test]
    fn heapsort_cost_matches_paper_formula() {
        let m = CostModel {
            t_sr: 0.0,
            t_c: 1.0,
            t_startup: 0.0,
        };
        // k = 8: (8-1)*3 + 1 = 22
        assert_eq!(m.heapsort(8), 22.0);
        // k = 1: degenerate, charge a single t_c
        assert_eq!(m.heapsort(1), 1.0);
    }

    #[test]
    fn merge_cost() {
        let m = CostModel::paper_form();
        assert_eq!(m.merge(0), 0.0);
        assert_eq!(m.merge(10), 9.0 * m.t_c);
    }

    #[test]
    fn clock_receive_takes_max() {
        let m = CostModel {
            t_sr: 1.0,
            t_c: 1.0,
            t_startup: 0.0,
        };
        let mut a = VirtualClock::new();
        a.advance(5.0);
        // message sent at t=10 with transfer 3 arrives at 13 > 5
        a.receive(10.0, m.transfer(3, 1));
        assert_eq!(a.now(), 13.0);
        // an early message does not move the clock backwards
        a.receive(1.0, 1.0);
        assert_eq!(a.now(), 13.0);
    }

    #[test]
    fn clock_reset() {
        let mut c = VirtualClock::new();
        c.advance(42.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }
}
