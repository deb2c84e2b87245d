//! Operation counters for simulated runs.
//!
//! The simulation engines count the raw quantities the paper's analysis is
//! built from — messages, element·hops, comparisons — so benches can report
//! both virtual time and the underlying operation counts.

use crate::obs::json::json_object;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Counters accumulated during a simulated run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Elements carried, summed over messages (one element in one message
    /// counts once regardless of distance).
    pub elements_sent: u64,
    /// Elements × links crossed (the unit the paper charges `t_{s/r}` for).
    pub element_hops: u64,
    /// Links crossed, summed over messages (one message crossing 3 links
    /// counts 3 regardless of its size).
    pub message_hops: u64,
    /// Key comparisons performed.
    pub comparisons: u64,
    /// Maximum hops of any single message (turnaround-relevant).
    pub max_hops: u32,
    /// Largest single message, in elements (peak per-round traffic).
    pub max_message_elements: u64,
}

json_object!(RunStats {
    messages,
    elements_sent,
    element_hops,
    message_hops,
    comparisons,
    max_hops,
    max_message_elements,
});

impl RunStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Records one message of `elements` keys crossing `hops` links.
    pub fn record_message(&mut self, elements: usize, hops: u32) {
        self.messages += 1;
        self.elements_sent += elements as u64;
        self.element_hops += elements as u64 * hops as u64;
        self.message_hops += hops as u64;
        self.max_hops = self.max_hops.max(hops);
        self.max_message_elements = self.max_message_elements.max(elements as u64);
    }

    /// Records `count` comparisons.
    pub fn record_comparisons(&mut self, count: usize) {
        self.comparisons += count as u64;
    }

    /// Mean hops per *element*, `element_hops / elements_sent` — how far the
    /// average key travels (0 if nothing was sent).
    pub fn mean_hops_per_element(&self) -> f64 {
        if self.elements_sent == 0 {
            0.0
        } else {
            self.element_hops as f64 / self.elements_sent as f64
        }
    }

    /// Mean hops per *message*, `message_hops / messages` — the average
    /// route length irrespective of payload size (0 if no messages).
    pub fn mean_hops_per_message(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.message_hops as f64 / self.messages as f64
        }
    }
}

impl Add for RunStats {
    type Output = RunStats;
    fn add(self, rhs: RunStats) -> RunStats {
        RunStats {
            messages: self.messages + rhs.messages,
            elements_sent: self.elements_sent + rhs.elements_sent,
            element_hops: self.element_hops + rhs.element_hops,
            message_hops: self.message_hops + rhs.message_hops,
            comparisons: self.comparisons + rhs.comparisons,
            max_hops: self.max_hops.max(rhs.max_hops),
            max_message_elements: self.max_message_elements.max(rhs.max_message_elements),
        }
    }
}

impl AddAssign for RunStats {
    fn add_assign(&mut self, rhs: RunStats) {
        *self = *self + rhs;
    }
}

impl Sum for RunStats {
    fn sum<I: Iterator<Item = RunStats>>(iter: I) -> RunStats {
        iter.fold(RunStats::new(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = RunStats::new();
        s.record_message(10, 2);
        s.record_message(5, 1);
        s.record_comparisons(7);
        assert_eq!(s.messages, 2);
        assert_eq!(s.elements_sent, 15);
        assert_eq!(s.element_hops, 25);
        assert_eq!(s.message_hops, 3);
        assert_eq!(s.comparisons, 7);
        assert_eq!(s.max_hops, 2);
    }

    #[test]
    fn add_merges_counters() {
        let mut a = RunStats::new();
        a.record_message(3, 4);
        let mut b = RunStats::new();
        b.record_message(2, 1);
        b.record_comparisons(5);
        let c = a + b;
        assert_eq!(c.messages, 2);
        assert_eq!(c.elements_sent, 5);
        assert_eq!(c.element_hops, 14);
        assert_eq!(c.message_hops, 5);
        assert_eq!(c.comparisons, 5);
        assert_eq!(c.max_hops, 4);
        a += b;
        assert_eq!(a, c);
    }

    /// Pins the two hop means apart: a big 3-hop message plus a small 1-hop
    /// message give a *per-element* mean dominated by the big message but a
    /// *per-message* mean that weights both equally.
    #[test]
    fn mean_hops_per_element_and_per_message_differ() {
        assert_eq!(RunStats::new().mean_hops_per_element(), 0.0);
        assert_eq!(RunStats::new().mean_hops_per_message(), 0.0);
        let mut s = RunStats::new();
        s.record_message(6, 3); // 18 element·hops
        s.record_message(2, 1); //  2 element·hops
        assert_eq!(s.mean_hops_per_element(), 20.0 / 8.0);
        assert_eq!(s.mean_hops_per_message(), 4.0 / 2.0);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            {
                let mut s = RunStats::new();
                s.record_message(1, 1);
                s
            },
            {
                let mut s = RunStats::new();
                s.record_comparisons(3);
                s
            },
        ];
        let total: RunStats = parts.into_iter().sum();
        assert_eq!(total.messages, 1);
        assert_eq!(total.comparisons, 3);
    }
}
