//! The metric catalogue (mirrored in `BENCHMARK.json`, checked by a test),
//! order statistics, and the comparison against a baseline row.

use hypercube::obs::json::Json;
use std::collections::BTreeMap;

/// The benchmark's contract: workloads, metrics, units and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a comparator should gate the metric (ROADMAP's flat bench-row
/// schema): `exact` for deterministic counts, `wall_band` for times,
/// `floor`/`ceiling` for rates and sizes that may only move one way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    Exact,
    WallBand,
    Floor,
    Ceiling,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

impl Gate {
    pub fn as_str(self) -> &'static str {
        match self {
            Gate::Exact => "exact",
            Gate::WallBand => "wall_band",
            Gate::Floor => "floor",
            Gate::Ceiling => "ceiling",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> Metric {
    Metric {
        name,
        unit,
        better,
        gate,
    }
}

use Better::{Higher, Lower};
use Gate::{Ceiling, Exact, Floor, WallBand};

/// Reported by timed runs (`--trace 0`), from outside the program. Times
/// are the 10th percentile of the run's ops (see [`p10`]).
pub const END_TO_END: [Metric; 5] = [
    m("wall_p10_s", "s", Lower, WallBand),
    m("setup_s", "s", Lower, WallBand),
    m("cpu_p10_s", "s", Lower, WallBand),
    m("peak_rss_mb", "MB", Lower, Ceiling),
    m("virtual_ms", "ms", Lower, Exact),
];

/// Reported beside the end-to-end metrics in the stderr summary and the
/// `--out` row, but not part of the contract.
pub const INFORMATIONAL: [Metric; 2] = [
    m("wall_p50_s", "s", Lower, WallBand),
    m("wall_tail_s", "s", Lower, WallBand),
];

/// Reported by traced runs (`--trace 1`). A layer a workload does not
/// exercise reads 0; every metric with a time unit is measured on every
/// workload.
pub const PER_LAYER: [Metric; 40] = [
    m("cli.setup_s", "s", Lower, WallBand),
    m("cli.work_s", "s", Lower, WallBand),
    m("cli.teardown_s", "s", Lower, WallBand),
    m("cli.cpu_per_sort_ms", "ms", Lower, WallBand),
    m("cli.parallel_eff", "ratio", Higher, Floor),
    m("cli.speedup_x", "x", Higher, Floor),
    m("trace.overhead_x", "x", Lower, Ceiling),
    m("partition.wall_s", "s", Lower, WallBand),
    m("partition.mincut", "count", Lower, Exact),
    m("partition.live_nodes", "count", Higher, Exact),
    m("sim.poll_share", "ratio", Lower, Ceiling),
    m("sim.deliver_share", "ratio", Lower, Ceiling),
    m("sim.serial_share", "ratio", Lower, Ceiling),
    m("sim.steal_share", "ratio", Lower, Ceiling),
    m("sim.barrier_share", "ratio", Lower, Ceiling),
    m("sim.park_share", "ratio", Lower, Ceiling),
    m("sim.other_share", "ratio", Lower, Ceiling),
    m("sim.utilization", "ratio", Higher, Floor),
    m("sim.steal_rate", "ratio", Lower, Ceiling),
    m("sim.engine_share", "ratio", Higher, Floor),
    m("sim.tiling_gap", "ratio", Lower, Ceiling),
    m("sim.rounds", "count", Lower, Exact),
    m("sim.messages", "count", Lower, Exact),
    m("sim.element_hops", "count", Lower, Exact),
    m("sim.elements_priced", "count", Lower, Exact),
    m("sim.barrier_epochs", "count", Lower, Exact),
    m("sim.steals", "count", Lower, Ceiling),
    m("sim.pool_takes", "count", Lower, Exact),
    m("sim.pool_slab_high_water", "count", Lower, Ceiling),
    m("seq.comparisons", "count", Lower, Exact),
    m("seq.cmp_per_poll_s", "1/s", Higher, Floor),
    m("obs.sink_events", "count", Lower, Exact),
    m("obs.gz_in_mb", "MB", Lower, Exact),
    m("obs.gz_out_mb", "MB", Lower, Exact),
    m("obs.gz_ratio", "x", Higher, Exact),
    m("obs.write_mb_per_s", "MB/s", Higher, Floor),
    m("obs.read_mb_per_s", "MB/s", Higher, Floor),
    m("obs.record_overhead_x", "x", Lower, Ceiling),
    m("campaign.runs", "count", Higher, Exact),
    m("campaign.runs_failed", "count", Lower, Exact),
];

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The statistic a metric reports over a run's samples.
#[derive(Clone, Copy)]
pub enum Stat {
    P10,
    Median,
}

impl Stat {
    pub fn label(self) -> &'static str {
        match self {
            Stat::P10 => "p10",
            Stat::Median => "median",
        }
    }

    pub fn of(self, values: &[f64]) -> Option<f64> {
        match self {
            Stat::P10 => p10(values),
            Stat::Median => median(values),
        }
    }
}

/// The 10th percentile of `values` (nearest rank; the minimum below ten
/// samples). On a shared host whose speed drifts for tens of seconds at a
/// time, a run's median moves with the drift; its fast tail stays put.
pub fn p10(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * 0.1).ceil().max(1.0) as usize;
    v.get(rank - 1).copied()
}

/// The highest quantile with at least ten samples beyond it, as
/// `(q, value)` with `q = 1 - 10/n`; `None` unless that lies above the
/// median, which needs more than 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((1.0 - 10.0 / n as f64, v[n - 11]))
}

/// End-to-end metrics of `current` that fail against a baseline row taken
/// at the same seed: an `exact` metric must repeat exactly, any other may
/// be worse by at most the bound `BENCHMARK.json` fixes for it.
pub fn regressions(spec: &Json, baseline: &Json, current: &BTreeMap<String, f64>) -> Vec<String> {
    let mut out = Vec::new();
    for metric in &END_TO_END {
        let name = metric.name;
        let bound = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|list| {
                list.iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json bounds every end-to-end metric (unit-tested)");
        let base = baseline
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("v"))
            .and_then(Json::as_f64);
        let (Some(base), Some(&cur)) = (base, current.get(name)) else {
            out.push(format!("{name}: missing from the baseline or this run"));
            continue;
        };
        let failed = match (metric.gate, metric.better) {
            (Gate::Exact, _) => cur != base,
            (_, Lower) => cur > base * (1.0 + bound),
            (_, Higher) => cur < base * (1.0 - bound),
        };
        if failed {
            let allowed = match metric.gate {
                Gate::Exact => "exact".to_string(),
                _ => format!("bound {:.0}%", bound * 100.0),
            };
            out.push(format!("{name}: {cur} vs baseline {base} ({allowed})"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(p10(&[]), None);
        assert_eq!(p10(&[5.0, 3.0, 4.0]), Some(3.0));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p10(&hundred), Some(10.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(p10(&eleven), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty), None);
        let hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let (q, v) = tail(&hundred).expect("100 samples have a tail");
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(v, 89.0);
        assert_eq!(hundred.iter().filter(|&&x| x > v).count(), 10);
        let four_hundred: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(tail(&four_hundred), Some((0.975, 389.0)));
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
        metrics
            .map(|m| {
                let better = m.better.as_str().to_string();
                (m.name.to_string(), m.unit.to_string(), better)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&spec, "end_to_end"), ours(END_TO_END.iter()));
        assert_eq!(listed(&spec, "per_layer"), ours(PER_LAYER.iter()));
        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads present")
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let binary: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, binary);
        let bounds: Vec<(&str, f64)> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("listed")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("named");
                (
                    name,
                    m.get("bound").and_then(Json::as_f64).expect("bounded"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| *n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in bounds {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            assert!(bound <= setup, "{name}: bound above setup_s's");
        }
    }

    #[test]
    fn regressions_apply_the_bounds() {
        let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let row = |v: f64| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("\"{}\":{{\"v\":{v}}}", m.name))
                .collect();
            Json::parse(&format!("{{\"metrics\":{{{}}}}}", metrics.join(","))).expect("row")
        };
        let current = |v: f64| -> BTreeMap<String, f64> {
            END_TO_END.iter().map(|m| (m.name.to_string(), v)).collect()
        };
        let exact = END_TO_END.iter().filter(|m| m.gate == Exact).count();
        assert_eq!(exact, 1);
        assert!(regressions(&spec, &row(1.0), &current(1.0)).is_empty());
        // Better is never a regression, except that an exact metric must
        // repeat.
        assert_eq!(regressions(&spec, &row(1.0), &current(0.5)).len(), exact);
        assert_eq!(
            regressions(&spec, &row(1.0), &current(1.001)),
            ["virtual_ms: 1.001 vs baseline 1 (exact)"]
        );
        assert_eq!(
            regressions(&spec, &row(1.0), &current(1.3)).len(),
            END_TO_END.len()
        );
        assert_eq!(regressions(&spec, &Json::Null, &current(1.0)).len(), 5);
    }
}
