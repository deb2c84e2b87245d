//! Readers for what the CLIs print: `sort` stdout stats, `partition`
//! stdout, the `--log-level info` records, the `--sched-out` report, the
//! `--metrics-snapshot` Prometheus text and the campaign report.

use hypercube::obs::json::Json;

/// Labels of the `sort` stdout lines that carry results. They must repeat
/// exactly across repetitions, engines and observability flags.
const STATS_LABELS: [&str; 10] = [
    "simulated time",
    "scatter",
    "step 3",
    "step 7",
    "step 8",
    "gather",
    "messages",
    "element·hops",
    "comparisons",
    "link wait",
];

/// The result lines of `sort` stdout, in order.
pub fn stats_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| {
            l.starts_with("sorted ")
                || l.split_once(':')
                    .is_some_and(|(label, _)| STATS_LABELS.contains(&label.trim()))
        })
        .map(str::to_string)
        .collect()
}

/// The integer after `label :` in `sort` stdout.
pub fn stat(stdout: &str, label: &str) -> Option<u64> {
    stdout.lines().find_map(|l| {
        let (head, value) = l.split_once(':')?;
        (head.trim() == label).then(|| value.trim().parse().ok())?
    })
}

/// `(mincut, live nodes)` from `partition` stdout.
pub fn partition_shape(stdout: &str) -> Option<(u64, u64)> {
    let mincut = stdout
        .lines()
        .find_map(|l| l.strip_prefix("mincut m = "))?
        .trim()
        .parse()
        .ok()?;
    let live = stdout
        .lines()
        .find_map(|l| l.strip_prefix("live N' = "))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some((mincut, live))
}

/// Numeric field `key` of the first JSON log record whose message is `msg`.
pub fn log_number(stderr: &[(f64, String)], msg: &str, key: &str) -> Option<f64> {
    stderr.iter().find_map(|(_, line)| {
        let rec = Json::parse(line).ok()?;
        (rec.get("msg")?.as_str()? == msg).then(|| rec.get(key)?.as_f64())?
    })
}

/// Splits a child's run at its stderr markers: seconds after spawn of the
/// first stderr line (`sort starting`, `campaign: 0/N runs`) and of the
/// line that reports the work done (`sort complete`, `campaign: N/N runs`).
pub fn phase_marks(stderr: &[(f64, String)]) -> Option<(f64, f64)> {
    let first = stderr.first()?.0;
    let done = stderr.iter().rev().find(|(_, l)| {
        l.contains("\"msg\":\"sort complete\"")
            || l.strip_prefix("campaign: ")
                .and_then(|rest| rest.strip_suffix(" runs"))
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(done, total)| done == total)
    })?;
    Some((first, done.0))
}

/// Sum of every sample of `family` in Prometheus text (0 when absent).
pub fn prom_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// The parts of a `--sched-out` report the benchmark uses.
#[derive(Debug, PartialEq)]
pub struct Sched {
    pub makespan_s: f64,
    pub utilization: f64,
    pub steal_rate: f64,
    /// Seconds summed over workers, per category: poll, deliver, serial,
    /// steal, barrier, park, other.
    pub category_s: [f64; 7],
    /// Largest gap between a worker's category sum and the makespan, as a
    /// share of the makespan.
    pub tiling_gap: f64,
}

const SCHED_CATEGORIES: [&str; 7] = [
    "poll", "deliver", "serial", "steal", "barrier", "park", "other",
];

pub fn sched(text: &str) -> Result<Sched, String> {
    let doc = Json::parse(text)?;
    let num = |o: &Json, k: &str| {
        o.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("sched report: missing number '{k}'"))
    };
    let makespan_s = num(&doc, "makespan_ns")? / 1e9;
    let mut category_s = [0.0; 7];
    let mut tiling_gap: f64 = 0.0;
    let workers = doc
        .get("workers_detail")
        .and_then(Json::as_arr)
        .ok_or("sched report: missing 'workers_detail'")?;
    for w in workers {
        let mut sum = 0.0;
        for (total, cat) in category_s.iter_mut().zip(SCHED_CATEGORIES) {
            let s = num(w, &format!("{cat}_ns"))? / 1e9;
            *total += s;
            sum += s;
        }
        if makespan_s > 0.0 {
            tiling_gap = tiling_gap.max((sum - makespan_s).abs() / makespan_s);
        }
    }
    Ok(Sched {
        makespan_s,
        utilization: num(&doc, "utilization")?,
        steal_rate: num(&doc, "steal_rate")?,
        category_s,
        tiling_gap,
    })
}

/// Totals over the cells of a campaign report.
#[derive(Debug, PartialEq)]
pub struct Campaign {
    pub runs: f64,
    pub runs_failed: f64,
    /// Mean simulated makespan over all runs (the paper's metric).
    pub virtual_us: f64,
    pub element_hops: f64,
    pub comparisons: f64,
}

pub fn campaign(text: &str) -> Result<Campaign, String> {
    let doc = Json::parse(text)?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("campaign report: missing 'cells'")?;
    let mut c = Campaign {
        runs: 0.0,
        runs_failed: 0.0,
        virtual_us: 0.0,
        element_hops: 0.0,
        comparisons: 0.0,
    };
    let mut makespan_sum = 0.0;
    for cell in cells {
        let num = |path: &[&str]| {
            path.iter()
                .try_fold(cell, |o, k| o.get(k))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("campaign report: missing '{}'", path.join(".")))
        };
        c.runs += num(&["makespan_us", "count"])?;
        c.runs_failed += num(&["runs_failed"])?;
        makespan_sum += num(&["makespan_us", "sum"])?;
        c.element_hops += num(&["element_hops", "sum"])?;
        c.comparisons += num(&["comparisons", "sum"])?;
    }
    if c.runs == 0.0 {
        return Err("campaign report: no completed runs".into());
    }
    c.virtual_us = makespan_sum / c.runs;
    Ok(c)
}

/// The live `--metrics-out` report minus the fields that describe the host
/// schedule (`--threads`, pool counters), which a run file does not carry
/// and a replay therefore cannot rederive. Everything else must match the
/// replayed report byte for byte.
pub fn strip_host_fields(report: &str) -> String {
    const HOST_FIELDS: [&str; 6] = [
        "threads",
        "workers_effective",
        "shard_size",
        "pool_takes",
        "pool_puts",
        "pool_slab_high_water",
    ];
    let mut s = report.to_string();
    for field in HOST_FIELDS {
        let key = format!("\"{field}\":");
        let Some(at) = s.find(&key) else { continue };
        let digits = s[at + key.len()..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let mut end = at + key.len() + digits;
        let mut start = at;
        if s.as_bytes().get(end) == Some(&b',') {
            end += 1;
        } else if at > 0 && s.as_bytes()[at - 1] == b',' {
            start -= 1;
        }
        s.replace_range(start..end, "");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from `ftsort-cli sort --n 8 --faults 7,99,130,201,250
    // --m 16000 --engine par --threads 2 --log-level info --sched-out s.json
    // --metrics-snapshot p.txt`.
    const SORT_STDOUT: &str = "\
sorted 16000 keys on 248 live processors of Q8 (5 faults)
simulated time :        124.3 ms
  scatter      :          0.0 ms
  step 3       :         29.7 ms
  step 7       :         37.6 ms
  step 8       :         70.9 ms
  gather       :          0.0 ms
messages       :        25296
element·hops   :      1128920
comparisons    :       876656
sched written  : s.json
scheduler profile: 2 worker(s) (2 requested), 8 shard(s) × 31 node(s), 248 live, makespan 468.3ms
  utilization 0.521 | steal rate 0.020 | barrier share 0.478
metrics snapshot: p.txt (ftsort-cli trace-check --prom p.txt)
";

    const SORT_STDERR: [&str; 2] = [
        r#"{"ts":1792116934.942,"level":"info","target":"ftsort::cli","msg":"sort starting","n":8,"faults":5,"keys":16000,"engine":"par"}"#,
        r#"{"ts":1792116935.417,"level":"info","target":"ftsort::cli","msg":"sort complete","keys":16000,"processors":248,"time_us":124275,"messages":25296}"#,
    ];

    const SCHED_JSON: &str = r#"{"workers_requested":2,"workers":2,"shard_size":31,"shard_count":8,"live_nodes":248,"serial":true,"makespan_ns":468252132,"events_dropped":0,"utilization":0.5207273567736793,"steal_rate":0.020068807339449542,"barrier_share":0.4779470032218876,"workers_detail":[{"worker":0,"poll_ns":28799654,"deliver_ns":1220454,"serial_ns":425115037,"steal_ns":328503,"barrier_ns":692111,"park_ns":11864422,"other_ns":231951,"wall_ns":468252132,"polls":455,"nodes_polled":11140,"shards_popped":868,"shards_stolen":31,"steal_attempts":249,"parks":174,"barriers":327},{"worker":1,"poll_ns":30701057,"deliver_ns":1827188,"serial_ns":0,"steal_ns":381449,"barrier_ns":711970,"park_ns":434279799,"other_ns":243744,"wall_ns":468145207,"polls":417,"nodes_polled":10590,"shards_popped":841,"shards_stolen":4,"steal_attempts":222,"parks":149,"barriers":327}],"steal_matrix":[[0,31],[4,0]],"poll_hist":[0,2,4,9,13,844]}"#;

    const PROM: &str = "\
# HELP ftsort_rounds_total Frontier rounds committed.
# TYPE ftsort_rounds_total counter
ftsort_rounds_total 109
# TYPE ftsort_msg_elements histogram
ftsort_msg_elements_bucket{le=\"1\"} 0
ftsort_msg_elements_sum 845520
# TYPE ftsort_campaign_runs_completed_total counter
ftsort_campaign_runs_completed_total{n=\"6\",r=\"3\"} 128
ftsort_campaign_runs_completed_total{n=\"8\",r=\"3\"} 128
ftsort_gz_bytes_in_total 8607017
";

    fn stderr() -> Vec<(f64, String)> {
        vec![
            (0.004, SORT_STDERR[0].to_string()),
            (0.05, SORT_STDERR[1].to_string()),
        ]
    }

    #[test]
    fn sort_stdout_stats() {
        let lines = stats_lines(SORT_STDOUT);
        assert_eq!(lines.len(), 10);
        assert!(lines[0].starts_with("sorted 16000 keys"));
        assert!(lines[9].starts_with("comparisons"));
        assert_eq!(stat(SORT_STDOUT, "messages"), Some(25296));
        assert_eq!(stat(SORT_STDOUT, "element·hops"), Some(1128920));
        assert_eq!(stat(SORT_STDOUT, "comparisons"), Some(876656));
        assert_eq!(stat(SORT_STDOUT, "link wait"), None);
    }

    #[test]
    fn log_records_and_markers() {
        let e = stderr();
        assert_eq!(log_number(&e, "sort complete", "time_us"), Some(124275.0));
        assert_eq!(log_number(&e, "sort starting", "time_us"), None);
        assert_eq!(phase_marks(&e), Some((0.004, 0.05)));
        let campaign = vec![
            (0.01, "campaign: 0/512 runs".to_string()),
            (1.5, "campaign: 480/512 runs".to_string()),
            (2.0, "campaign: 512/512 runs".to_string()),
        ];
        assert_eq!(phase_marks(&campaign), Some((0.01, 2.0)));
        assert_eq!(phase_marks(&campaign[..2]), None);
        assert_eq!(phase_marks(&[]), None);
    }

    #[test]
    fn partition_stdout() {
        let out = "Q10 with 9 faults [P1]\nmincut m = 8\n  v=0\nlive N' = 768 of 1015 normal (75.7% utilization)\n";
        assert_eq!(partition_shape(out), Some((8, 768)));
        assert_eq!(partition_shape("mincut m = 8\n"), None);
    }

    #[test]
    fn prometheus_text() {
        assert_eq!(prom_sum(PROM, "ftsort_rounds_total"), 109.0);
        assert_eq!(
            prom_sum(PROM, "ftsort_campaign_runs_completed_total"),
            256.0
        );
        assert_eq!(prom_sum(PROM, "ftsort_msg_elements_sum"), 845520.0);
        assert_eq!(prom_sum(PROM, "ftsort_msg_elements"), 0.0);
        assert_eq!(prom_sum(PROM, "ftsort_steals_total"), 0.0);
    }

    #[test]
    fn sched_report() {
        let s = sched(SCHED_JSON).expect("fixture parses");
        assert_eq!(s.makespan_s, 0.468252132);
        assert_eq!(s.utilization, 0.5207273567736793);
        assert!((s.category_s[2] - 0.425115037).abs() < 1e-12);
        assert!((s.category_s[5] - (0.011864422 + 0.434279799)).abs() < 1e-12);
        // Each worker's seven categories tile its wall, which is the makespan
        // up to the workers' staggered start.
        assert!(s.tiling_gap < 1e-3, "{}", s.tiling_gap);
        assert!(sched("{\"makespan_ns\":1}").is_err());
    }

    #[test]
    fn campaign_report() {
        let text = r#"{"version":1,"cells":[
            {"n":6,"r":3,"runs":2,"runs_failed":0,"makespan_us":{"count":2,"sum":100.0},"element_hops":{"count":2,"sum":7},"comparisons":{"count":2,"sum":11}},
            {"n":8,"r":3,"runs":2,"runs_failed":1,"makespan_us":{"count":1,"sum":50.0},"element_hops":{"count":1,"sum":3},"comparisons":{"count":1,"sum":5}}]}"#;
        let c = campaign(text).expect("fixture parses");
        assert_eq!(c.runs, 3.0);
        assert_eq!(c.runs_failed, 1.0);
        assert_eq!(c.virtual_us, 50.0);
        assert_eq!((c.element_hops, c.comparisons), (10.0, 16.0));
        assert!(campaign(r#"{"cells":[]}"#).is_err());
    }

    #[test]
    fn host_fields_are_stripped() {
        let live = r#"{"dim":8,"link_model":"uncontended","threads":2,"workers_effective":2,"shard_size":31,"key_type":"i64","makespan_us":1}"#;
        let replayed = r#"{"dim":8,"link_model":"uncontended","key_type":"i64","makespan_us":1}"#;
        assert_eq!(strip_host_fields(live), replayed);
        assert_eq!(strip_host_fields(replayed), replayed);
        assert_eq!(strip_host_fields(r#"{"a":1,"threads":2}"#), r#"{"a":1}"#);
    }
}
