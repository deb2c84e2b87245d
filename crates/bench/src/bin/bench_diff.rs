//! Per-metric regression gate between two bench files of one kind: two
//! `BENCH_engines.json` (written by `engines_json`) or two campaign
//! reports (`ftsort-campaign --out`).
//!
//! Every input becomes rows of named metrics. Results rows and campaign
//! cells are matched by `(n, r, m, workers, link_model)` (`workers`
//! defaults to 0 and `link_model` to `uncontended` for older baselines);
//! merge-kernel rows by key type. A campaign cell is keyed with
//! `workers=0` and contributes its mean makespan as `virtual_us`, its mean
//! wait as `wait_total_us` and its four interpolated quantiles under their
//! own names (`p50_makespan_us`, …).
//!
//! [`gate`] is the one table of how each metric compares. With
//! `band = 1 − --wall-tolerance/100`:
//!
//! - **virtual** — `virtual_us`, `wait_total_us`, every `phase …` and the
//!   campaign quantiles are deterministic virtual times: B fails when it
//!   exceeds A by more than `--tolerance` percent (default 10), on any
//!   host;
//! - **floor** — `par_over_seq` and the kernels' `branchless_over_scalar`
//!   and `blocked_over_scalar` are dimensionless same-host ratios: B fails
//!   when `new < old·band`. `utilization` fails when
//!   `new < old·band − 0.02`: it is a fraction in `[0, 1]`, where a pure
//!   relative band would make near-zero baselines impossibly strict;
//! - **ceiling** — `barrier_share` fails when `new > old·(2 − band) + 0.02`;
//! - **info** — wall clocks and `steal_rate` (load placement, not health)
//!   print but never gate.
//!
//! Floor and ceiling gates fire only when both files report the same
//! `host_cores`: a host change invalidates the baseline ratio.
//! `par_over_seq` gates only when both rows' `seq_wall_s` reach
//! `--min-ratio-wall` (default 0.05 s); at sub-millisecond run times the
//! ratio is scheduler start-up noise.
//!
//! **Crossover:** when B ran on a multi-core host (`host_cores ≥ 2`), every
//! B row with `n ≥ 10` and `workers ≥ 2` must have `par_over_seq ≥ band`.
//! On a single-core host the parallel engine cannot beat the sequential
//! one and the check is skipped with a note.
//!
//! A B row with profiler ring drops (`events_dropped`, par rows) or
//! failed runs (`runs_failed`, campaign cells) prints a `WARNING`: its
//! aggregates under-count. That never fails the diff.
//!
//! Exits 0 when nothing regressed, 1 when at least one gate fired, and 2
//! on usage or parse errors or when no results row or campaign cell
//! matched (kernel rows do not count) — so it can gate CI:
//!
//! ```text
//! bench_diff --a OLD.json --b NEW.json [--tolerance 10] [--wall-tolerance 25]
//!            [--min-ratio-wall 0.05]
//! ```

use ft_bench::args::{Args, Flag};
use hypercube::obs::campaign::{CampaignReport, MetricAgg};
use hypercube::obs::json::Json;

/// How a metric of B is judged against A.
#[derive(Clone, Copy)]
enum Gate {
    /// Fails when B exceeds A by more than `--tolerance` percent.
    Virtual,
    /// Fails when `new < old·band − slack`; same host only.
    Floor(f64),
    /// Fails when `new > old·(2 − band) + slack`; same host only.
    Ceiling(f64),
    /// Printed, never gated.
    Info,
}

/// The gate table; `None` for fields that are not metrics.
fn gate(name: &str) -> Option<Gate> {
    match name {
        "virtual_us" | "wait_total_us" | "p50_makespan_us" | "p99_makespan_us"
        | "p50_wait_total_us" | "p99_wait_total_us" => Some(Gate::Virtual),
        _ if name.starts_with("phase ") => Some(Gate::Virtual),
        "par_over_seq" | "branchless_over_scalar" | "blocked_over_scalar" => Some(Gate::Floor(0.0)),
        "utilization" => Some(Gate::Floor(0.02)),
        "barrier_share" => Some(Gate::Ceiling(0.02)),
        "steal_rate" | "scalar_s" | "branchless_s" | "blocked_s" => Some(Gate::Info),
        _ if name.ends_with("_wall_s") => Some(Gate::Info),
        _ => None,
    }
}

/// One results row, campaign cell or merge-kernel row.
struct Row {
    /// What rows are matched and printed by.
    key: String,
    /// Cube dimension and par worker count, for the crossover check.
    n: u64,
    workers: u64,
    /// `(name, value)` in file order; every name has a [`gate`].
    metrics: Vec<(String, f64)>,
    /// Why this row's aggregates under-count, if they do.
    warning: Option<String>,
}

impl Row {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// A parsed bench file.
struct Bench {
    host_cores: u64,
    /// Workload key type; absent on old files.
    key_type: Option<String>,
    /// Results rows or campaign cells.
    rows: Vec<Row>,
    /// Merge-kernel rows; empty on files without a kernel section.
    kernels: Vec<Row>,
}

/// The command line's bands, plus whether both files ran on one host.
struct Limits {
    tolerance: f64,
    band: f64,
    min_ratio_wall: f64,
    same_host: bool,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--a", "OLD.json", "the baseline (required)"),
    ("--b", "NEW.json", "the file judged against it (required)"),
    ("--tolerance", "PCT", "virtual-time tolerance (default 10)"),
    ("--wall-tolerance", "PCT", "width of the same-host ratio bands (default 25)"),
    ("--min-ratio-wall", "SECS", "least seq wall at which par_over_seq gates (default 0.05)"),
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("bench_diff", &[FLAGS]);
    let a_path = args.required("--a");
    let b_path = args.required("--b");
    // A band must be finite: NaN would switch its gate off.
    let finite = f64::MIN..=f64::MAX;
    let tolerance = args.get("--tolerance", finite.clone(), 10.0);
    let wall_tolerance = args.get("--wall-tolerance", finite.clone(), 25.0);
    let min_ratio_wall = args.get("--min-ratio-wall", finite, 0.05);
    args.finish();
    let a = load(&a_path);
    let b = load(&b_path);

    println!(
        "bench_diff: {a_path} (A, {} cores) vs {b_path} (B, {} cores), \
         tolerance {tolerance}%, wall tolerance {wall_tolerance}%, \
         min ratio wall {min_ratio_wall}s\n",
        a.host_cores, b.host_cores
    );
    let same_host = a.host_cores == b.host_cores;
    if !same_host {
        println!(
            "note: host_cores differ ({} vs {}) — wall ratios and scheduler health not gated\n",
            a.host_cores, b.host_cores
        );
    }
    if let (Some(ka), Some(kb)) = (&a.key_type, &b.key_type) {
        if ka != kb {
            println!(
                "note: key_type differs ({ka} vs {kb}) — virtual-time comparisons span \
                 different workloads; regenerate one side with a matching --key-type\n"
            );
        }
    }
    let limits = Limits {
        tolerance,
        band: 1.0 - wall_tolerance / 100.0,
        min_ratio_wall,
        same_host,
    };
    let (matched, mut regressions) = diff_rows(&a.rows, &b.rows, &limits);
    if matched == 0 {
        eprintln!("\nno rows matched between the two files");
        std::process::exit(2);
    }
    for rb in &b.rows {
        if let Some(warning) = &rb.warning {
            println!("WARNING: {}: {warning}", rb.key);
        }
    }

    if !a.kernels.is_empty() && !b.kernels.is_empty() {
        println!("\nkernel (merge, per key type):");
        regressions += diff_rows(&a.kernels, &b.kernels, &limits).1;
    } else if !b.kernels.is_empty() {
        println!("\nnote: baseline has no kernel section — kernel speedups not gated");
    }

    // Crossover: on a multi-core host the work-stealing engine must beat
    // (or at worst tie, within the band) the sequential engine on big
    // instances with real parallelism available.
    let band = limits.band;
    if b.host_cores >= 2 {
        for rb in b.rows.iter().filter(|r| r.n >= 10 && r.workers >= 2) {
            let Some(ratio) = rb.metric("par_over_seq") else {
                continue;
            };
            if ratio < band {
                println!(
                    "crossover FAIL: {}: par_over_seq {ratio:.2}x < {band:.2}x \
                     (par must beat seq on {} cores)",
                    rb.key, b.host_cores
                );
                regressions += 1;
            } else {
                println!(
                    "crossover ok: {}: par_over_seq {ratio:.2}x >= {band:.2}x",
                    rb.key
                );
            }
        }
    } else {
        println!("note: B ran on a single-core host — par-beats-seq crossover gate skipped");
    }

    if regressions > 0 {
        println!("\nFAIL: {regressions} metric(s) regressed past their tolerance");
        std::process::exit(1);
    }
    println!("\nOK: no metric regressed past its tolerance across {matched} matched row(s)");
}

/// Judges every metric of each B row against the A row with the same
/// key, one printed line per metric. Returns the matched row count and
/// the number of metrics that regressed.
fn diff_rows(a: &[Row], b: &[Row], limits: &Limits) -> (usize, usize) {
    let (mut matched, mut regressions) = (0, 0);
    for rb in b {
        let Some(ra) = a.iter().find(|r| r.key == rb.key) else {
            println!("{}: only in B (no baseline row)", rb.key);
            continue;
        };
        matched += 1;
        println!("{}:", rb.key);
        let timed = [ra, rb]
            .iter()
            .all(|r| r.metric("seq_wall_s").unwrap_or(0.0) >= limits.min_ratio_wall);
        for (name, old) in &ra.metrics {
            match rb.metric(name) {
                Some(new) => regressions += judge(name, *old, new, timed, limits) as usize,
                None => println!("  {name:<34} dropped in B"),
            }
        }
    }
    for ra in a {
        if !b.iter().any(|r| r.key == ra.key) {
            println!("{}: only in A (row dropped in B)", ra.key);
        }
    }
    (matched, regressions)
}

/// Prints one metric's line and returns whether it regressed. `timed`
/// says whether both rows' `seq_wall_s` reach `--min-ratio-wall`, which
/// `par_over_seq` needs to gate.
fn judge(name: &str, old: f64, new: f64, timed: bool, limits: &Limits) -> bool {
    let pct = if old > 0.0 {
        (new - old) / old * 100.0
    } else {
        0.0
    };
    let gate = gate(name).expect("rows hold only metrics with a gate");
    let (rule, past) = match gate {
        Gate::Virtual => (
            format!("limit {:+.1}%", limits.tolerance),
            pct > limits.tolerance,
        ),
        Gate::Floor(slack) => {
            let floor = old * limits.band - slack;
            (format!("floor {floor:.3}"), new < floor)
        }
        Gate::Ceiling(slack) => {
            let ceiling = old * (2.0 - limits.band) + slack;
            (format!("ceiling {ceiling:.3}"), new > ceiling)
        }
        Gate::Info => ("informational".to_string(), false),
    };
    let skipped = match gate {
        Gate::Floor(_) | Gate::Ceiling(_) if !limits.same_host => "; informational: host changed",
        Gate::Floor(_) if name == "par_over_seq" && !timed => {
            "; informational: walls below min-ratio-wall"
        }
        _ => "",
    };
    let regressed = past && skipped.is_empty();
    // virtual times are µs; ratios, fractions and walls need the digits
    let digits = if matches!(gate, Gate::Virtual) { 1 } else { 6 };
    println!(
        "  {name:<34} {old:>14.digits$} -> {new:>14.digits$}  {pct:>+7.1}%  ({rule}{skipped}){}",
        if regressed { "  REGRESSION" } else { "" }
    );
    regressed
}

fn load(path: &str) -> Bench {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(2);
    });
    parse_bench(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// Reads an engines file (`results[]`, optional `kernel.rows[]`) or a
/// campaign report (`cells[]`). Tolerates older schemas without
/// `workers`, `link_model`, `host_cores`, the scheduler fields or a kernel
/// section, so a new binary can diff against an old baseline.
fn parse_bench(text: &str) -> Result<Bench, String> {
    let doc = Json::parse(text)?;
    if doc.get("cells").is_some() {
        return Ok(campaign_bench(&CampaignReport::from_json(text)?));
    }
    let mut kernels = Vec::new();
    if let Some(rows) = doc
        .get("kernel")
        .and_then(|k| k.get("rows"))
        .and_then(Json::as_arr)
    {
        for (i, row) in rows.iter().enumerate() {
            kernels.push(kernel_row(row).map_err(|e| format!("kernel.rows[{i}]: {e}"))?);
        }
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing 'results' array — not a BENCH_engines.json file?")?;
    let rows = results
        .iter()
        .enumerate()
        .map(|(i, row)| results_row(row).map_err(|e| format!("results[{i}]: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Bench {
        host_cores: doc.get("host_cores").and_then(Json::as_u64).unwrap_or(1),
        key_type: doc
            .get("key_type")
            .and_then(Json::as_str)
            .map(str::to_string),
        rows,
        kernels,
    })
}

/// The metrics of one results or kernel row: every numeric field
/// with a [`gate`], the same inside `speedups`, and every `phases` entry
/// as `phase NAME`.
fn row_metrics(row: &Json) -> Result<Vec<(String, f64)>, String> {
    let gated = |fields: &[(String, Json)]| -> Vec<(String, f64)> {
        fields
            .iter()
            .filter(|(k, _)| gate(k).is_some())
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect()
    };
    let mut metrics = Vec::new();
    if let Json::Obj(fields) = row {
        metrics.extend(gated(fields));
    }
    if let Some(Json::Obj(speedups)) = row.get("speedups") {
        metrics.extend(gated(speedups));
    }
    if let Some(Json::Obj(phases)) = row.get("phases") {
        for (k, v) in phases {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("phase '{k}' is not a number"))?;
            metrics.push((format!("phase {k}"), v));
        }
    }
    Ok(metrics)
}

/// One `results[]` row of an engines file.
fn results_row(row: &Json) -> Result<Row, String> {
    let int = |k: &str| {
        row.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer '{k}'"))
    };
    let (n, r, m) = (int("n")?, int("r")?, int("m")?);
    let workers = row.get("workers").and_then(Json::as_u64).unwrap_or(0);
    let link = row
        .get("link_model")
        .and_then(Json::as_str)
        .unwrap_or("uncontended");
    let warning = row
        .get("events_dropped")
        .and_then(Json::as_u64)
        .filter(|&d| d > 0)
        .map(|d| {
            format!(
                "profiler dropped {d} event(s) — sched telemetry truncated \
                 (raise the profiler ring capacity)"
            )
        });
    Ok(Row {
        key: format!("n={n} r={r} m={m} workers={workers} link={link}"),
        n,
        workers,
        metrics: row_metrics(row)?,
        warning,
    })
}

/// One `kernel.rows[]` entry: the merge kernels' wall clocks and their
/// speedups over scalar, for one key type. Every one is required.
fn kernel_row(row: &Json) -> Result<Row, String> {
    let key_type = row
        .get("key_type")
        .and_then(Json::as_str)
        .ok_or("missing 'key_type'")?;
    let row = Row {
        key: key_type.to_string(),
        n: 0,
        workers: 0,
        metrics: row_metrics(row)?,
        warning: None,
    };
    for k in [
        "scalar_s",
        "branchless_s",
        "blocked_s",
        "branchless_over_scalar",
        "blocked_over_scalar",
    ] {
        if row.metric(k).is_none() {
            return Err(format!("missing number '{k}'"));
        }
    }
    Ok(row)
}

/// One row per campaign cell. Campaign quantities are all virtual, so
/// `host_cores` is irrelevant and fixed at 1.
fn campaign_bench(report: &CampaignReport) -> Bench {
    let rows = report
        .cells
        .iter()
        .map(|cell| {
            let mean = |name| {
                cell.metric(name)
                    .map(MetricAgg::mean)
                    .expect("every cell carries every campaign metric")
            };
            let metrics = [
                ("virtual_us", mean("makespan_us")),
                ("wait_total_us", mean("wait_total_us")),
                ("p50_makespan_us", cell.p50_makespan_us as f64),
                ("p99_makespan_us", cell.p99_makespan_us as f64),
                ("p50_wait_total_us", cell.p50_wait_total_us as f64),
                ("p99_wait_total_us", cell.p99_wait_total_us as f64),
            ];
            Row {
                key: format!(
                    "n={} r={} m={} workers=0 link={}",
                    cell.n, cell.r, report.m, report.link_model
                ),
                n: cell.n as u64,
                workers: 0,
                metrics: metrics.map(|(k, v)| (k.to_string(), v)).to_vec(),
                warning: (cell.runs_failed > 0).then(|| {
                    format!(
                        "campaign dropped {} run(s) — cell aggregates under-count \
                         (runs failed to plan/execute)",
                        cell.runs_failed
                    )
                }),
            }
        })
        .collect();
    Bench {
        host_cores: 1,
        key_type: Some(report.key_type.clone()),
        rows,
        kernels: Vec::new(),
    }
}
