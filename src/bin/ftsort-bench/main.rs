//! `ftsort-bench`: times `ftsort-cli` and `ftsort-campaign` end to end on
//! four workloads, driving the release binaries as child processes, and
//! collects per-layer numbers in a separate traced pass. It measures only
//! through the CLIs' flags and outputs, so refactors of the library's entry
//! points cannot break it. See README.md for the metrics and how to compare
//! commits.

mod child;
mod metrics;
mod parse;
mod workload;

use hypercube::obs::json::{write_str, Json};
use metrics::{tail, Metric, Stat, BENCHMARK_JSON, END_TO_END, INFORMATIONAL, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Bench, Sample, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: ftsort-bench --workload fine|bulk|runfile|campaign [--seed N] \
[--seconds S] [--trace 0|1] [--out ROW.json] [--baseline ROW.json]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out: None,
        baseline: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0|1)")),
                }
            }
            "--out" => args.out = Some(value.into()),
            "--baseline" => args.baseline = Some(value.into()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.trace && args.baseline.is_some() {
        return Err("--baseline compares end-to-end metrics, which need --trace 0".into());
    }
    Ok(args)
}

/// The directory of this executable. Cargo builds `ftsort-cli` and
/// `ftsort-campaign` into the same one.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", exe.display()))?;
    for program in ["ftsort-cli", "ftsort-campaign"] {
        if !dir.join(program).is_file() {
            return Err(format!(
                "no {program} next to {}; build it with `cargo build --release`",
                exe.display()
            ));
        }
    }
    Ok(dir.to_path_buf())
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// One untimed warm-up op, then `op` until `seconds` have passed; returns
/// the results of the ops that passed their checks.
fn run_for<T>(
    b: &mut Bench,
    seconds: Duration,
    op: fn(&mut Bench, usize) -> Result<T, String>,
) -> Vec<T> {
    b.attempt(Bench::timed_op);
    let start = Instant::now();
    let mut results = Vec::new();
    while start.elapsed() < seconds {
        results.extend(b.attempt(op));
    }
    results
}

/// A metric's value, the statistic that made it and its sample count.
struct Value {
    metric: &'static Metric,
    v: f64,
    stat: String,
    n: usize,
}

fn summarize(metric: &'static Metric, stat: Stat, values: &[f64]) -> Value {
    Value {
        metric,
        v: stat.of(values).unwrap_or(0.0),
        stat: stat.label().to_string(),
        n: values.len(),
    }
}

/// How one end-to-end metric is read from a sample, and its statistic.
type Column = (fn(&Sample) -> f64, Stat);

/// Every end-to-end metric by the statistic it reports.
fn end_to_end(samples: &[Sample]) -> Vec<Value> {
    let columns: [Column; 5] = [
        (|s| s.wall_s, Stat::P10),
        (|s| s.setup_s, Stat::P10),
        (|s| s.cpu_s, Stat::P10),
        (|s| s.rss_kb as f64 * 1024.0 * 1e-6, Stat::Median),
        (|s| s.virtual_us * 1e-3, Stat::Median),
    ];
    END_TO_END
        .iter()
        .zip(columns)
        .map(|(m, (f, stat))| summarize(m, stat, &samples.iter().map(f).collect::<Vec<_>>()))
        .collect()
}

/// The median and tail wall, reported beside the metrics but not gated:
/// host drift moves them more than any bound could allow.
fn wall_spread(samples: &[Sample]) -> Vec<Value> {
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let mut out = vec![summarize(&INFORMATIONAL[0], Stat::Median, &walls)];
    if let Some((q, v)) = tail(&walls) {
        out.push(Value {
            metric: &INFORMATIONAL[1],
            v,
            stat: format!("p{:.1}", q * 100.0),
            n: walls.len(),
        });
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}

/// The run as one flat bench row, with the spans recorded around each call.
fn row_json<'a>(
    args: &Args,
    b: &Bench,
    host_cores: usize,
    values: impl Iterator<Item = &'a Value>,
) -> String {
    let metrics: Vec<String> = values
        .map(|x| {
            format!(
                "{}:{{\"v\":{},\"unit\":{},\"gate\":\"{}\",\"stat\":{},\"n\":{}}}",
                quote(x.metric.name),
                num(x.v),
                quote(x.metric.unit),
                x.metric.gate.as_str(),
                quote(&x.stat),
                x.n
            )
        })
        .collect();
    let spans: Vec<String> = b
        .spans
        .iter()
        .map(|s| {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.op, s.start_s, s.end_s
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"ftsort-bench\",\"host_cores\":{host_cores},\"key\":{{\"workload\":{},\"seed\":{},\"threads\":{},\"trace\":{}}},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"spans\":[{}]}}\n",
        quote(b.workload.name),
        b.seed,
        b.threads,
        u8::from(args.trace),
        b.attempted,
        b.failed,
        metrics.join(","),
        spans.join(",")
    )
}

/// Whether `row` is a timed row of this run's workload, seed and thread
/// count: only then do its times compare and its exact metrics repeat.
fn same_key(row: &Json, b: &Bench) -> bool {
    let key = |k: &str| row.get("key").and_then(|key| key.get(k));
    key("workload").and_then(Json::as_str) == Some(b.workload.name)
        && key("seed").and_then(Json::as_f64) == Some(b.seed as f64)
        && key("threads").and_then(Json::as_f64) == Some(b.threads as f64)
        && key("trace").and_then(Json::as_f64) == Some(0.0)
}

/// Compares this run with a timed row written by `--out` for the same
/// workload, seed and thread count; `Ok(false)` on a regression.
fn check_baseline(path: &Path, b: &Bench, values: &[Value]) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let base = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !same_key(&base, b) {
        return Err(format!(
            "{}: not a timed row of workload '{}' at seed {} with {} threads",
            path.display(),
            b.workload.name,
            b.seed,
            b.threads
        ));
    }
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid (unit-tested)");
    let current = values
        .iter()
        .map(|x| (x.metric.name.to_string(), x.v))
        .collect();
    let regressions = metrics::regressions(&spec, &base, &current);
    for r in &regressions {
        eprintln!("ftsort-bench: regression against {}: {r}", path.display());
    }
    Ok(regressions.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftsort-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bin_dir = match bin_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ftsort-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = bin_dir.join(format!("ftsort-bench-work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ftsort-bench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = host_cores.min(2);
    let mut b = Bench::new(args.workload, args.seed, threads, &bin_dir, work.clone());
    let seconds = Duration::from_secs_f64(args.seconds);
    let (values, extra) = if args.trace {
        let ops = run_for(&mut b, seconds, Bench::traced_op);
        let values = PER_LAYER
            .iter()
            .map(|m| {
                summarize(
                    m,
                    Stat::Median,
                    &ops.iter().map(|o| o[m.name]).collect::<Vec<_>>(),
                )
            })
            .collect();
        (values, Vec::new())
    } else {
        let samples = run_for(&mut b, seconds, Bench::timed_op);
        (end_to_end(&samples), wall_spread(&samples))
    };
    let _ = std::fs::remove_dir_all(&work);

    let correct = b.failed == 0 && values.iter().all(|x| x.n > 0);
    eprintln!(
        "ftsort-bench: workload {} seed {} trace {} · host_cores {host_cores} threads {threads} · {} ops attempted, {} failed\n  ({})",
        b.workload.name,
        b.seed,
        u8::from(args.trace),
        b.attempted,
        b.failed,
        b.workload.why
    );
    for x in values.iter().chain(&extra) {
        eprintln!(
            "  {:<26} {:>16.6} {:<6} ({} of {}, {} is better)",
            x.metric.name,
            x.v,
            x.metric.unit,
            x.stat,
            x.n,
            x.metric.better.as_str()
        );
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(x.metric.name),
                num(x.v),
                quote(x.metric.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        b.attempted,
        b.failed,
        metrics.join(",")
    );

    let mut code = if correct { 0 } else { 1 };
    if let Some(path) = &args.out {
        let row = row_json(&args, &b, host_cores, values.iter().chain(&extra));
        if let Err(e) = std::fs::write(path, row) {
            eprintln!("ftsort-bench: writing {}: {e}", path.display());
            code = 1;
        }
    }
    if let Some(path) = &args.baseline {
        match check_baseline(path, &b, &values) {
            Ok(true) => {}
            Ok(false) => code = 1,
            Err(e) => {
                eprintln!("ftsort-bench: {e}");
                code = 1;
            }
        }
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments() {
        let a = args(&[
            "--workload",
            "bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("bulk", 7, 10.0, true)
        );
        let d = args(&["--workload", "fine"]).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "fine", "--trace", "2"],
            &["--workload", "fine", "--seconds", "0"],
            &["--workload", "fine", "--trace"],
            &["--workload", "fine", "--frob", "1"],
            &["--workload", "fine", "--trace", "1", "--baseline", "x"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn baselines_must_share_the_key() {
        let b = Bench::new(&WORKLOADS[1], 7, 2, Path::new("bin"), "work".into());
        let row = |workload: &str, seed: u64, threads: usize, trace: u8| {
            Json::parse(&format!(
                r#"{{"bench":"ftsort-bench","key":{{"workload":"{workload}","seed":{seed},"threads":{threads},"trace":{trace}}}}}"#
            ))
            .expect("row parses")
        };
        assert!(same_key(&row("bulk", 7, 2, 0), &b));
        for other in [
            row("fine", 7, 2, 0),
            row("bulk", 1992, 2, 0),
            row("bulk", 7, 1, 0),
            row("bulk", 7, 2, 1),
            Json::Null,
        ] {
            assert!(!same_key(&other, &b), "{other:?}");
        }
    }
}
