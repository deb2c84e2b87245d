//! `ftsort-cli` — drive the simulated faulty hypercube from the command
//! line: plan partitions, sort workloads, diagnose syndromes, inspect
//! routes.
//!
//! ```text
//! ftsort-cli partition   --n 5 --faults 3,5,16,24
//! ftsort-cli sort        --n 6 --faults 9,22 --m 100000 [--protocol full] [--step8 fullsort] [--engine seq|par]
//!                        [--key-type u32|u64|i64|pair] [--threads N] [--link-model uncontended|contended]
//!                        [--trace-out trace.json] [--metrics-out report.json] [--run-out run.json[.gz]]
//!                        [--sched-profile] [--sched-out sched.json]
//!                        [--metrics-snapshot prom.txt] [--log-level info] [--log-out log.jsonl]
//! ftsort-cli mffs        --n 6 --faults 9,22 --m 100000
//! ftsort-cli route       --n 4 --faults 1,2 --model total --from 0 --to 3
//! ftsort-cli diagnose    --n 5 --faults 3,5,16 [--seed 7]
//! ftsort-cli trace-check --trace trace.json --metrics report.json --prom prom.txt
//! ftsort-cli replay      --trace run.json [--recost default|paper|t_sr=..,t_c=..,t_startup=..]
//!                        [--link-model uncontended|contended]
//!                        [--metrics-out report.json] [--trace-out trace.json]
//!                        [--run-out run.json] [--critical-path] [--width 72]
//! ftsort-cli trace-diff  --a run_a.json --b run_b.json
//! ```
//!
//! `sort` takes its observability flags and runs its sort through
//! [`ObsFlags`], the code the report binaries in `crates/bench` drill
//! down with, so both write the same artifacts.
//! `--trace-out` writes Chrome-trace-event JSON loadable in
//! <https://ui.perfetto.dev>; `--metrics-out` writes the aggregate
//! [`RunReport`]; `--run-out` streams a replayable run file to disk as
//! the engine emits events (O(1) memory) — a `.gz` suffix gzip-compresses
//! it on the fly, and `replay`/`trace-diff` sniff the compression back off
//! by magic bytes.
//! `--sched-profile` attaches the wall-clock scheduler profiler to a
//! `--engine par` sort and prints the per-worker summary and ASCII
//! timeline; `--sched-out` additionally writes the
//! [`SchedReport`](hypercube::obs::sched::SchedReport) JSON plus a
//! `<path>.perfetto.json` worker-timeline trace (one track per worker,
//! steal flows, runnable-queue counters). Profiling observes the host
//! scheduler only — sorted output, reports and run files stay
//! byte-identical with it on or off.
//! `--key-type` picks the sorted key type (default `i64`; `pair` sorts
//! 16-byte key+payload records) — recorded in the `--metrics-out` report.
//! `--metrics-snapshot` turns on the live telemetry layer
//! ([`hypercube::obs::metrics`]) for the run and writes a
//! Prometheus-exposition snapshot of the process's run totals (every
//! counter, gauge and histogram family) after the sort; `--log-level`/`--log-out` install the
//! structured JSON-lines logger ([`hypercube::obs::log`]). Both observe
//! the host only — sorted output, reports and run files stay
//! byte-identical with telemetry on or off.
//! `trace-check` re-parses the exports and validates trace invariants
//! (used by CI as an end-to-end check of the observability pipeline);
//! `--prom` validates a metrics snapshot (family declarations, duplicate
//! series, histogram bucket monotonicity).
//! `replay` rebuilds the full observation from a run file offline — the
//! report, Perfetto export and critical-path analysis it produces are
//! byte-identical to the live run's. `--recost` / `--link-model` re-price
//! the recorded schedule under a different cost model and/or link model;
//! because the sorts are data-oblivious the result is bit-identical to a
//! live run under the target pricing. `trace-diff` aligns two runs'
//! critical paths and attributes the makespan delta to (phase, link)
//! segments — including `wait dim j` buckets for contended runs.

use ft_bench::ObsFlags;
use ftsort::prelude::*;
use hypercube::diagnosis::Syndrome;
use hypercube::routing;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!(
            "usage: ftsort-cli <partition|sort|mffs|route|diagnose|trace-check|replay|trace-diff> [--flags]"
        );
        return ExitCode::from(2);
    };
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(stripped) = a.strip_prefix("--") {
            if let Some(k) = key.take() {
                flags.insert(k, String::from("true"));
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            flags.insert(k, a);
        } else {
            eprintln!("unexpected argument: {a}");
            return ExitCode::from(2);
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, String::from("true"));
    }

    match run(&cmd, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    if cmd == "trace-check" {
        return trace_check_cmd(flags);
    }
    if cmd == "replay" {
        return replay_cmd(flags);
    }
    if cmd == "trace-diff" {
        return trace_diff_cmd(flags);
    }
    let n: usize = flag(flags, "n", "6")?;
    let cube = Hypercube::new(n);
    let fault_list: Vec<u32> = match flags.get("faults") {
        Some(s) if !s.is_empty() && s != "true" => s
            .split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .map_err(|e| format!("bad fault '{x}': {e}"))
            })
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    let model = match flags.get("model").map(String::as_str) {
        Some("total") => FaultModel::Total,
        Some("partial") | None => FaultModel::Partial,
        Some(other) => return Err(format!("unknown fault model '{other}'")),
    };
    let faults = FaultSet::from_raw(cube, &fault_list).with_model(model);

    match cmd {
        "partition" => partition_cmd(&faults),
        "sort" => sort_cmd(&faults, flags),
        "mffs" => mffs_cmd(&faults, flags),
        "route" => route_cmd(&faults, flags),
        "diagnose" => diagnose_cmd(&faults, flags),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flags
        .get(key)
        .map(String::as_str)
        .unwrap_or(default)
        .parse()
        .map_err(|e| format!("bad --{key}: {e}"))
}

fn partition_cmd(faults: &FaultSet) -> Result<(), String> {
    let plan = FtPlan::new(faults).map_err(|e| e.to_string())?;
    let n = faults.cube().dim();
    println!("Q{n} with {} faults {:?}", faults.count(), faults.to_vec());
    println!("mincut m = {}", plan.partition().mincut);
    println!("cutting set Ψ (α = {}):", plan.partition().alpha());
    for d in &plan.partition().cutting_set {
        let (per_dim, cost) = ftsort::select::extra_comm_cost(faults, d);
        println!("  {d:?}  cost {cost}  per-dim {per_dim:?}");
    }
    println!(
        "selected D_β = {:?} (cost {}), dangling local w* = {:0width$b}",
        plan.selection().dims,
        plan.selection().cost,
        plan.selection().dangling_local,
        width = plan.structure().s().max(1),
    );
    for info in plan.structure().subcubes() {
        let dead = plan
            .structure()
            .dead_physical(info.v)
            .map(|p| p.raw().to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "  v={:0width$b}  {}  dead={}",
            info.v,
            info.subcube,
            dead,
            width = plan.structure().m().max(1)
        );
    }
    println!(
        "live N' = {} of {} normal ({:.1}% utilization)",
        plan.live_count(),
        faults.normal_count(),
        plan.utilization() * 100.0
    );
    Ok(())
}

fn parse_link_model(flags: &HashMap<String, String>) -> Result<Option<LinkModel>, String> {
    match flags.get("link-model") {
        None => Ok(None),
        Some(s) => LinkModel::parse(s)
            .map(Some)
            .ok_or_else(|| format!("unknown link model '{s}' (uncontended|contended)")),
    }
}

fn parse_protocol(flags: &HashMap<String, String>) -> Result<Protocol, String> {
    match flags.get("protocol").map(String::as_str) {
        Some("full") => Ok(Protocol::FullExchange),
        Some("half") | None => Ok(Protocol::HalfExchange),
        Some(other) => Err(format!("unknown protocol '{other}' (full|half)")),
    }
}

fn sort_cmd(faults: &FaultSet, flags: &HashMap<String, String>) -> Result<(), String> {
    use ftsort::seq::{KeyPair, KeyType};
    let m_total: usize = flag(flags, "m", "100000")?;
    let seed: u64 = flag(flags, "seed", "1992")?;
    let key_type = match flags.get("key-type") {
        None => KeyType::default(),
        Some(s) => KeyType::parse(s)?,
    };
    // Monomorphic dispatch: each key type gets its own specialized engine
    // and branchless-kernel instantiation.
    let mut rng = StdRng::seed_from_u64(seed);
    match key_type {
        KeyType::U32 => {
            let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
            run_sort(faults, flags, key_type, data)
        }
        KeyType::U64 => {
            let data: Vec<u64> = (0..m_total).map(|_| rng.random()).collect();
            run_sort(faults, flags, key_type, data)
        }
        KeyType::I64 => {
            let data: Vec<i64> = (0..m_total).map(|_| rng.random()).collect();
            run_sort(faults, flags, key_type, data)
        }
        KeyType::Pair => {
            let data: Vec<KeyPair> = (0..m_total)
                .map(|_| KeyPair::new(rng.random(), rng.random()))
                .collect();
            run_sort(faults, flags, key_type, data)
        }
    }
}

fn run_sort<K: ftsort::seq::Key>(
    faults: &FaultSet,
    flags: &HashMap<String, String>,
    key_type: ftsort::seq::KeyType,
    data: Vec<K>,
) -> Result<(), String> {
    let m_total = data.len();
    let protocol = parse_protocol(flags)?;
    let step8 = match flags.get("step8").map(String::as_str) {
        Some("fullsort") => Step8Strategy::FullSort,
        Some("merge") | None => Step8Strategy::BitonicMerge,
        Some(other) => return Err(format!("unknown step8 '{other}' (merge|fullsort)")),
    };
    let engine = match flags.get("engine") {
        None => EngineKind::default(),
        Some(s) => EngineKind::parse(s).ok_or_else(|| format!("unknown engine '{s}' (seq|par)"))?,
    };
    let link_model = parse_link_model(flags)?.unwrap_or_default();
    let mut obs = ObsFlags::default();
    for name in ObsFlags::NAMES {
        if let Some(value) = flags.get(name) {
            obs.set(name, value)?;
        }
    }
    let plan = FtPlan::new(faults).map_err(|e| e.to_string())?;
    let config = FtConfig {
        protocol,
        step8,
        engine,
        link_model,
        include_host_io: flags.contains_key("host-io"),
        ..FtConfig::default()
    };
    obs.sort(&plan, &config, data, key_type, |out, phases, run| {
        if !out.sorted.windows(2).all(|w| w[0] <= w[1]) {
            return Err("output not sorted — this is a bug".into());
        }
        println!(
            "sorted {} keys on {} live processors of Q{} ({} faults)",
            m_total,
            out.processors_used,
            faults.cube().dim(),
            faults.count()
        );
        println!("simulated time : {:>12.1} ms", out.time_us / 1000.0);
        println!(
            "  scatter      : {:>12.1} ms",
            phases.host_scatter_us / 1000.0
        );
        println!("  step 3       : {:>12.1} ms", phases.step3_us / 1000.0);
        println!("  step 7       : {:>12.1} ms", phases.step7_us / 1000.0);
        println!("  step 8       : {:>12.1} ms", phases.step8_us / 1000.0);
        println!(
            "  gather       : {:>12.1} ms",
            phases.host_gather_us / 1000.0
        );
        println!("messages       : {:>12}", out.stats.messages);
        println!("element·hops   : {:>12}", out.stats.element_hops);
        println!("comparisons    : {:>12}", out.stats.comparisons);
        if link_model == LinkModel::Contended {
            let wait: f64 = run.participants().map(|n| n.metrics.link_wait_us).sum();
            println!("link wait      : {:>12.1} ms", wait / 1000.0);
        }
        Ok(())
    })
}

/// Rebuilds a [`RunObservation`] from a run file written by
/// `sort --run-out` and reruns the offline analyzers on it:
/// `--metrics-out` the [`RunReport`], `--trace-out` the Perfetto export,
/// `--critical-path` the critical-path attribution and gantt — the
/// report and trace byte-identical to what the live run writes.
/// `--recost MODEL` first re-prices every event under a different
/// [`CostModel`] and `--link-model` under a different link model
/// (contended ↔ uncontended), both through
/// [`reprice`](hypercube::obs::schedule::reprice); the analyzers then run
/// on the re-priced observation, and `--run-out` writes it back as a run
/// file.
fn replay_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("trace")
        .ok_or("replay needs --trace FILE (a run file from sort --run-out)")?;
    let obs = hypercube::obs::replay::observation_from_file(path)?;
    println!(
        "replayed {path}: Q{} run, {} participants, {} trace events, makespan {:.1} us",
        obs.dim,
        obs.participants().count(),
        obs.trace.events().len(),
        obs.makespan()
    );
    let new_model = parse_link_model(flags)?;
    let obs = match (flags.get("recost"), new_model) {
        (None, None) => obs,
        (spec, model) => {
            let target = match spec {
                None => obs.cost,
                Some(spec) => parse_cost_spec(spec, obs.cost)?,
            };
            let model = model.unwrap_or(obs.link_model);
            let repriced = hypercube::obs::schedule::reprice(&obs, target, model)
                .map_err(|e| format!("{path}: {e}"))?;
            if model != obs.link_model {
                println!("link model     : {} -> {}", obs.link_model, model);
            }
            println!(
                "recosted       : (t_sr {}, t_c {}, t_startup {}) -> (t_sr {}, t_c {}, t_startup {}), makespan {:.1} -> {:.1} us",
                obs.cost.t_sr,
                obs.cost.t_c,
                obs.cost.t_startup,
                target.t_sr,
                target.t_c,
                target.t_startup,
                obs.makespan(),
                repriced.makespan()
            );
            repriced
        }
    };
    if let Some(out) = flags.get("run-out") {
        hypercube::obs::replay::write_run_file(&obs, out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("run written    : {out} (ftsort-cli replay --trace {out})");
    }
    if let Some(out) = flags.get("metrics-out") {
        let report = obs.report(&phase_name);
        std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("metrics written: {out}");
    }
    if let Some(out) = flags.get("trace-out") {
        ft_bench::write_trace(out, &obs)?;
        println!("trace written  : {out} (load in ui.perfetto.dev)");
    }
    if flags.contains_key("critical-path") {
        let width: usize = flag(flags, "width", "72")?;
        let cp = hypercube::obs::critical_path::CriticalPath::compute(&obs)
            .ok_or("no trace events in the run file — was the sort traced?")?;
        print!(
            "{}",
            hypercube::obs::critical_path::render_report(&obs, &cp, &phase_name, width)
        );
    }
    Ok(())
}

/// Parses a `--recost` model spec: `default` (the simulator's calibrated
/// iPSC/2-style constants), `paper` (the paper's analytic form, zero
/// startup), or comma-separated `t_sr=..`/`t_c=..`/`t_startup=..`
/// overrides applied on top of the run file's own cost model.
fn parse_cost_spec(
    spec: &str,
    base: hypercube::cost::CostModel,
) -> Result<hypercube::cost::CostModel, String> {
    match spec {
        "default" => Ok(hypercube::cost::CostModel::default()),
        "paper" => Ok(hypercube::cost::CostModel::paper_form()),
        _ => {
            let mut cost = base;
            for part in spec.split(',') {
                let (key, value) = part
                    .split_once('=')
                    .ok_or_else(|| format!("bad --recost component '{part}' (want key=value)"))?;
                let parsed: f64 = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad --recost value '{value}' for {key}: {e}"))?;
                match key.trim() {
                    "t_sr" => cost.t_sr = parsed,
                    "t_c" => cost.t_c = parsed,
                    "t_startup" => cost.t_startup = parsed,
                    other => {
                        return Err(format!(
                            "unknown --recost field '{other}' (t_sr|t_c|t_startup)"
                        ))
                    }
                }
            }
            Ok(cost)
        }
    }
}

/// Replays two run files and aligns their critical paths segment by
/// segment (bucketed by covering phase and link class), attributing 100%
/// of the makespan delta to named segments.
fn trace_diff_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    use hypercube::obs::critical_path::CriticalPath;
    use hypercube::obs::diff::{render_diff, SegmentProfile};
    let profile = |key: &str| -> Result<(String, SegmentProfile), String> {
        let path = flags
            .get(key)
            .ok_or(format!("trace-diff needs --{key} FILE"))?;
        let obs = hypercube::obs::replay::observation_from_file(path)?;
        let cp = CriticalPath::compute(&obs)
            .ok_or(format!("{path}: no trace events — was the sort traced?"))?;
        Ok((
            path.clone(),
            SegmentProfile::collect(&obs, &cp, &phase_name),
        ))
    };
    let (label_a, a) = profile("a")?;
    let (label_b, b) = profile("b")?;
    print!("{}", render_diff(&a, &b, &label_a, &label_b));
    Ok(())
}

/// Validates a `--trace-out` / `--metrics-out` pair written by `sort`:
/// the trace must be valid Chrome-trace JSON whose flow events pair up
/// (every `f` preceded by its `s`, no dangling ids) and whose counter
/// tracks stay sane (see
/// [`validate_chrome_trace`](hypercube::obs::perfetto::validate_chrome_trace)),
/// and the report must round-trip through
/// [`RunReport::from_json`](hypercube::obs::RunReport). `--prom`
/// validates a `--metrics-snapshot` exposition file with
/// [`validate_prom`](hypercube::obs::metrics::validate_prom): every
/// sample declared by a `# TYPE` family, no duplicate series, histogram
/// buckets cumulative with a `+Inf` bucket matching `_count`.
fn trace_check_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    use hypercube::obs::json::Json;
    let mut checked = 0;
    if let Some(path) = flags.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let check = hypercube::obs::perfetto::validate_chrome_trace(&doc)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok ({} events, {} spans, {} flows, {} counters)",
            check.events, check.spans, check.flows, check.counters
        );
        checked += 1;
    }
    if let Some(path) = flags.get("metrics") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let report =
            hypercube::obs::RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let phase_sum: f64 = report.phases.iter().map(|p| p.max_node_us).sum();
        if report.makespan_us > 0.0 && phase_sum < report.makespan_us * 0.99 {
            return Err(format!(
                "{path}: phases ({phase_sum} µs) do not account for the makespan ({} µs)",
                report.makespan_us
            ));
        }
        println!(
            "{path}: ok ({} phases, {} nodes, makespan {:.1} µs)",
            report.phases.len(),
            report.nodes.len(),
            report.makespan_us
        );
        checked += 1;
    }
    if let Some(path) = flags.get("prom") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let check =
            hypercube::obs::metrics::validate_prom(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok ({} families, {} series, {} samples)",
            check.families, check.series, check.samples
        );
        checked += 1;
    }
    if checked == 0 {
        return Err("trace-check needs --trace, --metrics and/or --prom FILE".into());
    }
    Ok(())
}

fn mffs_cmd(faults: &FaultSet, flags: &HashMap<String, String>) -> Result<(), String> {
    let m_total: usize = flag(flags, "m", "100000")?;
    let seed: u64 = flag(flags, "seed", "1992")?;
    let protocol = parse_protocol(flags)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
    let sc = max_fault_free_subcube(faults).ok_or("every processor is faulty")?;
    println!(
        "maximum fault-free subcube: {sc:?} ({} processors)",
        sc.len()
    );
    let config = FtConfig {
        protocol,
        ..FtConfig::default()
    };
    let (out, _) = mffs_sort(faults, &config, data, Attach::default());
    println!("simulated time : {:>12.1} ms", out.time_us / 1000.0);
    println!("element·hops   : {:>12}", out.stats.element_hops);
    Ok(())
}

fn route_cmd(faults: &FaultSet, flags: &HashMap<String, String>) -> Result<(), String> {
    let from: u32 = flag(flags, "from", "0")?;
    let to: u32 = flag(flags, "to", "1")?;
    let n = faults.cube().dim();
    let src = NodeId::new(from);
    let dst = NodeId::new(to);
    match routing::route(faults, src, dst) {
        Some(r) => {
            let path: Vec<String> = r.path().iter().map(|p| p.to_bits(n)).collect();
            println!("oracle route ({} hops): {}", r.hops(), path.join(" → "));
        }
        None => println!("oracle route: unreachable"),
    }
    match routing::adaptive_route(faults, src, dst) {
        Some(r) => {
            let path: Vec<String> = r.path().iter().map(|p| p.to_bits(n)).collect();
            println!("adaptive walk ({} hops): {}", r.hops(), path.join(" → "));
        }
        None => println!("adaptive walk: unreachable"),
    }
    Ok(())
}

fn diagnose_cmd(faults: &FaultSet, flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(flags, "seed", "7")?;
    let n = faults.cube().dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let syndrome = Syndrome::collect(faults, &mut rng);
    println!(
        "collected {} mutual test results on Q{n}",
        syndrome.results().len()
    );
    match syndrome.diagnose(n.max(1) - 1) {
        Ok(diag) => {
            println!("diagnosed faults: {:?}", diag.to_vec());
            if diag.to_vec() == faults.to_vec() {
                println!("diagnosis matches the injected fault set ✓");
            } else {
                println!("diagnosis DIFFERS from injected {:?}", faults.to_vec());
            }
        }
        Err(e) => println!("diagnosis failed: {e}"),
    }
    Ok(())
}
