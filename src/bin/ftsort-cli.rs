//! `ftsort-cli` — drive the simulated faulty hypercube from the command
//! line: plan partitions, sort workloads, diagnose syndromes, inspect
//! routes.
//!
//! ```text
//! ftsort-cli partition   [--n 6] [--faults A,B,..] [--model partial|total]
//! ftsort-cli sort        [--n 6] [--faults A,B,..] [--model partial|total]
//!                        [--m 100000] [--seed 1992] [--protocol half|full]
//!                        [--step8 merge|fullsort] [--local-sort heap|quick|merge]
//!                        [--router oracle|adaptive] [--engine seq|par]
//!                        [--key-type u32|u64|i64|pair] [--link-model uncontended|contended]
//!                        [--host-io] [--threads N] [--trace-out FILE] [--metrics-out FILE]
//!                        [--run-out FILE[.gz]] [--sched-out FILE] [--sched-profile]
//!                        [--metrics-snapshot FILE] [--log-level LEVEL] [--log-out FILE]
//! ftsort-cli mffs        [--n 6] [--faults A,B,..] [--model partial|total]
//!                        [--m 100000] [--seed 1992] [--protocol half|full]
//! ftsort-cli route       [--n 6] [--faults A,B,..] [--model partial|total] [--from 0] [--to 1]
//! ftsort-cli diagnose    [--n 6] [--faults A,B,..] [--model partial|total] [--seed 7]
//! ftsort-cli trace-check [--trace FILE] [--metrics FILE] [--prom FILE]
//! ftsort-cli replay      --trace FILE [--recost default|paper|t_sr=..,t_c=..,t_startup=..]
//!                        [--link-model uncontended|contended] [--metrics-out FILE]
//!                        [--trace-out FILE] [--run-out FILE] [--critical-path] [--width 72]
//! ftsort-cli trace-diff  --a FILE --b FILE
//! ```
//!
//! A bad argument, such as a fault outside the cube or listed twice,
//! exits with status 2 before anything runs, naming it above the
//! subcommand's usage; a run that fails exits with status 1. When stdout
//! closes early (`ftsort-cli sort … | head -1`), the CLI ends quietly, by
//! the SIGPIPE signal as `cat` does: status 141 in a shell.
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
//! `trace-check` re-reads the exports and validates trace invariants
//! (used by CI as an end-to-end check of the observability pipeline),
//! streaming the trace so its memory does not grow with the file;
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

use ft_bench::args::{dims, engine, link_model, number, Args, Flag, ENGINE, KEY_TYPE, LINK_MODEL};
use ft_bench::{random_keys_typed, GenKey, ObsFlags};
use ftsort::prelude::*;
use ftsort::seq::{KeyPair, KeyType};
use hypercube::cost::CostModel;
use hypercube::diagnosis::Syndrome;
use hypercube::obs::json::{Json, JsonValue};
use hypercube::obs::RunReport;
use hypercube::routing;
use std::process::ExitCode;

/// The machine of every subcommand that builds one.
#[rustfmt::skip]
const CUBE: &[Flag] = &[
    ("--n", "N", "cube dimension (default 6)"),
    ("--faults", "A,B,..", "faulty processors, each below 2^N, none twice (default none)"),
    ("--model", "partial|total", "whether faulty processors still relay (default partial)"),
];

/// The workload of `sort` and `mffs`.
#[rustfmt::skip]
const KEYS: &[Flag] = &[
    ("--m", "KEYS", "keys to sort (default 100000)"),
    ("--seed", "SEED", "key seed (default 1992)"),
    ("--protocol", "half|full", "compare-split protocol (default half)"),
];

#[rustfmt::skip]
const SORT: &[Flag] = &[
    ("--step8", "merge|fullsort", "step 8 strategy (default merge)"),
    ("--local-sort", "heap|quick|merge", "step 3 local sort (default heap, the paper's)"),
    ("--router", "oracle|adaptive", "router charging hops (default oracle, shortest routes)"),
    ENGINE,
    KEY_TYPE,
    LINK_MODEL,
    ("--host-io", "", "charge the host's scatter and gather"),
];

#[rustfmt::skip]
const ROUTE: &[Flag] = &[
    ("--from", "NODE", "source address (default 0)"),
    ("--to", "NODE", "destination address (default 1)"),
];

const DIAGNOSE: &[Flag] = &[("--seed", "SEED", "test-outcome seed (default 7)")];

#[rustfmt::skip]
const TRACE_CHECK: &[Flag] = &[
    ("--trace", "FILE", "a Chrome trace to validate"),
    ("--metrics", "FILE", "a run report to validate"),
    ("--prom", "FILE", "a Prometheus snapshot to validate"),
];

#[rustfmt::skip]
const REPLAY: &[Flag] = &[
    ("--trace", "FILE", "the run file to replay (required)"),
    ("--recost", "MODEL", "re-price under default, paper or t_sr=..,t_c=..,t_startup=.."),
    ("--link-model", "uncontended|contended", "re-price under this link model"),
    ("--metrics-out", "FILE", "write the run report JSON"),
    ("--trace-out", "FILE", "write the Perfetto trace"),
    ("--run-out", "FILE", "write the (re-priced) run file"),
    ("--critical-path", "", "print the critical path and its gantt"),
    ("--width", "COLS", "gantt width (default 72)"),
];

#[rustfmt::skip]
const TRACE_DIFF: &[Flag] = &[
    ("--a", "FILE", "the first run file (required)"),
    ("--b", "FILE", "the second run file (required)"),
];

type Command = fn(&Args) -> Result<(), String>;

/// Each subcommand: its name, its flag declaration and what runs it.
const COMMANDS: [(&str, &[&[Flag]], Command); 8] = [
    ("partition", &[CUBE], partition_cmd),
    ("sort", &[CUBE, KEYS, SORT, ObsFlags::FLAGS], sort_cmd),
    ("mffs", &[CUBE, KEYS], mffs_cmd),
    ("route", &[CUBE, ROUTE], route_cmd),
    ("diagnose", &[CUBE, DIAGNOSE], diagnose_cmd),
    ("trace-check", &[TRACE_CHECK], trace_check_cmd),
    ("replay", &[REPLAY], replay_cmd),
    ("trace-diff", &[TRACE_DIFF], trace_diff_cmd),
];

fn main() -> ExitCode {
    ft_bench::end_on_closed_stdout();
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let Some(&(_, tables, run)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        if !cmd.is_empty() {
            eprintln!("error: unknown command '{cmd}'");
        }
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        eprintln!("usage: ftsort-cli <{}> [flags]", names.join("|"));
        return ExitCode::from(2);
    };
    match run(&Args::read(&format!("ftsort-cli {cmd}"), tables, argv)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The fault set of [`CUBE`]'s flags.
fn faults(args: &Args) -> FaultSet {
    let cube = Hypercube::new(args.get("--n", dims(0), 6));
    let nodes = 0..cube.len() as u32;
    let faults = args.value("--faults", |s| {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        let list: Vec<u32> = s
            .split(',')
            .map(|a| number(a.trim(), &nodes))
            .collect::<Result<_, _>>()?;
        let mut sorted = list.clone();
        sorted.sort_unstable();
        match sorted.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(format!("{} is listed twice", w[0])),
            None => Ok(list),
        }
    });
    let model = args.value("--model", |s| match s {
        "partial" => Ok(FaultModel::Partial),
        "total" => Ok(FaultModel::Total),
        _ => Err(format!("unknown fault model '{s}' (partial|total)")),
    });
    FaultSet::from_raw(cube, &faults.unwrap_or_default()).with_model(model.unwrap_or_default())
}

/// [`KEYS`]' flags: key count, key seed and protocol.
fn keys(args: &Args) -> (usize, u64, Protocol) {
    let protocol = args.value("--protocol", |s| match s {
        "half" => Ok(Protocol::HalfExchange),
        "full" => Ok(Protocol::FullExchange),
        _ => Err(format!("unknown protocol '{s}' (full|half)")),
    });
    (
        args.get("--m", .., 100_000),
        args.get("--seed", .., 1992),
        protocol.unwrap_or_default(),
    )
}

fn partition_cmd(args: &Args) -> Result<(), String> {
    let faults = &faults(args);
    args.finish();
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

fn sort_cmd(args: &Args) -> Result<(), String> {
    let faults = faults(args);
    let (m_total, seed, protocol) = keys(args);
    let key_type = args.value("--key-type", KeyType::parse).unwrap_or_default();
    let step8 = args.value("--step8", |s| match s {
        "merge" => Ok(Step8Strategy::BitonicMerge),
        "fullsort" => Ok(Step8Strategy::FullSort),
        _ => Err(format!("unknown step8 '{s}' (merge|fullsort)")),
    });
    let local_sort = args.value("--local-sort", |s| match s {
        "heap" => Ok(LocalSort::Heapsort),
        "quick" => Ok(LocalSort::Quicksort),
        "merge" => Ok(LocalSort::Mergesort),
        _ => Err(format!("unknown local sort '{s}' (heap|quick|merge)")),
    });
    let router = args.value("--router", |s| match s {
        "oracle" => Ok(RouterKind::Oracle),
        "adaptive" => Ok(RouterKind::Adaptive),
        _ => Err(format!("unknown router '{s}' (oracle|adaptive)")),
    });
    let config = FtConfig {
        protocol,
        step8: step8.unwrap_or_default(),
        local_sort: local_sort.unwrap_or_default(),
        router: router.unwrap_or_default(),
        engine: args.value("--engine", engine).unwrap_or_default(),
        link_model: args.value("--link-model", link_model).unwrap_or_default(),
        include_host_io: args.switch("--host-io"),
        ..FtConfig::default()
    };
    let obs = ObsFlags::read(args);
    args.finish();
    // Monomorphic dispatch: each key type gets its own specialized engine
    // and branchless-kernel instantiation.
    let run = match key_type {
        KeyType::U32 => run_sort::<u32>,
        KeyType::U64 => run_sort::<u64>,
        KeyType::I64 => run_sort::<i64>,
        KeyType::Pair => run_sort::<KeyPair>,
    };
    run(&faults, &config, &obs, key_type, m_total, seed)
}

fn run_sort<K: GenKey>(
    faults: &FaultSet,
    config: &FtConfig,
    obs: &ObsFlags,
    key_type: KeyType,
    m_total: usize,
    seed: u64,
) -> Result<(), String> {
    let data: Vec<K> = random_keys_typed(m_total, &mut ft_bench::rng(seed));
    let plan = FtPlan::new(faults).map_err(|e| e.to_string())?;
    obs.sort(&plan, config, data, key_type, |out, phases, run| {
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
        if config.link_model == LinkModel::Contended {
            let wait: f64 = run.nodes.iter().map(|n| n.metrics.link_wait_us).sum();
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
fn replay_cmd(args: &Args) -> Result<(), String> {
    let path = args.required("--trace");
    // Checked here, applied to the run file's own model below.
    let recost = args.value("--recost", |spec| {
        parse_cost_spec(spec, CostModel::default()).map(|_| spec.to_string())
    });
    let new_model = args.value("--link-model", link_model);
    let run_out = args.path("--run-out");
    let metrics_out = args.path("--metrics-out");
    let trace_out = args.path("--trace-out");
    let critical_path = args.switch("--critical-path");
    let width = args.get("--width", .., 72);
    args.finish();
    let obs = hypercube::obs::replay::observation_from_file(&path)?;
    println!(
        "replayed {path}: Q{} run, {} participants, {} trace events, makespan {:.1} us",
        obs.dim,
        obs.nodes.len(),
        obs.trace.events().len(),
        obs.makespan()
    );
    let obs = match (recost, new_model) {
        (None, None) => obs,
        (spec, model) => {
            let target = match spec {
                None => obs.cost,
                Some(spec) => parse_cost_spec(&spec, obs.cost)?,
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
    if let Some(out) = run_out {
        hypercube::obs::replay::write_run_file(&obs, &out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("run written    : {out} (ftsort-cli replay --trace {out})");
    }
    if let Some(out) = metrics_out {
        let report = obs.report(&phase_name);
        std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("metrics written: {out}");
    }
    if let Some(out) = trace_out {
        ft_bench::write_trace(&out, &obs)?;
        println!("trace written  : {out} (load in ui.perfetto.dev)");
    }
    if critical_path {
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
fn parse_cost_spec(spec: &str, base: CostModel) -> Result<CostModel, String> {
    match spec {
        "default" => Ok(CostModel::default()),
        "paper" => Ok(CostModel::paper_form()),
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
fn trace_diff_cmd(args: &Args) -> Result<(), String> {
    use hypercube::obs::critical_path::CriticalPath;
    use hypercube::obs::diff::{render_diff, SegmentProfile};
    let (path_a, path_b) = (args.required("--a"), args.required("--b"));
    args.finish();
    let profile = |path: &str| -> Result<SegmentProfile, String> {
        let obs = hypercube::obs::replay::observation_from_file(path)?;
        let cp = CriticalPath::compute(&obs)
            .ok_or(format!("{path}: no trace events — was the sort traced?"))?;
        Ok(SegmentProfile::collect(&obs, &cp, &phase_name))
    };
    let (a, b) = (profile(&path_a)?, profile(&path_b)?);
    print!("{}", render_diff(&a, &b, &path_a, &path_b));
    Ok(())
}

/// Validates a `--trace-out` / `--metrics-out` pair written by `sort`:
/// the trace must be valid Chrome-trace JSON whose flow events pair up
/// (every `f` preceded by its `s`, no dangling ids) and whose counter
/// tracks stay sane (see
/// [`validate_chrome_trace`](hypercube::obs::perfetto::validate_chrome_trace)),
/// and the report must read back as a [`RunReport`]. `--prom`
/// validates a `--metrics-snapshot` exposition file with
/// [`validate_prom`](hypercube::obs::metrics::validate_prom): every
/// sample declared by a `# TYPE` family, no duplicate series, histogram
/// buckets cumulative with a `+Inf` bucket matching `_count`. All three
/// stream their files, so a file's length sizes no buffer.
fn trace_check_cmd(args: &Args) -> Result<(), String> {
    let (trace, metrics, prom) = (
        args.path("--trace"),
        args.path("--metrics"),
        args.path("--prom"),
    );
    if trace.is_none() && metrics.is_none() && prom.is_none() {
        args.fail("trace-check needs --trace, --metrics and/or --prom FILE".into());
    }
    args.finish();
    if let Some(path) = &trace {
        let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
        let check = hypercube::obs::perfetto::validate_chrome_trace(file)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok ({} events, {} spans, {} flows, {} counters)",
            check.events, check.spans, check.flows, check.counters
        );
    }
    if let Some(path) = &metrics {
        let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
        let report = Json::read(file)
            .and_then(|json| RunReport::read(&json))
            .map_err(|e| format!("{path}: {e}"))?;
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
    }
    if let Some(path) = &prom {
        let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
        let check = hypercube::obs::metrics::validate_prom(std::io::BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok ({} families, {} series, {} samples)",
            check.families, check.series, check.samples
        );
    }
    Ok(())
}

fn mffs_cmd(args: &Args) -> Result<(), String> {
    let faults = &faults(args);
    let (m_total, seed, protocol) = keys(args);
    args.finish();
    let data: Vec<u32> = random_keys_typed(m_total, &mut ft_bench::rng(seed));
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

fn route_cmd(args: &Args) -> Result<(), String> {
    let faults = &faults(args);
    let nodes = 0..faults.cube().len() as u32;
    let src = NodeId::new(args.get("--from", nodes.clone(), 0));
    let dst = NodeId::new(args.get("--to", nodes, 1));
    args.finish();
    let n = faults.cube().dim();
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

fn diagnose_cmd(args: &Args) -> Result<(), String> {
    let faults = &faults(args);
    let seed = args.get("--seed", .., 7);
    args.finish();
    let n = faults.cube().dim();
    let syndrome = Syndrome::collect(faults, &mut ft_bench::rng(seed));
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
