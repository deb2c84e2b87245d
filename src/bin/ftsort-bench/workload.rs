//! The four workloads, the inputs each draws from the seed, and the ops
//! that drive `ftsort-cli` and `ftsort-campaign` with them. Every op is
//! checked; a failed check fails the op.

use crate::child::{self, Outcome};
use crate::metrics::PER_LAYER;
use crate::parse;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 1992;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One `ftsort-cli sort`.
    Sort,
    /// A sort that records a gzipped run file, then its `replay`.
    Runfile,
    /// One `ftsort-campaign`.
    Campaign,
}

/// Expected results at [`DEFAULT_SEED`]: the paper's simulated time and
/// two exact counts. A change that moves them changed the algorithm.
pub struct Golden {
    pub virtual_us: f64,
    pub element_hops: u64,
    pub comparisons: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Cube dimension and fault count of the sort; for `campaign`, of its
    /// largest cell, which the partition twin plans.
    pub n: u32,
    pub r: usize,
    /// Keys per sort.
    pub m: usize,
    pub golden: Golden,
}

/// Sizes were calibrated on a 2-core host, where one op takes ~0.1 s
/// (`fine`), ~0.9 s (`bulk`), ~0.7 s (`runfile`) and ~2 s (`campaign`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fine",
        why: "Q10, 9 faults, 16000 keys (~16 per live node): 186k tiny messages in 193 rounds, so per-message polling, delivery and round overhead dominate; kernels idle",
        kind: Kind::Sort,
        n: 10,
        r: 9,
        m: 16_000,
        golden: Golden {
            virtual_us: 167935.200000001,
            element_hops: 2156160,
            comparisons: 1368741,
        },
    },
    Workload {
        name: "bulk",
        why: "Q6, 3 faults, 4M keys (~67k per node, past the 512 KiB blocked-merge threshold): sequential kernels dominate, rounds are few, observability is off",
        kind: Kind::Sort,
        n: 6,
        r: 3,
        m: 4_000_000,
        golden: Golden {
            virtual_us: 25870987.400000043,
            element_hops: 119733932,
            comparisons: 208367423,
        },
    },
    Workload {
        name: "runfile",
        why: "Q8 sort recording a gzipped run file, then its replay: the observability write path (render, gzip, serial flush) and read path (inflate, parse) dominate",
        kind: Kind::Runfile,
        n: 8,
        r: 5,
        m: 16_000,
        golden: Golden {
            virtual_us: 119487.39999999998,
            element_hops: 1048320,
            comparisons: 878507,
        },
    },
    Workload {
        name: "campaign",
        why: "ftsort-campaign: 512 short seq-engine sorts (n=6,8; r=3,5; contended links), so per-run planning, engine set-up and aggregation dominate; no trace sinks",
        kind: Kind::Campaign,
        n: 8,
        r: 5,
        m: 4_000,
        golden: Golden {
            virtual_us: 77022.48671874998,
            element_hops: 99832092,
            comparisons: 84393560,
        },
    },
];

/// Per-layer shares of summed worker time, in `parse::Sched::category_s` order.
const SHARES: [&str; 7] = [
    "sim.poll_share",
    "sim.deliver_share",
    "sim.serial_share",
    "sim.steal_share",
    "sim.barrier_share",
    "sim.park_share",
    "sim.other_share",
];

/// The campaign matrix; `--seed`, `--jobs` and `--out` are added per run.
const CAMPAIGN_ARGS: [&str; 10] = [
    "--sizes",
    "6,8",
    "--fault-counts",
    "3,5",
    "--runs",
    "128",
    "--m",
    "4000",
    "--link-model",
    "contended",
];

/// splitmix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The fault set for `seed`: a fixed base set of `r` distinct addresses in
/// Q_n mapped through a hypercube automorphism (a permutation of the
/// dimensions, then an XOR translation) drawn from the seed. Every seed
/// gets a different but isomorphic instance: the same mincut, live-node
/// count and message count, so the work per op barely depends on the seed
/// (partition tie-breaks and the keys move hop counts and simulated time
/// by a few percent).
pub fn faults(n: u32, r: usize, seed: u64) -> Vec<u32> {
    let mut base_rng = Rng(u64::from(n) << 32 | r as u64);
    let mut base: Vec<u32> = Vec::with_capacity(r);
    while base.len() < r {
        let a = base_rng.below(1 << n) as u32;
        if !base.contains(&a) {
            base.push(a);
        }
    }
    let mut rng = Rng(seed);
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let shift = rng.below(1 << n) as u32;
    let mut out: Vec<u32> = base
        .iter()
        .map(|&a| (0..n).fold(0, |acc, d| acc | ((a >> d) & 1) << perm[d as usize]) ^ shift)
        .collect();
    out.sort_unstable();
    out
}

/// A seed for one of the programs' own generators, derived from `seed`.
fn derived_seed(seed: u64, stream: u64) -> u64 {
    Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next() >> 1
}

/// One timed op, measured from outside the program.
pub struct Sample {
    /// Wall of the whole op (for `runfile`, the recording plus the replay).
    pub wall_s: f64,
    /// Spawn to the first stderr line of the op's main child.
    pub setup_s: f64,
    pub cpu_s: f64,
    pub rss_kb: u64,
    pub virtual_us: f64,
    /// The main child alone: the sort, the recording sort or the campaign.
    pub main_wall_s: f64,
    pub main_cpu_s: f64,
    /// Sorts the main child ran (the campaign runs many).
    pub sorts: f64,
    /// `runfile`: wall of the replay.
    pub replay_s: f64,
}

/// Spans the benchmark records around each child call: name, op id,
/// parent span and seconds since the benchmark started.
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// What one sort printed that the checks and metrics use.
struct SortResult {
    setup_s: f64,
    virtual_us: f64,
    element_hops: u64,
    comparisons: u64,
}

#[derive(Clone, Copy)]
enum Engine {
    Par,
    Seq,
}

pub struct Bench {
    pub workload: &'static Workload,
    pub seed: u64,
    pub threads: usize,
    cli: PathBuf,
    campaign: PathBuf,
    work: PathBuf,
    faults: String,
    cli_seed: u64,
    campaign_seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    op_span: Option<usize>,
    t0: Instant,
    /// The first good op's outputs; every later op must reproduce them.
    stats_ref: Option<Vec<String>>,
    runfile_ref: Option<Vec<u8>>,
    report_ref: Option<Vec<u8>>,
}

/// Stores `value` as the reference the first time, then requires equality.
fn same<T: PartialEq>(reference: &mut Option<T>, value: T, what: &str) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(value);
            Ok(())
        }
        Some(r) if *r == value => Ok(()),
        Some(_) => Err(format!("{what} differ from the first op's")),
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn read_text(path: &Path) -> Result<String, String> {
    String::from_utf8(read(path)?).map_err(|_| format!("{}: not UTF-8", path.display()))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Bench {
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        threads: usize,
        bin_dir: &Path,
        work: PathBuf,
    ) -> Bench {
        let faults: Vec<String> = faults(workload.n, workload.r, seed)
            .iter()
            .map(u32::to_string)
            .collect();
        Bench {
            workload,
            seed,
            threads,
            cli: bin_dir.join("ftsort-cli"),
            campaign: bin_dir.join("ftsort-campaign"),
            work,
            faults: faults.join(","),
            cli_seed: derived_seed(seed, 1),
            campaign_seed: derived_seed(seed, 2),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            op_span: None,
            t0: Instant::now(),
            stats_ref: None,
            runfile_ref: None,
            report_ref: None,
        }
    }

    /// Runs one op, counting it as attempted and, if a check fails, as
    /// failed.
    pub fn attempt<T>(
        &mut self,
        f: impl FnOnce(&mut Bench, usize) -> Result<T, String>,
    ) -> Option<T> {
        let op = self.attempted as usize;
        self.attempted += 1;
        let now = self.t0.elapsed().as_secs_f64();
        self.op_span = Some(self.span("op", op, None, now, now));
        let result = f(self, op);
        if let Some(i) = self.op_span.take() {
            self.spans[i].end_s = self.t0.elapsed().as_secs_f64();
        }
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("ftsort-bench: {} op {op} failed: {e}", self.workload.name);
                }
                None
            }
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_s,
            end_s,
        });
        self.spans.len() - 1
    }

    fn path(&self, file: &str) -> String {
        self.work.join(file).to_string_lossy().into_owned()
    }

    /// Runs one child under a span (split into setup / work / teardown at
    /// its stderr markers) and requires exit code 0.
    fn call(
        &mut self,
        op: usize,
        name: &'static str,
        program: &Path,
        args: &[String],
    ) -> Result<Outcome, String> {
        let out = child::run(program, args)
            .map_err(|e| format!("{name}: cannot run {}: {e}", program.display()))?;
        let start = out.start.duration_since(self.t0).as_secs_f64();
        let end = start + out.wall_s;
        let parent = self.span(name, op, self.op_span, start, end);
        if let Some((first, done)) = parse::phase_marks(&out.stderr) {
            self.span("setup", op, Some(parent), start, start + first);
            self.span("work", op, Some(parent), start + first, start + done);
            self.span("teardown", op, Some(parent), start + done, end);
        }
        if out.status != 0 {
            let last = out.stderr.last().map_or("", |(_, l)| l.as_str());
            let how = match (out.status & 0x7f, out.status >> 8) {
                (0, code) => format!("exit code {code}"),
                (signal, _) => format!("killed by signal {signal}"),
            };
            return Err(format!("{name}: {how} ({last})"));
        }
        Ok(out)
    }

    fn sort_args(&self, engine: Engine, extra: &[String]) -> Vec<String> {
        let w = self.workload;
        let mut args: Vec<String> = [
            "sort",
            "--n",
            &w.n.to_string(),
            "--faults",
            &self.faults,
            "--m",
            &w.m.to_string(),
            "--seed",
            &self.cli_seed.to_string(),
            "--log-level",
            "info",
        ]
        .map(String::from)
        .to_vec();
        match engine {
            Engine::Par => args.extend(
                ["--engine", "par", "--threads", &self.threads.to_string()].map(String::from),
            ),
            Engine::Seq => args.extend(["--engine", "seq"].map(String::from)),
        }
        args.extend_from_slice(extra);
        args
    }

    fn check_golden(
        &self,
        virtual_us: f64,
        element_hops: u64,
        comparisons: u64,
    ) -> Result<(), String> {
        let g = &self.workload.golden;
        if self.seed != DEFAULT_SEED
            || (virtual_us, element_hops, comparisons)
                == (g.virtual_us, g.element_hops, g.comparisons)
        {
            return Ok(());
        }
        Err(format!(
            "at seed {DEFAULT_SEED} expected virtual {} us, {} element·hops, {} comparisons; got {virtual_us}, {element_hops}, {comparisons}",
            g.virtual_us, g.element_hops, g.comparisons
        ))
    }

    /// Checks one sort's output: both log records, stats identical to the
    /// first op's (whatever the engine or observability flags), goldens.
    fn check_sort(&mut self, out: &Outcome) -> Result<SortResult, String> {
        let (setup_s, _) = parse::phase_marks(&out.stderr)
            .ok_or("sort: missing the 'sort starting' / 'sort complete' log records")?;
        let virtual_us = parse::log_number(&out.stderr, "sort complete", "time_us")
            .ok_or("sort: no time_us in the 'sort complete' record")?;
        let count = |label| {
            parse::stat(&out.stdout, label)
                .ok_or_else(|| format!("sort: no '{label}' line on stdout"))
        };
        let r = SortResult {
            setup_s,
            virtual_us,
            element_hops: count("element·hops")?,
            comparisons: count("comparisons")?,
        };
        same(
            &mut self.stats_ref,
            parse::stats_lines(&out.stdout),
            "sort stdout stats",
        )?;
        self.check_golden(r.virtual_us, r.element_hops, r.comparisons)?;
        Ok(r)
    }

    fn sort(
        &mut self,
        op: usize,
        name: &'static str,
        engine: Engine,
        extra: &[String],
    ) -> Result<(Outcome, SortResult), String> {
        let args = self.sort_args(engine, extra);
        let out = self.call(op, name, &self.cli.clone(), &args)?;
        let r = self.check_sort(&out)?;
        Ok((out, r))
    }

    /// A sort that records the run file; its bytes must match the first
    /// op's, whatever the engine or observability flags.
    fn record(
        &mut self,
        op: usize,
        name: &'static str,
        engine: Engine,
        extra: &[String],
    ) -> Result<(Outcome, SortResult), String> {
        let mut args = vec![
            "--run-out".to_string(),
            self.path("run.jsonl.gz"),
            "--metrics-out".to_string(),
            self.path("live.json"),
        ];
        args.extend_from_slice(extra);
        let (out, r) = self.sort(op, name, engine, &args)?;
        let bytes = read(&self.work.join("run.jsonl.gz"))?;
        same(&mut self.runfile_ref, bytes, "run-file bytes")?;
        Ok((out, r))
    }

    /// Replays the run file; the replayed report must equal the live one.
    fn replay(&mut self, op: usize) -> Result<Outcome, String> {
        let args = [
            "replay",
            "--trace",
            &self.path("run.jsonl.gz"),
            "--metrics-out",
            &self.path("replay.json"),
        ]
        .map(String::from);
        let out = self.call(op, "replay", &self.cli.clone(), &args)?;
        let live = read_text(&self.work.join("live.json"))?;
        let replayed = read_text(&self.work.join("replay.json"))?;
        if parse::strip_host_fields(&live) != replayed {
            return Err("replayed --metrics-out report differs from the live one".into());
        }
        Ok(out)
    }

    /// One campaign; its report must match the first op's byte for byte,
    /// at any job count, with no failed run.
    fn run_campaign(
        &mut self,
        op: usize,
        name: &'static str,
        jobs: usize,
        extra: &[String],
    ) -> Result<(Outcome, parse::Campaign), String> {
        let mut args: Vec<String> = CAMPAIGN_ARGS.map(String::from).to_vec();
        args.extend([
            "--jobs".to_string(),
            jobs.to_string(),
            "--seed".to_string(),
            self.campaign_seed.to_string(),
            "--out".to_string(),
            self.path("campaign.json"),
        ]);
        args.extend_from_slice(extra);
        let out = self.call(op, name, &self.campaign.clone(), &args)?;
        if parse::phase_marks(&out.stderr).is_none() {
            return Err("campaign: missing the 'campaign: 0/N' / 'N/N runs' progress lines".into());
        }
        let bytes = read(&self.work.join("campaign.json"))?;
        let c = parse::campaign(&String::from_utf8_lossy(&bytes))?;
        if c.runs_failed > 0.0 {
            return Err(format!("campaign: {} runs failed", c.runs_failed));
        }
        same(&mut self.report_ref, bytes, "campaign report bytes")?;
        self.check_golden(c.virtual_us, c.element_hops as u64, c.comparisons as u64)?;
        Ok((out, c))
    }

    /// One timed op, with tracing off.
    pub fn timed_op(&mut self, op: usize) -> Result<Sample, String> {
        match self.workload.kind {
            Kind::Sort => {
                let (out, r) = self.sort(op, "sort", Engine::Par, &[])?;
                Ok(Sample {
                    wall_s: out.wall_s,
                    setup_s: r.setup_s,
                    cpu_s: out.cpu_s,
                    rss_kb: out.max_rss_kb,
                    virtual_us: r.virtual_us,
                    main_wall_s: out.wall_s,
                    main_cpu_s: out.cpu_s,
                    sorts: 1.0,
                    replay_s: 0.0,
                })
            }
            Kind::Runfile => {
                let (rec, r) = self.record(op, "record", Engine::Par, &[])?;
                let rep = self.replay(op)?;
                Ok(Sample {
                    wall_s: rec.wall_s + rep.wall_s,
                    setup_s: r.setup_s,
                    cpu_s: rec.cpu_s + rep.cpu_s,
                    rss_kb: rec.max_rss_kb.max(rep.max_rss_kb),
                    virtual_us: r.virtual_us,
                    main_wall_s: rec.wall_s,
                    main_cpu_s: rec.cpu_s,
                    sorts: 1.0,
                    replay_s: rep.wall_s,
                })
            }
            Kind::Campaign => {
                let (out, c) = self.run_campaign(op, "campaign", self.threads, &[])?;
                Ok(Sample {
                    wall_s: out.wall_s,
                    setup_s: out.stderr[0].0,
                    cpu_s: out.cpu_s,
                    rss_kb: out.max_rss_kb,
                    virtual_us: c.virtual_us,
                    main_wall_s: out.wall_s,
                    main_cpu_s: out.cpu_s,
                    sorts: c.runs,
                    replay_s: 0.0,
                })
            }
        }
    }

    /// One traced op: a bare op, the same op with the program's own
    /// observability on, a single-thread twin and a partition twin. Returns
    /// every per-layer metric (0 for a layer the workload does not use).
    pub fn traced_op(&mut self, op: usize) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|x| (x.name, 0.0)).collect();
        let mut set = |name: &'static str, v: f64| {
            *m.get_mut(name).expect("metric listed in PER_LAYER") = v;
        };
        let bare = self.timed_op(op)?;
        let kind = self.workload.kind;
        let sched_out = self.path("sched.json");
        let prom_out = self.path("prom.txt");
        let observed: Vec<String> = match kind {
            Kind::Campaign => vec!["--metrics-snapshot".into(), prom_out],
            _ => vec![
                "--sched-out".into(),
                sched_out,
                "--metrics-snapshot".into(),
                prom_out,
            ],
        };
        let (traced, counts) = match kind {
            Kind::Sort => {
                let (out, r) = self.sort(op, "sort-traced", Engine::Par, &observed)?;
                (out, (r.element_hops as f64, r.comparisons as f64))
            }
            Kind::Runfile => {
                let (out, r) = self.record(op, "record-traced", Engine::Par, &observed)?;
                (out, (r.element_hops as f64, r.comparisons as f64))
            }
            Kind::Campaign => {
                let (out, c) = self.run_campaign(op, "campaign-traced", self.threads, &observed)?;
                set("campaign.runs", c.runs);
                set("campaign.runs_failed", c.runs_failed);
                (out, (c.element_hops, c.comparisons))
            }
        };
        let (first, done) =
            parse::phase_marks(&traced.stderr).ok_or("traced op: no stderr markers")?;
        set("cli.setup_s", first);
        set("cli.work_s", done - first);
        set("cli.teardown_s", traced.wall_s - done);
        set("cli.cpu_per_sort_ms", 1e3 * bare.main_cpu_s / bare.sorts);
        set(
            "cli.parallel_eff",
            ratio(bare.main_cpu_s, bare.main_wall_s * self.threads as f64),
        );
        set("trace.overhead_x", ratio(traced.wall_s, bare.main_wall_s));
        set("sim.element_hops", counts.0);
        set("seq.comparisons", counts.1);

        let prom = read_text(&self.work.join("prom.txt"))?;
        for (name, family) in [
            ("sim.rounds", "ftsort_rounds_total"),
            ("sim.messages", "ftsort_messages_delivered_total"),
            ("sim.elements_priced", "ftsort_elements_priced_total"),
            ("sim.barrier_epochs", "ftsort_ws_barrier_epochs_total"),
            ("sim.steals", "ftsort_ws_steals_total"),
            ("sim.pool_takes", "ftsort_pool_takes_total"),
            ("sim.pool_slab_high_water", "ftsort_pool_slab_high_water"),
            ("obs.sink_events", "ftsort_sink_events_total"),
        ] {
            set(name, parse::prom_sum(&prom, family));
        }
        let gz_in_mb = parse::prom_sum(&prom, "ftsort_gz_bytes_in_total") * 1e-6;
        let gz_out_mb = parse::prom_sum(&prom, "ftsort_gz_bytes_out_total") * 1e-6;
        set("obs.gz_in_mb", gz_in_mb);
        set("obs.gz_out_mb", gz_out_mb);
        set("obs.gz_ratio", ratio(gz_in_mb, gz_out_mb));
        set("obs.read_mb_per_s", ratio(gz_in_mb, bare.replay_s));

        if kind != Kind::Campaign {
            let s = parse::sched(&read_text(&self.work.join("sched.json"))?)?;
            let total: f64 = s.category_s.iter().sum();
            for (name, secs) in SHARES.into_iter().zip(s.category_s) {
                set(name, ratio(secs, total));
            }
            let [poll_s, _, serial_s, ..] = s.category_s;
            set("sim.utilization", s.utilization);
            set("sim.steal_rate", s.steal_rate);
            set("sim.engine_share", ratio(s.makespan_s, done - first));
            set("sim.tiling_gap", s.tiling_gap);
            set("seq.cmp_per_poll_s", ratio(counts.1, poll_s));
            set("obs.write_mb_per_s", ratio(gz_in_mb, serial_s));
        }

        // The single-thread twin: the seq engine, or one campaign job.
        let twin = match kind {
            Kind::Sort => self.sort(op, "sort-seq", Engine::Seq, &[])?.0,
            Kind::Runfile => self.record(op, "record-seq", Engine::Seq, &[])?.0,
            Kind::Campaign => self.run_campaign(op, "campaign-jobs1", 1, &[])?.0,
        };
        set("cli.speedup_x", ratio(twin.wall_s, bare.main_wall_s));
        if kind == Kind::Runfile {
            let (plain, _) = self.sort(op, "sort-bare", Engine::Par, &[])?;
            set(
                "obs.record_overhead_x",
                ratio(bare.main_wall_s, plain.wall_s),
            );
        }

        let args = [
            "partition",
            "--n",
            &self.workload.n.to_string(),
            "--faults",
            &self.faults,
        ]
        .map(String::from);
        let part = self.call(op, "partition", &self.cli.clone(), &args)?;
        let (mincut, live) =
            parse::partition_shape(&part.stdout).ok_or("partition: unreadable stdout")?;
        set("partition.wall_s", part.wall_s);
        set("partition.mincut", mincut as f64);
        set("partition.live_nodes", live as f64);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sets_are_seeded_automorphic_images() {
        let weight = |set: &[u32]| {
            let mut w: Vec<u32> = set
                .iter()
                .flat_map(|a| set.iter().map(move |b| (a ^ b).count_ones()))
                .collect();
            w.sort_unstable();
            w
        };
        for w in &WORKLOADS {
            let a = faults(w.n, w.r, 1);
            assert_eq!(a, faults(w.n, w.r, 1), "same seed, same inputs");
            assert_eq!(a.len(), w.r);
            assert!(a.windows(2).all(|p| p[0] < p[1]), "distinct, sorted");
            assert!(a.iter().all(|&x| x < 1 << w.n));
            let b = faults(w.n, w.r, 2);
            assert_ne!(a, b, "{}: another seed gives another set", w.name);
            // Automorphisms preserve every pairwise Hamming distance.
            assert_eq!(weight(&a), weight(&b));
        }
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        assert_ne!(derived_seed(1992, 1), derived_seed(1992, 2));
        assert_ne!(derived_seed(1992, 1), derived_seed(1993, 1));
        assert!(derived_seed(u64::MAX, 2) <= i64::MAX as u64);
    }
}
